import math
import os
import subprocess
import sys

import pytest

from magnilab import cli


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "magnilab.cli", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture
def cycle_edges(tmp_path):
    p = tmp_path / "c4.edges"
    p.write_text("0 1\n1 2\n2 3\n3 0\n")
    return str(p)


@pytest.fixture
def distance_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,1,2,1\n1,0,1,2\n2,1,0,1\n1,2,1,0\n")
    return str(p)


def test_header_and_row_shape(distance_csv):
    res = run_cli(["finite", "--input", distance_csv, "--t", "2"])
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "t,N,value,stderr,closed_form,abs_err,method,seed"
    assert len(lines[1].split(",")) == 8


def test_finite_matches_four_cycle_closed_form(distance_csv):
    res = run_cli(["finite", "--input", distance_csv, "--t", "2"])
    value = float(res.stdout.strip().splitlines()[1].split(",")[2])
    e = math.exp(2.0)
    assert value == pytest.approx(4 * e**2 / (1 + e) ** 2, rel=1e-10)


def test_graph_gamma_count(cycle_edges):
    res = run_cli(["graph", "--edges", cycle_edges, "--gamma", "count", "--t", "2"])
    value = float(res.stdout.strip().splitlines()[1].split(",")[2])
    e = math.exp(2.0)
    assert value == pytest.approx(4 * e**2 * (1 + (1 - e) ** 2) / (4 + e**4),
                                  rel=1e-10)


def test_unknown_flag_exits_2():
    res = run_cli(["manifold", "--space", "circle", "--bogus"])
    assert res.returncode == 2
    assert "usage" in res.stderr.lower()


def test_invalid_metric_exits_2(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,1,9\n1,0,1\n9,1,0\n")  # triangle violation
    res = run_cli(["finite", "--input", str(p), "--t", "1"])
    assert res.returncode == 2


def test_missing_file_exits_2():
    res = run_cli(["finite", "--input", "/nonexistent.csv", "--t", "1"])
    assert res.returncode == 2


def test_degenerate_matrix_exits_3(tmp_path):
    p = tmp_path / "dup.csv"
    # valid metric but two nearly coincident points: similarity matrix is
    # numerically singular at t = 1
    p.write_text("0,1,1\n1,0,1e-16\n1,1e-16,0\n")
    res = run_cli(["finite", "--input", str(p), "--t", "1"])
    assert res.returncode == 3


def test_t_grid_ordering_and_log_spacing(distance_csv):
    res = run_cli(["finite", "--input", distance_csv,
                   "--t-grid", "1", "4", "3", "--t-spacing", "log"])
    ts = [float(l.split(",")[0]) for l in res.stdout.strip().splitlines()[1:]]
    assert ts == sorted(ts)
    assert ts[1] == pytest.approx(2.0, rel=1e-9)


def test_byte_identical_across_thread_env(tmp_path):
    # 600000 samples is three batches, so the thread pool runs
    for args in (["manifold", "--space", "circle", "--t-grid", "1", "3", "3", "--N", "2",
                  "--samples", "600000", "--seed", "7", "--method", "mc"],
                 ["length-spectrum", "--space", "circle", "--n", "2", "--bins", "16",
                  "--samples", "600000", "--seed", "7"]):
        a = run_cli(args, {"MAGNILAB_THREADS": "1"})
        b = run_cli(args, {"MAGNILAB_THREADS": "4"})
        assert a.stdout == b.stdout and a.stdout


def test_output_file(tmp_path, distance_csv):
    out = tmp_path / "o.csv"
    res = run_cli(["finite", "--input", distance_csv, "--t", "1",
                   "--output", str(out)])
    assert res.returncode == 0
    assert out.read_text().startswith("t,N,")


def test_interval_weight_table_columns():
    res = run_cli(["interval-weight", "--N", "1", "--samples", "20000"])
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "N,paper_formula,corrected_formula,bruteforce,mc_estimate,mc_stderr"
    row = lines[1].split(",")
    assert float(row[3]) == pytest.approx(0.5, abs=1e-9)


def test_catalog_columns():
    res = run_cli(["catalog", "--t", "1"])
    assert res.stdout.splitlines()[0] == "space,n,t,closed_form,oracle,abs_diff,citation"


def test_method_all_multi_seed_agreement():
    """MC agrees with the closed form within 4 sigma for >= 95% of seeds."""
    from magnilab import closed_forms, mc
    from magnilab.spaces import Circle
    hits = 0
    exact = closed_forms.circle_term(1, 1.0, 1.0)
    for seed in range(20):
        est = mc.estimate_term(
            mc.SamplerSpec(Circle(1.0), seed=seed, samples=100_000), 1, 1.0)
        hits += abs(est.value - exact) < 4 * est.std_error
    assert hits >= 19


def test_run_returns_zero_in_process(tmp_path, distance_csv):
    assert cli.run(["finite", "--input", distance_csv, "--t", "1"]) == 0


@pytest.mark.parametrize("line, named", [("0 1 nan", "(0,1)"), ("0 1 inf", "(0,1)"),
                                         ("0 x", "'0 x'")])
def test_bad_edge_list_exits_2(tmp_path, line, named):
    p = tmp_path / "bad.edges"
    p.write_text(f"1 2\n{line}\n2 0\n")
    res = run_cli(["graph", "--edges", str(p), "--t", "1"])
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and named in res.stderr
    assert "Traceback" not in res.stderr


def assert_printed_close(printed, value):
    """rel 1e-12, plus half a unit in the 12th significant digit the CSV prints."""
    resolution = 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11)
    assert abs(float(printed) - value) <= 1e-12 * abs(value) + resolution


def test_graph_count_method_all_matches_numpy(tmp_path):
    """Z-tilde on a 4x5 grid has counts C(|dr|+|dc|, |dr|) at distance |dr|+|dc|."""
    import numpy as np
    rows, cols, n_terms = 4, 5, 4
    p = tmp_path / "grid.edges"
    p.write_text("".join(
        [f"{r * cols + c} {r * cols + c + 1}\n" for r in range(rows) for c in range(cols - 1)]
        + [f"{r * cols + c} {(r + 1) * cols + c}\n" for r in range(rows - 1) for c in range(cols)]))
    out = tmp_path / "o.csv"
    assert cli.run(["graph", "--edges", str(p), "--gamma", "count", "--method", "all",
                    "--t-grid", "1.5", "3", "3", "--N", str(n_terms),
                    "--output", str(out)]) == 0
    r, c = np.divmod(np.arange(rows * cols), cols)
    dr = np.abs(r[:, None] - r[None, :])
    dc = np.abs(c[:, None] - c[None, :])
    counts = np.vectorize(math.comb)(dr + dc, dr).astype(float)
    lines = out.read_text().strip().splitlines()[1:]
    assert len(lines) == 6
    for i, t in enumerate((1.5, 2.25, 3.0)):
        z = counts * np.exp(-t * (dr + dc))
        np.fill_diagonal(z, 1.0)
        inverse = lines[2 * i].split(",")
        series = lines[2 * i + 1].split(",")
        assert float(inverse[0]) == pytest.approx(t, rel=1e-12)
        assert inverse[6] == "inverse" and series[6] == "series"
        assert_printed_close(inverse[2], np.linalg.solve(z, np.ones(len(z))).sum())
        y = z - np.eye(len(z))
        terms = [np.linalg.matrix_power(y, k).sum() for k in range(1, n_terms + 1)]
        assert_printed_close(series[2], len(z) + sum(
            (-1) ** k * a for k, a in enumerate(terms, start=1)))


def test_non_finite_distance_exits_2(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("0,1,nan\n1,0,1\nnan,1,0\n")
    res = run_cli(["finite", "--input", str(p), "--t", "1"])
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and "non-finite" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    ["manifold", "--space", "circle", "--t", "1", "--samples", "0"],
    ["weight-check", "--t", "1", "--samples", "0"],
    ["length-spectrum", "--space", "circle", "--bins", "1"],
    ["finite", "--input", "DIST", "--method", "series", "--N", "-1", "--t", "1"],
    ["finite", "--input", "DIST", "--t", "-1"],
    ["manifold", "--space", "circle", "--t", "nan", "--samples", "10"],
    ["length-spectrum", "--space", "circle", "--n", "0"],
    ["length-spectrum", "--space", "circle", "--l-max", "-1", "--samples", "10"],
    ["fekete-demo", "--seed", "-1"],
    ["interval-weight", "--t", "-1"],
])
def test_flag_out_of_range_exits_2(distance_csv, args):
    res = run_cli([distance_csv if a == "DIST" else a for a in args])
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr
