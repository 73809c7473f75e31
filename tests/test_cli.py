import contextlib
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from magnilab import cli, empirical, mc, weight_measures
from magnilab.errors import MetricValidationError
from magnilab.spaces import Sphere2


def run_cli(args, env_extra=None, stdin_text=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "magnilab.cli", *args],
                          capture_output=True, text=True, env=env, input=stdin_text)


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
    # finite screens the metric on a worker while the main thread solves
    p = tmp_path / "d.csv"
    p.write_text("".join(",".join(repr(abs(i - j) ** 0.5) for j in range(40)) + "\n"
                         for i in range(40)))
    # 600000 samples is three batches, so the thread pool runs
    for args in (["manifold", "--space", "circle", "--t-grid", "1", "3", "3", "--N", "2",
                  "--samples", "600000", "--seed", "7", "--method", "mc"],
                 ["length-spectrum", "--space", "circle", "--n", "2", "--bins", "16",
                  "--samples", "600000", "--seed", "7"],
                 ["finite", "--input", str(p), "--t-grid", "0.5", "8", "6", "--t-spacing",
                  "log", "--method", "all", "--N", "5"]):
        a = run_cli(args, {"MAGNILAB_THREADS": "1"})
        b = run_cli(args, {"MAGNILAB_THREADS": "4"})
        assert a.stdout == b.stdout and a.stdout


def test_finite_validation_error_comes_before_any_solve_failure(tmp_path, monkeypatch, capsys):
    """d(0,0) = -1e-13 is within the tolerance, and exp(1e-13 * 1e16)
    overflows.  With a triangle violation as well, only the validation error
    prints, whether or not the solves ran beside the screen; without one, the
    overflow warning and the numerical failure print as they do on one
    thread.  In process the suite turns the warning into an exception, which
    the validation error wins over too."""
    p = tmp_path / "d.csv"
    argv = ["finite", "--input", str(p), "--t", "1e16"]
    p.write_text("-1e-13,1,3\n1,0,1\n3,1,0\n")
    error = "error: triangle inequality at (0, 1, 2); triangle inequality at (2, 1, 0)\n"
    for threads in ("1", "2"):
        res = run_cli(argv, {"MAGNILAB_THREADS": threads})
        assert (res.returncode, res.stdout, res.stderr) == (2, "", error)
        monkeypatch.setenv("MAGNILAB_THREADS", threads)
        assert cli.run(argv) == 2
        assert capsys.readouterr() == ("", error)

    p.write_text("-1e-13,1,1\n1,0,1\n1,1,0\n")
    one, two = (run_cli(argv, {"MAGNILAB_THREADS": threads}) for threads in ("1", "2"))
    assert (one.returncode, one.stdout, one.stderr) == (two.returncode, two.stdout, two.stderr)
    warning, _, failure = two.stderr.splitlines()
    assert (two.returncode, two.stdout) == (3, "")
    assert warning.endswith("RuntimeWarning: overflow encountered in exp")
    assert failure == ("numerical failure: similarity matrix numerically singular "
                       "(condition estimate inf)")


def test_partial_tile_and_batch_byte_identical_across_thread_env():
    """Two full batches, one full tile and a 3-chain tile: the pool splits
    them differently at 1, 2 and 3 workers, and the rows do not move."""
    args = ["manifold", "--space", "sphere", "--t-grid", "1", "3", "3", "--N", "2",
            "--samples", str(2 * mc.BATCH_SIZE + mc.TILE + 3), "--seed", "5"]
    outs = [run_cli(args, {"MAGNILAB_THREADS": threads}).stdout for threads in ("1", "2", "3")]
    assert outs[0] == outs[1] == outs[2] and outs[0]


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


def test_catalog_leaves_out_of_range_interval_cells_empty():
    res = run_cli(["catalog", "--t-grid", "1e-8", "1", "2"])
    rows = [line.split(",") for line in res.stdout.splitlines() if line.startswith("interval,")]
    assert res.returncode == 0 and len(rows) == 6
    for row in rows:
        assert (row[3] == row[5] == "") == (row[2] == "1e-08")


def test_method_all_multi_seed_agreement():
    """MC agrees with the closed form within 4 sigma for >= 95% of seeds."""
    from magnilab import closed_forms
    from magnilab.spaces import Circle
    hits = 0
    exact = closed_forms.circle_term(1, 1.0, 1.0)
    for seed in range(20):
        spec = mc.SamplerSpec(Circle(1.0), seed=seed, samples=100_000)
        value, std_error = mc.estimate_term(spec, 1, [1.0]).term(1, 0, spec.total_mass)
        hits += abs(value - exact) < 4 * std_error
    assert hits >= 19


#: --space options, the first order with no reference (None: every order has
#: one), and the first order whose reference mu(X) J(t)^n or transfer
#: recursion is checked against its estimate
REFERENCE_COVERAGE = [(["circle"], None, 4), (["sphere"], None, 3), (["torus"], None, 2),
                      (["interval"], None, None), (["interval", "--measure", "weight"], None, 1),
                      (["line-gauss"], 3, None), (["line-laplace"], 2, None)]


@pytest.mark.parametrize("seed", range(4))
def test_manifold_rows_print_every_known_reference(capsys, seed):
    """manifold --method mc --N 4 at t = 0.5 and 2 on every space: each row
    prints a closed_form but the Gaussian line's from n = 3 and the Laplace
    line's from n = 2, and the circle from n = 4, the sphere from n = 3, the
    torus from n = 2 and the weighted interval lie within 5 sigma of their
    estimates."""
    for space, unknown, checked in REFERENCE_COVERAGE:
        assert cli.run(["manifold", "--space", *space, "--method", "mc", "--N", "4",
                        "--t-grid", "0.5", "2", "2", "--samples", "200000",
                        "--seed", str(seed)]) == cli.EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(r[0], int(r[1])) for r in rows] == [(t, n) for t in ("0.5", "2")
                                                     for n in range(1, 5)]
        for _, n, value, stderr, closed, *_ in rows:
            assert (closed == "") == (unknown is not None and int(n) >= unknown), (space, n)
            if checked is not None and int(n) >= checked:
                assert abs(float(value) - float(closed)) <= 5 * float(stderr), (space, n)


def test_run_returns_zero_in_process(tmp_path, distance_csv):
    assert cli.run(["finite", "--input", distance_csv, "--t", "1"]) == 0


def test_unwritable_output_exits_2(tmp_path, distance_csv, capsys):
    assert cli.run(["finite", "--input", distance_csv, "--t", "1",
                    "--output", str(tmp_path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("line, named", [("0 1 nan", "(0,1)"), ("0 1 inf", "(0,1)"),
                                         ("0 x", "'0 x'")])
def test_bad_edge_list_exits_2(tmp_path, line, named):
    p = tmp_path / "bad.edges"
    p.write_text(f"1 2\n{line}\n2 0\n")
    res = run_cli(["graph", "--edges", str(p), "--t", "1"])
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and named in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("argv, text", [
    (["finite", "--input"], "0,1\n1,0\n".encode("utf-16")),
    (["graph", "--edges"], b"\xff\xfe0 1\n1 2\n"),
], ids=["finite-utf16", "graph-ff-fe"])
def test_undecodable_input_exits_2(tmp_path, argv, text):
    p = tmp_path / "input"
    p.write_bytes(text)
    res = run_cli([*argv, str(p), "--t", "1"])
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: cannot read {p} as text")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("edges, code, message", [
    ("0 1 1e308\n1 2 1e308\n", 3,
     "numerical failure: path length between vertices 0 and 2 overflows"),
    ("0 1 1e308\n2 3 1\n", 2, "error: graph is disconnected: no path between vertices 0 and 2"),
    # disconnection is found before any path length, so it wins over overflow
    ("0 1 1e308\n1 2 1e308\n3 4 1\n", 2,
     "error: graph is disconnected: no path between vertices 0 and 3"),
    # lengths 1e308 and 1: each round settles at least its least open key
    ("0 1 1e308\n1 2 1e308\n2 3 1\n3 4 1\n", 3,
     "numerical failure: path length between vertices 0 and 2 overflows"),
    # a million vertices: found from vertex 0 before any n x n array exists
    ("0 1\n1 2\n2 999999\n", 2, "error: graph is disconnected: no path between vertices 0 and 3"),
    ("0 1 1.5\n1 2 1.5\n2 999999 1.5\n", 2,
     "error: graph is disconnected: no path between vertices 0 and 3"),
    # more vertices than an array can hold: too few edges to join them
    ("0 1\n1 2\n2 99999999999999999999\n", 2,
     "error: graph is disconnected: no path between vertices 0 and 3"),
    (f"0 1\n1 2\n2 {2**62}\n", 2,
     "error: graph is disconnected: no path between vertices 0 and 3"),
])
def test_graph_path_overflow_is_not_disconnection(tmp_path, edges, code, message):
    p = tmp_path / "g.edges"
    p.write_text(edges)
    res = run_cli(["graph", "--edges", str(p), "--t", "1"])
    assert res.returncode == code
    assert res.stderr.startswith(message)


def test_graph_count_refuses_ties_that_depend_on_settling_order(tmp_path):
    """Beside paths of length 1e308 a unit edge lies within TIE_TOL of both
    of its directions, so its geodesic counts are not defined: --gamma count
    exits 2 naming the edge, --gamma triv runs, and an overflowed length
    still exits 3 first."""
    p = tmp_path / "g.edges"
    p.write_text("0 1 1e308\n1 2 1\n2 3 1\n1 3 1\n")
    res = run_cli(["graph", "--edges", str(p), "--t", "1", "--gamma", "count"])
    assert res.returncode == 2
    assert res.stderr.startswith("error: edge (1,2) of length 1 may tie both ways")
    assert run_cli(["graph", "--edges", str(p), "--t", "1", "--gamma", "triv"]).returncode == 0
    p.write_text("0 1 1e308\n1 2 1e308\n2 3 1\n")
    res = run_cli(["graph", "--edges", str(p), "--t", "1", "--gamma", "count"])
    assert res.returncode == 3 and "overflows" in res.stderr


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


@pytest.mark.parametrize("command", ["finite", "graph"])
def test_exact_grid_refills_one_z(tmp_path, monkeypatch, command):
    """A 5-point grid prints the rows of five single-t runs, and the solve
    and the series read the same Z buffer at every t."""
    import numpy as np
    from magnilab import finite_mag

    if command == "finite":
        pts = np.random.default_rng(4).uniform(0.0, 5.0, size=(30, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        p = tmp_path / "d.csv"
        p.write_text("".join(",".join(map(repr, row)) + "\n" for row in d.tolist()))
        base = ["finite", "--input", str(p)]
    else:
        p = tmp_path / "g.edges"
        p.write_text("".join(f"{v} {v + 1}\n" for v in range(30) if v % 6 < 5)
                     + "".join(f"{v} {v + 6}\n" for v in range(24)))  # a 5 x 6 grid
        base = ["graph", "--edges", str(p), "--gamma", "count"]
    buffers = []

    def spy(real):
        def call(z, *args):
            buffers.append(z.__array_interface__["data"][0])
            return real(z, *args)
        return call

    monkeypatch.setattr(finite_mag, "classical_magnitude", spy(finite_mag.classical_magnitude))
    monkeypatch.setattr(finite_mag, "neumann_partial", spy(finite_mag.neumann_partial))

    def rows(*t_args):
        out = tmp_path / "o.csv"
        assert cli.run([*base, *t_args, "--method", "all", "--N", "6",
                        "--output", str(out)]) == 0
        return out.read_text().splitlines()[1:]

    grid = rows("--t-grid", "1", "5", "5")
    assert len(buffers) == 10 and len(set(buffers)) == 1
    assert grid == [row for t in range(1, 6) for row in rows("--t", str(t))]


def test_finite_method_all_rows_are_the_library_values(tmp_path):
    """Each t prints classical_magnitude and the N-th Neumann partial sum."""
    import numpy as np

    from magnilab import finite_mag
    from magnilab.spaces import load_distance_csv
    pts = np.random.default_rng(2).uniform(0.0, 3.0, size=(12, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    p = tmp_path / "d.csv"
    p.write_text("".join(",".join(map(repr, row)) + "\n" for row in d.tolist()))
    out = tmp_path / "o.csv"
    argv = ["finite", "--input", str(p), "--method", "all", "--t-grid", "0.5", "4", "4",
            "--t-spacing", "log", "--N", "6", "--output", str(out)]
    assert cli.run(argv) == 0
    dist = load_distance_csv(p)
    grid = cli._t_grid(cli.build_parser().parse_args(argv))
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 2 * len(grid)
    for i, t in enumerate(grid):
        inverse, series = lines[2 * i].split(","), lines[2 * i + 1].split(",")
        z = finite_mag.similarity(dist, t)
        exact = cli._csv(finite_mag.classical_magnitude(z))
        assert inverse[2] == exact and series[4] == exact
        assert series[2] == cli._csv(finite_mag.neumann_partial(z, 6).partial_sums[6])


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
    ["interval-weight", "--N", "21"],
    # one draw has no sample variance, so the floor is 2
    ["manifold", "--space", "circle", "--t", "1", "--samples", "1"],
    ["weight-check", "--t", "1", "--samples", "1"],
    ["length-spectrum", "--space", "circle", "--samples", "1"],
    ["interval-weight", "--samples", "1"],
    # finite and graph sample nothing, so they have no --samples
    ["finite", "--input", "DIST", "--t", "1", "--samples", "5"],
    # the manifold methods are mc, closed and all
    ["manifold", "--space", "circle", "--t", "1", "--method", "quadrature"],
    # a grid has a whole number of points
    ["finite", "--input", "DIST", "--t-grid", "1", "2", "2.7"],
    # and at most MAX_T_COUNT of them, checked before any list is built
    ["finite", "--input", "DIST", "--t-grid", "1", "2", "1e20"],
    # a log grid needs finite positive ends
    ["manifold", "--space", "circle", "--t-grid", "0", "1", "3", "--t-spacing", "log",
     "--samples", "10"],
    ["catalog", "--t-grid", "1", "inf", "3", "--t-spacing", "log"],
])
def test_flag_out_of_range_exits_2(distance_csv, args):
    res = run_cli([distance_csv if a == "DIST" else a for a in args])
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    ["manifold", "--space", "circle", "--r", "-1", "--t", "1", "--samples", "10"],
    ["manifold", "--space", "sphere", "--r", "nan", "--t", "1", "--samples", "10"],
    ["manifold", "--space", "interval", "--a", "1", "--b", "0", "--t", "1", "--samples", "10"],
    ["interval-weight", "--L", "-1"],
    ["weight-check", "--r", "0", "--t", "1", "--samples", "10"],
    ["fekete-demo", "--r", "-1", "--m-list", "2"],
    ["fekete-demo", "--r", "0", "--m-list", "2"],
])
def test_space_parameter_out_of_range_exits_2(capsys, args):
    assert cli.run(args) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("args", [
    ["manifold", "--space", "circle", "--r", "1e300", "--t", "1", "--samples", "10"],
    # (t r)^2 overflows, so J(t)/Vol and J(t) are 0 and 1/J(t) is inf
    ["weight-check", "--space", "sphere", "--r", "1e100", "--t", "1e100", "--samples", "10"],
    ["manifold", "--space", "interval", "--b", "1e300", "--t", "1e-3", "--method", "closed"],
    ["length-spectrum", "--space", "circle", "--r", "5e-324", "--n", "2", "--samples", "10"],
    # (t r)^2 is just below the float max: J(t)/Vol is subnormal, its inverse inf
    ["weight-check", "--space", "sphere", "--t", "1.3e154", "--N", "2", "--samples", "10"],
    # t L overflows to inf in the sampler, whose exp is 0; mu(X)^3 overflows
    ["manifold", "--space", "circle", "--r", "1e300", "--t", "1e300", "--N", "2",
     "--samples", "10"],
    # t y overflows to inf in the interval's leg bound, whose exp is 0
    ["interval-weight", "--L", "1e300", "--t", "1e300", "--N", "3", "--samples", "2000"],
    # 2 pi r overflows to inf, and so would the sampled chain lengths
    ["manifold", "--space", "circle", "--r", "1e308", "--samples", "10", "--t", "1"],
    ["weight-check", "--space", "circle", "--r", "1e308", "--samples", "10", "--t", "1",
     "--N", "1"],
    # the closed forms check the total mass too; the sphere's r**2 raises
    ["manifold", "--space", "circle", "--r", "1e308", "--t", "1", "--method", "closed",
     "--N", "2"],
    ["manifold", "--space", "interval", "--a=-1e308", "--b", "1e308", "--t", "1",
     "--method", "closed", "--N", "2"],
    ["manifold", "--space", "sphere", "--r", "1e200", "--t", "1", "--method", "all",
     "--N", "1", "--samples", "10"],
    # a finite mass, but the default l-max n * pi * r overflows
    ["length-spectrum", "--space", "circle", "--r", "1e307", "--n", "100", "--samples", "10"],
    ["length-spectrum", "--space", "circle", "--r", "1e308", "--samples", "10"],
    # c_tilde and Vol(X) are finite, but their product is not
    ["weight-check", "--space", "circle", "--r", "1e300", "--t", "1e300", "--samples", "10"],
])
def test_arithmetic_failure_exits_3(capsys, args):
    assert cli.run(args) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure:")


@pytest.mark.parametrize("args", [
    ["catalog", "--t", "1e300"],
    ["manifold", "--space", "sphere", "--t", "1e300", "--samples", "1000"],
])
def test_terms_at_huge_t_are_finite(capsys, args):
    """Past t = 1.34e154, t^2 is past the float range; the terms it divides
    underflow to 0, as the Monte-Carlo rows do."""
    assert cli.run(args) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "inf" not in out and "nan" not in out


def test_t_grid_count_bound():
    args = cli.build_parser().parse_args(
        ["catalog", "--t-grid", "1", "2", str(cli.MAX_T_COUNT)])
    assert len(cli._t_grid(args)) == cli.MAX_T_COUNT
    args.t_grid = (1.0, 2.0, cli.MAX_T_COUNT + 1)
    with pytest.raises(MetricValidationError, match="count in"):
        cli._t_grid(args)


@pytest.mark.parametrize("start, stop, count", [("1e-300", "1e300", "65536"),
                                                 ("1e-320", "1", "3"), ("1e308", "1e-300", "3")])
def test_log_grid_whose_end_ratio_leaves_the_float_range(capsys, start, stop, count):
    """stop / start overflows or underflows, yet every point of the grid is a
    finite positive float: the grid runs from start to stop exactly, each
    normal point within 1e-12 of the geometric grid, computed here in long
    double."""
    argv = ["manifold", "--space", "circle", "--method", "closed", "--N", "1",
            "--t-spacing", "log", "--t-grid", start, stop, count]
    grid = cli._t_grid(cli.build_parser().parse_args(argv))
    assert len(grid) == int(count) and grid[0] == float(start) and grid[-1] == float(stop)
    assert all(0.0 < t < math.inf for t in grid)
    steps = [b - a for a, b in zip(grid, grid[1:])]
    assert all(s > 0 for s in steps) or all(s < 0 for s in steps)
    import numpy as np
    lo, hi = np.log(np.longdouble(grid[0])), np.log(np.longdouble(grid[-1]))
    geometric = np.exp(lo + (hi - lo) * np.arange(len(grid), dtype=np.longdouble) / (len(grid) - 1))
    normal = np.array(grid) >= sys.float_info.min
    assert normal.sum() >= len(grid) - 1
    assert np.all(np.abs(np.array(grid, dtype=np.longdouble)[normal] / geometric[normal] - 1)
                  <= 1e-12)
    assert cli.run(argv) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(grid)


@pytest.mark.parametrize("space, r, t", [
    *(pytest.param("sphere", r, "1", id=r) for r in ("1e-155", "1e-160", "1e-300")),
    *(pytest.param("circle", r, t, id=f"circle-{r}-{t}")
      for r, t in (("1e-160", "1e-160"), ("1e-300", "1e-300"), ("5e-324", "1e-10")))])
def test_tiny_sphere_weight_mass_is_one(capsys, space, r, t):
    """Below r = 1e-154, r^2 underflows, but J(t)/Vol = (1 + e^{-pi r t}) /
    (2((t r)^2 + 1)) holds no r^2: mu_w(X) is 1 to the last bit.  On the
    circle J(t)/Vol = (1 - e^{-x})/x, x = pi r t, is 1 where x is subnormal
    or 0."""
    assert cli.run(["weight-check", "--space", space, "--r", r, "--t", t, "--N", "2",
                    "--samples", "10"]) == cli.EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[4] for row in rows] == ["1", "0", "1"] and rows[0][2] == "1"


@pytest.mark.parametrize("r", ["1e-161", "1e-162"])
def test_tiny_sphere_fekete_target_is_one(capsys, r):
    """The uniform measure's terms (J(t)/Vol)^n are 1 as r -> 0, so the
    order-2 target is 1 - 1 + 1."""
    assert cli.run(["fekete-demo", "--r", r, "--m-list", "3", "--N", "2"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[2].split(",")[3] == "1"


def test_allocation_failure_exits_3(monkeypatch, capsys):
    """An array too large for memory ends in exit 3, not a traceback."""
    def too_large(*args):
        raise MemoryError("Unable to allocate 224. GiB for an array")

    monkeypatch.setattr(empirical, "fekete_convergence_experiment", too_large)
    assert cli.run(["fekete-demo", "--m-list", "100000", "--N", "1"]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: Unable to allocate 224. GiB for an array\n"


@pytest.mark.parametrize("args, named", [
    (["manifold", "--space", "circle", "--r", "1e308", "--t", "1", "--method", "closed"],
     "total mass inf"),
    (["manifold", "--space", "sphere", "--r", "1e200", "--t", "1", "--method", "closed"],
     "total mass inf"),
    (["weight-check", "--space", "sphere", "--r", "1e200", "--t", "1", "--samples", "10"],
     "total mass inf"),
    (["length-spectrum", "--space", "circle", "--r", "1e307", "--n", "100",
      "--samples", "10"], "default l_max"),
    (["weight-check", "--space", "circle", "--r", "1e300", "--t", "1e300", "--samples", "10"],
     "weight mass"),
    # (t r)^2 passes the float range, so J(t)/Vol underflows to 0
    (["weight-check", "--space", "sphere", "--t", "1e300", "--samples", "10"],
     "weight mass Vol(X)/J(t) overflows"),
    # mu(X) = 1 + L/2 is finite, but its square, which scales a_1, is not
    (["interval-weight", "--L", "1.7e308", "--t", "1", "--N", "3", "--samples", "3000"],
     "mu(X)^2 = 8.5e+307^2 exceeds the float range"),
    (["manifold", "--space", "interval", "--measure", "weight", "--b", "1.7e308", "--t",
      "1e-300", "--N", "2", "--samples", "3000"], "mu(X)^2 = 8.5e+307^2 exceeds"),
    # 2 pi r is finite, but the cube that scales the order-2 density is not
    (["length-spectrum", "--space", "circle", "--r", "1e300", "--l-max", "1", "--n", "2",
      "--bins", "4", "--samples", "3000"], "mu(X)^3 = 6.28e+300^3 exceeds the float range"),
    # mu(X) and J(t)^3 are finite, their product is not
    (["manifold", "--space", "circle", "--r", "1e100", "--t", "1e-300", "--N", "3",
      "--method", "closed"], "chain term a_3 = mu(X) J(t)^3"),
    # r^2 = 1e308 is finite, the limit constant 2(1 + r^2)/(1 + e^{-pi r}) is not
    (["fekete-demo", "--r", "1e154", "--m-list", "3", "--N", "2"], "weight mass"),
])
def test_overflow_message_names_the_quantity(capsys, args, named):
    assert cli.run(args) == cli.EXIT_NUMERICAL
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [("0,1,2\n1,0,abc\n2,1,0\n", "line 2"),
                                         ("0,1,2\n1,0,1\n\n2,1\n", "line 4"),
                                         # fewer rows than columns
                                         ("0,1,2\n1,0,1\n", "2 rows for 3 columns"),
                                         # more rows than columns
                                         ("0,1\n1,0\n2,2\n", "line 3"),
                                         # a header of 3 labels, rows of 2 fields
                                         ("a,b,c\n0,1\n1,0\n", "line 2")])
def test_malformed_distance_csv_exits_2(tmp_path, capsys, text, named):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    assert cli.run(["finite", "--input", str(p), "--t", "1"]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def _no_room(shape, *args, **kwargs):
    raise MemoryError(f"Unable to allocate an array with shape {shape}")


@pytest.mark.parametrize("text, named", [
    ("0," * 199_999 + "0\n", "1 rows for 200000 columns"),
    (",".join(f"x{i}" for i in range(200_000)) + "\n", "no distance rows")],
    ids=["zeros", "labels"])
@pytest.mark.parametrize("room", [True, False], ids=["room", "no-room"])
def test_wide_first_row_exits_2(tmp_path, capsys, monkeypatch, text, named, room):
    """A first row of 200 000 fields asks for a 298 GiB matrix.  The file is
    not square, which exits 2 whether the allocation succeeds or, with room
    False, raises MemoryError."""
    import numpy as np
    if not room:
        monkeypatch.setattr(np, "empty", _no_room)
    p = tmp_path / "wide.csv"
    p.write_text(text)
    assert cli.run(["finite", "--input", str(p), "--t", "1"]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_square_csv_without_room_for_its_matrix_exits_3(distance_csv, capsys, monkeypatch):
    import numpy as np
    monkeypatch.setattr(np, "empty", _no_room)
    assert cli.run(["finite", "--input", distance_csv, "--t", "1"]) == cli.EXIT_NUMERICAL
    assert "shape (4, 4)" in capsys.readouterr().err


def test_finite_reads_a_piped_csv_as_it_reads_the_file(tmp_path):
    """The loader reads its input once, so a pipe on /dev/stdin loads and
    prints what the file prints, validated first or on a worker thread."""
    import numpy as np
    pts = np.random.default_rng(6).uniform(0.0, 3.0, size=(40, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    text = ",".join(f"x{i}" for i in range(40)) + "\n\n"
    text += "".join(",".join(map(repr, row)) + "\n" for row in d.tolist())
    p = tmp_path / "d.csv"
    p.write_text(text)
    args = ["finite", "--t-grid", "0.5", "4", "3", "--method", "all"]
    for threads in ("1", "2"):
        env = {"MAGNILAB_THREADS": threads}
        from_file = run_cli([*args, "--input", str(p)], env)
        piped = run_cli([*args, "--input", "/dev/stdin"], env, stdin_text=text)
        assert from_file.returncode == piped.returncode == 0, piped.stderr
        assert piped.stdout == from_file.stdout and len(piped.stdout.splitlines()) == 7


@pytest.mark.parametrize("space", ["circle", "sphere", "torus", "line-gauss", "line-laplace"])
@pytest.mark.parametrize("command", [["manifold", "--t", "1", "--N", "1", "--method", "closed"],
                                     ["length-spectrum", "--samples", "10"]])
def test_weight_measure_off_the_interval_exits_2(capsys, command, space):
    """--measure weight is the interval's measure; elsewhere it is refused,
    not ignored, and the message points to weight-check."""
    assert cli.run([*command, "--space", space, "--measure", "weight"]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: --measure weight") and "weight-check" in err


def test_length_spectrum_on_interval(tmp_path):
    out = tmp_path / "o.csv"
    assert cli.run(["length-spectrum", "--space", "interval", "--a", "0", "--b", "2",
                    "--measure", "weight", "--bins", "4", "--samples", "10000",
                    "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    # the default l-max is the diameter, 2, so the four bins centre on 0.25 ... 1.75
    assert [float(r[0]) for r in rows] == [0.25, 0.75, 1.25, 1.75]
    assert all(float(r[2]) > 0 for r in rows)


def test_length_spectrum_errors_cover_the_closed_density(capsys):
    assert cli.run(["length-spectrum", "--space", "circle", "--n", "2", "--bins", "32",
                    "--samples", "400000", "--seed", "6"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 32
    # the n = 2 density is linear on each bin, so its centre value is the bin mean
    for row in rows:
        value, stderr, closed = float(row[2]), float(row[3]), float(row[4])
        assert 0.0 < stderr and abs(value - closed) <= 5 * stderr


def test_length_spectrum_empty_bins_have_an_error(capsys):
    """The tail bins of this run draw no chain; their 0 density still has a
    nonzero error against the nonzero exact density."""
    assert cli.run(["length-spectrum", "--space", "line-gauss", "--n", "1",
                    "--samples", "2000"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert any(float(row[2]) == 0.0 for row in rows)
    assert all(float(row[3]) > 0.0 for row in rows)


def test_length_spectrum_bin_width_underflow(capsys):
    assert cli.run(["length-spectrum", "--space", "circle", "--r", "5e-324", "--n", "2",
                    "--samples", "1000"]) == cli.EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert "nan" not in out
    assert err.startswith("numerical failure: bin width underflows to 0")
    # a subnormal width is not 0, but mu(X)^3 / (S width) is past the float range
    assert cli.run(["length-spectrum", "--space", "sphere", "--n", "2", "--bins", "3",
                    "--samples", "10", "--l-max", "1e-320"]) == cli.EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: bin width 3.33e-321")


def test_length_spectrum_centres_near_the_float_max():
    """Two edges past half the float max sum to inf; their centre is not."""
    res = run_cli(["length-spectrum", "--space", "circle", "--samples", "1000", "--bins", "4",
                   "--l-max", "1.7e308"])
    assert res.returncode == 0 and res.stderr == ""
    centres = [float(line.split(",")[0]) for line in res.stdout.splitlines()[1:]]
    assert len(centres) == 4 and all(math.isfinite(c) for c in centres)
    assert all(a < b for a, b in zip(centres, centres[1:]))


def test_manifold_draws_each_order_once(monkeypatch, capsys):
    monkeypatch.setenv("MAGNILAB_THREADS", "2")
    calls = []
    sample_batch = mc.sample_batch

    def counted(spec, rng, m, **kwargs):
        calls.append(m)
        return sample_batch(spec, rng, m, **kwargs)

    monkeypatch.setattr(mc, "sample_batch", counted)
    samples, tiles = mc.BATCH_SIZE + 1000, 5
    assert cli.run(["manifold", "--space", "sphere", "--t-grid", "1", "3", "3", "--N", "2",
                    "--samples", str(samples), "--method", "mc"]) == 0
    # one 3-point chain per draw serves both orders and the whole grid
    assert len(calls) == 3 * tiles
    assert sum(calls) == 3 * samples
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 2


def test_manifold_grid_rows_equal_single_t_rows(capsys):
    args = ["manifold", "--space", "sphere", "--N", "2", "--samples", "300000", "--seed", "3"]

    def mc_rows(extra):
        assert cli.run(args + extra) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if line.split(",")[6] == "mc"]

    singles = [row for t in ("1", "2", "3") for row in mc_rows(["--t", t])]
    assert mc_rows(["--t-grid", "1", "3", "3"]) == singles
    assert len(singles) == 6


def test_manifold_order_one_rows_do_not_depend_on_N(capsys):
    args = ["manifold", "--space", "sphere", "--t-grid", "1", "3", "3", "--samples",
            str(mc.BATCH_SIZE + 1000), "--seed", "3"]

    def rows(N):
        assert cli.run(args + ["--N", N]) == 0
        return [line for line in capsys.readouterr().out.splitlines()[1:]
                if line.split(",")[1] == "1"]

    one, two = rows("1"), rows("2")
    assert one == two and len(one) == 2 * 3


def test_weight_check_draws_each_order_once(monkeypatch, capsys):
    monkeypatch.setenv("MAGNILAB_THREADS", "2")
    calls = []
    sample_batch = mc.sample_batch

    def counted(spec, rng, m, **kwargs):
        calls.append(m)
        return sample_batch(spec, rng, m, **kwargs)

    monkeypatch.setattr(mc, "sample_batch", counted)
    samples, tiles = mc.BATCH_SIZE + 1000, 5
    assert cli.run(["weight-check", "--space", "sphere", "--t-grid", "1", "3", "3", "--N", "2",
                    "--samples", str(samples)]) == 0
    assert len(calls) == 3 * tiles
    assert sum(calls) == 3 * samples
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 3


def test_weight_check_grid_rows_equal_single_t_rows(capsys):
    args = ["weight-check", "--space", "circle", "--N", "3", "--samples", "200000", "--seed", "2"]

    def rows(extra):
        assert cli.run(args + extra) == 0
        return capsys.readouterr().out.splitlines()[1:]

    singles = [row for t in ("0.5", "1.5", "2.5") for row in rows(["--t", t])]
    assert rows(["--t-grid", "0.5", "2.5", "3"]) == singles


@pytest.mark.parametrize("args", [["manifold", "--space", "sphere", "--method", "mc"],
                                  ["weight-check", "--space", "sphere"],
                                  ["interval-weight"]], ids=lambda args: args[0])
def test_order_zero_draws_nothing(monkeypatch, capsys, args):
    """At --N 0 no chain integral is asked for, so no point is drawn.
    weight-check prints Mag;0 = mu_w(X) with stderr 0; the rows of manifold
    and interval-weight are orders n >= 1, so they print their header only."""
    def no_draw(*args, **kwargs):
        raise AssertionError("--N 0 drew points")

    monkeypatch.setattr(mc, "sample_batch", no_draw)
    assert cli.run([*args, "--t", "1", "--N", "0"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    if args[0] == "weight-check":
        mass = weight_measures.homogeneous_weight_mass(Sphere2(1.0), 1.0)
        assert lines[1:] == [cli._row(1.0, 0, mass, 0.0, mass, "mc", 0)]
    else:
        assert len(lines) == 1


SCIPY_PROBE = """
import sys
{code}
print(*(m for m in sys.modules if m.split(".")[0] == "scipy"), file=sys.stderr)
"""


def scipy_loaded(code):
    """The scipy modules a fresh interpreter holds after running code."""
    res = subprocess.run([sys.executable, "-c", SCIPY_PROBE.format(code=code)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return set(res.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("argv", [
    None,
    ["interval-weight", "--N", "4", "--samples", "1000"],
    ["manifold", "--space", "sphere", "--N", "1", "--samples", "1000", "--t", "1"],
    ["finite", "--input", "CSV", "--t", "1", "--method", "all"],
])
def test_import_and_scipy_free_subcommands_load_no_scipy(argv, distance_csv):
    code = "import magnilab.cli" if argv is None else (
        "from magnilab import cli; "
        f"assert cli.run({[distance_csv if a == 'CSV' else a for a in argv]!r}) == 0")
    assert scipy_loaded(code) == set()


@pytest.mark.parametrize("edges", ["0 1\n1 2\n2 0\n2 3\n", "0 1 1\n1 2 2.5\n2 0 1\n"])
def test_graph_loads_no_scipy(tmp_path, edges):
    """Every graph takes metric and counts from the numpy sweep and solves on
    numpy, so neither gamma loads scipy, whatever the edge lengths."""
    p = tmp_path / "g.edges"
    p.write_text(edges)
    for gamma in ("count", "triv"):
        assert scipy_loaded(
            f"from magnilab import cli; assert cli.run(['graph', '--edges', {str(p)!r}, "
            f"'--gamma', {gamma!r}, '--t', '1', '--method', 'all']) == 0") == set()


def test_interval_closed_column_at_small_t(capsys):
    # the float alpha recursion is off by 2.4e-4 in a_3 at tL = 0.001
    assert cli.run(["manifold", "--space", "interval", "--t", "0.001", "--N", "3",
                    "--samples", "200000", "--method", "all"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    closed = {int(r[1]): float(r[2]) for r in rows if r[6] == "closed"}
    estimate = {int(r[1]): (float(r[2]), float(r[3])) for r in rows if r[6] == "mc"}
    for n in (1, 2, 3):
        value, std_error = estimate[n]
        assert abs(closed[n] - value) < 4 * std_error


# ---------------------------------------------------------------------------
# the console script's exit, which skips the interpreter's teardown
# ---------------------------------------------------------------------------

#: about 400 KB of CSV, more than a pipe holds
LARGE = ["length-spectrum", "--space", "circle", "--bins", "6000", "--samples", "2000"]
SMALL = ["manifold", "--space", "circle", "--t", "1", "--method", "closed", "--N", "1"]


def test_console_script_writes_every_byte(tmp_path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(LARGE) == cli.EXIT_OK
    want = buf.getvalue().encode()
    assert len(want) > 2**16
    entry = [sys.executable, "-m", "magnilab.cli", *LARGE]
    # a buffered stdout holds bytes that only a flush writes
    env = dict(os.environ, PYTHONUNBUFFERED="")
    res = subprocess.run(entry, capture_output=True, env=env)
    assert (res.returncode, res.stdout, res.stderr) == (0, want, b"")
    path = tmp_path / "out.csv"
    res = subprocess.run([*entry, "--output", str(path)], capture_output=True, env=env)
    assert (res.returncode, res.stdout, res.stderr) == (0, b"", b"")
    assert path.read_bytes() == want


@pytest.mark.parametrize("argv", [["--help"], ["finite", "--help"], ["catalog", "-h"]])
def test_help_prints_what_argparse_prints(capsys, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    assert cli.run(argv) == cli.EXIT_OK
    assert capsys.readouterr() == (buf.getvalue(), "")


def _reader_closes_early(args, head, unbuffered):
    """(exit code, stderr) of a run whose reader closes stdout after head bytes."""
    proc = subprocess.Popen([sys.executable, "-m", "magnilab.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONUNBUFFERED=unbuffered))
    if head:
        os.read(proc.stdout.fileno(), head)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(), err


# After 20 bytes, the large write fails part way, where an unbuffered
# stdout's text layer would drop the rest unseen; before any byte, a
# buffered stdout fails only on the flush that follows the write.  --help
# is written as every other output is.
@pytest.mark.parametrize("args, head", [(LARGE, 20), (SMALL, 0), (["--help"], 0),
                                        (["finite", "--help"], 0)],
                         ids=["after-20-bytes", "before-any-byte", "help", "finite-help"])
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_pipe_exits_as_sys_exit_does(args, head, unbuffered):
    """Every closed pipe exits 2 with one error line, as a failing
    --output file does."""
    assert (_reader_closes_early(args, head, unbuffered)
            == (cli.EXIT_VALIDATION, b"error: [Errno 32] Broken pipe\n"))


# ---------------------------------------------------------------------------
# fuzzing cli.run with malformed files and out-of-range parameters
# ---------------------------------------------------------------------------

NUMBER = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                   st.integers(-2, 6).map(str),
                   st.sampled_from(["", " ", "abc", "1e400", "-0", "0x1", "1,5", "nan"]))
PARAM = st.one_of(st.floats(0.1, 3.0).map(repr),
                  st.sampled_from(["-1", "0", "nan", "inf", "-inf", "1e400", "abc", "",
                                   "1e300", "1e-300", "5e-324"]))


def checked_run(argv, text=""):
    """cli.run on argv, with FILE replaced by a temporary file holding text.

    The run must exit 0, 2 or 3 without a traceback, at exit 3 with a
    message of its own rather than a bare errno tuple such as a float
    power's OverflowError carries, and at exit 0 every field of its CSV
    that parses as a number must be finite.  Returns the exit code.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([path if a == "FILE" else a for a in argv])
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL)
    assert "Traceback" not in err.getvalue()
    if code == cli.EXIT_NUMERICAL:
        assert not re.match(r"numerical failure: \(\d+, ", err.getvalue()), err.getvalue()
    if code == cli.EXIT_OK:
        for line in out.getvalue().splitlines():
            for field in line.split(","):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(field)), f"exit 0 printed {line!r}"
    return code


def run_in_process(argv, text=""):
    event(f"exit {checked_run(argv, text)}")


@st.composite
def corrupted(draw, rows):
    """rows (lists of fields) with up to two fields replaced, dropped or added."""
    rows = [list(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "add":
            row.append(draw(NUMBER))
        elif row:
            i = draw(st.integers(0, len(row) - 1))
            if action == "replace":
                row[i] = draw(NUMBER)
            else:
                del row[i]
    return rows


@st.composite
def distance_csv_text(draw):
    n = draw(st.integers(1, 4))
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(st.floats(0.5, 5.0))
    rows = draw(corrupted([[repr(x) for x in r] for r in d]))
    return ("\n\n" if draw(st.booleans()) else "\n").join(",".join(r) for r in rows)


@st.composite
def edge_list_text(draw):
    n = draw(st.integers(2, 5))
    lines = [[str(u), str(u + 1)] for u in range(n - 1)]
    if draw(st.booleans()):
        lines = [line + [repr(draw(st.floats(0.5, 3.0)))] for line in lines]
    rows = draw(corrupted(lines))
    return "\n".join(" ".join(f.replace(" ", "") or "0" for f in r) for r in rows)


@settings(max_examples=60, deadline=None)
@given(text=distance_csv_text(), method=st.sampled_from(["inverse", "series", "all"]))
# d(i,j) + d(j,k) overflows in the triangle screen
@example(text="0,1e308,1.7e308\n1e308,0,1e308\n1.7e308,1e308,0", method="all")
def test_fuzz_distance_csv(text, method):
    run_in_process(["finite", "--input", "FILE", "--t", "1", "--method", method], text)


@settings(max_examples=60, deadline=None)
@given(text=edge_list_text(), gamma=st.sampled_from(["triv", "count"]))
# a disconnected million-vertex graph asked for n x n arrays, unit and weighted
@example(text="0 1\n1 2\n2 999999\n", gamma="count")
@example(text="0 1 1.5\n1 2 1.5\n2 999999 1.5\n", gamma="count")
# a vertex id past any array size
@example(text="0 1\n1 2\n2 99999999999999999999\n", gamma="triv")
def test_fuzz_edge_list(text, gamma):
    run_in_process(["graph", "--edges", "FILE", "--t", "1", "--gamma", gamma,
                    "--method", "all"], text)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from([
           ["manifold", "--space", "circle", "--r", "P", "--t", "P", "--N", "2"],
           ["manifold", "--space", "sphere", "--r", "P", "--t", "1", "--method", "mc"],
           ["manifold", "--space", "interval", "--a", "P", "--b", "P", "--t", "P"],
           ["manifold", "--space", "interval", "--measure", "weight", "--b", "P", "--t", "1"],
           ["length-spectrum", "--space", "interval", "--b", "P", "--l-max", "P"],
           ["length-spectrum", "--space", "circle", "--r", "P", "--n", "2"],
           ["weight-check", "--space", "sphere", "--r", "P", "--t", "P"],
           ["interval-weight", "--L", "P", "--t", "P", "--N", "3"]]),
       params=st.lists(PARAM, min_size=3, max_size=3))
# t L overflows in the sampler
@example(case=["manifold", "--space", "circle", "--r", "P", "--t", "P", "--N", "2"],
         params=["1e300", "1e300", "1"])
# t y overflows in the interval's leg bound
@example(case=["interval-weight", "--L", "P", "--t", "P", "--N", "3"],
         params=["1e300", "1e300", "1"])
# t^2 r^2 is inf * 0 in the sphere's leg integral, which printed nan
@example(case=["manifold", "--space", "sphere", "--r", "P", "--t", "P", "--N", "1",
               "--method", "closed"], params=["1e-300", "1e300", "1"])
# t L g at g = 0 is inf * 0 in the composition formula's decay
@example(case=["interval-weight", "--L", "P", "--t", "P", "--N", "3"],
         params=["50", "1.7e308", "1"])
def test_fuzz_space_parameters(case, params):
    values = iter(params)
    run_in_process([next(values) if a == "P" else a for a in case]
                   + ["--samples", "2000", "--seed", "1"])


@settings(max_examples=20, deadline=None)
@given(r=PARAM)
def test_fuzz_fekete_radius(r):
    run_in_process(["fekete-demo", "--r", r, "--m-list", "2", "3"])


# ---------------------------------------------------------------------------
# extreme-parameter grid

#: the values a shape's numeric option takes when it is the shape's only one
EXTREMES = ("1e-300", "5e-324", "1e-160", "1e-9", "0.1", "1", "50", "1e8", "1e150",
            "1e300", "1.7e308")
#: the values of a two-option shape, every pair of them: EXTREMES less 1e-9,
#: 0.1, 1e150 and 1e-160, to fit the grid in 3 s.  They hold the pairs that
#: printed nan (sphere: r in {1e-300, 5e-324}, t in {1e300, 1.7e308}) and
#: raised (interval-weight: L in {50, 1e8}, t = 1.7e308)
PAIRED = ("5e-324", "1e-300", "1", "50", "1e8", "1e300", "1.7e308")
MC = ["--samples", "3000"]


def grid_case(case):
    """A grid case named by its subcommand, --space and --measure: manifold/interval/weight."""
    return pytest.param(case, id="/".join(
        [case[0]] + [case[i + 1] for i, a in enumerate(case) if a in ("--space", "--measure")]))


# The suite's error::RuntimeWarning filter holds in every case, so a warning
# raises out of cli.run and fails it.
@pytest.mark.parametrize("case", [grid_case(c) for c in [
    # t = 1.7e308: d t overflows to -inf in finite_mag.similarity, whose exp is 0
    ["finite", "--input", "FILE", "--t", "P", "--method", "all"],
    ["manifold", "--space", "circle", "--r", "P", "--t", "P", "--N", "3", *MC],
    ["manifold", "--space", "sphere", "--r", "P", "--t", "P", "--N", "2", *MC],
    ["manifold", "--space", "torus", "--t", "P", "--N", "1", *MC],
    # b = 1.7e308: sampled chain lengths sum past the float max, and the run
    # then exits 3 on a term or a power of mu(X) past the float range
    ["manifold", "--space", "interval", "--b", "P", "--t", "P", "--N", "3", *MC],
    ["manifold", "--space", "interval", "--measure", "weight", "--b", "P", "--t", "P",
     "--N", "2", *MC],
    ["manifold", "--space", "line-laplace", "--t", "P", "--N", "1", *MC],
    ["manifold", "--space", "line-gauss", "--t", "P", "--N", "1", *MC],
    ["weight-check", "--space", "circle", "--r", "P", "--t", "P", "--N", "2", *MC],
    ["weight-check", "--space", "sphere", "--r", "P", "--t", "P", "--N", "2", *MC],
    ["length-spectrum", "--space", "circle", "--r", "P", "--l-max", "P", "--n", "2",
     "--bins", "4", *MC],
    # L = 1.7e308: as on the weighted interval above
    ["interval-weight", "--L", "P", "--t", "P", "--N", "3", *MC],
    ["catalog", "--t", "P"],
]])
def test_extreme_parameter_grid(case):
    """Every numeric option at float extremes, alone or paired with a
    second option: exit 0, 2 or 3, no traceback, no RuntimeWarning, and
    only finite numbers at exit 0."""
    failures = []
    values = EXTREMES if case.count("P") == 1 else PAIRED
    for combo in itertools.product(values, repeat=case.count("P")):
        it = iter(combo)
        argv = [next(it) if a == "P" else a for a in case]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                checked_run(argv, "0,1,2,1\n1,0,1,2\n2,1,0,1\n1,2,1,0\n")
            except Exception as exc:  # an assertion of checked_run, or a warning raised
                failures.append(f"{' '.join(argv)}: {exc!r}")
    assert not failures, "\n".join(failures)
