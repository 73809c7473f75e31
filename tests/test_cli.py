import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from magnilab import cli, mc


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
    from magnilab import closed_forms
    from magnilab.spaces import Circle
    hits = 0
    exact = closed_forms.circle_term(1, 1.0, 1.0)
    for seed in range(20):
        spec = mc.SamplerSpec(Circle(1.0), seed=seed, samples=100_000)
        value, std_error = mc.estimate_term(spec, [1], [1.0]).term(0, 0, spec.total_mass)
        hits += abs(value - exact) < 4 * std_error
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
    ["weight-check", "--space", "sphere", "--r", "1e-300", "--t", "1", "--samples", "10"],
    ["manifold", "--space", "interval", "--b", "1e300", "--t", "1e-3", "--method", "closed"],
    ["length-spectrum", "--space", "circle", "--r", "5e-324", "--n", "2", "--samples", "10"],
    # r^2 is subnormal: J(t) is tiny but nonzero, and 1/J(t) overflows to inf
    ["weight-check", "--space", "sphere", "--r", "1e-160", "--t", "1", "--N", "2",
     "--samples", "10"],
    # t L overflows to inf in the sampler, whose exp is 0; mu(X)^3 overflows
    ["manifold", "--space", "circle", "--r", "1e300", "--t", "1e300", "--N", "2",
     "--samples", "10"],
    # t y overflows to inf in the interval's leg bound, whose exp is 0
    ["interval-weight", "--L", "1e300", "--t", "1e300", "--N", "3", "--samples", "2000"],
])
def test_arithmetic_failure_exits_3(capsys, args):
    assert cli.run(args) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure:")


@pytest.mark.parametrize("text, named", [("0,1,2\n1,0,abc\n2,1,0\n", "line 2"),
                                         ("0,1,2\n1,0,1\n\n2,1\n", "line 4")])
def test_malformed_distance_csv_exits_2(tmp_path, capsys, text, named):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    assert cli.run(["finite", "--input", str(p), "--t", "1"]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


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


def test_manifold_draws_each_order_once(monkeypatch, capsys):
    monkeypatch.setenv("MAGNILAB_THREADS", "2")
    calls = []
    sample_batch = mc.sample_batch

    def counted(spec, rng, m, out=None):
        calls.append(m)
        return sample_batch(spec, rng, m, out=out)

    monkeypatch.setattr(mc, "sample_batch", counted)
    samples, batches = mc.BATCH_SIZE + 1000, 2
    assert cli.run(["manifold", "--space", "sphere", "--t-grid", "1", "3", "3", "--N", "2",
                    "--samples", str(samples), "--method", "mc"]) == 0
    # one 3-point chain per draw serves both orders and the whole grid
    assert len(calls) == 3 * batches
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

    def counted(spec, rng, m, out=None):
        calls.append(m)
        return sample_batch(spec, rng, m, out=out)

    monkeypatch.setattr(mc, "sample_batch", counted)
    samples, batches = mc.BATCH_SIZE + 1000, 2
    assert cli.run(["weight-check", "--space", "sphere", "--t-grid", "1", "3", "3", "--N", "2",
                    "--samples", str(samples)]) == 0
    assert len(calls) == 3 * batches
    assert sum(calls) == 3 * samples
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 3


def test_weight_check_grid_rows_equal_single_t_rows(capsys):
    args = ["weight-check", "--space", "circle", "--N", "3", "--samples", "200000", "--seed", "2"]

    def rows(extra):
        assert cli.run(args + extra) == 0
        return capsys.readouterr().out.splitlines()[1:]

    singles = [row for t in ("0.5", "1.5", "2.5") for row in rows(["--t", t])]
    assert rows(["--t-grid", "0.5", "2.5", "3"]) == singles


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
])
def test_import_and_scipy_free_subcommands_load_no_scipy(argv):
    code = "import magnilab.cli" if argv is None else (
        f"from magnilab import cli; assert cli.run({argv!r}) == 0")
    assert scipy_loaded(code) == set()


def test_finite_loads_only_scipy_linalg(distance_csv):
    loaded = scipy_loaded(
        f"from magnilab import cli; assert cli.run(['finite', '--input', {distance_csv!r}, "
        "'--t', '1', '--method', 'all']) == 0")
    assert "scipy.linalg" in loaded
    unused = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.special")
    assert not [m for m in loaded if m.startswith(unused)]


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
# fuzzing cli.run with malformed files and out-of-range parameters
# ---------------------------------------------------------------------------

NUMBER = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                   st.integers(-2, 6).map(str),
                   st.sampled_from(["", " ", "abc", "1e400", "-0", "0x1", "1,5", "nan"]))
PARAM = st.one_of(st.floats(0.1, 3.0).map(repr),
                  st.sampled_from(["-1", "0", "nan", "inf", "-inf", "1e400", "abc", "",
                                   "1e300", "1e-300", "5e-324"]))


def run_in_process(argv, text=""):
    """cli.run on argv, with FILE replaced by a temporary file holding text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run([path if a == "FILE" else a for a in argv])
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL)
    assert "Traceback" not in err.getvalue()
    event(f"exit {code}")


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
def test_fuzz_distance_csv(text, method):
    run_in_process(["finite", "--input", "FILE", "--t", "1", "--method", method], text)


@settings(max_examples=60, deadline=None)
@given(text=edge_list_text(), gamma=st.sampled_from(["triv", "count"]))
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
def test_fuzz_space_parameters(case, params):
    values = iter(params)
    run_in_process([next(values) if a == "P" else a for a in case]
                   + ["--samples", "2000", "--seed", "1"])


@settings(max_examples=20, deadline=None)
@given(r=PARAM)
def test_fuzz_fekete_radius(r):
    run_in_process(["fekete-demo", "--r", r, "--m-list", "2", "3"])
