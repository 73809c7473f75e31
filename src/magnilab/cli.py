"""Command-line front end emitting plot-ready CSV.

Default output columns are (t, N, value, stderr, closed_form, abs_err,
method, seed); the catalog, interval-weight, and fekete-demo subcommands use
their own documented column sets.  Identical invocations with the same seed
produce byte-identical files regardless of MAGNILAB_THREADS.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

from . import closed_forms, empirical, finite_mag, graph_mag, mc, weight_measures
from .errors import MagnilabError, MetricValidationError
from .spaces import (Circle, FlatTorusUnit, Interval, LineGaussian,
                     LineLaplace, Sphere2, graph_metric, load_distance_csv,
                     load_edge_list, validate_metric)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

HEADER = "t,N,value,stderr,closed_form,abs_err,method,seed"

#: most points a --t-grid may ask for
MAX_T_COUNT = 2**16


def _csv(*cols) -> str:
    """One CSV row: None as empty, str and int as written, floats as .12g."""
    return ",".join("" if x is None else str(x) if isinstance(x, (str, int))
                    else f"{float(x):.12g}" for x in cols)


def _row(t, N, value, stderr, closed, method, seed) -> str:
    abs_err = None if closed is None else abs(float(value) - float(closed))
    return _csv(t, N, value, stderr, closed, abs_err, method, seed)


def _emit(lines: list[str], path: str | None):
    """Write the lines to path, or to stdout and flush it.  Where stdout has
    a binary layer the bytes go to it until all are written: an unbuffered
    stdout's text layer would drop what a short write left, as a write to a
    pipe whose reader closed early is short, and the next one raises EPIPE."""
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        return
    out = sys.stdout
    if not hasattr(out, "buffer"):  # a text stream such as io.StringIO
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[out.buffer.write(data):]
    out.buffer.flush()


def _positive(x: float) -> bool:
    """True for finite x > 0; False for NaN, whose comparisons all fail."""
    return 0.0 < x < math.inf


def _checked_t(t: float) -> float:
    if not _positive(t):
        raise MetricValidationError("t must be finite and strictly positive")
    return t


def _t_grid(args) -> list[float]:
    if args.t is not None:
        return [_checked_t(args.t)]
    start, stop, count = args.t_grid
    if not (_positive(start) and _positive(stop) and 1 <= count <= MAX_T_COUNT
            and float(count).is_integer()):
        raise MetricValidationError(
            f"t grid must be strictly positive with an integer count in [1, {MAX_T_COUNT}]")
    count = int(count)
    if count == 1:
        return [start]
    if args.t_spacing == "log":
        ratio = (stop / start) ** (1.0 / (count - 1))
        grid = [start * ratio**i for i in range(count)]
    else:
        step = (stop - start) / (count - 1)
        grid = [start + step * i for i in range(count)]
    if not all(map(_positive, grid)):
        raise MetricValidationError("every t of the grid must be finite and strictly positive")
    return grid


def _int_in(lo: int, hi: float = math.inf):
    """argparse type: an integer in [lo, hi]."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {lo}")
        if value > hi:
            raise argparse.ArgumentTypeError(f"{value} is above the maximum {hi}")
        return value
    return integer


def _add_t_args(p):
    p.add_argument("--t", type=float, default=None, help="single scale value")
    p.add_argument("--t-grid", type=float, nargs=3, metavar=("START", "STOP", "COUNT"),
                   default=(1.0, 5.0, 5), help="scale grid")
    p.add_argument("--t-spacing", choices=("linear", "log"), default="linear")


def _add_common(p):
    _add_t_args(p)
    p.add_argument("--N", type=_int_in(0), default=3)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--output", default=None, help="output CSV path (default stdout)")


def _add_space_args(p):
    p.add_argument("--space", required=True,
                   choices=("circle", "sphere", "torus", "interval", "line-gauss", "line-laplace"))
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--measure", choices=("lebesgue", "weight"), default="lebesgue")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="magnilab",
                                 description="magnitude computation for metric measure spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("finite", help="magnitude of a finite metric space from a distance CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=("inverse", "series", "all"), default="inverse")
    _add_common(p)

    p = sub.add_parser("graph", help="graph magnitude from an edge list")
    p.add_argument("--edges", required=True)
    p.add_argument("--gamma", choices=("triv", "count"), default="triv")
    p.add_argument("--method", choices=("inverse", "series", "all"), default="inverse")
    _add_common(p)

    p = sub.add_parser("manifold", help="chain-integral terms for an analytic space")
    _add_space_args(p)
    p.add_argument("--method", choices=("mc", "closed", "all"), default="all")
    p.add_argument("--samples", type=_int_in(2), default=1_000_000)
    _add_common(p)

    p = sub.add_parser("weight-check", help="weight-measure partial-sum pattern check")
    p.add_argument("--space", choices=("circle", "sphere"), default="circle")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--samples", type=_int_in(2), default=1_000_000)
    _add_common(p)

    p = sub.add_parser("length-spectrum", help="histogram of total chain length")
    _add_space_args(p)
    p.add_argument("--n", type=_int_in(1), default=1)
    p.add_argument("--bins", type=_int_in(2), default=64)
    p.add_argument("--l-max", type=float, default=None)
    p.add_argument("--samples", type=_int_in(2), default=1_000_000)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--output", default=None)

    p = sub.add_parser("interval-weight", help="boundary-weight interval comparison table")
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--N", type=_int_in(0, weight_measures.MAX_N), default=3)
    p.add_argument("--samples", type=_int_in(2), default=200_000)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--output", default=None)

    p = sub.add_parser("fekete-demo", help="empirical-measure convergence on the sphere")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--m-list", type=_int_in(2), nargs="+", default=(50, 100, 200, 400))
    p.add_argument("--N", type=_int_in(0), default=2)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--output", default=None)

    p = sub.add_parser("catalog", help="closed forms vs independent oracles")
    _add_t_args(p)
    p.add_argument("--output", default=None)

    return ap


def _make_space(args):
    if args.measure == "weight" and args.space != "interval":
        raise MetricValidationError(
            "--measure weight applies to --space interval only; weight-check runs the "
            "weight measure on the circle and sphere")
    if args.space == "circle":
        return Circle(args.r)
    if args.space == "sphere":
        return Sphere2(args.r)
    if args.space == "torus":
        return FlatTorusUnit()
    if args.space == "interval":
        return Interval(args.a, args.b, args.measure)
    if args.space == "line-gauss":
        return LineGaussian()
    return LineLaplace()


def _run_finite(args) -> list[str]:
    """Rows of a valid metric only: a validation error wins over any error of
    the solves, as if validation ran first.  With more than one worker the
    O(n^3) triangle screen runs on a worker thread while this thread, which
    keeps BLAS, solves the t grid; the solves' warnings and error are held
    until the report is in, then re-issued, or dropped with the report's
    error."""
    space = load_distance_csv(args.input)
    if mc.worker_count() < 2:
        _require_valid(validate_metric(space))
        return _run_exact(args, space.dist)
    with ThreadPoolExecutor(max_workers=1) as pool:
        report = pool.submit(validate_metric, space)
        # the catch holds every thread's warnings, and validate_metric raises none
        with warnings.catch_warnings(record=True) as held:
            try:
                lines, failure = _run_exact(args, space.dist), None
            except Exception as exc:  # raised below once the metric is valid
                lines, failure = None, exc
        _require_valid(report.result())
    for w in held:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    if failure is not None:
        raise failure
    return lines


def _require_valid(report) -> None:
    if not report.valid:
        raise MetricValidationError(str(report))


def _run_graph(args) -> list[str]:
    g = load_edge_list(args.edges)
    dist = graph_metric(g).dist
    counts = graph_mag.count_geodesics(g) if args.gamma == "count" else None
    del g  # its cached sweep holds counts, which a --gamma triv run never reads
    return _run_exact(args, dist, counts)


def _run_exact(args, dist, counts=None) -> list[str]:
    """inverse and series rows per t, counted if counts are given; every t
    refills the one Z buffer, which the series reads in place."""
    lines, z = [HEADER], None
    for t in _t_grid(args):
        z = finite_mag.similarity(dist, t, counts, out=z)
        exact = finite_mag.classical_magnitude(z)
        if args.method in ("inverse", "all"):
            lines.append(_row(t, None, exact, 0.0, None, "inverse", args.seed))
        if args.method in ("series", "all"):
            series = finite_mag.neumann_partial(z, args.N)
            lines.append(_row(t, args.N, series.partial_sums[args.N], 0.0, exact,
                              "series", args.seed))
    return lines


def _run_manifold(args) -> list[str]:
    space = _make_space(args)
    grid = _t_grid(args)
    spec = mc.SamplerSpec(space, seed=args.seed, samples=args.samples)  # checks the mass
    # one (N+1)-point chain per draw serves every order and the whole grid
    est = mc.estimate_term(spec, args.N, grid) if args.method in ("mc", "all") else None
    lines, orders = [HEADER], range(1, args.N + 1)
    for i, t in enumerate(grid):
        # the estimates first, so that a power of mu(X) past the float range
        # is named before a reference term past it
        estimates = [est.term(n, i, spec.total_mass) for n in orders] if est else None
        for n, closed in zip(orders, closed_forms.chain_terms(space, t, args.N)):
            if args.method in ("closed", "all") and closed is not None:
                lines.append(_row(t, n, closed, 0.0, closed, "closed", args.seed))
            if estimates:
                lines.append(_row(t, n, *estimates[n - 1], closed, "mc", args.seed))
    return lines


def _run_weight_check(args) -> list[str]:
    space = Circle(args.r) if args.space == "circle" else Sphere2(args.r)
    grid = _t_grid(args)
    checks = weight_measures.weight_partial_magnitude_check(
        space, grid, args.N, args.samples, args.seed)
    lines = [HEADER]
    for t, series in zip(grid, checks):
        for k, (value, error) in enumerate(zip(series.partial_sums, series.errors)):
            target = 0.0 if k % 2 else series.total_mass  # mu_w(X) at even k, 0 at odd k
            lines.append(_row(t, k, value, error, target, "mc", args.seed))
    return lines


def _run_length_spectrum(args) -> list[str]:
    space = _make_space(args)
    n = args.n
    if args.l_max is not None:
        l_max = args.l_max
        if not _positive(l_max):
            raise MetricValidationError("--l-max must be finite and strictly positive")
    else:
        l_max = n * getattr(space, "diameter", 8.0)
        if not _positive(l_max):
            raise OverflowError(f"default l_max = n * diameter = {l_max} is not a finite float64")
    spec = mc.SamplerSpec(space, seed=args.seed, samples=args.samples)
    edges, density, stderr = mc.estimate_length_density(spec, n, args.bins, l_max)
    if not math.isfinite(max(density.max(), stderr.max())):
        raise OverflowError(f"bin width {edges[1] - edges[0]:.3g} puts a density or its "
                            "error past the float range")
    lines = [HEADER]
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        # edges past 2**1022 may sum past the float max; their halves are exact,
        # so they sum to the same centre without overflow
        center = 0.5 * (a + b) if b < 2.0**1022 else 0.5 * a + 0.5 * b
        closed = closed_forms.length_density(space, n, center)
        lines.append(_row(center, n, density[i], stderr[i], closed, "mc", args.seed))
    return lines


def _run_interval_weight(args) -> list[str]:
    rows = weight_measures.interval_weight_report(
        args.N, args.L, _checked_t(args.t), samples=args.samples, seed=args.seed)
    return ["N,paper_formula,corrected_formula,bruteforce,mc_estimate,mc_stderr",
            *(_csv(*dataclasses.astuple(r)) for r in rows)]


def _run_fekete(args) -> list[str]:
    # the weight mass over the uniform probability measure at unit scale;
    # one past the float range fails at once
    constant = weight_measures.homogeneous_weight_mass(Sphere2(args.r), 1.0)
    rows = empirical.fekete_convergence_experiment(args.r, args.m_list, args.N, args.seed)
    return [f"# limit constant c = {_csv(constant)}",
            "m,N,empirical,target,abs_dev", *(_csv(*dataclasses.astuple(r)) for r in rows)]


def _run_catalog(args) -> list[str]:
    rows = closed_forms.catalog_rows(tuple(_t_grid(args)))
    return ["space,n,t,closed_form,oracle,abs_diff,citation",
            *(_csv(*row[:-1], f'"{row[-1]}"') for row in rows)]


_DISPATCH = {
    "finite": _run_finite,
    "graph": _run_graph,
    "manifold": _run_manifold,
    "weight-check": _run_weight_check,
    "length-spectrum": _run_length_spectrum,
    "interval-weight": _run_interval_weight,
    "fekete-demo": _run_fekete,
    "catalog": _run_catalog,
}


def run(argv) -> int:
    """Run one command line and return its exit code.  argparse's --help
    text is held and written by _emit, so that a closed pipe fails it as it
    fails any output."""
    try:
        with contextlib.redirect_stdout(io.StringIO()) as shown:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            return EXIT_VALIDATION
        args = None
    try:
        if args is None:
            _emit([shown.getvalue().removesuffix("\n")], None)
        else:
            _emit(_DISPATCH[args.command](args), args.output)
        return EXIT_OK
    except MetricValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (MagnilabError, ArithmeticError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    """The console script: run, flush, and exit without the interpreter's
    teardown, which would only free memory once the output is complete.
    run has reported its own failures, closed pipes included, and a flush
    that fails here has nothing left to report to.  Library callers use
    run."""
    code = run(sys.argv[1:])
    with contextlib.suppress(OSError):
        sys.stdout.flush()
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
