"""Command-line front end emitting plot-ready CSV.

Default output columns are (t, N, value, stderr, closed_form, abs_err,
method, seed); the catalog, interval-weight, and fekete-demo subcommands use
their own documented column sets.  Identical invocations with the same seed
produce byte-identical files regardless of MAGNILAB_THREADS.
"""
from __future__ import annotations

import argparse
import math
import sys

from . import closed_forms, empirical, finite_mag, graph_mag, mc, weight_measures
from .errors import MagnilabError, MetricValidationError
from .spaces import (Circle, FlatTorusUnit, Interval, LineGaussian,
                     LineLaplace, Sphere2, graph_metric, load_distance_csv,
                     load_edge_list, validate_metric)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

HEADER = "t,N,value,stderr,closed_form,abs_err,method,seed"


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    return f"{float(x):.12g}"


def _row(t, N, value, stderr, closed, method, seed) -> str:
    abs_err = "" if closed in (None, "") else abs(float(value) - float(closed))
    cols = [_fmt(t), "" if N is None else str(N), _fmt(value), _fmt(stderr),
            _fmt(closed) if closed not in (None, "") else "",
            _fmt(abs_err) if abs_err != "" else "", method, str(seed)]
    return ",".join(cols)


def _emit(lines: list[str], path: str | None):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    if not (_positive(start) and _positive(stop) and count >= 1
            and float(count).is_integer()):
        raise MetricValidationError("t grid must be strictly positive with an integer count >= 1")
    count = int(count)
    if count == 1:
        return [start]
    if args.t_spacing == "log":
        ratio = (stop / start) ** (1.0 / (count - 1))
        return [start * ratio**i for i in range(count)]
    step = (stop - start) / (count - 1)
    return [start + step * i for i in range(count)]


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


def _closed_form_terms(space, t: float, N: int) -> list:
    """Catalog values [a_1, ..., a_N]; None where the catalog has no entry."""
    if isinstance(space, Interval) and space.measure == "lebesgue":
        return closed_forms.interval_chain_terms(N, t, space.length, 0.0, 1.0)[1:]
    return [_closed_form_term(space, n, t) for n in range(1, N + 1)]


def _closed_form_term(space, n: int, t: float):
    """Catalog value for a_n, or None if the catalog has no entry."""
    try:
        if isinstance(space, Circle):
            return closed_forms.circle_term(n, space.r, t)
        if isinstance(space, Sphere2):
            return closed_forms.sphere_term(n, space.r, t)
        if isinstance(space, FlatTorusUnit) and n == 1:
            return closed_forms.torus_first_term(t)
        if isinstance(space, LineLaplace) and n == 1:
            return closed_forms.laplace_line_first_term(t)
        if isinstance(space, LineGaussian):
            if n == 1:
                return closed_forms.gaussian_line_first_term(t)
            if n == 2:
                return closed_forms.gaussian_line_second_term(t)
    except ValueError:
        return None
    return None


def _run_finite(args) -> int:
    space = load_distance_csv(args.input)
    report = validate_metric(space)
    if not report.valid:
        raise MetricValidationError(str(report))
    lines = [HEADER]
    for t in _t_grid(args):
        exact = finite_mag.classical_magnitude(space, t)
        if args.method in ("inverse", "all"):
            lines.append(_row(t, None, exact, 0.0, None, "inverse", args.seed))
        if args.method in ("series", "all"):
            series = finite_mag.neumann_partial(space, t, args.N)
            lines.append(_row(t, args.N, series.partial_sums[args.N], 0.0, exact,
                              "series", args.seed))
    _emit(lines, args.output)
    return EXIT_OK


def _run_graph(args) -> int:
    g = load_edge_list(args.edges)
    metric = graph_metric(g)
    counts = graph_mag.count_geodesics(g, metric) if args.gamma == "count" else None
    lines = [HEADER]
    for t in _t_grid(args):
        if counts is None:
            z = finite_mag.similarity(metric.dist, t)
        else:
            z = graph_mag.counted_similarity(counts, metric.dist, t)
        exact = float(finite_mag._solve_ones(z).sum())
        if args.method in ("inverse", "all"):
            lines.append(_row(t, None, exact, 0.0, None, "inverse", args.seed))
        if args.method in ("series", "all"):
            series = finite_mag.chain_series(z, t, args.N)
            lines.append(_row(t, args.N, series.partial_sums[args.N], 0.0, exact,
                              "series", args.seed))
    _emit(lines, args.output)
    return EXIT_OK


def _run_manifold(args) -> int:
    space = _make_space(args)
    grid = _t_grid(args)
    if args.method in ("mc", "all"):
        spec = mc.SamplerSpec(space, seed=args.seed, samples=args.samples)
        # one (N+1)-point chain per draw serves every order and the whole grid
        est = mc.estimate_term(spec, range(1, args.N + 1), grid)
    lines = [HEADER]
    for i, t in enumerate(grid):
        closed_terms = _closed_form_terms(space, t, args.N)
        for n, closed in enumerate(closed_terms, start=1):
            if args.method in ("closed", "all") and closed is not None:
                lines.append(_row(t, n, closed, 0.0, closed, "closed", args.seed))
            if args.method in ("mc", "all"):
                value, stderr = est.term(n - 1, i, spec.total_mass)
                lines.append(_row(t, n, value, stderr, closed, "mc", args.seed))
    _emit(lines, args.output)
    return EXIT_OK


def _run_weight_check(args) -> int:
    space = Circle(args.r) if args.space == "circle" else Sphere2(args.r)
    grid = _t_grid(args)
    checks = weight_measures.weight_partial_magnitude_check(
        space, grid, args.N, args.samples, args.seed)
    lines = [HEADER]
    for t, rows in zip(grid, checks):
        for r in rows:
            lines.append(_row(t, r.N, r.value, r.std_error, r.target, "mc", args.seed))
    _emit(lines, args.output)
    return EXIT_OK


def _run_length_spectrum(args) -> int:
    space = _make_space(args)
    n = args.n
    if args.l_max is not None:
        l_max = args.l_max
    elif hasattr(space, "diameter"):
        l_max = n * space.diameter
    else:
        l_max = n * 8.0
    if not _positive(l_max):
        raise MetricValidationError("--l-max must be finite and strictly positive")
    spec = mc.SamplerSpec(space, seed=args.seed, samples=args.samples)
    edges, density, counts = mc.estimate_length_density(spec, n, args.bins, l_max)
    stderr = mc.length_density_stderr(spec, n, edges[1] - edges[0], counts)
    lines = [HEADER]
    for i in range(args.bins):
        center = 0.5 * (edges[i] + edges[i + 1])
        closed = None
        if isinstance(space, Circle):
            try:
                closed = float(closed_forms.circle_length_density(n, space.r, center))
            except ValueError:
                pass
        elif isinstance(space, Sphere2):
            try:
                closed = float(closed_forms.sphere_length_density(n, space.r, center))
            except ValueError:
                pass
        elif isinstance(space, LineGaussian) and n == 1:
            closed = math.sqrt(2 * math.pi) * math.exp(-center * center / 2)
        lines.append(_row(center, n, density[i], stderr[i], closed, "mc", args.seed))
    _emit(lines, args.output)
    return EXIT_OK


def _run_interval_weight(args) -> int:
    rows = weight_measures.interval_weight_report(
        args.N, args.L, _checked_t(args.t), samples=args.samples, seed=args.seed)
    lines = ["N,paper_formula,corrected_formula,bruteforce,mc_estimate,mc_stderr"]
    for r in rows:
        lines.append(",".join([str(r.N), _fmt(r.paper_formula), _fmt(r.corrected_formula),
                               _fmt(r.bruteforce), _fmt(r.mc_estimate), _fmt(r.mc_stderr)]))
    _emit(lines, args.output)
    return EXIT_OK


def _run_fekete(args) -> int:
    rows = empirical.fekete_convergence_experiment(args.r, args.m_list, args.N, args.seed)
    lines = [f"# limit constant c = {_fmt(empirical.fekete_constant(args.r))}",
             "m,N,empirical,target,abs_dev"]
    for r in rows:
        lines.append(",".join([str(r.m), str(r.N), _fmt(r.empirical), _fmt(r.target),
                               _fmt(r.abs_dev)]))
    _emit(lines, args.output)
    return EXIT_OK


def _run_catalog(args) -> int:
    rows = closed_forms.catalog_rows(tuple(_t_grid(args)))
    lines = ["space,n,t,closed_form,oracle,abs_diff,citation"]
    for space, n, t, cf, oracle, diff, cite in rows:
        lines.append(",".join([space, str(n), _fmt(t), _fmt(cf), _fmt(oracle),
                               _fmt(diff), f'"{cite}"']))
    _emit(lines, args.output)
    return EXIT_OK


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return _DISPATCH[args.command](args)
    except MetricValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (MagnilabError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
