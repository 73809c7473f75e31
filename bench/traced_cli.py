"""Run the magnilab command line with spans around each layer's entry points.

    python3 bench/traced_cli.py SPANS_JSON <magnilab arguments...>

stdout and the exit code are those of ``magnilab``; the spans and counters
go to SPANS_JSON.  Nothing in the package changes: the wrappers replace the
entry points listed in ENTRY_POINTS in every magnilab module that holds a
reference to them, ``scipy.integrate.quad`` is wrapped and attributed to the
module that calls it, and the Monte-Carlo thread pool runs each task in a
copy of the submitting context, so worker spans take the ``mc.estimate``
call that submitted them as their parent.

Self times exclude every child span, quad calls included: the spline
oracle costs weight_measures.interval_weight_bruteforce.self_s plus
quad.weight_measures.busy_s.
"""
from __future__ import annotations

import json
import sys
import tracemalloc

from spans import Recorder, Span, by_name, run_in_context

#: module -> {function: span name}.  The layer boundaries the per-layer
#: metrics need: calls between modules plus the internal steps they name.
ENTRY_POINTS = {
    "cli": {"run": "cli.run", "_emit": "cli.emit"},
    "spaces": {"load_distance_csv": "spaces.load", "load_edge_list": "spaces.load",
               "validate_metric": "spaces.validate_metric",
               "graph_metric": "spaces.graph_metric"},
    "finite_mag": {"classical_magnitude": "finite_mag.classical_magnitude",
                   "neumann_partial": "finite_mag.neumann_partial",
                   "_solve_ones": "finite_mag.solve"},
    "graph_mag": {"count_geodesics": "graph_mag.count_geodesics",
                  "tilde_similarity": "graph_mag.tilde_similarity",
                  "tilde_magnitude": "graph_mag.tilde_magnitude",
                  "tilde_neumann_partial": "graph_mag.tilde_neumann_partial"},
    "mc": {"estimate_term": "mc.estimate",
           "estimate_partial_magnitude": "mc.estimate_partial_magnitude",
           "sample_batch": "mc.sample_batch", "geodesic_distance": "mc.geodesic_distance",
           "tail_bound": "mc.tail_bound"},
    "closed_forms": {name: f"closed_forms.{name}" for name in (
        "circle_term", "sphere_term", "torus_first_term", "interval_term",
        "laplace_line_first_term", "gaussian_line_first_term",
        "gaussian_line_second_term")},
    "weight_measures": {name: f"weight_measures.{name}" for name in (
        "interval_weight_report", "interval_weight_bruteforce",
        "interval_weight_partition_sum", "weight_partial_magnitude_check")},
}

#: layers whose quad calls are reported separately
QUAD_LAYERS = ("weight_measures", "closed_forms", "mc")

#: name -> unit of every metric layer_metrics returns
LAYER_UNITS = {
    "spaces.load.self_s": "s",
    "spaces.validate_metric.self_s": "s",
    "spaces.validate_metric.peak_alloc_mb": "MB",
    "spaces.graph_metric.calls": "count",
    "spaces.graph_metric.self_s": "s",
    "finite_mag.solve.calls": "count",
    "finite_mag.solve.self_s": "s",
    "finite_mag.neumann_partial.self_s": "s",
    "graph_mag.count_geodesics.calls": "count",
    "graph_mag.count_geodesics.self_s": "s",
    "graph_mag.tilde_similarity.self_s": "s",
    "graph_mag.tilde_neumann_partial.self_s": "s",
    "mc.points_sampled": "count",
    "mc.sample_batch.busy_s": "s",
    "mc.geodesic_distance.busy_s": "s",
    "mc.estimate.wall_s": "s",
    "mc.worker_util": "ratio",
    "mc.proper_fraction": "ratio",
    "weight_measures.interval_weight_bruteforce.self_s": "s",
    "weight_measures.kernel_cache.hits": "count",
    "weight_measures.kernel_cache.misses": "count",
    **{f"quad.{layer}.{k}": u for layer in QUAD_LAYERS
       for k, u in (("calls", "count"), ("busy_s", "s"))},
    "cli.emit.self_s": "s",
}


def instrument(rec: Recorder) -> None:
    """Install the wrappers; call after importing magnilab.cli."""
    import concurrent.futures

    import scipy.integrate
    from magnilab import mc

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "magnilab" or name.startswith("magnilab.")}

    def peak_alloc(fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                rec.record_max("spaces.validate_metric.peak_alloc_mb", peak / 2**20)
        return measured

    def points(args, kwargs, _result):
        rec.count("mc.points_sampled", kwargs["m"] if "m" in kwargs else args[2])

    def chains(args, kwargs, result):
        spec = kwargs["spec"] if "spec" in kwargs else args[0]
        rec.count("mc.chains", spec.samples)
        rec.count("mc.proper_chains", round(result.proper_fraction * spec.samples))

    special = {"validate_metric": (peak_alloc, None), "sample_batch": (None, points),
               "estimate_term": (None, chains)}
    replace = {}
    for short, table in ENTRY_POINTS.items():
        mod = modules[f"magnilab.{short}"]
        for attr, span_name in table.items():
            orig = getattr(mod, attr)
            pre, observe = special.get(attr, (None, None))
            replace[id(orig)] = rec.wrap(span_name, pre(orig) if pre else orig, observe)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in replace:
                setattr(mod, attr, replace[id(value)])

    quad = scipy.integrate.quad

    def traced_quad(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        layer = caller.rsplit(".", 1)[-1] if caller.startswith("magnilab.") else "other"
        with rec.span(f"quad.{layer}"):
            return quad(*args, **kwargs)

    scipy.integrate.quad = traced_quad

    class TracedExecutor(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(run_in_context(rec.wrap("mc.worker_task", fn)),
                                  *args, **kwargs)

    mc.ThreadPoolExecutor = TracedExecutor
    rec.count("mc.workers", mc.worker_count())


def layer_metrics(spans, counters) -> dict[str, float]:
    """The per-layer metrics of one traced process, named as in LAYER_UNITS."""
    stats = by_name(spans)

    def get(name, field):
        s = stats.get(name)
        return getattr(s, field) if s else 0

    out = {}
    for key in LAYER_UNITS:
        name, _, field = key.rpartition(".")
        if field in ("calls", "busy_s", "self_s"):
            out[key] = get(name, field)
    estimate_wall = get("mc.estimate", "busy_s")
    workers = counters.get("mc.workers", 1)
    chains = counters.get("mc.chains", 0)
    out.update({
        "spaces.validate_metric.peak_alloc_mb": counters.get(
            "spaces.validate_metric.peak_alloc_mb", 0.0),
        "mc.points_sampled": counters.get("mc.points_sampled", 0),
        "mc.estimate.wall_s": estimate_wall,
        "mc.worker_util": (get("mc.worker_task", "busy_s") / (estimate_wall * workers)
                           if estimate_wall else 0.0),
        "mc.proper_fraction": counters.get("mc.proper_chains", 0) / chains if chains else 0.0,
        "weight_measures.kernel_cache.hits": counters.get("weight_measures.kernel_cache.hits", 0),
        "weight_measures.kernel_cache.misses": counters.get(
            "weight_measures.kernel_cache.misses", 0),
    })
    return out


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    from magnilab import cli, weight_measures
    rec = Recorder()
    instrument(rec)
    code = cli.run(cli_args)
    sys.stdout.flush()
    info = weight_measures._kernel_cache.cache_info()
    rec.count("weight_measures.kernel_cache.hits", info.hits)
    rec.count("weight_measures.kernel_cache.misses", info.misses)
    with open(out_path, "w") as fh:
        json.dump({"spans": [list(s) for s in rec.spans], "counters": rec.counters}, fh)
    return code


def load(path):
    """(spans, counters) as written by main."""
    with open(path) as fh:
        data = json.load(fh)
    return [Span(*s) for s in data["spans"]], data["counters"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
