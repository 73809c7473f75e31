import argparse
import math
import tracemalloc

import numpy as np
import pytest

from magnilab import cli, finite_mag, graph_mag, spaces
from magnilab.errors import DisconnectedGraphError, GeodesicOverflowError, MetricValidationError
from magnilab.spaces import SWEEP_KEYS, GeodesicGraph, graph_metric
from references import tilde_convergence_threshold


def cycle(n):
    return GeodesicGraph(n, tuple((i, (i + 1) % n, 1.0) for i in range(n)))


def path(n):
    return GeodesicGraph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def four_cycle_with_diagonals():
    """Unit 4-cycle plus both diagonals of length 2 (same metric, extra geodesics)."""
    edges = tuple((i, (i + 1) % 4, 1.0) for i in range(4)) + ((0, 2, 2.0), (1, 3, 2.0))
    return GeodesicGraph(4, edges)


def test_geodesic_counts_four_cycle():
    counts = graph_mag.count_geodesics(cycle(4))
    assert counts[0, 1] == 1
    assert counts[0, 2] == 2  # two ways around
    assert np.all(np.diag(counts) == 0)


def test_geodesic_counts_with_diagonals():
    counts = graph_mag.count_geodesics(four_cycle_with_diagonals())
    assert counts[0, 2] == 3  # two cycle routes plus the direct diagonal


def test_tilde_equals_classical_on_trees():
    """Unique geodesics make the counted similarity coincide with e^{-td}."""
    g = path(5)
    for t in (0.5, 1.0, 2.0):
        assert graph_mag.tilde_magnitude(g, t) == pytest.approx(
            finite_mag.classical_magnitude(finite_mag.similarity(graph_metric(g), t)),
            rel=1e-12)


def test_tilde_four_cycle_closed_form():
    g = cycle(4)
    for t in (1.5, 2.0, 4.0):
        e = math.exp(t)
        expected = 4 * e**2 * (1 + (1 - e) ** 2) / (4 + e**4)
        assert graph_mag.tilde_magnitude(g, t) == pytest.approx(expected, rel=1e-12)


def test_tilde_neumann_converges():
    g = cycle(4)
    t_exact, t_crude = tilde_convergence_threshold(g)
    assert t_exact <= t_crude
    # crude bound for the 4-cycle: max column sum of counts is 4
    assert t_crude == pytest.approx(math.log(4.0), abs=1e-9)
    t = t_crude + 0.2
    series = graph_mag.tilde_neumann_partial(g, t, 60)
    assert series.partial_sums[-1] == pytest.approx(
        graph_mag.tilde_magnitude(g, t), abs=1e-8)


def scaled(g, factor):
    """Same graph with every edge length multiplied by factor.

    Uniform scaling keeps every geodesic, so the counts are unchanged.
    """
    return GeodesicGraph(g.vertex_count, tuple((u, v, w * factor) for u, v, w in g.edges))


def relength(g):
    """g with lengths 1, 2 and 3, so that its sweep takes weighted rounds."""
    return GeodesicGraph(g.vertex_count, tuple((u, v, 1.0 + (u + v) % 3) for u, v, _ in g.edges))


def grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1, 1.0) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c, 1.0) for r in range(rows - 1) for c in range(cols)]
    return GeodesicGraph(rows * cols, tuple(edges))


def random_connected(rng, n, extra):
    """Random spanning tree on n vertices plus up to `extra` further unit edges."""
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    while len(edges) < min(n - 1 + extra, n * (n - 1) // 2):
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((u, v))
    return GeodesicGraph(n, tuple((u, v, 1.0) for u, v in sorted(edges)))


def dijkstra_metric(g):
    """Reference metric: scipy's Dijkstra on the graph's CSR arrays."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = g.vertex_count
    return dijkstra(csr_matrix(g.csr, shape=(n, n)), directed=False)


def dag_loop_counts(g):
    """Reference counter: one pass per source over the shortest-path DAG in
    order of increasing distance, where v sums the counts of its neighbours u
    with dist[u] + w(u,v) == dist[v] within TIE_TOL relative."""
    n = g.vertex_count
    dist = graph_metric(g)
    lengths, nbrs, indptr = (a.tolist() for a in g.csr)
    adj = [tuple(zip(nbrs[a:b], lengths[a:b])) for a, b in zip(indptr, indptr[1:])]

    counts = np.zeros((n, n))
    for s in range(n):
        d = dist[s]
        c = np.zeros(n)
        c[s] = 1.0
        for v in np.argsort(d, kind="stable"):
            v = int(v)
            if v == s:
                continue
            acc = 0.0
            for u, w in adj[v]:
                if abs(d[u] + w - d[v]) <= spaces.TIE_TOL * max(1.0, d[v]):
                    acc += c[u]
            c[v] = acc
        counts[s] = c
    counts[np.diag_indices(n)] = 0.0
    return counts


@pytest.mark.parametrize("seed", range(8))
def test_level_counts_equal_dag_loop_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    g = random_connected(rng, n, int(rng.integers(0, 2 * n)))
    unit = graph_mag.count_geodesics(g)
    assert np.array_equal(unit, graph_mag.count_geodesics(scaled(g, 2.0)))
    assert np.array_equal(unit, dag_loop_counts(scaled(g, 2.0)))
    assert not unit.flags.writeable


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("lengths", [(1.0, 2.0, 3.0), (0.1, 0.2, 0.3)], ids=["int", "tenths"])
def test_push_counts_equal_dag_loop_with_ties(lengths, seed, monkeypatch):
    """Random lengths from a small set tie many paths.  In float64
    0.1 + 0.2 != 0.3, but the two fall within TIE_TOL, so both counters must
    take them as one length."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 40))
    unit = random_connected(rng, n, 2 * n)
    g = GeodesicGraph(n, tuple((u, v, float(rng.choice(lengths))) for u, v, _ in unit.edges))
    counts = graph_mag.count_geodesics(g)
    assert (counts > 1).any()
    assert np.array_equal(counts, dag_loop_counts(g))
    if lengths[0] == 0.1:  # some of those ties hold only within TIE_TOL
        monkeypatch.setattr(spaces, "TIE_TOL", 0.0)
        # g keeps the counts it built; a new graph counts under the patched tolerance
        assert not np.array_equal(graph_mag.count_geodesics(GeodesicGraph(n, g.edges)), counts)


@pytest.mark.parametrize("lengths, refused", [
    ((1e308, 1.0, 1.0, 1.0), True),  # unit edges against paths of 1e308
    ((1e-10, 2e-10, 1e-10, 3e-10), True),  # every length below TIE_TOL, distances below 1
    ((1e-10,) * 4, False),  # one length: every tie is exact
    ((1e-8, 1.0, 1.0, 1.0), False),  # beyond 2 TIE_TOL of the longest distance
])
def test_counts_refuse_edges_that_tie_both_ways(lengths, refused):
    """A triangle 1-2-3 with a tail 0-1; where counts are defined they are
    those of unit lengths."""
    pairs = ((0, 1), (1, 2), (2, 3), (1, 3))
    g = GeodesicGraph(4, tuple((u, v, w) for (u, v), w in zip(pairs, lengths)))
    graph_metric(g)  # the metric is defined either way
    if refused:
        with pytest.raises(MetricValidationError, match=r"^edge \(\d,\d\) of length"):
            graph_mag.count_geodesics(g)
    else:
        assert np.array_equal(graph_mag.count_geodesics(g),
                              graph_mag.count_geodesics(unit_graph(4, pairs)))


def test_singleton_graph_has_no_edge_to_refuse():
    assert np.array_equal(graph_mag.count_geodesics(GeodesicGraph(1, ())), [[0.0]])


def test_push_memory_is_counts_plus_distance_order():
    """Once the metric of a weighted graph is built, its counts cost less than
    two n^2 arrays plus one step's edges: the sweep that built the metric
    already holds them."""
    for g in (scaled(grid(25, 25), 2.0), relength(grid(25, 25))):
        n = g.vertex_count
        graph_metric(g)  # dist and the CSR are built before the trace
        tracemalloc.start()
        try:
            graph_mag.count_geodesics(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n * n + (1 << 18)


def test_grid_counts_are_binomials():
    side = 6
    g = grid(side, side)
    r, c = np.divmod(np.arange(side * side), side)
    dr = np.abs(r[:, None] - r[None, :])
    dc = np.abs(c[:, None] - c[None, :])
    expected = np.vectorize(math.comb)(dr + dc, dr).astype(float)
    np.fill_diagonal(expected, 0.0)
    assert np.array_equal(graph_mag.count_geodesics(g), expected)
    assert np.array_equal(graph_mag.count_geodesics(scaled(g, 2.0)), expected)


def test_count_geodesics_accepts_prebuilt_metric():
    """Counts built after the metric equal those of a graph whose counts
    build the metric themselves, on one length and on the weighted rounds."""
    for factor in (1.0, 2.0):
        g = scaled(grid(3, 4), factor)
        graph_metric(g)
        assert np.array_equal(graph_mag.count_geodesics(g),
                              graph_mag.count_geodesics(scaled(grid(3, 4), factor)))


def diamond_ladder(stages, length, cross=None):
    """Stacked parallel routes, each of length + cross: the count doubles per
    stage."""
    cross = length if cross is None else cross
    edges = []
    v = 0
    for stage in range(stages):
        a, b1, b2, c = v, v + 1, v + 2, v + 3
        edges += [(a, b1, length), (a, b2, cross), (b1, c, cross), (b2, c, length)]
        v = c
    return GeodesicGraph(v + 1, tuple(edges))


def test_count_overflow_guard():
    # 2^60 > 2^53 limit, on the level sweep of unit graphs
    with pytest.raises(GeodesicOverflowError):
        graph_mag.count_geodesics(diamond_ladder(60, 1.0))


def test_count_overflow_guard_weighted():
    # the same ladder with lengths 2 and 3 runs the weighted rounds
    with pytest.raises(GeodesicOverflowError):
        graph_mag.count_geodesics(diamond_ladder(60, 2.0, 3.0))


def test_ladder_below_limit_counts_powers_of_two():
    for lengths in ((1.0,), (2.0,), (2.0, 3.0)):
        counts = graph_mag.count_geodesics(diamond_ladder(50, *lengths))
        assert counts[0, -1] == 2.0**50


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("draw", ["uniform", "tenths", "spread"])
def test_weighted_sweep_equals_dijkstra_and_dag_loop(draw, seed):
    """Random graphs with lengths uniform(1e-3, 1), from {0.1, 0.2, 0.3} or
    from {1e-6, 1}, plus one chord of length 1e308: the metric is Dijkstra's
    bit for bit, and the counts are the DAG loop's."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 60))
    unit = random_connected(rng, n, 2 * n)
    lengths = {"uniform": lambda: rng.uniform(1e-3, 1.0),
               "tenths": lambda: rng.choice([0.1, 0.2, 0.3]),
               "spread": lambda: rng.choice([1e-6, 1.0])}[draw]
    pairs = {(u, v) for u, v, _ in unit.edges}
    chord = next((u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs)
    g = GeodesicGraph(n, tuple((u, v, float(lengths())) for u, v, _ in unit.edges)
                      + (chord + (1e308,),))
    assert np.array_equal(graph_metric(g), dijkstra_metric(g))
    assert np.array_equal(graph_mag.count_geodesics(g), dag_loop_counts(g))


def test_lengths_beyond_the_tie_tolerance_settle():
    """Past 1e308, adding 1 changes no float, so no key lies below a round's
    limit; each source still settles its least open key."""
    g = GeodesicGraph(4, ((0, 1, 1e308), (1, 2, 1.0), (2, 3, 1.0)))
    assert np.array_equal(graph_metric(g), dijkstra_metric(g))


# ---------------------------------------------------------------------------
# the sweep on graphs of one length
# ---------------------------------------------------------------------------

def unit_graph(n, pairs):
    return GeodesicGraph(n, tuple((u, v, 1.0) for u, v in pairs))


def star(n):
    return unit_graph(n, [(0, v) for v in range(1, n)])


def complete(n):
    return unit_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def hypercube(d):
    return unit_graph(2**d, [(v, v | 1 << b) for v in range(2**d) for b in range(d)
                             if not v & 1 << b])


def test_sweep_on_path():
    n = 9
    i = np.arange(n)
    hops = np.abs(i[:, None] - i[None, :]).astype(float)
    g = path(n)
    assert np.array_equal(graph_metric(g), hops)
    assert np.array_equal(graph_mag.count_geodesics(g), (hops > 0).astype(float))


def test_sweep_on_star():
    n = 7
    g = star(n)
    expected = np.full((n, n), 2.0)
    expected[0, :] = expected[:, 0] = 1.0
    np.fill_diagonal(expected, 0.0)
    assert np.array_equal(graph_metric(g), expected)
    assert np.array_equal(graph_mag.count_geodesics(g), (expected > 0).astype(float))


def test_sweep_on_complete_graph():
    n = 6
    off = 1.0 - np.eye(n)
    assert np.array_equal(graph_metric(complete(n)), off)
    assert np.array_equal(graph_mag.count_geodesics(complete(n)), off)


def test_sweep_on_hypercube_counts_factorials():
    """Vertices at Hamming distance k are joined by k! geodesics."""
    d = 5
    v = np.arange(2**d)
    hamming = sum((v[:, None] ^ v[None, :]) >> b & 1 for b in range(d))
    expected = np.vectorize(math.factorial)(hamming).astype(float)
    np.fill_diagonal(expected, 0.0)
    g = hypercube(d)
    assert np.array_equal(graph_metric(g), hamming.astype(float))
    assert np.array_equal(graph_mag.count_geodesics(g), expected)


@pytest.mark.parametrize("g", [path(9), star(7), complete(6), hypercube(4), cycle(7), grid(4, 5)],
                         ids=["path", "star", "complete", "hypercube", "cycle", "grid"])
def test_sweep_equals_dijkstra_and_dag_loop(g):
    weighted = scaled(g, 2.0)
    assert np.array_equal(graph_metric(g), dijkstra_metric(g))
    assert np.array_equal(graph_metric(weighted), dijkstra_metric(weighted))
    assert np.array_equal(graph_mag.count_geodesics(g), graph_mag.count_geodesics(weighted))
    assert np.array_equal(graph_mag.count_geodesics(weighted), dag_loop_counts(weighted))


def test_sweep_is_shared_and_read_only():
    g = grid(3, 3)
    w = relength(g)
    for h in (g, w):
        metric, counts = h._all_pairs
        assert graph_metric(h) is metric  # the cached metric, not a rebuilt one
        assert graph_mag.count_geodesics(h) is counts
        assert not metric.flags.writeable and not counts.flags.writeable


def test_weighted_graph_sweeps_once(monkeypatch):
    """Library calls at several t reuse the metric and counts that one
    sweep from all sources built."""
    sweep, calls = GeodesicGraph._sweep, []

    def counted(g, sources, dist_rows, count_rows):
        calls.append(len(sources))
        return sweep(g, sources, dist_rows, count_rows)

    monkeypatch.setattr(GeodesicGraph, "_sweep", counted)
    g = relength(grid(5, 5))
    values = [graph_mag.tilde_magnitude(g, t) for t in (1.0, 2.0, 3.0)]
    series = graph_mag.tilde_neumann_partial(g, 3.0, 8)
    tilde_convergence_threshold(g)
    assert calls == [25]
    assert series.partial_sums[-1] == pytest.approx(values[-1], rel=1e-6)


def test_sweep_memory_is_bounded_by_blocks_of_sources():
    """Unblocked, a level of Q10 expands 1024 * 252 * 10 > SWEEP_KEYS keys.
    Blocked, the sweep holds dist and counts, which the metric adopts
    without a copy, plus about two arrays of one entry per expanded edge:
    0.25 * 8n^2 each on Q10, 0.13 * 8n^2 on the 25 x 25 grid.  So does the
    grid with every length 2, and with lengths 1, 2 and 3, whose weighted
    rounds hold a few more."""
    assert 1024 * math.comb(10, 5) * 10 > SWEEP_KEYS
    for g, bound in ((hypercube(10), 2.8), (scaled(grid(25, 25), 2.0), 2.5),
                     (relength(grid(25, 25)), 2.8)):
        n = g.vertex_count
        g.csr  # O(|E|), built before the trace
        tracemalloc.start()
        try:
            g._all_pairs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 8 * n * n


def test_sweep_of_a_path_holds_two_square_arrays():
    """A path's levels hold at most two keys per source, so the peak is dist
    and counts alone: the metric takes dist without a copy."""
    g = path(1024)
    n = g.vertex_count
    g.csr
    tracemalloc.start()
    try:
        g._all_pairs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * n * n + (1 << 18)


def test_counted_similarity_is_built_in_place():
    """Z takes one n^2 array: exp(-t d) is computed in the array it returns."""
    g = hypercube(10)
    n = g.vertex_count
    metric, counts = graph_metric(g), graph_mag.count_geodesics(g)
    tracemalloc.start()
    try:
        z = finite_mag.similarity(metric, 0.5, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n + (1 << 16)
    expected = np.exp(-0.5 * metric) * counts
    np.fill_diagonal(expected, 1.0)
    assert np.array_equal(z, expected)


def test_exact_grid_holds_one_z_and_the_solve_copy():
    """Over a 5-point grid the inverse and series rows hold Z and the copy
    np.linalg.solve factors, whatever the number of t."""
    g = grid(25, 25)
    n = g.vertex_count
    dist, counts = graph_metric(g), graph_mag.count_geodesics(g)
    args = argparse.Namespace(t=None, t_grid=(0.5, 5.0, 5), t_spacing="linear",
                              method="all", N=10, seed=0)
    tracemalloc.start()
    try:
        cli._run_exact(args, dist, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.1 * 8 * n * n


def test_graph_triv_lets_the_counts_go_before_the_t_loop(tmp_path, capsys):
    """--gamma triv never reads the counts, so its t loop holds dist, Z and
    the solve's copy, 3 * 8n^2, where --gamma count also holds the counts."""
    n = 600
    edges = tmp_path / "p600.edges"
    edges.write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    argv = ["graph", "--edges", str(edges), "--t-grid", "0.5", "2", "3"]
    tracemalloc.start()
    try:
        assert cli.run([*argv, "--gamma", "triv"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * n * n
    triv = capsys.readouterr().out
    assert cli.run([*argv, "--gamma", "count"]) == 0
    assert capsys.readouterr().out == triv  # a path has one geodesic per pair


@pytest.mark.parametrize("factor", [1.0, 2.0])
def test_disconnected_pair_message(factor):
    """The first unreachable pair in row-major order, on both paths."""
    g = scaled(unit_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), factor)
    with pytest.raises(DisconnectedGraphError,
                       match=r"^graph is disconnected: no path between vertices 0 and 3$"):
        graph_metric(g)


def test_metric_of_ladder_beyond_count_limit():
    """The overflow check belongs to the counts, not to the sweep."""
    g = diamond_ladder(60, 1.0)
    assert graph_metric(g)[0, -1] == 120.0
    with pytest.raises(GeodesicOverflowError):
        graph_mag.count_geodesics(g)


def test_weighted_path_length_overflow_is_not_disconnection():
    g = GeodesicGraph(3, ((0, 1, 1e308), (1, 2, 1e308)))
    with pytest.raises(OverflowError, match="vertices 0 and 2"):
        graph_metric(g)


def test_graph_count_cli_sweeps_once(tmp_path, monkeypatch):
    sweep = GeodesicGraph._all_pairs.func
    calls = []

    def counted(g):
        calls.append(g)
        return sweep(g)

    monkeypatch.setattr(GeodesicGraph._all_pairs, "func", counted)
    p = tmp_path / "g.edges"
    p.write_text("0 1\n1 2\n2 3\n3 0\n0 4\n")
    assert cli.run(["graph", "--edges", str(p), "--gamma", "count", "--method", "all",
                    "--t-grid", "1", "3", "3", "--output", str(tmp_path / "o.csv")]) == 0
    assert len(calls) == 1
