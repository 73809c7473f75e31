import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnilab.errors import DisconnectedGraphError, MetricValidationError
from magnilab.spaces import (MAX_VIOLATIONS, METRIC_TOL, Circle,
                             FiniteMetricSpace, GeodesicGraph, Interval,
                             MagnitudeSeries, SeriesTerm, Sphere2,
                             graph_metric, load_distance_csv, load_edge_list,
                             validate_metric)


def euclidean_space(coords):
    pts = np.asarray(coords, dtype=float)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    return FiniteMetricSpace.from_matrix(d)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
                min_size=2, max_size=6, unique=True))
def test_euclidean_point_sets_validate(coords):
    # integer grid keeps points separated beyond the validation tolerance
    report = validate_metric(euclidean_space(np.asarray(coords) * 0.1))
    assert report.valid, str(report)


def test_validation_catches_asymmetry_and_triangle():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    bad = FiniteMetricSpace(points=("a", "b"), dist=d)
    names = {v[0] for v in validate_metric(bad).violations}
    assert "asymmetric" in names

    d = np.array([[0, 1, 5.0], [1, 0, 1], [5.0, 1, 0]])
    bad = FiniteMetricSpace.from_matrix(d)
    names = {v[0] for v in validate_metric(bad).violations}
    assert "triangle inequality" in names


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_validation_catches_non_finite_entries(entry):
    d = np.array([[0, 1, entry], [1, 0, 1], [entry, 1, 0]])
    report = validate_metric(FiniteMetricSpace.from_matrix(d))
    assert ("non-finite entry", (0, 2)) in report.violations
    assert ("non-finite entry", (2, 0)) in report.violations


def test_distances_near_the_float_max_validate():
    """d(i,j) + d(j,k) overflows to inf, which still bounds d(i,k)."""
    d = np.array([[0.0, 1e308, 1e308], [1e308, 0.0, 1e308], [1e308, 1e308, 0.0]])
    assert validate_metric(FiniteMetricSpace.from_matrix(d)).valid


def reference_violations(d, tol=METRIC_TOL):
    """Every violation, found with an n x n x n triangle test in one array."""
    n = d.shape[0]
    nonfinite = np.argwhere(~np.isfinite(d))
    if len(nonfinite):
        return [("non-finite entry", (int(i), int(j))) for i, j in nonfinite]
    bad = []
    asym = np.argwhere(np.abs(d - d.T) > tol)
    for i, j in asym[asym[:, 0] < asym[:, 1]]:
        bad.append(("asymmetric", (int(i), int(j))))
    for i in range(n):
        if abs(d[i, i]) > tol:
            bad.append(("nonzero diagonal", (i,)))
    offdiag = np.argwhere((d <= 0.0) & ~np.eye(n, dtype=bool))
    for i, j in offdiag[offdiag[:, 0] < offdiag[:, 1]]:
        bad.append(("nonpositive off-diagonal", (int(i), int(j))))
    viol = d[:, None, :] > d[:, :, None] + d[None, :, :] + tol
    for i, j, k in np.argwhere(viol):
        if i != j and j != k and i != k:
            bad.append(("triangle inequality", (int(i), int(j), int(k))))
    return bad


def broken_metric(n, kind, seed):
    """L1 distances of n distinct grid points (many exact triangle equalities),
    with a few seeded defects of the given kind."""
    rng = np.random.default_rng(seed)
    pts = np.stack(np.divmod(rng.choice(100, size=n, replace=False), 10), axis=1)
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).astype(float)
    for _ in range(int(rng.integers(1, 4))):
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        if kind == "asymmetric":
            d[i, j] += rng.choice([-0.5, -2e-12, 2e-12, 0.5])
        elif kind == "diagonal":
            d[i, i] = rng.choice([-0.5, -2e-12, 2e-12, 0.5])
        elif kind == "long edge":
            d[i, j] = d[j, i] = 3.0 * d.max() + 1.0
        elif kind == "nonpositive":
            d[i, j] = d[j, i] = rng.choice([-1.0, 0.0])
        else:  # symmetric noise at the scale of the tolerance
            noise = rng.uniform(-2e-12, 2e-12, size=(n, n))
            d += np.triu(noise, 1) + np.triu(noise, 1).T
    return d


@pytest.mark.parametrize("kind", ["asymmetric", "diagonal", "long edge", "nonpositive",
                                  "near tolerance"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
def test_validate_metric_matches_reference(n, kind):
    for seed in range(4):
        d = broken_metric(n, kind, seed)
        ref = reference_violations(d)
        report = validate_metric(FiniteMetricSpace.from_matrix(d))
        assert report.violations == tuple(ref[:MAX_VIOLATIONS])
        assert report.truncated == (len(ref) > MAX_VIOLATIONS)


def test_validate_metric_caps_the_violation_list():
    d = np.zeros((20, 20))  # 190 nonpositive off-diagonal pairs
    report = validate_metric(FiniteMetricSpace.from_matrix(d))
    assert len(report.violations) == MAX_VIOLATIONS and report.truncated
    assert report.violations == tuple(reference_violations(d)[:MAX_VIOLATIONS])
    assert str(report).endswith(f"; list cut after the first {MAX_VIOLATIONS} violations")
    d = np.full((3, 3), np.nan)
    report = validate_metric(FiniteMetricSpace.from_matrix(d))
    assert len(report.violations) == 9 and not report.truncated


def test_validate_metric_memory_is_quadratic():
    rng = np.random.default_rng(0)
    space = euclidean_space(rng.uniform(0.0, 10.0, size=(400, 2)))
    tracemalloc.start()
    try:
        assert validate_metric(space).valid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("make", [lambda: Circle(-1.0), lambda: Circle(math.nan),
                                  lambda: Sphere2(0.0), lambda: Sphere2(math.inf),
                                  lambda: Interval(1.0, 0.0), lambda: Interval(0.0, math.inf),
                                  lambda: Interval(math.nan, 1.0),
                                  lambda: Interval(0.0, 1.0, "counting")])
def test_analytic_spaces_reject_bad_parameters(make):
    with pytest.raises(MetricValidationError):
        make()


def test_from_matrix_rejects_wrong_shape():
    with pytest.raises(MetricValidationError):
        FiniteMetricSpace.from_matrix(np.zeros((2, 3)))


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(MetricValidationError):
        GeodesicGraph(2, ((0, 0, 1.0),))
    with pytest.raises(MetricValidationError):
        GeodesicGraph(3, ((0, 1, 1.0), (1, 0, 1.0)))
    with pytest.raises(MetricValidationError):
        GeodesicGraph(2, ((0, 1, -1.0),))


def test_graph_metric_cycle():
    g = GeodesicGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)))
    m = graph_metric(g)
    assert m.dist[0, 2] == 2.0
    assert m.dist[0, 1] == 1.0
    assert validate_metric(m).valid


def test_graph_metric_disconnected():
    g = GeodesicGraph(3, ((0, 1, 1.0),))
    with pytest.raises(DisconnectedGraphError):
        graph_metric(g)


def test_analytic_space_masses():
    assert Circle(1.0).total_mass == pytest.approx(2 * np.pi)
    assert Sphere2(2.0).total_mass == pytest.approx(16 * np.pi)
    leb = Interval(0.0, 2.0, "lebesgue")
    assert leb.total_mass == pytest.approx(2.0)
    w = Interval(0.0, 2.0, "weight")
    # (delta_a + delta_b + Lebesgue)/2
    assert w.total_mass == pytest.approx(1.0 + 1.0)
    assert w.atoms == ((0.0, 0.5), (2.0, 0.5))


def test_magnitude_series_partial_sums():
    s = MagnitudeSeries(
        t=1.0, total_mass=2.0,
        terms=(SeriesTerm(1, 1.0, 0.0, "exact"), SeriesTerm(2, 0.5, 0.0, "exact")))
    assert s.partial_sums == (2.0, 1.0, 1.5)


def test_load_distance_csv_with_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n0,1\n1,0\n")
    m = load_distance_csv(p)
    assert m.points == ("a", "b")
    assert m.dist[0, 1] == 1.0


def test_load_distance_csv_plain(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,2\n2,0\n")
    m = load_distance_csv(p)
    assert m.size == 2


def test_load_distance_csv_matches_list_parse(tmp_path):
    rng = np.random.default_rng(3)
    rows = [[repr(x) for x in rng.uniform(0.0, 10.0, size=5).tolist()] for _ in range(5)]
    rows[1][2] = " 7 "
    rows[3][0] = "1e-3"
    text = "\n".join(",".join(r) for r in rows)
    p = tmp_path / "d.csv"
    p.write_text("a,b,c,d,e\n\n" + text.replace("\n", "\n\n", 1) + "\n")
    expected = np.array([[float(x) for x in r] for r in rows])
    m = load_distance_csv(p)
    assert m.points == ("a", "b", "c", "d", "e")
    assert m.dist.tobytes() == expected.tobytes()


@pytest.mark.parametrize("text, named", [("0,1,2\n1,0,abc\n2,1,0\n", "line 2"),
                                         ("0,1,2\n\n1,0\n2,1,0\n", "line 3"),
                                         ("0,1\n1,0,1\n", "line 2"),
                                         ("a,b\n", "no distance rows"),
                                         ("0,1,abc\n1,0,1\n2,1,0\n", "line 1")])
def test_load_distance_csv_names_the_bad_line(tmp_path, text, named):
    p = tmp_path / "d.csv"
    p.write_text(text)
    with pytest.raises(MetricValidationError, match=named):
        load_distance_csv(p)


def test_load_edge_list(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("# comment\n0 1\n1 2 2.5\n")
    g = load_edge_list(p)
    assert g.vertex_count == 3
    assert (1, 2, 2.5) in g.edges
