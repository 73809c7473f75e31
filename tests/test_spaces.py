import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnilab.errors import DisconnectedGraphError, MetricValidationError
from magnilab.spaces import (Circle, FiniteMetricSpace, GeodesicGraph,
                             Interval, MagnitudeSeries, SeriesTerm, Sphere2,
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


def test_load_edge_list(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("# comment\n0 1\n1 2 2.5\n")
    g = load_edge_list(p)
    assert g.vertex_count == 3
    assert (1, 2, 2.5) in g.edges
