import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnilab import spaces
from magnilab.errors import DisconnectedGraphError, MetricValidationError
from magnilab.spaces import (MAX_VIOLATIONS, METRIC_TOL, Circle,
                             FiniteMetricSpace, GeodesicGraph, Interval,
                             MagnitudeSeries, SeriesTerm, Sphere2,
                             graph_metric, load_distance_csv, load_edge_list,
                             validate_metric)


def euclidean_space(coords):
    pts = np.asarray(coords, dtype=float)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    return FiniteMetricSpace(d)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
                min_size=2, max_size=6, unique=True))
def test_euclidean_point_sets_validate(coords):
    # integer grid keeps points separated beyond the validation tolerance
    report = validate_metric(euclidean_space(np.asarray(coords) * 0.1))
    assert report.valid, str(report)


def test_validation_catches_asymmetry_and_triangle():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    bad = FiniteMetricSpace(d)
    names = {v[0] for v in validate_metric(bad).violations}
    assert "asymmetric" in names

    d = np.array([[0, 1, 5.0], [1, 0, 1], [5.0, 1, 0]])
    bad = FiniteMetricSpace(d)
    names = {v[0] for v in validate_metric(bad).violations}
    assert "triangle inequality" in names


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_validation_catches_non_finite_entries(entry):
    d = np.array([[0, 1, entry], [1, 0, 1], [entry, 1, 0]])
    report = validate_metric(FiniteMetricSpace(d))
    assert ("non-finite entry", (0, 2)) in report.violations
    assert ("non-finite entry", (2, 0)) in report.violations


def test_distances_near_the_float_max_validate():
    """d(i,j) + d(j,k) overflows to inf, which still bounds d(i,k)."""
    d = np.array([[0.0, 1e308, 1e308], [1e308, 0.0, 1e308], [1e308, 1e308, 0.0]])
    assert validate_metric(FiniteMetricSpace(d)).valid


def test_asymmetry_past_the_float_max_is_reported_without_a_warning():
    """d(0,1) - d(1,0) overflows to inf > tol: an asymmetry, and no warning,
    which the suite would turn into an error."""
    d = np.array([[0.0, 1e308], [-1e308, 0.0]])
    report = validate_metric(FiniteMetricSpace(d))
    assert report.violations == (("asymmetric", (0, 1)),)


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
        elif kind == "shortcut":  # exactly symmetric: (i,j,k) and (k,j,i) both fail
            d[i, j] = d[j, i] = 0.25
        elif kind == "within tolerance":  # symmetric only up to the tolerance
            d += np.triu(rng.uniform(-3e-13, 3e-13, size=(n, n)), 1)
        else:  # symmetric noise at the scale of the tolerance
            noise = rng.uniform(-2e-12, 2e-12, size=(n, n))
            d += np.triu(noise, 1) + np.triu(noise, 1).T
    return d


def assert_matches_reference(d):
    ref = reference_violations(d)
    report = validate_metric(FiniteMetricSpace(d))
    assert report.violations == tuple(ref[:MAX_VIOLATIONS])
    assert report.truncated == (len(ref) > MAX_VIOLATIONS)


@pytest.mark.parametrize("kind", ["asymmetric", "diagonal", "long edge", "nonpositive",
                                  "near tolerance", "shortcut", "within tolerance"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
def test_validate_metric_matches_reference(n, kind):
    for seed in range(4):
        assert_matches_reference(broken_metric(n, kind, seed))


@pytest.mark.parametrize("shortcut", [False, True])
def test_validate_metric_matches_reference_on_200_euclidean_points(shortcut):
    rng = np.random.default_rng(5)
    d = euclidean_space(rng.uniform(0.0, 10.0, size=(200, 2))).dist.copy()
    if shortcut:
        d[3, 150] = d[150, 3] = 0.5 * d[3, 150]
    assert_matches_reference(d)


def screened_rows(d):
    """validate_metric's report on d; for each row i, the blocks of rows k
    whose sums d(i,j) + d(j,k) the triangle screen formed, each as
    (first k, last k + 1); and the rows i whose sums read a copy of d."""
    n = len(d)
    rows, from_copy = {}, set()

    class Recording(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.add and "out" in kwargs and isinstance(inputs[0], Recording):
                row, block = inputs
                i = (row.__array_interface__["data"][0] - origin) // (8 * n)
                base = origin
                if not np.shares_memory(block, plain):
                    from_copy.add(i)
                    base = block.base.__array_interface__["data"][0]
                lo = (block.__array_interface__["data"][0] - base) // (8 * n)
                rows.setdefault(i, []).append((lo, lo + len(block)))
            inputs = tuple(np.asarray(x) for x in inputs)
            if "out" in kwargs:
                kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
            return getattr(ufunc, method)(*inputs, **kwargs)

    plain = np.array(d, dtype=float)
    origin = plain.__array_interface__["data"][0]
    report = validate_metric(FiniteMetricSpace._adopt(plain.view(Recording)))
    return report, rows, from_copy


def blocks(first, n):
    """The blocks of rows k from first to n - 1, as (first k, last k + 1)."""
    return [(lo, min(lo + spaces.SCREEN_BLOCK, n)) for lo in range(first, n, spaces.SCREEN_BLOCK)]


def test_exactly_symmetric_metric_forms_sums_only_for_k_at_least_i():
    n = 300  # three blocks of rows k
    d = euclidean_space(np.random.default_rng(0).uniform(0.0, 10.0, size=(n, 2))).dist
    report, rows, from_copy = screened_rows(d)
    assert report.valid and not from_copy
    assert rows == {i: blocks(i, n) for i in range(n)}


def test_metric_symmetric_only_within_the_tolerance_is_screened_in_full():
    n = 40
    d = broken_metric(n, "within tolerance", 0)
    assert (d != d.T).any()
    report, rows, from_copy = screened_rows(d)
    assert report.violations == tuple(reference_violations(d)[:MAX_VIOLATIONS])
    # every row k of every row i, read from the transposed copy
    assert rows == {i: blocks(0, n) for i in range(n)} and from_copy == set(range(n))


def test_shortcut_is_reported_both_ways_and_screened_in_full_from_its_first_row():
    n = 300
    d = euclidean_space(np.random.default_rng(5).uniform(0.0, 10.0, size=(n, 2))).dist.copy()
    d[200, 250] = d[250, 200] = 0.99 * d[200, 250]  # first breaks a triangle in row 26
    report, rows, from_copy = screened_rows(d)
    ref = reference_violations(d)
    assert report.violations == tuple(ref[:MAX_VIOLATIONS])
    assert report.truncated == (len(ref) > MAX_VIOLATIONS)
    # the violations come in both orientations, (i,j,k) and (k,j,i)
    found = {idx for _, idx in ref}
    assert found and found == {(k, j, i) for i, j, k in found}
    first = report.violations[0][1][0]  # the first row with a violation
    assert first > 0 and not from_copy
    assert all(rows[i] == blocks(i, n) for i in range(first))  # half rows, screened once
    # the half row that flagged, up to its flagged block, then the full row
    full = len(blocks(0, n))
    assert len(rows[first]) > full and rows[first][-full:] == blocks(0, n)
    assert rows[first][:-full] == blocks(first, n)[:len(rows[first]) - full]
    # every later row is screened in full until the list of violations is cut
    last = max(rows)
    assert sorted(rows) == list(range(last + 1)) and last >= report.violations[-1][1][0]
    assert all(rows[i] == blocks(0, n) for i in range(first + 1, last + 1))


def test_validate_metric_caps_the_violation_list():
    d = np.zeros((20, 20))  # 190 nonpositive off-diagonal pairs
    report = validate_metric(FiniteMetricSpace(d))
    assert len(report.violations) == MAX_VIOLATIONS and report.truncated
    assert report.violations == tuple(reference_violations(d)[:MAX_VIOLATIONS])
    assert str(report).endswith(f"; list cut after the first {MAX_VIOLATIONS} violations")
    d = np.full((3, 3), np.nan)
    report = validate_metric(FiniteMetricSpace(d))
    assert len(report.violations) == 9 and not report.truncated


def test_validate_metric_memory_is_quadratic():
    """On an exactly symmetric d the check holds the triangle screen's block
    of SCREEN_BLOCK rows of sums and at most one n^2 bool mask, and never
    builds |d - d^T|."""
    rng = np.random.default_rng(0)
    n = 400
    space = euclidean_space(rng.uniform(0.0, 10.0, size=(n, 2)))
    assert (space.dist == space.dist.T).all()
    tracemalloc.start()
    try:
        assert validate_metric(space).valid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < spaces.SCREEN_BLOCK * 8 * n + n * n


def test_metric_symmetric_within_the_tolerance_holds_one_square_array_at_a_time():
    """A d that is symmetric only within the tolerance takes |d - d^T| in
    place and frees it before the screen's transposed copy: one n^2 array of
    floats and the block of sums beyond d, not the two that d - d^T and its
    absolute value made (2.0 * 8n^2)."""
    rng = np.random.default_rng(0)
    n = 700  # the SCREEN_BLOCK x n block of sums is 0.18 * 8n^2
    d = euclidean_space(rng.uniform(0.0, 10.0, size=(n, 2))).dist.copy()
    d += np.triu(rng.uniform(-3e-13, 3e-13, size=(n, n)), 1)
    space = FiniteMetricSpace._adopt(d)
    tracemalloc.start()
    try:
        report = validate_metric(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid and (d != d.T).any()
    assert peak < 1.25 * 8 * n * n


def test_invalid_metric_memory_is_one_block_of_sums():
    """A shortcut in an exactly symmetric d is reported from the one
    SCREEN_BLOCK x n block of sums: no n^2 buffer of sums and no transpose."""
    rng = np.random.default_rng(0)
    n = 400
    d = euclidean_space(rng.uniform(0.0, 10.0, size=(n, 2))).dist.copy()
    d[3, 150] = d[150, 3] = 0.5 * d[3, 150]
    space = FiniteMetricSpace(d)
    tracemalloc.start()
    try:
        report = validate_metric(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.truncated
    assert peak < spaces.SCREEN_BLOCK * 8 * n + n * n + (1 << 16)


def test_row_with_many_violations_costs_less_than_one_square_array():
    """Row 0 breaks n^2 / 4 triangles, of which the report keeps 100: their
    indices are read one at a time, not as a list of every one."""
    n = 1000
    d = np.ones((n, n))
    np.fill_diagonal(d, 0.0)
    far = np.arange(n) >= n // 2
    d[0, far] = d[far, 0] = 10.0  # d(0,k) = 10 > d(0,j) + d(j,k) = 2 for j < n/2 <= k
    space = FiniteMetricSpace(d)
    tracemalloc.start()
    try:
        report = validate_metric(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.violations == tuple(("triangle inequality", (0, 1, k))
                                      for k in range(n // 2, n // 2 + MAX_VIOLATIONS))
    assert report.truncated and peak < 8 * n * n


@pytest.mark.parametrize("make", [lambda: Circle(-1.0), lambda: Circle(math.nan),
                                  lambda: Sphere2(0.0), lambda: Sphere2(math.inf),
                                  lambda: Interval(1.0, 0.0), lambda: Interval(0.0, math.inf),
                                  lambda: Interval(math.nan, 1.0),
                                  lambda: Interval(0.0, 1.0, "counting")])
def test_analytic_spaces_reject_bad_parameters(make):
    with pytest.raises(MetricValidationError):
        make()


def test_constructor_rejects_wrong_shape():
    with pytest.raises(MetricValidationError):
        FiniteMetricSpace(np.zeros((2, 3)))


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
        total_mass=2.0,
        terms=(SeriesTerm(1, 1.0, 0.0), SeriesTerm(2, 0.5, 0.0)))
    assert s.partial_sums == (2.0, 1.0, 1.5)


def test_load_distance_csv_with_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n0,1\n1,0\n")
    m = load_distance_csv(p)
    assert m.dist.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_load_distance_csv_plain(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,2\n2,0\n")
    m = load_distance_csv(p)
    assert m.dist.tolist() == [[0.0, 2.0], [2.0, 0.0]]


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
    assert m.dist.tobytes() == expected.tobytes()


def test_load_distance_csv_parses_into_the_kept_array(tmp_path):
    """The loader holds no copy of the text and no second n^2 array: it
    reads the file once and parses each row into the matrix the space keeps.
    A loader that held the lines and then the matrix peaked at 4.3 * 8n^2."""
    n = 500
    d = np.random.default_rng(1).uniform(0.0, 10.0, size=(n, n))
    # repr of the list writes each float as repr does; rows are split by blank lines
    rows = repr(d.tolist())[2:-2].replace(", ", ",").replace("],[", "\n\n")
    p = tmp_path / "d.csv"
    p.write_text(",".join(f"p{i}" for i in range(n)) + "\n" + rows + "\n\n")
    tracemalloc.start()
    try:
        m = load_distance_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.dist.shape == (n, n) and m.dist.tobytes() == d.tobytes()
    assert peak < 1.25 * 8 * n * n


def test_load_distance_csv_reads_its_file_once(tmp_path, monkeypatch):
    """Lines that can be read only once, as from a pipe, load."""
    lines = iter(["a,b\n", "0,1\n", "\n", "1,0\n"])
    monkeypatch.setattr(spaces, "_text_lines", lambda path: lines)
    m = load_distance_csv(tmp_path / "d.csv")
    assert m.dist.tolist() == [[0.0, 1.0], [1.0, 0.0]]


@pytest.mark.parametrize("text, named", [("0,1,2\n1,0,abc\n2,1,0\n", "line 2"),
                                         ("0,1,2\n\n1,0\n2,1,0\n", "line 3"),
                                         ("0,1\n1,0,1\n", "line 2"),
                                         ("a,b\n", "no distance rows"),
                                         ("0,1,abc\n1,0,1\n2,1,0\n", "line 1"),
                                         ("0,1,2\n1,0,1\n", "2 rows for 3 columns"),
                                         ("0,1\n1,0\n2,2\n", "line 3 is row 3"),
                                         ("a,b,c\n0,1\n1,0\n", "line 2 is row 1 with 2"),
                                         ("a,b\n0,1,2\n1,0,1\n2,1,0\n", "line 2 is row 1 with 3")])
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


def test_metric_space_copies_its_distances():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = FiniteMetricSpace(d)
    d[0, 1] = 5.0  # a writable input is copied
    assert m.dist[0, 1] == 1.0 and not m.dist.flags.writeable
    base = np.zeros((2, 2))
    writable = base[:]
    base.setflags(write=False)  # read-only, but the view taken before can still write
    m = FiniteMetricSpace(base)
    writable[0, 1] = 5.0
    assert m.dist[0, 1] == 0.0
