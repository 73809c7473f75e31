"""Core domain types: finite metric spaces, geodesic graphs, analytic spaces.

Everything here is immutable after construction and safe to share across
threads; all operations are pure functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import DisconnectedGraphError, MetricValidationError

#: absolute tolerance for metric-invariant checks on float64 distances
METRIC_TOL = 1e-12
#: most violations validate_metric reports before it stops scanning
MAX_VIOLATIONS = 100


# ---------------------------------------------------------------------------
# finite metric spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space given by point labels and a distance matrix."""

    points: tuple[str, ...]
    dist: np.ndarray  # (n, n) float64, read-only

    def __post_init__(self):
        d = np.array(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise MetricValidationError(f"distance matrix must be square, got shape {d.shape}")
        if len(self.points) != d.shape[0]:
            raise MetricValidationError(
                f"{len(self.points)} labels for a {d.shape[0]}x{d.shape[0]} matrix"
            )
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "points", tuple(str(p) for p in self.points))

    @classmethod
    def from_matrix(cls, dist, points: Sequence[str] | None = None) -> "FiniteMetricSpace":
        d = np.asarray(dist, dtype=float)
        if points is None:
            points = [str(i) for i in range(d.shape[0])]
        return cls(tuple(points), d)

    @property
    def size(self) -> int:
        return self.dist.shape[0]

    def min_positive_distance(self) -> float:
        n = self.size
        if n < 2:
            raise MetricValidationError("no positive distances in a singleton space")
        off = self.dist[~np.eye(n, dtype=bool)]
        return float(off.min())


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_metric: a list of (invariant, offending indices).

    truncated is True when the scan stopped after MAX_VIOLATIONS entries.
    """

    violations: tuple[tuple[str, tuple[int, ...]], ...]
    truncated: bool = False

    @property
    def valid(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.valid:
            return "valid metric"
        text = "; ".join(f"{name} at {idx}" for name, idx in self.violations)
        if self.truncated:
            text += f"; list cut after the first {len(self.violations)} violations"
        return text


def validate_metric(m: FiniteMetricSpace, tol: float = METRIC_TOL) -> ValidationReport:
    """Check finiteness, symmetry, zero diagonal, positivity, and the triangle
    inequality.

    Returns a report listing violated invariants with offending indices, in
    the order the checks run, and stops scanning after MAX_VIOLATIONS of
    them; the report is empty iff the space is a valid metric space.  Takes
    O(n^3) time and O(n^2) memory.
    """
    found = tuple(islice(_violations(m.dist, tol), MAX_VIOLATIONS + 1))
    return ValidationReport(found[:MAX_VIOLATIONS], truncated=len(found) > MAX_VIOLATIONS)


def _violations(d: np.ndarray, tol: float):
    """Yield every violated invariant of the distance matrix d in report order."""
    n = d.shape[0]
    nonfinite = np.argwhere(~np.isfinite(d))
    if len(nonfinite):
        # every comparison with NaN is False, so the checks below cannot judge d
        for i, j in nonfinite:
            yield "non-finite entry", (int(i), int(j))
        return
    asym = np.argwhere(np.abs(d - d.T) > tol)
    for i, j in asym[asym[:, 0] < asym[:, 1]]:
        yield "asymmetric", (int(i), int(j))
    for i in range(n):
        if abs(d[i, i]) > tol:
            yield "nonzero diagonal", (i,)
    offdiag = np.argwhere((d <= 0.0) & ~np.eye(n, dtype=bool))
    for i, j in offdiag[offdiag[:, 0] < offdiag[:, 1]]:
        yield "nonpositive off-diagonal", (int(i), int(j))
    # d(i,k) <= d(i,j) + d(j,k) for all triples, one row i at a time, with
    # s[j, k] = d(i,j) + d(j,k).  x -> x + tol is monotone in floating point,
    # so a row with d(i,k) <= min_j s[j, k] + tol for every k has no violation
    # and only the rows this screen flags run the exact test.
    s = np.empty_like(d)
    for i in range(n):
        # a sum past the float range is inf, which still bounds d(i,k)
        with np.errstate(over="ignore"):
            np.add(d[i, :, None], d, out=s)
        if not (d[i] > s.min(axis=0) + tol).any():
            continue
        for j, k in np.argwhere(d[i] > s + tol):
            if i != j and j != k and i != k:
                yield "triangle inequality", (i, int(j), int(k))


# ---------------------------------------------------------------------------
# geodesic graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicGraph:
    """Undirected graph with positive edge lengths (default 1) and no loops."""

    vertex_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise MetricValidationError("graph needs at least one vertex")
        seen = set()
        norm = []
        for e in self.edges:
            if len(e) == 2:
                u, v, w = int(e[0]), int(e[1]), 1.0
            else:
                u, v, w = int(e[0]), int(e[1]), float(e[2])
            if u == v:
                raise MetricValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise MetricValidationError(f"edge ({u},{v}) out of range")
            if not (w > 0 and math.isfinite(w)):
                raise MetricValidationError(
                    f"edge ({u},{v}) length {w} is not finite and positive")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise MetricValidationError(f"duplicate edge {key}")
            seen.add(key)
            norm.append((u, v, w))
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def is_unit(self) -> bool:
        return all(w == 1.0 for _, _, w in self.edges)

    def adjacency(self):
        """Symmetric weighted adjacency as a scipy.sparse CSR matrix."""
        from scipy.sparse import csr_matrix

        n = self.vertex_count
        if not self.edges:
            return csr_matrix((n, n))
        u, v, w = zip(*self.edges)
        rows = np.array(u + v)
        cols = np.array(v + u)
        data = np.array(w + w, dtype=float)
        return csr_matrix((data, (rows, cols)), shape=(n, n))


def graph_metric(g: GeodesicGraph) -> FiniteMetricSpace:
    """All-pairs shortest-path metric of a connected graph.

    Raises DisconnectedGraphError naming an unreachable pair.
    """
    from scipy.sparse.csgraph import dijkstra

    n = g.vertex_count
    if n == 1:
        return FiniteMetricSpace.from_matrix(np.zeros((1, 1)))
    dist = dijkstra(g.adjacency(), directed=False)
    unreachable = np.argwhere(np.isinf(dist))
    if len(unreachable):
        i, j = unreachable[0]
        raise DisconnectedGraphError(int(i), int(j))
    if g.is_unit:
        dist = np.round(dist)  # BFS distances are exact integers
    return FiniteMetricSpace.from_matrix(dist)


# ---------------------------------------------------------------------------
# analytic spaces
# ---------------------------------------------------------------------------

def _require_positive(name: str, x: float) -> None:
    if not 0.0 < x < math.inf:  # also rejects NaN
        raise MetricValidationError(f"{name} must be finite and positive, got {x}")


@dataclass(frozen=True)
class Circle:
    """Round circle of radius r with the arc-length metric and dvol measure."""

    r: float = 1.0

    def __post_init__(self):
        _require_positive("circle radius", self.r)

    @property
    def total_mass(self) -> float:
        return 2.0 * math.pi * self.r

    @property
    def diameter(self) -> float:
        return math.pi * self.r


@dataclass(frozen=True)
class Sphere2:
    """Round 2-sphere of radius r with the great-circle metric and dvol."""

    r: float = 1.0

    def __post_init__(self):
        _require_positive("sphere radius", self.r)

    @property
    def total_mass(self) -> float:
        return 4.0 * math.pi * self.r**2

    @property
    def diameter(self) -> float:
        return math.pi * self.r


@dataclass(frozen=True)
class FlatTorusUnit:
    """Unit-square flat torus; diameter 1/sqrt(2), injectivity radius 1/2."""

    @property
    def total_mass(self) -> float:
        return 1.0

    @property
    def diameter(self) -> float:
        return 1.0 / math.sqrt(2.0)

    @property
    def injectivity_radius(self) -> float:
        return 0.5


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with Lebesgue or boundary-weight measure.

    The weight measure is (delta_a + delta_b + Lebesgue) / 2, total 1 + L/2.
    """

    a: float = 0.0
    b: float = 1.0
    measure: str = "lebesgue"  # "lebesgue" | "weight"

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.b > self.a):
            raise MetricValidationError(
                f"interval needs finite endpoints with b > a, got a={self.a}, b={self.b}")
        if self.measure not in ("lebesgue", "weight"):
            raise MetricValidationError(f"unknown interval measure {self.measure!r}")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def diameter(self) -> float:
        return self.length

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        if self.measure == "weight":
            return ((self.a, 0.5), (self.b, 0.5))
        return ()

    @property
    def continuous_density(self) -> float:
        """Constant density of the continuous part on (a, b)."""
        return 0.5 if self.measure == "weight" else 1.0

    @property
    def total_mass(self) -> float:
        return self.continuous_density * self.length + sum(m for _, m in self.atoms)


@dataclass(frozen=True)
class LineGaussian:
    """Real line with weight measure exp(-x^2); total mass sqrt(pi)."""

    @property
    def total_mass(self) -> float:
        return math.sqrt(math.pi)


@dataclass(frozen=True)
class LineLaplace:
    """Real line with weight measure exp(-|x|); total mass 2."""

    @property
    def total_mass(self) -> float:
        return 2.0


AnalyticSpace = Circle | Sphere2 | FlatTorusUnit | Interval | LineGaussian | LineLaplace


# ---------------------------------------------------------------------------
# magnitude series container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesTerm:
    order: int
    value: float
    std_error: float
    method: str  # "exact" | "quadrature" | "montecarlo"


@dataclass(frozen=True)
class MagnitudeSeries:
    """Per-order chain-integral terms a_n and the alternating partial sums.

    partial_sums[N] = total_mass + sum_{n=1}^{N} (-1)^n a_n.
    """

    t: float
    total_mass: float
    terms: tuple[SeriesTerm, ...]
    tail_bound: float | None = None
    #: std error of each partial sum, from the estimator of sampled terms
    #: (they may share samples); None for exact terms
    errors: tuple[float, ...] | None = None
    partial_sums: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        sums = [self.total_mass]
        for term in self.terms:
            sums.append(sums[-1] + (-1) ** term.order * term.value)
        object.__setattr__(self, "partial_sums", tuple(sums))

    @property
    def order(self) -> int:
        return len(self.terms)

    def partial_sum_errors(self) -> tuple[float, ...]:
        """Std error of each partial sum: errors, or zeros for exact terms."""
        return self.errors if self.errors is not None else (0.0,) * (self.order + 1)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _parses_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_distance_csv(path) -> FiniteMetricSpace:
    """Read an n x n distance matrix from CSV, optional first header row.

    The first row is a header of labels when none of its fields is a number.
    Blank lines are skipped.  A non-numeric field or a row with other than n
    fields raises MetricValidationError naming its 1-based line.
    """
    with open(path) as fh:
        rows = [(no, line.strip()) for no, line in enumerate(fh, 1) if line.strip()]
    if not rows:
        raise MetricValidationError(f"empty distance file {path}")
    labels = None
    first = rows[0][1].split(",")
    if not any(_parses_as_float(x) for x in first):
        labels = [x.strip() for x in first]
        rows = rows[1:]
    n = len(rows)
    if n == 0:
        raise MetricValidationError(f"no distance rows in {path}")
    d = np.empty((n, n))
    for r, (no, line) in enumerate(rows):
        fields = line.split(",")
        if len(fields) != n:
            raise MetricValidationError(
                f"distance file {path} is not square: line {no} has {len(fields)} "
                f"fields for {n} rows")
        try:
            d[r] = [float(x) for x in fields]
        except ValueError as exc:
            raise MetricValidationError(f"line {no} of {path}: {exc}") from None
    if labels is not None and len(labels) != n:
        raise MetricValidationError(f"{len(labels)} labels for {n} rows in {path}")
    return FiniteMetricSpace.from_matrix(d, labels)


def load_edge_list(path) -> GeodesicGraph:
    """Read an edge list: 'u v' or 'u v length' per line, '#' comments."""
    edges = []
    maxv = 0
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise MetricValidationError(f"bad edge line {line!r} in {path}")
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise MetricValidationError(f"bad edge line {line!r} in {path}") from None
            edges.append((u, v, w))
            maxv = max(maxv, u, v)
    if not edges:
        raise MetricValidationError(f"no edges in {path}")
    return GeodesicGraph(maxv + 1, tuple(edges))
