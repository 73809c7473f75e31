"""Core domain types: finite metric spaces, geodesic graphs, analytic spaces.

Everything here is immutable after construction and safe to share across
threads; all operations are pure functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import DisconnectedGraphError, GeodesicOverflowError, MetricValidationError

#: absolute tolerance for metric-invariant checks on float64 distances
METRIC_TOL = 1e-12
#: most violations validate_metric reports before it stops scanning
MAX_VIOLATIONS = 100
#: rows k per block of sums in the triangle screen
SCREEN_BLOCK = 128
#: most keys one round of GeodesicGraph._sweep expands, unless one source alone has more
SWEEP_KEYS = 2**20
#: relative tolerance for recognizing equal-length paths on weighted graphs
TIE_TOL = 1e-9
#: path counts beyond this are not exactly representable in float64
COUNT_LIMIT = float(2**53)


# ---------------------------------------------------------------------------
# finite metric spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space given by its distance matrix, which it copies."""

    dist: np.ndarray  # (n, n) float64, read-only

    def __post_init__(self):
        self._own(np.array(self.dist, dtype=float))

    def _own(self, d: np.ndarray) -> None:
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise MetricValidationError(f"distance matrix must be square, got shape {d.shape}")
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)

    @classmethod
    def _adopt(cls, dist: np.ndarray) -> "FiniteMetricSpace":
        """The space on a float64 array its caller has just made and holds
        alone, without the constructor's copy; the array becomes read-only."""
        space = cls.__new__(cls)
        space._own(dist)
        return space


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


def validate_metric(m: FiniteMetricSpace) -> ValidationReport:
    """Check finiteness, symmetry, zero diagonal, positivity, and the triangle
    inequality, each within METRIC_TOL.

    Returns a report listing violated invariants with offending indices, in
    the order the checks run, and stops scanning after MAX_VIOLATIONS of
    them; the report is empty iff the space is a valid metric space.  Takes
    O(n^3) time and O(n^2) memory.
    """
    found = tuple(islice(_violations(m.dist), MAX_VIOLATIONS + 1))
    return ValidationReport(found[:MAX_VIOLATIONS], truncated=len(found) > MAX_VIOLATIONS)


def _violations(d: np.ndarray):
    """Yield every violated invariant of the distance matrix d in report order."""
    n = d.shape[0]
    nonfinite = np.argwhere(~np.isfinite(d))
    if len(nonfinite):
        # every comparison with NaN is False, so the checks below cannot judge d
        for i, j in nonfinite:
            yield "non-finite entry", (int(i), int(j))
        return
    symmetric = bool((d == d.T).all())
    if not symmetric:  # |d - d^T| costs an n^2 array, so only when it can find something
        # a difference past the float range is inf > tol, an asymmetry
        with np.errstate(over="ignore"):
            asym = d - d.T
        # in place, and rebound so that the n^2 difference goes before the screen
        asym = np.argwhere(np.abs(asym, out=asym) > METRIC_TOL)
        for i, j in asym[asym[:, 0] < asym[:, 1]]:
            yield "asymmetric", (int(i), int(j))
    for i in range(n):
        if abs(d[i, i]) > METRIC_TOL:
            yield "nonzero diagonal", (i,)
    offdiag = np.argwhere(d <= 0.0)  # i < j leaves out the diagonal
    for i, j in offdiag[offdiag[:, 0] < offdiag[:, 1]]:
        yield "nonpositive off-diagonal", (int(i), int(j))
    for ijk in _triangle_screen(d, symmetric):
        yield "triangle inequality", ijk


def _triangle_screen(d: np.ndarray, symmetric: bool):
    """Yield each (i, j, k) of distinct indices with d(i,k) > d(i,j) + d(j,k)
    + METRIC_TOL, in order of i, then j, then k.

    Row i puts the sums d(i,j) + d(j,k) of SCREEN_BLOCK rows k at a time into
    one reused block and tests entry by entry only the blocks whose row
    minima flag some k, as x -> x + METRIC_TOL is monotone.  An exactly
    symmetric d is screened over k >= i only until a row is flagged: the pair
    (i, k < i) is the pair (k, i) that row k screened, with the same sums, so
    the first flagged half row is the first row with a violation, and it and
    every later row are screened in full.  Any other d is screened in full
    from row 0 against its contiguous transpose.
    """
    n = len(d)
    cols = d if symmetric else np.ascontiguousarray(d.T)  # cols[k, j] = d(j,k)
    s = np.empty((min(SCREEN_BLOCK, n), n))

    def hits(i, first):
        """j * n + k for the violations (i, j, k) in each flagged block of
        rows k from first on; a flagged block has at least one."""
        for lo in range(first, n, SCREEN_BLOCK):
            rows = cols[lo:lo + SCREEN_BLOCK]
            block = np.add(d[i], rows, out=s[:len(rows)])
            if (d[i, lo:lo + len(rows)] > block.min(axis=1) + METRIC_TOL).any():
                block += METRIC_TOL
                k, j = np.nonzero(d[i, lo:lo + len(rows), None] > block)
                yield j * n + lo + k

    # a sum past the float range is inf, which still bounds d(i,k)
    with np.errstate(over="ignore"):
        start = next((i for i in range(n) if any(map(len, hits(i, i)))), n) if symmetric else 0
    for i in range(start, n):
        with np.errstate(over="ignore"):
            keys = np.sort(np.concatenate([np.empty(0, np.intp), *hits(i, 0)]))
        for j, k in (divmod(int(key), n) for key in keys):  # lazily: few may be reported
            if i != j and j != k and i != k:
                yield i, j, k


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

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lengths, neighbours, indptr): the symmetric adjacency in CSR form,
        each vertex's neighbours in edge order."""
        uvw = np.array(self.edges, dtype=float).reshape(-1, 3)
        heads = uvw[:, :2].astype(np.intp).reshape(-1)  # u0, v0, u1, v1, ...
        order = np.argsort(heads, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(heads, minlength=self.vertex_count))))
        return uvw[order // 2, 2], heads[order ^ 1], indptr

    @cached_property
    def metric(self) -> FiniteMetricSpace:
        """All-pairs shortest-path metric of a connected graph, built once per
        graph.  Connectivity is checked first, in O(|E|) memory:
        DisconnectedGraphError names the first vertex not joined to 0, which
        is the first unreachable pair in row-major order.  Raises
        OverflowError naming the first pair whose path length is inf.
        """
        n = self.vertex_count
        if (first := self._first_unjoined()) < n:
            raise DisconnectedGraphError(0, first)
        metric = self._all_pairs[0]
        if metric.dist.max() == np.inf:  # the graph is connected, so the length overflowed
            i, j = np.unravel_index(metric.dist.argmax(), (n, n))
            raise OverflowError(f"path length between vertices {i} and {j} overflows")
        return metric

    @cached_property
    def counts(self) -> np.ndarray:
        """Read-only counts[x, y] = number of shortest x-y paths, diagonal
        zero, from the sweep that gave the metric.  Raises
        GeodesicOverflowError if a count exceeds COUNT_LIMIT.

        Paths tie within TIE_TOL * max(1, d), so an edge of length w is tight
        in both directions only if 2w <= TIE_TOL * (max(1, d_u) + max(1, d_v)),
        hence w <= TIE_TOL * max(1, longest distance).  Its counts would then
        depend on the order of settling, not on the graph; when the lengths
        differ and the lightest edge is within twice that bound (a margin
        for rounding), MetricValidationError names it.  Graphs of one length
        tie exactly and are never refused.
        """
        dist = self.metric.dist  # rejects disconnected graphs and overflowed lengths
        lengths = self.csr[0]
        if len(lengths) and lengths.min() < lengths.max() and (
                lengths.min() <= 2 * TIE_TOL * max(1.0, dist.max())):
            u, v, w = min(self.edges, key=lambda e: e[2])
            raise MetricValidationError(
                f"edge ({u},{v}) of length {w:.3g} may tie both ways on paths up to "
                f"{dist.max():.3g} long, so geodesic counts are not defined")
        counts = self._all_pairs[1]
        if counts.max() > COUNT_LIMIT:
            raise GeodesicOverflowError(
                f"shortest-path count {counts.max():.3e} exceeds exact float64 range")
        counts.setflags(write=False)
        return counts

    def _first_unjoined(self) -> int:
        """The least vertex that no path joins to vertex 0, or n if there is
        none.  Vertex 0's component has at most |E| + 1 vertices, so only
        vertices up to |E| + 1 are tried, and n may exceed any array size."""
        adjacent = {}
        for u, v, _ in self.edges:
            adjacent.setdefault(u, []).append(v)
            adjacent.setdefault(v, []).append(u)
        joined, todo = {0}, [0]
        while todo:
            fresh = set(adjacent.get(todo.pop(), ())) - joined
            joined |= fresh
            todo += fresh
        n = self.vertex_count
        return next((j for j in range(min(n, len(self.edges) + 2)) if j not in joined), n)

    @cached_property
    def _all_pairs(self) -> tuple[FiniteMetricSpace, np.ndarray]:
        """(metric, counts) from _sweep over blocks of SWEEP_KEYS // 2|E|
        sources, with the diagonal of counts set to zero.  A pair whose path
        length passes the float range keeps inf.
        """
        n = self.vertex_count
        dist, counts = np.full((n, n), np.inf), np.zeros((n, n))
        block = max(1, SWEEP_KEYS // max(1, len(self.csr[1])))
        for first in range(0, n, block):
            last = min(n, first + block)
            self._sweep(np.arange(first, last), dist[first:last], counts[first:last])
        np.fill_diagonal(counts, 0.0)
        return FiniteMetricSpace._adopt(dist), counts

    def _sweep(self, sources: np.ndarray, dist_rows: np.ndarray, count_rows: np.ndarray) -> None:
        """Shortest-path distances and counts from sources[i] into row i of
        the contiguous arrays dist_rows (all inf) and count_rows (all zero).
        A source counts 1 path to itself.

        Keys row*n + vertex settle in rounds in order of distance (Dial's
        buckets), and each round expands the keys it settles by their edges
        (np.repeat over the CSR degrees).  When every edge has one length L
        the rounds are breadth-first levels at the running sum 0 + L + L + ...,
        and every candidate ties: a new key's duplicates merge with no sort,
        each writing its position into its count slot, the one that reads its
        own back standing for the group, and bincount sums their counts,
        exactly below 2**53.

        Otherwise an open key keeps its tentative distance in dist_rows and a
        negative count.  Each source settles its open keys below the least
        dist[u] + (lightest edge at u) over its open keys u, less twice
        TIE_TOL relative (Crauser et al.'s OUT criterion), which no later path
        can reach or tie, and always its least open key, so that lengths
        1/TIE_TOL apart settle too.  A settling key sums the counts of its
        settled neighbours u over tight edges, dist[u] + w within TIE_TOL
        relative of its own distance (Brandes), and offers dist + w to the
        neighbours not yet settled.  Each distance is the least of the sums
        Dijkstra takes, bit for bit.  An offer past the float range is not
        taken, so its key keeps inf and count 0.
        """
        n = self.vertex_count
        lengths, nbrs, indptr = self.csr
        degree = np.diff(indptr)
        flat_dist, flat_counts = dist_rows.reshape(-1), count_rows.reshape(-1)  # views
        keys = np.arange(len(sources)) * n + sources
        flat_dist[keys], flat_counts[keys] = 0.0, 1.0
        hop = float(lengths.max(initial=0.0))
        one_length = lengths.min(initial=hop) == hop
        lightest = np.full(n, np.inf)
        np.minimum.at(lightest, np.repeat(np.arange(n), degree), lengths)
        level, vals, waiting = 0.0, np.ones(len(keys)), keys[:0]
        # A round's expanded edges dominate its memory, so each array of one
        # entry per edge is updated in place where it can be and dropped as
        # soon as it is dead: a round of one length peaks at about two of
        # them, a weighted round at five.
        while len(keys):
            vertex = keys % n
            deg = degree[vertex]
            ends = np.cumsum(deg)
            step = np.repeat(indptr[vertex] - ends + deg, deg)  # each edge's CSR slot
            step += np.arange(len(step))
            base = np.subtract(keys, vertex, out=vertex)  # row * n
            w = None if one_length else lengths[step]
            near = np.repeat(base, deg)
            near += np.take(nbrs, step, out=step, mode="clip")  # every slot is in range
            del step, base
            if one_length:
                level += hop  # a float sum, so 1e308 + 1e308 is inf without a warning
                fresh = flat_counts[near] == 0
                near = near[fresh]
                vals = np.repeat(vals, deg)[fresh]
                del fresh
                flat_counts[near] = np.arange(len(near))
                rep = flat_counts[near]
                own = np.flatnonzero(rep == np.arange(len(near)))
                keys = near[own]
                del near
                vals = np.bincount(rep.astype(np.intp), weights=vals, minlength=len(rep))[own]
                del rep, own
                flat_dist[keys], flat_counts[keys] = level, vals
                continue
            dv = np.repeat(flat_dist[keys], deg)
            du = flat_dist[near]
            with np.errstate(over="ignore"):
                slack = du + w
                slack -= dv
                offer = np.add(dv, w, out=w)
                tie = np.maximum(1.0, dv, out=dv)
                tie *= TIE_TOL
                tight = np.abs(slack, out=slack) <= tie
            del slack, tie, dv, w  # offer keeps w's buffer
            cu = flat_counts[near]
            tight = np.flatnonzero(tight & (cu > 0))
            # the settling keys hold their negative mark, or a source its count 1
            flat_counts[keys] = np.maximum(flat_counts[keys], 0.0) + np.bincount(
                np.searchsorted(ends, tight, side="right"), weights=cu[tight],
                minlength=len(keys))
            ahead = np.flatnonzero((cu <= 0) & (offer < du))  # du is inf where cu is 0
            np.minimum.at(flat_dist, near[ahead], offer[ahead])
            new = near[ahead[cu[ahead] == 0]]
            del near, offer, cu, du, ahead
            flat_counts[new] = at = -1.0 - np.arange(len(new))
            waiting = np.concatenate((waiting, new[flat_counts[new] == at]))
            rows, d = waiting // n, flat_dist[waiting]
            least, soon = np.full((2, len(sources)), np.inf)
            np.minimum.at(least, rows, d)
            with np.errstate(over="ignore", invalid="ignore"):  # inf - inf: nothing below
                np.minimum.at(soon, rows, d + lightest[waiting % n])
                limit = soon - 2 * TIE_TOL * np.maximum(1.0, soon)
            settle = (d < limit[rows]) | (d == least[rows])
            keys, waiting = waiting[settle], waiting[~settle]


def graph_metric(g: GeodesicGraph) -> FiniteMetricSpace:
    """All-pairs shortest-path metric of a connected graph: g.metric, which
    the graph builds on the first call and keeps."""
    return g.metric


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
        try:
            return 4.0 * math.pi * self.r**2
        except OverflowError:  # r**2 raises where a product would give inf
            return math.inf

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


@dataclass(frozen=True)
class MagnitudeSeries:
    """Per-order chain-integral terms a_n and the alternating partial sums.

    partial_sums[N] = total_mass + sum_{n=1}^{N} (-1)^n a_n.
    """

    total_mass: float
    terms: tuple[SeriesTerm, ...]
    #: std error of each partial sum, from the estimator of sampled terms
    #: (they may share samples); None for exact terms
    errors: tuple[float, ...] | None = None
    partial_sums: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        sums = [self.total_mass]
        for term in self.terms:
            sums.append(sums[-1] + (-1) ** term.order * term.value)
        object.__setattr__(self, "partial_sums", tuple(sums))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _parses_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _text_lines(path):
    """The lines of a text file; bytes that do not decode raise
    MetricValidationError naming the file."""
    with open(path) as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise MetricValidationError(f"cannot read {path} as text: {exc}") from None


def _data_lines(path):
    """(1-based line number, stripped line) for each non-blank line of a
    text file."""
    for no, line in enumerate(_text_lines(path), 1):
        if line := line.strip():
            yield no, line


def load_distance_csv(path) -> FiniteMetricSpace:
    """Read an n x n distance matrix from CSV, optional first header row.

    The first row is a header of labels, skipped, when none of its fields is
    a number; either way its field count is n.  Blank lines are skipped.
    The file is read once, so a pipe loads too, and each row is parsed into
    the n x n array that the space keeps, allocated at the first data row,
    so no copy of the text is held.  A non-numeric field, a row with other than n
    fields or an (n+1)-th row raises MetricValidationError naming its
    1-based line; fewer than n rows raise it too.  When the n x n array
    does not fit in memory the rest of the file is still read, so a file
    that is not square raises MetricValidationError and only a square one
    raises the MemoryError.
    """
    n, d, r, no_room = None, None, 0, None
    for no, line in _data_lines(path):
        fields = line.split(",")
        if n is None:
            n = len(fields)
            if not any(map(_parses_as_float, fields)):
                continue  # a header of labels
        if r == n or len(fields) != n:
            raise MetricValidationError(f"distance file {path} is not square: line {no} is "
                                        f"row {r + 1} with {len(fields)} fields for {n} columns")
        try:
            row = np.array(fields, dtype=float)
        except ValueError as exc:
            raise MetricValidationError(f"line {no} of {path}: {exc}") from None
        if r == 0:
            try:
                d = np.empty((n, n))
            except MemoryError as exc:  # raised once the rest of the file is square
                no_room = exc
        if no_room is None:
            d[r] = row
        r += 1
    if n is None:
        raise MetricValidationError(f"empty distance file {path}")
    if r == 0:
        raise MetricValidationError(f"no distance rows in {path}")
    if r < n:
        raise MetricValidationError(
            f"distance file {path} is not square: {r} rows for {n} columns")
    if no_room is not None:
        raise no_room
    return FiniteMetricSpace._adopt(d)


def load_edge_list(path) -> GeodesicGraph:
    """Read an edge list: 'u v' or 'u v length' per line, '#' comments."""
    edges = []
    maxv = 0
    for line in _text_lines(path):
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
