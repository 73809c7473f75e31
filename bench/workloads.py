"""The benchmark's workloads: seeded inputs, magnilab arguments, output checks.

Every check recomputes the expected values with NumPy from the generated
inputs or from closed forms written out here; none imports magnilab.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

SERIES_HEADER = "t,N,value,stderr,closed_form,abs_err,method,seed"
INTERVAL_HEADER = "N,paper_formula,corrected_formula,bruteforce,mc_estimate,mc_stderr"

FINITE_POINTS = 500
FINITE_T = (0.25, 8.0, 12)
GRID_SIDE = 25
GRAPH_T = (0.5, 5.0, 5)
SPHERE_T = (0.5, 5.0, 5)
SPHERE_SAMPLES = 4_000_000
SERIES_N = 10
REL_TOL = 1e-9
#: an MC value may sit this many standard errors from its reference
SIGMAS = 5.0
#: a reported standard error may exceed the one its sample count implies
#: by this factor; more would mean fewer samples than were asked for
STDERR_SLACK = 1.1


class CheckFailed(Exception):
    """The program's output is wrong; the message says where."""


@dataclass(frozen=True)
class Prepared:
    """One workload instance: the magnilab arguments and how to judge stdout."""

    args: list[str]
    check: Callable[[str], None]  # raises CheckFailed


def _rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"header {lines[:1]} != {header!r}")
    return [line.split(",") for line in lines[1:]]


def _close(got: float, want: float, tol: float, what: str) -> None:
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r} (tol {tol:.3g})")


def _grid(start: float, stop: float, count: int, log: bool) -> list[float]:
    """The t grid as magnilab's --t-grid builds it."""
    if log:
        ratio = (stop / start) ** (1.0 / (count - 1))
        return [start * ratio**i for i in range(count)]
    step = (stop - start) / (count - 1)
    return [start + step * i for i in range(count)]


def _check_exact(text: str, z_of_t, grid: list[float]) -> None:
    """inverse and series rows (method all) against a dense solve and 1^T Y^n 1."""
    rows = _rows(text, SERIES_HEADER)
    if len(rows) != 2 * len(grid):
        raise CheckFailed(f"{len(rows)} rows for a {len(grid)}-point t grid")
    for i, t in enumerate(grid):
        inv, ser = rows[2 * i], rows[2 * i + 1]
        _close(float(inv[0]), t, 1e-10 * t, "t column")
        if inv[6] != "inverse" or ser[6] != "series" or ser[1] != str(SERIES_N):
            raise CheckFailed(f"row layout at t={t}: {inv}, {ser}")
        z = z_of_t(t)
        n = z.shape[0]
        mag = float(np.linalg.solve(z, np.ones(n)).sum())
        _close(float(inv[2]), mag, REL_TOL * abs(mag), f"inverse at t={t}")
        _close(float(ser[4]), mag, REL_TOL * abs(mag), f"series closed_form at t={t}")
        y = z - np.eye(n)
        ones = np.ones(n)
        w = ones
        partial, scale = float(n), float(n)
        for k in range(1, SERIES_N + 1):
            w = y @ w
            term = float(ones @ w)
            partial += (-1) ** k * term
            scale += abs(term)
        _close(float(ser[2]), partial, REL_TOL * scale, f"series N={SERIES_N} at t={t}")


def finite_dense(seed: int, workdir: str) -> Prepared:
    """Euclidean distances of seeded points in [0,10]^2, as a CSV file."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 10.0, size=(FINITE_POINTS, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    path = os.path.join(workdir, "points.csv")
    with open(path, "w") as fh:
        for row in dist.tolist():
            fh.write(",".join(map(repr, row)) + "\n")
    start, stop, count = FINITE_T
    grid = _grid(start, stop, count, log=True)
    args = ["finite", "--input", path, "--t-grid", str(start), str(stop), str(count),
            "--t-spacing", "log", "--method", "all", "--N", str(SERIES_N)]
    return Prepared(args, lambda text: _check_exact(text, lambda t: np.exp(-t * dist), grid))


def grid_edges(seed: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """(label -> (row, col) positions, edge list) of a unit grid with seeded labels."""
    side = GRID_SIDE
    label = np.random.default_rng(seed).permutation(side * side)
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((int(label[v]), int(label[v + 1])))
            if r + 1 < side:
                edges.append((int(label[v]), int(label[v + side])))
    pos = np.empty((side * side, 2), dtype=int)
    pos[label] = np.stack(np.divmod(np.arange(side * side), side), axis=1)
    return pos, edges


def counted_similarity(pos: np.ndarray, t: float) -> np.ndarray:
    """Z-tilde of a grid: C(|dr|+|dc|, |dr|) geodesics of length |dr|+|dc|."""
    dr = np.abs(pos[:, None, 0] - pos[None, :, 0])
    dc = np.abs(pos[:, None, 1] - pos[None, :, 1])
    side = int(pos.max()) + 1
    binom = np.array([[math.comb(a + b, a) for b in range(side)] for a in range(side)],
                     dtype=float)
    z = binom[dr, dc] * np.exp(-t * (dr + dc).astype(float))
    np.fill_diagonal(z, 1.0)
    return z


def graph_count(seed: int, workdir: str) -> Prepared:
    pos, edges = grid_edges(seed)
    path = os.path.join(workdir, "grid.edges")
    with open(path, "w") as fh:
        fh.writelines(f"{u} {v}\n" for u, v in edges)
    start, stop, count = GRAPH_T
    grid = _grid(start, stop, count, log=False)
    args = ["graph", "--edges", path, "--gamma", "count", "--t-grid", str(start), str(stop),
            str(count), "--method", "all", "--N", str(SERIES_N)]
    return Prepared(args, lambda text: _check_exact(text, lambda t: counted_similarity(pos, t),
                                                    grid))


def sphere_term(n: int, t: float) -> float:
    """a_n of the unit 2-sphere: 4 pi J(t)^n, J(t) = 2 pi (1 + e^{-pi t}) / (1 + t^2)."""
    leg = 2.0 * math.pi * (1.0 + math.exp(-math.pi * t)) / (1.0 + t * t)
    return 4.0 * math.pi * leg**n


def sphere_stderr(n: int, t: float, samples: int) -> float:
    """Standard error of the plain estimator of a_n from `samples` chains.

    With scale (4 pi)^{n+1}, a chain's value v = exp(-t L) has E[v] =
    a_n(t)/scale and E[v^2] = a_n(2t)/scale.
    """
    scale = (4.0 * math.pi) ** (n + 1)
    mean = sphere_term(n, t) / scale
    var = sphere_term(n, 2.0 * t) / scale - mean * mean
    return scale * math.sqrt(var / samples)


def _check_sphere(text: str, seed: int) -> None:
    rows = _rows(text, SERIES_HEADER)
    grid = _grid(*SPHERE_T, log=False)
    want = [(t, n, m) for t in grid for n in (1, 2) for m in ("closed", "mc")]
    if len(rows) != len(want):
        raise CheckFailed(f"{len(rows)} rows, expected {len(want)}")
    for row, (t, n, method) in zip(rows, want):
        if row[1] != str(n) or row[6] != method or row[7] != str(seed):
            raise CheckFailed(f"row {row} where t={t} n={n} {method} was expected")
        _close(float(row[0]), t, 1e-10 * t, "t column")
        exact = sphere_term(n, t)
        _close(float(row[4]), exact, REL_TOL * exact, f"closed_form n={n} t={t}")
        if method == "mc":
            se = float(row[3])
            if not 0.0 < se <= STDERR_SLACK * sphere_stderr(n, t, SPHERE_SAMPLES):
                raise CheckFailed(f"stderr {se} at n={n} t={t} does not fit "
                                  f"{SPHERE_SAMPLES} samples")
            _close(float(row[2]), exact, SIGMAS * se, f"mc n={n} t={t}")


def mc_sphere(seed: int, workdir: str) -> Prepared:
    start, stop, count = SPHERE_T
    args = ["manifold", "--space", "sphere", "--t-grid", str(start), str(stop), str(count),
            "--N", "2", "--samples", str(SPHERE_SAMPLES), "--method", "all",
            "--seed", str(seed)]
    return Prepared(args, lambda text: _check_sphere(text, seed))


def _check_interval(text: str) -> None:
    rows = _rows(text, INTERVAL_HEADER)
    if [r[0] for r in rows] != ["1", "2", "3", "4"]:
        raise CheckFailed(f"N column {[r[0] for r in rows]}")
    for r in rows:
        brute, est, se = float(r[3]), float(r[4]), float(r[5])
        if not se > 0.0:
            raise CheckFailed(f"mc_stderr {se} at N={r[0]}")
        _close(est, brute, SIGMAS * se, f"mc_estimate vs bruteforce at N={r[0]}")
    _close(float(rows[0][2]), 0.5, 1e-9, "corrected formula at N=1")
    _close(float(rows[0][3]), 0.5, 1e-9, "bruteforce at N=1")


def interval_weight(seed: int, workdir: str) -> Prepared:
    args = ["interval-weight", "--L", "1", "--t", "1", "--N", "4", "--seed", str(seed)]
    return Prepared(args, _check_interval)


def max_stderr(text: str) -> float | None:
    """Largest Monte-Carlo standard error in an output, None if it has none."""
    lines = text.splitlines()
    if not lines:
        return None
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if "mc_stderr" in header:
        col = header.index("mc_stderr")
        errs = [float(r[col]) for r in rows]
    elif "stderr" in header:
        col, method = header.index("stderr"), header.index("method")
        errs = [float(r[col]) for r in rows if r[method] == "mc"]
    else:
        errs = []
    return max(errs) if errs else None


WORKLOADS = {
    "finite-dense": finite_dense,
    "graph-count": graph_count,
    "mc-sphere": mc_sphere,
    "interval-weight": interval_weight,
}
