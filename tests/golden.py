"""Golden stdout digests of the Monte-Carlo command lines.

    python3 tests/golden.py

rewrites golden.json next to this file: the SHA-256 of the stdout of every
invocation in MC_INVOCATIONS at every seed in SEEDS, with the numpy version
that printed them and the SIMD target numpy ran each float64 ufunc of the
legs on, since two targets can differ in a last bit.  Each run draws
2 BATCH_SIZE + 1000 chains, so a two-worker pool splits the work and the
last tile is partial.

These runs call no BLAS routine, so their bytes depend on neither the BLAS
kernel nor its thread count.  The rewrite checks that: it computes the
digests in fresh interpreters under OPENBLAS_NUM_THREADS 1 and 2 and under
MAGNILAB_THREADS 1 and 2, and writes nothing unless all four agree.
test_golden.py checks them in process at both MAGNILAB_THREADS settings.

    python3 tests/golden.py --against REV

checks out the git revision REV into a temporary worktree, which it
removes again, and runs every invocation above at every seed, and those
in fixed_invocations, through ``python -m magnilab.cli`` on both trees,
under MAGNILAB_THREADS 1 and 2.  It prints each run whose stdout, stderr
or exit code differs between REV and the working tree, and gates
nothing.  Both trees keep their compiled bytecode, so neither recompiles
on every run, and the real entry point, exit included, is what runs.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "golden.json")
SEEDS = (0, 1, 2, 3)
GRID = ["--t-grid", "0.5", "2", "2"]


def _manifold(space: str, *extra: str) -> list[str]:
    return ["manifold", "--space", space, *extra, *GRID, "--method", "mc"]


MC_INVOCATIONS = (
    _manifold("sphere", "--r", "2.5", "--N", "3"),
    _manifold("circle", "--N", "2"),
    _manifold("torus", "--N", "2"),
    _manifold("line-gauss", "--N", "2"),
    _manifold("line-laplace", "--N", "2"),
    _manifold("interval", "--a", "0.5", "--b", "2", "--measure", "weight", "--N", "3"),
    ["interval-weight", "--N", "4"],
    ["length-spectrum", "--space", "sphere", "--n", "2"],
    ["length-spectrum", "--space", "interval", "--measure", "weight", "--n", "3"],
    ["weight-check", "--space", "sphere", "--N", "2", *GRID],
)


#: mu(X)^3 = (2 pi 1e300)^3 is past the float range: exit 3
OVERFLOW = ["length-spectrum", "--space", "circle", "--r", "1e300", "--l-max", "1", "--n", "2",
            "--bins", "4", "--samples", "3000"]


def fixed_invocations(workdir: str) -> list[list[str]]:
    """The command lines --against runs besides the golden ones: finite,
    graph --gamma count and graph --gamma triv on the benchmark's seed-0
    inputs, and graph --gamma count on that grid with edge lengths 1, 2
    and 3, all written to workdir; the catalog; a Fekete run; one run that exits 2 and one that
    exits 3; the three Monte-Carlo commands at --N 0, which draw nothing;
    weight-check on the circle; two sphere runs at a radius whose square
    underflows; manifold --method closed on every space, which reaches
    every branch of closed_forms.chain_terms; and the runs at the edges of
    the float range that reach the circle's leg ratio where pi r t is
    subnormal, its J(t) there, a chain term past the float range, a
    Fekete weight mass past it and a log t grid whose end ratio is past
    it."""
    sys.path.insert(0, os.path.join(REPO, "bench"))
    import workloads

    bad = os.path.join(workdir, "triangle.csv")
    with open(bad, "w") as fh:
        fh.write("0,1,9\n1,0,1\n9,1,0\n")
    count = workloads.graph_count(0, workdir).args
    at = count.index("--edges") + 1
    weighted = os.path.join(workdir, "grid-weighted.edges")
    with open(weighted, "w") as fh:
        fh.writelines(f"{u} {v} {1 + (u + v) % 3}\n" for u, v in workloads.grid_edges(0)[1])
    return [workloads.finite_dense(0, workdir).args, count,
            [*count[:at + 1], "--gamma", "triv", *count[at + 3:]],
            [*count[:at], weighted, *count[at + 1:]],
            ["catalog"], ["fekete-demo", "--m-list", "20", "40", "--N", "2"],
            ["finite", "--input", bad, "--t", "1"], OVERFLOW,
            ["manifold", "--space", "sphere", "--method", "mc", "--N", "0"],
            ["weight-check", "--N", "0"], ["interval-weight", "--N", "0"],
            argv(["weight-check", "--space", "circle", "--N", "3", *GRID], 0),
            ["fekete-demo", "--r", "1e-161", "--m-list", "3", "--N", "2"],
            ["weight-check", "--space", "sphere", "--r", "1e-155", "--t", "1", "--N", "2",
             "--samples", "1000"],
            *(["manifold", "--space", *space, "--method", "closed", "--N", "4", *GRID]
              for space in (["circle"], ["sphere"], ["torus"], ["interval"],
                            ["interval", "--measure", "weight"], ["line-gauss"],
                            ["line-laplace"])),
            ["weight-check", "--space", "circle", "--r", "1e-160", "--t", "1e-160", "--N", "2",
             "--samples", "10"],
            ["manifold", "--space", "circle", "--r", "1e100", "--t", "1e-300", "--N", "3",
             "--method", "closed"],
            ["manifold", "--space", "circle", "--t", "1e-320", "--method", "closed"],
            ["fekete-demo", "--r", "1e200", "--m-list", "3", "--N", "2"],
            ["manifold", "--space", "circle", "--method", "closed", "--N", "1",
             "--t-spacing", "log", "--t-grid", "1e-320", "1", "3"]]


def argv(invocation, seed: int) -> list[str]:
    from magnilab import mc

    return [*invocation, "--samples", str(2 * mc.BATCH_SIZE + 1000), "--seed", str(seed)]


def simd() -> dict[str, str]:
    """The SIMD target numpy dispatches each float64 ufunc of the legs and
    the reduce to on this machine."""
    import numpy as np

    info = np.lib.introspect.opt_func_info(
        func_name="^(sqrt|tan|arccos|exp|sin|cos)$", signature="float64")
    return {name: sig["dd"]["current"] for name, sig in sorted(info.items())}


def digests() -> dict[str, str]:
    """SHA-256 of each run's stdout, keyed by its command line, from cli.run
    in this process."""
    from magnilab import cli

    out = {}
    for invocation in MC_INVOCATIONS:
        for seed in SEEDS:
            args = argv(invocation, seed)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(args)
            if code != 0:
                raise RuntimeError(f"magnilab {' '.join(args)} exited {code}")
            out[" ".join(args)] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def cli_result(src: str, args: list[str], threads: str, cwd: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of python -m magnilab.cli args run from src."""
    env = dict(os.environ, PYTHONPATH=src, MAGNILAB_THREADS=threads, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    res = subprocess.run([sys.executable, "-m", "magnilab.cli", *args], cwd=cwd, env=env,
                         capture_output=True, text=True)
    return res.returncode, res.stdout, res.stderr


def _difference(before: tuple[int, str, str], after: tuple[int, str, str]) -> list[str]:
    """One line per differing part of two cli_result values."""
    lines = []
    if before[0] != after[0]:
        lines.append(f"exit code {before[0]} -> {after[0]}")
    if before[1] != after[1]:
        old, new = before[1].splitlines(), after[1].splitlines()
        at = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
        lines.append(f"stdout line {at + 1}: {old[at:at + 1]} -> {new[at:at + 1]}")
    if before[2] != after[2]:
        lines.append(f"stderr {before[2][-300:]!r} -> {after[2][-300:]!r}")
    return lines


def against(rev: str) -> None:
    """Print every run whose stdout, stderr or exit code differs between
    the git revision rev and the working tree."""
    src = os.path.join(REPO, "src")
    sys.path.insert(0, src)
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        res = subprocess.run(["git", "-C", REPO, "worktree", "add", "--detach", "--quiet", tree,
                              rev], capture_output=True, text=True)
        if res.returncode:
            sys.exit(f"git worktree add {rev}: {res.stderr.strip()}")
        try:
            runs = [argv(invocation, seed) for invocation in MC_INVOCATIONS for seed in SEEDS]
            runs += fixed_invocations(tmp)
            differ = 0
            for threads in ("1", "2"):
                for args in runs:
                    before = cli_result(os.path.join(tree, "src"), args, threads, tmp)
                    lines = _difference(before, cli_result(src, args, threads, tmp))
                    if lines:
                        differ += 1
                        print(f"MAGNILAB_THREADS={threads} magnilab {' '.join(args)}",
                              *lines, sep="\n    ", flush=True)
        finally:
            subprocess.run(["git", "-C", REPO, "worktree", "remove", "--force", tree], check=True)
    print(f"{differ} of {2 * len(runs)} runs differ from {rev}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="REV",
                    help="compare every run with the git revision REV instead of rewriting")
    rev = ap.parse_args().against
    if rev is not None:
        against(rev)
        return
    import numpy as np

    runs = {}
    for blas in ("1", "2"):
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, MAGNILAB_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([os.path.join(HERE, "..", "src"), HERE]))
            code = "import json, golden; print(json.dumps(golden.digests()))"
            proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True)
            runs[blas, threads] = json.loads(proc.stdout)
    first = runs["1", "1"]
    for key, got in runs.items():
        differ = [k for k in first if got[k] != first[k]]
        if differ:
            sys.exit(f"OPENBLAS_NUM_THREADS, MAGNILAB_THREADS = {key} changes the stdout of "
                     + "; ".join(differ))
    with open(MANIFEST, "w") as f:
        json.dump({"numpy": np.__version__, "simd": simd(), "digests": first}, f, indent=1)
        f.write("\n")
    print(f"wrote {len(first)} digests to {MANIFEST}")


if __name__ == "__main__":
    main()
