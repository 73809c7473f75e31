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
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
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


def main() -> None:
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
