"""magnilab benchmark: closed-loop CLI workloads with a separate traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs ``src/magnilab`` and
writes only a scratch directory it removes again.  One client runs one
``magnilab`` process at a time on inputs made from --seed, for --seconds
seconds of operations (at least three).  An operation fails when it exits
non-zero, times out, fails the output check in workloads.py, or prints
stdout different from the run's first successful one.

--trace 0 reports the end-to-end metrics: wall_s (median wall time of one
operation, spawn to exit), setup_s (median of fresh ``import magnilab.cli``
processes), peak_rss_mb (median of the operations' peak resident sets).
failed_frac, the tail percentile of wall_s when a run has enough
operations for one, and mc_max_stderr are printed in the report above the
result line.  --trace 1 alternates untraced operations with operations under
traced_cli.py and reports the per-layer metrics (medians over the traced
operations) and the tracing overhead.  ``--workload all`` runs every
workload in turn.

BLAS runs single-threaded and MAGNILAB_THREADS is min(2, nproc); both are
printed with the versions in the report's env line.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import traced_cli
import workloads

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 3
#: an untraced run makes at least this many operations, so that its median
#: is not a single sample; it may then exceed --seconds
MIN_OPS = 3
#: no operation may run longer than this
OP_TIMEOUT_S = 120.0
#: one workload's run, set-up included, ends within this
RUN_LIMIT_S = 170.0

#: name -> unit of the end-to-end metrics (--trace 0)
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: per-layer metrics measured by the run rather than inside the traced process
RUN_LAYER_UNITS = {
    "process.cpu_s": "s",
    "mc.max_stderr": "value",
    "trace.overhead_s": "s",
    "trace.ops": "count",
}

#: prints the versions and BLAS threads; its import of magnilab.cli also
#: compiles and caches the package, as a warm-up for setup_s
PROBE = r"""
import ctypes, json, platform, numpy, scipy, scipy.linalg, magnilab.cli
blas = []
try:
    maps = open("/proc/self/maps").read().split("\n")
except OSError:
    maps = []
for path in sorted({l.split()[-1] for l in maps if "openblas" in l.lower() and ".so" in l}):
    lib = ctypes.CDLL(path)
    info = {"lib": path.rsplit("/", 1)[-1]}
    for pre in ("scipy_openblas_", "openblas_"):
        for suf in ("64_", ""):
            if hasattr(lib, pre + "get_num_threads" + suf):
                threads = getattr(lib, pre + "get_num_threads" + suf)
                config = getattr(lib, pre + "get_config" + suf)
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                info.update(threads=threads(), config=config().decode())
    blas.append(info)
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # imports use cached bytecode, as an installed package does, whatever
    # the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "MAGNILAB_THREADS": str(min(2, nproc())),
    })
    return env


@dataclass
class Op:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    code: int
    stdout: str
    traced: bool = False


def spawn(argv: list[str], env, workdir: str, timeout: float) -> Op:
    """Run argv to completion; wall time and rusage are the child's alone."""
    out_path = os.path.join(workdir, "stdout")
    with open(out_path, "wb") as out, open(os.path.join(workdir, "stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        lock = threading.Lock()
        waited = False

        def kill():
            with lock:
                if not waited:  # the child is at most a zombie, so its pid is still ours
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            kill()
            raise
        finally:
            with lock:
                waited = True
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    return Op(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
              proc.returncode, stdout)


def measure_setup(env, workdir: str, runs: int) -> list[float]:
    """Wall times of fresh processes that import magnilab.cli."""
    times = []
    for _ in range(runs):
        op = spawn([sys.executable, "-c", "import magnilab.cli"], env, workdir, 60.0)
        if op.code != 0:
            raise RuntimeError(f"import magnilab.cli failed with exit code {op.code}")
        times.append(op.wall_s)
    return times


def probe(env, workdir: str) -> dict:
    op = spawn([sys.executable, "-c", PROBE], env, workdir, 60.0)
    if op.code != 0:
        raise RuntimeError(f"environment probe failed with exit code {op.code}")
    info = json.loads(op.stdout)
    info.update(nproc=nproc(), MAGNILAB_THREADS=env["MAGNILAB_THREADS"],
                OPENBLAS_NUM_THREADS=env["OPENBLAS_NUM_THREADS"])
    return info


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest listed percentile with >= 10 samples beyond it."""
    xs = sorted(values)
    for per_mille in (999, 990, 900, 750, 500):
        rank = -(-per_mille * len(xs) // 1000)  # nearest rank, 1-based
        if len(xs) - rank >= 10:
            return per_mille / 10, xs[rank - 1]
    return None


def judge(ops: list[Op], check) -> list[str | None]:
    """Per operation, why it failed or None.

    The first operation that exits 0 is the reference: it is checked once,
    and every other operation must print exactly the same.
    """
    reference = next((op.stdout for op in ops if op.code == 0), None)
    problem = None
    if reference is not None:
        try:
            check(reference)
        except (workloads.CheckFailed, ValueError, IndexError) as exc:
            problem = f"output check: {exc}"
    verdicts = []
    for op in ops:
        if op.code != 0:
            verdicts.append(f"exit code {op.code}")
        elif op.stdout != reference:
            verdicts.append("stdout differs from the reference operation")
        else:
            verdicts.append(problem)
    return verdicts


def operations(prepared, env, workdir: str, seconds: float, trace: bool, deadline: float):
    """The closed loop: one operation at a time until the measuring time is used.

    With trace, untraced and traced operations alternate; the traced ones
    also return their (spans, counters).
    """
    plain = [sys.executable, "-m", "magnilab.cli", *prepared.args]
    spans_path = os.path.join(workdir, "spans.json")
    traced = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), spans_path,
              *prepared.args]
    kinds = [False, True] if trace else [False]
    min_cycles = 1 if trace else MIN_OPS
    ops, traces = [], []
    start = time.perf_counter()
    while True:
        for kind in kinds:
            timeout = min(OP_TIMEOUT_S, deadline - time.perf_counter())
            op = spawn(traced if kind else plain, env, workdir, timeout)
            op.traced = kind
            ops.append(op)
            if kind and op.code == 0:
                traces.append(traced_cli.load(spans_path))
        elapsed = time.perf_counter() - start
        cycle = sum(statistics.median(o.wall_s for o in ops if o.traced == k) for k in kinds)
        if time.perf_counter() + cycle > deadline or (
                len(ops) >= min_cycles * len(kinds) and elapsed + cycle > seconds):
            return ops, traces


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = child_env()
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        info = probe(env, workdir)
        setup = measure_setup(env, workdir, 0 if trace else SETUP_RUNS)
        prepared = workloads.WORKLOADS[name](seed, workdir)
        ops, traces = operations(prepared, env, workdir, seconds, trace, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    verdicts = judge(ops, prepared.check)
    good = [op for op, v in zip(ops, verdicts) if v is None] or ops
    plain = [op for op in good if not op.traced] or good
    failed = sum(v is not None for v in verdicts)
    mc_stderr = workloads.max_stderr(good[0].stdout) if good[0].code == 0 else None

    lines = [f"workload {name}, seed {seed}, trace {int(trace)}",
             f"env {json.dumps(info, sort_keys=True)}"]
    lines += [f"operation {i} failed: {v}" for i, v in enumerate(verdicts) if v]
    walls = [op.wall_s for op in plain]
    tail = tail_percentile(walls)
    tail_text = f"p{tail[0]:g} {tail[1]:.4f} s" if tail else "no tail percentile (< 20 ops)"
    lines += [
        f"wall_s        {statistics.median(walls):.4f} s   median of {len(walls)} ops; "
        f"{tail_text}; all: {' '.join(f'{w:.3f}' for w in walls)}",
        f"failed_frac   {failed / len(ops):.4f}   ({failed} of {len(ops)} ops)",
        f"mc_max_stderr {mc_stderr if mc_stderr is not None else 'n/a (no Monte-Carlo rows)'}",
    ]
    if trace:
        metrics = per_layer(ops, traces, mc_stderr)
        lines += [f"{k:<52} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(op.peak_rss_mb for op in plain)}
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
        lines += [f"setup_s       {metrics['setup_s']['value']:.4f} s   median of "
                  f"{len(setup)} imports",
                  f"peak_rss_mb   {metrics['peak_rss_mb']['value']:.1f} MB  median of "
                  f"{len(plain)} ops"]
    print("\n".join("# " + line for line in lines))
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def per_layer(ops: list[Op], traces, mc_stderr: float | None) -> dict:
    """Medians over the traced operations, plus what the run itself measures."""
    samples = [traced_cli.layer_metrics(spans, counters) for spans, counters in traces]
    values = {k: statistics.median(s[k] for s in samples) if samples else 0.0
              for k in traced_cli.LAYER_UNITS}
    plain = [op.wall_s for op in ops if not op.traced]
    traced = [op.wall_s for op in ops if op.traced]
    values.update({
        "process.cpu_s": statistics.median(op.cpu_s for op in ops if not op.traced),
        "mc.max_stderr": mc_stderr or 0.0,
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        "trace.ops": len(samples),
    })
    units = {**traced_cli.LAYER_UNITS, **RUN_LAYER_UNITS}
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "magnilab", "cli.py")):
        print("error: run from the root of a magnilab checkout (no src/magnilab here)",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
