"""Tests of the benchmark's own code: output checks, span arithmetic, inputs.

    python3 -m pytest bench
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate

import run
import spans
import traced_cli
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)


def fmt(x) -> str:
    return f"{float(x):.12g}"


def replace_field(text: str, line: int, col: int, value: str) -> str:
    lines = text.splitlines()
    fields = lines[line].split(",")
    fields[col] = value
    lines[line] = ",".join(fields)
    return "\n".join(lines) + "\n"


def assert_rejected(check, text: str):
    with pytest.raises(workloads.CheckFailed):
        check(text)


# --- output checks -----------------------------------------------------------

def exact_output(z_of_t, grid) -> str:
    """A correct exact-workload output, built by inverse and row-vector powers."""
    n_terms = workloads.SERIES_N
    lines = [workloads.SERIES_HEADER]
    for t in grid:
        z = z_of_t(t)
        n = len(z)
        mag = np.linalg.inv(z).sum()
        y = z - np.eye(n)
        v = np.ones(n)
        partial = float(n)
        for k in range(1, n_terms + 1):
            v = v @ y
            partial += (-1) ** k * v.sum()
        lines.append(f"{fmt(t)},,{fmt(mag)},0,,,inverse,0")
        lines.append(f"{fmt(t)},{n_terms},{fmt(partial)},0,{fmt(mag)},"
                     f"{fmt(abs(partial - mag))},series,0")
    return "\n".join(lines) + "\n"


def test_finite_dense_check_accepts_correct_and_rejects_corrupt(tmp_path):
    prepared = workloads.finite_dense(3, str(tmp_path))
    dist = np.loadtxt(tmp_path / "points.csv", delimiter=",")
    good = exact_output(lambda t: np.exp(-t * dist), workloads._grid(*workloads.FINITE_T, True))
    prepared.check(good)
    inverse = float(good.splitlines()[5].split(",")[2])
    assert_rejected(prepared.check, replace_field(good, 5, 2, fmt(inverse * (1 + 1e-7))))
    series = float(good.splitlines()[8].split(",")[2])
    assert_rejected(prepared.check, replace_field(good, 8, 2, fmt(series * 1.001)))
    assert_rejected(prepared.check, replace_field(good, 3, 0, "0.3"))
    assert_rejected(prepared.check, "\n".join(good.splitlines()[:-1]) + "\n")
    assert_rejected(prepared.check, good.replace("t,N,value", "t,n,value"))


def test_graph_count_check_rejects_corrupt(tmp_path):
    prepared = workloads.graph_count(3, str(tmp_path))
    pos, _ = workloads.grid_edges(3)
    good = exact_output(lambda t: workloads.counted_similarity(pos, t),
                        workloads._grid(*workloads.GRAPH_T, False))
    prepared.check(good)
    assert_rejected(prepared.check, replace_field(good, 1, 2, "1.0"))
    assert_rejected(prepared.check, replace_field(good, 2, 6, "inverse"))


def bfs_counts(n: int, edges, source: int) -> tuple[np.ndarray, np.ndarray]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = np.full(n, -1)
    count = np.zeros(n)
    dist[source], count[source] = 0, 1
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
            if dist[v] == dist[u] + 1:
                count[v] += count[u]
    return dist, count


def test_counted_similarity_matches_breadth_first_path_counts():
    pos, edges = workloads.grid_edges(7)
    n = len(pos)
    t = 0.7
    z = workloads.counted_similarity(pos, t)
    for source in (0, 17, n - 1):
        dist, count = bfs_counts(n, edges, source)
        want = count * np.exp(-t * dist)
        want[source] = 1.0
        np.testing.assert_allclose(z[source], want, rtol=1e-14)


def test_counted_grid_magnitude_reference_value():
    pos, _ = workloads.grid_edges(0)
    z = workloads.counted_similarity(pos, 1.625)
    assert np.linalg.solve(z, np.ones(len(z))).sum() == pytest.approx(253.0763530375, rel=1e-10)


def sphere_output(seed: int, offset_sigmas: float = 0.5) -> str:
    lines = [workloads.SERIES_HEADER]
    for t in workloads._grid(*workloads.SPHERE_T, False):
        for n in (1, 2):
            exact = workloads.sphere_term(n, t)
            se = workloads.sphere_stderr(n, t, workloads.SPHERE_SAMPLES)
            lines.append(f"{fmt(t)},{n},{fmt(exact)},0,{fmt(exact)},0,closed,{seed}")
            value = exact + offset_sigmas * se
            lines.append(f"{fmt(t)},{n},{fmt(value)},{fmt(se)},{fmt(exact)},"
                         f"{fmt(abs(value - exact))},mc,{seed}")
    return "\n".join(lines) + "\n"


def test_sphere_check_rejects_corrupt():
    check = workloads.mc_sphere(9, "unused").check
    good = sphere_output(9)
    check(good)
    assert_rejected(check, sphere_output(9, offset_sigmas=6.0))
    se = float(good.splitlines()[2].split(",")[3])
    assert_rejected(check, replace_field(good, 2, 3, fmt(1.5 * se)))  # fewer samples
    assert_rejected(check, replace_field(good, 1, 4, "1.0"))
    assert_rejected(check, replace_field(good, 2, 7, "8"))
    assert workloads.max_stderr(good) == max(
        float(line.split(",")[3]) for line in good.splitlines()[1:])


def test_sphere_closed_form_matches_quadrature():
    for t in (0.5, 2.0):
        leg, _ = integrate.quad(lambda th: math.exp(-t * th) * 2 * math.pi * math.sin(th),
                                0.0, math.pi)
        assert workloads.sphere_term(2, t) == pytest.approx(4 * math.pi * leg**2, rel=1e-12)


INTERVAL_GOOD = (workloads.INTERVAL_HEADER + "\n"
                 "1,3.5,0.5,0.5,0.4995,0.0015\n"
                 "2,-2.5,0.75,1.25,1.2450,0.0022\n"
                 "3,10.2,1.42,0.704,0.705,0.0028\n"
                 "4,-16.7,-0.529,1.104,1.101,0.0032\n")


def test_interval_check_rejects_corrupt():
    check = workloads.interval_weight(0, "unused").check
    check(INTERVAL_GOOD)
    assert_rejected(check, replace_field(INTERVAL_GOOD, 1, 3, "0.51"))
    assert_rejected(check, replace_field(INTERVAL_GOOD, 1, 2, "0.49"))
    assert_rejected(check, replace_field(INTERVAL_GOOD, 3, 4, "0.72"))
    assert_rejected(check, replace_field(INTERVAL_GOOD, 4, 5, "0"))
    assert_rejected(check, "\n".join(INTERVAL_GOOD.splitlines()[:-1]) + "\n")
    assert workloads.max_stderr(INTERVAL_GOOD) == 0.0032


# --- inputs ------------------------------------------------------------------

def test_same_seed_same_inputs(tmp_path):
    def inputs(make, seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir(exist_ok=True)
        prepared = make(seed, str(workdir))
        with open(prepared.args[2], "rb") as fh:  # the generated input file
            return fh.read(), prepared.args[3:]

    for make in (workloads.finite_dense, workloads.graph_count):
        assert inputs(make, 5, "a") == inputs(make, 5, "b")
        assert inputs(make, 5, "a")[0] != inputs(make, 6, "c")[0]
    assert workloads.mc_sphere(5, "x").args == workloads.mc_sphere(5, "y").args


# --- spans -------------------------------------------------------------------

def test_covered_merges_and_clips():
    assert spans.covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert spans.covered([], 0, 10) == 0.0
    assert spans.covered([(11, 12)], 0, 10) == 0.0


def test_self_times_of_a_synthetic_nest():
    nest = [
        spans.Span(1, None, "root", 0, 0.0, 10.0),
        spans.Span(2, 1, "a", 1, 1.0, 4.0),      # two children overlap in time,
        spans.Span(3, 1, "b", 2, 3.0, 6.0),      # as pool workers do
        spans.Span(4, 2, "leaf", 1, 2.0, 3.0),
        spans.Span(5, 1, "c", 0, 8.0, 9.5),
    ]
    own = spans.self_times(nest)
    assert own == pytest.approx({1: 10 - 5 - 1.5, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.5})
    stats = spans.by_name(nest + [spans.Span(6, None, "leaf", 0, 20.0, 20.5)])
    assert stats["leaf"] == pytest.approx((2, 1.5, 1.5))


def test_worker_spans_take_the_submitting_span_as_parent():
    rec = spans.Recorder()

    def work(i):
        with rec.span("leaf"):
            time.sleep(0.01)
        return threading.get_ident()

    with rec.span("estimate"):
        with ThreadPoolExecutor(max_workers=2) as ex:
            futures = [ex.submit(spans.run_in_context(work), i) for i in range(4)]
            threads = {f.result(timeout=10) for f in futures}
    (estimate,) = [s for s in rec.spans if s.name == "estimate"]
    leaves = [s for s in rec.spans if s.name == "leaf"]
    assert len(leaves) == 4
    assert all(s.parent == estimate.id for s in leaves)
    assert threading.get_ident() not in threads
    assert spans.self_times(rec.spans)[estimate.id] < estimate.duration


# --- run.py ------------------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20))) == (50.0, 9)
    assert run.tail_percentile(list(range(100))) == (90.0, 89)


def test_judge_counts_exit_codes_differences_and_checks():
    def check(text):
        if "bad" in text:
            raise workloads.CheckFailed("bad")

    ops = [run.Op(1.0, 1.0, 1.0, 0, "ok"), run.Op(1.0, 1.0, 1.0, 3, "ok"),
           run.Op(1.0, 1.0, 1.0, 0, "ok "), run.Op(1.0, 1.0, 1.0, 0, "ok")]
    verdicts = run.judge(ops, check)
    assert [v is None for v in verdicts] == [True, False, False, True]
    assert run.judge([run.Op(1.0, 1.0, 1.0, 0, "bad")], check)[0].startswith("output check")


def test_spawn_kills_an_operation_past_its_timeout(tmp_path):
    start = time.perf_counter()
    op = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], dict(os.environ),
                   str(tmp_path), 0.5)
    assert op.code != 0
    assert time.perf_counter() - start < 10


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **traced_cli.LAYER_UNITS, **run.RUN_LAYER_UNITS}


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                           "mc-sphere", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- traced_cli --------------------------------------------------------------

def test_traced_cli_keeps_stdout_and_links_worker_spans(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"), MAGNILAB_THREADS="2",
               OPENBLAS_NUM_THREADS="1")
    samples = 600_000  # three batches, so the thread pool is used
    args = ["manifold", "--space", "sphere", "--t", "1", "--N", "1", "--samples",
            str(samples), "--method", "all", "--seed", "5"]
    plain = subprocess.run([sys.executable, "-m", "magnilab.cli", *args], env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    out = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, os.path.join(BENCH, "traced_cli.py"), str(out),
                             *args], env=env, capture_output=True, text=True, timeout=120,
                            check=True)
    assert traced.stdout == plain.stdout

    recorded, counters = traced_cli.load(out)
    by_id = {s.id: s for s in recorded}
    tasks = [s for s in recorded if s.name == "mc.worker_task"]
    assert len(tasks) == 3
    assert all(by_id[s.parent].name == "mc.estimate" for s in tasks)
    assert all(by_id[s.parent].name == "mc.worker_task"
               for s in recorded if s.name == "mc.sample_batch")
    assert {s.thread for s in tasks}.isdisjoint({by_id[tasks[0].parent].thread})
    metrics = traced_cli.layer_metrics(recorded, counters)
    assert metrics["mc.points_sampled"] == 2 * samples
    assert metrics["mc.proper_fraction"] == 1.0
    assert 0.0 < metrics["mc.worker_util"] <= 1.0
    assert set(metrics) == set(traced_cli.LAYER_UNITS)

    mc_row = plain.stdout.splitlines()[2].split(",")
    assert float(mc_row[3]) == pytest.approx(workloads.sphere_stderr(1, 1.0, samples), rel=0.05)
