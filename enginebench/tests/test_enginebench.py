"""The benchmark's own tests, at smoke size for every workload.

Run from the repository root::

    python3 -m pytest enginebench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import quartile_spread  # noqa: E402
from spans import Tracer, union_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

#: A base step index of every workload's trajectory past its prefix
#: (faults key on the first step of a super-step).
FAULT_STEP = 8


def bench(workload: str, *extra: str, seed: int = 1, trace: int = 0):
    """Run the benchmark at smoke size; (stdout lines, parsed result)."""
    done = subprocess.run(
        [
            sys.executable, os.path.join(BENCH, "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
            "--trace", str(trace), "--smoke", *extra,
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {"setup_s", "mcells_per_s", "step_ms_p50", "step_ms_p90",
            "peak_rss_mib", "cpu_s_per_mcell"} <= set(names)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_printed_with_units(workload):
    lines, result = bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0, metric["name"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert any("native.builds=0" in line for line in lines)
    assert any(line.startswith("failed_step_ratio: 0 ") for line in lines)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_metrics_and_trace_file(workload):
    lines, result = bench(workload, trace=1, seed=2)
    assert result["correct"] is True
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["native.builds"] == 0
    assert metrics["failed_step_ratio"] == 0
    assert metrics["kernel.compute_ms"] > 0 and metrics["kernel.flops_per_step"] > 0
    assert any(line.startswith("layer self time") for line in lines)
    path = os.path.join(ROOT, ".enginebench", f"trace-{workload}-seed2.json")
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    names = {event["name"] for event in events}
    assert {"runner.step", "runner.ghost_fill", "resilience.island",
            "backend.execute"} <= names
    for event in events:
        assert event["ph"] == "X" and event["dur"] >= 0
        assert {"span", "parent", "step"} <= set(event["args"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupt_fault_fails_the_check(workload):
    # Under exchange every stage of the step is one firing of the site;
    # the first stage's first point can be a halo corner no later stage
    # reads, so the fault fires on all 17 stages to reach the output.
    spec = f"corrupt@island=0,step={FAULT_STEP},attempts=17"
    _, result = bench(workload, "--fault", spec)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["step_success_ratio"]["value"] == 0.0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_absorbed_crash_shows_as_a_retry(workload):
    lines, result = bench(
        workload, "--fault", f"crash@island=1,step={FAULT_STEP}", "--retries", "1",
        trace=1,
    )
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["failed_step_ratio"]["value"] == 0.0
    assert result["metrics"]["resilience.retries"]["value"] >= 1


def test_same_seed_same_bits():
    for _ in range(2):
        lines, result = bench("bulk-procs", seed=11)
        assert result["correct"] is True
    assert any("match earlier runs of this seed" in line for line in lines)


def session_processes(sid: int):
    """``(pid, state)`` of every process in session ``sid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            found.append((int(entry), fields[0]))
    return found


@pytest.mark.parametrize("trace", [0, 1])
def test_run_leaves_no_process_behind(trace):
    # In its own session, so anything it started, the resource tracker
    # that shared memory launches included, is found by session id.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "superstep-procs", "--seed", "1", "--seconds", "0.5",
         "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert json.loads(out.strip().splitlines()[-1])["correct"] is True
    assert session_processes(proc.pid) == []


def test_fails_without_the_engine_source():
    bare = os.path.join(ROOT, ".enginebench", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, os.path.join(bare, "enginebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run(
            [sys.executable, "enginebench/run.py", "--workload", "bulk-procs",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_union_and_self_time():
    assert union_seconds([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert union_seconds([(-1, 2)], 0, 1) == 1
    tracer = Tracer()

    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            return 7

    layer = Layer()
    tracer.wrap(layer, "inner", "inner")
    tracer.wrap(layer, "outer", "outer")
    assert layer.outer() == 7
    outer, = tracer.by_name("outer")
    inner, = tracer.by_name("inner")
    assert inner.parent == outer.span_id
    selfs = tracer.self_seconds()
    assert abs(selfs["outer"] - (outer.seconds - inner.seconds)) < 1e-12


def test_quartile_spread():
    median, spread = quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert median == 3.0
    assert spread == pytest.approx((4.5 - 1.5) / 3.0)
