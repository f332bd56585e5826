"""Engine benchmark: three island workloads, end to end and layer by layer.

Usage (from the repository root)::

    python3 enginebench/run.py --workload bulk-procs --seed 1 --seconds 28 --trace 0
    python3 enginebench/run.py --workload superstep-procs --seed 1 --seconds 28 --trace 1
    python3 enginebench/run.py --steady 10 --seconds 28   # steadiness report

One run probes the host, warms the benchmark's own kernel cache with an
untimed construction, times eleven setups from that fixed state, times a
window of at least ``--seconds``, then checks the output against the
independent NumPy reference.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` splits the time into an untraced and a traced
window and prints the per-layer metrics instead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

Everything the run writes stays under ``.enginebench/`` at the root: the
kernel cache (``REPRO_NATIVE_CACHE``), temporary files, the cross-run
field-hash ledger and the Chrome trace files.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".enginebench")


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small grids of the same configurations (the benchmark's tests)",
    )
    parser.add_argument(
        "--fault", action="append", default=[],
        help="inject a fault, as parse_fault_spec text (repeatable)",
    )
    parser.add_argument("--retries", type=int, default=0, help="island retry budget")
    parser.add_argument(
        "--steady", type=int, default=0, metavar="N",
        help="steadiness report: run each workload N times (seeds 1..N)",
    )
    parser.add_argument(
        "--rounds", type=int, default=1,
        help="steadiness report: repeat the N runs this many times and "
        "compare the rounds' medians",
    )
    args = parser.parse_args(argv)
    if not args.steady and args.workload is None:
        parser.error("--workload is required unless --steady is given")
    return args


def prepare_environment() -> None:
    """Point the engine at the benchmark's own kernel cache and temp dir."""
    tmp = os.path.join(WORKDIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(WORKDIR, "kernels")
    os.environ["TMPDIR"] = tmp
    sys.path.insert(0, os.path.join(ROOT, "src"))


def result_line(correct: bool, attempted: int, failed: int, metrics) -> str:
    """The run's last line: one JSON object, non-finite values as 0."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36
#: Grace a child gets to end on its own before it is killed.
CHILD_GRACE_S = 10.0


def become_subreaper() -> None:
    """Adopt orphaned descendants, so :func:`stop_children` waits for them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still stopped


def child_pids() -> List[int]:
    """Processes whose parent is this one, zombies included."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = handle.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue  # ended between listing and reading
        if ppid == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Engine workers are closed with their solvers before this; what is
    left is stopped here: multiprocessing children, then the resource
    tracker that shared memory and semaphores start (it would otherwise
    outlive this process until it read the end of its pipe), then any
    other child or adopted orphan.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(CHILD_GRACE_S)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it
    kill_at = time.monotonic() + CHILD_GRACE_S
    while True:
        pids = child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                if time.monotonic() > kill_at:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                pass
        time.sleep(0.05)


# ----------------------------------------------------------------------
# Steadiness report
# ----------------------------------------------------------------------

def quartile_spread(values: List[float]) -> Tuple[float, float]:
    """Median and (Q3 - Q1) / median, as statistics.quantiles gives them."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def steady(args: argparse.Namespace) -> int:
    """Repeat each workload N times; judge every spread against its bound."""
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    values: Dict[Tuple[int, str, str], List[float]] = {}
    status = 0
    for round_index in range(args.rounds):
        for seed in range(1, args.steady + 1):
            for name in names if seed % 2 else reversed(names):
                command = [
                    sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", name, "--seed", str(seed + 100 * round_index),
                    "--seconds", str(args.seconds), "--trace", "0",
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
                lines = done.stdout.strip().splitlines()
                if done.returncode or not lines:
                    print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}")
                    return 1
                result = json.loads(lines[-1])
                if not result["correct"]:
                    status = 1
                steal = next(
                    line.split()[1] for line in lines
                    if line.startswith("host: steal_frac=")
                )
                print(
                    f"round {round_index} {name} seed {seed}: correct={result['correct']} "
                    f"{steal} "
                    + " ".join(
                        f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                    ),
                    flush=True,
                )
                for metric, entry in result["metrics"].items():
                    values.setdefault((round_index, name, metric), []).append(entry["value"])
    print(f"\n{'workload':<17} {'metric':<19} {'median':>11} {'spread':>8} {'bound':>6}  verdict")
    for name in WORKLOADS:
        if name not in names:
            continue
        for metric, bound in bounds.items():
            first_median = None
            for round_index in range(args.rounds):
                median, spread = quartile_spread(values[(round_index, name, metric)])
                verdict = (
                    "setup (spread not judged)" if metric == "setup_s"
                    else "steady" if spread <= bound / 3
                    else "within bound" if spread <= bound
                    else "TOO NOISY"
                )
                if metric != "setup_s" and spread > bound:
                    status = 1
                if first_median is not None:
                    worse = (
                        (median - first_median) / first_median
                        if better[metric] == "lower"
                        else (first_median - median) / first_median
                    )
                    verdict += f"; round {round_index} vs 0: {worse:+.3f}"
                    if worse > bound:
                        verdict += " WORSE THAN BOUND"
                        status = 1
                else:
                    first_median = median
                print(
                    f"{name:<17} {metric:<19} {median:11.5g} {spread:8.4f} {bound:6.3f}  {verdict}"
                )
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"enginebench: no engine source under {ROOT}/src", file=sys.stderr)
        return 2
    prepare_environment()
    if args.steady:
        return steady(args)
    become_subreaper()
    from execute import Run

    run = None
    try:
        run = Run(args, WORKDIR)
        correct, attempted, failed, metrics = run.execute()
    finally:
        if run is not None:
            run.close()
        stop_children()
    print(result_line(correct, attempted, failed, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
