"""Host probe: what the machine can do while the benchmark runs.

Recorded with every run so a number can be blamed on the host or on the
program: usable CPUs (affinity and cgroup quota), whether ``nproc``
processes really run in parallel (spin efficiency), single-core and
all-core memory bandwidth (a NumPy triad over arrays far larger than the
last-level cache) and the hypervisor's steal time across the run.

Every probe runs in spawned child processes, so the parent's peak RSS —
an end-to-end metric — never includes the triad arrays.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

#: Triad working set (all three arrays) as a multiple of the LLC.
LLC_MULTIPLE = 4
#: Ceiling on the triad working set, whatever sysfs reports.
TRIAD_MAX_BYTES = 2 << 30
TRIAD_REPS = 3
SPIN_REPS = 5
#: Bytes the NumPy triad moves per element: ``a = c * s`` reads c and
#: writes a, then ``a += b`` reads a and b and writes a (five streams,
#: write-allocate traffic not counted).
TRIAD_BYTES_PER_ELEM = 5 * 8
SPIN_ITERATIONS = 2_000_000
CHILD_TIMEOUT_S = 60.0


def cgroup_cpu_quota() -> Optional[float]:
    """CPUs granted by the cgroup v2 ``cpu.max`` quota (None: unlimited)."""
    try:
        with open("/sys/fs/cgroup/cpu.max") as handle:
            quota, period = handle.read().split()[:2]
    except (OSError, ValueError):
        return None
    if quota == "max":
        return None
    return int(quota) / int(period)


def usable_cpus() -> float:
    """CPUs this process may use: affinity mask capped by cgroup quota."""
    affinity = len(os.sched_getaffinity(0))
    quota = cgroup_cpu_quota()
    return float(affinity if quota is None else min(affinity, quota))


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    for suffix, scale in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if text.endswith(suffix):
            return int(text[:-1]) * scale
    return int(text)


def llc_bytes() -> int:
    """Size of the last-level cache cpu0 sees in sysfs (0 if unknown)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best_level, best_size = -1, 0
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return 0
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(os.path.join(base, entry, "level")) as handle:
                level = int(handle.read())
            with open(os.path.join(base, entry, "size")) as handle:
                size = _parse_size(handle.read())
        except (OSError, ValueError):
            continue
        if level > best_level:
            best_level, best_size = level, size
    return best_size


def cpu_times() -> Tuple[int, int]:
    """``(steal, total)`` jiffies from the aggregate ``/proc/stat`` line."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()[1:]
    values = [int(v) for v in fields[:8]]
    return values[7] if len(values) > 7 else 0, sum(values)


def steal_fraction(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


# ----------------------------------------------------------------------
# Child-process probes (module level: spawned children import them)
# ----------------------------------------------------------------------

def _spin_child(barrier, results, slot: int, iterations: int, reps: int) -> None:
    times: List[float] = []
    for _ in range(reps):
        barrier.wait()
        begin = time.perf_counter()
        count = 0
        while count < iterations:
            count += 1
        times.append(time.perf_counter() - begin)
    results.put((slot, times))


def _triad_child(barrier, results, slot: int, elems: int, reps: int) -> None:
    import numpy as np

    a = np.zeros(elems)
    b = np.full(elems, 1.0)
    c = np.full(elems, 2.0)
    times: List[float] = []
    for _ in range(reps):
        barrier.wait()
        begin = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        times.append(time.perf_counter() - begin)
    if a[elems // 2] != 7.0:
        raise RuntimeError("triad produced a wrong value")
    results.put((slot, times))


def _run_group(target: Callable, count: int, args: Sequence) -> List[List[float]]:
    """Run ``count`` spawned children in lockstep; their per-rep times."""
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(count)
    results = ctx.Queue()
    procs = [
        ctx.Process(target=target, args=(barrier, results, slot, *args))
        for slot in range(count)
    ]
    for proc in procs:
        proc.start()
    gathered = {}
    try:
        for _ in range(count):
            slot, times = results.get(timeout=CHILD_TIMEOUT_S)
            gathered[slot] = times
    finally:
        for proc in procs:
            proc.join(timeout=CHILD_TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join()
    return [gathered[slot] for slot in range(count)]


def _lockstep_best(times: List[List[float]]) -> float:
    """Best repetition of a lockstep group, timed by its slowest child."""
    return min(max(child[rep] for child in times) for rep in range(len(times[0])))


@dataclass(frozen=True)
class HostProbe:
    usable_cpus: float
    nproc: int
    spin_efficiency: float
    llc_bytes: int
    triad_bytes: int
    triad_gbs_1: float
    triad_gbs_all: float

    def lines(self) -> List[str]:
        mib = 1 << 20
        return [
            f"host: usable_cpus={self.usable_cpus:g} nproc={self.nproc} "
            f"spin_efficiency={self.spin_efficiency:.3f}",
            f"host: triad working set {self.triad_bytes / mib:.0f} MiB = "
            f"{self.triad_bytes / max(1, self.llc_bytes):.2f}x the "
            f"{self.llc_bytes / mib:.0f} MiB LLC: "
            f"triad_gbs_1={self.triad_gbs_1:.2f} "
            f"triad_gbs_all={self.triad_gbs_all:.2f} GB/s",
        ]


def probe_host(scale: float = 1.0) -> HostProbe:
    """Measure the host once.  ``scale`` < 1 shrinks the triad (tests)."""
    nproc = max(1, int(usable_cpus()))
    spin_1 = min(_run_group(_spin_child, 1, (SPIN_ITERATIONS, SPIN_REPS))[0])
    spin_n = _lockstep_best(_run_group(_spin_child, nproc, (SPIN_ITERATIONS, SPIN_REPS)))
    llc = llc_bytes()
    working_set = min(
        TRIAD_MAX_BYTES, max(LLC_MULTIPLE * llc, 64 << 20)
    ) * scale
    elems = int(working_set // (3 * 8))
    one = _run_group(_triad_child, 1, (elems, TRIAD_REPS))[0]
    gbs_1 = elems * TRIAD_BYTES_PER_ELEM / min(one) / 1e9
    share = elems // nproc
    everyone = _lockstep_best(_run_group(_triad_child, nproc, (share, TRIAD_REPS)))
    gbs_all = nproc * share * TRIAD_BYTES_PER_ELEM / everyone / 1e9
    return HostProbe(
        usable_cpus=usable_cpus(),
        nproc=nproc,
        spin_efficiency=spin_1 / spin_n,
        llc_bytes=llc,
        triad_bytes=elems * 3 * 8,
        triad_gbs_1=gbs_1,
        triad_gbs_all=gbs_all,
    )
