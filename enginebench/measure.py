"""Stepping, timing, accounting and checking of one engine trajectory.

Everything here goes through the public engine API: an ``EngineConfig``,
an ``MpdataIslandSolver`` and its ``runner.step``.  The benchmark only
generates the input fields (from the seed) and reads clocks, ``/proc``
and the solver's public statistics.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.machine.costmodel import kernel_estimates
from repro.mpdata.reference import MpdataState
from repro.mpdata.stages import FIELD_DENSITY, FIELD_X
from repro.runtime import MpdataIslandSolver
from repro.runtime.procs import live_segment_names
from repro.stencil.flops import program_cost
from repro.stencil.lowering import lower_plan

import host

#: Fewest per-call samples a window takes (10 lie beyond the p90).
MIN_SAMPLES = 100
#: A window never runs longer than this multiple of its nominal length.
MAX_WINDOW_STRETCH = 3.0
#: The engine must match the reference prefix to this absolute error.
REFERENCE_ATOL = 1e-12
#: Relative drift of the total mass sum(h * x) allowed over a window.
MASS_DRIFT_BOUND = 1e-10
MIB = float(1 << 20)


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------

def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    """Parent CPU time plus utime+stime of every live child process."""
    total = time.process_time()
    for child in multiprocessing.active_children():
        try:
            total += _proc_cpu_seconds(child.pid)
        except (OSError, IndexError, ValueError):
            pass  # the child exited between listing and reading
    return total


def _vm_hwm_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


@dataclass
class Memory:
    parent_mib: float
    workers_mib: float
    shm_mib: float

    @property
    def peak_mib(self) -> float:
        # Shared memory is counted in the parent and again in every
        # worker that touched it, as RSS accounting does.
        return self.parent_mib + self.workers_mib


def read_memory() -> Memory:
    """Parent peak RSS, workers' VmHWM and live shared-memory segments."""
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = 0.0
    for child in multiprocessing.active_children():
        try:
            workers += _vm_hwm_mib(child.pid)
        except OSError:
            pass
    shm = 0
    for name in live_segment_names():
        try:
            shm += os.stat(os.path.join("/dev/shm", name.lstrip("/"))).st_size
        except OSError:
            pass
    return Memory(parent, workers, shm / MIB)


def kernel_files(cachedir: str) -> set:
    """Compiled kernel modules in the on-disk native cache."""
    try:
        return {name for name in os.listdir(cachedir) if name.endswith(".so")}
    except OSError:
        return set()


# ----------------------------------------------------------------------
# Stepping
# ----------------------------------------------------------------------

class Trajectory:
    """A live solver advanced call by call from the initial state."""

    def __init__(self, solver: MpdataIslandSolver, state: MpdataState) -> None:
        self.solver = solver
        self.runner = solver.runner
        self.stride = solver.runner.sync_every
        self.arrays: Dict[str, np.ndarray] = {
            FIELD_X: state.x.copy(),
            "u1": state.u1,
            "u2": state.u2,
            "u3": state.u3,
            FIELD_DENSITY: state.h,
        }
        self.changed = None  # the first call fills every ghost buffer
        self.index = 0  # the next time step
        self.attempted = 0
        self.failed = 0

    def advance(self) -> None:
        """One ``runner.step`` call: ``sync_every`` time steps."""
        self.attempted += self.stride
        try:
            out = self.runner.step(
                self.arrays, changed=self.changed, step_index=self.index,
                steps=self.stride,
            )
        except Exception:
            self.failed += self.stride
            raise
        self.arrays[FIELD_X] = out
        self.changed = {FIELD_X}
        self.index += self.stride

    def snapshot(self) -> np.ndarray:
        return self.arrays[FIELD_X].copy()

    def mass(self) -> float:
        return float(np.sum(self.arrays[FIELD_X] * self.arrays[FIELD_DENSITY]))

    def close(self) -> None:
        self.solver.close()


@dataclass
class Window:
    """What one timed window measured."""

    samples_ms: List[float]
    steps: int
    wall_s: float
    cpu_s: float
    steal: float
    mass_before: float
    mass_after: float
    exchanged_bytes: float = 0.0
    stage_syncs: float = 0.0
    broken: Optional[str] = None

    def mcells_per_s(self, cells: int) -> float:
        return cells * self.steps / self.wall_s / 1e6

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.samples_ms, q)) if self.samples_ms else 0.0

    def beyond(self, q: float) -> int:
        cut = self.percentile(q)
        return sum(1 for sample in self.samples_ms if sample > cut)

    @property
    def mass_drift(self) -> float:
        return abs(self.mass_after - self.mass_before) / abs(self.mass_before)


def timed_window(traj: Trajectory, seconds: float) -> Window:
    """Step until ``seconds`` passed and ``MIN_SAMPLES`` were taken.

    Each sample is one ``runner.step`` call divided by the time steps it
    advanced.  A call that raises ends the window (the trajectory is
    lost; the correctness check then fails the run).
    """
    mass_before = traj.mass()
    samples: List[float] = []
    exchanged = syncs = 0.0
    broken = None
    steal_before = host.cpu_times()
    cpu_before = cpu_seconds()
    begin = end = time.perf_counter()
    while True:
        elapsed = end - begin
        if elapsed >= seconds and len(samples) >= MIN_SAMPLES:
            break
        if elapsed >= seconds * MAX_WINDOW_STRETCH:
            break
        call = time.perf_counter()
        try:
            traj.advance()
        except Exception as error:
            broken = f"{type(error).__name__}: {error}"
            end = time.perf_counter()
            break
        end = time.perf_counter()
        samples.append((end - call) * 1e3 / traj.stride)
        stats = traj.runner.last_step_stats
        exchanged += stats.exchanged_bytes
        syncs += stats.stage_syncs
    cpu_after = cpu_seconds()
    return Window(
        samples_ms=samples,
        steps=len(samples) * traj.stride,
        wall_s=max(end - begin, 1e-9),
        cpu_s=cpu_after - cpu_before,
        steal=host.steal_fraction(steal_before, host.cpu_times()),
        mass_before=mass_before,
        mass_after=float("nan") if broken else traj.mass(),
        exchanged_bytes=exchanged,
        stage_syncs=syncs,
        broken=broken,
    )


# ----------------------------------------------------------------------
# Work accounting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Geometry:
    """Exact per-time-step work of one runner, from its halo ledger."""

    stage_points: Dict[str, float]
    flops: float
    bytes_computed: float
    redundant_points: float

    @property
    def computed_points(self) -> float:
        return sum(self.stage_points.values())

    @property
    def useful_fraction(self) -> float:
        """Points a whole-domain sweep needs over the points computed."""
        return 1.0 - self.redundant_points / self.computed_points


def geometry(runner) -> Geometry:
    """Flops (``stencil/flops.py``) and computed bytes (the IR cost
    model's per-point traffic) over every island's per-stage compute
    boxes, amortized per time step."""
    ledger = runner.halo_ledger
    stages = runner.program.stages
    points = {stage.name: 0.0 for stage in stages}
    for island_boxes in ledger.compute_boxes:
        for flat, box in enumerate(island_boxes):
            points[stages[flat % len(stages)].name] += box.size / runner.sync_every
    flops = {s.name: s.flops_per_point for s in program_cost(runner.program).stages}
    traffic = {
        e.name: e.bytes_per_point
        for e in kernel_estimates(lower_plan(runner.program, ledger.plans[0]))
    }
    return Geometry(
        stage_points=points,
        flops=sum(n * flops[name] for name, n in points.items()),
        bytes_computed=sum(n * traffic.get(name, 0.0) for name, n in points.items()),
        redundant_points=ledger.redundant_points_per_step,
    )


# ----------------------------------------------------------------------
# Cross-run hash ledger
# ----------------------------------------------------------------------

def check_hashes(path: str, prefix: str, fields: Dict[int, np.ndarray]) -> List[str]:
    """Record each field's hash under ``prefix/steps=N``; return the step
    counts whose hash differs from an earlier run's."""
    try:
        with open(path) as handle:
            ledger = json.load(handle)
    except (OSError, ValueError):
        ledger = {}
    mismatched = []
    for steps, values in sorted(fields.items()):
        digest = hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()
        if ledger.setdefault(f"{prefix}/steps={steps}", digest) != digest:
            mismatched.append(str(steps))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(ledger, handle, indent=0, sort_keys=True)
    return mismatched
