"""Measurement harness for the steady-state execution engine.

Runs the same partitioned MPDATA configuration twice — once in naive mode
(every step re-allocates ghost buffers, stage storage, scratch and the
output; the pre-engine behaviour) and once in steady-state mode (all of
those persist across steps) — then reports per-step wall time and
allocation counts, and checks the two trajectories are bit-identical.

This is the per-process analogue of the paper's per-step overhead
argument: Table 1's gap between the original and (3+1)D versions is halo
traffic and synchronization paid every time step; here the analogous
recurring cost is allocator traffic, and the engine eliminates it.  Used
by ``python -m repro engine``, ``benchmarks/bench_steady_state.py`` and
the tier-1 smoke test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np

from ..core import Variant, partition_grid_2d
from ..mpdata.fields import random_state
from ..mpdata.stages import FIELD_X
from ..stencil import full_box
from .config import EngineConfig
from .island_exec import MpdataIslandSolver
from .telemetry import InMemorySink, JsonlSink, TableSink, Telemetry

__all__ = [
    "SteadyStateReport",
    "TiledEngineReport",
    "measure_steady_state",
    "measure_tiled_engine",
]


@dataclass
class SteadyStateReport:
    """Naive vs steady-state engine measurements for one configuration."""

    shape: Tuple[int, int, int]
    islands: int
    threads: int
    steps: int
    compiled: bool
    bit_identical: bool
    halo: str = "recompute"
    backend: str = ""  # registry key; "" = derived from ``compiled``
    sync_every: int = 1
    #: mode name -> {"step_time_s", "allocations_per_step", "reused_per_step",
    #:               "warmup_allocations", "exchanged_bytes_per_step",
    #:               "stage_syncs"}  (all normalized per *time step*)
    modes: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def allocation_ratio(self) -> float:
        """Naive allocations per steady-state step over the engine's."""
        naive = self.modes["naive"]["allocations_per_step"]
        engine = self.modes["engine"]["allocations_per_step"]
        return naive / engine if engine else float("inf")

    @property
    def speedup(self) -> float:
        """Naive step time over engine step time (>1 means engine faster)."""
        engine = self.modes["engine"]["step_time_s"]
        return self.modes["naive"]["step_time_s"] / engine if engine else float("inf")

    def to_dict(self) -> Dict[str, object]:
        # A zero-allocation engine makes the ratio infinite; strict JSON
        # has no Infinity literal, so serialize that case as null.
        ratio = self.allocation_ratio
        return {
            "shape": list(self.shape),
            "islands": self.islands,
            "threads": self.threads,
            "steps": self.steps,
            "compiled": self.compiled,
            "bit_identical": self.bit_identical,
            "halo": self.halo,
            "backend": self.backend,
            "sync_every": self.sync_every,
            "modes": self.modes,
            "allocation_ratio": ratio if np.isfinite(ratio) else None,
            "speedup": self.speedup,
        }

    def render(self) -> str:
        ni, nj, nk = self.shape
        lines = [
            "Steady-state execution engine "
            f"({ni}x{nj}x{nk}, {self.islands} islands, "
            f"{self.threads} threads, {self.steps} steps, "
            + (
                f"backend {self.backend}, "
                if self.backend
                else f"{'compiled' if self.compiled else 'interpreted'}, "
            )
            + f"halo {self.halo}"
            + (
                f", sync every {self.sync_every}"
                if self.sync_every > 1
                else ""
            )
            + ")",
            f"{'mode':<8} {'step time':>12} {'allocs/step':>12} "
            f"{'reused/step':>12} {'warm-up allocs':>15}",
        ]
        for mode in ("naive", "engine"):
            numbers = self.modes[mode]
            lines.append(
                f"{mode:<8} {numbers['step_time_s'] * 1e3:>10.2f} ms "
                f"{numbers['allocations_per_step']:>12.1f} "
                f"{numbers['reused_per_step']:>12.1f} "
                f"{numbers['warmup_allocations']:>15.0f}"
            )
        ratio = self.allocation_ratio
        ratio_text = "inf" if ratio == float("inf") else f"{ratio:.1f}"
        lines.append(
            f"allocation ratio (naive/engine): {ratio_text}x,  "
            f"speedup: {self.speedup:.2f}x,  "
            f"bit-identical: {self.bit_identical}"
        )
        engine = self.modes.get("engine", {})
        if engine.get("exchanged_bytes_per_step"):
            lines.append(
                f"halo exchange: "
                f"{engine['exchanged_bytes_per_step'] / 1024:.1f} KiB/step, "
                f"{engine['stage_syncs']:.2f} stage syncs/step"
            )
        elif self.sync_every > 1 and "stage_syncs" in engine:
            lines.append(
                f"temporal blocking: {engine['stage_syncs']:.3f} syncs/step "
                f"(1/{self.sync_every} of one barrier per step)"
            )
        return "\n".join(lines)


def _run_mode(
    solver: MpdataIslandSolver, state, steps: int, sink: InMemorySink
) -> Tuple[np.ndarray, Dict[str, float], float]:
    """Warm up one step, then time ``steps`` more, mirroring ``run()``.

    Per-step counters come off the telemetry ``sink`` the solver was
    built with — the timing loop itself only steps, it never reads the
    runner's stats.
    """
    state.validate()
    arrays = solver._arrays(state)
    arrays[FIELD_X] = np.asarray(state.x, dtype=solver.runner.dtype)

    # With temporal blocking the runner advances sync_every steps per
    # call; the timed window still covers exactly ``steps`` time steps,
    # and every per-step number below is normalized by time steps — so
    # "stage_syncs" reads as the *amortized* syncs per step (1/s under
    # recompute at sync_every=s).
    stride = solver.runner.sync_every
    # warm-up fills every buffer (one full super-step)
    arrays[FIELD_X] = solver.runner.step(arrays, steps=stride)
    warmup_allocations = sink.last.stats.allocations

    begin = time.perf_counter()
    done = 0
    while done < steps:
        advance = min(stride, steps - done)
        arrays[FIELD_X] = solver.runner.step(
            arrays, changed={FIELD_X}, steps=advance
        )
        done += advance
    elapsed = time.perf_counter() - begin
    timed = sink.events[1:]
    numbers = {
        "step_time_s": elapsed / steps,
        "allocations_per_step": sum(e.stats.allocations for e in timed) / steps,
        "reused_per_step": sum(e.stats.reused for e in timed) / steps,
        "warmup_allocations": float(warmup_allocations),
        "exchanged_bytes_per_step": (
            sum(e.stats.exchanged_bytes for e in timed) / steps
        ),
        "stage_syncs": sum(e.stats.stage_syncs for e in timed) / steps,
        # Per-runner constants: how much of this mode's plan compilation
        # was served from the process-wide plan cache.
        "plan_cache_hits": float(sink.last.stats.plan_cache_hits),
        "plan_cache_misses": float(sink.last.stats.plan_cache_misses),
    }
    return np.array(arrays[FIELD_X], copy=True), numbers, elapsed


def _mode_telemetry(
    jsonl_path: Optional[str],
) -> Tuple[Telemetry, InMemorySink]:
    """An in-memory spine for one measured mode, plus an optional JSONL tap."""
    sink = InMemorySink()
    sinks = [sink]
    if jsonl_path is not None:
        sinks.append(JsonlSink(jsonl_path))
    return Telemetry(sinks), sink


def measure_steady_state(
    shape: Tuple[int, int, int] = (128, 64, 16),
    steps: int = 10,
    islands: int = 4,
    threads: int = 1,
    compiled: bool = False,
    boundary: str = "periodic",
    seed: int = 0,
    state=None,
    telemetry_jsonl: Optional[str] = None,
    halo: str = "recompute",
    halo_threshold: Optional[int] = None,
    variant: Variant = Variant.A,
    partition_grid: Optional[Tuple[int, int]] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    pin_workers: bool = False,
    step_deadline: Optional[float] = None,
    deadline_factor: Optional[float] = None,
    quarantine_after: Optional[int] = None,
    sync_every: int = 1,
    telemetry_table: bool = False,
) -> SteadyStateReport:
    """Measure naive vs engine stepping on one configuration.

    Both modes advance ``1 + steps`` identical time steps from the same
    initial state (one warm-up step, then the timed steady-state window)
    and must produce bit-identical trajectories.  ``telemetry_jsonl``
    additionally streams the engine mode's per-step events to a JSON
    Lines file.  ``halo`` selects the boundary policy (recompute /
    exchange / hybrid); ``partition_grid=(pi, pj)`` decomposes over a 2D
    island grid instead of 1D slabs (``variant`` must be ``GRID_2D``).
    ``backend`` overrides the ``compiled`` flag with an explicit registry
    key (e.g. ``"procs"``, whose worker count, CPU pinning and deadline
    supervision come from ``workers`` / ``pin_workers`` /
    ``step_deadline`` / ``deadline_factor`` / ``quarantine_after``;
    ``None`` for the last three keeps the config defaults, and ``0`` for
    the factor or quarantine threshold disables that half).
    ``sync_every=s`` runs both modes temporally blocked — islands sync
    once per ``s`` steps on deep halos — with warm-up advancing one full
    super-step and per-step numbers normalized by time steps, so
    ``stage_syncs`` reads as the amortized sync rate.
    """
    if state is None:
        state = random_state(shape, seed=seed)
    partition = None
    if partition_grid is not None:
        pi, pj = partition_grid
        partition = partition_grid_2d(full_box(shape), pi, pj)
        islands = partition.count
    if backend is None:
        backend = "compiled" if compiled else "interpreter"
    procs = backend == "procs"
    supervision = {}
    if procs:
        if deadline_factor is not None:
            supervision["deadline_factor"] = deadline_factor or None
        if quarantine_after is not None:
            supervision["quarantine_after"] = quarantine_after or None
    base = EngineConfig(
        backend=backend,
        boundary=boundary,
        threads=threads,
        halo=halo,
        halo_threshold=halo_threshold,
        workers=workers if procs else None,
        pin_workers=pin_workers if procs else False,
        step_deadline=step_deadline if procs else None,
        sync_every=sync_every,
        **supervision,
    )
    report = SteadyStateReport(
        shape=tuple(shape),
        islands=islands,
        threads=threads,
        steps=steps,
        compiled=compiled,
        bit_identical=False,
        halo=halo,
        backend=backend,
        sync_every=sync_every,
    )
    results = {}
    for mode, reuse in (("naive", False), ("engine", True)):
        telemetry, sink = _mode_telemetry(
            telemetry_jsonl if mode == "engine" else None
        )
        table_sink = None
        if telemetry_table and mode == "engine":
            table_sink = TableSink()
            telemetry = telemetry.with_sinks(table_sink)
        with MpdataIslandSolver(
            shape,
            islands,
            config=replace(base, reuse_buffers=reuse, reuse_output=reuse),
            telemetry=telemetry,
            variant=variant,
            partition=partition,
        ) as solver:
            final, numbers, _ = _run_mode(solver, state, steps, sink)
        results[mode] = final
        report.modes[mode] = numbers
        if table_sink is not None:
            print("engine per-step telemetry:")
            print(table_sink.render())
            print()
    report.bit_identical = bool(np.array_equal(results["naive"], results["engine"]))
    return report


@dataclass
class TiledEngineReport:
    """Flat vs tiled (3+1)D engine measurements for one configuration.

    All modes run the compiled steady-state engine; what varies is the
    inner execution order — one flat sweep per island versus a
    block-by-block sweep (optionally on an intra-island thread team).
    Every mode must reproduce the flat trajectory bit-for-bit.
    """

    shape: Tuple[int, int, int]
    islands: int
    threads: int
    steps: int
    block_shape: Optional[Tuple[int, int, int]]
    intra_threads: int
    bit_identical: bool
    #: mode name -> {"step_time_s", "allocations_per_step", "reused_per_step",
    #:               "warmup_allocations", "blocks"}
    modes: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Rendered timing breakdown of the last tiled step (when collected).
    timing_report: Optional[str] = None

    def speedup(self, mode: str) -> float:
        """Flat step time over ``mode``'s (>1 means the mode is faster)."""
        step = self.modes[mode]["step_time_s"]
        return self.modes["flat"]["step_time_s"] / step if step else float("inf")

    def to_dict(self) -> Dict[str, object]:
        return {
            "shape": list(self.shape),
            "islands": self.islands,
            "threads": self.threads,
            "steps": self.steps,
            "block_shape": list(self.block_shape) if self.block_shape else None,
            "intra_threads": self.intra_threads,
            "bit_identical": self.bit_identical,
            "modes": self.modes,
            "speedups": {
                mode: self.speedup(mode) for mode in self.modes if mode != "flat"
            },
        }

    def render(self) -> str:
        ni, nj, nk = self.shape
        block = (
            "x".join(str(b) for b in self.block_shape)
            if self.block_shape
            else "auto"
        )
        lines = [
            "Tiled (3+1)D execution engine "
            f"({ni}x{nj}x{nk}, {self.islands} islands, block {block}, "
            f"{self.intra_threads} intra-threads, {self.steps} steps)",
            f"{'mode':<12} {'step time':>12} {'allocs/step':>12} "
            f"{'blocks':>8} {'speedup':>9}",
        ]
        for mode, numbers in self.modes.items():
            speed = "" if mode == "flat" else f"{self.speedup(mode):>8.2f}x"
            lines.append(
                f"{mode:<12} {numbers['step_time_s'] * 1e3:>10.2f} ms "
                f"{numbers['allocations_per_step']:>12.1f} "
                f"{numbers['blocks']:>8.0f} {speed:>9}"
            )
        lines.append(f"bit-identical (all modes vs flat): {self.bit_identical}")
        if self.timing_report:
            lines.append(self.timing_report)
        return "\n".join(lines)


def measure_tiled_engine(
    shape: Tuple[int, int, int] = (128, 64, 16),
    steps: int = 10,
    islands: int = 4,
    threads: int = 1,
    block_shape: Optional[Tuple[int, int, int]] = None,
    intra_threads: int = 1,
    block_cache_bytes: int = 2 * 1024 * 1024,
    boundary: str = "periodic",
    seed: int = 0,
    state=None,
    collect_timings: bool = False,
    telemetry_jsonl: Optional[str] = None,
) -> TiledEngineReport:
    """Measure the flat compiled engine against its tiled backend.

    Runs ``flat`` (compiled, one sweep per island), ``tiled``
    (block-by-block, serial sweep) and — when ``intra_threads > 1`` —
    ``tiled+team`` (same blocks on an intra-island thread team).  All
    modes advance ``1 + steps`` identical time steps from the same state;
    bit-identity across modes is checked, not assumed.

    ``block_shape=None`` lets :func:`~repro.stencil.tiling.plan_blocks`
    pick a block fitting ``block_cache_bytes`` via the working-set model.
    ``telemetry_jsonl`` streams the ``tiled`` mode's per-step events to a
    JSON Lines file.
    """
    from ..stencil.region import Box
    from ..stencil.tiling import plan_blocks

    if state is None:
        state = random_state(shape, seed=seed)
    if block_shape is None:
        from ..mpdata.stages import mpdata_program

        block_plan = plan_blocks(
            mpdata_program(), Box((0, 0, 0), tuple(shape)), block_cache_bytes
        )
        block_shape = block_plan.block_shape
    configs = [("flat", None, 1), ("tiled", tuple(block_shape), 1)]
    if intra_threads > 1:
        configs.append(("tiled+team", tuple(block_shape), intra_threads))
    report = TiledEngineReport(
        shape=tuple(shape),
        islands=islands,
        threads=threads,
        steps=steps,
        block_shape=tuple(block_shape),
        intra_threads=intra_threads,
        bit_identical=False,
    )
    results = {}
    for mode, blocks, intra in configs:
        config = EngineConfig(
            backend="compiled" if blocks is None else "tiled",
            boundary=boundary,
            threads=threads,
            reuse_buffers=True,
            reuse_output=True,
            block_shape=blocks,
            intra_threads=intra,
            collect_timings=collect_timings and blocks is not None,
        )
        telemetry, sink = _mode_telemetry(
            telemetry_jsonl if mode == "tiled" else None
        )
        with MpdataIslandSolver(
            shape,
            islands,
            config=config,
            telemetry=telemetry,
        ) as solver:
            final, numbers, _ = _run_mode(solver, state, steps, sink)
            numbers["blocks"] = float(
                sum(
                    plan.block_count
                    for plans in solver.runner.backend.plans.values()
                    for plan in plans
                )
                if blocks is not None
                else 0
            )
            if (
                collect_timings
                and blocks is not None
                and solver.runner.last_step_stats.timings is not None
            ):
                report.timing_report = (
                    solver.runner.last_step_stats.timings.render()
                )
        results[mode] = final
        report.modes[mode] = numbers
    report.bit_identical = all(
        bool(np.array_equal(results["flat"], final))
        for mode, final in results.items()
        if mode != "flat"
    )
    return report
