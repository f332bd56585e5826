"""Pluggable island execution backends.

The paper's unit of execution is the island: every backend here computes
one island's part of one time step — all program stages over the part
plus its redundant halo — from the runner's ghost-extended inputs into
the shared output array.  What varies is *how* the sweep runs:

``interpreter`` (:class:`FlatInterpreterBackend`)
    Walk the stage graph per island with :func:`~repro.stencil
    .interpreter.execute_plan`, on persistent stage/scratch arenas in
    steady-state mode.
``compiled`` (:class:`CompiledBackend`)
    One straight-line NumPy step per island
    (:func:`~repro.stencil.codegen.compile_plan`) with a persistent
    workspace.
``tiled`` (:class:`TiledBackend`)
    The (3+1)D backend: each island's part is covered by cache-sized
    blocks, each with its own compiled step and sized workspace
    (:func:`~repro.stencil.tiled_exec.compile_plan_tiled`), optionally
    swept by an intra-island thread team.
``procs`` (:class:`~repro.runtime.procs.ProcsBackend`)
    True multi-core islands: each island runs in a persistent worker
    *process* over shared-memory arenas, sidestepping the GIL entirely
    (registered by :mod:`repro.runtime.procs` on package import).

All of them produce bit-identical results — every backend evaluates the
identical expressions on identical inputs — so the registry key in
:class:`~repro.runtime.config.EngineConfig` is purely a performance and
deployment choice.  Backends own their per-island resources (arenas,
workspaces, block plans) behind a uniform lifecycle: :meth:`prepare`
builds them, :meth:`execute_island` uses them, :meth:`refresh` replaces
one island's after a failed attempt, :meth:`close` releases them.
Backends know nothing about retries, faults or telemetry — that is the
resilience layer's job (:mod:`repro.runtime.resilience`) — and they
never read clocks: wall-time attribution happens around them.

Each backend has two execution paths, one per kind of halo policy:

* **Recompute** (:meth:`IslandBackend.execute_island`): an island
  advances a *super-step* of ``steps`` chained sub-steps over its
  composed halo, then writes its part of the output.  Temporal blocking
  with ``sync_every = s`` gives super-steps of depth ``s``; the plain
  one-sync-per-step run is the depth-1 super-step, not a separate path.
* **Stage-granular** (:meth:`IslandBackend.execute_island_stage`), for
  the ``exchange`` and ``hybrid`` policies: after
  :meth:`IslandBackend.prepare_exchange` installs a
  :class:`~repro.core.halo.HaloLedger`, each call computes one stage
  over the island's owned slab into a persistent per-stage buffer, and
  the runner copies boundary planes between those buffers before the
  next stage.  Stage buffers always persist across steps (halo copies
  target them), so exchange-mode steps are allocation-free after
  warm-up in every backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import ClassVar, Dict, List, Mapping, Optional, Tuple, Type

import numpy as np

from ..core import IslandDecomposition
from ..core.halo import HaloLedger
from ..stencil import execute_plan, required_regions
from ..stencil.expr import EvalArena
from ..stencil.field import Field, FieldRole
from ..stencil.interpreter import ArrayRegion, StageArena
from ..stencil.program import StencilProgram
from ..stencil.region import Box
from .config import EngineConfig
from .faults import InjectedFault

__all__ = [
    "BACKENDS",
    "CompiledBackend",
    "FlatInterpreterBackend",
    "IslandBackend",
    "IslandResult",
    "TiledBackend",
    "create_backend",
    "stage_delta",
]


def stage_delta(
    after: Optional[Dict[str, float]],
    before: Optional[Dict[str, float]],
) -> Optional[Dict[str, float]]:
    """Per-stage seconds of one sweep, from cumulative stage counters.

    Compiled plans accumulate ``stage_seconds`` across calls, so a single
    step's attribution is the difference of two snapshots.
    """
    if after is None:
        return None
    if not before:
        return dict(after)
    return {
        name: seconds - before.get(name, 0.0) for name, seconds in after.items()
    }


@dataclass
class IslandResult:
    """What one successful island sweep reported.

    ``seconds`` is filled by the caller that timed the sweep (the
    resilience layer), not by the backend; ``block_seconds`` and
    ``stage_seconds`` are only populated by timing-enabled backends.
    """

    stage_allocations: int = 0
    scratch_allocations: int = 0
    reused: int = 0
    seconds: float = 0.0
    block_seconds: Tuple[float, ...] = ()
    stage_seconds: Optional[Dict[str, float]] = field(default=None)

    def merge(self, other: "IslandResult") -> "IslandResult":
        """Add ``other``'s counters and seconds into this result.

        One island's total over several sweeps — the sub-steps of a
        super-step, or the stages of an exchange step — is the sum of
        each sweep's allocations, reuses and seconds; blocks are
        concatenated and per-stage seconds summed by stage name.
        """
        self.stage_allocations += other.stage_allocations
        self.scratch_allocations += other.scratch_allocations
        self.reused += other.reused
        self.seconds += other.seconds
        if other.block_seconds:
            self.block_seconds = tuple(self.block_seconds) + tuple(
                other.block_seconds
            )
        if other.stage_seconds:
            merged = dict(self.stage_seconds or {})
            for name, seconds in other.stage_seconds.items():
                merged[name] = merged.get(name, 0.0) + seconds
            self.stage_seconds = merged
        return self


class IslandBackend:
    """Base class: per-island resources behind a uniform lifecycle.

    Concrete backends register under :attr:`key` in :data:`BACKENDS` and
    are constructed via :meth:`from_config` /
    :func:`create_backend`.  ``plans[q]`` holds island ``q``'s ``s``
    per-sub-step execution objects, in execution order, where the
    backend compiles any (compiled and tiled backends); the interpreter
    keeps one stage arena per sub-step in ``arenas[q]`` instead.
    """

    key: ClassVar[str]

    def __init__(
        self,
        program: StencilProgram,
        decomposition: IslandDecomposition,
        *,
        clip_domain: Box,
        output_field: str,
        dtype: np.dtype,
        reuse_buffers: bool,
        timed: bool,
    ) -> None:
        self.program = program
        self.decomposition = decomposition
        self.clip_domain = clip_domain
        self.output_field = output_field
        self.dtype = np.dtype(dtype)
        self.reuse_buffers = reuse_buffers
        self.timed = timed
        self.plans: Dict[int, Tuple[object, ...]] = {}
        self._ledger: Optional[HaloLedger] = None
        self._stage_buffers: Dict[int, List[Optional[ArrayRegion]]] = {}
        self._stage_programs: Dict[int, StencilProgram] = {}
        self._step_plans: Tuple[Tuple[object, ...], ...] = ()
        self._recurrent: Optional[str] = None

    @classmethod
    def from_config(
        cls,
        config: EngineConfig,
        program: StencilProgram,
        decomposition: IslandDecomposition,
        *,
        clip_domain: Box,
        output_field: str,
    ) -> "IslandBackend":
        return cls(
            program,
            decomposition,
            clip_domain=clip_domain,
            output_field=output_field,
            dtype=config.numpy_dtype,
            reuse_buffers=config.reuse_buffers,
            timed=config.collect_timings,
        )

    # -- recompute execution: one super-step of ``steps`` sub-steps ------
    def prepare(
        self,
        step_plans: Tuple[Tuple[object, ...], ...],
        recurrent: Optional[str],
    ) -> None:
        """Build every island's per-sub-step compute state (called once).

        ``step_plans[island]`` holds the ``s = sync_every`` composed
        :class:`~repro.stencil.halo.HaloPlan` objects in execution order
        (see :func:`repro.stencil.halo.composed_step_plans`); with
        ``s = 1`` that is just the island's own halo plan, so a whole
        time step is the depth-1 super-step.  ``recurrent`` names the
        input field that receives each sub-step's output (``None`` when
        ``s = 1``).  Every sub-step gets its *own* persistent compute
        state (arena / workspace): one shared arena would recycle
        sub-step ``k``'s output buffers at the start of sub-step
        ``k+1``, exactly while they are being read.
        """
        self._step_plans = step_plans
        self._recurrent = recurrent
        self._prepare_step_state()

    def _prepare_step_state(self) -> None:
        """Hook: build per-(island, sub-step) compute state."""
        raise NotImplementedError

    def execute_island(
        self,
        island,
        inputs: Mapping[str, ArrayRegion],
        out: np.ndarray,
        steps: int,
    ) -> IslandResult:
        """Advance ``steps`` sub-steps island-locally, then write ``out``.

        Runs the first ``steps`` composed plans (``steps < sync_every``
        only on a run's remainder super-step, where the deeper plans do
        some extra redundant work but stay bit-identical), feeding each
        sub-step's output region into the next sub-step's recurrent
        input, and writes the island's part of the last sub-step into
        ``out``; returns the island's traffic.
        """
        current: Mapping[str, ArrayRegion] = inputs
        total = IslandResult()
        produced = None
        for k in range(steps):
            result, produced = self._run_sub_step(island, k, current, out)
            total.merge(result)
            if k + 1 < steps:
                current = self._chain_inputs(inputs, produced)
        if produced is not None:
            out[island.part.slices()] = produced.view(island.part)
        return total

    def _run_sub_step(
        self,
        island,
        k: int,
        inputs: Mapping[str, ArrayRegion],
        out: np.ndarray,
    ) -> Tuple[IslandResult, Optional[ArrayRegion]]:
        """Hook: run one island's sub-step ``k``.

        Returns the sweep's traffic and the output region it produced,
        or ``None`` when the sweep wrote the island's part of ``out``
        itself.
        """
        raise NotImplementedError

    def execute_island_super(
        self,
        island,
        inputs: Mapping[str, ArrayRegion],
        out: np.ndarray,
        steps: int,
    ) -> IslandResult:
        # A forwarding name only: the engine benchmark's span tracer
        # (enginebench/spans.py) looks it up by name on the live
        # backend.  Engine code calls :meth:`execute_island`.
        return self.execute_island(island, inputs, out, steps)

    def refresh(self, island_index: int) -> None:
        """Replace one island's persistent compute state before a retry.

        A sweep that died mid-execution leaves arena liveness bookkeeping
        or workspace bindings indeterminate, so the retry starts from
        fresh storage.  Only the failed island pays — its neighbours keep
        their warm buffers, exactly the isolation the islands approach
        buys.
        """
        if self._ledger is not None:
            self._refresh_stage_state(island_index)
        else:
            self._refresh_step_state(island_index)

    def _refresh_step_state(self, island_index: int) -> None:
        """Hook: replace one island's per-sub-step state before a retry."""
        raise NotImplementedError

    def _chain_inputs(
        self,
        inputs: Mapping[str, ArrayRegion],
        produced: ArrayRegion,
    ) -> Dict[str, ArrayRegion]:
        """Next sub-step's inputs: ghost inputs + the recurrent region."""
        chained = dict(inputs)
        chained[self._recurrent] = produced
        return chained

    def close(self) -> None:
        """Release backend-owned resources (idempotent; default: none)."""

    # -- storage hooks (shared-memory backends override) ----------------
    def allocate_ghost(self, field_name: str) -> Optional[ArrayRegion]:
        """Backend-owned storage for one ghost-extended input, or ``None``.

        The runner consults this before allocating a ghost buffer; a
        backend that needs the inputs in special storage (the ``procs``
        backend places them in shared memory so worker processes read
        them zero-copy) returns a persistent region covering the
        clip domain, which the runner then fills in place every step.
        """
        return None

    def allocate_output(self) -> Optional[np.ndarray]:
        """Backend-owned storage for the assembled output, or ``None``.

        Same contract as :meth:`allocate_ghost`: the ``procs`` backend
        hands out its shared-memory output arena so worker processes
        publish their parts without any cross-process copy.
        """
        return None

    # -- fault hooks ----------------------------------------------------
    def inject_kill(self, island: int, step: int, attempt: int) -> None:
        """Kill the island's *executor* (a ``kill`` fault fired).

        In-process backends have no executor separate from the task, so
        the default degrades to a ``crash``: raise
        :class:`~repro.runtime.faults.InjectedFault` here and now.  The
        ``procs`` backend overrides this to arm a real ``SIGKILL`` of
        the worker process mid-step instead of raising.
        """
        raise InjectedFault(island, step, attempt)

    def inject_hang(self, island: int, step: int, attempt: int) -> None:
        """Wedge the island's executor (a ``hang`` fault fired).

        The default is a graceful no-op: an in-process island that stops
        responding takes the whole interpreter with it, so there is
        nothing recoverable to exercise and the fault is skipped (it is
        still counted by the injector's accounting).  The ``procs``
        backend overrides this to arm a worker that never replies,
        which the deadline watchdog then detects and kills.
        """

    # -- supervision hooks (deadline-supervised backends override) ------
    def health_events(self) -> Tuple[int, int]:
        """Drain ``(quarantines, islands_remapped)`` since the last call.

        Supervised backends count quarantine decisions and island
        remaps internally (they happen inside :meth:`refresh`, below
        the resilience layer); the retry loop drains them here into
        :class:`~repro.runtime.faults.FaultStats`.  Default: nothing
        ever happens.
        """
        return (0, 0)

    @property
    def serial_fallback(self) -> bool:
        """True when a pooled backend degraded to serial-in-parent."""
        return False

    # -- stage-granular execution (exchange / hybrid halo policies) -----
    @property
    def ledger(self) -> Optional[HaloLedger]:
        """The halo ledger installed by :meth:`prepare_exchange`."""
        return self._ledger

    def prepare_exchange(self, ledger: HaloLedger) -> None:
        """Build per-stage buffers and compute state for one halo ledger.

        Called instead of :meth:`prepare` when the halo policy is
        ``exchange`` or ``hybrid``.  Each island gets one persistent
        buffer per stage, covering the ledger's buffer box (computed slab
        plus the halo received from neighbours); halo copies between
        buffers are the runner's job.
        """
        self._ledger = ledger
        for island in self.decomposition.islands:
            buffers: List[Optional[ArrayRegion]] = []
            for stage_index, box in enumerate(ledger.buffer_boxes[island.index]):
                if box.is_empty():
                    buffers.append(None)
                else:
                    buffers.append(
                        ArrayRegion(
                            self._allocate_stage_array(
                                island.index, stage_index, box
                            ),
                            box,
                        )
                    )
            self._stage_buffers[island.index] = buffers
        self._prepare_stage_state()

    def _allocate_stage_array(
        self, island_index: int, stage_index: int, box: Box
    ) -> np.ndarray:
        """Storage for one stage buffer (hook: ``procs`` carves from shm)."""
        return np.empty(box.shape, dtype=self.dtype)

    def adopt_exchange_state(
        self,
        ledger: HaloLedger,
        stage_buffers: Dict[int, List[Optional[ArrayRegion]]],
    ) -> None:
        """Install pre-allocated stage buffers and build compute state.

        The worker-process half of the ``procs`` backend's exchange mode:
        the parent already allocated every island's stage buffers in
        shared memory (:meth:`prepare_exchange`), so the worker's inner
        backend must *adopt* those regions — binding its per-stage
        compute state to them — rather than allocate fresh ones.
        """
        self._ledger = ledger
        self._stage_buffers = stage_buffers
        self._prepare_stage_state()

    def stage_buffer(
        self, island_index: int, stage_index: int
    ) -> Optional[ArrayRegion]:
        """One island's persistent buffer for one stage's output."""
        return self._stage_buffers[island_index][stage_index]

    def stage_view(
        self, island_index: int, stage_index: int
    ) -> Optional[np.ndarray]:
        """View of the slab one island *computes* for one stage.

        This is where post-attempt fault corruption lands in exchange
        mode — the freshly written points, not the received halo.
        """
        comp = self._ledger.compute_boxes[island_index][stage_index]
        if comp.is_empty():
            return None
        return self._stage_buffers[island_index][stage_index].view(comp)

    def execute_island_stage(
        self,
        island,
        stage_index: int,
        inputs: Mapping[str, ArrayRegion],
    ) -> IslandResult:
        """Compute one stage of one island into its stage buffer."""
        comp = self._ledger.compute_boxes[island.index][stage_index]
        if comp.is_empty():
            return IslandResult()
        return self._execute_stage(island, stage_index, inputs)

    def _flat_stage(self, stage_index: int) -> Tuple[int, int]:
        """Split a flat ledger index into ``(sub_step, local_stage)``.

        Exchange-mode ledgers built with ``sync_every = s`` flatten the
        stage axis to ``s * len(program.stages)`` entries; with the
        default ``s = 1`` this is the identity mapping.
        """
        stages = len(self.program.stages)
        return stage_index // stages, stage_index % stages

    def _stage_inputs(
        self,
        island_index: int,
        stage_index: int,
        inputs: Mapping[str, ArrayRegion],
    ) -> Dict[str, ArrayRegion]:
        """Resolve one flat stage's reads: ghost inputs, earlier stage
        buffers of the same sub-step, or — for the recurrent field after
        the first sub-step — the previous sub-step's output buffer."""
        sub_step, local = self._flat_stage(stage_index)
        stage = self.program.stages[local]
        stages = len(self.program.stages)
        field_map = self.program.field_map
        recurrent = self._ledger.recurrent if self._ledger is not None else None
        resolved: Dict[str, ArrayRegion] = {}
        for name in stage.reads:
            if field_map[name].is_input:
                if sub_step > 0 and name == recurrent:
                    producer = self.program.producer_of(self.output_field)
                    resolved[name] = self._stage_buffers[island_index][
                        (sub_step - 1) * stages + producer
                    ]
                else:
                    resolved[name] = inputs[name]
            else:
                producer = self.program.producer_of(name)
                resolved[name] = self._stage_buffers[island_index][
                    sub_step * stages + producer
                ]
        return resolved

    def _stage_program(self, stage_index: int) -> StencilProgram:
        """A one-stage program whose inputs are the stage's read fields.

        Keyed by the *local* stage index: every sub-step runs the same
        seventeen stages, so flat indices share the cached programs.
        """
        _, local = self._flat_stage(stage_index)
        cached = self._stage_programs.get(local)
        if cached is None:
            stage = self.program.stages[local]
            field_map = self.program.field_map
            declared = tuple(
                Field(name, FieldRole.INPUT, itemsize=field_map[name].itemsize)
                for name in stage.reads
            )
            cached = StencilProgram.build(
                f"{self.program.name}:{stage.name}",
                declared,
                (stage,),
                (stage.output,),
            )
            self._stage_programs[local] = cached
        return cached

    def _prepare_stage_state(self) -> None:
        """Hook: build per-stage compute state once buffers exist."""

    def _execute_stage(
        self,
        island,
        stage_index: int,
        inputs: Mapping[str, ArrayRegion],
    ) -> IslandResult:
        raise NotImplementedError

    def _refresh_stage_state(self, island_index: int) -> None:
        """Hook: replace one island's per-stage state before a retry."""


class FlatInterpreterBackend(IslandBackend):
    """Walk the stage graph per island (the reference execution path)."""

    key = "interpreter"

    def _prepare_step_state(self) -> None:
        # ``arenas[q][k]`` holds sub-step k's stage outputs; the ufunc
        # scratch is shared by an island's sub-steps.  Without buffer
        # reuse every sweep allocates afresh (``None`` arenas).
        self.arenas: Dict[int, Tuple[Optional[StageArena], ...]] = {}
        self._scratch: Dict[int, Optional[EvalArena]] = {}
        for island in self.decomposition.islands:
            self._refresh_step_state(island.index)

    def _refresh_step_state(self, island_index: int) -> None:
        reuse = self.reuse_buffers
        self.arenas[island_index] = tuple(
            StageArena(self.dtype) if reuse else None
            for _ in self._step_plans[island_index]
        )
        self._scratch[island_index] = EvalArena(self.dtype) if reuse else None

    def _run_sub_step(self, island, k, inputs, out):
        results, stats = execute_plan(
            self.program,
            self._step_plans[island.index][k],
            inputs,
            dtype=self.dtype,
            arena=self.arenas[island.index][k],
            scratch=self._scratch[island.index],
            collect_timing=self.timed,
        )
        result = IslandResult(
            stage_allocations=stats.allocations,
            scratch_allocations=stats.scratch_allocations,
            reused=stats.reused_buffers + stats.scratch_reused,
            stage_seconds=stats.stage_seconds if self.timed else None,
        )
        return result, results[self.output_field]

    # -- stage-granular path (exchange / hybrid) ------------------------
    def _prepare_stage_state(self) -> None:
        self._stage_scratch: Dict[int, EvalArena] = {}
        if self.reuse_buffers:
            for island in self.decomposition.islands:
                self._stage_scratch[island.index] = EvalArena(self.dtype)

    def _execute_stage(self, island, stage_index, inputs) -> IslandResult:
        stage = self.program.stages[self._flat_stage(stage_index)[1]]
        comp = self._ledger.compute_boxes[island.index][stage_index]
        out_view = self._stage_buffers[island.index][stage_index].view(comp)
        resolved = self._stage_inputs(island.index, stage_index, inputs)

        def resolve(field_name: str, offset) -> np.ndarray:
            return resolved[field_name].view(comp.shift(offset))

        scratch = self._stage_scratch.get(island.index)
        if scratch is None:
            scratch = EvalArena(self.dtype)
        before = (scratch.allocations, scratch.reuses)
        start = perf_counter() if self.timed else 0.0
        stage.expr.evaluate(resolve, out=out_view, scratch=scratch)
        result = IslandResult(
            scratch_allocations=scratch.allocations - before[0],
            reused=scratch.reuses - before[1],
        )
        if self.timed:
            result.stage_seconds = {stage.name: perf_counter() - start}
        return result

    def _refresh_stage_state(self, island_index: int) -> None:
        if self.reuse_buffers:
            self._stage_scratch[island_index] = EvalArena(self.dtype)


class CompiledBackend(IslandBackend):
    """One straight-line compiled step per island, persistent workspace."""

    key = "compiled"

    def _compile(self, program: StencilProgram, plan, **kwargs):
        """Compile one halo plan — the single seam subclasses override.

        The recompute and stage-granular paths both route through here,
        which is what lets :class:`NativeBackend` swap in fused-C kernels
        while inheriting every orchestration mode.
        """
        from ..stencil import compile_plan

        return compile_plan(program, plan, **kwargs)

    def _prepare_step_state(self) -> None:
        self.plans = {
            island.index: tuple(
                self._compile(
                    self.program,
                    plan,
                    dtype=self.dtype,
                    reuse_buffers=self.reuse_buffers,
                    timed=self.timed,
                )
                for plan in self._step_plans[island.index]
            )
            for island in self.decomposition.islands
        }

    def _run_sub_step(self, island, k, inputs, out):
        compiled = self.plans[island.index][k]
        workspace = compiled.workspace
        before = (
            (workspace.allocations, workspace.reuses)
            if workspace is not None
            else (0, 0)
        )
        stage_before = compiled.stage_seconds if self.timed else None
        results = compiled(inputs)
        workspace = compiled.last_workspace
        result = IslandResult(
            stage_allocations=workspace.allocations - before[0],
            reused=workspace.reuses - before[1],
        )
        if self.timed:
            result.stage_seconds = stage_delta(
                compiled.stage_seconds, stage_before
            )
        return result, results[self.output_field]

    def _refresh_step_state(self, island_index: int) -> None:
        for compiled in self.plans[island_index]:
            if compiled.persistent:
                compiled.persistent = True  # installs a fresh Workspace

    # -- stage-granular path (exchange / hybrid) ------------------------
    def _prepare_stage_state(self) -> None:
        self._stage_plans: Dict[Tuple[int, int], object] = {}
        for island in self.decomposition.islands:
            q = island.index
            for s in range(len(self._ledger.compute_boxes[q])):
                comp = self._ledger.compute_boxes[q][s]
                if comp.is_empty():
                    continue
                stage = self.program.stages[self._flat_stage(s)[1]]
                sub = self._stage_program(s)
                compiled = self._compile(
                    sub,
                    required_regions(sub, comp),
                    dtype=self.dtype,
                    reuse_buffers=True,
                    timed=self.timed,
                )
                compiled.workspace.bind_out(
                    stage.output, self._stage_buffers[q][s].view(comp)
                )
                self._stage_plans[(q, s)] = compiled

    def _execute_stage(self, island, stage_index, inputs) -> IslandResult:
        compiled = self._stage_plans[(island.index, stage_index)]
        workspace = compiled.workspace
        before = (workspace.allocations, workspace.reuses)
        stage_before = compiled.stage_seconds if self.timed else None
        compiled(self._stage_inputs(island.index, stage_index, inputs))
        result = IslandResult(
            stage_allocations=workspace.allocations - before[0],
            reused=workspace.reuses - before[1],
        )
        if self.timed:
            result.stage_seconds = stage_delta(
                compiled.stage_seconds, stage_before
            )
        return result

    def _refresh_stage_state(self, island_index: int) -> None:
        for (q, s), compiled in self._stage_plans.items():
            if q != island_index:
                continue
            compiled.persistent = True  # installs a fresh Workspace
            comp = self._ledger.compute_boxes[q][s]
            compiled.workspace.bind_out(
                self.program.stages[self._flat_stage(s)[1]].output,
                self._stage_buffers[q][s].view(comp),
            )


class TiledBackend(IslandBackend):
    """Cache-blocked (3+1)D sweep of each island, per-block compiled steps."""

    key = "tiled"

    def __init__(
        self,
        program: StencilProgram,
        decomposition: IslandDecomposition,
        *,
        clip_domain: Box,
        output_field: str,
        dtype: np.dtype,
        reuse_buffers: bool,
        timed: bool,
        block_shape: Tuple[int, int, int],
        intra_threads: int = 1,
    ) -> None:
        super().__init__(
            program,
            decomposition,
            clip_domain=clip_domain,
            output_field=output_field,
            dtype=dtype,
            reuse_buffers=reuse_buffers,
            timed=timed,
        )
        self.block_shape = tuple(block_shape)
        self.intra_threads = max(1, intra_threads)

    @classmethod
    def from_config(
        cls,
        config: EngineConfig,
        program: StencilProgram,
        decomposition: IslandDecomposition,
        *,
        clip_domain: Box,
        output_field: str,
    ) -> "TiledBackend":
        if config.block_shape is None:  # EngineConfig already enforces this
            raise ValueError("the tiled backend requires block_shape")
        return cls(
            program,
            decomposition,
            clip_domain=clip_domain,
            output_field=output_field,
            dtype=config.numpy_dtype,
            reuse_buffers=config.reuse_buffers,
            timed=config.collect_timings,
            block_shape=config.block_shape,
            intra_threads=config.intra_threads,
        )

    # Each sub-step gets its own TiledPlan over its composed plan's
    # target.  The last sub-step targets the island's part and writes
    # straight into the output; earlier (deeper) sub-steps write
    # persistent intermediate region buffers, so their block grids simply
    # grow — block_shape stays a per-block cache bound.
    def _prepare_step_state(self) -> None:
        from ..stencil.tiled_exec import compile_plan_tiled
        from ..stencil.tiling import plan_blocks_exact

        self._sub_out: Dict[int, Tuple[ArrayRegion, ...]] = {}
        for island in self.decomposition.islands:
            step_plans = self._step_plans[island.index]
            self.plans[island.index] = tuple(
                compile_plan_tiled(
                    self.program,
                    plan,
                    plan_blocks_exact(self.program, plan.target, self.block_shape),
                    clip_domain=self.clip_domain,
                    dtype=self.dtype,
                    reuse_buffers=self.reuse_buffers,
                    intra_threads=self.intra_threads,
                    timed=self.timed,
                )
                for plan in step_plans
            )
            self._sub_out[island.index] = tuple(
                ArrayRegion(np.empty(plan.target.shape, dtype=self.dtype), plan.target)
                for plan in step_plans[:-1]
            )

    def _run_sub_step(self, island, k, inputs, out):
        plans = self.plans[island.index]
        tiled = plans[k]
        before = tiled.counters()
        stage_before = tiled.stage_seconds if self.timed else None
        produced = None
        if k + 1 < len(plans):
            produced = self._sub_out[island.index][k]
            tiled.execute(inputs, produced.data, origin=produced.box.lo)
        else:
            tiled.execute(inputs, out)
        after = tiled.counters()
        result = IslandResult(
            stage_allocations=after[0] - before[0],
            reused=after[1] - before[1],
        )
        if self.timed:
            result.block_seconds = tiled.last_block_seconds or ()
            result.stage_seconds = stage_delta(
                tiled.stage_seconds, stage_before
            )
        return result, produced

    def _refresh_step_state(self, island_index: int) -> None:
        for tiled in self.plans[island_index]:
            tiled.refresh_workspaces()

    def close(self) -> None:
        for plans in self.plans.values():
            for plan in plans:
                plan.close()

    # -- stage-granular path (exchange / hybrid) ------------------------
    # Each stage's owned slab is covered by cache-sized blocks, each with
    # its own compiled one-stage step writing straight into the island's
    # persistent stage buffer.  Blocks are swept serially: exchange mode
    # already barriers per stage, so the (3+1)D depth dimension collapses
    # to single-stage sweeps and only the cache blocking remains.
    def _prepare_stage_state(self) -> None:
        from ..stencil import compile_plan

        self._stage_plans: Dict[Tuple[int, int], Tuple[object, ...]] = {}
        for island in self.decomposition.islands:
            q = island.index
            for s in range(len(self._ledger.compute_boxes[q])):
                comp = self._ledger.compute_boxes[q][s]
                if comp.is_empty():
                    continue
                stage = self.program.stages[self._flat_stage(s)[1]]
                sub = self._stage_program(s)
                buffer = self._stage_buffers[q][s]
                compiled_blocks = []
                for block in _grid_boxes(comp, self.block_shape):
                    compiled = compile_plan(
                        sub,
                        required_regions(sub, block),
                        dtype=self.dtype,
                        reuse_buffers=True,
                        timed=self.timed,
                    )
                    compiled.workspace.bind_out(
                        stage.output, buffer.view(block)
                    )
                    compiled_blocks.append((block, compiled))
                self._stage_plans[(q, s)] = tuple(compiled_blocks)

    def _execute_stage(self, island, stage_index, inputs) -> IslandResult:
        stage = self.program.stages[self._flat_stage(stage_index)[1]]
        resolved = self._stage_inputs(island.index, stage_index, inputs)
        result = IslandResult()
        block_seconds = [] if self.timed else None
        total = 0.0
        for _block, compiled in self._stage_plans[(island.index, stage_index)]:
            workspace = compiled.workspace
            before = (workspace.allocations, workspace.reuses)
            start = perf_counter() if self.timed else 0.0
            compiled(resolved)
            if self.timed:
                elapsed = perf_counter() - start
                block_seconds.append(elapsed)
                total += elapsed
            result.stage_allocations += workspace.allocations - before[0]
            result.reused += workspace.reuses - before[1]
        if self.timed:
            result.block_seconds = tuple(block_seconds)
            result.stage_seconds = {stage.name: total}
        return result

    def _refresh_stage_state(self, island_index: int) -> None:
        for (q, s), compiled_blocks in self._stage_plans.items():
            if q != island_index:
                continue
            buffer = self._stage_buffers[q][s]
            for block, compiled in compiled_blocks:
                compiled.persistent = True  # installs a fresh Workspace
                compiled.workspace.bind_out(
                    self.program.stages[self._flat_stage(s)[1]].output,
                    buffer.view(block),
                )


def _grid_boxes(box: Box, block_shape: Tuple[int, int, int]) -> List[Box]:
    """Cover ``box`` with a grid of blocks of at most ``block_shape``."""
    ranges = []
    for axis in range(3):
        axis_ranges = []
        lo = box.lo[axis]
        while lo < box.hi[axis]:
            hi = min(lo + block_shape[axis], box.hi[axis])
            axis_ranges.append((lo, hi))
            lo = hi
        ranges.append(axis_ranges)
    return [
        Box((i0, j0, k0), (i1, j1, k1))
        for i0, i1 in ranges[0]
        for j0, j1 in ranges[1]
        for k0, k1 in ranges[2]
    ]


BACKENDS: Dict[str, Type[IslandBackend]] = {
    backend.key: backend
    for backend in (FlatInterpreterBackend, CompiledBackend, TiledBackend)
}


def create_backend(
    config: EngineConfig,
    program: StencilProgram,
    decomposition: IslandDecomposition,
    *,
    clip_domain: Box,
    output_field: str,
    ledger: HaloLedger,
) -> IslandBackend:
    """Instantiate and prepare the backend ``config.backend`` names.

    A ``recompute`` ledger prepares the island super-steps of depth
    ``ledger.sync_every`` (:meth:`IslandBackend.prepare`); an
    ``exchange`` or ``hybrid`` ledger prepares stage-granular execution
    (:meth:`IslandBackend.prepare_exchange`).
    """
    try:
        backend_cls = BACKENDS[config.backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {config.backend!r}; known: "
            f"{', '.join(sorted(BACKENDS))}"
        ) from None
    backend = backend_cls.from_config(
        config,
        program,
        decomposition,
        clip_domain=clip_domain,
        output_field=output_field,
    )
    if ledger.policy != "recompute":
        backend.prepare_exchange(ledger)
    else:
        backend.prepare(ledger.step_plans, ledger.recurrent)
    return backend
