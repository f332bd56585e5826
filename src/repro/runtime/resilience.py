"""Per-island retry, backoff and fault application over any backend.

The island is the unit of failure isolation: it recomputes its transitive
halo instead of communicating, so a failed island task can be re-executed
in place without touching its neighbours.  This module is that policy,
written once for every backend instead of once per execution path: a
:class:`ResilientExecutor` wraps an
:class:`~repro.runtime.backends.IslandBackend` and runs one island with
deterministic fault injection applied around the sweep, a bounded retry
loop with exponential backoff, fresh backend resources before each retry
(:meth:`~repro.runtime.backends.IslandBackend.refresh`), and
:class:`IslandFailure` once the budget is spent.

What it deliberately does *not* do: poison the half-written output
buffer or decide how islands are scheduled — those stay with the runner,
which owns the output array and the island-level work team.  Silent
corruption and budget exhaustion are handled a level further up by
checkpointed rollback (:mod:`repro.runtime.recovery`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .backends import IslandBackend, IslandResult
from .config import EngineConfig
from .faults import (
    FaultInjector,
    FaultStats,
    WorkerHung,
    apply_post_faults,
    apply_pre_faults,
)

__all__ = ["IslandFailure", "ResiliencePolicy", "ResilientExecutor"]


class IslandFailure(RuntimeError):
    """An island task failed after exhausting its retry budget.

    The step it belonged to did **not** complete: the runner's persistent
    output buffer has been invalidated (filled with NaN and dropped from
    reuse) and ``last_step_stats`` reset to ``None``, so no caller can
    mistake the partial step for a successful one.
    """

    def __init__(
        self, island: int, step: int, attempts: int, cause: BaseException
    ) -> None:
        super().__init__(
            f"island {island} failed at step {step} after {attempts} "
            f"attempt(s): {cause!r}"
        )
        self.island = island
        self.step = step
        self.attempts = attempts


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard one island step tries before giving up.

    ``max_retries`` is the per-island retry budget within one step (an
    island fails its step after ``1 + max_retries`` attempts);
    ``retry_backoff`` the base sleep before retry N, growing as
    ``retry_backoff * 2**(N-1)`` but saturating at
    ``retry_backoff_max`` — an unbounded exponential turns a persistent
    fault into an unbounded stall.  The actual sleep carries a
    deterministic down-jitter derived from the (island, step, attempt)
    site, so concurrent islands retrying the same step do not thunder
    in lockstep yet every run remains reproducible.  Zero backoff
    retries immediately — the in-process failure modes retry targets
    are transient task faults, not contended external resources.
    """

    max_retries: int = 0
    retry_backoff: float = 0.0
    retry_backoff_max: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if self.retry_backoff_max <= 0:
            raise ValueError("retry_backoff_max must be positive")

    @classmethod
    def from_config(cls, config: EngineConfig) -> "ResiliencePolicy":
        return cls(
            max_retries=config.max_retries,
            retry_backoff=config.retry_backoff,
            retry_backoff_max=config.retry_backoff_max,
        )

    def backoff_seconds(self, island: int, step: int, attempt: int) -> float:
        """The bounded, deterministically jittered sleep before retry N.

        ``retry_backoff * 2**(N-1)`` capped at ``retry_backoff_max``,
        then shaved by up to 15% — the jitter fraction is a hash of the
        retry site, so it desynchronizes concurrent islands without
        introducing run-to-run nondeterminism, and shaving (never
        adding) keeps the cap a true ceiling.
        """
        if not self.retry_backoff:
            return 0.0
        base = min(
            self.retry_backoff * (2 ** (attempt - 1)), self.retry_backoff_max
        )
        frac = ((island * 40503 + step * 9973 + attempt * 271) % 1000) / 999.0
        return base * (1.0 - 0.15 * frac)


class ResilientExecutor:
    """Run islands through a backend under a :class:`ResiliencePolicy`.

    One executor serves all of a runner's islands concurrently —
    :meth:`run_island` keeps no shared mutable state.  Fault accounting
    goes through the caller-supplied ``fault_stats`` factory so the
    runner can keep per-island slots that threaded islands never contend
    on; the factory is only invoked when there is something to count.
    """

    def __init__(
        self,
        backend: IslandBackend,
        policy: ResiliencePolicy,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.backend = backend
        self.policy = policy
        self.injector = injector

    def _fire_pre_faults(
        self,
        island,
        step_index: int,
        attempt: int,
        fault_stats: Callable[[], FaultStats],
    ) -> tuple:
        """Fire this site's faults; apply the ones that act before a sweep.

        Faults are keyed at the super-step's *base* step index: the
        super-step is the retry/replay unit, so a fault scheduled for any
        interior sub-step fires when the covering super-step executes.
        """
        fired = (
            self.injector.fire(step_index, island.index)
            if self.injector is not None
            else ()
        )
        if fired:
            apply_pre_faults(
                fired, fault_stats(), island.index, step_index, attempt,
                kill=self.backend.inject_kill,
                hang=self.backend.inject_hang,
            )
        return fired

    def _attempt(
        self,
        island,
        step_index: int,
        attempt: int,
        inputs: Mapping[str, object],
        out: np.ndarray,
        fault_stats: Callable[[], FaultStats],
        steps: int,
    ) -> IslandResult:
        fired = self._fire_pre_faults(island, step_index, attempt, fault_stats)
        begin = time.perf_counter() if self.backend.timed else 0.0
        result = self.backend.execute_island(island, inputs, out, steps)
        if self.backend.timed:
            result.seconds = time.perf_counter() - begin
        if fired:
            apply_post_faults(fired, fault_stats(), out[island.part.slices()])
        return result

    def _attempt_stage(
        self,
        island,
        stage_index: int,
        step_index: int,
        attempt: int,
        inputs: Mapping[str, object],
        fault_stats: Callable[[], FaultStats],
    ) -> IslandResult:
        fired = self._fire_pre_faults(island, step_index, attempt, fault_stats)
        begin = time.perf_counter() if self.backend.timed else 0.0
        result = self.backend.execute_island_stage(island, stage_index, inputs)
        if self.backend.timed:
            result.seconds = time.perf_counter() - begin
        if fired:
            view = self.backend.stage_view(island.index, stage_index)
            if view is not None:
                apply_post_faults(fired, fault_stats(), view)
        return result

    def _with_retries(
        self,
        island,
        step_index: int,
        attempt_fn: Callable[[int], IslandResult],
        fault_stats: Callable[[], FaultStats],
    ) -> IslandResult:
        """The retry loop: attempt, retry within budget, or raise.

        Each retry runs on fresh backend resources — a task that died
        mid-execution leaves its arena or workspace bookkeeping
        indeterminate — and sleeps the policy's exponential backoff
        first.  Raises :class:`IslandFailure` (chained to the last
        error) once the island has failed ``1 + max_retries`` times.
        """
        attempt = 0
        while True:
            try:
                result = attempt_fn(attempt)
            except Exception as error:
                attempt += 1
                stats = fault_stats()
                if isinstance(error, WorkerHung):
                    stats.hangs_detected += 1
                    stats.hang_detect_seconds += error.waited
                if attempt > self.policy.max_retries:
                    stats.islands_failed += 1
                    raise IslandFailure(
                        island.index, step_index, attempt, error
                    ) from error
                stats.retries += 1
                self.backend.refresh(island.index)
                quarantines, remapped = self.backend.health_events()
                stats.quarantines += quarantines
                stats.islands_remapped += remapped
                if self.policy.retry_backoff:
                    time.sleep(
                        self.policy.backoff_seconds(
                            island.index, step_index, attempt
                        )
                    )
            else:
                if attempt:
                    fault_stats().retry_successes += 1
                return result

    def run_island(
        self,
        island,
        step_index: int,
        inputs: Mapping[str, object],
        out: np.ndarray,
        fault_stats: Callable[[], FaultStats],
        steps: int = 1,
    ) -> IslandResult:
        """One island's super-step of ``steps`` time steps, retried in place.

        The backend advances the island ``steps`` sub-steps locally
        between syncs (``steps = 1`` is a plain whole step), and a retry
        replays the entire super-step — its inputs are the sync-point
        snapshot, so the replay is bit-identical.
        """
        return self._with_retries(
            island,
            step_index,
            lambda attempt: self._attempt(
                island, step_index, attempt, inputs, out, fault_stats,
                steps=steps,
            ),
            fault_stats,
        )

    def run_island_stage(
        self,
        island,
        stage_index: int,
        step_index: int,
        inputs: Mapping[str, object],
        fault_stats: Callable[[], FaultStats],
    ) -> IslandResult:
        """One island's single stage (exchange policy), retried in place.

        The retry replays only the failed stage: earlier stage buffers —
        including halo planes received from neighbours — are persistent
        backend state and remain valid, so the stage-granular retry keeps
        the same isolation the whole-step retry has under recompute.
        """
        return self._with_retries(
            island,
            step_index,
            lambda attempt: self._attempt_stage(
                island, stage_index, step_index, attempt, inputs, fault_stats
            ),
            fault_stats,
        )
