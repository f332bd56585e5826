"""Tests for numerical guards and checkpointed rollback-and-replay.

The acceptance bar: a fault-riddled run must finish with output
bit-identical to the fault-free run, and an interrupted run must resume
from its last checkpoint to the same final bits.
"""

import numpy as np
import pytest

from repro.mpdata import MpdataSolver, load_checkpoint, random_state
from repro.runtime import (
    EngineConfig,
    FaultInjector,
    FaultSpec,
    MpdataIslandSolver,
    NumericalHealthError,
    RecoveryPolicy,
    UnrecoverableRunError,
    check_step_health,
    run_with_recovery,
)

SHAPE = (16, 12, 8)


@pytest.fixture()
def state():
    return random_state(SHAPE, seed=33)


class TestCheckStepHealth:
    def test_clean_field_passes(self):
        assert check_step_health(np.ones((4, 4))) is None

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_detected(self, poison):
        x = np.ones((4, 4))
        x[2, 1] = poison
        assert check_step_health(x) == "non-finite value in field"

    def test_finite_check_can_be_disabled(self):
        x = np.full((4, 4), np.nan)
        assert check_step_health(x, check_finite=False) is None

    def test_mass_drift_guard(self):
        x = np.ones((4, 4))
        h = np.ones((4, 4))
        assert (
            check_step_health(x, h=h, initial_mass=16.0, mass_drift_limit=1e-9)
            is None
        )
        reason = check_step_health(
            x, h=h, initial_mass=15.0, mass_drift_limit=1e-9
        )
        assert reason is not None and "mass drift" in reason

    def test_mass_guard_requires_h_and_initial_mass(self):
        with pytest.raises(ValueError, match="requires"):
            check_step_health(np.ones(3), mass_drift_limit=1e-9)


class TestRecoveryPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(checkpoint_every=0),
            dict(keep_last=-1),
            dict(max_rollbacks=-1),
            dict(mass_drift_limit=0.0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryPolicy(**kwargs)


class TestRollbackAndReplay:
    def test_corruption_rolled_back_bit_identical(self, state):
        expected = MpdataSolver(SHAPE).run(state, 8)
        injector = FaultInjector([FaultSpec("corrupt", island=1, step=5)])
        with MpdataIslandSolver(
            SHAPE, 3, config=EngineConfig(reuse_output=True),
            fault_injector=injector,
        ) as solver:
            actual = solver.run(
                state, 8, recovery=RecoveryPolicy(checkpoint_every=3)
            )
            report = solver.last_recovery_report
        np.testing.assert_array_equal(actual, expected)
        assert report.guard_trips == 1
        assert report.rollbacks == 1
        # Corrupted at step 5 (0-based), last checkpoint after step 3:
        # steps 3..5 are replayed.
        assert report.replayed_steps == 2
        assert report.completed_steps == 8

    def test_exhausted_island_rolled_back(self, state):
        """A fault outliving the retry budget is caught one level up."""
        expected = MpdataSolver(SHAPE).run(state, 6)
        injector = FaultInjector(
            [FaultSpec("crash", island=0, step=4, attempts=2)]
        )
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(reuse_output=True, max_retries=1),
            fault_injector=injector,
        ) as solver:
            actual = solver.run(
                state, 6, recovery=RecoveryPolicy(checkpoint_every=2)
            )
            report = solver.last_recovery_report
        np.testing.assert_array_equal(actual, expected)
        assert report.fault_stats.islands_failed == 1
        assert report.rollbacks == 1

    def test_mass_drift_guard_trips_and_recovers(self, state):
        # An injected finite-but-wrong value slips past the NaN check;
        # the mass guard catches it.
        expected = MpdataSolver(SHAPE).run(state, 5)
        injector = FaultInjector(
            [FaultSpec("corrupt", island=0, step=2, value=1e9)]
        )
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(reuse_output=True),
            fault_injector=injector,
        ) as solver:
            actual = solver.run(
                state,
                5,
                recovery=RecoveryPolicy(
                    checkpoint_every=2, mass_drift_limit=1.0
                ),
            )
            report = solver.last_recovery_report
        np.testing.assert_array_equal(actual, expected)
        assert report.guard_trips == 1

    def test_rollback_budget_exhaustion_raises(self, state):
        injector = FaultInjector(
            [FaultSpec("crash", island=0, step=3, attempts=999)]
        )
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(reuse_output=True, max_retries=1),
            fault_injector=injector,
        ) as solver:
            with pytest.raises(UnrecoverableRunError) as excinfo:
                solver.run(
                    state,
                    6,
                    recovery=RecoveryPolicy(
                        checkpoint_every=2, max_rollbacks=2
                    ),
                )
            report = solver.last_recovery_report
        assert excinfo.value.failed_step == 3
        assert excinfo.value.checkpoint_step == 2
        assert report.rollbacks == 2
        assert report.completed_steps == 2  # the last good step

    def test_clean_run_reports_clean(self, state):
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(reuse_output=True),
        ) as solver:
            expected = MpdataSolver(SHAPE).run(state, 4)
            actual = solver.run(
                state, 4, recovery=RecoveryPolicy(checkpoint_every=2)
            )
            report = solver.last_recovery_report
        np.testing.assert_array_equal(actual, expected)
        assert report.clean
        assert "clean run" in report.render()

    def test_clean_run_with_guards_stays_allocation_free(self, state):
        """Guards and checkpoints never touch the runner's zero-alloc path."""
        with MpdataIslandSolver(
            SHAPE, 3, config=EngineConfig(reuse_output=True, max_retries=2),
        ) as solver:
            solver.run(
                state, 5, recovery=RecoveryPolicy(checkpoint_every=2)
            )
            assert solver.last_step_stats.allocations == 0


class TestAcceptance50Steps:
    def test_faults_in_two_islands_per_step_bit_identical(self, state):
        """ISSUE acceptance: faults in <= 2 islands per step, 50 steps,
        final output bit-identical to the fault-free run."""
        steps = 50
        with MpdataIslandSolver(
            SHAPE, 4, config=EngineConfig(reuse_output=True),
        ) as clean:
            expected = np.array(clean.run(state, steps), copy=True)

        specs = []
        for step in range(0, steps, 5):  # two faulted islands every 5 steps
            specs.append(FaultSpec("crash", island=step % 4, step=step))
            specs.append(
                FaultSpec("corrupt", island=(step + 2) % 4, step=step)
            )
        injector = FaultInjector(specs)
        with MpdataIslandSolver(
            SHAPE, 4, config=EngineConfig(reuse_output=True, max_retries=2),
            fault_injector=injector,
        ) as solver:
            actual = solver.run(
                state,
                steps,
                recovery=RecoveryPolicy(
                    checkpoint_every=5, max_rollbacks=steps
                ),
            )
            report = solver.last_recovery_report
        np.testing.assert_array_equal(actual, expected)
        assert report.completed_steps == steps
        assert report.fault_stats.injected_crashes == 10
        assert report.fault_stats.injected_corruptions == 10
        assert report.fault_stats.retry_successes == 10
        assert report.guard_trips == 10


class TestCheckpointedCrashResume:
    """Satellite: kill a run mid-flight, resume from the last checkpoint,
    and land on bit-identical final state versus an unbroken run."""

    def test_resume_after_crash_is_bit_identical(self, state, tmp_path):
        steps = 20
        with MpdataIslandSolver(
            SHAPE, 3, config=EngineConfig(reuse_output=True),
        ) as clean:
            unbroken = np.array(clean.run(state, steps), copy=True)

        # A persistent fault at step 13 kills the run (no retries, no
        # rollbacks): the process "dies" mid-flight.
        injector = FaultInjector(
            [FaultSpec("crash", island=1, step=13, attempts=999)]
        )
        with MpdataIslandSolver(
            SHAPE, 3, config=EngineConfig(reuse_output=True),
            fault_injector=injector,
        ) as doomed:
            with pytest.raises(UnrecoverableRunError) as excinfo:
                doomed.run(
                    state,
                    steps,
                    recovery=RecoveryPolicy(
                        checkpoint_every=4,
                        checkpoint_dir=tmp_path,
                        max_rollbacks=0,
                    ),
                )
        assert excinfo.value.checkpoint_step == 12
        checkpoint = load_checkpoint(excinfo.value.checkpoint_path)
        assert checkpoint.step == 12

        # A fresh solver (fresh process, conceptually) resumes from disk.
        with MpdataIslandSolver(
            SHAPE, 3, config=EngineConfig(reuse_output=True),
        ) as resumed:
            final = resumed.run(checkpoint.state, steps - checkpoint.step)
        np.testing.assert_array_equal(final, unbroken)

    def test_disk_checkpoints_pruned_to_keep_last(self, state, tmp_path):
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(reuse_output=True),
        ) as solver:
            solver.run(
                state,
                12,
                recovery=RecoveryPolicy(
                    checkpoint_every=2,
                    checkpoint_dir=tmp_path,
                    keep_last=2,
                ),
            )
            report = solver.last_recovery_report
        remaining = sorted(p.name for p in tmp_path.glob("*.npz"))
        assert len(remaining) == 2
        assert report.checkpoints_written == 6  # 0, 2, 4, 6, 8, 10
        assert report.last_checkpoint_path.name in remaining


class TestRunWithRecoveryDirect:
    def test_rejects_negative_steps(self, state):
        with MpdataIslandSolver(SHAPE, 2) as solver:
            with pytest.raises(ValueError, match="non-negative"):
                run_with_recovery(solver, state, -1, RecoveryPolicy())

    def test_zero_steps_returns_initial_field(self, state):
        with MpdataIslandSolver(SHAPE, 2) as solver:
            final, report = run_with_recovery(
                solver, state, 0, RecoveryPolicy()
            )
        np.testing.assert_array_equal(final, state.x)
        assert report.completed_steps == 0
        assert report.clean

    def test_guard_trip_without_rollback_budget(self, state):
        injector = FaultInjector([FaultSpec("corrupt", island=0, step=1)])
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(reuse_output=True),
            fault_injector=injector,
        ) as solver:
            with pytest.raises(UnrecoverableRunError) as excinfo:
                solver.run(
                    state,
                    4,
                    recovery=RecoveryPolicy(max_rollbacks=0),
                )
        assert isinstance(excinfo.value.__cause__, NumericalHealthError)
