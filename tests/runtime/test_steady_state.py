"""Tests for the steady-state execution engine in the partitioned runtime.

Covers the persistent resources (thread pool, ghost buffers, output array,
per-island arenas), the per-step allocation counters, the lifecycle API,
and the tier-1 smoke run of the steady-state benchmark.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from repro.mpdata import MpdataSolver, random_state
from repro.runtime import (
    EngineConfig,
    MpdataIslandSolver,
    PartitionedRunner,
    measure_steady_state,
    verify_islands,
)
from repro.mpdata import mpdata_program

SHAPE = (16, 12, 8)


@pytest.fixture()
def state():
    return random_state(SHAPE, seed=33)


def _arrays(state):
    return {
        "x": state.x, "u1": state.u1, "u2": state.u2,
        "u3": state.u3, "h": state.h,
    }


class TestZeroAllocationSteadyState:
    @pytest.mark.parametrize("compiled", [False, True])
    def test_zero_allocations_after_warmup(self, state, compiled):
        with PartitionedRunner(
            mpdata_program(), SHAPE, islands=3,
            config=EngineConfig(
                backend="compiled" if compiled else "interpreter",
                reuse_buffers=True, reuse_output=True,
            ),
        ) as runner:
            arrays = _arrays(state)
            arrays["x"] = runner.step(arrays)  # warm-up allocates everything
            assert runner.last_step_stats.allocations > 0
            for _ in range(3):
                arrays["x"] = runner.step(arrays, changed={"x"})
                stats = runner.last_step_stats
                assert stats.allocations == 0
                assert stats.reused > 0

    def test_threaded_steady_state_zero_allocations(self, state):
        with PartitionedRunner(
            mpdata_program(), SHAPE, islands=4,
            config=EngineConfig(
                threads=4, reuse_buffers=True, reuse_output=True,
            ),
        ) as runner:
            arrays = _arrays(state)
            arrays["x"] = runner.step(arrays)
            arrays["x"] = runner.step(arrays, changed={"x"})
            assert runner.last_step_stats.allocations == 0

    def test_naive_mode_allocates_every_step(self, state):
        with PartitionedRunner(
            mpdata_program(), SHAPE, islands=2,
            config=EngineConfig(reuse_buffers=False),
        ) as runner:
            arrays = _arrays(state)
            for _ in range(2):
                arrays["x"] = runner.step(arrays)
                stats = runner.last_step_stats
                # 5 ghost extensions + 1 output + per-island stage storage.
                assert stats.ghost_allocations == 5
                assert stats.output_allocations == 1
                assert stats.stage_allocations > 0

    def test_reuse_output_returns_same_buffer(self, state):
        with PartitionedRunner(
            mpdata_program(), SHAPE, islands=2,
            config=EngineConfig(reuse_buffers=True, reuse_output=True),
        ) as runner:
            first = runner.step(_arrays(state))
            second = runner.step(_arrays(state), changed={"x"})
            assert first is second


class TestBitIdentity:
    @pytest.mark.parametrize("compiled", [False, True])
    def test_engine_matches_whole_domain(self, state, compiled):
        expected = MpdataSolver(SHAPE).run(state, 3)
        with MpdataIslandSolver(
            SHAPE, 3,
            config=EngineConfig(
                backend="compiled" if compiled else "interpreter",
                reuse_buffers=True, reuse_output=True,
            ),
        ) as solver:
            actual = solver.run(state, 3)
        np.testing.assert_array_equal(actual, expected)

    def test_engine_matches_naive_runner(self, state):
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(reuse_buffers=False),
        ) as naive:
            expected = naive.run(state, 2)
        with MpdataIslandSolver(
            SHAPE, 2,
            config=EngineConfig(reuse_buffers=True, reuse_output=True),
        ) as engine:
            actual = engine.run(state, 2)
        np.testing.assert_array_equal(actual, expected)

    def test_verify_islands_engine_configurations(self, state):
        for compiled in (False, True):
            result = verify_islands(
                SHAPE, state, islands=3, steps=2, compiled=compiled,
                reuse_buffers=True, reuse_output=True,
            )
            assert result.bit_exact

    def test_changed_hint_is_bit_identical_to_full_refill(self, state):
        with PartitionedRunner(
            mpdata_program(), SHAPE, islands=2,
            config=EngineConfig(reuse_buffers=True),
        ) as hinted, PartitionedRunner(
            mpdata_program(), SHAPE, islands=2,
            config=EngineConfig(reuse_buffers=True),
        ) as refilled:
            arrays_a = _arrays(state)
            arrays_b = _arrays(state)
            arrays_a["x"] = hinted.step(arrays_a)
            arrays_b["x"] = refilled.step(arrays_b)
            for _ in range(2):
                arrays_a["x"] = hinted.step(arrays_a, changed={"x"})
                arrays_b["x"] = refilled.step(arrays_b)  # refills all 5
            np.testing.assert_array_equal(arrays_a["x"], arrays_b["x"])


class TestLifecycle:
    def test_close_is_idempotent_and_context_manager(self, state):
        runner = PartitionedRunner(
            mpdata_program(), SHAPE, islands=2, config=EngineConfig(threads=2),
        )
        runner.step(_arrays(state))
        assert runner._pool is not None  # pool persisted across the call
        runner.close()
        runner.close()
        assert runner._pool is None

    def test_threaded_step_after_close_rejected(self, state):
        runner = PartitionedRunner(
            mpdata_program(), SHAPE, islands=2, config=EngineConfig(threads=2),
        )
        runner.close()
        with pytest.raises(RuntimeError, match="closed"):
            runner.step(_arrays(state))

    def test_solver_context_manager_closes_runner(self, state):
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(threads=2),
        ) as solver:
            solver.run(state, 2)
            pool = solver.runner._pool
            assert pool is not None
        assert solver.runner._pool is None

    def test_sequential_runner_never_builds_pool(self, state):
        with PartitionedRunner(mpdata_program(), SHAPE, islands=2) as runner:
            runner.step(_arrays(state))
            assert runner._pool is None

    def test_run_validates_state_once(self, state, monkeypatch):
        calls = {"n": 0}
        original = type(state).validate

        def counting_validate(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(type(state), "validate", counting_validate)
        with MpdataIslandSolver(SHAPE, 2) as solver:
            solver.run(state, 3)
        assert calls["n"] == 1


class TestSteadyStateBenchmarkSmoke:
    """Tier-1 smoke wiring of benchmarks/bench_steady_state.py."""

    def _load_bench(self):
        path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "bench_steady_state.py"
        )
        spec = importlib.util.spec_from_file_location("bench_steady_state", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_smoke_run_meets_acceptance(self):
        bench = self._load_bench()
        reports = bench.run(smoke=True)
        for report in reports.values():
            assert report.bit_identical
            assert report.modes["engine"]["allocations_per_step"] == 0.0
            # >= 2x fewer allocations per steady-state step (here: inf).
            assert report.allocation_ratio >= 2.0

    def test_measure_writes_json(self, tmp_path):
        bench = self._load_bench()
        target = tmp_path / "BENCH_steady_state.json"
        bench.run(smoke=True, json_path=target)
        import json

        payload = json.loads(target.read_text())
        assert set(payload) == {"interpreted", "compiled"}
        for entry in payload.values():
            assert entry["bit_identical"] is True
            assert entry["modes"]["engine"]["allocations_per_step"] == 0.0
            # Infinite ratio (zero engine allocations) serializes as null.
            assert entry["allocation_ratio"] is None

    def test_measure_steady_state_smoke(self):
        report = measure_steady_state(shape=(24, 16, 8), steps=2, islands=2)
        assert report.bit_identical
        assert report.allocation_ratio >= 2.0
