"""Tests for the stencil-program compiler (codegen)."""

import numpy as np
import pytest

from repro.mpdata import MpdataSolver, mpdata_program, random_state
from repro.stencil import (
    Access,
    ArrayRegion,
    Box,
    Field,
    FieldRole,
    Stage,
    StencilProgram,
    Workspace,
    compile_plan,
    compile_program,
    execute_plan,
    full_box,
    required_regions,
)


class TestCompileChain:
    def test_bit_exact_vs_interpreter(self, chain_program):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((18, 4, 4))
        inputs = {"x": ArrayRegion.wrap(x, lo=(-3, 0, 0))}
        target = Box((0, 0, 0), (12, 4, 4))
        plan = required_regions(chain_program, target)
        compiled = compile_plan(chain_program, plan)
        expected, _ = execute_plan(chain_program, plan, inputs)
        actual = compiled(inputs)
        np.testing.assert_array_equal(
            actual["y"].data, expected["y"].data
        )
        assert actual["y"].box == expected["y"].box

    def test_source_is_inspectable(self, chain_program):
        compiled = compile_program(chain_program, Box((0, 0, 0), (8, 4, 4)))
        assert "def _step(x):" in compiled.source
        assert "np.add" in compiled.source
        assert "# stage 3: s3 -> y" in compiled.source

    def test_keep_temporaries(self, chain_program):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((14, 4, 4))
        inputs = {"x": ArrayRegion.wrap(x, lo=(-3, 0, 0))}
        compiled = compile_program(chain_program, Box((0, 0, 0), (8, 4, 4)))
        results = compiled(inputs, keep_temporaries=True)
        assert set(results) == {"a", "b", "y"}

    def test_insufficient_input_rejected(self, chain_program):
        compiled = compile_program(chain_program, Box((0, 0, 0), (8, 4, 4)))
        small = {"x": ArrayRegion.wrap(np.zeros((8, 4, 4)))}
        with pytest.raises(ValueError, match="required"):
            compiled(small)

    def test_dtype_respected(self, chain_program):
        x = np.zeros((14, 4, 4), dtype=np.float32)
        inputs = {"x": ArrayRegion.wrap(x, lo=(-3, 0, 0))}
        compiled = compile_program(
            chain_program, Box((0, 0, 0), (8, 4, 4)), dtype=np.float32
        )
        assert compiled(inputs)["y"].data.dtype == np.float32


class TestCompileMpdata:
    def test_full_step_bit_exact(self, mpdata):
        shape = (16, 12, 8)
        solver = MpdataSolver(shape)
        state = random_state(shape, seed=5)
        inputs = solver.prepare_inputs(state)
        plan = required_regions(
            mpdata, solver.domain, domain=solver.extended_domain
        )
        compiled = compile_plan(mpdata, plan)
        expected, _ = execute_plan(mpdata, plan, inputs)
        actual = compiled(inputs)
        np.testing.assert_array_equal(
            actual["x_out"].data, expected["x_out"].data
        )

    def test_solver_compiled_flag(self):
        shape = (14, 10, 8)
        state = random_state(shape, seed=6)
        plain = MpdataSolver(shape).run(state, 3)
        fast = MpdataSolver(shape, compiled=True).run(state, 3)
        np.testing.assert_array_equal(plain, fast)

    def test_islands_compiled_flag(self):
        from repro.runtime import EngineConfig, MpdataIslandSolver

        shape = (14, 10, 8)
        state = random_state(shape, seed=7)
        plain = MpdataIslandSolver(shape, 3).run(state, 2)
        fast = MpdataIslandSolver(
            shape, 3, config=EngineConfig(backend="compiled", threads=3),
        ).run(state, 2)
        np.testing.assert_array_equal(plain, fast)

    def test_all_17_stages_in_source(self, mpdata):
        compiled = compile_program(mpdata, full_box((16, 16, 8)))
        for stage in mpdata.stages:
            assert f"-> {stage.output}" in compiled.source

    def test_clipped_plan_without_ghosts_rejected(self, mpdata):
        """Clipping to the bare domain leaves reads that escape the
        available data; compilation must fail loudly (the interpreter
        raises at run time; silent negative slices would wrap)."""
        domain = full_box((16, 16, 8))
        with pytest.raises(ValueError, match="ghost"):
            compile_program(mpdata, domain, domain=domain)


class TestWorkspaceGuards:
    def test_reset_drops_buffers_but_keeps_counters(self):
        ws = Workspace()
        ws.out("a", (4, 4))
        ws.scratch(0, (8,))
        ws.mask(0, (8,))
        assert ws.allocations == 3
        ws.reset()
        report = ws.capacity_report()
        assert report["buffers"] == 0
        assert report["total_bytes"] == 0
        assert ws.allocations == 3  # cumulative across resets
        ws.out("a", (4, 4))
        assert ws.allocations == 4  # fresh allocation, not a stale reuse

    def test_capacity_report_contents(self):
        ws = Workspace(max_elems=64)
        ws.out("y", (2, 3, 4))
        ws.scratch(1, (10,))
        report = ws.capacity_report()
        assert report["outputs"] == {"y": (2, 3, 4)}
        assert report["scratch_elems"] == {1: 10}
        assert report["buffers"] == 2
        assert report["total_bytes"] == (24 + 10) * 8
        assert report["max_elems"] == 64

    def test_sized_workspace_refuses_oversized_requests(self):
        ws = Workspace(max_elems=10)
        ws.out("a", (2, 5))  # exactly at the cap: fine
        with pytest.raises(ValueError, match="sized for 10"):
            ws.out("b", (11,))
        with pytest.raises(ValueError, match="sized for 10"):
            ws.scratch(0, (4, 4))
        with pytest.raises(ValueError, match="sized for 10"):
            ws.mask(0, (16,))

    def test_sized_workspace_pins_output_shapes(self):
        """A block-sized workspace must never silently hand back a stale
        buffer for a differently-shaped request — that is the aliasing
        bug the sizing exists to prevent."""
        ws = Workspace(max_elems=100)
        first = ws.out("y", (4, 5))
        again = ws.out("y", (4, 5))
        assert again is first
        with pytest.raises(ValueError, match="pinned"):
            ws.out("y", (5, 4))

    def test_unsized_workspace_still_reallocates_freely(self):
        ws = Workspace()
        first = ws.out("y", (4, 5))
        second = ws.out("y", (5, 4))
        assert second.shape == (5, 4)
        assert second is not first

    def test_compiled_plan_rejects_mismatched_workspace_dtype(self, chain_program):
        compiled = compile_program(
            chain_program, Box((0, 0, 0), (8, 4, 4)), dtype=np.float32
        )
        with pytest.raises(ValueError, match="dtype"):
            compiled.use_workspace(Workspace(np.float64))

    def test_stage_seconds_accumulate_when_timed(self, chain_program):
        target = Box((0, 0, 0), (8, 4, 4))
        plan = required_regions(chain_program, target)
        compiled = compile_plan(chain_program, plan, timed=True)
        x = np.random.default_rng(2).standard_normal((14, 4, 4))
        inputs = {"x": ArrayRegion.wrap(x, lo=(-3, 0, 0))}
        compiled(inputs)
        first = dict(compiled.stage_seconds)
        assert set(first) == {"s1", "s2", "s3"}
        compiled(inputs)
        second = compiled.stage_seconds
        assert all(second[name] >= first[name] for name in first)

    def test_untimed_plan_has_no_stage_seconds(self, chain_program):
        compiled = compile_program(chain_program, Box((0, 0, 0), (8, 4, 4)))
        assert compiled.timed is False
        assert compiled.stage_seconds is None


class TestCompileValidation:
    def test_reserved_field_name_rejected(self):
        program = StencilProgram.build(
            "bad",
            inputs=(Field("np", FieldRole.INPUT),),
            stages=(Stage("s", "y", Access("np")),),
            outputs=("y",),
        )
        with pytest.raises(ValueError, match="identifier"):
            compile_program(program, Box((0, 0, 0), (4, 4, 4)))

    def test_underscore_field_name_rejected(self):
        program = StencilProgram.build(
            "bad",
            inputs=(Field("_x", FieldRole.INPUT),),
            stages=(Stage("s", "y", Access("_x")),),
            outputs=("y",),
        )
        with pytest.raises(ValueError, match="identifier"):
            compile_program(program, Box((0, 0, 0), (4, 4, 4)))
