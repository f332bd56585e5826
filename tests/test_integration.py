"""End-to-end integration: one walk through the whole public API.

Beyond per-module tests, these assert *cross-module consistency* — the
same quantity reached through different doors must agree: the recommender
vs the table-3 driver, decompose() vs the Table 2 accounting, timeline
totals vs simulation totals, flop counts vs sustained Gflop/s, functional
stats vs analytic plans.
"""

import numpy as np
import pytest

from repro import paperdata
from repro.analysis import timeline_report
from repro.core import Variant, decompose, recommend, redundancy_report, partition_domain
from repro.experiments import ExperimentSetup, table2, table3, table4
from repro.machine import simulate, sgi_uv2000, uv2000_costs
from repro.mpdata import MpdataSolver, mpdata_program, random_state
from repro.runtime import EngineConfig, MpdataIslandSolver
from repro.sched import build_islands_plan
from repro.stencil import (
    execute_plan,
    full_box,
    plan_flops,
    program_arith_flops_per_point,
    required_regions,
)


@pytest.fixture(scope="module")
def env():
    return mpdata_program(), sgi_uv2000(), uv2000_costs()


class TestCrossModuleConsistency:
    def test_recommender_agrees_with_table3(self, env):
        """recommend()'s islands-1D-A prediction is exactly the Table 3
        driver's islands time at the same P."""
        program, machine, costs = env
        setup = ExperimentSetup.paper(processors=(14,))
        t3 = table3.run(setup)
        ranked = recommend(
            program, paperdata.GRID_SHAPE, paperdata.TIME_STEPS, 14,
            machine, costs,
        )
        one_d_a = next(c for c in ranked if c.label == "islands 1D-A")
        assert one_d_a.predicted_seconds == pytest.approx(
            t3.islands_model[0], rel=1e-12
        )

    def test_decompose_agrees_with_table2(self, env):
        """The islands executor's decomposition and the Table 2 driver
        count the same redundancy."""
        program, _, _ = env
        domain = full_box(paperdata.GRID_SHAPE)
        decomposition = decompose(program, domain, 8, Variant.A)
        t2 = table2.run()
        assert decomposition.redundancy().extra_percent == pytest.approx(
            t2.variant_a_model[7], rel=1e-12
        )

    def test_timeline_total_matches_simulation(self, env):
        program, machine, costs = env
        result = simulate(
            build_islands_plan(
                program, paperdata.GRID_SHAPE, 50, 14, machine, costs
            )
        )
        report = timeline_report(result)
        assert report.total_seconds == pytest.approx(result.total_seconds)
        assert sum(
            row.total_seconds for row in report.rows
        ) == pytest.approx(result.total_seconds, rel=1e-9)

    def test_sustained_gflops_equals_flops_over_time(self, env):
        """Table 4's sustained column is exactly plan flops / plan time."""
        program, machine, costs = env
        setup = ExperimentSetup.paper(processors=(14,))
        t4 = table4.run(setup)
        plan = build_islands_plan(
            program, paperdata.GRID_SHAPE, paperdata.TIME_STEPS, 14,
            machine, costs,
        )
        result = simulate(plan)
        assert t4.sustained_model[0] == pytest.approx(
            plan.total_flops / result.total_seconds / 1e9, rel=1e-9
        )

    def test_plan_flops_match_functional_execution(self, env):
        """The analytic flop count of an island's halo plan equals what the
        interpreter actually executes for that plan."""
        program, _, _ = env
        shape = (24, 16, 8)
        solver = MpdataSolver(shape)
        state = random_state(shape, seed=55)
        inputs = solver.prepare_inputs(state)
        plan = required_regions(
            program, solver.domain, domain=solver.extended_domain
        )
        _, stats = execute_plan(program, plan, inputs)
        expected = plan_flops(program, plan)  # all-ops convention
        assert stats.flops == expected

    def test_islands_flops_budget_consistent(self, env):
        """Plan-level total flops equal per-point flops times points plus
        the redundancy surplus."""
        program, machine, costs = env
        shape = paperdata.GRID_SHAPE
        plan = build_islands_plan(program, shape, 1, 14, machine, costs)
        points = full_box(shape).size
        base = program_arith_flops_per_point(program) * points
        report = redundancy_report(
            program, partition_domain(full_box(shape), 14, Variant.A)
        )
        # Redundant points carry stage-dependent flops, so the surplus is
        # bounded by the extra-point fraction scaled by the heaviest and
        # lightest stages; a coarse band suffices as a consistency net.
        surplus = plan.total_flops / base - 1.0
        assert 0.0 < surplus < 3 * report.extra_percent / 100.0


class TestEndToEndStory:
    def test_the_whole_pipeline(self, env):
        """The README story, executed: solve, verify, account, simulate,
        recommend — all consistent on one configuration."""
        program, machine, costs = env
        shape = (32, 24, 8)
        state = random_state(shape, seed=2017)

        # 1. Functional: whole-domain vs threaded islands, bit-exact.
        whole = MpdataSolver(shape, compiled=True).run(state, 3)
        split = MpdataIslandSolver(
            shape, 4, config=EngineConfig(backend="compiled", threads=4),
        ).run(state, 3)
        np.testing.assert_array_equal(whole, split)

        # 2. Physics invariants.
        assert whole.min() >= 0.0
        assert (state.h * whole).sum() == pytest.approx(
            (state.h * state.x).sum(), rel=1e-11
        )

        # 3. Accounting: redundancy small and positive at 4 islands.
        decomposition = decompose(program, full_box(shape), 4, Variant.A)
        extra = decomposition.redundancy().extra_percent
        assert 0.0 < extra < 50.0

        # 4. Model: islands beat the alternatives on the paper machine.
        ranked = recommend(program, (1024, 512, 64), 50, 14, machine, costs)
        assert ranked[0].label.startswith("islands")
