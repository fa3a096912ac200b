"""Unit tests for the stage-graph core (graphs, plans, compiled routing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError
from repro.sim.batched import BatchedEDN, CompiledStageRouter
from repro.sim.plan import (
    clear_plan_cache,
    compile_stage_plan,
    stage_plan_for,
)
from repro.sim.rng import make_rng, spawn
from repro.sim.stagegraph import (
    GraphStage,
    StageGraph,
    StageGraphReference,
    delta_graph,
    dilated_graph,
    edn_graph,
    materialize_permutation,
    omega_graph,
)

ALL_GRAPHS = [
    pytest.param(edn_graph(EDNParams(16, 4, 4, 2)), id="edn:16,4,4,2"),
    pytest.param(edn_graph(EDNParams(8, 2, 4, 3)), id="edn:8,2,4,3"),
    pytest.param(delta_graph(4, 4, 3), id="delta:4,4,3"),
    pytest.param(delta_graph(8, 2, 2), id="delta:8,2,2"),
    pytest.param(omega_graph(64), id="omega:64"),
    pytest.param(dilated_graph(4, 4, 3, 2), id="dilated:4,4,3,2"),
    pytest.param(dilated_graph(2, 2, 5, 4), id="dilated:2,2,5,4"),
]


class TestBuilders:
    def test_edn_graph_structure(self):
        params = EDNParams(16, 4, 4, 2)
        graph = edn_graph(params)
        assert graph.num_stages == params.l + 1  # hyperbars + crossbar column
        assert graph.stage_widths == tuple(
            params.wires_after_stage(i) for i in range(params.l + 1)
        )
        crossbar = graph.stages[-1]
        assert (crossbar.fan_in, crossbar.radix, crossbar.capacity) == (4, 4, 1)
        assert graph.out_shift == 0 and graph.input_perm is None

    def test_delta_graph_is_the_c1_edn(self):
        delta = delta_graph(4, 4, 3)
        edn = edn_graph(EDNParams(4, 4, 1, 3))
        assert delta.stages == edn.stages
        assert delta.label == "delta:4,4,3"

    def test_omega_graph_carries_the_input_shuffle(self):
        graph = omega_graph(16)
        assert graph.input_perm == ("rotl", 4, 1)
        table = materialize_permutation(graph.input_perm)
        assert sorted(table.tolist()) == list(range(16))
        assert table[1] == 2  # one-bit left rotation of 0001 -> 0010

    def test_dilated_graph_widths_and_lanes(self):
        graph = dilated_graph(4, 4, 3, 2)
        # Bundles are d wide everywhere downstream of stage 1.
        assert graph.stage_widths == (64, 128, 128)
        assert graph.out_shift == 1
        assert graph.stages[0].fan_in == 4 and graph.stages[1].fan_in == 8
        assert all(stage.capacity == 2 for stage in graph.stages)

    def test_dilated_one_has_no_lanes(self):
        graph = dilated_graph(4, 4, 2, 1)
        assert graph.out_shift == 0
        assert graph.stages[0].capacity == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: omega_graph(12),
            lambda: omega_graph(1),
            lambda: dilated_graph(3, 4, 2, 2),
            lambda: dilated_graph(4, 4, 0, 2),
            lambda: dilated_graph(4, 1, 2, 2),
            lambda: GraphStage(3, 2, 1, 0),
        ],
    )
    def test_invalid_parameters_rejected(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_inconsistent_graph_rejected(self):
        with pytest.raises(ConfigurationError, match="final bucket space"):
            StageGraph(
                label="bogus",
                n_inputs=8,
                n_outputs=16,
                stages=(GraphStage(2, 2, 1, 0),),
            )
        with pytest.raises(ConfigurationError, match="no outgoing links"):
            StageGraph(
                label="bogus",
                n_inputs=4,
                n_outputs=4,
                stages=(GraphStage(2, 2, 1, 0, link_perm=("rotl", 2, 1)),),
            )

    @pytest.mark.parametrize("graph", ALL_GRAPHS)
    def test_link_tables_are_permutations(self, graph):
        plan = compile_stage_plan(graph)
        for i, stage in enumerate(graph.stages):
            table = plan.perm_table(i, np.int64)
            if stage.link_perm is None:
                assert table is None
            else:
                assert sorted(table.tolist()) == list(range(table.size))


class TestStagePlan:
    def test_batched_edn_runs_on_the_edn_graph_plan(self):
        params = EDNParams(16, 4, 4, 2)
        plan = BatchedEDN(params)._plan
        assert plan is stage_plan_for(edn_graph(params))
        assert [stage.shift for stage in plan.graph.stages] == [4, 2, 0]
        assert plan.perm_table(0, np.int16).dtype == np.int16

    @pytest.mark.parametrize("graph", ALL_GRAPHS)
    def test_plan_cache_round_trip(self, graph):
        clear_plan_cache()
        plan = stage_plan_for(graph)
        assert stage_plan_for(graph) is plan
        assert stage_plan_for(graph, "random") is not plan

    def test_wire_dtype_covers_the_lane_expanded_output_space(self):
        plan = compile_stage_plan(dilated_graph(4, 4, 3, 2))
        assert plan.wire_dtype == np.dtype(np.int16)
        widest = max(plan.stage_widths)
        assert np.iinfo(plan.wire_dtype).max >= widest

    def test_stage_base_rows(self):
        graph = dilated_graph(4, 4, 2, 2)
        plan = compile_stage_plan(graph)
        row = plan.stage_base(0, np.int64)
        # Wire w of switch s maps to base s * b * d - 1.
        assert row[0] == -1 and row[4] == 7 and row.size == 16

    def test_edn_and_graph_plans_never_alias(self):
        clear_plan_cache()
        edn_plan = stage_plan_for(edn_graph(EDNParams(4, 4, 1, 3)))
        graph_plan = stage_plan_for(delta_graph(4, 4, 3))
        assert edn_plan is not graph_plan


class TestReferenceInterpreter:
    @pytest.mark.parametrize("graph", ALL_GRAPHS)
    @pytest.mark.parametrize("priority", ["label", "random"])
    def test_compiled_router_matches_interpreter(self, graph, priority):
        compiled = CompiledStageRouter(graph, priority=priority)
        reference = StageGraphReference(graph, priority=priority)
        rng = make_rng(5)
        demands = rng.integers(-1, graph.n_outputs, size=(8, graph.n_inputs))
        rngs = spawn(3, 8)
        result = compiled.route_batch(demands, rngs if priority == "random" else None)
        fresh = spawn(3, 8)
        for i, row in enumerate(demands):
            expected = reference.route(
                row, fresh[i] if priority == "random" else None
            )
            np.testing.assert_array_equal(result.output[i], expected.output)
            np.testing.assert_array_equal(
                result.blocked_stage[i], expected.blocked_stage
            )

    def test_interpreter_validates_inputs(self):
        from repro.core.exceptions import LabelError

        reference = StageGraphReference(delta_graph(2, 2, 2))
        with pytest.raises(LabelError):
            reference.route(np.zeros(3, dtype=np.int64))
        bad = np.zeros(4, dtype=np.int64)
        bad[0] = 99
        with pytest.raises(LabelError):
            reference.route(bad)
        with pytest.raises(ConfigurationError):
            StageGraphReference(delta_graph(2, 2, 2), priority="random").route(
                np.zeros(4, dtype=np.int64)
            )

    def test_lone_message_always_lands_everywhere(self):
        for graph_param in ALL_GRAPHS:
            graph = graph_param.values[0]
            router = CompiledStageRouter(graph)
            demands = np.full(graph.n_inputs, -1, dtype=np.int64)
            demands[0] = graph.n_outputs - 1
            result = router.route(demands)
            assert result.output[0] == graph.n_outputs - 1
            assert result.blocked_stage[0] == 0
