"""Buffered stage graphs on the compiled core: identity, equivalence, guards.

Three layers of pinning for the buffered packet-switched path:

* **bit-identity** — :class:`CompiledStageRouter` with a ``buffer_depth``
  must agree cycle for cycle, array for array, with the independent
  per-packet :class:`BufferedStageReference` interpreter across every
  topology family, priority discipline, depth, and seed;
* **steady-state equivalence** — ``measure_buffered`` on the EDN reports
  exactly the same throughput, latency and occupancy from both engines,
  at saturation and at light load;
* **conservation & guards** — packets are never created or destroyed,
  and misuse (buffered faults, stepping an unbuffered router, random
  priority without an rng) fails loudly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError
from repro.core.faults import WireFault
from repro.sim.batched import CompiledStageRouter
from repro.sim.buffered import measure_buffered
from repro.sim.plan import StagePlan, stage_plan_for
from repro.sim.rng import make_rng
from repro.sim.stagegraph import (
    BufferedStageReference,
    delta_graph,
    dilated_graph,
    edn_graph,
    omega_graph,
)

FAMILIES = [
    ("edn", edn_graph(EDNParams(4, 2, 2, 2))),
    ("delta", delta_graph(2, 2, 3)),
    ("omega", omega_graph(8)),
    ("dilated", dilated_graph(2, 2, 3, d=2)),
]


def _demand_stream(n_inputs, n_outputs, cycles, rate, seed):
    """A pre-drawn demand matrix so both engines see identical traffic."""
    rng = np.random.default_rng(seed + 977)
    dests = rng.integers(0, n_outputs, size=(cycles, n_inputs))
    live = rng.random((cycles, n_inputs)) < rate
    return np.where(live, dests, -1)


class TestBitIdentity:
    @pytest.mark.parametrize("family,graph", FAMILIES, ids=[f[0] for f in FAMILIES])
    @pytest.mark.parametrize("priority", ["label", "random"])
    @pytest.mark.parametrize("depth", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_reference_matches_compiled(self, family, graph, priority, depth, seed):
        cycles = 40
        demands = _demand_stream(graph.n_inputs, graph.n_outputs, cycles, 0.7, seed)
        reference = BufferedStageReference(graph, depth=depth, priority=priority)
        compiled = CompiledStageRouter(graph, priority=priority, buffer_depth=depth)
        rng_ref, rng_cmp = make_rng(seed), make_rng(seed)
        for cycle in range(cycles):
            a = reference.step(demands[cycle], rng_ref)
            b = compiled.step(demands[cycle], rng_cmp)
            np.testing.assert_array_equal(a.outputs, b.outputs)
            np.testing.assert_array_equal(a.latencies, b.latencies)
            assert (a.offered, a.injected) == (b.offered, b.injected)
            assert reference.total_occupancy() == compiled.total_occupancy()

    def test_min_latency_is_stage_count(self):
        # An uncontended packet traverses one stage per cycle.
        graph = delta_graph(2, 2, 3)
        reference = BufferedStageReference(graph, depth=2)
        compiled = CompiledStageRouter(graph, buffer_depth=2)
        one = np.full(graph.n_inputs, -1, dtype=np.int64)
        one[0] = 5
        idle = np.full(graph.n_inputs, -1, dtype=np.int64)
        for router in (reference, compiled):
            outcomes = [router.step(one)] + [
                router.step(idle) for _ in range(len(graph.stages) + 1)
            ]
            delivered = [o for o in outcomes if o.delivered]
            assert len(delivered) == 1
            assert delivered[0].outputs.tolist() == [5]
            assert delivered[0].latencies.tolist() == [len(graph.stages)]

    def test_measure_buffered_engines_agree_exactly(self):
        graph = edn_graph(EDNParams(4, 2, 2, 2))
        kw = dict(traffic="uniform:0.8", depth=2, cycles=120, warmup=30, seed=3)
        fast = measure_buffered(graph, engine="compiled", **kw)
        slow = measure_buffered(graph, engine="reference", **kw)
        assert fast.injected == slow.injected
        assert fast.delivered == slow.delivered
        assert fast.throughput == slow.throughput
        assert fast.mean_latency == slow.mean_latency
        assert fast.total_occupancy == slow.total_occupancy
        assert fast.num_queues == slow.num_queues


class TestSteadyStateEquivalence:
    """Both ``measure_buffered`` engines report the same steady state."""

    @staticmethod
    def _both(rate, depth, cycles, warmup, seed):
        return [
            measure_buffered(
                edn_graph(EDNParams(16, 4, 4, 2)),
                traffic=f"uniform:{rate}",
                depth=depth,
                cycles=cycles,
                warmup=warmup,
                seed=seed,
                engine=engine,
            )
            for engine in ("compiled", "reference")
        ]

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_edn_throughput_and_latency_match(self, depth):
        core, reference = self._both(1, depth, 1200, 300, 0)
        assert core.throughput == reference.throughput
        assert core.mean_latency == reference.mean_latency
        assert core.mean_occupancy == reference.mean_occupancy
        assert core.in_flight == reference.in_flight

    def test_light_load_both_deliver_everything(self):
        core, reference = self._both(0.1, 2, 600, 150, 1)
        assert core.throughput == reference.throughput
        assert core.throughput == pytest.approx(0.1, abs=0.02)


class TestConservation:
    @pytest.mark.parametrize("family,graph", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_injected_equals_delivered_plus_in_flight(self, family, graph):
        m = measure_buffered(
            graph, traffic="uniform:0.9", depth=2, cycles=150, warmup=0, seed=0
        )
        assert m.injected == m.delivered + m.in_flight
        assert 0 <= m.injected <= m.offered

    def test_occupancy_bounded_by_depth(self):
        graph = edn_graph(EDNParams(4, 2, 2, 2))
        depth = 3
        m = measure_buffered(
            graph, traffic="uniform:1", depth=depth, cycles=200, warmup=50, seed=2
        )
        assert 0.0 < m.mean_occupancy <= depth


class TestPlanCacheKeying:
    def test_buffer_depth_distinguishes_plans(self):
        graph = delta_graph(2, 2, 3)
        unbuffered = stage_plan_for(graph)
        shallow = stage_plan_for(graph, buffer_depth=1)
        deep = stage_plan_for(graph, buffer_depth=4)
        assert len({unbuffered.key, shallow.key, deep.key}) == 3
        assert stage_plan_for(graph, buffer_depth=1) is shallow

    def test_unbuffered_key_shape_unchanged(self):
        # Pre-existing cache entries must not be invalidated by the new field.
        graph = delta_graph(2, 2, 3)
        assert len(stage_plan_for(graph).key) == 3


class TestGuards:
    def test_rejects_zero_depth(self):
        with pytest.raises(ConfigurationError):
            StagePlan(delta_graph(2, 2, 3), buffer_depth=0)

    def test_buffered_faults_compile_and_validate_up_front(self):
        # Buffered fault masks are supported (tests/sim/test_faulted_buffered
        # pins the semantics); a fault naming a wire the graph does not
        # have still fails loudly at plan-construction time.
        graph = edn_graph(EDNParams(4, 2, 2, 2))
        plan = StagePlan(graph, faults=(WireFault(1, 0, 0),), buffer_depth=2)
        assert plan.fault_dead_slots(0) is not None
        with pytest.raises(ConfigurationError):
            StagePlan(graph, faults=(WireFault(99, 0, 0),), buffer_depth=2)

    def test_step_requires_buffered_router(self):
        router = CompiledStageRouter(delta_graph(2, 2, 3))
        with pytest.raises(ConfigurationError, match="buffer_depth"):
            router.step(np.full(8, -1, dtype=np.int64))

    def test_random_priority_requires_rng(self):
        graph = delta_graph(2, 2, 3)
        dests = np.zeros(8, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            BufferedStageReference(graph, priority="random").step(dests)
        with pytest.raises(ConfigurationError):
            CompiledStageRouter(graph, priority="random", buffer_depth=1).step(dests)

    def test_measure_buffered_validates(self):
        graph = delta_graph(2, 2, 3)
        with pytest.raises(ConfigurationError):
            measure_buffered(graph, cycles=0)
        with pytest.raises(ConfigurationError):
            measure_buffered(graph, warmup=-1)
        with pytest.raises(ConfigurationError):
            measure_buffered(graph, engine="gpu")
