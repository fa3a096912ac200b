"""Unit + equivalence tests for the batched multi-cycle routing engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError, LabelError
from repro.core.network import EDNetwork
from repro.core.tags import RetirementOrder
from repro.sim.batched import BatchedEDN
from repro.sim.stagegraph import StageGraphReference, edn_graph

#: Shapes covering deltas (c=1), wide buckets, deep networks, the MP-1
#: router, and the one-hot fallback (b = 16 packs 128 lane bits).
CONFIGS = [
    (16, 4, 4, 2),
    (8, 2, 4, 3),
    (8, 8, 1, 2),
    (64, 16, 4, 2),
    (4, 2, 2, 4),
    (16, 2, 8, 1),
]


def _random_batch(rng, params: EDNParams, batch: int, rate: float = 0.8) -> np.ndarray:
    dests = rng.integers(0, params.num_outputs, size=(batch, params.num_inputs))
    dests = np.where(rng.random(dests.shape) < rate, dests, -1)
    if batch > 2:
        dests[2] = -1  # an all-idle cycle inside the batch
    return dests


def _reference(params: EDNParams, order=None, priority: str = "label"):
    """The per-cycle stage-graph interpreter of the same EDN."""
    return StageGraphReference(edn_graph(params, order), priority=priority)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"EDN{c}")
class TestLabelPriorityEquivalence:
    def test_matches_stage_graph_reference(self, cfg, rng):
        params = EDNParams(*cfg)
        batched = BatchedEDN(params)
        reference = _reference(params)
        dests = _random_batch(rng, params, batch=6)
        result = batched.route_batch(dests)
        for i in range(dests.shape[0]):
            ref = reference.route(dests[i])
            assert np.array_equal(result.output[i], ref.output)
            assert np.array_equal(result.blocked_stage[i], ref.blocked_stage)

    def test_non_canonical_retirement_order(self, cfg, rng):
        params = EDNParams(*cfg)
        order = RetirementOrder.reversed_order(params.l)
        batched = BatchedEDN(params, retirement_order=order)
        reference = _reference(params, order)
        dests = _random_batch(rng, params, batch=4, rate=1.0)
        result = batched.route_batch(dests)
        for i in range(dests.shape[0]):
            ref = reference.route(dests[i])
            assert np.array_equal(result.output[i], ref.output)
            assert np.array_equal(result.blocked_stage[i], ref.blocked_stage)

    def test_matches_reference_engine(self, cfg, rng):
        params = EDNParams(*cfg)
        order = RetirementOrder.reversed_order(params.l)
        batched = BatchedEDN(params, retirement_order=order)
        reference = EDNetwork(params, retirement_order=order)
        dests = _random_batch(rng, params, batch=3)
        result = batched.route_batch(dests)
        for i in range(dests.shape[0]):
            ref = reference.route_destinations(
                {int(s): int(d) for s, d in enumerate(dests[i]) if d >= 0}
            )
            by_source = {o.message.source: o for o in ref.outcomes}
            for source in range(params.num_inputs):
                if dests[i, source] < 0:
                    assert result.blocked_stage[i, source] == -1
                    continue
                outcome = by_source[source]
                if outcome.delivered:
                    assert result.blocked_stage[i, source] == 0
                    assert result.output[i, source] == outcome.output
                else:
                    assert result.blocked_stage[i, source] == outcome.blocked_stage

    def test_counts_kernel_matches_route_batch(self, cfg, rng):
        params = EDNParams(*cfg)
        batched = BatchedEDN(params)
        for rate in (1.0, 0.5):
            dests = _random_batch(rng, params, batch=5, rate=rate)
            full = batched.route_batch(dests)
            counts = batched.route_batch_counts(dests)
            assert np.array_equal(counts.offered_per_cycle, full.offered_per_cycle)
            assert np.array_equal(
                counts.delivered_per_cycle, full.delivered_per_cycle
            )
            assert counts.blocked_by_stage == full.blocked_stage_histogram()


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"EDN{c}")
class TestRandomPriorityEquivalence:
    def test_per_cycle_generators_match_stage_graph_reference(self, cfg, rng):
        params = EDNParams(*cfg)
        batched = BatchedEDN(params, priority="random")
        reference = _reference(params, priority="random")
        batch = 5
        dests = _random_batch(rng, params, batch=batch, rate=1.0)
        children = np.random.SeedSequence(2024).spawn(batch)
        result = batched.route_batch(
            dests, [np.random.default_rng(child) for child in children]
        )
        for i in range(batch):
            ref = reference.route(dests[i], np.random.default_rng(children[i]))
            assert np.array_equal(result.output[i], ref.output)
            assert np.array_equal(result.blocked_stage[i], ref.blocked_stage)

    def test_non_canonical_order_per_cycle_generators(self, cfg, rng):
        params = EDNParams(*cfg)
        order = RetirementOrder.reversed_order(params.l)
        batched = BatchedEDN(params, priority="random", retirement_order=order)
        reference = _reference(params, order, priority="random")
        batch = 3
        dests = _random_batch(rng, params, batch=batch)
        children = np.random.SeedSequence(7).spawn(batch)
        result = batched.route_batch(
            dests, [np.random.default_rng(child) for child in children]
        )
        for i in range(batch):
            ref = reference.route(dests[i], np.random.default_rng(children[i]))
            assert np.array_equal(result.output[i], ref.output)
            assert np.array_equal(result.blocked_stage[i], ref.blocked_stage)

    def test_single_generator_is_statistically_sane(self, cfg, rng):
        params = EDNParams(*cfg)
        batched = BatchedEDN(params, priority="random")
        dests = _random_batch(rng, params, batch=8, rate=1.0)
        result = batched.route_batch(dests, rng)
        assert (result.delivered_per_cycle <= result.offered_per_cycle).all()
        assert result.num_delivered > 0


class TestValidationAndEdges:
    def test_rejects_wrong_shape(self):
        net = BatchedEDN(EDNParams(16, 4, 4, 2))
        with pytest.raises(LabelError):
            net.route_batch(np.zeros((3, 17), dtype=np.int64))
        with pytest.raises(LabelError):
            net.route_batch(np.zeros(64, dtype=np.int64))

    def test_rejects_out_of_range(self):
        net = BatchedEDN(EDNParams(16, 4, 4, 2))
        dests = np.zeros((2, net.n_inputs), dtype=np.int64)
        dests[1, 3] = net.n_outputs
        with pytest.raises(LabelError):
            net.route_batch(dests)

    def test_random_priority_requires_rng(self):
        net = BatchedEDN(EDNParams(16, 4, 4, 2), priority="random")
        dests = np.zeros((2, net.n_inputs), dtype=np.int64)
        with pytest.raises(ConfigurationError):
            net.route_batch(dests)
        with pytest.raises(ConfigurationError):
            net.route_batch(dests, [np.random.default_rng(0)])  # wrong count

    def test_all_idle_batch(self):
        net = BatchedEDN(EDNParams(16, 4, 4, 2))
        dests = np.full((4, net.n_inputs), -1, dtype=np.int64)
        result = net.route_batch(dests)
        assert result.num_offered == 0
        assert result.num_delivered == 0
        assert result.acceptance_ratio == 1.0
        assert (result.blocked_stage == -1).all()
        counts = net.route_batch_counts(dests)
        assert counts.offered_per_cycle.sum() == 0
        assert counts.blocked_by_stage == {}

    def test_empty_batch(self):
        net = BatchedEDN(EDNParams(16, 4, 4, 2))
        result = net.route_batch(np.empty((0, net.n_inputs), dtype=np.int64))
        assert result.num_cycles == 0
        assert result.num_offered == 0

    def test_result_accessors(self, rng):
        params = EDNParams(16, 4, 4, 2)
        net = BatchedEDN(params)
        dests = _random_batch(rng, params, batch=5, rate=0.7)
        result = net.route_batch(dests)
        assert result.num_cycles == 5
        assert result.offered_per_cycle.sum() == result.num_offered
        assert result.delivered_per_cycle.sum() == result.num_delivered
        blocked = sum(result.blocked_stage_histogram().values())
        assert result.num_offered - result.num_delivered == blocked
        single = result.cycle(1)
        assert single.num_offered == result.offered_per_cycle[1]

    def test_inherited_single_cycle_route(self, rng):
        params = EDNParams(16, 4, 4, 2)
        net = BatchedEDN(params)
        dests = rng.integers(0, params.num_outputs, size=params.num_inputs)
        single = net.route(dests)
        batch = net.route_batch(dests[None, :])
        assert np.array_equal(single.output, batch.output[0])
        assert np.array_equal(single.blocked_stage, batch.blocked_stage[0])

    def test_scratch_reuse_is_stable_across_shapes(self, rng):
        # Interleave two different networks on one engine lifetime each,
        # re-running the first afterwards: cached scratch/tables must not
        # leak between calls.
        p1, p2 = EDNParams(16, 4, 4, 2), EDNParams(8, 2, 4, 3)
        n1, n2 = BatchedEDN(p1), BatchedEDN(p2)
        d1 = _random_batch(rng, p1, batch=3)
        d2 = _random_batch(rng, p2, batch=3)
        first = n1.route_batch(d1)
        n2.route_batch(d2)
        again = n1.route_batch(d1)
        assert np.array_equal(first.output, again.output)
        assert np.array_equal(first.blocked_stage, again.blocked_stage)
