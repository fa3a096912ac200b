"""Integration: the compiled EDN reproduces the reference engine.

The reference engine (:mod:`repro.core.network`) is the semantic ground
truth — one switch object per hyperbar, explicit wires.  The compiled
stage-graph router behind :class:`BatchedEDN` must make *identical*
per-message decisions (same winners, same blocking stages, same outputs)
under label priority and first-free wires, for every retirement order.
Under random priority the two engines draw tie-breaks from different
streams, so only discipline-independent facts are compared per cycle:
stage-1 blocking (contention among the inputs themselves) and that
every delivered message reaches its requested output (after the fix-up
stage of a non-canonical order).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.router import ReferenceEDNRouter
from repro.core.config import EDNParams
from repro.core.network import EDNetwork
from repro.core.tags import RetirementOrder
from repro.sim.batched import BatchedEDN
from repro.sim.montecarlo import measure_acceptance
from repro.workloads import UniformTraffic

CONFIGS = [
    (16, 4, 4, 2),
    (8, 2, 4, 3),
    (8, 8, 1, 2),
    (64, 16, 4, 2),
    (4, 2, 2, 4),
    (16, 8, 2, 3),
    (16, 2, 8, 1),
]


def _compare_one_cycle(params: EDNParams, order, dests: np.ndarray) -> None:
    compiled = BatchedEDN(params, retirement_order=order)
    reference = EDNetwork(params, retirement_order=order)
    vec = compiled.route(dests)
    ref = reference.route_destinations(
        {int(s): int(d) for s, d in enumerate(dests) if d >= 0}
    )
    by_source = {o.message.source: o for o in ref.outcomes}
    for source in range(params.num_inputs):
        if dests[source] < 0:
            assert vec.blocked_stage[source] == -1
            continue
        outcome = by_source[source]
        if outcome.delivered:
            assert vec.blocked_stage[source] == 0
            assert vec.output[source] == outcome.output
        else:
            assert vec.blocked_stage[source] == outcome.blocked_stage


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"EDN{c}")
class TestEquivalence:
    def test_uniform_traffic(self, cfg, rng):
        params = EDNParams(*cfg)
        for _ in range(6):
            rate = float(rng.random())
            dests = rng.integers(0, params.num_outputs, size=params.num_inputs)
            dests = np.where(rng.random(params.num_inputs) < rate, dests, -1)
            _compare_one_cycle(params, None, dests)

    def test_permutation_traffic(self, cfg, rng):
        params = EDNParams(*cfg)
        n = min(params.num_inputs, params.num_outputs)
        dests = np.full(params.num_inputs, -1, dtype=np.int64)
        dests[:n] = rng.permutation(params.num_outputs)[:n]
        _compare_one_cycle(params, None, dests)

    def test_reversed_retirement_order(self, cfg, rng):
        params = EDNParams(*cfg)
        order = RetirementOrder.reversed_order(params.l)
        dests = rng.integers(0, params.num_outputs, size=params.num_inputs)
        _compare_one_cycle(params, order, dests)

    def test_all_to_one(self, cfg):
        params = EDNParams(*cfg)
        dests = np.zeros(params.num_inputs, dtype=np.int64)
        _compare_one_cycle(params, None, dests)

    def test_identity_pattern(self, cfg):
        params = EDNParams(*cfg)
        n = min(params.num_inputs, params.num_outputs)
        dests = np.full(params.num_inputs, -1, dtype=np.int64)
        dests[:n] = np.arange(n)
        _compare_one_cycle(params, None, dests)


ORDERS = ["canonical", "reversed"]


def _order(params: EDNParams, name: str):
    return None if name == "canonical" else RetirementOrder.reversed_order(params.l)


@pytest.mark.parametrize("order_name", ORDERS)
@pytest.mark.parametrize("cfg", [(16, 4, 4, 2), (8, 2, 4, 3)], ids=lambda c: f"EDN{c}")
class TestRandomPriority:
    def test_discipline_independent_outcomes_agree(self, cfg, order_name, rng):
        params = EDNParams(*cfg)
        order = _order(params, order_name)
        compiled = BatchedEDN(params, priority="random", retirement_order=order)
        reference = EDNetwork(params, priority="random", retirement_order=order)
        for _ in range(6):
            dests = rng.integers(0, params.num_outputs, size=params.num_inputs)
            dests = np.where(rng.random(params.num_inputs) < 0.8, dests, -1)
            vec = compiled.route(dests, rng)
            ref = reference.route_destinations(
                {int(s): int(d) for s, d in enumerate(dests) if d >= 0}, rng=rng
            )
            assert (vec.blocked_stage == 1).sum() == sum(
                o.blocked_stage == 1 for o in ref.outcomes
            )
            # A non-canonical order lands on a digit-permuted output that
            # the fix-up stage maps back to the requested one.
            fixup = order.fixup_permutation(params) if order else (lambda out: out)
            for source in np.flatnonzero(vec.blocked_stage == 0):
                assert fixup(int(vec.output[source])) == dests[source]
            for o in ref.outcomes:
                if o.delivered:
                    assert fixup(o.output) == dests[o.message.source]

    def test_acceptance_agrees_statistically(self, cfg, order_name):
        params = EDNParams(*cfg)
        order = _order(params, order_name)
        traffic = UniformTraffic(params.num_inputs, params.num_outputs, 1.0)
        compiled = measure_acceptance(
            BatchedEDN(params, priority="random", retirement_order=order),
            traffic, cycles=200, seed=11,
        )
        reference = measure_acceptance(
            ReferenceEDNRouter(
                EDNetwork(params, priority="random", retirement_order=order)
            ),
            traffic, cycles=200, seed=12, batch=1,
        )
        spread = compiled.acceptance.halfwidth + reference.acceptance.halfwidth
        assert abs(compiled.point - reference.point) <= spread
