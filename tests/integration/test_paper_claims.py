"""Integration: every formal claim of the paper, end to end.

One test class per lemma/theorem/corollary/worked example, exercised
through the public API on real networks (not on mocks of the math).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analysis import acceptance_probability, permutation_acceptance
from repro.core.config import EDNParams
from repro.core.network import EDNetwork, Message
from repro.core.paths import count_paths, enumerate_paths
from repro.core.tags import DestinationTag, RetirementOrder
from repro.core.topology import EDNTopology
from repro.sim.batched import BatchedEDN
from repro.sim.montecarlo import measure_acceptance
from repro.workloads import PermutationTraffic
from repro.simd.analytic import expected_permutation_time
from repro.simd.maspar import maspar_mp1


class TestLemma1Theorem1:
    """Any source connects to any destination by digit retirement."""

    @pytest.mark.parametrize("cfg", [(16, 4, 4, 2), (8, 2, 4, 3), (8, 8, 1, 2)])
    def test_digit_routing_reaches_destination(self, cfg, rng):
        params = EDNParams(*cfg)
        net = EDNetwork(params)
        for _ in range(30):
            src = int(rng.integers(params.num_inputs))
            dst = int(rng.integers(params.num_outputs))
            outcome = net.route_cycle([Message.to_output(src, dst, params)]).outcomes[0]
            assert outcome.delivered and outcome.output == dst


class TestCorollary1:
    """Renaming/permuting the inputs never breaks connectivity."""

    def test_source_identity_is_irrelevant(self, rng):
        params = EDNParams(16, 4, 4, 2)
        net = EDNetwork(params)
        dst = 42
        for src in range(params.num_inputs):
            outcome = net.route_cycle([Message.to_output(src, dst, params)]).outcomes[0]
            assert outcome.delivered and outcome.output == dst


class TestCorollary2:
    """Reordered digit retirement lands on F(D); composing F^-1 restores D."""

    @pytest.mark.parametrize("cfg", [(16, 4, 4, 2), (8, 4, 2, 3)])
    def test_landing_and_fixup(self, cfg, rng):
        params = EDNParams(*cfg)
        orders = [
            RetirementOrder.reversed_order(params.l),
            RetirementOrder(tuple(range(1, params.l)) + (0,)),
        ]
        for order in orders:
            net = EDNetwork(params, retirement_order=order)
            fixup = order.fixup_permutation(params)
            for _ in range(15):
                src = int(rng.integers(params.num_inputs))
                dst = int(rng.integers(params.num_outputs))
                tag = DestinationTag.from_output(dst, params)
                outcome = net.route_cycle([Message(source=src, tag=tag)]).outcomes[0]
                assert outcome.delivered
                assert outcome.output == order.landing_output(tag, params)
                assert fixup(outcome.output) == dst


class TestTheorem2:
    """Exactly c^l paths between any input/output pair."""

    @pytest.mark.parametrize("cfg", [(16, 4, 4, 2), (8, 2, 4, 2), (8, 8, 1, 3)])
    def test_path_multiplicity(self, cfg):
        params = EDNParams(*cfg)
        topo = EDNTopology(params)
        tag = DestinationTag.from_output(params.num_outputs // 2, params)
        assert count_paths(topo, 0, tag) == params.c**params.l

    def test_paths_share_switches_but_not_wires(self):
        # Within one (source, dest) pair, distinct paths differ only in the
        # wire chosen within each bucket — never in the switch sequence.
        params = EDNParams(16, 4, 4, 2)
        topo = EDNTopology(params)
        tag = DestinationTag.from_output(17, params)
        paths = list(enumerate_paths(topo, 3, tag))
        switch_sequences = {
            tuple(label // (params.b * params.c) for label in p.stage_outputs[:-1])
            for p in paths
        }
        assert len(switch_sequences) == 1
        assert len({p.stage_outputs for p in paths}) == len(paths)


class TestTheorem3Uniformity:
    """Uniform input traffic stays uniform over every stage's buckets."""

    def test_stage_blocking_spread_is_uniform(self, rng):
        # Under uniform traffic, first-stage survivors should spread evenly
        # over second-stage switches: measure the per-switch arrival spread.
        params = EDNParams(16, 4, 4, 2)
        net = BatchedEDN(params)
        arrivals = np.zeros(params.num_outputs, dtype=np.int64)
        for _ in range(300):
            dests = rng.integers(0, params.num_outputs, size=params.num_inputs)
            result = net.route(dests)
            delivered = result.output[result.blocked_stage == 0]
            arrivals[delivered] += 1
        assert arrivals.min() > 0.7 * arrivals.mean()
        assert arrivals.max() < 1.3 * arrivals.mean()


class TestLemma2:
    """Permutation traffic never blocks in the last two stages."""

    @pytest.mark.parametrize("cfg", [(16, 4, 4, 2), (16, 4, 4, 3), (8, 2, 4, 3)])
    def test_no_final_stage_blocking(self, cfg, rng):
        params = EDNParams(*cfg)
        net = BatchedEDN(params)
        for _ in range(25):
            dests = rng.permutation(params.num_outputs)[: params.num_inputs]
            result = net.route(dests.astype(np.int64))
            blocked_stages = set(result.blocked_stage_histogram())
            assert params.l not in blocked_stages
            assert params.l + 1 not in blocked_stages

    def test_eq5_tracks_simulation(self):
        params = EDNParams(16, 4, 4, 3)
        measured = measure_acceptance(
            BatchedEDN(params),
            PermutationTraffic(params.num_inputs, params.num_outputs),
            cycles=150,
            seed=0,
            batch=1,
        )
        analytic = permutation_acceptance(params, 1.0)
        assert measured.point == pytest.approx(analytic, abs=0.06)


class TestSection5Example:
    """RA-EDN(16,4,2,16): PA(1)=.544, J=5, T≈34.4."""

    def test_full_chain(self):
        system = maspar_mp1()
        assert acceptance_probability(system.network_params, 1.0) == pytest.approx(
            0.544, abs=5e-4
        )
        model = expected_permutation_time(system)
        assert model.tail_cycles == 5
        assert model.expected_cycles == pytest.approx(16 / 0.544 + 5, abs=0.15)


class TestSection6Positioning:
    """EDN ≈ crossbar performance at ≈ delta cost (the paper's conclusion)."""

    def test_performance_within_crossbar_band(self):
        from repro.core.analysis import crossbar_acceptance
        from repro.core.cost import crossbar_crosspoint_cost, crosspoint_cost

        edn = EDNParams(64, 16, 4, 2)
        n = edn.num_inputs
        pa_edn = acceptance_probability(edn, 1.0)
        pa_xbar = crossbar_acceptance(n, 1.0)
        assert pa_edn > 0.8 * pa_xbar
        assert crosspoint_cost(edn) < 0.15 * crossbar_crosspoint_cost(n)
