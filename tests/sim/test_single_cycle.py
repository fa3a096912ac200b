"""Unit tests for one-cycle ``route`` on the compiled EDN router."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError, LabelError
from repro.core.tags import RetirementOrder
from repro.sim.batched import BatchedEDN


class TestBasics:
    def test_lone_message_delivered(self, small_params):
        net = BatchedEDN(small_params)
        dests = np.full(small_params.num_inputs, -1, dtype=np.int64)
        dests[0] = small_params.num_outputs - 1
        result = net.route(dests)
        assert result.num_delivered == 1
        assert result.output[0] == small_params.num_outputs - 1
        assert result.blocked_stage[0] == 0

    def test_every_pair_connects(self, small_params):
        net = BatchedEDN(small_params)
        for source in range(0, small_params.num_inputs, 3):
            for dest in range(0, small_params.num_outputs, 5):
                dests = np.full(small_params.num_inputs, -1, dtype=np.int64)
                dests[source] = dest
                result = net.route(dests)
                assert result.output[source] == dest

    def test_idle_inputs_marked(self):
        p = EDNParams(16, 4, 4, 2)
        net = BatchedEDN(p)
        dests = np.full(p.num_inputs, -1, dtype=np.int64)
        result = net.route(dests)
        assert result.num_offered == 0
        assert (result.blocked_stage == -1).all()
        assert result.acceptance_ratio == 1.0

    def test_all_to_one_single_delivery(self, small_params):
        net = BatchedEDN(small_params)
        dests = np.zeros(small_params.num_inputs, dtype=np.int64)
        result = net.route(dests)
        assert result.num_delivered == 1

    def test_no_duplicate_outputs(self, big_params, rng):
        net = BatchedEDN(big_params)
        dests = rng.integers(0, big_params.num_outputs, size=big_params.num_inputs)
        result = net.route(dests)
        delivered_outputs = result.output[result.blocked_stage == 0]
        assert len(np.unique(delivered_outputs)) == len(delivered_outputs)

    def test_blocked_stage_range(self, big_params, rng):
        net = BatchedEDN(big_params)
        dests = rng.integers(0, big_params.num_outputs, size=big_params.num_inputs)
        result = net.route(dests)
        blocked = result.blocked_stage[result.blocked_stage > 0]
        assert blocked.size == 0 or (
            blocked.min() >= 1 and blocked.max() <= big_params.l + 1
        )

    def test_histogram_matches_counts(self, big_params, rng):
        net = BatchedEDN(big_params)
        dests = rng.integers(0, big_params.num_outputs, size=big_params.num_inputs)
        result = net.route(dests)
        histogram = result.blocked_stage_histogram()
        assert sum(histogram.values()) == result.num_offered - result.num_delivered


class TestValidation:
    def test_wrong_shape(self):
        net = BatchedEDN(EDNParams(16, 4, 4, 2))
        with pytest.raises(LabelError):
            net.route(np.zeros(10, dtype=np.int64))

    def test_out_of_range_destination(self):
        p = EDNParams(16, 4, 4, 2)
        net = BatchedEDN(p)
        dests = np.full(p.num_inputs, -1, dtype=np.int64)
        dests[0] = p.num_outputs
        with pytest.raises(LabelError):
            net.route(dests)

    def test_random_priority_needs_rng(self):
        p = EDNParams(16, 4, 4, 2)
        net = BatchedEDN(p, priority="random")
        with pytest.raises(ConfigurationError):
            net.route(np.zeros(p.num_inputs, dtype=np.int64))

    def test_unknown_priority(self):
        with pytest.raises(ConfigurationError):
            BatchedEDN(EDNParams(16, 4, 4, 2), priority="fifo")

    def test_order_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            BatchedEDN(EDNParams(16, 4, 4, 2), retirement_order=RetirementOrder.canonical(3))


class TestMasparIdentity:
    """The Figure 5/6 behaviour at full MP-1 scale."""

    def test_canonical_identity_blocks(self, maspar_params):
        net = BatchedEDN(maspar_params)
        result = net.route(np.arange(maspar_params.num_inputs))
        assert result.num_delivered == 64

    def test_reversed_identity_routes(self, maspar_params):
        order = RetirementOrder.reversed_order(maspar_params.l)
        net = BatchedEDN(maspar_params, retirement_order=order)
        result = net.route(np.arange(maspar_params.num_inputs))
        assert result.num_delivered == maspar_params.num_inputs


class TestScale:
    def test_65k_network_cycle(self):
        # A 65536-input EDN(8,2,4,14); one full-load cycle must route sanely.
        p = EDNParams(8, 2, 4, 14)
        assert p.num_inputs == 65_536
        net = BatchedEDN(p)
        rng = np.random.default_rng(0)
        dests = rng.integers(0, p.num_outputs, size=p.num_inputs)
        result = net.route(dests)
        assert 0 < result.num_delivered < p.num_inputs
        # Acceptance should be in the ballpark of Eq. 4 (independence gap aside).
        from repro.core.analysis import acceptance_probability

        analytic = acceptance_probability(p, 1.0)
        assert abs(result.acceptance_ratio - analytic) < 0.08


class TestAllIdle:
    """Regression: an all-idle demand vector must route to a clean no-op."""

    def test_all_idle_cycle(self, small_params):
        net = BatchedEDN(small_params)
        result = net.route(np.full(small_params.num_inputs, -1, dtype=np.int64))
        assert result.num_offered == 0
        assert result.num_delivered == 0
        assert result.acceptance_ratio == 1.0
        assert (result.blocked_stage == -1).all()
        assert (result.output == -1).all()
        assert result.blocked_stage_histogram() == {}

    def test_resolve_handles_empty_key_array(self):
        # new_group[0] = True used to IndexError on an empty frontier.
        net = BatchedEDN(EDNParams(16, 4, 4, 2), priority="random")
        empty = np.zeros(0, dtype=np.int64)
        accept, ranks = net._resolve_sparse(
            empty, empty, 1, None, np.random.default_rng(0), net.params.c
        )
        assert accept.shape == (0,)
        assert ranks.shape == (0,)
