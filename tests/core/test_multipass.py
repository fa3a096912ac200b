"""Tests for multi-pass permutation routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError
from repro.core.multipass import route_permutation_multipass
from repro.sim.batched import BatchedEDN


class TestMultipass:
    def test_delivers_everything_once(self, rng):
        p = EDNParams(16, 4, 4, 2)
        net = BatchedEDN(p)
        perm = rng.permutation(p.num_inputs)
        result = route_permutation_multipass(net, perm)
        assert result.total == p.num_inputs
        assert result.passes == len(result.delivered_per_pass)

    def test_single_stage_needs_one_pass(self, rng):
        # l = 1 EDNs route any permutation conflict-free (Lemma 2).
        p = EDNParams(16, 4, 4, 1)
        net = BatchedEDN(p)
        result = route_permutation_multipass(net, rng.permutation(p.num_inputs))
        assert result.passes == 1

    def test_every_pass_progresses(self, rng):
        p = EDNParams(64, 16, 4, 2)
        net = BatchedEDN(p)
        result = route_permutation_multipass(net, rng.permutation(p.num_inputs))
        assert all(count > 0 for count in result.delivered_per_pass)

    def test_passes_decrease_monotonically_in_load(self, rng):
        # Later passes carry fewer messages, so deliveries shrink.
        p = EDNParams(64, 16, 4, 2)
        net = BatchedEDN(p)
        result = route_permutation_multipass(net, rng.permutation(p.num_inputs))
        assert result.delivered_per_pass[0] == max(result.delivered_per_pass)

    def test_identity_on_maspar_needs_many_passes(self):
        # Figure 5's identity: 64 delivered per pass under canonical order.
        p = EDNParams(64, 16, 4, 2)
        net = BatchedEDN(p)
        result = route_permutation_multipass(net, np.arange(p.num_inputs))
        assert result.passes == 16
        assert result.delivered_per_pass[0] == 64

    def test_capacity_reduces_passes(self, rng):
        # Same 256-terminal scale: the multipath EDN drains a random
        # permutation in fewer passes than the single-path delta.
        perm = rng.permutation(256)
        delta_passes = route_permutation_multipass(
            BatchedEDN(EDNParams(16, 16, 1, 2)), perm
        ).passes
        edn_passes = route_permutation_multipass(
            BatchedEDN(EDNParams(32, 8, 4, 2)), perm
        ).passes
        assert edn_passes <= delta_passes

    def test_rejects_partial_permutation(self):
        p = EDNParams(16, 4, 4, 2)
        with pytest.raises(ConfigurationError):
            route_permutation_multipass(BatchedEDN(p), np.zeros(64, dtype=np.int64))

    def test_max_passes_guard(self, rng):
        p = EDNParams(64, 16, 4, 2)
        with pytest.raises(ConfigurationError):
            route_permutation_multipass(
                BatchedEDN(p), np.arange(p.num_inputs), max_passes=3
            )
