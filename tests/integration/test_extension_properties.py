"""Hypothesis property tests for the extension modules (faults, Beneš, Clos, multipass)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.benes import BenesNetwork
from repro.baselines.clos import ClosNetwork
from repro.core.config import EDNParams
from repro.core.faults import FaultSet, WireFault, connectivity_under_faults
from repro.core.multipass import route_permutation_multipass
from repro.sim.batched import BatchedEDN


@st.composite
def small_square_edn(draw):
    b = draw(st.sampled_from([2, 4]))
    c = draw(st.sampled_from([1, 2]))
    l = draw(st.integers(min_value=1, max_value=2))
    return EDNParams(b * c, b, c, l)


@st.composite
def fault_sets(draw, params: EDNParams):
    per_switch = params.b * params.c
    n_faults = draw(st.integers(min_value=0, max_value=6))
    faults = []
    for _ in range(n_faults):
        stage = draw(st.integers(min_value=1, max_value=params.l))
        switch = draw(st.integers(min_value=0, max_value=params.hyperbars_in_stage(stage) - 1))
        wire = draw(st.integers(min_value=0, max_value=per_switch - 1))
        faults.append(WireFault(stage, switch, wire))
    return FaultSet(faults)


class TestFaultProperties:
    @settings(max_examples=20, deadline=None)
    @given(small_square_edn(), st.data())
    def test_more_faults_never_help(self, params, data):
        base = data.draw(fault_sets(params))
        extra_stage = data.draw(st.integers(min_value=1, max_value=params.l))
        extra = FaultSet(
            list(base)
            + [
                WireFault(
                    extra_stage,
                    data.draw(
                        st.integers(
                            min_value=0,
                            max_value=params.hyperbars_in_stage(extra_stage) - 1,
                        )
                    ),
                    data.draw(st.integers(min_value=0, max_value=params.b * params.c - 1)),
                )
            ]
        )
        assert connectivity_under_faults(params, extra) <= connectivity_under_faults(
            params, base
        )

    @settings(max_examples=15, deadline=None)
    @given(small_square_edn())
    def test_no_faults_full_connectivity(self, params):
        assert connectivity_under_faults(params, FaultSet.none()) == 1.0


class TestBenesProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([4, 8, 16, 32]), st.data())
    def test_any_permutation_realizable(self, n, data):
        perm = list(data.draw(st.permutations(range(n))))
        net = BenesNetwork(n)
        assert net.verify(net.route_permutation(perm), perm)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([4, 8, 16]), st.data())
    def test_composition_of_routes(self, n, data):
        # Routing sigma then tracing the settings is sigma itself — i.e.
        # trace . route == identity on the permutation group.
        perm = list(data.draw(st.permutations(range(n))))
        net = BenesNetwork(n)
        settings_ = net.route_permutation(perm)
        assert net._trace(settings_) == perm


class TestClosProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([(2, 2), (2, 4), (3, 3), (4, 4)]),
        st.data(),
    )
    def test_any_permutation_realizable(self, shape, data):
        n, r = shape
        net = ClosNetwork(n=n, r=r)
        perm = list(data.draw(st.permutations(range(n * r))))
        routes = net.route_permutation(perm)
        assert net.verify(routes, perm)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_middle_loads_equal_r(self, data):
        net = ClosNetwork(n=3, r=4)
        perm = list(data.draw(st.permutations(range(12))))
        routes = net.route_permutation(perm)
        loads: dict[int, int] = {}
        for route in routes:
            loads[route.middle_switch] = loads.get(route.middle_switch, 0) + 1
        assert all(load == 4 for load in loads.values())


class TestMultipassProperties:
    @settings(max_examples=15, deadline=None)
    @given(small_square_edn(), st.data())
    def test_total_deliveries_equal_n(self, params, data):
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        perm = rng.permutation(params.num_inputs)
        result = route_permutation_multipass(BatchedEDN(params), perm)
        assert result.total == params.num_inputs
        assert all(count > 0 for count in result.delivered_per_pass)
