"""Bit-identity of the native buffered step against the NumPy step and the oracle.

:class:`~repro.sim.native.NativeStageRouter` steps a buffered network on
its tier's compiled loop; :meth:`CompiledStageRouter.step` keeps the
NumPy body, and :class:`BufferedStageReference` is the per-packet oracle.
All three must agree cycle by cycle — deliveries, latencies, injection
accounting and occupancy — and the native and NumPy steps must leave
identical queue state, on every family, depth and seed, with static
faults, across mid-run fault swaps, and when the two steps alternate on
one router.  The numba tier's source loop, run as plain Python, always
joins the parametrization, so its logic is pinned on any host; every
accelerated tier on the host joins too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError, LabelError
from repro.core.faults import random_graph_faults
from repro.sim import native
from repro.sim.batched import CompiledStageRouter
from repro.sim.buffered import measure_buffered
from repro.sim.native import NativeKernel, NativeStageRouter, available_tiers
from repro.sim.rng import make_rng
from repro.sim.stagegraph import (
    BufferedStageReference,
    delta_graph,
    dilated_graph,
    edn_graph,
    omega_graph,
)

GRAPHS = {
    "edn": lambda: edn_graph(EDNParams(16, 4, 4, 2)),
    "delta": lambda: delta_graph(4, 4, 3),
    "omega": lambda: omega_graph(64),
    "dilated": lambda: dilated_graph(2, 2, 4, 2),
}

#: ``python`` runs :func:`~repro.sim.native._step_loop` (the numba tier's
#: source) uncompiled; accelerated tiers join when present.
RUNNERS = ("python",) + available_tiers()


def demand_stream(graph, cycles: int, rate: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 977)
    dests = rng.integers(0, graph.n_outputs, size=(cycles, graph.n_inputs))
    live = rng.random((cycles, graph.n_inputs)) < rate
    return np.where(live, dests, -1)


def some_faults(graph, seed: int, rate: float = 0.15) -> tuple:
    return tuple(random_graph_faults(graph, rate, np.random.default_rng(seed + 4242)))


def native_router(graph, runner, monkeypatch, **kw) -> NativeStageRouter:
    """A native router on ``runner``; ``python`` keeps its kernels private.

    The uncompiled loop stands in for numba, and kernels are built
    outside the plans' kernel cache, so no shared plan ever holds one.
    """
    if runner != "python":
        return NativeStageRouter(graph, tier=runner, **kw)
    monkeypatch.setattr(native, "_numba_loop", lambda loop=native._counts_loop: loop)
    kernels: dict = {}

    def private_kernel(plan, tier):
        if plan not in kernels:
            kernels[plan] = NativeKernel(plan, tier)
        return kernels[plan]

    monkeypatch.setattr(native, "kernel_for", private_kernel)
    return NativeStageRouter(graph, tier="numba", **kw)


def assert_same_cycle(a, b):
    np.testing.assert_array_equal(a.outputs, b.outputs)
    np.testing.assert_array_equal(a.latencies, b.latencies)
    assert a.outputs.dtype == b.outputs.dtype == np.int64
    assert (a.offered, a.injected) == (b.offered, b.injected)


def assert_same_state(x: CompiledStageRouter, y: CompiledStageRouter):
    for name in ("occ_buf", "dest_buf", "stamp_buf"):
        np.testing.assert_array_equal(
            getattr(x._buffers, name), getattr(y._buffers, name), err_msg=name
        )


def run_three(graph, runner, monkeypatch, *, depth, seed, faults=(), cycles=40):
    """Step native, NumPy and reference side by side; return the routers."""
    fast = native_router(graph, runner, monkeypatch, buffer_depth=depth, faults=faults)
    numpy_ = CompiledStageRouter(graph, buffer_depth=depth, faults=faults)
    oracle = BufferedStageReference(graph, depth=depth, faults=faults)
    demands = demand_stream(graph, cycles, 0.8, seed)
    injected = delivered = 0
    for cycle in range(cycles):
        got = fast.step(demands[cycle])
        want = numpy_.step(demands[cycle])
        assert_same_cycle(got, want)
        assert_same_cycle(got, oracle.step(demands[cycle]))
        assert fast.total_occupancy() == numpy_.total_occupancy() == oracle.total_occupancy()
        injected += got.injected
        delivered += got.delivered
    assert_same_state(fast, numpy_)
    assert injected == delivered + fast.total_occupancy() + fast.dropped_packets
    return fast, numpy_, oracle


class TestStepBitIdentity:
    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("depth", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_native_numpy_and_reference_agree(
        self, runner, family, depth, seed, monkeypatch
    ):
        graph = GRAPHS[family]()
        fast, _, _ = run_three(graph, runner, monkeypatch, depth=depth, seed=seed)
        assert fast._bound_step is not None  # the compiled loop really ran

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("depth", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_agree_under_static_faults(self, runner, family, depth, seed, monkeypatch):
        graph = GRAPHS[family]()
        faults = some_faults(graph, seed)
        fast, _, _ = run_three(
            graph, runner, monkeypatch, depth=depth, seed=seed, faults=faults
        )
        assert fast.dropped_packets == 0  # static damage refuses, never eats

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_mid_run_fault_swap_rekeys_the_kernel(self, runner, family, monkeypatch):
        graph = GRAPHS[family]()
        cycles, depth = 20, 2
        demands = demand_stream(graph, 3 * cycles, 0.9, 5)
        fast = native_router(graph, runner, monkeypatch, buffer_depth=depth)
        numpy_ = CompiledStageRouter(graph, buffer_depth=depth)
        oracle = BufferedStageReference(graph, depth=depth)
        faults = some_faults(graph, 3, rate=0.2)
        injected = delivered = 0
        for window, pattern in enumerate(((), faults, ())):
            if window:
                dropped = fast.apply_faults(pattern)
                assert dropped == numpy_.apply_faults(pattern)
                assert dropped == oracle.apply_faults(pattern)
            for cycle in range(window * cycles, (window + 1) * cycles):
                got = fast.step(demands[cycle])
                assert_same_cycle(got, numpy_.step(demands[cycle]))
                assert_same_cycle(got, oracle.step(demands[cycle]))
                injected += got.injected
                delivered += got.delivered
            # The step ran on the kernel lowered from the current plan.
            kernel = fast._bound_step.kernel
            assert kernel is native.kernel_for(fast._plan, fast.tier)
            dead_rows = kernel.step_tables.meta[:, 7] >= 0
            assert dead_rows.any() == bool(pattern)
            assert_same_state(fast, numpy_)
        assert fast.dropped_packets == numpy_.dropped_packets == oracle.dropped_packets
        assert injected == delivered + fast.total_occupancy() + fast.dropped_packets

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_native_and_numpy_steps_alternate_on_one_state(self, runner, monkeypatch):
        graph = GRAPHS["edn"]()
        demands = demand_stream(graph, 40, 0.9, 2)
        mixed = native_router(graph, runner, monkeypatch, buffer_depth=2)
        numpy_ = CompiledStageRouter(graph, buffer_depth=2)
        tier = mixed.tier
        for cycle in range(40):
            # Without a tier the native router runs the inherited NumPy body.
            mixed.tier = tier if cycle % 3 else None
            assert_same_cycle(mixed.step(demands[cycle]), numpy_.step(demands[cycle]))
            assert_same_state(mixed, numpy_)

    def test_reset_buffers_rebinds(self, monkeypatch):
        graph = GRAPHS["delta"]()
        demands = demand_stream(graph, 20, 0.9, 4)
        fast = native_router(graph, "python", monkeypatch, buffer_depth=2)
        numpy_ = CompiledStageRouter(graph, buffer_depth=2)
        for cycle in range(10):
            fast.step(demands[cycle])
        fast.reset_buffers()
        for cycle in range(10, 20):
            assert_same_cycle(fast.step(demands[cycle]), numpy_.step(demands[cycle]))
        assert fast._bound_step.state is fast._buffers


class TestDispatch:
    def test_step_is_defined_only_on_the_compiled_router(self):
        # Layer tracing wraps CompiledStageRouter.step; a native override
        # would step outside it.
        assert "step" not in NativeStageRouter.__dict__
        assert "step" in CompiledStageRouter.__dict__

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_random_priority_keeps_the_numpy_step(self, runner, monkeypatch):
        graph = GRAPHS["omega"]()
        demands = demand_stream(graph, 30, 0.8, 6)
        fast = native_router(graph, runner, monkeypatch, priority="random", buffer_depth=2)
        numpy_ = CompiledStageRouter(graph, priority="random", buffer_depth=2)
        oracle = BufferedStageReference(graph, depth=2, priority="random")
        rngs = [make_rng(9) for _ in range(3)]
        for cycle in range(30):
            got = fast.step(demands[cycle], rngs[0])
            assert_same_cycle(got, numpy_.step(demands[cycle], rngs[1]))
            assert_same_cycle(got, oracle.step(demands[cycle], rngs[2]))
        assert fast._step_kernel() is None
        with pytest.raises(ConfigurationError):
            fast.step(demands[0])

    def test_no_tier_falls_back_to_the_numpy_step(self, monkeypatch):
        monkeypatch.setattr(native, "numba_available", lambda: False)
        monkeypatch.setattr(native, "cc_available", lambda: False)
        graph = GRAPHS["dilated"]()
        fast = NativeStageRouter(graph, buffer_depth=2)
        assert fast.tier is None and fast._step_kernel() is None
        numpy_ = CompiledStageRouter(graph, buffer_depth=2)
        demands = demand_stream(graph, 20, 0.8, 8)
        for cycle in range(20):
            assert_same_cycle(fast.step(demands[cycle]), numpy_.step(demands[cycle]))
        compiled = measure_buffered(graph, cycles=30, warmup=10, seed=3)
        reference = measure_buffered(graph, cycles=30, warmup=10, seed=3,
                                     engine="reference")
        assert compiled == reference

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_validation_runs_before_the_kernel(self, runner, monkeypatch):
        graph = GRAPHS["delta"]()
        fast = native_router(graph, runner, monkeypatch, buffer_depth=2)
        fast.step(demand_stream(graph, 1, 0.9, 1)[0])
        before = fast._buffers.occ_buf.copy()
        n = graph.n_inputs
        for bad in (np.zeros(n + 1, dtype=np.int64),
                    np.full(n, graph.n_outputs, dtype=np.int64),
                    np.full(n, -2, dtype=np.int64)):
            with pytest.raises(LabelError):
                fast.step(bad)
        np.testing.assert_array_equal(fast._buffers.occ_buf, before)
        assert fast._cycle == 1


class TestMeasurement:
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_measure_buffered_matches_reference_field_for_field(self, family):
        graph = GRAPHS[family]()
        faults = some_faults(graph, 1) if family == "edn" else ()
        kw = dict(traffic="uniform:0.7", depth=2, cycles=40, warmup=10, seed=11,
                  faults=faults)
        assert measure_buffered(graph, **kw) == measure_buffered(
            graph, engine="reference", **kw
        )

    def test_state_buffers_are_contiguous_views(self):
        graph = GRAPHS["omega"]()
        router = CompiledStageRouter(graph, buffer_depth=3)
        router.step(demand_stream(graph, 1, 1.0, 0)[0])
        state = router._buffers
        for i in range(graph.num_stages):
            assert np.shares_memory(state.occupancy[i], state.occ_buf)
            assert np.shares_memory(state.dests[i], state.dest_buf)
            assert np.shares_memory(state.stamps[i], state.stamp_buf)
        assert state.num_queues == sum(graph.stage_widths)
        assert router.total_occupancy() == sum(int(o.sum()) for o in state.occupancy) > 0
