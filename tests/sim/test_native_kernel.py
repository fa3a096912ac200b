"""Bit-identity of the native kernel backend against the NumPy kernels.

The native backend's contract is *exact* agreement with
:class:`~repro.sim.batched.CompiledStageRouter` — same offered/delivered
counts and the same per-stage blocking — on every plan the compiled
kernels route: all four stage-graph families, both priorities, faulted
and buffered plans.  The numba tier's source loop, run as plain Python,
always joins the parametrization, pinning the loop logic on any host;
every tier available on the host (``numba``, the runtime-compiled C
kernel) joins it too, and a host with neither still pins the pure-NumPy
shim.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import NetworkSpec, RunConfig, build_router, resolve_backend
from repro.api.jobs import SweepCell, measure_cell
from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError
from repro.core.faults import WireFault
from repro.experiments.parallel import ParallelSweep
from repro.sim import native
from repro.sim.batched import CompiledStageRouter
from repro.sim.native import (
    NativeKernel,
    NativeStageRouter,
    available_tiers,
    kernel_for,
)
from repro.sim.rng import make_rng
from repro.sim.stagegraph import (
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

FAULTS = {
    "edn": (WireFault(1, 0, 0), WireFault(2, 1, 3)),
    "delta": (WireFault(1, 0, 0), WireFault(2, 1, 3)),
    "omega": (WireFault(1, 0, 1), WireFault(3, 2, 0)),
    "dilated": (WireFault(1, 0, 1), WireFault(2, 0, 0)),
}

TIERS = available_tiers()

#: ``python`` runs :func:`~repro.sim.native._counts_loop` (the numba
#: tier's source) uncompiled, so it runs on any host; accelerated tiers
#: join when present.
RUNNERS = ("python",) + TIERS


def demands(graph, seed: int, batch: int) -> np.ndarray:
    rng = make_rng(seed)
    return rng.integers(-1, graph.n_outputs, size=(batch, graph.n_inputs))


def assert_counts_equal(got, want):
    np.testing.assert_array_equal(got.offered_per_cycle, want.offered_per_cycle)
    np.testing.assert_array_equal(
        got.delivered_per_cycle, want.delivered_per_cycle
    )
    assert got.blocked_by_stage == want.blocked_by_stage


def native_counts(graph, runner, dests, monkeypatch, **router_kw):
    """Counts from one of :data:`RUNNERS` on ``graph``'s plan."""
    if runner != "python":
        return NativeStageRouter(
            graph, tier=runner, **router_kw
        ).route_batch_counts(dests)
    # The numba tier's code path with the loops left uncompiled, built
    # outside kernel_for so it never enters the plan's kernel cache.
    monkeypatch.setattr(
        native, "_numba_loop", lambda loop=native._counts_loop: loop
    )
    plan = CompiledStageRouter(graph, **router_kw)._plan
    return NativeKernel(plan, "numba").counts(dests, plan.workspace())


class TestCountsBitIdentity:
    @pytest.mark.parametrize("tier", RUNNERS)
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("batch", [1, 6])
    def test_matches_batched(self, family, tier, seed, batch, monkeypatch):
        graph = GRAPHS[family]()
        dests = demands(graph, seed, batch)
        want = CompiledStageRouter(graph).route_batch_counts(dests)
        got = native_counts(graph, tier, dests, monkeypatch)
        assert_counts_equal(got, want)

    @pytest.mark.parametrize("tier", RUNNERS)
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_matches_batched_with_faults(self, family, tier, monkeypatch):
        graph = GRAPHS[family]()
        faults = FAULTS[family]
        dests = demands(graph, 3, 5)
        want = CompiledStageRouter(graph, faults=faults).route_batch_counts(dests)
        got = native_counts(graph, tier, dests, monkeypatch, faults=faults)
        assert_counts_equal(got, want)

    @pytest.mark.parametrize("tier", RUNNERS)
    @pytest.mark.parametrize("depth", [1, 2])
    def test_matches_batched_on_buffered_plans(self, tier, depth, monkeypatch):
        # Buffered plans lower buffers into extra stages of the same plan
        # format; the native kernel must route them identically too.
        graph = delta_graph(4, 4, 3)
        dests = demands(graph, 11, 4)
        want = CompiledStageRouter(graph, buffer_depth=depth).route_batch_counts(
            dests
        )
        got = native_counts(graph, tier, dests, monkeypatch, buffer_depth=depth)
        assert_counts_equal(got, want)

    def test_random_priority_defers_to_inherited_engine(self):
        # Random priority resolves by seeded sort; the native router must
        # return the inherited engine's exact results (same rng stream).
        graph = delta_graph(4, 4, 3)
        dests = demands(graph, 5, 4)
        want = CompiledStageRouter(graph, priority="random").route_batch_counts(
            dests, make_rng(21)
        )
        got = NativeStageRouter(graph, priority="random").route_batch_counts(
            dests, make_rng(21)
        )
        assert_counts_equal(got, want)

    def test_shim_matches_batched_without_any_tier(self, monkeypatch):
        # A host with no tier gets the NumPy shim (tier None), which must
        # route through the inherited kernels — the import-never-fails
        # degradation path.
        monkeypatch.setattr(native, "numba_available", lambda: False)
        monkeypatch.setattr(native, "cc_available", lambda: False)
        graph = delta_graph(4, 4, 3)
        router = NativeStageRouter(graph)
        assert router.tier is None
        dests = demands(graph, 2, 3)
        want = CompiledStageRouter(graph).route_batch_counts(dests)
        assert_counts_equal(router.route_batch_counts(dests), want)


class TestTierDiscovery:
    @pytest.mark.parametrize(
        "numba_ok,cc_ok,expected",
        [
            (True, True, "numba"),
            (True, False, "numba"),
            (False, True, "cc"),
            (False, False, None),
        ],
    )
    def test_default_tier_is_the_first_available(
        self, monkeypatch, numba_ok, cc_ok, expected
    ):
        monkeypatch.setattr(native, "numba_available", lambda: numba_ok)
        monkeypatch.setattr(native, "cc_available", lambda: cc_ok)
        assert native.default_tier() == expected
        assert NativeStageRouter(delta_graph(2, 2, 2)).tier == expected
        assert (native.unavailable_reason() is None) == (expected is not None)

    @pytest.mark.parametrize("tier", ["python", "numpy", "gpu"])
    def test_kernel_rejects_unknown_tier(self, tier):
        plan = CompiledStageRouter(delta_graph(2, 2, 2))._plan
        with pytest.raises(ConfigurationError, match="unknown native tier"):
            NativeKernel(plan, tier)


class TestNumbaTier:
    def test_numba_tier_matches_batched(self):
        pytest.importorskip("numba")
        graph = delta_graph(4, 4, 3)
        dests = demands(graph, 13, 4)
        want = CompiledStageRouter(graph).route_batch_counts(dests)
        got = NativeStageRouter(graph, tier="numba").route_batch_counts(dests)
        assert_counts_equal(got, want)


def _build_cc_kernel(_):
    """Pool target: build and load one plan's C kernel from an empty cache."""
    from repro.sim.plan import compile_stage_plan

    native._spec_fns.clear()  # forget kernels the forking parent loaded
    try:
        kernel_for(compile_stage_plan(delta_graph(4, 4, 3)), "cc")
    except Exception as exc:  # report, so every worker's outcome is seen
        return repr(exc)
    return None


class TestKernelCache:
    @pytest.mark.skipif("cc" not in available_tiers(), reason="no C toolchain")
    def test_concurrent_cold_builds_all_load_the_kernel(self, tmp_path, monkeypatch):
        # Forked workers that meet a plan shape at the same moment all
        # compile it into one empty cache; none may load an object built
        # from a source file another worker was rewriting.
        import multiprocessing

        for trial in range(6):
            monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / str(trial)))
            with multiprocessing.get_context("fork").Pool(4) as pool:
                outcomes = pool.map_async(_build_cc_kernel, range(4)).get(timeout=120)
            errors = [e for e in outcomes if e]
            assert errors == []

    @pytest.mark.skipif(not TIERS, reason="no accelerated native tier")
    def test_warm_equals_cold(self):
        # Two routers over equivalent graphs share one cached plan, and
        # the lowered kernel rides it: the second construction reuses the
        # kernel object and produces bit-identical counts.
        tier = TIERS[0]
        graph = delta_graph(4, 4, 3)
        cold = NativeStageRouter(graph, tier=tier)
        dests = demands(graph, 9, 4)
        first = cold.route_batch_counts(dests)
        warm = NativeStageRouter(delta_graph(4, 4, 3), tier=tier)
        assert kernel_for(warm._plan, tier) is kernel_for(cold._plan, tier)
        assert_counts_equal(warm.route_batch_counts(dests), first)


@pytest.mark.skipif(not available_tiers(), reason="no accelerated native tier")
class TestParallelSweepAgreement:
    def test_jobs2_matches_jobs1_under_native(self):
        specs = [
            NetworkSpec.delta(4, 4, 2),
            NetworkSpec.omega(16),
            NetworkSpec.edn(8, 2, 4, 2),
        ]
        config = RunConfig(cycles=16, seed=3, batch=4, backend="native")
        cells = [SweepCell(spec, config) for spec in specs]
        inline = ParallelSweep(jobs=1).map_cells(cells)
        fanned = ParallelSweep(jobs=2).map_cells(cells)
        for a, b in zip(inline, fanned):
            assert a.point == b.point
            assert a.blocked_by_stage == b.blocked_by_stage

    def test_fork_after_inline_kernel_call_does_not_hang(self):
        # A kernel call in the parent before the sweep forks its workers
        # is the pattern that deadlocked forked workers while the C tier
        # ran a thread pool.  The child runs with the host's default
        # thread settings, and a hang fails here instead of stalling.
        import os
        import signal
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        import repro

        script = textwrap.dedent(
            """
            import numpy as np
            from repro.api import NetworkSpec, RunConfig, build_router
            from repro.api.jobs import SweepCell
            from repro.experiments.parallel import ParallelSweep

            specs = [NetworkSpec.edn(16, 4, 4, 2), NetworkSpec.delta(4, 4, 3)]
            router = build_router(specs[0], "native")
            router.route_batch_counts(np.zeros((64, router.n_inputs), dtype=np.int64))
            config = RunConfig(cycles=64, seed=1, batch=16, backend="native")
            cells = [SweepCell(spec, config) for spec in specs]
            inline = ParallelSweep(jobs=1).map_cells(cells)
            fanned = ParallelSweep(jobs=2).map_cells(cells)
            key = lambda m: (m.point, m.blocked_by_stage)
            assert list(map(key, inline)) == list(map(key, fanned))
            print("ok")
            """
        )
        env = dict(os.environ)
        env.pop("OMP_NUM_THREADS", None)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=90)
        except subprocess.TimeoutExpired:
            # Reap the forked pool workers too, not just the child.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("jobs=2 sweep after an inline native call hung for 90 s")
        assert proc.returncode == 0, err
        assert out.strip() == "ok"

    def test_buffered_cell_accepts_native(self):
        from dataclasses import replace

        spec = NetworkSpec.delta(4, 4, 2)
        config = RunConfig(
            cycles=16, seed=5, batch=4, backend="native", buffer_depth=2
        )
        auto = measure_cell(SweepCell(spec, replace(config, backend="auto")))
        nat = measure_cell(SweepCell(spec, config))
        assert nat.delivered == auto.delivered
        assert nat.throughput == auto.throughput


class TestRegistryGating:
    def test_explicit_native_names_the_extra_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            native,
            "unavailable_reason",
            lambda: (
                "the native backend needs numba (pip install 'repro[native]') "
                "or a C compiler (cc/gcc/clang) on PATH; neither is available"
            ),
        )
        with pytest.raises(ConfigurationError, match=r"repro\[native\]"):
            build_router(NetworkSpec.delta(4, 4, 2), "native")

    def test_auto_skips_native_when_no_tier(self, monkeypatch):
        monkeypatch.setattr(native, "available_tiers", lambda: ())
        monkeypatch.setattr(native, "unavailable_reason", lambda: "gone")
        spec = NetworkSpec.delta(4, 4, 2)
        assert resolve_backend(spec).name == "batched"
        from repro.api import available_backends

        assert "native" not in available_backends(spec)


class TestWideRadixAllocationFree:
    def test_onehot_fallback_performs_no_chunk_sized_allocations(self):
        # radix 16 -> packed lanes would need 128 bits -> one-hot fallback.
        import tracemalloc

        graph = delta_graph(16, 16, 2)
        router = CompiledStageRouter(graph)
        dests = demands(graph, 23, 4)
        router.route_batch_counts(dests)  # warm the scratch buffers
        chunk_bytes = graph.n_inputs  # smallest chunk-sized block (1 B/wire)
        tracemalloc.start()
        for _ in range(5):
            router.route_batch_counts(dests)
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        big = [
            stat
            for stat in snapshot.statistics("lineno")
            if stat.size / max(stat.count, 1) >= chunk_bytes
        ]
        assert big == []

    def test_onehot_fallback_matches_interpreted_loop(self, monkeypatch):
        graph = delta_graph(16, 16, 2)
        dests = demands(graph, 29, 4)
        want = native_counts(graph, "python", dests, monkeypatch)
        got = CompiledStageRouter(graph).route_batch_counts(dests)
        assert_counts_equal(got, want)
