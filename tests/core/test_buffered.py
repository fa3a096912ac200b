"""The buffered packet-switched EDN extension, measured end to end.

Each behaviour holds for both ``measure_buffered`` engines: the compiled
kernels and the independent per-packet reference interpreter.
"""

from __future__ import annotations

import pytest

from repro.core.analysis import acceptance_probability
from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError
from repro.sim.buffered import measure_buffered
from repro.sim.stagegraph import edn_graph

P = EDNParams(16, 4, 4, 2)
ENGINES = ["compiled", "reference"]


def run(engine, rate, *, depth=2, cycles, warmup=100, seed):
    return measure_buffered(
        edn_graph(P),
        traffic=f"uniform:{rate}",
        depth=depth,
        cycles=cycles,
        warmup=warmup,
        seed=seed,
        engine=engine,
    )


@pytest.mark.parametrize("engine", ENGINES)
class TestConservation:
    def test_no_packet_loss(self, engine):
        # Injected == delivered + still buffered, always.
        m = run(engine, 0.8, cycles=300, warmup=0, seed=0)
        assert m.injected > 0
        assert m.injected == m.delivered + m.in_flight

    def test_light_load_flows_freely(self, engine):
        m = run(engine, 0.05, cycles=400, seed=1)
        # Nearly everything injected is delivered; latency near the l+1
        # stage minimum.
        assert m.throughput == pytest.approx(0.05, abs=0.01)
        assert m.mean_latency < 2 * (P.l + 1) + 2

    def test_zero_rate_idle(self, engine):
        m = run(engine, 0, cycles=50, seed=2)
        assert m.injected == 0
        assert m.delivered == 0
        assert m.throughput == 0.0
        assert m.in_flight == 0


@pytest.mark.parametrize("engine", ENGINES)
class TestSaturation:
    def test_buffering_beats_bufferless_acceptance(self, engine):
        # At full offered load the buffered network's throughput exceeds
        # the circuit-switched PA(1): blocked packets wait instead of dying.
        m = run(engine, 1, depth=4, cycles=600, warmup=200, seed=3)
        assert m.throughput > acceptance_probability(P, 1.0)

    def test_deeper_buffers_raise_throughput(self, engine):
        shallow = run(engine, 1, depth=1, cycles=500, warmup=150, seed=4)
        deep = run(engine, 1, depth=8, cycles=500, warmup=150, seed=4)
        assert deep.throughput > shallow.throughput

    def test_deeper_buffers_raise_latency_at_saturation(self, engine):
        shallow = run(engine, 1, depth=1, cycles=500, warmup=150, seed=5)
        deep = run(engine, 1, depth=8, cycles=500, warmup=150, seed=5)
        assert deep.mean_latency > shallow.mean_latency

    def test_throughput_bounded_by_injection(self, engine):
        m = run(engine, 0.3, cycles=400, seed=6)
        assert m.throughput <= 0.3 + 0.05


@pytest.mark.parametrize("engine", ENGINES)
class TestOccupancy:
    def test_occupancy_grows_with_load(self, engine):
        light = run(engine, 0.1, depth=4, cycles=300, seed=7)
        heavy = run(engine, 1, depth=4, cycles=300, seed=7)
        assert heavy.mean_occupancy > light.mean_occupancy

    def test_occupancy_bounded_by_depth(self, engine):
        m = run(engine, 1, depth=2, cycles=200, warmup=50, seed=8)
        assert 0.0 < m.mean_occupancy <= 2.0


class TestValidation:
    def test_rejects_bad_depth(self):
        with pytest.raises(ConfigurationError):
            measure_buffered(edn_graph(P), depth=0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            measure_buffered(edn_graph(P), traffic="uniform:1.5", cycles=10)

    def test_rejects_zero_cycles(self):
        with pytest.raises(ConfigurationError):
            measure_buffered(edn_graph(P), traffic="uniform:0.5", cycles=0)
