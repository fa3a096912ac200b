"""Dynamic fault processes: failures that arrive, transients that pass.

:mod:`repro.core.faults` models a *static* damage pattern; real machines
degrade over time.  This module adds time-varying fault models over any
:class:`~repro.sim.stagegraph.StageGraph` and the driver that measures
the resulting degradation trajectory:

* :class:`TransientFaults` — per-window Bernoulli transients: every
  window redraws an i.i.d. fault pattern at a fixed rate (glitches that
  clear by themselves).
* :class:`PermanentFaults` — exponential permanent-failure arrivals: a
  live interior wire fails during a ``w``-cycle window with probability
  ``1 - exp(-failure_rate * w)``; failed wires optionally return after
  an exponential repair time.
* :func:`degradation_trajectory` — steps a fault process through
  windows, re-masks the compiled routing plan at each boundary (a plan
  cache keyed by the fault tuple makes this a table swap, not a
  recompile — see :class:`~repro.sim.plan.StagePlan`), and records the
  delivered fraction and sampled pair connectivity over time.

Both processes expose ``advance(cycles) -> FaultSet``: the fault pattern
in force for the next ``cycles``-cycle window.  Patterns change only at
window boundaries — the within-window fabric is static, which is what
lets the batched kernels route every window at full speed.

Terminal output pins never fail, matching
:func:`~repro.core.faults.random_graph_faults`: degradation stays a
statement about the fabric, not about destinations ceasing to exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.faults import FaultSet, WireFault, random_graph_faults

if TYPE_CHECKING:  # sim lives a layer up; annotations and lazy imports only
    from repro.sim.stagegraph import StageGraph

__all__ = [
    "FaultProcess",
    "TransientFaults",
    "PermanentFaults",
    "TrajectoryPoint",
    "degradation_trajectory",
]


class FaultProcess(Protocol):
    """The fault pattern in force for the next ``cycles``-cycle window."""

    def advance(self, cycles: int) -> FaultSet: ...


def _interior_wires(graph: "StageGraph") -> list[WireFault]:
    """Every failable wire: all bucket wires of every non-terminal column."""
    widths = graph.stage_widths
    wires = []
    for index, stage in enumerate(graph.stages[:-1]):
        for switch in range(widths[index] // stage.fan_in):
            for local in range(stage.bucket_wires):
                wires.append(WireFault(index + 1, switch, local))
    return wires


class TransientFaults:
    """Per-window Bernoulli transients: each window redraws i.i.d. faults.

    Models glitches (particle strikes, marginal timing) that persist for
    one window and clear: every :meth:`advance` call samples a fresh
    pattern at ``rate`` via :func:`~repro.core.faults.random_graph_faults`
    from its own deterministic stream, independent of window length.
    """

    def __init__(self, graph: "StageGraph", rate: float, *, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"failure rate must lie in [0, 1], got {rate}")
        self.graph = graph
        self.rate = rate
        self._rng = np.random.default_rng(np.random.SeedSequence(seed))

    def advance(self, cycles: int) -> FaultSet:
        if cycles < 1:
            raise ConfigurationError(f"window must cover >= 1 cycle, got {cycles}")
        return random_graph_faults(self.graph, self.rate, self._rng)


class PermanentFaults:
    """Exponential permanent-failure arrivals, with optional repair.

    Each live interior wire fails independently during a ``w``-cycle
    window with probability ``1 - exp(-failure_rate * w)`` (the discrete
    view of exponential inter-failure times with rate ``failure_rate``
    per cycle).  A failed wire stays dead until its repair completes:
    repair times are exponential with mean ``repair_cycles``
    (``repair_cycles = 0``, the default, means no repair — damage only
    accumulates).  Failures and repairs take effect at window
    boundaries, rounded *against* the fabric: a wire that fails at any
    point of a window is dead for that whole window, and repairs
    complete only at the first boundary past their completion time.
    """

    def __init__(
        self,
        graph: "StageGraph",
        failure_rate: float,
        *,
        repair_cycles: float = 0.0,
        seed: int = 0,
    ):
        if failure_rate < 0:
            raise ConfigurationError(
                f"failure rate must be >= 0 per cycle, got {failure_rate}"
            )
        if repair_cycles < 0:
            raise ConfigurationError(
                f"mean repair time must be >= 0 cycles, got {repair_cycles}"
            )
        self.graph = graph
        self.failure_rate = failure_rate
        self.repair_cycles = repair_cycles
        self._rng = np.random.default_rng(np.random.SeedSequence(seed))
        self._wires = _interior_wires(graph)
        self._t = 0.0
        #: wire -> repair completion time (inf = never repaired).
        self._down: dict[WireFault, float] = {}

    @property
    def time(self) -> float:
        """Cycles advanced so far."""
        return self._t

    def advance(self, cycles: int) -> FaultSet:
        if cycles < 1:
            raise ConfigurationError(f"window must cover >= 1 cycle, got {cycles}")
        end = self._t + cycles
        # Repairs complete at this boundary...
        self._down = {w: due for w, due in self._down.items() if due > self._t}
        # ...then live wires may fail during the window.
        live = [w for w in self._wires if w not in self._down]
        if live and self.failure_rate > 0:
            p_fail = 1.0 - float(np.exp(-self.failure_rate * cycles))
            draws = self._rng.random(len(live))
            for wire, u in zip(live, draws):
                if u < p_fail:
                    if self.repair_cycles > 0:
                        due = end + float(
                            self._rng.exponential(self.repair_cycles)
                        )
                    else:
                        due = float("inf")
                    self._down[wire] = due
        self._t = end
        return FaultSet(self._down)


@dataclass(frozen=True)
class TrajectoryPoint:
    """One window of a degradation trajectory.

    The last six fields are populated only by *buffered* trajectories
    (``degradation_trajectory(..., buffer_depth=)``), where queueing
    makes latency and occupancy meaningful; unbuffered trajectories
    leave them at their defaults so existing consumers are unaffected.
    """

    cycle: int  #: cycle count at the window's end
    n_faults: int  #: dead wires in force during the window
    delivered_fraction: float  #: delivered / offered over the window
    connectivity: float  #: sampled fraction of routable (src, dst) pairs
    dropped: int = 0  #: packets lost to wires that died this window
    in_flight: int = 0  #: packets queued network-wide at window end
    throughput: Optional[float] = None  #: delivered / output / cycle
    mean_latency: Optional[float] = None  #: cycles, window deliveries
    latency_p50: Optional[float] = None
    latency_p95: Optional[float] = None
    latency_p99: Optional[float] = None
    mean_occupancy: Optional[float] = None  #: packets per FIFO, cycle-end mean


def degradation_trajectory(
    graph: "StageGraph",
    process: FaultProcess,
    *,
    windows: int,
    cycles_per_window: int,
    traffic: Optional[object] = None,
    seed: int = 0,
    priority: str = "label",
    connectivity_samples: int = 256,
    buffer_depth: Optional[int] = None,
) -> list[TrajectoryPoint]:
    """Route ``windows`` windows under ``process``; record degradation.

    Each window asks the process for its fault pattern, re-masks the
    compiled routing plan (the fault-keyed plan cache turns repeat
    patterns into table reuse), routes ``cycles_per_window`` cycles of
    ``traffic`` (default full-rate uniform) on the batched kernels, and
    records the delivered fraction plus pair connectivity sampled over
    ``connectivity_samples`` random lone messages (one per batched
    cycle, so the whole probe is one kernel call).

    With ``buffer_depth`` set the run becomes *latency under
    degradation*: one persistent buffered router (the native step kernel
    where a tier is available) carries its per-wire FIFO state across
    windows, each boundary swaps the live network onto
    the new fault set via
    :meth:`~repro.sim.batched.CompiledStageRouter.apply_faults` (packets
    stranded on dying wires are dropped with accounting), and every
    point additionally reports the window's latency histogram
    (mean/p50/p95/p99), mean FIFO occupancy, throughput, drops, and
    packets in flight.
    """
    from repro.sim.batched import CompiledStageRouter
    from repro.sim.native import NativeStageRouter
    from repro.sim.rng import make_rng
    from repro.sim.stats import LatencyStats
    from repro.workloads.models import TrafficGenerator
    from repro.workloads.registry import make_traffic

    if windows < 1:
        raise ConfigurationError(f"need >= 1 window, got {windows}")
    if traffic is None:
        traffic = "uniform"
    if not isinstance(traffic, TrafficGenerator):
        traffic = make_traffic(traffic, graph.n_inputs, graph.n_outputs)
    rng = make_rng(seed)
    points = []
    elapsed = 0
    buffered = None
    if buffer_depth is not None:
        buffered = NativeStageRouter(
            graph, priority=priority, buffer_depth=buffer_depth
        )
    for _ in range(windows):
        faults = process.advance(cycles_per_window).canonical()
        router = CompiledStageRouter(graph, priority=priority, faults=faults)
        extras: dict = {}
        if buffered is None:
            dests = traffic.generate_batch(rng, cycles_per_window)
            counts = router.route_batch_counts(dests, rng)
            offered = int(counts.offered_per_cycle.sum())
            delivered = int(counts.delivered_per_cycle.sum())
        else:
            dropped = buffered.apply_faults(faults)
            dests = traffic.generate_batch(rng, cycles_per_window)
            offered = delivered = 0
            occupancy_total = 0.0
            latency = LatencyStats()
            for row in range(cycles_per_window):
                outcome = buffered.step(dests[row], rng)
                offered += outcome.offered
                delivered += outcome.delivered
                latency.record(outcome.latencies)
                occupancy_total += buffered.total_occupancy()
            extras = dict(
                dropped=dropped,
                in_flight=buffered.total_occupancy(),
                throughput=delivered / (cycles_per_window * graph.n_outputs),
                mean_latency=latency.mean if latency.count else None,
                latency_p50=latency.percentile(0.50) if latency.count else None,
                latency_p95=latency.percentile(0.95) if latency.count else None,
                latency_p99=latency.percentile(0.99) if latency.count else None,
                mean_occupancy=(
                    occupancy_total
                    / cycles_per_window
                    / buffered._buffers.num_queues
                ),
            )
        elapsed += cycles_per_window
        points.append(
            TrajectoryPoint(
                cycle=elapsed,
                n_faults=len(faults),
                delivered_fraction=delivered / offered if offered else 1.0,
                connectivity=_sampled_connectivity(
                    router, rng, connectivity_samples
                ),
                **extras,
            )
        )
    return points


def _sampled_connectivity(router, rng, samples: int) -> float:
    """Fraction of random (source, destination) pairs a lone message serves.

    The Monte-Carlo view of
    :func:`~repro.core.faults.connectivity_under_faults`: one lone
    message per batched cycle, so ``samples`` probes cost one kernel
    call instead of ``N^2`` routed cycles.
    """
    if samples < 1:
        return 1.0
    n, m = router.n_inputs, router.n_outputs
    sources = rng.integers(0, n, samples)
    dest = rng.integers(0, m, samples)
    dests = np.full((samples, n), -1, dtype=np.int64)
    dests[np.arange(samples), sources] = dest
    counts = router.route_batch_counts(dests)
    return float(counts.delivered_per_cycle.sum()) / samples
