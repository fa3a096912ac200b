"""Cycle simulator of the shared-memory MIMD system (paper, Section 4, Figure 9).

Processors on the network inputs share memory modules on the outputs
through an ``EDN(a, b, c, l)``.  Two operating policies:

* ``"ignore"`` — rejected requests vanish (Section 3's assumption 3); the
  measured acceptance should track Eq. 4;
* ``"resubmit"`` — rejected requests stall their processor and are
  reissued every cycle until served (Section 4); the measured acceptance,
  processor utilization and effective offered rate should track the Markov
  model (Eqs. 7-10), which the ``fig11_sim`` benchmark verifies.

The simulator is warmup-aware and reports batch-means confidence intervals
because the resubmission dynamics correlate consecutive cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError
from repro.mimd.memory import MemoryBank
from repro.mimd.processor import ProcessorArray
from repro.sim.batched import BatchedEDN
from repro.sim.rng import make_rng
from repro.sim.stats import Interval, batch_means

__all__ = ["MIMDSystem", "MIMDMetrics"]

POLICIES = ("ignore", "resubmit")


@dataclass
class MIMDMetrics:
    """Steady-state measurements from one MIMD simulation run.

    ``acceptance`` is delivered/offered over the measurement window (the
    simulated counterpart of Eq. 4's ``PA`` or Section 4's ``PA'``);
    ``utilization`` is the fraction of processors Active (the counterpart
    of ``qA``); ``offered_rate`` is requests offered per input per cycle
    (the counterpart of ``r'``); ``bandwidth`` is deliveries per cycle.
    """

    cycles: int
    warmup: int
    acceptance: Interval
    utilization: Interval
    offered_rate: float
    bandwidth: float
    mean_wait: float
    load_imbalance: float


class MIMDSystem:
    """A processor-memory multiprocessor around an EDN.

    >>> system = MIMDSystem(EDNParams(16, 4, 4, 2), request_rate=0.5)
    >>> metrics = system.run(cycles=300, warmup=50, seed=1)
    >>> 0.0 < metrics.acceptance.point <= 1.0
    True
    """

    def __init__(
        self,
        params: EDNParams,
        request_rate: float,
        *,
        policy: str = "resubmit",
        redraw_on_retry: bool = False,
        service_cycles: int = 1,
        priority: str = "label",
    ):
        if policy not in POLICIES:
            raise ConfigurationError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        self.params = params
        self.policy = policy
        self.network = BatchedEDN(params, priority=priority)
        self.processors = ProcessorArray(
            params.num_inputs,
            params.num_outputs,
            request_rate,
            redraw_on_retry=redraw_on_retry,
        )
        self.memory = MemoryBank(params.num_outputs, service_cycles=service_cycles)

    def run(self, *, cycles: int, warmup: int = 0, seed: int | None = 0) -> MIMDMetrics:
        """Simulate ``warmup + cycles`` network cycles; measure the last ``cycles``."""
        if cycles < 1:
            raise ConfigurationError("need at least one measured cycle")
        rng = make_rng(seed)
        acceptance_series: list[float] = []
        utilization_series: list[float] = []
        offered_total = 0
        delivered_total = 0
        wait_samples: list[float] = []

        for cycle in range(warmup + cycles):
            measuring = cycle >= warmup
            utilization = self.processors.fraction_active
            dests = self.processors.issue_requests(rng)
            result = self.network.route(dests)
            delivered_mask = result.blocked_stage == 0
            if delivered_mask.any():
                served = self.memory.admit(dests[delivered_mask], cycle)
                if not served.all():
                    # Busy modules bounce their request: flip those back to
                    # rejected so the processor-side policy applies.
                    bounced = np.flatnonzero(delivered_mask)[~served]
                    delivered_mask[bounced] = False

            offered = int((dests >= 0).sum())
            delivered = int(delivered_mask.sum())
            if measuring:
                acceptance_series.append(1.0 if offered == 0 else delivered / offered)
                utilization_series.append(utilization)
                offered_total += offered
                delivered_total += delivered
                rejected = (dests >= 0) & ~delivered_mask
                if rejected.any():
                    wait_samples.append(float(self.processors.wait_cycles[rejected].mean()))

            if self.policy == "resubmit":
                self.processors.absorb_outcomes(delivered_mask)
            else:
                # Ignored rejections: every processor is fresh next cycle.
                self.processors.state[:] = 0
                self.processors.pending[:] = -1

        n_batches = min(20, max(2, len(acceptance_series) // 10))
        acceptance = batch_means(acceptance_series, n_batches).confidence_interval()
        utilization = batch_means(utilization_series, n_batches).confidence_interval()
        return MIMDMetrics(
            cycles=cycles,
            warmup=warmup,
            acceptance=acceptance,
            utilization=utilization,
            offered_rate=offered_total / (cycles * self.params.num_inputs),
            bandwidth=delivered_total / cycles,
            mean_wait=float(np.mean(wait_samples)) if wait_samples else 0.0,
            load_imbalance=self.memory.load_imbalance(),
        )
