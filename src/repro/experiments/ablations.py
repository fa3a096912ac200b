"""Experiment ``ablation_priority``: design-choice ablations.

DESIGN.md calls out three free choices the paper leaves open; each is
ablated here:

* **contention discipline** — input-label priority (the paper's Figure 2
  convention) vs random choice among contenders.  The analytic model never
  references the discipline, so measured acceptance should be statistically
  indistinguishable under uniform traffic; what *does* differ is fairness
  (low-label inputs win more under label priority), measured as the spread
  of per-input delivery rates;
* **wire assignment within a bucket** — first-free vs random.  Both are
  work-conserving, so all cycle outcomes are acceptance-identical;
* **cluster schedule** (Section 5) — random (the paper's), round-robin,
  and lowest-index-first drain times on a small RA-EDN.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.api.spec import RunConfig
from repro.core.config import EDNParams
from repro.core.hyperbar import Hyperbar
from repro.experiments.base import ExperimentResult
from repro.sim.batched import BatchedEDN
from repro.sim.montecarlo import measure_acceptance
from repro.sim.rng import make_rng
from repro.workloads import UniformTraffic
from repro.simd.ra_edn import RAEDNSystem
from repro.simd.schedule import LowestIndexSchedule, RandomSchedule, RoundRobinSchedule
from repro.simd.simulator import RAEDNSimulator

__all__ = ["run_priority", "run_wire_policy", "run_schedules", "run"]


def run_priority(
    *, cycles: int = 150, seed: int = 0, config: Optional[RunConfig] = None
) -> ExperimentResult:
    """Label vs random contention priority: acceptance and fairness.

    A :class:`RunConfig` may supply cycles/seed; the explicit keywords act
    as its defaults.
    """
    cfg = (config if config is not None else RunConfig()).resolve(cycles=cycles, seed=seed)
    cycles, seed = cfg.cycles, cfg.seed
    params = EDNParams(16, 4, 4, 2)
    traffic = UniformTraffic(params.num_inputs, params.num_outputs, 1.0)
    result = ExperimentResult(
        experiment_id="ablation_priority",
        title=f"Contention-discipline ablation on {params}",
    )
    rows = []
    for discipline in ("label", "random"):
        router = BatchedEDN(params, priority=discipline)
        # batch=1: one traffic draw per cycle, the stream this table was
        # recorded under (chunked draws would change every sample).
        measured = measure_acceptance(
            router, traffic, cycles=cycles, seed=seed, batch=1
        )
        # Fairness: per-input delivery counts over the same traffic.
        rng = make_rng(seed)
        delivered = np.zeros(params.num_inputs)
        for _ in range(cycles):
            outcome = router.route(traffic.generate(rng), rng)
            delivered += outcome.blocked_stage == 0
        spread = float(delivered.std() / delivered.mean())
        rows.append([discipline, measured.point, measured.acceptance.halfwidth, spread])
    result.tables["discipline"] = (
        ["priority", "PA", "CI halfwidth", "per-input delivery spread (cv)"],
        rows,
    )
    result.notes.append(
        "acceptance matches across disciplines (the analytic model is "
        "discipline-free); label priority skews deliveries toward low labels"
    )
    return result


def run_wire_policy(
    *, trials: int = 200, seed: int = 0, config: Optional[RunConfig] = None
) -> ExperimentResult:
    """First-free vs random bucket-wire assignment on a single hyperbar.

    Work conservation means the accepted *set* is identical whenever the
    contention order is; only the wire each winner rides differs.  A
    :class:`RunConfig` may supply the seed.
    """
    if config is not None and config.seed is not None:
        seed = config.seed
    rng = make_rng(seed)
    first_free = Hyperbar(16, 4, 4, wire_policy="first_free")
    random_wire = Hyperbar(16, 4, 4, wire_policy="random")
    identical = 0
    for _ in range(trials):
        digits = [int(d) if rng.random() < 0.8 else None for d in rng.integers(0, 4, 16)]
        a = first_free.route(digits, rng=rng)
        b = random_wire.route(digits, rng=rng)
        if set(a.accepted) == set(b.accepted) and a.rejected == b.rejected:
            identical += 1
    result = ExperimentResult(
        experiment_id="ablation_wire_policy",
        title="Wire-assignment ablation on H(16->4x4)",
    )
    result.tables["acceptance equivalence"] = (
        ["trials", "identical accepted sets"],
        [[trials, identical]],
    )
    result.notes.append("expected: identical on every trial (both policies are work-conserving)")
    return result


def run_schedules(
    *, runs: int = 15, seed: int = 0, config: Optional[RunConfig] = None
) -> ExperimentResult:
    """Drain-time sensitivity to the cluster schedule on RA-EDN(4,2,2,8).

    A :class:`RunConfig` may supply the seed (``batch`` is deliberately
    not forwarded — see :func:`repro.experiments.sec5_raedn.run_simulation`).
    """
    if config is not None and config.seed is not None:
        seed = config.seed
    system = RAEDNSystem(4, 2, 2, 8)
    result = ExperimentResult(
        experiment_id="ablation_schedule",
        title=f"Schedule ablation on {system}",
    )
    rows = []
    for name, schedule in (
        ("random (paper)", RandomSchedule()),
        ("round robin", RoundRobinSchedule()),
        ("lowest index", LowestIndexSchedule()),
    ):
        stats = RAEDNSimulator(system, schedule=schedule).measure(runs=runs, seed=seed)
        interval = stats.cycles.confidence_interval()
        rows.append([name, interval.point, interval.low, interval.high])
    result.tables["cycles to drain a random permutation"] = (
        ["schedule", "mean", "CI low", "CI high"],
        rows,
    )
    result.notes.append(
        "a random schedule on a fixed permutation equals a fixed schedule on a "
        "random permutation (paper, Section 5.1): all three should coincide "
        "within noise on random permutations"
    )
    return result


def run() -> list[ExperimentResult]:
    """All three ablations with default budgets."""
    return [run_priority(), run_wire_policy(), run_schedules()]
