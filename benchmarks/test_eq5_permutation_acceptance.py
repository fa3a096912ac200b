"""Benchmark ``perm_pa``: Eq. 5's permutation acceptance vs simulation (Lemma 2)."""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.core.analysis import acceptance_probability, permutation_acceptance
from repro.core.config import EDNParams
from repro.experiments.base import ExperimentResult
from repro.sim.batched import BatchedEDN
from repro.sim.montecarlo import measure_acceptance
from repro.workloads import PermutationTraffic

CONFIGS = [(16, 4, 4, 1), (16, 4, 4, 2), (16, 4, 4, 3), (8, 2, 4, 3), (64, 16, 4, 2)]


def run(cycles: int = 80, seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="perm_pa",
        title="Eq. 5: permutation-traffic acceptance (Lemma 2) vs simulation",
    )
    rows = []
    for cfg in CONFIGS:
        params = EDNParams(*cfg)
        analytic = permutation_acceptance(params, 1.0)
        uniform = acceptance_probability(params, 1.0)
        measured = measure_acceptance(
            BatchedEDN(params),
            PermutationTraffic(params.num_inputs, params.num_outputs),
            cycles=cycles,
            seed=seed,
            batch=1,
        )
        rows.append(
            [str(params), uniform, analytic, measured.point,
             params.l in measured.blocked_by_stage or (params.l + 1) in measured.blocked_by_stage]
        )
    result.tables["Eq.5 vs simulation"] = (
        ["network", "PA (Eq.4)", "PAp (Eq.5)", "PAp simulated", "final-stage blocking seen"],
        rows,
    )
    return result


def test_eq5_permutation_acceptance(benchmark):
    result = benchmark(run)
    emit(result)
    for name, uniform, analytic, simulated, final_blocking in result.tables[
        "Eq.5 vs simulation"
    ][1]:
        # Lemma 2: the last two stages never block under permutations.
        assert final_blocking is False
        # Eq. 5 >= Eq. 4, and simulation tracks Eq. 5.
        assert analytic >= uniform - 1e-12
        assert simulated == pytest.approx(analytic, abs=0.06)
    # The l = 1 member is exactly conflict-free.
    first = result.tables["Eq.5 vs simulation"][1][0]
    assert first[2] == 1.0 and first[3] == 1.0
