"""Every docstring example in the public modules must execute and hold."""

from __future__ import annotations

import doctest
import importlib

import pytest

DOCUMENTED_MODULES = [
    "repro.api.spec",
    "repro.api.registry",
    "repro.api.measure",
    "repro.api.jobs",
    "repro.workloads.models",
    "repro.workloads.registry",
    "repro.core.labels",
    "repro.core.permutations",
    "repro.core.hyperbar",
    "repro.core.crossbar",
    "repro.core.config",
    "repro.core.tags",
    "repro.core.network",
    "repro.core.faults",
    "repro.core.topology",
    "repro.sim.stats",
    "repro.sim.batched",
    "repro.sim.stagegraph",
    "repro.sim.closedloop",
    "repro.serve.cache",
    "repro.serve.protocol",
    "repro.serve.supervisor",
    "repro.baselines.delta",
    "repro.baselines.omega",
    "repro.baselines.benes",
    "repro.baselines.clos",
    "repro.baselines.crossbar_network",
    "repro.viz.tables",
    "repro.viz.ascii_art",
    "repro.mimd.system",
    "repro.simd.simulator",
    "repro.simd.maspar",
]


@pytest.mark.parametrize("module_name", DOCUMENTED_MODULES)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failure(s) in {module_name}"
    assert result.attempted > 0, f"{module_name} lost its documented examples"
