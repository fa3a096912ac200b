"""Spec-level measurement: one call from :class:`NetworkSpec` to numbers.

The thin glue between the facade and the Monte-Carlo harness: build the
router the config's backend selects, resolve the workload (explicit
generator or spec string, ``config.traffic``, or the default uniform
demands), and hand off to
:func:`repro.sim.montecarlo.measure_acceptance`.
"""

from __future__ import annotations

from typing import Optional

from repro.api.registry import build_router
from repro.api.spec import NetworkSpec, RunConfig
from repro.core.exceptions import ConfigurationError
from repro.sim.montecarlo import AcceptanceMeasurement, measure_acceptance
from repro.workloads import TrafficLike, UniformTraffic

__all__ = ["measure"]


def measure(
    spec: NetworkSpec,
    config: Optional[RunConfig] = None,
    *,
    traffic: Optional[TrafficLike] = None,
    rate: float = 1.0,
) -> AcceptanceMeasurement:
    """Monte-Carlo acceptance of the specified network under ``traffic``.

    ``traffic`` is anything :func:`repro.workloads.make_traffic` accepts —
    a workload spec string, a parsed spec, or a built generator.  When
    omitted, a set ``config.traffic`` is used; failing that, uniform
    independent demands at request rate ``rate`` (the paper's Section 3.2
    workload) sized to the network.  ``rate`` shapes only that default —
    combining it with an explicit workload is rejected rather than
    silently ignored (encode rates inside the spec: ``"uniform:0.5"``).

    Repeated calls for equal specs are cheap: ``build_router`` constructs
    engines that share compiled :class:`~repro.sim.plan.StagePlan`
    tables through the keyed plan cache, and ``config.rel_err`` turns the
    cycle budget into a ceiling with adaptive early stopping (see
    ``docs/PERFORMANCE.md``).

    >>> m = measure(NetworkSpec.edn(16, 4, 4, 2), RunConfig(cycles=20, seed=0))
    >>> 0.0 < m.point <= 1.0
    True
    >>> hot = measure(
    ...     NetworkSpec.edn(16, 4, 4, 2),
    ...     RunConfig(cycles=20, seed=0, traffic="hotspot:0.5"),
    ... )
    >>> hot.point < m.point  # the hot output saturates its paths
    True
    """
    config = config if config is not None else RunConfig()
    router = build_router(spec, config.backend)
    if traffic is None and config.traffic is None:
        traffic = UniformTraffic(router.n_inputs, router.n_outputs, rate)
    elif rate != 1.0:
        raise ConfigurationError(
            "rate applies to the default uniform workload only; encode the "
            "rate inside the traffic spec instead (e.g. 'uniform:0.5', "
            "'hotspot:0.1,rate=0.5')"
        )
    return measure_acceptance(router, traffic, config=config)
