"""repro.api — the unified routing facade.

The canonical way to construct and drive *any* network in the repository:

1. describe the network with a :class:`NetworkSpec` (topology kind + shape,
   disciplines, optional wire faults);
2. describe the run with a :class:`RunConfig` (cycles, seed, jobs, batch,
   backend, confidence);
3. :func:`build_router` turns the spec into a :class:`Router` whose
   canonical method routes ``(batch, N)`` demand matrices;
4. :func:`measure` goes straight from spec to an acceptance measurement.

Every engine in the repo sits behind the same protocol — the reference
per-message EDN, the compiled stage-graph router (every EDN and
delta-family network, fault-injected or not), the per-cycle stage-graph
interpreter, and the crossbar/Clos/Beneš baselines — selected by the
string-keyed backend registry (``backend="auto"`` picks batched engines
where available and falls back to the per-cycle loop).

Quickstart::

    import numpy as np
    from repro.api import NetworkSpec, RunConfig, build_router, measure

    spec = NetworkSpec.edn(16, 4, 4, 2)          # 64x64 EDN
    router = build_router(spec)                  # batched engine, auto-picked
    result = router.route_batch(np.tile(np.arange(64), (8, 1)))
    print(result.delivered_per_cycle)

    # One-liner comparisons across topologies:
    for s in (spec, NetworkSpec.delta(8, 8, 2), NetworkSpec.crossbar(64),
              NetworkSpec.clos(8, 8), NetworkSpec.benes(64)):
        print(s.label, measure(s, RunConfig(cycles=100, seed=0)).point)

    # ... and across workloads (specs from the repro.workloads registry):
    for w in ("uniform", "hotspot:0.1", "bitrev", "bursty:on=8,off=24"):
        print(w, measure(spec, RunConfig(cycles=100, seed=0, traffic=w)).point)
"""

import importlib

# Exports resolve lazily (PEP 562): the specs live in the leaf module
# ``repro.api.spec``, which the sim/experiments layers import without
# paying for the router adapters and every baseline engine that
# ``repro.api.registry``/``router``/``measure`` pull in.
_EXPORTS = {
    "NetworkSpec": "spec",
    "RunConfig": "spec",
    "TOPOLOGY_KINDS": "spec",
    "Router": "router",
    "PerCycleRouter": "router",
    "ReferenceEDNRouter": "router",
    "RearrangeableRouter": "router",
    "Backend": "registry",
    "BACKENDS": "registry",
    "AUTO_PREFERENCE": "registry",
    "register_backend": "registry",
    "available_backends": "registry",
    "resolve_backend": "registry",
    "build_router": "registry",
    "measure": "measure",
}


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"repro.api.{module_name}"), name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "NetworkSpec",
    "RunConfig",
    "TOPOLOGY_KINDS",
    "Router",
    "PerCycleRouter",
    "ReferenceEDNRouter",
    "RearrangeableRouter",
    "Backend",
    "BACKENDS",
    "AUTO_PREFERENCE",
    "register_backend",
    "available_backends",
    "resolve_backend",
    "build_router",
    "measure",
]
