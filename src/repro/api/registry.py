"""String-keyed backend registry and router construction.

A *backend* is a named way of turning a :class:`NetworkSpec` into a
:class:`Router`.  Backends declare which topology kinds they build and
which spec features they support; :func:`build_router` resolves a name (or
``"auto"``) against a spec and instantiates the router.

Registered backends:

=============  =======================================  =================
name           engine                                   kinds
=============  =======================================  =================
``native``     :class:`StagePlan` lowered to            edn, delta,
               JIT-compiled per-stage loops             omega, dilated
               (:class:`NativeStageRouter`; numba or
               a runtime-compiled C kernel); needs
               ``pip install repro[native]`` or a C
               toolchain, and drops out of the
               registry when neither is present
``batched``    native ``(batch, N)`` array engines —    edn, delta,
               the compiled stage-graph router every    omega, dilated,
               EDN and delta-family network compiles    crossbar
               to (:class:`CompiledStageRouter`),
               and the batched crossbar
``vectorized`` per-cycle engines behind the automatic   edn, delta,
               batch loop — the independent             omega, dilated,
               cross-check path (the sort-based         crossbar
               :class:`StageGraphReference`
               interpreter, and the crossbar)
``reference``  the per-message reference engine         edn
               (non-default wire policies; faulted
               EDNs via :class:`FaultyEDNetwork`)
``matching``   Clos matching decomposition              clos
``looping``    Beneš looping algorithm                  benes
=============  =======================================  =================

``auto`` picks the first supporting backend in :data:`AUTO_PREFERENCE`
order — the JIT backend when its dependencies are present, then batched
engines, then the per-cycle loop — mirroring how the Monte-Carlo harness
has always dispatched on ``route_batch`` availability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.exceptions import ConfigurationError
from repro.api.router import (
    PerCycleRouter,
    RearrangeableRouter,
    ReferenceEDNRouter,
    Router,
)
from repro.api.spec import NetworkSpec

__all__ = [
    "Backend",
    "BACKENDS",
    "AUTO_PREFERENCE",
    "register_backend",
    "available_backends",
    "resolve_backend",
    "build_router",
]


@dataclass(frozen=True)
class Backend:
    """One registered way of building routers.

    ``builder`` instantiates a router for a supported spec; ``accepts``
    refines kind membership with feature checks (faults, disciplines).
    ``batched`` records whether routing is natively batched (drives
    ``auto`` preference and lets tooling report engine class).
    ``availability`` reports a host-environment problem (missing
    optional dependency, no toolchain) as a message, or ``None`` when
    the backend can run here; ``auto_ok`` additionally gates whether
    ``auto`` may pick the backend (an available backend can still opt
    out of automatic selection).
    """

    name: str
    description: str
    kinds: frozenset[str]
    batched: bool
    builder: Callable[[NetworkSpec], Router]
    accepts: Callable[[NetworkSpec], bool]
    availability: Callable[[], str | None]
    auto_ok: Callable[[], bool]

    def supports(self, spec: NetworkSpec) -> bool:
        return spec.kind in self.kinds and self.accepts(spec)

    def runnable(self) -> bool:
        return self.availability() is None


#: name -> Backend, in registration order.
BACKENDS: dict[str, Backend] = {}

#: ``auto`` tries these in order and takes the first that supports the spec.
AUTO_PREFERENCE = (
    "native", "batched", "matching", "looping", "vectorized", "reference"
)


def register_backend(
    name: str,
    *,
    description: str,
    kinds: frozenset[str] | set[str],
    batched: bool,
    accepts: Callable[[NetworkSpec], bool] | None = None,
    availability: Callable[[], str | None] | None = None,
    auto_ok: Callable[[], bool] | None = None,
):
    """Register ``fn`` as the builder of backend ``name`` (decorator)."""

    def decorate(fn: Callable[[NetworkSpec], Router]):
        if name in BACKENDS:
            raise ConfigurationError(f"backend {name!r} already registered")
        BACKENDS[name] = Backend(
            name=name,
            description=description,
            kinds=frozenset(kinds),
            batched=batched,
            builder=fn,
            accepts=accepts if accepts is not None else (lambda spec: True),
            availability=availability if availability is not None else (lambda: None),
            auto_ok=auto_ok if auto_ok is not None else (lambda: True),
        )
        return fn

    return decorate


def available_backends(spec: NetworkSpec) -> list[str]:
    """Backends able to build ``spec`` *on this host*, preference first.

    Environment-gated backends (``native`` needs numba or a C toolchain)
    drop out of the list when their dependency is missing, so the
    doctests below pin specs the gated backends never serve.

    >>> available_backends(NetworkSpec.crossbar(8))
    ['batched', 'vectorized']
    >>> available_backends(NetworkSpec.benes(16))
    ['looping']
    """
    ordered = list(AUTO_PREFERENCE) + [n for n in BACKENDS if n not in AUTO_PREFERENCE]
    return [
        name
        for name in ordered
        if name in BACKENDS
        and BACKENDS[name].supports(spec)
        and BACKENDS[name].runnable()
    ]


def resolve_backend(spec: NetworkSpec, backend: str = "auto") -> Backend:
    """The :class:`Backend` that ``backend`` selects for ``spec``.

    ``auto`` walks :data:`AUTO_PREFERENCE`, skipping backends that opted
    out of automatic selection; an explicit name must exist, be runnable
    on this host, and support the spec, with the error naming the
    alternatives.

    >>> resolve_backend(NetworkSpec.crossbar(8)).name
    'batched'
    >>> resolve_backend(NetworkSpec.clos(8, 8)).name
    'matching'
    """
    if backend == "auto":
        for name in available_backends(spec):
            if BACKENDS[name].auto_ok():
                return BACKENDS[name]
        raise ConfigurationError(
            f"no registered backend supports {spec} with "
            f"priority={spec.priority!r}, wire_policy={spec.wire_policy!r}, "
            f"{len(spec.faults)} fault(s); kind {spec.kind!r} is served by "
            f"{sorted(n for n, b in BACKENDS.items() if spec.kind in b.kinds)}"
        )
    try:
        entry = BACKENDS[backend]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {backend!r}; registered: {sorted(BACKENDS)}"
        ) from None
    # Environment availability first: "you asked for native but numba is
    # missing" beats "native does not support this spec".
    reason = entry.availability()
    if reason is not None:
        raise ConfigurationError(f"backend {backend!r} is unavailable: {reason}")
    if not entry.supports(spec):
        if spec.faults:
            from dataclasses import replace

            if entry.supports(replace(spec, faults=())):
                # The backend handles the topology but not its faults:
                # say so, and name the fault-capable alternatives.
                capable = available_backends(spec)
                raise ConfigurationError(
                    f"backend {backend!r} does not support fault injection "
                    f"on {spec} ({len(spec.faults)} wire fault(s)); "
                    f"fault-capable backends for this spec: {capable}"
                )
        raise ConfigurationError(
            f"backend {backend!r} does not support {spec} "
            f"(available: {available_backends(spec)})"
        )
    return entry


def build_router(spec: NetworkSpec, backend: str = "auto") -> Router:
    """Construct a router for ``spec`` — the facade's main entry point.

    >>> import numpy as np
    >>> router = build_router(NetworkSpec.edn(16, 4, 4, 2))
    >>> router.route_batch(np.tile(np.arange(64), (3, 1))).output.shape
    (3, 64)
    """
    return resolve_backend(spec, backend).builder(spec)


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------


def _no_faults(spec: NetworkSpec) -> bool:
    return not spec.faults


def _array_engine_ok(spec: NetworkSpec) -> bool:
    # Array engines fix first-free wire assignment (acceptance-equivalent).
    # Faults are fine: spec validation restricts them to the stage-graph
    # kinds, where they lower into the compiled plan's dead masks.
    return spec.wire_policy == "first_free"


def _label_only(spec: NetworkSpec) -> bool:
    # Global control has no contention randomness to randomize.
    return spec.priority == "label"


@register_backend(
    "batched",
    description="native (batch, N) array engines — the Monte-Carlo fast path",
    kinds={"edn", "delta", "omega", "dilated", "crossbar"},
    batched=True,
    accepts=_array_engine_ok,
)
def _build_batched(spec: NetworkSpec) -> Router:
    from repro.baselines.crossbar_network import CrossbarNetwork
    from repro.sim.batched import CompiledStageRouter

    if spec.kind == "crossbar":
        return CrossbarNetwork(*spec.shape, priority=spec.priority)
    # Every stage-graph kind compiles to the same plan-cached kernels;
    # the spec carries the topology (and its fault masks) as data.
    return CompiledStageRouter(
        spec.stage_graph(), priority=spec.priority, faults=spec.faults
    )


@register_backend(
    "vectorized",
    description="per-cycle array engines behind the automatic batch loop",
    kinds={"edn", "delta", "omega", "dilated", "crossbar"},
    batched=False,
    accepts=_array_engine_ok,
)
def _build_vectorized(spec: NetworkSpec) -> Router:
    from repro.baselines.crossbar_network import CrossbarNetwork
    from repro.sim.stagegraph import StageGraphReference

    if spec.kind == "crossbar":
        return PerCycleRouter(CrossbarNetwork(*spec.shape, priority=spec.priority))
    # The sort-based per-cycle interpreter behind the generic batch loop:
    # deliberately independent of the compiled kernels, so cross-backend
    # equivalence tests exercise two implementations of the semantics —
    # including the fault masks, which this path builds from per-bucket
    # live lists rather than the plan's argsort lowering.
    return PerCycleRouter(
        StageGraphReference(
            spec.stage_graph(), priority=spec.priority, faults=spec.faults
        )
    )


def _reference_ok(spec: NetworkSpec) -> bool:
    # FaultyEDNetwork implements the paper's default disciplines only.
    if spec.faults:
        return spec.priority == "label" and spec.wire_policy == "first_free"
    return True


@register_backend(
    "reference",
    description="per-message reference engine (fault injection, wire policies)",
    kinds={"edn"},
    batched=False,
    accepts=_reference_ok,
)
def _build_reference(spec: NetworkSpec) -> Router:
    from repro.core.faults import FaultSet, FaultyEDNetwork
    from repro.core.network import EDNetwork

    if spec.faults:
        return ReferenceEDNRouter(
            FaultyEDNetwork(spec.edn_params, FaultSet(spec.faults))
        )
    return ReferenceEDNRouter(
        EDNetwork(
            spec.edn_params, priority=spec.priority, wire_policy=spec.wire_policy
        )
    )


@register_backend(
    "matching",
    description="Clos matching-decomposition global routing",
    kinds={"clos"},
    batched=False,
    accepts=_label_only,
)
def _build_clos(spec: NetworkSpec) -> Router:
    from repro.baselines.clos import ClosNetwork

    n, r = spec.shape[0], spec.shape[1]
    m = spec.shape[2] if len(spec.shape) == 3 else None
    return RearrangeableRouter(ClosNetwork(n, r, m))


@register_backend(
    "looping",
    description="Beneš looping-algorithm global routing",
    kinds={"benes"},
    batched=False,
    accepts=_label_only,
)
def _build_benes(spec: NetworkSpec) -> Router:
    from repro.baselines.benes import BenesNetwork

    return RearrangeableRouter(BenesNetwork(spec.shape[0]))


def _native_availability() -> str | None:
    # Late import + module-attribute call so tests can monkeypatch the
    # probe, and so importing the registry never triggers a JIT probe.
    from repro.sim import native

    return native.unavailable_reason()


def _native_auto_ok() -> bool:
    from repro.sim import native

    return bool(native.available_tiers())


@register_backend(
    "native",
    description="StagePlan lowered to JIT-compiled per-stage loops",
    kinds={"edn", "delta", "omega", "dilated"},
    batched=True,
    accepts=_array_engine_ok,
    availability=_native_availability,
    auto_ok=_native_auto_ok,
)
def _build_native(spec: NetworkSpec) -> Router:
    from repro.sim.native import NativeStageRouter

    # Every stage-graph kind (a faulted EDN included) compiles to the
    # same plan; the native router swaps in the fused counts kernel and
    # inherits the full batched capability surface for everything else.
    return NativeStageRouter(
        spec.stage_graph(), priority=spec.priority, faults=spec.faults
    )
