"""The :class:`Router` protocol and the adapters that implement it.

A *router* is anything that can run circuit-switched cycles over demand
vectors.  The canonical method is batched: ``route_batch`` takes a
``(batch, N)`` demand matrix (entry ``[i, s]`` = requested output of source
``s`` in independent cycle ``i``, ``-1`` = idle) and returns a
:class:`~repro.sim.batched.BatchCycleResult`; ``route`` handles one cycle.
Natively-batched engines (:class:`~repro.sim.batched.CompiledStageRouter`,
the crossbar baseline) satisfy the protocol directly; everything else is
wrapped here:

* :class:`PerCycleRouter` — any per-cycle array engine (the stage-graph
  interpreter, the crossbar) gains an automatic batch loop;
* :class:`ReferenceEDNRouter` — the reference engine
  (:class:`~repro.core.network.EDNetwork`) and its fault-injected sibling,
  converted from per-message objects to outcome arrays;
* :class:`RearrangeableRouter` — globally-controlled Clos/Beneš fabrics:
  output conflicts resolve in label order, the surviving partial
  permutation is extended to a full one and routed conflict-free.

The stage-graph kinds (``edn``/``delta``/``omega``/``dilated``) need no
adapter at all: their specs compile to
:class:`~repro.sim.stagegraph.StageGraph` descriptors routed natively by
:class:`~repro.sim.batched.CompiledStageRouter` (the ``batched``
backend), with the per-cycle
:class:`~repro.sim.stagegraph.StageGraphReference` interpreter behind
:class:`PerCycleRouter` as the cross-check path (the ``vectorized``
backend).

Outcome conventions everywhere: ``output[..., s]`` is the terminal reached
(``-1`` idle/blocked); ``blocked_stage[..., s]`` is ``0`` delivered, the
1-indexed blocking stage otherwise, ``-1`` idle.
"""

from __future__ import annotations

from typing import Optional, Protocol, Union, runtime_checkable

import numpy as np

from repro.baselines.benes import BenesNetwork
from repro.baselines.clos import ClosNetwork
from repro.core.exceptions import RoutingError
from repro.core.network import EDNetwork, Message
from repro.core.faults import FaultyEDNetwork
from repro.sim.batched import BatchCycleResult, validate_demand_matrix
from repro.sim.batched import IDLE, VectorCycleResult

__all__ = [
    "Router",
    "PerCycleRouter",
    "ReferenceEDNRouter",
    "RearrangeableRouter",
]


@runtime_checkable
class Router(Protocol):
    """What :func:`repro.api.build_router` returns and measurements consume."""

    @property
    def n_inputs(self) -> int: ...

    @property
    def n_outputs(self) -> int: ...

    def route(
        self, dests: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> VectorCycleResult: ...

    def route_batch(
        self, dests: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> BatchCycleResult: ...


class _BatchByLoop:
    """Mixin: derive ``route_batch`` by looping ``route`` over the rows.

    The per-cycle fallback of the facade: semantics match routing each
    cycle separately with the same generator threaded through in row
    order, so per-cycle and batched paths of a wrapped engine agree
    bit for bit (deterministic disciplines) or draw identically-ordered
    streams (random priority).  ``rng`` also accepts a sequence of one
    generator per cycle (the :class:`~repro.sim.batched.BatchedEDN`
    convention the Monte-Carlo harness uses for chunk-size-invariant
    random-priority streams); row ``i`` then routes with ``rng[i]``.
    """

    def route_batch(
        self, dests: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> BatchCycleResult:
        dests, _flat, _live = validate_demand_matrix(
            dests, self.n_inputs, self.n_outputs
        )
        if rng is None or isinstance(rng, np.random.Generator):
            results = [self.route(row, rng) for row in dests]
        else:
            cycle_rngs = list(rng)
            if len(cycle_rngs) != dests.shape[0]:
                raise RoutingError(
                    f"need one generator per cycle: got {len(cycle_rngs)} "
                    f"for batch {dests.shape[0]}"
                )
            results = [
                self.route(row, cycle_rng)
                for row, cycle_rng in zip(dests, cycle_rngs)
            ]
        if results:
            output = np.stack([r.output for r in results])
            blocked = np.stack([r.blocked_stage for r in results])
        else:
            output = np.empty((0, self.n_inputs), dtype=np.int64)
            blocked = np.empty((0, self.n_inputs), dtype=np.int64)
        return BatchCycleResult(output=output, blocked_stage=blocked)


class PerCycleRouter(_BatchByLoop):
    """Adapt a per-cycle array engine to the full :class:`Router` protocol.

    ``engine`` must expose ``n_inputs``/``n_outputs`` and
    ``route(dests, rng)`` returning outcome arrays (the
    :class:`~repro.sim.batched.VectorCycleResult` contract); batching is the generic row loop.
    """

    def __init__(self, engine):
        self.engine = engine

    @property
    def n_inputs(self) -> int:
        return self.engine.n_inputs

    @property
    def n_outputs(self) -> int:
        return self.engine.n_outputs

    def route(
        self, dests: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> VectorCycleResult:
        return self.engine.route(dests, rng)

    def __repr__(self) -> str:
        return f"PerCycleRouter({self.engine!r})"


class ReferenceEDNRouter(_BatchByLoop):
    """The reference (per-message) EDN engines behind the array protocol.

    Wraps :class:`~repro.core.network.EDNetwork` or
    :class:`~repro.core.faults.FaultyEDNetwork`; demands become
    :class:`Message` objects and per-message outcomes come back as the
    same outcome arrays every other backend produces, so equivalence
    tests can compare engines elementwise.
    """

    def __init__(self, network: Union[EDNetwork, FaultyEDNetwork]):
        self.network = network

    @property
    def n_inputs(self) -> int:
        return self.network.params.num_inputs

    @property
    def n_outputs(self) -> int:
        return self.network.params.num_outputs

    def route(
        self, dests: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> VectorCycleResult:
        dests = np.asarray(dests, dtype=np.int64)
        if dests.shape != (self.n_inputs,):
            raise RoutingError(
                f"expected demand vector of shape ({self.n_inputs},), got {dests.shape}"
            )
        params = self.network.params
        messages = [
            Message.to_output(int(s), int(d), params)
            for s, d in enumerate(dests)
            if d != IDLE
        ]
        if isinstance(self.network, FaultyEDNetwork):
            cycle = self.network.route_cycle(messages)
        else:
            cycle = self.network.route_cycle(messages, rng=rng)
        output = np.full(self.n_inputs, IDLE, dtype=np.int64)
        blocked = np.full(self.n_inputs, IDLE, dtype=np.int64)
        for outcome in cycle.outcomes:
            source = outcome.message.source
            if outcome.delivered:
                output[source] = outcome.output
                blocked[source] = 0
            else:
                blocked[source] = outcome.blocked_stage
        return VectorCycleResult(output=output, blocked_stage=blocked)

    def __repr__(self) -> str:
        return f"ReferenceEDNRouter({self.network!r})"


class RearrangeableRouter(_BatchByLoop):
    """Clos/Beneš fabrics as cycle routers over arbitrary demand vectors.

    Globally-controlled rearrangeable networks realize *any* partial
    permutation conflict-free, so the only losses are output conflicts:
    when several sources request one output, the lowest-labelled source
    wins (matching the crossbar baseline's label-priority convention) and
    the rest are blocked at stage 1.  The surviving partial permutation is
    extended to a full one, handed to the network's global routing
    algorithm (matching decomposition for Clos, the looping algorithm for
    Beneš), and verified — a routing failure raises instead of silently
    reporting blocked messages, since rearrangeability guarantees success.
    """

    def __init__(self, network: Union[ClosNetwork, BenesNetwork]):
        self.network = network
        if isinstance(network, ClosNetwork):
            self._terminals = network.num_terminals
        else:
            self._terminals = network.n

    @property
    def n_inputs(self) -> int:
        return self._terminals

    @property
    def n_outputs(self) -> int:
        return self._terminals

    def route(
        self, dests: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> VectorCycleResult:
        n = self._terminals
        dests = np.asarray(dests, dtype=np.int64)
        if dests.shape != (n,):
            raise RoutingError(f"expected demand vector of shape ({n},), got {dests.shape}")
        live = dests != IDLE
        if live.any() and (
            int(dests[live].min()) < 0 or int(dests[live].max()) >= n
        ):
            raise RoutingError("demand vector contains out-of-range destinations")

        output = np.full(n, IDLE, dtype=np.int64)
        blocked = np.full(n, IDLE, dtype=np.int64)
        taken = np.zeros(n, dtype=bool)
        winners: list[int] = []
        for source in np.flatnonzero(live):
            dest = int(dests[source])
            if taken[dest]:
                blocked[source] = 1  # output conflict, lowest label won
            else:
                taken[dest] = True
                winners.append(int(source))

        # Extend the surviving partial permutation to a full one:
        # unmatched sources take the free outputs in ascending order.
        perm = np.full(n, -1, dtype=np.int64)
        perm[winners] = dests[winners]
        free_outputs = iter(np.flatnonzero(~taken).tolist())
        for source in np.flatnonzero(perm < 0):
            perm[source] = next(free_outputs)
        self._route_full(perm.tolist())

        for source in winners:
            output[source] = dests[source]
            blocked[source] = 0
        return VectorCycleResult(output=output, blocked_stage=blocked)

    def _route_full(self, perm: list[int]) -> None:
        """Run and verify the global routing algorithm on a full permutation."""
        if isinstance(self.network, ClosNetwork):
            routes = self.network.route_permutation(perm)
            ok = self.network.verify(routes, perm)
        else:
            settings = self.network.route_permutation(perm)
            ok = self.network.verify(settings, perm)
        if not ok:  # pragma: no cover - rearrangeability guarantees success
            raise RoutingError(f"{self.network!r} failed to realize a permutation")

    def __repr__(self) -> str:
        return f"RearrangeableRouter({self.network!r})"
