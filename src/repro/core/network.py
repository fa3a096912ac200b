"""Reference circuit-switched EDN routing engine.

The paper's operational model (Section 3.2): the network is circuit
switched with no internal buffering.  A *cycle* begins with every active
input presenting a destination tag; tags flow stage by stage, each hyperbar
granting at most ``c`` requests per bucket and discarding the rest; requests
surviving all ``l + 1`` stages hold a circuit and deliver their message.
Blocked requests simply vanish from the cycle (what happens to them next is
a policy of the surrounding system — Section 4 resubmits them, Section 5
retries them from the cluster queues).

This engine is the *reference* implementation: one switch object per
hyperbar/crossbar, explicit wire labels, full path recording.  It is meant
for correctness (Lemma 1 / Theorems 1-2 are tested against it) and for
networks up to a few thousand terminals.  The compiled router in
:mod:`repro.sim.batched` reproduces identical decisions with numpy for
Monte-Carlo work at scale; an integration test pins the two to each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping, Sequence
from typing import Optional

import numpy as np

from repro.core.config import EDNParams
from repro.core.crossbar import Crossbar
from repro.core.exceptions import ConfigurationError, LabelError, RoutingError
from repro.core.hyperbar import Hyperbar
from repro.core.tags import DestinationTag, RetirementOrder
from repro.core.topology import EDNTopology

__all__ = ["Message", "MessageOutcome", "CycleResult", "EDNetwork"]


@dataclass(frozen=True)
class Message:
    """One routing request: a source terminal, a destination tag, a payload."""

    source: int
    tag: DestinationTag
    payload: object = None

    @classmethod
    def to_output(cls, source: int, output: int, params: EDNParams, payload: object = None) -> "Message":
        """Convenience constructor from a destination terminal number."""
        return cls(source=source, tag=DestinationTag.from_output(output, params), payload=payload)


@dataclass
class MessageOutcome:
    """What happened to one message during a cycle.

    ``blocked_stage`` is ``None`` for delivered messages, otherwise the
    1-indexed stage whose switch discarded the request (``l + 1`` means the
    final crossbar stage).  ``path`` lists the global wire label occupied at
    the output of each traversed stage (delivered messages have ``l + 1``
    entries; the last equals the output terminal).
    """

    message: Message
    delivered: bool
    output: Optional[int] = None
    blocked_stage: Optional[int] = None
    path: list[int] = field(default_factory=list)


@dataclass
class CycleResult:
    """Outcome of one network cycle over a batch of messages."""

    outcomes: list[MessageOutcome]
    params: EDNParams

    @property
    def num_offered(self) -> int:
        return len(self.outcomes)

    @property
    def delivered(self) -> list[MessageOutcome]:
        return [o for o in self.outcomes if o.delivered]

    @property
    def blocked(self) -> list[MessageOutcome]:
        return [o for o in self.outcomes if not o.delivered]

    @property
    def num_delivered(self) -> int:
        return len(self.delivered)

    @property
    def acceptance_ratio(self) -> float:
        """Delivered / offered this cycle (1.0 for an empty cycle)."""
        return 1.0 if not self.outcomes else self.num_delivered / len(self.outcomes)

    def output_map(self) -> dict[int, Message]:
        """Output terminal -> delivered message."""
        return {o.output: o.message for o in self.delivered}

    def blocked_stage_histogram(self) -> dict[int, int]:
        """Stage index -> number of messages discarded there."""
        hist: dict[int, int] = {}
        for o in self.blocked:
            hist[o.blocked_stage] = hist.get(o.blocked_stage, 0) + 1
        return dict(sorted(hist.items()))


class EDNetwork:
    """A complete, stateful-per-cycle ``EDN(a, b, c, l)`` router.

    Parameters
    ----------
    params:
        Network shape.
    priority, wire_policy:
        Contention and wire-assignment disciplines, forwarded to every
        switch (see :class:`~repro.core.hyperbar.Hyperbar`).
    retirement_order:
        The fixed order in which routing digits are consumed, canonical by
        default.  Under a non-canonical order, delivered messages land on
        the *reordered* output (Corollary 2); apply
        ``retirement_order.fixup_permutation(params)`` to the outputs to
        restore intended destinations, as Figure 6 does.

    >>> net = EDNetwork(EDNParams(16, 4, 4, 2))
    >>> result = net.route_cycle([Message.to_output(0, 27, net.params)])
    >>> result.delivered[0].output
    27
    """

    def __init__(
        self,
        params: EDNParams,
        *,
        priority: str = "label",
        wire_policy: str = "first_free",
        retirement_order: Optional[RetirementOrder] = None,
    ):
        self.params = params
        self.topology = EDNTopology(params)
        self.priority = priority
        self.wire_policy = wire_policy
        if retirement_order is None:
            retirement_order = RetirementOrder.canonical(params.l)
        elif retirement_order.l != params.l:
            raise ConfigurationError(
                f"retirement order covers {retirement_order.l} digits, network has l={params.l}"
            )
        self.retirement_order = retirement_order
        self._hyperbar = Hyperbar(
            params.a, params.b, params.c, priority=priority, wire_policy=wire_policy
        )
        self._crossbar = Crossbar(params.c, priority=priority)

    # ------------------------------------------------------------------

    def route_cycle(
        self,
        messages: Iterable[Message],
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> CycleResult:
        """Run one circuit-switched cycle over ``messages``.

        Each message must originate at a distinct input terminal.  Returns a
        :class:`CycleResult` with per-message outcomes and full paths.
        """
        p = self.params
        messages = list(messages)
        seen_sources: set[int] = set()
        for msg in messages:
            if not 0 <= msg.source < p.num_inputs:
                raise LabelError(
                    f"source {msg.source} out of range 0..{p.num_inputs - 1}"
                )
            if msg.source in seen_sources:
                raise LabelError(f"two messages share source terminal {msg.source}")
            seen_sources.add(msg.source)
            msg.tag.validate(p)

        outcomes = {id(msg): MessageOutcome(message=msg, delivered=False) for msg in messages}
        # Wire occupancy entering the current stage: wire label -> message.
        inbound: dict[int, Message] = {msg.source: msg for msg in messages}

        for stage in range(1, p.l + 1):
            inbound = self._route_hyperbar_stage(stage, inbound, outcomes, rng)
        self._route_crossbar_stage(inbound, outcomes, rng)

        return CycleResult(outcomes=[outcomes[id(m)] for m in messages], params=p)

    def route_destinations(
        self,
        destinations: Mapping[int, int] | Sequence[Optional[int]],
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> CycleResult:
        """Route a cycle given plain ``source -> output terminal`` demands.

        ``destinations`` may be a mapping or a dense sequence indexed by
        source with ``None`` for idle inputs.  Tags are built canonically
        from the requested outputs.
        """
        if isinstance(destinations, Mapping):
            items = sorted(destinations.items())
        else:
            items = [(s, d) for s, d in enumerate(destinations) if d is not None]
        messages = [Message.to_output(s, d, self.params) for s, d in items]
        return self.route_cycle(messages, rng=rng)

    # ------------------------------------------------------------------

    def _route_hyperbar_stage(
        self,
        stage: int,
        inbound: dict[int, Message],
        outcomes: dict[int, MessageOutcome],
        rng: Optional[np.random.Generator],
    ) -> dict[int, Message]:
        p = self.params
        # Group the live messages by the hyperbar their wire enters.
        by_switch: dict[int, list[Optional[Message]]] = {}
        for wire, msg in inbound.items():
            switch, port = self.topology.hyperbar_input_location(stage, wire)
            slots = by_switch.setdefault(switch, [None] * p.a)
            if slots[port] is not None:
                raise RoutingError(
                    f"two messages collided on stage {stage} switch {switch} port {port}"
                )
            slots[port] = msg

        outbound: dict[int, Message] = {}
        for switch, slots in sorted(by_switch.items()):
            requests = [
                None if m is None else m.tag.digit_for_stage(stage, self.retirement_order)
                for m in slots
            ]
            result = self._hyperbar.route(requests, rng=rng)
            for port, msg in enumerate(slots):
                if msg is None:
                    continue
                record = outcomes[id(msg)]
                if port in result.accepted:
                    local_out = result.accepted[port]
                    out_label = self.topology.hyperbar_output_label(stage, switch, local_out)
                    record.path.append(out_label)
                    outbound[self.topology.interstage(stage, out_label)] = msg
                else:
                    record.blocked_stage = stage
        return outbound

    def _route_crossbar_stage(
        self,
        inbound: dict[int, Message],
        outcomes: dict[int, MessageOutcome],
        rng: Optional[np.random.Generator],
    ) -> None:
        p = self.params
        by_switch: dict[int, list[Optional[Message]]] = {}
        for wire, msg in inbound.items():
            switch, port = self.topology.crossbar_input_location(wire)
            slots = by_switch.setdefault(switch, [None] * p.c)
            if slots[port] is not None:
                raise RoutingError(f"two messages collided at crossbar {switch} port {port}")
            slots[port] = msg

        for switch, slots in sorted(by_switch.items()):
            requests = [None if m is None else m.tag.x for m in slots]
            result = self._crossbar.route(requests, rng=rng)
            for port, msg in enumerate(slots):
                if msg is None:
                    continue
                record = outcomes[id(msg)]
                if port in result.accepted:
                    terminal = self.topology.crossbar_output_terminal(
                        switch, result.accepted[port]
                    )
                    record.path.append(terminal)
                    record.delivered = True
                    record.output = terminal
                else:
                    record.blocked_stage = p.l + 1

    def __repr__(self) -> str:
        return f"EDNetwork({self.params}, priority={self.priority!r})"
