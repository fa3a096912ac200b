"""Topology-agnostic stage graphs: one representation for every
unidirectional multistage network in the repository.

The paper's central comparison pits the EDN against the conventional
delta/omega family and its dilated variants, yet historically only the
EDN enjoyed the compiled-plan batched kernels — every baseline routed
through per-cycle Python loops.  The unifying observation (Patel's, and
the NYU-Ultracomputer survey's) is that all of these fabrics are
instances of one scheme: *columns of identical switches, each resolving
(switch, digit) contention with some bucket capacity, joined by fixed
link permutations*.  This module captures exactly that scheme:

* :class:`GraphStage` — one switch column: ``fan_in`` wires per switch,
  ``radix`` output buckets selected by a destination digit at bit offset
  ``shift``, ``capacity`` wires per bucket (the dilation/expansion
  width), and the link permutation applied to the column's bucket-wire
  labels on the way to the next column.
* :class:`StageGraph` — a full network: input terminals, an optional
  input permutation (the omega shuffle), the stage tuple, and the
  output-lane layout (``out_shift``: a surviving final bucket-wire ``y``
  delivers to output terminal ``y >> out_shift``, so a ``d``-wide output
  bundle is ``out_shift = log2(d)``).
* builders — :func:`edn_graph`, :func:`delta_graph`, :func:`omega_graph`,
  :func:`dilated_graph` — the four paper topology families as data.
* :class:`StageGraphReference` — a deliberately simple per-cycle,
  sort-based interpreter of any graph.  It shares no kernel machinery
  with the compiled engines, so it serves as the independent cross-check
  path (the ``vectorized`` backend wraps it behind the generic batch
  loop).

Everything here is *descriptive*: permutations are hashable specs (see
:func:`materialize_permutation`), so a :class:`StageGraph` can key the
plan cache; the compiled tables live on
:class:`~repro.sim.plan.StagePlan`, and the batched kernels that consume
them live in :mod:`repro.sim.batched`
(:class:`~repro.sim.batched.CompiledStageRouter`).

Graphs for the built-in families
--------------------------------

========  ===========================  =========================  =========
family    stages                       link permutation           out_shift
========  ===========================  =========================  =========
EDN       ``l`` x ``H(a -> b x c)``    gamma (low ``log2 c``      0
          then one ``c x c``           bits fixed, upper bits
          crossbar column              rotated)
delta     the ``c = 1`` EDN            gamma with no fixed bits   0
omega     the ``(2, 2, 1, log2 N)``    delta gamma, plus the      0
          delta behind a perfect       perfect-shuffle *input*
          input shuffle                permutation
dilated   ``l`` x ``H(a -> b x d)``    the base delta's gamma     log2(d)
          (deeper stages fan in        lifted over the ``d``
          ``a*d``)                     lane bits
========  ===========================  =========================  =========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError
from repro.core.labels import ilog2, is_power_of_two
from repro.core.tags import RetirementOrder

__all__ = [
    "GraphStage",
    "StageGraph",
    "PermSpec",
    "materialize_permutation",
    "edn_graph",
    "delta_graph",
    "omega_graph",
    "dilated_graph",
    "StageGraphReference",
    "BufferedCycleOutcome",
    "BufferedStageReference",
]

IDLE = -1

#: A hashable description of a fixed wire permutation:
#:
#: * ``("gamma", n_bits, low_bits, rotate_bits)`` — keep the low
#:   ``low_bits`` of an ``n_bits``-bit label, rotate the upper field left
#:   by ``rotate_bits`` (mod its width).  ``low_bits = 0`` is the plain
#:   delta interstage wiring; ``low_bits = log2(c)`` the EDN gamma;
#:   ``low_bits = log2(d)`` the bundle-lifted wiring of a dilated delta.
#: * ``("rotl", n_bits, k)`` — rotate the whole label left by ``k`` (the
#:   perfect shuffle is ``k = 1``).
PermSpec = tuple


def materialize_permutation(spec: PermSpec) -> np.ndarray:
    """The ``int64`` lookup table of a permutation spec (label -> label)."""
    kind = spec[0]
    if kind == "gamma":
        from repro.sim.plan import gamma_permutation

        _, n_bits, low_bits, rotate_bits = spec
        labels = np.arange(1 << n_bits, dtype=np.int64)
        return gamma_permutation(labels, n_bits, low_bits, rotate_bits)
    if kind == "rotl":
        _, n_bits, k = spec
        k %= n_bits
        labels = np.arange(1 << n_bits, dtype=np.int64)
        if k == 0:
            return labels
        return ((labels << k) | (labels >> (n_bits - k))) & ((1 << n_bits) - 1)
    raise ConfigurationError(f"unknown permutation spec {spec!r}")


@dataclass(frozen=True)
class GraphStage:
    """One switch column of a :class:`StageGraph`.

    Attributes
    ----------
    fan_in:
        Wires entering each switch of the column (a power of two).
    radix:
        Output buckets per switch; a live request selects bucket
        ``(dest >> shift) & (radix - 1)``.  ``radix = 1`` means the
        column performs no routing (pure concentration).
    capacity:
        Wires per bucket granted per cycle — the expansion (EDN ``c``) or
        dilation (``d``) width.  The first ``capacity`` requests of a
        bucket, in priority order, win.
    shift:
        Bit offset of this column's destination digit.
    link_perm:
        Permutation spec applied to the column's bucket-wire labels on
        the way to the next column (``None`` = identity, and always
        ``None`` on the final column).
    """

    fan_in: int
    radix: int
    capacity: int
    shift: int
    link_perm: Optional[PermSpec] = None

    def __post_init__(self) -> None:
        for name, value in (
            ("fan_in", self.fan_in),
            ("radix", self.radix),
            ("capacity", self.capacity),
        ):
            if not is_power_of_two(value):
                raise ConfigurationError(
                    f"stage {name}={value} must be a positive power of two"
                )
        if self.shift < 0:
            raise ConfigurationError(f"stage digit shift must be >= 0, got {self.shift}")

    @property
    def digit_bits(self) -> int:
        return ilog2(self.radix)

    @property
    def bucket_wires(self) -> int:
        """Bucket-wire labels per switch: ``radix * capacity``."""
        return self.radix * self.capacity


@dataclass(frozen=True)
class StageGraph:
    """A complete unidirectional multistage network, as data.

    ``label`` is the canonical topology name (``"delta:4096,4"``), used
    in reprs and cache diagnostics; equality/hashing covers every
    semantic field, so equal graphs share one compiled
    :class:`~repro.sim.plan.StagePlan` through the plan cache.

    >>> g = delta_graph(4, 4, 3)
    >>> (g.n_inputs, g.n_outputs, len(g.stages))
    (64, 64, 4)
    >>> omega_graph(64).input_perm
    ('rotl', 6, 1)
    >>> dilated_graph(4, 4, 3, d=2).out_shift
    1
    """

    label: str
    n_inputs: int
    n_outputs: int
    stages: tuple[GraphStage, ...]
    input_perm: Optional[PermSpec] = None
    out_shift: int = 0

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigurationError("a stage graph needs at least one stage")
        if not is_power_of_two(self.n_inputs) or not is_power_of_two(self.n_outputs):
            raise ConfigurationError(
                "stage-graph terminal counts must be powers of two, got "
                f"{self.n_inputs} -> {self.n_outputs}"
            )
        widths = self.stage_widths
        for i, stage in enumerate(self.stages):
            if widths[i] % stage.fan_in:
                raise ConfigurationError(
                    f"stage {i + 1} fan_in {stage.fan_in} does not divide "
                    f"its {widths[i]} input wires"
                )
            if stage.link_perm is not None:
                bucket_space = widths[i] // stage.fan_in * stage.bucket_wires
                if stage.link_perm[1] != ilog2(bucket_space):
                    raise ConfigurationError(
                        f"stage {i + 1} link permutation covers "
                        f"{1 << stage.link_perm[1]} labels, bucket space is "
                        f"{bucket_space}"
                    )
        if self.stages[-1].link_perm is not None:
            raise ConfigurationError("the final stage has no outgoing links to permute")
        last = self.stages[-1]
        final_space = widths[-1] // last.fan_in * last.bucket_wires
        if final_space != self.n_outputs << self.out_shift:
            raise ConfigurationError(
                f"final bucket space {final_space} does not cover "
                f"{self.n_outputs} outputs of {1 << self.out_shift} lanes"
            )
        if self.input_perm is not None and self.input_perm[1] != ilog2(self.n_inputs):
            raise ConfigurationError(
                f"input permutation covers {1 << self.input_perm[1]} labels, "
                f"network has {self.n_inputs} inputs"
            )

    @property
    def stage_widths(self) -> tuple[int, ...]:
        """Wires *entering* each stage (``stage_widths[0]`` = the inputs)."""
        widths = [self.n_inputs]
        for stage in self.stages[:-1]:
            widths.append(widths[-1] // stage.fan_in * stage.bucket_wires)
        return tuple(widths)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def __str__(self) -> str:
        return self.label


# ----------------------------------------------------------------------
# Builders: the paper's topology families as stage graphs
# ----------------------------------------------------------------------


def edn_graph(
    params: EDNParams, retirement_order: Optional[RetirementOrder] = None
) -> StageGraph:
    """The ``EDN(a, b, c, l)``: ``l`` hyperbar columns plus the crossbar column.

    Stage ``i`` retires digit ``retirement_order.position_for_stage(i)``;
    interstage boundaries carry the paper's gamma permutation (low
    ``log2 c`` bits fixed); the last hyperbar column feeds the crossbars
    directly (identity links) and the crossbar column resolves the final
    ``log2 c`` destination bits one winner per output terminal.
    """
    if retirement_order is None:
        retirement_order = RetirementOrder.canonical(params.l)
    elif retirement_order.l != params.l:
        raise ConfigurationError(
            f"retirement order covers {retirement_order.l} digits, "
            f"network has l={params.l}"
        )
    stages = []
    for i in range(1, params.l + 1):
        position = retirement_order.position_for_stage(i)
        shift = params.capacity_bits + (params.l - 1 - position) * params.digit_bits
        link = None
        if i < params.l:
            link = (
                "gamma",
                ilog2(params.wires_after_stage(i)),
                params.capacity_bits,
                params.fan_in_bits,
            )
        stages.append(
            GraphStage(params.a, params.b, params.c, shift, link_perm=link)
        )
    # The crossbar column: c wires per switch, one winner per output.
    stages.append(GraphStage(params.c, params.c, 1, 0))
    return StageGraph(
        label=f"edn:{params.a},{params.b},{params.c},{params.l}",
        n_inputs=params.num_inputs,
        n_outputs=params.num_outputs,
        stages=tuple(stages),
    )


def delta_graph(a: int, b: int, l: int) -> StageGraph:
    """Patel's ``a^l x b^l`` delta network — the ``c = 1`` EDN graph.

    Identical stage-for-stage to ``edn_graph(EDNParams(a, b, 1, l))``
    (including the degenerate 1x1 crossbar column, which never blocks),
    so a delta network and the ``c = 1`` EDN route bit-identically.
    """
    graph = edn_graph(EDNParams(a, b, 1, l))
    return StageGraph(
        label=f"delta:{a},{b},{l}",
        n_inputs=graph.n_inputs,
        n_outputs=graph.n_outputs,
        stages=graph.stages,
    )


def omega_graph(n: int) -> StageGraph:
    """Lawrie's ``N x N`` omega network: perfect input shuffle + 2x2 columns.

    The shuffle *before* the first column is the structural difference
    from the delta construction; it relabels which source owns a path but
    never changes connectivity (paper, Corollary 1).
    """
    if not is_power_of_two(n) or n < 2:
        raise ConfigurationError(f"omega size must be a power of two >= 2, got {n}")
    stages = ilog2(n)
    graph = edn_graph(EDNParams(2, 2, 1, stages))
    return StageGraph(
        label=f"omega:{n}",
        n_inputs=n,
        n_outputs=n,
        stages=graph.stages,
        input_perm=("rotl", stages, 1),
    )


def dilated_graph(a: int, b: int, l: int, d: int) -> StageGraph:
    """A ``d``-dilated ``a^l x b^l`` delta (paper references [28, 29]).

    Every link of the base delta becomes ``d`` parallel wires: the first
    column is ``H(a -> b x d)``, deeper columns ``H(a*d -> b x d)``, and
    the interstage wiring is the base delta's permutation lifted over the
    ``log2 d`` lane bits (bundle ``y`` of the base network maps lane-wise
    to bundle ``gamma(y)``).  Each output terminal is a ``d``-wide port:
    every request surviving the last column is delivered
    (``out_shift = log2 d``), the conventional dilated-network
    delivery assumption the analytic model also makes.
    """
    for name, value in (("a", a), ("b", b), ("d", d)):
        if not is_power_of_two(value):
            raise ConfigurationError(
                f"dilated-delta parameter {name}={value} must be a power of two"
            )
    if l < 1:
        raise ConfigurationError(f"need at least one stage, got l={l}")
    if b < 2:
        raise ConfigurationError("dilated deltas need at least b=2 output buckets")
    lane_bits = ilog2(d)
    digit_bits = ilog2(b)
    stages = []
    width = a**l
    for i in range(1, l + 1):
        fan_in = a if i == 1 else a * d
        shift = (l - i) * digit_bits
        width = width // fan_in * b * d
        link = None
        if i < l:
            link = ("gamma", ilog2(width), lane_bits, ilog2(a))
        stages.append(GraphStage(fan_in, b, d, shift, link_perm=link))
    return StageGraph(
        label=f"dilated:{a},{b},{l},{d}",
        n_inputs=a**l,
        n_outputs=b**l,
        stages=tuple(stages),
        out_shift=lane_bits,
    )


# ----------------------------------------------------------------------
# The per-cycle reference interpreter (the cross-check path)
# ----------------------------------------------------------------------


class StageGraphReference:
    """Sort-based per-cycle interpreter of any :class:`StageGraph`.

    Implements exactly the contention semantics of the compiled kernels —
    label priority ranks contenders by wire label, random priority by a
    per-cycle random sub-key, winners take bucket wires first-free — with
    none of their machinery: one stable lexsort per column, materialized
    permutation tables, plain index arrays.  The ``vectorized`` backend
    wraps this class behind the generic batch loop, making it the
    reference path every compiled baseline is cross-checked against.

    ``faults`` (a tuple of :class:`~repro.core.faults.WireFault`) masks
    dead bucket wires: the rank-``k`` winner of a bucket is granted the
    bucket's ``k``-th *live* wire, or blocked at that column when fewer
    than ``k + 1`` wires survive — the same first-free-among-live grant
    :class:`~repro.core.faults.FaultyEDNetwork` implements, built here
    with plain per-bucket live lists so the compiled fault lowering has
    an independent cross-check on every family.
    """

    def __init__(
        self, graph: StageGraph, *, priority: str = "label", faults=()
    ):
        if priority not in ("label", "random"):
            raise ConfigurationError(f"unknown priority discipline {priority!r}")
        self.graph = graph
        self.priority = priority
        self._widths = graph.stage_widths
        self._input_perm = (
            materialize_permutation(graph.input_perm)
            if graph.input_perm is not None
            else None
        )
        self._links = [
            materialize_permutation(stage.link_perm)
            if stage.link_perm is not None
            else None
            for stage in graph.stages
        ]
        self.faults = tuple(sorted(set(faults)))
        self._fault_alive: dict[int, np.ndarray] = {}
        self._fault_remap: dict[int, np.ndarray] = {}
        if self.faults:
            from repro.core.faults import FaultSet

            FaultSet(self.faults).validate_graph(graph)
            dead_by_stage: dict[int, set[int]] = {}
            for fault in self.faults:
                stage = graph.stages[fault.stage - 1]
                wire = fault.switch * stage.bucket_wires + fault.local_wire
                dead_by_stage.setdefault(fault.stage - 1, set()).add(wire)
            for i, dead in dead_by_stage.items():
                stage = graph.stages[i]
                cap = stage.capacity
                space = self._widths[i] // stage.fan_in * stage.bucket_wires
                alive = np.zeros(space, dtype=bool)
                remap = np.arange(space, dtype=np.int64)
                for bucket in range(space // cap):
                    base = bucket * cap
                    live = [base + k for k in range(cap) if base + k not in dead]
                    for slot, wire in enumerate(live):
                        alive[base + slot] = True
                        remap[base + slot] = wire
                self._fault_alive[i] = alive
                self._fault_remap[i] = remap

    @property
    def n_inputs(self) -> int:
        return self.graph.n_inputs

    @property
    def n_outputs(self) -> int:
        return self.graph.n_outputs

    def route(self, dests: np.ndarray, rng: Optional[np.random.Generator] = None):
        """Route one cycle; result matches :meth:`~repro.sim.batched.CompiledStageRouter.route`."""
        from repro.core.exceptions import LabelError
        from repro.sim.batched import VectorCycleResult

        g = self.graph
        dests = np.asarray(dests, dtype=np.int64)
        if dests.shape != (g.n_inputs,):
            raise LabelError(
                f"expected demand vector of shape ({g.n_inputs},), got {dests.shape}"
            )
        live0 = dests != IDLE
        if live0.any():
            lo, hi = int(dests[live0].min()), int(dests[live0].max())
            if lo < 0 or hi >= g.n_outputs:
                raise LabelError("demand vector contains out-of-range destinations")
        if self.priority == "random" and rng is None:
            raise ConfigurationError(
                "random priority requires an explicit numpy Generator"
            )

        # The input permutation relabels sources onto first-column wires;
        # routing runs in wire space and outcomes are gathered back.
        if self._input_perm is not None:
            inner = np.full(g.n_inputs, IDLE, dtype=np.int64)
            inner[self._input_perm] = dests
        else:
            inner = dests
        live = inner != IDLE

        output = np.full(g.n_inputs, IDLE, dtype=np.int64)
        blocked = np.full(g.n_inputs, IDLE, dtype=np.int64)
        blocked[live] = 0  # provisional: delivered unless marked

        sources = np.flatnonzero(live)
        wires = sources.copy()
        last = g.num_stages - 1
        for i, stage in enumerate(g.stages):
            if wires.size == 0:
                break
            switch = wires >> ilog2(stage.fan_in)
            digit = (inner[sources] >> stage.shift) & (stage.radix - 1)
            key = switch * stage.radix + digit
            accept, rank = _resolve_grouped(key, wires, stage.capacity, self.priority, rng)
            blocked[sources[~accept]] = i + 1
            sources = sources[accept]
            y = (
                switch[accept] * stage.bucket_wires
                + digit[accept] * stage.capacity
                + rank
            )
            alive = self._fault_alive.get(i)
            if alive is not None:
                ok = alive[y]
                blocked[sources[~ok]] = i + 1
                sources = sources[ok]
                y = self._fault_remap[i][y[ok]]
            if i == last:
                output[sources] = y >> g.out_shift
                break
            wires = self._links[i][y] if self._links[i] is not None else y

        if self._input_perm is not None:
            output = output[self._input_perm]
            blocked = blocked[self._input_perm]
        return VectorCycleResult(output=output, blocked_stage=blocked)

    def __repr__(self) -> str:
        faulted = f", faults={len(self.faults)}" if self.faults else ""
        return (
            f"StageGraphReference({self.graph.label}, "
            f"priority={self.priority!r}{faulted})"
        )


@dataclass(frozen=True)
class BufferedCycleOutcome:
    """Deliveries and injection accounting of one buffered cycle.

    ``outputs``/``latencies`` are parallel arrays, one entry per packet
    delivered this cycle, canonically sorted by ``(output, latency)`` so
    two semantically equivalent engines produce bit-identical arrays.
    Latency is delivery cycle minus injection cycle: a packet that
    crosses an ``S``-stage network without ever queueing takes exactly
    ``S`` cycles (one stage traversal per cycle).
    """

    outputs: np.ndarray
    latencies: np.ndarray
    offered: int
    injected: int

    @property
    def delivered(self) -> int:
        return int(self.outputs.size)

    @property
    def refused(self) -> int:
        """Offered packets turned away by a full entry queue."""
        return self.offered - self.injected


class BufferedStageReference:
    """Per-packet buffered interpreter of any :class:`StageGraph`.

    The independent cross-check path for the compiled buffered kernels
    (:class:`~repro.sim.batched.CompiledStageRouter` with a
    ``buffer_depth``), mirroring what :class:`StageGraphReference` is to
    the unbuffered kernels: plain Python list queues and per-switch
    loops, sharing none of the plan/array machinery.

    Semantics (one :meth:`step` = one network cycle):

    * Every wire entering a stage carries a ``depth``-deep FIFO; heads
      contend for their ``(switch, digit)`` bucket under the usual
      priority discipline.
    * Stages are serviced **output side first** (last column down to the
      first): a bucket's rank-``r`` contender advances iff the bucket
      still has at least ``r`` next-queue slots with room *after* the
      downstream column was serviced, and it takes the ``r``-th roomy
      slot in slot order.  Losers simply stay queued — back-pressure,
      not loss.
    * The final column always has room (delivery is unconditional);
      each delivery records ``cycle - injection_cycle`` as its latency.
    * After servicing, each offered packet enters its source's entry
      queue if there is room, else it is refused (counted, not queued).

    Random priority draws one ``rng.permutation`` per stage with live
    contenders, over contender wires in ascending wire order — the exact
    draw protocol of the compiled engine, so per-cycle outcomes can be
    compared bit for bit under both disciplines.

    Wire faults (``faults=`` or a mid-run :meth:`apply_faults`) remove
    slots from the grant: a dead wire never has room, dead final-column
    wires never deliver, and packets stranded in a dead wire's
    downstream FIFO are dropped and counted in :attr:`dropped_packets`.
    """

    def __init__(
        self,
        graph: StageGraph,
        *,
        depth: int = 1,
        priority: str = "label",
        faults=(),
    ):
        if priority not in ("label", "random"):
            raise ConfigurationError(f"unknown priority discipline {priority!r}")
        depth = int(depth)
        if depth < 1:
            raise ConfigurationError(f"buffer depth must be >= 1, got {depth}")
        self.graph = graph
        self.depth = depth
        self.priority = priority
        self._widths = graph.stage_widths
        self._input_perm = (
            [int(v) for v in materialize_permutation(graph.input_perm)]
            if graph.input_perm is not None
            else None
        )
        self._links = [
            [int(v) for v in materialize_permutation(stage.link_perm)]
            if stage.link_perm is not None
            else None
            for stage in graph.stages
        ]
        #: queues[i][wire] = FIFO of (dest, injection_cycle), head first.
        self.queues: list[list[list]] = [
            [[] for _ in range(w)] for w in self._widths
        ]
        self.cycle = 0
        self.faults: tuple = ()
        #: per-stage set of dead physical slots (switch * bucket_wires +
        #: local), matching the plan's ``fault_dead_slots`` view.
        self._dead: list[set] = [set() for _ in graph.stages]
        self.dropped_packets = 0
        if faults:
            self.apply_faults(faults)

    def apply_faults(self, faults=()) -> int:
        """Swap the network onto a new fault set mid-run, dropping strandees.

        The per-packet mirror of
        :meth:`repro.sim.batched.CompiledStageRouter.apply_faults`: dead
        wires stop granting, and any packets already queued in an
        interior dead wire's downstream FIFO are dropped and counted
        into :attr:`dropped_packets`.  Returns the number dropped by
        this call.
        """
        from repro.core.faults import FaultSet

        canonical = tuple(sorted(set(faults)))
        if canonical:
            FaultSet(canonical).validate_graph(self.graph)
        self.faults = canonical
        dead: list[set] = [set() for _ in self.graph.stages]
        for fault in canonical:
            stage = self.graph.stages[fault.stage - 1]
            dead[fault.stage - 1].add(
                fault.switch * stage.bucket_wires + fault.local_wire
            )
        self._dead = dead
        dropped = 0
        last = self.graph.num_stages - 1
        for i, slots in enumerate(dead[:last]):
            link = self._links[i]
            for slot in slots:
                queue = self.queues[i + 1][link[slot] if link is not None else slot]
                dropped += len(queue)
                queue.clear()
        self.dropped_packets += dropped
        return dropped

    @property
    def n_inputs(self) -> int:
        return self.graph.n_inputs

    @property
    def n_outputs(self) -> int:
        return self.graph.n_outputs

    def total_occupancy(self) -> int:
        """Packets currently queued anywhere in the network."""
        return sum(len(q) for column in self.queues for q in column)

    def step(
        self, dests: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> BufferedCycleOutcome:
        """Advance the network one cycle under demand vector ``dests``."""
        from repro.core.exceptions import LabelError

        g = self.graph
        dests = np.asarray(dests, dtype=np.int64)
        if dests.shape != (g.n_inputs,):
            raise LabelError(
                f"expected demand vector of shape ({g.n_inputs},), got {dests.shape}"
            )
        live0 = dests != IDLE
        if live0.any():
            lo, hi = int(dests[live0].min()), int(dests[live0].max())
            if lo < 0 or hi >= g.n_outputs:
                raise LabelError("demand vector contains out-of-range destinations")
        if self.priority == "random" and rng is None:
            raise ConfigurationError(
                "random priority requires an explicit numpy Generator"
            )

        t = self.cycle
        delivered_out: list[int] = []
        delivered_lat: list[int] = []
        last = g.num_stages - 1
        for i in range(last, -1, -1):
            stage = g.stages[i]
            column = self.queues[i]
            contenders = [w for w in range(len(column)) if column[w]]
            if not contenders:
                continue
            if self.priority == "random":
                sub = rng.permutation(len(contenders))
            else:
                sub = range(len(contenders))
            fan_bits = ilog2(stage.fan_in)
            cap = stage.capacity
            entries = []
            for j, w in enumerate(contenders):
                dest = column[w][0][0]
                switch = w >> fan_bits
                digit = (dest >> stage.shift) & (stage.radix - 1)
                entries.append((switch * stage.radix + digit, int(sub[j]), w))
            entries.sort()
            link = self._links[i]
            next_column = self.queues[i + 1] if i < last else None
            idx = 0
            while idx < len(entries):
                bucket = entries[idx][0]
                group = []
                while idx < len(entries) and entries[idx][0] == bucket:
                    group.append(entries[idx][2])
                    idx += 1
                base = bucket * cap  # == switch * bucket_wires + digit * cap
                dead = self._dead[i]
                if i == last:
                    roomy = [k for k in range(cap) if base + k not in dead]
                else:
                    roomy = [
                        k
                        for k in range(cap)
                        if base + k not in dead
                        and len(
                            next_column[
                                link[base + k] if link is not None else base + k
                            ]
                        )
                        < self.depth
                    ]
                for r, w in enumerate(group):
                    if r >= len(roomy):
                        break  # remaining contenders of the bucket stay queued
                    y = base + roomy[r]
                    dest, stamp = column[w].pop(0)
                    if i == last:
                        delivered_out.append(y >> g.out_shift)
                        delivered_lat.append(t - stamp)
                    else:
                        nw = link[y] if link is not None else y
                        next_column[nw].append((dest, stamp))

        offered = injected = 0
        entry = self.queues[0]
        for s in range(g.n_inputs):
            dest = int(dests[s])
            if dest == IDLE:
                continue
            offered += 1
            w = self._input_perm[s] if self._input_perm is not None else s
            if len(entry[w]) < self.depth:
                entry[w].append((dest, t))
                injected += 1
        self.cycle = t + 1

        outputs = np.asarray(delivered_out, dtype=np.int64)
        latencies = np.asarray(delivered_lat, dtype=np.int64)
        order = np.lexsort((latencies, outputs))
        return BufferedCycleOutcome(
            outputs=outputs[order],
            latencies=latencies[order],
            offered=offered,
            injected=injected,
        )

    def __repr__(self) -> str:
        return (
            f"BufferedStageReference({self.graph.label}, depth={self.depth}, "
            f"priority={self.priority!r})"
        )


def _resolve_grouped(
    key: np.ndarray,
    wires: np.ndarray,
    capacity: int,
    priority: str,
    rng: Optional[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Group by ``key``, grant the first ``capacity`` per group.

    Label priority breaks ties by wire label (the paper's switch-local
    input-line priority); random priority by a fresh random sub-key drawn
    in frontier order — the draw protocol of the compiled kernels, so
    per-cycle equivalence tests can compare engines bit for bit.
    """
    n = key.size
    if n == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
    if priority == "label":
        order = np.lexsort((wires, key))
    else:
        order = np.lexsort((rng.permutation(n), key))
    sorted_key = key[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_group[1:])
    group_ids = np.cumsum(new_group) - 1
    group_starts = np.flatnonzero(new_group)
    rank_sorted = np.arange(n) - group_starts[group_ids]
    accept_sorted = rank_sorted < capacity

    accept_mask = np.zeros(n, dtype=bool)
    accept_mask[order[accept_sorted]] = True
    rank_by_pos = np.empty(n, dtype=np.int64)
    rank_by_pos[order] = rank_sorted
    return accept_mask, rank_by_pos[accept_mask]
