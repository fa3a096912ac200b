"""Compiled routing plans, reusable chunk workspaces, and the plan cache.

Monte-Carlo throughput is bound by how fast a *chunk* of cycles moves
through the array engines, and profiling the pre-plan engines showed two
fixed costs repeated on every ``measure_acceptance`` call: every freshly
built engine recomputed the stage wiring tables (interstage gamma lookup
tables, per-wire switch bases, digit shift constants) and reallocated
every chunk-sized scratch array from a cold heap.  Sweeps rebuild routers
per grid cell, so that setup tax was paid thousands of times per figure.

This module compiles all of it **once per topology**:

* :class:`StagePlan` — everything about a
  :class:`~repro.sim.stagegraph.StageGraph` under a contention discipline
  that does not depend on the demand data: stage widths, link-permutation
  lookup tables, switch-base rows, cycle-row offsets, packed-lane
  feasibility, and the narrow dtypes the kernels may safely compute in
  (``int16`` wire labels when every stage width and the output space fit
  in 15 bits).  Plans are immutable after compilation and safely shared
  by any number of engines; every unidirectional multistage topology in
  the repository (EDN, delta, omega, dilated delta) compiles to one.
* :class:`ChunkWorkspace` — named scratch buffers grown monotonically and
  recycled across calls, so steady-state chunk routing performs no
  chunk-sized heap allocations.  Workspaces are mutable and therefore
  **per-thread**: :meth:`StagePlan.workspace` hands each thread its own.
* :func:`stage_plan_for` — the keyed LRU plan cache.  Routers built
  from equal ``(graph, priority, faults)`` keys share one compiled plan,
  so repeated ``build_router``/``measure`` calls skip all topology
  setup.  :func:`plan_cache_info` / :func:`clear_plan_cache`
  expose the cache to tests and benchmarks.

Plan keys deliberately cover *exactly* the inputs that determine array-
engine routing.  Wire faults are one of those inputs: a
:class:`StagePlan` compiled with a non-empty fault set bakes per-stage
dead-wire masks into its tables — a liveness mask over each column's
virtual bucket-wire space (``fault_alive``) and a live-wire remap
composed into the link-permutation tables (``fault_link_table``) — and
the canonical fault tuple is folded into the cache key, so differing
fault sets can never alias to one plan.  Spec features the array engines
still do not implement (non-first-free wire policies) route through the
per-message reference backend, which never consults this cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.faults import FaultSet, WireFault
from repro.core.labels import ilog2

if TYPE_CHECKING:  # repro.sim.stagegraph imports gamma_permutation lazily
    from repro.sim.stagegraph import StageGraph

__all__ = [
    "ChunkWorkspace",
    "StagePlan",
    "BufferedState",
    "gamma_permutation",
    "stage_plan_for",
    "compile_stage_plan",
    "clear_plan_cache",
    "plan_cache_info",
    "PLAN_CACHE_MAXSIZE",
]


def gamma_permutation(
    y: np.ndarray, n_bits: int, capacity_bits: int, fan_in_bits: int
) -> np.ndarray:
    """``gamma_{log2(c), log2(a/c)}`` applied to ``n_bits``-bit labels.

    The single closed form of the interstage wiring permutation, shared
    by the per-cycle :class:`~repro.sim.stagegraph.StageGraphReference`
    and the compiled lookup tables below, so the two can never drift
    apart.
    """
    j, k = capacity_bits, fan_in_bits
    upper_width = n_bits - j
    if upper_width == 0 or k % upper_width == 0:
        return y
    shift = k % upper_width
    low = y & ((1 << j) - 1)
    upper = y >> j
    mask = (1 << upper_width) - 1
    rotated = ((upper << shift) | (upper >> (upper_width - shift))) & mask
    return (rotated << j) | low

#: Compiled plans kept by the LRU cache (each may hold a few MB of tables
#: plus per-thread workspaces, so the cache is bounded).
PLAN_CACHE_MAXSIZE = 32

#: Bits per packed bucket counter (mirrors the batched engine's lanes).
_LANE_BITS = 8
_LANE_MASK = (1 << _LANE_BITS) - 1


class ChunkWorkspace:
    """Named scratch buffers, grown monotonically and reused across calls.

    ``array(name, size, dtype)`` returns an *uninitialized* length-``size``
    view of a buffer dedicated to ``(name, dtype)``; the backing buffer
    only ever grows, so a steady-state sequence of equally-shaped chunk
    routings allocates nothing.  Contents never survive between requests —
    callers must write before they read (all kernel consumers fill their
    buffers with ``out=`` ufuncs or explicit fills).

    A workspace is cheap to create and holds no topology state, but it is
    **not** safe to share across threads routing concurrently; use
    :meth:`StagePlan.workspace` for a per-thread instance.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, str], np.ndarray] = {}

    def array(self, name: str, size: int, dtype) -> np.ndarray:
        """An uninitialized ``size``-element view of the named buffer."""
        key = (name, np.dtype(dtype).char)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=dtype)
            self._buffers[key] = buf
        return buf[:size]

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the backing buffers."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        """Drop every backing buffer (they regrow on demand)."""
        self._buffers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChunkWorkspace({len(self._buffers)} buffers, {self.nbytes} bytes)"


class StagePlan:
    """Everything data-independent about routing one stage graph, compiled once.

    Instances are produced by :func:`stage_plan_for` (cached) or
    :func:`compile_stage_plan` (always fresh) and treated as immutable:
    the lazily-added dtype variants of the lookup tables are idempotent,
    so concurrent readers are safe.  Mutable scratch lives in per-thread
    :class:`ChunkWorkspace` instances obtained via :meth:`workspace`.

    Every compiled topology (EDN, delta, omega, dilated delta) consumes
    a ``StagePlan`` through :class:`~repro.sim.batched.CompiledStageRouter`.
    """

    __slots__ = (
        "graph",
        "priority",
        "faults",
        "buffer_depth",
        "_fault_stages",
        "stage_widths",
        "wire_dtype",
        "all_packed",
        "_tables",
        "_local",
    )

    def __init__(
        self,
        graph: "StageGraph",
        priority: str = "label",
        faults: tuple[WireFault, ...] = (),
        buffer_depth: Optional[int] = None,
    ):
        if priority not in ("label", "random"):
            raise ConfigurationError(f"unknown priority discipline {priority!r}")
        self.graph = graph
        self.priority = priority
        #: canonical (sorted, deduplicated) dead-wire tuple baked into the
        #: plan's tables; part of the cache key, so fault sets never alias.
        self.faults = tuple(sorted(set(faults)))
        if self.faults:
            FaultSet(self.faults).validate_graph(graph)
        #: per-wire FIFO depth for the buffered back-pressure pass, or
        #: ``None`` for the classic unbuffered (drop-on-loss) discipline.
        #: Folded into the cache key only when set, so unbuffered plan
        #: keys are unchanged.
        if buffer_depth is not None:
            buffer_depth = int(buffer_depth)
            if buffer_depth < 1:
                raise ConfigurationError(
                    f"buffer depth must be >= 1, got {buffer_depth}"
                )
        self.buffer_depth = buffer_depth
        self._fault_stages = frozenset(fault.stage - 1 for fault in self.faults)
        #: wires entering each stage (index 0 = network inputs).
        self.stage_widths = graph.stage_widths
        # Narrowest dtype that can hold every within-cycle wire label,
        # bucket-wire label, and destination label at any stage (the
        # "narrow-dtype scratch layout" the specialized kernels compute in).
        final_space = graph.n_outputs << graph.out_shift
        peak = max(max(self.stage_widths), final_space, graph.n_outputs)
        if peak < 2**15:
            self.wire_dtype = np.dtype(np.int16)
        elif peak < 2**31:
            self.wire_dtype = np.dtype(np.int32)
        else:  # pragma: no cover - astronomical networks
            self.wire_dtype = np.dtype(np.int64)
        self.all_packed = all(
            self._packed_ok(stage.fan_in, stage.radix) for stage in graph.stages
        )
        self._tables: dict[tuple, np.ndarray] = {}
        self._local = threading.local()

    @staticmethod
    def _packed_ok(fan_in: int, radix: int) -> bool:
        """Whether one stage's rank can use packed 8-bit counter lanes."""
        return fan_in <= _LANE_MASK >> 1 and radix * _LANE_BITS <= 64

    # ------------------------------------------------------------------
    # Compiled index tables (immutable, shared across engines)
    # ------------------------------------------------------------------
    # Tables build lazily on first access and are cached forever on the
    # plan: a per-cycle engine that only needs the stage shifts never pays
    # for them, while batched engines compile each table exactly once per
    # cached plan.  Concurrent first accesses are a benign idempotent race
    # (both threads compute the same array; one dict write wins).

    def _perm(self, spec, dtype) -> np.ndarray:
        """The lookup table of one permutation spec, per requested dtype."""
        from repro.sim.stagegraph import materialize_permutation

        key = ("perm", spec, np.dtype(dtype).char)
        table = self._tables.get(key)
        if table is None:
            table = materialize_permutation(spec).astype(dtype)
            self._tables[key] = table
        return table

    def perm_table(self, stage_index: int, dtype) -> Optional[np.ndarray]:
        """Link-permutation table leaving stage ``stage_index`` (0-based).

        ``None`` means identity wiring (the final stage, and any interior
        boundary the topology wires straight through).  One gather through
        this table replaces the ~8 elementwise ops of the closed-form
        permutation per stage per chunk.
        """
        spec = self.graph.stages[stage_index].link_perm
        if spec is None:
            return None
        return self._perm(spec, dtype)

    def input_perm_table(self, dtype) -> Optional[np.ndarray]:
        """Source -> first-column-wire table, or ``None`` for identity."""
        spec = self.graph.input_perm
        if spec is None:
            return None
        return self._perm(spec, dtype)

    def stage_base(self, stage_index: int, dtype) -> np.ndarray:
        """Per-wire ``switch * radix * capacity - 1`` row for one stage.

        The ``- 1`` pre-folds the conversion of inclusive in-bucket ranks
        to 0-based bucket-wire offsets.
        """
        stage = self.graph.stages[stage_index]
        width = self.stage_widths[stage_index]
        key = ("stbase", stage.fan_in, stage.bucket_wires, width, np.dtype(dtype).char)
        row = self._tables.get(key)
        if row is None:
            switch = np.arange(width, dtype=dtype) >> ilog2(stage.fan_in)
            row = (switch << ilog2(stage.bucket_wires)) - 1
            self._tables[key] = row
        return row

    def row_offsets(self, batch: int, width_bits: int, dtype, bias: int = 0) -> np.ndarray:
        """``(batch, 1)`` column of per-cycle flat-frontier offsets.

        Adding this column to a ``(batch, width)`` matrix of within-cycle
        wire labels produces global scatter indices (``cycle * width +
        wire + bias``) in one broadcast pass; the counts kernel uses
        ``bias=1`` to reserve flat index 0 as its trash slot.
        """
        key = ("rows", batch, width_bits, bias, np.dtype(dtype).char)
        column = self._tables.get(key)
        if column is None:
            column = ((np.arange(batch, dtype=dtype) << width_bits) + bias)[:, None]
            self._tables[key] = column
        return column

    # ------------------------------------------------------------------
    # Fault lowering (dead-wire masks baked into the compiled plan)
    # ------------------------------------------------------------------
    # Contention already ranks each bucket's arrivals; with w dead wires
    # in a bucket the i-th ranked winner takes the i-th *live* wire and
    # ranks >= capacity - w are blocked — exactly the reference engines'
    # first-free-among-live grant.  Lowered, that is two tables per
    # faulted stage over the stage's virtual bucket-wire space
    # (switch * bucket_wires + digit * capacity + rank):
    #
    # * ``fault_alive``  — rank k survives iff its bucket has > k live
    #   wires (a boolean refinement of the kernels' ``accepted`` mask);
    # * ``fault_link_table`` — the stage's link permutation pre-composed
    #   with the live-wire remap (stable argsort of the dead mask per
    #   bucket), so surviving winners still route with a single gather.
    #
    # The final stage needs no remap: its output label is the virtual
    # wire >> out_shift, and the remap permutes within one capacity
    # block, which is exactly 2**out_shift wide.
    #
    # The buffered FIFO kernels use a third view, ``fault_dead_slots``:
    # they grant *physical* slots (a slot is available iff its downstream
    # queue has room), so the dead mask folds directly into the per-slot
    # availability instead of refining ranks.

    def _fault_build(
        self, stage_index: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        stage = self.graph.stages[stage_index]
        cap = stage.capacity
        space = self.stage_widths[stage_index] // stage.fan_in * stage.bucket_wires
        dead = np.zeros(space, dtype=bool)
        for fault in self.faults:
            if fault.stage == stage_index + 1:
                dead[fault.switch * stage.bucket_wires + fault.local_wire] = True
        buckets = dead.reshape(-1, cap)
        live_count = cap - buckets.sum(axis=1)
        alive = (np.arange(cap) < live_count[:, None]).reshape(-1)
        order = np.argsort(buckets, axis=1, kind="stable")
        base = np.arange(space // cap, dtype=np.int64)[:, None] * cap
        remap = (base + order).reshape(-1)
        return alive, remap, dead

    def _fault_tables(self, stage_index: int) -> tuple[np.ndarray, np.ndarray]:
        alive = self._tables.get(("falive", stage_index))
        remap = self._tables.get(("fremap", stage_index))
        if alive is None or remap is None:
            alive, remap, dead = self._fault_build(stage_index)
            self._tables[("falive", stage_index)] = alive
            self._tables[("fremap", stage_index)] = remap
            self._tables[("fdead", stage_index)] = dead
        return alive, remap

    def fault_alive(self, stage_index: int) -> Optional[np.ndarray]:
        """Liveness of each ``(bucket, rank)`` winner of one faulted stage.

        A boolean table over the stage's virtual bucket-wire space:
        ``alive[switch * bucket_wires + digit * capacity + k]`` is true
        iff the bucket has more than ``k`` live wires, i.e. the winner
        holding 0-based rank ``k`` is granted a wire.  ``None`` means the
        stage carries no faults (the kernels skip the refinement).
        """
        if stage_index not in self._fault_stages:
            return None
        return self._fault_tables(stage_index)[0]

    def fault_dead_slots(self, stage_index: int) -> Optional[np.ndarray]:
        """Dead physical slots of one stage, over virtual bucket-wire space.

        A boolean table indexed by physical slot
        ``switch * bucket_wires + digit * capacity + local`` — true where
        the slot's wire is dead.  This is the *physical* companion to the
        rank-space :meth:`fault_alive` mask: the buffered FIFO kernels
        grant physical slots directly (slot availability = has queue room
        ∧ not dead), so they consume this mask instead of the rank
        refinement.  ``None`` when the stage carries no faults.
        """
        if stage_index not in self._fault_stages:
            return None
        self._fault_tables(stage_index)
        return self._tables[("fdead", stage_index)]

    def fault_link_table(self, stage_index: int, dtype) -> Optional[np.ndarray]:
        """Link table of a faulted stage, pre-composed with the live remap.

        Replaces :meth:`perm_table` for faulted interior stages: indexing
        by a surviving winner's virtual wire yields the next-stage wire
        its *live* physical wire feeds.  ``None`` when the stage carries
        no faults.
        """
        if stage_index not in self._fault_stages:
            return None
        key = ("flink", stage_index, np.dtype(dtype).char)
        table = self._tables.get(key)
        if table is None:
            remap = self._fault_tables(stage_index)[1]
            spec = self.graph.stages[stage_index].link_perm
            if spec is None:
                table = remap.astype(dtype)
            else:
                table = self._perm(spec, dtype)[remap]
            self._tables[key] = table
        return table

    # ------------------------------------------------------------------
    # Derived execution parameters
    # ------------------------------------------------------------------

    def index_dtype(self, total: int) -> np.dtype:
        """Dtype for flat ``(batch * width)`` scatter/gather indices."""
        return np.dtype(np.int32) if total < 2**31 - 1 else np.dtype(np.int64)

    def preferred_batch(self) -> int:
        """Cycles per chunk keeping a stage's working set cache-resident.

        About ``2**17`` frontier entries per chunk, at least 16 cycles.
        Default-batch measurements chunk (and therefore draw traffic) by
        this size, so changing it changes every default-batch result.
        """
        return max(16, min(64, (1 << 17) // self.graph.n_inputs))

    def workspace(self) -> ChunkWorkspace:
        """This thread's scratch workspace for engines sharing the plan."""
        ws = getattr(self._local, "ws", None)
        if ws is None:
            ws = ChunkWorkspace()
            self._local.ws = ws
        return ws

    def buffered_state(self) -> "BufferedState":
        """A fresh mutable queue state for one buffered run of this plan."""
        if self.buffer_depth is None:
            raise ConfigurationError(
                "plan was compiled without a buffer depth; "
                "pass buffer_depth= to get a buffered plan"
            )
        return BufferedState(self)

    @property
    def key(self) -> tuple:
        """The cache key this plan is stored under."""
        if self.buffer_depth is not None:
            return (self.graph, self.priority, self.faults, self.buffer_depth)
        return (self.graph, self.priority, self.faults)

    def __repr__(self) -> str:
        faulted = f", faults={len(self.faults)}" if self.faults else ""
        buffered = (
            f", buffer_depth={self.buffer_depth}"
            if self.buffer_depth is not None
            else ""
        )
        return (
            f"StagePlan({self.graph.label}, priority={self.priority!r}, "
            f"wire_dtype={self.wire_dtype.name}, packed={self.all_packed}"
            f"{faulted}{buffered})"
        )


class BufferedState:
    """Mutable per-wire FIFO state for one buffered run of a :class:`StagePlan`.

    One queue per wire entering each stage (boundary ``i`` feeds stage
    ``i``; boundary 0 is the post-input-permutation entry column).  Each
    queue is a dense shift-register slice of three parallel arrays —
    destination labels, injection-cycle stamps, and an occupancy count —
    which is exactly the layout the vectorized back-pressure kernels
    want: head reads are column 0, pops are one slice copy, pushes index
    ``[wire, occupancy]``.  Each of the three lives in one contiguous
    buffer (``occ_buf``, ``dest_buf``, ``stamp_buf``, columns laid out in
    stage order); the per-stage lists are views into them, so a compiled
    kernel steps the whole network from three base pointers.  Unlike the
    immutable plan this state is per-run and single-threaded;
    :meth:`StagePlan.buffered_state` hands every run a fresh instance.
    """

    __slots__ = (
        "plan", "depth", "occ_buf", "dest_buf", "stamp_buf",
        "occupancy", "dests", "stamps",
    )

    def __init__(self, plan: StagePlan) -> None:
        if plan.buffer_depth is None:
            raise ConfigurationError("plan has no buffer depth")
        self.plan = plan
        self.depth = depth = plan.buffer_depth
        widths = plan.stage_widths
        offsets = [0]
        for w in widths:
            offsets.append(offsets[-1] + w)
        total = offsets[-1]
        self.occ_buf = np.zeros(total, dtype=np.int64)
        self.dest_buf = np.full(total * depth, -1, dtype=plan.wire_dtype)
        self.stamp_buf = np.zeros(total * depth, dtype=np.int64)
        spans = list(zip(offsets, offsets[1:]))
        self.occupancy = [self.occ_buf[a:b] for a, b in spans]
        self.dests = [
            self.dest_buf[a * depth:b * depth].reshape(b - a, depth)
            for a, b in spans
        ]
        self.stamps = [
            self.stamp_buf[a * depth:b * depth].reshape(b - a, depth)
            for a, b in spans
        ]

    @property
    def num_queues(self) -> int:
        """Total FIFO queues across all stage boundaries."""
        return self.occ_buf.size

    def total_occupancy(self) -> int:
        """Packets currently queued anywhere in the network."""
        return int(self.occ_buf.sum())


# ----------------------------------------------------------------------
# The keyed LRU plan cache
# ----------------------------------------------------------------------

_cache: "OrderedDict[tuple, StagePlan]" = OrderedDict()
_cache_lock = threading.Lock()
_hits = 0
_misses = 0


def compile_stage_plan(
    graph: "StageGraph",
    priority: str = "label",
    faults: tuple[WireFault, ...] = (),
    buffer_depth: Optional[int] = None,
) -> StagePlan:
    """Compile a fresh stage plan, bypassing the cache (tests, benchmarks)."""
    return StagePlan(graph, priority, faults, buffer_depth)


def stage_plan_for(
    graph: "StageGraph",
    priority: str = "label",
    faults: tuple[WireFault, ...] = (),
    buffer_depth: Optional[int] = None,
) -> StagePlan:
    """The shared compiled plan for one stage graph, LRU-cached.

    Two routers whose ``(graph, priority, faults)`` agree get the *same*
    plan object; graphs hash over every semantic field (stages,
    permutations, output layout) and the fault tuple is canonicalized
    (sorted, deduplicated) before keying, so anything that changes
    routing semantics — including which wires are dead — changes the key
    and therefore misses.  A buffered plan (``buffer_depth`` set) folds
    the depth into its key, so buffered and unbuffered plans over the
    same graph coexist without aliasing.  Thread-safe.
    """
    global _hits, _misses
    canonical = tuple(sorted(set(faults)))
    if buffer_depth is not None:
        key = (graph, priority, canonical, int(buffer_depth))
    else:
        key = (graph, priority, canonical)
    with _cache_lock:
        plan = _cache.get(key)
        if plan is not None:
            _cache.move_to_end(key)
            _hits += 1
            return plan
        _misses += 1
    # Compile outside the lock (compilation touches only local state);
    # a concurrent duplicate compile is wasted work, not a hazard.
    plan = StagePlan(graph, priority, canonical, buffer_depth)
    with _cache_lock:
        existing = _cache.get(key)
        if existing is not None:
            return existing
        _cache[key] = plan
        while len(_cache) > PLAN_CACHE_MAXSIZE:
            _cache.popitem(last=False)
    return plan


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the hit/miss counters."""
    global _hits, _misses
    with _cache_lock:
        _cache.clear()
        _hits = 0
        _misses = 0


def plan_cache_info() -> dict:
    """Cache observability: ``{hits, misses, size, maxsize}``."""
    with _cache_lock:
        return {
            "hits": _hits,
            "misses": _misses,
            "size": len(_cache),
            "maxsize": PLAN_CACHE_MAXSIZE,
        }
