"""Patel's delta network baseline (the paper's reference [21]).

A delta network ``a^l x b^l`` is ``l`` stages of ``a x b`` crossbars with
digit-controlled routing and a *unique* path between every input/output
pair — exactly the ``c = 1`` degenerate EDN (paper, after Theorem 2).  The
paper's whole pitch is that EDNs keep delta-like cost while recovering
crossbar-like performance, so the delta is the baseline every benchmark
compares against.

The class is a thin topology descriptor: the delta's structure is a
compiled :func:`~repro.sim.stagegraph.delta_graph` routed by the shared
batched kernels (:class:`~repro.sim.batched.CompiledStageRouter`), its
analytics Patel's recursion ``r_{i+1} = 1 - (1 - r_i/b)^a``
(:func:`repro.core.analysis.delta_acceptance`).  Routing is pinned
bit-identical to the per-cycle reference paths in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.core.analysis import delta_acceptance
from repro.core.config import EDNParams
from repro.core.cost import crosspoint_cost, wire_cost
from repro.sim.batched import (
    BatchAcceptanceCounts,
    BatchCycleResult,
    CompiledStageRouter,
    VectorCycleResult,
)
from repro.sim.rng import SeedLike, as_generator
from repro.sim.stagegraph import StageGraph, delta_graph

__all__ = ["DeltaNetwork"]


class DeltaNetwork:
    """An ``a^l x b^l`` delta network built from ``a x b`` crossbars.

    >>> import numpy as np
    >>> net = DeltaNetwork(2, 2, 3)     # an 8x8 delta from 2x2 crossbars
    >>> net.n_inputs
    8
    >>> res = net.route(np.array([5, -1, -1, -1, -1, -1, -1, -1]))
    >>> res.num_delivered, int(res.output[0])   # a lone message always lands
    (1, 5)
    """

    def __init__(
        self, a: int, b: int, l: int, *, priority: str = "label", seed: SeedLike = None
    ):
        self.params = EDNParams(a, b, 1, l)
        self.graph: StageGraph = delta_graph(a, b, l)
        self.priority = priority
        self._router = CompiledStageRouter(self.graph, priority=priority)
        # Default stream for route calls that pass no rng (random priority).
        self._rng = as_generator(seed)

    @property
    def a(self) -> int:
        return self.params.a

    @property
    def b(self) -> int:
        return self.params.b

    @property
    def l(self) -> int:
        return self.params.l

    @property
    def n_inputs(self) -> int:
        return self.params.num_inputs

    @property
    def n_outputs(self) -> int:
        return self.params.num_outputs

    def route(self, dests: np.ndarray, rng: SeedLike = None) -> VectorCycleResult:
        """Route one cycle of demands through the unique-path network.

        ``rng`` accepts anything seed-like (``int``/``SeedSequence``/
        ``Generator``); ``None`` falls back to the constructor's ``seed``
        stream.
        """
        generator = as_generator(rng) if rng is not None else self._rng
        return self._router.route(dests, generator)

    def route_batch(self, dests: np.ndarray, rng=None) -> BatchCycleResult:
        """Route a ``(batch, N)`` demand matrix on the compiled kernels."""
        return self._router.route_batch(dests, rng if rng is not None else self._rng)

    def route_batch_counts(self, dests: np.ndarray, rng=None) -> BatchAcceptanceCounts:
        """Acceptance counts for a batch via the counts-only fast path."""
        return self._router.route_batch_counts(
            dests, rng if rng is not None else self._rng
        )

    def preferred_batch(self) -> int:
        return self._router.preferred_batch()

    def analytic_acceptance(self, r: float) -> float:
        """Patel's ``PA(r)`` recursion for this network."""
        return delta_acceptance(self.params.a, self.params.b, self.params.l, r)

    def crosspoints(self) -> int:
        """Crosspoint cost (``c = 1`` specialization of Eq. 2)."""
        return crosspoint_cost(self.params)

    def wires(self) -> int:
        """Wire cost (``c = 1`` specialization of Eq. 3)."""
        return wire_cost(self.params)

    def __repr__(self) -> str:
        return f"DeltaNetwork({self.a}x{self.b} switches, l={self.l})"
