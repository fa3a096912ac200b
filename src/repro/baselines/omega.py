"""Lawrie's Omega network (the paper's reference [14]).

The omega network on ``N = 2^n`` terminals is ``n`` stages of ``2 x 2``
switches, each stage preceded by a perfect shuffle of the wires — including
a shuffle *before* the first stage, which is where it differs structurally
from our delta construction (whose inputs feed stage 1 directly).  Patel
showed omega is a delta network; here the whole topology — including the
input shuffle — is expressed as a compiled
:func:`~repro.sim.stagegraph.omega_graph` routed by the shared batched
kernels, which doubles as a working example of the paper's Corollary 1:
permuting the inputs of an EDN changes which source owns a path but never
destroys connectivity.
"""

from __future__ import annotations

import numpy as np

from repro.core.analysis import delta_acceptance
from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError
from repro.core.labels import ilog2, is_power_of_two
from repro.sim.batched import (
    BatchAcceptanceCounts,
    BatchCycleResult,
    CompiledStageRouter,
    VectorCycleResult,
)
from repro.sim.rng import SeedLike, as_generator
from repro.sim.stagegraph import StageGraph, omega_graph

__all__ = ["OmegaNetwork"]

IDLE = -1


class OmegaNetwork:
    """An ``N x N`` omega network (perfect shuffle + 2x2 switches).

    >>> import numpy as np
    >>> net = OmegaNetwork(8)
    >>> res = net.route(np.array([6, -1, -1, -1, -1, -1, -1, -1]))
    >>> res.num_delivered, int(res.output[0])
    (1, 6)
    """

    def __init__(self, n: int, *, priority: str = "label", seed: SeedLike = None):
        if not is_power_of_two(n) or n < 2:
            raise ConfigurationError(f"omega size must be a power of two >= 2, got {n}")
        self.n = n
        self.stages = ilog2(n)
        self.params = EDNParams(2, 2, 1, self.stages)
        self.graph: StageGraph = omega_graph(n)
        self.priority = priority
        self._router = CompiledStageRouter(self.graph, priority=priority)
        # Default stream for route calls that pass no rng (random priority).
        self._rng = as_generator(seed)

    @property
    def n_inputs(self) -> int:
        return self.n

    @property
    def n_outputs(self) -> int:
        return self.n

    def route(self, dests: np.ndarray, rng: SeedLike = None) -> VectorCycleResult:
        """Route one cycle; outcome arrays as in :class:`VectorCycleResult`.

        ``rng`` accepts anything seed-like (``int``/``SeedSequence``/
        ``Generator``); ``None`` falls back to the constructor's ``seed``
        stream.
        """
        dests = np.asarray(dests, dtype=np.int64)
        if dests.shape != (self.n,):
            raise ConfigurationError(f"expected demand vector of shape ({self.n},)")
        generator = as_generator(rng) if rng is not None else self._rng
        return self._router.route(dests, generator)

    def route_batch(self, dests: np.ndarray, rng=None) -> BatchCycleResult:
        """Route a ``(batch, N)`` demand matrix on the compiled kernels."""
        return self._router.route_batch(dests, rng if rng is not None else self._rng)

    def route_batch_counts(self, dests: np.ndarray, rng=None) -> BatchAcceptanceCounts:
        """Acceptance counts for a batch via the counts-only fast path.

        The omega input shuffle relabels sources but moves no message
        between cycles or stages, so per-cycle offered/delivered counts
        and the blocked-stage histogram equal the inner delta's exactly.
        """
        return self._router.route_batch_counts(
            dests, rng if rng is not None else self._rng
        )

    def preferred_batch(self) -> int:
        return self._router.preferred_batch()

    def analytic_acceptance(self, r: float) -> float:
        """Patel's delta recursion with ``a = b = 2`` (input shuffles don't matter)."""
        return delta_acceptance(2, 2, self.stages, r)

    def __repr__(self) -> str:
        return f"OmegaNetwork({self.n}x{self.n}, {self.stages} stages)"
