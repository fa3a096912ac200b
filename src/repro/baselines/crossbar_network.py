"""Full crossbar network baseline.

The crossbar is the paper's performance upper bound (Figures 7-8 plot
"Full Crossbar" as the reference curve) and its cost strawman (Section 1:
"crossbars are too costly to use for large networks").  An ``N x N``
crossbar never blocks internally — a request fails only when another
request wins the same output — so its acceptance under uniform traffic is
``PA = (1 - (1 - r/N)^N) / r`` (see
:func:`repro.core.analysis.crossbar_acceptance`), and it routes any
permutation in one cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.analysis import crossbar_acceptance
from repro.core.exceptions import ConfigurationError, LabelError
from repro.sim.batched import validate_demand_matrix
from repro.sim.rng import SeedLike, as_generator

__all__ = ["CrossbarNetwork", "CrossbarCycleResult"]

IDLE = -1


@dataclass
class CrossbarCycleResult:
    """Outcome arrays matching the stage-graph router's result protocol.

    Holds one cycle (1-D arrays, from :meth:`CrossbarNetwork.route`) or a
    whole batch (2-D ``(batch, n)`` arrays, from
    :meth:`CrossbarNetwork.route_batch`); the aggregate counters sum over
    whatever is held.
    """

    output: np.ndarray
    blocked_stage: np.ndarray  # 0 delivered, 1 blocked at the (only) stage, -1 idle

    @property
    def offered_per_cycle(self) -> np.ndarray:
        """Requests offered per cycle (batched results only)."""
        return (self.blocked_stage != IDLE).sum(axis=-1)

    @property
    def delivered_per_cycle(self) -> np.ndarray:
        """Requests delivered per cycle (batched results only)."""
        return (self.blocked_stage == 0).sum(axis=-1)

    @property
    def num_offered(self) -> int:
        return int((self.blocked_stage != IDLE).sum())

    @property
    def num_delivered(self) -> int:
        return int((self.blocked_stage == 0).sum())

    @property
    def acceptance_ratio(self) -> float:
        offered = self.num_offered
        return 1.0 if offered == 0 else self.num_delivered / offered

    def blocked_stage_histogram(self) -> dict[int, int]:
        blocked = int((self.blocked_stage == 1).sum())
        return {1: blocked} if blocked else {}


class CrossbarNetwork:
    """An ``n_inputs x n_outputs`` crossbar with output contention only.

    Satisfies the same router protocol as
    :class:`~repro.sim.batched.CompiledStageRouter`, so the Monte-Carlo
    harness and experiment code treat it interchangeably.

    >>> import numpy as np
    >>> xbar = CrossbarNetwork(8)
    >>> res = xbar.route(np.array([3, 3, 1, -1, 0, 5, 5, 5]))
    >>> res.num_delivered      # one winner per contended output
    4
    """

    def __init__(
        self,
        n_inputs: int,
        n_outputs: Optional[int] = None,
        *,
        priority: str = "label",
        seed: SeedLike = None,
    ):
        if n_outputs is None:
            n_outputs = n_inputs
        if n_inputs < 1 or n_outputs < 1:
            raise ConfigurationError("crossbar needs positive terminal counts")
        if priority not in ("label", "random"):
            raise ConfigurationError(f"unknown priority discipline {priority!r}")
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.priority = priority
        # Default stream for route calls that pass no rng (random priority).
        self._rng = as_generator(seed)

    def route(self, dests: np.ndarray, rng: SeedLike = None) -> CrossbarCycleResult:
        """Grant each contended output to its highest-priority requester.

        ``rng`` accepts anything seed-like (``int``/``SeedSequence``/
        ``Generator``); ``None`` falls back to the constructor's ``seed``
        stream.
        """
        dests = np.asarray(dests, dtype=np.int64)
        if dests.shape != (self.n_inputs,):
            raise LabelError(f"expected shape ({self.n_inputs},), got {dests.shape}")
        live = dests != IDLE
        if live.any():
            lo, hi = int(dests[live].min()), int(dests[live].max())
            if lo < 0 or hi >= self.n_outputs:
                raise LabelError("demand vector contains out-of-range destinations")
        rng = as_generator(rng) if rng is not None else self._rng
        if self.priority == "random" and rng is None:
            raise ConfigurationError(
                "random priority requires an rng (constructor seed or route argument)"
            )

        output = np.full(self.n_inputs, IDLE, dtype=np.int64)
        blocked_stage = np.full(self.n_inputs, IDLE, dtype=np.int64)
        idx = np.flatnonzero(live)
        if idx.size:
            key = dests[idx]
            if self.priority == "label":
                order = np.argsort(key, kind="stable")
            else:
                order = np.lexsort((rng.permutation(idx.size), key))
            sorted_key = key[order]
            first = np.empty(idx.size, dtype=bool)
            first[0] = True
            np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
            winners = idx[order[first]]
            losers = idx[order[~first]]
            output[winners] = dests[winners]
            blocked_stage[winners] = 0
            blocked_stage[losers] = 1
        return CrossbarCycleResult(output=output, blocked_stage=blocked_stage)

    def route_batch(
        self, dests: np.ndarray, rng: SeedLike = None
    ) -> CrossbarCycleResult:
        """Route a ``(batch, n_inputs)`` demand matrix of independent cycles.

        Returns a :class:`CrossbarCycleResult` whose arrays are
        ``(batch, n_inputs)``-shaped, matching the
        :class:`~repro.sim.batched.BatchedEDN` result protocol (including
        ``offered_per_cycle`` / ``delivered_per_cycle``).  Cycle ``i``
        resolves exactly like ``route(dests[i])``: the output index is
        folded into the contention key with a per-cycle offset, so one
        sort settles every cycle's output contention at once.  Under
        random priority ``rng`` also accepts one generator per cycle (the
        batched-EDN convention); cycle ``i`` then draws its tie-break
        permutation from ``rng[i]``, reproducing ``route(dests[i],
        rng[i])`` bit for bit regardless of chunk size.
        """
        dests, flat, live = validate_demand_matrix(
            dests, self.n_inputs, self.n_outputs
        )
        batch, n = dests.shape
        cycle_rngs = None
        if rng is not None and not isinstance(rng, (int, np.integer)) and not (
            isinstance(rng, (np.random.Generator, np.random.SeedSequence))
        ):
            cycle_rngs = [as_generator(r) for r in rng]
            if len(cycle_rngs) != batch:
                raise ConfigurationError(
                    f"need one generator per cycle: got {len(cycle_rngs)} "
                    f"for batch {batch}"
                )
        else:
            rng = as_generator(rng) if rng is not None else self._rng
            if self.priority == "random" and rng is None:
                raise ConfigurationError(
                    "random priority requires an rng (constructor seed or route argument)"
                )

        output = np.full(batch * n, IDLE, dtype=np.int64)
        blocked_stage = np.full(batch * n, IDLE, dtype=np.int64)
        idx = np.flatnonzero(live)
        if idx.size:
            key = (idx // n) * self.n_outputs + flat[idx]
            if self.priority == "label":
                # Live entries are already in (cycle, input-label) order, so
                # a stable sort on the composite key alone realizes label
                # priority within every (cycle, output) group.
                order = np.argsort(key, kind="stable")
            elif cycle_rngs is not None:
                # Per-cycle tie-break streams: each cycle's contiguous
                # slice of the live frontier draws its own permutation,
                # exactly as the single-cycle path would.
                tie = np.empty(idx.size, dtype=np.int64)
                cyc = idx // n
                boundaries = np.flatnonzero(np.diff(cyc)) + 1
                starts = np.concatenate(([0], boundaries))
                stops = np.concatenate((boundaries, [idx.size]))
                for start, stop in zip(starts, stops):
                    tie[start:stop] = cycle_rngs[cyc[start]].permutation(stop - start)
                order = np.lexsort((tie, key))
            else:
                order = np.lexsort((rng.permutation(idx.size), key))
            sorted_key = key[order]
            first = np.empty(idx.size, dtype=bool)
            first[0] = True
            np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
            winners = idx[order[first]]
            losers = idx[order[~first]]
            output[winners] = flat[winners]
            blocked_stage[winners] = 0
            blocked_stage[losers] = 1
        return CrossbarCycleResult(
            output=output.reshape(batch, n),
            blocked_stage=blocked_stage.reshape(batch, n),
        )

    def analytic_acceptance(self, r: float) -> float:
        """``PA(r)`` for the square case (requires ``n_inputs == n_outputs``)."""
        if self.n_inputs != self.n_outputs:
            raise ConfigurationError("analytic PA implemented for square crossbars")
        return crossbar_acceptance(self.n_inputs, r)

    def __repr__(self) -> str:
        return f"CrossbarNetwork({self.n_inputs}x{self.n_outputs})"
