"""One-pass permutation admissibility censuses.

Figure 5 exhibits *one* permutation the EDN(64,16,4,2) cannot route in a
single pass; this extension asks how many there are.  A permutation is
*admissible* for a network when every message is delivered in one
circuit-switched pass.  For unique-path deltas the admissible set is the
classical "omega-routable" class of measure zero among all ``N!``
permutations; Theorem 2's multipath enlarges it, and Lemma 2 guarantees the
final two stages never shrink it.

Because contention resolution is work-conserving, admissibility does not
depend on the priority discipline: a permutation routes fully iff no bucket
along the way is oversubscribed, a property of the demand pattern alone.

Exhaustive censuses are exponential (``N!``); the functions below support
both exhaustive enumeration for ``N <= 8`` and Monte-Carlo estimation above
that.  Either way the permutations are routed in chunks, one
``route_batch_counts`` call (one permutation per cycle row) per chunk.
"""

from __future__ import annotations

from itertools import islice
from itertools import permutations as iter_permutations
from math import factorial

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.sim.batched import CompiledStageRouter
from repro.sim.rng import make_rng

__all__ = ["is_admissible", "admissible_fraction"]

_EXHAUSTIVE_LIMIT = 8

#: Demand entries per routed chunk of permutations.
_CHUNK_ENTRIES = 1 << 16


def is_admissible(network: CompiledStageRouter, permutation: np.ndarray) -> bool:
    """True iff ``permutation`` routes completely in one pass."""
    permutation = np.asarray(permutation, dtype=np.int64)
    if sorted(permutation.tolist()) != list(range(network.n_outputs)):
        raise ConfigurationError("input must be a full permutation of the outputs")
    result = network.route(permutation)
    return result.num_delivered == network.n_inputs


def admissible_fraction(
    network: CompiledStageRouter,
    *,
    samples: int | None = None,
    seed: int | None = 0,
) -> tuple[float, int]:
    """Fraction of all permutations routable in one pass.

    Exhaustive when the network has at most 8 terminals and ``samples`` is
    None; otherwise a Monte-Carlo estimate over ``samples`` uniform random
    permutations (default 2000).  Returns ``(fraction, population)`` where
    ``population`` is the number of permutations examined.
    """
    n = network.n_inputs
    if network.n_outputs != n:
        raise ConfigurationError("admissibility census needs a square network")
    exhaustive = samples is None and n <= _EXHAUSTIVE_LIMIT
    if exhaustive:
        population = factorial(n)
    else:
        population = 2_000 if samples is None else samples
    chunk = max(1, _CHUNK_ENTRIES // n)
    sizes = [min(chunk, population - start) for start in range(0, population, chunk)]
    if exhaustive:
        perms = iter_permutations(range(n))
        chunks = (np.array(list(islice(perms, k)), dtype=np.int64) for k in sizes)
    else:
        rng = make_rng(seed)
        chunks = (np.stack([rng.permutation(n) for _ in range(k)]) for k in sizes)
    good = 0
    for batch in chunks:
        counts = network.route_batch_counts(batch)
        good += int(np.count_nonzero(counts.delivered_per_cycle == n))
    return good / population, population
