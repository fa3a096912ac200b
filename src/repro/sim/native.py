"""Native kernel backend: :class:`~repro.sim.plan.StagePlan` lowered to
JIT-compiled per-stage loops.

Two hot paths are lowered:

* **counts** — the Monte-Carlo path.  The batched NumPy kernels stream
  ~10 chunk-sized array passes per stage; at Monte-Carlo scale that is
  memory traffic, not arithmetic.  A compiled loop fuses dense rank +
  acceptance + fault refinement + link permutation into **one pass over
  the frontier per stage** and keeps each cycle's frontier
  L1/L2-resident.  Routing decisions are bit-identical to
  :meth:`~repro.sim.batched.CompiledStageRouter.route_batch_counts`.
* **buffered step** — one cycle of per-wire FIFO packet switching, run
  in place on the router's :class:`~repro.sim.plan.BufferedState`
  instead of ~30 NumPy calls per stage.  Outcomes and queue state are
  bit-identical to the NumPy body of
  :meth:`~repro.sim.batched.CompiledStageRouter.step` (label priority;
  random priority keeps the NumPy step and its ``rng.permutation`` draw
  protocol).

Both are pinned by the equivalence suites.  Each loop exists in two
execution **tiers**, best available first:

* ``numba`` — :func:`_counts_loop` / :func:`_step_loop` compiled by
  ``numba.njit(cache=True)``.  Preferred when numba is importable;
  ``pip install repro[native]`` pulls it in.
* ``cc`` — C translations of the identical loops, compiled at first use
  with the host toolchain (``cc``/``gcc``/``clang``), cached on disk by
  generated-source hash, and called through :mod:`ctypes` (the GIL is
  released for the duration of the call).  The counts kernel is
  *specialized to the plan's stage shapes* (constants baked in, stages
  unrolled, branchless per-wire path); the step kernel is generic —
  it reads every stage constant from a lowered table — so a host
  compiles it once per wire type, not once per plan.  This keeps the
  native backend fast on numba-free hosts that have a compiler.

Importing this module never hard-fails: with no accelerated tier the
router degrades to the inherited NumPy kernels (the pure-NumPy shim), and
the backend registry reports the backend unavailable with an error naming
the ``[native]`` extra.

The kernels consume the existing plan data — per-stage shapes, link
permutation tables (pre-composed with the fault remap for faulted
stages), rank-space fault liveness, and the input permutation for
counts; the raw link tables and dead-slot masks for stepping — packed
once per plan into flat arrays (:func:`_lower`, :func:`_lower_step`) and
cached on the plan itself, so the warm path allocates nothing
chunk-sized and forked sweep workers inherit both the lowered tables and
the on-disk JIT caches.

Every tier runs **one kernel thread per process**.  Parallelism comes
from the process-level sweeps (``ParallelSweep``) and the service's
worker pool, which fork: a threaded kernel runtime started in the parent
before a fork (GNU libgomp, for one) deadlocks the forked workers on
their first kernel call, and one thread per process also avoids
oversubscribing cores the worker pool already fills.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.sim.batched import (
    BatchAcceptanceCounts,
    CompiledStageRouter,
    _check_demand_shape,
    _check_destination_bounds,
)
from repro.sim.stagegraph import BufferedCycleOutcome

__all__ = [
    "NativeStageRouter",
    "NativeKernel",
    "kernel_for",
    "numba_available",
    "cc_available",
    "available_tiers",
    "default_tier",
    "unavailable_reason",
]

# ----------------------------------------------------------------------
# The loop body (numba tier)
# ----------------------------------------------------------------------
# Compiled by numba (the ``numba`` tier).  The C translation below
# mirrors it statement for statement; the two must stay in lockstep —
# the bit-identity tests compare every tier against the NumPy kernels.
#
# Layout (built by :func:`_lower`):
#   meta[i]  = [width, fan_in_bits, shift, radix-1, capacity,
#               bucket_wires, link_offset, falive_offset]
#   links    = concatenated per-stage link tables (offset -1 = identity:
#              the winner's bucket wire *is* the next-stage wire)
#   falive   = concatenated rank-space liveness masks of faulted stages
#   input_perm = source -> entry-wire table (size 0 = identity)


def _counts_loop(
    dests, meta, links, falive, input_perm, frontier, counts,
    offered, delivered, blocked,
):
    batch, n = dests.shape
    nstages = meta.shape[0]
    has_perm = input_perm.shape[0] != 0
    for c in range(batch):
        cur = frontier[c, 0]
        nxt = frontier[c, 1]
        cnt = counts[c]
        w0 = meta[0, 0]
        for k in range(w0):
            cur[k] = -1
        off = 0
        if has_perm:
            for s in range(n):
                d = dests[c, s]
                if d >= 0:
                    cur[input_perm[s]] = d
                    off += 1
        else:
            for s in range(n):
                d = dests[c, s]
                if d >= 0:
                    cur[s] = d
                    off += 1
        offered[c] = off
        deliv = 0
        for i in range(nstages):
            width = meta[i, 0]
            fib = meta[i, 1]
            shift = meta[i, 2]
            rmask = meta[i, 3]
            cap = meta[i, 4]
            bw = meta[i, 5]
            loff = meta[i, 6]
            foff = meta[i, 7]
            last = i == nstages - 1
            if not last:
                nw = meta[i + 1, 0]
                for k in range(nw):
                    nxt[k] = -1
            nswitch = width >> fib
            fan_in = 1 << fib
            blocked_here = 0
            for sw in range(nswitch):
                for r in range(rmask + 1):
                    cnt[r] = 0
                base = sw << fib
                swbase = sw * bw
                for k in range(fan_in):
                    d = cur[base + k]
                    if d < 0:
                        continue
                    digit = (d >> shift) & rmask
                    r = cnt[digit]
                    cnt[digit] = r + 1
                    if r >= cap:
                        blocked_here += 1
                        continue
                    y = swbase + digit * cap + r
                    if foff >= 0 and falive[foff + y] == 0:
                        blocked_here += 1
                        continue
                    if last:
                        deliv += 1
                    elif loff >= 0:
                        nxt[links[loff + y]] = d
                    else:
                        nxt[y] = d
            blocked[c, i] = blocked_here
            if not last:
                cur, nxt = nxt, cur
        delivered[c] = deliv


# One buffered cycle, in place on a BufferedState's three flat buffers
# (layout built by :func:`_lower_step`):
#   meta[i] = [width, fan_in_bits, shift, radix-1, capacity, bucket_wires,
#              link_offset, dead_offset, column_offset]
#   links   = concatenated raw link tables (offset -1 = identity)
#   dead    = concatenated dead-slot masks of faulted stages (offset -1 =
#             no faults)
#   occ[w], qdest[w * depth + k], qstamp[w * depth + k] = the FIFO of
#             global wire w (column i starts at column_offset)
# Stages are serviced output side first.  Within a switch, contenders are
# visited in wire-label order, and each bucket's ``cursor`` hands its
# rank-r contender the r-th slot that is available: live, and before the
# last column, feeding a next queue with room.  Once a contender finds
# none, every later one in the bucket stays queued too.  A push lands on
# a slot the cursor has passed, and no two slots feed the same next
# queue, so a slot's room is read before anything changes it.
# Deliveries are parked on their final slot (``yslot``, all -1 between
# calls) and read back in slot order, insertion-sorting latencies within
# each output: the canonical (output, latency) order.
# res = [delivered, offered, injected].


def _step_loop(
    meta, links, dead, input_perm, depth, out_shift, t,
    occ, qdest, qstamp, dests, cursor, yslot, out, lat, res,
):
    nstages = meta.shape[0]
    last = nstages - 1
    nslots = yslot.shape[0]
    for i in range(last, -1, -1):
        width = meta[i, 0]
        fib = meta[i, 1]
        shift = meta[i, 2]
        rmask = meta[i, 3]
        cap = meta[i, 4]
        bw = meta[i, 5]
        loff = meta[i, 6]
        doff = meta[i, 7]
        col = meta[i, 8]
        ncol = 0
        if i < last:
            ncol = meta[i + 1, 8]
        fan_in = 1 << fib
        for sw in range(width >> fib):
            for r in range(rmask + 1):
                cursor[r] = 0
            for k in range(fan_in):
                w = col + (sw << fib) + k
                if occ[w] == 0:
                    continue
                q = w * depth
                d = qdest[q]
                digit = (d >> shift) & rmask
                base = sw * bw + digit * cap
                j = cursor[digit]
                nw = 0
                while j < cap:
                    y = base + j
                    if doff >= 0 and dead[doff + y] != 0:
                        j += 1
                        continue
                    if i == last:
                        break
                    nw = y
                    if loff >= 0:
                        nw = links[loff + y]
                    nw += ncol
                    if occ[nw] < depth:
                        break
                    j += 1
                if j >= cap:
                    cursor[digit] = cap
                    continue
                cursor[digit] = j + 1
                stamp = qstamp[q]
                for p in range(depth - 1):
                    qdest[q + p] = qdest[q + p + 1]
                    qstamp[q + p] = qstamp[q + p + 1]
                occ[w] -= 1
                if i == last:
                    yslot[base + j] = t - stamp
                else:
                    p = nw * depth + occ[nw]
                    qdest[p] = d
                    qstamp[p] = stamp
                    occ[nw] += 1
    ndeliv = 0
    for y in range(nslots):
        lt = yslot[y]
        if lt < 0:
            continue
        yslot[y] = -1
        o = y >> out_shift
        p = ndeliv
        while p > 0 and out[p - 1] == o and lat[p - 1] > lt:
            out[p] = out[p - 1]
            lat[p] = lat[p - 1]
            p -= 1
        out[p] = o
        lat[p] = lt
        ndeliv += 1
    offered = 0
    injected = 0
    has_perm = input_perm.shape[0] != 0
    for s in range(dests.shape[0]):
        d = dests[s]
        if d < 0:
            continue
        offered += 1
        w = s
        if has_perm:
            w = input_perm[s]
        if occ[w] < depth:
            p = w * depth + occ[w]
            qdest[p] = d
            qstamp[p] = t
            occ[w] += 1
            injected += 1
    res[0] = ndeliv
    res[1] = offered
    res[2] = injected


_numba_fns: dict = {}


def _numba_loop(loop=_counts_loop):
    """``loop`` compiled by numba (once per process, disk-cached)."""
    fn = _numba_fns.get(loop)
    if fn is None:
        import numba

        fn = numba.njit(cache=True)(loop)
        _numba_fns[loop] = fn
    return fn


# ----------------------------------------------------------------------
# The C tier (plan-specialized, runtime-compiled, ctypes-loaded)
# ----------------------------------------------------------------------
# The same loop, but *specialized to the plan*: every per-stage scalar
# (width, fan-in, digit shift, radix mask, capacity, table offsets) is a
# compile-time constant, the stage loop is fully unrolled into one block
# per stage, and each block picks the cheapest rank engine its shape
# allows.  Only the table *data* stays runtime — two plans with the same
# stage shapes share one shared object (the cache key is the generated
# source), while their link tables and fault masks ride in as pointers.
#
# Why specialize?  The hot path is ~10 instructions per wire; a generic
# loop spends a comparable budget re-loading stage metadata, testing
# loop-invariant flags, and doing variable shifts/multiplies.  Baked
# constants let the compiler unroll the fan-in loop, strength-reduce the
# bucket math, and drop every dead feature test.
#
# The loop body is branchless in the per-wire path: on a loaded network a
# quarter of the requests lose their bucket, so data-dependent branches
# mispredict constantly.  Losers (and dead wires) are steered to a trash
# slot with mask arithmetic -- ``-ok`` is 0 or all-ones -- spelled as
# AND/ADD rather than ternaries (gcc lowers the equivalent ternaries back
# into branches).  In-bucket occupancy uses, per stage shape:
#
# * a claim *bitmask* when ``capacity == 1`` (one bit per bucket),
# * packed 8-bit lanes of one register when ``radix <= 8`` (the scalar
#   twin of the NumPy engines' packed-lane rank),
# * an indexed counter array otherwise.
#
# Exit columns that are pure delivery (fan-in 1, radix 1, no faults)
# collapse to a vectorizable liveness popcount.


def _spec_stage_block(
    i, row, nstages, widths, trash, ctype
) -> str:
    """One fully-unrolled stage of the specialized kernel."""
    width, fib, shift, rmask, cap, bw, loff, foff = (int(v) for v in row)
    fan_in = 1 << fib
    nswitch = width >> fib
    last = i == nstages - 1
    faulted = foff >= 0
    if last and fan_in == 1 and rmask == 0 and not faulted:
        return f"""
        /* stage {i}: pure exit column -- every live wire delivers */
        for (int64_t s = 0; s < {width}; s++) deliv += (cur[s] >= 0);
        blocked[c * {nstages} + {i}] = 0;"""
    if cap == 1 and rmask <= 63:
        counter_init = "uint64_t taken = 0;"
        rank_ok = (
            "int64_t ok = live & (int64_t)(~(taken >> digit) & 1u);\n"
            "                    taken |= (uint64_t)live << digit;\n"
            "                    int64_t y = swbase + digit;"
        )
    elif rmask <= 7 and fan_in <= 127:
        counter_init = "uint64_t pack = 0;"
        rank_ok = (
            "int64_t lane = digit << 3;\n"
            "                    int64_t r = (int64_t)((pack >> lane) & 0xff);\n"
            "                    pack += ((uint64_t)live << lane);\n"
            f"                    int64_t ok = live & (int64_t)(r < {cap});\n"
            f"                    int64_t y = swbase + digit * {cap} + (r & -ok);"
        )
    else:
        counter_init = f"for (int64_t r0 = 0; r0 <= {rmask}; r0++) cnt[r0] = 0;"
        rank_ok = (
            "int64_t r = (int64_t)cnt[digit];\n"
            "                    cnt[digit] = (int32_t)(r + live);\n"
            f"                    int64_t ok = live & (int64_t)(r < {cap});\n"
            f"                    int64_t y = swbase + digit * {cap} + (r & -ok);"
        )
    if faulted:
        fault = (
            "ok &= (int64_t)fal[y];\n"
            "                    int64_t msk = -ok;"
        )
    else:
        fault = "int64_t msk = -ok;"
    if last:
        consume = "deliv += ok;"
    else:
        consume = (
            "int64_t nw_ = (int64_t)ltab[y];\n"
            f"                    nxt[{trash} + ((nw_ - {trash}) & msk)] = d;"
        )
    decls = []
    if not last:
        decls.append(
            f"memset(nxt, 0xff, {widths[i + 1]} * sizeof({ctype}));"
        )
        decls.append(f"const {ctype} *ltab = links + {loff};")
    if faulted:
        decls.append(f"const uint8_t *fal = falive + {foff};")
    decl_text = "\n            ".join(decls)
    swap = "" if last else f"{ctype} *tmp_ = cur; cur = nxt; nxt = tmp_;"
    return f"""
        /* stage {i}: {nswitch} x {fan_in}-wide switches, radix {rmask + 1}, capacity {cap} */
        {{
            {decl_text}
            int64_t blocked_here = 0;
            for (int64_t sw = 0; sw < {nswitch}; sw++) {{
                {counter_init}
                const {ctype} *in = cur + (sw << {fib});
                int64_t swbase = sw * {bw};
                for (int k = 0; k < {fan_in}; k++) {{
                    {ctype} d = in[k];
                    int64_t live = (d >= 0);
                    int64_t digit = ((int64_t)d >> {shift}) & {rmask};
                    {rank_ok}
                    {fault}
                    blocked_here += live ^ ok;
                    {consume}
                }}
            }}
            blocked[c * {nstages} + {i}] = blocked_here;
            {swap}
        }}"""


def _stage_uses_cnt(row) -> bool:
    rmask, cap = int(row[3]), int(row[4])
    fan_in = 1 << int(row[1])
    return not (cap == 1 and rmask <= 63) and not (rmask <= 7 and fan_in <= 127)


def _spec_source(tables, ctype) -> str:
    """The specialized C source for one plan shape x wire dtype."""
    meta = tables.meta
    nstages = meta.shape[0]
    widths = [int(meta[i, 0]) for i in range(nstages)]
    stride = tables.maxw + 1
    trash = tables.maxw
    has_perm = tables.input_perm.size != 0
    uses_cnt = any(_stage_uses_cnt(meta[i]) for i in range(nstages))
    stages = "\n".join(
        _spec_stage_block(i, meta[i], nstages, widths, trash, ctype)
        for i in range(nstages)
    )
    if has_perm:
        fill = f"""memset(cur, 0xff, {widths[0]} * sizeof({ctype}));
        int64_t off = 0;
        for (int64_t s = 0; s < n; s++) {{
            int64_t d = drow[s];
            int64_t idx = d >= 0 ? input_perm[s] : {trash};
            cur[idx] = ({ctype})d;
            off += d >= 0;
        }}"""
    else:
        fill = f"""memset(cur, 0xff, {widths[0]} * sizeof({ctype}));
        int64_t off = 0;
        for (int64_t s = 0; s < n; s++) {{
            int64_t d = drow[s];
            cur[s] = ({ctype})d;
            off += d >= 0;
        }}"""
    cnt_decl = (
        f"int32_t *cnt = counts + c * {tables.radix_max};"
        if uses_cnt
        else "(void)counts;"
    )
    return f"""#include <stdint.h>
#include <string.h>

/* Plan-specialized counts kernel: {nstages} stages, wire type {ctype}.
 * Generated by repro.sim.native; the argument list matches the generic
 * kernel ABI so the caller is shape-agnostic. */
void repro_counts_spec(
    const int64_t *restrict dests, int64_t batch, int64_t n,
    const int64_t *restrict meta, int64_t nstages,
    const {ctype} *restrict links, const uint8_t *restrict falive,
    const int64_t *restrict input_perm, int64_t has_perm,
    {ctype} *restrict frontier, int64_t maxw,
    int32_t *restrict counts, int64_t radix_max,
    int64_t *restrict offered, int64_t *restrict delivered,
    int64_t *restrict blocked)
{{
    (void)meta; (void)nstages; (void)has_perm; (void)maxw; (void)radix_max;
    (void)input_perm; (void)links; (void)falive;
    for (int64_t c = 0; c < batch; c++) {{
        {ctype} *cur = frontier + c * 2 * {stride};
        {ctype} *nxt = cur + {stride};
        (void)nxt;
        {cnt_decl}
        const int64_t *drow = dests + c * n;
        {fill}
        offered[c] = off;
        int64_t deliv = 0;
{stages}
        delivered[c] = deliv;
    }}
}}
"""


_ARGTYPES = [
    ctypes.c_void_p, ctypes.c_longlong, ctypes.c_longlong,   # dests, batch, n
    ctypes.c_void_p, ctypes.c_longlong,                      # meta, nstages
    ctypes.c_void_p, ctypes.c_void_p,                        # links, falive
    ctypes.c_void_p, ctypes.c_longlong,                      # input_perm, has_perm
    ctypes.c_void_p, ctypes.c_longlong,                      # frontier, maxw
    ctypes.c_void_p, ctypes.c_longlong,                      # counts, radix_max
    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,       # offered, delivered, blocked
]

_CTYPE = {np.dtype(np.int16).char: "int16_t",
          np.dtype(np.int32).char: "int32_t",
          np.dtype(np.int64).char: "int64_t"}


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-native"
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def _build_shared_object(source: str, stem: str) -> Path:
    """Compile ``source`` (or find it cached on disk); raises on failure.

    The cache is keyed by source hash, so forked sweep workers and later
    processes load the same build instead of recompiling.
    """
    compiler = _compiler()
    if compiler is None:
        raise ConfigurationError("no C compiler (cc/gcc/clang) on PATH")
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"{stem}_{digest}.so"
    if so_path.exists():
        return so_path
    cache.mkdir(parents=True, exist_ok=True)
    # Source and object are written under per-process names and renamed
    # into place: workers that build the same plan shape at once must
    # never compile a source file another process is rewriting (that
    # yields an object without the kernel symbol) or load a half-written
    # object.
    c_tmp = cache / f".{stem}_{digest}.{os.getpid()}.c"
    c_tmp.write_text(source)
    tmp = cache / f".{so_path.name}.{os.getpid()}.tmp"
    errors = []
    try:
        # Prefer host tuning; fall back to a plain build for toolchains
        # that reject -march=native.
        for extra in (["-march=native"], []):
            cmd = [compiler, "-O3", "-fPIC", "-shared", *extra,
                   str(c_tmp), "-o", str(tmp)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode == 0:
                os.replace(tmp, so_path)
                return so_path
            errors.append(proc.stderr.strip())
    finally:
        # The source stays beside its build for inspection.
        os.replace(c_tmp, cache / f"{stem}_{digest}.c")
    raise ConfigurationError(
        f"C kernel compilation failed with {compiler}: {errors[-1]!r}"
    )


_spec_fns: dict = {}


def _spec_kernel(tables, wire_dtype):
    """The plan-specialized compiled kernel entry point (ctypes function)."""
    source = _spec_source(tables, _CTYPE[np.dtype(wire_dtype).char])
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    fn = _spec_fns.get(digest)
    if fn is None:
        lib = ctypes.CDLL(str(_build_shared_object(source, "repro_spec")))
        fn = lib.repro_counts_spec
        fn.restype = None
        fn.argtypes = _ARGTYPES
        _spec_fns[digest] = fn
    return fn


# The buffered step, translated statement for statement from
# :func:`_step_loop`.  Unlike the counts kernel it is *generic*: every
# per-stage constant is read from the lowered ``meta`` table at run time,
# so a host compiles it once per wire type, not once per plan.  (The
# slot search is data-dependent anyway, and a cycle touches each queued
# packet once, so baked constants would buy little here.)
_STEP_SOURCE = """#include <stdint.h>

/* Buffered step kernel, wire type WIRE.  Generated by repro.sim.native
 * from the _step_loop source it mirrors. */
void repro_step(
    const int64_t *restrict meta, int64_t nstages,
    const int64_t *restrict links, const uint8_t *restrict dead,
    const int64_t *restrict input_perm, int64_t has_perm,
    int64_t depth, int64_t out_shift, int64_t t,
    int64_t *restrict occ, WIRE *restrict qdest, int64_t *restrict qstamp,
    const int64_t *restrict dests, int64_t n,
    int64_t *restrict cursor,
    int64_t *restrict yslot, int64_t nslots,
    int64_t *restrict out, int64_t *restrict lat, int64_t *restrict res)
{
    int64_t last = nstages - 1;
    for (int64_t i = last; i >= 0; i--) {
        const int64_t *m = meta + i * 9;
        int64_t width = m[0], fib = m[1], shift = m[2], rmask = m[3];
        int64_t cap = m[4], bw = m[5], loff = m[6], doff = m[7], col = m[8];
        int64_t ncol = 0;
        if (i < last) ncol = meta[(i + 1) * 9 + 8];
        int64_t fan_in = (int64_t)1 << fib;
        for (int64_t sw = 0; sw < (width >> fib); sw++) {
            for (int64_t r = 0; r <= rmask; r++) cursor[r] = 0;
            for (int64_t k = 0; k < fan_in; k++) {
                int64_t w = col + (sw << fib) + k;
                if (occ[w] == 0) continue;
                int64_t q = w * depth;
                WIRE d = qdest[q];
                int64_t digit = ((int64_t)d >> shift) & rmask;
                int64_t base = sw * bw + digit * cap;
                int64_t j = cursor[digit];
                int64_t nw = 0;
                while (j < cap) {
                    int64_t y = base + j;
                    if (doff >= 0 && dead[doff + y] != 0) {
                        j++;
                        continue;
                    }
                    if (i == last) break;
                    nw = y;
                    if (loff >= 0) nw = links[loff + y];
                    nw += ncol;
                    if (occ[nw] < depth) break;
                    j++;
                }
                if (j >= cap) {
                    cursor[digit] = cap;
                    continue;
                }
                cursor[digit] = j + 1;
                int64_t stamp = qstamp[q];
                for (int64_t p = 0; p < depth - 1; p++) {
                    qdest[q + p] = qdest[q + p + 1];
                    qstamp[q + p] = qstamp[q + p + 1];
                }
                occ[w] -= 1;
                if (i == last) {
                    yslot[base + j] = t - stamp;
                } else {
                    int64_t p = nw * depth + occ[nw];
                    qdest[p] = d;
                    qstamp[p] = stamp;
                    occ[nw] += 1;
                }
            }
        }
    }
    int64_t ndeliv = 0;
    for (int64_t y = 0; y < nslots; y++) {
        int64_t lt = yslot[y];
        if (lt < 0) continue;
        yslot[y] = -1;
        int64_t o = y >> out_shift;
        int64_t p = ndeliv;
        while (p > 0 && out[p - 1] == o && lat[p - 1] > lt) {
            out[p] = out[p - 1];
            lat[p] = lat[p - 1];
            p--;
        }
        out[p] = o;
        lat[p] = lt;
        ndeliv++;
    }
    int64_t offered = 0, injected = 0;
    for (int64_t s = 0; s < n; s++) {
        int64_t d = dests[s];
        if (d < 0) continue;
        offered++;
        int64_t w = s;
        if (has_perm) w = input_perm[s];
        if (occ[w] < depth) {
            int64_t p = w * depth + occ[w];
            qdest[p] = (WIRE)d;
            qstamp[p] = t;
            occ[w] += 1;
            injected++;
        }
    }
    res[0] = ndeliv;
    res[1] = offered;
    res[2] = injected;
}

/* The entry point: the argument list above packed into int64 words, so
 * a once-per-cycle caller marshals one argument instead of twenty. */
void repro_step_packed(const int64_t *a)
{
    repro_step(
        (const int64_t *)a[0], a[1], (const int64_t *)a[2],
        (const uint8_t *)a[3], (const int64_t *)a[4], a[5],
        a[6], a[7], a[8],
        (int64_t *)a[9], (WIRE *)a[10], (int64_t *)a[11],
        (const int64_t *)a[12], a[13],
        (int64_t *)a[14], (int64_t *)a[15], a[16],
        (int64_t *)a[17], (int64_t *)a[18], (int64_t *)a[19]);
}
"""

_step_fns: dict = {}


def _step_kernel(wire_dtype):
    """The generic compiled step kernel for one wire type (ctypes function)."""
    ctype = _CTYPE[np.dtype(wire_dtype).char]
    fn = _step_fns.get(ctype)
    if fn is None:
        source = _STEP_SOURCE.replace("WIRE", ctype)
        lib = ctypes.CDLL(str(_build_shared_object(source, "repro_step")))
        fn = lib.repro_step_packed
        fn.restype = None
        fn.argtypes = [ctypes.c_void_p]
        _step_fns[ctype] = fn
    return fn


_C_PROBE = "long repro_probe(void) { return 42; }\n"

_cc_error: Optional[str] = None
_cc_probed = False


def _probe_cc() -> Optional[str]:
    """Compile-and-call a trivial kernel once; ``None`` = toolchain works."""
    global _cc_error, _cc_probed
    if not _cc_probed:
        _cc_probed = True
        try:
            lib = ctypes.CDLL(str(_build_shared_object(_C_PROBE, "repro_probe")))
            if int(lib.repro_probe()) != 42:
                raise ConfigurationError("probe kernel returned garbage")
            _cc_error = None
        except Exception as exc:  # noqa: BLE001 - any failure = tier unavailable
            _cc_error = f"native cc tier unavailable: {exc}"
    return _cc_error


# ----------------------------------------------------------------------
# Tier discovery
# ----------------------------------------------------------------------

_numba_ok: Optional[bool] = None


def numba_available() -> bool:
    """Whether the numba JIT tier can be used (numba importable)."""
    global _numba_ok
    if _numba_ok is None:
        try:
            import numba  # noqa: F401

            _numba_ok = True
        except ImportError:
            _numba_ok = False
    return _numba_ok


def cc_available() -> bool:
    """Whether the compiled-C tier is usable (probe-compiles on first call)."""
    return _probe_cc() is None


def available_tiers() -> tuple[str, ...]:
    """Accelerated tiers usable on this host, best first."""
    tiers = []
    if numba_available():
        tiers.append("numba")
    if cc_available():
        tiers.append("cc")
    return tuple(tiers)


def default_tier() -> Optional[str]:
    """The tier the native backend runs on here, or ``None`` (NumPy shim)."""
    tiers = available_tiers()
    return tiers[0] if tiers else None


def unavailable_reason() -> Optional[str]:
    """Why ``backend="native"`` cannot run here, or ``None`` if it can."""
    if available_tiers():
        return None
    return (
        "the native backend needs numba (pip install 'repro[native]') or a "
        "C compiler (cc/gcc/clang) on PATH; neither is available"
    )


# ----------------------------------------------------------------------
# Plan lowering
# ----------------------------------------------------------------------

_META_WIDTH = 8
_STEP_META_WIDTH = 9


class _PlanTables:
    """The flat-array view of one plan the fused loops consume."""

    __slots__ = ("meta", "links", "falive", "input_perm", "maxw", "radix_max")

    def __init__(self, meta, links, falive, input_perm, maxw, radix_max):
        self.meta = meta
        self.links = links
        self.falive = falive
        self.input_perm = input_perm
        self.maxw = maxw
        self.radix_max = radix_max


def _lower(plan) -> _PlanTables:
    """Pack a plan's tables into the loop layout (meta/links/falive)."""
    g = plan.graph
    nstages = g.num_stages
    wire = plan.wire_dtype
    meta = np.zeros((nstages, _META_WIDTH), dtype=np.int64)
    link_parts, fal_parts = [], []
    link_off = fal_off = 0
    for i, stage in enumerate(g.stages):
        meta[i, 0] = plan.stage_widths[i]
        meta[i, 1] = int(np.log2(stage.fan_in))
        meta[i, 2] = stage.shift
        meta[i, 3] = stage.radix - 1
        meta[i, 4] = stage.capacity
        meta[i, 5] = stage.bucket_wires
        table = None
        if i < nstages - 1:
            table = plan.fault_link_table(i, wire)
            if table is None:
                table = plan.perm_table(i, wire)
            if table is None:
                # Identity boundary: materialize it so the C loop's link
                # gather is unconditional (bucket-wire space == the next
                # column's wire space).
                table = np.arange(plan.stage_widths[i + 1], dtype=wire)
        if table is not None:
            meta[i, 6] = link_off
            link_parts.append(np.ascontiguousarray(table, dtype=wire))
            link_off += table.size
        else:
            meta[i, 6] = -1
        fal = plan.fault_alive(i)
        if fal is not None:
            meta[i, 7] = fal_off
            fal_parts.append(np.ascontiguousarray(fal, dtype=np.uint8))
            fal_off += fal.size
        else:
            meta[i, 7] = -1
    links = (
        np.concatenate(link_parts)
        if link_parts
        else np.zeros(1, dtype=wire)
    )
    falive = (
        np.concatenate(fal_parts)
        if fal_parts
        else np.zeros(1, dtype=np.uint8)
    )
    perm = plan.input_perm_table(np.int64)
    input_perm = (
        np.ascontiguousarray(perm, dtype=np.int64)
        if perm is not None
        else np.zeros(0, dtype=np.int64)
    )
    return _PlanTables(
        meta=meta,
        links=links,
        falive=falive,
        input_perm=input_perm,
        maxw=int(max(plan.stage_widths)),
        radix_max=int(max(stage.radix for stage in g.stages)),
    )


class _StepTables:
    """The flat-array view of one buffered plan the step loops consume."""

    __slots__ = ("meta", "links", "dead", "input_perm", "out_shift",
                 "radix_max", "nslots", "n_inputs")

    def __init__(self, meta, links, dead, input_perm, out_shift, radix_max,
                 nslots, n_inputs):
        self.meta = meta
        self.links = links
        self.dead = dead
        self.input_perm = input_perm
        self.out_shift = out_shift
        self.radix_max = radix_max
        self.nslots = nslots
        self.n_inputs = n_inputs


def _lower_step(plan, tables: _PlanTables) -> _StepTables:
    """Pack a buffered plan into the step layout (meta/links/dead).

    Stepping grants *physical* slots, so it takes the raw link tables
    and the dead-slot masks rather than the counts path's fault-remapped
    links and rank-space liveness; the stage shapes and the input
    permutation are shared with ``tables``.
    """
    g = plan.graph
    meta = np.zeros((g.num_stages, _STEP_META_WIDTH), dtype=np.int64)
    meta[:, :6] = tables.meta[:, :6]
    link_parts, dead_parts = [], []
    link_off = dead_off = col = 0
    for i in range(g.num_stages):
        link = plan.perm_table(i, np.int64)
        if link is not None:
            meta[i, 6] = link_off
            link_parts.append(link)
            link_off += link.size
        else:
            meta[i, 6] = -1
        dead = plan.fault_dead_slots(i)
        if dead is not None:
            meta[i, 7] = dead_off
            dead_parts.append(dead.astype(np.uint8))
            dead_off += dead.size
        else:
            meta[i, 7] = -1
        meta[i, 8] = col
        col += plan.stage_widths[i]
    links = (
        np.concatenate(link_parts) if link_parts else np.zeros(1, dtype=np.int64)
    )
    dead = (
        np.concatenate(dead_parts) if dead_parts else np.zeros(1, dtype=np.uint8)
    )
    return _StepTables(
        meta=meta,
        links=links,
        dead=dead,
        input_perm=tables.input_perm,
        out_shift=g.out_shift,
        radix_max=tables.radix_max,
        nslots=g.n_outputs << g.out_shift,
        n_inputs=g.n_inputs,
    )


class NativeKernel:
    """One plan's fused kernels on one execution tier.

    An unbuffered plan is lowered for the counts kernel; a buffered plan
    (``buffer_depth`` set) is lowered for the step kernel, and builds
    its counts kernel only if one is asked for.
    """

    __slots__ = ("tables", "step_tables", "tier", "wire", "_fn", "_step_fn")

    def __init__(self, plan, tier: str):
        if tier not in ("numba", "cc"):
            raise ConfigurationError(f"unknown native tier {tier!r}")
        self.tables = _lower(plan)
        self.tier = tier
        self.wire = plan.wire_dtype
        self._fn = self._step_fn = self.step_tables = None
        if plan.buffer_depth is None:
            self._counts_fn()
        else:
            self.step_tables = _lower_step(plan, self.tables)
            if tier == "cc":
                self._step_fn = _step_kernel(self.wire)
            else:
                self._step_fn = _numba_loop(_step_loop)

    def _counts_fn(self):
        if self._fn is None:
            if self.tier == "cc":
                self._fn = _spec_kernel(self.tables, self.wire)
            else:
                self._fn = _numba_loop()
        return self._fn

    def counts(self, dests: np.ndarray, ws) -> BatchAcceptanceCounts:
        """Route a validated ``(batch, n)`` demand matrix; counts only.

        ``dests`` must be contiguous ``int64`` (the routers validate).
        The input permutation is applied inside the loop, so callers pass
        the raw matrix.  Frontier and counter scratch comes from ``ws``;
        only the O(batch) result arrays are allocated per call.
        """
        t = self.tables
        batch, _n = dests.shape
        nstages = t.meta.shape[0]
        # One extra slot per frontier half: index ``maxw`` is the trash
        # slot the branchless C loop parks losers on (the numba loop
        # never touches it).
        frontier = ws.array(
            "native_frontier", batch * 2 * (t.maxw + 1), self.wire
        ).reshape(batch, 2, t.maxw + 1)
        cnt = ws.array(
            "native_counts", batch * t.radix_max, np.int32
        ).reshape(batch, t.radix_max)
        offered = np.empty(batch, dtype=np.int64)
        delivered = np.empty(batch, dtype=np.int64)
        blocked = np.empty((batch, nstages), dtype=np.int64)
        fn = self._counts_fn()
        if self.tier == "cc":
            fn(
                dests.ctypes.data, batch, dests.shape[1],
                t.meta.ctypes.data, nstages,
                t.links.ctypes.data, t.falive.ctypes.data,
                t.input_perm.ctypes.data, t.input_perm.size,
                frontier.ctypes.data, t.maxw,
                cnt.ctypes.data, t.radix_max,
                offered.ctypes.data, delivered.ctypes.data,
                blocked.ctypes.data,
            )
        else:
            fn(
                dests, t.meta, t.links, t.falive, t.input_perm,
                frontier, cnt, offered, delivered, blocked,
            )
        per_stage = blocked.sum(axis=0)
        blocked_by_stage = {
            i + 1: int(v) for i, v in enumerate(per_stage.tolist()) if v
        }
        return BatchAcceptanceCounts(
            offered_per_cycle=offered,
            delivered_per_cycle=delivered,
            blocked_by_stage=blocked_by_stage,
        )


class _BoundStep:
    """One kernel stepping one ``BufferedState`` of its plan's shape.

    A buffered run calls the kernel once per cycle with a small demand
    vector, so per-call argument marshalling is a large share of the
    cost: the C call's argument list (table, state and scratch
    addresses) is built here once, and each :meth:`step` only copies the
    demand into a staging buffer and sets the clock.  Scratch is private
    to the binding, like the state itself.
    """

    __slots__ = ("kernel", "state", "_fn", "_args", "_packed", "_clock",
                 "_dests", "_out", "_lat", "_res")

    def __init__(self, kernel: NativeKernel, state):
        s = kernel.step_tables
        n = s.n_inputs
        sizes = (s.radix_max, s.nslots, s.nslots, s.nslots, 3, n)
        cursor, yslot, out, lat, res, dests = np.split(
            np.empty(sum(sizes), dtype=np.int64), np.cumsum(sizes)[:-1]
        )
        yslot.fill(-1)  # no delivery parked; the loop resets what it reads
        self.kernel = kernel
        self.state = state
        self._fn = kernel._step_fn
        self._out, self._lat, self._res, self._dests = out, lat, res, dests
        if kernel.tier == "cc":
            self._clock = 8
            self._args = np.array([
                s.meta.ctypes.data, s.meta.shape[0], s.links.ctypes.data,
                s.dead.ctypes.data, s.input_perm.ctypes.data,
                s.input_perm.size, state.depth, s.out_shift, 0,
                state.occ_buf.ctypes.data, state.dest_buf.ctypes.data,
                state.stamp_buf.ctypes.data, dests.ctypes.data, n,
                cursor.ctypes.data, yslot.ctypes.data, s.nslots,
                out.ctypes.data, lat.ctypes.data, res.ctypes.data,
            ], dtype=np.int64)
            self._packed = (self._args.ctypes.data,)
        else:
            self._clock = 6
            self._args = [
                s.meta, s.links, s.dead, s.input_perm, state.depth,
                s.out_shift, 0, state.occ_buf, state.dest_buf,
                state.stamp_buf, dests, cursor, yslot, out, lat, res,
            ]
            self._packed = None

    def step(self, dests: np.ndarray, t: int) -> BufferedCycleOutcome:
        """Advance the state one cycle at clock ``t``, in place.

        ``dests`` must be a validated ``int64`` demand vector; label
        priority only.  The loop writes its deliveries already in
        canonical order.
        """
        np.copyto(self._dests, dests)
        self._args[self._clock] = t
        self._fn(*(self._packed or self._args))
        delivered, offered, injected = self._res.tolist()
        return BufferedCycleOutcome(
            outputs=self._out[:delivered].copy(),
            latencies=self._lat[:delivered].copy(),
            offered=offered,
            injected=injected,
        )


def kernel_for(plan, tier: str) -> NativeKernel:
    """The plan's native kernel on ``tier``, lowered once and cached.

    The kernel rides the plan's lazily-built table dict, so it shares the
    plan's LRU lifetime: a warm plan-cache hit also hits the lowered
    kernel (warm == cold bit-identity holds trivially), and forked
    workers inherit it.  Concurrent first builds are a benign idempotent
    race, exactly like the plan's other lazy tables.
    """
    key = ("native_kernel", tier)
    kernel = plan._tables.get(key)
    if kernel is None:
        kernel = NativeKernel(plan, tier)
        plan._tables[key] = kernel
    return kernel


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------


class NativeStageRouter(CompiledStageRouter):
    """:class:`CompiledStageRouter` with its two hot paths JIT-compiled.

    Under label priority the counts-only kernel (the Monte-Carlo hot
    path) and the buffered step are lowered.  The step itself stays
    :meth:`CompiledStageRouter.step` — validation, then dispatch to the
    kernel this router supplies for its current plan and state
    (:meth:`_step_kernel`) — so a fault swap or buffer reset re-keys the
    kernel.  Everything else (per-message outcomes, random priority's
    sort-based resolution and draw protocol, fault hot-swapping) is
    inherited unchanged, so the native backend has the full capability
    surface of ``batched`` with identical semantics.

    ``tier="auto"`` (default) picks the best accelerated tier and
    degrades to the inherited NumPy kernels when none is available (the
    import-safe shim).
    """

    def __init__(
        self,
        graph,
        *,
        priority: str = "label",
        plan="auto",
        faults=(),
        buffer_depth: Optional[int] = None,
        tier: str = "auto",
    ):
        super().__init__(
            graph,
            priority=priority,
            plan=plan,
            faults=faults,
            buffer_depth=buffer_depth,
        )
        self.tier = default_tier() if tier == "auto" else tier
        self._bound_step = None

    def route_batch_counts(
        self, dests: np.ndarray, rng=None, *, workspace=None
    ) -> BatchAcceptanceCounts:
        if self.priority != "label":
            # Random priority is resolved by sort either way; the
            # inherited path is already the right engine for it.
            return super().route_batch_counts(dests, rng, workspace=workspace)
        if self.tier is None:  # the pure-NumPy shim
            return super().route_batch_counts(dests, rng, workspace=workspace)
        g = self.graph
        dests = _check_demand_shape(dests, g.n_inputs)
        _check_destination_bounds(dests.reshape(-1), g.n_outputs)
        ws = workspace if workspace is not None else self._plan.workspace()
        return kernel_for(self._plan, self.tier).counts(dests, ws)

    def _step_kernel(self):
        # Random priority keeps the NumPy step: its per-stage
        # ``rng.permutation`` draws are part of the reference protocol.
        if self.tier is None or self.priority != "label":
            return None
        kernel = kernel_for(self._plan, self.tier)
        bound = self._bound_step
        if bound is None or bound.kernel is not kernel or bound.state is not self._buffers:
            bound = self._bound_step = _BoundStep(kernel, self._buffers)
        return bound

    def __repr__(self) -> str:
        faulted = f", faults={len(self.faults)}" if self.faults else ""
        return (
            f"NativeStageRouter({self.graph.label}, "
            f"priority={self.priority!r}, tier={self.tier or 'numpy'!r}{faulted})"
        )
