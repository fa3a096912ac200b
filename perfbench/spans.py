"""Layer spans for the benchmark's traced run, recorded from outside ``repro``.

The package has no tracing of its own, so this module wraps the public
entry points of each layer (module functions and class methods) with a
span recorder.  A span is ``(id, parent, layer, start_ns, end_ns, work,
pid)``: ``parent`` is the span that was open on the same thread when it
started, and ``work`` is the number of demand messages the call handled
(0 where that does not apply).  Spans stay in memory and are written out
when the benchmark ends.

A layer's *self time* is the summed duration of its spans minus the time
covered by their direct children, so nested calls (a kernel falling back
to its parent class, a mixture generator calling its components) are
never counted twice.

Sweep workers are forked after the wrappers are installed, so they
inherit them.  Each shard runs through :func:`_traced_shard`, which
returns the worker's spans with the result; the parent unwraps both, so
worker-side time reaches the trace.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time


class Recorder:
    """In-memory span store for one process (workers get a forked copy)."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self.sweeps: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset_thread(self) -> None:
        """Forget the open spans inherited from the forking thread."""
        self._local.stack = []

    def wrap(self, layer: str, fn, work=None):
        """``fn`` recording a ``layer`` span per call while enabled."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            span_id = (os.getpid(), next(self._ids))
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            count = work(args, result) if work is not None else 0
            self.spans.append((span_id, parent, layer, start, end, count, os.getpid()))
            return result

        return traced

    def patch(self, owner, name: str, layer: str, work=None) -> None:
        """Replace ``owner.name`` (and every ``repro`` alias of it) by a wrapper."""
        original = owner.__dict__[name]
        wrapped = self.wrap(layer, original, work)
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, original))
        if inspect.isclass(owner):
            return
        # ``from x import f`` bindings elsewhere in the package hold the
        # original function; point them at the wrapper as well.
        for module_name, module in list(sys.modules.items()):
            if module is owner or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, original))

    def unpatch(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


#: The process-wide recorder: forked sweep workers reach it by import path.
RECORDER = Recorder()


def _rows(args, result) -> int:
    """Messages in a ``(batch, n)`` or ``(n,)`` demand matrix argument."""
    return int(getattr(args[1], "size", 0))


def _generated(args, result) -> int:
    return int(getattr(result, "size", 0))


def _traced_shard(target, payload):
    """Pool target wrapper: run one shard and return its worker-side spans."""
    from repro.sim.plan import plan_cache_info

    rec = RECORDER
    rec.reset_thread()
    mark = len(rec.spans)
    before = plan_cache_info()
    start = time.perf_counter_ns()
    result = target(payload)
    end = time.perf_counter_ns()
    after = plan_cache_info()
    spans = rec.spans[mark:]
    del rec.spans[mark:]
    shard = {
        "busy_ns": end - start,
        "plan_hits": after["hits"] - before["hits"],
        "plan_misses": after["misses"] - before["misses"],
    }
    return result, spans, shard


def _traced_supervised_map(original):
    """Wrap ``supervised_map`` so shards report spans and busy time."""
    pool_wait = RECORDER.wrap("sweep", original)

    def supervised_map(target, payloads, *, jobs, **kwargs):
        rec = RECORDER
        if not rec.enabled:
            return original(target, payloads, jobs=jobs, **kwargs)
        start = time.perf_counter_ns()
        results, retried = pool_wait(
            functools.partial(_traced_shard, target), payloads, jobs=jobs, **kwargs
        )
        wall = time.perf_counter_ns() - start
        sweep = {"wall_ns": wall, "jobs": jobs, "retried": len(retried),
                 "busy_ns": 0, "plan_hits": 0, "plan_misses": 0}
        unwrapped = []
        for result, spans, shard in results:
            rec.spans.extend(spans)
            for name, value in shard.items():
                sweep[name] += value
            unwrapped.append(result)
        rec.sweeps.append(sweep)
        return unwrapped, retried

    return supervised_map


def install() -> Recorder:
    """Wrap every traced layer boundary and start recording."""
    import repro.api.jobs
    import repro.api.measure
    import repro.api.registry
    import repro.experiments.parallel
    import repro.experiments.registry
    import repro.serve.client
    import repro.sim.batched
    import repro.sim.buffered
    import repro.sim.montecarlo
    import repro.sim.native
    import repro.sim.plan
    import repro.sim.stats
    import repro.workloads.models as models

    rec = RECORDER
    # Traffic generation: every concrete generator's own methods.
    for _name, cls in inspect.getmembers(models, inspect.isclass):
        if cls.__module__ != models.__name__:
            continue
        for method in ("generate", "generate_batch"):
            if method in cls.__dict__:
                rec.patch(cls, method, "workloads", _generated)
    # Stage kernels, counts-only Monte-Carlo path and buffered stepping.
    rec.patch(repro.sim.native.NativeStageRouter, "route_batch_counts",
              "kernel.native", _rows)
    rec.patch(repro.sim.batched.CompiledStageRouter, "route_batch_counts",
              "kernel.batched", _rows)
    rec.patch(repro.sim.batched.BatchedEDN, "route_batch_counts",
              "kernel.batched", _rows)
    rec.patch(repro.sim.batched.CompiledStageRouter, "step", "buffered", _rows)
    # Statistics.
    rec.patch(repro.sim.stats.RatioStats, "push_many", "stats")
    rec.patch(repro.sim.stats.RatioStats, "push", "stats")
    rec.patch(repro.sim.stats.LatencyStats, "record", "stats")
    # Monte-Carlo harnesses.
    rec.patch(repro.sim.montecarlo, "measure_acceptance", "montecarlo")
    rec.patch(repro.sim.buffered, "measure_buffered", "montecarlo")
    # Plan lookup/compile and native kernel lowering/compile.
    rec.patch(repro.api.registry, "build_router", "plan")
    rec.patch(repro.sim.plan.StagePlan, "__init__", "plan")
    rec.patch(repro.sim.native.NativeKernel, "__init__", "native")
    # Facade and experiment runners (their own glue is their self time).
    rec.patch(repro.api.measure, "measure", "api")
    rec.patch(repro.api.jobs, "measure_cell", "api")
    rec.patch(repro.experiments.registry, "run_experiment", "experiments")
    # Sweep supervision and IPC: the parent's blocking wait on the pool.
    parallel = repro.experiments.parallel
    wrapped = _traced_supervised_map(parallel.supervised_map)
    rec._patches.append((parallel, "supervised_map", parallel.supervised_map))
    parallel.supervised_map = wrapped
    # Service client: a job as its caller sees it (queueing, IPC, cache).
    rec.patch(repro.serve.client.ServiceClient, "submit", "serve")
    rec.enabled = True
    return rec


def uninstall() -> None:
    RECORDER.enabled = False
    RECORDER.unpatch()


def self_times(spans) -> dict:
    """Per-layer ``{self_ns, work, calls}`` over ``spans``."""
    child_ns: dict = {}
    for span_id, parent, _layer, start, end, _work, _pid in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    layers: dict = {}
    for span_id, _parent, layer, start, end, work, _pid in spans:
        entry = layers.setdefault(layer, {"self_ns": 0, "work": 0, "calls": 0})
        entry["self_ns"] += (end - start) - child_ns.get(span_id, 0)
        entry["work"] += work
        entry["calls"] += 1
    return layers
