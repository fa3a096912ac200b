"""One benchmark process: set up a workload, run it closed-loop, check it.

Started by ``perfbench/run.py`` in a fresh interpreter for every
measurement, as ``python3 -m perfbench.child`` from the checkout root with
``src`` on ``PYTHONPATH`` and ``REPRO_NATIVE_CACHE`` pointing at an empty
directory.  Modes:

``run``    set up (import, build, warm up), then the timed closed loop for
           ``--seconds``, then the output checks;
``trace``  setup, an untraced pass for half of ``--seconds``, then the
           same operations again with layer spans recorded, then checks.

A hard deadline (``faulthandler.dump_traceback_later``) turns a hang into
a dumped stack on stderr and a non-zero exit, never a stall.  The result
is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import logging
import os
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

from perfbench import cases, spans


def _drive(workload, seconds=None, counts=None):
    """Run every lane closed-loop; return ``(wall_s, ops)``.

    With ``seconds``, each lane runs whole rounds until the time is up;
    with ``counts``, lane ``i`` runs exactly ``counts[i]`` operations.
    Each op record holds its lane, index, start (seconds into the loop),
    latency, cells, messages and whether it succeeded.
    """
    records: list = [[] for _ in range(workload.lanes)]
    start = time.perf_counter()

    def lane_loop(lane: int) -> None:
        index = 0
        while True:
            if counts is not None:
                if index >= counts[lane]:
                    return
            elif index % workload.round_size == 0 and time.perf_counter() - start >= seconds:
                return
            began = time.perf_counter()
            record = {"lane": lane, "index": index, "start": began - start}
            try:
                op = workload.run(lane, index)
                record.update(cells=op.cells, msgs=op.msgs, ok=True)
            except Exception:  # a failed op is counted, and the loop goes on
                logging.exception("%s lane %d op %d failed", workload.name, lane, index)
                record.update(cells=0, msgs=0, ok=False)
            record["latency"] = time.perf_counter() - began
            records[lane].append(record)
            index += 1

    if workload.lanes == 1:
        lane_loop(0)
    else:
        threads = [threading.Thread(target=lane_loop, args=(lane,), name=f"lane-{lane}")
                   for lane in range(workload.lanes)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - start
    return wall, [op for lane in records for op in lane]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _host() -> dict:
    """The parts of the host fingerprint only an importer of repro can see."""
    import numpy

    from repro.sim import native

    return {
        "numpy": numpy.__version__,
        "native_default_tier": native.default_tier(),
        "native_available_tiers": list(native.available_tiers()),
    }


def _layer_metrics(workload, rec, traced_wall, untraced_wall, plan_before) -> dict:
    from repro.sim.plan import plan_cache_info

    layers = spans.self_times(rec.spans)
    own = spans.self_times([s for s in rec.spans if s[6] == os.getpid()])

    def self_s(layer):
        return layers.get(layer, {}).get("self_ns", 0) / 1e9

    def ns_per_msg(layer):
        entry = layers.get(layer, {})
        return entry["self_ns"] / entry["work"] if entry.get("work") else 0.0

    plan_after = plan_cache_info()
    hits = plan_after["hits"] - plan_before["hits"] + sum(
        s["plan_hits"] for s in rec.sweeps)
    lookups = hits + plan_after["misses"] - plan_before["misses"] + sum(
        s["plan_misses"] for s in rec.sweeps)
    pool_wall = sum(s["wall_ns"] * s["jobs"] for s in rec.sweeps)
    covered = sum(entry["self_ns"] for entry in own.values()) / 1e9
    cache = Path(os.environ["REPRO_NATIVE_CACHE"])
    metrics = {
        "workloads.gen_s": self_s("workloads"),
        "workloads.gen_ns_per_msg": ns_per_msg("workloads"),
    }
    for engine in ("native", "batched"):
        metrics[f"kernel.{engine}.route_s"] = self_s(f"kernel.{engine}")
        metrics[f"kernel.{engine}.ns_per_msg"] = ns_per_msg(f"kernel.{engine}")
        metrics[f"kernel.{engine}.calls"] = layers.get(f"kernel.{engine}", {}).get("calls", 0)
    metrics.update({
        "buffered.step_s": self_s("buffered"),
        "buffered.ns_per_msg": ns_per_msg("buffered"),
        "stats.s": self_s("stats"),
        "montecarlo.self_s": self_s("montecarlo"),
        "api.self_s": self_s("api"),
        "experiments.self_s": self_s("experiments"),
        "plan.build_s": self_s("plan"),
        "plan.hit_ratio": hits / lookups if lookups else 0.0,
        "native.compile_s": self_s("native"),
        "native.compiles": len(list(cache.glob("*.so"))) if cache.is_dir() else 0,
        "sweep.wall_s": sum(s["wall_ns"] for s in rec.sweeps) / 1e9,
        "sweep.worker_busy_frac": (
            sum(s["busy_ns"] for s in rec.sweeps) / pool_wall if pool_wall else 0.0),
        "sweep.retries": sum(s["retried"] for s in rec.sweeps),
        "serve.client_s": self_s("serve"),
        "serve.dedupe_rate": 0.0,
        "serve.cache_hit_ratio": 0.0,
        "serve.computed": 0,
        "serve.resubmitted": 0,
        "serve.pool_rebuilds": 0,
        "serve.worker_plan_hit_ratio": 0.0,
    })
    metrics.update(workload.layer_counters())
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["trace.covered_frac"] = covered / (traced_wall * workload.lanes)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("run", "trace"))
    parser.add_argument("--t0", type=float, required=True,
                        help="wall-clock time the parent started this interpreter")
    parser.add_argument("--deadline", type=float, required=True,
                        help="seconds after which the process dumps its stacks and exits")
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    faulthandler.enable()
    faulthandler.dump_traceback_later(args.deadline, exit=True)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")

    workload = cases.WORKLOADS[args.workload](args.seed, args.tiny)
    result: dict = {"mode": args.mode, "workload": workload.name}
    workload.setup()
    result["setup_s"] = time.time() - args.t0

    if args.mode == "run":
        wall, ops = _drive(workload, seconds=args.seconds)
        replayed: dict = {}
    else:
        from repro.sim.plan import plan_cache_info

        untraced_wall, first_ops = _drive(workload, seconds=args.seconds / 2)
        counts = [sum(1 for op in first_ops if op["lane"] == lane)
                  for lane in range(workload.lanes)]
        first = dict(workload.outcomes)
        workload.restart()
        plan_before = plan_cache_info()
        rec = spans.install()
        wall, ops = _drive(workload, counts=counts)
        spans.uninstall()
        replayed, workload.outcomes = workload.outcomes, first
    workload.teardown()
    result["peak_rss_mb"] = _peak_rss_mb()

    try:
        problems = workload.check(replayed)
    except Exception:
        logging.exception("%s output check raised", workload.name)
        problems = [f"output check raised: {traceback.format_exc(limit=1).strip()}"]
    for op in ops:
        if op["ok"]:
            op["msgs"] += workload.deferred_msgs(op["index"])
    result.update({
        "wall_s": wall,
        "lanes": workload.lanes,
        "round_size": workload.round_size,
        "ops": ops,
        "problems": problems,
        "host": _host(),
    })
    if args.mode == "trace":
        result["per_layer"] = _layer_metrics(workload, rec, wall, untraced_wall, plan_before)
        spans_path = Path(args.out).with_name(f"spans-{workload.name}.json")
        spans_path.write_text(json.dumps({"spans": rec.spans, "sweeps": rec.sweeps}))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
