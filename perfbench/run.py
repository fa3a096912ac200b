"""The repository benchmark: simulator throughput end to end, layers when traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mc_large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check     # tiny run of every workload

Each measurement runs in a fresh interpreter (``perfbench/child.py``)
under a hard deadline, with ``src`` on ``PYTHONPATH`` and
``REPRO_NATIVE_CACHE`` pointing at an empty directory, so set-up cost
never depends on what an earlier run left on disk.  Thread settings are
recorded as found and never changed.

``--trace 0`` runs ``SETUPS`` fresh interpreters one after another, each
setting the workload up and running the timed closed loop for a share of
``--seconds``, and reports the end-to-end metrics of ``BENCHMARK.json``:
the median set-up time, and throughput, job latency and peak memory of
the timed loops.
``--trace 1`` runs the operations untraced and then traced, and reports
the per-layer metrics from the spans (``perfbench/spans.py``).

Either way the run re-checks a seeded sample of its outputs on an
independent engine (``perfbench/cases.py``) and exits non-zero, with
``"correct": false``, when a check fails, an operation fails or a process
hangs.  The last line of standard output is the JSON result.  Run files
(logs, spans, results) go to ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cases import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
#: Fresh processes per ``--trace 0`` run, each set up and timed.
SETUPS = 3
#: Every run ends within this many seconds, hung children included.
RUN_BUDGET_S = 170.0
#: Time a child may spend beyond its timed loop (set-up and checks).
RUN_SLACK_S = 60.0
#: Rate sampling window when several lanes run at once.
WINDOW_S = 1.0


def fingerprint() -> dict:
    """Host facts every result is recorded with (thread settings as found)."""
    compiler = None
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            proc = subprocess.run([path, "--version"], capture_output=True, text=True,
                                  timeout=30)
            compiler = (proc.stdout.splitlines() or [path])[0]
            break
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "NUMBA_NUM_THREADS": os.environ.get("NUMBA_NUM_THREADS"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "compiler": compiler,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
    }


class Child:
    """One fresh benchmark interpreter, its log, and its cleanup."""

    def __init__(self, rundir: Path, number: int):
        self.log = rundir / f"child-{number}.log"
        self.out = rundir / f"child-{number}.json"
        self.cache = rundir / f"native-cache-{number}"
        self.tmp = rundir / f"tmp-{number}"

    def run(self, args, mode: str, seconds: float, deadline: float) -> dict | None:
        self.cache.mkdir(parents=True)
        self.tmp.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p])
        env["REPRO_NATIVE_CACHE"] = str(self.cache)
        env["TMPDIR"] = str(self.tmp)  # compiler and tempfile scratch stay in the checkout
        cmd = [
            sys.executable, "-m", "perfbench.child",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--mode", mode,
            "--deadline", f"{deadline:.1f}", "--out", str(self.out),
            "--t0", repr(time.time()),
        ] + (["--tiny"] if args.tiny else [])
        with open(self.log, "w") as log:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=log,
                                    start_new_session=True)
            try:
                proc.wait(timeout=deadline + 10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            finally:
                _reap_group(proc.pid)
        shutil.rmtree(self.cache, ignore_errors=True)
        shutil.rmtree(self.tmp, ignore_errors=True)
        if proc.returncode != 0 or not self.out.exists():
            return None
        return json.loads(self.out.read_text())


def _reap_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    until = time.monotonic() + 10
    while time.monotonic() < until:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its name."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} (fewer than 11 samples)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} jobs"


def rates(result: dict, field: str) -> list[float]:
    """``field`` per host second, sampled once per round or per time window.

    One lane: each round of operations is one sample (work over the
    round's summed latency).  Several lanes: each whole ``WINDOW_S``
    window of the loop is one sample (work of the ops finishing in it).  The
    median of these samples is the reported rate, so a burst of load from
    outside the benchmark moves a few samples, not the result.
    """
    ops = [op for op in result["ops"] if op["ok"]]
    if result["lanes"] == 1:
        size = result["round_size"]
        rounds = [ops[i:i + size] for i in range(0, len(ops) - size + 1, size)]
        return [sum(op[field] for op in r) / sum(op["latency"] for op in r)
                for r in rounds]
    windows = [0.0] * max(1, int(result["wall_s"] / WINDOW_S))
    for op in ops:
        end = int((op["start"] + op["latency"]) / WINDOW_S)
        if end < len(windows):
            windows[end] += op[field] / WINDOW_S
    return windows


def end_to_end(results: list[dict]) -> tuple[dict, list[str]]:
    """End-to-end metrics over the timed processes of one run, pooled."""
    latencies = [op["latency"] for r in results for op in r["ops"] if op["ok"]]
    tail, tail_name = tail_latency(latencies)
    msgs = [rate for r in results for rate in rates(r, "msgs")]
    setups = [r["setup_s"] for r in results]
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_msgs_per_s": statistics.median(msgs),
        "cells_per_s": statistics.median(
            [rate for r in results for rate in rates(r, "cells")]),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    notes = [
        f"setup_s: median of {len(setups)} set-ups "
        + ", ".join(f"{s:.3f}" for s in setups),
        f"sim_msgs_per_s, cells_per_s: median of {len(msgs)} "
        + ("rounds" if results[0]["lanes"] == 1 else f"{WINDOW_S} s windows")
        + f" from {len(results)} processes",
        f"job_tail_s: {tail_name}; job_p50_s over {len(latencies)} jobs",
    ]
    return metrics, notes


def measure(args, rundir: Path) -> tuple[dict, dict, list[str], list[str]]:
    """Run the children; return ``(metrics, counts, notes, problems)``.

    ``--trace 0`` splits the timed loop over ``SETUPS`` fresh processes, so
    set-up is measured that many times and process-to-process variation
    (memory layout, thread placement) is pooled instead of decided by one
    process.
    """
    started = time.monotonic()
    if args.trace:
        plan = [("trace", args.seconds)]
    else:
        plan = [("run", args.seconds / SETUPS)] * SETUPS
    results = []
    for number, (mode, seconds) in enumerate(plan):
        left = RUN_BUDGET_S - (time.monotonic() - started)
        deadline = min(seconds + RUN_SLACK_S, left - 15)
        child = Child(rundir, number)
        got = child.run(args, mode, seconds, deadline) if deadline > 1 else None
        if got is None:
            _echo_log_tail(child.log)
            notes = [f"failed_frac: 1/1 = 1.0000 frac ({mode} process failed or hung)"]
            problems = [f"{mode} process failed or hung; see {child.log}"]
            return {}, {"attempted": 1, "failed": 1}, notes, problems
        results.append(got)
    ops = [op for r in results for op in r["ops"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    counts = {"attempted": max(1, attempted), "failed": failed}
    notes = [f"host: {json.dumps({**fingerprint(), **results[-1]['host']}, sort_keys=True)}"]
    stop_errors = sum(line.count("CancelledError")
                      for number in range(len(plan))
                      for line in (rundir / f"child-{number}.log").open())
    if stop_errors:
        notes.append(f"log: {stop_errors} CancelledError line(s) at server stop "
                     "(logged, not counted as failures)")
    if args.trace:
        metrics = results[0]["per_layer"]
    else:
        metrics, more = end_to_end(results)
        notes += more
    notes.append(f"failed_frac: {failed}/{attempted} = {failed / max(1, attempted):.4f} frac")
    return metrics, counts, notes, [p for r in results for p in r["problems"]]


def _echo_log_tail(log: Path, lines: int = 40) -> None:
    if log.exists():
        text = log.read_text(errors="replace").splitlines()[-lines:]
        print(f"--- last {len(text)} lines of {log} ---")
        for line in text:
            print(line)


def run_once(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    rundir = ROOT / ".perfbench" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    rundir.mkdir(parents=True, exist_ok=True)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} tiny={args.tiny} files={rundir}")
    metrics, counts, notes, problems = measure(args, rundir)
    for note in notes:
        print(note)
    out = {}
    for entry in wanted:
        if entry["name"] in metrics:
            out[entry["name"]] = {"value": metrics[entry["name"]], "unit": entry["unit"]}
            print(f"  {entry['name']:<28} {metrics[entry['name']]:>16.6g} {entry['unit']}")
    correct = not problems and counts["failed"] == 0 and len(out) == len(wanted)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"output checks: {'passed' if correct else 'FAILED'}")
    summary = {"correct": correct, "attempted": counts["attempted"],
               "failed": counts["failed"], "metrics": out}
    (rundir / "result.json").write_text(json.dumps({"summary": summary, "notes": notes}))
    print(json.dumps(summary))
    return 0 if correct else 1


def self_check(args) -> int:
    """Tiny run of every workload, gated or not, traced and not: every metric, right unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   workload, "--seed", str(args.seed), "--seconds", "2",
                   "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            try:
                summary = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                summary = {}
            metrics = summary.get("metrics", {})
            missing = [m["name"] for m in spec[key]
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            ok = proc.returncode == 0 and summary.get("correct") is True and not missing
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload:<18} trace={trace} "
                  f"exit={proc.returncode} missing={missing}")
            if not ok:
                print(proc.stdout[-3000:], proc.stderr[-3000:])
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every operation (self-check sizes)")
    parser.add_argument("--self-check", action="store_true",
                        help="tiny run of every workload and trace mode")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"{ROOT} holds no repro source tree (src/repro) to benchmark",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
