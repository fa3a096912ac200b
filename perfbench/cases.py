"""The benchmark workloads, and why each one exists.

Every workload is a *closed loop*: each lane (one thread, or one of two
client threads in ``serve_repeat``) issues its next operation only after
the previous one returned.  Its inputs are a pure function of the seed, so
the same seed always yields the same operations; the timed loop decides
only how many of them run.  An operation returns how many measurement
cells it answered and how many demand messages it actually simulated
(cycles routed x network inputs).

``BENCHMARK.json`` gates the two workloads whose run-to-run spread stays
well inside its bounds on a shared 2-vCPU host; the two inline workloads
spread by up to 0.37 (quartile distance over median, ten runs) there and
are kept runnable, ungated, for local measurement.

``figure_sweep`` (gated)
    ``run_experiment`` of ``fig7_mc``, ``fig8_mc`` and ``workload_matrix``,
    then a buffered depth-2 grid (``edn:16,4,4,4`` and ``delta:1024,4`` at
    rates 0.3/0.6/0.9 plus one faulted cell) through ``ParallelSweep``,
    all with ``jobs=2``, a cycle budget and a ``rel_err`` target.  Many
    small unique cells: fork fan-out, shard supervision, per-worker plan
    and kernel compile and structured traffic dominate.  It is also the
    only workload running the EDN-only ``BatchedEDN`` (fig7/8_mc) beside
    the stage-graph/native path, so deleting either cannot regress
    silently, and the one that measures buffered ``step`` end to end.
``serve_repeat`` (gated)
    An in-process ``SimulationServer`` (two workers) serving two
    closed-loop ``ServiceClient`` threads whose jobs repeat earlier cells
    about half of the time.  Only here do queueing, encoding, coalescing
    and the result cache do the work; ``figure_sweep`` bypasses them.
``mc_large`` (ungated)
    Inline ``repro.api.measure`` (backend ``auto``), counts-only
    Monte-Carlo at full-load uniform traffic on the paper's EDN shapes
    (N = 4096 to 65536) plus a ``delta`` baseline.  Stage kernels and
    traffic generation do almost all the work and nothing forks, so this
    is where a kernel or generator change shows first.
``buffered_latency`` (ungated)
    ``measure_buffered`` inline on the same grid as ``figure_sweep``'s
    buffered cells: stateful ``step`` with per-cycle ``generate`` and
    ``LatencyStats``, without native code or forks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The buffered grid of both buffered workloads: depth-2 cells below, near
#: and above the knee on two graphs; the last cell runs with dead wires.
BUFFERED_GRID = (("edn:16,4,4,4", 0.3), ("edn:16,4,4,4", 0.6), ("edn:16,4,4,4", 0.9),
                 ("delta:1024,4", 0.3), ("delta:1024,4", 0.6), ("delta:1024,4", 0.9),
                 ("edn:16,4,4,4", 0.6))
BUFFER_DEPTH = 2
FAULT_RATE = 0.02


def grid_faults(graph, seed: int) -> tuple:
    """Dead wires of the faulted grid cell, drawn from ``seed``."""
    import numpy as np

    from repro.core.faults import random_graph_faults

    return tuple(random_graph_faults(graph, FAULT_RATE, np.random.default_rng(seed)))


@dataclass
class Op:
    """One closed-loop operation's outcome."""

    cells: int
    msgs: int


def _differences(label: str, want: dict, got: dict) -> list[str]:
    return [
        f"{label}: {name} {want[name]!r} != {got.get(name)!r}"
        for name in want
        if want[name] != got.get(name)
    ]


class Workload:
    """Base: a seeded, deterministic stream of operations per lane."""

    name = ""
    why = ""
    lanes = 1
    #: Operations per round; the timed loop stops only at round ends so
    #: every operation kind keeps its share of the latency samples.
    round_size = 1

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed % 2**31  # numpy seeds must be non-negative
        self.tiny = tiny
        #: ``(lane, index) -> outcome`` records the output checks compare.
        self.outcomes: dict = {}

    def setup(self) -> None:
        """Everything before the first timed operation (warm-up included)."""

    def run(self, lane: int, index: int) -> Op:
        raise NotImplementedError

    def restart(self) -> None:
        """Fresh per-phase state, so a replayed phase repeats the same work."""

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started."""

    def check(self, replayed: dict) -> list[str]:
        """Re-run a seeded sample on an independent engine; list mismatches.

        ``replayed`` holds outcomes of a second pass over the same
        operations (traced run); they must equal the first pass.
        """
        problems = []
        for key, outcome in replayed.items():
            first = self.outcomes.get(key)
            if first is not None and first != outcome:
                problems.append(f"{self.name} op {key}: replay differs from first run")
        return problems

    def deferred_msgs(self, index: int) -> int:
        """Messages of op ``index`` known only once :meth:`check` has run."""
        return 0

    def layer_counters(self) -> dict:
        """Per-layer counters the program itself reports (serve stats)."""
        return {}

    def sample(self, keys, k: int) -> list:
        keys = sorted(keys)
        return random.Random(self.seed).sample(keys, min(k, len(keys)))


def _acceptance_record(m) -> dict:
    return {
        "cycles": m.cycles,
        "offered": m.offered,
        "delivered": m.delivered,
        "blocked_by_stage": dict(m.blocked_by_stage),
        "point": m.point,
    }


class McLarge(Workload):
    name = "mc_large"
    why = ("inline counts-only Monte-Carlo on paper EDN shapes (N=4096..65536): "
           "kernels and traffic generation do the work, nothing forks")
    SHAPES = ("edn:16,4,4,5", "edn:16,4,4,6", "edn:64,16,4,3", "edn:16,4,4,7",
              "delta:16384,4")
    #: Simulated messages per cell (cycles = this / N, at least 16).
    MSGS_PER_CELL = 1 << 20

    def setup(self):
        from repro.api import NetworkSpec, RunConfig
        import repro.api.measure

        self.specs = [NetworkSpec.parse(text) for text in self.SHAPES]
        self.inputs = [spec.stage_graph().n_inputs for spec in self.specs]
        budget = self.MSGS_PER_CELL // (16 if self.tiny else 1)
        self.cycles = [max(16, budget // n) for n in self.inputs]
        for spec in self.specs:  # compile plans and native kernels
            repro.api.measure.measure(spec, RunConfig(cycles=16, seed=0))

    def _measure(self, index: int, slot: int, backend: str = "auto"):
        from repro.api import RunConfig
        import repro.api.measure

        config = RunConfig(cycles=self.cycles[slot],
                           seed=self.seed * 1_000_003 + index * len(self.SHAPES) + slot,
                           backend=backend)
        return repro.api.measure.measure(self.specs[slot], config)

    def run(self, lane, index):
        """One job: a measurement of every shape."""
        records = []
        msgs = 0
        for slot in range(len(self.SHAPES)):
            m = self._measure(index, slot)
            records.append(_acceptance_record(m))
            msgs += m.cycles * self.inputs[slot]
        self.outcomes[(lane, index)] = records
        return Op(cells=len(records), msgs=msgs)

    def check(self, replayed):
        problems = super().check(replayed)
        picks = [(key, slot) for key in self.outcomes for slot in range(len(self.SHAPES))]
        for (lane, index), slot in self.sample(picks, 2):
            m = self._measure(index, slot, backend="batched")
            problems += _differences(
                f"mc_large {self.SHAPES[slot]} job {index} batched vs auto",
                _acceptance_record(m), self.outcomes[(lane, index)][slot],
            )
        return problems


class FigureSweep(Workload):
    name = "figure_sweep"
    why = ("fig7_mc, fig8_mc, workload_matrix and a buffered grid with jobs=2 to a "
           "rel_err target: fork fan-out, supervision, per-worker compile dominate")
    EXPERIMENTS = ("fig7_mc", "fig8_mc", "workload_matrix")
    JOBS = 2
    REL_ERR = 0.05
    SHARD_TIMEOUT = 30.0

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.budget = 32 if tiny else 128
        self._matrix_msgs = 0

    def _config(self, seed):
        from repro.api import RunConfig

        return RunConfig(cycles=self.budget, seed=seed, rel_err=self.REL_ERR,
                         jobs=self.JOBS, shard_timeout=self.SHARD_TIMEOUT)

    def _buffered_cells(self, seed):
        import dataclasses

        from repro.api import NetworkSpec, RunConfig
        from repro.api.jobs import SweepCell

        cells = []
        for i, (shape, rate) in enumerate(BUFFERED_GRID):
            spec = NetworkSpec.parse(shape)
            if i == len(BUFFERED_GRID) - 1:
                spec = dataclasses.replace(
                    spec, faults=grid_faults(spec.stage_graph(), self.seed))
            cells.append(SweepCell(spec, RunConfig(
                cycles=self.budget // 2, seed=seed * 1_000_003 + i,
                traffic=f"uniform:{rate}", buffer_depth=BUFFER_DEPTH)))
        return cells

    def _sweep(self, seed) -> dict:
        """One job: every figure and the buffered grid, each swept with jobs=2."""
        from repro.api.jobs import measurement_to_payload
        from repro.experiments.parallel import ParallelSweep
        from repro.experiments.registry import run_experiment

        outcome = {}
        for experiment in self.EXPERIMENTS:
            result = run_experiment(experiment, config=self._config(seed))
            outcome[experiment] = {name: [list(row) for row in rows]
                                   for name, (_headers, rows) in result.tables.items()}
        sweep = ParallelSweep(self.JOBS, shard_timeout=self.SHARD_TIMEOUT)
        outcome["buffered"] = [measurement_to_payload(m)
                               for m in sweep.map_cells(self._buffered_cells(seed))]
        return outcome

    def setup(self):
        # Forks the pools once and compiles every plan's native kernel into
        # the on-disk cache; the parent itself never calls a kernel here.
        self._sweep(self.seed + 1)

    def run(self, lane, index):
        outcome = self._sweep(self.seed)
        self.outcomes[(lane, index)] = outcome
        mc_rows = outcome["fig7_mc"]["Eq.4 vs simulation"] + \
            outcome["fig8_mc"]["Eq.4 vs simulation"]
        matrix = outcome["workload_matrix"]["PA by traffic x topology"]
        buffered = outcome["buffered"]
        cells = len(mc_rows) + sum(len(row) - 1 for row in matrix) + len(buffered)
        # Cycles per workload_matrix cell are not in its table; the output
        # check re-measures every cell and :meth:`deferred_msgs` adds them.
        msgs = sum(row[1] * row[5] for row in mc_rows) + sum(
            (b["warmup"] + b["cycles"]) * b["n_inputs"]
            for b in (m["buffered"] for m in buffered))
        return Op(cells=cells, msgs=msgs)

    def deferred_msgs(self, index):
        return self._matrix_msgs

    def check(self, replayed):
        problems = super().check(replayed)
        first = next(iter(self.outcomes.values()), None)
        for (lane, index), outcome in self.outcomes.items():
            if outcome != first:
                problems.append(f"figure_sweep job {index}: results not deterministic")
        if first is not None:
            problems += self._check_mc_rows(first)
            problems += self._check_matrix(first)
            problems += self._check_buffered(first)
        return problems

    def _check_mc_rows(self, outcome) -> list[str]:
        """fig7/8_mc rows ran on ``BatchedEDN``; re-run a sample on native."""
        import re

        from repro.api import NetworkSpec, build_router
        from repro.sim.montecarlo import measure_acceptance
        from repro.sim.rng import spawn_keys
        from repro.workloads import UniformTraffic

        problems = []
        for experiment in ("fig7_mc", "fig8_mc"):
            rows = outcome[experiment]["Eq.4 vs simulation"]
            keys = spawn_keys(self.seed, len(rows))
            for i in self.sample(range(len(rows)), 3):
                a, b, c, l = map(int, re.findall(r"\d+", rows[i][0]))
                n = rows[i][1]
                m = measure_acceptance(
                    build_router(NetworkSpec.edn(a, b, c, l), "native"),
                    UniformTraffic(n, n, 1.0),
                    cycles=self.budget, seed=keys[i], rel_err=self.REL_ERR,
                )
                problems += _differences(
                    f"figure_sweep {experiment} {rows[i][0]} native vs BatchedEDN",
                    {"point": rows[i][3], "cycles": rows[i][5]},
                    {"point": m.point, "cycles": m.cycles},
                )
        return problems

    def _check_matrix(self, outcome) -> list[str]:
        """Re-measure every workload_matrix cell inline on ``batched``."""
        from repro.api import NetworkSpec, RunConfig, build_router
        from repro.experiments import workload_matrix
        from repro.sim.montecarlo import measure_acceptance
        from repro.sim.rng import spawn_keys
        from repro.workloads import parse_workload

        specs = [NetworkSpec.parse(text) for text in workload_matrix.TOPOLOGIES]
        loads = [parse_workload(text) for text in workload_matrix.TRAFFIC]
        pairs = [(spec, load) for load in loads for spec in specs]
        keys = spawn_keys(self.seed, len(pairs))
        table = outcome["workload_matrix"]["PA by traffic x topology"]
        problems = []
        self._matrix_msgs = 0
        for i, ((spec, load), key) in enumerate(zip(pairs, keys)):
            config = RunConfig(cycles=self.budget, seed=key, backend="batched",
                               rel_err=self.REL_ERR, traffic=load.label)
            router = build_router(spec, "batched")
            m = measure_acceptance(router, config=config)
            self._matrix_msgs += m.cycles * router.n_inputs
            swept = table[i // len(specs)][1 + i % len(specs)]
            if round(m.point, 6) != swept:
                problems.append(
                    f"figure_sweep workload_matrix {spec.label} x {load.label}: "
                    f"batched {round(m.point, 6)} != swept {swept}"
                )
        return problems

    def _check_buffered(self, outcome) -> list[str]:
        """Buffered cells against ``BufferedStageReference``, and conservation."""
        import dataclasses

        from repro.api.jobs import SweepCell, measure_cell, measurement_to_payload
        from repro.sim.buffered import measure_buffered

        cells = self._buffered_cells(self.seed)
        picks = {self.sample(range(len(cells) - 1), 1)[0], len(cells) - 1}
        problems = []
        for i in sorted(picks):
            cell = cells[i]
            reference = SweepCell(cell.spec, dataclasses.replace(cell.config,
                                                                 backend="reference"))
            if measurement_to_payload(measure_cell(reference)) != outcome["buffered"][i]:
                problems.append(f"figure_sweep buffered cell {i}: reference engine differs")
            # Conservation holds over a whole run, so measure from cycle 0.
            m = measure_buffered(cell.spec.stage_graph(), traffic=cell.config.traffic,
                                 depth=BUFFER_DEPTH, cycles=cell.config.cycles, warmup=0,
                                 seed=cell.config.seed, faults=cell.spec.faults)
            if m.injected != m.delivered + m.in_flight + m.dropped:
                problems.append(
                    f"figure_sweep buffered cell {i}: injected {m.injected} != delivered "
                    f"{m.delivered} + in_flight {m.in_flight} + dropped {m.dropped}")
        return problems


class ServeRepeat(Workload):
    name = "serve_repeat"
    why = ("2 closed-loop clients on an in-process 2-worker server, about half of "
           "the cells repeated: queueing, coalescing and the result cache work")
    lanes = 2
    WORKERS = 2
    CELLS_PER_JOB = 4
    REPEAT_SHARE = 0.5
    SHAPES = ("edn:16,4,4,3", "delta:4,4,4", "omega:256")
    TRAFFIC = ("uniform", "hotspot:0.1", "bitrev")
    SHARD_TIMEOUT = 30.0
    #: Warm-up cells are numbered from here; a run never draws this many.
    WARM_NUMBERS = 900_000

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.cycles = 32 if tiny else 128
        self.handle = None
        self.clients = []
        self.computed_keys: list[set] = [set(), set()]
        self.served: dict = {}
        self._jobs = [[] for _ in range(self.lanes)]
        self._history = [[] for _ in range(self.lanes)]
        self._fresh = [0] * self.lanes
        self._draw = [random.Random(f"{seed}:{lane}") for lane in range(self.lanes)]

    def _cell(self, number: int):
        from repro.api import NetworkSpec, RunConfig
        from repro.api.jobs import SweepCell

        shape = self.SHAPES[number % len(self.SHAPES)]
        traffic = self.TRAFFIC[(number // len(self.SHAPES)) % len(self.TRAFFIC)]
        return SweepCell(NetworkSpec.parse(shape),
                         RunConfig(cycles=self.cycles, seed=self.seed * 1_000_003 + number,
                                   traffic=traffic))

    def job(self, lane: int, index: int) -> list[int]:
        """Cell numbers of a lane's ``index``-th job (drawn once, in order)."""
        jobs = self._jobs[lane]
        while len(jobs) <= index:
            history = self._history[lane]
            numbers = []
            for _ in range(self.CELLS_PER_JOB):
                if history and self._draw[lane].random() < self.REPEAT_SHARE:
                    numbers.append(self._draw[lane].choice(history))
                else:
                    number = 2 * self._fresh[lane] + lane  # lanes never share
                    self._fresh[lane] += 1
                    history.append(number)
                    numbers.append(number)
            jobs.append(numbers)
        return jobs[index]

    def _start(self):
        from repro.serve import ServiceClient, start_server_thread

        self.handle = start_server_thread(workers=self.WORKERS,
                                          shard_timeout=self.SHARD_TIMEOUT)
        self.clients = [ServiceClient(self.handle.address, timeout=60.0)
                        for _ in range(self.lanes)]
        # Warm-up outside the cell pool: every shape's plan and kernel.
        warm = [self._cell(self.WARM_NUMBERS + i)
                for i in range(len(self.SHAPES) * self.WORKERS)]
        self.clients[0].submit(warm)

    def setup(self):
        self._start()

    def restart(self):
        self.teardown()
        self.computed_keys = [set(), set()]
        self._start()

    def teardown(self):
        self.stats = self.clients[0].status() if self.clients else {}
        for client in self.clients:
            client.close()
        self.clients = []
        if self.handle is not None:
            self.handle.stop()
            self.handle = None

    def run(self, lane, index):
        numbers = self.job(lane, index)
        cells = [self._cell(number) for number in numbers]
        results = self.clients[lane].submit(cells)
        msgs = 0
        seen = self.computed_keys[lane]
        for number, cell, result in zip(numbers, cells, results):
            self.served[number] = result.measurement
            if not result.cached and result.key not in seen:
                seen.add(result.key)
                msgs += result.measurement.cycles * cell.spec.stage_graph().n_inputs
        self.outcomes[(lane, index)] = [r.key for r in results]
        return Op(cells=len(cells), msgs=msgs)

    def check(self, replayed):
        from repro.api.jobs import measure_cell, measurement_to_payload

        problems = super().check(replayed)
        for number in self.sample(self.served, 3):
            inline = measurement_to_payload(measure_cell(self._cell(number)))
            served = measurement_to_payload(self.served[number])
            if inline != served:
                problems.append(f"serve_repeat cell {number}: served bytes differ from inline")
        return problems

    def layer_counters(self):
        stats = getattr(self, "stats", {})
        if not stats:
            return {}
        cells = stats["cells"]
        cache = stats["result_cache"]
        lookups = cache["hits"] + cache["misses"]
        plan_hits = plan_lookups = 0
        for info in stats["plan_cache"]["per_worker"].values():
            plan_hits += info["hits"]
            plan_lookups += info["hits"] + info["misses"]
        return {
            "serve.dedupe_rate": stats["dedupe_rate"],
            "serve.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "serve.computed": cells["computed"],
            "serve.resubmitted": cells["resubmitted"],
            "serve.pool_rebuilds": stats["workers"]["pool_rebuilds"],
            "serve.worker_plan_hit_ratio": plan_hits / plan_lookups if plan_lookups else 0.0,
        }


class BufferedLatency(Workload):
    name = "buffered_latency"
    why = ("depth-2 buffered packet switching below/near/above the knee plus a "
           "faulted case: stateful step, per-cycle generate and LatencyStats")
    round_size = len(BUFFERED_GRID)

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.cycles = 16 if tiny else 64

    def setup(self):
        from repro.api import NetworkSpec

        self.graphs = {shape: NetworkSpec.parse(shape).stage_graph()
                       for shape, _rate in BUFFERED_GRID}
        self.faults = grid_faults(self.graphs[BUFFERED_GRID[-1][0]], self.seed)
        for i in range(self.round_size):  # compile buffered plans
            self._measure(i, seed=0, cycles=4)

    def _measure(self, index, *, seed=None, cycles=None, warmup=None, engine="compiled"):
        import repro.sim.buffered

        slot = index % self.round_size
        shape, rate = BUFFERED_GRID[slot]
        cycles = self.cycles if cycles is None else cycles
        return repro.sim.buffered.measure_buffered(
            self.graphs[shape],
            traffic=f"uniform:{rate}",
            depth=BUFFER_DEPTH,
            cycles=cycles,
            warmup=cycles // 4 if warmup is None else warmup,
            seed=self.seed * 1_000_003 + index if seed is None else seed,
            engine=engine,
            faults=self.faults if slot == self.round_size - 1 else (),
        )

    @staticmethod
    def _record(m) -> dict:
        return {
            "offered": m.offered, "injected": m.injected, "delivered": m.delivered,
            "in_flight": m.in_flight, "dropped": m.dropped,
            "latency": m.latency.to_payload(), "total_occupancy": m.total_occupancy,
        }

    def run(self, lane, index):
        m = self._measure(index)
        self.outcomes[(lane, index)] = self._record(m)
        return Op(cells=1, msgs=(m.warmup + m.cycles) * m.n_inputs)

    def check(self, replayed):
        problems = super().check(replayed)
        picks = self.sample(self.outcomes, 1)
        faulted = [key for key in self.outcomes
                   if key[1] % self.round_size == self.round_size - 1]
        picks += [key for key in self.sample(faulted, 1) if key not in picks]
        for lane, index in picks:
            label = f"buffered_latency op {index} {BUFFERED_GRID[index % self.round_size]}"
            reference = self._measure(index, engine="reference")
            problems += _differences(f"{label} reference vs compiled",
                                     self._record(reference), self.outcomes[(lane, index)])
            # Conservation holds over a whole run, so measure from cycle 0.
            m = self._measure(index, warmup=0)
            if m.injected != m.delivered + m.in_flight + m.dropped:
                problems.append(
                    f"{label}: injected {m.injected} != delivered {m.delivered} "
                    f"+ in_flight {m.in_flight} + dropped {m.dropped}"
                )
        return problems


WORKLOADS = {cls.name: cls for cls in (McLarge, FigureSweep, ServeRepeat, BufferedLatency)}
