"""The four workloads and the checks on their answers.

Every workload repeats its timed phases until they add up to the
requested seconds.  A sweep round starts from the same state: the
structural cache is cleared (which drops the libraries, their leakage
kernels and the schemes with their analysis memos), and the fleet is a
fresh pair of processes.  Set-up is timed on fresh processes: the serial
sweeps time cold starts of the engine, the fleet its spawn in every round,
and the service five server starts before it measures the last server in
cycles.  Samples (set-ups, chunk and window
rates, latencies) are pooled over rounds and cycles.  Inputs come from
seeded ``random.Random`` generators named after the seed, the workload
and the round.

With tracing on, even rounds (cycles) run untraced and odd ones traced;
the per-layer metrics come from the traced ones and the tracing
overhead from comparing the two kinds.  Answers are checked outside the
timed phases against ``compare_schemes(config).as_records()`` (see
:class:`Answers`), with configs built by ``dataclasses.replace`` rather
than by the override path under test.
"""

from __future__ import annotations

import ast
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.comparison import compare_schemes
from repro.core.config import ExperimentConfig
from repro.core.scheme_evaluator import clear_structural_cache
from repro.crossbar.factory import available_schemes
from repro.engine import DesignSpace, Evaluator
from repro.engine.distributed import DistributedExecutor
from repro.engine.executor import SerialExecutor, WorkItem

import httpload
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"
#: The seed whose sweep answers ``reference.json`` keeps.
DEFAULT_SEED = 0
#: Relative tolerance of the repository's golden-parity tests.
RTOL = 1e-12
#: The answer check clears the structural cache this often (in points).
CHECK_CLEAR_EVERY = 16

#: Below ~0.004 DFC/SDFC raise PowerError, and one such point aborts a
#: whole ``Evaluator.evaluate`` call, so sweeps stay inside this range.
STATIC_PROBABILITY_RANGE = (0.05, 0.95)
NODES = ("90nm", "65nm", "45nm", "32nm")
PORT_COUNTS = (3, 4, 5, 6, 8)
FLIT_WIDTHS = (32, 64, 96, 128)

ACTIVITY_GRID = 40           # 40 x 40 = 1600 distinct pairs > the 256-entry memo
ACTIVITY_QUERIES = 300
STRUCTURE_TEMPERATURES = 2   # 4 nodes x 5 ports x 4 widths x 2 = 160 structures
#: The warm pass repeats the grid from the cache to about this many points.
WARM_POINTS = 1600
#: Throughputs are read at this share of their samples, slowest first
#: (sweep chunks, service answer windows); set-up is the median.  The host
#: has fast and slow phases lasting minutes; the median rate moved by a
#: third between them, the slow decile by a few percent.
SLOW_SHARE = 0.10
#: The serial sweeps time this many cold starts a run (see :func:`cold_starts`).
SWEEP_COLD_STARTS = 3
#: One cold start: a fresh interpreter imports the engine and evaluates the
#: paper's point, timing itself from before the import.
COLD_START = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = ["src"]
from repro.engine import DesignSpace, Evaluator
Evaluator(executor="serial").evaluate(DesignSpace.from_points([{"static_probability": 0.5}]))
print(time.perf_counter() - start)
"""
FLEET_GRID = 24              # 576 points through the fleet
FLEET_QUERIES = 300
FLEET_WORKERS = 2
FLEET_REGISTER_TIMEOUT_S = 60.0

SERVICE_WORKING_SET = 128
SERVICE_SETUPS = 5
SERVICE_RATE = 120.0         # nominal open-loop rate, under half of capacity
SERVICE_SEGMENT_SECONDS = 1.5
SERVICE_FRESH_SECONDS = 0.6
SERVICE_FRESH_WINDOW = 8    # answers per rate sample, about 100 ms
SERVICE_HIT_SECONDS = 1.0
#: Cached queries are pipelined this deep on each connection, so the
#: server never waits on the client: a cross-process wake-up per query
#: made the unpipelined rate swing by a third from second to second.
SERVICE_HIT_DEPTH = 16
SERVICE_HIT_WINDOW = 200   # answers per rate sample, about 50 ms
SERVICE_MIX = (("hit", 0.85), ("miss", 0.10), ("duplicate", 0.04))
#: Model-rejected points (``static_probability=0.0``) per open-loop query.
#: They are sent after each segment, one at a time while nothing else is in
#: flight: a rejected point today fails every valid miss in its batch, which
#: ``engine.service.poisoned_miss_share`` measures instead (see
#: :func:`_poison_probes`).
SERVICE_REJECTED_SHARE = 0.01
SERVICE_POISON_PROBES = 4
#: The ladder behind ``engine.service.max_qps``: offered rates, the p99
#: limit a rung must meet, and the least answers a rung collects.
LADDER_RATES = (150.0, 200.0, 250.0, 300.0, 400.0, 500.0)
LADDER_P99_LIMIT_MS = 50.0
LADDER_MIN_ANSWERS = 400


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def key_of(overrides: dict) -> str:
    return json.dumps(overrides, sort_keys=True)


def config_of(overrides: dict) -> ExperimentConfig:
    """The config a query names, built without ``with_overrides``."""
    flat = {name: value for name, value in overrides.items() if "." not in name}
    crossbar = {name.split(".", 1)[1]: value for name, value in overrides.items()
                if name.startswith("crossbar.")}
    config = replace(ExperimentConfig(), **flat)
    return replace(config, crossbar=replace(config.crossbar, **crossbar)) if crossbar else config


def same_records(got, want) -> bool:
    """Records equal field by field, floats to :data:`RTOL`."""
    if not isinstance(got, (list, tuple)) or len(got) != len(want):
        return False
    for mine, theirs in zip(got, want):
        if not isinstance(mine, dict) or mine.keys() != theirs.keys():
            return False
        for name, value in theirs.items():
            other = mine[name]
            if isinstance(value, float):
                if (not isinstance(other, (int, float))
                        or not math.isclose(other, value, rel_tol=RTOL, abs_tol=0.0)):
                    return False
            elif other != value or type(other) is not type(value):
                return False
    return True


class Answers:
    """Checks answers against ``compare_schemes(config).as_records()``,
    plus the stored reference where the query is one of its points.

    The expected records are computed after the timed phases, in a seeded
    shuffled order, with the structural cache cleared every
    :data:`CHECK_CLEAR_EVERY` points.  So they share no memo history with
    the timed pass: a memo that returned stale records during the pass
    would not return the same stale records here.  Each expected answer is
    dropped once compared, so the check holds one point's records at a time.
    """

    def __init__(self, reference: dict[str, list], order: str) -> None:
        self.reference = reference
        self.rng = random.Random(order)
        self.pending: dict[str, list[tuple[object, bool]]] = {}

    def add(self, overrides: dict, records, ok: bool = True) -> None:
        """Queue ``records`` as the answer to ``overrides``; ``ok`` is
        false when the answer is already known to be wrong."""
        self.pending.setdefault(key_of(overrides), []).append((records, ok))

    def score(self, tally: Tally) -> None:
        """Score every queued answer into ``tally``."""
        keys = list(self.pending)
        self.rng.shuffle(keys)
        for index, key in enumerate(keys):
            if index % CHECK_CLEAR_EVERY == 0:
                clear_structural_cache()
            want = compare_schemes(config_of(json.loads(key))).as_records()
            stored = self.reference.get(key)
            for records, ok in self.pending.pop(key):
                tally.score(ok and same_records(records, want)
                            and (stored is None or same_records(records, stored)))
        clear_structural_cache()


@dataclass
class Tally:
    """What one run measured, before it is reduced to metrics."""

    attempted: int = 0
    failed: int = 0
    setups: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)        # fresh points/s samples
    warm_rates: list[float] = field(default_factory=list)   # cached points/s samples
    latencies: list[float] = field(default_factory=list)    # seconds, pooled
    traced_rates: list[float] = field(default_factory=list)
    traced_latencies: list[float] = field(default_factory=list)
    snapshots: list[dict] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)   # workload-specific
    rss_mb: float | None = None   # peak RSS, when the workload picks the processes that count

    def score(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def activity_point(rng: random.Random) -> dict:
    return {"static_probability": rng.uniform(*STATIC_PROBABILITY_RANGE),
            "toggle_activity": rng.uniform(0.0, 1.0)}


def rejected_point(rng: random.Random) -> dict:
    """A point the model refuses: the service must answer 400 ``evaluation-failed``."""
    return {"static_probability": 0.0, "toggle_activity": rng.uniform(0.0, 1.0)}


def activity_axes(rng: random.Random, size: int) -> dict:
    return {"static_probability": [rng.uniform(*STATIC_PROBABILITY_RANGE) for _ in range(size)],
            "toggle_activity": [rng.uniform(0.0, 1.0) for _ in range(size)]}


def structure_axes(rng: random.Random) -> dict:
    return {"technology_node": list(NODES),
            "crossbar.port_count": list(PORT_COUNTS),
            "crossbar.flit_width": list(FLIT_WIDTHS),
            "temperature_celsius": [rng.uniform(25.0, 110.0)
                                    for _ in range(STRUCTURE_TEMPERATURES)]}


def structure_queries(rng: random.Random) -> list[dict]:
    """One query per node x ports x flit width, each at a seeded
    temperature.  The mix of structures is the same for every seed, so
    the latency percentiles do not depend on which structures it draws."""
    return [{"technology_node": node, "crossbar.port_count": ports,
             "crossbar.flit_width": width, "temperature_celsius": rng.uniform(25.0, 110.0)}
            for node in NODES for ports in PORT_COUNTS for width in FLIT_WIDTHS]


def load_reference() -> dict[str, list]:
    payload = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return {key_of(point["overrides"]): point["records"] for point in payload["points"]}


def paper_table1() -> dict:
    """``PAPER_TABLE1`` as written in ``benchmarks/conftest.py``, read
    without importing the test harness."""
    tree = ast.parse((ROOT / "benchmarks" / "conftest.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "PAPER_TABLE1"):
            return ast.literal_eval(node.value)
    raise LookupError("PAPER_TABLE1 not found in benchmarks/conftest.py")


#: Paper Table-1 column -> record field of ``SchemeComparison.as_records``.
TABLE1_FIELDS = {"hl_ps": "high_to_low_ps", "lh_ps": "low_to_high_ps",
                 "active_saving": "active_leakage_saving_percent",
                 "standby_saving": "standby_leakage_saving_percent",
                 "min_idle": "minimum_idle_cycles", "total_mw": "total_power_mw",
                 "penalty": "delay_penalty_percent"}


def table1_residuals() -> dict[str, float]:
    """|model - paper| / paper in percent, per nonzero Table-1 cell."""
    records = {record["scheme"]: record
               for record in compare_schemes(ExperimentConfig()).as_records()}
    residuals = {}
    for scheme, row in paper_table1().items():
        for column, paper in row.items():
            if paper:
                model = records[scheme][TABLE1_FIELDS[column]]
                residuals[f"{scheme}.{column}"] = 100.0 * abs(model - paper) / paper
    return residuals


def peak_rss_mb(own: bool = True, children: bool = True) -> float:
    """This process's peak resident set when ``own``, plus the peak of its
    largest reaped child process when ``children``."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if own else 0
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def cold_starts(tally: Tally) -> None:
    """Time :data:`SWEEP_COLD_STARTS` cold starts of the serial engine
    into ``tally.setups``.  In-process set-ups (clear, ``Evaluator()``, the
    paper's point) take a few milliseconds and fall in one of two modes
    about 40 % apart that stick to a process, so their median flipped
    between runs.  A cold start also counts work moved to import time."""
    for _ in range(SWEEP_COLD_STARTS):
        done = subprocess.run([sys.executable, "-c", COLD_START], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=120.0, check=True)
        tally.setups.append(float(done.stdout.split()[-1]))


def run_rounds(seconds: float, trace: bool, body) -> None:
    """Call ``body(index, traced)`` until its rounds have measured
    ``seconds`` (and, when tracing, at least one round of each kind).
    ``body`` returns the seconds it measured."""
    measured, index = 0.0, 0
    while measured < seconds or index < (2 if trace else 1):
        measured += body(index, trace and index % 2 == 1)
        index += 1


def traced_phase(traced: bool, tally: Tally, action):
    """Run ``action()``, wrapped in a tracer when ``traced``."""
    if not traced:
        return action()
    tracer = tracing.Tracer().install()
    try:
        return action()
    finally:
        tracer.remove()
        tally.snapshots.append(tracer.snapshot())


# ---------------------------------------------------------------------------
# sweeps: activity_sweep, structure_sweep, fleet_sweep
# ---------------------------------------------------------------------------

def grid_chunks(axes: dict, split: tuple[str, ...]) -> list[DesignSpace]:
    """The grid over ``axes`` as one sub-grid per combination of values of
    the ``split`` axes, so that every chunk holds the same mix of the rest."""
    return [DesignSpace.grid({name: [fixed[name]] if name in fixed else values
                              for name, values in axes.items()})
            for fixed in (dict(zip(split, values))
                          for values in itertools.product(*(axes[name] for name in split)))]


def _timed_chunks(evaluator: Evaluator, chunks: list[DesignSpace]):
    """Evaluate each chunk; returns the points, each chunk's points per
    second and the seconds taken."""
    points, rates, seconds = [], [], 0.0
    for chunk in chunks:
        start = time.perf_counter()
        got = evaluator.evaluate(chunk).points
        took = time.perf_counter() - start
        points.extend(got)
        rates.append(len(got) / took)
        seconds += took
    return points, rates, seconds


def _sweep_round(tally: Tally, answers: Answers, traced: bool, chunks: list[DesignSpace],
                 queries: list[dict], make_executor):
    """One sweep round: set-up, cold grid, warm grid (repeated to about
    :data:`WARM_POINTS` points), single-point queries.  The grids are
    evaluated one chunk per call.  Returns the measured seconds, the
    executor and the set-up's seconds."""
    start = time.perf_counter()
    clear_structural_cache()
    executor = make_executor()
    evaluator = Evaluator(executor=executor)
    evaluator.evaluate(DesignSpace.from_points([{"static_probability": 0.5}]))
    setup = time.perf_counter() - start

    def timed_phases():
        cold = _timed_chunks(evaluator, chunks)
        warm = _timed_chunks(evaluator, chunks * max(1, WARM_POINTS // len(cold[0])))
        single, latencies = [], []
        for query in queries:
            q0 = time.perf_counter()
            single.append(evaluator.evaluate(DesignSpace.from_points([query])).points[0])
            latencies.append(time.perf_counter() - q0)
        return cold, warm, single, latencies

    cold, warm, single, latencies = traced_phase(traced, tally, timed_phases)
    (tally.traced_rates if traced else tally.rates).extend(cold[1])
    if not traced:
        tally.warm_rates.extend(warm[1])
        tally.latencies.extend(latencies)

    for points, cached in ((cold[0], False), (warm[0], True), (single, False)):
        for point in points:
            answers.add(dict(point.items), list(point.records), point.from_cache == cached)
    answers.score(tally)
    return setup + cold[2] + warm[2] + sum(latencies), executor, setup


def activity_sweep(seed: int, seconds: float, trace: bool, reference: dict) -> Tally:
    """Serial evaluator over a static-probability x toggle-activity grid
    at the paper's structure: analysis and roll-up, no structure building."""
    tally = Tally()

    def round_(index: int, traced: bool) -> float:
        rng = random.Random(f"{seed}/activity_sweep/{index}")
        chunks = grid_chunks(activity_axes(rng, ACTIVITY_GRID), ("static_probability",))
        queries = [activity_point(rng) for _ in range(ACTIVITY_QUERIES)]
        answers = Answers(reference, f"{seed}/check/{index}")
        return _sweep_round(tally, answers, traced, chunks, queries, lambda: "serial")[0]

    cold_starts(tally)
    run_rounds(seconds, trace, round_)
    tally.rss_mb = peak_rss_mb(children=False)
    return tally


def structure_sweep(seed: int, seconds: float, trace: bool, reference: dict) -> Tally:
    """Serial evaluator over node x ports x flit width x temperature:
    every point is a structure the process has never built."""
    tally = Tally()

    def round_(index: int, traced: bool) -> float:
        rng = random.Random(f"{seed}/structure_sweep/{index}")
        chunks = grid_chunks(structure_axes(rng), ("technology_node", "temperature_celsius"))
        queries = structure_queries(rng)
        answers = Answers(reference, f"{seed}/check/{index}")
        return _sweep_round(tally, answers, traced, chunks, queries, lambda: "serial")[0]

    cold_starts(tally)
    run_rounds(seconds, trace, round_)
    tally.rss_mb = peak_rss_mb(children=False)
    return tally


def fleet_sweep(seed: int, seconds: float, trace: bool, reference: dict) -> Tally:
    """Activity grid through a fresh two-worker ``DistributedExecutor``
    per round; spawning and registration are set-up.

    The coordinator and both workers (which inherit its affinity) share one
    CPU.  Spread over two vCPUs, every item waited on a cross-CPU wake-up,
    and on a shared 2-vCPU virtual machine that wait doubled the fleet's
    time per item for minutes at a time while in-process figures held."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return _fleet_sweep(seed, seconds, trace, reference)
    finally:
        os.sched_setaffinity(0, cpus)


def _fleet_sweep(seed: int, seconds: float, trace: bool, reference: dict) -> Tally:
    tally = Tally()
    spawn: list[float] = []
    serial_per_item: list[float] = []
    redispatched = 0
    shares: list[float] = []

    def make_fleet(fleets: list[DistributedExecutor]) -> DistributedExecutor:
        start = time.perf_counter()
        fleet = DistributedExecutor(spawn_workers=FLEET_WORKERS)
        fleets.append(fleet)
        fleet.start()
        deadline = start + FLEET_REGISTER_TIMEOUT_S
        while fleet.stats.workers_registered < FLEET_WORKERS:
            if time.perf_counter() > deadline:
                raise RuntimeError("fleet workers did not register")
            time.sleep(0.002)
        spawn.append(time.perf_counter() - start)
        return fleet

    def round_(index: int, traced: bool) -> float:
        nonlocal redispatched
        rng = random.Random(f"{seed}/fleet_sweep/{index}")
        chunks = grid_chunks(activity_axes(rng, FLEET_GRID), ("static_probability",))
        queries = [activity_point(rng) for _ in range(FLEET_QUERIES)]
        fleets: list[DistributedExecutor] = []
        try:
            answers = Answers(reference, f"{seed}/check/{index}")
            measured, fleet, setup = _sweep_round(tally, answers, traced, chunks, queries,
                                                  lambda: make_fleet(fleets))
            tally.setups.append(setup)
            if traced:
                completed = [worker["completed"] for worker in fleet.workers_payload().values()]
                shares.append(min(completed) / sum(completed) if len(completed) == FLEET_WORKERS else 0.0)
                redispatched += fleet.stats.redispatched
        finally:
            for fleet in fleets:
                fleet.close()
        if traced:
            # The same grid in-process, from the same cleared state.
            items = [WorkItem(config=config_of(dict(point.items)),
                              scheme_names=tuple(available_schemes()),
                              baseline_name="SC")
                     for chunk in chunks for point in chunk.points()]
            clear_structural_cache()
            start = time.perf_counter()
            SerialExecutor().run(items)
            serial_per_item.append((time.perf_counter() - start) / len(items))
            clear_structural_cache()
        return measured

    run_rounds(seconds, trace, round_)
    tally.layer.update({
        "engine.distributed.spawn_register_s": statistics.median(spawn),
        "engine.distributed.serial_us_per_item":
            1e6 * statistics.median(serial_per_item) if serial_per_item else 0.0,
        "engine.distributed.redispatched": float(redispatched),
        "engine.distributed.worker_share_min": statistics.median(shares) if shares else 0.0,
    })
    return tally


# ---------------------------------------------------------------------------
# service_mixed
# ---------------------------------------------------------------------------

class Server:
    """The server child process (``server.py``) and two connections to it.

    With two or more CPUs the server is pinned to one and the load to
    another, so that the scheduler cannot put them on the same CPU in
    some runs and not in others.
    """

    def __init__(self, working: list[dict]) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "server.py")], cwd=str(ROOT),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.connections: list[httpload.Connection] = []
        self.cpus = os.sched_getaffinity(0)
        try:
            if len(self.cpus) >= 2:
                first, *_, last = sorted(self.cpus)
                os.sched_setaffinity(self.process.pid, {last})
                os.sched_setaffinity(0, {first})  # load threads inherit it
            ready = self.command(json.dumps({"warm": working})).split()
            if len(ready) != 2 or ready[0] != "READY":
                raise RuntimeError(f"server did not start: {ready!r}")
            for _ in range(httpload.CONNECTIONS):
                self.connections.append(httpload.Connection(int(ready[1])))
        except BaseException:
            self.close()
            raise

    def command(self, line: str) -> str:
        """Send one line to the server and return its one-line reply."""
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()
        return self.process.stdout.readline()

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        try:
            self.process.stdin.write("quit\n")
            self.process.stdin.flush()
            self.process.wait(timeout=30.0)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdin.close()
            self.process.stdout.close()
            os.sched_setaffinity(0, self.cpus)


def mixed_schedule(rng: random.Random, working: list[dict], rate: float,
                   seconds: float) -> list[tuple[float, str, dict]]:
    """Poisson arrivals at ``rate`` drawing kinds from :data:`SERVICE_MIX`.
    A duplicate repeats the latest fresh miss 1 ms after it was due, so it
    arrives while that miss waits in its batch, on the other connection."""
    schedule, clock, last_miss = [], 0.0, None
    kinds, weights = zip(*SERVICE_MIX)
    while True:
        clock += rng.expovariate(rate)
        if clock >= seconds:
            break
        kind = rng.choices(kinds, weights)[0]
        if kind == "duplicate" and last_miss is not None:
            schedule.append((last_miss[0] + 0.001, kind, last_miss[1]))
            continue
        if kind == "hit":
            overrides = rng.choice(working)
        else:
            kind, overrides = "miss", activity_point(rng)
            last_miss = (clock, overrides)
        schedule.append((clock, kind, overrides))
    schedule.sort(key=lambda entry: entry[0])
    return schedule


def _open_loop(server: Server, schedule, checks: list) -> list[httpload.Answer]:
    """Send ``schedule`` open-loop; its answers join ``checks``."""
    results = httpload.open_loop(
        server.connections,
        [(offset, httpload.body_of(overrides)) for offset, _, overrides in schedule])
    checks.extend((kind, overrides, result.status, result.body)
                  for (_, kind, overrides), result in zip(schedule, results))
    return results


def _rejected_alone(server: Server, rng: random.Random, count: int, checks: list) -> None:
    """Send ``count`` rejected points one at a time on one connection,
    while no other query is in flight, so none shares a batch."""
    for _ in range(count):
        overrides = rejected_point(rng)
        status, body = server.connections[0].request(httpload.body_of(overrides))
        checks.append(("rejected", overrides, status, body))


def _poison_probes(server: Server, rng: random.Random) -> float:
    """Share of valid fresh misses answered wrongly when a rejected point
    is sent 1 ms after them on the other connection, into the same batch.
    This is a known defect of the service (the whole batch gets the
    rejected point's 400); it is reported as a per-layer metric rather
    than scored, and reads 0 once the service isolates errors."""
    wrong = 0
    for _ in range(SERVICE_POISON_PROBES):
        miss = activity_point(rng)
        answer = httpload.open_loop(server.connections,
                                    [(0.0, httpload.body_of(miss)),
                                     (0.001, httpload.body_of(rejected_point(rng)))])[0]
        try:
            payload = json.loads(answer.body)
        except ValueError:
            payload = None
        records = payload.get("records") if isinstance(payload, dict) else None
        want = compare_schemes(config_of(miss)).as_records()
        wrong += not (answer.status == 200 and same_records(records, want))
    clear_structural_cache()
    return wrong / SERVICE_POISON_PROBES


def window_rates(arrived: list[float], size: int) -> list[float]:
    """Answers per second over each run of ``size`` consecutive answers."""
    ordered = sorted(arrived)
    return [size / (ordered[end] - ordered[end - size])
            for end in range(size, len(ordered), size)]


def _closed_loops(server: Server, rng: random.Random, working: list[dict],
                  tally: Tally, checks: list) -> float:
    """Fresh misses one at a time, then pipelined hits, on both
    connections; records their rates and returns the seconds taken."""
    connections = server.connections
    fresh = [[activity_point(rng) for _ in range(300)] for _ in connections]
    hits = [[rng.choice(working) for _ in range(5000)] for _ in connections]
    fresh_got, fresh_s, fresh_arrived = httpload.closed_loop(
        connections, [[httpload.body_of(o) for o in queries] for queries in fresh],
        SERVICE_FRESH_SECONDS)
    hit_got, hit_s, arrived = httpload.closed_loop(
        connections, [[httpload.body_of(o) for o in queries] for queries in hits],
        SERVICE_HIT_SECONDS, SERVICE_HIT_DEPTH)
    tally.rates.extend(window_rates(fresh_arrived, SERVICE_FRESH_WINDOW))
    tally.warm_rates.extend(window_rates(arrived, SERVICE_HIT_WINDOW))
    for queries, got in zip((*fresh, *hits), (*fresh_got, *hit_got)):
        checks.extend(("query", overrides, status, body)
                      for overrides, (status, body) in zip(queries, got))
    return fresh_s + hit_s


def _score_answers(tally: Tally, answers: Answers, checks: list) -> None:
    """A rejected point is right when refused with ``evaluation-failed``;
    any other query is right only when answered with the right records."""
    for kind, overrides, status, body in checks:
        try:
            payload = json.loads(body)
        except ValueError:
            payload = None
        if not isinstance(payload, dict):
            tally.score(False)
        elif kind == "rejected":
            tally.score(status == 400 and payload.get("error") == "evaluation-failed")
        else:
            answers.add(overrides, payload.get("records"), status == 200)
    checks.clear()
    answers.score(tally)


def service_mixed(seed: int, seconds: float, trace: bool, reference: dict) -> Tally:
    """The HTTP service on one long-lived server process, after timing
    :data:`SERVICE_SETUPS` server starts.  Each cycle is an open-loop
    mixed segment, closed-loop fresh misses and pipelined hits; cycles
    repeat until the run has measured ``seconds``."""
    tally = Tally()
    rng = random.Random(f"{seed}/service_mixed")
    working = [activity_point(rng) for _ in range(SERVICE_WORKING_SET)]
    checks: list = []
    lags: list[float] = []
    round_trips: list[float] = []
    snapshots: list[dict] = []
    server = None
    try:
        for _ in range(SERVICE_SETUPS):
            if server is not None:
                server.close()
            start = time.perf_counter()
            server = Server(working)
            tally.setups.append(time.perf_counter() - start)
        measured, cycle = 0.0, 0
        while measured < seconds or cycle < (2 if trace else 1):
            traced = trace and cycle % 2 == 1
            schedule = mixed_schedule(rng, working, SERVICE_RATE, SERVICE_SEGMENT_SECONDS)
            if traced:
                server.command("trace on")
            results = _open_loop(server, schedule, checks)
            if traced:
                snapshots.append(json.loads(server.command("snapshot")))
                server.command("trace off")
                round_trips.extend(result.round_trip for result in results)
            (tally.traced_latencies if traced else tally.latencies).extend(
                result.latency for result in results)
            lags.extend(result.lag for result in results)
            _rejected_alone(server, rng, max(1, round(SERVICE_REJECTED_SHARE * len(schedule))),
                            checks)
            measured += SERVICE_SEGMENT_SECONDS + _closed_loops(server, rng, working, tally, checks)
            cycle += 1
        if trace:
            tally.layer["engine.service.max_qps"] = _ladder(server, rng, working, checks)
            tally.layer["engine.service.poisoned_miss_share"] = _poison_probes(server, rng)
    finally:
        if server is not None:
            server.close()
    # The servers are reaped children: their peak alone, not the load's.
    tally.rss_mb = peak_rss_mb(own=False)
    _score_answers(tally, Answers(reference, f"{seed}/check"), checks)
    tally.layer["engine.service.generator_lag_ms"] = 1e3 * percentile(lags, 0.99)
    if trace:
        merged = tracing.merge(snapshots)
        tally.snapshots.append(merged)
        tally.layer.update(tracing.service_metrics(merged, statistics.fmean(round_trips)))
    return tally


def _ladder(server: Server, rng: random.Random, working: list[dict], checks: list) -> float:
    """Highest rung of :data:`LADDER_RATES` whose p99 latency meets
    :data:`LADDER_P99_LIMIT_MS` without a growing backlog (the last
    quarter's median latency at most a tenth of the limit above the
    first quarter's); 0 when no rung passes.  Rungs run in order on the
    untraced server and the first failure ends the ladder."""
    best = 0.0
    for rate in LADDER_RATES:
        schedule = mixed_schedule(rng, working, rate, max(1.0, LADDER_MIN_ANSWERS / rate))
        latencies = [result.latency for result in _open_loop(server, schedule, checks)]
        quarter = max(1, len(latencies) // 4)
        growing = (statistics.median(latencies[-quarter:])
                   > statistics.median(latencies[:quarter]) + LADDER_P99_LIMIT_MS / 1e3 / 10)
        if 1e3 * percentile(latencies, 0.99) > LADDER_P99_LIMIT_MS or growing:
            break
        best = rate
    return best


WORKLOADS = {
    "activity_sweep": activity_sweep,
    "structure_sweep": structure_sweep,
    "service_mixed": service_mixed,
    "fleet_sweep": fleet_sweep,
}


def reference_points() -> list[dict]:
    """The points ``reference.json`` keeps: the paper's point, the
    diagonal of the default seed's first activity grid and every third
    point of its first structure grid.  Each value of every axis appears."""
    activity = DesignSpace.grid(activity_axes(
        random.Random(f"{DEFAULT_SEED}/activity_sweep/0"), ACTIVITY_GRID)).points()
    structure = DesignSpace.grid(structure_axes(
        random.Random(f"{DEFAULT_SEED}/structure_sweep/0"))).points()
    # Strides coprime to the axis lengths (40 x 40; 4 x 5 x 4 x 2).
    chosen = activity[::ACTIVITY_GRID + 1] + structure[::3]
    return [{}] + [dict(point.items) for point in chosen]


def write_reference() -> None:
    """Store the answers to :func:`reference_points` in ``reference.json``,
    each computed from a freshly cleared structural cache."""
    points = []
    for overrides in reference_points():
        clear_structural_cache()
        points.append({"overrides": overrides,
                       "records": compare_schemes(config_of(overrides)).as_records()})
    clear_structural_cache()
    REFERENCE_PATH.write_text(json.dumps({"seed": DEFAULT_SEED, "rtol": RTOL, "points": points},
                                         sort_keys=True) + "\n", encoding="utf-8")
