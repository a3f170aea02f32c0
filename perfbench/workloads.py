"""The benchmark workloads: cold-sweep, strategy-sweep and service-mix.

Each workload has a ``setup`` (not timed as part of the run, reported as
``setup_s``), a ``run`` (the timed closed loop, one client) and a ``check``
(correctness checks, run after the timed part).  The workload seed only
shapes the generated grid or request sequence; the problems keep the fixed
generator seeds that define the paper's analogues.

Why each workload exists, and which layer metric should move which
end-to-end metric, is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

SCALE = 0.6
NPROCS = 32
ALL_PROBLEMS = (
    "BMWCRA_1", "GUPTA3", "MSDOOR", "SHIP_003", "PRE2", "TWOTONE", "ULTRASOUND3", "XENON2",
)
#: the problems whose analyses strategy-sweep and service-mix reuse.  Both
#: set up three times per run, and a set-up is mostly these analyses, so the
#: list is kept short: GUPTA3 (2.6 s of analysis, as much as the three
#: others together) is left out so that all runs fit the benchmark's time.
WARM_PROBLEMS = ("XENON2", "PRE2", "BMWCRA_1")
ORDERINGS = ("metis", "amd")
PAPER_STRATEGIES = ("mumps-workload", "memory-full")
FAULTS = "stragglers(frac=0.1,slowdown=4.0)+msgloss(p=0.01)"


def digest(rows) -> str:
    """sha256 over (key, max_peak_stack, avg_peak_stack, total_time) rows."""
    h = hashlib.sha256()
    for key, max_peak, avg_peak, total_time in rows:
        h.update(f"{key} {max_peak!r} {avg_peak!r} {total_time!r}\n".encode())
    return h.hexdigest()


def digest_row(result: dict) -> tuple:
    """The digest row of one result rendered as JSON by the service."""
    return (result["key"], result["max_peak_stack"], result["avg_peak_stack"], result["total_time"])


def view_rows(view) -> list[tuple]:
    """Digest rows of a sweep result view, in its order."""
    keys = [str(k) for k in view.table.keys]
    return [
        (key, r.max_peak_stack, r.avg_peak_stack, r.total_time) for key, r in zip(keys, view)
    ]


@dataclass
class RunLog:
    """What one timed run did: per-operation latencies and what to check."""

    wall_s: float = 0.0
    work: int = 0  # cases (sweeps) or requests (service)
    latencies: dict[str, list[float]] = field(default_factory=dict)  # kind -> seconds
    failures: list[str] = field(default_factory=list)
    golden_rows: list[tuple] = field(default_factory=list)
    stage_runs: dict[str, int] = field(default_factory=dict)
    orderings_computed: int = 0
    orderings_distinct: int = 0

    def record(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds)

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.latencies.values())


def _stage_delta(after, before) -> dict[str, int]:
    return {name: int(after.get(name, 0)) - int(before.get(name, 0)) for name in after}


def _add(total: dict[str, int], more: dict[str, int]) -> None:
    for name, value in more.items():
        total[name] = total.get(name, 0) + value


# ---------------------------------------------------------------------- #
# cold-sweep
# ---------------------------------------------------------------------- #
class ColdSweep:
    """Fresh sessions sweep all 8 problems x {metis, amd} x 2 strategies x split.

    ``passes`` full 64-case grids, each on a new ``Session(cache_dir="")``
    so every pass pays the whole analysis.  The seed permutes the ordering
    axis, which sets the case order within each problem.  The problems keep
    registry order, so the peak memory of a pass (reached on the last
    problem, with every earlier artifact still cached) is comparable across
    seeds.  The strategies and the split axis keep a fixed order, because
    the first case of a (problem, ordering) builds what the later ones
    reuse: shuffling the strategies moved p50_ms by 12% between seeds, and
    shuffling split moved it by ~10% (split first, the builder also splits
    and the split=False cases only simulate).  The set of cases is the same
    for every seed, so the golden digest (sorted by key) holds for all
    seeds.
    """

    name = "cold-sweep"
    golden_any_seed = True
    #: percentile reported as tail_ms: 64 cases leave 12 beyond p80, which
    #: falls among the 16 cases that compute an ordering
    TAIL = 80

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.rng = random.Random(seed)
        # one 64-case pass takes 10-15 s on a 2-vCPU VM.  Two passes per run
        # spread no less over 10 seeds (the host's speed drifts over minutes
        # and took a set of longer runs through more of it), so --seconds 10
        # runs one
        self.passes = max(1, round(seconds / 15))

    def setup(self):
        from repro.session import Session

        # warm lazy imports and first-call paths on a tiny grid
        with Session(nprocs=NPROCS, scale=0.2, cache_dir="") as warm:
            warm.sweep(
                problems=["XENON2", "PRE2"],
                orderings=list(ORDERINGS),
                strategies=list(PAPER_STRATEGIES),
                split=[False, True],
            )
        return None

    def teardown(self, state) -> None:
        pass

    def _axes(self) -> dict:
        def shuffled(values):
            values = list(values)
            self.rng.shuffle(values)
            return values

        return {
            "problems": list(ALL_PROBLEMS),
            "orderings": shuffled(ORDERINGS),
            "strategies": list(PAPER_STRATEGIES),
            "split": [False, True],
        }

    def run(self, state) -> RunLog:
        from repro.session import Session

        log = RunLog()
        grids = [self._axes() for _ in range(self.passes)]
        stage_runs: dict[str, int] = {}
        start = time.perf_counter()
        views = []
        for axes in grids:
            session = Session(
                nprocs=NPROCS,
                scale=SCALE,
                cache_dir="",
                progress=lambda event: log.record("case", event.seconds),
            )
            with session:
                views.append(session.sweep(**axes))
            _add(stage_runs, dict(session.engine.stage_runs))
        log.wall_s = time.perf_counter() - start
        log.work = sum(len(v) for v in views)
        log.stage_runs = stage_runs
        log.orderings_computed = stage_runs.get("ordering", 0)
        log.orderings_distinct = len(ALL_PROBLEMS) * len(ORDERINGS) * self.passes
        expected = len(ALL_PROBLEMS) * len(ORDERINGS) * len(PAPER_STRATEGIES) * 2
        for i, view in enumerate(views):
            if len(view) != expected:
                log.failures.append(f"pass {i}: {len(view)} results, expected {expected}")
        log.golden_rows = sorted(view_rows(views[0]))
        return log

    def check(self, state, log: RunLog) -> tuple[int, list[str]]:
        return 0, []


# ---------------------------------------------------------------------- #
# strategy-sweep
# ---------------------------------------------------------------------- #
class StrategySweep:
    """Batched strategy x nprocs x faults sweeps over 6 ready analyses.

    Set-up builds the analyses of WARM_PROBLEMS x {metis, amd}; the timed
    part only schedules and simulates.  One operation is one
    ``sweep(batch=True)`` call over one (analysis, nprocs) pair: 4
    strategies x {clean, faulted} with 3 replications per faulted case.
    Every pass draws two fresh hybrid alphas and a fresh fault seed.  The
    calls are timed per nprocs value: every nprocs=128 call took longer than
    most nprocs=32 ones, so a median over both fell in the gap between them
    and moved by 0.28 of itself between runs.
    """

    name = "strategy-sweep"
    golden_any_seed = False
    #: 48 calls leave 12 beyond p75
    TAIL = 75
    NPROCS_AXIS = (32, 128)

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.rng = random.Random(seed)
        # a pass is 12 calls of ~0.3-0.5 s each on a 2-vCPU VM; 4 passes
        # (for --seconds 10) give 48 calls, so the p75 has >= 10 beyond it.
        # 6 passes spread no less over 10 seeds (see ColdSweep.__init__).
        self.passes = max(1, round(seconds * 0.4))

    def setup(self):
        from repro.session import Session

        session = Session(nprocs=NPROCS, scale=SCALE, cache_dir="")
        for problem in WARM_PROBLEMS:
            for ordering in ORDERINGS:
                session.analysis(problem, ordering)
        return session

    def teardown(self, session) -> None:
        session.close()

    def _pass_params(self) -> tuple[list[str], int]:
        a1, a2 = self.rng.sample(range(5, 96), 2)
        strategies = [*PAPER_STRATEGIES, f"hybrid(alpha={a1 / 100})", f"hybrid(alpha={a2 / 100})"]
        return strategies, self.rng.randrange(1 << 30)

    def run(self, session) -> RunLog:
        log = RunLog()
        plan = [self._pass_params() for _ in range(self.passes)]
        before = dict(session.engine.stage_runs)
        expected = 4 * 2  # strategies x faults
        start = time.perf_counter()
        for pass_index, (strategies, fault_seed) in enumerate(plan):
            for problem in WARM_PROBLEMS:
                for ordering in ORDERINGS:
                    for nprocs in self.NPROCS_AXIS:
                        t0 = time.perf_counter()
                        view = session.sweep(
                            problems=[problem],
                            orderings=[ordering],
                            strategies=strategies,
                            nprocs=[nprocs],
                            faults=[None, FAULTS],
                            replications=3,
                            fault_seed=fault_seed,
                            batch=True,
                        )
                        log.record(f"nprocs{nprocs}", time.perf_counter() - t0)
                        log.work += len(view)
                        if len(view) != expected:
                            log.failures.append(
                                f"{problem}/{ordering}/{nprocs}: {len(view)} results"
                            )
                        if pass_index == 0:
                            log.golden_rows.extend(view_rows(view))
        log.wall_s = time.perf_counter() - start
        log.stage_runs = _stage_delta(dict(session.engine.stage_runs), before)
        log.orderings_computed = int(session.engine.stage_runs["ordering"])
        log.orderings_distinct = len(WARM_PROBLEMS) * len(ORDERINGS)
        return log

    def check(self, session, log: RunLog) -> tuple[int, list[str]]:
        """One nprocs=1 run per analysis against the sequential stack peak."""
        from repro.analysis import sequential_stack_peak

        analyses = [(p, o) for p in WARM_PROBLEMS for o in ORDERINGS]
        failures = []
        for i, (problem, ordering) in enumerate(analyses):
            strategy = PAPER_STRATEGIES[i % 2]
            (result,) = session.sweep(
                problems=[problem], orderings=[ordering], strategies=[strategy], nprocs=[1]
            )
            oracle = sequential_stack_peak(session.analysis(problem, ordering).tree)
            if result.max_peak_stack != oracle:
                failures.append(
                    f"{problem}/{ordering}/{strategy} nprocs=1: peak "
                    f"{result.max_peak_stack!r} != sequential {oracle!r}"
                )
        return len(analyses), failures


# ---------------------------------------------------------------------- #
# service-mix
# ---------------------------------------------------------------------- #
@dataclass
class _Daemon:
    service: object
    server: object
    thread: object
    client: object
    data_dir: Path
    #: canonical key -> (query params, body of the miss that computed it)
    known: dict = field(default_factory=dict)
    keys: list = field(default_factory=list)
    #: problem -> digest rows of the results computed on it
    rows: dict = field(default_factory=dict)


class ServiceMix:
    """One client against an in-process daemon: hits, misses and listings.

    Set-up starts the daemon on loopback and computes the two paper
    strategies on WARM_PROBLEMS x {metis, amd} through ``GET /result``, which
    warms the 6 analyses and seeds the hit pool.  The timed part sends
    blocks of 20 requests, each block a seeded shuffle of 11 hits on known
    keys, 5 misses on fresh ``hybrid(alpha=...)`` keys and 4 listing pages
    filtered by problem.  The three kinds are timed apart.
    """

    name = "service-mix"
    #: the golden digest holds for the default seed only
    golden_any_seed = False
    #: 700 requests leave 35 beyond p95, which falls on a miss.  p99 of
    #: 1000 requests rested on the 10 slowest misses and swung by 40%.
    TAIL = 95
    BLOCK = ("hit",) * 11 + ("miss",) * 5 + ("list",) * 4
    GOLDEN_BLOCKS = 5
    PAGE = 50

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        # 700 requests (35 blocks, for --seconds 10) take ~7-12 s on a
        # 2-vCPU VM, depending on how fast its loopback HTTP path is
        self.blocks = max(self.GOLDEN_BLOCKS, round(seconds * 3.5))
        self._used_alphas: set[int] = set()

    def setup(self) -> _Daemon:
        from repro.service import ServiceClient, SweepService, make_server

        self.workdir.mkdir(parents=True, exist_ok=True)
        data_dir = Path(tempfile.mkdtemp(prefix="service-", dir=self.workdir))
        service = SweepService(
            data_dir=data_dir, nprocs=NPROCS, scale=SCALE, journal_fsync=False
        )
        server = make_server(service, quiet=True)
        thread = server.serve_background()
        daemon = _Daemon(
            service, server, thread, ServiceClient(f"http://127.0.0.1:{server.port}"), data_dir
        )
        for problem in WARM_PROBLEMS:
            for ordering in ORDERINGS:
                for strategy in PAPER_STRATEGIES:
                    params = {"problem": problem, "ordering": ordering, "strategy": strategy}
                    self._miss(daemon, params)
        return daemon

    def teardown(self, daemon: _Daemon) -> None:
        daemon.server.shutdown()
        daemon.server.server_close()
        daemon.thread.join()
        daemon.service.stop()
        shutil.rmtree(daemon.data_dir, ignore_errors=True)

    def _miss(self, daemon: _Daemon, params: dict) -> tuple:
        response = daemon.client.result(**params)
        key = response.payload["key"]
        if response.cache != "miss":
            raise AssertionError(f"{params}: expected a miss, X-Repro-Cache={response.cache!r}")
        if key in daemon.known:
            raise AssertionError(f"{params}: fresh query landed on known key {key}")
        daemon.known[key] = (params, response.body)
        daemon.keys.append(key)
        row = digest_row({"key": key, **response.payload["result"]})
        daemon.rows.setdefault(params["problem"], []).append(row)
        return row

    def _fresh_alpha(self) -> str:
        while True:
            alpha = self.rng.randrange(1, 10_000)
            if alpha not in self._used_alphas:
                self._used_alphas.add(alpha)
                return f"hybrid(alpha={alpha / 10_000})"

    def run(self, daemon: _Daemon) -> RunLog:
        log = RunLog()
        client = daemon.client
        rng = self.rng
        analyses = [(p, o) for p in WARM_PROBLEMS for o in ORDERINGS]
        before = dict(daemon.service.engine.stage_runs)
        start = time.perf_counter()
        for block in range(self.blocks):
            kinds = list(self.BLOCK)
            rng.shuffle(kinds)
            for kind in kinds:
                t0 = time.perf_counter()
                try:
                    if kind == "hit":
                        key = daemon.keys[rng.randrange(len(daemon.keys))]
                        params, body = daemon.known[key]
                        t0 = time.perf_counter()
                        response = client.result(**params)
                        seconds = time.perf_counter() - t0
                        if response.cache != "hit" or response.body != body:
                            log.failures.append(
                                f"hit {key}: cache={response.cache!r}, "
                                f"same body={response.body == body}"
                            )
                    elif kind == "miss":
                        problem, ordering = analyses[rng.randrange(len(analyses))]
                        strategy = self._fresh_alpha()
                        params = {"problem": problem, "ordering": ordering, "strategy": strategy}
                        t0 = time.perf_counter()
                        row = self._miss(daemon, params)
                        seconds = time.perf_counter() - t0
                        if block < self.GOLDEN_BLOCKS:
                            log.golden_rows.append(row)
                    else:
                        problem = WARM_PROBLEMS[rng.randrange(len(WARM_PROBLEMS))]
                        t0 = time.perf_counter()
                        response = client.list_results(problem=problem, limit=self.PAGE)
                        seconds = time.perf_counter() - t0
                        page = response.payload
                        expected = {row[0]: row for row in daemon.rows.get(problem, [])}
                        if (
                            page["total"] != len(expected)
                            or page["count"] != min(self.PAGE, len(expected))
                            or any(
                                row["problem"] != problem
                                or expected.get(row["key"]) != digest_row(row)
                                for row in page["results"]
                            )
                        ):
                            log.failures.append(
                                f"list {problem}: total={page['total']} count={page['count']}, "
                                f"expected total={len(expected)}"
                            )
                except Exception as exc:  # a failed request counts, the loop goes on
                    seconds = time.perf_counter() - t0
                    log.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
                log.record(kind, seconds)
                log.work += 1
        log.wall_s = time.perf_counter() - start
        engine = daemon.service.engine
        log.stage_runs = _stage_delta(dict(engine.stage_runs), before)
        log.orderings_computed = int(engine.stage_runs["ordering"])
        log.orderings_distinct = len(analyses)
        return log

    def check(self, daemon: _Daemon, log: RunLog) -> tuple[int, list[str]]:
        # hits, misses and pages are checked as they arrive, in run()
        return 0, []


WORKLOADS = {cls.name: cls for cls in (ColdSweep, StrategySweep, ServiceMix)}
