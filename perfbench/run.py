"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``README.md``).  The last line of standard output is always
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it record the environment and the per-kind latencies.
The program is imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
PERCENTILES = (50, 75, 80, 90, 95, 99)


def tail_percentile(n: int, highest: int) -> int:
    """Highest percentile up to ``highest`` with at least 10 samples beyond it."""
    return max((p for p in PERCENTILES if p <= highest and n * (100 - p) >= 1000), default=50)


def percentile_ms(seconds: list[float], p: int) -> float:
    return 1000.0 * statistics.quantiles(seconds, n=100, method="inclusive")[p - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to_one_cpu() -> list[int]:
    """Run the whole benchmark process on one CPU; returns the CPUs it had.

    service-mix's client and daemon are threads of this process that hand
    every request back and forth.  Across two vCPUs each hand-off wakes the
    other vCPU, and on a shared host that wake-up took 1.1-1.8 ms per hit
    depending on what else the host ran, which moved service-mix's timings
    by up to 1.8x between runs of the same code while its compute-bound
    set-up stayed within 10%.  On one CPU the hand-off stays local.  The
    workloads are single-threaded otherwise (the jobs>1 pool is out of scope),
    so the sweeps lose nothing by it.
    """
    if not hasattr(os, "sched_setaffinity"):
        return []
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    return allowed


def environment(loadavg, cpus) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": cpus,
        "loadavg": list(loadavg),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def golden_check(wl, seed: int, log) -> tuple[int, list[str]]:
    """Compare the run's digest with the committed one (1 check, or none).

    The digest is printed on every run, so a deliberate change of results
    is recorded by pasting it into ``golden.json``.
    """
    from workloads import digest

    value = digest(log.golden_rows)
    golden = json.loads(GOLDEN.read_text())
    if seed != golden["seed"] and not wl.golden_any_seed:
        print(f"golden {wl.name}: not checked for seed {seed} (digest {value})")
        return 0, []
    expected = golden.get(wl.name)
    if expected is None:
        print(f"golden {wl.name}: no committed digest (digest {value})")
        return 0, []
    print(f"golden {wl.name}: {'ok' if value == expected else 'MISMATCH'} {value}")
    return 1, ([] if value == expected else [f"golden digest {value} != {expected}"])


def kind_percentiles_ms(wl, log) -> dict[str, tuple[int, float, int, float]]:
    """kind -> (n, p50 in ms, tail percentile, tail in ms)."""
    out = {}
    for kind, seconds in sorted(log.latencies.items()):
        p = tail_percentile(len(seconds), wl.TAIL)
        out[kind] = (len(seconds), percentile_ms(seconds, 50), p, percentile_ms(seconds, p))
    return out


def latency_lines(wl, log) -> list[str]:
    return [
        f"latency kind={kind} n={n} p50_ms={p50:.3f}" + (f" p{p}_ms={tail:.3f}" if p > 50 else "")
        for kind, (n, p50, p, tail) in kind_percentiles_ms(wl, log).items()
    ]


def kind_metrics(log) -> dict[str, float]:
    """service.{hit,miss,list}_{n,p50_ms,p95_ms} (zero where a kind is absent)."""
    out: dict[str, float] = {}
    for kind in ("hit", "miss", "list"):
        seconds = log.latencies.get(kind, [])
        out[f"service.{kind}_n"] = len(seconds)
        for p in (50, 95):
            out[f"service.{kind}_p{p}_ms"] = percentile_ms(seconds, p) if seconds else 0.0
    return out


def run_checked(wl, state, seed: int, tracer=None):
    """One timed leg plus its checks; returns (log, attempted, failures)."""
    if tracer is None:
        log = wl.run(state)
    else:
        with tracer.installed(), tracer.root():
            log = wl.run(state)
    attempted, failures = wl.check(state, log)
    golden_attempted, golden_failures = golden_check(wl, seed, log)
    return (
        log,
        log.ops + attempted + golden_attempted,
        log.failures + failures + golden_failures,
    )


def end_to_end_metrics(workload_cls, args, import_s: float):
    """Set up SETUP_REPEATS times, then one untraced timed run."""
    wl = workload_cls(args.seed, args.seconds, OUT_DIR)
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            wl.teardown(state)
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append(time.perf_counter() - t0)
    rss_setup_mb = peak_rss_mb()
    try:
        log, attempted, failures = run_checked(wl, state, args.seed)
    finally:
        wl.teardown(state)
    # p50_ms weighs each kind of operation the same (the geometric mean of
    # the kinds' medians): a median over mixed kinds falls in the gap between
    # two of them and jumps, and one kind 2x slower out of n moves it by
    # 2^(1/n) - 1.  tail_ms is taken over all operations.
    kinds = kind_percentiles_ms(wl, log)
    all_ops = [s for seconds in log.latencies.values() for s in seconds]
    tail = tail_percentile(len(all_ops), wl.TAIL)
    for line in latency_lines(wl, log):
        print(line)
    print(
        f"summary workload={args.workload} seed={args.seed} work={log.work} "
        f"wall_s={log.wall_s:.3f} ops={len(all_ops)} tail=p{tail} "
        f"setups_s={[round(s, 4) for s in setups]} import_s={import_s:.4f} "
        f"rss_setup_mb={rss_setup_mb:.1f}"
    )
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "throughput_per_s": log.work / log.wall_s,
        "p50_ms": statistics.geometric_mean(k[1] for k in kinds.values()),
        "tail_ms": percentile_ms(all_ops, tail),
        "rss_peak_mb": peak_rss_mb(),
        "success_rate": 1.0 - len(failures) / attempted,
    }
    return metrics, attempted, failures


def per_layer_metrics(workload_cls, args, env: dict):
    """An untraced leg, then the same work traced on a fresh set-up."""
    from tracer import Tracer, layer_metrics

    wl = workload_cls(args.seed, args.seconds, OUT_DIR)
    state = wl.setup()
    try:
        plain, attempted, failures = run_checked(wl, state, args.seed)
    finally:
        wl.teardown(state)
    wl = workload_cls(args.seed, args.seconds, OUT_DIR)
    tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}")
    state = wl.setup()
    try:
        log, more_attempted, more_failures = run_checked(wl, state, args.seed, tracer)
    finally:
        wl.teardown(state)
    attempted += more_attempted
    failures += more_failures
    for line in latency_lines(wl, plain):
        print(line)
    print(
        f"summary workload={args.workload} seed={args.seed} untraced_wall_s={plain.wall_s:.3f} "
        f"traced_wall_s={log.wall_s:.3f} spans={len(tracer.spans)}"
    )

    metrics = layer_metrics(tracer)
    metrics.update(kind_metrics(plain))
    for name in ("pattern", "ordering", "tree", "split", "mapping", "simulate"):
        metrics[f"pipeline.computes.{name}"] = log.stage_runs.get(name, 0)
    metrics["pipeline.recompute_ratio"] = log.orderings_computed / log.orderings_distinct
    metrics["trace.overhead_pct"] = 100.0 * (log.wall_s - plain.wall_s) / plain.wall_s
    metrics["error_rate"] = len(failures) / attempted
    tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", env)
    return metrics, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    loadavg_before = os.getloadavg()
    cpus = pin_to_one_cpu()
    t0 = time.perf_counter()
    import repro  # noqa: F401  (import time is part of set-up)

    import_s = time.perf_counter() - t0
    env = environment(loadavg_before, cpus)
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        metrics, attempted, failures = per_layer_metrics(WORKLOADS[args.workload], args, env)
    else:
        metrics, attempted, failures = end_to_end_metrics(
            WORKLOADS[args.workload], args, import_s
        )

    # BENCHMARK.json is the one list of metric names and units
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
