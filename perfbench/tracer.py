"""In-memory span tracer that wraps the repro layers for one traced run.

The tracer never edits the program: :meth:`Tracer.installed` swaps each
public name the pipeline stages, the session and the service call for a
wrapper that records a span, and puts the originals back on exit.  Untraced
runs never enter it, so they execute the program unmodified.

A span is ``(id, name, start, end, parent, run_id, attrs)``.  The parent is
the innermost open span of the calling thread; a server thread with no open
span takes the client request in flight as its parent (the benchmark drives
the daemon from one client in a closed loop, so at most one request is in
flight), and anything else hangs off the root span of the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

#: span name -> per-layer self-time metric.  Every span the tracer records
#: maps to exactly one metric, so the metrics partition the run's wall time.
SELF_TIME_METRIC = {
    "run": "pipeline.self_s",
    "pipeline.sweep": "pipeline.self_s",
    "pipeline.case": "pipeline.self_s",
    "sparse.build": "sparse.build_s",
    "ordering.metis": "ordering.metis_s",
    "ordering.amd": "ordering.amd_s",
    "symbolic.tree": "symbolic.tree_s",
    "symbolic.split": "symbolic.split_s",
    "mapping": "mapping.busy_s",
    "runtime.batch": "runtime.batch_s",
    "runtime.sim": "runtime.sim_s",
    "results.table_build": "results.table_build_s",
    "results.append": "results.append_s",
    "results.list": "results.list_s",
    "service.query": "service.query_s",
    "service.list": "service.query_s",
    "service.http": "service.http_self_s",
}


def _ordering_span(args, kwargs) -> str:
    # OrderingStage calls compute_ordering(pattern, spec); specs may carry params
    return "ordering." + str(args[1]).split("(", 1)[0].strip().lower()


def _sim_attrs(args, kwargs, result) -> dict:
    sim = args[0]
    return {
        "messages": int(sum(result.message_counts.values())),
        "faulted": bool(sim.config.faults),
    }


def _query_attrs(args, kwargs, outcome) -> dict:
    return {"cached": bool(outcome.cached)}


def _targets():
    """(owner, attribute, span name, attrs hook, is a client request) to wrap."""
    from repro.experiments.problems import ProblemSpec
    from repro.pipeline import engine, stages
    from repro.results import ResultStore, ResultTable
    from repro.runtime import batch, simulator
    from repro.service.client import ServiceClient
    from repro.service.daemon import SweepService
    from repro.session import Session

    return [
        (Session, "sweep", "pipeline.sweep", None, False),
        (engine.AnalysisPipeline, "run_case", "pipeline.case", None, False),
        (ProblemSpec, "build", "sparse.build", None, False),
        (stages, "compute_ordering", _ordering_span, None, False),
        (stages, "build_assembly_tree", "symbolic.tree", None, False),
        (stages, "split_large_masters", "symbolic.split", None, False),
        (stages, "compute_mapping", "mapping", None, False),
        (batch, "run_batch", "runtime.batch", None, False),
        (simulator.FactorizationSimulator, "run", "runtime.sim", _sim_attrs, False),
        (ResultTable, "from_results", "results.table_build", None, False),
        (ResultStore, "append", "results.append", None, False),
        # the columnar reads behind one GET /results page
        (ResultStore, "flush", "results.list", None, False),
        (ResultStore, "refresh", "results.list", None, False),
        (ResultStore, "table", "results.list", None, False),
        (ResultTable, "filter", "results.list", None, False),
        (ResultTable, "sorted", "results.list", None, False),
        (ResultTable, "take", "results.list", None, False),
        (ResultTable, "to_dicts", "results.list", None, False),
        (SweepService, "query", "service.query", _query_attrs, False),
        (SweepService, "list_results", "service.list", None, False),
        (ServiceClient, "result", "service.http", None, True),
        (ServiceClient, "list_results", "service.http", None, True),
    ]


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them out at the end."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request = None
        self._root = None

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, attrs_hook, request: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._request if tracer._request is not None else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            if request:
                tracer._request = sid
            attrs = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if attrs_hook is not None:
                    attrs = attrs_hook(args, kwargs, out)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                if request:
                    tracer._request = None
                tracer.spans.append((sid, span_name, start, end, parent, tracer.run_id, attrs))

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, hook, request in _targets():
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, name, hook, request))
                else:
                    patched = self._wrap(raw, name, hook, request)
                saved.append((owner, attr, raw))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    @contextlib.contextmanager
    def root(self):
        """The root span of the run: every other span descends from it."""
        sid = next(self._ids)
        self._root = sid
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self.spans.append((sid, "run", start, time.perf_counter(), None, self.run_id, None))
            self._root = None

    # ------------------------------------------------------------------ #
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its children cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, _name, start, end, parent, _run, _attrs in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _name, start, end, _parent, _run, _attrs in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[sid] = (end - start) - covered
        return out

    def dump(self, path: Path, env: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "start", "end", "parent", "run_id", "attrs")
        payload = {"env": env, "spans": [dict(zip(fields, span)) for span in self.spans]}
        path.write_text(json.dumps(payload))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times of one traced run."""
    selfs = tracer.self_times()
    m: dict[str, float] = {name: 0.0 for name in set(SELF_TIME_METRIC.values())}
    counts: dict[str, int] = defaultdict(int)
    messages = faulted = hits = misses = 0
    wall = 0.0
    for sid, name, start, end, _parent, _run, attrs in tracer.spans:
        counts[name] += 1
        m[SELF_TIME_METRIC[name]] += selfs[sid]
        if name == "run":
            wall = end - start
        elif name == "runtime.sim":
            messages += attrs["messages"] if attrs else 0
            faulted += 1 if attrs and attrs["faulted"] else 0
        elif name == "service.query" and attrs:
            hits += attrs["cached"]
            misses += not attrs["cached"]
    sim_runs = counts["runtime.sim"]
    accounted = sum(m.values())
    m.update(
        {
            "ordering.calls": counts["ordering.metis"] + counts["ordering.amd"],
            "symbolic.tree_calls": counts["symbolic.tree"],
            "symbolic.split_calls": counts["symbolic.split"],
            "mapping.calls": counts["mapping"],
            "runtime.sim_runs": sim_runs,
            "runtime.sim_ms_per_run": 1000.0 * m["runtime.sim_s"] / sim_runs if sim_runs else 0.0,
            "runtime.batch_calls": counts["runtime.batch"],
            "runtime.faulted_runs": faulted,
            "runtime.messages": messages,
            "results.appends": counts["results.append"],
            "service.hits": hits,
            "service.misses": misses,
            "service.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "trace.wall_s": wall,
            "trace.accounted_ratio": accounted / wall,
        }
    )
    return m
