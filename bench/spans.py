"""Outside-in span recorder for the benchmark's traced runs.

lolrnet has no tracing of its own yet, so the benchmark measures each layer
from outside: while a ``Recorder`` is active, the public functions of each
layer are replaced by timing wrappers at the module attributes their callers
look them up by (``cli.network_decision``, ``control.default_boundary``, ...).
Leaving the ``with`` block restores every original, so untraced passes run
the program unmodified.

Spans are kept in memory.  Every wrapped function runs on the client thread
(``simulate`` threads only below ``simulate_network``), so one stack gives
each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

# (module, attribute its callers look up, layer span name)
TARGETS = (
    ("lolrnet.cli", "load_config", "config.load_config"),
    ("lolrnet.cli", "dumps_doc", "config.dumps_doc"),
    ("lolrnet.cli", "run_command", "cli.run_command"),
    ("lolrnet.cli", "rank_network", "ranking.rank_network"),
    ("lolrnet.ranking", "perron_rank", "ranking.perron_rank"),
    ("lolrnet.cli", "network_decision", "control.network_decision"),
    ("lolrnet.cli", "clearing_vector", "network.clearing_vector"),
    ("lolrnet.cli", "default_boundary", "network.default_boundary"),
    ("lolrnet.control", "default_boundary", "network.default_boundary"),
    ("lolrnet.simulate", "default_boundary", "network.default_boundary"),
    ("lolrnet.cli", "simulate_network", "simulate.simulate_network"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_load(counts, args, kwargs, result):
    counts["config.bytes_in"] += os.path.getsize(args[0])


def _count_dump(counts, args, kwargs, result):
    counts["config.bytes_out"] += len(result.encode("utf-8"))


def _count_boundary(counts, args, kwargs, result):
    counts["network.default_boundary_calls"] += 1


def _count_clearing(counts, args, kwargs, result):
    counts["network.clearing_iters"] += result.iterations


def simulate_plan(args, kwargs) -> list[tuple[int, int, int]]:
    """``(bank, paths, effective steps)`` of one ``simulate_network`` call.

    Mirrors the engine's documented grid rule: a bank runs the full grid when
    its lending rate is positive or trajectories are recorded, and one exact
    step otherwise.
    """
    _net, decisions, cfg = args[:3]
    record = kwargs.get("record_paths", 0)
    plan = []
    for bank, decision in enumerate(decisions):
        full = record > 0 or (decision.region.value == "action"
                              and decision.psi_star > 0)
        plan.append((bank, cfg.paths, cfg.steps if full else 1))
    return plan


def _count_simulate(counts, args, kwargs, result):
    counts["simulate.draws"] += sum(p * s for _, p, s in
                                    simulate_plan(args, kwargs))


_COUNTERS = {
    "config.load_config": _count_load,
    "config.dumps_doc": _count_dump,
    "network.default_boundary": _count_boundary,
    "network.clearing_vector": _count_clearing,
    "simulate.simulate_network": _count_simulate,
}


class Recorder:
    """Span and counter store; patches the layers while used as a context."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, defaultdict] = {}
        # arguments of each simulate_network call, for the draw floor
        self.simulate_calls: list[tuple[tuple, dict]] = []
        self.missing: list[str] = []
        self.request = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, parent, name, start, end, self.request)
        counter = _COUNTERS.get(name)
        if counter is not None:
            counts = self.counts.setdefault(self.request, defaultdict(int))
            counter(counts, args, kwargs, result)
        if name == "simulate.simulate_network":
            self.simulate_calls.append((args, kwargs))
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def __enter__(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Self time, total time and call count per span name.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap because all spans share one thread.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name,
                                  {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        entry["self_s"] += span.duration - child_time[span.id]
        entry["total_s"] += span.duration
        entry["calls"] += 1
    return totals
