"""Spans around calls into wfregions' layers, recorded from outside the package.

Each traced function gets exactly one wrapper.  The wrapper replaces every
module attribute in the ``wfregions`` package that is bound to the original
function, because callers look functions up through their own module's
globals (``regions.change_sets`` calls ``wfregions.regions.gcs``, not
``wfregions.ctree.gcs``).  A call made while the same wrapper is already
active (recursion) runs unwrapped, so ``calls`` counts outermost calls and
the span covers the whole recursion.

Spans are kept in memory as ``(name, start, end, parent)`` tuples, where
``parent`` is the index of the enclosing span or -1.  Self time is a span's
duration minus the time its direct children cover.  Durations are scaled
by the speed factor of the operation that produced them (see ``run.py``).
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from collections.abc import Callable

from compose import place_count

#: (layer, module, function) for every traced public function.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("ecws", "ecws", "parse"),
    ("ecws", "ecws", "build_net"),
    ("ctree", "ctree", "build_ctree"),
    ("ctree", "ctree", "gcs"),
    ("ctree", "ctree", "mpe_exists"),
    ("ctree", "ctree", "is_breakoff"),
    ("ctree", "ctree", "delete_places"),
    ("ctree", "ctree", "places"),
    ("regions", "regions", "analyze"),
    ("regions", "regions", "change_sets"),
    ("regions", "regions", "pscr_exists"),
    ("regions", "regions", "decide_marking"),
    ("wfnet", "wfnet", "oracle_classify"),
    ("wfnet", "wfnet", "check_soundness"),
    ("wfnet", "wfnet", "reachability_graph"),
    ("sese", "sese", "sese_region"),
    ("sese", "sese", "static_region"),
    ("sese", "sese", "dynamic_region"),
    ("sese", "sese", "improved_region"),
)

CTREE_QUERIES = ("gcs", "mpe_exists", "is_breakoff", "delete_places", "places")

Span = tuple[str, float, float, int]


class Tracer:
    """Collects spans and result counters while installed."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.factors: list[float] = []
        self.counters: Counter[str] = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        active = False

        def wrapper(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            active = True
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                active = False
            if count is not None:
                count(self.counters, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever the package binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "wfregions" or n.startswith("wfregions.")]
        for layer, module, attr in TARGETS:
            original = getattr(sys.modules[f"wfregions.{module}"], attr)
            wrapper = self._wrap(f"{layer}.{attr}", original, _COUNTERS.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def settle(self, factor: float) -> None:
        """Give the spans recorded since the last call their speed factor."""
        self.factors.extend([factor] * (len(self.spans) - len(self.factors)))

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span measured by the caller; returns its index."""
        self.spans.append((name, start, end, parent))
        return len(self.spans) - 1

    def merge(self, spans: list[Span], counters: dict[str, float], parent: int) -> None:
        """Append spans recorded by another process (same monotonic clock)."""
        base = len(self.spans)
        for name, start, end, p in spans:
            self.spans.append((name, start, end, parent if p < 0 else base + p))
        self.counters.update(counters)


def _count_parse(counters: Counter, tree) -> None:
    counters["ecws.parse.places"] += place_count(tree)


def _count_analyze(counters: Counter, report) -> None:
    counters["regions.analyze.places"] += len(report.per_place)


def _count_mpe(counters: Counter, ok: bool) -> None:
    counters["ctree.mpe_exists.false"] += not ok


def _count_graph(counters: Counter, graph) -> None:
    counters["wfnet.states_explored"] += len(graph)


def _count_oracle(counters: Counter, report) -> None:
    counters["wfnet.distinct_states"] += len(report.reachable_old) + len(report.reachable_new)


_COUNTERS = {
    "parse": _count_parse,
    "analyze": _count_analyze,
    "mpe_exists": _count_mpe,
    "reachability_graph": _count_graph,
    "oracle_classify": _count_oracle,
}


def totals(spans: list[Span], factors: list[float]) -> tuple[Counter, Counter, Counter]:
    """Per span name: summed scaled duration, summed self time, and calls."""
    dur: Counter[str] = Counter()
    self_time: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    child_time = [0.0] * len(spans)
    for (name, start, end, parent), factor in zip(spans, factors):
        if parent >= 0:
            child_time[parent] += (end - start) * factor
    for i, ((name, start, end, parent), factor) in enumerate(zip(spans, factors)):
        dur[name] += (end - start) * factor
        self_time[name] += (end - start) * factor - child_time[i]
        calls[name] += 1
    return dur, self_time, calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass, named as in BENCHMARK.json."""
    dur, self_time, calls = totals(tracer.spans, tracer.factors)
    c = tracer.counters
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str, per_pass: bool = True) -> None:
        out[name] = (value / passes if per_pass else value, unit)

    put("ecws.parse.s", dur["ecws.parse"], "s")
    put("ecws.parse.us_per_place", 1e6 * _ratio(dur["ecws.parse"], c["ecws.parse.places"]), "us", False)
    put("ecws.build_net.s", dur["ecws.build_net"], "s")
    put("ctree.build_ctree.s", dur["ctree.build_ctree"], "s")
    for fn in CTREE_QUERIES:
        put(f"ctree.{fn}.calls", calls[f"ctree.{fn}"], "count")
        put(f"ctree.{fn}.s", dur[f"ctree.{fn}"], "s")
    put("ctree.mpe_exists.false_ratio", _ratio(c["ctree.mpe_exists.false"], calls["ctree.mpe_exists"]), "ratio", False)
    for fn in ("analyze", "change_sets", "pscr_exists"):
        put(f"regions.{fn}.s", dur[f"regions.{fn}"], "s")
    put("regions.change_sets.self_s", self_time["regions.change_sets"], "s")
    queries = sum(calls[f"ctree.{fn}"] for fn in CTREE_QUERIES)
    put("regions.ctree_calls_per_place", _ratio(queries, c["regions.analyze.places"]), "count", False)
    put("regions.decide_marking.calls", calls["regions.decide_marking"], "count")
    put("regions.decide_marking.s", dur["regions.decide_marking"], "s")
    for fn in ("oracle_classify", "check_soundness", "reachability_graph"):
        put(f"wfnet.{fn}.s", dur[f"wfnet.{fn}"], "s")
    put("wfnet.oracle_classify.self_s", self_time["wfnet.oracle_classify"], "s")
    put("wfnet.reachability_graph.calls", calls["wfnet.reachability_graph"], "count")
    put("wfnet.states_explored", c["wfnet.states_explored"], "count")
    put("wfnet.explored_per_distinct_state", _ratio(c["wfnet.states_explored"], c["wfnet.distinct_states"]), "ratio", False)
    put("wfnet.states_per_s", _ratio(c["wfnet.states_explored"], dur["wfnet.reachability_graph"]), "1/s", False)
    for fn in ("sese_region", "static_region", "dynamic_region", "improved_region"):
        put(f"sese.{fn}.s", dur[f"sese.{fn}"], "s")
    put("cli.import_s", _ratio(c["cli.import_s"], c["cli.children"]), "s", False)
    for cmd in ("analyze", "oracle", "compare", "export", "fuzz"):
        put(f"cli.{cmd}.s", dur[f"cli.{cmd}"], "s")
    return out
