"""The wfregions benchmark: three seeded, closed-loop workloads.

Run from the repository root::

    python3 perfbench/run.py --workload large_structural --seed 1 --seconds 30 --trace 0

One client and no threads: the next pair or CLI call starts only when the
previous one has returned.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics plus the tracing overhead.  Every verdict is checked
against a reference that does not come from the structural code.  The
human-readable report goes to stdout and its last line is one JSON object.
``perfbench/NOTES.md`` defines the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from compose import PERFECT, Composition, compose, marking_count, place_count, reference
from tracer import Tracer, layer_metrics

import wfregions as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
FIXTURES = ROOT / "tests" / "fixtures"
WORKLOADS = ("large_structural", "oracle_corpus", "cli_instances")
SETUP_RUNS = 5
SETUP_PROBES = 8  # on each side of a set-up process

LARGE_PAIRS = 60
LARGE_PLACES = (250, 2000)  # log-spaced place targets, one pair each
SAMPLES_PER_PAIR = 64
ORACLE_PAIRS = 60
ORACLE_PLACES = 70  # at least
ORACLE_STATES = (600, 3000)  # log-spaced reachable-marking targets, one pair each
FUZZ_COUNT = 50
FIXTURE_PAIRS = (
    ("parallel_old", "branchswap_new"),
    ("parallel_old", "removal_new"),
    ("parallel_old", "flatten_new"),
    ("claims_old", "claims_new"),
    ("relabel_old", "relabel_new"),
    ("training_old", "training_new"),
    ("xorloop_old", "xorloop_new"),
    ("nested", "restructured_new"),
    ("nested", "nested"),
)
#: Places the seed analysis reports as overestimation on a fixture pair where
#: the oracle finds them perfect members (pinned by the test suite's
#: ``test_restructured_pair_decisions_stay_exact``).  Exactly this report is
#: a known conservative verdict; any other difference is a wrong one.
KNOWN_OVERESTIMATION = {("nested", "restructured_new"): frozenset({"p5", "p7"})}

#: Time of :func:`_probe_kernel` on an idle core of the 2.1 GHz VM the
#: benchmark was tuned on.  Reported times are scaled to that speed.
PROBE_REFERENCE_S = 0.003

clock = time.perf_counter


# ── speed probe ─────────────────────────────────────────────────────────────
#
# The benchmark shares its host with other machines, and the speed of plain
# Python code on it drifts by up to 2x for tens of seconds at a time; CPU
# time drifts with wall time, so neither can be trusted alone.  Each
# operation is therefore bracketed by a fixed pure-Python probe, and its
# times are multiplied by PROBE_REFERENCE_S / (mean probe time).  The probe
# does not touch wfregions, so no change to the package can move it.


def _probe_kernel() -> int:
    table: dict[tuple[int, int], int] = {}
    seen: set[frozenset[int]] = set()
    for i in range(6000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
        seen.add(frozenset(key))
    return len(seen)


def probe() -> float:
    start = clock()
    _probe_kernel()
    return clock() - start


class Speed:
    """Scale factors from probes taken between consecutive operations."""

    def __init__(self) -> None:
        self.last = probe()

    def factor(self) -> float:
        """Probe now; the factor for whatever ran since the previous probe."""
        now = probe()
        factor = PROBE_REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return factor


# ── inputs ──────────────────────────────────────────────────────────────────


@dataclass
class Pair:
    """One old/new pair as text, plus what the reference needs."""

    key: str
    old_text: str
    new_text: str
    places: int
    comp: Composition
    markings: list[frozenset[str]] = field(default_factory=list)
    ref: object = None
    truth: list[bool] = field(default_factory=list)
    settled: list[bool] = field(default_factory=list)


@dataclass
class Call:
    """One CLI invocation and what its output is checked against."""

    key: str
    command: str
    argv: list[str]
    pair: tuple[str, str] | None = None
    marking: frozenset[str] | None = None
    places: int = 0


def log_ladder(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]


def generate(workload: str, seed: int) -> list:
    """The workload's inputs, printed to text where the package reads text."""
    rng = random.Random(seed)
    if workload == "large_structural":
        pairs = []
        for k, target in enumerate(log_ladder(*LARGE_PLACES, LARGE_PAIRS)):
            comp = compose(rng, round(target), rng.randint(1, 4))
            ctree = W.build_ctree(comp.old)
            markings = [W.sample_marking(ctree, rng) for _ in range(SAMPLES_PER_PAIR)]
            old_text, new_text = W.format_tree(comp.old), W.format_tree(comp.new)
            pairs.append(Pair(str(k), old_text, new_text, place_count(comp.old), comp, markings))
        rng.shuffle(pairs)
        return pairs
    if workload == "oracle_corpus":
        pairs = []
        cap = int(ORACLE_STATES[1] * 1.15)  # on the new nets too, to bound peak memory
        for k, target in enumerate(log_ladder(*ORACLE_STATES, ORACLE_PAIRS)):
            band = (int(target * 0.87), int(target * 1.15))
            comp = compose(rng, ORACLE_PLACES, rng.randint(1, 4), states=band)
            while marking_count(comp.new) > cap:
                comp = compose(rng, ORACLE_PLACES, rng.randint(1, 4), states=band)
            old_text, new_text = W.format_tree(comp.old), W.format_tree(comp.new)
            pairs.append(Pair(str(k), old_text, new_text, place_count(comp.old), comp))
        rng.shuffle(pairs)
        return pairs
    calls = []
    for old_name, new_name in FIXTURE_PAIRS:
        pair = (str(FIXTURES / f"{old_name}.ecws"), str(FIXTURES / f"{new_name}.ecws"))
        tag = f"{old_name}/{new_name}"
        old = W.parse(Path(pair[0]).read_text(encoding="utf-8"))
        for m in sorted(W.reachable_markings(W.build_net(old)), key=W.marking_text):
            text = W.marking_text(m)
            argv = ["analyze", *pair, "--marking", text]
            calls.append(Call(f"analyze {tag} {text}", "analyze", argv, pair, m, place_count(old)))
        calls.append(Call(f"oracle {tag}", "oracle", ["oracle", *pair], pair))
        calls.append(Call(f"compare {tag}", "compare", ["compare", *pair, "--json"], pair))
        argv = ["export", pair[0], "--what", "ctree", "--format", "dot"]
        calls.append(Call(f"export {tag}", "export", argv))
    calls.append(Call("fuzz", "fuzz", ["fuzz", "--count", str(FUZZ_COUNT), "--seed", str(seed)]))
    rng.shuffle(calls)
    return calls


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median (scaled, raw) wall time of fresh processes that start the
    interpreter, import the package, and generate and print the inputs.

    A set-up process runs for up to a few seconds, so its factor comes from
    the median of the SETUP_PROBES probes just before it and just after it,
    not from one probe on each side."""
    scaled, raw = [], []
    before = [probe() for _ in range(SETUP_PROBES)]
    for _ in range(SETUP_RUNS):
        start = clock()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
            check=True,
            cwd=ROOT,
        )
        seconds = clock() - start
        after = [probe() for _ in range(SETUP_PROBES)]
        raw.append(seconds)
        scaled.append(seconds * PROBE_REFERENCE_S / statistics.median(before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def prepare(workload: str, items: list) -> dict:
    """Compute the references, outside every timed region."""
    if workload == "cli_instances":
        oracles, pinned = {}, {}
        for call in items:
            if call.pair is not None and call.pair not in oracles:
                old, new = (W.parse(Path(p).read_text(encoding="utf-8")) for p in call.pair)
                oracle = W.oracle_classify(W.build_net(old), W.build_net(new))
                oracles[call.pair] = oracle
                known = KNOWN_OVERESTIMATION.get(tuple(Path(p).stem for p in call.pair))
                if known:
                    per_place = {p: W.MemberClass.OVERESTIMATION if p in known else c
                                 for p, c in oracle.per_place.items()}
                    pinned[call.pair] = (per_place, oracle.semantic_scr, oracle.semantic_pscr_exists)
        return {"oracles": oracles, "pinned": pinned, "tracer": None}
    for pair in items:
        pair.ref = reference(pair.comp)
        pair.truth = [pair.ref.migratable(m) for m in pair.markings]
        pair.settled = [settles(m, pair.ref.per_place, pair.ref.scr, pair.ref.pscr_exists) for m in pair.markings]
    return {"tracer": None}


def settles(marking: frozenset[str], per_place: dict, scr: frozenset[str], pscr_exists: bool) -> bool:
    """Whether the paper's decision rule, applied to the reference region,
    gives a definite answer for the marking: always with a PSCR, and
    without one when the marking misses the SCR or holds a perfect member.
    An ``unknown`` decision on such a marking is lost precision."""
    return pscr_exists or not marking & scr or any(per_place[p] is PERFECT for p in marking & scr)


# ── tallies and checks ──────────────────────────────────────────────────────


@dataclass
class Tally:
    """What one run measured and how its outputs compared to the references."""

    samples: dict[str, dict[str, list[float]]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(list))
    )
    decisions: int = 0
    operations: int = 0
    tried: set[str] = field(default_factory=set)
    broken: set[str] = field(default_factory=set)
    wrong: int = 0
    unsound: int = 0
    known: int = 0
    unknown: int = 0
    peak_child_kb: int = 0
    notes: Counter[str] = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        """Distinct items run.  An item's outcome does not depend on how
        often it repeats, and the number of repeats depends on the host's
        speed, so each item counts once however many passes reached it."""
        return len(self.tried)

    @property
    def failed(self) -> int:
        """Distinct items that failed in at least one pass."""
        return len(self.broken)

    def record(self, key: str, timing: "Timing", factor: float) -> None:
        """Keep one operation's times, scaled to the reference speed."""
        self.samples["call_s"][key].append(factor * timing.call_s)
        self.samples["raw_call_s"][key].append(timing.call_s)
        if timing.verdict_s is not None:
            us = 1e6 * factor * timing.verdict_s / timing.places
            self.samples["verdict_us_per_place"][key].append(us)
        if timing.decisions:
            rate = timing.decisions / (factor * timing.decision_s)
            self.samples["decisions_per_s"][key].append(rate)
            self.decisions += timing.decisions

    def note(self, text: str) -> None:
        if len(self.notes) < 20 or text in self.notes:
            self.notes[text] += 1

    def fail(self, key: str, why: str) -> None:
        self.broken.add(key)
        self.note(f"failed {key}: {why}")

    def mismatch(self, key: str, what: str, unsound: bool, known: bool = False) -> None:
        self.wrong += 1
        self.unsound += unsound
        self.known += known
        kind = "known conservative" if known else "unsound" if unsound else "conservative"
        self.note(f"{kind} {what} on {key}")

    def decide(self, key: str, decisions: list, truths: list[bool], settled: list[bool]) -> None:
        """Score decisions.  A wrong definite one is unsound; an unknown is
        conservative, and wrong where the reference region settles it."""
        for decision, migratable, sure in zip(decisions, truths, settled):
            if decision is W.Decision.UNKNOWN:
                self.unknown += 1
                if sure:
                    self.mismatch(key, "unknown decision", False)
            elif (decision is W.Decision.MIGRATABLE) != migratable:
                self.mismatch(key, f"decision {decision.value}", True)

    def report(self, key: str, got: tuple, want: tuple) -> None:
        """Score a report given as (per_place, scr, pscr_exists) against the
        reference.  A report that could turn into a wrong decision (a
        perfect member that is not one, a missing SCR place, or a PSCR that
        does not exist) is unsound; any other difference is conservative."""
        if got == want:
            return
        (per_place, scr, exists), (ref_per_place, ref_scr, ref_exists) = got, want
        perfect = {p for p, c in per_place.items() if c is PERFECT}
        ref_perfect = {p for p, c in ref_per_place.items() if c is PERFECT}
        unsound = not perfect <= ref_perfect or not ref_scr <= scr or (exists and not ref_exists)
        self.mismatch(key, "report", unsound)

    def merge(self, other: "Tally") -> None:
        for name in ("operations", "wrong", "unsound", "known", "unknown", "decisions"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.tried |= other.tried
        self.broken |= other.broken
        self.notes.update(other.notes)


def report_of(report) -> tuple:
    return report.per_place, report.scr, report.pscr_exists


@dataclass
class Timing:
    """Raw seconds of one operation."""

    call_s: float
    verdict_s: float | None = None  # parse + analyze, over ``places`` places
    places: int = 0
    decision_s: float = 0.0
    decisions: int = 0


# ── one closed-loop operation per workload ──────────────────────────────────


def run_large(pair: Pair, tally: Tally, ctx: dict) -> Timing | None:
    """Parse both texts, analyze, then decide every sampled marking."""
    start = clock()
    try:
        report = W.analyze(W.parse(pair.old_text), W.parse(pair.new_text))
        verdict = clock()
        decisions = [W.decide_marking(m, report) for m in pair.markings]
        end = clock()
    except Exception as exc:  # every failure is counted, none is fatal
        tally.fail(pair.key, f"{type(exc).__name__}: {exc}")
        return None
    tally.report(pair.key, report_of(report), (pair.ref.per_place, pair.ref.scr, pair.ref.pscr_exists))
    tally.decide(pair.key, decisions, pair.truth, pair.settled)
    return Timing(end - start, verdict - start, pair.places, end - verdict, len(decisions))


def run_oracle(pair: Pair, tally: Tally, ctx: dict) -> Timing | None:
    """The path of ``wfregions compare``: oracle, analysis, SESE, decisions."""
    start = clock()
    try:
        old, new = W.parse(pair.old_text), W.parse(pair.new_text)
        parsed = clock()
        old_net, new_net = W.build_net(old), W.build_net(new)
        oracle = W.oracle_classify(old_net, new_net)
        analyzed = clock()
        report = W.analyze(old, new)
        verdict = clock()
        region = W.sese_region(old, old_net, new_net)
        markings = sorted(oracle.reachable_old, key=W.marking_text)
        decided = clock()
        decisions = [W.decide_marking(m, report) for m in markings]
        sese = clock()
        [bool(m & region.improved_places) for m in markings]  # the SESE row of compare
        end = clock()
    except Exception as exc:  # every failure is counted, none is fatal
        tally.fail(pair.key, f"{type(exc).__name__}: {exc}")
        return None
    ref = pair.ref
    truths = [ref.migratable(m) for m in markings]
    settled = [settles(m, ref.per_place, ref.scr, ref.pscr_exists) for m in markings]
    if (
        (oracle.per_place, oracle.semantic_scr, oracle.semantic_pscr_exists) != (ref.per_place, ref.scr, ref.pscr_exists)
        or len(markings) != marking_count(pair.comp.old)
        or any((m in oracle.non_migratable) == t for m, t in zip(markings, truths))
    ):
        tally.mismatch(pair.key, "oracle result", True)
    tally.report(pair.key, report_of(report), (ref.per_place, ref.scr, ref.pscr_exists))
    tally.decide(pair.key, decisions, truths, settled)
    verdict_s = parsed - start + verdict - analyzed
    return Timing(end - start, verdict_s, pair.places, sese - decided, len(decisions))


def run_cli(call: Call, tally: Tally, ctx: dict) -> Timing | None:
    """One CLI process; during a traced pass, one traced by cli_child.py."""
    tracer: Tracer | None = ctx["tracer"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        dump = Path(tmp) / "spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "wfregions.cli", *call.argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(dump), *call.argv]
        with open(Path(tmp) / "stderr", "w+b") as err:
            start = clock()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            end = clock()
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            err.seek(0)
            err_text = err.read().decode(errors="replace").strip()
        if tracer is not None and dump.exists():
            child = json.loads(dump.read_text(encoding="utf-8"))
            tracer.merge(child["spans"], child["counters"], tracer.add(f"cli.{call.command}", start, end))
    tally.peak_child_kb = max(tally.peak_child_kb, usage.ru_maxrss)
    if code != 0:
        tally.fail(call.key, f"exit {code}: {err_text[-300:]}")
        return None
    try:
        return check_cli(call, out.decode(), end - start, tally, ctx)
    except (ValueError, KeyError, TypeError) as exc:
        tally.fail(call.key, f"unreadable output: {type(exc).__name__}: {exc}")
        return None


def check_cli(call: Call, payload: str, seconds: float, tally: Tally, ctx: dict) -> Timing | None:
    """Check one CLI output against the oracle of its fixture pair."""
    oracle, pinned = ctx["oracles"].get(call.pair), ctx["pinned"].get(call.pair)
    if call.command == "analyze":
        data = json.loads(payload)
        per_place = {p: W.MemberClass(c) for p, c in data["per_place"].items()}
        got = (per_place, frozenset(data["scr"]), data["pscr_exists"])
        want = (oracle.per_place, oracle.semantic_scr, oracle.semantic_pscr_exists)
        if got != want and got == pinned:
            tally.mismatch(call.key, "report", False, known=True)
        else:
            tally.report(call.key, got, want)
        settled = settles(call.marking, *want)
        tally.decide(call.key, [W.Decision(data["decision"])], [call.marking not in oracle.non_migratable], [settled])
        return Timing(seconds, seconds, call.places, seconds, 1)
    if call.command == "oracle":
        data = json.loads(payload)
        if data["reachable_old"] != len(oracle.reachable_old) or data["non_migratable"] != sorted(
            W.marking_text(m) for m in oracle.non_migratable
        ):
            tally.mismatch(call.key, "oracle output", True)
        elif not data["agreement"]["all"]:
            tally.mismatch(call.key, "oracle agreement", False, known=pinned is not None)
    elif call.command == "compare":
        row = json.loads(payload)["rows"][0]
        if row["falseNegatives"] or row["falsePositives"] or row["totalMarkings"] != len(oracle.reachable_old):
            tally.mismatch(call.key, f"{row['approach']} row", True)
    elif call.command == "export":
        if not payload.startswith("digraph"):
            tally.fail(call.key, "export printed no DOT graph")
            return None
    elif payload.strip() != f"checked {FUZZ_COUNT} pairs: full agreement":
        tally.mismatch(call.key, f"fuzz output {payload.strip()!r}", True)
    return Timing(seconds)


RUNNERS = {"large_structural": run_large, "oracle_corpus": run_oracle, "cli_instances": run_cli}


def one_pass(workload: str, items: list, tally: Tally, ctx: dict, deadline: float | None) -> bool:
    """Run every item once, in order; stop early at ``deadline``.  Returns
    True if the pass was whole."""
    runner, speed, tracer = RUNNERS[workload], ctx["speed"], ctx["tracer"]
    for item in items:
        if deadline is not None and clock() >= deadline:
            return False
        tally.operations += 1
        tally.tried.add(item.key)
        timing = runner(item, tally, ctx)
        factor = speed.factor()
        if tracer is not None:
            tracer.settle(factor)
        if timing is not None:
            tally.record(item.key, timing, factor)
    return True


# ── metrics ─────────────────────────────────────────────────────────────────


def percentile(values: list[float], q: float) -> float:
    """Inclusive-method quantile, as ``statistics.quantiles`` computes it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def per_item(samples: dict[str, list[float]]) -> list[float]:
    """Median of each item's repeats, so every item weighs the same."""
    return [statistics.median(v) for v in samples.values()]


def e2e_metrics(workload: str, tally: Tally, setup_s: float) -> dict[str, tuple[float, str]]:
    seconds = per_item(tally.samples["call_s"])
    per_place = per_item(tally.samples["verdict_us_per_place"])
    if workload == "cli_instances":
        rss_kb = tally.peak_child_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "verdict_us_per_place.p50": (percentile(per_place, 0.50), "us"),
        "verdict_us_per_place.p75": (percentile(per_place, 0.75), "us"),
        "decisions_per_s": (statistics.median(per_item(tally.samples["decisions_per_s"])), "1/s"),
        "call_s.p50": (percentile(seconds, 0.50), "s"),
        "call_s.p75": (percentile(seconds, 0.75), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def oracle_nets(workload: str, items: list, ctx: dict) -> list[tuple]:
    """Net pairs for the memory probe: six oracle_corpus pairs spread over
    the state ladder, or every CLI fixture pair."""
    if workload == "oracle_corpus":
        # The composed trees, not their printed text: the probe measures the
        # oracle, and a pair the parser rejects is already a failed operation.
        chosen = sorted(items, key=lambda p: int(p.key))[:: len(items) // 6]
        trees = [(p.comp.old, p.comp.new) for p in chosen]
    elif workload == "cli_instances":
        trees = [tuple(W.parse(Path(p).read_text(encoding="utf-8")) for p in pair) for pair in ctx["oracles"]]
    else:
        return []
    return [(W.build_net(a), W.build_net(b)) for a, b in trees]


def bytes_per_state(nets: list[tuple]) -> float:
    """tracemalloc peak of ``oracle_classify`` per distinct state."""
    total_bytes = states = 0
    tracemalloc.start()
    try:
        for old_net, new_net in nets:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = W.oracle_classify(old_net, new_net)
            total_bytes += tracemalloc.get_traced_memory()[1] - base
            states += len(report.reachable_old) + len(report.reachable_new)
            del report
    finally:
        tracemalloc.stop()
    return total_bytes / states if states else 0.0


# ── one run ─────────────────────────────────────────────────────────────────


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    setup_s, raw_setup_s = measure_setup(workload, seed)
    items = generate(workload, seed)
    ctx = prepare(workload, items)
    ctx["speed"] = Speed()
    gc.collect()
    gc.freeze()  # the inputs stay live all run; keep them out of the collector's scans

    tally = Tally()
    layers: dict[str, tuple[float, str]] = {}
    deadline = clock() + seconds
    if not trace:
        one_pass(workload, items, tally, ctx, None)
        while clock() < deadline and one_pass(workload, items, tally, ctx, deadline):
            pass
        checked = tally
    else:
        # Untraced and traced passes alternate, starting and ending untraced,
        # so that the first (coldest) pass does not bias the overhead.
        tracer, checked = Tracer(), Tally()
        passes = {False: 0, True: 0}
        traced = False
        while passes[False] < 2 or not traced or clock() < deadline:
            if traced:
                ctx["tracer"] = tracer
                with tracer:
                    one_pass(workload, items, checked, ctx, None)
                ctx["tracer"] = None
            else:
                one_pass(workload, items, tally, ctx, None)
            passes[traced] += 1
            traced = not traced
        layers = layer_metrics(tracer, passes[True])
        traced_s = sum(per_item(checked.samples["call_s"]))
        layers["trace.overhead_ratio"] = (traced_s / sum(per_item(tally.samples["call_s"])) - 1, "ratio")
        layers["wfnet.bytes_per_state"] = (bytes_per_state(oracle_nets(workload, items, ctx)), "B")
        checked.merge(tally)

    e2e = e2e_metrics(workload, tally, setup_s)
    raw = per_item(tally.samples["raw_call_s"])
    summary = {
        "raw.setup_s": (raw_setup_s, "s"),
        "raw.call_s.p50": (percentile(raw, 0.50), "s"),
        "raw.call_s.p75": (percentile(raw, 0.75), "s"),
        "wrong_verdicts": (checked.wrong, "count"),
        "unsound_verdicts": (checked.unsound, "count"),
        "known_conservative_verdicts": (checked.known, "count"),
        "failed_share": (checked.failed / checked.attempted, "ratio"),
        "unknown_share": (checked.unknown / max(1, checked.decisions), "ratio"),
    }
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"items {len(items)}  operations {checked.operations}")
    for name, (value, unit) in {**e2e, **summary, **layers}.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    for note, times in checked.notes.items():
        print(f"  note: {note}" + (f" ({times} times)" if times > 1 else ""))
    return {
        "correct": checked.wrong == checked.known,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in (layers if trace else e2e).items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        generate(args.workload, args.seed)
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
