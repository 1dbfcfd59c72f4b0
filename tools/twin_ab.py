"""Same-process A/B timing of two copies of the wfregions package.

Run from the repository root::

    python3 tools/twin_ab.py OLD_DIR NEW_DIR --repeat 7

Each directory is a package directory (``src/wfregions``) or the directory
holding one (``src``).  The two are loaded under their own package names,
``twin_a`` and ``twin_b``, into one process, so both read the same heap and
the same machine state, and no speed probe scales either.  The inputs are
``perfbench/run.py``'s ``generate`` for ``large_structural``, seed 1.  Pair
by pair the two sides alternate which runs first; each side parses both
texts and runs ``analyze`` ``--repeat`` times, and its fastest run, per old
place, is that pair's reading.  The decision loop (``decide_marking`` on
the pair's sampled markings) is timed the same way.

It prints, for each side: p50 and p75 over the pairs of parse plus
``analyze`` in microseconds per place, the number of pairs it won, its
unscaled decisions per second, and a SHA-256 digest of every pair's
``report_json``.  It exits 1 if the two digests differ.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402  (perfbench/run.py: its generate and percentile)

clock = time.perf_counter
WORKLOAD, SEED = "large_structural", 1


def load(name: str, directory: str) -> ModuleType:
    """Import the package in ``directory`` (or in its ``wfregions``) as ``name``."""
    path = Path(directory).resolve()
    if not (path / "__init__.py").is_file():
        path = path / "wfregions"
    if not (path / "__init__.py").is_file():
        raise SystemExit(f"twin_ab: no package at {directory}")
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def fastest(repeat: int, call) -> tuple[float, object]:
    """The least wall time of ``repeat`` calls, and the last call's result."""
    best, result = float("inf"), None
    for _ in range(repeat):
        start = clock()
        result = call()
        best = min(best, clock() - start)
    return best, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="package directory of side A (the base)")
    parser.add_argument("b", help="package directory of side B (the change)")
    parser.add_argument("--repeat", type=int, default=7, help="runs per side and pair; the fastest counts")
    args = parser.parse_args(argv)

    sides = {"A": load("twin_a", args.a), "B": load("twin_b", args.b)}
    pairs = bench.generate(WORKLOAD, SEED)
    gc.collect()
    gc.freeze()  # the inputs stay live all run, as in the benchmark

    per_place = {side: [] for side in sides}
    decide_s = dict.fromkeys(sides, 0.0)
    digests = {side: hashlib.sha256() for side in sides}
    won = dict.fromkeys(sides, 0)
    decisions = 0
    for k, pair in enumerate(pairs):
        seconds = {}
        for side in ("A", "B") if k % 2 == 0 else ("B", "A"):
            W = sides[side]

            def verdict(W=W):
                return W.analyze(W.parse(pair.old_text), W.parse(pair.new_text))

            seconds[side], report = fastest(args.repeat, verdict)
            per_place[side].append(seconds[side] / pair.places * 1e6)
            loop, _ = fastest(args.repeat, lambda: [W.decide_marking(m, report) for m in pair.markings])
            decide_s[side] += loop
            digests[side].update(json.dumps(W.report_json(report), sort_keys=True).encode())
        decisions += len(pair.markings)
        if seconds["A"] != seconds["B"]:
            won[min(seconds, key=seconds.get)] += 1

    print(f"workload {WORKLOAD}  seed {SEED}  pairs {len(pairs)}  repeat {args.repeat}")
    for side, directory in (("A", args.a), ("B", args.b)):
        values = per_place[side]
        print(f"  {side} {directory}: verdict_us_per_place p50 {bench.percentile(values, 0.50):.4f}"
              f"  p75 {bench.percentile(values, 0.75):.4f}  won {won[side]}"
              f"  decisions_per_s {decisions / decide_s[side]:.4g}"
              f"  report_json {digests[side].hexdigest()[:16]}")
    ratios = [b / a for a, b in zip(per_place["A"], per_place["B"])]
    print(f"  B/A per pair: median {statistics.median(ratios):.4f}")
    if digests["A"].digest() != digests["B"].digest():
        print("  the two sides' reports differ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
