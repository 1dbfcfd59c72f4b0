"""Self-checks of the benchmark's own machinery.

Run from the repository root with ``python -m pytest perfbench``.  The main
check holds the rule-derived composition reference to ``oracle_classify``
on the whole pair, for compositions small enough to enumerate.
"""

from __future__ import annotations

import random

from compose import compose, marking_count, place_count, reference
from tracer import Tracer, totals

import wfregions as W


def test_reference_equals_oracle_on_small_compositions():
    mismatches = []
    for seed in range(200):
        rng = random.Random(seed)
        comp = compose(rng, rng.randint(8, 30), rng.randint(1, 3), seg_places=6, seg_depth=3)
        ref = reference(comp)
        oracle = W.oracle_classify(W.build_net(comp.old), W.build_net(comp.new))
        same = (
            ref.per_place == oracle.per_place
            and ref.scr == oracle.semantic_scr
            and ref.pscr_exists == oracle.semantic_pscr_exists
            and ref.pscr == oracle.semantic_pscr
            and all(ref.migratable(m) == (m not in oracle.non_migratable) for m in oracle.reachable_old)
        )
        if not same:
            mismatches.append((seed, W.format_tree(comp.old), W.format_tree(comp.new)))
    assert mismatches == []


def test_marking_count_matches_reachability():
    rng = random.Random(7)
    for _ in range(50):
        tree = W.random_tree(rng, 4, 12)
        assert marking_count(tree) == len(W.reachable_markings(W.build_net(tree)))


def test_state_band_is_kept():
    rng = random.Random(3)
    for _ in range(10):
        comp = compose(rng, 70, 2, states=(600, 1200))
        assert place_count(comp.old) >= 70
        assert 600 <= marking_count(comp.old) <= 1200
        assert all(len(chunk) >= 2 for chunk in comp.chunks)
        assert 1 <= len(comp.changed) <= 2


def test_tracer_wraps_each_function_once_and_restores():
    original = W.ctree.gcs
    tracer = Tracer()
    with tracer:
        assert W.regions.gcs is W.ctree.gcs is W.gcs is not original
        old = W.parse("p1 t1 (p2 t2 p3)(p4 t3 p5) t4 p6")
        new = W.parse("p1 t1 (p2 t2 p5)(p4 t3 p3) t4 p6")
        W.analyze(old, new)
    assert W.regions.gcs is W.ctree.gcs is W.gcs is original
    spans = tracer.spans
    names = [name for name, *_ in spans]
    assert names.count("regions.analyze") == 1
    assert names.count("ctree.gcs") == 8  # p2..p5, each in both trees
    for name, start, end, parent in spans:
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start <= end <= p_end
    dur, self_time, calls = totals(spans, [1.0] * len(spans))
    assert self_time["regions.analyze"] < dur["regions.analyze"]
    assert calls["ctree.delete_places"] >= 1
