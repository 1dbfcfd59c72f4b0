"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a single
summary line with the measured numbers (visible under ``pytest -v -s`` or in
the failure output).  The random-pair corpus is shared across the sweeps:
500 pairs, fixed seed, depth <= 4, <= 12 places each.
"""

from __future__ import annotations

import random
import time

from wfregions import (
    Decision,
    analyze,
    build_ctree,
    build_net,
    check_pair_agreement,
    decide_marking,
    format_tree,
    is_breakoff,
    mgs_text,
    mpe_exists,
    oracle_classify,
    parse,
    random_tree,
    reachable_markings,
    shrink_pair,
)
from wfregions.cli import compare_rows

from conftest import FIXTURES, fixture_pair, load_fixture, transposition_pair
from ctree_reference import markings_of

CAPTION_STRINGS = [
    "p1t1p2t2p3t3p4",
    "p1t1p2t2(p3t3p4t4p5)(p6t5p7)t6p8t7p9",
    "p1[t1p2t2][t3p3t4]p4",
    "p1t1p2t2(p11t8(p3t3p4)(p5t4p6)t5p9)(p7t6p8)t7p10",
    "p1t1{p2t2p3t3p4}{t4p5t5}t6p6",
    "p1t1{p2[t2p3t3][t7p7t8]p4}{t4p5t5}t6p6",
]


def report(label: str, detail: str) -> None:
    print(f"PASS {label}: {detail}")


# ── showcase fixtures (each must finish well under a second) ─────────────────


def test_mgs_reproduced_exactly():
    t0 = time.perf_counter()
    text = mgs_text(build_ctree(load_fixture("nested")))
    assert text == "{p1,p2,p3,({p4,({p5,p7},{p6,p8}),p9},{p10,p11}),p12}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("marking-generator set", f"exact text match in {elapsed * 1000:.0f} ms")


def test_breakoff_set_is_minimal():
    t0 = time.perf_counter()
    c = build_ctree(load_fixture("nested"))
    cut = frozenset("p1 p2 p3 p4 p6 p8 p9 p12".split())
    assert is_breakoff(c, cut)
    for label in cut:
        assert not is_breakoff(c, cut - {label})
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        "break-off set",
        f"8-place cut confirmed, all 8 single-place removals refuted, "
        f"{elapsed * 1000:.0f} ms",
    )


def test_fully_migratable_pairs():
    t0 = time.perf_counter()
    for names in (("relabel_old", "relabel_new"), ("xorloop_old", "xorloop_new")):
        old, new = fixture_pair(*names)
        rep = analyze(old, new)
        assert rep.scr == frozenset()
        assert rep.pscr == frozenset()
        orc = oracle_classify(build_net(old), build_net(new))
        assert orc.non_migratable == frozenset()
        # the baseline still flags a region on both pairs
        rows = compare_rows(old, new)
        assert rows[1]["approach"] == "SESE"
        assert rows[1]["falseNegatives"] > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        "fully migratable pairs",
        f"relabel + choice-to-loop: empty regions, empty oracle set, "
        f"baseline over-flags, {elapsed * 1000:.0f} ms",
    )


def test_branch_swap_has_no_perfect_region():
    t0 = time.perf_counter()
    old, new = fixture_pair("parallel_old", "branchswap_new")
    rep = analyze(old, new)
    orc = oracle_classify(build_net(old), build_net(new))
    assert rep.pscr_exists is False
    assert rep.scr == {"p2", "p3", "p4", "p5"}
    assert rep.scr == orc.semantic_scr
    assert orc.semantic_pscr_exists is False
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        "branch swap",
        f"no perfect region, SCR = p2..p5 = oracle, {elapsed * 1000:.0f} ms",
    )


# ── corpus sweeps ────────────────────────────────────────────────────────────


def test_structural_analysis_equals_oracle_on_corpus(corpus):
    t0 = time.perf_counter()
    failures = []
    for old, new in corpus:
        problems = check_pair_agreement(old, new)
        if problems:
            failures.append((old, new, problems))
    elapsed = time.perf_counter() - t0
    if failures:
        old, new, _ = failures[0]
        old, new = shrink_pair(
            old, new, lambda o, n: bool(check_pair_agreement(o, n))
        )
        print("minimized counterexample:")
        print("  old:", format_tree(old))
        print("  new:", format_tree(new))
        for problem in check_pair_agreement(old, new):
            print(" ", problem)
    assert not failures, f"{len(failures)} of {len(corpus)} pairs disagree"
    assert elapsed < 60.0
    report(
        "oracle equivalence",
        f"{len(corpus)} random pairs, 100% agreement on region, existence, "
        f"contents and per-place classes, {elapsed:.1f} s",
    )


def test_embedding_matches_reachability_inclusion(corpus):
    t0 = time.perf_counter()
    checked = 0
    for old, new in corpus:
        structural = mpe_exists(build_ctree(old), build_ctree(new))
        semantic = reachable_markings(build_net(old)) <= reachable_markings(
            build_net(new)
        )
        assert structural == semantic, (format_tree(old), format_tree(new))
        checked += 1
    elapsed = time.perf_counter() - t0
    report(
        "embedding = marking inclusion",
        f"{checked} pairs, equivalence held every time, {elapsed:.1f} s",
    )


def test_ctree_generates_exactly_the_reachable_markings(corpus):
    t0 = time.perf_counter()
    trees = [t for pair in corpus for t in pair]
    complete = exact = 0
    for tree in trees:
        generated = markings_of(build_ctree(tree))
        reachable = reachable_markings(build_net(tree))
        assert reachable <= generated, format_tree(tree)
        complete += 1
        if generated <= reachable:
            exact += 1
    elapsed = time.perf_counter() - t0
    report(
        "marking generation",
        f"{complete} nets: reachable markings always covered; reverse "
        f"inclusion {exact}/{complete} ({100.0 * exact / complete:.1f}%), "
        f"{elapsed:.1f} s",
    )


def test_decisions_never_contradict_the_oracle(corpus):
    t0 = time.perf_counter()
    decisions = unknowns = 0
    for old, new in corpus:
        rep = analyze(old, new)
        orc = oracle_classify(build_net(old), build_net(new))
        for m in orc.reachable_old:
            got = decide_marking(m, rep)
            decisions += 1
            if got is Decision.UNKNOWN:
                # only tolerated when no perfect region exists
                assert rep.pscr_exists is False
                unknowns += 1
                continue
            truth = (
                Decision.NON_MIGRATABLE
                if m in orc.non_migratable
                else Decision.MIGRATABLE
            )
            assert got is truth, (format_tree(old), format_tree(new), sorted(m))
    elapsed = time.perf_counter() - t0
    report(
        "decision soundness",
        f"{decisions} markings across {len(corpus)} pairs, 0 contradictions, "
        f"{unknowns} unknowns (all without a perfect region), {elapsed:.1f} s",
    )


# ── baseline comparison ──────────────────────────────────────────────────────


def test_region_analysis_beats_the_baseline():
    t0 = time.perf_counter()
    summary = []
    for names in (
        ("relabel_old", "relabel_new"),
        ("xorloop_old", "xorloop_new"),
        ("parallel_old", "branchswap_new"),
    ):
        old, new = fixture_pair(*names)
        ours, sese = compare_rows(old, new)
        if ours["approach"] == "PSCR":
            # with a perfect region every decision must be right
            assert ours["correctDecisions"] == ours["totalMarkings"]
        summary.append(
            f"{names[0].split('_')[0]} {ours['approach']} "
            f"{ours['correctDecisions']}/{ours['totalMarkings']} vs "
            f"SESE {sese['correctDecisions']}/{sese['totalMarkings']}"
        )

    # on the two fully-migratable pairs the baseline is strictly worse
    for names in (("relabel_old", "relabel_new"), ("xorloop_old", "xorloop_new")):
        ours, sese = compare_rows(*fixture_pair(*names))
        assert sese["correctDecisions"] < ours["correctDecisions"]

    # reconstructed case studies keep their published region contents
    rep = analyze(*fixture_pair("training_old", "training_new"))
    assert rep.pscr is not None
    assert {"p_t7", "p_6", "p_t8", "p_7", "p_t10", "p_8", "p_t9", "p_9"} <= rep.pscr
    rep = analyze(*fixture_pair("claims_old", "claims_new"))
    assert rep.pscr == {"PC_enabled", "PC"}
    elapsed = time.perf_counter() - t0
    report("baseline comparison", "; ".join(summary) + f", {elapsed:.1f} s")


def test_no_compare_row_migrates_an_instance_that_cannot(corpus):
    # every approach may block instances that could migrate, but none may
    # pass one that cannot: the SESE row keeps the static places its trim drops
    t0 = time.perf_counter()
    names = sorted(path.stem for path in FIXTURES.glob("*.ecws"))
    sweeps = {
        "corpus": corpus,
        "transposition": [transposition_pair(seed) for seed in range(800)],
        "fixtures": [fixture_pair(a, b) for a in names for b in names],
    }
    summary = []
    for sweep, pairs in sweeps.items():
        markings = blocked = 0
        for old, new in pairs:
            rows = compare_rows(old, new)
            assert [row["falsePositives"] for row in rows] == [0, 0], (
                format_tree(old), format_tree(new), rows
            )
            markings += rows[1]["totalMarkings"]
            blocked += rows[1]["falseNegatives"]
        summary.append(f"{sweep} {len(pairs)} pairs, {markings} markings, SESE blocks {blocked}")
    elapsed = time.perf_counter() - t0
    report("sound compare rows", "; ".join(summary) + f", {elapsed:.1f} s")


# ── grammar round-trip ───────────────────────────────────────────────────────


def test_round_trip_identity():
    t0 = time.perf_counter()
    for text in CAPTION_STRINGS:
        assert format_tree(parse(text)) == text
    for seed in range(1000):
        tree = random_tree(random.Random(seed))
        assert parse(format_tree(tree)) == tree
    elapsed = time.perf_counter() - t0
    report(
        "grammar round-trip",
        f"6 showcase strings byte-identical, 1000 random trees, "
        f"{elapsed:.1f} s",
    )
