"""Change-property classification, SCR/PSCR computation, and migration
decisions, each cross-checked against the exhaustive oracle."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import wfregions.regions as regions

from wfregions import (
    CBlock,
    ChangeSets,
    CNode,
    Decision,
    MemberClass,
    Place,
    analyze,
    build_ctree,
    build_net,
    change_sets,
    check_pair_agreement,
    decide_marking,
    delete_places,
    format_tree,
    gcs,
    is_breakoff,
    marking_text,
    mpe_exists,
    oracle_classify,
    parse,
    places,
    pscr_exists,
    random_net_pair,
    random_tree,
    reachable_markings,
    report_json,
)
from wfregions.randomnets import mutate_transpose_places

from conftest import FIXTURES, composed_pair, deep_tree, fixture_pair, transposition_pair
from regions_reference import reference_decide_marking


def analyzed(old_name: str, new_name: str):
    old, new = fixture_pair(old_name, new_name)
    return old, new, analyze(old, new)


# ── change properties ────────────────────────────────────────────────────────


def test_unchanged_net_has_no_changed_places():
    old = new = parse("p1t1p2t2p3t3p4")
    cs = change_sets(build_ctree(old), build_ctree(new))
    assert cs.cr_r == cs.cr_lc == cs.cr_ac == cs.cr_wrc == cs.cr_src == frozenset()


def test_relabeling_transitions_changes_nothing():
    _, _, report = analyzed("relabel_old", "relabel_new")
    assert report.scr == frozenset()
    assert report.pscr == frozenset()
    assert report.pscr_exists is True


def test_choice_to_loop_changes_nothing():
    _, _, report = analyzed("xorloop_old", "xorloop_new")
    assert report.scr == frozenset()
    assert report.pscr == frozenset()
    assert report.pscr_exists is True


def test_branch_removal_sets():
    old, new = fixture_pair("parallel_old", "removal_new")
    cs = change_sets(build_ctree(old), build_ctree(new))
    assert cs.cr_r == {"p4", "p5"}
    assert cs.cr_wrc == cs.cr_src == {"p2", "p3"}
    assert cs.cr_lc == cs.cr_ac == frozenset()


def test_sequentialize_sets():
    old, new = fixture_pair("parallel_old", "flatten_new")
    cs = change_sets(build_ctree(old), build_ctree(new))
    assert cs.cr_lc == {"p2", "p3", "p4", "p5"}
    assert cs.cr_r == cs.cr_ac == cs.cr_wrc == cs.cr_src == frozenset()


def test_branch_swap_sets():
    old, new = fixture_pair("parallel_old", "branchswap_new")
    cs = change_sets(build_ctree(old), build_ctree(new))
    assert cs.cr_wrc == {"p2", "p3", "p4", "p5"}
    assert cs.cr_src == frozenset()  # weak but not strong


def test_member_sets_split():
    _, _, report = analyzed("claims_old", "claims_new")
    assert report.over == {"u1", "u2", "u3"}
    assert report.perf == {"PC_enabled", "PC"}


# ── change_sets against the per-place reference ─────────────────────────────


def reference_change_sets(c, c2) -> ChangeSets:
    """One gcs pair, embedding check and break-off test per old place; a
    break-off is decided by deletion, apart from ``is_breakoff``."""
    r, lc, ac, wrc, src = set(), set(), set(), set(), set()
    new_places = places(c2)
    for p in sorted(places(c)):
        in_root_old = p in c.own_places
        in_root_new = p in c2.own_places
        if p not in new_places:
            r.add(p)
        elif not in_root_old and in_root_new:
            lc.add(p)
        elif in_root_old and not in_root_new:
            ac.add(p)
        elif not in_root_old and not in_root_new:
            g, g2 = gcs(p, c), gcs(p, c2)
            if not mpe_exists(g, g2):
                wrc.add(p)
                lost = places(g) - places(g2)
                gained = places(g2) - places(g)
                if not delete_places(g, lost).generable or not delete_places(g2, gained).generable:
                    src.add(p)
    return ChangeSets(*map(frozenset, (r, lc, ac, wrc, src)))


def assert_change_sets_match(old, new) -> None:
    """On separately built trees and on trees that share their common
    subtrees, ``change_sets`` equals the reference on separate trees."""
    c, c2 = build_ctree(old), build_ctree(new)
    expected = reference_change_sets(c, c2)
    assert change_sets(c, c2) == expected
    shared = build_ctree(new, like=c)
    assert shared == c2
    assert change_sets(c, shared) == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_change_sets_equal_the_reference(seed):
    assert_change_sets_match(*random_net_pair(random.Random(seed), 5, 30))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_change_sets_equal_the_reference_on_composed_pairs(seed):
    assert_change_sets_match(*composed_pair(seed))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_change_sets_equal_the_reference_on_transpositions(seed):
    rng = random.Random(seed)
    old = random_tree(rng, 8, 40)
    assert_change_sets_match(old, mutate_transpose_places(old, rng) or old)


def test_gcs_runs_at_most_twice_per_node_pair(monkeypatch):
    c, c2 = map(build_ctree, composed_pair(7))

    def holders(tree):
        out, stack = {}, [tree]
        while stack:
            node = stack.pop()
            for el in node.elements:
                if isinstance(el, str):
                    out[el] = node
                else:
                    stack.extend(el.branches)
        return out

    old_at, new_at = holders(c), holders(c2)
    concurrent = [
        p for p in old_at
        if p in new_at and old_at[p] is not c and new_at[p] is not c2
    ]
    groups = {(id(old_at[p]), id(new_at[p])) for p in concurrent}
    assert len(groups) < len(concurrent)

    calls = []

    def counting_gcs(p, tree):
        calls.append(p)
        return gcs(p, tree)

    monkeypatch.setattr(regions, "gcs", counting_gcs)
    assert change_sets(c, c2) == reference_change_sets(c, c2)
    assert 0 < len(calls) <= 2 * len(groups)


def test_gcs_runs_only_where_the_trees_differ(monkeypatch):
    # one mutated segment: every other chunk is one shared block, so only
    # the places of the changed chunk get concurrent-submarking trees
    old, new = composed_pair(3, changed=(2, 0))
    c = build_ctree(old)
    c2 = build_ctree(new, like=c)
    calls = []

    def counting_gcs(p, tree):
        calls.append(p)
        return gcs(p, tree)

    monkeypatch.setattr(regions, "gcs", counting_gcs)
    assert change_sets(c, c2) == reference_change_sets(c, c2)
    assert calls
    assert all(p.startswith(("s20_", "s21_")) for p in calls)


def _unshared_product(tops: tuple, others: tuple) -> CNode:
    """The product of the branches of ``tops`` that are not in ``others`` as
    one object; with none, the empty product, which generates the empty
    marking only."""
    shared = set(map(id, others))
    return CNode((CBlock(tuple(b for b in tops if id(b) not in shared)),))


def test_shared_branches_cancel_from_the_inclusion(corpus):
    # with unique labels, a top-level gcs branch that is one object in both
    # trees is a factor of both products, so the inclusion holds exactly when
    # it holds between the remaining factors
    pairs = [*corpus, *map(transposition_pair, range(800)), *map(composed_pair, range(40))]
    checked = cancelled = 0
    for old, new in pairs:
        c = build_ctree(old)
        c2 = build_ctree(new, like=c)
        for p in sorted((c.place_set & c2.place_set) - c.own_places - c2.own_places):
            g, g2 = gcs(p, c), gcs(p, c2)
            tops, tops2 = regions._siblings(g), regions._siblings(g2)
            rest, rest2 = _unshared_product(tops, tops2), _unshared_product(tops2, tops)
            assert mpe_exists(g, g2) == mpe_exists(rest, rest2), (format_tree(old), p)
            checked += 1
            cancelled += not set(map(id, tops)).isdisjoint(map(id, tops2))
    assert checked > cancelled > 0


def test_sharing_leaves_every_fixture_report_unchanged(monkeypatch):
    names = sorted(path.stem for path in FIXTURES.glob("*.ecws"))
    pairs = [fixture_pair(old, new) for old in names for new in names]
    shared = [report_json(analyze(old, new)) for old, new in pairs]
    # the same analysis on trees built apart, which share no subtree
    monkeypatch.setattr(regions, "build_ctree", lambda tree, like=None: build_ctree(tree))
    for (old, new), report in zip(pairs, shared):
        assert report_json(analyze(old, new)) == report, (format_tree(old), format_tree(new))


def test_per_place_lists_places_in_the_oracles_order():
    # sorted label order on both sides, whatever the hash seed
    names = sorted(path.stem for path in FIXTURES.glob("*.ecws"))
    for old, new in (fixture_pair(a, b) for a in names for b in names):
        oracle = oracle_classify(build_net(old), build_net(new))
        assert list(analyze(old, new).per_place) == list(oracle.per_place)


# ── SCR / PSCR on the fixture pairs ──────────────────────────────────────────


def test_branch_swap_region():
    _, _, report = analyzed("parallel_old", "branchswap_new")
    assert report.scr == {"p2", "p3", "p4", "p5"}
    assert report.over == {"p2", "p3", "p4", "p5"}
    assert report.perf == frozenset()
    assert report.pscr_exists is False
    assert report.pscr is None


def test_branch_removal_region():
    _, _, report = analyzed("parallel_old", "removal_new")
    assert report.scr == {"p2", "p3", "p4", "p5"}
    assert report.pscr_exists is True
    assert report.pscr == {"p2", "p3", "p4", "p5"}


def test_claims_region():
    _, _, report = analyzed("claims_old", "claims_new")
    assert report.scr == {"u1", "u2", "u3", "PC_enabled", "PC"}
    assert report.pscr_exists is True
    assert report.pscr == {"PC_enabled", "PC"}
    assert report.per_place["u1"] is MemberClass.OVERESTIMATION
    assert report.per_place["PC"] is MemberClass.PERFECT_MEMBER
    assert report.per_place["p1"] is MemberClass.SAFE


def test_training_region():
    _, _, report = analyzed("training_old", "training_new")
    lost = {"p_t7", "p_6", "p_t8", "p_7", "p_t10", "p_8", "p_t9", "p_9"}
    assert report.change_sets.cr_lc == lost
    assert report.scr == lost
    assert report.pscr_exists is True
    assert report.pscr == lost


# ── PSCR existence case split ────────────────────────────────────────────────


def test_existence_trivially_true_without_overestimation():
    old, new = fixture_pair("parallel_old", "removal_new")
    c, c2 = build_ctree(old), build_ctree(new)
    report = analyze(old, new)
    over, perf = report.over, report.perf
    assert not over
    assert pscr_exists(c, c2, over, perf) is True


def test_existence_via_breakoff_of_old_tree():
    # if the perfect members hit every old marking, existence is immediate,
    # whatever the new tree looks like
    c = build_ctree(parse("p1t1p2"))
    c2 = build_ctree(parse("q1u1q2"))
    assert is_breakoff(c, frozenset({"p1", "p2"}))
    assert pscr_exists(c, c2, frozenset({"x"}), frozenset({"p1", "p2"})) is True


def test_existence_denied_by_breakoff_of_new_tree():
    # markings avoiding the perfect members exist in the old net but have
    # no counterpart once the new tree loses those places
    c = build_ctree(parse("p1t1p2t2p3"))
    c2 = build_ctree(parse("q1t3p3t4q2"))
    perf = frozenset({"p3", "q1", "q2"})
    assert not is_breakoff(c, perf)
    assert is_breakoff(c2, perf)
    assert pscr_exists(c, c2, frozenset({"x"}), perf) is False


def test_existence_via_surviving_tree_embedding():
    # claims: the perfect members do not break off either tree, and the
    # embedding of the surviving trees settles it
    old, new = fixture_pair("claims_old", "claims_new")
    c, c2 = build_ctree(old), build_ctree(new)
    report = analyze(old, new)
    over, perf = report.over, report.perf
    assert over and perf
    assert not is_breakoff(c, perf)
    assert not is_breakoff(c2, perf)
    assert mpe_exists(delete_places(c, perf), delete_places(c2, perf))
    assert pscr_exists(c, c2, over, perf) is True


def test_existence_denied_for_branch_swap():
    old, new = fixture_pair("parallel_old", "branchswap_new")
    c, c2 = build_ctree(old), build_ctree(new)
    report = analyze(old, new)
    over, perf = report.over, report.perf
    assert over == {"p2", "p3", "p4", "p5"} and perf == frozenset()
    assert pscr_exists(c, c2, over, perf) is False


def test_existence_equals_the_two_sided_deletion(corpus):
    # every old marking without a perfect member avoids them, so deleting
    # them from the new tree as well changes no answer
    outcomes = Counter()
    for old, new in [*corpus, *map(transposition_pair, range(800))]:
        report = analyze(old, new)
        if report.over:
            c, perf = report.old_ctree, report.perf
            want = mpe_exists(delete_places(c, perf), delete_places(build_ctree(new), perf))
            assert report.pscr_exists is want, (format_tree(old), format_tree(new))
            outcomes[want] += 1
    assert outcomes[True] and outcomes[False], outcomes


# ── oracle agreement on every fixture pair ───────────────────────────────────


@pytest.mark.parametrize(
    "old_name, new_name",
    [
        ("relabel_old", "relabel_new"),
        ("xorloop_old", "xorloop_new"),
        ("parallel_old", "branchswap_new"),
        ("parallel_old", "removal_new"),
        ("parallel_old", "flatten_new"),
        ("claims_old", "claims_new"),
        ("training_old", "training_new"),
    ],
)
def test_fixture_pairs_agree_with_oracle(old_name, new_name):
    old, new = fixture_pair(old_name, new_name)
    assert check_pair_agreement(old, new) == []


# ── deep restructuring: exact decisions, cautious classification ─────────────


def test_restructured_pair_decisions_stay_exact():
    """Dealing the nested net's places onto differently-shaped branches is
    the hardest fixture: the region and the existence verdict still match
    the oracle, but p5 and p7 are reported as overestimation although a
    full state-space comparison shows every one of their markings dies.
    The migration decision itself is exact for all 16 old states."""
    old, new, report = analyzed("nested", "restructured_new")
    oracle = oracle_classify(build_net(old), build_net(new))

    cs = report.change_sets
    assert cs.cr_r == {"p1"}
    assert cs.cr_lc == {"p10"}
    assert cs.cr_ac == {"p2"}
    assert cs.cr_wrc == {"p4", "p5", "p6", "p7", "p8", "p9", "p11"}
    assert cs.cr_src == {"p6", "p8"}

    assert report.scr == oracle.semantic_scr
    assert report.scr == {"p1", "p2", "p4", "p5", "p6", "p7", "p8", "p9", "p10", "p11"}
    assert report.pscr_exists is True and oracle.semantic_pscr_exists is True
    assert report.pscr == {"p1", "p2", "p6", "p8", "p10"}
    assert oracle.semantic_pscr == {"p1", "p2", "p5", "p6", "p7", "p8", "p10"}

    cautious = {
        p for p in report.per_place if report.per_place[p] != oracle.per_place[p]
    }
    assert cautious == {"p5", "p7"}
    for p in cautious:
        assert report.per_place[p] is MemberClass.OVERESTIMATION
        assert oracle.per_place[p] is MemberClass.PERFECT_MEMBER

    for m in oracle.reachable_old:
        got = decide_marking(m, report)
        want = (
            Decision.NON_MIGRATABLE
            if m in oracle.non_migratable
            else Decision.MIGRATABLE
        )
        assert got is want, marking_text(m)


# ── decisions ────────────────────────────────────────────────────────────────


def test_decide_with_perfect_region():
    _, _, report = analyzed("claims_old", "claims_new")
    assert decide_marking(frozenset({"u1", "PC"}), report) is Decision.NON_MIGRATABLE
    assert decide_marking(frozenset({"u1", "c2"}), report) is Decision.MIGRATABLE
    assert decide_marking(frozenset({"p1"}), report) is Decision.MIGRATABLE


def test_decide_without_perfect_region():
    _, _, report = analyzed("parallel_old", "branchswap_new")
    assert report.pscr_exists is False
    # outside the region: definitely fine
    assert decide_marking(frozenset({"p1"}), report) is Decision.MIGRATABLE
    # inside the region, no perfect members: cannot tell
    assert decide_marking(frozenset({"p2", "p4"}), report) is Decision.UNKNOWN
    assert decide_marking(frozenset({"p2", "p5"}), report) is Decision.UNKNOWN


def test_deep_tree_built_in_code_is_analyzed():
    # 500 blocks deep, 167 of them parallel: far past the parser's bound,
    # yet the C-tree build and the inclusion test stay within the stack
    tree = deep_tree(500)
    report = analyze(tree, deep_tree(500))
    assert len(report.per_place) == 1168
    assert set(report.per_place.values()) == {MemberClass.SAFE}
    assert report.pscr_exists


def test_deep_pair_changed_at_the_bottom_is_analyzed():
    # 200 parallel levels with y in place of z: no block is shared, so every
    # concurrent place runs the inclusion test through all levels below it
    report = analyze(deep_tree(600), deep_tree(600, core=(Place("y"),)))
    assert report.change_sets.cr_r == {"z"} and report.perf == {"z"}
    assert len(report.over) == 200 and report.pscr_exists
    assert Counter(report.per_place.values())[MemberClass.SAFE] == 1200


#: Counts, in one process, the C-tree fold steps (each node a fold of
#: ``_drive`` visits) and the deletions of ``analyze`` on the chain of 50,
#: 100 and 200 parallel levels changed at the bottom.
CHAIN_WORK = """
import wfregions.ctree as ctree
import wfregions.regions as regions
from wfregions import Place, analyze
from conftest import deep_tree

counts = {}
drive, delete = ctree._drive, ctree.delete_places


def counting_drive(step, root):
    def counted(node):
        counts["steps"] += 1
        return step(node)
    return drive(counted, root)


def counting_delete(c, labels):
    counts["deletions"] += 1
    return delete(c, labels)


ctree._drive = counting_drive
ctree.delete_places = regions.delete_places = counting_delete
for levels in (50, 100, 200):
    counts.update(steps=0, deletions=0)
    analyze(deep_tree(3 * levels), deep_tree(3 * levels, core=(Place("y"),)))
    print(levels, counts["steps"], counts["deletions"])
"""


def test_chain_work_grows_linearly_with_its_levels():
    # every level's place has its own reformed verdict; the verdicts take
    # their lost and gained places from the unshared branches and build no
    # deleted copy, so the fold steps about double per doubling of levels,
    # and only the PSCR check deletes.  Counts, unlike seconds, repeat
    # exactly, under either hash seed
    src = str(Path(regions.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("0", "1"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join([src, str(Path(__file__).parent)]),
        }
        proc = subprocess.run(
            [sys.executable, "-c", CHAIN_WORK],
            capture_output=True, env=env, timeout=300, check=True, text=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    rows = [tuple(map(int, line.split())) for line in outputs.pop().splitlines()]
    assert [levels for levels, _, _ in rows] == [50, 100, 200]
    assert all(deletions == 1 for _, _, deletions in rows)
    for (_, steps, _), (_, doubled, _) in zip(rows, rows[1:]):
        assert doubled <= 2.2 * steps


def test_decide_unknown_only_without_perfect_region():
    for names in (("relabel_old", "relabel_new"), ("claims_old", "claims_new")):
        old, new, report = analyzed(*names)
        assert report.pscr_exists
        for m in oracle_classify(build_net(old), build_net(new)).reachable_old:
            assert decide_marking(m, report) is not Decision.UNKNOWN


def test_decisions_equal_the_reference(corpus):
    # every reachable old marking of every ordered fixture pair and of the
    # corpus, as a frozenset and as a plain set: the same member each time
    names = sorted(path.stem for path in FIXTURES.glob("*.ecws"))
    pairs = [fixture_pair(a, b) for a in names for b in names]
    seen: Counter = Counter()
    for old, new in [*pairs, *corpus]:
        report = analyze(old, new)
        for m in reachable_markings(build_net(old)):
            want = reference_decide_marking(m, report)
            assert decide_marking(m, report) is want, (format_tree(old), format_tree(new), sorted(m))
            assert decide_marking(set(m), report) is want
            seen[report.pscr_exists, want] += 1
    # both answers with a perfect region, all three without one
    assert set(seen) == {
        (True, Decision.MIGRATABLE),
        (True, Decision.NON_MIGRATABLE),
        (False, Decision.MIGRATABLE),
        (False, Decision.NON_MIGRATABLE),
        (False, Decision.UNKNOWN),
    }


# ── serialization ────────────────────────────────────────────────────────────


def test_report_json_is_stable_and_sorted():
    _, _, report = analyzed("claims_old", "claims_new")
    payload = report_json(report)
    assert payload["scr"] == sorted(payload["scr"])
    assert payload["pscr"] == ["PC", "PC_enabled"]
    assert payload["pscr_exists"] is True
    assert payload["per_place"]["u2"] == "overestimation"
    # byte-stable under repeated serialization
    a = json.dumps(payload, indent=2, sort_keys=True)
    b = json.dumps(report_json(analyze(*fixture_pair("claims_old", "claims_new"))), indent=2, sort_keys=True)
    assert a == b


def test_report_json_without_perfect_region():
    _, _, report = analyzed("parallel_old", "branchswap_new")
    payload = report_json(report)
    assert payload["pscr_exists"] is False
    assert payload["pscr"] is None
