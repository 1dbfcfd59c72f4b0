"""Composition-tree behavior: marking generation, subtrees, deletion,
break-off sets, and the marking-preserving embedding."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from wfregions import (
    CBlock,
    CNode,
    UnknownPlaceError,
    build_ctree,
    build_net,
    delete_places,
    gcs,
    generates,
    is_breakoff,
    is_dysfunctional,
    markings_of,
    mgs_text,
    mpe_exists,
    parse,
    places,
    random_tree,
    reachable_markings,
    sample_marking,
)

from conftest import load_fixture

PARALLEL = "p1t1(p2t2p3)(p4t3p5)t4p6"
BREAKOFF = frozenset("p1 p2 p3 p4 p6 p8 p9 p12".split())


@pytest.fixture(scope="module")
def nested():
    return build_ctree(load_fixture("nested"))


# ── structure ────────────────────────────────────────────────────────────────


def test_sequence_collapses_to_one_node():
    c = build_ctree(parse("p1t1p2t2p3t3p4"))
    assert c == CNode(("p1", "p2", "p3", "p4"))


def test_choice_and_loop_share_the_node():
    # places of XOR branches and loop parts are mutually exclusive with the
    # surrounding sequence, so they all land in the same node
    c = build_ctree(parse("p1[t1p2t2][t3p3t4]p4"))
    assert c == CNode(("p1", "p2", "p3", "p4"))
    c = build_ctree(parse("p1t1{p2t2p3t3p4}{t4p5t5}t6p6"))
    assert set(c.elements) == {"p1", "p2", "p3", "p4", "p5", "p6"}
    assert not c.blocks


def test_fork_join_becomes_a_block():
    c = build_ctree(parse(PARALLEL))
    (block,) = c.blocks
    assert isinstance(block, CBlock)
    assert [set(b.elements) for b in block.branches] == [{"p2", "p3"}, {"p4", "p5"}]


def test_mgs_text(nested):
    assert mgs_text(nested) == "{p1,p2,p3,({p4,({p5,p7},{p6,p8}),p9},{p10,p11}),p12}"
    assert mgs_text(build_ctree(parse("p1t1p2t2(p3t3p4t4p5)(p6t5p7)t6p8t7p9"))) == (
        "{p1,p2,({p3,p4,p5},{p6,p7}),p8,p9}"
    )


def test_places(nested):
    assert places(nested) == {f"p{i}" for i in range(1, 13)}


# ── concurrent-submarking subtree ────────────────────────────────────────────


def test_gcs_inside_nested_fork(nested):
    assert mgs_text(gcs("p6", nested)) == "{({({p5,p7})},{p10,p11})}"


def test_gcs_of_root_place_is_empty(nested):
    # nothing runs concurrently with p1; the empty tree generates nothing
    assert mgs_text(gcs("p1", nested)) == "{}"
    assert markings_of(gcs("p1", nested)) == frozenset()


def test_gcs_single_level():
    c = build_ctree(parse("p1t1p2t2(p3t3p4t4p5)(p6t5p7)t6p8t7p9"))
    assert mgs_text(gcs("p3", c)) == "{({p6,p7})}"


def test_gcs_unknown_place(nested):
    with pytest.raises(UnknownPlaceError):
        gcs("zz", nested)


# ── marking generation ───────────────────────────────────────────────────────


def test_markings_match_reachability(nested):
    tree = load_fixture("nested")
    generated = markings_of(nested)
    assert len(generated) == 16
    assert generated == reachable_markings(build_net(tree))


def test_markings_of_parallel():
    got = markings_of(build_ctree(parse(PARALLEL)))
    assert got == {
        frozenset({"p1"}), frozenset({"p6"}),
        frozenset({"p2", "p4"}), frozenset({"p2", "p5"}),
        frozenset({"p3", "p4"}), frozenset({"p3", "p5"}),
    }


def test_sample_marking_draws_only_valid_markings():
    c = build_ctree(parse(PARALLEL))
    valid = markings_of(c)
    rng = random.Random(5)
    seen = {sample_marking(c, rng) for _ in range(80)}
    assert seen <= valid
    assert seen == valid  # 6 markings, 80 draws: all of them show up


def test_sample_marking_fails_on_dead_tree():
    c = build_ctree(parse(PARALLEL))
    dead = delete_places(c, places(c))
    with pytest.raises(ValueError):
        sample_marking(dead)


# ── deletion, dysfunction, break-off ─────────────────────────────────────────


def test_delete_keeps_structure():
    c = build_ctree(parse(PARALLEL))
    d = delete_places(c, {"p2", "p3"})
    (block,) = d.blocks
    assert len(block.branches) == 2  # the emptied branch is kept, just empty
    assert places(d) == {"p1", "p4", "p5", "p6"}


def test_emptied_tree_is_dysfunctional():
    c = build_ctree(parse(PARALLEL))
    d = delete_places(c, {"p1", "p6", "p2", "p3"})
    assert is_dysfunctional(d)
    assert markings_of(d) == frozenset()


def test_partial_deletion_stays_functional():
    c = build_ctree(parse(PARALLEL))
    d = delete_places(c, {"p1", "p6", "p2"})
    assert not is_dysfunctional(d)
    assert markings_of(d) == {frozenset({"p3", "p4"}), frozenset({"p3", "p5"})}


def test_breakoff_set(nested):
    assert is_breakoff(nested, BREAKOFF)
    # the set is minimal: dropping any one member breaks the property
    for label in BREAKOFF:
        assert not is_breakoff(nested, BREAKOFF - {label})
    assert not is_breakoff(nested, frozenset({"p1"}))


def test_breakoff_means_hitting_every_marking(nested):
    for m in markings_of(nested):
        assert m & BREAKOFF


# ── marking-preserving embedding ─────────────────────────────────────────────


def test_embedding_of_identical_trees():
    c = build_ctree(parse(PARALLEL))
    assert mpe_exists(c, c)


def test_no_embedding_after_branch_swap():
    old = build_ctree(load_fixture("parallel_old"))
    new = build_ctree(load_fixture("branchswap_new"))
    assert not mpe_exists(old, new)


def test_embedding_into_longer_branches():
    narrow = build_ctree(parse("p1t1(p2t2p3)(p4t3p5)t4p6"))
    wide = build_ctree(parse("p1t1(p2t2p3t5x1)(p4t3p5t6x2)t4p6"))
    assert mpe_exists(narrow, wide)
    assert not mpe_exists(wide, narrow)
    assert markings_of(narrow) <= markings_of(wide)


def test_no_embedding_when_branch_counts_differ():
    # a third parallel branch puts an extra token in every marking, so the
    # two-branch fork cannot embed into the three-branch one
    two = build_ctree(parse("p1t1(p2t2p3)(p4t3p5)t4p6"))
    three = build_ctree(parse("p1t1(p2t2p3)(p4t3p5)(p7t5p8)t4p6"))
    assert not mpe_exists(two, three)
    assert not (markings_of(two) <= markings_of(three))


# ── properties on random trees ───────────────────────────────────────────────


def _tree(seed: int):
    return build_ctree(random_tree(random.Random(seed)))


def _subset(data, labels, label):
    return frozenset(
        data.draw(
            st.sets(st.sampled_from(sorted(labels)), max_size=len(labels)),
            label=label,
        )
    )


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), data=st.data())
def test_delete_composes(seed, data):
    c = _tree(seed)
    a = _subset(data, places(c), "a")
    b = _subset(data, places(c), "b")
    assert delete_places(delete_places(c, a), b) == delete_places(c, a | b)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), data=st.data())
def test_breakoff_iff_hitting_set(seed, data):
    c = _tree(seed)
    s = _subset(data, places(c), "s")
    expected = all(m & s for m in markings_of(c))
    assert is_breakoff(c, s) == expected


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), data=st.data())
def test_dysfunctional_iff_no_markings(seed, data):
    c = _tree(seed)
    d = delete_places(c, _subset(data, places(c), "s"))
    assert is_dysfunctional(d) == (not markings_of(d))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_embedding_is_reflexive(seed):
    c = _tree(seed)
    assert mpe_exists(c, c)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), data=st.data())
def test_embedding_guarantees_marking_inclusion(seed, data):
    # even on deletion residues: an embedding may never claim inclusion
    # that the generated marking sets contradict
    c = _tree(seed)
    d = delete_places(c, _subset(data, places(c), "s"))
    if mpe_exists(d, c):
        assert markings_of(d) <= markings_of(c)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_sampling_agrees_with_enumeration(seed):
    c = _tree(seed)
    rng = random.Random(seed ^ 0xA5A5)
    valid = markings_of(c)
    for _ in range(5):
        assert sample_marking(c, rng) in valid


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), data=st.data())
def test_membership_agrees_with_enumeration(seed, data):
    # on deletion residues too, where blocks can be dead
    c = _tree(seed)
    d = delete_places(c, _subset(data, places(c), "deleted"))
    valid = markings_of(d)
    assert all(generates(d, m) for m in valid)
    m = _subset(data, places(c), "m")
    assert generates(d, m) == (m in valid)
