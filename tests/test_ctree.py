"""Composition-tree behavior: marking generation, subtrees, deletion,
break-off sets, and the exact marking-inclusion test."""

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
from wfregions.randomnets import mutate_transpose_places

from conftest import deep_tree, load_fixture

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


def test_deep_ctree_walks_need_no_recursion():
    # 400 nested parallel blocks, one per third level: a walk that recursed
    # once per block level ran past the default recursion limit
    c = build_ctree(deep_tree(1200))
    text = mgs_text(c)
    assert text.count("(") == 400 and "({a1198,a1199,z,f1199,f1198},{d1197})" in text
    # deleting all but z empties every d branch; keeping them keeps a marking
    assert is_breakoff(c, places(c) - {"z"})
    assert not is_breakoff(c, {p for p in places(c) if not p.startswith(("z", "d"))})
    d = delete_places(c, {"z"})
    assert places(d) == places(c) - {"z"}
    assert mgs_text(d) == text.replace("a1199,z,", "a1199,")


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


# ── exactness of the inclusion test ─────────────────────────────────────────


def _random_ctree(rng: random.Random, labels: list[str], depth: int = 0) -> CNode:
    """A C-tree over labels popped from ``labels`` (so unique): blocks of one
    to three branches, and nodes below the root that may be empty."""
    elements: list = []
    for _ in range(rng.randint(0 if depth else 1, 3)):
        if labels and (depth == 3 or rng.random() < 0.5):
            elements.append(labels.pop())
        elif depth < 3:
            width = rng.choice((1, 2, 2, 3))
            elements.append(
                CBlock(tuple(_random_ctree(rng, labels, depth + 1) for _ in range(width)))
            )
    return CNode(tuple(elements))


def _relabel(c: CNode, mapping: dict[str, str]) -> CNode:
    return CNode(tuple(
        mapping.get(el, el) if isinstance(el, str)
        else CBlock(tuple(_relabel(b, mapping) for b in el.branches))
        for el in c.elements
    ))


def _spread_pair(rng: random.Random, labels: list[str]) -> tuple[CNode, CNode]:
    """``e`` beside a choice of products, and ``e`` beside the product of
    choices over the same cells: each factor of the first spreads over
    several factors of the second, whose markings include the first's."""
    rows, cols = rng.randint(2, 3), rng.randint(2, 3)
    cells = [[_random_ctree(rng, labels, 2) for _ in range(cols)] for _ in range(rows)]
    choice = CNode(tuple(CBlock(tuple(row)) for row in cells))
    product = CNode((CBlock(tuple(
        CNode(tuple(el for row in cells for el in row[k].elements)) for k in range(cols)
    )),))
    return tuple(CNode((CBlock((CNode(("e",)), n)),)) for n in (choice, product))


def _ctree_pair(seed: int) -> tuple[CNode, CNode]:
    """Two trees over one small alphabet, of one of five kinds by seed."""
    rng = random.Random(seed)
    alphabet = [f"x{i}" for i in range(rng.randint(3, 9))]
    a = _random_ctree(rng, rng.sample(alphabet, len(alphabet)))
    labels = sorted(places(a))
    kind = seed % 5
    if kind == 4:  # factors that spread over several target factors
        a, b = _spread_pair(rng, rng.sample(alphabet, len(alphabet)) + ["y1", "y2", "y3"])
        labels = sorted(places(b))
        if rng.random() < 0.3 and len(labels) >= 2:
            x, y = rng.sample(labels, 2)
            b = _relabel(b, {x: y, y: x})
    elif kind == 1 and len(labels) >= 2:  # label-permuted copy
        moved = rng.sample(labels, rng.randint(2, len(labels)))
        b = _relabel(a, dict(zip(moved, moved[1:] + moved[:1])))
    elif kind == 2:  # deletion residue, dead branches included
        b = delete_places(a, set(rng.sample(labels, rng.randint(0, len(labels)))))
    else:  # another tree over the same labels, or the gcs trees of a place
        b = _random_ctree(rng, rng.sample(alphabet, len(alphabet)))
        common = sorted(places(a) & places(b))
        if kind == 3 and common:
            p = rng.choice(common)
            a, b = gcs(p, a), gcs(p, b)
    return (a, b) if rng.random() < 0.5 else (b, a)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_inclusion_is_exact_on_random_ctrees(seed):
    a, b = _ctree_pair(seed)
    assert mpe_exists(a, b) == (markings_of(a) <= markings_of(b))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), data=st.data())
def test_membership_is_exact_on_random_ctrees(seed, data):
    a, b = _ctree_pair(seed)
    valid = markings_of(a)
    assert all(generates(a, m) for m in valid)
    m = _subset(data, places(a) | places(b) | {"zz"}, "m")
    assert generates(a, m) == (m in valid)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_inclusion_is_exact_on_transposed_pairs(seed):
    # whole trees and every gcs pair of a block tree and a transposition of it
    rng = random.Random(seed)
    old = random_tree(rng, 5, 12)
    new = mutate_transpose_places(old, rng) or old
    c, c2 = build_ctree(old), build_ctree(new)
    pairs = [(c, c2), (c2, c)]
    pairs += [(gcs(p, c), gcs(p, c2)) for p in sorted(places(c))]
    for a, b in pairs:
        assert mpe_exists(a, b) == (markings_of(a) <= markings_of(b))
