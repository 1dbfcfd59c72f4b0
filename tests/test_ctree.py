"""Composition-tree behavior: marking generation, subtrees, deletion,
break-off sets, and the exact marking-inclusion test."""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from wfregions import (
    CBlock,
    CNode,
    Place,
    UnknownPlaceError,
    build_ctree,
    build_net,
    ctree_dot,
    delete_places,
    format_tree,
    gcs,
    generates,
    is_breakoff,
    mgs_text,
    mpe_exists,
    parse,
    places,
    random_net_pair,
    random_tree,
    reachable_markings,
    sample_marking,
)
from wfregions.randomnets import mutate_transpose_places

from conftest import composed_pair, deep_tree, load_fixture
from ctree_reference import markings_of

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
    assert mgs_text(gcs("p6", nested)) == "{({p5,p7},{p10,p11})}"


def test_gcs_of_root_place_is_empty(nested):
    # nothing runs concurrently with p1; the empty tree generates nothing
    assert mgs_text(gcs("p1", nested)) == "{}"
    assert markings_of(gcs("p1", nested)) == frozenset()


def test_gcs_single_level():
    c = build_ctree(parse("p1t1p2t2(p3t3p4t4p5)(p6t5p7)t6p8t7p9"))
    assert mgs_text(gcs("p3", c)) == "{p6,p7}"


def test_gcs_unknown_place(nested):
    with pytest.raises(UnknownPlaceError):
        gcs("zz", nested)


@pytest.mark.parametrize(
    "tree, expected",
    [
        # an own place of the root, and below a block
        (CNode(("a", CBlock((CNode(("a", "b")), CNode(("c",)))))), "{}"),
        # in two blocks of one node
        (CNode((CBlock((CNode(("b",)), CNode(("a", "x")))),
                CBlock((CNode(("a", "y")), CNode(("c",)))))), "{b}"),
        # in two branches of one block
        (CNode((CBlock((CNode(("x", "a")), CNode(("a", "y")), CNode(("z",)))),)),
         "{({a,y},{z})}"),
        # at two depths, the deeper one first, then the shallower one first
        (CNode((CBlock((CNode(("b", CBlock((CNode(("a",)), CNode(("c",)))))), CNode(("d",)))),
                CBlock((CNode(("a",)), CNode(("e",)))))), "{({c},{d})}"),
        (CNode((CBlock((CNode(("a",)), CNode(("e",)))),
                CBlock((CNode(("b", CBlock((CNode(("c",)), CNode(("a",)))))), CNode(("d",)))))),
         "{e}"),
        # at two depths in one branch, and an own place listed after a block
        (CNode(("r", CBlock((CNode(("x", CBlock((CNode(("a",)), CNode(("c",)))))),
                             CNode(("d", "a")), CNode(("f",)))))), "{({c},{d,a},{f})}"),
        (CNode(("r", CBlock((CNode(("b", CBlock((CNode(("a",)), CNode(("c",)))), "a")),
                             CNode(("d",)))))), "{d}"),
    ],
)
def test_gcs_of_a_repeated_label_reads_its_first_node(tree, expected):
    # hand-built trees may repeat a label: gcs reads the first node holding
    # it in preorder, a node's own places before the nodes below its blocks
    assert mgs_text(gcs("a", tree)) == expected


def test_gcs_generates_the_markings_concurrent_with_each_place():
    # every place outside the root node, on net trees and hand-built trees:
    # gcs(p) generates each marking holding p with p taken out
    trees = [build_ctree(random_tree(random.Random(seed), 6, 30)) for seed in range(300)]
    for seed in range(200):
        rng = random.Random(seed)
        alphabet = [f"x{i}" for i in range(rng.randint(3, 9))]
        trees.append(_random_ctree(rng, rng.sample(alphabet, len(alphabet))))
    for c in trees:
        generated = markings_of(c)
        for p in places(c) - c.own_places:
            assert markings_of(gcs(p, c)) == {m - {p} for m in generated if p in m}


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


def _generates_some(el: str | CBlock) -> bool:
    """Does the element generate a marking?  Read from the whole subtree."""
    return isinstance(el, str) or all(any(map(_generates_some, b.elements)) for b in el.branches)


def _filtered_draw(c: CNode, rng: random.Random) -> frozenset[str]:
    """The draw with the elements that generate a marking filtered at every
    node."""
    picked, stack = set(), [c]
    while stack:
        node = stack.pop()
        el = rng.choice([el for el in node.elements if _generates_some(el)])
        if isinstance(el, str):
            picked.add(el)
        else:
            stack += reversed(el.branches)
    return frozenset(picked)


def test_sample_marking_draws_as_the_filtered_draw():
    # one rng stream, one marking per draw: on net trees and on deletion
    # residues, some of which dropped a block left with an empty branch
    trees = [build_ctree(composed_pair(4)[0]), build_ctree(load_fixture("nested"))]
    trees += [build_ctree(random_tree(random.Random(s), 6, 30)) for s in range(20)]
    residues, dropped = [], 0
    for s, c in enumerate(trees):
        rng = random.Random(s)
        for _ in range(10):
            labels = set(rng.sample(sorted(places(c)), len(places(c)) // 4))
            d = delete_places(c, labels)
            if d.generable:
                residues.append(d)
                dropped += _places_below(d) != places(c) - labels
    assert dropped >= 20
    for s, c in enumerate(trees + residues):
        rng, rng2 = random.Random(s), random.Random(s)
        for _ in range(5):
            assert sample_marking(c, rng) == _filtered_draw(c, rng2)


def test_sample_marking_fails_on_dead_tree():
    c = build_ctree(parse(PARALLEL))
    dead = delete_places(c, places(c))
    with pytest.raises(ValueError):
        sample_marking(dead)


# ── deletion, dysfunction, break-off ─────────────────────────────────────────


def test_delete_drops_a_block_left_with_an_empty_branch():
    c = build_ctree(parse(PARALLEL))
    d = delete_places(c, {"p2", "p3"})
    # the block generates nothing without its first branch's places
    assert d == CNode(("p1", "p6")) and not d.blocks
    assert places(d) == {"p1", "p6"}
    # built by hand, the same node is the same normal form
    assert CNode(("p1", CBlock((CNode(()), CNode(("p4", "p5")))), "p6")) == d


def test_emptied_tree_is_dysfunctional():
    c = build_ctree(parse(PARALLEL))
    d = delete_places(c, {"p1", "p6", "p2", "p3"})
    assert not d.generable
    assert markings_of(d) == frozenset()


def test_partial_deletion_stays_functional():
    c = build_ctree(parse(PARALLEL))
    d = delete_places(c, {"p1", "p6", "p2"})
    assert d.generable
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


def test_inclusion_of_deep_trees_needs_no_recursion():
    # 200 and 500 nested parallel blocks, built apart so that no subtree is
    # shared; a test that recursed a few frames per level failed at both
    for depth in (600, 1500):
        c, c2 = build_ctree(deep_tree(depth)), build_ctree(deep_tree(depth))
        assert mpe_exists(c, c2) and mpe_exists(c2, c)
    # y in place of z at the bottom: neither tree has the other's inner markings
    c2 = build_ctree(deep_tree(depth, core=(Place("y"),)))
    assert not mpe_exists(c, c2) and not mpe_exists(c2, c)


def test_generation_and_dot_need_no_recursion():
    # 1,000 nested parallel blocks, past the default recursion limit
    c = build_ctree(deep_tree(3000))
    assert build_ctree(deep_tree(3000), like=c) is c
    assert ctree_dot(c).count("shape=square") == 1000
    sample_marking(c, random.Random(0))
    # the whole tree generates about 6,000 markings of about 3 million places
    # in all; keeping z and the d places leaves one marking through every level
    keep = {p for p in places(c) if p == "z" or p.startswith("d")}
    chain = delete_places(c, places(c) - keep)
    assert markings_of(chain) == {frozenset(keep)}
    assert sample_marking(chain, random.Random(0)) == keep


# ── sharing and identity ─────────────────────────────────────────────────────


def _nodes(c: CNode) -> list[CNode]:
    out, stack = [], [c]
    while stack:
        node = stack.pop()
        out.append(node)
        stack += [branch for block in node.blocks for branch in block.branches]
    return out


def _places_below(node: CNode) -> frozenset[str]:
    """The own places of a node and of every node below its blocks."""
    out, stack = set(), [node]
    while stack:
        n = stack.pop()
        out |= n.own_places
        stack += [branch for block in n.blocks for branch in block.branches]
    return frozenset(out)


def test_reading_a_place_set_fills_every_node_below():
    c = build_ctree(deep_tree(3000))
    assert c.place_set == _places_below(c)
    # each node holds its own set, so a query below the root costs nothing
    assert all("place_set" in node.__dict__ for node in _nodes(c))


def test_place_sets_hold_the_places_of_each_live_subtree():
    dropped = 0
    for seed in range(300):
        rng = random.Random(seed)
        c = build_ctree(random_tree(rng, 6, 30))
        labels = sorted(places(c))
        deleted = set(rng.sample(labels, rng.randint(1, len(labels))))
        d = delete_places(c, deleted)
        for tree in (c, d):
            tree.place_set  # fills the sets below the blocks first
            for node in _nodes(tree):
                assert node.place_set == _places_below(node)
        dropped += _places_below(d) != places(c) - deleted
    assert dropped >= 50  # residues where deletion dropped a block are covered


def test_building_like_a_tree_shares_its_unchanged_subtrees():
    old, new = composed_pair(3, changed=(2, 0))
    c = build_ctree(old)
    assert build_ctree(old, like=c) is c
    c2 = build_ctree(new, like=c)
    assert c2 == build_ctree(new)
    # one block per chunk: all but the third chunk's are the same objects
    assert len(c.blocks) == 6
    assert [k for k, (b, b2) in enumerate(zip(c.blocks, c2.blocks)) if b is not b2] == [2]


def test_deletion_rebuilds_only_the_paths_to_deleted_places():
    c = build_ctree(composed_pair(3)[0])
    assert delete_places(c, set()) is c
    assert delete_places(c, {"no_such_place"}) is c
    before = {id(n) for n in _nodes(c)}
    # each place's route: one (block, branch index) step per level below the
    # root, and the node holding the place (labels of a net are distinct)
    routes, stack = {}, [(c, ())]
    while stack:
        node, route = stack.pop()
        routes.update(dict.fromkeys(node.own_places, (route, node)))
        for block in node.blocks:
            stack += [(branch, (*route, (id(block), i))) for i, branch in enumerate(block.branches)]
    # deep places whose node keeps another element, so no block is dropped
    deep = sorted(
        p for p, (route, node) in routes.items() if len(route) >= 2 and len(node.elements) > 1
    )
    for labels in ({deep[0]}, {deep[0], deep[-1]}):
        d = delete_places(c, labels)
        assert places(d) == places(c) - labels
        # a node is named by its route: the root and each node down to a label
        on_paths = {routes[p][0][:k] for p in labels for k in range(len(routes[p][0]) + 1)}
        assert sum(id(n) not in before for n in _nodes(d)) == len(on_paths)


def test_only_a_tree_with_a_block_of_no_branches_generates_the_empty_marking():
    # such a block is the product of no branches, whose one marking is empty;
    # no tree built from a net holds one
    for c in (CNode((CBlock(()),)), CNode(("p1", CBlock(())))):
        assert frozenset() in markings_of(c) and generates(c, frozenset())
    c = build_ctree(parse(PARALLEL))
    assert frozenset() not in markings_of(c) and not generates(c, frozenset())


def test_a_tree_includes_itself_and_an_equal_copy():
    # the copy shares no node with c, so the test walks the whole tree
    c = build_ctree(composed_pair(5)[0])
    copy = build_ctree(composed_pair(5)[0])
    assert copy == c and not {id(n) for n in _nodes(c)} & {id(n) for n in _nodes(copy)}
    assert mpe_exists(c, c) and mpe_exists(c, copy) and mpe_exists(copy, c)


def test_block_lookup_index_equals_the_linear_scans():
    # 30 parallel chunks in the root, plus every deeper node, one-block ones too
    c = build_ctree(composed_pair(11, chunks=30)[0])
    assert len(c.blocks) == 30
    assert any(len(y.blocks) == 1 for y in _nodes(c))
    for y in _nodes(c):
        for p in sorted(y.place_set) + ["no_such_place"]:
            scan = next(
                ((b, j) for b in y.blocks for j, f in enumerate(b.branches) if p in f.place_set),
                None,
            )
            hit = y.branch_of.get(p)
            if scan is None:
                assert hit is None
            else:
                assert hit[0] is scan[0] and hit[1] == scan[1]


# ── equality, hash and text ─────────────────────────────────────────────────

#: ``CNode`` and ``CBlock`` as plain frozen dataclasses with the same names
#: and compared fields: the generated ``==``, ``hash`` and ``repr`` that the
#: C-tree types replace.
_GENERATED = {
    CNode: dataclasses.make_dataclass("CNode", ["elements"], frozen=True),
    CBlock: dataclasses.make_dataclass("CBlock", ["branches"], frozen=True),
}


def _generated(x):
    """``x`` rebuilt from the :data:`_GENERATED` classes as it stands, with no
    normalising (it recurses)."""
    if isinstance(x, str):
        return x
    (field,) = (f for f in dataclasses.fields(x) if f.compare)
    return _GENERATED[type(x)](tuple(map(_generated, getattr(x, field.name))))


def _protocol_matches(trees: list, pairs: list[tuple]) -> None:
    for t in trees:
        g = _generated(t)
        assert (hash(t), repr(t)) == (hash(g), repr(g))
    for a, b in pairs:
        assert (a == b, a != b) == (_generated(a) == _generated(b), _generated(a) != _generated(b))


def test_ctree_types_compare_hash_and_print_as_dataclasses():
    equal = 0
    for seed in range(1000):
        old, new = random_net_pair(random.Random(seed), 6, 30)
        c = build_ctree(old)
        c2, apart = build_ctree(new, like=c), build_ctree(new)  # apart shares nothing
        labels = sorted(places(c))
        rng = random.Random(seed)
        deleted = [set(rng.sample(labels, rng.randint(1, len(labels)))) for _ in range(2)]
        cuts = [delete_places(t, gone) for gone in deleted for t in (c, apart)]
        subtrees = [(gcs(p, c), gcs(p, apart)) for p in labels if p in places(apart)]
        pairs = [(c, c2), (c, apart), (c2, apart), (cuts[0], cuts[1]), (cuts[2], cuts[3])]
        pairs += subtrees
        _protocol_matches([c, c2, *cuts, *(x for pair in subtrees for x in pair)], pairs)
        equal += sum(a == b for a, b in pairs)
    assert equal > 5000  # many pairs walk to the bottom of two equal trees
    # hand-built trees, as the constructors normalise them, and random ones
    # with one-branch blocks, empty branches and bare-block branches
    hand = [
        CNode(()),
        CNode(("a", CBlock((CNode(("b",)),)), "c")),
        CNode(("a", CBlock((CNode(()), CNode(("b",)))))),
        CNode((CBlock((CNode((CBlock((CNode(("a",)), CNode(("b",)))),)), CNode(("c",)))),)),
        CBlock((CNode(("a",)), CNode((CBlock((CNode(("b",)), CNode(("c",)))),)))),
        CBlock(()),
    ]
    hand += [_random_ctree(random.Random(seed), [f"x{i}" for i in range(9)]) for seed in range(300)]
    _protocol_matches(hand, list(zip(hand, hand[1:])) + list(zip(hand, hand[2:])))
    # a different type is unequal, at the top or further down
    node = CNode(("a", "b"))
    assert node.__eq__(node.elements) is NotImplemented and node != _generated(node)
    block = CBlock((CNode(("b",)), CNode(("c",))))
    assert CNode(()) != CBlock(()) and CNode(("a", block)) != CNode(("a", "b"))
    # the facts beside the elements stay fields, and out of the protocol
    shown = {cls: [(f.name, f.compare, f.repr) for f in dataclasses.fields(cls)] for cls in _GENERATED}
    assert shown == {
        CNode: [("elements", True, True), ("own_places", False, False), ("blocks", False, False)],
        CBlock: [("branches", True, True)],
    }


def test_deep_ctrees_compare_hash_and_print_without_recursion():
    # 1,000 nested parallel blocks, past the default recursion limit; the
    # generated dataclass methods recursed a few frames per level
    c, same = build_ctree(deep_tree(3000)), build_ctree(deep_tree(3000))
    assert c == same and not c != same and hash(c) == hash(same)
    text = repr(c)
    assert text == repr(same) and text.count("CBlock(") == 1000
    assert text.startswith("CNode(elements=('a0', CBlock(branches=(CNode(elements=('a1', ")
    # y in place of z at the bottom: built like c, the twin shares every d
    # branch with it, and nothing with a copy built apart
    twin = build_ctree(deep_tree(3000, core=(Place("y"),)), like=c)
    apart = build_ctree(deep_tree(3000, core=(Place("y"),)))
    assert twin != c and twin == apart and hash(twin) == hash(apart)
    assert repr(twin) == repr(apart) == text.replace("'z'", "'y'")
    # deleting the innermost node's places drops the deepest block, then z alone
    inner = {"a2998", "a2999", "z", "f2999", "f2998"}
    for labels in (inner, {"z"}):
        cut, cut_same = delete_places(c, labels), delete_places(same, labels)
        assert cut != c and cut == cut_same and hash(cut) == hash(cut_same)
        assert repr(cut) == repr(cut_same)
    assert repr(delete_places(c, inner)).count("CBlock(") == 999
    assert repr(delete_places(c, {"z"})) == text.replace("'z', ", "")


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


def test_no_embedding_when_a_product_spans_two_blocks_of_the_target():
    # the marking {a, b} of x is no marking of y, where a and b lie in two
    # blocks; b's branch index is one that a's block has, or one it lacks
    a, b = CNode(("a",)), CNode(("b",))
    x = CNode((CBlock((a, b)),))
    for beside in ((CNode(("d",)),), (CNode(("d",)), CNode(("e",)))):
        y = CNode((CBlock((a, CNode(("c",)))), CBlock((*beside, b))))
        assert markings_of(x) == {frozenset("ab")} and frozenset("ab") not in markings_of(y)
        assert not mpe_exists(x, y)
        assert mpe_exists(x, CNode((CBlock((a, b)), CBlock((CNode(("c",)), *beside)))))


def test_no_embedding_when_branch_counts_differ():
    # a third parallel branch puts an extra token in every marking, so the
    # two-branch fork cannot embed into the three-branch one
    two = build_ctree(parse("p1t1(p2t2p3)(p4t3p5)t4p6"))
    three = build_ctree(parse("p1t1(p2t2p3)(p4t3p5)(p7t5p8)t4p6"))
    assert not mpe_exists(two, three)
    assert not (markings_of(two) <= markings_of(three))


# ── pinned outputs ───────────────────────────────────────────────────────────


def test_tree_outputs_are_pinned():
    # the printed text and both renderings of every C-tree, the new one also
    # built like the old one's, as analyze builds it
    pairs = [random_net_pair(random.Random(seed), 6, 30) for seed in range(2000)]
    pairs += [composed_pair(seed) for seed in range(10)]
    digests = {name: hashlib.sha256() for name in ("text", "mgs", "dot")}
    for old, new in pairs:
        c = build_ctree(old)
        for tree in (old, new):
            digests["text"].update((format_tree(tree) + "\n").encode())
        for ctree in (c, build_ctree(new), build_ctree(new, like=c)):
            digests["mgs"].update((mgs_text(ctree) + "\n").encode())
            digests["dot"].update((ctree_dot(ctree) + "\n").encode())
    assert {name: d.hexdigest() for name, d in digests.items()} == PINNED_TREE_OUTPUTS


PINNED_TREE_OUTPUTS = {
    "text": "728211c3ee4ee4d1e1dd02f58c7a949e154ebc1132b931d8f14d27d623e152f8",
    "mgs": "0466c7c98f6b10eca9e7f854dba7ef5f8babbeb4e697880d17040391b53efa13",
    "dot": "300860c2b36c3c20668d85ee4cfa294f8108730db1dfe633a518cf74f0bffbd3",
}


def _residues() -> list[tuple[CNode, frozenset[str], CNode]]:
    """``(c, L, delete_places(c, L))`` for 200 net trees and 200 hand-built
    trees, ``L`` drawn from the labels each tree was built over."""
    out = []
    for seed in range(200):
        rng = random.Random(seed)
        c = build_ctree(random_tree(rng, 6, 30))
        labels = sorted(places(c))
        out.append((c, frozenset(rng.sample(labels, rng.randint(1, len(labels))))))
    for seed in range(200):
        rng = random.Random(seed)
        alphabet = [f"x{i}" for i in range(rng.randint(3, 9))]
        c = _random_ctree(rng, rng.sample(alphabet, len(alphabet)))
        out.append((c, frozenset(rng.sample(alphabet, rng.randint(0, len(alphabet))))))
    return [(c, labels, delete_places(c, labels)) for c, labels in out]


def test_deletion_residues_are_pinned():
    # deleting L keeps exactly the markings that avoid L; the break-off and
    # inclusion answers, and apart from them three seeded draws on each
    # residue, are pinned
    facts, draws = hashlib.sha256(), hashlib.sha256()
    for i, (c, labels, d) in enumerate(_residues()):
        assert markings_of(d) == {m for m in markings_of(c) if not m & labels}
        rng = random.Random(i)
        drawn = [sorted(sample_marking(d, rng)) for _ in range(3)] if d.generable else []
        answers = (is_breakoff(c, labels), d.generable, mpe_exists(d, c), mpe_exists(c, d))
        facts.update((repr(answers) + "\n").encode())
        draws.update((repr(drawn) + "\n").encode())
    assert facts.hexdigest() == PINNED_RESIDUE_FACTS
    assert draws.hexdigest() == PINNED_RESIDUE_DRAWS


PINNED_RESIDUE_FACTS = "d1f31b87688f6413c8508008131ac98c593378cc8eaa1b90e240d28830223db0"
PINNED_RESIDUE_DRAWS = "1cee3ac0ef2a6fe60cde50f0521555646c8ee7d4107e3a677834d13d11fa5f61"


def test_every_tree_is_in_normal_form():
    # built from a net, by hand, by deletion or by gcs: no block has an empty
    # branch or one branch, and no branch is a bare block
    for c, _, d in _residues():
        for tree in (c, d, *(gcs(p, c) for p in sorted(places(c)))):
            for node in _nodes(tree):
                for block in node.blocks:
                    assert len(block.branches) != 1
                    for branch in block.branches:
                        assert branch.elements
                        assert branch.own_places or len(branch.elements) > 1
            assert places(tree) == _places_below(tree)


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
    assert d.generable == bool(markings_of(d))


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
