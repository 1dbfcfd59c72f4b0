"""Concurrency trees: a compact generator for every marking of a net.

A concurrency tree (C-tree) abstracts a block-structured net down to what can
be marked together.  A :class:`CNode` holds, in walk order, elements that are
mutually exclusive alternatives — place labels plus :class:`CBlock` elements.
A CBlock stands for a parallel block: it holds one branch CNode per parallel
branch, and a marking drawn from it takes one sub-marking from *every*
branch.  Sequences, choices, and loops never deepen the tree; only parallel
blocks do.

Every tree is in normal form, a canonical cotree (Corneil, Lerchs & Stewart
Burlingham 1981): a node drops each block with a branch that has no elements,
as such a block generates nothing, and takes in the elements of a block with
one branch; a block takes in the branches of a branch that holds nothing but
a block.  Nodes are built children first, so one level of splicing in the
constructors keeps the form: every element generates a marking, a node does
iff it has one, no block has one branch, and no branch is a bare block.

On top of the tree this module provides: the set of places concurrent with a
given place (:func:`gcs`), one marking drawn at random
(:func:`sample_marking`), deletion of places, break-off sets (place sets
hitting every marking, :func:`is_breakoff`: decided bottom-up from the
branches that meet the set, without building the deleted tree), and one
exact inclusion test (:func:`mpe_exists`) that decides whether every
marking one tree generates is also generable by another.  Membership of one
marking (:func:`generates`) is that test on the marking's own tree.

No function here recurses.  Every walk (building, seeding the intern
table, place sets, sampling, deletion, break-off, rendering) is a generator
fold run by ``ecws._drive``, one step per C-node it enters, and a place is
found by following ``CNode.branch_of`` down from the root (:func:`locate`).
The build reads the choice and loop sequences of a node inside the node's
own step.  Break-off and deletion skip the branches whose filled
``place_set`` misses the labels, and neither fills a set.
Place sets are filled on first read, never at construction: on a chain of
parallel blocks they hold a number of labels quadratic in its depth, which
a build or a deletion whose sets nobody reads should not pay for.
``CNode`` and ``CBlock`` compare, hash and print through ``ecws._Nested``
on that driver, with the dataclass results, which read ``elements`` and
``branches`` only.

The new net's tree can be built like the old one's, through an intern table
(:func:`build_ctree`), so the two share every subtree they have in common,
and the checks on the pair stop where both sides are one object: their cost
follows the change, not the net.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections.abc import Generator
from dataclasses import dataclass, field
from functools import cached_property

from .ecws import AndBlock, BlockTree, Place, SeqBlock, Transition, _drive, _Nested, branches_of
from .errors import UnknownPlaceError
from .wfnet import Marking

# ── tree types ──────────────────────────────────────────────────────────────


@dataclass(frozen=True, eq=False, repr=False)
class CNode(_Nested):
    """Mutually exclusive alternatives: place labels and parallel blocks.

    Construction keeps the normal form: it drops each block with a branch that
    has no elements and splices in the elements of a block with one branch.
    It sets the facts after ``elements`` from the kept ones.
    """

    elements: tuple["str | CBlock", ...]
    own_places: frozenset[str] = field(init=False, repr=False, compare=False)
    blocks: tuple["CBlock", ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        facts, elements = self.__dict__, self.elements
        own = [el for el in elements if el.__class__ is str]
        facts["own_places"], facts["blocks"] = frozenset(own), ()
        if len(own) == len(elements):
            return
        blocks = [el for el in elements if el.__class__ is not str]
        # every node of a net's tree returns here, without a loop in Python
        if all([len(b.branches) != 1 and all([br.elements for br in b.branches]) for b in blocks]):
            facts["blocks"] = tuple(blocks)
            return
        kept: list[str | CBlock] = []
        for el in elements:
            if el.__class__ is str:
                kept.append(el)
            elif len(el.branches) == 1:
                kept += el.branches[0].elements
            elif all([br.elements for br in el.branches]):
                kept.append(el)
        facts["elements"] = tuple(kept)
        facts["own_places"] = frozenset([el for el in kept if el.__class__ is str])
        facts["blocks"] = tuple([el for el in kept if el.__class__ is not str])

    @property
    def generable(self) -> bool:
        """Does the node generate a marking (in normal form: has it any element)?"""
        return bool(self.elements)

    @cached_property
    def place_set(self) -> frozenset[str]:
        """Every place that some marking of this node holds.  One fold fills
        the set of every node below that has none yet, bottom-up."""

        def fold(node: CNode) -> Generator[CNode, frozenset[str], frozenset[str]]:
            facts = node.__dict__
            if "place_set" not in facts:
                out = set(node.own_places)
                for block in node.blocks:
                    for branch in block.branches:
                        out |= yield branch
                facts["place_set"] = frozenset(out)
            return facts["place_set"]

        return _drive(fold, self)

    @cached_property
    def branch_of(self) -> dict[str, tuple["CBlock", int]]:
        """Every place below a block of this node mapped to the first block
        and the index of its first branch holding it, so a lookup costs one
        probe, not one per block or branch."""
        index: dict[str, tuple[CBlock, int]] = {}
        # last block and branch first, so the first one holding a place wins
        for block in reversed(self.blocks):
            for j in range(len(block.branches) - 1, -1, -1):
                index.update(dict.fromkeys(block.branches[j].place_set, (block, j)))
        return index


@dataclass(frozen=True, eq=False, repr=False)
class CBlock(_Nested):
    """A parallel block: one branch node per concurrent branch.

    Construction keeps the normal form: a branch that holds nothing but one
    block is replaced by that block's branches, so a block is a flat product.
    """

    branches: tuple[CNode, ...]

    def __post_init__(self) -> None:
        if any([len(br.elements) == 1 and br.blocks for br in self.branches]):
            flat: list[CNode] = []
            for br in self.branches:
                flat += br.blocks[0].branches if len(br.elements) == 1 and br.blocks else (br,)
            self.__dict__["branches"] = tuple(flat)


CTree = CNode


# ── construction ────────────────────────────────────────────────────────────


def build_ctree(tree: BlockTree, like: CTree | None = None) -> CTree:
    """Abstract a block tree into its concurrency tree.

    Places of sequences, choice branches, and both loop parts all land in the
    same node; each parallel block becomes a CBlock element with one branch
    node per parallel branch.  One fold builds every node after its
    children, in one step per node: a step reads its sequence's choices and
    loops from a stack of its own, in walk order, and yields only parallel
    branches, each the sequence of a node below.  No place set is filled.

    Given ``like`` (say, the old net's tree when building the new one's),
    every node and block goes through one intern table that starts with all
    of the subtrees of ``like``, so every subtree the two trees have in
    common is one shared object, and checks on the pair can stop where
    ``x is y``.  The table lives for this call only.  Without ``like``
    nothing is interned: the places of a net are distinct, so no two
    subtrees of its tree are equal.
    """
    if like is None:
        node, block = CNode, CBlock
    else:
        table = _Interner(like)
        node, block = table.node, table.block

    def step(seq: SeqBlock) -> Generator[SeqBlock, CNode, CNode]:
        # one C-node: the places and blocks of a parallel branch (or of the
        # root) and of its choices and loops, read in walk order from an own
        # stack of the sequences still open; only parallel branches are
        # yielded, as each is a C-node of its own
        out: list[str | CBlock] = []
        todo = [iter(seq.children)]
        while todo:
            for child in todo[-1]:
                kind = child.__class__
                if kind is Place:
                    out.append(child.label)
                elif kind is AndBlock:
                    branches = []
                    for branch in child.branches:
                        branches.append((yield branch))
                    out.append(block(tuple(branches)))
                elif kind is not Transition:
                    todo += [iter(branch.children) for branch in reversed(branches_of(child))]
                    break
            else:
                todo.pop()
        return node(tuple(out))

    return _drive(step, tree)


class _Interner:
    """Hash-consing for C-subtrees (Filliâtre & Conchon 2006).

    A node is keyed by its labels and the identities of its blocks, a block
    by the identities of its branches, in two tables; the children are
    interned first, so equal keys mean equal subtrees, and no key hashes a
    subtree.  The table holds every object whose id it keys on, so no id is
    reused while it lives.  It starts with every subtree of ``like``.
    """

    def __init__(self, like: CTree) -> None:
        self.nodes: dict[tuple[str | int, ...], CNode] = {}
        self.blocks: dict[tuple[int, ...], CBlock] = {}

        def seed(node: CNode) -> Generator[CNode, None, None]:
            self.nodes.setdefault(_node_key(node.elements), node)
            for block in node.blocks:
                self.blocks.setdefault(tuple(map(id, block.branches)), block)
                for branch in block.branches:
                    yield branch

        _drive(seed, like)

    def node(self, elements: tuple[str | CBlock, ...]) -> CNode:
        key = _node_key(elements)
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = CNode(elements)
        return node

    def block(self, branches: tuple[CNode, ...]) -> CBlock:
        key = tuple(map(id, branches))
        block = self.blocks.get(key)
        if block is None:
            block = self.blocks[key] = CBlock(branches)
        return block


def _node_key(elements: tuple[str | CBlock, ...]) -> tuple[str | int, ...]:
    return tuple([el if el.__class__ is str else id(el) for el in elements])


def places(c: CTree) -> frozenset[str]:
    """All place labels anywhere in the tree: the root's ``place_set``.
    No package code calls it; it stays public for library users and for
    the benchmark's tracer, which wraps it by name."""
    return c.place_set


# ── concurrent-submarking generator ─────────────────────────────────────────


def locate(p: str, c: CTree) -> tuple[list[tuple[CBlock, int]], CNode]:
    """The route to ``p`` and the node at its end: the chain of ``branch_of``
    steps (a block and a branch index) from the root down to the first node
    in preorder holding ``p`` as an own place (only a hand-built tree can
    hold a label twice)."""
    steps: list[tuple[CBlock, int]] = []
    node = c
    try:
        while p not in node.own_places:
            block, i = step = node.branch_of[p]
            steps.append(step)
            node = block.branches[i]
    except KeyError:
        raise UnknownPlaceError(f"place {p!r} does not occur in the tree") from None
    return steps, node


def gcs(p: str, c: CTree) -> CTree:
    """The sub-tree generating exactly the markings concurrent with ``p``.

    That is the product of the sibling branches along the route from the root
    to p's node: one block holding, at each level, the branches beside the
    on-path one, in their order around it.  A place held by the root node is
    concurrent with nothing: its result is the empty tree.
    """
    route, _ = locate(p, c)
    if not route:
        return CNode(())
    before: list[CNode] = []
    after: list[CNode] = []
    for block, i in route:
        before += block.branches[:i]
        after += reversed(block.branches[i + 1:])
    return CNode((CBlock((*before, *reversed(after))),))


# ── marking generation ──────────────────────────────────────────────────────


def sample_marking(c: CTree, rng: random.Random | None = None) -> Marking:
    """Draw one marking at random; raises ValueError on a dysfunctional tree."""
    rng = rng or random.Random()
    if not c.generable:
        raise ValueError("the tree generates no markings")

    def draw(node: CNode) -> Generator[CNode, Marking, Marking]:
        el = rng.choice(node.elements)
        if isinstance(el, str):
            return frozenset((el,))
        picked: frozenset[str] = frozenset()
        for branch in el.branches:
            picked |= yield branch
        return picked

    return _drive(draw, c)


def generates(c: CTree, m: Marking) -> bool:
    """Is ``m`` one of the markings the tree generates?  The inclusion test
    on the tree whose only marking is ``m``."""
    return mpe_exists(CNode((CBlock(tuple(CNode((p,)) for p in m)),)), c)


# ── deletion, break-off ─────────────────────────────────────────────────────


def _may_meet(branch: CNode, labels: frozenset[str] | set[str]) -> bool:
    """Must a fold over ``labels`` enter ``branch``: is its ``place_set``
    not filled yet, or does it meet them?  Deletion and break-off skip every
    other branch, and neither fills a set: on a chain of parallel blocks the
    sets hold a number of labels quadratic in its depth."""
    known = branch.__dict__.get("place_set")
    return known is None or not known.isdisjoint(labels)


def delete_places(c: CTree, labels: frozenset[str] | set[str]) -> CTree:
    """Remove the given places from every node, and so every block left with
    an empty branch: the result generates the markings of ``c`` avoiding them.

    A node or block with nothing deleted below it is returned as the same
    object, so only the nodes on the paths to deleted places are rebuilt,
    and the deletions of two trees that share subtrees share them too.
    A branch whose ``place_set`` is already filled (``change_sets`` fills
    those of both trees) and misses ``labels`` comes back unvisited.  No
    place set is filled here: on a fresh tree the fold enters every branch.
    """

    def rebuild(node: CNode) -> Generator[CNode, CNode, CNode]:
        elements: list[str | CBlock] = []
        changed = False
        for el in node.elements:
            if not isinstance(el, str):
                branches = []
                for branch in el.branches:
                    if _may_meet(branch, labels):
                        branch = yield branch
                    branches.append(branch)
                if not all(map(operator.is_, branches, el.branches)):
                    el, changed = CBlock(tuple(branches)), True
                elements.append(el)
            elif el in labels:
                changed = True
            else:
                elements.append(el)
        return CNode(tuple(elements)) if changed else node

    return _drive(rebuild, c)


def is_breakoff(c: CTree, labels: frozenset[str] | set[str]) -> bool:
    """True iff every marking of the tree meets ``labels`` (equivalently:
    deleting them leaves the tree unable to generate any marking).

    Decided bottom-up, with no deleted copy: a node breaks off iff its own
    places lie in ``labels`` and each of its blocks has a branch that breaks
    off, as a product's marking meets ``labels`` iff some branch's share
    does.  A branch whose ``place_set`` misses ``labels`` has a marking that
    avoids them (in normal form every branch generates one), so the fold
    skips a branch whose set is filled and misses them, as deletion does.
    It fills no set, and a branch it enters that misses them does not break
    off, the answer that skipping it gives.  Exact on every tree in normal
    form, repeated labels included.
    """

    def breaks(node: CNode) -> Generator[CNode, bool, bool]:
        if not node.own_places <= labels:
            return False
        for block in node.blocks:
            for branch in block.branches:
                if _may_meet(branch, labels) and (yield branch):
                    break
            else:
                return False
        return True

    return _drive(breaks, c)


# ── exact marking inclusion ─────────────────────────────────────────────────

#: The ``CNode.branch_of`` answer for a place under none of the node's blocks.
_NOWHERE = (None, -1)


def mpe_exists(c: CTree, c2: CTree) -> bool:
    """Can ``c2`` generate every marking that ``c`` generates?

    Exact, and decided without search, for trees with unique labels where the
    empty marking is never one alternative among others (every tree built
    from a net, and its gcs trees and deletions): such a tree is a canonical
    cotree, its markings are the maximal cliques of the graph of concurrent
    places, and so no marking holds another.  A one-place marking ``{p}`` is
    then one of ``y`` iff p is an own place of ``y``, as no block has one
    branch.

    The test is a conjunction of obligations ``(views, y)``: every marking of
    the product of ``views`` is one of node ``y``.  A view is a node ``x`` and
    the places its share may hold (``cut``; None: all).  A product of two or
    more views is matched against the block of ``y`` that holds its places,
    each place read once from ``y.branch_of``.  One explicit stack holds the
    open obligations, and the first that fails decides.
    """
    # an own stack: it holds obligations, which pair nodes of two trees
    todo: list[tuple[list[tuple[CNode, frozenset[str] | None]], CNode]] = [([(c, None)], c2)]
    while todo:
        views, y = todo.pop()
        if len(views) == 1:
            # each alternative of x (a place, or a block as the product
            # of its branches) on its own; a share that leaves some marking
            # empty fails, as no marking of y holds another
            x, cut = views[0]
            if cut is None and x is y:  # a tree generates its own markings
                continue
            if not x.own_places <= y.own_places:
                return False
            for b in x.blocks:
                views = [(f, None if cut is None or f.place_set <= cut else f.place_set & cut)
                         for f in b.branches if cut is None or not f.place_set.isdisjoint(cut)]
                todo.append((views, y))
            continue
        if not views:  # the empty marking
            if not any(not b.branches for b in y.blocks):
                return False
            continue
        # Two or more branches give markings of two or more places that
        # overlap pairwise, so all lie in the block alternative of y holding
        # any one of their places: a place that y lacks, or that another
        # block holds, fails.  Each branch of that block must generate its
        # share; a view spread over several of them is cut into one view per
        # branch.
        index = y.branch_of
        x, cut = views[0]
        target = index.get(next(iter(cut or x.place_set)), _NOWHERE)[0]
        if target is None:
            return False
        branches = target.branches
        shares: list[list] = [[] for _ in branches]
        for x, cut in views:
            block, j = index.get(next(iter(cut or x.place_set)), _NOWHERE)
            if cut is None and block is target and x.place_set <= branches[j].place_set:
                shares[j].append((x, None))
                continue
            parts: dict[int, set[str]] = {}
            for p in cut or x.place_set:
                block, j = index.get(p, _NOWHERE)
                if block is not target:
                    return False
                parts.setdefault(j, set()).add(p)
            for j, part in parts.items():
                shares[j].append((x, frozenset(part)))
        if not all(shares):
            return False
        todo += zip(shares, branches)
    return True


# ── text and DOT rendering ──────────────────────────────────────────────────


def mgs_text(c: CTree) -> str:
    """Nested set/tuple notation: nodes in braces, blocks in parentheses."""

    def text(node: CNode) -> Generator[CNode, str, str]:
        parts = []
        for el in node.elements:
            if isinstance(el, str):
                parts.append(el)
            else:
                branches = []
                for branch in el.branches:
                    branches.append((yield branch))
                parts.append("(" + ",".join(branches) + ")")
        return "{" + ",".join(parts) + "}"

    return _drive(text, c)


def ctree_dot(c: CTree) -> str:
    """Graphviz text: nodes as boxes listing places, blocks as squares."""
    lines = ["digraph ctree {", "  rankdir=TB;"]
    counter = itertools.count(1)

    def emit_node(node: CNode) -> Generator[CNode, str, str]:
        name = f"n{next(counter)}"
        label = ",".join(el for el in node.elements if isinstance(el, str)) or "∅"
        lines.append(f'  {name} [shape=box, label="{label}"];')
        for block in node.blocks:
            block_name = f"b{next(counter)}"
            lines.append(f'  {block_name} [shape=square, label=""];')
            lines.append(f"  {name} -> {block_name};")
            for branch in block.branches:
                branch_name = yield branch
                lines.append(f"  {block_name} -> {branch_name};")
        return name

    _drive(emit_node, c)
    lines.append("}")
    return "\n".join(lines)
