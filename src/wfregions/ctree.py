"""Concurrency trees: a compact generator for every marking of a net.

A concurrency tree (C-tree) abstracts a block-structured net down to what can
be marked together.  A :class:`CNode` holds, in walk order, elements that are
mutually exclusive alternatives — place labels plus :class:`CBlock` elements.
A CBlock stands for a parallel block: it holds one branch CNode per parallel
branch, and a marking drawn from it takes one sub-marking from *every*
branch.  Sequences, choices, and loops never deepen the tree; only parallel
blocks do.

On top of the tree this module provides: the set of places concurrent with a
given place (:func:`gcs`), exhaustive and sampled marking generation,
deletion of places, the dysfunctionality test (can the tree still generate a
marking?), break-off sets (place sets hitting every marking), and one exact
inclusion test (:func:`mpe_exists`) that decides whether every marking one
tree generates is also generable by another.  Membership of one marking
(:func:`generates`) is that test on the marking's own tree.

No function here recurses: each walk keeps its pending work on an explicit
stack, so no nesting depth exhausts Python's call stack.

The new net's tree can be built like the old one's, through an intern table
(:func:`build_ctree`), so the two share every subtree they have in common,
and the checks on the pair stop where both sides are one object: their cost
follows the change, not the net.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections.abc import Callable, Generator, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from .ecws import AndBlock, BlockTree, Element, Place, Transition, branches_of
from .errors import UnknownPlaceError
from .wfnet import Marking

# ── tree types ──────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class CNode:
    """Mutually exclusive alternatives: place labels and parallel blocks.

    The facts after ``elements`` are set from the children's on construction.
    """

    elements: tuple["str | CBlock", ...]
    own_places: frozenset[str] = field(init=False, repr=False, compare=False)
    live_blocks: tuple["CBlock", ...] = field(init=False, repr=False, compare=False)
    generable: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        facts, elements = self.__dict__, self.elements
        own = [el for el in elements if el.__class__ is str]
        facts["own_places"] = frozenset(own)
        if len(own) == len(elements):
            facts["live_blocks"], facts["generable"] = (), bool(own)
        else:
            live = tuple([el for el in elements if el.__class__ is not str and el.generable])
            facts["live_blocks"], facts["generable"] = live, bool(own or live)

    @cached_property
    def blocks(self) -> tuple["CBlock", ...]:
        return tuple(el for el in self.elements if isinstance(el, CBlock))

    @cached_property
    def place_set(self) -> frozenset[str]:
        """Every place that some marking of this node holds, in one walk that
        reuses the sets already known below."""
        out: set[str] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if "place_set" in node.__dict__:
                out |= node.place_set
            else:
                out |= node.own_places
                stack += [branch for b in node.live_blocks for branch in b.branches]
        return frozenset(out)

    @cached_property
    def place_index(self) -> dict[str, "Route"]:
        """Every place below this node mapped to its route, in one walk.

        Places held by one node share one route object, so a route's
        identity names the node.  A label occurring twice keeps the route of
        its first node in walk order (own places before blocks).
        """
        index: dict[str, Route] = {}
        stack: list[tuple[CNode, Route]] = [(self, ())]
        while stack:
            node, route = stack.pop()
            for el in node.elements:
                if isinstance(el, str):
                    index.setdefault(el, route)
            for block in reversed(node.blocks):
                for i in reversed(range(len(block.branches))):
                    stack.append((block.branches[i], (*route, (block, i))))
        return index

    @cached_property
    def block_index(self) -> dict[str, "CBlock"]:
        """Every place of a live block's factors mapped to the first live
        block holding it, so a lookup costs one probe, not one per block."""
        index: dict[str, CBlock] = {}
        for block in self.live_blocks:
            for p in block.factor_index:
                index.setdefault(p, block)
        return index


@dataclass(frozen=True)
class CBlock:
    """A parallel block: one branch node per concurrent branch."""

    branches: tuple[CNode, ...]

    @property
    def generable(self) -> bool:
        """Does every branch generate a marking (so the block realizes one)?"""
        return all(b.generable for b in self.branches)

    @cached_property
    def factors(self) -> tuple[CNode, ...]:
        """The block as a flat product: a branch holding nothing but one live
        block stands for that block's factors."""
        out: list[CNode] = []
        stack = list(reversed(self.branches))
        while stack:
            node = stack.pop()
            if not node.own_places and len(node.live_blocks) == 1:
                stack.extend(reversed(node.live_blocks[0].branches))
            elif node.place_set:  # a node without places holds only the empty marking
                out.append(node)
        return tuple(out)

    @cached_property
    def factor_index(self) -> dict[str, int]:
        """Every place of the factors mapped to the index of the first
        factor holding it."""
        index: dict[str, int] = {}
        for j, factor in enumerate(self.factors):
            for p in factor.place_set:
                index.setdefault(p, j)
        return index


CTree = CNode

#: Route from a tree's root to a node: one (on-path block, branch index) step
#: per nesting level.  The root's route is the empty tuple.
Route = tuple[tuple[CBlock, int], ...]


# ── construction ────────────────────────────────────────────────────────────


def build_ctree(tree: BlockTree, like: CTree | None = None) -> CTree:
    """Abstract a block tree into its concurrency tree.

    Places of sequences, choice branches, and both loop parts all land in the
    same node; each parallel block becomes a CBlock element with one branch
    node per parallel branch.  One pass over an explicit stack builds every
    node after its children, so no nesting depth exhausts the call stack.

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
    root: list[str | CBlock] = []
    # a sequence's unread children, or a parallel block's branch element
    # lists once all are read; each with the list that receives its yield
    stack: list[tuple[Iterator[Element] | list, list]] = [(iter(tree.children), root)]
    while stack:
        todo, out = stack.pop()
        if isinstance(todo, list):
            out.append(block(tuple([node(tuple(branch)) for branch in todo])))
            continue
        for child in todo:
            kind = child.__class__
            if kind is Place:
                out.append(child.label)
            elif kind is not Transition:
                stack.append((todo, out))  # resume the sequence after the block
                if kind is AndBlock:
                    outs: list[list] = [[] for _ in child.branches]
                    stack.append((outs, out))
                    stack += [(iter(b.children), o) for b, o in zip(child.branches, outs)][::-1]
                else:
                    stack += [(iter(b.children), out) for b in reversed(branches_of(child))]
                break
    return node(tuple(root))


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
        stack = [like]
        while stack:
            node = stack.pop()
            self.nodes.setdefault(_node_key(node.elements), node)
            for block in node.blocks:
                self.blocks.setdefault(tuple(map(id, block.branches)), block)
                stack += block.branches

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
    """All place labels anywhere in the tree."""
    acc: set[str] = set()
    stack = [c]
    while stack:
        node = stack.pop()
        for el in node.elements:
            if isinstance(el, str):
                acc.add(el)
            else:
                stack.extend(el.branches)
    return frozenset(acc)


# ── concurrent-submarking generator ─────────────────────────────────────────


def gcs(p: str, c: CTree) -> CTree:
    """The sub-tree generating exactly the markings concurrent with ``p``.

    Along the path from the root to p's node, every node is stripped down to
    the single on-path block, sibling branches are kept whole, and p's own
    branch is cut off at the last step.  A place held by the root node is
    concurrent with nothing: its result is the empty tree.
    """
    route = c.place_index.get(p)
    if route is None:
        raise UnknownPlaceError(f"place {p!r} does not occur in the tree")
    if not route:
        return CNode(())
    block, branch_idx = route[-1]
    cut = tuple(b for i, b in enumerate(block.branches) if i != branch_idx)
    current = CBlock(cut)
    for block, branch_idx in reversed(route[:-1]):
        connector = CNode((current,))
        replaced = tuple(
            connector if i == branch_idx else b for i, b in enumerate(block.branches)
        )
        current = CBlock(replaced)
    return CNode((current,))


# ── marking generation ──────────────────────────────────────────────────────


def markings_of(c: CTree) -> frozenset[Marking]:
    """Every complete marking the tree generates.

    A marking picks one element of the node; a block element contributes one
    complete sub-marking from each of its branches.  A node with no pickable
    element generates nothing at all.
    """

    def generate(node: CNode) -> Generator[CNode, frozenset[Marking], frozenset[Marking]]:
        out: set[Marking] = set()
        for el in node.elements:
            if isinstance(el, str):
                out.add(frozenset((el,)))
            else:
                combos: set[frozenset[str]] = {frozenset()}
                for branch in el.branches:
                    sub = yield branch
                    combos = {m | s for m in combos for s in sub}
                    if not combos:
                        break
                out.update(combos)
        return frozenset(out)

    return _drive(generate, c)


def sample_marking(c: CTree, rng: random.Random | None = None) -> Marking:
    """Draw one marking at random; raises ValueError on a dysfunctional tree."""
    rng = rng or random.Random()
    if is_dysfunctional(c):
        raise ValueError("the tree generates no markings")

    def draw(node: CNode) -> Generator[CNode, Marking, Marking]:
        viable = node.elements
        if len(node.own_places) + len(node.live_blocks) != len(viable):  # dead blocks
            viable = [el for el in viable if isinstance(el, str) or el.generable]
        el = rng.choice(viable)
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


# ── deletion, dysfunctionality, break-off ───────────────────────────────────


def delete_places(c: CTree, labels: frozenset[str] | set[str]) -> CTree:
    """Remove the given places from every node; the shape stays intact.

    A node or block with nothing deleted below it is returned as the same
    object, so only the nodes on the paths to deleted places are rebuilt,
    and the deletions of two trees that share subtrees share them too.
    """

    def rebuild(node: CNode) -> Generator[CNode, CNode, CNode]:
        elements: list[str | CBlock] = []
        changed = False
        for el in node.elements:
            if not isinstance(el, str):
                branches = []
                for branch in el.branches:
                    branches.append((yield branch))
                if not all(map(operator.is_, branches, el.branches)):
                    el, changed = CBlock(tuple(branches)), True
                elements.append(el)
            elif el in labels:
                changed = True
            else:
                elements.append(el)
        return CNode(tuple(elements)) if changed else node

    return _drive(rebuild, c)


def is_dysfunctional(c: CTree) -> bool:
    """True iff the tree generates no marking at all."""
    return not c.generable


def is_breakoff(c: CTree, labels: frozenset[str] | set[str]) -> bool:
    """True iff every marking of the tree meets ``labels`` (equivalently:
    deleting them leaves the tree unable to generate any marking)."""
    return is_dysfunctional(delete_places(c, labels))


def _drive(step: Callable[[CNode], Generator], root: CNode) -> Any:
    """Run a recursion over the nodes below ``root`` on an explicit stack.

    ``step(node)`` is a generator: it yields each branch node whose result it
    needs, is sent that result back, and returns the node's own result.
    """
    stack = [step(root)]
    result = None
    while stack:
        try:
            branch = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(step(branch))
            result = None
    return result


# ── exact marking inclusion ─────────────────────────────────────────────────


def mpe_exists(c: CTree, c2: CTree) -> bool:
    """Can ``c2`` generate every marking that ``c`` generates?

    Exact, and decided without search, for trees with unique labels where the
    empty marking is never one alternative among others (every tree built
    from a net, and its gcs trees and deletions): such a tree is a cotree,
    its markings are the maximal cliques of the graph of concurrent places,
    and so no marking holds another.

    The test is a conjunction of obligations ``(views, y)``: every marking of
    the product of ``views`` is one of node ``y``.  A view is a node ``x`` and
    the places its share may hold (``cut``; None: all).  One explicit stack
    holds the open obligations, and the first that fails decides.
    """
    todo: list[tuple[list[tuple[CNode, frozenset[str] | None]], CNode]] = [([(c, None)], c2)]
    while todo:
        views, y = todo.pop()
        if len(views) == 1:
            # each alternative of x (a place, or a live block as the product
            # of its factors) on its own; a share that leaves some marking
            # empty fails, as no marking of y holds another
            x, cut = views[0]
            if cut is None and x is y:  # a tree generates its own markings
                continue
            if not all(_place_in(p, y) for p in x.own_places - y.own_places):
                return False
            for b in x.live_blocks:
                views = [(f, None if cut is None or f.place_set <= cut else f.place_set & cut)
                         for f in b.factors if cut is None or not f.place_set.isdisjoint(cut)]
                todo.append((views, y))
            continue
        if not views:  # the empty marking
            if not any(not b.factors for b in y.live_blocks):
                return False
            continue
        # Two or more factors give markings of two or more places that overlap
        # pairwise, so all lie in the block alternative of y holding any one
        # of their places.  Each factor of that block must generate its
        # share; a view spread over several of them is cut into one view per
        # factor.
        x, cut = views[0]
        target = _block_holding(next(iter(cut or x.place_set)), y)
        if target is None:
            return False
        factors = target.factors
        if len(factors) == 1:
            todo.append((views, factors[0]))
            continue
        index = target.factor_index
        shares: list[list] = [[] for _ in factors]
        for x, cut in views:
            j = index.get(next(iter(cut or x.place_set)))
            if cut is None and j is not None and x.place_set <= factors[j].place_set:
                shares[j].append((x, None))
                continue
            parts: dict[int | None, set[str]] = {}
            for p in cut or x.place_set:
                parts.setdefault(index.get(p), set()).add(p)
            if None in parts:
                return False
            for j, part in parts.items():
                shares[j].append((x, frozenset(part)))
        if not all(shares):
            return False
        todo += zip(shares, factors)
    return True


def _place_in(p: str, y: CNode) -> bool:
    """Is the one-place marking ``{p}`` one of ``y``?"""
    while p not in y.own_places:
        block = _block_holding(p, y)
        if block is None or len(block.factors) != 1:
            return False
        y = block.factors[0]
    return True


def _block_holding(p: str, y: CNode) -> CBlock | None:
    """The block alternative of ``y`` that may hold ``p`` (a lone one may):
    the first live block with a factor holding ``p``, read from the node's
    index, so a node with many blocks costs one probe per query."""
    blocks = y.live_blocks
    if len(blocks) == 1:
        return blocks[0]
    return y.block_index.get(p)


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
