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
"""

from __future__ import annotations

import itertools
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


CTree = CNode

#: Route from a tree's root to a node: one (on-path block, branch index) step
#: per nesting level.  The root's route is the empty tuple.
Route = tuple[tuple[CBlock, int], ...]


# ── construction ────────────────────────────────────────────────────────────


def build_ctree(tree: BlockTree) -> CTree:
    """Abstract a block tree into its concurrency tree.

    Places of sequences, choice branches, and both loop parts all land in the
    same node; each parallel block becomes a CBlock element with one branch
    node per parallel branch.  One pass over an explicit stack builds every
    node after its children, so no nesting depth exhausts the call stack.
    """
    root: list[str | CBlock] = []
    # a sequence's unread children, or a parallel block's branch element
    # lists once all are read; each with the list that receives its yield
    stack: list[tuple[Iterator[Element] | list, list]] = [(iter(tree.children), root)]
    while stack:
        todo, out = stack.pop()
        if isinstance(todo, list):
            out.append(CBlock(tuple(CNode(tuple(branch)) for branch in todo)))
            continue
        for child in todo:
            if isinstance(child, Place):
                out.append(child.label)
            elif not isinstance(child, Transition):
                stack.append((todo, out))  # resume the sequence after the block
                if isinstance(child, AndBlock):
                    outs: list[list] = [[] for _ in child.branches]
                    stack.append((outs, out))
                    stack += [(iter(b.children), o) for b, o in zip(child.branches, outs)][::-1]
                else:
                    stack += [(iter(b.children), out) for b in reversed(branches_of(child))]
                break
    return CNode(tuple(root))


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
    out: set[Marking] = set()
    for el in c.elements:
        if isinstance(el, str):
            out.add(frozenset((el,)))
        else:
            combos: set[frozenset[str]] = {frozenset()}
            for branch in el.branches:
                sub = markings_of(branch)
                combos = {m | s for m in combos for s in sub}
                if not combos:
                    break
            out.update(combos)
    return frozenset(out)


def sample_marking(c: CTree, rng: random.Random | None = None) -> Marking:
    """Draw one marking at random; raises ValueError on a dysfunctional tree."""
    rng = rng or random.Random()
    if is_dysfunctional(c):
        raise ValueError("the tree generates no markings")

    def draw(node: CNode) -> frozenset[str]:
        viable = [el for el in node.elements if isinstance(el, str) or el.generable]
        el = rng.choice(viable)
        if isinstance(el, str):
            return frozenset((el,))
        picked: frozenset[str] = frozenset()
        for branch in el.branches:
            picked |= draw(branch)
        return picked

    return draw(c)


def generates(c: CTree, m: Marking) -> bool:
    """Is ``m`` one of the markings the tree generates?  The inclusion test
    on the tree whose only marking is ``m``."""
    return mpe_exists(CNode((CBlock(tuple(CNode((p,)) for p in m)),)), c)


# ── deletion, dysfunctionality, break-off ───────────────────────────────────


def delete_places(c: CTree, labels: frozenset[str] | set[str]) -> CTree:
    """Remove the given places from every node; the shape stays intact."""

    def rebuild(node: CNode) -> Generator[CNode, CNode, CNode]:
        elements: list[str | CBlock] = []
        for el in node.elements:
            if not isinstance(el, str):
                branches = []
                for branch in el.branches:
                    branches.append((yield branch))
                elements.append(CBlock(tuple(branches)))
            elif el not in labels:
                elements.append(el)
        return CNode(tuple(elements))

    return _drive(rebuild, c)


def is_dysfunctional(c: CTree) -> bool:
    """True iff the tree generates no marking at all."""
    return not c.generable


def is_breakoff(c: CTree, labels: frozenset[str] | set[str]) -> bool:
    """True iff every marking of the tree meets ``labels`` (equivalently:
    deleting them leaves the tree unable to generate any marking)."""

    def survives(node: CNode) -> Generator[CNode, bool, bool]:
        if not node.own_places <= labels:
            return True
        for block in node.live_blocks:
            for branch in block.branches:
                if not (yield branch):
                    break
            else:
                return True
        return False

    return not _drive(survives, c)


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


class EmbeddingMemo:
    """Node-pair verdicts shared by several inclusion checks.

    :func:`gcs` keeps sibling branches as the original objects, so checks on
    the gcs trees of one pair of nets share most node pairs.  Keys are node
    identities, so the memo holds every tree it has checked (a freed node's
    id could be reused); drop it when the checks are done.
    """

    def __init__(self) -> None:
        self.verdicts: dict[tuple[int, int], bool] = {}
        self._held: list[tuple[CTree, CTree]] = []

    def hold(self, c: CTree, c2: CTree) -> None:
        self._held.append((c, c2))


def mpe_exists(c: CTree, c2: CTree, memo: EmbeddingMemo | None = None) -> bool:
    """Can ``c2`` generate every marking that ``c`` generates?

    Exact, and decided without search, for trees with unique labels where the
    empty marking is never one alternative among others (every tree built
    from a net, and its gcs trees and deletions): such a tree is a cotree,
    its markings are the maximal cliques of the graph of concurrent places,
    and so no marking holds another.  Pass one ``memo`` to a series of
    checks to share node-pair verdicts between them.
    """
    if memo is None:
        memo = EmbeddingMemo()
    memo.hold(c, c2)
    return _includes(c, c2, memo.verdicts)


def _includes(
    x: CNode, y: CNode, verdicts: dict, cut: frozenset[str] | None = None
) -> bool:
    """Is every marking of ``x``, or its share inside ``cut``, one of ``y``?

    Each alternative of ``x`` (a place, or a live block as the product of its
    factors) is checked on its own.  A share that leaves some marking empty
    fails, as no marking of ``y`` holds another.  Whole nodes are memoised.
    """
    key = (id(x), id(y))
    ok = verdicts.get(key) if cut is None else None
    if ok is None:
        ok = all(_place_in(p, y) for p in x.own_places - y.own_places)
        for b in x.live_blocks:
            views = [(f, None if cut is None or f.place_set <= cut else f.place_set & cut)
                     for f in b.factors if cut is None or not f.place_set.isdisjoint(cut)]
            ok = ok and _product_in(views, y, verdicts)
        if cut is None:
            verdicts[key] = ok
    return ok


def _product_in(
    views: list[tuple[CNode, frozenset[str] | None]], y: CNode, verdicts: dict
) -> bool:
    """Is every marking of the product of ``views`` one of ``y``?

    A view is a factor node and the places its share may hold (None: all).
    Two or more factors give markings of two or more places that overlap
    pairwise, so all lie in the block alternative of ``y`` holding any one of
    their places.  Each factor of that block must generate its share; a view
    spread over several of them is cut into one view per factor.
    """
    if len(views) == 1:
        return _includes(views[0][0], y, verdicts, views[0][1])
    if not views:  # the empty marking
        return any(not b.factors for b in y.live_blocks)
    x, cut = views[0]
    target = _block_holding(next(iter(cut or x.place_set)), y)
    factors = target.factors if target else ()
    if len(factors) == 1:
        return _product_in(views, factors[0], verdicts)
    shares: list[list] = [[] for _ in factors]
    for x, cut in views:
        j = _locate(next(iter(cut or x.place_set)), factors)
        if cut is None and j is not None and x.place_set <= factors[j].place_set:
            shares[j].append((x, None))
            continue
        parts: dict[int | None, set[str]] = {}
        for p in cut or x.place_set:
            parts.setdefault(_locate(p, factors), set()).add(p)
        if None in parts:
            return False
        for j, part in parts.items():
            shares[j].append((x, frozenset(part)))
    return all(s and _product_in(s, f, verdicts) for s, f in zip(shares, factors))


def _place_in(p: str, y: CNode) -> bool:
    """Is the one-place marking ``{p}`` one of ``y``?"""
    while p not in y.own_places:
        block = _block_holding(p, y)
        if block is None or len(block.factors) != 1:
            return False
        y = block.factors[0]
    return True


def _block_holding(p: str, y: CNode) -> CBlock | None:
    """The block alternative of ``y`` that may hold ``p`` (a lone one may)."""
    blocks = y.live_blocks
    if len(blocks) == 1:
        return blocks[0]
    return next((b for b in blocks if _locate(p, b.factors) is not None), None)


def _locate(p: str, factors: tuple[CNode, ...]) -> int | None:
    return next((j for j, f in enumerate(factors) if p in f.place_set), None)


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

    def emit_node(node: CNode) -> str:
        name = f"n{next(counter)}"
        label = ",".join(el for el in node.elements if isinstance(el, str)) or "∅"
        lines.append(f'  {name} [shape=box, label="{label}"];')
        for block in node.blocks:
            block_name = f"b{next(counter)}"
            lines.append(f'  {block_name} [shape=square, label=""];')
            lines.append(f"  {name} -> {block_name};")
            for branch in block.branches:
                lines.append(f"  {block_name} -> {emit_node(branch)};")
        return name

    emit_node(c)
    lines.append("}")
    return "\n".join(lines)
