"""Concurrency trees: a compact generator for every marking of a net.

A concurrency tree (C-tree) abstracts a block-structured net down to what can
be marked together.  A :class:`CNode` holds, in walk order, elements that are
mutually exclusive alternatives — place labels plus :class:`CBlock` elements.
A CBlock stands for a parallel block: it holds one branch CNode per parallel
branch, and a marking drawn from it takes one sub-marking from *every*
branch.  Sequences, choices, and loops never deepen the tree; only parallel
blocks do.

On top of the tree this module provides: the set of places concurrent with a
given place (:func:`gcs`), exhaustive and sampled marking generation, the
membership test for one marking (:func:`generates`), deletion of places, the
dysfunctionality test (can the tree still generate a marking?), break-off
sets (place sets hitting every marking), and the marking-preserving
embedding check (:func:`mpe_exists`) that decides whether every marking one
tree generates is also generable by another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .ecws import AndBlock, BlockTree, Place, SeqBlock, Transition, branches_of
from .errors import UnknownPlaceError
from .wfnet import Marking

# ── tree types ──────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class CNode:
    """Mutually exclusive alternatives: place labels and parallel blocks."""

    elements: tuple["str | CBlock", ...]

    @cached_property
    def own_places(self) -> frozenset[str]:
        """Places held directly by this node (not inside block elements)."""
        return frozenset(el for el in self.elements if isinstance(el, str))

    @cached_property
    def blocks(self) -> tuple["CBlock", ...]:
        return tuple(el for el in self.elements if isinstance(el, CBlock))

    @cached_property
    def generable(self) -> bool:
        """Can this node generate at least one marking?"""
        return any(isinstance(el, str) or el.generable for el in self.elements)

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

    @cached_property
    def generable(self) -> bool:
        """Can every branch generate a marking (so the block realizes one)?"""
        return all(b.generable for b in self.branches)


CTree = CNode

#: Route from a tree's root to a node: one (on-path block, branch index) step
#: per nesting level.  The root's route is the empty tuple.
Route = tuple[tuple[CBlock, int], ...]


# ── construction ────────────────────────────────────────────────────────────


def build_ctree(tree: BlockTree) -> CTree:
    """Abstract a block tree into its concurrency tree.

    Places of sequences, choice branches, and both loop parts all land in the
    same node; each parallel block becomes a CBlock element with one branch
    node per parallel branch.
    """

    def collect(seq: SeqBlock):
        for child in seq.children:
            if isinstance(child, Place):
                yield child.label
            elif isinstance(child, Transition):
                continue
            elif isinstance(child, AndBlock):
                yield CBlock(tuple(CNode(tuple(collect(b))) for b in child.branches))
            else:
                for branch in branches_of(child):
                    yield from collect(branch)

    return CNode(tuple(collect(tree)))


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
    """Is ``m`` one of the markings the tree generates?

    One walk over the tree, for trees whose labels are unique.  Every node
    that holds a place of ``m`` below it must pick exactly one element: a
    place of ``m``, or the one block holding the rest, whose branches must
    then each generate their share.
    """
    found = 0

    def share(node: CNode) -> bool | None:
        """None if no place of m lies below; else whether they form a marking."""
        nonlocal found
        hits: list[bool] = []
        for el in node.elements:
            if isinstance(el, str):
                if el in m:
                    found += 1
                    hits.append(True)
            else:
                parts = [share(b) for b in el.branches]
                if any(part is not None for part in parts):
                    hits.append(all(parts))
        if not hits:
            return None
        return len(hits) == 1 and hits[0]

    return bool(share(c)) and found == len(m)


# ── deletion, dysfunctionality, break-off ───────────────────────────────────


def delete_places(c: CTree, labels: frozenset[str] | set[str]) -> CTree:
    """Remove the given places from every node; the shape stays intact."""
    new_elements: list[str | CBlock] = []
    for el in c.elements:
        if isinstance(el, str):
            if el not in labels:
                new_elements.append(el)
        else:
            new_elements.append(
                CBlock(tuple(delete_places(b, labels) for b in el.branches))
            )
    return CNode(tuple(new_elements))


def is_dysfunctional(c: CTree) -> bool:
    """True iff the tree generates no marking at all."""
    return not c.generable


def is_breakoff(c: CTree, labels: frozenset[str] | set[str]) -> bool:
    """True iff every marking of the tree meets ``labels``.

    Equivalently: deleting the set leaves the tree unable to generate any
    marking.
    """
    return is_dysfunctional(delete_places(c, frozenset(labels)))


# ── marking-preserving embedding ────────────────────────────────────────────


class EmbeddingMemo:
    """Node-pair verdicts shared by several embedding checks.

    A verdict depends only on the two subtrees, and :func:`gcs` keeps
    sibling branches as the original objects, so checks on the gcs trees of
    one pair of nets share most node pairs.  Keys are node identities, so the
    memo holds every tree it has checked: a node freed while the memo lives
    could hand its id to a new node and inherit a wrong verdict.  Drop the
    memo when the checks are done.
    """

    def __init__(self) -> None:
        self.verdicts: dict[tuple[int, int], bool] = {}
        self._held: list[tuple[CTree, CTree]] = []

    def hold(self, c: CTree, c2: CTree) -> None:
        self._held.append((c, c2))


def mpe_exists(c: CTree, c2: CTree, memo: EmbeddingMemo | None = None) -> bool:
    """Can ``c2`` generate every marking that ``c`` generates?

    Checked structurally: each node's places must reappear in the matched
    node of ``c2``, each of its marking-capable blocks must map injectively
    onto a distinct block there, and matched blocks must pair up their
    branches one-to-one (equal branch counts), recursively.  A block with a
    dead branch (possible after place deletion) never realizes a marking, so
    it imposes no requirement on ``c2``.  Pass one ``memo`` to a series of
    checks to share node-pair verdicts between them.
    """
    if memo is None:
        memo = EmbeddingMemo()
    memo.hold(c, c2)
    return _node_ok(c, c2, memo.verdicts)


def _live_blocks(n: CNode) -> list[int]:
    return [i for i, b in enumerate(n.blocks) if b.generable]


def _node_ok(n: CNode, n2: CNode, verdicts: dict[tuple[int, int], bool]) -> bool:
    key = (id(n), id(n2))
    ok = verdicts.get(key)
    if ok is None:
        verdicts[key] = False  # break self-recursion defensively; trees are acyclic
        ok = n.own_places <= n2.own_places and _blocks_match(n, n2, verdicts)
        verdicts[key] = ok
    return ok


def _blocks_match(n: CNode, n2: CNode, verdicts: dict[tuple[int, int], bool]) -> bool:
    """Do n's live blocks map injectively onto matching blocks of n2?"""
    live = _live_blocks(n)
    return _max_matching(
        len(live),
        len(n2.blocks),
        lambda i, j: _branches_match(n.blocks[live[i]], n2.blocks[j], verdicts),
    )


def _branches_match(b: CBlock, b2: CBlock, verdicts: dict[tuple[int, int], bool]) -> bool:
    """Do the branches of two blocks pair up one-to-one?"""
    if len(b.branches) != len(b2.branches):
        return False
    return _max_matching(
        len(b.branches),
        len(b2.branches),
        lambda i, j: _node_ok(b.branches[i], b2.branches[j], verdicts),
    )


def _max_matching(n_left: int, n_right: int, edge) -> bool:
    """Does a bipartite matching cover every left node?

    Classic augmenting-path search.
    """
    match_right: list[int | None] = [None] * n_right

    def augment(i: int, seen: set[int]) -> bool:
        for j in range(n_right):
            if j in seen or not edge(i, j):
                continue
            seen.add(j)
            if match_right[j] is None or augment(match_right[j], seen):
                match_right[j] = i
                return True
        return False

    for i in range(n_left):
        if not augment(i, set()):
            return False
    return True


# ── text and DOT rendering ──────────────────────────────────────────────────


def mgs_text(c: CTree) -> str:
    """Nested set/tuple notation: nodes in braces, blocks in parentheses."""
    parts = []
    for el in c.elements:
        if isinstance(el, str):
            parts.append(el)
        else:
            parts.append("(" + ",".join(mgs_text(b) for b in el.branches) + ")")
    return "{" + ",".join(parts) + "}"


def ctree_dot(c: CTree) -> str:
    """Graphviz text: nodes as boxes listing places, blocks as squares."""
    lines = ["digraph ctree {", "  rankdir=TB;"]
    counter = 0

    def fresh(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    def emit_node(node: CNode) -> str:
        name = fresh("n")
        label = ",".join(el for el in node.elements if isinstance(el, str)) or "∅"
        lines.append(f'  {name} [shape=box, label="{label}"];')
        for block in node.blocks:
            block_name = fresh("b")
            lines.append(f'  {block_name} [shape=square, label=""];')
            lines.append(f"  {name} -> {block_name};")
            for branch in block.branches:
                lines.append(f"  {block_name} -> {emit_node(branch)};")
        return name

    emit_node(c)
    lines.append("}")
    return "\n".join(lines)
