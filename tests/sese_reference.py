"""The dynamic region of the SESE baseline as it was computed over sequence
paths, kept word for word as a differential reference for ``wfregions.sese``.

A path addresses a sequence by one (element index, branch index) step per
nesting level; ``walk`` and ``seq_at`` here are the path walker and lookup
that ``wfregions.ecws`` used to export.  ``_static_adjacency`` and
``_components`` are the grouping of static nodes that ``wfregions.sese``
used before it grouped them in one pass over the arcs.
"""

from __future__ import annotations

from collections.abc import Iterator

from wfregions.ecws import (
    BlockTree,
    Place,
    SeqBlock,
    Transition,
    branches_of,
    place_labels,
)
from wfregions.wfnet import WfNet

SeqPath = tuple[tuple[int, int], ...]


def walk(tree: BlockTree) -> Iterator[tuple[SeqPath, SeqBlock]]:
    """Every sequence of the tree with its path, in preorder.

    A sequence comes before the sequences nested in it; those follow its
    elements in order, and each block's sequences in :func:`branches_of`
    order.  The walk keeps its own stack, so nesting depth is unbounded.
    """
    stack: list[tuple[SeqPath, SeqBlock]] = [((), tree)]
    while stack:
        path, seq = stack.pop()
        yield path, seq
        children = seq.children
        # pushed last to first, so the first nested sequence is popped next
        for i in range(len(children) - 1, -1, -1):
            if not isinstance(children[i], (Place, Transition)):
                seqs = branches_of(children[i])
                for b in range(len(seqs) - 1, -1, -1):
                    stack.append(((*path, (i, b)), seqs[b]))


def seq_at(tree: BlockTree, path: SeqPath) -> SeqBlock:
    """The sequence at ``path``."""
    seq = tree
    for i, b in path:
        seq = branches_of(seq.children[i])[b]
    return seq


def reference_dynamic_region(
    old_tree: BlockTree, old: WfNet, static_nodes: frozenset[str]
) -> frozenset[str]:
    """Places of the minimal place-bordered fragments covering the changes.

    Static nodes are grouped into connected components (adjacency = sharing
    an arc of ``old``, the net of ``old_tree``); each component is expanded
    to its fragment and the fragment place sets are unioned.
    """
    if not static_nodes:
        return frozenset()
    index = _index_tree(old_tree)
    adjacency = _static_adjacency(old, static_nodes)
    out: set[str] = set()
    for component in _components(adjacency):
        seq_path, lo, hi = _expand(old_tree, index, component)
        seq = seq_at(old_tree, seq_path)
        out |= place_labels(SeqBlock(tuple(seq.children[lo : hi + 1])))
    return frozenset(out)


def _index_tree(tree: BlockTree) -> dict[str, tuple[SeqPath, int]]:
    """Label → (address of its sequence, its element index there)."""
    return {
        child.label: (path, i)
        for path, seq in walk(tree)
        for i, child in enumerate(seq.children)
        if isinstance(child, (Place, Transition))
    }


def _static_adjacency(old: WfNet, static_nodes: frozenset[str]) -> dict[str, set[str]]:
    adjacency: dict[str, set[str]] = {n: set() for n in static_nodes}
    for a, b in old.arcs:
        if a in static_nodes and b in static_nodes:
            adjacency[a].add(b)
            adjacency[b].add(a)
    return adjacency


def _components(adjacency: dict[str, set[str]]) -> list[set[str]]:
    seen: set[str] = set()
    components: list[set[str]] = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        component = {start}
        queue = [start]
        while queue:
            for neighbour in adjacency[queue.pop()]:
                if neighbour not in component:
                    component.add(neighbour)
                    queue.append(neighbour)
        seen |= component
        components.append(component)
    return components


def _expand(
    tree: BlockTree, index: dict[str, tuple[SeqPath, int]], component: set[str]
) -> tuple[SeqPath, int, int]:
    """Smallest place-bordered stretch of one sequence covering the group."""
    paths = [index[label] for label in component]
    common = paths[0][0]
    for seq_path, _ in paths[1:]:
        limit = 0
        for a, b in zip(common, seq_path):
            if a != b:
                break
            limit += 1
        common = common[:limit]
    idxs = {
        elem_idx if len(seq_path) == len(common) else seq_path[len(common)][0]
        for seq_path, elem_idx in paths
    }
    while True:
        seq = seq_at(tree, common)
        lo, hi = min(idxs), max(idxs)
        while lo >= 0 and not isinstance(seq.children[lo], Place):
            lo -= 1
        while hi < len(seq.children) and not isinstance(seq.children[hi], Place):
            hi += 1
        if lo < 0 or hi >= len(seq.children):
            # padding ran off a transition-bordered branch: the enclosing
            # block becomes part of the fragment, so retry one level up
            idxs = {common[-1][0]}
            common = common[:-1]
            continue
        return common, lo, hi
