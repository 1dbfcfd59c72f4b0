"""Baseline change regions built from single-entry/single-exit fragments.

The baseline has three stages.  The static region is every old-net node that
touches an arc present in only one of the two nets.  The dynamic region
grows each static node into the smallest place-bordered fragment of the old
block tree containing it: a contiguous stretch of one sequence, where
parallel, choice, and loop blocks count as indivisible — a stretch reaching
into a block drags in the whole block, and padding that runs off a
transition-bordered branch drags in the enclosing block instead.  The
improved region then drops each fragment's entry and exit place, keeping
only the interior (``improved_region``, the trim of the literature), and
``sese_region`` gives back every dropped place that is itself static.  A
place the new net removed or moved touches an arc found in only one net, so
it is static and stays in the region, so no instance with a token on a
changed place migrates.  On every corpus the tests sweep, the baseline
migrates no instance that cannot migrate.

Fragments that overlap, or that meet at a shared transition, merge into one
region; boundaries are re-derived on the merged coverage, so the improved
region is a function of the dynamic place set alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ecws import BlockTree, Element, Place, SeqBlock, Transition, branches_of, walk
from .wfnet import WfNet


@dataclass(frozen=True)
class SeseRegion:
    static_nodes: frozenset[str]
    dynamic_places: frozenset[str]
    improved_places: frozenset[str]


def static_region(old: WfNet, new: WfNet) -> frozenset[str]:
    """Old-net nodes incident to arcs present in exactly one net."""
    old_nodes = old.places | old.transitions
    changed = (old.arcs - new.arcs) | (new.arcs - old.arcs)
    touched = {end for arc in changed for end in arc}
    return frozenset(touched & old_nodes)


def dynamic_region(old_tree: BlockTree, static_nodes: frozenset[str]) -> frozenset[str]:
    """Places of the minimal place-bordered fragments covering the changes.

    Each static node grows its own fragment (:func:`_expand`), and the
    region is the union of their places.  This is the region of the
    literature, which grows each connected group of static nodes as one:
    every arc that leaves a sequence has a transition at one end, and that
    transition's own fragment already spans the block the arc leaves, so
    the fragments of a group's nodes cover the group's fragment.  One
    worklist collects the places of the distinct stretches and of the
    sequences in their blocks, and enters each stretch, a whole sequence
    included, at most once.
    """
    if not static_nodes:
        return frozenset()
    index = _index_tree(old_tree)
    out: set[str] = set()
    seen: set[tuple[int, int, int]] = set()  # (id of the sequence, lo, hi)
    todo = [_expand(index, label) for label in static_nodes]
    while todo:
        seq, lo, hi = todo.pop()
        if (id(seq), lo, hi) in seen:
            continue
        seen.add((id(seq), lo, hi))
        for child in seq.children[lo : hi + 1]:
            if isinstance(child, Place):
                out.add(child.label)
            elif not isinstance(child, Transition):
                todo += ((nested, 0, len(nested.children) - 1) for nested in branches_of(child))
    return frozenset(out)


def improved_region(old_tree: BlockTree, dynamic_places: frozenset[str]) -> frozenset[str]:
    """Dynamic region minus the entry and exit place of every fragment.

    Fragments are recovered from the covered elements of the tree: maximal
    covered stretches of each sequence, trimmed at both ends to genuine
    places (blocks trimmed off an end are scanned on their own, as are
    blocks that are not fully covered).  A block is covered when every place
    below it is in the region, which one fold decides for every sequence,
    innermost first, so each sequence is read a bounded number of times.
    """
    removed: set[str] = set()
    whole: dict[int, bool] = {}  # by the id of each sequence: covered throughout

    def covered(el: Element) -> bool:
        if isinstance(el, Place):
            return el.label in dynamic_places
        if isinstance(el, Transition):
            return True
        return all(whole[id(seq)] for seq in branches_of(el))

    # reversed preorder reaches every nested sequence before its enclosing one
    for seq in reversed(list(walk(old_tree))):
        whole[id(seq)] = all(map(covered, seq.children))

    todo: list[SeqBlock] = [old_tree]  # a worklist: any order removes the same places
    while todo:
        seq = todo.pop()
        runs: list[tuple[int, int]] = []
        start: int | None = None
        for i, child in enumerate(seq.children):
            if covered(child):
                if start is None:
                    start = i
            else:
                if start is not None:
                    runs.append((start, i - 1))
                    start = None
                todo.extend(branches_of(child))
        if start is not None:
            runs.append((start, len(seq.children) - 1))
        for lo, hi in runs:
            while lo <= hi and not isinstance(seq.children[lo], Place):
                todo.extend(branches_of(seq.children[lo]))
                lo += 1
            while hi >= lo and not isinstance(seq.children[hi], Place):
                todo.extend(branches_of(seq.children[hi]))
                hi -= 1
            if lo <= hi:
                removed.add(seq.children[lo].label)  # type: ignore[union-attr]
                removed.add(seq.children[hi].label)  # type: ignore[union-attr]
    return dynamic_places - removed


def sese_region(old_tree: BlockTree, old: WfNet, new: WfNet) -> SeseRegion:
    static = static_region(old, new)
    dynamic = dynamic_region(old_tree, static)
    improved = improved_region(old_tree, dynamic) | (dynamic & static)
    return SeseRegion(static, dynamic, improved)


# ── fragment expansion machinery ────────────────────────────────────────────


def _index_tree(tree: BlockTree) -> dict[str | int, tuple[SeqBlock, int]]:
    """Label → (its sequence, its index there), and the ``id`` of each nested
    sequence → (the sequence around its block, the block's index there), so
    the ``id`` links lead from a label up to the root, whose ``id`` is no key."""
    index: dict[str | int, tuple[SeqBlock, int]] = {}
    for seq in walk(tree):
        for i, child in enumerate(seq.children):
            if isinstance(child, (Place, Transition)):
                index[child.label] = seq, i
            else:
                for nested in branches_of(child):
                    index[id(nested)] = seq, i
    return index


def _expand(index: dict[str | int, tuple[SeqBlock, int]], label: str) -> tuple[SeqBlock, int, int]:
    """Smallest place-bordered stretch of one sequence covering ``label``:
    its position padded to the nearest place on each side, one level up
    (the enclosing block's position) wherever the padding runs off a
    transition-bordered branch.  The root is place-bordered, so the climb
    ends there at the latest."""
    seq, i = index[label]
    while True:
        lo = hi = i
        while lo >= 0 and not isinstance(seq.children[lo], Place):
            lo -= 1
        while hi < len(seq.children) and not isinstance(seq.children[hi], Place):
            hi += 1
        if lo >= 0 and hi < len(seq.children):
            return seq, lo, hi
        seq, i = index[id(seq)]
