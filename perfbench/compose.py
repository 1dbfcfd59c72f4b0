"""Large old/new net pairs built by composition, with an exact reference.

An old net is a root sequence of wrapper places and chunks::

    w0 a0 [chunk 0] b0 w1 a1 [chunk 1] b1 w2 ...

A chunk is one segment spliced into the root sequence, or a parallel block
of 2-3 segments.  A segment is a ``random_tree`` whose labels carry the
prefix ``s<i>_``.  The new net replaces a few segments by a ``mutate`` of
them and keeps every wrapper.

Because segments only meet through wrappers and parallel blocks, the
migration answer for the whole pair follows from ``oracle_classify`` on the
changed segment pairs alone (see :func:`reference`).  That is what lets the
benchmark check verdicts on nets far too large for the oracle, with a
reference that shares no code with the structural analysis.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if not (_SRC / "wfregions" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no wfregions sources under {_SRC}")
sys.path.insert(0, str(_SRC))

import wfregions as W  # noqa: E402
from wfregions import (  # noqa: E402
    AndBlock,
    LoopBlock,
    MemberClass,
    Place,
    SeqBlock,
    Transition,
    XorBlock,
)

SAFE = MemberClass.SAFE
OVER = MemberClass.OVERESTIMATION
PERFECT = MemberClass.PERFECT_MEMBER


@dataclass(frozen=True)
class Composition:
    """An old/new pair plus the segment layout the reference needs."""

    old: SeqBlock
    new: SeqBlock
    old_segments: tuple[SeqBlock, ...]
    new_segments: tuple[SeqBlock, ...]
    chunks: tuple[tuple[int, ...], ...]  # segment indices, one tuple per chunk
    wrappers: frozenset[str]

    @property
    def changed(self) -> tuple[int, ...]:
        return tuple(
            i for i, (o, n) in enumerate(zip(self.old_segments, self.new_segments)) if o != n
        )


@dataclass(frozen=True)
class Reference:
    """The expected analysis of a composition, derived from segment oracles."""

    per_place: dict[str, MemberClass]
    scr: frozenset[str]
    pscr_exists: bool
    pscr: frozenset[str] | None
    segment_of: dict[str, int]
    reachable_new: dict[int, frozenset[frozenset[str]]]  # changed segments only

    def migratable(self, marking: frozenset[str]) -> bool:
        """True iff every per-segment part of the marking is reachable anew."""
        parts: dict[int, set[str]] = {}
        for p in marking:
            seg = self.segment_of.get(p)
            if seg is not None:
                parts.setdefault(seg, set()).add(p)
        return all(
            frozenset(part) in self.reachable_new[seg]
            for seg, part in parts.items()
            if seg in self.reachable_new
        )


# ── tree helpers over the public block-tree types ───────────────────────────


def relabel(seq: SeqBlock, prefix: str) -> SeqBlock:
    """Copy of the tree with every place and transition label prefixed."""
    out: list = []
    for child in seq.children:
        if isinstance(child, Place):
            out.append(Place(prefix + child.label))
        elif isinstance(child, Transition):
            out.append(Transition(prefix + child.label))
        elif isinstance(child, (AndBlock, XorBlock)):
            out.append(type(child)(tuple(relabel(b, prefix) for b in child.branches)))
        else:
            out.append(LoopBlock(relabel(child.forward, prefix), relabel(child.back, prefix)))
    return SeqBlock(tuple(out))


def marking_count(seq: SeqBlock) -> int:
    """Number of reachable markings of a place-bordered (sub)net.

    Each reachable marking of a block-structured net is one position per
    active parallel branch, so a sequence, choice or loop adds up the
    counts of its parts and a parallel block multiplies them.
    """
    total = 0
    for child in seq.children:
        if isinstance(child, Place):
            total += 1
        elif isinstance(child, AndBlock):
            product = 1
            for branch in child.branches:
                product *= marking_count(branch)
            total += product
        elif isinstance(child, XorBlock):
            total += sum(marking_count(b) for b in child.branches)
        elif isinstance(child, LoopBlock):
            total += marking_count(child.forward) + marking_count(child.back)
    return total


def place_count(seq: SeqBlock) -> int:
    return len(place_set(seq))


def place_set(seq: SeqBlock) -> set[str]:
    out: set[str] = set()
    stack = [seq]
    while stack:
        for child in stack.pop().children:
            if isinstance(child, Place):
                out.add(child.label)
            elif isinstance(child, (AndBlock, XorBlock)):
                stack.extend(child.branches)
            elif isinstance(child, LoopBlock):
                stack.extend((child.forward, child.back))
    return out


# ── generation ──────────────────────────────────────────────────────────────


def _assemble(segments: list[SeqBlock], chunks: list[tuple[int, ...]]) -> SeqBlock:
    children: list = [Place("w0")]
    for k, chunk in enumerate(chunks):
        children.append(Transition(f"a{k}"))
        if len(chunk) == 1:
            children.extend(segments[chunk[0]].children)
        else:
            children.append(AndBlock(tuple(segments[i] for i in chunk)))
        children.append(Transition(f"b{k}"))
        children.append(Place(f"w{k + 1}"))
    return SeqBlock(tuple(children))


#: Share of chunks that run 2-3 segments in parallel, when the state count
#: is free.
PARALLEL = 0.5


def compose(
    rng: random.Random,
    places: int,
    changes: int,
    states: tuple[int, int] | None = None,
    seg_places: int = 20,
    seg_depth: int = 5,
) -> Composition:
    """A composition whose old net holds at least ``places`` places, with
    ``changes`` distinct segments mutated.

    Chunks are drawn until the place count is reached.  Given a ``states``
    band ``(lo, hi)`` (inclusive), every chunk runs 2-3 segments in
    parallel, a chunk that would take the old net's reachable-marking count
    past ``hi`` is redrawn, and a net that ends below ``lo`` (or after 100
    redraws) is started again, so the count is controlled without
    enumerating a marking.
    """
    while True:
        raw: list[SeqBlock] = []
        chunks: list[tuple[int, ...]] = []
        n_places = n_states = 1
        redraws = 0
        while n_places < places and redraws < 100:
            if states is None and rng.random() >= PARALLEL:
                width = 1
            else:
                width = rng.choice((2, 3))
            segs = [W.random_tree(rng, seg_depth, seg_places) for _ in range(width)]
            add_states = math.prod(marking_count(seg) for seg in segs) + 1
            if states is not None and n_states + add_states > states[1]:
                redraws += 1
                continue
            chunks.append(tuple(range(len(raw), len(raw) + width)))
            raw.extend(segs)
            n_places += sum(place_count(seg) for seg in segs) + 1
            n_states += add_states
        if n_places >= places and (states is None or n_states >= states[0]):
            return _finish(rng, raw, chunks, min(changes, len(raw)))


def _finish(
    rng: random.Random, raw: list[SeqBlock], chunks: list[tuple[int, ...]], changes: int
) -> Composition:
    mutated = list(raw)
    for i in rng.sample(range(len(raw)), changes):
        mutated[i] = W.mutate(raw[i], rng)
    old_segments = [relabel(seg, f"s{i}_") for i, seg in enumerate(raw)]
    new_segments = [relabel(seg, f"s{i}_") for i, seg in enumerate(mutated)]
    return Composition(
        old=_assemble(old_segments, chunks),
        new=_assemble(new_segments, chunks),
        old_segments=tuple(old_segments),
        new_segments=tuple(new_segments),
        chunks=tuple(chunks),
        wrappers=frozenset(f"w{k}" for k in range(len(chunks) + 1)),
    )


# ── the reference ───────────────────────────────────────────────────────────


def reference(comp: Composition) -> Reference:
    """Expected per-place classes, SCR, PSCR and decisions of a composition.

    Only the changed segments go through ``oracle_classify``; the rules
    that combine their results are exact for this composition shape:

    * a series segment keeps each place's own class;
    * in a parallel chunk, a place of segment i is a perfect member if it
      is one within segment i or a sibling segment has only non-migratable
      markings, and it is in the SCR if it is there within segment i or a
      sibling has any non-migratable marking;
    * wrapper places are safe;
    * a PSCR exists iff in every chunk either every segment has its own,
      or (2+ segments) one segment has only non-migratable markings.
    """
    segment_of: dict[str, int] = {}
    for i, seg in enumerate(comp.old_segments):
        for p in place_set(seg):
            segment_of[p] = i
    n = len(comp.old_segments)
    own = [dict.fromkeys(place_set(s), SAFE) for s in comp.old_segments]
    any_bad = [False] * n
    all_bad = [False] * n
    own_pscr = [True] * n
    reachable_new: dict[int, frozenset[frozenset[str]]] = {}
    for i in comp.changed:
        orc = W.oracle_classify(W.build_net(comp.old_segments[i]), W.build_net(comp.new_segments[i]))
        own[i] = orc.per_place
        any_bad[i] = bool(orc.non_migratable)
        all_bad[i] = orc.non_migratable == orc.reachable_old
        own_pscr[i] = orc.semantic_pscr_exists
        reachable_new[i] = orc.reachable_new

    per_place = dict.fromkeys(comp.wrappers, SAFE)
    pscr_exists = True
    for chunk in comp.chunks:
        for i in chunk:
            siblings = [j for j in chunk if j != i]
            sib_all = any(all_bad[j] for j in siblings)
            sib_any = any(any_bad[j] for j in siblings)
            for p, cls in own[i].items():
                if cls is PERFECT or sib_all:
                    per_place[p] = PERFECT
                elif cls is OVER or sib_any:
                    per_place[p] = OVER
                else:
                    per_place[p] = SAFE
        if not all(own_pscr[i] for i in chunk) and not (
            len(chunk) >= 2 and any(all_bad[i] for i in chunk)
        ):
            pscr_exists = False
    scr = frozenset(p for p, cls in per_place.items() if cls is not SAFE)
    perfect = frozenset(p for p, cls in per_place.items() if cls is PERFECT)
    return Reference(
        per_place=per_place,
        scr=scr,
        pscr_exists=pscr_exists,
        pscr=perfect if pscr_exists else None,
        segment_of=segment_of,
        reachable_new=reachable_new,
    )
