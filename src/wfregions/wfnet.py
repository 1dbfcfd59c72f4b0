"""Workflow-net semantics: the token game, reachability, and the migration oracle.

A marking is a plain ``frozenset`` of place labels; because the nets built
from ECWS text are safe, a set is a faithful representation.  The oracle
compares two nets purely through their reachable marking sets: a marking of
the old net is migratable exactly when the same label set is reachable in the
new net.

Reachability, the soundness check and the oracle share one breadth-first
explorer.  It holds a state as an int with one bit per place (places are
numbered in sorted label order) and, at each state, tests only the
transitions that a marked place feeds, in transition-name order.
``oracle_classify`` explores each net once, on one place numbering shared by
both nets, so comparing states is comparing ints; markings become
``frozenset`` objects only for its report.  Nothing here reads C-trees: the
oracle stays independent of the structural analysis it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import (
    NotEnabledError,
    SoundnessError,
    StateExplosionError,
    UnknownPlaceError,
)

Marking = frozenset[str]

#: Default bound on the number of distinct markings explored per net.  The
#: oracle peaks at about 480 bytes per reachable state (tracemalloc: 477 B on
#: the benchmark's oracle_corpus probe pairs and on a composed pair of 56k
#: states per net), so the default of 1M states per net lets one pair hold
#: about 1 GB (one net about 0.5 GB) before the cap trips.
DEFAULT_STATE_CAP = 1_000_000


def marking_text(marking: Marking) -> str:
    """Canonical text form of a marking: sorted labels joined by commas."""
    return ",".join(sorted(marking))


@dataclass(frozen=True)
class WfNet:
    """A workflow net with one source place and one sink place."""

    places: frozenset[str]
    transitions: frozenset[str]
    arcs: frozenset[tuple[str, str]]
    init: str
    end: str

    @cached_property
    def pre(self) -> dict[str, frozenset[str]]:
        """Input places of each transition."""
        acc: dict[str, set[str]] = {t: set() for t in self.transitions}
        for src, dst in self.arcs:
            if dst in acc:
                acc[dst].add(src)
        return {t: frozenset(ps) for t, ps in acc.items()}

    @cached_property
    def post(self) -> dict[str, frozenset[str]]:
        """Output places of each transition."""
        acc: dict[str, set[str]] = {t: set() for t in self.transitions}
        for src, dst in self.arcs:
            if src in acc:
                acc[src].add(dst)
        return {t: frozenset(ps) for t, ps in acc.items()}

    @property
    def initial_marking(self) -> Marking:
        return frozenset((self.init,))

    @property
    def final_marking(self) -> Marking:
        return frozenset((self.end,))


def _check_marking(net: WfNet, marking: Marking) -> None:
    unknown = marking - net.places
    if unknown:
        raise UnknownPlaceError(
            f"marking names places not in the net: {marking_text(unknown)}"
        )


def enabled_transitions(net: WfNet, marking: Marking) -> frozenset[str]:
    """Transitions whose input places are all marked."""
    _check_marking(net, marking)
    return frozenset(t for t in net.transitions if net.pre[t] <= marking)


def fire(net: WfNet, marking: Marking, transition: str) -> Marking:
    """Fire one enabled transition and return the successor marking."""
    _check_marking(net, marking)
    if transition not in net.transitions or not net.pre[transition] <= marking:
        raise NotEnabledError(f"transition {transition!r} is not enabled")
    return (marking - net.pre[transition]) | net.post[transition]


class _PlaceIndex:
    """One bit per place, numbered in sorted label order, for one or more nets.

    Every label a net names (its places, its source and sink, and the ends of
    its arcs) gets a bit, so a marking of any of the nets is an int.
    """

    def __init__(self, *nets: WfNet) -> None:
        labels: set[str] = set()
        for net in nets:
            labels |= net.places | {net.init, net.end}
            for t in net.transitions:
                labels |= net.pre[t] | net.post[t]
        self.labels = tuple(sorted(labels))
        self.bit = {p: 1 << i for i, p in enumerate(self.labels)}

    def mask(self, places: frozenset[str]) -> int:
        return sum(self.bit[p] for p in places)

    def decode(self, mask: int) -> Marking:
        labels, found = self.labels, []
        while mask:
            top = mask.bit_length() - 1
            found.append(labels[top])
            mask ^= 1 << top
        return frozenset(found)


@dataclass
class _StateSpace:
    """The reachable states of one net, numbered in breadth-first order.

    ``states[i]`` is the bitmask of state ``i`` (state 0 is the initial
    marking) and ``number`` maps a bitmask back to its state.  ``edges[i]``
    lists the firings at state ``i`` flat, as ``rank, target, rank, target,
    ...`` in transition-name order: a rank indexes ``transitions`` and a
    target is a state number.
    """

    transitions: tuple[str, ...]
    states: list[int]
    number: dict[int, int]
    edges: list[list[int]]


def _explore(net: WfNet, index: _PlaceIndex, cap: int) -> _StateSpace:
    """Breadth-first exploration from the initial marking.

    Raises StateExplosionError once more than ``cap`` markings have been
    found and SoundnessError if a firing would put a second token on a place
    (the nets this package builds are safe, so that indicates a malformed
    net).
    """
    names = tuple(sorted(net.transitions))
    # Each transition as (rank, input mask, output mask), filed under one of
    # its input places (the highest numbered), since it can fire only where
    # that place is marked; one without input places is a candidate at every
    # state.
    fed_by: list[list[tuple[int, int, int]]] = [[] for _ in index.labels]
    always: list[tuple[int, int, int]] = []
    for rank, t in enumerate(names):
        need = index.mask(net.pre[t])
        move = (rank, need, index.mask(net.post[t]))
        if need:
            fed_by[need.bit_length() - 1].append(move)
        else:
            always.append(move)

    start = index.bit[net.init]
    states, number, edges = [start], {start: 0}, []
    for marking in states:  # the loop also visits the states it appends: FIFO
        candidates = list(always)
        tokens = marking
        while tokens:
            top = tokens.bit_length() - 1
            candidates += fed_by[top]
            tokens ^= 1 << top
        candidates.sort()
        row: list[int] = []
        for rank, need, out in candidates:
            if marking & need != need:
                continue
            rest = marking ^ need
            if rest & out:
                raise SoundnessError(
                    f"firing {names[rank]!r} at {{{marking_text(index.decode(marking))}}}"
                    " duplicates a token"
                )
            nxt = rest | out
            target = number.get(nxt)
            if target is None:
                if len(states) >= cap:
                    raise StateExplosionError(f"more than {cap} markings reachable")
                target = number[nxt] = len(states)
                states.append(nxt)
            row += (rank, target)
        edges.append(row)
    return _StateSpace(names, states, number, edges)


def _check_sound(net: WfNet, index: _PlaceIndex, space: _StateSpace) -> None:
    """Proper termination and no dead transitions, on an explored net."""
    final = space.number.get(index.bit[net.end])
    if final is None:
        raise SoundnessError("final marking is not reachable")

    fired: set[int] = set()
    for row in space.edges:
        fired.update(row[::2])
    dead = net.transitions - {space.transitions[rank] for rank in fired}
    if dead:
        raise SoundnessError(f"dead transitions: {', '.join(sorted(dead))}")

    predecessors: list[list[int]] = [[] for _ in space.states]
    for i, row in enumerate(space.edges):
        for target in row[1::2]:
            predecessors[target].append(i)
    can_finish = bytearray(len(space.states))
    can_finish[final] = 1
    queue = [final]
    for state in queue:  # grows while it is walked, as in _explore
        for prev in predecessors[state]:
            if not can_finish[prev]:
                can_finish[prev] = 1
                queue.append(prev)
    if len(queue) < len(space.states):
        stuck = (
            index.decode(mask)
            for mask, ok in zip(space.states, can_finish)
            if not ok
        )
        sample = marking_text(min(stuck, key=marking_text))
        raise SoundnessError(f"marking {{{sample}}} cannot reach the final marking")


def reachability_graph(
    net: WfNet, cap: int = DEFAULT_STATE_CAP
) -> dict[Marking, tuple[tuple[str, Marking], ...]]:
    """Breadth-first reachability from the initial marking.

    Returns the full successor relation, keyed by marking, in the order the
    markings were found; each marking's successors follow transition-name
    order.  Raises StateExplosionError once more than ``cap`` markings have
    been found and SoundnessError if a firing would put a second token on a
    place (the nets this package builds are safe, so that indicates a
    malformed net).
    """
    index = _PlaceIndex(net)
    space = _explore(net, index, cap)
    markings = [index.decode(mask) for mask in space.states]
    names = space.transitions
    return {
        markings[i]: tuple(
            (names[rank], markings[target])
            for rank, target in zip(row[::2], row[1::2])
        )
        for i, row in enumerate(space.edges)
    }


def reachable_markings(net: WfNet, cap: int = DEFAULT_STATE_CAP) -> frozenset[Marking]:
    """The set of markings reachable from the initial marking."""
    index = _PlaceIndex(net)
    return frozenset(map(index.decode, _explore(net, index, cap).states))


def check_soundness(net: WfNet, cap: int = DEFAULT_STATE_CAP) -> None:
    """Verify proper termination and absence of dead transitions.

    Every reachable marking must be able to reach the final marking, and
    every transition must fire somewhere in the reachability graph.
    """
    index = _PlaceIndex(net)
    _check_sound(net, index, _explore(net, index, cap))


def _sound_states(net: WfNet, index: _PlaceIndex, cap: int) -> list[int]:
    """The states of a net checked sound.  Only the states outlive the call,
    so the successor and predecessor lists are freed before the caller
    decodes any marking."""
    space = _explore(net, index, cap)
    _check_sound(net, index, space)
    return space.states


class MemberClass(Enum):
    """How a place of the old net relates to non-migratable markings."""

    SAFE = "safe"
    OVERESTIMATION = "overestimation"
    PERFECT_MEMBER = "perfect_member"


@dataclass(frozen=True)
class OracleReport:
    """Ground-truth migration analysis computed from reachable marking sets."""

    reachable_old: frozenset[Marking]
    reachable_new: frozenset[Marking]
    non_migratable: frozenset[Marking]
    per_place: dict[str, MemberClass]
    semantic_scr: frozenset[str]
    semantic_pscr_exists: bool
    semantic_pscr: frozenset[str] | None


def oracle_classify(
    old: WfNet, new: WfNet, cap: int = DEFAULT_STATE_CAP
) -> OracleReport:
    """Classify every place of ``old`` by exhaustive marking comparison.

    A place is a perfect member when it appears in at least one old marking
    and every old marking containing it is unreachable in the new net; it is
    an overestimation when it appears in both migratable and non-migratable
    markings; otherwise it is safe.  The semantic counterpart of the perfect
    region exists exactly when every non-migratable marking contains a
    perfect member.  Each net is explored once; ``per_place`` follows
    sorted label order.
    """
    index = _PlaceIndex(old, new)
    old_states = _sound_states(old, index, cap)
    new_states = set(_sound_states(new, index, cap))
    bad_states: list[int] = []
    bad = good = 0
    for mask in old_states:
        if mask in new_states:
            good |= mask
        else:
            bad |= mask
            bad_states.append(mask)
    per_place: dict[str, MemberClass] = {}
    perfect = 0
    for place in sorted(old.places):
        bit = index.bit[place]
        if not bad & bit:
            per_place[place] = MemberClass.SAFE
        elif good & bit:
            per_place[place] = MemberClass.OVERESTIMATION
        else:
            per_place[place] = MemberClass.PERFECT_MEMBER
            perfect |= bit
    pscr_exists = all(mask & perfect for mask in bad_states)

    decoded = {mask: index.decode(mask) for mask in new_states.union(old_states)}
    reachable_old = frozenset(decoded[mask] for mask in old_states)
    non_migratable = frozenset(decoded[mask] for mask in bad_states)
    reachable_new = frozenset(decoded[mask] for mask in new_states)
    return OracleReport(
        reachable_old=reachable_old,
        reachable_new=reachable_new,
        non_migratable=non_migratable,
        per_place=per_place,
        semantic_scr=index.decode(bad),
        semantic_pscr_exists=pscr_exists,
        semantic_pscr=index.decode(perfect) if pscr_exists else None,
    )
