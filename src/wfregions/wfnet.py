"""Workflow-net semantics: the token game, reachability, and the migration oracle.

A marking is a plain ``frozenset`` of place labels; because the nets built
from ECWS text are safe, a set is a faithful representation.  The oracle
compares two nets purely through their reachable marking sets: a marking of
the old net is migratable exactly when the same label set is reachable in the
new net.

Reachability, the soundness check and the oracle share one breadth-first
explorer.  It holds a state as an int with one bit per place (places are
numbered in sorted label order) and its enabled transitions as an int with
one bit per transition (numbered in name order).  A new state inherits the
enabled set of the state that found it, less the transitions reading a place
the firing changed, plus those of them the new marking enables; it fires
them lowest bit first, in transition-name order, and records each firing
once, as a predecessor of its target.  Soundness is read from those masks
and predecessor lists.  ``oracle_classify`` explores each net once, on one
place numbering shared by both nets, so comparing states is comparing ints;
markings become ``frozenset`` objects only for its report.  Nothing here
reads C-trees: the oracle stays independent of the structural analysis it
checks.
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
#: oracle peaks at about 480 bytes per reachable state (tracemalloc: 392 B on
#: the benchmark's oracle_corpus probe pairs of seed 11, 485 B on a composed
#: pair of 42k states per net), so the default of 1M states per net lets one
#: pair hold about 1 GB (one net about 0.5 GB) before the cap trips.
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
    marking) and ``number`` maps a bitmask back to its state.
    ``enabled[i]`` has bit ``r`` set when ``transitions[r]`` is enabled at
    state ``i``; every enabled transition fired, so these are the firings.
    ``preds[j]`` lists the state of each firing that leads to state ``j``,
    once per firing.
    """

    transitions: tuple[str, ...]
    states: list[int]
    number: dict[int, int]
    enabled: list[int]
    preds: list[list[int]]


def _explore(net: WfNet, index: _PlaceIndex, cap: int) -> _StateSpace:
    """Breadth-first exploration from the initial marking.

    Raises StateExplosionError once more than ``cap`` markings have been
    found and SoundnessError if a firing would put a second token on a place
    (the nets this package builds are safe, so that indicates a malformed
    net).
    """
    names = tuple(sorted(net.transitions))
    need = [index.mask(net.pre[t]) for t in names]
    out = [index.mask(net.post[t]) for t in names]
    # A state inherits the enabled set of the state that found it: firing t
    # changes only the places of pre(t) and post(t), so keep[r] clears each
    # transition reading one of them, and wake[r] tests again those that
    # read a place of post(t), the only ones the firing can enable.
    readers: dict[str, list[int]] = {}
    for r, t in enumerate(names):
        for p in net.pre[t]:
            readers.setdefault(p, []).append(r)
    keep, wake = [], []
    for t in names:
        woken = {s for p in net.post[t] for s in readers.get(p, ())}
        keep.append(~sum(1 << s for s in woken.union(*map(readers.get, net.pre[t]))))
        wake.append([(1 << s, need[s]) for s in woken])

    start = index.bit[net.init]
    first = sum(1 << r for r, n in enumerate(need) if start & n == n)
    states, number, enabled, preds = [start], {start: 0}, [first], [[]]
    for i, marking in enumerate(states):  # also visits the states it appends
        mask = here = enabled[i]
        while mask:  # lowest rank first: transition-name order
            low = mask & -mask
            mask ^= low
            r = low.bit_length() - 1
            rest = marking ^ need[r]
            if rest & out[r]:
                raise SoundnessError(
                    f"firing {names[r]!r} at {{{marking_text(index.decode(marking))}}}"
                    " duplicates a token"
                )
            nxt = rest | out[r]
            target = number.get(nxt)
            if target is None:
                if len(states) >= cap:
                    raise StateExplosionError(f"more than {cap} markings reachable")
                number[nxt] = len(states)
                states.append(nxt)
                bits = here & keep[r]
                for bit, n in wake[r]:
                    if nxt & n == n:
                        bits |= bit
                enabled.append(bits)
                preds.append([i])
            else:
                preds[target].append(i)
    return _StateSpace(names, states, number, enabled, preds)


def _check_sound(net: WfNet, index: _PlaceIndex, space: _StateSpace) -> None:
    """Proper termination and no dead transitions, on an explored net."""
    final = space.number.get(index.bit[net.end])
    if final is None:
        raise SoundnessError("final marking is not reachable")

    fired = 0
    for bits in space.enabled:
        fired |= bits
    dead = [t for r, t in enumerate(space.transitions) if not fired >> r & 1]
    if dead:
        raise SoundnessError(f"dead transitions: {', '.join(dead)}")

    can_finish = bytearray(len(space.states))
    can_finish[final] = 1
    queue = [final]
    for state in queue:  # grows while it is walked, as in _explore
        for prev in space.preds[state]:
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
    pre, post = net.pre, net.post
    graph = {}
    for mask, bits in zip(space.states, space.enabled):
        marking = index.decode(mask)
        fired = [t for r, t in enumerate(space.transitions) if bits >> r & 1]
        graph[marking] = tuple((t, (marking - pre[t]) | post[t]) for t in fired)
    return graph


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


def _sound_states(
    net: WfNet, index: _PlaceIndex, cap: int
) -> tuple[list[int], dict[int, int]]:
    """The states of a net checked sound, and their numbers.  Only these
    outlive the call, so the enabled masks and predecessor lists are freed
    before the caller decodes any marking."""
    space = _explore(net, index, cap)
    _check_sound(net, index, space)
    return space.states, space.number


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
    old_states = _sound_states(old, index, cap)[0]
    # the new net's states; the loop takes out those the old net reaches too
    new_only = _sound_states(new, index, cap)[1]
    good_states: list[int] = []
    bad_states: list[int] = []
    bad = good = 0
    for mask in old_states:
        if new_only.pop(mask, None) is None:
            bad |= mask
            bad_states.append(mask)
        else:
            good |= mask
            good_states.append(mask)
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

    migratable = frozenset(map(index.decode, good_states))
    non_migratable = frozenset(map(index.decode, bad_states))
    return OracleReport(
        reachable_old=migratable | non_migratable,
        reachable_new=migratable.union(map(index.decode, new_only)),
        non_migratable=non_migratable,
        per_place=per_place,
        semantic_scr=index.decode(bad),
        semantic_pscr_exists=pscr_exists,
        semantic_pscr=index.decode(perfect) if pscr_exists else None,
    )
