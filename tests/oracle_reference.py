"""The oracle as it was before it explored bitmask states: the reference.

``reachability_graph``, ``reachable_markings``, ``check_soundness`` and
``oracle_classify`` below are the frozenset breadth-first search, the
soundness check and the per-place classifier that ``wfregions.wfnet`` used to
run, kept word for word (only renamed to ``reference_*``), so that
``tests/test_oracle.py`` can require the rebuilt oracle to return the same
results and raise the same errors.
"""

from __future__ import annotations

from collections import deque

from wfregions.errors import SoundnessError, StateExplosionError
from wfregions.wfnet import (
    DEFAULT_STATE_CAP,
    Marking,
    MemberClass,
    OracleReport,
    WfNet,
    marking_text,
)


def reference_reachability_graph(
    net: WfNet, cap: int = DEFAULT_STATE_CAP
) -> dict[Marking, tuple[tuple[str, Marking], ...]]:
    """Breadth-first reachability from the initial marking.

    Returns the full successor relation, keyed by marking.  Raises
    StateExplosionError once more than ``cap`` markings have been found and
    SoundnessError if a firing would put a second token on a place (the nets
    this package builds are safe, so that indicates a malformed net).
    """
    start = net.initial_marking
    graph: dict[Marking, tuple[tuple[str, Marking], ...]] = {}
    queue: deque[Marking] = deque((start,))
    seen = {start}
    while queue:
        marking = queue.popleft()
        succs = []
        for t in sorted(net.transitions):
            pre = net.pre[t]
            if not pre <= marking:
                continue
            rest = marking - pre
            if rest & net.post[t]:
                raise SoundnessError(
                    f"firing {t!r} at {{{marking_text(marking)}}} duplicates a token"
                )
            nxt = rest | net.post[t]
            succs.append((t, nxt))
            if nxt not in seen:
                if len(seen) >= cap:
                    raise StateExplosionError(
                        f"more than {cap} markings reachable"
                    )
                seen.add(nxt)
                queue.append(nxt)
        graph[marking] = tuple(succs)
    return graph


def reference_reachable_markings(net: WfNet, cap: int = DEFAULT_STATE_CAP) -> frozenset[Marking]:
    """The set of markings reachable from the initial marking."""
    return frozenset(reference_reachability_graph(net, cap))


def reference_check_soundness(net: WfNet, cap: int = DEFAULT_STATE_CAP) -> None:
    """Verify proper termination and absence of dead transitions.

    Every reachable marking must be able to reach the final marking, and
    every transition must fire somewhere in the reachability graph.
    """
    graph = reference_reachability_graph(net, cap)
    final = net.final_marking
    if final not in graph:
        raise SoundnessError("final marking is not reachable")

    fired = {t for succs in graph.values() for t, _ in succs}
    dead = net.transitions - fired
    if dead:
        raise SoundnessError(f"dead transitions: {', '.join(sorted(dead))}")

    predecessors: dict[Marking, set[Marking]] = {m: set() for m in graph}
    for m, succs in graph.items():
        for _, nxt in succs:
            predecessors[nxt].add(m)
    can_finish = {final}
    queue = deque((final,))
    while queue:
        for prev in predecessors[queue.popleft()]:
            if prev not in can_finish:
                can_finish.add(prev)
                queue.append(prev)
    stuck = set(graph) - can_finish
    if stuck:
        sample = marking_text(min(stuck, key=marking_text))
        raise SoundnessError(f"marking {{{sample}}} cannot reach the final marking")


def reference_oracle_classify(
    old: WfNet, new: WfNet, cap: int = DEFAULT_STATE_CAP
) -> OracleReport:
    """Classify every place of ``old`` by exhaustive marking comparison.

    A place is a perfect member when it appears in at least one old marking
    and every old marking containing it is unreachable in the new net; it is
    an overestimation when it appears in both migratable and non-migratable
    markings; otherwise it is safe.  The semantic counterpart of the perfect
    region exists exactly when every non-migratable marking contains a
    perfect member.
    """
    reference_check_soundness(old, cap)
    reference_check_soundness(new, cap)
    reachable_old = reference_reachable_markings(old, cap)
    reachable_new = reference_reachable_markings(new, cap)
    non_migratable = frozenset(m for m in reachable_old if m not in reachable_new)

    per_place: dict[str, MemberClass] = {}
    for place in old.places:
        with_place = [m for m in reachable_old if place in m]
        bad = [m for m in with_place if m in non_migratable]
        if bad and len(bad) == len(with_place):
            per_place[place] = MemberClass.PERFECT_MEMBER
        elif bad:
            per_place[place] = MemberClass.OVERESTIMATION
        else:
            per_place[place] = MemberClass.SAFE

    perfect = frozenset(
        p for p, cls in per_place.items() if cls is MemberClass.PERFECT_MEMBER
    )
    scr = frozenset(p for m in non_migratable for p in m)
    pscr_exists = all(m & perfect for m in non_migratable)
    return OracleReport(
        reachable_old=reachable_old,
        reachable_new=reachable_new,
        non_migratable=non_migratable,
        per_place=per_place,
        semantic_scr=scr,
        semantic_pscr_exists=pscr_exists,
        semantic_pscr=perfect if pscr_exists else None,
    )
