"""Structural change regions for migrating running instances between nets.

Given the old and the new net as concurrency trees, every old place is
classified by how the change affects the markings it participates in:
removed, lost or acquired concurrency, or reformed concurrency (weakly —
some of its concurrent markings die, an exact inclusion test; strongly — by
the paper's break-off rule).  From the classes follow the overestimated and
the perfect member places, the structural change region (every place
occurring in some non-migratable marking), and — when one exists — the
perfect region whose members hit exactly the non-migratable markings, giving
per-marking decisions with no false calls in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .ctree import CTree, build_ctree, delete_places, gcs
from .ctree import is_breakoff, locate, mpe_exists, places
from .ecws import BlockTree
from .wfnet import Marking, MemberClass


class Decision(Enum):
    MIGRATABLE = "migratable"
    NON_MIGRATABLE = "non_migratable"
    UNKNOWN = "unknown"


# bound once: a ``Decision.X`` lookup costs more than the set test it answers
_MIGRATABLE = Decision.MIGRATABLE
_NON_MIGRATABLE = Decision.NON_MIGRATABLE
_UNKNOWN = Decision.UNKNOWN


@dataclass(frozen=True)
class ChangeSets:
    """Old-net places grouped by change property (mutually disjoint except
    that strong reformed is a subset of weak reformed)."""

    cr_r: frozenset[str]  # removed in the new net
    cr_lc: frozenset[str]  # lost concurrency (concurrent -> sequential)
    cr_ac: frozenset[str]  # acquired concurrency (sequential -> concurrent)
    cr_wrc: frozenset[str]  # weak reformed concurrency
    cr_src: frozenset[str]  # strong reformed concurrency (subset of weak)


@dataclass(frozen=True)
class AnalysisReport:
    change_sets: ChangeSets
    over: frozenset[str]
    perf: frozenset[str]
    scr: frozenset[str]
    pscr_exists: bool
    pscr: frozenset[str] | None
    per_place: dict[str, MemberClass]
    # the old net's C-tree, which generates exactly its reachable markings
    old_ctree: CTree = field(compare=False, repr=False)


def change_sets(c: CTree, c2: CTree) -> ChangeSets:
    """Classify every old place by its change property.

    Removal is tested first; positional (root/non-root) moves next; places
    concurrent in both nets are compared through their concurrent-submarking
    trees — failed marking inclusion means weak reformed concurrency, and weak
    plus a break-off of the places lost from (or new in) the concurrent
    surroundings means strong.  A place's gcs depends only on its route, the
    chain of ``branch_of`` steps down to the node holding it, so the reformed
    verdict is computed once per pair of old and new node.  Where one
    outermost block object holds the place in both trees (an unchanged region
    of trees built with ``build_ctree(new, like=old)``), the two routes are
    one path, the two gcs trees are equal and the place is not reformed: no
    route is followed, no gcs is built and nothing is checked.
    """
    r, lc, ac, wrc, src = set(), set(), set(), set(), set()
    new_places, outer, outer2 = c2.place_set, c.branch_of, c2.branch_of
    verdicts: dict[tuple[int, int], tuple[bool, bool]] = {}
    for p in c.place_set:
        if p not in new_places:
            r.add(p)
        elif p in c.own_places:
            if p not in c2.own_places:
                ac.add(p)
        elif p in c2.own_places:
            lc.add(p)
        elif outer[p][0] is not outer2[p][0]:
            key = (id(locate(p, c)[1]), id(locate(p, c2)[1]))
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = _reformed(p, c, c2)
            weak, strong = verdict
            if weak:
                wrc.add(p)
            if strong:
                src.add(p)
    return ChangeSets(*map(frozenset, (r, lc, ac, wrc, src)))


def _reformed(p: str, c: CTree, c2: CTree) -> tuple[bool, bool]:
    """(weak, strong) reformed concurrency of a place concurrent in both trees."""
    g, g2 = gcs(p, c), gcs(p, c2)
    if mpe_exists(g, g2):
        return False, False
    lost = places(g) - places(g2)
    gained = places(g2) - places(g)
    return True, is_breakoff(g, lost) or is_breakoff(g2, gained)


def pscr_exists(
    c: CTree, c2: CTree, over: frozenset[str], perf: frozenset[str]
) -> bool:
    """Decide whether the perfect members hit every non-migratable marking:
    trivially with no overestimated places, else exactly when every old
    marking avoiding them is a new one: inclusion after deleting them from
    the old tree.  Deletion keeps untouched subtrees as they are, so on trees
    that share their unchanged regions the check stops at each shared one."""
    if not over:
        return True
    return mpe_exists(delete_places(c, perf), c2)


def analyze(old: BlockTree, new: BlockTree) -> AnalysisReport:
    """Full structural analysis of an old/new net pair.

    The new tree is built like the old one, so every subtree the nets have in
    common is one object and the checks stop there.
    """
    c = build_ctree(old)
    c2 = build_ctree(new, like=c)
    cs = change_sets(c, c2)
    # overestimated places and perfect members; together they are the SCR
    over = cs.cr_wrc - cs.cr_src
    perf = cs.cr_r | cs.cr_lc | cs.cr_ac | cs.cr_src
    exists = pscr_exists(c, c2, over, perf)
    # every old place, in sorted label order as the oracle lists them
    per_place = dict.fromkeys(sorted(c.place_set), MemberClass.SAFE)
    per_place.update(dict.fromkeys(over, MemberClass.OVERESTIMATION))
    per_place.update(dict.fromkeys(perf, MemberClass.PERFECT_MEMBER))
    return AnalysisReport(
        change_sets=cs,
        over=over,
        perf=perf,
        scr=over | perf,
        pscr_exists=exists,
        pscr=perf if exists else None,
        per_place=per_place,
        old_ctree=c,
    )


def decide_marking(m: Marking, report: AnalysisReport) -> Decision:
    """Decide migratability of one old-net marking from the report.

    With a perfect region the answer is exact both ways.  Without one, a
    marking outside the whole region is migratable and one touching a
    perfect member is not; markings touching only overestimated places stay
    undecided.
    """
    if report.pscr_exists:
        assert report.pscr is not None
        return _MIGRATABLE if m.isdisjoint(report.pscr) else _NON_MIGRATABLE
    if m.isdisjoint(report.scr):
        return _MIGRATABLE
    if not m.isdisjoint(report.perf):
        return _NON_MIGRATABLE
    return _UNKNOWN


def report_json(report: AnalysisReport) -> dict:
    """Plain-data form of a report with sorted label arrays."""
    return {
        **{name: sorted(labels) for name, labels in vars(report.change_sets).items()},
        "over": sorted(report.over),
        "perf": sorted(report.perf),
        "scr": sorted(report.scr),
        "pscr_exists": report.pscr_exists,
        "pscr": sorted(report.pscr) if report.pscr is not None else None,
        "per_place": {p: cls.value for p, cls in sorted(report.per_place.items())},
    }
