"""The migration decision written with ``&``: the reference.

``reference_decide_marking`` below is ``wfregions.regions.decide_marking``
as it was before it tested overlap with ``isdisjoint`` and returned members
bound once, kept word for word (only renamed), so that
``tests/test_regions.py`` can require the rewrite to return the same member
for every marking.
"""

from __future__ import annotations

from wfregions.regions import AnalysisReport, Decision
from wfregions.wfnet import Marking


def reference_decide_marking(m: Marking, report: AnalysisReport) -> Decision:
    """Decide migratability of one old-net marking from the report.

    With a perfect region the answer is exact both ways.  Without one, a
    marking outside the whole region is migratable and one touching a
    perfect member is not; markings touching only overestimated places stay
    undecided.
    """
    if report.pscr_exists:
        assert report.pscr is not None
        return Decision.NON_MIGRATABLE if m & report.pscr else Decision.MIGRATABLE
    if not m & report.scr:
        return Decision.MIGRATABLE
    if m & report.perf:
        return Decision.NON_MIGRATABLE
    return Decision.UNKNOWN
