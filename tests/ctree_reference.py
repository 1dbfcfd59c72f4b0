"""Every marking a C-tree generates, listed: the reference for the C-tree tests.

``markings_of`` below is the exhaustive marking generator that
``wfregions.ctree`` used to export, kept word for word.  The package itself
never lists markings; the tests compare its structural answers (inclusion,
membership, break-off, dysfunction) against the sets this function lists.
Its cost grows with the product of branch sizes and, on a chain of nested
blocks, cubically with the depth, so it suits small trees only.
"""

from __future__ import annotations

from collections.abc import Generator

from wfregions.ctree import CNode, CTree, _drive
from wfregions.wfnet import Marking


def markings_of(c: CTree) -> frozenset[Marking]:
    """Every complete marking the tree generates.

    A marking picks one element of the node; a block element contributes one
    complete sub-marking from each of its branches.  A node with no pickable
    element generates nothing at all.
    """

    def generate(node: CNode) -> Generator[CNode, frozenset[Marking], frozenset[Marking]]:
        out: set[Marking] = set()
        for el in node.elements:
            if isinstance(el, str):
                out.add(frozenset((el,)))
            else:
                combos: set[frozenset[str]] = {frozenset()}
                for branch in el.branches:
                    sub = yield branch
                    combos = {m | s for m in combos for s in sub}
                    if not combos:
                        break
                out.update(combos)
        return frozenset(out)

    return _drive(generate, c)
