"""Parsing and printing of block-structured workflow nets in ECWS text form.

The text form writes a net as an alternating sequence of place and transition
labels with three bracket constructs::

    p1 t1 p2 t2 p3                    plain sequence
    p1 t1 (p2 t2 p3)(p4 t3 p5) t4 p6  parallel split/join, 2+ branches
    p1 [t1 p2 t2][t3 p3 t4] p5        exclusive choice, 2+ branches
    p1 t1 {p2 t2 p3}{t4 p4 t5} t6 p6  loop: forward part, then back part

Parenthesised branches are place-bordered and sit between the fork and join
transitions.  Bracketed branches are transition-bordered and sit between two
places.  The first loop group is the place-bordered forward part, the second
the transition-bordered way back.  Whitespace and commas are interchangeable
separators, ``#`` starts a comment running to end of line, and a letter
directly after a decimal digit starts a new label, so ``p1t1p2`` reads as
three labels.

``parse`` produces a validated block tree in one pass over the scanner's
tokens, building the tree and checking its shape as it goes, so a valid text
is walked once.  It works out a line and column only when it raises: a shape
error makes it read the text once more, noting where each element starts,
and the shape check of ``validate_tree`` then names the fault.  The reader
does not check that each label scans as one, since a parsed label does so
by construction.  ``format_tree`` prints the canonical
separator-free text, and ``build_net`` checks a tree with ``validate_tree``
and wires it into a :class:`~wfregions.wfnet.WfNet`.  One rule holds: the
reader checks the text it reads, and ``validate_tree`` and ``build_net``
check the tree they are given, on every call.
``branches_of`` is the one place that knows how each kind of block holds its
sequences.  A valid tree holds each sequence object once, so a sequence is
addressed by the object itself: ``walk`` visits the sequences in preorder,
and ``rebuild`` edits them, sharing every subtree it leaves alone.
Two walkers serve block trees and C-trees alike: a preorder (``walk`` here)
visits, and ``_drive`` runs a fold, one generator per node; ``rebuild``,
``format_tree``, every fold in ``ctree``, and the ``==``, ``hash`` and
``repr`` of the sequence, block and C-tree types run on it.  Neither
recurses.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Generator, Iterator
from dataclasses import dataclass, fields
from functools import cache
from itertools import islice
from operator import is_not
from typing import Any

from .errors import DuplicateLabelError, LexError, MarkingError, ParseError
from .wfnet import Marking, WfNet

# ── block tree ──────────────────────────────────────────────────────────────


@dataclass(frozen=True, slots=True)
class Place:
    label: str


@dataclass(frozen=True, slots=True)
class Transition:
    label: str


class _Nested:
    """``==``, ``hash`` and ``repr`` of the nested tree types: the sequence
    and block types here, and ``CNode`` and ``CBlock`` of :mod:`.ctree`.
    Each gives the dataclass result (same type and equal fields; the hash of
    the field tuple; the field text) from the fields that the generated
    method reads (``Field.compare`` for ``==`` and ``hash``, ``Field.repr``
    for ``repr``), so the facts a C-tree node keeps beside its elements stay
    out.  They run on ``_drive``, so no nesting depth exhausts the call
    stack, and a pair of fields or elements that is one object (as in the
    hash-consed C-trees) compares equal without a walk.

    The block-tree types are slotted, so no instance carries a ``__dict__``
    (a leaf object takes 40 bytes, against 72-152 with one) and none takes a
    weak reference; this base adds no slot.  The C-tree types are not
    slotted: they cache facts in their ``__dict__``."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented

        def step(pair: tuple) -> Generator[tuple, bool, bool]:
            x, y = pair
            for name in _field_names(x.__class__, "compare"):
                u, v = getattr(x, name), getattr(y, name)
                if u is v:
                    continue
                many = type(u) is tuple and type(v) is tuple
                if many and len(u) != len(v):
                    return False
                for a, b in zip(u, v) if many else ((u, v),):  # stops at the first difference
                    if a is b:
                        continue
                    if isinstance(a, _Nested) and type(a) is type(b):
                        if not (yield a, b):
                            return False
                    elif not a == b:
                        return False
            return True

        return _drive(step, (self, other))

    def __hash__(self) -> int:
        def step(node: _Nested) -> Generator[_Nested, int, int]:
            values = []
            for name in _field_names(node.__class__, "compare"):
                value = getattr(node, name)
                many = type(value) is tuple
                items = []
                for el in value if many else (value,):
                    items.append(_Hashed((yield el)) if isinstance(el, _Nested) else el)
                values.append(tuple(items) if many else items[0])
            return hash(tuple(values))

        return _drive(step, self)

    def __repr__(self) -> str:
        out: list[str] = []

        def step(node: _Nested) -> Generator[_Nested, None, None]:
            out.append(f"{type(node).__qualname__}(")
            for k, name in enumerate(_field_names(node.__class__, "repr")):
                value = getattr(node, name)
                many = type(value) is tuple
                out.append(f"{', ' if k else ''}{name}={'(' if many else ''}")
                for j, el in enumerate(value if many else (value,)):
                    if j:
                        out.append(", ")
                    if isinstance(el, _Nested):
                        yield el
                    else:
                        out.append(repr(el))
                if many:
                    out.append(",)" if len(value) == 1 else ")")
            out.append(")")

        _drive(step, self)
        return "".join(out)


@cache
def _field_names(cls: type, flag: str) -> tuple[str, ...]:
    """The fields of dataclass ``cls`` whose ``flag`` (``"compare"`` or
    ``"repr"``) is set, in order: those its generated methods read."""
    return tuple(f.name for f in fields(cls) if getattr(f, flag))


class _Hashed:
    """A stand-in whose hash is a given value, so that a tuple holding it
    hashes as the tuple of the node it stands for."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        return self.value


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class SeqBlock(_Nested):
    """An alternating run of place-like and transition-like elements."""

    children: tuple["Element", ...]


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class AndBlock(_Nested):
    """Parallel branches, each place-bordered, between a fork and a join."""

    branches: tuple[SeqBlock, ...]


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class XorBlock(_Nested):
    """Alternative branches, each transition-bordered, between two places."""

    branches: tuple[SeqBlock, ...]


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class LoopBlock(_Nested):
    """A place-bordered forward part plus a transition-bordered back part."""

    forward: SeqBlock
    back: SeqBlock


Element = Place | Transition | AndBlock | XorBlock | LoopBlock

#: A whole net is simply the root sequence, which is place-bordered.
BlockTree = SeqBlock

_PLACE_LIKE = (Place, AndBlock, LoopBlock)
_TRANS_LIKE = (Transition, XorBlock)


def branches_of(el: Element) -> tuple[SeqBlock, ...]:
    """The sequences of a block, in order; places and transitions have none.

    A parallel or choice block lists its branches, a loop its forward part
    and then its back part.
    """
    if isinstance(el, LoopBlock):
        return (el.forward, el.back)
    if isinstance(el, (AndBlock, XorBlock)):
        return el.branches
    return ()


def with_branches(el: Element, seqs: tuple[SeqBlock, ...]) -> Element:
    """The block ``el`` holding ``seqs`` instead: the inverse of :func:`branches_of`."""
    if isinstance(el, LoopBlock):
        forward, back = seqs
        return LoopBlock(forward, back)
    return type(el)(tuple(seqs))


def walk(tree: BlockTree) -> Iterator[SeqBlock]:
    """Every sequence of the tree, in preorder.

    A sequence comes before the sequences nested in it; those follow its
    elements in order, and each block's sequences in :func:`branches_of`
    order.  The walk keeps its own stack, so nesting depth is unbounded.
    """
    stack = [tree]
    while stack:
        seq = stack.pop()
        yield seq
        children = seq.children
        # pushed last to first, so the first nested sequence is popped next
        for i in range(len(children) - 1, -1, -1):
            if not isinstance(children[i], (Place, Transition)):
                stack += reversed(branches_of(children[i]))


def _drive(step: Callable[[Any], Generator], root: Any) -> Any:
    """Run a fold over the nodes below ``root`` on an explicit stack:
    ``step(node)`` is a generator that yields each child whose result it
    needs, is sent that result back, and returns the node's own result."""
    stack = [step(root)]
    result = None
    while stack:
        try:
            child = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(step(child))
            result = None
    return result


def rebuild(
    tree: BlockTree,
    edit: Callable[[SeqBlock, tuple[Element, ...]], tuple[Element, ...]],
) -> BlockTree:
    """The tree with every sequence rebuilt by ``edit``, innermost first.

    ``edit(seq, children)`` gets the children of ``seq`` with their blocks
    already rebuilt, which is ``seq.children`` itself where none changed, and
    returns the sequence's new children.  Returning ``seq.children`` keeps
    ``seq``, so every untouched subtree is shared with ``tree``.
    """

    def step(seq: SeqBlock) -> Generator[SeqBlock, SeqBlock, SeqBlock]:
        children: tuple[Element, ...] | list[Element] = seq.children
        for i, child in enumerate(seq.children):
            if isinstance(child, (Place, Transition)):
                continue
            seqs = branches_of(child)
            rebuilt = []
            for branch in seqs:
                rebuilt.append((yield branch))
            if any(map(is_not, rebuilt, seqs)):
                if children is seq.children:
                    children = list(children)
                children[i] = with_branches(child, tuple(rebuilt))
        out = edit(seq, children if children is seq.children else tuple(children))
        return seq if out is seq.children else SeqBlock(tuple(out))

    return _drive(step, tree)


# ── scanner ─────────────────────────────────────────────────────────────────

#: The label rule, stated here only: a letter or underscore, then word
#: characters, except that a letter directly after a decimal digit starts the
#: next label, so ``p1t1`` is two labels.  A letter is a word character other
#: than ``_`` and the decimal digits, so numerals such as ``²`` and ``½`` count.
#: The pattern reads a label as letters or underscores, then digit runs each
#: closed by ``_`` and followed by letters or underscores, then one last digit
#: run.  ``[^\W\d]`` and ``\d`` share no character and only the ``_`` that
#: closes a digit run leads on from it, so each character matches in one way:
#: no repeat is ambiguous, and a match that fails does so in linear time.
#: Writing the repeat as ``[\d_]`` or a word character not after a digit would
#: let a digit after ``_`` match either way, and each ``_1`` of ``a1_1_…_1!``
#: would double the ways the match can fail.  :func:`format_tree` reads the
#: rule one character at a time: a label starts with ``c`` where
#: ``(c.isalnum() or c == "_") and not c.isdecimal()``, and it runs on from the
#: label before unless that one ends in a decimal digit and ``c`` is not
#: ``_``.  ``test_the_printer_reads_the_label_rule_on_every_code_point`` in
#: ``tests/test_ecws.py`` holds both tests to this pattern.
_LABEL = re.compile(r"[^\W\d]+(?:\d+_[^\W\d]*)*\d*")

#: Separators (whitespace, commas, a ``#`` comment to the end of the line),
#: then one token: a label, a bracket, the empty end of the text, or an
#: illegal character, which takes all the rest of the text with it.  One of
#: the four always matches after the separators, so none backtracks, and
#: ``findall`` lists the tokens as strings.
_TOKEN = re.compile(rf"(?:[\s,]|#.*)*({_LABEL.pattern}|[()\[\]{{}}]|\Z|(?s:.+))")


def parse_marking(text: str) -> Marking:
    """Inverse of :func:`~wfregions.wfnet.marking_text`: labels joined by
    commas.  Raises MarkingError, a ValueError, unless every part is one
    label, and on a label that occurs twice (a safe net holds one token per
    place)."""
    marking: set[str] = set()
    for label in [part.strip() for part in text.split(",")]:
        if not _LABEL.fullmatch(label):
            raise MarkingError(f"malformed marking text {text!r}: {label!r} is not a label")
        if label in marking:
            raise MarkingError(f"malformed marking text {text!r}: {label!r} occurs twice")
        marking.add(label)
    return frozenset(marking)


# ── reader ──────────────────────────────────────────────────────────────────

#: Deepest bracket nesting that ``parse`` accepts.  No parse and no C-tree
#: walk recurses, but the analysis cost grows faster than linearly with the
#: depth of parallel nesting, so the bound caps the work outside input asks.
MAX_NESTING = 64

#: Each kind of block: its brackets, its name in messages, and the border
#: kind of its first sequence and of the others (a loop's forward part is
#: place-bordered, its back part transition-bordered).  The reader, the
#: shape check and the printer all read this one table.
_BLOCKS: dict[type, tuple[str, str, tuple[type, type]]] = {
    AndBlock: ("()", "parallel", (Place, Place)),
    XorBlock: ("[]", "choice", (Transition, Transition)),
    LoopBlock: ("{}", "loop", (Place, Transition)),
}
_OPENS = {brackets[0]: kind for kind, (brackets, _, _) in _BLOCKS.items()}
_CLOSER = {brackets[0]: brackets[1] for brackets, _, _ in _BLOCKS.values()}
_BRACKETS = {*_OPENS, *_CLOSER.values()}


def parse(text: str) -> BlockTree:
    """Parse ECWS text into a validated block tree.

    The reader checks the text as it reads it; nothing else is kept, so
    :func:`build_net` checks the returned tree again.  Every ParseError it
    raises carries the line and column of its token, and an illegal
    character anywhere in the text is reported before any other error.
    """
    tree, valid = _read(text)
    if not valid:
        # read the text again, noting where each element starts, and let the
        # shape check pick the fault to report
        at: dict[int, int] = {}
        cls, message, el = _validate(_read(text, at)[0])
        raise cls(message, *_line_col(text, _offset(text, at[id(el)])))
    return tree


def _read(text: str, at: dict[int, int] | None = None) -> tuple[BlockTree, bool]:
    """Pair the brackets of ``text`` into a tree, checking its shape as it goes.

    One pass over the scanner's tokens: a label is a place or a transition by
    its slot in its sequence, and a run of groups in the same brackets is one
    block.  Raises the reader's own errors; returns the tree and whether it
    passes the shape check of :func:`_validate`.  Given ``at``, it receives
    the token index of every label, block and bracketed sequence, for the
    shape check's errors.
    """
    tokens = _TOKEN.findall(text)
    # an illegal character is the text's error, whatever else is wrong; its
    # token takes the rest of the text, so only the end token follows it
    last = tokens[-2] if len(tokens) > 1 else ""
    if last and last not in _BRACKETS and not _LABEL.match(last):
        raise _error(f"illegal character {last[0]!r}", text, len(tokens) - 2, LexError)
    # the text, not a tree, drives this loop, so it keeps its own stack of
    # the enclosing sequences: children, first slot (1 if a transition's),
    # opening token, and the run of groups that the open group belongs to
    stack: list[tuple[list, int, int, list]] = []
    children: list[Element] = []
    first = opened = 0
    run: list | None = None  # a run of groups ending the sequence: opening token, groups
    labels: list[str] = []
    valid = True
    for k, token in enumerate(tokens):
        if run is not None and token != tokens[run[0]]:
            start, *seqs = run
            block_type = _OPENS[tokens[start]]
            if block_type is not LoopBlock:
                block = block_type(tuple(seqs))
                if len(seqs) < 2:
                    valid = False
            elif len(seqs) == 2:
                block = LoopBlock(*seqs)
            else:
                raise _error("a loop block needs a forward and a back part", text, start)
            # a block follows a label, in a slot of its kind
            i = len(children)
            if not (i and isinstance(children[-1], (Place, Transition))
                    and (i + first) % 2 == (block_type is XorBlock)):
                valid = False
            if at is not None:
                at[id(block)] = start
            children.append(block)
            run = None
        if token not in _BRACKETS:
            if token:
                leaf = (Transition if (len(children) + first) % 2 else Place)(token)
                if at is not None:
                    at[id(leaf)] = k
                children.append(leaf)
                labels.append(token)
        elif token in _OPENS:
            if len(stack) == MAX_NESTING:
                raise _error(f"bracket nesting deeper than {MAX_NESTING} levels", text, k)
            run = run or [k]
            stack.append((children, first, opened, run))
            first = _BLOCKS[_OPENS[token]][2][len(run) > 1] is Transition
            children, opened, run = [], k, None
        elif stack and token == _CLOSER[tokens[opened]]:
            # a sequence ends in a label of its border kind; as a label takes
            # the kind of its slot, that is an odd count ending in a label
            if not (len(children) % 2 and isinstance(children[-1], (Place, Transition))):
                valid = False
            seq = SeqBlock(tuple(children))
            if at is not None:
                at[id(seq)] = opened
            children, first, opened, run = stack.pop()
            run.append(seq)
        else:
            message = (f"expected {_CLOSER[tokens[opened]]!r}, got {token!r}" if stack
                       else f"unexpected {token!r} after the net")
            raise _error(message, text, k)
    if stack:
        message = f"expected {_CLOSER[tokens[opened]]!r}, got end of input"
        raise ParseError(message, *_line_col(text, len(text)))
    if not children:
        raise LexError("empty input", *_line_col(text, len(text)))
    if not (len(children) % 2 and isinstance(children[-1], (Place, Transition))):
        valid = False
    # no label occurs twice
    return SeqBlock(tuple(children)), valid and len(set(labels)) == len(labels)


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """The line and column, both from 1, of offset ``pos`` in ``text``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _offset(text: str, k: int) -> int:
    """Where token ``k`` starts, past its separators: the reader keeps no
    offsets, so only an error scans the text again."""
    return next(islice(_TOKEN.finditer(text), k, None)).start(1)


def _error(message: str, text: str, k: int, cls: type[ParseError] = ParseError) -> ParseError:
    """The reader's error at token ``k``."""
    return cls(message, *_line_col(text, _offset(text, k)))


# ── validation ──────────────────────────────────────────────────────────────


def validate_tree(tree: BlockTree) -> None:
    """Check every structural invariant of a block tree.

    Raises ParseError for shape violations and for a label that does not
    scan as one label (it would break the parse/format round trip), and
    DuplicateLabelError when any label (place or transition) occurs twice.
    It walks the tree on every call.
    """
    fault = _validate(tree)
    if fault is not None:
        cls, message, _ = fault
        raise cls(message)


#: What the shape check found wrong: the error class, its message, and the
#: element at fault.
_Fault = tuple[type[ParseError], str, object]


def _validate(tree: BlockTree) -> _Fault | None:
    """The shape check of :func:`validate_tree`, and of :func:`parse` on a
    text its reader found at fault, where it picks the fault to report.

    A sequence alternates place-like and transition-like elements and has a
    label of its border kind at each end; a block follows a label, and a
    parallel or choice block has 2+ branches.  No label may occur twice, and
    each must scan as one label (a parsed label does so by construction).
    Returns the first fault, or None.  The reader checks the same rules as it
    builds a tree, and finds a fault exactly where this does.
    """
    labels: list[Place | Transition] = []
    # each sequence, its border kind and the closing bracket after it; an own
    # stack, as its LIFO order decides which of several faults is reported
    stack: list[tuple[SeqBlock, type, str | None]] = [(tree, Place, None)]
    while stack:
        seq, border, closer = stack.pop()
        children = seq.children
        if not children:
            return ParseError, "empty sequence", seq
        place_slot = border is Place
        for i, child in enumerate(children):
            leaf = isinstance(child, (Place, Transition))
            fits = isinstance(child, _PLACE_LIKE if place_slot else _TRANS_LIKE)
            # a block follows a label; the next element's check covers its right
            if not fits or not (leaf or i and isinstance(children[i - 1], (Place, Transition))):
                if i == 0:
                    kind = "place" if border is Place else "transition"
                    return ParseError, f"expected a {kind} label, got {_describe(child)}", child
                need = "transition" if isinstance(child, _PLACE_LIKE) else "place"
                return ParseError, f"{_describe(child)} must be preceded by a {need}", child
            place_slot = not place_slot
            if leaf:
                labels.append(child)
                continue
            (_, shut), name, borders = _BLOCKS[type(child)]
            seqs = branches_of(child)
            if len(seqs) < 2:
                return ParseError, f"a {name} block needs at least 2 branches", child
            stack += [(s, borders[b > 0], shut) for b, s in enumerate(seqs)]
        if not isinstance(children[-1], border):
            where = f"before {closer!r}" if closer else "after the net"
            return ParseError, f"unexpected {_describe(children[-1])} {where}", children[-1]
    seen: set[str] = set()
    for el in labels:
        if el.label in seen:
            return DuplicateLabelError, f"label {el.label!r} occurs more than once", el
        if not _LABEL.fullmatch(el.label):
            return ParseError, f"label {el.label!r} does not scan as one label", el
        seen.add(el.label)
    return None


def _describe(el: object) -> str:
    if isinstance(el, (Place, Transition)):
        return repr(el.label)
    entry = _BLOCKS.get(type(el))
    return f"{entry[1]} block" if entry else repr(el)


def _leaves(tree: BlockTree) -> Iterator[Place | Transition]:
    """Every place and transition, sequence by sequence in :func:`walk` order."""
    for seq in walk(tree):
        for child in seq.children:
            if isinstance(child, (Place, Transition)):
                yield child


def iter_labels(tree: BlockTree) -> Iterator[str]:
    """Yield every place and transition label, in :func:`walk` order."""
    return (leaf.label for leaf in _leaves(tree))


def place_labels(tree: BlockTree) -> frozenset[str]:
    return frozenset(leaf.label for leaf in _leaves(tree) if isinstance(leaf, Place))


# ── canonical text ──────────────────────────────────────────────────────────


def format_tree(tree: BlockTree) -> str:
    """Render the canonical text of a block tree.

    The output contains no whitespace; a comma is inserted only where two
    adjacent labels would otherwise scan as one.  Every label's first
    character is checked: a label that is empty or starts with neither a
    letter nor ``_`` raises ParseError.  A label that goes wrong after its
    first character is not caught, so the tree must be valid (see
    :func:`validate_tree`).
    """
    out: list[str] = []
    last = ""  # the label just written, or "" after a bracket

    def text(seq: SeqBlock) -> Generator[SeqBlock, None, None]:
        nonlocal last
        for child in seq.children:
            if isinstance(child, (Place, Transition)):
                label = child.label
                # the two character tests of the label rule (see _LABEL)
                c = label[:1]
                if not (c.isalnum() or c == "_") or c.isdecimal():
                    raise ParseError(f"label {label!r} does not scan as one label")
                if last and (c == "_" or not last[-1].isdecimal()):
                    out.append(",")
                out.append(label)
                last = label
            else:
                (opener, closer), _, _ = _BLOCKS[type(child)]
                last = ""
                for branch in branches_of(child):
                    out.append(opener)
                    yield branch
                    out.append(closer)
                    last = ""

    _drive(text, tree)
    return "".join(out)


# ── net construction ────────────────────────────────────────────────────────


def build_net(tree: BlockTree) -> WfNet:
    """Wire a valid block tree into a workflow net.

    The tree is checked first with :func:`validate_tree`, whose errors it
    raises, on every call.

    Adjacent sequence elements are connected exit-to-entry.  A parallel
    block's entries are the first places of its branches (fed by the fork)
    and its exits the last places (feeding the join); a choice block's
    entries and exits are its branches' border transitions; a loop is
    entered and left through the first and last place of its forward part,
    with two extra arcs closing the cycle through the back part.  A valid
    tree gives a net whose source has no incoming and whose sink no outgoing
    arc, with every node on a path from the source to the sink.
    """
    validate_tree(tree)
    places: set[str] = set()
    transitions: set[str] = set()
    arcs: set[tuple[str, str]] = set()
    for seq in walk(tree):
        for left, right in zip(seq.children, seq.children[1:]):
            for src in _ends(left, -1):
                for dst in _ends(right, 0):
                    arcs.add((src, dst))
        for child in seq.children:
            if isinstance(child, Place):
                places.add(child.label)
            elif isinstance(child, Transition):
                transitions.add(child.label)
            elif isinstance(child, LoopBlock):
                arcs.add((*_ends(child.forward, -1), *_ends(child.back, 0)))
                arcs.add((*_ends(child.back, -1), *_ends(child.forward, 0)))

    return WfNet(
        places=frozenset(places),
        transitions=frozenset(transitions),
        arcs=frozenset(arcs),
        init=_ends(tree, 0)[0],
        end=_ends(tree, -1)[0],
    )


def _ends(el: Element | SeqBlock, i: int) -> list[str]:
    """The labels where control enters (``i = 0``) or leaves (``i = -1``) a
    sequence or element: the first or last label of the sequence, of each
    branch of a parallel or choice block, or of a loop's forward part."""
    if isinstance(el, (Place, Transition)):
        return [el.label]
    if isinstance(el, LoopBlock):
        el = el.forward
    seqs = (el,) if isinstance(el, SeqBlock) else el.branches
    return [seq.children[i].label for seq in seqs]  # type: ignore[union-attr]
