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

``parse`` produces a validated block tree, ``format_tree`` prints the
canonical separator-free text, and ``build_net`` wires the tree into a
:class:`~wfregions.wfnet.WfNet`.  ``branches_of`` is the one place that
knows how each kind of block holds its sequences; ``walk``, ``seq_at`` and
``edit_seq`` visit, find and rebuild sequences by their :data:`SeqPath`.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DuplicateLabelError, LexError, ParseError, SoundnessError
from .wfnet import Marking, WfNet

# ── block tree ──────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Place:
    label: str


@dataclass(frozen=True)
class Transition:
    label: str


@dataclass(frozen=True)
class SeqBlock:
    """An alternating run of place-like and transition-like elements."""

    children: tuple["Element", ...]


@dataclass(frozen=True)
class AndBlock:
    """Parallel branches, each place-bordered, between a fork and a join."""

    branches: tuple[SeqBlock, ...]


@dataclass(frozen=True)
class XorBlock:
    """Alternative branches, each transition-bordered, between two places."""

    branches: tuple[SeqBlock, ...]


@dataclass(frozen=True)
class LoopBlock:
    """A place-bordered forward part plus a transition-bordered back part."""

    forward: SeqBlock
    back: SeqBlock


Element = Place | Transition | AndBlock | XorBlock | LoopBlock

#: A whole net is simply the root sequence, which is place-bordered.
BlockTree = SeqBlock

_PLACE_LIKE = (Place, AndBlock, LoopBlock)
_TRANS_LIKE = (Transition, XorBlock)

#: Address of a sequence inside a tree: one (element index, branch index)
#: step per nesting level, where the branch index counts the sequences of
#: the block as :func:`branches_of` lists them.  The root's path is ``()``.
SeqPath = tuple[tuple[int, int], ...]


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


def edit_seq(
    tree: BlockTree,
    path: SeqPath,
    fn: Callable[[tuple[Element, ...]], tuple[Element, ...]],
) -> BlockTree:
    """The tree with ``fn`` applied to the children of the sequence at ``path``.

    Only the sequences on the path are rebuilt; every other subtree is
    shared with ``tree``.
    """
    on_path = [tree]
    for i, b in path:
        on_path.append(branches_of(on_path[-1].children[i])[b])
    seq = SeqBlock(fn(on_path.pop().children))
    for (i, b), parent in zip(reversed(path), reversed(on_path)):
        block = parent.children[i]
        seqs = branches_of(block)
        block = with_branches(block, (*seqs[:b], seq, *seqs[b + 1 :]))
        seq = SeqBlock((*parent.children[:i], block, *parent.children[i + 1 :]))
    return seq


# ── scanner ─────────────────────────────────────────────────────────────────

#: The label rule, stated here only: a letter or underscore, then word
#: characters, except that a letter directly after a decimal digit starts the
#: next label, so ``p1t1`` is two labels.  A letter is a word character other
#: than ``_`` and the decimal digits, so numerals such as ``²`` and ``½`` count.
_LABEL = re.compile(r"[^\W\d](?:[\d_]|(?<!\d)\w)*")

#: Separators (whitespace, commas, a ``#`` comment to the end of the line),
#: then a label, a bracket, an illegal character, or the end of the line.
#: One of the four always matches after the separators, so none backtracks.
_TOKEN = re.compile(rf"(?:[\s,]|#.*)*(?:({_LABEL.pattern})|([()\[\]{{}}])|(.)|\Z)")


class Token(NamedTuple):
    kind: str  # "ident", one of "()[]{}", or "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """Split ECWS text into labels and brackets, closed by an "eof" token.

    Raises LexError on an illegal character or when the input holds no
    tokens at all.
    """
    tokens: list[Token] = []
    for line, chars in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(chars):
            group = m.lastindex
            if group == 1:
                tokens.append(Token("ident", m[1], line, m.start(1) + 1))
            elif group == 2:
                tokens.append(Token(m[2], m[2], line, m.start(2) + 1))
            elif group == 3:
                raise LexError(f"illegal character {m[3]!r}", line, m.start(3) + 1)
    end = Token("eof", "", line, len(chars) + 1)
    if not tokens:
        raise LexError("empty input", end.line, end.col)
    tokens.append(end)
    return tokens


def parse_marking(text: str) -> Marking:
    """Inverse of :func:`~wfregions.wfnet.marking_text`: labels joined by
    commas.  Raises ValueError unless every part is one label."""
    labels = [part.strip() for part in text.split(",")]
    for label in labels:
        if not _LABEL.fullmatch(label):
            raise ValueError(f"malformed marking text {text!r}: {label!r} is not a label")
    return frozenset(labels)


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


def parse(text: str) -> BlockTree:
    """Parse ECWS text into a validated block tree.

    Every ParseError it raises carries the line and column of its token.
    """
    at: dict[int, Token] = {}
    tree = _read(tokenize(text), at)
    _validate(tree, at)
    return tree


def _read(tokens: list[Token], at: dict[int, Token]) -> BlockTree:
    """Pair the brackets of ``tokens`` into a tree, leaving its shape unchecked.

    A label is a place or a transition by its slot in its sequence, and a run
    of groups in the same brackets is one block.  ``at`` receives the token
    of every label, block and bracketed sequence, for the shape check's errors.
    """
    # the enclosing sequences: children, first slot (1 if a transition's),
    # opening token, and the run of groups that the open group belongs to
    stack: list[tuple[list, int, Token | None, list]] = []
    children: list[Element] = []
    first, opener = 0, None
    run: list | None = None  # a run of groups ending the sequence: token, groups
    for tok in tokens:
        kind = tok.kind
        if run is not None and kind != run[0].kind:
            children.append(_fold(run, at))
            run = None
        if kind == "ident":
            label = (Transition if (len(children) + first) % 2 else Place)(tok.text)
            at[id(label)] = tok
            children.append(label)
        elif kind in _OPENS:
            if len(stack) == MAX_NESTING:
                raise ParseError(
                    f"bracket nesting deeper than {MAX_NESTING} levels", tok.line, tok.col
                )
            run = run or [tok]
            stack.append((children, first, opener, run))
            first = _BLOCKS[_OPENS[kind]][2][len(run) > 1] is Transition
            children, opener, run = [], tok, None
        elif stack and kind == _CLOSER[opener.kind]:
            seq = SeqBlock(tuple(children))
            at[id(seq)] = opener
            children, first, opener, run = stack.pop()
            run.append(seq)
        elif stack or kind != "eof":
            got = repr(tok.text) if tok.text else "end of input"
            message = (f"expected {_CLOSER[opener.kind]!r}, got {got}" if stack
                       else f"unexpected {got} after the net")
            raise ParseError(message, tok.line, tok.col)
    return SeqBlock(tuple(children))


def _fold(run: list, at: dict[int, Token]) -> Element:
    """The block of a run of groups: its first token, then its sequences."""
    token, *seqs = run
    kind = _OPENS[token.kind]
    if kind is LoopBlock and len(seqs) != 2:
        raise ParseError("a loop block needs a forward and a back part", token.line, token.col)
    block = LoopBlock(*seqs) if kind is LoopBlock else kind(tuple(seqs))
    at[id(block)] = token
    return block


# ── validation ──────────────────────────────────────────────────────────────


def validate_tree(tree: BlockTree) -> None:
    """Check every structural invariant of a block tree.

    Raises ParseError for shape violations and for a label that does not
    scan as one label (it would break the parse/format round trip), and
    DuplicateLabelError when any label (place or transition) occurs twice.
    """
    _validate(tree, {})


def _validate(tree: BlockTree, at: dict[int, Token]) -> None:
    """The one shape check of :func:`parse` and :func:`validate_tree`.

    A sequence alternates place-like and transition-like elements and has a
    label of its border kind at each end; a block follows a label, and a
    parallel or choice block has 2+ branches.  Errors are reported at the
    token ``at`` holds for the offending element, if it holds one.
    """
    labels: list[Place | Transition] = []
    # each sequence with its border kind and the closing bracket after it
    stack: list[tuple[SeqBlock, type, str | None]] = [(tree, Place, None)]
    while stack:
        seq, border, closer = stack.pop()
        children = seq.children
        if not children:
            raise _error("empty sequence", seq, at)
        place_slot = border is Place
        for i, child in enumerate(children):
            leaf = isinstance(child, (Place, Transition))
            fits = isinstance(child, _PLACE_LIKE if place_slot else _TRANS_LIKE)
            # a block follows a label; the next element's check covers its right
            if not fits or not (leaf or i and isinstance(children[i - 1], (Place, Transition))):
                if i == 0:
                    kind = "place" if border is Place else "transition"
                    raise _error(f"expected a {kind} label, got {_describe(child)}", child, at)
                need = "transition" if isinstance(child, _PLACE_LIKE) else "place"
                raise _error(f"{_describe(child)} must be preceded by a {need}", child, at)
            place_slot = not place_slot
            if leaf:
                labels.append(child)
                continue
            (_, shut), name, borders = _BLOCKS[type(child)]
            seqs = branches_of(child)
            if len(seqs) < 2:
                raise _error(f"a {name} block needs at least 2 branches", child, at)
            stack += [(s, borders[b > 0], shut) for b, s in enumerate(seqs)]
        if not isinstance(children[-1], border):
            where = f"before {closer!r}" if closer else "after the net"
            raise _error(f"unexpected {_describe(children[-1])} {where}", children[-1], at)
    seen: set[str] = set()
    for el in labels:
        if el.label in seen:
            message = f"label {el.label!r} occurs more than once"
            raise _error(message, el, at, DuplicateLabelError)
        if not _LABEL.fullmatch(el.label):
            raise _error(f"label {el.label!r} does not scan as one label", el, at)
        seen.add(el.label)


def _error(
    message: str, el: object, at: dict[int, Token], cls: type[ParseError] = ParseError
) -> ParseError:
    token = at.get(id(el))
    return cls(message) if token is None else cls(message, token.line, token.col)


def _describe(el: object) -> str:
    if isinstance(el, (Place, Transition)):
        return repr(el.label)
    entry = _BLOCKS.get(type(el))
    return f"{entry[1]} block" if entry else repr(el)


def _leaves(tree: BlockTree) -> Iterator[Place | Transition]:
    """Every place and transition, sequence by sequence in :func:`walk` order."""
    for _, seq in walk(tree):
        for child in seq.children:
            if isinstance(child, (Place, Transition)):
                yield child


def iter_labels(tree: BlockTree) -> Iterator[str]:
    """Yield every place and transition label, in :func:`walk` order."""
    return (leaf.label for leaf in _leaves(tree))


def place_labels(tree: BlockTree) -> frozenset[str]:
    return frozenset(leaf.label for leaf in _leaves(tree) if isinstance(leaf, Place))


def transition_labels(tree: BlockTree) -> frozenset[str]:
    return frozenset(
        leaf.label for leaf in _leaves(tree) if isinstance(leaf, Transition)
    )


# ── canonical text ──────────────────────────────────────────────────────────


def format_tree(tree: BlockTree) -> str:
    """Render the canonical text of a block tree.

    The output contains no whitespace; a comma is inserted only where two
    adjacent labels would otherwise scan as one.
    """
    out: list[str] = []
    last = ""  # the label just written, or "" after a bracket
    stack: list[Iterator] = [iter(tree.children)]
    while stack:
        for item in stack[-1]:
            if isinstance(item, str):  # a bracket
                out.append(item)
                last = ""
            elif isinstance(item, SeqBlock):
                stack.append(iter(item.children))
                break
            elif isinstance(item, (Place, Transition)):
                if last and _LABEL.match(last + item.label[0]).end() > len(last):
                    out.append(",")
                out.append(item.label)
                last = item.label
            else:
                (opener, closer), _, _ = _BLOCKS[type(item)]
                stack.append(iter([x for s in branches_of(item) for x in (opener, s, closer)]))
                break
        else:
            stack.pop()
    return "".join(out)


# ── net construction ────────────────────────────────────────────────────────


def build_net(tree: BlockTree) -> WfNet:
    """Wire a validated block tree into a workflow net.

    Adjacent sequence elements are connected exit-to-entry.  A parallel
    block's entries are the first places of its branches (fed by the fork)
    and its exits the last places (feeding the join); a choice block's
    entries and exits are its branches' border transitions; a loop is
    entered and left through the first and last place of its forward part,
    with two extra arcs closing the cycle through the back part.
    """
    places: set[str] = set()
    transitions: set[str] = set()
    arcs: set[tuple[str, str]] = set()

    def entries(el: Element) -> list[str]:
        if isinstance(el, (Place, Transition)):
            return [el.label]
        return [_first_label(seq) for seq in _gates(el)]

    def exits(el: Element) -> list[str]:
        if isinstance(el, (Place, Transition)):
            return [el.label]
        return [_last_label(seq) for seq in _gates(el)]

    for _, seq in walk(tree):
        for left, right in zip(seq.children, seq.children[1:]):
            for src in exits(left):
                for dst in entries(right):
                    arcs.add((src, dst))
        for child in seq.children:
            if isinstance(child, Place):
                places.add(child.label)
            elif isinstance(child, Transition):
                transitions.add(child.label)
            elif isinstance(child, LoopBlock):
                arcs.add((_last_label(child.forward), _first_label(child.back)))
                arcs.add((_last_label(child.back), _first_label(child.forward)))

    init = _first_label(tree)
    end = _last_label(tree)
    net = WfNet(
        places=frozenset(places),
        transitions=frozenset(transitions),
        arcs=frozenset(arcs),
        init=init,
        end=end,
    )
    _check_structure(net)
    return net


def _gates(block: Element) -> tuple[SeqBlock, ...]:
    """The sequences through which control enters and leaves a block."""
    return (block.forward,) if isinstance(block, LoopBlock) else branches_of(block)


def _first_label(seq: SeqBlock) -> str:
    first = seq.children[0]
    assert isinstance(first, (Place, Transition))
    return first.label


def _last_label(seq: SeqBlock) -> str:
    last = seq.children[-1]
    assert isinstance(last, (Place, Transition))
    return last.label


def _check_structure(net: WfNet) -> None:
    """Source/sink arc direction plus connectedness of every node."""
    if any(dst == net.init for _, dst in net.arcs):
        raise SoundnessError("the source place has an incoming arc")
    if any(src == net.end for src, _ in net.arcs):
        raise SoundnessError("the sink place has an outgoing arc")
    nodes = net.places | net.transitions
    forward: dict[str, set[str]] = {n: set() for n in nodes}
    backward: dict[str, set[str]] = {n: set() for n in nodes}
    for src, dst in net.arcs:
        forward[src].add(dst)
        backward[dst].add(src)

    def closure(start: str, edges: dict[str, set[str]]) -> set[str]:
        seen = {start}
        stack = [start]
        while stack:
            for nxt in edges[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    stranded = nodes - (closure(net.init, forward) & closure(net.end, backward))
    if stranded:
        raise SoundnessError(
            f"nodes not on a source-to-sink path: {', '.join(sorted(stranded))}"
        )
