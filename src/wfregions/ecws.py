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
directly after a digit starts a new label, so ``p1t1p2`` reads as three
labels.

``parse`` produces a validated block tree, ``format_tree`` prints the
canonical separator-free text, and ``build_net`` wires the tree into a
:class:`~wfregions.wfnet.WfNet`.  ``branches_of`` is the one place that
knows how each kind of block holds its sequences; ``walk``, ``seq_at`` and
``edit_seq`` visit, find and rebuild sequences by their :data:`SeqPath`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .errors import DuplicateLabelError, LexError, ParseError, SoundnessError
from .wfnet import WfNet

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


# ── lexer ───────────────────────────────────────────────────────────────────

_BRACKETS = "()[]{}"


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", one of "()[]{}", or "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """Split ECWS text into labels and brackets.

    Raises LexError on an illegal character or when the input holds no
    tokens at all.
    """
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace() or ch == ",":
            col += 1
            i += 1
        elif ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in _BRACKETS:
            tokens.append(Token(ch, ch, line, col))
            col += 1
            i += 1
        elif ch.isalpha() or ch == "_":
            start = i
            start_col = col
            i += 1
            while i < len(text):
                nxt = text[i]
                if nxt.isalpha() and text[i - 1].isdigit():
                    break  # a letter after a digit run starts a new label
                if nxt.isalnum() or nxt == "_":
                    i += 1
                else:
                    break
            tokens.append(Token("ident", text[start:i], line, start_col))
            col = start_col + (i - start)
        else:
            raise LexError(f"illegal character {ch!r}", line, col)
    if not tokens:
        raise LexError("empty input", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def _is_single_token(label: str) -> bool:
    try:
        tokens = tokenize(label)
    except LexError:
        return False
    return len(tokens) == 2 and tokens[0].kind == "ident" and tokens[0].text == label


# ── parser ──────────────────────────────────────────────────────────────────


#: Deepest bracket nesting the parser accepts.  The parser, ``build_ctree``
#: and the C-tree embedding recurse at every level, so the bound keeps them
#: clear of Python's recursion limit.
MAX_NESTING = 64


class Parser:
    """Recursive-descent parser for the ECWS grammar."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # brackets open at the current position

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _expect(self, kind: str, what: str) -> Token:
        token = self._peek()
        if token.kind != kind:
            self._error(f"expected {what}, got {token.text or 'end of input'!r}", token)
        return self._advance()

    def _error(self, message: str, token: Token | None = None) -> None:
        token = token or self._peek()
        raise ParseError(message, token.line, token.col)

    def parse_net(self) -> SeqBlock:
        net = self.parse_pnet()
        token = self._peek()
        if token.kind != "eof":
            self._error(f"unexpected {token.text!r} after the net", token)
        return net

    def parse_pnet(self) -> SeqBlock:
        """A place-bordered sequence: the body of a net, branch, or loop."""
        return self._sequence(self._place())

    def parse_tnet(self, closer: str) -> SeqBlock:
        """A transition-bordered sequence: a choice branch or a loop's back part.

        Between its border transitions sits a sequence that may start with a
        parallel or loop block, since a transition precedes it.
        """
        first = self._transition()
        if self._peek().kind == closer:
            return SeqBlock((first,))
        body = self._sequence(self._place_like())
        last = self._transition()
        return SeqBlock((first, *body.children, last))

    def _sequence(self, first: Element) -> SeqBlock:
        """The rest of a sequence whose first place-like element is parsed."""
        children: list[Element] = [first]
        while True:
            token = self._peek()
            if token.kind == "[":
                children.append(self._xor())
                children.append(self._place())
            elif token.kind == "ident":
                # An ident continues this sequence only when a place or block
                # follows it; otherwise it is the enclosing branch's border
                # transition and belongs to the caller.
                if self.tokens[self.pos + 1].kind not in ("ident", "(", "{"):
                    return SeqBlock(tuple(children))
                children.append(Transition(self._advance().text))
                children.append(self._place_like())
            elif token.kind in "({":
                self._error(
                    "a parallel or loop block must be preceded by a transition", token
                )
            else:
                return SeqBlock(tuple(children))

    def _place_like(self) -> Element:
        """A place, parallel block or loop block: what may follow a transition."""
        kind = self._peek().kind
        if kind == "(":
            return self._and()
        if kind == "{":
            return self._loop()
        return self._place()

    def _place(self) -> Place:
        return Place(self._expect("ident", "a place label").text)

    def _transition(self) -> Transition:
        return Transition(self._expect("ident", "a transition label").text)

    def _and(self) -> AndBlock:
        branches = [self._group("(", ")", self.parse_pnet)]
        while self._peek().kind == "(":
            branches.append(self._group("(", ")", self.parse_pnet))
        if len(branches) < 2:
            self._error("a parallel block needs at least 2 branches")
        return AndBlock(tuple(branches))

    def _xor(self) -> XorBlock:
        branches = [self._group("[", "]", lambda: self.parse_tnet("]"))]
        while self._peek().kind == "[":
            branches.append(self._group("[", "]", lambda: self.parse_tnet("]")))
        if len(branches) < 2:
            self._error("a choice block needs at least 2 branches")
        return XorBlock(tuple(branches))

    def _loop(self) -> LoopBlock:
        forward = self._group("{", "}", self.parse_pnet)
        back = self._group(
            "{", "}", lambda: self.parse_tnet("}"), "the '{' opening the loop's back part"
        )
        return LoopBlock(forward, back)

    def _group(
        self, opener: str, closer: str, inner, what: str | None = None
    ) -> SeqBlock:
        token = self._expect(opener, what or f"'{opener}'")
        if self.depth == MAX_NESTING:
            self._error(f"bracket nesting deeper than {MAX_NESTING} levels", token)
        self.depth += 1
        body = inner()
        self._expect(closer, f"'{closer}'")
        self.depth -= 1
        return body


def parse(text: str) -> SeqBlock:
    """Parse ECWS text into a validated block tree."""
    tree = Parser(tokenize(text)).parse_net()
    # every label came from the lexer, so it is a single token already
    _validate(tree, relex=False)
    return tree


# ── validation ──────────────────────────────────────────────────────────────


def validate_tree(tree: BlockTree) -> None:
    """Check every structural invariant of a block tree.

    Raises ParseError for shape violations and DuplicateLabelError when any
    label (place or transition) occurs twice.  Also rejects labels that the
    lexer could not reproduce as a single token, which would break the
    parse/format round trip.
    """
    _validate(tree, relex=True)


def _validate(tree: BlockTree, relex: bool) -> None:
    _check_border(tree, Place)
    labels: list[str] = []
    # the walk reaches a sequence only after its parent checked its border
    for _, seq in walk(tree):
        _validate_seq(seq)
        labels += (el.label for el in seq.children if isinstance(el, (Place, Transition)))
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise DuplicateLabelError(f"label {label!r} occurs more than once")
        if relex and not _is_single_token(label):
            raise ParseError(f"label {label!r} does not survive relexing")
        seen.add(label)


def _check_border(seq: SeqBlock, border: type) -> None:
    children = seq.children
    if not children:
        raise ParseError("empty sequence")
    if not isinstance(children[0], border) or not isinstance(children[-1], border):
        kind = "place" if border is Place else "transition"
        raise ParseError(f"sequence must start and end with a {kind}")


def _validate_seq(seq: SeqBlock) -> None:
    """Alternation in one sequence whose border is checked, plus its blocks:
    their neighbours, branch counts and the borders of their sequences."""
    children = seq.children
    offset = 0 if isinstance(children[0], Place) else 1
    for i, child in enumerate(children):
        expected = _PLACE_LIKE if (i + offset) % 2 == 0 else _TRANS_LIKE
        if not isinstance(child, expected):
            raise ParseError("sequence does not alternate places and transitions")
        if isinstance(child, (Place, Transition)):
            continue
        left, right = children[i - 1], children[i + 1]
        if isinstance(child, XorBlock):
            if not (isinstance(left, Place) and isinstance(right, Place)):
                raise ParseError("a choice block must sit between two places")
        elif not (isinstance(left, Transition) and isinstance(right, Transition)):
            raise ParseError("a parallel or loop block must sit between two transitions")
        if isinstance(child, LoopBlock):
            borders: tuple[type, ...] = (Place, Transition)
        else:
            if len(child.branches) < 2:
                kind = "parallel" if isinstance(child, AndBlock) else "choice"
                raise ParseError(f"a {kind} block needs at least 2 branches")
            border = Place if isinstance(child, AndBlock) else Transition
            borders = (border,) * len(child.branches)
        for branch, border in zip(branches_of(child), borders):
            _check_border(branch, border)


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

_GROUP = {AndBlock: "()", XorBlock: "[]", LoopBlock: "{}"}


def format_tree(tree: BlockTree) -> str:
    """Render the canonical text of a block tree.

    The output contains no whitespace; a comma is inserted only where two
    adjacent labels would otherwise fuse into one token.
    """
    parts: list[str] = []
    _emit(tree, parts)
    out: list[str] = []
    for part in parts:
        if (
            out
            and out[-1][-1] not in _BRACKETS
            and part not in _BRACKETS
            and not (out[-1][-1].isdigit() and part[0].isalpha())
        ):
            out.append(",")
        out.append(part)
    return "".join(out)


def _emit(seq: SeqBlock, parts: list[str]) -> None:
    for child in seq.children:
        if isinstance(child, (Place, Transition)):
            parts.append(child.label)
            continue
        opener, closer = _GROUP[type(child)]
        for branch in branches_of(child):
            parts.append(opener)
            _emit(branch, parts)
            parts.append(closer)


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
