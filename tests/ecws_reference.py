"""The ECWS reader as it was before the regex scanner: the reference.

``tokenize``, ``Parser`` and ``parse`` below are the per-character lexer,
the recursive-descent parser and the parse entry point that
``wfregions.ecws`` used to run, with the validation walk they called, kept
word for word (only ``tokenize`` and ``parse`` renamed to ``reference_*``),
so that ``tests/test_ecws.py`` can require the reader that replaced them to
accept the same texts, build the same trees and raise the same error classes.

``REFERENCE_LABEL`` and ``REFERENCE_TOKEN`` are the regex scanner's first
label pattern and the token pattern built on it, kept word for word: the
label pattern that replaced it must scan every text the same way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from wfregions.ecws import (
    AndBlock,
    BlockTree,
    Element,
    LoopBlock,
    Place,
    SeqBlock,
    Transition,
    XorBlock,
    branches_of,
    walk,
)
from wfregions.errors import DuplicateLabelError, LexError, ParseError

_PLACE_LIKE = (Place, AndBlock, LoopBlock)
_TRANS_LIKE = (Transition, XorBlock)

_BRACKETS = "()[]{}"

#: A digit after ``_`` matches either alternative, so a failing match on
#: ``a1_1_…_1!`` with k pairs ``1_`` takes about 2**k ways: keep test
#: strings short.
REFERENCE_LABEL = re.compile(r"[^\W\d](?:[\d_]|(?<!\d)\w)*")
REFERENCE_TOKEN = re.compile(
    rf"(?:[\s,]|#.*)*({REFERENCE_LABEL.pattern}|[()\[\]{{}}]|\Z|(?s:.+))"
)


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", one of "()[]{}", or "eof"
    text: str
    line: int
    col: int


def reference_tokenize(text: str) -> list[Token]:
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
        tokens = reference_tokenize(label)
    except LexError:
        return False
    return len(tokens) == 2 and tokens[0].kind == "ident" and tokens[0].text == label


#: Deepest bracket nesting the parser accepts.  The parser and the C-tree
#: renderers recurse at every level (the inclusion test at every parallel
#: one), so the bound keeps them clear of Python's recursion limit.
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


def reference_parse(text: str) -> SeqBlock:
    """Parse ECWS text into a validated block tree."""
    tree = Parser(reference_tokenize(text)).parse_net()
    # every label came from the lexer, so it is a single token already
    _validate(tree, relex=False)
    return tree


def _validate(tree: BlockTree, relex: bool) -> None:
    _check_border(tree, Place)
    labels: list[str] = []
    # the walk reaches a sequence only after its parent checked its border
    for seq in walk(tree):
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
