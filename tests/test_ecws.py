"""Grammar tests: lexing, parsing, canonical formatting, net construction."""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import os
import pickle
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from wfregions import (
    AndBlock,
    DuplicateLabelError,
    LexError,
    LoopBlock,
    ParseError,
    Place,
    SeqBlock,
    Transition,
    XorBlock,
    build_net,
    format_tree,
    parse,
    parse_marking,
    place_labels,
    mutate,
    random_tree,
    validate_tree,
)
import wfregions.ecws as ecws
from wfregions.ecws import (
    MAX_NESTING,
    branches_of,
    iter_labels,
    rebuild,
    walk,
)
from wfregions.randomnets import _relabel

from conftest import FIXTURES, composed_pair, deep_tree, load_fixture, mutated_texts, nested_and
from ecws_reference import REFERENCE_LABEL, REFERENCE_TOKEN, reference_parse, reference_tokenize

# The six showcase strings: a plain sequence, a fork-join in a sequence, a
# one-shot choice, a nested fork-join, a loop, and a loop with a choice in
# its forward branch.  Already canonical, so parse-then-format must be the
# identity byte for byte.
CANONICAL = [
    "p1t1p2t2p3t3p4",
    "p1t1p2t2(p3t3p4t4p5)(p6t5p7)t6p8t7p9",
    "p1[t1p2t2][t3p3t4]p4",
    "p1t1p2t2(p11t8(p3t3p4)(p5t4p6)t5p9)(p7t6p8)t7p10",
    "p1t1{p2t2p3t3p4}{t4p5t5}t6p6",
    "p1t1{p2[t2p3t3][t7p7t8]p4}{t4p5t5}t6p6",
    # choice branches and loop back parts opening with a block
    "p1[t1(p2)(p3)t2][t3]p4",
    "p1t1{p2}{t2{p3}{t3}t4}t5p4",
]


# ── lexer ────────────────────────────────────────────────────────────────────


def _labels(text: str) -> list[str]:
    return list(iter_labels(parse(text)))


def test_tokens_split_only_at_digit_letter_boundary():
    assert _labels("p1t1p2") == ["p1", "t1", "p2"]
    assert _labels("ab2cd e") == ["ab2", "cd", "e"]
    # underscores glue a label together, digits alone do not end one
    assert _labels("p_t7") == ["p_t7"]
    assert _labels("p10") == ["p10"]


def test_whitespace_commas_and_comments_are_separators():
    plain = parse("p1t1p2t2p3t3p4")
    spaced = parse("p1 t1 p2,\n t2 p3 # mid-line note\n t3 p4")
    assert spaced == plain


def test_lex_errors():
    with pytest.raises(LexError) as err:
        parse("p$1")
    assert "1:2" in str(err.value) and "'$'" in str(err.value)
    with pytest.raises(LexError):
        parse("")
    with pytest.raises(LexError):
        parse("   # only a comment\n")


# ── parser ───────────────────────────────────────────────────────────────────


def test_sequence_shape():
    tree = parse("p1t1p2t2p3t3p4")
    assert isinstance(tree, SeqBlock)
    assert tree.children == (
        Place("p1"),
        Transition("t1"),
        Place("p2"),
        Transition("t2"),
        Place("p3"),
        Transition("t3"),
        Place("p4"),
    )


def test_fork_join_shape():
    tree = parse("p1t1p2t2(p3t3p4t4p5)(p6t5p7)t6p8t7p9")
    block = tree.children[4]
    assert isinstance(block, AndBlock)
    assert len(block.branches) == 2
    assert place_labels(block.branches[0]) == {"p3", "p4", "p5"}
    assert tree.children[3] == Transition("t2")
    assert tree.children[5] == Transition("t6")


def test_choice_shape():
    tree = parse("p1[t1p2t2][t3p3t4]p4")
    block = tree.children[1]
    assert isinstance(block, XorBlock)
    assert [c.label for c in block.branches[0].children] == ["t1", "p2", "t2"]
    assert tree.children == (Place("p1"), block, Place("p4"))


def test_loop_shape():
    tree = parse("p1t1{p2t2p3t3p4}{t4p5t5}t6p6")
    block = tree.children[2]
    assert isinstance(block, LoopBlock)
    assert place_labels(block.forward) == {"p2", "p3", "p4"}
    assert place_labels(block.back) == {"p5"}
    # a loop may have an empty-of-places back branch
    short = parse("p1t1{p2t2p3}{t3}t4p4").children[2]
    assert isinstance(short, LoopBlock)
    assert place_labels(short.back) == frozenset()


def test_blocks_can_follow_blocks():
    # after a block's closing transition another block may open directly
    tree = parse("p1t1{p2t2p3}{t3}t4(p4t5p5)(p6t6p7)t7p8")
    kinds = [type(el).__name__ for el in tree.children]
    assert kinds == ["Place", "Transition", "LoopBlock", "Transition", "AndBlock", "Transition", "Place"]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("p1t1", "unexpected 't1' after the net"),
        ("p1(p2)(p3)p4", "must be preceded by a transition"),
        ("p1[t1p2t2]p3", "at least 2 branches"),
        ("p1()t1p2", "must be preceded by a transition"),
        ("p1t1(p2t2p3)t4p6", "at least 2 branches"),
        ("(p1t1p2)(p3t2p4)", "expected a place label"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert fragment in str(err.value)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("p1t1")
    assert (err.value.line, err.value.col) == (1, 3)


def test_nesting_bound():
    assert MAX_NESTING == 64
    assert len(place_labels(parse(nested_and(MAX_NESTING)))) == 3 * MAX_NESTING + 1
    text = nested_and(MAX_NESTING + 1)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "nesting" in str(err.value)
    # reported at the bracket that opens the level past the bound
    opener = text.index("(z)")
    assert (err.value.line, err.value.col) == (1, opener + 1)


def test_nesting_bound_counts_every_bracket_kind():
    assert parse(format_tree(deep_tree(MAX_NESTING))) == deep_tree(MAX_NESTING)
    with pytest.raises(ParseError, match="nesting"):
        parse(format_tree(deep_tree(MAX_NESTING + 1)))


def test_printing_needs_no_recursion():
    # 3,000 nested blocks, past the default recursion limit; each level
    # prints two groups of its kind
    text = format_tree(deep_tree(3000))
    assert [text.count(opener) for opener in "([{"] == [2000, 2000, 2000]


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabelError):
        parse("p1t1p1")
    with pytest.raises(DuplicateLabelError):
        parse("p1t1(p2t2p3)(p2t3p4)t4p5")
    # label reuse across branches counts too
    with pytest.raises(DuplicateLabelError):
        parse("a t1 b t2 a")


# ── canonical format ─────────────────────────────────────────────────────────


@pytest.mark.parametrize("text", CANONICAL)
def test_round_trip_identity_on_canonical_strings(text):
    assert format_tree(parse(text)) == text


def test_format_strips_whitespace_and_comments():
    tree = load_fixture("nested")
    assert (
        format_tree(tree)
        == "p1t1{p2t2p3}{t3}t4(p4t5(p5t6p7)(p6t7p8)t8p9)(p10t9p11)t10p12"
    )


def test_format_inserts_commas_only_where_needed():
    # t_reg ends in a letter, so a separator is required before o1;
    # o1 ends in a digit before a letter, so none is needed before t_orient…
    # except formatting never has to re-insert one there.
    tree = parse("p0 t_reg o1 t_orient o2 t_x pf")
    out = format_tree(tree)
    assert out == "p0t_reg,o1t_orient,o2t_x,pf"
    assert parse(out) == tree


@pytest.mark.parametrize("labels, bad", [
    (("1a", "t1", "p2"), "1a"),  # no label starts with a digit
    (("", "t1", "p2"), ""),  # an empty label with no label before it
    (("p1", "", "p2"), ""),  # and one after another label
    # a pair of characters seen before does not excuse a label
    (("pa", "ta", "p2", "1a", "p3"), "1a"),
    (("p1", "t1", "1x"), "1x"),  # nor does ending the sequence
])
def test_format_rejects_a_label_that_does_not_scan(labels, bad):
    tree = SeqBlock(tuple((Transition if i % 2 else Place)(label) for i, label in enumerate(labels)))
    with pytest.raises(ParseError, match=f"^label {bad!r} does not scan as one label$"):
        format_tree(tree)


def test_the_printer_reads_the_label_rule_on_every_code_point():
    # format_tree tests single characters where _LABEL reads whole labels,
    # and both read this Python's Unicode tables: on every code point below
    # U+10000 and every decimal digit above it, the printer must reject a
    # label that _LABEL cannot start with it and place the commas _LABEL needs
    high = (c for c in map(chr, range(0x10000, 0x110000)) if c.isdecimal())
    starts, ends = [], []
    for c in [*map(chr, range(0x10000)), *high]:
        if ecws._LABEL.match(c):
            # after a label ending in a digit and one ending in a letter
            starts += ["a1", c, "ab", c]
        else:
            with pytest.raises(ParseError, match="does not scan"):
                format_tree(SeqBlock((Place(c),)))
        if ecws._LABEL.fullmatch("a" + c):
            # before a label starting with ``_`` and one with a letter
            ends += ["a" + c, "_" + c]
    labels = starts + ends
    want = [labels[0]]
    for a, b in zip(labels, labels[1:]):
        want += ["," * (ecws._LABEL.match(a + b[0]).end() > len(a)), b]
    places = {label: Place(label) for label in labels}
    got, want = format_tree(SeqBlock(tuple(map(places.get, labels)))), "".join(want)
    # the text around the first difference, not a diff of the whole text
    at = max(len(os.path.commonprefix([got, want])) - 20, 0)
    assert got[at:at + 40] == want[at:at + 40]


def test_format_parse_round_trip_preserves_tree():
    for text in CANONICAL:
        tree = parse(text)
        assert parse(format_tree(tree)) == tree


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_tree_round_trip(seed):
    tree = random_tree(random.Random(seed))
    validate_tree(tree)
    text = format_tree(tree)
    assert parse(text) == tree
    assert format_tree(parse(text)) == text


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_mutated_tree_round_trip(seed):
    # mutations build shapes random_tree never draws, such as a choice
    # branch whose body opens with a parallel block
    rng = random.Random(seed)
    tree = random_tree(rng, 5, 20)
    for _ in range(3):
        tree = mutate(tree, rng)
        assert parse(format_tree(tree)) == tree


# ── against the reference reader ─────────────────────────────────────────────

# Unicode letters and decimal digits scan as ASCII ones do; non-decimal
# numerals such as ``²`` are left out, as the scanner reads them as letters
# where the reference lexer did not (pinned below).
LETTERS = ["p", "t", "x_", "é", "ß", "λ", "中", "_"]
DIGITS = ["", "1", "20", "٣"]
SEPARATORS = ["", " ", ",", "\n", "\t", "# note\n", "#)\n", " # end"]

_label = st.tuples(
    st.sampled_from(LETTERS), st.sampled_from(DIGITS), st.sampled_from(LETTERS + [""])
).map("".join)
_piece = st.one_of(_label, st.sampled_from([*"()[]{}", *SEPARATORS, "$"]))


@st.composite
def _tree_text(draw):
    """A random net's text, relabelled, respaced and perhaps edited once."""
    tree = random_tree(random.Random(draw(st.integers(0, 10**9))), 4, 10)
    place, trans = draw(st.sampled_from([("p", "t"), ("é", "λ"), ("中", "ß_")]))
    digits = draw(st.sampled_from(["0123456789", "٠١٢٣٤٥٦٧٨٩"]))
    prefix = {"p": place, "t": trans}
    tokens = []
    for tok in reference_tokenize(format_tree(tree))[:-1]:
        text = tok.text.translate(str.maketrans("0123456789", digits))
        tokens.append(prefix[text[0]] + text[1:] if text[0] in prefix else text)
    if tokens and draw(st.booleans()):
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["delete", "repeat", "replace", "insert"]))
        if edit == "delete":
            del tokens[i]
        elif edit == "repeat":
            tokens.insert(i, tokens[i])
        elif edit == "replace":
            tokens[i] = draw(_piece)
        else:
            tokens.insert(i, draw(_piece))
    return "".join(tok + draw(st.sampled_from(SEPARATORS)) for tok in tokens)


def _outcome(fn, text):
    try:
        return fn(text)
    except ParseError as exc:
        return exc


@settings(max_examples=600, deadline=None)
@given(st.one_of(_tree_text(), st.lists(_piece, max_size=40).map("".join)))
def test_reader_matches_the_reference_parser(text):
    got, want = _outcome(parse, text), _outcome(reference_parse, text)
    if isinstance(got, ParseError):
        assert type(got) is type(want)
        assert got.line is not None and got.col is not None
    else:
        assert got == want


@pytest.mark.parametrize(
    "text, position, fragment",
    [
        # accepted by the recursive-descent parser, then rejected with no
        # position by the shape check behind it
        ("p1 t1 (p2)(p3) [t2][t3] p4", (1, 16), "choice block must be preceded by a place"),
        ("p1 t1 (p2)(p3)", (1, 7), "unexpected parallel block after the net"),
        ("p1 t1 (p2 t2 (p3)(p4))(p5) t3 p6", (1, 14), "unexpected parallel block before ')'"),
        ("p1 t1 p2 t2 p1", (1, 13), "occurs more than once"),
        ("p1 t1 {p2}{t2}{t3} t4 p3", (1, 7), "forward and a back part"),
        ("p1 t1 (p2 # open", (1, 17), "got end of input"),
    ],
)
def test_every_parse_error_has_a_position(text, position, fragment):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == position
    assert fragment in str(err.value)


_TOO_DEEP = "# too deep\n\n" + nested_and(MAX_NESTING + 1)


@pytest.mark.parametrize(
    "text, cls, message, position",
    [
        # an illegal character after a comment that holds one
        ("p1 t1 # a $ in a comment\np2 t2\n  p3 $ t3 p4\n",
         LexError, "illegal character '$'", (3, 6)),
        # an illegal character wins over a reader error before it
        ("p1 t1 p2 ) t2\np3 t3\np4 $ p5\n", LexError, "illegal character '$'", (3, 4)),
        (_TOO_DEEP + "\n$", LexError, "illegal character '$'", (4, 1)),
        ("p1 t1 p2 ) # a $ in a comment\n", ParseError, "unexpected ')' after the net", (1, 10)),
        ("p1 t1\r\np2 $", LexError, "illegal character '$'", (2, 4)),
        ("\n# only a comment\n  ", LexError, "empty input", (3, 3)),
        # errors of the bracket reader
        ("p1 t1 (p2 t2 p3)\n(p4 t3 p5\n# trailing comment\n",
         ParseError, "expected ')', got end of input", (4, 1)),
        (_TOO_DEEP, ParseError, f"bracket nesting deeper than {MAX_NESTING} levels",
         (3, _TOO_DEEP.index("(z)") - _TOO_DEEP.rindex("\n"))),
        ("p1 t1\n{p2}{t2}{t3} t4 p3", ParseError, "a loop block needs a forward and a back part",
         (2, 1)),
        ("p1 t1 p2\n)", ParseError, "unexpected ')' after the net", (2, 1)),
        ("p1 t1 (p2\n t2 p3] t3 p4", ParseError, "expected ')', got ']'", (2, 7)),
        # errors of the shape check
        ("p1 t1\n(p2)(p3)\n  [t2][t3] p4\n",
         ParseError, "choice block must be preceded by a place", (3, 3)),
        ("p1 t1 p2\nt2 p3\n  t3 p1\n",
         DuplicateLabelError, "label 'p1' occurs more than once", (3, 6)),
        ("p1 t1 p2\n\n t2", ParseError, "unexpected 't2' after the net", (3, 2)),
        ("p1 t1\n()(p2) t2 p3", ParseError, "empty sequence", (2, 1)),
        ("p1\n[(p2)(p3)][t1] p4",
         ParseError, "expected a transition label, got parallel block", (2, 2)),
    ],
)
def test_error_positions_on_multi_line_input(text, cls, message, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert type(err.value) is cls
    assert err.value.message == message
    assert (err.value.line, err.value.col) == position


def _parse_outcome(text: str) -> str:
    try:
        return "ok " + format_tree(parse(text))
    except ParseError as exc:
        return f"{type(exc).__name__} {exc.line}:{exc.col} {exc.message}"


def test_parse_outcomes_of_mutated_texts_are_pinned():
    # the tree, or the error class, position and message, of 3,000 broken
    # and unbroken texts; where a text has several faults this pins which
    # one is reported
    digest = hashlib.sha256()
    for data in mutated_texts():
        digest.update((_parse_outcome(data.decode()) + "\n").encode())
    assert digest.hexdigest() == (
        "ecd1cf9acd9f6c46cc37ec81737e170a820c6a75185aa4c155eef95e4cf2a570"
    )


def test_end_of_input_is_after_a_trailing_comment():
    # the reference lexer left the end-of-input column at the '#'
    with pytest.raises(ParseError) as err:
        parse("p1 t1 (p2 # note")
    assert err.value.message == "expected ')', got end of input"
    assert (err.value.line, err.value.col) == (1, 17)
    with pytest.raises(LexError) as err:
        parse("  # note")
    assert (err.value.line, err.value.col) == (1, 9)


def test_non_decimal_numerals_scan_as_letters():
    # ``re`` parts letters from digits by decimal digits only, where the
    # reference lexer used str.isalpha and str.isdigit
    assert _labels("²1 p½ Ⅻ p1²") == ["²1", "p½", "Ⅻ", "p1", "²"]
    tree = SeqBlock((Place("p1"), Transition("²"), Place("Ⅻ1"), Transition("t½"), Place("q")))
    assert format_tree(tree) == "p1²,Ⅻ1t½,q"
    assert parse(format_tree(tree)) == tree


def test_validate_tree_rejects_labels_that_do_not_scan_as_one():
    for label in ("p1a", "1p", "p 1", "p-1", ""):
        with pytest.raises(ParseError, match="does not scan"):
            validate_tree(SeqBlock((Place("p0"), Transition("t0"), Place(label))))


#: Letters, ``_``, digits, numerals that count as letters, separators, a
#: comment sign, brackets and illegal characters.
_SCAN_ALPHABET = [*"abzXY_0123456789²½٣é ,\n\t#()[]{}!$-"]


def test_label_pattern_scans_like_the_reference():
    # the reference pattern backtracks exponentially on failing labels, so
    # the strings stay short; every start offset is matched as well
    rng = random.Random(20261019)
    for _ in range(4000):
        text = "".join(rng.choices(_SCAN_ALPHABET, k=rng.randint(0, 14)))
        assert ecws._TOKEN.findall(text) == REFERENCE_TOKEN.findall(text), text
        assert bool(ecws._LABEL.fullmatch(text)) == bool(REFERENCE_LABEL.fullmatch(text)), text
        for i in range(len(text) + 1):
            got, want = ecws._LABEL.match(text, i), REFERENCE_LABEL.match(text, i)
            assert (got and got.span()) == (want and want.span()), (text, i)


def test_a_label_that_fails_late_fails_fast():
    # each ``1_`` doubled the ways the first label pattern could fail here
    label = "a" + "1_" * 40 + "!"
    with pytest.raises(ValueError, match="is not a label"):
        parse_marking(label)
    with pytest.raises(ParseError, match="does not scan"):
        validate_tree(SeqBlock((Place(label),)))


# ── label queries ────────────────────────────────────────────────────────────


def test_label_sets():
    tree = parse("p1t1{p2t2p3}{t3}t4p4")
    assert place_labels(tree) == {"p1", "p2", "p3", "p4"}
    assert set(iter_labels(tree)) - place_labels(tree) == {"t1", "t2", "t3", "t4"}


# ── sequence walk ────────────────────────────────────────────────────────────


def _reference_walk(seq):
    """The order mutation sites have always been drawn in, written out."""
    yield seq
    for child in seq.children:
        if isinstance(child, (AndBlock, XorBlock)):
            for branch in child.branches:
                yield from _reference_walk(branch)
        elif isinstance(child, LoopBlock):
            yield from _reference_walk(child.forward)
            yield from _reference_walk(child.back)


@pytest.mark.parametrize("seed", range(40))
def test_walk_yields_every_sequence_once_in_preorder(seed):
    tree = random_tree(random.Random(seed), 8, 80)
    walked = list(walk(tree))
    assert [id(seq) for seq in walked] == [id(seq) for seq in _reference_walk(tree)]
    assert len({id(seq) for seq in walked}) == len(walked)


@pytest.mark.parametrize("seed", range(20))
def test_edit_seq_rebuilds_only_the_path(seed):
    """``rebuild`` editing one sequence builds anew only the sequences on
    the path from the root to it."""
    tree = random_tree(random.Random(seed), 8, 80)
    assert rebuild(tree, lambda seq, children: children) is tree
    enclosing = {}  # the id of each sequence -> the sequence around it
    for seq in walk(tree):
        for child in seq.children:
            for nested in branches_of(child):
                enclosing[id(nested)] = seq
    for target in walk(tree):
        # a new tuple of the same children: only the target and the
        # sequences around it are built anew
        edited = rebuild(tree, lambda seq, c: tuple(list(c)) if seq is target else c)
        assert edited == tree
        rebuilt, at = set(), target
        while at is not None:
            rebuilt.add(id(at))
            at = enclosing.get(id(at))
        for old, new in zip(walk(tree), walk(edited), strict=True):
            assert (new is old) != (id(old) in rebuilt)


def test_edit_seq_applies_the_edit():
    """``rebuild`` applies an edit to the sequence object it names."""
    tree = parse("p1t1(p2t2p3)(p4)t3{p5}{t4}t5p6")
    branch, back = tree.children[2].branches[1], tree.children[4].back

    def append(target, tail):
        return lambda seq, c: (*c, *tail) if seq is target else c

    edited = rebuild(tree, append(branch, (Transition("u"), Place("q"))))
    assert format_tree(edited) == "p1t1(p2t2p3)(p4u,q)t3{p5}{t4}t5p6"
    edited = rebuild(tree, append(back, (Place("q"), Transition("u"))))
    assert format_tree(edited) == "p1t1(p2t2p3)(p4)t3{p5}{t4q,u}t5p6"


def test_rebuild_needs_no_recursion():
    tree = deep_tree(3000)
    assert rebuild(tree, lambda seq, children: children) is tree
    mapping = {"z": "y", "a0": "x"}
    moved = _relabel(tree, mapping)
    assert list(iter_labels(moved)) == [mapping.get(x, x) for x in iter_labels(tree)]


def test_deep_tree_needs_no_recursion():
    depth = 500
    tree = deep_tree(depth)
    assert sum(1 for _ in walk(tree)) == 2 * depth + 1
    places = place_labels(tree)
    assert len(places) == 1 + 2 * depth + len(range(0, depth, 3))
    validate_tree(tree)
    net = build_net(tree)
    assert net.places == places
    assert len(list(iter_labels(tree))) == len(places) + len(net.transitions)
    assert (net.init, net.end) == ("a0", "f0")


#: The block types as frozen dataclasses with the same names and fields: the
#: generated ``==``, ``hash`` and ``repr`` that the block types replace.
_MIRRORS = {
    cls: dataclasses.make_dataclass(
        cls.__qualname__, [field.name for field in dataclasses.fields(cls)], frozen=True
    )
    for cls in (SeqBlock, AndBlock, XorBlock, LoopBlock)
}


def _mirror(x):
    """``x`` rebuilt from the :data:`_MIRRORS` classes (it recurses)."""
    if type(x) is tuple:
        return tuple(map(_mirror, x))
    cls = _MIRRORS.get(type(x))
    if cls is None:
        return x
    return cls(*(_mirror(getattr(x, field.name)) for field in dataclasses.fields(x)))


def test_block_types_compare_hash_and_print_as_dataclasses():
    rng = random.Random(20261019)
    trees = [load_fixture(path.stem) for path in sorted(FIXTURES.glob("*.ecws"))]
    trees += [random_tree(rng, 6, 20) for _ in range(200)]
    trees.append(deep_tree(40))
    for tree in trees:
        assert (hash(tree), repr(tree)) == (hash(_mirror(tree)), repr(_mirror(tree)))
        copy = parse(format_tree(tree))  # equal, and shares no node
        assert copy == tree and not copy != tree and hash(copy) == hash(tree)
        for other in (mutate(tree, rng), rng.choice(trees)):
            assert (tree == other) == (_mirror(tree) == _mirror(other))
    # a different type at the top or further down is unequal
    tree = parse("p1t1(p2)(p3)t2p4")
    assert tree.__eq__(tree.children) is NotImplemented and tree != tree.children
    swapped = parse("p1[t1p2t3][t4]p4")
    assert tree != swapped and _mirror(tree) != _mirror(swapped)
    assert AndBlock(tree.children[2].branches) != XorBlock(tree.children[2].branches)


def test_deep_trees_compare_hash_and_print_without_recursion():
    tree, same = deep_tree(3000), deep_tree(3000)
    assert tree == same and hash(tree) == hash(same)
    assert tree != deep_tree(3000, core=(Place("y"),))
    text = repr(tree)
    assert text.startswith("SeqBlock(children=(Place(label='a0'), Transition(label='b0'), ")
    assert text.count("SeqBlock(") == sum(1 for _ in walk(tree))


#: The six block-tree types, each with its dataclass fields (name and
#: annotation) as the package has always declared them.
_FIELDS = {
    Place: [("label", "str")],
    Transition: [("label", "str")],
    SeqBlock: [("children", "tuple['Element', ...]")],
    AndBlock: [("branches", "tuple[SeqBlock, ...]")],
    XorBlock: [("branches", "tuple[SeqBlock, ...]")],
    LoopBlock: [("forward", "SeqBlock"), ("back", "SeqBlock")],
}


def _elements(tree):
    """Every sequence, block, place and transition of ``tree``."""
    for seq in walk(tree):
        yield seq
        yield from seq.children


def test_a_parsed_tree_keeps_under_120_bytes_per_element():
    # README quotes 97-102 bytes per element of these parsed texts (the
    # objects, their tuples and the label strings) on Python 3.10-3.13; with
    # an instance dict on every element they read 134-211
    texts = [format_tree(tree) for seed in range(3) for tree in composed_pair(seed)]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trees = [parse(text) for text in texts]
        live = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    elements = [el for tree in trees for el in _elements(tree)]
    assert {type(el) for el in elements} == set(_FIELDS)
    assert not any(hasattr(el, "__dict__") for el in elements)
    assert live / len(elements) < 120


def test_block_trees_pickle_and_copy_to_equal_trees():
    # deep chains are left out: pickle and deepcopy recurse per level
    rng = random.Random(20261019)
    trees = [load_fixture(path.stem) for path in sorted(FIXTURES.glob("*.ecws"))]
    trees += [random_tree(rng, 6, 20) for _ in range(100)]
    for tree in trees:
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(tree, protocol)) == tree
        assert copy.copy(tree) == tree
        assert copy.deepcopy(tree) == tree


def test_block_tree_types_keep_their_fields_freeze_and_take_no_weak_references():
    tree = parse("p1t1(p2)(p3)t2p4[t3p5t4][t5]p6t6{p7}{t7}t8p8")
    assert {cls: [(f.name, f.type) for f in dataclasses.fields(cls)] for cls in _FIELDS} == _FIELDS
    elements = list(_elements(tree))
    assert {type(el) for el in elements} == set(_FIELDS)
    for el in elements:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(el, dataclasses.fields(el)[0].name, None)
        # slotted, with no weak-reference slot
        with pytest.raises(TypeError):
            weakref.ref(el)


def _constructed(x):
    """``x`` built again through the block-tree constructors (it recurses)."""
    if type(x) is tuple:
        return tuple(map(_constructed, x))
    if type(x) in _FIELDS:
        return type(x)(*(_constructed(getattr(x, f.name)) for f in dataclasses.fields(x)))
    return x


def test_parsed_trees_match_constructor_built_ones():
    # the reader makes its leaves, sequences and blocks without the __init__
    # that dataclass generates for frozen types; nothing tells them from the
    # constructors' objects: fields, ==, hash, repr, frozenness, pickle bytes
    rng = random.Random(20261022)
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.ecws"))]
    texts += [format_tree(random_tree(rng, 6, 20)) for _ in range(500)]
    assert len(texts) == 514
    for text in texts:
        tree = parse(text)
        built = _constructed(tree)
        for el, twin in zip(_elements(tree), _elements(built), strict=True):
            assert type(el) is type(twin) and el is not twin
            assert [(f.name, f.type) for f in dataclasses.fields(el)] == _FIELDS[type(el)]
            assert el == twin and hash(el) == hash(twin) and repr(el) == repr(twin)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(el, dataclasses.fields(el)[0].name, None)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(tree, protocol)
            assert data == pickle.dumps(built, protocol) and pickle.loads(data) == built
        assert copy.deepcopy(tree) == built


# ── net construction ─────────────────────────────────────────────────────────


def test_build_net_chain():
    net = build_net(parse("p1t1p2t2p3t3p4"))
    assert net.init == "p1" and net.end == "p4"
    assert net.arcs == {
        ("p1", "t1"), ("t1", "p2"),
        ("p2", "t2"), ("t2", "p3"),
        ("p3", "t3"), ("t3", "p4"),
    }


def test_build_net_fork_join():
    net = build_net(parse("p1t1p2t2(p3t3p4t4p5)(p6t5p7)t6p8t7p9"))
    assert {("t2", "p3"), ("t2", "p6"), ("p5", "t6"), ("p7", "t6")} <= net.arcs


def test_build_net_loop():
    net = build_net(parse("p1t1{p2t2p3t3p4}{t4p5t5}t6p6"))
    assert {("p4", "t4"), ("t4", "p5"), ("p5", "t5"), ("t5", "p2")} <= net.arcs
    # the loop is left via t6 from its last forward place
    assert ("p4", "t6") in net.arcs


def test_build_net_choice():
    net = build_net(parse("p1[t1p2t2][t3p3t4]p4"))
    assert {("p1", "t1"), ("p1", "t3"), ("t2", "p4"), ("t4", "p4")} <= net.arcs


def test_build_net_rejects_invalid_trees_built_in_code():
    # a transition shared by two branches would become one transition with
    # pre-set {p2, p4} and post-set {p3, p5}
    shared = SeqBlock((
        Place("p1"), Transition("t1"),
        AndBlock((
            SeqBlock((Place("p2"), Transition("t2"), Place("p3"))),
            SeqBlock((Place("p4"), Transition("t2"), Place("p5"))),
        )),
        Transition("t3"), Place("p6"),
    ))
    with pytest.raises(DuplicateLabelError, match="'t2'"):
        build_net(shared)
    one_branch = SeqBlock((
        Place("p1"), Transition("t1"), AndBlock((SeqBlock((Place("p2"),)),)),
        Transition("t2"), Place("p3"),
    ))
    with pytest.raises(ParseError, match="at least 2 branches"):
        build_net(one_branch)


def test_the_shape_check_runs_once_per_tree(monkeypatch):
    # parse checks the shape as it reads and runs the check only on a text at
    # fault; validate_tree and build_net check the tree they are given once
    # per call, whatever they were given before
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.ecws"))]
    texts += [format_tree(tree) for seed in range(20) for tree in composed_pair(seed)]
    calls = []
    check = ecws._validate

    def counted(*args, **kw):
        calls.append(args[0])
        return check(*args, **kw)

    monkeypatch.setattr(ecws, "_validate", counted)
    trees = [parse(text) for text in texts]
    assert calls == []
    for tree in trees:
        build_net(tree)
    assert calls == trees
    tree = deep_tree(30)
    validate_tree(tree)
    validate_tree(tree)
    build_net(tree)
    assert calls[len(trees):] == [tree] * 3
    # random trees are checked as they are drawn, and again when wired
    tree = random_tree(random.Random(1))
    build_net(tree)
    assert calls[len(trees) + 3:] == [tree] * 2


def _assert_wired_from_source_to_sink(net) -> None:
    """No arc enters the source or leaves the sink, and every node lies on a
    path from the source to the sink."""
    assert all(dst != net.init for _, dst in net.arcs)
    assert all(src != net.end for src, _ in net.arcs)
    forward = {n: set() for n in net.places | net.transitions}
    backward = {n: set() for n in net.places | net.transitions}
    for src, dst in net.arcs:
        forward[src].add(dst)
        backward[dst].add(src)

    def closure(start, edges):
        seen, stack = {start}, [start]
        while stack:
            for nxt in edges[stack.pop()] - seen:
                seen.add(nxt)
                stack.append(nxt)
        return seen

    on_paths = closure(net.init, forward) & closure(net.end, backward)
    assert on_paths == net.places | net.transitions


def test_valid_trees_wire_every_node_from_source_to_sink(corpus):
    trees = [tree for pair in corpus for tree in pair]
    trees += [load_fixture(path.stem) for path in sorted(FIXTURES.glob("*.ecws"))]
    trees.append(deep_tree(1200))
    for tree in trees:
        _assert_wired_from_source_to_sink(build_net(tree))
