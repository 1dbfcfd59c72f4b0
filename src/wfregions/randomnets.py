"""Seeded random nets, structural mutations, and pair-level shrinking.

The generator grows grammar-valid block trees bounded by nesting depth and
place count.  Mutations produce a changed copy of a tree — inserting or
removing a place, transposing place labels, swapping parallel branch tails,
converting a block to another kind (or flattening it), or renaming a
transition — retrying with a different edit when a candidate breaks a
grammar rule.  ``random_net_pair`` combines both into reproducible old/new
pairs for the agreement suites, ``check_pair_agreement`` scores one pair
against the brute-force oracle, and ``shrink_pair`` greedily minimizes a
failing pair before it is reported.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from .ctree import build_ctree
from .ecws import (
    AndBlock,
    BlockTree,
    Element,
    LoopBlock,
    ParseError,
    Place,
    SeqBlock,
    Transition,
    XorBlock,
    branches_of,
    build_net,
    edit_seq,
    iter_labels,
    place_labels,
    validate_tree,
    walk,
)
from .regions import analyze
from .wfnet import DEFAULT_STATE_CAP, oracle_classify


# ── random tree generation ──────────────────────────────────────────────────


class _Gen:
    def __init__(self, rng: random.Random, max_depth: int, max_places: int):
        self.rng = rng
        self.max_depth = max_depth
        self.max_places = max_places
        self.place_n = 0
        self.trans_n = 0

    def place(self) -> Place:
        self.place_n += 1
        return Place(f"p{self.place_n}")

    def trans(self) -> Transition:
        self.trans_n += 1
        return Transition(f"t{self.trans_n}")

    def free(self, reserve: int) -> int:
        return self.max_places - self.place_n - reserve

    def pnet(self, depth: int, reserve: int) -> SeqBlock:
        """Place-bordered sequence; ``reserve`` places stay untouched for
        siblings the caller still has to generate."""
        children: list[Element] = [self.place()]
        while self.free(reserve) > 0 and self.rng.random() < 0.6:
            r = self.rng.random()
            if r < 0.15 and depth < self.max_depth:
                children.append(self.xor(depth + 1, reserve + 1))
                children.append(self.place())
            elif r < 0.30 and depth < self.max_depth and self.free(reserve) >= 3:
                children.append(self.trans())
                children.append(self.and_block(depth + 1, reserve + 1))
                children.append(self.trans())
                children.append(self.place())
            elif r < 0.40 and depth < self.max_depth and self.free(reserve) >= 2:
                children.append(self.trans())
                children.append(self.loop(depth + 1, reserve + 1))
                children.append(self.trans())
                children.append(self.place())
            else:
                children.append(self.trans())
                children.append(self.place())
        return SeqBlock(tuple(children))

    def tnet(self, depth: int, reserve: int) -> SeqBlock:
        first = self.trans()
        if self.free(reserve) < 1 or self.rng.random() < 0.4:
            return SeqBlock((first,))
        body = self.pnet(depth, reserve)
        return SeqBlock((first, *body.children, self.trans()))

    def and_block(self, depth: int, reserve: int) -> AndBlock:
        count = 2 if self.rng.random() < 0.8 or self.free(reserve) < 3 else 3
        branches = []
        for i in range(count):
            branches.append(self.pnet(depth, reserve + (count - 1 - i)))
        return AndBlock(tuple(branches))

    def xor(self, depth: int, reserve: int) -> XorBlock:
        count = 2 if self.rng.random() < 0.8 else 3
        return XorBlock(tuple(self.tnet(depth, reserve) for _ in range(count)))

    def loop(self, depth: int, reserve: int) -> LoopBlock:
        forward = self.pnet(depth, reserve)
        return LoopBlock(forward, self.tnet(depth, reserve))


def random_tree(
    rng: random.Random, max_depth: int = 4, max_places: int = 12
) -> BlockTree:
    """A valid random block tree within the given bounds."""
    gen = _Gen(rng, max_depth, max_places)
    tree = gen.pnet(1, 0)
    # a bare single place is a legal net but a useless test subject; redraw
    while max_places >= 2 and len(tree.children) == 1:
        gen = _Gen(rng, max_depth, max_places)
        tree = gen.pnet(1, 0)
    validate_tree(tree)
    return tree


# ── tree surgery helpers ────────────────────────────────────────────────────


def _relabel(tree: BlockTree, mapping: dict[str, str]) -> BlockTree:
    def rename(el: Element) -> Element:
        if isinstance(el, (Place, Transition)) and el.label in mapping:
            return type(el)(mapping[el.label])
        return el

    def rewrite(children: tuple[Element, ...]) -> tuple[Element, ...]:
        return tuple(rename(el) for el in children)

    for path, seq in list(walk(tree)):
        if any(rename(el) is not el for el in seq.children):
            tree = edit_seq(tree, path, rewrite)
    return tree


def _fresh(used: set[str], prefix: str) -> str:
    n = 1
    while f"{prefix}{n}" in used:
        n += 1
    used.add(f"{prefix}{n}")
    return f"{prefix}{n}"


def _valid_or_none(tree: BlockTree) -> BlockTree | None:
    try:
        validate_tree(tree)
        build_net(tree)
    except ParseError:
        return None
    return tree


# ── mutations ───────────────────────────────────────────────────────────────


def mutate_insert_place(tree: BlockTree, rng: random.Random) -> BlockTree | None:
    spots = [
        (path, i)
        for path, seq in walk(tree)
        for i, child in enumerate(seq.children)
        if isinstance(child, Place)
    ]
    if not spots:
        return None
    path, i = rng.choice(spots)
    used = set(iter_labels(tree))
    t_new, p_new = _fresh(used, "v"), _fresh(used, "q")

    def splice(children: tuple[Element, ...]) -> tuple[Element, ...]:
        return (*children[: i + 1], Transition(t_new), Place(p_new), *children[i + 1 :])

    return edit_seq(tree, path, splice)


def mutate_remove_place(tree: BlockTree, rng: random.Random) -> BlockTree | None:
    candidates = []
    for path, seq in walk(tree):
        for i, child in enumerate(seq.children):
            if not isinstance(child, Place):
                continue
            if i + 1 < len(seq.children) and isinstance(seq.children[i + 1], Transition):
                candidates.append((path, i, i + 1))
            if i - 1 >= 0 and isinstance(seq.children[i - 1], Transition):
                candidates.append((path, i - 1, i))
    rng.shuffle(candidates)
    for path, lo, hi in candidates:

        def cut(children: tuple[Element, ...], lo: int = lo, hi: int = hi):
            return (*children[:lo], *children[hi + 1 :])

        out = _valid_or_none(edit_seq(tree, path, cut))
        if out is not None:
            return out
    return None


def mutate_transpose_places(tree: BlockTree, rng: random.Random) -> BlockTree | None:
    labels = sorted(place_labels(tree))
    if len(labels) < 2:
        return None
    a, b = rng.sample(labels, 2)
    return _relabel(tree, {a: b, b: a})


def mutate_branch_tail_swap(tree: BlockTree, rng: random.Random) -> BlockTree | None:
    blocks = [
        child
        for _, seq in walk(tree)
        for child in seq.children
        if isinstance(child, AndBlock)
    ]
    if not blocks:
        return None
    block = rng.choice(blocks)
    i, j = rng.sample(range(len(block.branches)), 2)
    a = block.branches[i].children[-1]
    b = block.branches[j].children[-1]
    assert isinstance(a, Place) and isinstance(b, Place)
    return _relabel(tree, {a.label: b.label, b.label: a.label})


def mutate_relabel_transition(tree: BlockTree, rng: random.Random) -> BlockTree | None:
    labels = sorted(set(iter_labels(tree)) - place_labels(tree))
    if not labels:
        return None
    used = set(iter_labels(tree))
    return _relabel(tree, {rng.choice(labels): _fresh(used, "v")})


def mutate_block_change(tree: BlockTree, rng: random.Random) -> BlockTree | None:
    """Convert one block to a different kind, or flatten it away."""
    spots = [
        (path, i, child)
        for path, seq in walk(tree)
        for i, child in enumerate(seq.children)
        if branches_of(child)
    ]
    rng.shuffle(spots)
    for path, i, block in spots:
        edits = _block_edits(tree, i, block, rng)
        rng.shuffle(edits)
        for edit in edits:
            out = _valid_or_none(edit_seq(tree, path, edit))
            if out is not None:
                return out
    return None


def _block_edits(tree: BlockTree, i: int, block: Element, rng: random.Random):
    """Candidate child-tuple rewrites for the block at index ``i``."""
    used = set(iter_labels(tree))
    edits: list[Callable[[tuple[Element, ...]], tuple[Element, ...]]] = []

    if isinstance(block, XorBlock):
        with_body = [b for b in block.branches if len(b.children) >= 3]
        if len(with_body) == len(block.branches):

            def to_and(children: tuple[Element, ...]) -> tuple[Element, ...]:
                first = block.branches[0]
                fork, join = first.children[0], first.children[-1]
                inner = tuple(
                    SeqBlock(b.children[1:-1]) for b in block.branches
                )
                return (
                    *children[:i],
                    fork,
                    AndBlock(inner),
                    join,
                    *children[i + 1 :],
                )

            edits.append(to_and)
        if with_body and len(block.branches) >= 2:
            fwd_src = rng.choice(with_body)
            others = [b for b in block.branches if b is not fwd_src]
            back = rng.choice(others)

            def to_loop(children: tuple[Element, ...]) -> tuple[Element, ...]:
                return (
                    *children[:i],
                    fwd_src.children[0],
                    LoopBlock(SeqBlock(fwd_src.children[1:-1]), back),
                    fwd_src.children[-1],
                    *children[i + 1 :],
                )

            edits.append(to_loop)
        survivor = rng.choice(block.branches)

        def flatten_xor(children: tuple[Element, ...]) -> tuple[Element, ...]:
            return (*children[:i], *survivor.children, *children[i + 1 :])

        edits.append(flatten_xor)

    elif isinstance(block, AndBlock):

        def to_xor(children: tuple[Element, ...]) -> tuple[Element, ...]:
            local = set(used)
            branches = []
            for k, b in enumerate(block.branches):
                if k == 0:
                    entry, exit_ = children[i - 1], children[i + 1]
                else:
                    entry = Transition(_fresh(local, "v"))
                    exit_ = Transition(_fresh(local, "v"))
                branches.append(SeqBlock((entry, *b.children, exit_)))
            return (*children[: i - 1], XorBlock(tuple(branches)), *children[i + 2 :])

        edits.append(to_xor)

        def sequentialize(children: tuple[Element, ...]) -> tuple[Element, ...]:
            local = set(used)
            flat: list[Element] = []
            for k, b in enumerate(block.branches):
                if k:
                    flat.append(Transition(_fresh(local, "v")))
                flat.extend(b.children)
            return (*children[:i], *flat, *children[i + 1 :])

        edits.append(sequentialize)
        survivor_and = rng.choice(block.branches)

        def flatten_and(children: tuple[Element, ...]) -> tuple[Element, ...]:
            return (*children[:i], *survivor_and.children, *children[i + 1 :])

        edits.append(flatten_and)

    else:
        assert isinstance(block, LoopBlock)

        def loop_to_xor(children: tuple[Element, ...]) -> tuple[Element, ...]:
            first = SeqBlock((children[i - 1], *block.forward.children, children[i + 1]))
            return (
                *children[: i - 1],
                XorBlock((first, block.back)),
                *children[i + 2 :],
            )

        edits.append(loop_to_xor)

        def unroll(children: tuple[Element, ...]) -> tuple[Element, ...]:
            return (*children[:i], *block.forward.children, *children[i + 1 :])

        edits.append(unroll)

    return edits


# Free place-label transposition stays out of the default family only because
# ``perfbench/compose.py`` and the pinned ``mutate`` digests in the tests
# depend on the output stream of this tuple.  The analysis handles it: a
# transposition corpus in ``tests/test_randomnets.py`` checks it against the
# oracle.
_MUTATIONS: tuple[Callable[[BlockTree, random.Random], BlockTree | None], ...] = (
    mutate_insert_place,
    mutate_remove_place,
    mutate_branch_tail_swap,
    mutate_block_change,
    mutate_relabel_transition,
)


def mutate(tree: BlockTree, rng: random.Random) -> BlockTree:
    """Apply one random mutation; falls back to the identity if none sticks."""
    order = list(_MUTATIONS)
    rng.shuffle(order)
    for mutation in order:
        out = mutation(tree, rng)
        if out is not None and _valid_or_none(out) is not None:
            return out
    return tree


def random_net_pair(
    rng: random.Random, max_depth: int = 4, max_places: int = 12
) -> tuple[BlockTree, BlockTree]:
    """A random old tree plus a 1–2 step mutation of it."""
    old = random_tree(rng, max_depth, max_places)
    steps = 1 if rng.random() < 0.7 else 2
    new = old
    for _ in range(steps):
        new = mutate(new, rng)
    return old, new


# ── agreement checking and shrinking ────────────────────────────────────────


def check_pair_agreement(
    old: BlockTree, new: BlockTree, cap: int = DEFAULT_STATE_CAP
) -> list[str]:
    """Mismatches between the structural analysis and the oracle (empty = agree)."""
    report = analyze(old, new)
    oracle = oracle_classify(build_net(old), build_net(new), cap=cap)
    problems: list[str] = []
    if report.scr != oracle.semantic_scr:
        problems.append(
            f"scr: structural {sorted(report.scr)} vs oracle {sorted(oracle.semantic_scr)}"
        )
    if report.pscr_exists != oracle.semantic_pscr_exists:
        problems.append(
            f"pscr_exists: structural {report.pscr_exists} "
            f"vs oracle {oracle.semantic_pscr_exists}"
        )
    elif report.pscr_exists and report.pscr != oracle.semantic_pscr:
        problems.append(
            f"pscr: structural {sorted(report.pscr or ())} "
            f"vs oracle {sorted(oracle.semantic_pscr or ())}"
        )
    if report.per_place != oracle.per_place:
        diff = {
            p: (report.per_place[p].value, oracle.per_place[p].value)
            for p in sorted(report.per_place)
            if report.per_place[p] != oracle.per_place[p]
        }
        problems.append(f"per_place (structural, oracle): {diff}")
    return problems


def _try_remove_place(tree: BlockTree, label: str) -> BlockTree | None:
    for path, seq in walk(tree):
        for i, child in enumerate(seq.children):
            if not (isinstance(child, Place) and child.label == label):
                continue
            spans = []
            if i + 1 < len(seq.children) and isinstance(seq.children[i + 1], Transition):
                spans.append((i, i + 1))
            if i - 1 >= 0 and isinstance(seq.children[i - 1], Transition):
                spans.append((i - 1, i))
            for lo, hi in spans:

                def cut(children: tuple[Element, ...], lo: int = lo, hi: int = hi):
                    return (*children[:lo], *children[hi + 1 :])

                out = _valid_or_none(edit_seq(tree, path, cut))
                if out is not None:
                    return out
            return None
    return None


def shrink_pair(
    old: BlockTree,
    new: BlockTree,
    still_failing: Callable[[BlockTree, BlockTree], bool],
) -> tuple[BlockTree, BlockTree]:
    """Greedily remove places while the pair keeps exhibiting the failure."""
    progress = True
    while progress:
        progress = False
        shared = sorted(place_labels(old) & place_labels(new))
        only_old = sorted(place_labels(old) - place_labels(new))
        only_new = sorted(place_labels(new) - place_labels(old))
        candidates: list[tuple[BlockTree, BlockTree]] = []
        for label in shared:
            o2, n2 = _try_remove_place(old, label), _try_remove_place(new, label)
            if o2 is not None and n2 is not None:
                candidates.append((o2, n2))
        for label in only_old:
            o2 = _try_remove_place(old, label)
            if o2 is not None:
                candidates.append((o2, new))
        for label in only_new:
            n2 = _try_remove_place(new, label)
            if n2 is not None:
                candidates.append((old, n2))
        for cand_old, cand_new in candidates:
            if still_failing(cand_old, cand_new):
                old, new = cand_old, cand_new
                progress = True
                break
    return old, new
