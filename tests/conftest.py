from __future__ import annotations

import random
from functools import cache
from pathlib import Path

import pytest

from wfregions import (
    AndBlock,
    BlockTree,
    LoopBlock,
    Place,
    SeqBlock,
    Transition,
    XorBlock,
    format_tree,
    mutate,
    parse,
    random_net_pair,
    random_tree,
)
from wfregions.ecws import rebuild
from wfregions.randomnets import mutate_transpose_places

FIXTURES = Path(__file__).parent / "fixtures"

# One corpus, generated once, shared by every suite that sweeps random
# net pairs.  Fixed seed so failures reproduce.
CORPUS_SEED = 20260823
CORPUS_SIZE = 500


def load_fixture(name: str) -> BlockTree:
    return parse((FIXTURES / f"{name}.ecws").read_text())


def nested_and(depth: int) -> str:
    """ECWS text with ``depth`` parallel blocks nested in one another."""
    text = "z"
    for k in reversed(range(depth)):
        text = f"a{k} b{k} ({text})(c{k}) e{k} f{k}"
    return text


def deep_tree(depth: int, core: tuple = (Place("z"),)) -> SeqBlock:
    """Blocks nested ``depth`` deep, cycling through parallel, choice and
    loop, around the sequence ``core``."""
    seq = SeqBlock(core)
    for k in reversed(range(depth)):
        b, c, e = Transition(f"b{k}"), Transition(f"c{k}"), Transition(f"e{k}")
        if k % 3 == 0:
            mid = (b, AndBlock((seq, SeqBlock((Place(f"d{k}"),)))), e)
        elif k % 3 == 1:
            mid = (XorBlock((SeqBlock((b, *seq.children, e)), SeqBlock((c,)))),)
        else:
            mid = (b, LoopBlock(seq, SeqBlock((c,))), e)
        seq = SeqBlock((Place(f"a{k}"), *mid, Place(f"f{k}")))
    return seq


def prefixed(tree: BlockTree, prefix: str) -> str:
    """The text of ``tree`` with ``prefix`` put before every label."""

    def relabel(seq: SeqBlock, children: tuple) -> tuple:
        return tuple(
            type(el)(prefix + el.label) if isinstance(el, (Place, Transition)) else el
            for el in children
        )

    return format_tree(rebuild(tree, relabel))


def transposition_pair(seed: int) -> tuple[BlockTree, BlockTree]:
    """The transposition corpus pair of one seed: 1-2 steps, each a place
    transposition with probability 0.5 and a default-family mutation
    otherwise."""
    rng = random.Random(seed)
    old = new = random_tree(rng, 6, 20)
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            new = mutate_transpose_places(new, rng) or new
        else:
            new = mutate(new, rng)
    return old, new


def composed_pair(seed: int, chunks: int = 6, changed: tuple[int, int] | None = None):
    """Chunks of two random segments in parallel, joined in series; the new
    net mutates every segment once or twice, so many nodes change.  Given
    ``changed=(k, i)``, only segment ``i`` of chunk ``k`` is mutated."""
    rng = random.Random(seed)
    texts = ["w0", "w0"]
    for k in range(chunks):
        segments = [random_net_pair(rng, 5, 15) for _ in range(2)]
        for side in (0, 1):
            branches = ""
            for i, pair in enumerate(segments):
                version = side if changed in (None, (k, i)) else 0
                branches += "(" + prefixed(pair[version], f"s{k}{i}_") + ")"
            texts[side] += f" a{k} {branches} b{k} w{k + 1}"
    return parse(texts[0]), parse(texts[1])


#: Bytes that a byte-level mutation inserts: every bracket, the separators,
#: a comment, an illegal character and a few label characters.
MUTATION_BYTES = b"()[]{} ,\n#$pt1_"


@cache
def mutated_texts(count: int = 3000, seed: int = 20261019) -> tuple[bytes, ...]:
    """``count`` seeded byte-level mutations of the fixture texts and of the
    40 texts of ``composed_pair`` seeds 0-19.  Each applies one to three
    edits: delete a run of 1-4 bytes, insert or overwrite one byte of
    :data:`MUTATION_BYTES`, or repeat a run of 1-8 bytes."""
    bases = [path.read_bytes() for path in sorted(FIXTURES.glob("*.ecws"))]
    bases += [format_tree(tree).encode() for s in range(20) for tree in composed_pair(s)]
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        data = bytearray(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(data) + 1)
            edit = rng.randrange(4)
            if edit == 0:
                del data[i : i + rng.randint(1, 4)]
            elif edit == 1:
                data[i:i] = bytes([rng.choice(MUTATION_BYTES)])
            elif edit == 2:
                data[i : i + 1] = bytes([rng.choice(MUTATION_BYTES)])
            else:
                data[i:i] = data[i : i + rng.randint(1, 8)]
        texts.append(bytes(data))
    return tuple(texts)


def fixture_pair(old: str, new: str) -> tuple[BlockTree, BlockTree]:
    return load_fixture(old), load_fixture(new)


@pytest.fixture(scope="session")
def corpus() -> list[tuple[BlockTree, BlockTree]]:
    rng = random.Random(CORPUS_SEED)
    return [random_net_pair(rng) for _ in range(CORPUS_SIZE)]
