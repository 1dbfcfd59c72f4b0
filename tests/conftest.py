from __future__ import annotations

import random
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
    parse,
    random_net_pair,
)
from wfregions.ecws import tokenize

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


def deep_tree(depth: int) -> SeqBlock:
    """Blocks nested ``depth`` deep, cycling through parallel, choice and loop."""
    seq = SeqBlock((Place("z"),))
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


def prefixed(text: str, prefix: str) -> str:
    return " ".join(
        prefix + tok.text if tok.kind == "ident" else tok.text
        for tok in tokenize(text)[:-1]
    )


def composed_pair(seed: int, chunks: int = 6):
    """Chunks of two random segments in parallel, joined in series; the new
    net mutates every segment once or twice, so many nodes change."""
    rng = random.Random(seed)
    texts = ["w0", "w0"]
    for k in range(chunks):
        segments = [random_net_pair(rng, 5, 15) for _ in range(2)]
        for side in (0, 1):
            branches = "".join(
                "(" + prefixed(format_tree(pair[side]), f"s{k}{i}_") + ")"
                for i, pair in enumerate(segments)
            )
            texts[side] += f" a{k} {branches} b{k} w{k + 1}"
    return parse(texts[0]), parse(texts[1])


def fixture_pair(old: str, new: str) -> tuple[BlockTree, BlockTree]:
    return load_fixture(old), load_fixture(new)


@pytest.fixture(scope="session")
def corpus() -> list[tuple[BlockTree, BlockTree]]:
    rng = random.Random(CORPUS_SEED)
    return [random_net_pair(rng) for _ in range(CORPUS_SIZE)]
