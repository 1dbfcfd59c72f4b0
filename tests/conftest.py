from __future__ import annotations

import random
from pathlib import Path

import pytest

from wfregions import BlockTree, parse, random_net_pair

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


def fixture_pair(old: str, new: str) -> tuple[BlockTree, BlockTree]:
    return load_fixture(old), load_fixture(new)


@pytest.fixture(scope="session")
def corpus() -> list[tuple[BlockTree, BlockTree]]:
    rng = random.Random(CORPUS_SEED)
    return [random_net_pair(rng) for _ in range(CORPUS_SIZE)]
