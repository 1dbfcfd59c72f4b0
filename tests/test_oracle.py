"""The bitmask oracle against the frozenset oracle it replaced.

``oracle_reference`` keeps the previous breadth-first search, soundness
check and classifier word for word.  Every public entry point of
``wfregions.wfnet`` must return what the reference returns, in the same
order, and raise the same error with the same message.
"""

from __future__ import annotations

import ast
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import wfregions.wfnet as wfnet
from wfregions import (
    SoundnessError,
    StateExplosionError,
    WfNet,
    build_net,
    check_soundness,
    oracle_classify,
    reachability_graph,
    reachable_markings,
    random_net_pair,
)

from conftest import composed_pair, fixture_pair, load_fixture
from oracle_reference import (
    reference_check_soundness,
    reference_oracle_classify,
    reference_reachability_graph,
    reference_reachable_markings,
)

FIXTURE_PAIRS = [
    ("parallel_old", "branchswap_new"),
    ("parallel_old", "removal_new"),
    ("parallel_old", "flatten_new"),
    ("claims_old", "claims_new"),
    ("relabel_old", "relabel_new"),
    ("training_old", "training_new"),
    ("xorloop_old", "xorloop_new"),
    ("nested", "restructured_new"),
    ("nested", "nested"),
]


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return "returned", fn(*args, **kwargs)
    except (SoundnessError, StateExplosionError) as exc:
        return type(exc), str(exc)


def assert_same_oracle(old: WfNet, new: WfNet, cap: int = wfnet.DEFAULT_STATE_CAP) -> None:
    got = outcome(oracle_classify, old, new, cap=cap)
    assert got == outcome(reference_oracle_classify, old, new, cap=cap)
    if got[0] == "returned":
        assert list(got[1].per_place) == sorted(old.places)


def assert_same_net(net: WfNet, cap: int = wfnet.DEFAULT_STATE_CAP) -> None:
    graph = outcome(reachability_graph, net, cap)
    want = outcome(reference_reachability_graph, net, cap)
    assert graph == want
    if graph[0] == "returned":  # the same markings in the same order
        assert list(graph[1].items()) == list(want[1].items())
    assert outcome(reachable_markings, net, cap) == outcome(
        reference_reachable_markings, net, cap
    )
    assert outcome(check_soundness, net, cap) == outcome(
        reference_check_soundness, net, cap
    )


def net(arcs: set[tuple[str, str]], transitions: set[str], init="p1", end="p2") -> WfNet:
    places = {a for arc in arcs for a in arc} - transitions | {init, end}
    return WfNet(
        places=frozenset(places),
        transitions=frozenset(transitions),
        arcs=frozenset(arcs),
        init=init,
        end=end,
    )


# ── equal results ────────────────────────────────────────────────────────────


@pytest.mark.parametrize("chunk", range(3))
def test_random_pairs_match_the_reference(chunk):
    for seed in range(chunk * 100, chunk * 100 + 100):
        old, new = map(build_net, random_net_pair(random.Random(seed)))
        assert_same_oracle(old, new)
        assert_same_net(old)
        assert_same_net(new)


@pytest.mark.parametrize("names", FIXTURE_PAIRS, ids="/".join)
def test_fixture_pairs_match_the_reference(names):
    old, new = map(build_net, fixture_pair(*names))
    assert_same_oracle(old, new)
    assert_same_net(old)
    assert_same_net(new)


@pytest.mark.parametrize("seed", [3, 11, 19])
def test_composed_pairs_match_the_reference(seed):
    old, new = map(build_net, composed_pair(seed))
    assert len(reachable_markings(old)) > 100
    assert_same_oracle(old, new)
    assert_same_net(old)
    assert_same_net(new)


# ── equal errors ─────────────────────────────────────────────────────────────

SOUND = build_net(load_fixture("parallel_old"))

BROKEN_NETS = {
    # the test_net.py nets: p3 is never marked, so t2 never fires
    "dead end": net({("p1", "t1"), ("t1", "p2"), ("p3", "t2"), ("t2", "p2")}, {"t1", "t2"}),
    "unreachable transition": net(
        {("p1", "t1"), ("t1", "p2"), ("p3", "t2"), ("t2", "p3")}, {"t1", "t2"}
    ),
    # t1 marks p3 and p4; t2 then puts a second token on p4
    "duplicate token": net(
        {("p1", "t1"), ("t1", "p3"), ("t1", "p4"), ("p3", "t2"), ("t2", "p4"),
         ("p4", "t3"), ("t3", "p2")},
        {"t1", "t2", "t3"},
    ),
    # t0 has no input place: enabled at every marking, its second firing
    # duplicates its token on q
    "empty preset": net({("p1", "t1"), ("t1", "p2"), ("t0", "q")}, {"t0", "t1"}),
    # t0 touches no place at all: a self-loop at every marking
    "isolated transition": net({("p1", "t1"), ("t1", "p2")}, {"t0", "t1"}),
    # t2 leads to p3, where nothing fires
    "stuck marking": net({("p1", "t1"), ("t1", "p2"), ("p1", "t2"), ("t2", "p3")}, {"t1", "t2"}),
    # t1 leads to p3; p2 is never marked
    "final marking unreachable": net({("p1", "t1"), ("t1", "p3")}, {"t1"}),
}


@pytest.mark.parametrize("name", BROKEN_NETS)
def test_hand_built_nets_fail_like_the_reference(name):
    broken = BROKEN_NETS[name]
    assert_same_net(broken)
    assert_same_oracle(SOUND, broken)
    assert_same_oracle(broken, SOUND)
    assert_same_oracle(broken, broken)


def test_hand_built_nets_fail_with_the_expected_messages():
    messages = {
        name: outcome(check_soundness, broken)
        for name, broken in BROKEN_NETS.items()
    }
    assert messages == {
        "dead end": (SoundnessError, "dead transitions: t2"),
        "unreachable transition": (SoundnessError, "dead transitions: t2"),
        "duplicate token": (SoundnessError, "firing 't2' at {p3,p4} duplicates a token"),
        "empty preset": (SoundnessError, "firing 't0' at {p1,q} duplicates a token"),
        "isolated transition": ("returned", None),
        "stuck marking": (SoundnessError, "marking {p3} cannot reach the final marking"),
        "final marking unreachable": (SoundnessError, "final marking is not reachable"),
    }


def test_state_cap_at_the_state_count_on_either_net():
    small, big = map(build_net, fixture_pair("parallel_old", "nested"))
    n_small, n_big = len(reachable_markings(small)), len(reachable_markings(big))
    assert n_small < n_big
    for old, new in ((small, big), (big, small)):
        assert outcome(oracle_classify, old, new, cap=n_big)[0] == "returned"
        assert outcome(oracle_classify, old, new, cap=n_big - 1) == (
            StateExplosionError, f"more than {n_big - 1} markings reachable",
        )
        for cap in (n_big, n_big - 1, n_small, n_small - 1):
            assert_same_oracle(old, new, cap)
    for cap in (n_big, n_big - 1):
        assert_same_net(big, cap)


# ── independence ─────────────────────────────────────────────────────────────


def test_oracle_reads_no_ctree():
    tree = ast.parse(Path(wfnet.__file__).read_text(encoding="utf-8"))
    imported = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    } | {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert not {m for m in imported if "ctree" in m or "regions" in m}



# ── the explorer's invariants ────────────────────────────────────────────────


def assert_explorer_invariants(net: WfNet) -> None:
    """Each state's enabled mask is the set of transitions whose input
    places it marks, and the predecessor lists, as a multiset, invert the
    firing relation of ``wfnet.fire``."""
    index = wfnet._PlaceIndex(net)
    space = wfnet._explore(net, index, wfnet.DEFAULT_STATE_CAP)
    names = space.transitions
    assert names == tuple(sorted(net.transitions))
    assert space.number == {mask: i for i, mask in enumerate(space.states)}
    assert len(space.enabled) == len(space.preds) == len(space.states)
    firings = Counter()
    for i, (mask, bits) in enumerate(zip(space.states, space.enabled)):
        marking = index.decode(mask)
        enabled = [r for r, t in enumerate(names) if net.pre[t] <= marking]
        assert bits == sum(1 << r for r in enabled)
        for r in enabled:
            firings[i, space.number[index.mask(wfnet.fire(net, marking, names[r]))]] += 1
    assert Counter((i, j) for j, preds in enumerate(space.preds) for i in preds) == firings


def test_explorer_invariants_on_random_and_fixture_nets():
    for names in FIXTURE_PAIRS:
        for tree in fixture_pair(*names):
            assert_explorer_invariants(build_net(tree))
    for seed in range(300):
        for tree in random_net_pair(random.Random(seed)):
            assert_explorer_invariants(build_net(tree))


@pytest.mark.parametrize("seed", [3, 11, 19])
def test_explorer_invariants_on_composed_nets(seed):
    for tree in composed_pair(seed):
        assert_explorer_invariants(build_net(tree))


def test_explorer_invariants_on_explorable_broken_nets():
    explorable = []
    for name, broken in BROKEN_NETS.items():
        try:
            wfnet._explore(broken, wfnet._PlaceIndex(broken), wfnet.DEFAULT_STATE_CAP)
        except SoundnessError:
            continue
        assert_explorer_invariants(broken)
        explorable.append(name)
    assert explorable == [
        "dead end", "unreachable transition", "isolated transition",
        "stuck marking", "final marking unreachable",
    ]


def test_oracle_memory_per_state():
    """README and ``DEFAULT_STATE_CAP`` quote about 480 bytes per reachable
    marking: the tracemalloc peak of one classification, per state of both
    nets."""
    old, new = map(build_net, composed_pair(3))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = oracle_classify(old, new)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (len(report.reachable_old) + len(report.reachable_new)) < 600
