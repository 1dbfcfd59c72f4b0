"""Token game, reachability, soundness, and the brute-force oracle."""

from __future__ import annotations

import pytest

from wfregions import (
    MemberClass,
    NotEnabledError,
    SoundnessError,
    StateExplosionError,
    UnknownPlaceError,
    WfNet,
    build_net,
    check_soundness,
    enabled_transitions,
    fire,
    marking_text,
    oracle_classify,
    parse,
    parse_marking,
    reachability_graph,
    reachable_markings,
)

from conftest import fixture_pair, load_fixture

FORK_JOIN = "p1t1p2t2(p3t3p4t4p5)(p6t5p7)t6p8t7p9"
LOOPED = "p1t1{p2t2p3t3p4}{t4p5t5}t6p6"


# ── marking text ─────────────────────────────────────────────────────────────


def test_marking_text_is_sorted_and_invertible():
    m = frozenset({"p4", "p2"})
    assert marking_text(m) == "p2,p4"
    assert parse_marking("p2,p4") == m
    assert parse_marking(" p4 , p2 ") == m


@pytest.mark.parametrize(
    "bad", ["", "p2,,", ",p2", "p 2", "2p", "p-2", "p1a", "p1,p1", "p2, p2"]
)
def test_parse_marking_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        parse_marking(bad)


# ── firing rule ──────────────────────────────────────────────────────────────


def test_fork_and_join_firing():
    net = build_net(parse(FORK_JOIN))
    after_fork = fire(net, frozenset({"p2"}), "t2")
    assert after_fork == {"p3", "p6"}
    assert enabled_transitions(net, frozenset({"p3", "p6"})) == {"t3", "t5"}
    # the join waits for both branches
    assert enabled_transitions(net, frozenset({"p5", "p6"})) == {"t5"}


def test_loop_firing_returns_token_to_entry():
    net = build_net(parse(LOOPED))
    assert fire(net, frozenset({"p4"}), "t4") == {"p5"}
    assert fire(net, frozenset({"p5"}), "t5") == {"p2"}


def test_fire_rejects_disabled_transition():
    net = build_net(parse(FORK_JOIN))
    with pytest.raises(NotEnabledError):
        fire(net, frozenset({"p1"}), "t2")


def test_marking_outside_net_is_rejected():
    net = build_net(parse(FORK_JOIN))
    with pytest.raises(UnknownPlaceError):
        enabled_transitions(net, frozenset({"nope"}))


# ── reachability ─────────────────────────────────────────────────────────────


def test_reachable_markings_counts():
    assert len(reachable_markings(build_net(parse("p1t1p2t2p3t3p4")))) == 4
    assert len(reachable_markings(build_net(parse("p1[t1p2t2][t3p3t4]p4")))) == 4
    assert len(reachable_markings(build_net(parse(FORK_JOIN)))) == 10
    assert len(reachable_markings(build_net(parse(LOOPED)))) == 6
    assert len(reachable_markings(build_net(load_fixture("nested")))) == 16


def test_reachability_graph_edges_are_valid_firings():
    net = build_net(parse(LOOPED))
    graph = reachability_graph(net)
    assert net.initial_marking in graph
    for src, succs in graph.items():
        assert {t for t, _ in succs} == enabled_transitions(net, src)
        for label, dst in succs:
            assert fire(net, src, label) == dst


def test_state_cap():
    net = build_net(load_fixture("nested"))
    with pytest.raises(StateExplosionError):
        reachable_markings(net, cap=5)


# ── soundness ────────────────────────────────────────────────────────────────


def test_sound_nets_pass():
    for name in ("nested", "training_old", "training_new", "claims_old"):
        check_soundness(build_net(load_fixture(name)))


def test_dead_end_detected():
    # p3 can never reach the sink: t3 leads back into p2's cycle only
    net = WfNet(
        places=frozenset({"p1", "p2", "p3"}),
        transitions=frozenset({"t1", "t2"}),
        arcs=frozenset({("p1", "t1"), ("t1", "p2"), ("p3", "t2"), ("t2", "p2")}),
        init="p1",
        end="p2",
    )
    with pytest.raises(SoundnessError):
        check_soundness(net)


def test_unreachable_transition_detected():
    net = WfNet(
        places=frozenset({"p1", "p2", "p3"}),
        transitions=frozenset({"t1", "t2"}),
        arcs=frozenset({("p1", "t1"), ("t1", "p2"), ("p3", "t2"), ("t2", "p3")}),
        init="p1",
        end="p2",
    )
    with pytest.raises(SoundnessError):
        check_soundness(net)


# ── oracle ───────────────────────────────────────────────────────────────────


def test_oracle_identical_nets_fully_migratable():
    net = build_net(parse(FORK_JOIN))
    report = oracle_classify(net, net)
    assert report.non_migratable == frozenset()
    assert report.semantic_scr == frozenset()
    assert report.semantic_pscr_exists is True
    assert report.semantic_pscr == frozenset()
    assert set(report.per_place.values()) == {MemberClass.SAFE}


def test_oracle_branch_swap():
    old, new = fixture_pair("parallel_old", "branchswap_new")
    report = oracle_classify(build_net(old), build_net(new))
    assert len(report.reachable_old) == 6
    assert {marking_text(m) for m in report.non_migratable} == {"p2,p5", "p3,p4"}
    assert report.semantic_scr == {"p2", "p3", "p4", "p5"}
    assert report.semantic_pscr_exists is False
    assert report.semantic_pscr is None
    # every place of the region sits in migratable markings too
    assert report.per_place["p2"] is MemberClass.OVERESTIMATION
    assert report.per_place["p1"] is MemberClass.SAFE


def test_oracle_branch_removal():
    old, new = fixture_pair("parallel_old", "removal_new")
    report = oracle_classify(build_net(old), build_net(new))
    assert {marking_text(m) for m in report.non_migratable} == {
        "p2,p4", "p2,p5", "p3,p4", "p3,p5",
    }
    assert report.semantic_pscr_exists is True
    assert report.semantic_pscr == {"p2", "p3", "p4", "p5"}
    for p in ("p2", "p3", "p4", "p5"):
        assert report.per_place[p] is MemberClass.PERFECT_MEMBER


def test_oracle_claims_pair():
    old, new = fixture_pair("claims_old", "claims_new")
    report = oracle_classify(build_net(old), build_net(new))
    assert (len(report.reachable_old), len(report.reachable_new)) == (14, 8)
    assert len(report.non_migratable) == 6
    assert report.semantic_pscr == {"PC_enabled", "PC"}


def test_oracle_checks_soundness_of_both_nets():
    sound = build_net(parse("p1t1p2"))
    broken = WfNet(
        places=frozenset({"q1", "q2", "q3"}),
        transitions=frozenset({"u1", "u2"}),
        arcs=frozenset({("q1", "u1"), ("u1", "q2"), ("q3", "u2"), ("u2", "q3")}),
        init="q1",
        end="q2",
    )
    with pytest.raises(SoundnessError):
        oracle_classify(sound, broken)
    with pytest.raises(SoundnessError):
        oracle_classify(broken, sound)
