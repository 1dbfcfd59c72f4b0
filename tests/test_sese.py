"""Region-based baseline: static arc-difference region, its minimal
single-entry/single-exit expansion, and the trimmed variant."""

from __future__ import annotations

import random

from wfregions import (
    build_net,
    dynamic_region,
    format_tree,
    improved_region,
    random_net_pair,
    sese_region,
    static_region,
)

from conftest import FIXTURES, fixture_pair, load_fixture
from sese_reference import reference_dynamic_region


def regions_for(old_name: str, new_name: str):
    old, new = fixture_pair(old_name, new_name)
    return sese_region(old, build_net(old), build_net(new))


def test_relabel_regions():
    reg = regions_for("relabel_old", "relabel_new")
    # the renamed transitions and their neighbor places
    assert reg.static_nodes == {"p1", "p2", "p3", "p4", "p7", "p8", "t1", "t2", "t8"}
    # the smallest place-bordered fragments covering them span the whole net
    assert reg.dynamic_places == {f"p{i}" for i in range(1, 9)}
    assert reg.improved_places == {"p2", "p3", "p4", "p5", "p6", "p7"}


def test_xor_to_loop_regions():
    reg = regions_for("xorloop_old", "xorloop_new")
    assert reg.static_nodes == {"p1", "p2", "p3", "p4", "t2", "t3"}
    assert reg.dynamic_places == {"p1", "p2", "p3", "p4"}
    assert reg.improved_places == {"p2", "p3"}


def test_branch_swap_regions():
    reg = regions_for("parallel_old", "branchswap_new")
    assert reg.static_nodes == {"p3", "p5", "t2", "t3"}
    assert reg.dynamic_places == {"p2", "p3", "p4", "p5"}
    # trimming the edge places leaves nothing: the baseline sees no region
    # although two of the old markings are genuinely non-migratable
    assert reg.improved_places == frozenset()


def test_training_regions():
    reg = regions_for("training_old", "training_new")
    assert reg.static_nodes == {
        "d1", "d2", "m2", "p_8", "p_9", "p_t10", "p_t5", "p_t7",
        "t5", "t_d1", "t_d2", "t_m1", "t_mbk",
    }
    assert reg.dynamic_places == {
        "d1", "d2", "m1", "m2", "m3", "m4", "mb1",
        "p_6", "p_7", "p_8", "p_9", "p_t10", "p_t5", "p_t7", "p_t8", "p_t9",
    }
    # the trim drops the branch-border places m1, m4, d1, d2
    assert reg.improved_places == reg.dynamic_places - {"m1", "m4", "d1", "d2"}


def test_identical_nets_have_empty_regions():
    reg = regions_for("nested", "nested")
    assert reg.static_nodes == frozenset()
    assert reg.dynamic_places == frozenset()
    assert reg.improved_places == frozenset()


def test_pipeline_steps_compose():
    old, new = fixture_pair("xorloop_old", "xorloop_new")
    old_net, new_net = build_net(old), build_net(new)
    static = static_region(old_net, new_net)
    dynamic = dynamic_region(old, old_net, static)
    assert improved_region(old, dynamic) <= dynamic
    reg = sese_region(old, old_net, new_net)
    assert (reg.static_nodes, reg.dynamic_places, reg.improved_places) == (
        static, dynamic, improved_region(old, dynamic)
    )


# ── the region over sequence objects equals the one over paths ───────────────


def _sese_pairs(corpus):
    names = sorted(path.stem for path in FIXTURES.glob("*.ecws"))
    yield from ((load_fixture(a), load_fixture(b)) for a in names for b in names)
    yield from corpus
    rng = random.Random(7)
    for _ in range(1000):
        yield random_net_pair(rng, 6, 40)


def test_dynamic_region_equals_the_path_reference(corpus):
    grown = 0
    for old, new in _sese_pairs(corpus):
        old_net, new_net = build_net(old), build_net(new)
        region = sese_region(old, old_net, new_net)
        want = reference_dynamic_region(old, old_net, region.static_nodes)
        assert region.dynamic_places == want, (format_tree(old), format_tree(new))
        grown += want > region.static_nodes & old_net.places
    # most fragments grow past the static places they cover
    assert grown > 500
