"""Region-based baseline: static arc-difference region, its minimal
single-entry/single-exit expansion, and the trimmed variant."""

from __future__ import annotations

import itertools
import random

from wfregions import (
    Place,
    Transition,
    build_net,
    dynamic_region,
    format_tree,
    improved_region,
    place_labels,
    random_net_pair,
    sese_region,
    static_region,
)

import wfregions.ecws as ecws
import wfregions.sese as sese
from wfregions.ecws import branches_of
from conftest import (
    FIXTURES,
    composed_pair,
    deep_tree,
    fixture_pair,
    load_fixture,
    transposition_pair,
)
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
    # the trim drops p1 and p8, which are static, so the region keeps them
    assert reg.improved_places == reg.dynamic_places


def test_xor_to_loop_regions():
    reg = regions_for("xorloop_old", "xorloop_new")
    assert reg.static_nodes == {"p1", "p2", "p3", "p4", "t2", "t3"}
    assert reg.dynamic_places == {"p1", "p2", "p3", "p4"}
    # the trim drops p1 and p4, which are static, so the region keeps them
    assert reg.improved_places == reg.dynamic_places


def test_branch_swap_regions():
    reg = regions_for("parallel_old", "branchswap_new")
    assert reg.static_nodes == {"p3", "p5", "t2", "t3"}
    assert reg.dynamic_places == {"p2", "p3", "p4", "p5"}
    # the trim drops every place; the static p3 and p5 stay, so the two
    # non-migratable markings p2,p5 and p3,p4 are blocked
    assert reg.improved_places == {"p3", "p5"}


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
    # the trim drops the branch-border places m1, m4, d1, d2; the static
    # d1 and d2 stay
    assert reg.improved_places == reg.dynamic_places - {"m1", "m4"}


def test_identical_nets_have_empty_regions():
    reg = regions_for("nested", "nested")
    assert reg.static_nodes == frozenset()
    assert reg.dynamic_places == frozenset()
    assert reg.improved_places == frozenset()


def test_pipeline_steps_compose():
    old, new = fixture_pair("xorloop_old", "xorloop_new")
    old_net, new_net = build_net(old), build_net(new)
    static = static_region(old_net, new_net)
    dynamic = dynamic_region(old, static)
    assert improved_region(old, dynamic) <= dynamic
    reg = sese_region(old, old_net, new_net)
    assert (reg.static_nodes, reg.dynamic_places, reg.improved_places) == (
        static, dynamic, improved_region(old, dynamic) | (dynamic & static)
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
    # the reference grows each connected group of static nodes as one; the
    # module grows each node on its own
    grown = 0
    more = [transposition_pair(seed) for seed in range(800)]
    more += [composed_pair(seed) for seed in range(20)]
    for old, new in itertools.chain(_sese_pairs(corpus), more):
        old_net, new_net = build_net(old), build_net(new)
        region = sese_region(old, old_net, new_net)
        want = reference_dynamic_region(old, old_net, region.static_nodes)
        assert region.dynamic_places == want, (format_tree(old), format_tree(new))
        grown += want > region.static_nodes & old_net.places
    # most fragments grow past the static places they cover
    assert grown > 500


# ── a change at every level of a chain costs linear work ─────────────────────


class _CountingDict(dict):
    """A dict that counts its lookups (``[]``, ``in`` and ``get``)."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_a_change_at_every_level_costs_lookups_linear_in_the_depth(monkeypatch):
    # every f place of the chain renamed, so every level holds static nodes;
    # climbing each label's chain to the root to find its group's common
    # sequence made the lookups quadratic (1,502,498 / 6,004,998 / 24,009,998).
    # The blocks read count too: a stretch at every level holds the levels
    # below it whole, and reading them again per stretch would be quadratic
    made = []
    index_tree = sese._index_tree
    calls = 0

    def f_renamed(seq, children):
        return tuple(
            Place("g" + el.label[1:]) if isinstance(el, Place) and el.label[0] == "f" else el
            for el in children
        )

    def counted_index(tree):
        made.append(_CountingDict(index_tree(tree)))
        return made[-1]

    def counted_branches(el):
        nonlocal calls
        calls += 1
        return branches_of(el)

    monkeypatch.setattr(sese, "_index_tree", counted_index)
    monkeypatch.setattr(sese, "branches_of", counted_branches)
    counts = []
    for levels in (250, 500, 1000):
        old = deep_tree(3 * levels)
        new = ecws.rebuild(old, f_renamed)
        made.clear()
        calls = 0
        region = sese_region(old, build_net(old), build_net(new))
        # the root's e0 is static, so its fragment spans the whole root
        assert region.dynamic_places == place_labels(old)
        counts.append((sum(index.lookups for index in made), calls))
    for series in zip(*counts):
        assert all(b <= 2.2 * a for a, b in zip(series, series[1:])), counts


# ── the improved region decides coverage in one fold ─────────────────────────


def _scanned_improved_region(old_tree, dynamic_places):
    """The improved region as it was computed before the coverage fold: the
    place set of each block it meets is read by a walk of its own."""
    removed = set()

    def covered(el):
        if isinstance(el, Place):
            return el.label in dynamic_places
        if isinstance(el, Transition):
            return True
        return frozenset().union(*map(place_labels, branches_of(el))) <= dynamic_places

    todo = [old_tree]
    while todo:
        seq = todo.pop()
        runs = []
        start = None
        for i, child in enumerate(seq.children):
            if covered(child):
                if start is None:
                    start = i
            else:
                if start is not None:
                    runs.append((start, i - 1))
                    start = None
                todo.extend(branches_of(child))
        if start is not None:
            runs.append((start, len(seq.children) - 1))
        for lo, hi in runs:
            while lo <= hi and not isinstance(seq.children[lo], Place):
                todo.extend(branches_of(seq.children[lo]))
                lo += 1
            while hi >= lo and not isinstance(seq.children[hi], Place):
                todo.extend(branches_of(seq.children[hi]))
                hi -= 1
            if lo <= hi:
                removed.add(seq.children[lo].label)
                removed.add(seq.children[hi].label)
    return dynamic_places - removed


def test_improved_region_equals_the_scanned_reference(corpus):
    # on each pair's dynamic region, and on a seeded draw of the old places,
    # which covers blocks in more ways than a dynamic region does
    rng = random.Random(20261019)
    trees = [deep_tree(30), deep_tree(31, core=(Place("y"),))]
    for old, new in _sese_pairs(corpus):
        region = sese_region(old, build_net(old), build_net(new))
        dynamic, static = region.dynamic_places, region.static_nodes
        assert region.improved_places == _scanned_improved_region(old, dynamic) | (dynamic & static)
        trees.append(old)
    for tree in trees:
        places = sorted(place_labels(tree))
        for share in (0.5, 0.9, 1.0):
            drawn = frozenset(p for p in places if rng.random() < share)
            assert improved_region(tree, drawn) == _scanned_improved_region(tree, drawn)


def test_improved_region_reads_each_block_a_bounded_number_of_times(monkeypatch):
    # every sequence below a block is reached through branches_of, so its
    # calls count the work; a walk per covered block made them quadratic in
    # the depth of a chain (46,944 at 300 levels)
    calls = 0

    def counted(el):
        nonlocal calls
        calls += 1
        return branches_of(el)

    for depth in (300, 600):
        old, new = deep_tree(depth), deep_tree(depth, core=(Place("y"),))
        old_net, new_net = build_net(old), build_net(new)
        dynamic = dynamic_region(old, static_region(old_net, new_net))
        calls = 0
        with monkeypatch.context() as patch:
            patch.setattr(ecws, "branches_of", counted)
            patch.setattr(sese, "branches_of", counted)
            improved = improved_region(old, dynamic)
        assert improved == {"z"} and dynamic == {f"a{depth - 1}", "z", f"f{depth - 1}"}
        assert calls <= 10 * depth  # one block per level
