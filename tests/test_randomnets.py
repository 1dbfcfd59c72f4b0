"""Random net generation, mutation, and counterexample shrinking."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import wfregions
from wfregions import (
    Decision,
    analyze,
    build_net,
    check_pair_agreement,
    decide_marking,
    format_tree,
    marking_text,
    mutate,
    oracle_classify,
    parse,
    place_labels,
    random_net_pair,
    random_tree,
    shrink_pair,
    validate_tree,
)
from wfregions.randomnets import (
    mutate_block_change,
    mutate_branch_tail_swap,
    mutate_insert_place,
    mutate_relabel_transition,
    mutate_remove_place,
    mutate_transpose_places,
)

from conftest import fixture_pair

MUTATIONS = [
    mutate_insert_place,
    mutate_remove_place,
    mutate_branch_tail_swap,
    mutate_relabel_transition,
    mutate_block_change,
]


def test_random_trees_are_valid_and_bounded():
    for seed in range(300):
        tree = random_tree(random.Random(seed), max_depth=4, max_places=12)
        validate_tree(tree)
        assert 2 <= len(place_labels(tree)) <= 12
        # every generated net is playable end to end
        build_net(tree)


def test_random_trees_vary():
    from wfregions import format_tree

    texts = {format_tree(random_tree(random.Random(seed))) for seed in range(200)}
    # small trees repeat across seeds; the bulk must still be distinct
    assert len(texts) > 100


def test_mutations_preserve_validity():
    rng = random.Random(99)
    for seed in range(120):
        tree = random_tree(random.Random(seed))
        for op in MUTATIONS:
            out = op(tree, rng)
            if out is not None:
                validate_tree(out)
                build_net(out)


def test_mutate_always_returns_valid_tree():
    rng = random.Random(7)
    for seed in range(150):
        tree = random_tree(random.Random(seed))
        out = mutate(tree, rng)
        validate_tree(out)


def test_every_mutate_output_is_valid():
    # mutate checks no output itself: the structural mutations are checked
    # where they splice, and the relabellings keep the tree's shape
    for seed in range(600):
        rng = random.Random(seed)
        old, new = random_net_pair(rng, 5, 30)
        for tree in (new, mutate(old, rng), mutate(new, rng)):
            validate_tree(tree)
            build_net(tree)


def test_insert_then_remove_changes_place_count():
    rng = random.Random(3)
    tree = parse("p1t1p2t2p3")
    grown = mutate_insert_place(tree, rng)
    assert grown is not None
    assert len(place_labels(grown)) == 4
    shrunk = mutate_remove_place(grown, rng)
    assert shrunk is not None
    assert len(place_labels(shrunk)) == 3


def test_pair_generation_uses_the_rng_deterministically():
    a = random_net_pair(random.Random(42))
    b = random_net_pair(random.Random(42))
    assert a == b


def test_agreement_check_flags_known_divergence():
    # the paper's break-off rule for strong reformed places overestimates on
    # this fixture pair: p5 and p7 are perfect members for the oracle
    pscr, per_place = check_pair_agreement(*fixture_pair("nested", "restructured_new"))
    assert pscr.startswith("pscr: ")
    assert per_place.startswith("per_place (structural, oracle): ")
    for p in ("p5", "p7"):
        assert f"'{p}': ('overestimation', 'perfect_member')" in per_place
    assert per_place.count("': (") == 2



def test_agreement_lines_do_not_depend_on_the_hash_seed():
    # set and frozenset order follows PYTHONHASHSEED; the printed lines must not
    fixtures = Path(__file__).parent / "fixtures"
    script = (
        "import sys\n"
        "from wfregions import check_pair_agreement, parse\n"
        "old, new = (parse(open(p, encoding='utf-8').read()) for p in sys.argv[1:])\n"
        "print('\\n'.join(check_pair_agreement(old, new)))\n"
    )
    src = str(Path(wfregions.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("0", "1", "2"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        proc = subprocess.run(
            [sys.executable, "-c", script,
             str(fixtures / "nested.ecws"), str(fixtures / "restructured_new.ecws")],
            capture_output=True, env=env, timeout=120, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert b"{'p5': ('overestimation', 'perfect_member'), 'p7': (" in outputs.pop()

def test_agreement_check_passes_on_identity():
    tree = parse("p1t1(p2t2p3)(p4t3p5)t4p6")
    assert check_pair_agreement(tree, tree) == []


def test_shrinker_reduces_while_preserving_predicate():
    # synthetic predicate: both nets still contain the place x9
    old = parse("p1t1p2t2x9t3p3t4p4")
    new = parse("p1t1x9t2p4t3q5")

    def has_x9(o, n):
        return "x9" in place_labels(o) and "x9" in place_labels(n)

    small_old, small_new = shrink_pair(old, new, has_x9)
    assert has_x9(small_old, small_new)
    assert len(place_labels(small_old)) < len(place_labels(old))
    assert len(place_labels(small_new)) < len(place_labels(new))
    validate_tree(small_old)
    validate_tree(small_new)


def test_transposed_places_stay_sound():
    """Swapping two places across nesting depths can leave the reachable
    marking sets related through cross-branch recombination.  The exact
    inclusion test sees that, so the analysis finds the oracle's perfect
    region and decides every reachable marking correctly."""
    old = parse("p1t1(p2t2(p3t3p4t4p5)(p6t5p7)(p8t6p9)t7p10)(p11)t8p12")
    new = parse("p1t1(p2t2(p3t3p4t4p11)(p6t5p7)(p8t6p9)t7p10)(p5)t8p12")
    report = analyze(old, new)
    oracle = oracle_classify(build_net(old), build_net(new))

    assert report.pscr_exists is True
    assert oracle.semantic_pscr_exists is True
    assert report.scr == oracle.semantic_scr
    assert report.pscr == oracle.semantic_pscr
    assert len(oracle.reachable_old) == 16

    unknowns = 0
    for m in oracle.reachable_old:
        got = decide_marking(m, report)
        truth = (
            Decision.NON_MIGRATABLE
            if m in oracle.non_migratable
            else Decision.MIGRATABLE
        )
        if got is Decision.UNKNOWN:
            unknowns += 1
        else:
            assert got is truth, marking_text(m)
    assert unknowns == 0


def _transposition_pair(seed: int):
    """The corpus pair of one seed: 1-2 steps, each a place transposition
    with probability 0.5 and a default-family mutation otherwise."""
    rng = random.Random(seed)
    old = new = random_tree(rng, 6, 20)
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            new = mutate_transpose_places(new, rng) or new
        else:
            new = mutate(new, rng)
    return old, new


def test_transposition_corpus_agrees_with_oracle():
    """The weak reformed class is exact: a place concurrent in both nets is
    weak iff it occurs in a reachable old marking the new net cannot reach
    (sequential places are the ones that are marked alone).  No definite
    decision is wrong."""
    for seed in range(800):
        old, new = _transposition_pair(seed)
        report = analyze(old, new)
        oracle = oracle_classify(build_net(old), build_net(new))
        new_places = build_net(new).places
        weak = {
            p
            for m in oracle.non_migratable
            for p in m
            if p in new_places
            and frozenset({p}) not in oracle.reachable_old
            and frozenset({p}) not in oracle.reachable_new
        }
        pair = (seed, format_tree(old), format_tree(new))
        assert report.change_sets.cr_wrc == weak, pair
        for m in oracle.reachable_old:
            got = decide_marking(m, report)
            if got is not Decision.UNKNOWN:
                assert (got is Decision.NON_MIGRATABLE) == (m in oracle.non_migratable)


def test_transposition_mutation_exists_but_is_not_in_default_family():
    # the default family is left as it is because the benchmark's pair
    # composition and the pinned mutate digests depend on its output stream;
    # transposition is checked by the corpus above
    from wfregions.randomnets import _MUTATIONS

    assert mutate_transpose_places not in _MUTATIONS
    rng = random.Random(11)
    tree = parse("p1t1p2t2p3t3p4")
    out = mutate_transpose_places(tree, rng)
    if out is not None:
        validate_tree(out)
        assert place_labels(out) == place_labels(tree)


# Mutation sites are drawn with rng.choice over the sequences in walk order,
# so these outputs pin that order, and with it every input built by mutate.
PINNED_MUTATIONS = [
    (mutate_insert_place, 0,
     "p1t1(p2t2p3t3p4t4p5t5(p6)(p7t6p8)t7p9)(p10)t8p11t9p12v1q1"),
    (mutate_insert_place, 2,
     "p1[t1p2t2][t3][t4p3t5]p4t6(p5t7p6)(p7)t8p8v1q1t9p9[t10p10t11p11t12][t13]p12"),
    (mutate_remove_place, 0,
     "p1t1(p2t2p3t3p4t5(p6)(p7t6p8)t7p9)(p10)t8p11t9p12"),
    (mutate_remove_place, 2,
     "p1[t1p2t2][t3][t4p3t5]p4t6(p5t7p6)(p7)t8p9[t10p10t11p11t12][t13]p12"),
    (mutate_branch_tail_swap, 0,
     "p1t1(p2t2p3t3p4t4p5t5(p6)(p7t6p8)t7p10)(p9)t8p11t9p12"),
    (mutate_branch_tail_swap, 2,
     "p1[t1p2t2][t3][t4p3t5]p4t6(p5t7p7)(p6)t8p8t9p9[t10p10t11p11t12][t13]p12"),
    (mutate_block_change, 0,
     "p1t1(p2t2p3t3p4t4p5t5p7t6p8t7p9)(p10)t8p11t9p12"),
    (mutate_block_change, 2,
     "p1[t1p2t2][t3][t4p3t5]p4t6(p5t7p6)(p7)t8p8t9p9t10{p10t11p11}{t13}t12p12"),
]


@pytest.mark.parametrize("mutation, seed, expected", PINNED_MUTATIONS)
def test_mutation_sites_follow_walk_order(mutation, seed, expected):
    tree = random_tree(random.Random(seed), 4, 12)
    assert format_tree(mutation(tree, random.Random(100 + seed))) == expected


def test_mutate_outputs_are_pinned():
    digest = hashlib.sha256()
    for seed in range(300):
        rng = random.Random(seed)
        tree = random_tree(rng, 6, 30)
        digest.update((format_tree(mutate(tree, rng)) + "\n").encode())
    assert digest.hexdigest() == (
        "01f12c81430275ab278cb9278988cb308d01c967eca963c5bc18609ee482f37b"
    )


def test_block_changes_are_pinned():
    # these seeds return each of the eight block edits (a choice made
    # parallel, made a loop or flattened; a parallel block made a choice,
    # sequentialized or flattened; a loop made a choice or unrolled), so the
    # digest pins the RNG draws and the shuffled order of each block's edits
    digest = hashlib.sha256()
    for seed in range(3000):
        rng = random.Random(seed)
        tree = random_tree(rng, 6, 30)
        out = mutate_block_change(tree, rng)
        digest.update(((format_tree(out) if out is not None else "-") + "\n").encode())
    assert digest.hexdigest() == (
        "3ab312afb3fbc30a343d859680904d37bf8cbb83d202a5effdaea32dff6fbead"
    )


def test_shrunk_pairs_are_pinned():
    def still_failing(old, new):
        return "p3" in place_labels(old) and len(place_labels(new)) >= 3

    digest = hashlib.sha256()
    for seed in range(400):
        old, new = random_net_pair(random.Random(seed), 5, 30)
        small_old, small_new = shrink_pair(old, new, still_failing)
        digest.update(f"{format_tree(small_old)} {format_tree(small_new)}\n".encode())
    assert digest.hexdigest() == (
        "54a412eeda297598372da31f1a277900203c2f20329e2568e01375141ec0b98d"
    )
