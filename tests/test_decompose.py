import random
import re

import pytest

from conftest import (
    brute_force_min_partitions,
    naive_rainbow,
    pair_closure_parts,
    pairwise_quotient,
    plant_rainbow,
    prime_top,
    random_coloring,
    random_gallai_blowup,
    recheck_partition,
)
from gallaikit.coloring import join, make_coloring
from gallaikit.construct import base_pentagon, build_lower, mono_complete
from gallaikit.decompose import (
    GallaiPartition,
    InvalidPartitionError,
    RainbowTriangleError,
    TooSmallError,
    _quotient_of,
    color_neighbor_masks,
    find_rainbow_triangle,
    gallai_partition,
    reduced_coloring,
)
from gallaikit.detect import AvoidanceSpec, verify


def test_pentagon_blowup_recovers_five_parts():
    base = base_pentagon(2, 3)
    c = base_pentagon(2, 3)
    big = make_blowup(base, [mono_complete(4, 1)] * 5)
    gp = gallai_partition(big)
    assert gp.ell == 5
    assert sorted(len(p) for p in gp.parts) == [4] * 5
    recheck_partition(big, gp)
    assert sorted(gp.quotient.colors) == sorted(c.colors)


def make_blowup(base, parts):
    from gallaikit.coloring import blowup

    return blowup(base, list(parts))


def test_mono_complete_splits_in_two():
    gp = gallai_partition(mono_complete(6, 1))
    assert gp.ell == 2
    recheck_partition(mono_complete(6, 1), gp)


def test_join_splits_at_the_bridge():
    c = join(base_pentagon(1, 2), base_pentagon(1, 2), 3)
    gp = gallai_partition(c)
    recheck_partition(c, gp)
    assert gp.ell == 2
    assert sorted(len(p) for p in gp.parts) == [5, 5]


def test_rainbow_input_raises_with_correct_witness():
    c = make_coloring(3, 3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    with pytest.raises(RainbowTriangleError) as exc:
        gallai_partition(c)
    u, v, w = exc.value.witness
    assert len({c.color(u, v), c.color(u, w), c.color(v, w)}) == 3


def test_single_vertex_is_too_small():
    with pytest.raises(TooSmallError):
        gallai_partition(make_coloring(1, 1, {}))


def test_random_substitution_builds_pass_recheck():
    rng = random.Random(2026)
    for _ in range(30):
        n = rng.randint(2, 40)
        k = rng.randint(1, 6)
        c = random_gallai_blowup(rng, n, k)
        gp = gallai_partition(c)
        recheck_partition(c, gp)


def test_planted_rainbows_always_detected():
    rng = random.Random(31)
    found = 0
    while found < 20:
        n = rng.randint(4, 30)
        k = rng.randint(3, 6)
        c = plant_rainbow(rng, random_gallai_blowup(rng, n, k))
        try:
            gp = gallai_partition(c)
        except RainbowTriangleError as exc:
            u, v, w = exc.witness
            assert len({c.color(u, v), c.color(u, w), c.color(v, w)}) == 3
            found += 1
        else:
            # planting may have overwritten into a still-gallai coloring;
            # the returned partition must then be genuinely valid
            recheck_partition(c, gp)
    # a rainbow through the least vertex of a module two levels below the
    # root, where vertex 0's row cannot see it: the walk must find it in a
    # quotient, and every entry point must name the scan's witness and count
    # the pairs the scan took to reach it
    for _ in range(20):
        k = rng.randint(3, 6)
        parts = [random_gallai_blowup(rng, rng.randint(1, 8), k) for _ in range(3)]
        parts.append(random_gallai_blowup(rng, rng.randint(3, 12), k))
        inner = make_blowup(random_coloring(rng, 4, 2), parts)
        c = join(random_gallai_blowup(rng, rng.randint(1, 10), k), inner, rng.randint(1, k))
        low = c.n - parts[-1].n
        y, z = sorted(rng.sample(range(low + 1, c.n), 2))
        cmap = dict(c.items())
        cmap[(low, y)], cmap[(low, z)], cmap[(y, z)] = rng.sample(range(1, k + 1), 3)
        c = make_coloring(c.n, k, cmap)
        want = naive_rainbow(c)
        pairs = sum(c.n - 2 - x for x in range(want[0])) + want[1] - want[0]
        assert low <= want[0] and find_rainbow_triangle(c) == want
        rep = verify(c, AvoidanceSpec((), True))
        assert (rep.rainbow_witness, rep.stats.pairs_scanned) == (want, pairs)
        with pytest.raises(RainbowTriangleError) as info:
            gallai_partition(c)
        assert info.value.witness == want


def test_reduced_coloring_validates_parts():
    c = mono_complete(4, 1)
    with pytest.raises(InvalidPartitionError):
        reduced_coloring(c, ((0, 1), (1, 2, 3)))
    with pytest.raises(InvalidPartitionError):
        reduced_coloring(c, ((0, 1),))
    with pytest.raises(InvalidPartitionError):
        reduced_coloring(c, ((0, 0, 1), (2, 3)))
    # parts are sorted by least member before they are checked
    for parts, message in ((((0, 1), (), (2, 3)), "part 0 is empty"),
                           (((0, 1), (2, 7)), "vertex 7 out of range in part 1"),
                           (((0, -1), (1, 2, 3)), "vertex -1 out of range in part 0")):
        with pytest.raises(InvalidPartitionError, match=re.escape(message)):
            reduced_coloring(c, parts)
    # a GallaiPartition's stored quotient is checked against the coloring
    k2 = mono_complete(2, 1)
    with pytest.raises(InvalidPartitionError,
                       match="stored quotient does not match the coloring"):
        reduced_coloring(join(k2, k2, 3), gallai_partition(join(k2, k2, 2)))


def test_reduced_coloring_rejects_nonmono_pairs():
    c = make_coloring(4, 2, {(0, 1): 1, (0, 2): 1, (0, 3): 2,
                             (1, 2): 1, (1, 3): 2, (2, 3): 1})
    with pytest.raises(InvalidPartitionError):
        reduced_coloring(c, ((0, 3), (1, 2)))


def test_invalid_partition_names_the_first_failing_pair():
    # parts 0|1 meet in color 1 only; 0|2 and 1|2 both mix colors 1 and 2
    c = make_coloring(5, 2, {(0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 4): 2,
                             (1, 2): 1, (1, 3): 2, (1, 4): 1,
                             (2, 3): 1, (2, 4): 1, (3, 4): 1})
    with pytest.raises(InvalidPartitionError) as info:
        reduced_coloring(c, ((0,), (1, 2), (3, 4)))
    assert info.value.pair == (0, 2)
    assert str(info.value) == "parts 0 and 2 meet in more than one color"


def _plain_quotient(c, parts):
    # pair by pair over every cross edge: the reference for reduced_coloring
    colors = []
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            seen = {c.color(i, j) for i in parts[a] for j in parts[b]}
            if len(seen) > 1:
                return (a, b)
            colors.append(seen.pop())
    return tuple(colors)


def test_reduced_coloring_matches_plain_pair_loop():
    rng = random.Random(6061)
    for _ in range(300):
        n = rng.randint(2, 12)
        c = random_gallai_blowup(rng, n, rng.randint(1, 4))
        if rng.random() < 0.5:
            c = random_coloring(rng, n, rng.randint(1, 3))
        order = list(range(n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        parts = sorted(tuple(sorted(order[i:j]))
                       for i, j in zip([0] + cuts, cuts + [n]))
        try:
            got = tuple(reduced_coloring(c, parts).colors)
        except InvalidPartitionError as exc:
            got = exc.pair
        assert got == _plain_quotient(c, parts), (c, parts)


def _quotient_or_pair(quotient, c, parts):
    try:
        return quotient(c, parts, color_neighbor_masks(c))
    except InvalidPartitionError as exc:
        return exc.pair, str(exc)


def test_quotient_matches_pairwise_oracle():
    # valid and invalid partitions, in ascending order and in a stored
    # partition's own order (parts and their members shuffled), must give
    # the oracle's quotient or name its first failing pair
    rng = random.Random(2526)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(2, 14)
        k = rng.randint(1, 4)
        c = random_gallai_blowup(rng, n, k) if rng.random() < 0.6 else random_coloring(rng, n, k)
        if rng.random() < 0.5:
            parts = [tuple(p) for p in gallai_partition(c).parts] if not naive_rainbow(c) else []
        else:
            order = list(range(n))
            rng.shuffle(order)
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
            parts = [tuple(order[i:j]) for i, j in zip([0] + cuts, cuts + [n])]
        if not parts:
            continue
        if rng.random() < 0.5:
            parts = sorted(tuple(sorted(p)) for p in parts)
        want = _quotient_or_pair(pairwise_quotient, c, parts)
        assert _quotient_or_pair(_quotient_of, c, parts) == want, (c, parts)
        if isinstance(want, tuple):
            outcomes.add("invalid")
        else:
            outcomes.add("sorted" if parts == sorted(parts) else "own order")
            assert reduced_coloring(c, GallaiPartition(tuple(parts), want)) == want
    assert outcomes == {"invalid", "sorted", "own order"}


def test_quotient_matches_pairwise_oracle_on_towers_and_a_prime_top():
    colorings = [build_lower(target, k, certify=False)
                 for target, k in (("h1", 6), ("kipas(4)", 6), ("h10", 8), ("h10", 3))]
    for c in colorings + [prime_top()]:
        parts = list(gallai_partition(c).parts)
        assert _quotient_of(c, parts, color_neighbor_masks(c)) == \
            pairwise_quotient(c, parts, color_neighbor_masks(c))
        # moving one vertex to another part breaks exactly the pairs it joins
        moved = [list(p) for p in parts]
        v = moved[-1].pop() if len(moved[-1]) > 1 else moved[0].pop()
        moved[len(moved) // 2].append(v)
        moved = [tuple(sorted(p)) for p in moved if p]
        assert _quotient_or_pair(_quotient_of, c, moved) == \
            _quotient_or_pair(pairwise_quotient, c, moved)


def test_tie_break_is_smallest_part_through_zero():
    # color 2 only on 03: the non-1 graph has components {0,3}, {1}, {2}, so
    # any union of them through 0 splits in two; ((0,1,3),(2,)) sorts lower,
    # but the rule takes the fewest parts, then the smallest part through 0
    c = make_coloring(4, 2, {(0, 1): 1, (0, 2): 1, (0, 3): 2,
                             (1, 2): 1, (1, 3): 1, (2, 3): 1})
    assert tuple(reduced_coloring(c, ((0, 1, 3), (2,))).colors) == (1,)
    gp = gallai_partition(c)
    assert gp.parts == ((0, 3), (1, 2))
    assert brute_force_min_partitions(c) == [gp.parts]


def test_matches_brute_force_minimum_on_small_inputs():
    rng = random.Random(20261018)
    for i in range(150):
        n = rng.randint(2, 8)
        if i % 2:
            c = random_gallai_blowup(rng, n, rng.randint(1, 5))
        else:
            c = random_coloring(rng, n, 2)
        assert brute_force_min_partitions(c) == [gallai_partition(c).parts], c


def _engine_result(c):
    try:
        gp = gallai_partition(c)
    except RainbowTriangleError as exc:
        return "rainbow", exc.witness
    return gp.parts, tuple(gp.quotient.colors)


def test_matches_pair_closure_oracle():
    inputs = [build_lower("h1", 4, certify=False), build_lower("h10", 4, certify=False)]
    # criterion 7's inputs, drawn in the same order from the same seed
    rng = random.Random(7072026)
    for _ in range(100):
        n = rng.randint(2, 60)
        inputs.append(random_gallai_blowup(rng, n, rng.randint(1, 6)))
    planted = 0
    while planted < 50:
        n = rng.randint(4, 40)
        c = plant_rainbow(rng, random_gallai_blowup(rng, n, rng.randint(3, 6)))
        planted += pair_closure_parts(c)[0] == "rainbow"
        inputs.append(c)
    rng = random.Random(4242)
    for _ in range(40):
        inputs.append(random_gallai_blowup(rng, rng.randint(2, 60), rng.randint(1, 6)))
    for _ in range(20):
        n = rng.randint(4, 40)
        inputs.append(plant_rainbow(rng, random_gallai_blowup(rng, n, rng.randint(3, 6))))
    for _ in range(20):
        c = random_coloring(rng, rng.randint(8, 30), 2)
        assert all(len(p) == 1 for p in pair_closure_parts(c)[0])  # prime
        inputs.append(c)
    for c in inputs:
        assert _engine_result(c) == pair_closure_parts(c), c
