import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    buffer_inputs,
    check_embedding,
    naive_images,
    naive_mono,
    naive_rainbow,
    plain_are_isomorphic,
    plain_bits,
    plain_closure,
    plain_embed,
    plain_fan_order,
    plain_masks,
    plain_modules_avoiding,
    plant_rainbow,
    prime_top,
    random_coloring,
    random_gallai_blowup,
)
from gallaikit import decompose
from gallaikit.coloring import ColorRangeError, EdgeColoring, blowup, join, make_coloring
from gallaikit.construct import base_pentagon, build_lower, mono_complete
from gallaikit.decompose import (
    DecompositionInvariantError,
    RainbowTriangleError,
    find_rainbow_triangle,
    gallai_partition,
    reduced_coloring,
)
from gallaikit.detect import (
    AvoidanceSpec,
    Embedding,
    are_isomorphic,
    find_mono_embedding,
    verify,
)
from gallaikit.patterns import (
    ISO_CAP,
    TooLargeError,
    catalog,
    enumerate_pattern_images,
    make_pattern,
    resolve,
)


def test_rainbow_found_on_rainbow_k3():
    c = make_coloring(3, 3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    assert find_rainbow_triangle(c) == (0, 1, 2)


def test_no_rainbow_in_two_colorings():
    rng = random.Random(11)
    for _ in range(20):
        c = random_coloring(rng, rng.randint(3, 9), 2)
        assert find_rainbow_triangle(c) is None


def test_mono_triangle_found_and_certified():
    c = mono_complete(4, 1)
    emb = find_mono_embedding(c, resolve("k3"), 1)
    assert emb is not None and emb.color == 1
    assert check_embedding(c, resolve("k3"), emb)


def test_pentagon_avoids_mono_triangle_both_colors():
    c = base_pentagon(1, 2)
    for color in (1, 2):
        assert find_mono_embedding(c, resolve("k3"), color) is None


def test_embedding_maps_are_injective_and_mono():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(5, 10)
        k = rng.randint(1, 3)
        c = random_coloring(rng, n, k)
        for cid in ("k3", "path(4)", "h10", "kipas(4)"):
            p = resolve(cid)
            for color in range(1, k + 1):
                emb = find_mono_embedding(c, p, color)
                if emb is None:
                    continue
                assert len(set(emb.map)) == p.m
                for a, b in p.edges:
                    assert c.color(emb.map[a], emb.map[b]) == color


def test_check_embedding_rejects_wrong_color():
    c = mono_complete(5, 2)
    emb = Embedding(color=1, map=(0, 1, 2))
    assert not check_embedding(c, resolve("k3"), emb)


def test_check_embedding_rejects_a_bad_map_or_color():
    # an edgeless pattern has no edge to refute a map, so each rejection
    # below is the one that decides; on k3 a repeated or outside vertex
    # would otherwise reach color(), which raises
    c = mono_complete(5, 2)
    for pattern in (make_pattern(3, ()), resolve("k3")):
        assert check_embedding(c, pattern, Embedding(2, (0, 1, 4)))
        bad = (
            Embedding(2, (0, 1, 0)),  # a repeated host vertex
            Embedding(2, (0, 1, 5)),  # a vertex outside 0..n-1
            Embedding(2, (-1, 1, 2)),
            Embedding(0, (0, 1, 2)),  # a color outside 1..k
            Embedding(3, (0, 1, 2)),
        )
        for emb in bad:
            assert not check_embedding(c, pattern, emb), (pattern.label, emb)


def test_detection_agrees_with_naive_oracle_small():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(3, 8)
        k = rng.randint(1, 3)
        c = random_coloring(rng, n, k)
        for cid, p in [("k3", resolve("k3")), ("h5", resolve("h5")),
                       ("kipas(4)", resolve("kipas(4)"))]:
            for color in range(1, k + 1):
                got = find_mono_embedding(c, p, color) is not None
                assert got == naive_mono(c, p, color), (n, k, cid, color)


def assert_rainbow_matches_naive(c):
    """Every rainbow entry point names the lexicographically first triple."""
    want = naive_rainbow(c)
    assert find_rainbow_triangle(c) == want, c
    assert verify(c, AvoidanceSpec((), True)).rainbow_witness == want, c
    if c.n < 2:
        return
    try:
        gallai_partition(c)
    except RainbowTriangleError as exc:
        assert exc.witness == want, c
    else:
        assert want is None, c


def test_rainbow_agrees_with_naive_oracle():
    rng = random.Random(4)
    for _ in range(60):
        assert_rainbow_matches_naive(
            random_coloring(rng, rng.randint(3, 9), rng.randint(1, 4)))
    for _ in range(40):
        c = random_gallai_blowup(rng, rng.randint(3, 30), rng.randint(3, 6))
        assert_rainbow_matches_naive(c)
        assert_rainbow_matches_naive(plant_rainbow(rng, c))


def _join_of_pairs(blocks: int, k: int) -> EdgeColoring:
    # a degenerate node of color k with `blocks` children, each an edge of
    # color 1 or 2: the walk splits it once into all its co-components
    return make_coloring(2 * blocks, k, {
        (i, j): (1 + (i // 2) % 2 if i // 2 == j // 2 else k)
        for i in range(2 * blocks) for j in range(i + 1, 2 * blocks)})


def test_rainbow_walk_on_structured_inputs():
    rng = random.Random(1907)
    inputs = [mono_complete(n, 2, k=4) for n in (3, 4, 9)]
    inputs += [_join_of_pairs(b, 3) for b in (2, 3, 20)]
    inputs.append(join(_join_of_pairs(5, 3), plant_rainbow(rng, mono_complete(6, 1, k=4)), 4))
    for _ in range(20):
        # vertex 0 sees everything in one color, so every rainbow avoids it
        n, k = rng.randint(4, 25), rng.randint(3, 5)
        cmap = {(i, j): rng.randint(1, k) for i in range(n) for j in range(i + 1, n)}
        cmap.update({(0, j): 1 for j in range(1, n)})
        inputs.append(make_coloring(n, k, cmap))
    for _ in range(20):
        # random 2-colorings (mostly prime), bare and blown up with 3-colored parts
        base = random_coloring(rng, rng.randint(8, 12), 2)
        inputs.append(base)
        inputs.append(blowup(base, [random_gallai_blowup(rng, rng.randint(1, 4), 4)
                                    for _ in range(base.n)]))
    for c in inputs:
        assert_rainbow_matches_naive(c)


def test_rainbow_found_from_a_prime_quotient_away_from_vertex_0():
    # prime on 4 vertices, no rainbow through 0, rainbow (1, 2, 3): only the
    # quotient's colors show it; blow-ups move it away from every row of 0
    c = make_coloring(4, 3, {(0, 1): 1, (0, 2): 3, (0, 3): 1,
                             (1, 2): 1, (1, 3): 2, (2, 3): 3})
    assert_rainbow_matches_naive(c)
    rng = random.Random(12)
    for _ in range(10):
        assert_rainbow_matches_naive(blowup(c, [random_gallai_blowup(
            rng, rng.randint(1, 5), rng.randint(1, 3)) for _ in range(4)]))


def test_rainbow_free_verify_scans_no_pairs():
    # the scan only names the witness; a rainbow-free input never reaches it
    c = random_gallai_blowup(random.Random(300), 300, 6)
    rep = verify(c, AvoidanceSpec((), True))
    assert rep.rainbow_witness is None
    assert rep.stats.pairs_scanned == 0


def test_walk_and_scan_disagreement_is_an_invariant_error(monkeypatch):
    # the walk sees the rainbow in the quotient of V, but the scan finds none
    monkeypatch.setattr(decompose, "_rainbow_scan", lambda c, nbr, rows: None)
    c = make_coloring(3, 3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    for call in (lambda: verify(c, AvoidanceSpec((), True)),
                 lambda: gallai_partition(c), lambda: find_rainbow_triangle(c)):
        with pytest.raises(DecompositionInvariantError,
                           match="the module walk found a rainbow triangle that the scan does not"):
            call()


def test_no_row_is_scanned_twice(monkeypatch):
    # the walk names the witness: the row-0 probe's, or one scan from row 1
    scan = decompose._rainbow_scan
    given = []
    monkeypatch.setattr(decompose, "_rainbow_scan",
                        lambda c, nbr, rows: given.extend(rows) or scan(c, nbr, rows))

    def partition_witness(c):
        try:
            gallai_partition(c)
        except RainbowTriangleError as exc:
            return exc.witness
        return None

    free = random_gallai_blowup(random.Random(34), 40, 4)
    cmap = dict(free.items())
    cmap[(0, 1)], cmap[(0, 2)], cmap[(1, 2)] = 1, 2, 3
    row0 = make_coloring(free.n, free.k, cmap)
    deep = join(free, row0, 1)  # vertex 0's row is clean, the rainbow is a module's
    m = free.n
    for c, want, rows in ((row0, (0, 1, 2), [0]),
                          (deep, (m, m + 1, m + 2), list(range(deep.n - 2))),
                          (free, None, [0])):
        for run in (lambda: verify(c, AvoidanceSpec((), True)).rainbow_witness,
                    lambda: partition_witness(c)):
            given.clear()
            assert run() == want
            assert given == rows


@pytest.fixture
def refinements_agree(monkeypatch):
    """check(c, v0s): the splitter refinement gives the same parts as the
    pivot oracle on V from each v0 in v0s, and on every module the walk
    splits from the vertex it splits it from; returns how many the walk split."""
    engine = decompose._modules_avoiding
    calls = []
    monkeypatch.setattr(decompose, "_modules_avoiding",
                        lambda nbr, s, v0: calls.append((s, v0)) or engine(nbr, s, v0))

    def check(c, v0s):
        nbr = decompose.color_neighbor_masks(c)
        calls.clear()
        decompose._module_walk(c, nbr)
        full = (1 << c.n) - 1
        for s, v0 in calls + [(full, v0) for v0 in v0s]:
            got = engine(nbr, s, v0)
            assert sorted(got) == sorted(plain_modules_avoiding(nbr, s, v0)), (c, s, v0)
        return len(calls)

    return check


def test_refinement_matches_pivot_oracle_on_random_colorings(refinements_agree):
    rng = random.Random(1994)
    for _ in range(60):
        c = random_coloring(rng, rng.randint(2, 30), rng.randint(1, 5))
        refinements_agree(c, range(c.n))
    for _ in range(30):
        c = random_gallai_blowup(rng, rng.randint(3, 30), rng.randint(3, 6))
        refinements_agree(c, range(c.n))
        refinements_agree(plant_rainbow(rng, c), range(c.n))


def test_refinement_matches_pivot_oracle_on_substitution_trees(refinements_agree):
    rng = random.Random(1967)
    for _ in range(15):
        k = rng.randint(3, 6)
        cyc, chord = rng.sample(range(1, k + 1), 2)
        pentagon = blowup(base_pentagon(cyc, chord), [
            random_gallai_blowup(rng, rng.randint(1, 20), k) for _ in range(5)])
        refinements_agree(pentagon, range(pentagon.n))
        joined = join(random_gallai_blowup(rng, rng.randint(1, 40), k),
                      random_gallai_blowup(rng, rng.randint(1, 40), k), rng.randint(1, k))
        refinements_agree(joined, range(joined.n))


def test_refinement_matches_pivot_oracle_on_towers_and_a_prime_top(refinements_agree):
    for cid, k in (("h1", 6), ("kipas(4)", 6)):
        c = build_lower(cid, k, certify=False)
        assert refinements_agree(c, range(c.n)) > 1
    c = build_lower("h10", 8, certify=False)
    assert refinements_agree(c, range(0, c.n, 25)) > 1
    c = prime_top()
    assert refinements_agree(c, range(0, c.n, 43)) == 1


@pytest.fixture
def closures_agree(monkeypatch):
    """check(c): _root_split gives the split that plain_closure grows, on V
    and on every module the walk splits; returns how many the walk split."""
    engine = decompose._root_split
    calls = []
    monkeypatch.setattr(decompose, "_root_split",
                        lambda c, nbr, s: calls.append(s) or engine(c, nbr, s))

    def oracle(nbr, s):
        # the former loop: close over vertices, grow the top while not s
        v0 = (s & -s).bit_length() - 1
        outside = decompose._modules_avoiding(nbr, s, v0)
        top = 1 << v0
        for part in outside:
            if part & ~top:
                grown = plain_closure(nbr, top | part, s)
                if grown != s:
                    top = grown
        return [top] + [p for p in outside if not p & top]

    def check(c):
        nbr = decompose.color_neighbor_masks(c)
        calls.clear()
        decompose._module_walk(c, nbr)
        for s in dict.fromkeys(calls + [(1 << c.n) - 1]):
            assert engine(c, nbr, s) == oracle(nbr, s), (c, s)
        return len(calls)

    return check


def test_root_split_matches_closure_oracle_on_random_inputs(closures_agree):
    rng = random.Random(1994)
    for _ in range(60):
        closures_agree(random_coloring(rng, rng.randint(2, 30), rng.randint(1, 5)))
    for _ in range(30):
        c = random_gallai_blowup(rng, rng.randint(3, 30), rng.randint(3, 6))
        closures_agree(c)
        closures_agree(plant_rainbow(rng, c))
    for _ in range(15):
        k = rng.randint(3, 6)
        cyc, chord = rng.sample(range(1, k + 1), 2)
        closures_agree(blowup(base_pentagon(cyc, chord), [
            random_gallai_blowup(rng, rng.randint(1, 20), k) for _ in range(5)]))
        closures_agree(join(random_gallai_blowup(rng, rng.randint(1, 40), k),
                            random_gallai_blowup(rng, rng.randint(1, 40), k),
                            rng.randint(1, k)))


def test_root_split_matches_closure_oracle_on_towers_and_a_prime_top(closures_agree):
    for cid, k in (("h1", 6), ("kipas(4)", 6), ("h10", 8)):
        assert closures_agree(build_lower(cid, k, certify=False)) > 1
    assert closures_agree(prime_top()) == 1


def test_bits_matches_lowest_bit_loop():
    rng = random.Random(3000)
    masks = [0] + [1 << i for i in (0, 1, 7, 63, 64, 999, 2999, 3000)]
    masks += [(1 << n) - 1 for n in (1, 2, 8, 64, 65, 1000, 3000)]  # dense
    masks += [rng.getrandbits(n) for n in (10, 100, 1000, 3000)]
    masks += [sum(1 << rng.randrange(3001) for _ in range(rng.randint(1, 6)))
              for _ in range(30)]  # sparse
    for mask in masks:
        assert decompose._bits(mask) == plain_bits(mask), mask


def test_verify_report_consistency():
    rng = random.Random(17)
    spec = AvoidanceSpec.from_map({1: "k3", 2: "k3"}, require_gallai=True)
    for _ in range(40):
        c = random_coloring(rng, rng.randint(3, 8), 2)
        rep = verify(c, spec)
        assert rep.passed == (rep.rainbow_witness is None and not rep.mono_witnesses)
        for emb in rep.mono_witnesses:
            assert check_embedding(c, resolve("k3"), emb)


def test_verify_unconstrained_color_is_ignored():
    c = mono_complete(6, 2)
    spec = AvoidanceSpec.from_map({1: "k3"}, require_gallai=False)
    assert verify(c, spec).passed


def test_verify_catches_planted_pattern():
    # color a kipas(4) copy in color 1 on an otherwise color-2 host
    edges = resolve("kipas(4)").edges
    cmap = {}
    for i in range(7):
        for j in range(i + 1, 7):
            cmap[(i, j)] = 1 if (i, j) in edges else 2
    c = make_coloring(7, 2, cmap)
    rep = verify(c, AvoidanceSpec.from_map({1: "kipas(4)"}, require_gallai=False))
    assert not rep.passed
    assert any(e.color == 1 for e in rep.mono_witnesses)


def test_avoidance_spec_validates_colors():
    with pytest.raises(Exception):
        AvoidanceSpec.from_map({0: "k3"})


def test_spec_color_above_k_fails_closed():
    # a color above k is no empty class: verify and find_mono_embedding refuse it
    c = mono_complete(4, 1, k=2)
    for spec in (AvoidanceSpec.from_map({300: "h1"}), AvoidanceSpec.from_map({1: "k3", 3: "k3"}),
                 AvoidanceSpec(((0, "k3"),), False)):
        with pytest.raises(ColorRangeError, match=r"^color (300|3|0) outside 1\.\.2$"):
            verify(c, spec)
    with pytest.raises(ColorRangeError, match=r"^color 3 outside 1\.\.2$"):
        find_mono_embedding(c, resolve("k3"), 3)
    assert find_mono_embedding(c, resolve("k3"), 2) is None
    assert not verify(c, AvoidanceSpec.from_map({1: "k3", 2: "k3"})).passed


def test_enumerate_images_counts():
    # labeled copies of K3 in K4: C(4,3) subsets, one image each
    assert len(enumerate_pattern_images(resolve("k3"), 4)) == 4
    # path(3) in K3: 3 labelings of the middle vertex
    assert len(enumerate_pattern_images(resolve("path(3)"), 3)) == 3
    assert enumerate_pattern_images(resolve("h1"), 4) == ()


def test_enumerate_images_matches_brute_force_oracle():
    # one edge set per coset of Aut(pattern), placed on every subset, must
    # reproduce the bijection-per-subset oracle tuple, order included, with
    # each vertex pair mapped to its edge index by inline arithmetic
    patterns = [p for _, p in catalog()]
    patterns += [resolve(f"kipas({m})") for m in (2, 3, 4)]
    patterns += [resolve(f"path({t})") for t in (2, 3, 4, 5)]
    patterns += [resolve(f"complete({t})") for t in (2, 3, 4)]
    patterns += [
        make_pattern(5, [(0, 2), (2, 3), (0, 3), (3, 4)], "isolated vertex 1"),
        make_pattern(3, [], "empty"),
    ]
    cases = [(p, n) for p in patterns for n in range(1, 10)] + [(resolve("kipas(4)"), 10)]
    for p, n in cases:
        want = tuple(tuple(i * (2 * n - i - 1) // 2 + j - i - 1 for i, j in image)
                     for image in naive_images(p, n))
        assert enumerate_pattern_images(p, n) == want, (p.label, n)
    assert enumerate_pattern_images(make_pattern(3, [], "empty"), 4) == ((),)


def test_image_budget_fails_closed_before_building():
    # |shapes| * C(n, m') over 2^19 raises at once, naming count and budget:
    # kipas(6) at n=12 has 2520 * 792 images, path(7) at n=16 2520 * 11440
    for pid, n in (("kipas(6)", 12), ("path(7)", 16), ("kipas(6)", 11)):
        start = time.perf_counter()
        with pytest.raises(TooLargeError, match=r"\d+ images, over the image budget of 524288"):
            enumerate_pattern_images(resolve(pid), n)
        assert time.perf_counter() - start < 1.0, pid
    # one shape on C(1025, 2) = 524800 subsets
    with pytest.raises(TooLargeError, match=r"at least 524800 images"):
        enumerate_pattern_images(resolve("path(2)"), 1025)
    # a 16-vertex path's orbit stops growing at the budget, not at 16!/2
    with pytest.raises(TooLargeError):
        enumerate_pattern_images(resolve("path(16)"), 17)
    # and a clique's orbit is the clique itself
    assert len(enumerate_pattern_images(resolve("complete(16)"), 16)) == 1


@settings(max_examples=40)
@given(st.integers(min_value=3, max_value=7), st.data())
def test_find_mono_matches_oracle_property(n, data):
    k = data.draw(st.integers(min_value=1, max_value=3))
    colors = data.draw(st.lists(
        st.integers(min_value=1, max_value=k),
        min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    from gallaikit.coloring import edge_list
    c = make_coloring(n, k, {e: col for e, col in zip(edge_list(n), colors)})
    p = resolve(data.draw(st.sampled_from(["k3", "path(4)", "h10"])))
    color = data.draw(st.integers(min_value=1, max_value=k))
    assert (find_mono_embedding(c, p, color) is not None) == naive_mono(c, p, color)


DIFF_PATTERNS = ("k3", "path(4)", "h1", "h10", "kipas(4)")


def assert_kernel_matches_plain(c):
    """find_mono_embedding and verify return the plain DFS's witness or None."""
    for pid in DIFF_PATTERNS:
        p = resolve(pid)
        want = {color: plain_embed(c, p, color) for color in range(1, c.k + 1)}
        for color, image in want.items():
            emb = find_mono_embedding(c, p, color)
            assert (None if emb is None else emb.map) == image, (pid, color)
        rep = verify(c, AvoidanceSpec.forbid_all(pid, c.k, require_gallai=False))
        got = [(e.color, e.map) for e in rep.mono_witnesses]
        assert got == [(col, img) for col, img in want.items() if img is not None], pid


def test_kernel_matches_plain_dfs_on_random_colorings():
    rng = random.Random(2024)
    for _ in range(25):
        assert_kernel_matches_plain(
            random_coloring(rng, rng.randint(3, 40), rng.randint(1, 4)))


def test_kernel_matches_plain_dfs_on_gallai_blowups():
    # substitution trees: the inputs with large twin classes
    rng = random.Random(7)
    for _ in range(40):
        assert_kernel_matches_plain(
            random_gallai_blowup(rng, rng.randint(3, 40), rng.randint(2, 5)))


@pytest.mark.parametrize("cid,k", [("h1", 4), ("h10", 4), ("kipas(4)", 4), ("h1", 5)])
def test_kernel_matches_plain_dfs_on_towers(cid, k):
    assert_kernel_matches_plain(build_lower(cid, k, certify=False))


def test_kernel_bounds_tower_search_work():
    # a count, not a time: h1 at k=6 took 2669800 DFS nodes without the kernel
    rep = verify(build_lower("h1", 6, certify=False), AvoidanceSpec.forbid_all("h1", 6))
    assert rep.passed
    assert rep.stats.embedding_nodes < 100_000
    # the twins a copy uses are independent in the pattern: alpha(h1) = 2,
    # where a cap of m = 5 per class took 36900 nodes
    assert rep.stats.embedding_nodes < 10_000


def test_masks_match_plain_loop():
    # rows of 63 to 129 vertices are padded to whole bytes of the eight lanes
    rng = random.Random(64)
    wide = [random_coloring(rng, n, k) for n in (63, 64, 65, 129) for k in (2, 7, 8, 9, 17)]
    for c in buffer_inputs() + wide:
        got = decompose.color_neighbor_masks(c)
        assert [list(row) for row in got] == plain_masks(c), (c.n, c.k)


def test_masks_are_built_once_per_coloring(monkeypatch):
    builds = []
    build = decompose._build_masks
    monkeypatch.setattr(decompose, "_build_masks", lambda c: builds.append(c.n) or build(c))
    c = random_gallai_blowup(random.Random(5), 40, 4)
    verify(c, AvoidanceSpec.forbid_all("h1", c.k))
    reduced_coloring(c, gallai_partition(c))
    assert builds == [40]
    # an equal coloring is another instance and builds its own
    decompose.color_neighbor_masks(EdgeColoring(c.n, c.k, c.colors))
    assert builds == [40, 40]


def test_cached_masks_are_read_only_and_survive_verify():
    c = build_lower("h1", 4, certify=False)
    first = decompose.color_neighbor_masks(c)
    assert type(first) is tuple and all(type(row) is tuple for row in first)
    verify(c, AvoidanceSpec.forbid_all("h1", c.k))
    find_rainbow_triangle(c)
    again = decompose.color_neighbor_masks(c)
    assert again is first
    assert [list(row) for row in again] == plain_masks(c)


def _relabeled(rng: random.Random, p):
    perm = list(range(p.m))
    rng.shuffle(perm)
    return make_pattern(p.m, [(perm[a], perm[b]) for a, b in p.edges], p.label)


def _edge_swapped(rng: random.Random, p):
    """ab, cd -> ad, cb on four distinct vertices: the same degrees, or None."""
    edges = sorted(p.edges)
    for _ in range(50):
        (a, b), (c, d) = rng.sample(edges, 2)
        new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if len({a, b, c, d}) == 4 and not new & p.edges:
            return make_pattern(p.m, (p.edges - {(a, b), (c, d)}) | new, "swapped")
    return None


def _copy_engine_corpus(rng: random.Random) -> list:
    """Catalog and families, their relabelings, random patterns on at most
    9 vertices (half of them with a fan's edge count), and fan-shaped non-fans:
    a hub joined to all m others, whose m - 1 other edges are no path."""
    base = [p for _, p in catalog()]
    base += [resolve(f"kipas({m})") for m in range(2, 17)]
    base += [resolve(f"{fam}({t})") for fam in ("path", "complete") for t in range(2, 10)]
    corpus = base + [_relabeled(rng, p) for _ in range(3) for p in base]
    for _ in range(3000):
        m = rng.randint(1, 9)
        pairs = list(combinations(range(m), 2))
        size = 2 * m - 3 if m >= 3 and rng.random() < 0.5 else rng.randint(0, len(pairs))
        corpus.append(make_pattern(m, rng.sample(pairs, size)))
    for m in range(4, 9):
        rim_pairs = list(combinations(range(1, m + 1), 2))
        made = 0
        while made < 30:
            p = make_pattern(m + 1, [(0, v) for v in range(1, m + 1)] + rng.sample(rim_pairs, m - 1))
            if plain_fan_order(p) is None:
                corpus.append(_relabeled(rng, p))
                made += 1
    return corpus


def test_copy_engine_matches_the_former_searches():
    # are_isomorphic runs on the embedding DFS; the backtracking isomorphism
    # test it replaces must give the same verdict
    rng = random.Random(29)
    corpus = _copy_engine_corpus(rng)
    h12 = resolve("h12")
    for _ in range(50):
        q = _relabeled(rng, h12)
        assert are_isomorphic(q, resolve("kipas(4)")) and are_isomorphic(resolve("kipas(4)"), q)
    small = [p for p in corpus if p.m <= ISO_CAP]
    pairs = [(p, _relabeled(rng, p)) for p in small[:600]]
    pairs += list(combinations([p for _, p in catalog()] + [_relabeled(rng, h12)], 2))
    pairs += [tuple(rng.sample(small, 2)) for _ in range(2000)]
    dense = [make_pattern(m, rng.sample(list(combinations(range(m), 2)),
                                        rng.randint(m, m * (m - 1) // 2 - 2)))
             for m in rng.choices(range(5, ISO_CAP + 1), k=600)]
    pairs += [(p, q) for p in dense if (q := _edge_swapped(rng, p)) is not None]
    same = equal_degrees_apart = 0
    for p, q in pairs:
        got = are_isomorphic(p, q)
        assert got == plain_are_isomorphic(p, q), (p, q)
        same += got
        equal_degrees_apart += not got and p.m == q.m and sorted(
            map(len, p.adjacency())) == sorted(map(len, q.adjacency()))
    assert same >= 650 and equal_degrees_apart >= 150, (same, equal_degrees_apart)
    big = resolve("path(11)")
    for iso in (are_isomorphic, plain_are_isomorphic):
        with pytest.raises(TooLargeError, match=f"^isomorphism test capped at {ISO_CAP} vertices$"):
            iso(big, big)
