import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    naive_images,
    naive_mono,
    naive_rainbow,
    plain_embed,
    random_coloring,
    random_gallai_blowup,
)
from gallaikit.coloring import make_coloring
from gallaikit.construct import base_pentagon, build_lower, mono_complete
from gallaikit.detect import (
    AvoidanceSpec,
    Embedding,
    check_embedding,
    enumerate_pattern_images,
    find_mono_embedding,
    find_rainbow_triangle,
    verify,
)
from gallaikit.patterns import catalog, make_pattern, resolve


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


def test_rainbow_agrees_with_naive_oracle():
    rng = random.Random(4)
    for _ in range(60):
        c = random_coloring(rng, rng.randint(3, 9), rng.randint(1, 4))
        got = find_rainbow_triangle(c)
        want = naive_rainbow(c)
        assert (got is None) == (want is None)
        if got is not None:
            u, v, w = got
            assert len({c.color(u, v), c.color(u, w), c.color(v, w)}) == 3


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


def test_enumerate_images_counts():
    # labeled copies of K3 in K4: C(4,3) subsets, one image each
    assert len(enumerate_pattern_images(resolve("k3"), 4)) == 4
    # path(3) in K3: 3 labelings of the middle vertex
    assert len(enumerate_pattern_images(resolve("path(3)"), 3)) == 3
    assert enumerate_pattern_images(resolve("h1"), 4) == ()


def test_enumerate_images_matches_brute_force_oracle():
    # one edge set per coset of Aut(pattern), placed on every subset, must
    # reproduce the bijection-per-subset oracle tuple, order included
    patterns = [p for _, p in catalog()]
    patterns += [resolve(f"kipas({m})") for m in (2, 3, 4)]
    patterns += [resolve(f"path({t})") for t in (3, 4, 5)]
    patterns += [resolve(f"complete({t})") for t in (3, 4)]
    patterns += [
        make_pattern(5, [(0, 2), (2, 3), (0, 3), (3, 4)], "isolated vertex 1"),
        make_pattern(3, [], "empty"),
    ]
    for p in patterns:
        for n in range(1, 10):
            assert enumerate_pattern_images(p, n) == naive_images(p, n), (p.label, n)


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
