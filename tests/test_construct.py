import pytest

import gallaikit.construct as construct_module
from gallaikit.coloring import EdgeColoring, edge_list, join, parse, serialize
from gallaikit.construct import (
    VERTEX_BUDGET,
    EqualColorsError,
    ParityViolationError,
    _clique_cover_ok,
    assemble_case3,
    base_pentagon,
    build_kipas_aux,
    build_lower,
    build_mixed,
    extremal_two_coloring,
    mono_complete,
)
from gallaikit.detect import AvoidanceSpec, find_mono_embedding, verify
from gallaikit.formulas import (
    R2_TABLE,
    MissingR2Error,
    RangeViolationError,
    conjecture_kipas,
    fan_param,
    g_value,
    ramsey_two,
    w_value,
)
from gallaikit.patterns import resolve


def test_base_pentagon_shape():
    c = base_pentagon(1, 2)
    for i in range(5):
        for j in range(i + 1, 5):
            expected = 1 if (j - i) % 5 in (1, 4) else 2
            assert c.color(i, j) == expected


def test_base_pentagon_rejects_equal_colors():
    with pytest.raises(EqualColorsError):
        base_pentagon(3, 3)


def test_mono_complete():
    c = mono_complete(4, 2)
    assert c.n == 4 and set(c.colors) == {2}


def test_every_fixture_target_has_a_seed_on_ramsey_minus_one():
    for cid in sorted(R2_TABLE):
        c = extremal_two_coloring(cid, certify=True)
        assert c.n == ramsey_two(cid) - 1
        assert c.k == 2


def test_extremal_seed_actually_avoids_its_pattern():
    # independent spot check, not via the builder's own certification
    c = extremal_two_coloring("h5", certify=False)
    p = resolve("h5")
    for color in (1, 2):
        assert find_mono_embedding(c, p, color) is None


def test_h1_tower_at_k8_certifies():
    # 1000 vertices, five twin classes of 200 in each top color
    c = build_lower("h1", 8)
    assert c.n == g_value("h1", 8) == 1000


def test_extremal_alias_h12_matches_kipas4():
    assert extremal_two_coloring("h12", certify=False).n == 9


def test_extremal_search_fallback_unavailable_scope():
    # an unknown target id fails before any search can run
    with pytest.raises(Exception):
        extremal_two_coloring("h13")


def test_extremal_search_fallback_finds_a_certified_witness():
    # kipas(5) has no seed, so R2 = 11 sends it to the first-witness search
    c = extremal_two_coloring("kipas(5)", r2=11)
    assert (c.n, c.k) == (10, 2)
    assert verify(c, AvoidanceSpec.forbid_all("kipas(5)", 2)).passed
    assert build_lower("kipas(5)", 2, r2=11) == c


def test_joined_seeds_match_their_definitions():
    # h1..h4: two color-1 K4 blocks; h10: a color-1 K4 plus two vertices
    # whose every edge has color 2
    blocks = EdgeColoring(8, 2, tuple(1 if i // 4 == j // 4 else 2 for i, j in edge_list(8)))
    cone = EdgeColoring(6, 2, tuple(1 if j < 4 else 2 for i, j in edge_list(6)))
    for cid in ("h1", "h2", "h3", "h4"):
        assert extremal_two_coloring(cid, certify=False) == blocks, cid
    assert extremal_two_coloring("h10", certify=False) == cone


def test_build_kipas_aux_sizes_and_purity():
    # colors above the declared top stay unused; levels multiply by five
    c = build_kipas_aux(2, 4, 4, certify=True)
    assert c.n == 5
    c = build_kipas_aux(2, 6, 5, certify=True)
    assert c.n == 25
    c = build_kipas_aux(4, 4, 3, certify=True)
    assert c.n == 10


def test_build_kipas_aux_rejects_bad_parity():
    with pytest.raises(ParityViolationError):
        build_kipas_aux(3, 4, 4)
    with pytest.raises(ParityViolationError):
        build_kipas_aux(2, 5, 4)
    with pytest.raises(RangeViolationError):
        build_kipas_aux(2, 4, 2)


def test_assemble_case3_small():
    c = assemble_case3(2, 4, certify=True)
    assert c.n == 25
    c = assemble_case3(4, 4, certify=True)
    assert c.n == 49


def test_assemble_case3_is_build_lower_for_even_fans():
    for m, k in ((2, 4), (4, 4), (2, 6)):
        assert assemble_case3(m, k, certify=False) == build_lower(
            f"kipas({m})", k, certify=False), (m, k)


def test_assemble_case3_rejects_bad_parity():
    with pytest.raises(ParityViolationError):
        assemble_case3(3, 4)
    with pytest.raises(ParityViolationError):
        assemble_case3(2, 5)


def test_clique_cover_check():
    # color 1: two disjoint triangles; color 2: the cross edges
    two_triangles = join(mono_complete(3, 1), mono_complete(3, 1), 2)
    assert _clique_cover_ok(two_triangles, 1, 3)
    assert not _clique_cover_ok(two_triangles, 1, 2)
    # color 1: the path 0-1-2, components are not cliques
    path = parse("grc 1 3 2\n1 2\n1\n")
    assert not _clique_cover_ok(path, 1, 2)
    assert not _clique_cover_ok(path, 1, 3)
    # one cross edge merges the triangles into a non-clique component
    cross = parse(serialize(two_triangles).replace("1 1 2 2 2", "1 1 1 2 2", 1))
    assert cross.color(0, 3) == 1
    assert not _clique_cover_ok(cross, 1, 3)
    assert not _clique_cover_ok(cross, 1, 6)


def test_assemble_case3_rejects_unlisted_fan_without_r2():
    # materializing m outside {2,4} further needs a searchable two-color
    # base, so only the precondition is exercised here
    with pytest.raises(MissingR2Error):
        assemble_case3(6, 4)


def test_build_lower_matches_g_for_the_grid():
    grid = [
        ("h10", 3, 10), ("h10", 4, 25), ("h10", 5, 50),
        ("h1", 3, 20), ("h1", 4, 40),
        ("h5", 3, 20), ("h5", 4, 45),
        ("h11", 3, 20), ("h11", 4, 45),
        ("kipas(3)", 2, 9), ("kipas(3)", 3, 18), ("kipas(3)", 4, 45),
        ("kipas(4)", 2, 9), ("kipas(4)", 3, 20), ("kipas(4)", 4, 49),
    ]
    for cid, k, size in grid:
        c = build_lower(cid, k, certify=False)
        assert c.n == size == g_value(cid, k), (cid, k)


def test_build_lower_certifies_smallest_cases():
    for cid, k in [("h10", 3), ("h1", 3), ("kipas(3)", 3), ("kipas(4)", 3)]:
        c = build_lower(cid, k, certify=True)
        rep = verify(c, AvoidanceSpec.forbid_all(cid, k))
        assert rep.passed, (cid, k)


def test_build_lower_k1_is_bare_clique():
    c = build_lower("h1", 1)
    assert c.n == 4 and set(c.colors) == {1}
    assert build_lower("h10", 1).n == 4
    assert build_lower("kipas(4)", 1).n == 4


def test_build_lower_k2_is_the_extremal_coloring():
    assert build_lower("h10", 2).n == 6
    assert build_lower("h5", 2).n == 9


def test_build_lower_rejects_r2_for_a_non_fan():
    for cid in ("h1", "h10", "h5"):
        with pytest.raises(RangeViolationError):
            build_lower(cid, 3, r2=99, certify=False)
    # h12 is kipas(4), so it takes r2 like the fan
    assert build_lower("h12", 3, r2=10, certify=False).n == g_value("h12", 3)


def test_build_lower_unknown_fan_needs_r2():
    with pytest.raises(MissingR2Error):
        build_lower("kipas(6)", 3)
    c = build_lower("kipas(6)", 3, r2=13, certify=False)
    assert c.n == g_value("kipas(6)", 3, r2=13)


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)


def test_every_r2_consumer_applies_the_same_rule():
    # g_value, build_lower and conjecture_kipas all defer to ramsey_two, so
    # each (target, r2) either works everywhere with one size or fails
    # everywhere with one exception class.  An r2 is taken only for a fan,
    # equal to the stored value, or (unlisted fan) from 2m+1 up to
    # 2(m^2-m+1) = 62 for m = 6
    for target in ("h1", "h10", "h12", "kipas(2)", "kipas(3)", "kipas(4)", "kipas(6)"):
        m = fan_param(target)
        half = m if m is not None else resolve(target).m - 1
        stored = R2_TABLE.get(target)
        r2s = [None, 2 * half, 2 * half + 1, 99]
        if stored is not None:
            r2s += [stored, stored + 4]
        for r2 in r2s:
            if r2 is None:
                want = int if stored is not None else MissingR2Error
            elif m is not None and r2 == (stored or 2 * m + 1):
                want = int
            else:
                want = RangeViolationError
            # g_value first: a wrongly accepted r2 = 99 would send build_lower
            # into an extremal search on 98 vertices
            size = _outcome(lambda: g_value(target, 3, r2))
            assert (size if isinstance(size, type) else int) is want, (target, r2, size)
            built = _outcome(lambda: build_lower(target, 3, r2=r2, certify=False).n)
            assert built == size, (target, r2, built)
            if m is not None:
                conj = _outcome(lambda: conjecture_kipas(m, 3, r2).value - 1)
                assert conj == size, (target, r2, conj)


def test_build_mixed_sizes_and_palettes():
    grid = [(3, 1, 4), (3, 2, 10), (4, 3, 20), (5, 4, 50), (5, 3, 20)]
    for k, s, size in grid:
        c = build_mixed(k, s, certify=False)
        assert c.n == size == w_value(k, s), (k, s)
        assert c.k == k


def test_build_mixed_low_s_palettes():
    # s=0 is a single edge in the last color; s=1 joins two of them with color 1
    c = build_mixed(3, 0, certify=False)
    assert c.n == 2 and set(c.colors) == {3}
    c = build_mixed(3, 1, certify=False)
    assert c.n == 4 and set(c.colors) == {1, 3}


def test_build_mixed_certified_small():
    c = build_mixed(4, 3, certify=True)
    per_color = {col: ("kipas(4)" if col <= 3 else "path(3)") for col in range(1, 5)}
    assert verify(c, AvoidanceSpec.from_map(per_color)).passed


def test_build_mixed_rejects_s_outside_range():
    with pytest.raises(RangeViolationError):
        build_mixed(3, -1)
    with pytest.raises(RangeViolationError):
        build_mixed(3, 4)


def test_builders_refuse_sizes_over_the_vertex_budget(monkeypatch):
    def no_build(*args):
        raise AssertionError("a coloring over the budget was started")

    monkeypatch.setattr(construct_module, "_tower", no_build)
    monkeypatch.setattr(construct_module, "_mixed", no_build)
    monkeypatch.setattr(construct_module, "_aux", no_build)
    with pytest.raises(RangeViolationError, match="125000 vertices.* 8192"):
        build_lower("h1", 14)
    with pytest.raises(RangeViolationError, match="12500 vertices"):
        build_mixed(11, 11)
    with pytest.raises(RangeViolationError, match="312500 vertices"):
        build_kipas_aux(200, 12, 12)
    # the largest towers that are meant to be built still fit
    assert g_value("h1", 10) == 5000 and g_value("kipas(4)", 10) == 6249 < VERTEX_BUDGET
