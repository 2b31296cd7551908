import hashlib

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


# sha256 of b"n k " + colors for every builder over the grid below, so a
# change to how the towers are assembled cannot move a byte unnoticed
_BUILDER_DIGESTS = {
    "build_lower('h1', 1)": '95d2e69f18e94c053961828ef0be15ab30643a53da34d050448416726bc10130',
    "build_lower('h1', 2)": '68c43b69805aa9b69b514eccba99df971764a6ea1e6760614679aeee5c82cead',
    "build_lower('h1', 3)": '5415560feba3f9c8d86795c2ce1194a8897d6c809af50659b4a730799ec3c908',
    "build_lower('h1', 4)": '6bec3ed7c3b1d1b210b2d3ec19e0d5f542fc4407257c4d46a9c107c2b1d5ed91',
    "build_lower('h1', 5)": 'abd18507880b297292ae7ffa62e38ba27790f83ec55407b7061427adccd39ae1',
    "build_lower('h1', 6)": '2a7e04a63b0c88cabe372a2ebb96bc9e1a0354808cf99d6e637506360b343adf',
    "build_lower('h1', 7)": '50d4b00cfd0c127118ced284ca8f56f02e5eed39d3332a86842ac06479f9d24b',
    "build_lower('h1', 8)": '1193c5482a5564d4763574b4242089f32b483380ce412885ce370fbf59cdee18',
    "build_lower('h1', 9)": '8b7fd6cff28ca8a049b848cd023a6f8a3f71d5ec3a00f46afc1df46680341bfa',
    "build_lower('h2', 1)": '95d2e69f18e94c053961828ef0be15ab30643a53da34d050448416726bc10130',
    "build_lower('h2', 2)": '68c43b69805aa9b69b514eccba99df971764a6ea1e6760614679aeee5c82cead',
    "build_lower('h2', 3)": '5415560feba3f9c8d86795c2ce1194a8897d6c809af50659b4a730799ec3c908',
    "build_lower('h2', 4)": '6bec3ed7c3b1d1b210b2d3ec19e0d5f542fc4407257c4d46a9c107c2b1d5ed91',
    "build_lower('h2', 5)": 'abd18507880b297292ae7ffa62e38ba27790f83ec55407b7061427adccd39ae1',
    "build_lower('h2', 6)": '2a7e04a63b0c88cabe372a2ebb96bc9e1a0354808cf99d6e637506360b343adf',
    "build_lower('h2', 7)": '50d4b00cfd0c127118ced284ca8f56f02e5eed39d3332a86842ac06479f9d24b',
    "build_lower('h2', 8)": '1193c5482a5564d4763574b4242089f32b483380ce412885ce370fbf59cdee18',
    "build_lower('h2', 9)": '8b7fd6cff28ca8a049b848cd023a6f8a3f71d5ec3a00f46afc1df46680341bfa',
    "build_lower('h3', 1)": '95d2e69f18e94c053961828ef0be15ab30643a53da34d050448416726bc10130',
    "build_lower('h3', 2)": '68c43b69805aa9b69b514eccba99df971764a6ea1e6760614679aeee5c82cead',
    "build_lower('h3', 3)": '5415560feba3f9c8d86795c2ce1194a8897d6c809af50659b4a730799ec3c908',
    "build_lower('h3', 4)": '6bec3ed7c3b1d1b210b2d3ec19e0d5f542fc4407257c4d46a9c107c2b1d5ed91',
    "build_lower('h3', 5)": 'abd18507880b297292ae7ffa62e38ba27790f83ec55407b7061427adccd39ae1',
    "build_lower('h3', 6)": '2a7e04a63b0c88cabe372a2ebb96bc9e1a0354808cf99d6e637506360b343adf',
    "build_lower('h3', 7)": '50d4b00cfd0c127118ced284ca8f56f02e5eed39d3332a86842ac06479f9d24b',
    "build_lower('h3', 8)": '1193c5482a5564d4763574b4242089f32b483380ce412885ce370fbf59cdee18',
    "build_lower('h3', 9)": '8b7fd6cff28ca8a049b848cd023a6f8a3f71d5ec3a00f46afc1df46680341bfa',
    "build_lower('h4', 1)": '95d2e69f18e94c053961828ef0be15ab30643a53da34d050448416726bc10130',
    "build_lower('h4', 2)": '68c43b69805aa9b69b514eccba99df971764a6ea1e6760614679aeee5c82cead',
    "build_lower('h4', 3)": '5415560feba3f9c8d86795c2ce1194a8897d6c809af50659b4a730799ec3c908',
    "build_lower('h4', 4)": '6bec3ed7c3b1d1b210b2d3ec19e0d5f542fc4407257c4d46a9c107c2b1d5ed91',
    "build_lower('h4', 5)": 'abd18507880b297292ae7ffa62e38ba27790f83ec55407b7061427adccd39ae1',
    "build_lower('h4', 6)": '2a7e04a63b0c88cabe372a2ebb96bc9e1a0354808cf99d6e637506360b343adf',
    "build_lower('h4', 7)": '50d4b00cfd0c127118ced284ca8f56f02e5eed39d3332a86842ac06479f9d24b',
    "build_lower('h4', 8)": '1193c5482a5564d4763574b4242089f32b483380ce412885ce370fbf59cdee18',
    "build_lower('h4', 9)": '8b7fd6cff28ca8a049b848cd023a6f8a3f71d5ec3a00f46afc1df46680341bfa',
    "build_lower('h5', 1)": '95d2e69f18e94c053961828ef0be15ab30643a53da34d050448416726bc10130',
    "build_lower('h5', 2)": '4d101496fda7178318f413e2a43aafc16356eac2a412ca791d969076c9f4e64e',
    "build_lower('h5', 3)": '5415560feba3f9c8d86795c2ce1194a8897d6c809af50659b4a730799ec3c908',
    "build_lower('h5', 4)": 'b90586f499e978aa277d8a7c3d5b26604bc0adbea09ef9dfa4be4f3417130ed2',
    "build_lower('h5', 5)": 'abd18507880b297292ae7ffa62e38ba27790f83ec55407b7061427adccd39ae1',
    "build_lower('h5', 6)": '8b4c548defe990e96a50575cb4fa5e961df57961a31159644b22c15267d5a193',
    "build_lower('h5', 7)": '50d4b00cfd0c127118ced284ca8f56f02e5eed39d3332a86842ac06479f9d24b',
    "build_lower('h5', 8)": 'd14ea827fb26cf51caadc73817ec98feb5844ef680a6e18fa30dc43717374ced',
    "build_lower('h5', 9)": '8b7fd6cff28ca8a049b848cd023a6f8a3f71d5ec3a00f46afc1df46680341bfa',
    "build_lower('h6', 1)": '95d2e69f18e94c053961828ef0be15ab30643a53da34d050448416726bc10130',
    "build_lower('h6', 2)": '4d101496fda7178318f413e2a43aafc16356eac2a412ca791d969076c9f4e64e',
    "build_lower('h6', 3)": '5415560feba3f9c8d86795c2ce1194a8897d6c809af50659b4a730799ec3c908',
    "build_lower('h6', 4)": 'b90586f499e978aa277d8a7c3d5b26604bc0adbea09ef9dfa4be4f3417130ed2',
    "build_lower('h6', 5)": 'abd18507880b297292ae7ffa62e38ba27790f83ec55407b7061427adccd39ae1',
    "build_lower('h6', 6)": '8b4c548defe990e96a50575cb4fa5e961df57961a31159644b22c15267d5a193',
    "build_lower('h6', 7)": '50d4b00cfd0c127118ced284ca8f56f02e5eed39d3332a86842ac06479f9d24b',
    "build_lower('h6', 8)": 'd14ea827fb26cf51caadc73817ec98feb5844ef680a6e18fa30dc43717374ced',
    "build_lower('h6', 9)": '8b7fd6cff28ca8a049b848cd023a6f8a3f71d5ec3a00f46afc1df46680341bfa',
    "build_lower('h10', 1)": '95d2e69f18e94c053961828ef0be15ab30643a53da34d050448416726bc10130',
    "build_lower('h10', 2)": '413d6380cfdcdf6de1f0c18200b15fe2d31c474a75c776690a5781906a76da55',
    "build_lower('h10', 3)": '7a9521712ecb13d31d9af88b7bb18eab464fdc74b9420936259b24b20fc29494',
    "build_lower('h10', 4)": '4adcb4ded9818302ec6348ba73fda270f521845bfbb6a8d9da218f880a63d69b',
    "build_lower('h10', 5)": '135d3d76b3639363925a3ee466771ade7020ac6844bc39e6c4b40c0a6e7bf3fd',
    "build_lower('h10', 6)": 'aa57558f85a109318e3e33e83638e5511b8ed0434c398ce5de343d8b99c66b46',
    "build_lower('h10', 7)": 'b0717e3e67c1838aee76c89a9794078a8a912012e148337ba60f18f5d716cd63',
    "build_lower('h10', 8)": '7e33fd22fae2322071cd94f196cb401897d3788be624800022dbddab765a4ab1',
    "build_lower('h10', 9)": 'cdd9726df81b1b81f2d4467bd08a48bace5d288991ecd715dbda9726d5778ad6',
    "build_lower('h11', 1)": '95d2e69f18e94c053961828ef0be15ab30643a53da34d050448416726bc10130',
    "build_lower('h11', 2)": '4d101496fda7178318f413e2a43aafc16356eac2a412ca791d969076c9f4e64e',
    "build_lower('h11', 3)": '5415560feba3f9c8d86795c2ce1194a8897d6c809af50659b4a730799ec3c908',
    "build_lower('h11', 4)": 'b90586f499e978aa277d8a7c3d5b26604bc0adbea09ef9dfa4be4f3417130ed2',
    "build_lower('h11', 5)": 'abd18507880b297292ae7ffa62e38ba27790f83ec55407b7061427adccd39ae1',
    "build_lower('h11', 6)": '8b4c548defe990e96a50575cb4fa5e961df57961a31159644b22c15267d5a193',
    "build_lower('h11', 7)": '50d4b00cfd0c127118ced284ca8f56f02e5eed39d3332a86842ac06479f9d24b',
    "build_lower('h11', 8)": 'd14ea827fb26cf51caadc73817ec98feb5844ef680a6e18fa30dc43717374ced',
    "build_lower('h11', 9)": '8b7fd6cff28ca8a049b848cd023a6f8a3f71d5ec3a00f46afc1df46680341bfa',
    "build_lower('h12', 1)": '95d2e69f18e94c053961828ef0be15ab30643a53da34d050448416726bc10130',
    "build_lower('h12', 2)": '4d101496fda7178318f413e2a43aafc16356eac2a412ca791d969076c9f4e64e',
    "build_lower('h12', 3)": '5415560feba3f9c8d86795c2ce1194a8897d6c809af50659b4a730799ec3c908',
    "build_lower('h12', 4)": '0ff7a18074f05f27637ea9f8df30655a8df76d502870cb77462384b4b93a76dd',
    "build_lower('h12', 5)": 'abd18507880b297292ae7ffa62e38ba27790f83ec55407b7061427adccd39ae1',
    "build_lower('h12', 6)": '6082f9d7c8d1c9fd9692a997696821e454310f553373fbc0aea7f15cc73c6430',
    "build_lower('h12', 7)": '50d4b00cfd0c127118ced284ca8f56f02e5eed39d3332a86842ac06479f9d24b',
    "build_lower('h12', 8)": '67ec6deb25e1f558c4bf7d73c8abeea90924241d6daad363621fea0ddceefe6a',
    "build_lower('h12', 9)": '8b7fd6cff28ca8a049b848cd023a6f8a3f71d5ec3a00f46afc1df46680341bfa',
    "build_lower('kipas(2)', 1)": 'bbf0f2866200add5a26d13981ac263214c5ab634950dd41dfb3498065ec1d579',
    "build_lower('kipas(2)', 2)": '12619927269fa8901094bed94bf651b192f867eecbacd4e4b680fd73e976a3bd',
    "build_lower('kipas(2)', 3)": '7a9521712ecb13d31d9af88b7bb18eab464fdc74b9420936259b24b20fc29494',
    "build_lower('kipas(2)', 4)": '4adcb4ded9818302ec6348ba73fda270f521845bfbb6a8d9da218f880a63d69b',
    "build_lower('kipas(2)', 5)": '135d3d76b3639363925a3ee466771ade7020ac6844bc39e6c4b40c0a6e7bf3fd',
    "build_lower('kipas(2)', 6)": 'aa57558f85a109318e3e33e83638e5511b8ed0434c398ce5de343d8b99c66b46',
    "build_lower('kipas(2)', 7)": 'b0717e3e67c1838aee76c89a9794078a8a912012e148337ba60f18f5d716cd63',
    "build_lower('kipas(2)', 8)": '7e33fd22fae2322071cd94f196cb401897d3788be624800022dbddab765a4ab1',
    "build_lower('kipas(2)', 9)": 'cdd9726df81b1b81f2d4467bd08a48bace5d288991ecd715dbda9726d5778ad6',
    "build_lower('kipas(3)', 1)": '6a08cb3f3b2c00542139b6141ef569733e4756b2d5564d65311cd2818bc0ef81',
    "build_lower('kipas(3)', 2)": '4d101496fda7178318f413e2a43aafc16356eac2a412ca791d969076c9f4e64e',
    "build_lower('kipas(3)', 3)": '3e21bfe12751ce01a633093b5d51648a4b2cafe1902030d6da76373f13c9a457',
    "build_lower('kipas(3)', 4)": 'b90586f499e978aa277d8a7c3d5b26604bc0adbea09ef9dfa4be4f3417130ed2',
    "build_lower('kipas(3)', 5)": '47421a898899ecb7dc2305a09d88bfec40d9b6cd21d0beae800b96cc917b3f66',
    "build_lower('kipas(3)', 6)": '8b4c548defe990e96a50575cb4fa5e961df57961a31159644b22c15267d5a193',
    "build_lower('kipas(3)', 7)": 'd7ec068d87c3cded92232a7defbf69aa27e7c97863e536ea1da86df0c3923030',
    "build_lower('kipas(3)', 8)": 'd14ea827fb26cf51caadc73817ec98feb5844ef680a6e18fa30dc43717374ced',
    "build_lower('kipas(3)', 9)": '2721446a7ccd21713c049b84de589777ce3209db39f5961bb5fbc9107d06f16c',
    'build_mixed(1, 0)': 'bbf0f2866200add5a26d13981ac263214c5ab634950dd41dfb3498065ec1d579',
    'build_mixed(1, 1)': '95d2e69f18e94c053961828ef0be15ab30643a53da34d050448416726bc10130',
    'build_mixed(2, 0)': '9d65b6088b4bfd4ae729b7b9614534823a7f85d043dd93c46624831e36b39299',
    'build_mixed(2, 1)': 'bcf308e060a9d73cbbf54e2360338193bdce6e28e15e87568dd94ace5aa21c58',
    'build_mixed(2, 2)': '4d101496fda7178318f413e2a43aafc16356eac2a412ca791d969076c9f4e64e',
    'build_mixed(3, 0)': '8d149e39f514d08b8a6b18e0cbf588c67dde4c275d44f0cab3693a8905cc4ab0',
    'build_mixed(3, 1)': '7114fbc85b66f963f8c196926ab5c2661e45e6dac0157891f6abc0f8d1dd3bc0',
    'build_mixed(3, 2)': 'd18019ef68f18f65d0a449247d143c448a056f4299339b149a605908415581fd',
    'build_mixed(3, 3)': '5415560feba3f9c8d86795c2ce1194a8897d6c809af50659b4a730799ec3c908',
    'build_mixed(4, 0)': '7311837bb99c6e074f4cd01a30c9beef27d9f59135e228fc342f60eedef85016',
    'build_mixed(4, 1)': '99cbdd9581c6ad0e6e4d97fb1fdff52ce60890a0750f8fa270d4e986cd52e2ae',
    'build_mixed(4, 2)': 'bbbdd872bd30df9dce736378924717b5cabb8048233ded68ab3ab772bb5904f3',
    'build_mixed(4, 3)': 'afabb750593341f33d47bd461e747496a32b81881d74fbff63c91231a237be6d',
    'build_mixed(4, 4)': '0ff7a18074f05f27637ea9f8df30655a8df76d502870cb77462384b4b93a76dd',
    'build_mixed(5, 0)': '6a438703f647c1f4c2cc3278a41bdbb8006d2bd0ec96cee6e08eaedf3cb8ad22',
    'build_mixed(5, 1)': 'a79f8a9918754c22f2eeb74ee95ddf3512e65dd970cf561db59c79f3e2121331',
    'build_mixed(5, 2)': 'ebefa2219bc8be446300d4e62e42f5ea00aa40439f3cc975efa93ff6b070fa0f',
    'build_mixed(5, 3)': 'd6f4c22095069abb72512fb2a95e3b9d9264b196fb35688b1221b79e42189a1c',
    'build_mixed(5, 4)': '948463e669224e4b97afbde2c1aae19f8edf744b7b03bb083ca0edfcd2bcbf24',
    'build_mixed(5, 5)': 'abd18507880b297292ae7ffa62e38ba27790f83ec55407b7061427adccd39ae1',
    'build_mixed(6, 0)': '87b020607665f4b1d57cb921cf38431aa262fc6b595825502d876fd260d2e766',
    'build_mixed(6, 1)': '19ce32aab643fe7ee88a89dbced2a8062ab6f2aaea0562cff2078748ea4bdff9',
    'build_mixed(6, 2)': 'e13f1a493412fe868aa640bf4ea4bf111a856f1495d1f7072217f0065acc4b29',
    'build_mixed(6, 3)': '4411e3eb0ac9f190efee8c27c33a990919086b50d35c904298a7ac20d5b75a57',
    'build_mixed(6, 4)': 'a89a9134f8d16581f90571a56f8ced6f0edc431377336cb24c783bcdbd652ffa',
    'build_mixed(6, 5)': '67e9bc582dbac5a40f40da5fa0580ef250081036308887766adb6c75646dc46c',
    'build_mixed(6, 6)': '6082f9d7c8d1c9fd9692a997696821e454310f553373fbc0aea7f15cc73c6430',
    'build_mixed(7, 0)': '3a9bf00c21828eb9696cd3fe538f7cedcaa614b448cf7ca75e576717960cae4b',
    'build_mixed(7, 1)': 'd71f92ad59c8351fc6670694fce76136d7b954868d39e34fd07acf2f40b09afe',
    'build_mixed(7, 2)': '4947167d7522558f47e5874f5383d8b10a42997453ec7647e1bc32e831388d61',
    'build_mixed(7, 3)': '27a57e73b99d978946d32baaf66efb45c1eefeb599587716eea19b2fd6300f80',
    'build_mixed(7, 4)': 'd4dc2c96cc354e199b52ff06e47e7c63643af31e32d7a66bf31062ce9c6b2f52',
    'build_mixed(7, 5)': '4624e6e883354e479af6f4bb82e1418ce9d440592b708144fde51d3982535f91',
    'build_mixed(7, 6)': 'efb1c6128540f892160c95f0cdb861361a6cf0f4a23e97d3367ee6df478f6a3d',
    'build_mixed(7, 7)': '50d4b00cfd0c127118ced284ca8f56f02e5eed39d3332a86842ac06479f9d24b',
    'build_mixed(8, 0)': '60d5116b5ffd778aecb452eb68a806bead56c14be7547a474bb5f4515f62e66a',
    'build_mixed(8, 1)': 'ab9e1b5c882b472592cd940cd303fbfd4df4774118a3917ff0f4b63c368999ad',
    'build_mixed(8, 2)': '70fb12d3ee4ce32f9df6421adaec9d7a08f86b655cba999c89df6cfd878c4047',
    'build_mixed(8, 3)': 'a23f781abf9be98826c54edeaa162101fbd7a81abc68cdb7b2e4f4124bada4ec',
    'build_mixed(8, 4)': '347c91e0e77cf81dc670ba167f817288f5aed4706bf9550ea25f340e8bd26ec3',
    'build_mixed(8, 5)': '0ffcd90de1bda4f38e081bf16b607431d457d16b6efea4218d0ce680b21fc513',
    'build_mixed(8, 6)': 'baa256392fe0817f39bbc58e5707e140c17929c2ad572b79d4495ebf24333884',
    'build_mixed(8, 7)': '5a2357756a85afc2a955b1ad2d54ea3006529bb802f9611a8e032dd1277dea82',
    'build_mixed(8, 8)': '67ec6deb25e1f558c4bf7d73c8abeea90924241d6daad363621fea0ddceefe6a',
    'build_mixed(9, 0)': '1ec050495eb7afc2cc7f2615fd87e2fc3f641fb27850cb4486c13a6f69b31ff9',
    'build_mixed(9, 1)': '15f8659def2066f90754b57f9a905c403bdd5a4f0304c10c3265dda861ce4c18',
    'build_mixed(9, 2)': 'a3c828259df6e0c87d39d4f22d0499f8cc5042612ee13ded964cd0942b7d3607',
    'build_mixed(9, 3)': '74328991835137f0d0ca5460bfb251a8a045fbeac63f6d0db1da136b37973aae',
    'build_mixed(9, 4)': 'e3355cc66881f420b69c4bd0ada27440faf9ec42874b54f76b175266149071c7',
    'build_mixed(9, 5)': '6723ea19f4f42209d97c454c719cc35b5efdd71c9b3346687253b74bfd261a51',
    'build_mixed(9, 6)': '84e2769807fe3d74abd5fc1a9040d9f3fcc74e2d73ee0771683f919790fe4281',
    'build_mixed(9, 7)': '15e3e01161e5f6fcf94f96ef39d970401ceccec31979337d6f898febd6eb572f',
    'build_mixed(9, 8)': 'f0dd4f0efb56224902f004fededc2c65a5cb1569e29515cba851eb04936857de',
    'build_mixed(9, 9)': '8b7fd6cff28ca8a049b848cd023a6f8a3f71d5ec3a00f46afc1df46680341bfa',
    'build_mixed(10, 0)': 'a8fc568ab65af443fa64d77f57c44453417e9bd24af4dd43d17b8f83d6b0a4eb',
    'build_mixed(10, 1)': 'a5e45e3dadf1aa960630aad9db129573ecaf67df9a1d91b1b61904ad3410914b',
    'build_mixed(10, 2)': '6fd7d2140aa5ce06098c3c4ab766509d906ad71db622be376581663b7a4868cc',
    'build_mixed(10, 3)': 'e0e77f1e74e480ea9cdab8822fdc689c1fffa28570efe824ae53b6bd008d41e6',
    'build_mixed(10, 4)': '635b99d46b45032630155dcb0f49e87c34e283319682dc764f6d9e87e783ae3c',
    'build_mixed(10, 5)': 'deed102c8bdb849f119f2ecec9e3b02f41e96fcd456e18337b31b1af1dc444e4',
    'build_mixed(10, 6)': '3dfdeaaafdc48c00c66a314f38384a6b5e670356cc8cd90a8b686574fe973ca4',
    'build_mixed(10, 7)': 'a4c22313af3e972a3dd1c833e3b17d191b2bc172a8ac560fa71cbd82d0674aba',
    'build_mixed(10, 8)': '47d3acf1117a29daddce4a3f85ac4b0923035c79af886670d25be5b5dda24718',
    'build_mixed(10, 9)': '3104b14f6656890c747953ee1d4bf2f05381072afb1a161384db60099bec7ec4',
    'build_mixed(10, 10)': 'c69946bd5e130a6b344e1841bb48238b359fe22344bd4db87ebcabfdc37ae90f',
    'build_kipas_aux(2, 4, 3)': 'f762f485979401e9976b91ed762175df1d587f4ad70babd990ad910cf4f15e55',
    'build_kipas_aux(2, 4, 4)': '06710cc9ed1ca1ac5824f7717b4e332e1a809c6ac275aade01bc8b5c62966574',
    'build_kipas_aux(2, 6, 5)': 'd18e111b4d51a0bfcdde46c3d303254d2a0d43e91471d532ebb4a794b833fbea',
    'build_kipas_aux(2, 6, 6)': 'e41e1b01ba65aab78773d5c3bf2a683e4aac7dfa4632e31bae0bcbdd26c7fa8e',
    'build_kipas_aux(2, 8, 7)': '443661015ec551e82e0fa58e56367f9b03fb807e69ddbd3e3f6b274fbe2f289a',
    'build_kipas_aux(2, 8, 8)': 'c3bbf40263b221b3ca6d5d06e5c5887f137e45efa8961c30d8b245e7b9a88d9f',
    'build_kipas_aux(4, 4, 3)': 'd18019ef68f18f65d0a449247d143c448a056f4299339b149a605908415581fd',
    'build_kipas_aux(4, 4, 4)': 'bbbdd872bd30df9dce736378924717b5cabb8048233ded68ab3ab772bb5904f3',
    'build_kipas_aux(4, 6, 5)': '948463e669224e4b97afbde2c1aae19f8edf744b7b03bb083ca0edfcd2bcbf24',
    'build_kipas_aux(4, 6, 6)': 'a89a9134f8d16581f90571a56f8ced6f0edc431377336cb24c783bcdbd652ffa',
    'build_kipas_aux(4, 8, 7)': 'efb1c6128540f892160c95f0cdb861361a6cf0f4a23e97d3367ee6df478f6a3d',
    'build_kipas_aux(4, 8, 8)': 'baa256392fe0817f39bbc58e5707e140c17929c2ad572b79d4495ebf24333884',
    'build_kipas_aux(6, 4, 3)': 'e09f57f54c83278d612bb2e52fa778cd7207a784c73f4ba833edcd444d6fdb79',
    'build_kipas_aux(6, 4, 4)': 'f973c31be32b0c3574fc9614333580e54e875229ec890f079172f2edc5c65b73',
    'build_kipas_aux(6, 6, 5)': '1bf8937a4834d8a7dceabf2a9f2a56c4d0eef0eb594504dbf25bb4456d28899d',
    'build_kipas_aux(6, 6, 6)': '14d8f6e0350ed70665149145f73341a42652893c23a8b562e9b6167b571d7018',
    'build_kipas_aux(6, 8, 7)': '24bde76538697a95fe3a9841696facbaae5038eded4f84c18e97125eec18e913',
    'build_kipas_aux(6, 8, 8)': '26e12bd37cd827289855a28fb50bfe1dffe4fe5a8889fa4280abbeac576e9f4f',
    'build_kipas_aux(8, 4, 3)': '7e794d8bc85a44d6f30c9fdf8bb83ec6daeeb318ce8237cd15951d9c5ff7d1e4',
    'build_kipas_aux(8, 4, 4)': '841ddcab96accfc289474fa2c476d73377ca1eaa01cb33d6733517890550138f',
    'build_kipas_aux(8, 6, 5)': '7e0bba6b989539a856af02d5950df78ac7b7f9fef21e5a41ab29e9bc8da742d3',
    'build_kipas_aux(8, 6, 6)': '2b35a3c0aade18d61e45214f1c545620e54e1108b69820237b9d92eced1b5689',
    'build_kipas_aux(8, 8, 7)': 'dc9c50c8a4efacb49914cc5d5a8c5bfa573a233e71fe6880a864a24646874f12',
    'build_kipas_aux(8, 8, 8)': '527788e5b5334255d774dd87454fdd382b0dd75ec4c7d7bbecec717aa349c6cf',
}


def _builder_grid():
    for target in ("h1", "h2", "h3", "h4", "h5", "h6", "h10", "h11", "h12",
                   "kipas(2)", "kipas(3)"):
        for k in range(1, 10):
            yield build_lower, (target, k)
    for k in range(1, 11):
        for s in range(k + 1):
            yield build_mixed, (k, s)
    for m in (2, 4, 6, 8):
        for k in (4, 6, 8):
            for top in (k - 1, k):
                yield build_kipas_aux, (m, k, top)


def test_builder_bytes_are_pinned():
    got = {}
    for build, args in _builder_grid():
        c = build(*args, certify=False)
        digest = hashlib.sha256(b"%d %d " % (c.n, c.k) + c.colors).hexdigest()
        got[f"{build.__name__}{args!r}"] = digest
    assert got.keys() == _BUILDER_DIGESTS.keys()
    for key, want in _BUILDER_DIGESTS.items():
        assert got[key] == want, key
