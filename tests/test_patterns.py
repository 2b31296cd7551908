from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gallaikit.detect import are_isomorphic
from gallaikit.patterns import (
    PARAM_DIGITS,
    ParameterRangeError,
    Pattern,
    PatternError,
    TooLargeError,
    UnknownPatternError,
    _split_id,
    canonical_id,
    catalog,
    chromatic_number,
    complete_edges,
    independence_number,
    kipas_edges,
    make_pattern,
    path_edges,
    resolve,
)


def test_catalog_has_twelve_entries():
    assert len(catalog()) == 12
    assert [cid for cid, _ in catalog()] == [f"h{i}" for i in range(1, 13)]


def test_catalog_members_have_five_vertices_chi_three():
    for cid, p in catalog():
        assert p.m == 5, cid
        assert chromatic_number(p) == 3, cid


def test_catalog_pairwise_non_isomorphic():
    entries = catalog()
    for (ida, a), (idb, b) in combinations(entries, 2):
        assert not are_isomorphic(a, b), (ida, idb)


def test_h12_is_the_four_fan():
    assert are_isomorphic(resolve("h12"), resolve("kipas(4)"))


def test_two_fan_is_the_triangle():
    assert are_isomorphic(resolve("kipas(2)"), resolve("k3"))


def test_kipas_edge_shape():
    # hub 0 joined to a path on 1..m: m spoke edges + m-1 path edges
    for m in range(2, 7):
        edges = kipas_edges(m)
        assert len(edges) == 2 * m - 1
        hub_deg = sum(1 for a, b in edges if 0 in (a, b))
        assert hub_deg == m


def test_path_and_complete_edges():
    assert path_edges(1) == ()
    assert path_edges(3) == ((0, 1), (1, 2))
    assert complete_edges(4) == tuple(combinations(range(4), 2))


def test_resolve_normalizes_spelling():
    assert resolve("K3") == resolve("k3")
    assert canonical_id("K3") == canonical_id("k3")
    assert resolve("path(3)").m == 3


def test_resolve_rejects_unknown_ids():
    with pytest.raises(UnknownPatternError):
        resolve("h13")
    with pytest.raises(UnknownPatternError):
        resolve("gadget")


def test_parameter_ranges():
    with pytest.raises(ParameterRangeError):
        resolve("kipas(1)")
    with pytest.raises(ParameterRangeError):
        resolve("path(0)")


def test_huge_parameters_fail_closed():
    # int() refuses more than 4300 digits; the id is refused before that,
    # with PARAM_DIGITS digits once leading zeros are dropped
    for digits in (PARAM_DIGITS + 1, 4301, 5000):
        for pid in (f"kipas({'9' * digits})", f"path({'1' * digits})",
                    f"complete({'7' * digits})"):
            with pytest.raises(ParameterRangeError, match=f"has {digits} digits"):
                canonical_id(pid)
    assert canonical_id(f"kipas({'0' * 5000}4)") == "kipas(4)"
    assert canonical_id("kipas(0004)") == "kipas(4)"
    big = _split_id(f"kipas({'9' * PARAM_DIGITS})")[1]
    assert big == 10 ** PARAM_DIGITS - 1 and len(str(2 * (big * big - big + 1))) <= 4300
    with pytest.raises(TooLargeError):
        canonical_id(f"kipas({'9' * PARAM_DIGITS})")


def test_ids_are_ascii():
    # Arabic-Indic and fullwidth digits, and the Kelvin sign, which lower()
    # turns into k, are no pattern id
    for pid in ("kipas(\u0664)", "path(\uff13)", "complete(\u0663)", "\u212a3",
                "\u212aipas(4)", "h\u0661"):
        with pytest.raises(UnknownPatternError):
            canonical_id(pid)


def test_make_pattern_validates_edges():
    p = make_pattern(3, [(0, 1), (1, 2)])
    assert p.m == 3 and len(p.edges) == 2
    with pytest.raises(PatternError):
        make_pattern(2, [(0, 2)])
    with pytest.raises(PatternError):
        Pattern(3, frozenset({(1, 1)}), "loop")


def test_chromatic_number_basics():
    assert chromatic_number(resolve("path(4)")) == 2
    assert chromatic_number(resolve("k3")) == 3
    assert chromatic_number(make_pattern(4, complete_edges(4))) == 4
    assert chromatic_number(make_pattern(3, [])) == 1


def test_isomorphism_respects_relabeling():
    p = make_pattern(4, [(0, 1), (1, 2), (2, 3)])
    q = make_pattern(4, [(3, 2), (2, 1), (1, 0)])
    r = make_pattern(4, [(0, 2), (2, 1), (1, 3)])
    assert are_isomorphic(p, q)
    assert are_isomorphic(p, r)
    assert not are_isomorphic(p, make_pattern(4, [(0, 1), (1, 2), (0, 2)]))


@given(st.integers(min_value=2, max_value=6))
def test_kipas_is_path_plus_hub(m):
    spokes = {(0, v) for v in range(1, m + 1)}
    path = {(a + 1, b + 1) for a, b in path_edges(m)}
    assert set(kipas_edges(m)) == spokes | path


def test_independence_number_matches_subset_enumeration():
    patterns = [p for _, p in catalog()]
    patterns += [resolve(f"{fam}({t})") for fam in ("kipas", "path", "complete")
                 for t in range(2, 9)]
    patterns.append(make_pattern(4, [(0, 1)], "two isolated vertices"))
    for p in patterns:
        adj = p.adjacency()
        want = max(len(s) for r in range(p.m + 1) for s in combinations(range(p.m), r)
                   if all(b not in adj[a] for a, b in combinations(s, 2)))
        assert independence_number(p) == want, p.label
