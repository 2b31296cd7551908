import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gallaikit import formulas
from gallaikit.formulas import (
    MAX_K,
    MIXED_R2_TABLE,
    R2_TABLE,
    THEOREMS,
    MissingR2Error,
    RangeViolationError,
    UnsupportedTargetError,
    case3_recurrence_check,
    check_inequalities_star,
    check_inequalities_star2,
    conjecture_kipas,
    fan_param,
    g_value,
    gr_mixed_value,
    gr_value,
    ramsey_mixed,
    ramsey_two,
    w_value,
)


def test_two_color_table_contents():
    assert ramsey_two("h10") == 7
    assert ramsey_two("kipas(2)") == 6
    assert ramsey_two("kipas(3)") == 10
    assert ramsey_two("kipas(4)") == 10
    assert ramsey_two("h12") == 10
    for cid in ("h1", "h2", "h3", "h4"):
        assert ramsey_two(cid) == 9
    for cid in ("h5", "h6", "h11"):
        assert ramsey_two(cid) == 10
    assert ramsey_mixed("kipas(4)", "path(3)") == 5


def test_two_color_table_is_closed_world():
    with pytest.raises(UnsupportedTargetError):
        ramsey_two("h7")
    with pytest.raises(UnsupportedTargetError):
        ramsey_two("kipas(5)")


def test_ramsey_two_checks_a_supplied_r2():
    assert ramsey_two("kipas(4)", 10) == ramsey_two("h12", 10) == 10
    with pytest.raises(RangeViolationError, match="= 10"):
        ramsey_two("h12", 14)
    with pytest.raises(RangeViolationError, match="fan"):
        ramsey_two("h10", 7)
    # unlisted fan: 2m+1 .. 2(m^2-m+1), with no pattern size cap
    assert ramsey_two("kipas(5)", 11) == 11 and ramsey_two("kipas(5)", 42) == 42
    assert ramsey_two("kipas(20)", 50) == 50
    for bad in (10, 43):
        with pytest.raises(RangeViolationError, match="11 <= r2 <= 42"):
            ramsey_two("kipas(5)", bad)
    # the stored fans sit inside the same bounds
    for m in (2, 3, 4):
        assert 2 * m + 1 <= ramsey_two(f"kipas({m})") <= 2 * (m * m - m + 1)


def test_fan_param():
    assert fan_param("kipas(4)") == 4
    assert fan_param("h12") == 4
    assert fan_param("kipas(2)") == 2
    assert fan_param("h10") is None
    assert fan_param("h1") is None
    assert fan_param("kipas(20)") == 20  # a number, not a pattern: no size cap


def test_gr_at_one_color_is_the_pattern_order():
    for cid in ("h1", "h5", "h10", "h11", "kipas(4)"):
        assert gr_value(cid, 1).value == 5
    assert gr_value("kipas(2)", 1).value == 3


def test_gr_at_two_colors_matches_the_table():
    for cid in THEOREMS:
        assert gr_value(cid, 2).value == ramsey_two(cid), cid


def test_h10_tower_values():
    # even levels multiply by five, odd levels double the previous even one
    assert [gr_value("h10", k).value for k in range(1, 8)] == [
        5, 7, 11, 26, 51, 126, 251,
    ]


def test_triangle_fan_values():
    assert [gr_value("kipas(2)", k).value for k in range(1, 8)] == [
        3, 6, 11, 26, 51, 126, 251,
    ]


def test_even_fan_values():
    assert [gr_value("kipas(4)", k).value for k in range(1, 7)] == [
        5, 10, 21, 50, 101, 250,
    ]
    assert [gr_value("h12", k).value for k in (2, 3, 4)] == [10, 21, 50]


def test_odd_fan_values():
    assert [gr_value("kipas(3)", k).value for k in range(1, 7)] == [
        4, 10, 19, 46, 91, 226,
    ]


def test_quadrilateral_family_values():
    assert [gr_value("h1", k).value for k in (1, 2, 3, 4, 5)] == [5, 9, 21, 41, 101]
    assert [gr_value("h5", k).value for k in (1, 2, 3, 4, 5)] == [5, 10, 21, 46, 101]
    assert gr_value("h11", 3).value == 21
    assert gr_value("h11", 4).value == 46


def test_gr_value_refuses_uncovered_targets(monkeypatch):
    for cid in ("h7", "h8", "h9"):
        with pytest.raises(UnsupportedTargetError):
            gr_value(cid, 3)
    with pytest.raises(UnsupportedTargetError):
        gr_value("kipas(6)", 3)
    # a two-color value alone makes no theorem: with R2(kipas(5)) and R2(h7)
    # stored, gr_value still refuses both, and the other consumers read them
    monkeypatch.setattr(formulas, "R2_TABLE", {**R2_TABLE, "kipas(5)": 12, "h7": 14})
    with pytest.raises(UnsupportedTargetError, match="only conjectured for kipas"):
        gr_value("kipas(5)", 3)
    with pytest.raises(UnsupportedTargetError, match="no Gallai-Ramsey theorem for h7"):
        gr_value("h7", 3)
    assert conjecture_kipas(5, 3).value == 26
    assert g_value("h7", 3) == 26


def test_g_value_is_gr_minus_one():
    for cid in THEOREMS:
        for k in range(1, 9):
            assert g_value(cid, k) == gr_value(cid, k).value - 1, (cid, k)


def test_g_value_with_user_supplied_r2():
    # join branch activates when doubling beats the five-part route
    assert g_value("kipas(6)", 3, r2=18) == max(2 * 17, 30)
    assert g_value("kipas(6)", 4, r2=13) == 13 + 3 * (25 - 5) - 1
    with pytest.raises(MissingR2Error):
        g_value("kipas(6)", 3)


def _three_closed_forms(cid, k, r2v):
    # one closed form per family (h10, fans, five-vertex targets): the
    # oracle for g_value's one general bound
    m = fan_param(cid)
    if cid == "h10":
        if k <= 2:
            return (4, 6)[k - 1]
        return 5 ** (k // 2) if k % 2 == 0 else 2 * 5 ** ((k - 1) // 2)
    if m is not None:
        if k == 1:
            return m
        if k % 2 == 0:
            if m % 2:
                return (r2v - 1) * 5 ** ((k - 2) // 2)
            return r2v + (m // 2) * (5 ** (k // 2) - 5) - 1
        return max(2 * (r2v - 1), 5 * m) * 5 ** ((k - 3) // 2)
    if k == 1:
        return 4
    if k % 2 == 0:
        return (r2v - 1) * 5 ** ((k - 2) // 2)
    return 4 * 5 ** ((k - 1) // 2)


def test_g_value_matches_the_three_closed_forms():
    for cid, r2v in R2_TABLE.items():
        for k in range(1, 13):
            assert g_value(cid, k) == _three_closed_forms(cid, k, r2v), (cid, k)
    for m in range(5, 9):
        for r2 in range(2 * m + 1, 2 * (m * m - m + 1) + 1):
            for k in range(1, 13):
                want = _three_closed_forms(f"kipas({m})", k, r2)
                assert g_value(f"kipas({m})", k, r2) == want, (m, r2, k)


def test_w_values_small_grid():
    assert w_value(3, 0) == 2
    assert w_value(3, 1) == 4
    assert w_value(3, 2) == 10
    assert w_value(4, 3) == 20
    assert w_value(5, 4) == 50
    assert w_value(5, 3) == 20
    for k in range(2, 8):
        assert w_value(k, k) == g_value("kipas(4)", k)


def test_w_value_range_checks():
    with pytest.raises(RangeViolationError):
        w_value(3, 4)
    with pytest.raises(RangeViolationError):
        w_value(0, 0)


def test_k_over_the_bound_is_refused_before_any_power_is_computed():
    # at k = 10^8 each closed form would compute 5^(5 * 10^7); the bound on k
    # refuses it at once, in every entry point that grows a power of 5
    huge = 10 ** 8
    for call in (lambda: g_value("h1", huge), lambda: g_value("h1", huge + 1),
                 lambda: gr_value("kipas(4)", huge), lambda: w_value(huge, huge - 1),
                 lambda: w_value(huge, huge - 2), lambda: w_value(huge, huge),
                 lambda: gr_mixed_value(huge, 3 * huge // 4),
                 lambda: conjecture_kipas(5, huge, r2=11),
                 lambda: g_value("h1", MAX_K + 1), lambda: w_value(MAX_K + 1, 2)):
        with pytest.raises(RangeViolationError, match=f"^need 1 <= k <= {MAX_K}, got "):
            call()
    # every branch still computes its value at the bound itself
    top = 5 ** (MAX_K // 2 - 1)
    assert g_value("h1", MAX_K) == 8 * top  # even k: (R2-1) 5^((k-2)/2)
    assert g_value("h1", MAX_K - 1) == 20 * top // 5  # odd k: 5|H| 5^((k-3)/2)
    assert g_value("kipas(4)", MAX_K) == 9 + 2 * (5 * top - 5)  # even fan: R2-1 + (m/2)(5^(k/2)-5)
    assert w_value(MAX_K, MAX_K - 2) == 2 * top  # s even: 2 * 5^(s/2)
    assert w_value(MAX_K, MAX_K - 1) == 4 * top  # s odd: 4 * 5^((s-1)/2)
    assert conjecture_kipas(4, MAX_K).value == g_value("kipas(4)", MAX_K) + 1


def test_gr_mixed_is_w_plus_one():
    for k in range(1, 8):
        for s in range(0, k + 1):
            assert gr_mixed_value(k, s).value == w_value(k, s) + 1


def test_mixed_table():
    assert MIXED_R2_TABLE[("kipas(4)", "path(3)")] == 5
    assert gr_mixed_value(2, 1).value == 5


def test_conjecture_matches_theorems_for_stored_fans():
    for m in (2, 3, 4):
        for k in range(1, 11):
            assert conjecture_kipas(m, k).value == gr_value(f"kipas({m})", k).value, (m, k)


def test_conjecture_is_fan_size_plus_one():
    for m in range(5, 9):
        for k in range(1, 7):
            for r2 in (2 * m + 1, 5 * m):
                assert conjecture_kipas(m, k, r2).value == g_value(
                    f"kipas({m})", k, r2) + 1, (m, k, r2)
    # beyond the pattern size cap, so canonical_id must stay out of the path
    assert conjecture_kipas(20, 3, r2=50).value == 101


def test_conjecture_needs_r2_for_unstored_fans():
    with pytest.raises(MissingR2Error):
        conjecture_kipas(6, 3)
    v = conjecture_kipas(6, 3, r2=18)
    assert v.value == 35


def test_formula_values_are_pinned():
    # every stated value and branch tag: the theorems at k = 1..9, the mixed
    # family for 0 <= s <= k <= 9, and the conjecture for five fans; r2 = 12
    # is the R2(kipas(5)) that exhaustion gives, and r2 = 15 agrees with the
    # witness bound R2(kipas(6)) >= 15
    lines = [f"gr_value({cid}, {k}) = {gv.value} {gv.case_tag}"
             for cid in sorted(formulas.THEOREMS) for k in range(1, 10)
             for gv in [gr_value(cid, k)]]
    lines += [f"gr_mixed_value({k}, {s}) = {gv.value} {gv.case_tag}"
              for k in range(1, 10) for s in range(k + 1) for gv in [gr_mixed_value(k, s)]]
    lines += [f"conjecture_kipas({m}, {k}, {r2}) = {gv.value} {gv.case_tag}"
              for m, r2 in ((2, None), (3, None), (4, None), (5, 12), (6, 15))
              for k in range(1, 10) for gv in [conjecture_kipas(m, k, r2)]]
    assert len(lines) == 207
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == "2a325aa38766957239209fef87f659ecca2b3cfdbcddaa0e52a9703601d21ab1"


def test_case_tags_distinguish_branches():
    assert gr_value("h10", 4).case_tag != gr_value("h10", 5).case_tag
    assert gr_value("kipas(3)", 4).case_tag != gr_value("kipas(4)", 4).case_tag


def test_inequality_sweep_star():
    for cid in ("h1", "h2", "h3", "h4", "h5", "h6", "h10", "h11"):
        for k in range(3, 41):
            assert check_inequalities_star(cid, k), (cid, k)


def test_inequality_sweep_star2():
    for k in range(3, 41):
        for s in range(1, k + 1):
            assert check_inequalities_star2(k, s), (k, s)


def test_case3_recurrence():
    assert case3_recurrence_check(4, 20)
    assert case3_recurrence_check(2, 20)


@given(st.integers(min_value=3, max_value=13))
def test_h_family_grows_by_five_every_two_levels(k):
    for cid in ("h1", "h2", "h5", "h6", "h11"):
        assert g_value(cid, k) == 5 * g_value(cid, k - 2)


@given(st.integers(min_value=4, max_value=14).filter(lambda k: k % 2 == 0))
def test_even_fan_even_k_closed_form(k):
    assert g_value("kipas(4)", k) == 10 + 2 * (5 ** (k // 2) - 5) - 1
    assert g_value("kipas(2)", k) == 6 + (5 ** (k // 2) - 5) - 1
