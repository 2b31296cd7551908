"""Closed forms: two-color Ramsey constants, lower-bound construction sizes,
and Gallai-Ramsey values for the supported patterns.

g_value(target, k) is the number of vertices of the best known k-coloring
avoiding a monochromatic target (the builders in construct reproduce these
sizes exactly); gr_value is that plus one.  It is one closed form, the
general lower bound for chi(H) = 3 in |H|, R2 and whether H is an even fan;
h10 takes the kipas(2) tower from k = 3 on.  w_value / gr_mixed_value cover
the mixed family where colors 1..s forbid the fan kipas(4) and the remaining
colors forbid path(3).
"""

from __future__ import annotations

from ._record import Record
from .patterns import _split_id, canonical_id, resolve


class FormulaError(Exception):
    pass


class UnsupportedTargetError(FormulaError):
    pass


class RangeViolationError(FormulaError):
    pass


class MissingR2Error(UnsupportedTargetError):
    pass


# two-color Ramsey numbers of the supported targets
R2_TABLE: dict[str, int] = {
    "h1": 9,
    "h2": 9,
    "h3": 9,
    "h4": 9,
    "h5": 10,
    "h6": 10,
    "h10": 7,
    "h11": 10,
    "h12": 10,
    "kipas(2)": 6,
    "kipas(3)": 10,
    "kipas(4)": 10,
}

# mixed two-target Ramsey numbers, keyed by sorted id pair
MIXED_R2_TABLE: dict[tuple[str, str], int] = {
    ("kipas(4)", "path(3)"): 5,
}

# the values certified by exhaustion, as (per_color, require_gallai, value):
# no valid coloring of K_value exists, and one of K_(value-1) does.  Every
# R2 and mixed R2 value, then GR_3(h10) = GR_3(K_3) = 11 (kipas(2) is K_3).
# Acceptance criterion 9, CI's extremal step and the SAT script read this.
ANCHORS: tuple[tuple[tuple[str, ...], bool, int], ...] = (
    *(((cid, cid), False, r2) for cid, r2 in R2_TABLE.items()),
    *((pair, False, r2) for pair, r2 in MIXED_R2_TABLE.items()),
    (("h10",) * 3, True, 11),
    (("kipas(2)",) * 3, True, 11),
)


class GrValue(Record):
    value: int
    case_tag: str

    def __post_init__(self) -> None:
        if self.value < 3:
            raise FormulaError(f"implausible Gallai-Ramsey value {self.value}")


def _check_k(k: int) -> None:
    if k < 1:
        raise RangeViolationError(f"need k >= 1, got {k}")


def fan_param(target_id: str) -> int | None:
    """m when the id denotes a fan (h12 counts as kipas(4)); m is not size-capped."""
    family, arg = _split_id(target_id)
    if family == "h12":
        return 4
    return arg if family == "kipas" else None


def ramsey_two(target: str, r2: int | None = None) -> int:
    """Two-color Ramsey number R2 of the target; the one place r2 is checked.

    With r2 None, the stored R2_TABLE value (MissingR2Error for a fan
    without one).  A caller's r2 is taken only for a fan kipas(m) (h12 is
    kipas(4); m is not size-capped): it must equal the stored value when
    there is one, and otherwise lie in 2m+1 .. 2(m^2-m+1).  The floor is
    the Chvatal-Harary bound (chi-1)(|H|-1)+1.  The ceiling: on
    2 R(P_m, K_{m+1}) vertices some vertex has R(P_m, K_{m+1}) neighbors in
    one color, and they hold a P_m in that color (a fan with the vertex) or
    a K_{m+1} in the other; R(P_m, K_{m+1}) = m(m-1)+1 by Chvatal's
    tree-versus-clique theorem.
    """
    family, arg = _split_id(target)
    cid = family if arg is None else f"{family}({arg})"
    m = fan_param(cid)
    stored = R2_TABLE.get(cid)
    if r2 is None:
        if stored is not None:
            return stored
        if m is not None:
            raise MissingR2Error(f"R2({cid}) is unknown; pass r2")
        raise UnsupportedTargetError(f"no stored two-color Ramsey value for {cid}")
    if m is None:
        raise RangeViolationError(f"r2 applies only to a fan target, got {cid}")
    if stored is not None:
        if r2 != stored:
            raise RangeViolationError(f"R2_TABLE stores R2({cid}) = {stored}; got r2={r2}")
        return r2
    low, high = 2 * m + 1, 2 * (m * m - m + 1)
    if not low <= r2 <= high:
        raise RangeViolationError(f"need {low} <= r2 <= {high} for {cid}, got {r2}")
    return r2


def ramsey_mixed(target_a: str, target_b: str) -> int:
    key = tuple(sorted((canonical_id(target_a), canonical_id(target_b))))
    if key not in MIXED_R2_TABLE:
        raise UnsupportedTargetError(f"no stored mixed Ramsey value for {key}")
    return MIXED_R2_TABLE[key]


def _tower_seed(cid: str, k: int) -> str:
    """The target whose tower gives the lower bound for cid at k colors.

    Any triangle-free color class is h10-free, and from k = 3 on the
    triangle (kipas(2)) tower is the larger one.
    """
    return "kipas(2)" if cid == "h10" and k >= 3 else cid


def _size(h: int, even_fan: bool, k: int, r2v: int) -> int:
    """General lower bound for chi(H) = 3, with h = |H| - 1 and R2 = r2v."""
    if k == 1:
        return h
    if k % 2:
        return max(2 * (r2v - 1), 5 * h) * 5 ** ((k - 3) // 2)
    if even_fan:
        return r2v - 1 + (h // 2) * (5 ** (k // 2) - 5)
    return (r2v - 1) * 5 ** ((k - 2) // 2)


def g_value(target: str, k: int, r2: int | None = None) -> int:
    """Vertex count of the largest known k-coloring avoiding the target."""
    _check_k(k)
    cid = canonical_id(target)
    ramsey_two(cid, r2)  # rejects an r2 the target does not take
    seed = _tower_seed(cid, k)
    m = fan_param(seed)
    h = resolve(seed).m - 1 if m is None else m
    return _size(h, m is not None and m % 2 == 0, k, ramsey_two(seed, r2))


def w_value(k: int, s: int) -> int:
    """Largest known coloring avoiding kipas(4) in colors 1..s, path(3) above."""
    _check_k(k)
    if s < 0 or s > k:
        raise RangeViolationError(f"need 0 <= s <= k, got s={s} k={k}")
    if s == 0:
        return 2
    if s == k:
        return g_value("kipas(4)", k)
    if s % 2 == 0:
        return 2 * 5 ** (s // 2)
    return 4 * 5 ** ((s - 1) // 2)


def gr_value(target: str, k: int) -> GrValue:
    """Gallai-Ramsey number of a supported target; always g_value + 1."""
    _check_k(k)
    cid = canonical_id(target)
    m = fan_param(cid)
    if cid == "h10":
        family = "h10"
    elif m is not None:
        family = f"fan(m={m})"
        if f"kipas({m})" not in R2_TABLE:
            raise UnsupportedTargetError(
                f"only conjectured for {cid}; use conjecture_kipas with r2"
            )
    elif cid in R2_TABLE:
        family = "five-vertex"
    else:
        raise UnsupportedTargetError(f"no Gallai-Ramsey theorem for {cid}")
    if k == 1:
        tag = "k=1"
    elif k == 2:
        tag = "k=2"
    elif k % 2 == 0:
        tag = "even-k"
    else:
        tag = "odd-k"
    via = " via kipas(4)" if cid == "h12" else ""
    return GrValue(g_value(cid, k) + 1, f"{family}:{tag}{via}")


def gr_mixed_value(k: int, s: int) -> GrValue:
    """Gallai-Ramsey number for kipas(4) in colors 1..s, path(3) elsewhere."""
    value = w_value(k, s) + 1
    if s == 0:
        tag = "s=0"
    elif s == k:
        tag = "s=k:" + ("even" if k % 2 == 0 else "odd")
    else:
        tag = "s-even" if s % 2 == 0 else "s-odd"
    return GrValue(value, f"mixed:{tag}")


def conjecture_kipas(m: int, k: int, r2: int | None = None) -> GrValue:
    """Conjectured Gallai-Ramsey number of the fan kipas(m), any m >= 2.

    Matches the proved values for m in {2, 3, 4}.  For other m the two-color
    Ramsey number must be supplied; ramsey_two checks it.
    """
    if m < 2:
        raise RangeViolationError(f"fan needs m >= 2, got {m}")
    _check_k(k)
    if k == 1:
        tag = "k=1"
    elif k % 2:
        tag = "odd-k"
    else:
        tag = "even-k,odd-m" if m % 2 else "even-k,even-m"
    size = _size(m, m % 2 == 0, k, ramsey_two(f"kipas({m})", r2))
    return GrValue(size + 1, f"conjecture:{tag}")


_STAR_TARGETS = ("h1", "h2", "h3", "h4", "h5", "h6", "h10", "h11")


def check_inequalities_star(target: str, k: int) -> bool:
    """Growth inequalities the five-vertex size sequence must satisfy.

    Four clauses; the doubling clause starts at k=4 and the fifth-power
    clause at k=5 when the target is h10, both at k=3 otherwise.  The
    slack-plus-k clause applies everywhere, the doubled-plus-two clause only
    to h5, h6, h11.
    """
    cid = canonical_id(target)
    if cid not in _STAR_TARGETS:
        raise UnsupportedTargetError(f"inequalities cover {_STAR_TARGETS}, not {cid}")
    if k < 3:
        raise RangeViolationError(f"need k >= 3, got {k}")
    ok = g_value(cid, k) + 1 > g_value(cid, k - 1) + k + 1
    if cid != "h10" or k >= 4:
        ok = ok and g_value(cid, k) + 1 > 2 * g_value(cid, k - 1)
    if cid in ("h5", "h6", "h11"):
        ok = ok and g_value(cid, k) + 1 > 2 * g_value(cid, k - 1) + 2
    if cid != "h10" or k >= 5:
        ok = ok and g_value(cid, k) + 1 > 5 * g_value(cid, k - 2)
    return ok


def check_inequalities_star2(k: int, s: int) -> bool:
    """Growth inequalities for the mixed-family size table."""
    if k < 3:
        raise RangeViolationError(f"need k >= 3, got {k}")
    if s < 1 or s > k:
        raise RangeViolationError(f"need 1 <= s <= k, got s={s}")
    ok = w_value(k, s) + 1 > 2 * w_value(k, s - 1)
    ok = ok and w_value(k, s - 1) >= w_value(k - 1, s - 1) >= s + 1
    if s >= 2:
        ok = ok and w_value(k, s) + 1 > 4 * w_value(k - 1, s - 2) + w_value(k - 2, s - 2)
        ok = ok and w_value(k, s - 2) == w_value(k - 1, s - 2)
        ok = ok and w_value(k - 1, s - 2) >= w_value(k - 2, s - 2) >= 2
    return ok


def case3_recurrence_check(m: int, k_max: int, r2: int | None = None) -> bool:
    """Closed form vs assembly recurrence for even-m fans at even k.

    The even-k assembly adds four auxiliary towers of (m/2) * 5^((k-2)/2)
    vertices to the k-2 coloring, so g(k) = g(k-2) + 2m * 5^((k-2)/2).
    """
    if m < 2 or m % 2:
        raise RangeViolationError(f"need even m >= 2, got {m}")
    if k_max < 4 or k_max % 2:
        raise RangeViolationError(f"need even k_max >= 4, got {k_max}")
    cid = f"kipas({m})"
    for k in range(4, k_max + 1, 2):
        lhs = g_value(cid, k, r2)
        rhs = g_value(cid, k - 2, r2) + 2 * m * 5 ** ((k - 2) // 2)
        if lhs != rhs:
            return False
    return True
