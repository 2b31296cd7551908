"""Builders for the lower-bound colorings.

Everything here assembles edge colorings that avoid a monochromatic target
pattern in every color (or, for the mixed family, a fan in low colors and a
two-edge path in high colors) while staying rainbow-triangle-free.  Every
tower nests blow-ups of two-colored pentagons (_nest) and realizes a
closed-form size in formulas; every public builder certifies its output
with detect.verify before returning.
"""

from __future__ import annotations

from .coloring import EdgeColoring, _check_k, blowup, edge_list, join
from .decompose import color_neighbor_masks
from .detect import AvoidanceSpec, verify
from .formulas import RangeViolationError, _tower_seed, fan_param, g_value, ramsey_two, w_value
from .patterns import canonical_id, resolve

# node budget for extremal searches; generous for n <= 9 hosts
_SEARCH_NODE_CAP = 20_000_000

# the most vertices a builder materializes; a tower over it fails closed
VERTEX_BUDGET = 1 << 13


class ConstructionError(Exception):
    pass


class EqualColorsError(ConstructionError):
    pass


class ParityViolationError(ConstructionError):
    pass


class NoFixtureAndSearchFailedError(ConstructionError):
    pass


class CertificationError(ConstructionError):
    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


def _check_size(n: int, label: str) -> None:
    if n > VERTEX_BUDGET:
        raise RangeViolationError(
            f"{label} would have {n} vertices, over the budget of {VERTEX_BUDGET}"
        )


def _certify(c: EdgeColoring, spec: AvoidanceSpec, label: str) -> None:
    report = verify(c, spec)
    if not report.passed:
        raise CertificationError(f"{label} failed certification", report)


def mono_complete(n: int, color: int = 1, k: int | None = None) -> EdgeColoring:
    """Complete graph with every edge in one color."""
    if n < 1:
        raise RangeViolationError(f"need n >= 1, got {n}")
    if color < 1:
        raise RangeViolationError(f"need color >= 1, got {color}")
    if k is None:
        k = color
    return EdgeColoring(n, k, (color,) * (n * (n - 1) // 2))


def base_pentagon(cycle_color: int, chord_color: int) -> EdgeColoring:
    """K5 in two colors with no monochromatic triangle.

    The 5-cycle (i, i+1 mod 5) takes cycle_color, the five chords take
    chord_color; both color classes are 5-cycles.
    """
    if cycle_color == chord_color:
        raise EqualColorsError("cycle and chord colors must differ")
    if cycle_color < 1 or chord_color < 1:
        raise RangeViolationError("colors start at 1")
    k = max(cycle_color, chord_color)
    out = []
    for i, j in edge_list(5):
        on_cycle = (j - i) % 5 in (1, 4)
        out.append(cycle_color if on_cycle else chord_color)
    return EdgeColoring(5, k, out)


def _two_blocks() -> EdgeColoring:
    # color 1: two disjoint K4 blocks; color 2: the complete bipartite rest
    return join(mono_complete(4), mono_complete(4), 2)


def _rook_grid() -> EdgeColoring:
    # 3x3 grid; color 1 joins same row or same column.  Both color classes
    # are strongly regular (9,4,1,2): every edge lies in exactly one
    # triangle, so neither contains a K4 minus an edge.
    def shade(i: int, j: int) -> int:
        return 1 if i // 3 == j // 3 or i % 3 == j % 3 else 2

    return EdgeColoring(9, 2, tuple(shade(i, j) for i, j in edge_list(9)))


def _k4_plus_cone() -> EdgeColoring:
    # color 1: K4 on {0..3}; color 2: everything meeting {4,5}.  Color 2's
    # triangles all use both 4 and 5, leaving no disjoint same-color edge.
    return join(mono_complete(4), mono_complete(2, 2), 2)


_SEEDS = {
    "kipas(2)": lambda: base_pentagon(1, 2),
    "h10": _k4_plus_cone,
    "h1": _two_blocks,
    "h2": _two_blocks,
    "h3": _two_blocks,
    "h4": _two_blocks,
    "h5": _rook_grid,
    "h6": _rook_grid,
    "h11": _rook_grid,
    "h12": _rook_grid,
    "kipas(3)": _rook_grid,
    "kipas(4)": _rook_grid,
}


def _searched_extremal(cid: str, n: int) -> EdgeColoring:
    from .search import ScopeExceededError, SearchProblem, exhaustive_check

    try:
        outcome = exhaustive_check(SearchProblem(n, (cid, cid)), max_nodes=_SEARCH_NODE_CAP)
    except ScopeExceededError as exc:
        raise NoFixtureAndSearchFailedError(
            f"extremal search for {cid} on {n} vertices ran out of budget"
        ) from exc
    if outcome.kind != "witness":
        raise NoFixtureAndSearchFailedError(
            f"no {cid}-avoiding 2-coloring on {n} vertices exists"
        )
    return outcome.witness


def extremal_two_coloring(
    target: str, certify: bool = True, r2: int | None = None
) -> EdgeColoring:
    """Two-coloring on R2(target)-1 vertices avoiding target in both colors.

    R2 is ramsey_two(target, r2), so r2 is only for a fan and must agree
    with R2_TABLE.  Takes the hardcoded seed, and for a target without one
    (a fan outside the table) runs a first-witness backtracking search.
    """
    cid = canonical_id(target)
    n = ramsey_two(cid, r2) - 1
    maker = _SEEDS.get(cid)
    c = maker() if maker is not None else _searched_extremal(cid, n)
    if c.n != n:
        raise ConstructionError(f"extremal for {cid} has {c.n} vertices, want {n}")
    if certify:
        _certify(c, AvoidanceSpec.forbid_all(cid, 2), f"extremal({cid})")
    return c


def _nest(core: EdgeColoring, first: int, last: int) -> EdgeColoring:
    # core in base_pentagon(a, a + 1) for a = first, first + 2, ..., last - 1
    for a in range(first, last, 2):
        core = blowup(base_pentagon(a, a + 1), [core] * 5)
    return core


def _aux(m: int, k: int, top: int) -> EdgeColoring:
    # the cliques keep the caller's top color, above the pentagons' 1..k-2
    return _nest(mono_complete(m // 2, top), 1, k - 2)


def _clique_cover_ok(c: EdgeColoring, color: int, order: int) -> bool:
    """True iff the color class is a disjoint union of K_order covering V.

    Closed neighborhoods: each N[v] has order vertices, and the ends of
    every edge share theirs, so each N[v] is a clique and a component.
    """
    nbr = color_neighbor_masks(c)[color]
    closed = [row | 1 << v for v, row in enumerate(nbr)]
    for v, row in enumerate(nbr):
        if closed[v].bit_count() != order:
            return False
        while row:
            low = row & -row
            if closed[low.bit_length() - 1] != closed[v]:
                return False
            row ^= low
    return True


def _check_even_fan(m: int, k: int) -> None:
    if m < 2 or m % 2:
        raise ParityViolationError(f"need even m >= 2, got {m}")
    if k < 4 or k % 2:
        raise ParityViolationError(f"need even k >= 4, got {k}")


def build_kipas_aux(
    m: int, k: int, top_color: int, certify: bool = True
) -> EdgeColoring:
    """Auxiliary tower for the even-fan assembly.

    (m/2) * 5^((k-2)/2) vertices; the top_color class is a disjoint union of
    K_{m/2} cliques, and no other color holds a monochromatic kipas(m).
    """
    _check_even_fan(m, k)
    if top_color not in (k - 1, k):
        raise RangeViolationError(f"top color must be {k - 1} or {k}, got {top_color}")
    expect = (m // 2) * 5 ** ((k - 2) // 2)
    _check_size(expect, f"build_kipas_aux({m}, {k})")
    c = _aux(m, k, top_color)
    if c.n != expect:
        raise ConstructionError("auxiliary tower size drifted")
    if certify:
        if not _clique_cover_ok(c, top_color, m // 2):
            raise CertificationError(
                f"top color {top_color} is not a disjoint K_{m // 2} cover"
            )
        spec = AvoidanceSpec.from_map(
            {i: f"kipas({m})" for i in range(1, k - 1)}
        )
        _certify(c, spec, f"build_kipas_aux({m}, {k}, {top_color})")
    return c


def _tower(seed_id: str, k: int, r2: int | None) -> EdgeColoring:
    h = resolve(seed_id).m
    if k == 1:
        return mono_complete(h - 1, 1)
    if k == 2:
        return extremal_two_coloring(seed_id, certify=False, r2=r2)
    m = fan_param(seed_id)
    if k % 2:
        if 2 * (ramsey_two(seed_id, r2) - 1) >= 5 * (h - 1):
            side = _tower(seed_id, k - 1, r2)
            return join(side, side, k)
    elif m is not None and m % 2 == 0:
        # five-part assembly: the two color-k towers sit on a chord, the
        # two color-(k-1) towers sit adjacent on the cycle
        hi = _aux(m, k, k)
        lo = _aux(m, k, k - 1)
        sub = _tower(seed_id, k - 2, r2)
        return blowup(base_pentagon(k, k - 1), [hi, lo, lo, hi, sub])
    return _nest(_tower(seed_id, k - 2, r2), k - 1, k)


def build_lower(
    target: str, k: int, r2: int | None = None, certify: bool = True
) -> EdgeColoring:
    """k-coloring on g_value(target, k) vertices with no monochromatic target.

    k=1 is a bare clique, k=2 the extremal two-coloring; odd k joins two
    towers when 2(R2-1) >= 5(|H|-1) and otherwise blows up a fresh pentagon
    with five k-2 towers; even k blows up a pentagon, except even fans,
    which take the five-part assembly.  h10 rides the triangle tower for
    k >= 3.  r2 goes to ramsey_two (only for a fan, and it must agree with
    R2_TABLE), which g_value asks before anything is built.
    """
    expect = g_value(target, k, r2)
    _check_k(k)  # before the towers, whose inner k would be the one named
    cid = canonical_id(target)
    _check_size(expect, f"build_lower({cid}, {k})")
    c = _tower(_tower_seed(cid, k), k, r2)
    if c.n != expect:
        raise ConstructionError(f"built {c.n} vertices for {cid}, k={k}; want {expect}")
    if certify:
        _certify(c, AvoidanceSpec.forbid_all(cid, k), f"build_lower({cid}, {k})")
    return c


def assemble_case3(
    m: int, k: int, r2: int | None = None, certify: bool = True
) -> EdgeColoring:
    """Five-part assembly for an even fan at even k: parity-checked build_lower.

    build_lower takes this branch for every even fan at even k >= 4
    (pentagon with cycle color k and chord color k-1, two top-color-k
    towers at cycle distance two, two top-color-(k-1) towers adjacent on
    the cycle, one k-2 tower in the last slot).
    """
    _check_even_fan(m, k)
    return build_lower(f"kipas({m})", k, r2=r2, certify=certify)


def _mixed(k: int, s: int) -> EdgeColoring:
    if s == k:
        return _tower("kipas(4)", k, None)
    # one edge in color k, or two joined in color 1 when s is odd, in pentagons up to s
    core = mono_complete(2, k)
    if s % 2:
        core = join(core, core, 1)
    return _nest(core, 1 + s % 2, s)


def build_mixed(k: int, s: int, certify: bool = True) -> EdgeColoring:
    """Coloring with no kipas(4) in colors 1..s and no P3 in colors s+1..k."""
    expect = w_value(k, s)  # checks k and s
    _check_k(k)
    _check_size(expect, f"build_mixed({k}, {s})")
    c = _mixed(k, s)
    if c.n != expect:
        raise ConstructionError(f"built {c.n} vertices for s={s}, k={k}; want {expect}")
    if certify:
        per_color: dict[int, str] = {}
        for i in range(1, s + 1):
            per_color[i] = "kipas(4)"
        for j in range(s + 1, k + 1):
            per_color[j] = "path(3)"
        _certify(c, AvoidanceSpec.from_map(per_color), f"build_mixed({k}, {s})")
    return c
