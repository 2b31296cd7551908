"""Catalog of the small patterns searched for as monochromatic subgraphs.

Twelve fixed five-vertex patterns (ids h1 .. h12) plus three parametric
families: kipas(m), the fan with hub 0 joined to the path 1-2-...-m;
path(t), the path on t vertices; complete(t), the clique on t vertices.
Aliases: p3 = path(3), k3 = complete(3).  pattern_shapes gives a pattern's
edge sets up to automorphism, which the search compiles its tables from;
enumerate_pattern_images places them on K_n for the CNF encoder.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import itemgetter

from ._record import Record


class PatternError(Exception):
    pass


class UnknownPatternError(PatternError):
    pass


class ParameterRangeError(PatternError):
    pass


class TooLargeError(PatternError):
    pass


PARAM_CAP = 16  # keeps family patterns within search range
PARAM_DIGITS = 2000  # int() reads such a parameter m, and str() prints 2(m^2 - m + 1)
ISO_CAP = 10
IMAGE_BUDGET = 1 << 19  # every five-vertex pattern up to n=16, kipas(5) at n=12


class Pattern(Record):
    """Graph on vertices 0..m-1 with a normalized (i < j) edge set."""

    m: int
    edges: frozenset[tuple[int, int]]
    label: str

    def __post_init__(self) -> None:
        if self.m < 1:
            raise PatternError(f"need m >= 1, got {self.m}")
        for a, b in self.edges:
            if not 0 <= a < b < self.m:
                raise PatternError(f"bad edge ({a}, {b}) for m={self.m}")

    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.m)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(frozenset(s) for s in adj)

    def bitmasks(self) -> list[int]:
        """Bit u of entry v is set iff uv is an edge."""
        return [sum(1 << u for u in a) for a in self.adjacency()]


def make_pattern(m: int, edges, label: str = "custom") -> Pattern:
    norm = set()
    for a, b in edges:
        if a == b:
            raise PatternError(f"loop at vertex {a}")
        norm.add((min(a, b), max(a, b)))
    return Pattern(m, frozenset(norm), label)


_FIVE_VERTEX_EDGES: dict[str, tuple[tuple[int, int], ...]] = {
    "h1": ((0, 1), (0, 4), (1, 2), (1, 4), (2, 3)),
    "h2": ((0, 1), (0, 4), (1, 2), (1, 3), (1, 4)),
    "h3": ((0, 1), (0, 4), (1, 2), (1, 4), (3, 4)),
    "h4": ((0, 1), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4)),
    "h5": ((0, 1), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)),
    "h6": ((0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)),
    "h7": ((0, 1), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)),
    "h8": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4)),
    "h9": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)),
    "h10": ((0, 1), (0, 4), (1, 4), (2, 3)),
    "h11": ((0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)),
    "h12": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)),
}

_ALIASES = {"p3": "path(3)", "k3": "complete(3)"}
_PARAM_RE = re.compile(r"^(kipas|path|complete)\(([0-9]+)\)$")


def kipas_edges(m: int) -> tuple[tuple[int, int], ...]:
    spokes = tuple((0, i) for i in range(1, m + 1))
    rim = tuple((i, i + 1) for i in range(1, m))
    return spokes + rim


def path_edges(t: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(t - 1))


def complete_edges(t: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(t) for j in range(i + 1, t))


def _split_id(pattern_id: str) -> tuple[str, int | None]:
    """(family, parameter), or (id, None) for a fixed pattern; no size cap."""
    # ASCII only: lower() would read the Kelvin sign as k, and \d other digits
    s = pattern_id.strip().lower().replace(" ", "") if pattern_id.isascii() else ""
    s = _ALIASES.get(s, s)
    if s in _FIVE_VERTEX_EDGES:
        return s, None
    m = _PARAM_RE.match(s)
    if m is None:
        raise UnknownPatternError(f"unknown pattern id {pattern_id!r}")
    family, digits = m.group(1), m.group(2).lstrip("0") or "0"
    if len(digits) > PARAM_DIGITS:
        raise ParameterRangeError(
            f"{family} parameter has {len(digits)} digits, more than {PARAM_DIGITS}")
    arg = int(digits)
    if arg < 2:
        raise ParameterRangeError(f"{family} needs a parameter >= 2, got {arg}")
    return family, arg


def canonical_id(pattern_id: str) -> str:
    """Normalize a pattern id, raising for unknown or out-of-range ones."""
    family, arg = _split_id(pattern_id)
    if arg is None:
        return family
    if arg > PARAM_CAP:
        raise TooLargeError(f"{family}({arg}) exceeds the size cap {PARAM_CAP}")
    return f"{family}({arg})"


@lru_cache(maxsize=None)
def resolve(pattern_id: str) -> Pattern:
    cid = canonical_id(pattern_id)
    family, arg = _split_id(cid)
    if arg is None:
        return Pattern(5, frozenset(_FIVE_VERTEX_EDGES[family]), cid)
    if family == "kipas":
        return Pattern(arg + 1, frozenset(kipas_edges(arg)), cid)
    edges = path_edges(arg) if family == "path" else complete_edges(arg)
    return Pattern(arg, frozenset(edges), cid)


def catalog() -> tuple[tuple[str, Pattern], ...]:
    """The twelve fixed five-vertex patterns, in id order."""
    return tuple((pid, resolve(pid)) for pid in _FIVE_VERTEX_EDGES)


@lru_cache(maxsize=64)
def independence_number(p: Pattern) -> int:
    """Size of a largest set of pairwise non-adjacent pattern vertices."""
    adj = p.bitmasks()

    def alpha(avail: int) -> int:
        if not avail:
            return 0
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        if not adj[v] & rest:  # some largest set contains v
            return 1 + alpha(rest)
        return max(alpha(rest), 1 + alpha(rest & ~adj[v]))

    return alpha((1 << p.m) - 1)


def chromatic_number(p: Pattern) -> int:
    """Exact chromatic number for patterns up to ISO_CAP vertices."""
    if p.m > ISO_CAP:
        raise TooLargeError(f"chromatic number capped at {ISO_CAP} vertices")
    if not p.edges:
        return 1
    adj = p.adjacency()
    order = sorted(range(p.m), key=lambda v: (-len(adj[v]), v))
    assign = [0] * p.m

    def colorable(limit: int, t: int, top: int) -> bool:
        if t == p.m:
            return True
        v = order[t]
        for col in range(1, min(limit, top + 1) + 1):  # at most one fresh color
            if all(assign[u] != col for u in adj[v]):
                assign[v] = col
                if colorable(limit, t + 1, max(top, col)):
                    return True
                assign[v] = 0
        return False

    for limit in range(2, p.m):  # m colors always suffice
        if colorable(limit, 0, 0):
            return limit
    return p.m


def pattern_shapes(pattern: Pattern, n: int) -> tuple[int, list[tuple[int, ...]]]:
    """(m', picks): the one orbit engine of the search's tables and of
    enumerate_pattern_images.

    The pattern's non-isolated vertices, relabelled 0..m'-1, give one edge
    set (shape) per coset of its automorphism group, grown as the orbit
    under the transpositions (t-1 t), each one permutation of the C(m', 2)
    local pairs in lexicographic order.  A shape is the ascending positions
    (picks) of its pairs among them, and picks lists the shapes sorted; it
    is empty when pattern.m > n.  Once |shapes| * C(n, m') exceeds
    IMAGE_BUDGET the orbit stops and TooLargeError names that count (a
    lower bound) and the budget, before any image is built.
    """
    if pattern.m > n:
        return 0, []
    spine = sorted({v for e in pattern.edges for v in e})
    subsets = comb(n, len(spine))
    local = {pair: t for t, pair in enumerate(combinations(range(len(spine)), 2))}
    # moves[t - 1][q] = the local pair that the transposition (t-1 t) sends pair q to
    moves = [[local[min(per[a], per[b]), max(per[a], per[b])] for a, b in local]
             for per in ((*range(t - 1), t, t - 1, *range(t + 1, len(spine)))
                         for t in range(1, len(spine)))]
    todo = [tuple(sorted(local[spine.index(a), spine.index(b)] for a, b in pattern.edges))]
    shapes = set(todo)
    while todo and len(shapes) * subsets <= IMAGE_BUDGET:
        shape = todo.pop()
        for move in moves:  # in a fixed order, so the count at a stop is too
            moved = tuple(sorted(map(move.__getitem__, shape)))
            if moved not in shapes:
                shapes.add(moved)
                todo.append(moved)
    count = len(shapes) * subsets
    if count > IMAGE_BUDGET:
        raise TooLargeError(f"{pattern.label} on {n} vertices has at least {count} images, "
                            f"over the image budget of {IMAGE_BUDGET}")
    return len(spine), sorted(shapes)


def enumerate_pattern_images(pattern: Pattern, n: int) -> tuple[tuple[int, ...], ...]:
    """Every distinct edge set an injective copy of pattern can occupy in K_n,
    as ascending tuples of lexicographic edge indices (coloring.edge_index):
    the CNF's constraints, while the search compiles from the shapes.

    Each shape of pattern_shapes is placed on every m'-subset of range(n)
    in increasing order.  Without isolated vertices an image spans exactly
    its subset, so images on different subsets never collide; isolated
    vertices only need room: pattern.m <= n.  Placing keeps the order of the
    picks, and edge_index is monotone in it, so one operator.itemgetter per
    shape builds each image ascending from the subset's row of edge
    indices, with no sort of its own; a pattern with fewer than two edges
    has one image per edge or a single empty one, since itemgetter gives a
    bare item for one position and takes no empty pick.  The one final sort
    puts the images in the order of the sorted vertex-pair images, so the
    CNF clause order is fixed; the picks are sorted, so it merges runs.
    """
    from .coloring import row_offset  # formula and catalog need only this module

    size, picks = pattern_shapes(pattern, n)
    if not picks:  # more pattern vertices than n
        return ()
    if len(pattern.edges) < 2:  # every edge index alone, or the one empty image
        return tuple(zip(range(comb(n, size)))) if pattern.edges else ((),)
    getters = [itemgetter(*pick) for pick in picks]
    offset = [row_offset(n, i) for i in range(n)]
    images: list[tuple[int, ...]] = []
    for sub in combinations(range(n), size):
        row = [offset[i] + j for i, j in combinations(sub, 2)]
        images += [get(row) for get in getters]
    images.sort()
    return tuple(images)
