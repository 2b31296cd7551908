"""Backtracking search over edge colorings of small complete graphs.

Edges are assigned in lexicographic order, colors in increasing order, so
the first witness found is the lexicographically least valid coloring.
That coloring is also the least member of its orbit under vertex
permutations (and color permutations, when every color forbids the same
pattern), so the DFS skips every prefix that provably is not, by the two
lex-leader rules described at exhaustive_check (Crawford et al., KR 1996;
Codish et al., Constraints 2016).  Pruning is incremental: coloring an
edge only re-checks pattern images and triangles whose last edge (in
assignment order) is that edge.  The search compiles its tables from the
pattern shapes (patterns.pattern_shapes), cnf.encode_cnf from
SearchProblem.forbidden_images(), and both read rainbow_triangles().

The image check is bit-parallel and byte-sliced.  _completion_tables gives
each completion mask of an (edge, color) one bit of an int and, for each
byte of earlier edges, a 256-entry table indexed by which edges of that
byte wear the color; the entry keeps the bits of the masks that still fit.
A node ANDs one table entry per byte, at most 5 at n=9, and the color is
blocked iff some mask's bit survives.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, Optional

from ._record import Record
from .coloring import EdgeColoring, edge_count, edge_index, row_offset
from .patterns import (IMAGE_BUDGET, Pattern, TooLargeError, canonical_id,
                       enumerate_pattern_images, pattern_shapes, resolve)

if TYPE_CHECKING:  # only a witness is checked, so an exhausted search never loads detect
    from .detect import AvoidanceSpec


class SearchError(Exception):
    pass


class ScopeExceededError(SearchError):
    pass


class SearchProblem(Record):
    """Forbidden pattern per color (None = unconstrained) on K_n.

    A problem is refused with TooLargeError when a list that the search or
    the CNF encoder compiles from it would exceed IMAGE_BUDGET entries: the
    (edge, color) slots, the at-most-one color pairs per edge, or the
    triangles when rainbows are forbidden.  The pattern images are counted
    by patterns.pattern_shapes against the same budget.
    """

    n: int
    per_color: tuple[Optional[str], ...]
    require_gallai: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SearchError(f"need n >= 1, got {self.n}")
        if not self.per_color:
            raise SearchError("per_color must list at least one color")
        e_total, k = edge_count(self.n), len(self.per_color)
        for count, what in ((e_total * k, "edge slots"),
                            (e_total * comb(k, 2), "at-most-one pairs"),
                            (comb(self.n, 3) if self.require_gallai and k >= 3 else 0,
                             "rainbow triangles")):
            if count > IMAGE_BUDGET:
                raise TooLargeError(f"K_{self.n} with {k} colors has {count} {what}, "
                                    f"over the image budget of {IMAGE_BUDGET}")
        canon = tuple(None if pid is None else canonical_id(pid) for pid in self.per_color)
        object.__setattr__(self, "per_color", canon)

    @property
    def k(self) -> int:
        return len(self.per_color)

    @property
    def spec(self) -> AvoidanceSpec:
        """What verify checks a witness against; None slots forbid nothing."""
        from .detect import AvoidanceSpec

        return AvoidanceSpec.from_map(dict(enumerate(self.per_color, 1)), self.require_gallai)

    def forbidden_patterns(self) -> list[tuple[tuple[int, ...], Pattern]]:
        """(colors, pattern) per distinct forbidden pattern, in first-use order."""
        per_color = self.per_color
        return [(tuple(c for c, other in enumerate(per_color, start=1) if other == pid),
                 resolve(pid)) for pid in dict.fromkeys(per_color) if pid is not None]

    def forbidden_images(self) -> list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
        """(colors, images) per forbidden pattern, in forbidden_patterns' order:
        enumerate_pattern_images' tuple itself, with no copy; the CNF's compile step."""
        return [(colors, enumerate_pattern_images(pattern, self.n))
                for colors, pattern in self.forbidden_patterns()]

    def rainbow_triangles(self) -> list[tuple[int, int, int]]:
        """(xy, xz, yz) edge indices of every triangle x < y < z, in combinations
        order, when rainbow triangles are forbidden (require_gallai, k >= 3)."""
        if not (self.require_gallai and self.k >= 3):
            return []
        n = self.n
        return [(edge_index(n, x, y), edge_index(n, x, z), edge_index(n, y, z))
                for x, y, z in combinations(range(n), 3)]


class SearchOutcome(Record):
    kind: str  # "witness" or "exhausted"
    witness: Optional[EdgeColoring]
    nodes_explored: int
    symmetry_reduced: bool


def _completion_tables(
    problem: SearchProblem,
) -> list[list[tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]]]:
    """mono[e][c] = (alive, slices): the completion masks of edge e in color
    c, byte-sliced for the bit-parallel test in exhaustive_check.

    The completion masks of (e, c) are the sets of earlier edges that, all
    in color c, finish an image of the color's forbidden pattern when edge e
    takes color c.  Bit t of alive = 2^T - 1 stands for mask t.  slices
    holds (shift, tab) for each byte of earlier edges shift..shift+7 that
    holds an edge of some mask, in increasing shift.  With bit i of x set
    iff edge shift + i is in color c, tab[x] keeps the masks whose edges in
    that byte all are: it is the AND of nb[d] over the mask edges d of the
    byte missing from x, where bit t of nb[d] is set iff mask t does not
    contain d; doubling over the byte's 8 edges builds the 256 entries with
    one AND each.  Colors that forbid the same pattern share their entries.

    The build reads patterns.pattern_shapes and makes no image.  On a
    subset with edge-index row row, the shapes whose last local pair is p
    add their masks to edge row[p] as its next bits, and has[row[p]][d]
    gains at that offset the bits of those holding d = row[q]: masks run
    subset-major, shape-minor, and the DFS reads only whether alive is 0.
    """
    n = problem.n
    table: list[list[tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]]] = [
        [(0, ())] * (problem.k + 1) for _ in range(edge_count(n))
    ]
    offset = [row_offset(n, i) for i in range(n)]
    for colors, pattern in problem.forbidden_patterns():
        size, picks = pattern_shapes(pattern, n)
        bits = []  # (p, len(group), [(q, m)]): bit t of m is set iff shape t of group p holds q
        for p in sorted({pick[-1] for pick in picks}):
            group = [pick for pick in picks if pick[-1] == p]
            held = [(q, int("".join(["01"[q in s] for s in group[::-1]]), 2)) for q in range(p)]
            bits.append((p, len(group), [(q, mask) for q, mask in held if mask]))
        width = [0] * len(table)  # masks placed on each edge so far
        has: list[dict[int, int]] = [{} for _ in table]
        for sub in combinations(range(n), size):
            row = [offset[i] + j for i, j in combinations(sub, 2)]
            for p, size_p, held in bits:
                e = row[p]
                base, width[e] = width[e], width[e] + size_p
                has_e = has[e]
                for q, mask in held:
                    has_e[row[q]] = has_e.get(row[q], 0) | mask << base
        for pos, has_e in enumerate(has):
            if not width[pos]:
                continue
            alive = (1 << width[pos]) - 1
            slices = []
            for shift in sorted({d & ~7 for d in has_e}):
                # f[y] = AND of nb[shift + i] over the bits i of y; x names
                # the edges in the color, so tab[x] = f[255 - x]
                f = [alive]
                for i in range(8):
                    nb = alive ^ has_e.get(shift + i, 0)
                    f += [g & nb for g in f]
                slices.append((shift, tuple(f[::-1])))
            entry = (alive, tuple(slices))
            for color in colors:
                table[pos][color] = entry
    return table


def exhaustive_check(
    problem: SearchProblem, max_nodes: int | None = None
) -> SearchOutcome:
    """First lexicographic witness, or proof by traversal that none exists.

    max_nodes is the only limit: the search raises ScopeExceededError when
    it would count node max_nodes + 1, and with None it may run long.

    The traversal skips every partial coloring that cannot be the least
    member of its orbit.  Vertex transposition (t, t+1) swaps the edge
    pairs (x,t)-(x,t+1) and (t,y)-(t+1,y); while every earlier pair is
    tied, the later edge b of a pair may not take a smaller color than its
    partner a.  When every color forbids the same pattern, a color may
    also exceed the largest one used so far by at most 1 (which pins the
    first edge to color 1), and the outcome records that the traversal
    used color symmetry.  The least valid coloring is the least member of
    its orbit, so the witness and the kind are those of the plain
    traversal; only nodes_explored counts fewer nodes, and a color below
    the transpositions' bound or above the color bound is not a node.
    """
    if max_nodes is not None and max_nodes < 0:
        raise SearchError(f"node budget must be >= 0, got {max_nodes}")
    n, k = problem.n, problem.k
    e_total = edge_count(n)
    symmetric = k >= 2 and len(set(problem.per_color)) == 1
    if e_total == 0:
        witness = EdgeColoring(n, k, ())
        return SearchOutcome("witness", witness, 0, False)
    mono = _completion_tables(problem)
    # tri[e] = the two earlier edges of each triangle whose last edge is e
    tri: list[list[tuple[int, int]]] = [[] for _ in range(e_total)]
    for xy, xz, yz in problem.rainbow_triangles():
        tri[yz].append((xy, xz))

    # lex[b] = (t, a) for each edge pair a < b that the vertex transposition
    # (t, t+1) swaps; split[t] = the b at which it first differs, or any
    # value >= pos while it is still tied on the placed prefix
    lex: list[list[tuple[int, int]]] = [[] for _ in range(e_total)]
    for t in range(n - 1):
        for x in range(t):
            lex[edge_index(n, x, t + 1)].append((t, edge_index(n, x, t)))
        for y in range(t + 2, n):
            lex[edge_index(n, t + 1, y)].append((t, edge_index(n, t, y)))
    split = [e_total] * (n - 1)
    top = [0] * (e_total + 1)  # top[pos] = largest color before pos

    choice = [0] * e_total  # 0 = not placed
    col_mask = [0] * (k + 1)
    pos = 0
    nodes = 0
    while True:
        if choice[pos]:
            col_mask[choice[pos]] ^= 1 << pos
            color = choice[pos] + 1
        else:
            color = 1
            for t, a in lex[pos]:
                if split[t] >= pos and choice[a] > color:
                    color = choice[a]
        limit = min(k, top[pos] + 1) if symmetric else k
        while color <= limit:
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise ScopeExceededError(f"node budget {max_nodes} exhausted")
            cm = col_mask[color]
            # a completion mask survives while every edge of it is in cm
            alive, slices = mono[pos][color]
            for shift, tab in slices:
                alive &= tab[(cm >> shift) & 255]
                if not alive:
                    break
            ok = not alive
            if ok:
                for e1, e2 in tri[pos]:
                    c1, c2 = choice[e1], choice[e2]
                    if c1 != c2 and c1 != color and c2 != color:
                        ok = False
                        break
            if ok:
                break
            color += 1
        if color <= limit:
            choice[pos] = color
            col_mask[color] = cm | (1 << pos)
            for t, a in lex[pos]:
                if split[t] >= pos:
                    split[t] = pos if color > choice[a] else e_total
            pos += 1
            top[pos] = max(top[pos - 1], color)
            if pos == e_total:
                from .detect import verify

                witness = EdgeColoring(n, k, choice)
                report = verify(witness, problem.spec)
                if not report.passed:
                    raise SearchError("witness failed its own certification")
                return SearchOutcome("witness", witness, nodes, symmetric)
            continue
        choice[pos] = 0
        pos -= 1
        if pos < 0:
            return SearchOutcome("exhausted", None, nodes, symmetric)
