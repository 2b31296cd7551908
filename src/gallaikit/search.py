"""Backtracking search over edge colorings of small complete graphs.

Edges are assigned in lexicographic order, colors in increasing order, so
the first witness found is the lexicographically least valid coloring.
That coloring is also the least member of its orbit under vertex
permutations (and color permutations, when every color forbids the same
pattern), so the DFS skips every prefix that provably is not, by the two
lex-leader rules described at exhaustive_check (Crawford et al., KR 1996;
Codish et al., Constraints 2016).  Pruning is incremental: coloring an
edge only re-checks pattern images and triangles whose last edge (in
assignment order) is that edge.  Both this search and cnf.encode_cnf read
the images and triangles from one compile step,
SearchProblem.forbidden_images() and rainbow_triangles().

The image check is bit-parallel and byte-sliced.  _completion_tables gives
each completion mask of an (edge, color) one bit of an int and, for each
byte of earlier edges, a 256-entry table indexed by which edges of that
byte wear the color; the entry keeps the bits of the masks that still fit.
A node ANDs one table entry per byte, at most 5 at n=9, and the color is
blocked iff some mask's bit survives.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from ._record import Record
from .coloring import EdgeColoring, edge_count, edge_index
from .detect import AvoidanceSpec, enumerate_pattern_images, verify
from .patterns import canonical_id, resolve

# full-enumeration cap: k^(edge count) states
EXHAUST_BUDGET = 1 << 21


class SearchError(Exception):
    pass


class ScopeExceededError(SearchError):
    pass


class SearchProblem(Record):
    """Forbidden pattern per color (None = unconstrained) on K_n."""

    n: int
    per_color: tuple[Optional[str], ...]
    require_gallai: bool = False
    mode: str = "first"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SearchError(f"need n >= 1, got {self.n}")
        if not self.per_color:
            raise SearchError("per_color must list at least one color")
        if self.mode not in ("first", "exhaust"):
            raise SearchError(f"mode must be first or exhaust, got {self.mode!r}")
        canon = tuple(None if pid is None else canonical_id(pid) for pid in self.per_color)
        object.__setattr__(self, "per_color", canon)

    @property
    def k(self) -> int:
        return len(self.per_color)

    @property
    def spec(self) -> AvoidanceSpec:
        """What verify checks a witness against; None slots forbid nothing."""
        return AvoidanceSpec.from_map(dict(enumerate(self.per_color, 1)), self.require_gallai)

    def forbidden_images(self) -> list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
        """(colors, images) per distinct forbidden pattern, in first-use order:
        the colors that forbid it and enumerate_pattern_images' tuple itself,
        ascending edge-index tuples in a fixed order, with no copy made."""
        n, per_color = self.n, self.per_color
        return [
            (tuple(c for c, other in enumerate(per_color, start=1) if other == pid),
             enumerate_pattern_images(resolve(pid), n))
            for pid in dict.fromkeys(per_color) if pid is not None
        ]

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
    takes color c.  Number them t = 0..T-1 in image order; bit t of
    alive = 2^T - 1 stands for mask t.  slices holds (shift, tab) for each
    byte of earlier edges shift..shift+7 that holds an edge of some mask, in
    increasing shift.  With bit i of x set iff edge shift + i is in color c,
    tab[x] keeps the masks whose edges in that byte all are: it is the AND
    of nb[d] over the mask edges d of the byte missing from x, where bit t
    of nb[d] is set iff mask t does not contain d.  Colors that forbid the
    same pattern share their entries.
    """
    table: list[list[tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]]] = [
        [(0, ())] * (problem.k + 1) for _ in range(edge_count(problem.n))
    ]
    for colors, images in problem.forbidden_images():
        # groups[e] = the earlier edges of each image whose last edge is e
        groups: list[list[tuple[int, ...]]] = [[] for _ in table]
        for image in images:
            groups[image[-1]].append(image[:-1])
        for pos, group in enumerate(groups):
            if not group:
                continue
            alive = (1 << len(group)) - 1
            has: dict[int, int] = {}
            for t, rest in enumerate(group):
                for d in rest:
                    has[d] = has.get(d, 0) | (1 << t)
            slices = []
            for shift in sorted({d & ~7 for d in has}):
                nb = [alive ^ has.get(shift + i, 0) for i in range(8)]
                # f[m] = AND of nb over the bits of m, by its lowest bit
                f = [alive] * 256
                for m in range(1, 256):
                    low = m & -m
                    f[m] = f[m ^ low] & nb[low.bit_length() - 1]
                # x names the edges in the color, 255 - x the missing ones
                slices.append((shift, tuple(reversed(f))))
            entry = (alive, tuple(slices))
            for color in colors:
                table[pos][color] = entry
    return table


def exhaustive_check(
    problem: SearchProblem, max_nodes: int | None = None
) -> SearchOutcome:
    """First lexicographic witness, or proof by traversal that none exists.

    Mode "exhaust" insists the whole state space fits under EXHAUST_BUDGET
    before starting; mode "first" has no such cap and may run long.

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
    if problem.mode == "exhaust" and k**e_total > EXHAUST_BUDGET:
        raise ScopeExceededError(
            f"{k}^{e_total} states exceeds the enumeration budget"
        )
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
                witness = EdgeColoring(n, k, tuple(choice))
                report = verify(witness, problem.spec)
                if not report.passed:
                    raise SearchError("witness failed its own certification")
                return SearchOutcome("witness", witness, nodes, symmetric)
            continue
        choice[pos] = 0
        pos -= 1
        if pos < 0:
            return SearchOutcome("exhausted", None, nodes, symmetric)
