"""Catalog of the small patterns searched for as monochromatic subgraphs.

Twelve fixed five-vertex patterns (ids h1 .. h12) plus three parametric
families: kipas(m), the fan with hub 0 joined to the path 1-2-...-m;
path(t), the path on t vertices; complete(t), the clique on t vertices.
Aliases: p3 = path(3), k3 = complete(3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache


class PatternError(Exception):
    pass


class UnknownPatternError(PatternError):
    pass


class ParameterRangeError(PatternError):
    pass


class TooLargeError(PatternError):
    pass


PARAM_CAP = 16  # keeps family patterns within search range
ISO_CAP = 10


@dataclass(frozen=True)
class Pattern:
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
_PARAM_RE = re.compile(r"^(kipas|path|complete)\((\d+)\)$")


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
    s = pattern_id.strip().lower().replace(" ", "")
    s = _ALIASES.get(s, s)
    if s in _FIVE_VERTEX_EDGES:
        return s, None
    m = _PARAM_RE.match(s)
    if m is None:
        raise UnknownPatternError(f"unknown pattern id {pattern_id!r}")
    family, arg = m.group(1), int(m.group(2))
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
    if cid in _FIVE_VERTEX_EDGES:
        return Pattern(5, frozenset(_FIVE_VERTEX_EDGES[cid]), cid)
    m = _PARAM_RE.match(cid)
    assert m is not None
    family, arg = m.group(1), int(m.group(2))
    if family == "kipas":
        return Pattern(arg + 1, frozenset(kipas_edges(arg)), cid)
    if family == "path":
        return Pattern(arg, frozenset(path_edges(arg)), cid)
    return Pattern(arg, frozenset(complete_edges(arg)), cid)


def catalog() -> tuple[tuple[str, Pattern], ...]:
    """The twelve fixed five-vertex patterns, in id order."""
    return tuple((pid, resolve(pid)) for pid in _FIVE_VERTEX_EDGES)


def are_isomorphic(p: Pattern, q: Pattern) -> bool:
    """Backtracking isomorphism test for patterns up to ISO_CAP vertices."""
    if p.m > ISO_CAP or q.m > ISO_CAP:
        raise TooLargeError(f"isomorphism test capped at {ISO_CAP} vertices")
    if p.m != q.m or len(p.edges) != len(q.edges):
        return False
    padj, qadj = p.adjacency(), q.adjacency()
    pdeg = [len(s) for s in padj]
    qdeg = [len(s) for s in qadj]
    if sorted(pdeg) != sorted(qdeg):
        return False
    order = sorted(range(p.m), key=lambda v: (-pdeg[v], v))
    image = [-1] * p.m
    taken = [False] * q.m

    def feasible(v: int, w: int) -> bool:
        for u in padj[v]:
            if image[u] != -1 and image[u] not in qadj[w]:
                return False
        for u in range(p.m):
            if image[u] != -1 and u not in padj[v] and image[u] in qadj[w]:
                return False
        return True

    def go(t: int) -> bool:
        if t == p.m:
            return True
        v = order[t]
        for w in range(q.m):
            if taken[w] or qdeg[w] != pdeg[v]:
                continue
            if feasible(v, w):
                image[v] = w
                taken[w] = True
                if go(t + 1):
                    return True
                image[v] = -1
                taken[w] = False
        return False

    return go(0)


@lru_cache(maxsize=64)
def independence_number(p: Pattern) -> int:
    """Size of a largest set of pairwise non-adjacent pattern vertices."""
    adj = [0] * p.m
    for a, b in p.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a

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

    for limit in range(2, p.m + 1):
        if colorable(limit, 0, 0):
            return limit
    return p.m
