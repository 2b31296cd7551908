"""Gallai partitions of rainbow-triangle-free colorings.

A Gallai partition splits the vertex set into ell >= 2 parts such that any
two parts meet in a single color and the quotient coloring uses at most two
colors overall.  gallai_partition computes one with the fewest possible
parts, deterministically:

  * if for some color d the graph of edges avoiding d is disconnected, a
    two-part split exists; among those the lexicographically least part
    list is returned (two parts is the global minimum),
  * otherwise the quotient of any valid partition is prime, and the unique
    coarsest choice is the set of maximal proper strong modules, recovered
    by closing vertex pairs under outside vertices that see them in more
    than one color.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .coloring import EdgeColoring
from .detect import color_neighbor_masks, find_rainbow_triangle


class DecompositionError(Exception):
    pass


class RainbowTriangleError(DecompositionError):
    """The input is not a Gallai coloring; witness holds the offending triple."""

    def __init__(self, witness: tuple[int, int, int]):
        super().__init__(f"rainbow triangle on vertices {witness}")
        self.witness = witness


class TooSmallError(DecompositionError):
    pass


class InvalidPartitionError(DecompositionError):
    """A supplied partition is not pairwise single-colored; pair names the parts."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class DecompositionInvariantError(DecompositionError):
    """Internal consistency failure; indicates a bug, not bad input."""


@dataclass(frozen=True)
class GallaiPartition:
    parts: tuple[tuple[int, ...], ...]
    quotient: EdgeColoring

    @property
    def ell(self) -> int:
        return len(self.parts)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _component_of_zero(adj: list[int]) -> int:
    comp = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= adj[v]
        frontier = nxt & ~comp
        comp |= frontier
    return comp


def _pair_closure(c: EdgeColoring, nbr, v: int, u: int, full: int) -> int:
    """Smallest vertex set containing v and u seen uniformly from outside."""
    s = (1 << v) | (1 << u)
    anchor = min(v, u)
    while True:
        add = 0
        for w in _bits(full & ~s):
            d = c.color(w, anchor)
            if s & ~nbr[d][w]:
                add |= 1 << w
        if not add:
            return s
        s |= add
        if s == full:
            return full


def _strong_module_parts(c: EdgeColoring, nbr) -> list[tuple[int, ...]]:
    n = c.n
    full = (1 << n) - 1
    assigned = 0
    masks = []
    for v in range(n):
        if (1 << v) & assigned:
            continue
        member = 0
        for u in range(n):
            if u == v or (1 << u) & member:
                continue
            s = _pair_closure(c, nbr, v, u, full)
            if s != full:
                member |= s
        if member == 0:
            member = 1 << v
        if member & assigned:
            raise DecompositionInvariantError("computed modules overlap")
        assigned |= member
        masks.append(member)
    if len(masks) < 2:
        raise DecompositionInvariantError("no proper module split found")
    return [tuple(_bits(m)) for m in masks]


def gallai_partition(c: EdgeColoring) -> GallaiPartition:
    """Exact minimum-part Gallai partition of a rainbow-free coloring."""
    if c.n < 2:
        raise TooSmallError(f"need at least two vertices, got n={c.n}")
    witness = find_rainbow_triangle(c)
    if witness is not None:
        raise RainbowTriangleError(witness)
    nbr = color_neighbor_masks(c)
    full = (1 << c.n) - 1
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for d in range(1, c.k + 1):
        # every pair has exactly one color, so the non-d graph is the
        # complement of color d
        other = [full & ~(1 << v) & ~row for v, row in enumerate(nbr[d])]
        comp = _component_of_zero(other)
        if comp != full:
            cand = (tuple(_bits(comp)), tuple(_bits(full & ~comp)))
            if best is None or cand < best:
                best = cand
    if best is not None:
        parts: Sequence[tuple[int, ...]] = list(best)
    else:
        parts = _strong_module_parts(c, nbr)
    parts = sorted(parts)
    try:
        quotient = _quotient_of(c, parts)
    except InvalidPartitionError as exc:
        raise DecompositionInvariantError(f"computed parts are invalid: {exc}") from exc
    if len(set(quotient.colors)) > 2:
        raise DecompositionInvariantError("quotient uses more than two colors")
    return GallaiPartition(tuple(parts), quotient)


def _quotient_of(c: EdgeColoring, parts: Sequence[tuple[int, ...]]) -> EdgeColoring:
    covered: set[int] = set()
    total = 0
    for idx, part in enumerate(parts):
        if not part:
            raise InvalidPartitionError(f"part {idx} is empty")
        for v in part:
            if not 0 <= v < c.n:
                raise InvalidPartitionError(f"vertex {v} out of range in part {idx}")
        total += len(part)
        covered.update(part)
    if len(covered) != total:
        raise InvalidPartitionError("parts overlap")
    if covered != set(range(c.n)):
        raise InvalidPartitionError("parts do not cover all vertices")
    ell = len(parts)
    colors = []
    for a in range(ell):
        for b in range(a + 1, ell):
            col = c.color(parts[a][0], parts[b][0])
            for i in parts[a]:
                for j in parts[b]:
                    if c.color(i, j) != col:
                        raise InvalidPartitionError(
                            f"parts {a} and {b} meet in more than one color",
                            pair=(a, b),
                        )
            colors.append(col)
    return EdgeColoring(ell, c.k, tuple(colors))


PartitionLike = Union[GallaiPartition, Sequence[Sequence[int]]]


def reduced_coloring(c: EdgeColoring, partition: PartitionLike) -> EdgeColoring:
    """Quotient of c by a pairwise single-colored partition.

    Accepts a GallaiPartition (re-deriving and cross-checking its stored
    quotient) or a plain list of parts; parts are ordered by least member.
    """
    if isinstance(partition, GallaiPartition):
        quotient = _quotient_of(c, partition.parts)
        if quotient != partition.quotient:
            raise InvalidPartitionError("stored quotient does not match the coloring")
        return quotient
    norm = []
    for idx, raw in enumerate(partition):
        t = tuple(sorted(raw))
        if len(set(t)) != len(t):
            raise InvalidPartitionError(f"part {idx} repeats a vertex")
        norm.append(t)
    return _quotient_of(c, sorted(norm))
