"""Gallai partitions of rainbow-triangle-free colorings.

A Gallai partition splits the vertex set into ell >= 2 parts such that any
two parts meet in a single color and the quotient coloring uses at most two
colors overall.  gallai_partition returns the one with the fewest parts and,
among those, the smallest part through vertex 0.  One engine reads it off
the top of the modular decomposition: partition refinement gives P(0), the
maximal modules without vertex 0, and the part through 0 is {0} plus every
part X of P(0) whose closure with 0 (the smallest module containing 0 and X)
is not the whole vertex set; the rest of P(0) are the other parts.

If for some color d the edges avoiding d form a disconnected graph, this is
the split (component of 0, rest): any union of components through 0 would
do, and the component is the smallest.  Otherwise the top is prime and the
parts are the maximal strong modules, the unique coarsest valid partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .coloring import EdgeColoring
from .detect import _rainbow_scan, color_neighbor_masks


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


def _split(part: int, nbr, w: int) -> list[int]:
    """The classes of part by color to w (w outside part); [part] if uniform."""
    pieces = []
    for row in nbr:
        piece = part & row[w]
        if piece == part:
            return [part]
        if piece:
            pieces.append(piece)
    return pieces


def _modules_avoiding_zero(nbr, n: int) -> list[int]:
    """P(0): the maximal modules without vertex 0, by partition refinement.

    Split V - {0} by color to 0, then every part by each vertex outside it.
    A vertex must split again once its own part splits, so the vertices of
    every part that splits go back on the work list.
    """
    queued = (1 << n) - 2
    parts = _split(queued, nbr, 0)
    pending = list(range(n - 1, 0, -1))
    while pending:
        w = pending.pop()
        bit = 1 << w
        queued &= ~bit
        refined = []
        for part in parts:
            pieces = [part] if part & bit else _split(part, nbr, w)
            if len(pieces) > 1:
                pending.extend(_bits(part & ~queued))
                queued |= part
            refined.extend(pieces)
        parts = refined
    return parts


def _closure(c: EdgeColoring, nbr, s: int, full: int) -> int:
    """Smallest module containing s: add every vertex that sees s in two colors."""
    anchor = (s & -s).bit_length() - 1
    while s != full:
        add = 0
        for w in _bits(full & ~s):
            if s & ~nbr[c.color(w, anchor)][w]:
                add |= 1 << w
        if not add:
            break
        s |= add
    return s


def gallai_partition(c: EdgeColoring) -> GallaiPartition:
    """Exact minimum-part Gallai partition of a rainbow-free coloring."""
    if c.n < 2:
        raise TooSmallError(f"need at least two vertices, got n={c.n}")
    nbr = color_neighbor_masks(c)
    witness = _rainbow_scan(c, nbr)[0] if c.k >= 3 else None
    if witness is not None:
        raise RainbowTriangleError(witness)
    full = (1 << c.n) - 1
    outside = _modules_avoiding_zero(nbr, c.n)
    # top grows inside the maximal strong module M0 through vertex 0: the
    # closure of top and a part of P(0) is V exactly when the part lies
    # outside M0, and M0 is {0} plus the parts of P(0) inside it.
    top = 1
    for part in outside:
        if part & ~top:
            s = _closure(c, nbr, top | part, full)
            if s != full:
                top = s
    parts = sorted(tuple(_bits(m)) for m in [top] + [p for p in outside if not p & top])
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
