"""Gallai partitions of rainbow-triangle-free colorings.

A Gallai partition splits the vertex set into ell >= 2 parts such that any
two parts meet in a single color and the quotient coloring uses at most two
colors overall.  gallai_partition returns the one with the fewest parts and,
among those, the smallest part through vertex 0.  It is the top split of the
modular decomposition, which the rainbow walk in detect computes first:
partition refinement gives P(0), the maximal modules without vertex 0, and
the part through 0 is {0} plus every part X of P(0) whose closure with 0 (the
smallest module containing 0 and X) is not the whole vertex set; the rest of
P(0) are the other parts.  The walk goes on down the module tree and reports
rainbow-free only when every quotient on it uses at most two colors.  That is
exact: a triangle with two vertices in one module is never rainbow, and a
prime quotient with three colors has a rainbow triangle (Gallai's theorem;
details in detect).  Only a walk that finds a rainbow runs the scan that
names the lexicographically first witness.

If for some color d the edges avoiding d form a disconnected graph, this is
the split (component of 0, rest): any union of components through 0 would
do, and the component is the smallest.  Otherwise the top is prime and the
parts are the maximal strong modules, the unique coarsest valid partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .coloring import EdgeColoring
from .detect import (
    DecompositionError,
    DecompositionInvariantError,
    _bits,
    _module_walk,
    _rainbow_witness,
    _root_split,
    color_neighbor_masks,
)


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


@dataclass(frozen=True)
class GallaiPartition:
    parts: tuple[tuple[int, ...], ...]
    quotient: EdgeColoring

    @property
    def ell(self) -> int:
        return len(self.parts)


def gallai_partition(c: EdgeColoring) -> GallaiPartition:
    """Exact minimum-part Gallai partition of a rainbow-free coloring."""
    if c.n < 2:
        raise TooSmallError(f"need at least two vertices, got n={c.n}")
    nbr = color_neighbor_masks(c)
    rainbow, root = _module_walk(c, nbr)
    if rainbow:
        raise RainbowTriangleError(_rainbow_witness(c, nbr)[0])
    if root is None:
        root = _root_split(c, nbr, (1 << c.n) - 1)
    parts = sorted(tuple(_bits(m)) for m in root)
    try:
        quotient = _quotient_of(c, parts, nbr)
    except InvalidPartitionError as exc:
        raise DecompositionInvariantError(f"computed parts are invalid: {exc}") from exc
    if len(set(quotient.colors)) > 2:
        raise DecompositionInvariantError("quotient uses more than two colors")
    return GallaiPartition(tuple(parts), quotient)


def _quotient_of(
    c: EdgeColoring, parts: Sequence[tuple[int, ...]], nbr
) -> EdgeColoring:
    """Quotient by parts, checking each part-a row against the mask of part b."""
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
    masks = [sum(1 << v for v in part) for part in parts]
    colors = []
    for a in range(ell):
        for b in range(a + 1, ell):
            col = c.color(parts[a][0], parts[b][0])
            row, mb = nbr[col], masks[b]
            if any(row[i] & mb != mb for i in parts[a]):
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
    nbr = color_neighbor_masks(c)
    if isinstance(partition, GallaiPartition):
        quotient = _quotient_of(c, partition.parts, nbr)
        if quotient != partition.quotient:
            raise InvalidPartitionError("stored quotient does not match the coloring")
        return quotient
    norm = []
    for idx, raw in enumerate(partition):
        t = tuple(sorted(raw))
        if len(set(t)) != len(t):
            raise InvalidPartitionError(f"part {idx} repeats a vertex")
        norm.append(t)
    return _quotient_of(c, sorted(norm), nbr)
