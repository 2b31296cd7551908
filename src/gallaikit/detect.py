"""Monochromatic pattern detection and verification against an avoidance spec.

verify checks a coloring for rainbow triangles, which the module walk in
decompose decides and names, and for monochromatic copies of each forbidden
pattern.  Both run over the per-color neighbor bitmasks of
decompose.color_neighbor_masks (plain Python ints), so they stay fast on the
couple-hundred-vertex colorings the builders emit.  Witnesses are
deterministic: the rainbow witness is the lexicographically first triple,
and the embedding search places the pattern's vertices by descending degree,
ties by label, and tries host vertices in ascending order.  That one DFS,
_embed_search, answers two questions: is there a copy of a pattern in a
color class, and are two patterns isomorphic.

The embedding search runs on a twin-class kernel of the color class.  False
twins (vertices with the same open neighborhood in that color) are
interchangeable: swapping two of them is an automorphism of the color class
that fixes every other vertex.  False twins are never adjacent, so the
members of one class that a copy uses are the image of an independent set of
the pattern, and the search keeps only the alpha(pattern) lowest-indexed
members of each class.  This is exact, and it returns the same witness as the
search over every vertex: the ascending DFS reaches a dropped twin only after
an unused, lower-indexed twin of it has failed in the same position, and by
the swap the dropped twin must fail there too.  The blow-up towers the
builders emit are a few huge twin classes in their top colors, so the kernel
is what keeps certifying them cheap.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ._record import Record
from .coloring import ColorRangeError, EdgeColoring, edge_index
from .decompose import color_neighbor_masks, find_rainbow_triangle
from .patterns import ISO_CAP, Pattern, TooLargeError, canonical_id, independence_number, resolve


class Embedding(Record):
    """Injective pattern-to-host vertex map witnessing a monochromatic copy."""

    color: int
    map: tuple[int, ...]


class CheckStats(Record):
    pairs_scanned: int
    embedding_nodes: int
    patterns_checked: int


class VerificationReport(Record):
    passed: bool
    rainbow_witness: Optional[tuple[int, int, int]]
    mono_witnesses: tuple[Embedding, ...]
    stats: CheckStats


class AvoidanceSpec(Record):
    """What a coloring must avoid: per-color patterns, optional gallai check.

    forbids holds (color, pattern id) pairs sorted by color; colors without
    an entry are unconstrained.
    """

    forbids: tuple[tuple[int, str], ...]
    require_gallai: bool = True

    @classmethod
    def from_map(
        cls, per_color: Mapping[int, Optional[str]], require_gallai: bool = True
    ) -> "AvoidanceSpec":
        items = []
        for color, pid in per_color.items():
            if color < 1:
                raise ValueError(f"color ids start at 1, got {color}")
            if pid is not None:
                items.append((color, canonical_id(pid)))
        return cls(tuple(sorted(items)), require_gallai)

    @classmethod
    def forbid_all(
        cls, pattern_id: str, k: int, require_gallai: bool = True
    ) -> "AvoidanceSpec":
        return cls.from_map({c: pattern_id for c in range(1, k + 1)}, require_gallai)


def are_isomorphic(p: Pattern, q: Pattern) -> bool:
    """Whether p and q are one graph up to relabelling (at most ISO_CAP vertices).

    With equal degrees, so as many edges, a copy of p in q is an isomorphism.
    """
    if p.m > ISO_CAP or q.m > ISO_CAP:
        raise TooLargeError(f"isomorphism test capped at {ISO_CAP} vertices")
    if p.m != q.m or sorted(map(len, p.adjacency())) != sorted(map(len, q.adjacency())):
        return False
    return _embed_search(q.m, p, q.bitmasks())[0] is not None


def _embed_search(
    n: int, p: Pattern, nbr_color: Sequence[int]
) -> tuple[Optional[tuple[int, ...]], int]:
    """DFS for an injective edge-preserving map into one color class, placing
    p's vertices by descending degree, ties by label (a named fan: the hub,
    the inner rim along its path, then the rim's two ends)."""
    if p.m > n:
        return None, 0
    adj = p.adjacency()
    order = sorted(range(p.m), key=lambda v: (-len(adj[v]), v))
    pos_of = {v: t for t, v in enumerate(order)}
    prior = [
        [pos_of[u] for u in adj[v] if pos_of[u] < t] for t, v in enumerate(order)
    ]
    # Twin-class kernel: keep the alpha(p) lowest-indexed vertices of each
    # class of equal neighbor masks.  Exact and witness-preserving (module
    # docstring): a dropped twin is tried only after a lower, unused twin
    # with the same candidacy failed in its place.
    cap = independence_number(p)
    kept = 0
    class_size: dict[int, int] = {}
    for v, mask in enumerate(nbr_color):
        size = class_size.get(mask, 0)
        if size < cap:
            class_size[mask] = size + 1
            kept |= 1 << v
    host = [0] * p.m
    nodes = 0

    def go(t: int, used: int) -> bool:
        nonlocal nodes
        if t == p.m:
            return True
        cand = kept
        for s in prior[t]:
            cand &= nbr_color[host[s]]
        cand &= ~used
        while cand:
            b = cand & -cand
            cand ^= b
            nodes += 1
            host[t] = b.bit_length() - 1
            if go(t + 1, used | b):
                return True
        return False

    if go(0, 0):
        image = [0] * p.m
        for t, v in enumerate(order):
            image[v] = host[t]
        return tuple(image), nodes
    return None, nodes


def find_mono_embedding(
    c: EdgeColoring, pattern: Pattern, color: int
) -> Optional[Embedding]:
    """First monochromatic copy of pattern in the given color class, or None."""
    if color < 1:
        raise ValueError(f"color ids start at 1, got {color}")
    if color > c.k:
        raise ColorRangeError(f"color {color} outside 1..{c.k}")
    image, _ = _embed_search(c.n, pattern, color_neighbor_masks(c)[color])
    if image is None:
        return None
    return Embedding(color, image)


def verify(c: EdgeColoring, spec: AvoidanceSpec) -> VerificationReport:
    """Check a coloring against an avoidance spec, collecting all violations."""
    for color, _ in spec.forbids:
        if not 1 <= color <= c.k:
            raise ColorRangeError(f"color {color} outside 1..{c.k}")
    nbr = color_neighbor_masks(c)
    rainbow = find_rainbow_triangle(c) if spec.require_gallai else None
    witnesses = []
    nodes_total = 0
    for color, pid in spec.forbids:
        image, nodes = _embed_search(c.n, resolve(pid), nbr[color])
        nodes_total += nodes
        if image is not None:
            witnesses.append(Embedding(color, image))
    # the scan tries the pairs (x, y), y <= n - 2, in K_{n-1}'s edge order
    pairs = 0 if rainbow is None else edge_index(c.n - 1, rainbow[0], rainbow[1]) + 1
    return VerificationReport(
        passed=rainbow is None and not witnesses,
        rainbow_witness=rainbow,
        mono_witnesses=tuple(witnesses),
        stats=CheckStats(pairs, nodes_total, len(spec.forbids)),
    )
