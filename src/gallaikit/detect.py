"""Rainbow triangle search and monochromatic pattern detection.

Both searches run over per-color neighbor bitmasks (plain Python ints), so
they stay fast on the couple-hundred-vertex colorings the builders emit.
Witnesses are deterministic: the rainbow scan returns the lexicographically
first triple, the embedding search fixes a pattern vertex order (hub first
then rim for fans, otherwise descending degree) and tries host vertices in
ascending order.

The embedding search runs on a twin-class kernel of the color class.  False
twins (vertices with the same open neighborhood in that color) are
interchangeable: swapping two of them is an automorphism of the color class
that fixes every other vertex.  A copy of an m-vertex pattern uses at most m
members of any twin class, so the search keeps only the m lowest-indexed
members of each class.  This is exact, and it returns the same witness as the
search over every vertex: the ascending DFS reaches a dropped twin only after
an unused, lower-indexed twin of it has failed in the same position, and by
the swap the dropped twin must fail there too.  The blow-up towers the
builders emit are a few huge twin classes in their top colors, so the kernel
is what keeps certifying them cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Mapping, Optional

from .coloring import EdgeColoring
from .patterns import Pattern, TooLargeError, canonical_id, resolve


@dataclass(frozen=True)
class Embedding:
    """Injective pattern-to-host vertex map witnessing a monochromatic copy."""

    color: int
    map: tuple[int, ...]


@dataclass(frozen=True)
class CheckStats:
    pairs_scanned: int
    embedding_nodes: int
    patterns_checked: int


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    rainbow_witness: Optional[tuple[int, int, int]]
    mono_witnesses: tuple[Embedding, ...]
    stats: CheckStats


@dataclass(frozen=True)
class AvoidanceSpec:
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


def color_neighbor_masks(c: EdgeColoring) -> list[list[int]]:
    """nbr[color][v] = bitmask of the vertices joined to v in that color."""
    nbr = [[0] * c.n for _ in range(c.k + 1)]
    for (i, j), col in c.items():
        nbr[col][i] |= 1 << j
        nbr[col][j] |= 1 << i
    return nbr


def _class_masks(c: EdgeColoring, nbr: list[list[int]], color: int) -> list[int]:
    """One row of color_neighbor_masks; a color above c.k is an empty class."""
    return nbr[color] if color <= c.k else [0] * c.n


def _rainbow_scan(c: EdgeColoring, nbr) -> tuple[Optional[tuple[int, int, int]], int]:
    n, k = c.n, c.k
    full = (1 << n) - 1
    pairs = 0
    for x in range(n - 2):
        for y in range(x + 1, n - 1):
            pairs += 1
            cxy = c.color(x, y)
            same = 0
            for d in range(1, k + 1):
                same |= nbr[d][x] & nbr[d][y]
            above = (full >> (y + 1)) << (y + 1)
            cand = above & ~(nbr[cxy][x] | nbr[cxy][y]) & ~same
            if cand:
                z = (cand & -cand).bit_length() - 1
                return (x, y, z), pairs
    return None, pairs


def find_rainbow_triangle(c: EdgeColoring) -> Optional[tuple[int, int, int]]:
    """Lexicographically first triple whose three edges use three colors."""
    if c.k < 3 or c.n < 3:
        return None
    witness, _ = _rainbow_scan(c, color_neighbor_masks(c))
    return witness


def _kipas_order(p: Pattern) -> Optional[list[int]]:
    """[hub, rim...] when p is a fan, else None."""
    mr = p.m - 1
    if mr < 2 or len(p.edges) != 2 * mr - 1:
        return None
    adj = p.adjacency()
    for hub in range(p.m):
        if len(adj[hub]) != mr:
            continue
        rest = [v for v in range(p.m) if v != hub]
        rim_deg = {v: len(adj[v] - {hub}) for v in rest}
        ends = [v for v in rest if rim_deg[v] == 1]
        if len(ends) != 2 or any(rim_deg[v] not in (1, 2) for v in rest):
            continue
        walk = [min(ends)]
        prev = hub
        while True:
            nxt = [w for w in adj[walk[-1]] if w != hub and w != prev]
            if not nxt:
                break
            prev = walk[-1]
            walk.append(nxt[0])
        if len(walk) == mr:
            return [hub] + walk
    return None


def _embedding_order(p: Pattern) -> list[int]:
    fan = _kipas_order(p)
    if fan is not None:
        return fan
    deg = [len(a) for a in p.adjacency()]
    return sorted(range(p.m), key=lambda v: (-deg[v], v))


def _embed_search(
    n: int, p: Pattern, nbr_color: list[int]
) -> tuple[Optional[tuple[int, ...]], int]:
    """DFS for an injective edge-preserving map into one color class."""
    if p.m > n:
        return None, 0
    order = _embedding_order(p)
    adj = p.adjacency()
    pos_of = {v: t for t, v in enumerate(order)}
    prior = [
        [pos_of[u] for u in adj[v] if pos_of[u] < t] for t, v in enumerate(order)
    ]
    # Twin-class kernel: keep the p.m lowest-indexed vertices of each class
    # of equal neighbor masks.  Exact and witness-preserving (module
    # docstring): a dropped twin is tried only after a lower, unused twin
    # with the same candidacy failed in its place.
    kept = 0
    class_size: dict[int, int] = {}
    for v, mask in enumerate(nbr_color):
        size = class_size.get(mask, 0)
        if size < p.m:
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
    masks = _class_masks(c, color_neighbor_masks(c), color)
    image, _ = _embed_search(c.n, pattern, masks)
    if image is None:
        return None
    return Embedding(color, image)


def check_embedding(c: EdgeColoring, pattern: Pattern, emb: Embedding) -> bool:
    """Re-check an embedding from scratch: injective and edge-preserving."""
    f = emb.map
    if len(f) != pattern.m or len(set(f)) != pattern.m:
        return False
    if any(not 0 <= v < c.n for v in f):
        return False
    if not 1 <= emb.color <= c.k:
        return False
    return all(c.color(f[a], f[b]) == emb.color for a, b in pattern.edges)


def verify(c: EdgeColoring, spec: AvoidanceSpec) -> VerificationReport:
    """Check a coloring against an avoidance spec, collecting all violations."""
    nbr = color_neighbor_masks(c)
    rainbow = None
    pairs = 0
    if spec.require_gallai and c.k >= 3 and c.n >= 3:
        rainbow, pairs = _rainbow_scan(c, nbr)
    witnesses = []
    nodes_total = 0
    checked = 0
    for color, pid in spec.forbids:
        pat = resolve(pid)
        checked += 1
        image, nodes = _embed_search(c.n, pat, _class_masks(c, nbr, color))
        nodes_total += nodes
        if image is not None:
            witnesses.append(Embedding(color, image))
    return VerificationReport(
        passed=rainbow is None and not witnesses,
        rainbow_witness=rainbow,
        mono_witnesses=tuple(witnesses),
        stats=CheckStats(pairs, nodes_total, checked),
    )


def enumerate_pattern_images(pattern: Pattern, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every distinct edge set an injective copy of pattern can occupy in K_n.

    The pattern's non-isolated vertices, relabelled 0..m'-1, give one edge
    set per coset of its automorphism group (all m'! permutations, once per
    call); each is then placed on every m'-subset of range(n) in increasing
    order.  Without isolated vertices an image spans exactly its subset, so
    images on different subsets never collide and nothing is deduplicated
    across subsets.  Isolated vertices only need room: pattern.m <= n.
    Sorted, so the CNF clause order is fixed.  Capped at n <= 16.
    """
    if n > 16:
        raise TooLargeError(f"image enumeration capped at n=16, got {n}")
    if pattern.m > n:
        return ()
    spine = sorted({v for e in pattern.edges for v in e})
    pos = {v: t for t, v in enumerate(spine)}
    edges = [(pos[a], pos[b]) for a, b in pattern.edges]
    shapes = {
        frozenset((min(per[a], per[b]), max(per[a], per[b])) for a, b in edges)
        for per in permutations(range(len(spine)))
    }
    return tuple(sorted(
        tuple(sorted((sub[a], sub[b]) for a, b in shape))
        for sub in combinations(range(n), len(spine))
        for shape in shapes
    ))
