"""Rainbow triangle search and monochromatic pattern detection.

Both searches run over per-color neighbor bitmasks (plain Python ints), so
they stay fast on the couple-hundred-vertex colorings the builders emit.
Witnesses are deterministic: the rainbow scan returns the lexicographically
first triple, the embedding search fixes a pattern vertex order (hub first
then rim for fans, otherwise descending degree) and tries host vertices in
ascending order.

Whether a coloring has a rainbow triangle is decided by a walk down its
module tree (Gallai 1967; Gyarfas and Simonyi, JGT 2004).  A module is a
vertex set that every outside vertex sees in a single color.  A triangle with
two vertices in one module is never rainbow, so a module split into modules
is rainbow-free exactly when the quotient on one representative per part is
and every part is.  The walk keeps a stack of modules, starting from V, and
skips a module S with fewer than 3 vertices or at most 2 colors inside.
Otherwise it splits S at the top of its decomposition: refinement from the
least vertex v0 gives P(v0), the maximal modules of S without v0, and
closures grow the part through v0 into the maximal strong module through it
(Ehrenfeucht, Gabow, McConnell and Sullivan, J. Algorithms 1994).  The parts
of P(v0) are modules, so a closure of v0 and whole parts grows by whole
parts, one member deciding for each.  A two-part split is a degenerate node
of some color d, which the walk replaces by all components of the non-d
graph inside S; any other split is prime, and by Gallai's theorem a prime
quotient is rainbow-free exactly when it uses at most 2 colors (with more,
its rainbow lifts to S through the representatives).  So the quotients alone
decide; at V the walk first checks the row of vertex 0, which ends most
inputs with a rainbow at once.  Only a walk that found a rainbow runs the
O(n^2 k) scan, whose witness is the answer; a walk that finds one the scan
does not is an internal error.

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

from typing import Mapping, Optional

from ._record import Record
from .coloring import EdgeColoring, row_bounds
from .patterns import Pattern, canonical_id, independence_number, resolve


class DecompositionError(Exception):
    pass


class DecompositionInvariantError(DecompositionError):
    """Internal consistency failure; indicates a bug, not bad input."""


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


def color_neighbor_masks(c: EdgeColoring) -> tuple[tuple[int, ...], ...]:
    """nbr[color][v] = bitmask of the vertices joined to v in that color.

    Built once per coloring and cached on it.  The rows are tuples, so every
    caller (verify, the rainbow walk, the embedding search, gallai_partition,
    reduced_coloring, the builders' certification) shares them read-only.
    """
    nbr = c.__dict__.get("_neighbor_masks")
    if nbr is None:
        nbr = _build_masks(c)
        object.__setattr__(c, "_neighbor_masks", nbr)
    return nbr


def _build_masks(c: EdgeColoring) -> tuple[tuple[int, ...], ...]:
    """The masks from c.colors by way of an n x w byte matrix, w = n rounded up to 8.

    Row i gets row i of colors right of the diagonal, and each column is
    copied below it with one strided slice.  Lane j (bytes j, j+8, ...) with
    the bytes of color d translated to 1 << j, all others to 0, and read
    little-endian has byte p at bit p, so the 8 lanes ORed hold vertex v's
    mask in bytes v*w/8 .. (v+1)*w/8.  Color 0 (diagonal, padding) is empty.
    """
    n = c.n
    r = -(-n // 8)
    w = 8 * r
    mat = bytearray(n * w)
    for i, (start, stop) in enumerate(row_bounds(n)):
        mat[i * w + i + 1:i * w + n] = c.colors[start:stop]
    for j in range(1, n):
        mat[j * w:j * w + j] = mat[j:j * w:w]
    lanes = [mat[j::8] for j in range(8)]
    del mat
    zeros = bytes(256)
    nbr = [(0,) * n]
    for d in range(1, c.k + 1):
        whole = 0
        for j, lane in enumerate(lanes):
            hits = lane.translate(zeros[:d] + bytes([1 << j]) + zeros[d + 1:])
            whole |= int.from_bytes(hits, "little")
        rows = memoryview(whole.to_bytes(n * r, "little"))
        nbr.append(tuple(int.from_bytes(rows[v * r:v * r + r], "little") for v in range(n)))
    return tuple(nbr)


def _class_masks(
    c: EdgeColoring, nbr: tuple[tuple[int, ...], ...], color: int
) -> tuple[int, ...]:
    """One row of color_neighbor_masks; a color above c.k is an empty class."""
    return nbr[color] if color <= c.k else (0,) * c.n


def _rainbow_row(c: EdgeColoring, nbr, x: int) -> tuple[Optional[tuple[int, int, int]], int]:
    """The first rainbow (x, y, z) with x < y < z, and the pairs (x, y) tried."""
    full = (1 << c.n) - 1
    pairs = 0
    for y in range(x + 1, c.n - 1):
        pairs += 1
        cxy = c.color(x, y)
        same = 0
        for row in nbr:
            same |= row[x] & row[y]
        above = (full >> (y + 1)) << (y + 1)
        cand = above & ~(nbr[cxy][x] | nbr[cxy][y]) & ~same
        if cand:
            z = (cand & -cand).bit_length() - 1
            return (x, y, z), pairs
    return None, pairs


def _rainbow_scan(c: EdgeColoring, nbr) -> tuple[Optional[tuple[int, int, int]], int]:
    """The lexicographically first rainbow triple, and the pairs scanned."""
    pairs = 0
    for x in range(c.n - 2):
        witness, row_pairs = _rainbow_row(c, nbr, x)
        pairs += row_pairs
        if witness is not None:
            return witness, pairs
    return None, pairs


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending.

    bin(mask) reversed has bit i at index i; str.find jumps from one set
    bit to the next in C, so this takes one Python step per set bit and no
    big-int arithmetic, on sparse masks as on dense ones.
    """
    text = bin(mask)[:1:-1]
    out = []
    at = text.find("1")
    while at >= 0:
        out.append(at)
        at = text.find("1", at + 1)
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


def _splitter(nbr, s: int, part: int) -> int:
    """A vertex of s outside part that sees part in two colors, or -1.

    Such a vertex z tells some member w from the least member u: z lies in
    (nbr[d][w] ^ nbr[d][u]) & outside for the colors d of (z, w) and (z, u).
    """
    outside = s & ~part
    members = _bits(part)
    u = members[0]
    for w in members[1:]:
        for row in nbr:
            diff = (row[w] ^ row[u]) & outside
            if diff:
                return (diff & -diff).bit_length() - 1
    return -1


def _modules_avoiding(nbr, s: int, v0: int) -> list[int]:
    """P(v0): the maximal modules of s without its vertex v0, by refinement.

    Split s - {v0} by color to v0, then split any part that some vertex z
    of s outside it sees in two colors by color to z, until no part has
    such a splitter.  Every module of s without v0 stays inside one part
    (z is outside it, so sees it in one color), and the final parts are
    modules, so they are the maximal ones; this coarsest stable refinement
    is unique, whatever splitter each step takes.  Singletons never split.
    """
    work = _split(s & ~(1 << v0), nbr, v0)
    done: list[int] = []
    while work:
        part = work.pop()
        z = _splitter(nbr, s, part) if part & (part - 1) else -1
        if z < 0:
            done.append(part)
        else:
            work.extend(_split(part, nbr, z))
    return done


def _root_split(c: EdgeColoring, nbr, s: int) -> list[int]:
    """Top of the decomposition of the module s (two or more vertices).

    The part through the least vertex v0 grows inside the maximal strong
    module M0 through v0: the closure of it and a part of P(v0) is s exactly
    when the part lies outside M0, and M0 is {v0} plus the parts of P(v0)
    inside it.  The other parts of P(v0) are the other parts.  On a prime top
    these are the maximal strong modules; on a degenerate top of color d they
    are (co-component of v0, rest), as the non-d graph's components through
    v0 form M0.
    """
    v0 = (s & -s).bit_length() - 1
    outside = _modules_avoiding(nbr, s, v0)
    tell = {}  # part: what its least member w sees in a color other than (v0, w)'s
    for part in outside:
        w = (part & -part).bit_length() - 1
        tell[part] = s & ~nbr[c.color(v0, w)][w]
    top, out = 1 << v0, 0  # out: parts outside M0, so a closure taking one in is s
    for part in outside:
        if part & top:
            continue
        grown, last = top | part, 0
        while grown != last and not grown & out:
            last = grown
            for p, t in tell.items():
                if grown & t:
                    grown |= p
                    if p & out:
                        break
        if grown == s or grown & out:
            out |= part
        else:
            top = grown
    return [top] + [p for p in outside if not p & top]


def _co_components(nbr, s: int, d: int) -> list[int]:
    """Components of the graph on s whose edges avoid color d."""
    comps = []
    rest = s
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= ~nbr[d][v]
            frontier = reach & rest & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _colors_within(c: EdgeColoring, nbr, s: int, members: list[int]) -> int:
    """How many colors the edges inside s use, counted up to 3."""
    used = 0
    for d in range(1, c.k + 1):
        row = nbr[d]
        if any(row[v] & s for v in members):
            used += 1
            if used > 2:
                break
    return used


def _module_walk(c: EdgeColoring, nbr) -> tuple[bool, Optional[list[int]]]:
    """Decide rainbow-freeness down the module tree (module docstring).

    Returns (True, None) when c has a rainbow triangle.  Otherwise returns
    (False, root), root being the split of V that the walk computed, or None
    when V needed none (under 3 vertices or at most 2 colors).
    """
    full = (1 << c.n) - 1
    root = None
    stack = [full]
    while stack:
        s = stack.pop()
        members = _bits(s)
        if len(members) < 3 or _colors_within(c, nbr, s, members) <= 2:
            continue
        v0 = members[0]
        if s == full and _rainbow_row(c, nbr, v0)[0] is not None:
            return True, None
        parts = _root_split(c, nbr, s)
        if s == full:
            root = parts
        if len(parts) == 2:
            d = c.color(v0, (parts[1] & -parts[1]).bit_length() - 1)
            parts = _co_components(nbr, s, d)
        reps = [(p & -p).bit_length() - 1 for p in parts]
        if _colors_within(c, nbr, sum(1 << r for r in reps), reps) > 2:
            return True, None
        stack.extend(parts)
    return False, root


def _rainbow_witness(c: EdgeColoring, nbr) -> tuple[tuple[int, int, int], int]:
    """The scan's witness on a coloring the module walk found a rainbow in."""
    witness, pairs = _rainbow_scan(c, nbr)
    if witness is None:
        raise DecompositionInvariantError(
            "the module walk found a rainbow triangle that the scan does not")
    return witness, pairs


def find_rainbow_triangle(c: EdgeColoring) -> Optional[tuple[int, int, int]]:
    """Lexicographically first triple whose three edges use three colors."""
    nbr = color_neighbor_masks(c)
    if not _module_walk(c, nbr)[0]:
        return None
    return _rainbow_witness(c, nbr)[0]


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
    if spec.require_gallai and _module_walk(c, nbr)[0]:
        rainbow, pairs = _rainbow_witness(c, nbr)
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
