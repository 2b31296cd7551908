"""The module tree of a coloring: rainbow triangles and Gallai partitions.

A module is a vertex set that every outside vertex sees in a single color.
Whether a coloring has a rainbow triangle is decided by a walk down its
module tree (Gallai 1967; Gyarfas and Simonyi, JGT 2004).  A triangle with
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
decide.  The walk names the witness, the lexicographically first rainbow
triple: at V it first scans the row of vertex 0, which ends most inputs with
a rainbow at once, and a walk that then finds a rainbow in a quotient runs
the O(n^2 k) scan once, from row 1; finding none there is an internal error.

A Gallai partition splits the vertex set into ell >= 2 parts such that any
two parts meet in a single color and the quotient coloring uses at most two
colors overall.  gallai_partition returns the one with the fewest parts and,
among those, the smallest part through vertex 0: the split of V that the walk
computes first.  If for some color d the edges avoiding d form a
disconnected graph, this is the split (component of 0, rest): any union of
components through 0 would do, and the component is the smallest.
Otherwise the top is prime and the parts are the maximal strong modules,
the unique coarsest valid partition.  A walk that reports rainbow-free has
checked every quotient below V, so gallai_partition checks no rows there.

Everything runs over per-color neighbor bitmasks (plain Python ints), which
color_neighbor_masks builds once per coloring and shares with the embedding
search in detect and the builders in construct.
"""

from __future__ import annotations

from operator import gt
from typing import Optional, Sequence, Union

from ._record import Record
from .coloring import EdgeColoring, row_bounds, row_offset


class DecompositionError(Exception):
    pass


class DecompositionInvariantError(DecompositionError):
    """Internal consistency failure; indicates a bug, not bad input."""


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


def _rainbow_scan(c: EdgeColoring, nbr, rows) -> Optional[tuple[int, int, int]]:
    """The first rainbow (x, y, z) with x < y < z and x in rows, or None."""
    full = (1 << c.n) - 1
    for x in rows:
        for y in range(x + 1, c.n - 1):
            cxy = c.color(x, y)
            same = 0
            for row in nbr:
                same |= row[x] & row[y]
            above = (full >> (y + 1)) << (y + 1)
            cand = above & ~(nbr[cxy][x] | nbr[cxy][y]) & ~same
            if cand:
                return x, y, (cand & -cand).bit_length() - 1
    return None


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


def _module_walk(
    c: EdgeColoring, nbr
) -> tuple[Optional[tuple[int, int, int]], Optional[list[int]]]:
    """Decide rainbow-freeness down the module tree (module docstring).

    Returns (witness, None) when c has a rainbow triangle, witness being the
    lexicographically first.  Otherwise returns (None, root), root being the
    split of V that the walk computed, or None when V needed none (under 3
    vertices or at most 2 colors).
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
        if s == full:
            witness = _rainbow_scan(c, nbr, (v0,))
            if witness is not None:
                return witness, None
        parts = _root_split(c, nbr, s)
        if s == full:
            root = parts
        if len(parts) == 2:
            d = c.color(v0, (parts[1] & -parts[1]).bit_length() - 1)
            parts = _co_components(nbr, s, d)
        reps = [(p & -p).bit_length() - 1 for p in parts]
        if _colors_within(c, nbr, sum(1 << r for r in reps), reps) > 2:
            witness = _rainbow_scan(c, nbr, range(1, c.n - 2))  # row 0 is clean
            if witness is None:
                raise DecompositionInvariantError(
                    "the module walk found a rainbow triangle that the scan does not")
            return witness, None
        stack.extend(parts)
    return None, root


def find_rainbow_triangle(c: EdgeColoring) -> Optional[tuple[int, int, int]]:
    """Lexicographically first triple whose three edges use three colors."""
    return _module_walk(c, color_neighbor_masks(c))[0]


class GallaiPartition(Record):
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
    witness, root = _module_walk(c, nbr)
    if witness is not None:
        raise RainbowTriangleError(witness)
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
    """Quotient by parts, after checking that any two parts meet in one color.

    Each part's first vertex is its representative.  Part a passes when, in
    every color d, each of its rows covers all later parts whose
    representatives meet a's in d: the later representatives in row d of
    a's, each widened to its whole part.  So each vertex is tested once per
    color, and only a part that fails is compared with the later parts one
    by one, to name the first pair.  The quotient colors are read from the
    representatives' byte rows.
    """
    n = c.n
    covered: set[int] = set()
    total = 0
    for idx, part in enumerate(parts):
        if not part:
            raise InvalidPartitionError(f"part {idx} is empty")
        if min(part) < 0 or max(part) >= n:
            bad = next(v for v in part if not 0 <= v < n)
            raise InvalidPartitionError(f"vertex {bad} out of range in part {idx}")
        total += len(part)
        covered.update(part)
    if len(covered) != total:
        raise InvalidPartitionError("parts overlap")
    if total != n:  # distinct vertices of range(n)
        raise InvalidPartitionError("parts do not cover all vertices")
    masks = [sum(1 << v for v in part) for part in parts]
    reps = [part[0] for part in parts]
    wide = [(1 << part[0], mask) for part, mask in zip(parts, masks) if len(part) > 1]
    later = sum(map((1).__lshift__, reps))
    rows = nbr[1:]
    for a, part in enumerate(parts):
        later ^= 1 << part[0]  # the representatives of parts a+1, a+2, ...
        for row in rows:
            seen = row[part[0]] & later
            if not seen:
                continue
            for bit, mask in wide:
                if seen & bit:
                    seen |= mask
            if any(row[i] & seen != seen for i in part):
                b = next(b for b in range(a + 1, len(parts))
                         if any(nbr[c.color(part[0], reps[b])][i] & masks[b] != masks[b]
                                for i in part))
                raise InvalidPartitionError(
                    f"parts {a} and {b} meet in more than one color", pair=(a, b))
    return EdgeColoring(len(parts), c.k, _pair_colors(c, reps))


def _pair_colors(c: EdgeColoring, reps: list[int]) -> bytes:
    """c.color(reps[a], reps[b]) for a < b, in lexicographic pair order."""
    if any(map(gt, reps, reps[1:])):  # a stored partition in its own order
        return bytes([c.color(x, y) for a, x in enumerate(reps) for y in reps[a + 1:]])
    n, colors = c.n, c.colors
    offsets = [row_offset(n, x) for x in reps]  # edge (x, y > x): offset(x) + y
    return bytes([colors[o + y] for a, o in enumerate(offsets) for y in reps[a + 1:]])


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
