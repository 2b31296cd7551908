"""Shared helpers: independent oracles and seeded random coloring builders.

The oracles here deliberately re-derive everything from first principles
(plain nested loops, inline index arithmetic) so that agreement with the
library is evidence, not circularity.
"""

import argparse
import dataclasses
import random
from itertools import combinations, permutations

from gallaikit.cli import (
    _R2_HELP, _cmd_build, _cmd_build_mixed, _cmd_catalog, _cmd_decode, _cmd_encode,
    _cmd_formula, _cmd_partition, _cmd_search, _cmd_verify, _forbid_pair, _per_color_list,
)
from gallaikit.cnf import CnfDocument
from gallaikit.coloring import EdgeColoring, edge_index, make_coloring
from gallaikit.decompose import GallaiPartition
from gallaikit.detect import AvoidanceSpec, CheckStats, Embedding, VerificationReport
from gallaikit.formulas import GrValue
from gallaikit.patterns import ISO_CAP, Pattern, TooLargeError
from gallaikit.search import SearchOutcome, SearchProblem

# Frozen dataclass twins of the library's value records: the same field
# names and defaults, written out here, and no __post_init__.  What a
# frozen dataclass does with a field tuple (construction, equality,
# hashing, repr, immutability) is the oracle for gallaikit._record.Record.
RECORD_TWINS = {
    cls: dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    for cls, fields in (
        (EdgeColoring, ["n", "k", "colors"]),
        (Pattern, ["m", "edges", "label"]),
        (Embedding, ["color", "map"]),
        (CheckStats, ["pairs_scanned", "embedding_nodes", "patterns_checked"]),
        (VerificationReport, ["passed", "rainbow_witness", "mono_witnesses", "stats"]),
        (AvoidanceSpec,
         ["forbids", ("require_gallai", bool, dataclasses.field(default=True))]),
        (SearchProblem,
         ["n", "per_color", ("require_gallai", bool, dataclasses.field(default=False))]),
        (SearchOutcome, ["kind", "witness", "nodes_explored", "symmetry_reduced"]),
        (CnfDocument, ["n", "k", "num_vars", "clause_text"]),
        (GallaiPartition, ["parts", "quotient"]),
        (GrValue, ["value", "case_tag"]),
    )
}


def naive_mono(c: EdgeColoring, pattern, color: int) -> bool:
    """Subset-bijection enumeration: does any injective copy sit in this color?

    Index arithmetic is inlined on purpose; it re-derives the row-major
    upper-triangle layout instead of calling the library's edge_index.
    """
    pe = tuple(pattern.edges)
    cols = c.colors
    n = c.n
    if pattern.m > n:
        return False
    for sub in combinations(range(n), pattern.m):
        for per in permutations(sub):
            for a, b in pe:
                u, v = per[a], per[b]
                if u > v:
                    u, v = v, u
                if cols[u * (2 * n - u - 1) // 2 + (v - u - 1)] != color:
                    break
            else:
                return True
    return False


def plain_embed(c: EdgeColoring, pattern, color: int) -> tuple[int, ...] | None:
    """The embedding DFS without the twin-class kernel: every host vertex.

    Same pattern vertex order as the library (imported, since the witness
    depends on it) and the same ascending host order, but it searches all
    of V and builds its masks with its own loop, so the library's kernel
    must reproduce its first witness exactly.
    """
    from gallaikit.detect import _embedding_order

    n, m = c.n, pattern.m
    if m > n:
        return None
    nbr = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if c.color(u, v) == color:
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
    order = _embedding_order(pattern)
    adj = pattern.adjacency()
    pos_of = {v: t for t, v in enumerate(order)}
    prior = [[pos_of[u] for u in adj[v] if pos_of[u] < t] for t, v in enumerate(order)]
    host = [0] * m

    def go(t: int, used: int) -> bool:
        if t == m:
            return True
        cand = (1 << n) - 1
        for s in prior[t]:
            cand &= nbr[host[s]]
        cand &= ~used
        while cand:
            b = cand & -cand
            cand ^= b
            host[t] = b.bit_length() - 1
            if go(t + 1, used | b):
                return True
        return False

    if not go(0, 0):
        return None
    image = [0] * m
    for t, v in enumerate(order):
        image[v] = host[t]
    return tuple(image)


def plain_are_isomorphic(p: Pattern, q: Pattern) -> bool:
    """Backtracking isomorphism test for patterns up to ISO_CAP vertices.

    The library's former patterns.are_isomorphic, body unchanged, kept as the
    oracle of detect.are_isomorphic, which runs on the embedding DFS.
    """
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


def plain_fan_order(p: Pattern) -> list[int] | None:
    """[hub, rim...] when p is a fan, else None.

    The library's former detect._kipas_order, a structural walk: a hub of
    degree m whose other vertices form a path, walked from its lower end.
    """
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


def naive_images(pattern, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Brute-force image enumeration: every bijection of every vertex subset.

    The library's former enumerate_pattern_images, kept as its oracle: it
    deduplicates edge sets with frozensets and applies the same final sort.
    """
    if pattern.m > n:
        return ()
    seen = set()
    for sub in combinations(range(n), pattern.m):
        for per in permutations(sub):
            seen.add(frozenset(
                (min(per[a], per[b]), max(per[a], per[b])) for a, b in pattern.edges))
    return tuple(sorted(tuple(sorted(img)) for img in seen))


def plain_cnf_clauses(problem) -> tuple[tuple[int, ...], ...]:
    """cnf.encode_cnf's clause tuple, order included, from plain loops.

    Images come from naive_images and edge indices from inline arithmetic,
    so neither the library's image enumeration nor its compiled problem is
    used; only the pattern ids are resolved through the catalog.
    """
    from gallaikit.patterns import resolve

    n, k = problem.n, len(problem.per_color)

    def var(u, v, c):
        return (u * (2 * n - u - 1) // 2 + (v - u - 1)) * k + c

    colors = range(1, k + 1)
    edges = list(combinations(range(n), 2))
    clauses = [tuple(var(u, v, c) for c in colors) for u, v in edges]
    clauses += [(-var(u, v, c1), -var(u, v, c2))
                for u, v in edges for c1, c2 in combinations(colors, 2)]
    if problem.require_gallai and k >= 3:
        clauses += [(-var(x, y, c1), -var(x, z, c2), -var(y, z, c3))
                    for x, y, z in combinations(range(n), 3)
                    for c1, c2, c3 in permutations(colors, 3)]
    for color, pid in enumerate(problem.per_color, start=1):
        if pid is not None:
            clauses += [tuple(-var(u, v, color) for u, v in image)
                        for image in naive_images(resolve(pid), n)]
    return tuple(clauses)


def int_tuple_dimacs(problem) -> str:
    """cnf.encode_cnf(problem).to_dimacs() by way of one int tuple per clause.

    The library's former encoder and writer, kept as their oracle: it reads
    the same SearchProblem image and triangle lists, builds every clause as
    an int tuple and prints each literal with str().
    """
    from gallaikit.coloring import edge_count, edge_index, edge_list

    n, k = problem.n, problem.k
    e_total = edge_count(n)

    def var(e, c):
        return e * k + c

    clauses = [tuple(var(e, c) for c in range(1, k + 1)) for e in range(e_total)]
    clauses += [(-var(e, c1), -var(e, c2))
                for e in range(e_total) for c1, c2 in combinations(range(1, k + 1), 2)]
    clauses += [(-var(exy, c1), -var(exz, c2), -var(eyz, c3))
                for exy, exz, eyz in problem.rainbow_triangles()
                for c1, c2, c3 in permutations(range(1, k + 1), 3)]
    images = {c: imgs for colors, imgs in problem.forbidden_images() for c in colors}
    for color in range(1, k + 1):
        clauses += [tuple(-var(e, color) for e in edges) for edges in images.get(color, ())]
    lines = [f"c var((i,j),c) = edge_index(i,j)*{k} + c; edges lexicographic"]
    for i, j in edge_list(n):
        base = edge_index(n, i, j) * k
        lines.append(f"c edge ({i},{j}): vars {base + 1}..{base + k}")
    lines.append(f"p cnf {e_total * k} {len(clauses)}")
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def plain_parse_dimacs(text: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(num_vars, clauses) from DIMACS text, every token read with int().

    The library's former parser, kept as the oracle of cnf.parse_dimacs on
    input whose tokens are all ASCII integers: comment and blank lines are
    skipped, a 0 ends a clause wherever it stands, and a last clause may lack
    its 0.  It raises ValueError where the library raises CnfError.
    """
    header = None
    clauses = []
    pending = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf" or header is not None:
                raise ValueError(f"bad or repeated problem line {line!r}")
            header = [int(tok) for tok in fields[2:]]
            continue
        if header is None:
            raise ValueError("clause before the problem line")
        for lit in map(int, line.split()):
            if lit == 0:
                if pending:
                    clauses.append(tuple(pending))
                    pending = []
            else:
                pending.append(lit)
    if pending:
        clauses.append(tuple(pending))
    if header is None:
        raise ValueError("missing problem line")
    if header[1] != len(clauses):
        raise ValueError(f"problem line declares {header[1]} clauses, found {len(clauses)}")
    return header[0], tuple(clauses)


def int_clauses(doc) -> tuple[tuple[int, ...], ...]:
    """doc's clauses as int tuples, read from its clause_text with int().

    The library's former int view of a document, kept as an oracle: each
    line is split on whitespace and its final 0 dropped.
    """
    return tuple(tuple(map(int, line.split()[:-1])) for line in doc.clause_text.splitlines())


def clause_text_of(clauses) -> str:
    """clause_text for int clauses, each literal printed with str(): the
    library's former int-clause constructor path, kept for building test
    documents."""
    return "".join(" ".join(map(str, clause)) + " 0\n" for clause in clauses)


def plain_assignment_satisfies(doc, assignment) -> bool:
    """cnf.assignment_satisfies as a per-literal loop over every clause.

    The library's former check, kept as its oracle: a variable is true iff
    the assignment lists it positively, and a clause holds iff one of its
    literals is true under that reading.
    """
    true_vars = {lit for lit in assignment if lit > 0}
    for clause in int_clauses(doc):
        if not any(
            (lit > 0 and lit in true_vars) or (lit < 0 and -lit not in true_vars)
            for lit in clause
        ):
            return False
    return True


def naive_rainbow(c: EdgeColoring) -> tuple[int, int, int] | None:
    """First triangle wearing three distinct colors, scanning lexicographically."""
    for u, v, w in combinations(range(c.n), 3):
        a, b, d = c.color(u, v), c.color(u, w), c.color(v, w)
        if a != b and a != d and b != d:
            return (u, v, w)
    return None


def pair_closure_parts(c: EdgeColoring):
    """The former gallai_partition engine, kept as its oracle.

    Returns ("rainbow", triple) when the coloring has a rainbow triangle, else
    (parts, quotient colors).  A two-part split comes from a color d whose
    complement is disconnected (component of vertex 0, rest; lexicographically
    least over d); otherwise every vertex v gets the union of the closures of
    the pairs {v, u} that stay proper, a closure adding every outside vertex
    that sees the set in two colors.
    """
    witness = naive_rainbow(c)
    if witness is not None:
        return "rainbow", witness
    n = c.n
    every = set(range(n))
    splits = []
    for d in range(1, c.k + 1):
        comp, stack = {0}, [0]
        while stack:
            u = stack.pop()
            for v in every - comp:
                if c.color(u, v) != d:
                    comp.add(v)
                    stack.append(v)
        if comp != every:
            splits.append([tuple(sorted(comp)), tuple(sorted(every - comp))])

    def closure(s):
        while True:
            add = {w for w in every - s if len({c.color(w, x) for x in s}) > 1}
            if not add:
                return s
            s |= add

    if splits:
        parts = min(splits)
    else:
        parts, assigned = [], set()
        for v in range(n):
            if v in assigned:
                continue
            member = set()
            for u in range(n):
                if u != v and u not in member:
                    s = closure({v, u})
                    if s != every:
                        member |= s
            member = member or {v}
            assert not member & assigned, "closures overlap"
            assigned |= member
            parts.append(tuple(sorted(member)))
    parts = sorted(parts)
    quotient = tuple(c.color(parts[a][0], parts[b][0])
                     for a in range(len(parts)) for b in range(a + 1, len(parts)))
    return tuple(parts), quotient


def plain_bits(mask: int) -> list[int]:
    """Set bit positions, ascending, by clearing the lowest bit each step."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def plain_modules_avoiding(nbr, s: int, v0: int) -> list[int]:
    """decompose._modules_avoiding as pivot refinement: the library's former loop.

    Split s - {v0} by color to v0, then every part by each vertex of s
    outside it.  A vertex must split again once its own part splits, so the
    vertices of every part that splits go back on the work list; singletons
    leave the refinement at once.
    """
    def split(part, w):
        pieces = []
        for row in nbr:
            piece = part & row[w]
            if piece == part:
                return [part]
            if piece:
                pieces.append(piece)
        return pieces

    queued = s & ~(1 << v0)
    parts = [queued]
    done = []
    pending = plain_bits(queued)[::-1] + [v0]  # v0 first, then ascending
    while pending and parts:
        w = pending.pop()
        bit = 1 << w
        queued &= ~bit
        refined = []
        for part in parts:
            pieces = [part] if part & bit else split(part, w)
            if len(pieces) > 1:
                pending.extend(plain_bits(part & ~queued))
                queued |= part
            for piece in pieces:
                (refined if piece & (piece - 1) else done).append(piece)
        parts = refined
    return parts + done


def plain_closure(nbr, s: int, full: int) -> int:
    """Smallest module of full containing s, grown one vertex at a time.

    The library's former detect._closure, kept as the oracle of the closure
    over whole parts in decompose._root_split: each round adds every vertex of
    full outside s that sees s in two colors, until a round adds none.
    """
    anchor = (s & -s).bit_length() - 1
    while s != full:
        add = 0
        for row in nbr:
            for w in plain_bits(row[anchor] & full & ~s):
                if s & ~row[w]:
                    add |= 1 << w
        if not add:
            break
        s |= add
    return s


def prime_top() -> EdgeColoring:
    """A random 2-coloring of 600 vertices from random.Random(602), with
    vertex 0 blown up into a color-3 triangle: 602 vertices, rainbow-free,
    whose top is a 600-part prime quotient."""
    from gallaikit.coloring import blowup

    rng = random.Random(602)
    base = EdgeColoring(600, 3, bytes(rng.randint(1, 2) for _ in range(600 * 599 // 2)))
    return blowup(base, [EdgeColoring(3, 3, (3, 3, 3))] + [EdgeColoring(1, 3, ())] * 599)


def pairwise_quotient(c: EdgeColoring, parts, nbr) -> EdgeColoring:
    """decompose._quotient_of checked pair by pair, on parts it has validated.

    The library's former loop, kept as its oracle: for parts a < b it takes
    the color of their first vertices and requires every row of part a in
    that color to cover part b, raising InvalidPartitionError with the
    first pair that fails.
    """
    from gallaikit.decompose import InvalidPartitionError

    masks = [sum(1 << v for v in part) for part in parts]
    colors = []
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            col = c.color(parts[a][0], parts[b][0])
            row, mb = nbr[col], masks[b]
            if any(row[i] & mb != mb for i in parts[a]):
                raise InvalidPartitionError(
                    f"parts {a} and {b} meet in more than one color", pair=(a, b))
            colors.append(col)
    return EdgeColoring(len(parts), c.k, colors)


def _set_partitions(items):
    if not items:
        yield []
        return
    first = items[0]
    for rest in _set_partitions(items[1:]):
        for i in range(len(rest)):
            yield rest[:i] + [[first] + rest[i]] + rest[i + 1:]
        yield [[first]] + rest


def _cross_colors(c: EdgeColoring, parts) -> set[int] | None:
    """Colors between the parts; None when two parts meet in more than one color."""
    cross = set()
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            between = {c.color(u, v) for u in parts[a] for v in parts[b]}
            if len(between) > 1:
                return None
            cross |= between
    return cross


def brute_force_min_partitions(c: EdgeColoring) -> list[tuple[tuple[int, ...], ...]]:
    """Every valid Gallai partition minimizing (ell, size of the part through 0).

    Enumerates all set partitions (n <= 8 keeps this to Bell(8) = 4140) and
    keeps those with ell >= 2, one color between any two parts and at most
    two colors overall; returns the minimizers as sorted tuples of parts.
    """
    assert c.n <= 8
    best_key, best = None, []
    for raw in _set_partitions(list(range(c.n))):
        cross = _cross_colors(c, raw)
        if len(raw) < 2 or cross is None or len(cross) > 2:
            continue
        key = (len(raw), len(next(p for p in raw if 0 in p)))
        parts = tuple(sorted(tuple(sorted(p)) for p in raw))
        if best_key is None or key < best_key:
            best_key, best = key, [parts]
        elif key == best_key:
            best.append(parts)
    return sorted(best)


def plain_masks(c: EdgeColoring) -> list[list[int]]:
    """Per-color neighbor masks from one walk over c.items().

    The library's former color_neighbor_masks, kept as its oracle.
    """
    nbr = [[0] * c.n for _ in range(c.k + 1)]
    for (i, j), col in c.items():
        nbr[col][i] |= 1 << j
        nbr[col][j] |= 1 << i
    return nbr


def plain_blowup(base: EdgeColoring, parts) -> EdgeColoring:
    """blowup by one color lookup per pair: the library's former loop."""
    owner, local = [], []
    for p_id, part in enumerate(parts):
        owner.extend([p_id] * part.n)
        local.extend(range(part.n))
    out = []
    for i, j in combinations(range(len(owner)), 2):
        pi, pj = owner[i], owner[j]
        if pi == pj:
            out.append(parts[pi].color(local[i], local[j]))
        else:
            out.append(base.color(pi, pj))
    return EdgeColoring(len(owner), max([base.k] + [p.k for p in parts]), tuple(out))


def plain_serialize(c: EdgeColoring) -> str:
    """serialize by str() on every color of the tuple: the library's former loop."""
    lines = [f"grc 1 {c.n} {c.k}"]
    for i in range(c.n - 1):
        start = edge_index(c.n, i, i + 1)
        lines.append(" ".join(map(str, c.colors[start:start + c.n - 1 - i])))
    return "\n".join(lines) + "\n"


def random_coloring(rng: random.Random, n: int, k: int) -> EdgeColoring:
    cmap = {}
    for i in range(n):
        for j in range(i + 1, n):
            cmap[(i, j)] = rng.randint(1, k)
    return make_coloring(n, k, cmap)


def random_gallai_blowup(rng: random.Random, n: int, k: int) -> EdgeColoring:
    """Rainbow-triangle-free coloring built by recursive substitution.

    Any 2-colored base is rainbow-free, and blow-ups preserve that, so the
    result is rainbow-free by construction without ever running a checker.
    """
    from gallaikit.coloring import blowup

    if n == 1:
        return make_coloring(1, k, {})
    t = rng.randint(2, min(n, 5))
    # split n into t positive part sizes
    cuts = sorted(rng.sample(range(1, n), t - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    two = rng.sample(range(1, k + 1), min(2, k))
    base_map = {}
    for i in range(t):
        for j in range(i + 1, t):
            base_map[(i, j)] = rng.choice(two)
    base = make_coloring(t, k, base_map)
    parts = [random_gallai_blowup(rng, s, k) for s in sizes]
    return blowup(base, parts)


def buffer_inputs() -> list[EdgeColoring]:
    """Colorings for the byte-buffer differential tests.

    50 random colorings (k up to 12, so rows with two-digit tokens occur),
    20 random Gallai blow-ups, the h1 and h10 towers at k=4, and the edge
    cases n=1, n=2, k=1, k=255 and a declared color that is never used.
    """
    from gallaikit.construct import build_lower

    rng = random.Random(8)
    cases = [random_coloring(rng, rng.randint(1, 30), rng.randint(1, 12))
             for _ in range(50)]
    cases += [random_gallai_blowup(rng, rng.randint(1, 60), rng.randint(1, 6))
              for _ in range(20)]
    cases += [build_lower("h1", 4, certify=False), build_lower("h10", 4, certify=False)]
    cases += [
        EdgeColoring(1, 1, ()),
        EdgeColoring(1, 3, ()),
        EdgeColoring(2, 1, (1,)),
        EdgeColoring(2, 4, (4,)),
        EdgeColoring(4, 1, (1,) * 6),
        EdgeColoring(4, 3, (1, 3, 1, 3, 1, 3)),  # color 2 is never used
        EdgeColoring(3, 255, (255, 1, 200)),
    ]
    return cases


def recheck_partition(c: EdgeColoring, gp) -> None:
    """Independent validity conditions, re-derived with plain loops."""
    seen = sorted(v for part in gp.parts for v in part)
    assert seen == list(range(c.n)), "parts must partition the vertex set"
    assert len(gp.parts) >= 2
    assert gp.ell == len(gp.parts)
    cross_colors = set()
    for a in range(len(gp.parts)):
        for b in range(a + 1, len(gp.parts)):
            between = {c.color(u, v) for u in gp.parts[a] for v in gp.parts[b]}
            assert len(between) == 1, "each pair of parts must be mc-adjacent"
            cross_colors |= between
    assert len(cross_colors) <= 2, "at most two colors may appear between parts"
    for a in range(len(gp.parts)):
        for b in range(a + 1, len(gp.parts)):
            u, v = gp.parts[a][0], gp.parts[b][0]
            assert gp.quotient.color(a, b) == c.color(u, v)


def plant_rainbow(rng: random.Random, c: EdgeColoring) -> EdgeColoring:
    """Overwrite one triangle with three distinct colors (needs k >= 3, n >= 3)."""
    assert c.k >= 3 and c.n >= 3
    u, v, w = sorted(rng.sample(range(c.n), 3))
    chosen = rng.sample(range(1, c.k + 1), 3)
    cmap = {pair: col for pair, col in c.items()}
    cmap[(u, v)], cmap[(u, w)], cmap[(v, w)] = chosen
    return make_coloring(c.n, c.k, cmap)


def plain_exhaustive_check(problem, max_nodes: int | None = None, lex_leader: bool = True):
    """search.exhaustive_check with the completion test as a list scan.

    The library's former DFS, kept as its oracle: per (edge, color) a plain
    list of completion masks, built from naive_images with inline edge
    indices, and at every node a Python loop asking whether some mask lies
    inside the color's edge set.  Same edge and color order and same node
    counting, so kind, nodes_explored, symmetry_reduced, the witness and
    the node at which max_nodes cuts off must all agree.

    With lex_leader, the library's symmetry breaking, written out from its
    definition: a color is skipped, and is not a node, when some adjacent
    vertex transposition maps the placed prefix plus that color to one that
    is already lexicographically smaller (found by scanning both in edge
    order up to the first position that differs or is not yet placed), or,
    when every color forbids the same pattern, when it exceeds the largest
    color placed so far by more than 1.  Without it, the unpruned
    traversal: in that symmetric case only the first edge is pinned to
    color 1.
    """
    from gallaikit.patterns import resolve
    from gallaikit.search import ScopeExceededError, SearchOutcome

    n, k = problem.n, problem.k
    e_total = n * (n - 1) // 2

    def idx(u, v):
        return u * (2 * n - u - 1) // 2 + (v - u - 1)

    symmetric = k >= 2 and len(set(problem.per_color)) == 1
    if e_total == 0:
        return SearchOutcome("witness", EdgeColoring(n, k, ()), 0, False)
    mono = [[[] for _ in range(k + 1)] for _ in range(e_total)]
    for color, pid in enumerate(problem.per_color, start=1):
        if pid is None:
            continue
        for image in naive_images(resolve(pid), n):
            mask = 0
            for i, j in image:
                mask |= 1 << idx(i, j)
            top = mask.bit_length() - 1
            mono[top][color].append(mask ^ (1 << top))
    tri = [[] for _ in range(e_total)]
    if problem.require_gallai and k >= 3:
        for y, z in combinations(range(n), 2):
            for x in range(y):
                tri[idx(y, z)].append((idx(x, y), idx(x, z)))
    # swapped[t][p] = the edge that position p becomes under (t, t+1)
    swapped = []
    for t in range(n - 1):
        relabel = list(range(n))
        relabel[t], relabel[t + 1] = t + 1, t
        swapped.append([idx(min(relabel[u], relabel[v]), max(relabel[u], relabel[v]))
                        for u, v in combinations(range(n), 2)])

    def lex_smaller(prefix):
        """Does some adjacent transposition provably make prefix smaller?"""
        for perm in swapped:
            for p, q in enumerate(perm):
                if p >= len(prefix) or q >= len(prefix):
                    break
                if prefix[q] != prefix[p]:
                    if prefix[q] < prefix[p]:
                        return True
                    break
        return False

    choice = [0] * e_total
    col_mask = [0] * (k + 1)
    pos = nodes = 0
    while True:
        if choice[pos]:
            col_mask[choice[pos]] ^= 1 << pos
        if not symmetric:
            limit = k
        elif lex_leader:
            limit = min(k, max(choice[:pos], default=0) + 1)
        else:
            limit = 1 if pos == 0 else k
        placed = 0
        for color in range(choice[pos] + 1, limit + 1):
            if lex_leader and lex_smaller(choice[:pos] + [color]):
                continue
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise ScopeExceededError(f"node budget {max_nodes} exhausted")
            cm = col_mask[color]
            ok = not any(rem & cm == rem for rem in mono[pos][color]) and not any(
                choice[e1] != choice[e2] and color not in (choice[e1], choice[e2])
                for e1, e2 in tri[pos]
            )
            if ok:
                placed = color
                break
        if placed:
            choice[pos] = placed
            col_mask[placed] |= 1 << pos
            pos += 1
            if pos == e_total:
                witness = EdgeColoring(n, k, tuple(choice))
                return SearchOutcome("witness", witness, nodes, symmetric)
            continue
        choice[pos] = 0
        pos -= 1
        if pos < 0:
            return SearchOutcome("exhausted", None, nodes, symmetric)


def plain_completion_tables(problem):
    """The completion tables built from the image tuples, grouped by their last
    edge, with each has[d] grown by int OR, one bit per mask in image order:
    the oracle of search._completion_tables, which compiles from the pattern
    shapes and numbers the masks otherwise, so tests compare masks, not bits."""
    from gallaikit.coloring import edge_count

    table = [[(0, ())] * (problem.k + 1) for _ in range(edge_count(problem.n))]
    for colors, images in problem.forbidden_images():
        groups = [[] for _ in table]
        for image in images:
            groups[image[-1]].append(image[:-1])
        for pos, group in enumerate(groups):
            if not group:
                continue
            alive = (1 << len(group)) - 1
            has = {}
            for t, rest in enumerate(group):
                bit = 1 << t
                for d in rest:
                    has[d] = has.get(d, 0) | bit
            slices = []
            for shift in sorted({d & ~7 for d in has}):
                nb = [alive ^ has.get(shift + i, 0) for i in range(8)]
                lo, hi = [alive], [alive]
                for i in range(4):
                    lo += [f & nb[i] for f in lo]
                    hi += [f & nb[4 + i] for f in hi]
                slices.append((shift, tuple([h & l for h in reversed(hi) for l in reversed(lo)])))
            entry = (alive, tuple(slices))
            for color in colors:
                table[pos][color] = entry
    return table


def argparse_cli_parser() -> argparse.ArgumentParser:
    """The CLI's former argparse parser, as it was: the oracle of the
    option table gallaikit.cli.COMMANDS and the parser that reads it."""
    parser = argparse.ArgumentParser(
        prog="gallaikit",
        description="Build, verify, and search rainbow-triangle-free edge colorings.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("build", help="materialize a lower-bound coloring")
    p.add_argument("--target", required=True, help="pattern id, e.g. h10 or kipas(4)")
    p.add_argument("--k", type=int, required=True, help="number of colors")
    p.add_argument("--r2", type=int, help=_R2_HELP)
    p.add_argument("--out", help="write the coloring to this GRC file")
    p.add_argument("--no-certify", action="store_true",
                   help="skip the avoidance re-check (sizes still validated)")
    p.set_defaults(func=_cmd_build)

    p = subparsers.add_parser("build-mixed",
                              help="materialize a mixed-family lower-bound coloring")
    p.add_argument("--k", type=int, required=True, help="number of colors")
    p.add_argument("--s", type=int, required=True,
                   help="colors forbidding kipas(4); the rest forbid path(3)")
    p.add_argument("--out", help="write the coloring to this GRC file")
    p.add_argument("--no-certify", action="store_true",
                   help="skip the avoidance re-check (sizes still validated)")
    p.set_defaults(func=_cmd_build_mixed)

    p = subparsers.add_parser("verify", help="check a GRC file against avoidance flags")
    p.add_argument("file", help="GRC input")
    p.add_argument("--gallai", action="store_true", help="also forbid rainbow triangles")
    p.add_argument("--forbid", type=_forbid_pair, action="append", metavar="C=ID",
                   help="forbid pattern ID in color C (repeatable; ID 'none' unsets)")
    p.add_argument("--forbid-all", metavar="ID", help="forbid pattern ID in every color")
    p.set_defaults(func=_cmd_verify)

    p = subparsers.add_parser("partition", help="compute a Gallai partition of a GRC file")
    p.add_argument("file", help="GRC input")
    p.set_defaults(func=_cmd_partition)

    p = subparsers.add_parser("formula", help="evaluate a Gallai-Ramsey closed form")
    p.add_argument("--target", required=True, help="pattern id")
    p.add_argument("--k", type=int, required=True, help="number of colors")
    p.add_argument("--s", type=int,
                   help="mixed family: colors forbidding kipas(4) out of k")
    p.add_argument("--r2", type=int, help=_R2_HELP + " (with --conjecture)")
    p.add_argument("--conjecture", action="store_true",
                   help="evaluate the general kipas conjecture instead of a theorem")
    p.set_defaults(func=_cmd_formula)

    p = subparsers.add_parser("search", help="backtracking search for an avoiding coloring")
    p.add_argument("--n", type=int, required=True, help="host vertices")
    p.add_argument("--per-color", type=_per_color_list, required=True, metavar="ID,ID,...",
                   help="pattern per color; 'none' or '-' leaves a color free")
    p.add_argument("--gallai", action="store_true", help="also forbid rainbow triangles")
    p.add_argument("--mode", choices=("first", "exhaust"), default="first",
                   help="ignored: both values run the same search; kept for existing scripts")
    p.add_argument("--max-nodes", type=int, help="abort after this many search nodes")
    p.add_argument("--out", help="write a found witness to this GRC file")
    p.set_defaults(func=_cmd_search)

    p = subparsers.add_parser("encode", help="emit a DIMACS CNF for the same question")
    p.add_argument("--n", type=int, required=True, help="host vertices")
    p.add_argument("--k", type=int, help="number of colors (checked against --per-color)")
    p.add_argument("--per-color", type=_per_color_list, required=True, metavar="ID,ID,...",
                   help="pattern per color; 'none' or '-' leaves a color free")
    p.add_argument("--gallai", action="store_true", help="also forbid rainbow triangles")
    p.add_argument("--out", required=True, help="DIMACS output file")
    p.set_defaults(func=_cmd_encode)

    p = subparsers.add_parser("decode", help="turn a solver model back into a GRC file")
    p.add_argument("--cnf", required=True, help="DIMACS file the solver ran on")
    p.add_argument("--model", required=True, help="solver output file")
    p.add_argument("--n", type=int, required=True, help="host vertices")
    p.add_argument("--k", type=int, required=True, help="number of colors")
    p.add_argument("--out", help="write the decoded coloring to this GRC file")
    p.set_defaults(func=_cmd_decode)

    p = subparsers.add_parser("catalog", help="list the five-vertex pattern catalog")
    p.set_defaults(func=_cmd_catalog)

    for p in subparsers.choices.values():
        p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser
