"""Workload definitions: the jobs each workload runs and the seeded inputs.

Every job is one CLI invocation plus what its output must be.  Inputs are
made from the seed alone; a different seed changes colors and labels but
never the shape of a workload (n, k, root type and the job list).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb, factorial

from grc import Dense, automorphisms, from_flat, grc_text, model_text

# Edge lists of the patterns the jobs forbid, copied from the paper's catalog
# so that the output checks do not depend on the library.
PATTERNS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "h1": (5, ((0, 1), (0, 4), (1, 2), (1, 4), (2, 3))),
    "h2": (5, ((0, 1), (0, 4), (1, 2), (1, 3), (1, 4))),
    "h3": (5, ((0, 1), (0, 4), (1, 2), (1, 4), (3, 4))),
    "h5": (5, ((0, 1), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4))),
    "h10": (5, ((0, 1), (0, 4), (1, 4), (2, 3))),
    "k3": (3, ((0, 1), (0, 2), (1, 2))),
    "kipas(4)": (5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4))),
}


@dataclass
class Job:
    id: str
    argv: list[str]       # CLI arguments, subcommand first; paths relative to the work dir
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def group(self) -> str:
        """The per-command metric the job's time counts toward."""
        return "cnf" if self.command in ("encode", "decode") else self.command


# (target, k, vertices): h1 has five 40-vertex twin classes in colors 5 and 6;
# kipas(4) takes the even-fan five-part assembly; h10 at k=8 is the largest.
TOWERS = (("h1", 6, 200), ("kipas(4)", 6, 249), ("h10", 8, 625))

# (name, n, k, root): root "pentagon" is a prime ell=5 quotient, "join" a
# two-part split.  Each also gets a copy with one planted rainbow triangle.
RANDOM_TREES = (
    ("p600", 600, 6, "pentagon"),
    ("j1000", 1000, 5, "join"),
)

# (pattern, n, mode, expected kind): R2 = 9 for h1..h3, R2 = 7 for h10,
# and 9-vertex witnesses exist for kipas(4) and h5 (R2 = 10).
SEARCHES = (
    ("h1", 9, "first", "exhausted"),
    ("h2", 9, "first", "exhausted"),
    ("h3", 9, "first", "exhausted"),
    ("h10", 7, "exhaust", "exhausted"),
    ("kipas(4)", 9, "first", "witness"),
    ("h5", 9, "first", "witness"),
)

# The four instances scripts/make_sat_certificates.py writes: (name, n, k, pattern, gallai).
ENCODES = (
    ("kipas4_n9", 9, 2, "kipas(4)", False),
    ("kipas4_n10", 10, 2, "kipas(4)", False),
    ("h10_n10", 10, 3, "h10", True),
    ("h10_n11", 11, 3, "h10", True),
)


def clause_count(n: int, k: int, pattern: str, gallai: bool) -> int:
    """Clause count of encode_cnf, by the formula acceptance criterion 8 pins."""
    e = n * (n - 1) // 2
    total = e + e * (k * (k - 1) // 2)
    if gallai and k >= 3:
        total += comb(n, 3) * k * (k - 1) * (k - 2)
    m, edges = PATTERNS[pattern]
    if m <= n:
        total += k * comb(n, m) * factorial(m) // automorphisms(m, edges)
    return total


# ----------------------------------------------------------------- generation


def gallai_tree(rng: random.Random, n: int, k: int, root: str) -> tuple[Dense, list[list[int]]]:
    """Random Gallai coloring built as a substitution tree; returns it and the root parts.

    Every inner node substitutes Gallai colorings into a two-colored base
    (a pentagon or a single edge), so no triangle is rainbow.  The tree
    shape depends only on n and root; the seed picks the colors.
    """
    rows = [[0] * (n - 1 - i) for i in range(n)]
    # leaf cliques run through every color in a seeded order, so each color
    # class holds a clique near vertex 0 and verify fails fast in every color
    leaf_colors = rng.sample(range(1, k + 1), k)
    leaves = 0

    def block(lo_a, hi_a, lo_b, hi_b, col):
        for i in range(lo_a, hi_a):
            row = rows[i]
            row[lo_b - i - 1:hi_b - i - 1] = [col] * (hi_b - lo_b)

    def split(lo, hi, parts):
        size = hi - lo
        cuts = [lo + (size * t) // parts for t in range(parts + 1)]
        return [(cuts[t], cuts[t + 1]) for t in range(parts)]

    def node(lo, hi, kind, depth):
        nonlocal leaves
        if hi - lo <= 12 or depth == 4:
            col = leaf_colors[leaves % k]
            leaves += 1
            for i in range(lo, hi):
                rows[i][:hi - i - 1] = [col] * (hi - i - 1)
            return None
        if kind == "pentagon":
            parts = split(lo, hi, 5)
            cyc, chord = rng.sample(range(1, k + 1), 2)
            for p in range(5):
                for q in range(p + 1, 5):
                    col = cyc if (q - p) % 5 in (1, 4) else chord
                    block(*parts[p], *parts[q], col)
        else:
            parts = split(lo, hi, 2)
            block(*parts[0], *parts[1], rng.randint(1, k))
        child = "join" if kind == "pentagon" else "pentagon"
        for a, b in parts:
            node(a, b, child, depth + 1)
        return parts

    parts = node(0, n, root, 0)
    return Dense(n, k, rows), [list(range(a, b)) for a, b in parts]


def plant_rainbow(rng: random.Random, c: Dense, parts: list[list[int]]) -> Dense:
    """Recolor one edge between root parts so that exactly it closes rainbow triangles."""
    u, v = parts[0][0], parts[-1][0]
    w = next(x for x in range(c.n) if x not in (u, v) and c.color(u, x) != c.color(v, x))
    taken = {c.color(u, w), c.color(v, w), c.color(u, v)}
    new = rng.choice([d for d in range(1, c.k + 1) if d not in taken])
    rows = [list(r) for r in c.rows]
    rows[u][v - u - 1] = new
    return Dense(c.n, c.k, rows)


def rook_grid() -> Dense:
    """3x3 rook coloring on 9 vertices: no monochromatic kipas(4) in either color."""
    return from_flat(9, 2, [1 if i // 3 == j // 3 or i % 3 == j % 3 else 2
                            for i in range(9) for j in range(i + 1, 9)])


def two_pentagons() -> Dense:
    """Two 2-colored pentagons joined in color 3: rainbow-free, no monochromatic h10."""
    def col(i, j):
        if i // 5 != j // 5:
            return 3
        return 1 if (j - i) % 5 in (1, 4) else 2
    return from_flat(10, 3, [col(i, j) for i in range(10) for j in range(i + 1, 10)])


def shuffled(rng: random.Random, c: Dense) -> Dense:
    """Random vertex order and color names: same question, different labels."""
    order = list(range(c.n))
    rng.shuffle(order)
    names = list(range(1, c.k + 1))
    rng.shuffle(names)
    return c.relabeled(order).recolored({d: names[d - 1] for d in range(1, c.k + 1)})


def write(path, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def tag_of(pattern: str) -> str:
    return pattern.replace("(", "").replace(")", "")


def build_job(target: str, k: int, n: int) -> Job:
    tag = f"{tag_of(target)}-k{k}"
    return Job(f"build-{tag}", ["build", "--target", target, "--k", str(k), "--out", f"{tag}.out.grc"],
               {"n": n, "k": k})


def check_jobs(work, tag: str, c: Dense, pattern: str, passed: bool, rainbow: bool,
               ell: int) -> list[Job]:
    """verify and partition of coloring c, written to <tag>.grc."""
    write(work / f"{tag}.grc", grc_text(c))
    return [
        Job(f"verify-{tag}", ["verify", f"{tag}.grc", "--gallai", "--forbid-all", pattern],
            {"file": f"{tag}.grc", "pattern": pattern, "passed": passed, "rainbow": rainbow}),
        Job(f"partition-{tag}", ["partition", f"{tag}.grc"],
            {"file": f"{tag}.grc", "rainbow": rainbow, "ell": ell}),
    ]


def search_job(pattern: str, n: int, mode: str, kind: str) -> Job:
    tag = f"{tag_of(pattern)}-n{n}"
    argv = ["search", "--n", str(n), "--per-color", f"{pattern},{pattern}", "--mode", mode]
    if kind == "witness":
        argv += ["--out", f"search-{tag}.grc"]
    return Job(f"search-{tag}", argv, {"pattern": pattern, "n": n, "kind": kind})


def encode_job(name: str, n: int, k: int, pattern: str, gallai: bool) -> Job:
    argv = ["encode", "--n", str(n), "--k", str(k), "--per-color", ",".join([pattern] * k),
            "--out", f"{name}.cnf"] + (["--gallai"] if gallai else [])
    return Job(f"encode-{name}", argv, {"file": f"{name}.cnf", "n": n, "k": k,
                                        "clauses": clause_count(n, k, pattern, gallai)})


def decode_job(rng: random.Random, work, name: str, base: Dense, pattern: str,
               gallai: bool) -> Job:
    """Decode a model written from a relabeled copy of a known valid coloring."""
    from gallaikit.cnf import encode_cnf
    from gallaikit.search import SearchProblem

    c = shuffled(rng, base)
    doc = encode_cnf(SearchProblem(c.n, (pattern,) * c.k, require_gallai=gallai))
    write(work / f"dec-{name}.cnf", doc.to_dimacs())
    write(work / f"dec-{name}.model", model_text(c))
    return Job(f"decode-{name}",
               ["decode", "--cnf", f"dec-{name}.cnf", "--model", f"dec-{name}.model",
                "--n", str(c.n), "--k", str(c.k), "--out", f"dec-{name}.grc"],
               {"colors": c.flat(), "file": f"dec-{name}.grc"})


def pentagon_jobs(rng: random.Random, work) -> list[Job]:
    """The 2-colored pentagon both large workloads are built from, checked at n <= 6.

    It is built, shown extremal (every 2-coloring of K6 has a monochromatic
    triangle) and round-tripped through CNF.  These jobs take milliseconds;
    they keep every layer measured, if only a little, in every workload.
    """
    pentagon = from_flat(5, 2, [1 if (j - i) % 5 in (1, 4) else 2
                                for i in range(5) for j in range(i + 1, 5)])
    return [build_job("kipas(2)", 2, 5),
            search_job("k3", 6, "exhaust", "exhausted"),
            encode_job("k3_n5", 5, 2, "k3", False),
            decode_job(rng, work, "k3_n5", pentagon, "k3", False)]


def setup_towers(rng: random.Random, work) -> list[Job]:
    from gallaikit.construct import build_lower

    jobs = []
    for target, k, n in TOWERS:
        built = build_lower(target, k, certify=False)
        names = list(range(1, k + 1))
        rng.shuffle(names)
        # a color permutation leaves every check's amount of work unchanged
        c = from_flat(built.n, built.k, built.colors).recolored(
            {d: names[d - 1] for d in range(1, k + 1)})
        jobs.append(build_job(target, k, n))
        jobs += check_jobs(work, tag_of(target), c, target, True, False, 5)
    return jobs + pentagon_jobs(rng, work)


def setup_gallai_random(rng: random.Random, work) -> list[Job]:
    jobs = []
    for name, n, k, root in RANDOM_TREES:
        c, parts = gallai_tree(rng, n, k, root)
        ell = 5 if root == "pentagon" else 2
        jobs += check_jobs(work, name, c, "h1", False, False, ell)
        jobs += check_jobs(work, f"{name}-rb", plant_rainbow(rng, c, parts), "h1",
                           False, True, ell)
    return jobs + pentagon_jobs(rng, work)


def setup_anchors(rng: random.Random, work) -> list[Job]:
    jobs = [search_job(*spec) for spec in SEARCHES]
    jobs += [encode_job(*spec) for spec in ENCODES]
    jobs.append(decode_job(rng, work, "kipas4_n9", rook_grid(), "kipas(4)", False))
    jobs.append(decode_job(rng, work, "h10_n10", two_pentagons(), "h10", True))
    # the constructive side of the h10 anchor: its 10-vertex three-color tower
    jobs.append(build_job("h10", 3, 10))
    jobs += check_jobs(work, "h10-k3", shuffled(rng, two_pentagons()), "h10", True, False, 2)
    return jobs


SETUP = {
    "towers": setup_towers,
    "gallai-random": setup_gallai_random,
    "anchors": setup_anchors,
}
