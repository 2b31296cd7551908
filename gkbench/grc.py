"""Plain GRC and DIMACS helpers shared by input generation and output checks.

Nothing here imports the library: inputs are written, and outputs are
checked, with loops that do not share code with the program under test.
"""

from __future__ import annotations

from itertools import permutations


class Dense:
    """Edge coloring of K_n as rows: rows[i][j - i - 1] is the color of (i, j)."""

    def __init__(self, n: int, k: int, rows: list[list[int]]):
        self.n = n
        self.k = k
        self.rows = rows

    def color(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return self.rows[i][j - i - 1]

    def flat(self) -> list[int]:
        return [col for row in self.rows for col in row]

    def recolored(self, perm: dict[int, int]) -> "Dense":
        return Dense(self.n, self.k, [[perm[x] for x in row] for row in self.rows])

    def relabeled(self, order: list[int]) -> "Dense":
        """Coloring whose vertex v is vertex order[v] of this one."""
        n = self.n
        rows = [[self.color(order[i], order[j]) for j in range(i + 1, n)]
                for i in range(n - 1)]
        rows.append([])
        return Dense(n, self.k, rows)


def from_flat(n: int, k: int, colors) -> Dense:
    rows, pos = [], 0
    for i in range(n):
        width = n - 1 - i
        rows.append(list(colors[pos:pos + width]))
        pos += width
    return Dense(n, k, rows)


def grc_text(c: Dense) -> str:
    lines = [f"grc 1 {c.n} {c.k}"]
    lines.extend(" ".join(map(str, c.rows[i])) for i in range(c.n - 1))
    return "\n".join(lines) + "\n"


def read_grc(path) -> Dense:
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    head = lines[0].split()
    if len(head) != 4 or head[:2] != ["grc", "1"]:
        raise ValueError(f"{path}: bad GRC header")
    n, k = int(head[2]), int(head[3])
    rows = [[int(t) for t in line.split()] for line in lines[1:n]]
    rows.append([])
    if len(rows) != n or any(len(rows[i]) != n - 1 - i for i in range(n)):
        raise ValueError(f"{path}: GRC body does not match n={n}")
    if any(not 1 <= x <= k for row in rows for x in row):
        raise ValueError(f"{path}: color outside 1..{k}")
    return Dense(n, k, rows)


def model_text(c: Dense) -> str:
    """Solver-style model selecting exactly the colors of c (var = e*k + color)."""
    lits = []
    e = 0
    for i in range(c.n):
        for col in c.rows[i]:
            for d in range(1, c.k + 1):
                var = e * c.k + d
                lits.append(var if d == col else -var)
            e += 1
    return "s SATISFIABLE\nv " + " ".join(map(str, lits)) + " 0\n"


def dimacs_counts(path) -> tuple[int, int, int]:
    """(vars, clauses in the header, clauses actually present)."""
    header = None
    present = 0
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("c") or not line.strip():
                continue
            if line.startswith("p"):
                f = line.split()
                header = (int(f[2]), int(f[3]))
                continue
            if line.rstrip().endswith(" 0") or line.strip() == "0":
                present += 1
    if header is None:
        raise ValueError(f"{path}: no problem line")
    return header[0], header[1], present


def automorphisms(m: int, edges) -> int:
    es = {frozenset(e) for e in edges}
    count = 0
    for p in permutations(range(m)):
        if all(frozenset((p[a], p[b])) in es for a, b in edges):
            count += 1
    return count


def mono_copy(c: Dense, m: int, edges, color: int) -> bool:
    """Plain backtracking: does the color class of c hold a copy of the pattern?

    Pattern edges are (a, b) with a < b; vertex t is placed after 0..t-1.
    """
    img = [-1] * m

    def go(t: int) -> bool:
        if t == m:
            return True
        for v in range(c.n):
            if v not in img[:t] and all(c.color(img[a], v) == color
                                        for a, b in edges if b == t):
                img[t] = v
                if go(t + 1):
                    return True
        return False

    return go(0)
