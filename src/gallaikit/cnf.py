"""DIMACS CNF encoding of coloring search problems for external solvers.

Variable v(e, c) = e*k + c for 0-based lexicographic edge index e and color
c in 1..k, so variables run 1..E*k.  Clause groups, in emission order:
one-color-at-least per edge, one-color-at-most per edge, rainbow-triangle
blockers (ordered color triples per SearchProblem.rainbow_triangles entry),
and, color by color, one all-negative clause per image in
SearchProblem.forbidden_images.  Those images arrive as ascending
edge-index tuples in a fixed order, so a clause is the image mapped through
the color's negated variables, and the clause order is pinned by the image
order.  The search compiles its tables from the same two lists, so both
engines see one constraint set.
"""

from __future__ import annotations

from itertools import chain, combinations, permutations
from typing import TYPE_CHECKING, Iterable, Optional

from ._record import Record
from .coloring import EdgeColoring, edge_count, edge_index, edge_list

if TYPE_CHECKING:  # decode never needs the search stack
    from .search import SearchProblem


class CnfError(Exception):
    pass


class NotExactlyOneError(CnfError):
    pass


class CnfDocument(Record):
    n: int
    k: int
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_vars != edge_count(self.n) * self.k:
            raise CnfError("num_vars must be edge_count * k")
        clauses = self.clauses
        lits = chain.from_iterable
        if (all(clauses) and all(map(all, clauses))
                and -self.num_vars <= min(lits(clauses), default=0)
                and max(lits(clauses), default=0) <= self.num_vars):
            return
        # some clause is bad: name the first bad one
        for clause in clauses:
            if not clause:
                raise CnfError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise CnfError(f"literal {lit} out of range")

    def var_map_lines(self) -> list[str]:
        lines = [f"c var((i,j),c) = edge_index(i,j)*{self.k} + c; edges lexicographic"]
        for i, j in edge_list(self.n):
            base = edge_index(self.n, i, j) * self.k
            lines.append(
                f"c edge ({i},{j}): vars {base + 1}..{base + self.k}"
            )
        return lines

    def to_dimacs(self) -> str:
        lines = self.var_map_lines()
        v = self.num_vars
        lines.append(f"p cnf {v} {len(self.clauses)}")
        # text[lit] for every lit in -v..v: negatives index from the end
        text = list(map(str, range(v + 1))) + list(map(str, range(-v, 0)))
        fmt = text.__getitem__
        lines += [" ".join(map(fmt, clause)) + " 0" for clause in self.clauses]
        return "\n".join(lines) + "\n"


def encode_cnf(problem: SearchProblem) -> CnfDocument:
    """CNF whose models are exactly the valid colorings of the problem."""
    n, k = problem.n, problem.k
    if n < 2:
        raise CnfError(f"need n >= 2, got {n}")
    e_total = edge_count(n)

    def var(e: int, c: int) -> int:
        return e * k + c

    clauses: list[tuple[int, ...]] = []
    for e in range(e_total):
        clauses.append(tuple(var(e, c) for c in range(1, k + 1)))
    for e in range(e_total):
        for c1, c2 in combinations(range(1, k + 1), 2):
            clauses.append((-var(e, c1), -var(e, c2)))
    for exy, exz, eyz in problem.rainbow_triangles():
        for c1, c2, c3 in permutations(range(1, k + 1), 3):
            clauses.append((-var(exy, c1), -var(exz, c2), -var(eyz, c3)))
    images = {c: imgs for colors, imgs in problem.forbidden_images() for c in colors}
    for color in range(1, k + 1):
        neg = [-var(e, color) for e in range(e_total)].__getitem__
        clauses.extend(tuple(map(neg, edges)) for edges in images.get(color, ()))
    return CnfDocument(n, k, e_total * k, tuple(clauses))


def _true_set(doc: CnfDocument, assignment: Iterable[int]) -> set[int]:
    true_vars: set[int] = set()
    for lit in assignment:
        if lit == 0 or abs(lit) > doc.num_vars:
            raise CnfError(f"literal {lit} out of range")
        if lit > 0:
            true_vars.add(lit)
    return true_vars


def decode_assignment(doc: CnfDocument, assignment: Iterable[int]) -> EdgeColoring:
    """Coloring selected by the positive literals of a total assignment."""
    true_vars = _true_set(doc, assignment)
    colors = []
    for e, (i, j) in enumerate(edge_list(doc.n)):
        picked = [c for c in range(1, doc.k + 1) if e * doc.k + c in true_vars]
        if len(picked) != 1:
            raise NotExactlyOneError(
                f"edge ({i},{j}) has {len(picked)} colors set"
            )
        colors.append(picked[0])
    return EdgeColoring(doc.n, doc.k, colors)


def assignment_satisfies(doc: CnfDocument, assignment: Iterable[int]) -> bool:
    """Whether every clause holds when exactly the positive literals of the
    assignment are true: a clause fails iff it shares no true literal."""
    true_vars = _true_set(doc, assignment)
    true_lits = true_vars.union(-v for v in range(1, doc.num_vars + 1) if v not in true_vars)
    return not any(map(true_lits.isdisjoint, doc.clauses))


def _dimacs_ints(tokens: list[str]) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise CnfError(f"bad DIMACS integer: {exc}") from None


def parse_dimacs(text: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(num_vars, clauses) from DIMACS text; comments are skipped."""
    header: Optional[list[int]] = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf" or header is not None:
                raise CnfError(f"bad or repeated problem line {line!r}")
            header = _dimacs_ints(fields[2:])
            continue
        if header is None:
            raise CnfError("clause before the problem line")
        for lit in _dimacs_ints(line.split()):
            if lit == 0:
                if pending:
                    clauses.append(tuple(pending))
                    pending = []
            else:
                pending.append(lit)
    if pending:
        clauses.append(tuple(pending))
    if header is None:
        raise CnfError("missing problem line")
    if header[1] != len(clauses):
        raise CnfError(f"problem line declares {header[1]} clauses, found {len(clauses)}")
    return header[0], tuple(clauses)


def parse_model(text: str) -> Optional[set[int]]:
    """True variables from solver output, or None for an UNSAT result."""
    true_vars: set[int] = set()
    false_vars: set[int] = set()  # 0, which ends a clause, lands here too
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        upper = line.upper()
        if upper.startswith("S "):
            if "UNSAT" in upper:
                return None
            continue
        if upper in ("SAT", "SATISFIABLE"):
            continue
        if upper in ("UNSAT", "UNSATISFIABLE"):
            return None
        if line.startswith(("v", "V")):
            line = line[1:]
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                break
            (true_vars if lit > 0 else false_vars).add(abs(lit))
    if not true_vars | false_vars:
        raise CnfError("no literals found in model text")
    if true_vars & false_vars:
        raise CnfError(f"variable {min(true_vars & false_vars)} is given both signs")
    return true_vars
