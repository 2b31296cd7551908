"""DIMACS CNF encoding of coloring search problems for external solvers.

Variable v(e, c) = e*k + c for 0-based lexicographic edge index e and color
c in 1..k, so variables run 1..E*k.  Clause groups, in emission order:
one-color-at-least per edge, one-color-at-most per edge, rainbow-triangle
blockers (ordered color triples per SearchProblem.rainbow_triangles entry),
and, color by color, one all-negative clause per image in
SearchProblem.forbidden_images.  Those images arrive as ascending
edge-index tuples in a fixed order, so a clause is the image mapped through
the color's negated variables, and the clause order is pinned by the image
order.  The search compiles its tables from the shapes these images are
placed from, and the same triangles, so both engines see one constraint set.

A CnfDocument is text end to end: its clauses are the clause section of
its DIMACS text (clause_text), one clause per line, its literals written as
str() writes them, separated by single spaces, and the line ending in " 0".
No int form of a clause is built.  Writing a document prepends the header
to that text, and the satisfaction test reads its lines.

Each literal of a document is checked once against 1..num_vars in either
sign.  The constructor takes clause_text as a str only and checks it in one
pass over its lines, which checks each distinct token once; the two
producers check while they write, and build through
_document, which skips the constructor's scan: encode_cnf takes every
literal from per-color tables keyed by edge index, so an image edge outside
0..E-1 fails its lookup, and parse_dimacs makes that one pass over the
lines after the problem line, or reads loose text token by token.

DIMACS and model files are read by whitespace-separated tokens, and a
token must be an ASCII integer, -?[0-9]+, so '+1' or '1_0', which int()
would read, fail closed.  Comment lines are skipped in both files.
"""

from __future__ import annotations

import re
from itertools import chain, combinations, permutations, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Optional

from ._record import Record
from .coloring import EdgeColoring, edge_count, edge_index, edge_list

if TYPE_CHECKING:  # decode never needs the search stack
    from .search import SearchProblem


class CnfError(Exception):
    pass


class NotExactlyOneError(CnfError):
    pass


_INTEGER = re.compile(r"-?[0-9]+").fullmatch
_CANONICAL = re.compile(r"0|-?[1-9][0-9]*").fullmatch  # as str() writes an int
_LITERALS = itemgetter(slice(None, -2))  # a clause line without its " 0"


def _integer(tok: str, what: str) -> int:
    """An ASCII integer token's value; any other token is a CnfError."""
    try:
        if _INTEGER(tok):
            return int(tok)
    except ValueError:  # more digits than int() converts
        pass
    raise CnfError(f"bad {what} {tok[:24]!r}")


def _is_literal(tok: str, num_vars: int) -> bool:
    return (tok != "0" and bool(_CANONICAL(tok))
            and len(tok) <= len(str(num_vars)) + 1 and abs(int(tok)) <= num_vars)


def _canonical(lines: list[str], num_vars: int) -> bool:
    """Whether every line is one clause over +-1..num_vars as clause_text
    holds it.  Each distinct token is checked once, so no set of all the
    literal strings is built."""
    if not all(map(str.endswith, lines, repeat(" 0"))):
        return False
    tokens = set(chain.from_iterable(map(str.split, map(_LITERALS, lines), repeat(" "))))
    return all(_is_literal(tok, num_vars) for tok in tokens)


def _fault(lines: list[str], num_vars: int) -> str:
    """What is wrong with the first line that _canonical refuses."""
    for line in lines:
        *toks, end = line.split(" ")
        if end == "0" and toks in ([], [""]):
            return "empty clause"
        if end != "0":
            return f"clause line {line!r} does not end in ' 0'"
        for tok in toks:
            if not _is_literal(tok, num_vars):
                if _CANONICAL(tok):
                    return f"literal {tok[:24]} out of range"
                return f"bad literal {tok[:24]!r}"
    return "clause text must end with a newline"


class CnfDocument(Record):
    """A CNF over the variables of K_n in k colors, held as its DIMACS
    clause lines: clause_text must be a str, and any other type is refused."""

    n: int
    k: int
    num_vars: int
    clause_text: str

    def __post_init__(self) -> None:
        if self.num_vars != edge_count(self.n) * self.k:
            raise CnfError("num_vars must be edge_count * k")
        if not isinstance(self.clause_text, str):
            raise CnfError(f"clause_text must be a str, got {type(self.clause_text).__name__}")
        lines = self.clause_text.split("\n")
        if lines.pop() or not _canonical(lines, self.num_vars):
            raise CnfError(_fault(lines, self.num_vars))

    @property
    def num_clauses(self) -> int:
        """The lines of clause_text, counted without splitting it."""
        return self.clause_text.count("\n")

    @property
    def clauses(self) -> list[str]:
        """The clause lines of clause_text, one per clause: a list of num_clauses
        strings, built on each call.  gkbench/tracing.py counts them."""
        return self.clause_text.splitlines()

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
        lines.append(f"p cnf {self.num_vars} {self.num_clauses}")
        lines.append(self.clause_text)
        return "\n".join(lines)


def _document(n: int, k: int, num_vars: int, clause_text: str) -> CnfDocument:
    """A document whose producer has checked every literal of clause_text."""
    doc = object.__new__(CnfDocument)
    for name, value in zip(CnfDocument._fields, (n, k, num_vars, clause_text)):
        object.__setattr__(doc, name, value)
    return doc


def encode_cnf(problem: SearchProblem) -> CnfDocument:
    """CNF whose models are exactly the valid colorings of the problem."""
    from .patterns import IMAGE_BUDGET, TooLargeError  # decode runs without patterns

    n, k = problem.n, problem.k
    if n < 2:
        raise CnfError(f"need n >= 2, got {n}")
    triangles = problem.rainbow_triangles()
    rainbow = len(triangles) * k * (k - 1) * (k - 2)  # one clause per color triple
    if rainbow > IMAGE_BUDGET:
        raise TooLargeError(f"K_{n} with {k} colors has {rainbow} rainbow clauses, "
                            f"over the image budget of {IMAGE_BUDGET}")
    e_total = edge_count(n)
    num_vars = e_total * k
    # neg[c][e] = the literal -v(e, c) as text; a dict, so that an edge index
    # outside 0..E-1 fails its lookup rather than wrap around as a list's would
    neg = [{}] + [dict(enumerate(map("-{}".format, range(c, num_vars + 1, k))))
                  for c in range(1, k + 1)]
    lines = [" ".join(map(str, range(v + 1, v + k + 1))) for v in range(0, num_vars, k)]
    pairs = list(combinations(range(1, k + 1), 2))
    lines += [f"{neg[c1][e]} {neg[c2][e]}" for e in range(e_total) for c1, c2 in pairs]
    triples = list(permutations(range(1, k + 1), 3))
    images = {c: imgs for colors, imgs in problem.forbidden_images() for c in colors}
    try:
        lines += [f"{neg[c1][xy]} {neg[c2][xz]} {neg[c3][yz]}"
                  for xy, xz, yz in triangles for c1, c2, c3 in triples]
        for color in range(1, k + 1):
            lits, imgs = neg[color], images.get(color, ())
            # itemgetter gives a bare item for one key; each getter is dropped at once
            lines += ([lits[e] for e, in imgs] if imgs and len(imgs[0]) < 2 else
                      [" ".join(itemgetter(*image)(lits)) for image in imgs])
    except KeyError as exc:
        raise CnfError(f"edge index {exc.args[0]!r} outside 0..{e_total - 1}") from None
    lines.append("")
    return _document(n, k, num_vars, " 0\n".join(lines))


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
    assignment are true: a clause fails iff it shares no true literal, and
    each line's tokens are tested against the true literals' strings."""
    true_vars = _true_set(doc, assignment)
    true_lits = {str(v) if v in true_vars else f"-{v}" for v in range(1, doc.num_vars + 1)}
    return not any(map(true_lits.isdisjoint, map(str.split, doc.clause_text.splitlines())))


def _tokenized_clauses(lines: list[str], num_vars: int) -> list[str]:
    """Clause lines as clause_text holds them, from DIMACS lines read by
    tokens: blank and comment lines are skipped, a 0 ends a clause wherever
    it stands, leading zeros go, and a last clause may lack its 0."""
    out: list[str] = []
    pending: list[str] = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            raise CnfError(f"bad or repeated problem line {line!r}")
        for tok in line.split():
            lit = _integer(tok, "DIMACS integer")
            if abs(lit) > num_vars:
                raise CnfError(f"literal {lit} out of range")
            if lit:
                pending.append(str(lit))
            elif pending:
                out.append(" ".join(pending) + " 0")
                pending = []
    if pending:
        out.append(" ".join(pending) + " 0")
    return out


def parse_dimacs(text: str, n: int, k: int) -> CnfDocument:
    """The document of DIMACS text, for K_n with k colors.

    Blank lines and comments (lines starting with c) may precede the
    problem line.  When every line after it is one clause as clause_text
    holds it, as in what to_dimacs writes, one pass checks the tokens and
    the lines are kept; otherwise they are read by tokens and rewritten."""
    lines = text.splitlines()
    for at, raw in enumerate(lines):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if not line.startswith("p"):
            raise CnfError("clause before the problem line")
        fields = line.split()
        if len(fields) != 4 or fields[1] != "cnf":
            raise CnfError(f"bad or repeated problem line {line!r}")
        break
    else:
        raise CnfError("missing problem line")
    num_vars, declared = (_integer(tok, "problem line number") for tok in fields[2:])
    if num_vars != edge_count(n) * k:
        raise CnfError("num_vars must be edge_count * k")
    del lines[:at + 1]
    if not _canonical(lines, num_vars):
        lines = _tokenized_clauses(lines, num_vars)
    if declared != len(lines):
        raise CnfError(f"problem line declares {declared} clauses, found {len(lines)}")
    lines.append("")
    return _document(n, k, num_vars, "\n".join(lines))


def parse_model(text: str) -> Optional[set[int]]:
    """True variables from solver output, or None for an UNSAT result.

    Comment lines (c) are skipped; on every other line that is no status
    line, each token after an optional leading v must be an integer."""
    true_vars: set[int] = set()
    false_vars: set[int] = set()  # 0, which ends a clause, lands here too
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("c", "C")):
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
            lit = _integer(tok, "model token")
            (true_vars if lit > 0 else false_vars).add(abs(lit))
    if not true_vars | false_vars:
        raise CnfError("no literals found in model text")
    if true_vars & false_vars:
        raise CnfError(f"variable {min(true_vars & false_vars)} is given both signs")
    return true_vars
