import random
from itertools import combinations, permutations

import pytest

from conftest import plain_assignment_satisfies, plain_cnf_clauses, random_coloring
from gallaikit.cnf import (
    CnfDocument,
    CnfError,
    NotExactlyOneError,
    assignment_satisfies,
    decode_assignment,
    encode_cnf,
    parse_dimacs,
    parse_model,
)
from gallaikit.coloring import edge_count, edge_index, edge_list
from gallaikit.detect import AvoidanceSpec, verify
from gallaikit.patterns import resolve
from gallaikit.search import SearchProblem


def count_images_naively(pattern, n):
    """Distinct edge sets of injective copies, recounted from scratch."""
    seen = set()
    for sub in combinations(range(n), pattern.m):
        for per in permutations(sub):
            seen.add(frozenset(
                (min(per[a], per[b]), max(per[a], per[b])) for a, b in pattern.edges
            ))
    return len(seen)


def expected_counts(n, k, per_color, gallai):
    e = edge_count(n)
    alo = e
    amo = e * (k * (k - 1) // 2)
    rainbow = 0
    if gallai and k >= 3:
        rainbow = (n * (n - 1) * (n - 2) // 6) * (k * (k - 1) * (k - 2))
    mono = 0
    for pid in per_color:
        if pid is None:
            continue
        p = resolve(pid)
        if p.m <= n:
            mono += count_images_naively(p, n)
    return alo + amo + rainbow + mono


def random_document(rng, max_n, max_width, max_clauses):
    """A document of random clauses over every literal of a random K_n, k."""
    n, k = rng.randint(2, max_n), rng.randint(1, 3)
    v = edge_count(n) * k
    return CnfDocument(n, k, v, tuple(
        tuple(rng.choice((1, -1)) * rng.randint(1, v) for _ in range(rng.randint(1, max_width)))
        for _ in range(rng.randint(0, max_clauses))))


def test_minimal_documents():
    doc = encode_cnf(SearchProblem(2, (None,)))
    assert doc.num_vars == 1 and len(doc.clauses) == 1
    doc = encode_cnf(SearchProblem(3, ("k3", "k3"), require_gallai=True))
    assert doc.num_vars == 6 and len(doc.clauses) == 8


def test_clause_counts_match_independent_formulas():
    cases = [
        (3, ("k3", "k3"), True),
        (4, ("path(3)", "kipas(4)"), True),
        (5, ("k3", None, "path(4)"), True),
        (5, ("h10", "h10"), False),
        (6, ("h1", "h5", "kipas(4)"), True),
        (6, ("kipas(2)", "kipas(2)"), False),
    ]
    for n, per_color, gallai in cases:
        doc = encode_cnf(SearchProblem(n, per_color, require_gallai=gallai))
        k = len(per_color)
        assert doc.num_vars == edge_count(n) * k
        assert len(doc.clauses) == expected_counts(n, k, per_color, gallai), (n, per_color)


def test_clauses_match_plain_encoder_exactly():
    # every clause, literal order and clause order included, against the
    # plain-loop oracle: two equal fans, Gallai k=3, a None slot between two
    # different patterns, a one-edge pattern, and a pattern larger than n
    cases = [
        SearchProblem(9, ("kipas(4)", "kipas(4)")),
        SearchProblem(8, ("h10", "h10", "h10"), require_gallai=True),
        SearchProblem(7, ("h1", None, "path(3)"), require_gallai=True),
        SearchProblem(3, ("path(2)", "path(2)")),
        SearchProblem(4, ("kipas(4)", "k3")),
    ]
    for problem in cases:
        assert encode_cnf(problem).clauses == plain_cnf_clauses(problem), problem


def test_var_numbering_is_edge_major():
    doc = encode_cnf(SearchProblem(4, ("k3", "k3")))
    # first clause block is at-least-one per edge in lexicographic edge order
    for e in range(edge_count(4)):
        assert doc.clauses[e] == (e * 2 + 1, e * 2 + 2)


def test_mono_clauses_are_all_negative_single_color():
    doc = encode_cnf(SearchProblem(5, ("k3", None), require_gallai=False))
    e = edge_count(5)
    amo = e * 1
    mono = doc.clauses[e + amo:]
    assert len(mono) == count_images_naively(resolve("k3"), 5)
    for clause in mono:
        assert len(clause) == 3
        assert all(lit < 0 for lit in clause)
        assert all((-lit - 1) % 2 == 0 for lit in clause)  # color 1 literals only


def test_encode_rejects_tiny_host():
    with pytest.raises(CnfError):
        encode_cnf(SearchProblem(1, ("k3",)))


def test_decode_round_trip_random():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        per_color = tuple(rng.choice([None, "k3", "path(3)"]) for _ in range(k))
        doc = encode_cnf(SearchProblem(n, per_color, require_gallai=(k >= 3)))
        c = random_coloring(rng, n, k)
        assign = {
            edge_index(n, i, j) * k + col for (i, j), col in c.items()
        }
        back = decode_assignment(doc, assign)
        assert back == c


def test_assignment_satisfies_agrees_with_verify():
    rng = random.Random(12)
    checked = 0
    docs = {}
    while checked < 300:
        n = rng.randint(3, 5)
        k = rng.randint(2, 3)
        gallai = rng.random() < 0.5
        per_color = tuple(rng.choice([None, "k3", "path(3)", "path(4)"])
                          for _ in range(k))
        key = (n, per_color, gallai)
        if key not in docs:
            docs[key] = encode_cnf(SearchProblem(n, per_color, require_gallai=gallai))
        doc = docs[key]
        c = random_coloring(rng, n, k)
        assign = {edge_index(n, i, j) * k + col for (i, j), col in c.items()}
        spec = AvoidanceSpec.from_map(
            {i + 1: pid for i, pid in enumerate(per_color) if pid is not None},
            require_gallai=gallai,
        )
        assert assignment_satisfies(doc, assign) == verify(c, spec).passed
        checked += 1


def test_assignment_satisfies_matches_per_literal_loop():
    # random documents (encoded problems and random clause sets) under random
    # assignments, given as positive sets or as signed literal lists, against
    # the per-literal loop; both verdicts must occur
    rng = random.Random(31)
    docs = [encode_cnf(SearchProblem(n, per_color, require_gallai=gallai))
            for n, per_color, gallai in [(3, ("k3", "k3"), False), (4, ("path(3)", "k3", None), True),
                                         (5, ("path(4)", "path(4)"), False)]]
    docs += [random_document(rng, 4, 4, 12) for _ in range(20)]
    verdicts = set()
    for doc in docs:
        for _ in range(40):
            density = rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))
            signs = [rng.random() < density for _ in range(doc.num_vars)]
            positive = {v for v, on in enumerate(signs, 1) if on}
            signed = [v if on else -v for v, on in enumerate(signs, 1)]
            rng.shuffle(signed)
            want = plain_assignment_satisfies(doc, positive)
            assert assignment_satisfies(doc, positive) == want
            assert assignment_satisfies(doc, signed) == want
            verdicts.add(want)
    assert verdicts == {False, True}
    # an out-of-range literal is still refused
    with pytest.raises(CnfError, match="out of range"):
        assignment_satisfies(docs[0], [docs[0].num_vars + 1])


def test_dimacs_clause_lines_match_plain_formatting():
    # the literal table prints each clause exactly as str() of its literals
    rng = random.Random(5)
    docs = [encode_cnf(SearchProblem(5, ("h10", "h10", "h10"), require_gallai=True))]
    docs += [random_document(rng, 5, 5, 20) for _ in range(10)]
    for doc in docs:
        lines = doc.var_map_lines() + [f"p cnf {doc.num_vars} {len(doc.clauses)}"]
        lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in doc.clauses]
        assert doc.to_dimacs() == "\n".join(lines) + "\n"


def test_decode_requires_exactly_one_color_per_edge():
    doc = encode_cnf(SearchProblem(3, ("k3", "k3")))
    with pytest.raises(NotExactlyOneError):
        decode_assignment(doc, set())
    with pytest.raises(NotExactlyOneError):
        decode_assignment(doc, {1, 2, 3, 5})


def test_document_validation():
    with pytest.raises(CnfError):
        CnfDocument(3, 2, 5, ((1, 2),))  # wrong var count
    with pytest.raises(CnfError):
        CnfDocument(3, 2, 6, ((),))  # a clause with no literals
    with pytest.raises(CnfError):
        CnfDocument(3, 2, 6, ((0,),))  # zero literal
    with pytest.raises(CnfError):
        CnfDocument(3, 2, 6, ((7,),))  # out of range
    # zero clauses is a legal (vacuously satisfiable) document
    assert CnfDocument(3, 2, 6, ()).num_vars == 6


def test_dimacs_round_trip():
    doc = encode_cnf(SearchProblem(4, ("k3", "path(3)"), require_gallai=False))
    text = doc.to_dimacs()
    assert text.startswith("c ")
    num_vars, clauses = parse_dimacs(text)
    assert num_vars == doc.num_vars
    assert [tuple(cl) for cl in clauses] == list(doc.clauses)


def test_parse_dimacs_rejects_garbage():
    with pytest.raises(CnfError):
        parse_dimacs("p cnf\n")
    with pytest.raises(CnfError):
        parse_dimacs("1 2 0\n")  # missing header
    for text in ("p cnf x 3\n", "p cnf 3 1\n1 two 0\n"):
        with pytest.raises(CnfError):
            parse_dimacs(text)


def test_parse_model_variants():
    assert parse_model("SAT\n1 -2 3 0\n") == {1, 3}
    assert parse_model("s SATISFIABLE\nv 1 -2\nv 3 0\n") == {1, 3}
    assert parse_model("s UNSATISFIABLE\n") is None
    assert parse_model("UNSAT\n") is None
    with pytest.raises(CnfError):
        parse_model("s SATISFIABLE\n")  # claims SAT but carries no literals
