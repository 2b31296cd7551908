import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations, permutations
from pathlib import Path

import pytest

from conftest import (
    clause_text_of,
    int_clauses,
    int_tuple_dimacs,
    plain_assignment_satisfies,
    plain_cnf_clauses,
    plain_parse_dimacs,
    random_coloring,
)
from gallaikit import cnf
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
from gallaikit.patterns import IMAGE_BUDGET, TooLargeError, resolve
from gallaikit.search import SearchProblem, exhaustive_check

ROOT = Path(__file__).resolve().parent.parent


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
    return CnfDocument(n, k, v, clause_text_of(
        [rng.choice((1, -1)) * rng.randint(1, v) for _ in range(rng.randint(1, max_width))]
        for _ in range(rng.randint(0, max_clauses))))


def test_minimal_documents():
    doc = encode_cnf(SearchProblem(2, (None,)))
    assert doc.num_vars == 1 and len(int_clauses(doc)) == 1
    doc = encode_cnf(SearchProblem(3, ("k3", "k3"), require_gallai=True))
    assert doc.num_vars == 6 and len(int_clauses(doc)) == 8


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
        assert len(int_clauses(doc)) == expected_counts(n, k, per_color, gallai), (n, per_color)


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
        assert int_clauses(encode_cnf(problem)) == plain_cnf_clauses(problem), problem


def test_var_numbering_is_edge_major():
    doc = encode_cnf(SearchProblem(4, ("k3", "k3")))
    # first clause block is at-least-one per edge in lexicographic edge order
    for e in range(edge_count(4)):
        assert int_clauses(doc)[e] == (e * 2 + 1, e * 2 + 2)


def test_mono_clauses_are_all_negative_single_color():
    doc = encode_cnf(SearchProblem(5, ("k3", None), require_gallai=False))
    e = edge_count(5)
    amo = e * 1
    mono = int_clauses(doc)[e + amo:]
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
        clauses = int_clauses(doc)
        lines = doc.var_map_lines() + [f"p cnf {doc.num_vars} {len(clauses)}"]
        lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in clauses]
        assert doc.to_dimacs() == "\n".join(lines) + "\n"


def test_decode_requires_exactly_one_color_per_edge():
    doc = encode_cnf(SearchProblem(3, ("k3", "k3")))
    with pytest.raises(NotExactlyOneError):
        decode_assignment(doc, set())
    with pytest.raises(NotExactlyOneError):
        decode_assignment(doc, {1, 2, 3, 5})


def test_document_validation():
    with pytest.raises(CnfError):
        CnfDocument(3, 2, 5, clause_text_of([(1, 2)]))  # wrong var count
    with pytest.raises(CnfError):
        CnfDocument(3, 2, 6, clause_text_of([()]))  # a clause with no literals
    with pytest.raises(CnfError):
        CnfDocument(3, 2, 6, clause_text_of([(0,)]))  # zero literal
    with pytest.raises(CnfError):
        CnfDocument(3, 2, 6, clause_text_of([(7,)]))  # out of range
    # zero clauses is a legal (vacuously satisfiable) document
    assert CnfDocument(3, 2, 6, clause_text_of([])).num_vars == 6
    # clause text is checked by the same rule: canonical lines over -6..6
    assert (CnfDocument(3, 2, 6, "1 -6 0\n-2 0\n")
            == CnfDocument(3, 2, 6, clause_text_of([(1, -6), (-2,)])))
    # any other layout is read by tokens and builds the canonical document
    canonical = CnfDocument(3, 2, 6, "1 2 0\n")
    for text in ("01 2 0\n", "1  2 0\n", "1\t2 0\n", "1 2 0\r\n", "1 2\n", "1 2 0"):
        assert CnfDocument(3, 2, 6, text) == canonical, text
    for text, message in (("1 0\n7 0\n", "literal 7 out of range"),
                          ("-7 0\n", "literal -7 out of range"),
                          ("1 0 0\n", "empty clause"), ("1 -0 0\n", "empty clause"),
                          ("0\n", "empty clause"), (" 0\n", "empty clause"),
                          ("+1 0\n", "bad literal '\\+1'"),
                          ("1" * 5000 + " 0\n", "bad literal '1{24}'"),
                          ("9" * 4000 + " 0\n", "^literal 9{24} out of range$")):
        with pytest.raises(CnfError, match=message):
            CnfDocument(3, 2, 6, text)


def test_an_empty_clause_is_refused_wherever_it_stands():
    # a 0 that ends no literal is a clause no assignment satisfies: the
    # constructor and parse_dimacs refuse it whether or not the problem
    # line counts it
    for section in ("0\n", " 0\n", "1 2 3 0 0\n", "1 -0 0\n"):
        with pytest.raises(CnfError, match="empty clause"):
            CnfDocument(3, 1, 3, section)
        for declared in (1, 2):
            with pytest.raises(CnfError, match="empty clause"):
                parse_dimacs(f"p cnf 3 {declared}\n{section}", 3, 1)
    with pytest.raises(ValueError, match="empty clause"):
        plain_parse_dimacs("p cnf 3 2\n1 2 3 0 0\n")


def test_parse_dimacs_needs_a_problem_line():
    for text in ("", "\n", "c only\nc comments\n", "c one comment", "c x\r\n\r\nc y\r\n"):
        with pytest.raises(CnfError, match="^missing problem line$"):
            parse_dimacs(text, 3, 1)


def test_constructor_takes_text_only():
    # the four documents scripts/make_sat_certificates.py writes: their text
    # builds an equal document, and the same clauses in any other type fail
    spec = importlib.util.spec_from_file_location(
        "make_sat_certificates", ROOT / "scripts" / "make_sat_certificates.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    jobs = script.jobs()
    assert len(jobs) == 4
    for name, problem, _ in jobs:
        doc = encode_cnf(problem)
        assert doc.clauses == doc.clause_text.splitlines(), name
        assert len(doc.clauses) == doc.num_clauses == len(int_clauses(doc)), name
        assert CnfDocument(doc.n, doc.k, doc.num_vars, doc.clause_text) == doc, name
        ints = int_clauses(doc)
        for given in (ints, list(ints), list(map(list, ints)), doc.clause_text.encode()):
            with pytest.raises(CnfError, match="clause_text must be a str"):
                CnfDocument(doc.n, doc.k, doc.num_vars, given)
    for given, kind in (((), "tuple"), ([], "list"), (b"", "bytes"), (None, "NoneType")):
        with pytest.raises(CnfError, match=f"^clause_text must be a str, got {kind}$"):
            CnfDocument(3, 2, 6, given)
    assert CnfDocument(3, 2, 6, "").clauses == []


def test_each_document_is_checked_once(monkeypatch):
    # the constructor scans its text, each producer checks while it writes
    # and skips that scan, and what parse_dimacs accepts scans exactly once
    scans = []
    real = cnf._canonical
    monkeypatch.setattr(cnf, "_canonical",
                        lambda lines, num_vars: scans.append(len(lines)) or real(lines, num_vars))
    doc = encode_cnf(SearchProblem(6, ("h10", "k3", None), require_gallai=True))
    assert scans == []
    back = parse_dimacs(doc.to_dimacs(), 6, 3)
    assert back == doc and scans == [doc.num_clauses]
    assert CnfDocument(6, 3, doc.num_vars, doc.clause_text) == doc
    assert scans == [doc.num_clauses] * 2
    # and no clause view is built on the way: parsing and decoding a model
    # (every edge in the free color 3) never read the clauses property
    reads = []
    view = CnfDocument.clauses
    monkeypatch.setattr(CnfDocument, "clauses",
                        property(lambda d: reads.append(d) or view.fget(d)))
    back = parse_dimacs(doc.to_dimacs(), 6, 3)
    model = [e * 3 + 3 for e in range(edge_count(6))]
    assert assignment_satisfies(back, model)
    assert decode_assignment(back, model).colors == bytes([3]) * edge_count(6)
    assert reads == []
    assert len(back.clauses) == back.num_clauses and len(reads) == 1  # the counter counts


def test_encode_refuses_an_image_edge_outside_the_host():
    # a list of literal strings would read edge -1 as the last edge
    for images in (((0, 1, 3),), ((-1, 0, 1),), ((0, 2), (1, 2, 3))):
        problem = SearchProblem(3, ("k3", None))
        object.__setattr__(problem, "forbidden_images", lambda images=images: [((1,), images)])
        with pytest.raises(CnfError, match="outside 0..2"):
            encode_cnf(problem)
    problem = SearchProblem(3, ("k3", "k3", "k3"), require_gallai=True)
    object.__setattr__(problem, "rainbow_triangles", lambda: [(0, 1, 3)])
    with pytest.raises(CnfError, match="edge index 3 outside 0..2"):
        encode_cnf(problem)


def test_encode_refuses_rainbow_clauses_over_the_budget(monkeypatch):
    # C(60, 3) = 34220 triangles pass the problem's own budget, but each is
    # k(k-1)(k-2) = 720 clauses at k = 10: refused before any line is built
    monkeypatch.setattr(cnf, "combinations", None)
    problem = SearchProblem(60, (None,) * 10, require_gallai=True)
    with pytest.raises(TooLargeError, match=f"24638400 rainbow clauses, over the image "
                                            f"budget of {IMAGE_BUDGET}"):
        encode_cnf(problem)
    # at k = 3, C(82, 3) * 6 clauses do not fit, while C(81, 3) * 6 = 511920 would
    with pytest.raises(TooLargeError, match="531360 rainbow clauses"):
        encode_cnf(SearchProblem(82, (None,) * 3, require_gallai=True))


def test_encode_counts_rainbow_clauses_before_listing_a_triangle(monkeypatch):
    # C(147, 3) = 518665 triangles pass the problem's own budget, and their
    # 6 clauses each are refused from the count alone, before any is listed
    def no_triangles(self):
        raise AssertionError("the triangles were listed")

    monkeypatch.setattr(SearchProblem, "rainbow_triangles", no_triangles)
    for n, k, clauses in ((147, 3, 3111990), (60, 10, 24638400), (82, 3, 531360)):
        with pytest.raises(TooLargeError, match=f"^K_{n} with {k} colors has {clauses} "
                                                f"rainbow clauses, over the image budget"):
            encode_cnf(SearchProblem(n, (None,) * k, require_gallai=True))
    # within the budget the triangles are listed
    with pytest.raises(AssertionError, match="the triangles were listed"):
        encode_cnf(SearchProblem(4, (None,) * 3, require_gallai=True))


def test_encode_lists_no_color_triple_without_triangles(monkeypatch):
    # a problem without rainbow clauses lists no color triple: at k = 255
    # there are k(k-1)(k-2) = 16.4 million of them
    monkeypatch.setattr(cnf, "permutations", None)
    assert encode_cnf(SearchProblem(2, (None,) * 255)).num_clauses == 1 + 255 * 254 // 2
    assert encode_cnf(SearchProblem(9, (None,) * 3)).num_clauses == 36 * 4


def _random_problem(rng):
    n, k = rng.randint(2, 9), rng.randint(1, 4)
    ids = [None, "k3", "path(3)", "path(4)", "kipas(2)", "kipas(4)", "h1", "h5", "h10"]
    return SearchProblem(n, tuple(rng.choice(ids) for _ in range(k)),
                         require_gallai=rng.random() < 0.5)


def test_dimacs_matches_int_tuple_renderer():
    rng = random.Random(2510)
    gallai = set()
    for _ in range(60):
        problem = _random_problem(rng)
        doc = encode_cnf(problem)
        assert doc.to_dimacs() == int_tuple_dimacs(problem), problem
        assert doc.num_clauses == len(int_clauses(doc)) == len(plain_cnf_clauses(problem))
        gallai.add(problem.require_gallai and problem.k >= 3)
    assert gallai == {False, True}


def _scatter(rng, clauses, num_vars):
    """DIMACS text for clauses, written loosely: comments between clauses,
    several clauses on a line, clauses over two lines, tabs, runs of
    spaces, CRLF, leading zeros, blank lines, -0 and 00 as terminators,
    and a last clause that may lack its 0."""
    def lit(v):
        return ("-" if v < 0 else "") + "0" * rng.choice((0, 0, 0, 1, 2)) + str(abs(v))

    out = ["c loose", "", f"p cnf {num_vars} {len(clauses)}"]
    line = []
    for at, clause in enumerate(clauses):
        toks = [lit(v) for v in clause]
        if at < len(clauses) - 1 or rng.random() < 0.5:
            toks.append(rng.choice(("0", "0", "-0", "00")))
        if len(toks) > 2 and rng.random() < 0.2:  # split over two lines
            cut = rng.randint(1, len(toks) - 1)
            line += toks[:cut]
            out.append(rng.choice((" ", "\t", "  ")).join(line))
            line = toks[cut:]
        else:
            line += toks
        if rng.random() < 0.6:
            out.append(rng.choice((" ", "\t", "  ")).join(line) + rng.choice(("", " ", "\t")))
            line = []
            if rng.random() < 0.2:
                out.append(rng.choice(("c between clauses 1 0", "", "   ", "c")))
    if line:
        out.append(" ".join(line))
    return rng.choice(("\n", "\r\n")).join(out) + rng.choice(("\n", "", "\r\n"))


def test_parse_dimacs_matches_int_parser():
    rng = random.Random(1925)
    texts = []
    for _ in range(30):
        problem = _random_problem(rng)
        doc = encode_cnf(problem)
        texts.append((doc.n, doc.k, doc.to_dimacs()))
        clauses = int_clauses(doc)[:rng.randint(0, 40)]
        texts.append((doc.n, doc.k, _scatter(rng, clauses, doc.num_vars)))
    for _ in range(150):
        doc = random_document(rng, 5, 5, 12)
        texts.append((doc.n, doc.k, _scatter(rng, int_clauses(doc), doc.num_vars)))
    for n, k, text in texts:
        num_vars, clauses = plain_parse_dimacs(text)
        want = CnfDocument(n, k, num_vars, clause_text_of(clauses))
        got = parse_dimacs(text, n, k)
        assert got == want and int_clauses(got) == clauses, text
        assert got.to_dimacs() == want.to_dimacs()


def test_sat_certificate_files_hash_as_pinned(tmp_path):
    # the four documents scripts/make_sat_certificates.py writes, as CI pins them
    pinned = {
        "ramsey_kipas4_n9_sat.cnf":
            "47606f2266af9b1385e9b8d8f9082d059defaf69e68ea9d7d47ec406c95d419f",
        "ramsey_kipas4_n10_unsat.cnf":
            "fc770537920516e5d037b23b4989412a6b190ddab3c390e7df7e7def03976b45",
        "gallai_h10_n10_sat.cnf":
            "243b2a3d5c8eaab40793bca553f28433ecba6fdb98b84e7af420a05b074fccae",
        "gallai_h10_n11_unsat.cnf":
            "40118a19bdc291a3c1f26edcc7fbfa1b2df6da65627ffa069b4117200bfff8fa",
    }
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_sat_certificates.py"),
                    "--out-dir", str(tmp_path)], check=True, capture_output=True, timeout=120)
    assert {p.name for p in tmp_path.iterdir()} == set(pinned)
    for name, digest in pinned.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_sat_script_runs_a_solver_and_checks_its_answer(tmp_path):
    # a kissat stub first on PATH answers UNSAT for each *_unsat file and,
    # for each *_sat file, with the model of exhaustive_check's witness; a
    # model that colors every edge 1 fails re-verification, and with no
    # solver on PATH the script exits 2
    spec = importlib.util.spec_from_file_location(
        "make_sat_certificates", ROOT / "scripts" / "make_sat_certificates.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    jobs = script.jobs()

    def v_line(k, colors):
        return "v " + " ".join(str(e * k + c if color == c else -(e * k + c))
                               for e, color in enumerate(colors) for c in range(1, k + 1)) + " 0"

    witness = {name: v_line(problem.k, exhaustive_check(problem).witness.colors)
               for name, problem, expected in jobs if expected == "sat"}
    all_one = {name: v_line(problem.k, [1] * edge_count(problem.n))
               for name, problem, expected in jobs if expected == "sat"}
    bin_dir, empty = tmp_path / "bin", tmp_path / "empty"
    bin_dir.mkdir()
    empty.mkdir()
    stub = bin_dir / "kissat"
    stub.write_text(f"#!{sys.executable}\n" + textwrap.dedent("""\
        import json, sys
        from pathlib import Path
        stem = Path(sys.argv[1]).stem
        if stem.endswith("_unsat"):
            print("s UNSATISFIABLE")
            sys.exit(20)
        print("s SATISFIABLE")
        print(json.loads(Path(__file__).with_name("models.json").read_text())[stem])
        sys.exit(10)
        """), encoding="ascii")
    stub.chmod(0o755)

    def run(path, models):
        (bin_dir / "models.json").write_text(json.dumps(models), encoding="ascii")
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "make_sat_certificates.py"),
             "--out-dir", str(tmp_path / "cnf"), "--run"],
            env={**os.environ, "PATH": path}, capture_output=True, text=True, timeout=120)

    on_path = f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"
    proc = run(on_path, witness)
    assert proc.returncode == 0, proc.stderr
    assert "using kissat" in proc.stdout
    for name, _, expected in jobs:
        assert f"{name}: {expected.upper()} (ok)" in proc.stdout.splitlines(), name
    proc = run(on_path, all_one)
    assert proc.returncode == 1
    for name, _, expected in jobs:
        if expected == "sat":
            assert f"{name}: solver model FAILED re-verification" in proc.stderr, name
        else:
            assert f"{name}: UNSAT (ok)" in proc.stdout.splitlines(), name
    proc = run(str(empty), witness)
    assert proc.returncode == 2 and "no solver on PATH" in proc.stderr


def test_dimacs_round_trip():
    doc = encode_cnf(SearchProblem(4, ("k3", "path(3)"), require_gallai=False))
    text = doc.to_dimacs()
    assert text.startswith("c ")
    back = parse_dimacs(text, doc.n, doc.k)
    assert back == doc and int_clauses(back) == int_clauses(doc)
    assert back.to_dimacs() == text


def test_parse_dimacs_rejects_garbage():
    # on K_2 (one edge) k is the variable count, so n=2 and k=num_vars fit
    # every well-formed problem line below
    for text, k in (("p cnf\n", 1), ("1 2 0\n", 2),  # missing header
                    ("p cnf x 3\n", 3), ("p cnf 3 1\n1 two 0\n", 3),
                    ("p cnf 2 abc\n1 0\n", 2),  # clause count not an integer
                    ("p cnf 2 7\n1 2 0\n", 2),  # declares 7 clauses, holds 1
                    ("p cnf 2 0\n1 2 0\n", 2),
                    ("p cnf 2 1\n1 2 0\np cnf 3 1\n", 2),  # a second problem line
                    ("p cnf 2 1\np cnf 2 1\n1 2 0\n", 2),
                    ("1 2 0\np cnf 2 1\n", 2),  # a clause before the problem line
                    ("p cnf 2 1\n1 3 0\n", 2), ("p cnf 2 1\n-3 0\n", 2),  # out of range
                    ("p cnf 2 1\n1 2 0\n", 3),  # the header disagrees with n and k
                    # tokens int() reads but -?[0-9]+ refuses: a sign, an
                    # underscore, a non-ASCII digit, in the header too
                    ("p cnf 2 1\n+1 2 0\n", 2), ("p cnf 10 1\n1_0 0\n", 10),
                    ("p cnf 2 1\n1 2 0_0\n", 2), ("p cnf 2 1\n\u0661 0\n", 2),
                    ("p cnf +2 1\n1 0\n", 2), ("p cnf 2 +1\n1 0\n", 2),
                    ("p cnf 2 1\n1 2 0 %\n", 2),
                    # more digits than int() converts by default
                    ("p cnf 2 1\n" + "1" * 5000 + " 0\n", 2),
                    ("p cnf 2 1\n1 " + "0" * 5000 + "1 0\n", 2),
                    ("p cnf " + "9" * 5000 + " 1\n1 0\n", 2)):
        with pytest.raises(CnfError):
            parse_dimacs(text, 2, k)


def test_parse_model_variants():
    assert parse_model("SAT\n1 -2 3 0\n") == {1, 3}
    assert parse_model("s SATISFIABLE\nv 1 -2\nv 3 0\n") == {1, 3}
    assert parse_model("s UNSATISFIABLE\n") is None
    assert parse_model("UNSAT\n") is None
    # solver comment lines are skipped
    assert parse_model("c kissat\ns SATISFIABLE\nc 7 -1\nv -1 2 0\n") == {2}
    with pytest.raises(CnfError):
        parse_model("s SATISFIABLE\n")  # claims SAT but carries no literals
    for text in ("1 -1 2 0\n", "SAT\n-3 1 2 3 0\n", "v 1 2\nv -2 0\n"):
        with pytest.raises(CnfError):
            parse_model(text)  # a variable given with both signs
    # tokens int() reads but -?[0-9]+ refuses, and a token that is no integer
    for text in ("v 0_1 -2 0\n", "SAT\n+1 -2 0\n", "v 1 \u0662 0\n", "v 1 -2 x 0\n",
                 "SAT\n1 -2 0 %\n", "v 1 " + "2" * 5000 + " 0\n"):
        with pytest.raises(CnfError, match="bad model token"):
            parse_model(text)
