import random
import tracemalloc
from itertools import combinations, permutations, product

import pytest

from conftest import naive_images, plain_exhaustive_check
from gallaikit.detect import AvoidanceSpec, verify
from gallaikit.patterns import catalog, resolve
import gallaikit.search as search_module
from gallaikit.search import (
    ScopeExceededError,
    SearchError,
    SearchProblem,
    _completion_tables,
    exhaustive_check,
)


def first_by_enumeration(problem: SearchProblem):
    """The first valid coloring among all k^E in edge order, or None.

    Shares no code with either DFS: the edges come from combinations (the
    row-major edge order), every copy of a pattern from permutations of
    host vertices, and the triangles and the checks from plain loops.
    """
    n, k = problem.n, problem.k
    edges = list(combinations(range(n), 2))
    bit = {edge: 1 << i for i, edge in enumerate(edges)}
    copies = []
    for color, pid in enumerate(problem.per_color, start=1):
        if pid is not None:
            pattern = resolve(pid)
            copies += [(color, sum(bit[min(f[a], f[b]), max(f[a], f[b])]
                                   for a, b in pattern.edges))
                       for f in permutations(range(n), pattern.m)]
    triangles = []
    if problem.require_gallai and k >= 3:
        triangles = [(edges.index((x, y)), edges.index((x, z)), edges.index((y, z)))
                     for x, y, z in combinations(range(n), 3)]
    for colors in product(range(1, k + 1), repeat=len(edges)):
        in_color = [0] * (k + 1)
        for i, color in enumerate(colors):
            in_color[color] |= 1 << i
        if any(mask & in_color[color] == mask for color, mask in copies):
            continue
        if any(len({colors[a], colors[b], colors[c]}) == 3 for a, b, c in triangles):
            continue
        return colors
    return None


def test_problem_validation():
    with pytest.raises(Exception):
        SearchProblem(0, ("k3",))
    with pytest.raises(Exception):
        SearchProblem(3, ())
    with pytest.raises(Exception):
        SearchProblem(3, ("k3",), mode="all")


def test_spec_is_the_avoidance_spec_of_per_color():
    # None slots forbid nothing, aliases are canonical, colors keep their slot
    cases = [("p3", None, "k3"), (None, "kipas(4)"), ("k3", "complete(3)", None, "h10"),
             (None,), ("path(3)",)]
    for per_color in cases:
        for gallai in (False, True):
            problem = SearchProblem(5, per_color, require_gallai=gallai)
            per = {c: pid for c, pid in enumerate(per_color, start=1) if pid is not None}
            assert problem.spec == AvoidanceSpec.from_map(per, require_gallai=gallai)
    spec = SearchProblem(4, ("p3", None, "k3"), require_gallai=True).spec
    assert spec == AvoidanceSpec(((1, "path(3)"), (3, "complete(3)")), True)


def test_edgeless_host_yields_trivial_witness():
    out = exhaustive_check(SearchProblem(1, ("k3",)))
    assert out.kind == "witness" and out.witness.n == 1


def test_triangle_anchor_n5_witness():
    out = exhaustive_check(SearchProblem(5, ("k3", "k3"), mode="first"))
    assert out.kind == "witness"
    rep = verify(out.witness, AvoidanceSpec.forbid_all("k3", 2))
    assert rep.passed


def test_triangle_anchor_n6_exhausted():
    out = exhaustive_check(SearchProblem(6, ("k3", "k3"), mode="exhaust"))
    assert out.kind == "exhausted"
    assert out.symmetry_reduced


def test_path_fan_anchor():
    out = exhaustive_check(SearchProblem(4, ("path(3)", "kipas(4)"), mode="first"))
    assert out.kind == "witness"
    out = exhaustive_check(SearchProblem(5, ("path(3)", "kipas(4)"), mode="exhaust"))
    assert out.kind == "exhausted"
    assert not out.symmetry_reduced


def test_witness_is_lexicographically_first():
    # deterministic order: the found witness equals brute force's first hit
    for per_color in [("k3", "k3"), ("path(3)", "path(4)"), ("path(4)", "k3")]:
        for n in (3, 4):
            problem = SearchProblem(n, per_color, mode="first")
            got = exhaustive_check(problem)
            want = first_by_enumeration(problem)
            assert (got.kind == "witness") == (want is not None)
            if want is not None:
                assert got.witness.colors == want


def test_exhaust_agrees_with_brute_force_tiny():
    cases = [
        (3, ("k3", "k3"), False),
        (4, ("path(3)", "path(3)"), False),
        (5, ("k3", "k3"), False),
        (4, ("path(3)", "kipas(4)"), True),
        (3, ("path(3)", "path(3)", "path(3)"), True),
    ]
    for n, per_color, gallai in cases:
        problem = SearchProblem(n, per_color, require_gallai=gallai, mode="exhaust")
        got = exhaustive_check(problem)
        want = first_by_enumeration(problem)
        assert (got.kind == "witness") == (want is not None), (n, per_color)


def test_unconstrained_color_slot():
    out = exhaustive_check(SearchProblem(5, (None, "k3"), mode="first"))
    assert out.kind == "witness"
    # nothing forbidden in color 1, so all-1 is the lexicographic minimum
    assert set(out.witness.colors) == {1}


def test_gallai_flag_excludes_rainbows():
    out = exhaustive_check(
        SearchProblem(3, (None, None, None), require_gallai=True, mode="exhaust")
    )
    # plenty of gallai colorings exist; the first witness has no rainbow
    assert out.kind == "witness"
    from gallaikit.detect import find_rainbow_triangle

    assert find_rainbow_triangle(out.witness) is None


def test_budget_guard_refuses_oversized_exhaust():
    with pytest.raises(ScopeExceededError):
        exhaustive_check(SearchProblem(8, ("h10", "h10"), mode="exhaust"))


def test_max_nodes_cuts_off_first_search():
    with pytest.raises(ScopeExceededError):
        exhaustive_check(
            SearchProblem(9, ("kipas(4)", "kipas(4)"), mode="first"), max_nodes=10
        )


def test_negative_node_budget_is_refused_before_any_table(monkeypatch):
    def no_tables(problem):
        raise AssertionError("tables built for a refused budget")

    monkeypatch.setattr(search_module, "_completion_tables", no_tables)
    with pytest.raises(SearchError, match="got -1") as info:
        exhaustive_check(SearchProblem(5, ("k3", "k3")), max_nodes=-1)
    assert type(info.value) is SearchError  # not a budget that ran out


def test_symmetry_reduction_recorded_only_when_identical():
    sym = exhaustive_check(SearchProblem(4, ("k3", "k3"), mode="exhaust"))
    asym = exhaustive_check(SearchProblem(4, ("k3", "path(3)"), mode="exhaust"))
    assert sym.symmetry_reduced
    assert not asym.symmetry_reduced


def _outcome(search, problem, max_nodes):
    try:
        out = search(problem, max_nodes=max_nodes)
    except ScopeExceededError:
        return "scope exceeded"
    return out.kind, out.nodes_explored, out.symmetry_reduced, out.witness


def _same(problem, max_nodes=None):
    """The library's outcome, asserted equal to the list-scan oracle's."""
    got = _outcome(exhaustive_check, problem, max_nodes)
    assert got == _outcome(plain_exhaustive_check, problem, max_nodes), problem
    return got


def two_color_problems():
    # every catalog id and kipas(2..4), both colors forbidding it, n <= 8
    ids = [pid for pid, _ in catalog()] + ["kipas(2)", "kipas(3)", "kipas(4)"]
    return [SearchProblem(n, (pid, pid)) for pid in ids for n in range(2, 9)]


def mixed_and_gallai_problems():
    # None slots, a one-edge pattern (its completion mask is empty), different
    # patterns per color, and k = 3 with the rainbow-triangle check; exhaust
    # mode also meets the state budget guard (3^15 > 2^21 refuses n=6)
    cases = [
        (n, per_color, False)
        for n in range(2, 8)
        for per_color in [(None, "h1"), ("kipas(3)", None), ("path(2)", "k3"),
                          ("path(3)", "kipas(4)"), ("h10", None, "k3")]
    ]
    cases += [
        (n, per_color, True)
        for n in range(3, 8)
        for per_color in [("k3", "k3", "k3"), ("h10", "h10", "h10"),
                          ("path(3)", None, "kipas(3)"), (None, None, None)]
    ]
    return [SearchProblem(n, per_color, require_gallai=gallai, mode=mode)
            for n, per_color, gallai in cases for mode in ("first", "exhaust")]


CUTOFF_PROBLEMS = [SearchProblem(7, ("h10", "h10"), mode="exhaust"),
                   SearchProblem(6, ("k3", "k3", "k3"), require_gallai=True)]


def test_transposed_check_matches_list_scan_two_colors():
    kinds = {_same(problem)[0] for problem in two_color_problems()}
    assert kinds == {"witness", "exhausted"}


def test_transposed_check_matches_list_scan_mixed_and_gallai():
    seen = set()
    for problem in mixed_and_gallai_problems():
        got = _same(problem)
        seen.add(got if got == "scope exceeded" else got[0])
    assert seen == {"witness", "exhausted", "scope exceeded"}


def test_max_nodes_cuts_off_at_the_same_node():
    for problem in CUTOFF_PROBLEMS:
        full = _same(problem)[1]
        assert _same(problem, max_nodes=full)[1] == full
        for budget in (0, 1, full // 3, full - 1):
            assert _same(problem, max_nodes=budget) == "scope exceeded"


def test_lex_leader_keeps_kind_and_witness_of_the_unpruned_traversal():
    # symmetry breaking only drops nodes: on every problem of the three tests
    # above, kind, witness and symmetry_reduced are those of the traversal
    # without it, which never visits fewer nodes
    def unpruned(problem, max_nodes):
        return plain_exhaustive_check(problem, max_nodes, lex_leader=False)

    fewer = 0
    for problem in two_color_problems() + mixed_and_gallai_problems() + CUTOFF_PROBLEMS:
        got = _outcome(exhaustive_check, problem, None)
        want = _outcome(unpruned, problem, None)
        if got == "scope exceeded" or want == "scope exceeded":
            assert got == want, problem
            continue
        assert (got[0], got[2], got[3]) == (want[0], want[2], want[3]), problem
        assert got[1] <= want[1], problem
        fewer += got[1] < want[1]
    assert fewer > 0


KIPAS4_N9 = (1, 1, 1, 1, 1, 2, 2, 2, 1, 1, 2, 2, 1, 2, 2, 2, 2, 2,
             2, 1, 1, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 1)
H5_N9 = (1, 1, 1, 1, 2, 2, 2, 2, 1, 2, 2, 1, 1, 2, 2, 2, 2, 2,
         2, 1, 1, 1, 1, 2, 1, 2, 2, 1, 2, 1, 1, 1, 2, 2, 1, 1)


def test_anchor_traversals_pinned():
    # the searches of the benchmark's anchors workload: node counts are the
    # lex-leader DFS's, whatever its completion test, and the witnesses the
    # lexicographic DFS's, with or without symmetry breaking
    pins = [
        ("h1", 9, "first", 1425, None),
        ("h2", 9, "first", 705, None),
        ("h3", 9, "first", 756, None),
        ("kipas(4)", 9, "first", 2871, KIPAS4_N9),
        ("h5", 9, "first", 1219, H5_N9),
        ("h10", 7, "exhaust", 448, None),
        ("k3", 6, "exhaust", 108, None),
    ]
    for pid, n, mode, nodes, colors in pins:
        out = exhaustive_check(SearchProblem(n, (pid, pid), mode=mode))
        assert out.nodes_explored == nodes, pid
        assert out.symmetry_reduced
        assert out.kind == ("witness" if colors else "exhausted"), pid
        if colors:
            assert out.witness.colors == colors


def test_byte_sliced_tables_match_subset_scan():
    # at every (pos, color), for random sets cm of earlier edges in the color,
    # the tables block the color iff some completion mask lies inside cm; the
    # masks come from naive_images with inline edge indices
    rng = random.Random(7)
    verdicts = set()
    for per_color, gallai in [(("kipas(4)", "kipas(4)"), False), (("h1", "h1"), False),
                              (("h10", "h10", "h10"), True)]:
        for n in range(2, 10):
            problem = SearchProblem(n, per_color, require_gallai=gallai)
            k, e_total = problem.k, n * (n - 1) // 2
            masks = [[[] for _ in range(k + 1)] for _ in range(e_total)]
            for color, pid in enumerate(per_color, start=1):
                for image in naive_images(resolve(pid), n):
                    mask = sum(1 << (i * (2 * n - i - 1) // 2 + j - i - 1) for i, j in image)
                    top = mask.bit_length() - 1
                    masks[top][color].append(mask ^ (1 << top))
            tables = _completion_tables(problem)
            for pos in range(e_total):
                for color in range(1, k + 1):
                    for density in (0.3, 0.6, 0.8, 0.9, 1.0):
                        cm = sum(1 << d for d in range(pos) if rng.random() < density)
                        alive, slices = tables[pos][color]
                        for shift, tab in slices:
                            alive &= tab[(cm >> shift) & 255]
                        want = any(rem & cm == rem for rem in masks[pos][color])
                        assert (alive != 0) == want, (per_color, n, pos, color, cm)
                        verdicts.add(want)
    assert verdicts == {False, True}


def test_forbidden_images_hands_on_the_enumerated_tuple(monkeypatch):
    # each pattern's images are the very tuple enumerate_pattern_images
    # returned, reached through search's module global, with no second copy
    returned = []
    real = search_module.enumerate_pattern_images

    def recording(pattern, n):
        images = real(pattern, n)
        returned.append(images)
        return images

    monkeypatch.setattr(search_module, "enumerate_pattern_images", recording)
    out = SearchProblem(7, ("h1", "k3", None, "h1")).forbidden_images()
    assert [colors for colors, _ in out] == [(1, 4), (2,)]
    assert len(returned) == 2
    for (_, images), made in zip(out, returned):
        assert images is made and type(images) is tuple


def test_forbidden_images_memory_peak():
    # kipas(5) at n=12: 332640 images of 9 edges.  One copy of them holds
    # about 40 MB; building vertex-pair images and then mapping them to
    # edge indices peaked at about 236 MB under tracemalloc
    problem = SearchProblem(12, ("kipas(5)", "kipas(5)"))
    tracemalloc.start()
    try:
        out = problem.forbidden_images()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out[0][1]) == 332640
    assert peak < 80 * 2**20, peak


def test_symmetry_breaking_is_sound_against_full_enumeration():
    # n <= 5, k = 2 and 3, Gallai on and off, None slots and mixed patterns:
    # the pruned DFS's kind and witness are those of trying every coloring
    per_colors = [("k3", "k3"), ("path(3)", "path(3)"), ("path(4)", "path(4)"),
                  ("h10", "h10"), ("kipas(3)", "kipas(3)"), (None, "k3"), ("k3", None),
                  ("path(3)", "kipas(4)"), ("path(4)", "k3"), (None, None),
                  ("k3", "k3", "k3"), ("path(3)", "path(3)", "path(3)"),
                  ("path(2)", "k3", "path(3)"), (None, None, None), ("k3", None, "path(3)"),
                  ("path(3)", "path(3)", None)]
    kinds = set()
    for per_color in per_colors:
        for gallai in (False, True):
            for n in range(1, 6):
                problem = SearchProblem(n, per_color, require_gallai=gallai)
                out = exhaustive_check(problem)
                want = first_by_enumeration(problem)
                assert out.kind == ("exhausted" if want is None else "witness"), problem
                if want is not None:
                    assert out.witness.colors == want, problem
                kinds.add((out.kind, problem.k, gallai))
    assert {("witness", 2, False), ("exhausted", 2, False),
            ("witness", 3, True), ("exhausted", 3, True), ("exhausted", 3, False)} <= kinds
