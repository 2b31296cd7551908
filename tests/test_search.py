import random
import tracemalloc
from functools import partial
from itertools import combinations, permutations, product

import pytest

from conftest import naive_images, plain_completion_tables, plain_exhaustive_check
from gallaikit.cnf import encode_cnf
from gallaikit.coloring import ColorRangeError
from gallaikit.detect import AvoidanceSpec, verify
from gallaikit.formulas import ANCHORS
from gallaikit.patterns import (IMAGE_BUDGET, TooLargeError, catalog, enumerate_pattern_images,
                                resolve)
import gallaikit.patterns as patterns_module
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
    out = exhaustive_check(SearchProblem(5, ("k3", "k3")))
    assert out.kind == "witness"
    rep = verify(out.witness, AvoidanceSpec.forbid_all("k3", 2))
    assert rep.passed


def test_triangle_anchor_n6_exhausted():
    out = exhaustive_check(SearchProblem(6, ("k3", "k3")))
    assert out.kind == "exhausted"
    assert out.symmetry_reduced


def test_path_fan_anchor():
    out = exhaustive_check(SearchProblem(4, ("path(3)", "kipas(4)")))
    assert out.kind == "witness"
    out = exhaustive_check(SearchProblem(5, ("path(3)", "kipas(4)")))
    assert out.kind == "exhausted"
    assert not out.symmetry_reduced


def test_witness_is_lexicographically_first():
    # deterministic order: the found witness equals brute force's first hit
    for per_color in [("k3", "k3"), ("path(3)", "path(4)"), ("path(4)", "k3")]:
        for n in (3, 4):
            problem = SearchProblem(n, per_color)
            got = exhaustive_check(problem)
            want = first_by_enumeration(problem)
            assert (got.kind == "witness") == (want is not None)
            if want is not None:
                assert tuple(got.witness.colors) == want


def test_exhaust_agrees_with_brute_force_tiny():
    cases = [
        (3, ("k3", "k3"), False),
        (4, ("path(3)", "path(3)"), False),
        (5, ("k3", "k3"), False),
        (4, ("path(3)", "kipas(4)"), True),
        (3, ("path(3)", "path(3)", "path(3)"), True),
    ]
    for n, per_color, gallai in cases:
        problem = SearchProblem(n, per_color, require_gallai=gallai)
        got = exhaustive_check(problem)
        want = first_by_enumeration(problem)
        assert (got.kind == "witness") == (want is not None), (n, per_color)


def test_unconstrained_color_slot():
    out = exhaustive_check(SearchProblem(5, (None, "k3")))
    assert out.kind == "witness"
    # nothing forbidden in color 1, so all-1 is the lexicographic minimum
    assert set(out.witness.colors) == {1}


def test_gallai_flag_excludes_rainbows():
    out = exhaustive_check(SearchProblem(3, (None, None, None), require_gallai=True))
    # plenty of gallai colorings exist; the first witness has no rainbow
    assert out.kind == "witness"
    from gallaikit.decompose import find_rainbow_triangle

    assert find_rainbow_triangle(out.witness) is None


def test_problems_past_the_old_state_budget_pinned():
    # each has k^E > 2^21 colorings; the node count is what bounds the work
    out = exhaustive_check(SearchProblem(10, ("kipas(4)", "kipas(4)")))
    assert (out.kind, out.nodes_explored) == ("exhausted", 99256)
    out = exhaustive_check(SearchProblem(8, ("h10", "h10")))
    assert (out.kind, out.nodes_explored) == ("exhausted", 788)
    problem = SearchProblem(6, ("k3", "k3", "k3"), require_gallai=True)
    out = exhaustive_check(problem)
    assert (out.kind, out.nodes_explored) == ("witness", 53)
    assert verify(out.witness, problem.spec).passed


def test_max_nodes_cuts_off_first_search():
    with pytest.raises(ScopeExceededError):
        exhaustive_check(SearchProblem(9, ("kipas(4)", "kipas(4)")), max_nodes=10)


def test_negative_node_budget_is_refused_before_any_table(monkeypatch):
    def no_tables(problem):
        raise AssertionError("tables built for a refused budget")

    monkeypatch.setattr(search_module, "_completion_tables", no_tables)
    with pytest.raises(SearchError, match="got -1") as info:
        exhaustive_check(SearchProblem(5, ("k3", "k3")), max_nodes=-1)
    assert type(info.value) is SearchError  # not a budget that ran out


def test_symmetry_reduction_recorded_only_when_identical():
    sym = exhaustive_check(SearchProblem(4, ("k3", "k3")))
    asym = exhaustive_check(SearchProblem(4, ("k3", "path(3)")))
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
    # patterns per color, and k = 3 with the rainbow-triangle check
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
    return [SearchProblem(n, per_color, require_gallai=gallai)
            for n, per_color, gallai in cases]


CUTOFF_PROBLEMS = [SearchProblem(7, ("h10", "h10")),
                   SearchProblem(6, ("k3", "k3", "k3"), require_gallai=True)]


def test_transposed_check_matches_list_scan_two_colors():
    kinds = {_same(problem)[0] for problem in two_color_problems()}
    assert kinds == {"witness", "exhausted"}


def test_transposed_check_matches_list_scan_mixed_and_gallai():
    seen = set()
    for problem in mixed_and_gallai_problems():
        got = _same(problem)
        seen.add(got[0])
    assert seen == {"witness", "exhausted"}


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
        ("h1", 9, 1425, None),
        ("h2", 9, 705, None),
        ("h3", 9, 756, None),
        ("kipas(4)", 9, 2871, KIPAS4_N9),
        ("h5", 9, 1219, H5_N9),
        ("h10", 7, 448, None),
        ("k3", 6, 108, None),
    ]
    for pid, n, nodes, colors in pins:
        out = exhaustive_check(SearchProblem(n, (pid, pid)))
        assert out.nodes_explored == nodes, pid
        assert out.symmetry_reduced
        assert out.kind == ("witness" if colors else "exhausted"), pid
        if colors:
            assert tuple(out.witness.colors) == colors


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


def decoded_masks(entry):
    """A table entry's alive and the multiset of its masks, read back from
    its slices as sorted edge bitsets: mask t holds edge shift + i iff bit t
    of tab[255 ^ (1 << i)] is clear, whichever bit a mask was given."""
    alive, slices = entry
    masks = [0] * alive.bit_length()
    for shift, tab in slices:
        for i in range(8):
            held = bin(alive & ~tab[255 ^ (1 << i)])[:1:-1]  # bit t at index t
            for t in [t for t, bit in enumerate(held) if bit == "1"]:
                masks[t] |= 1 << (shift + i)
    return alive, sorted(masks)


def test_completion_tables_match_int_or_build():
    # every ledger problem on value - 1 and value vertices, and kipas(5) at
    # n = 11, whose groups reach thousands of masks: each (edge, color) has
    # the oracle's masks, built from the images; the bit each mask gets is
    # free, since the DFS reads only whether some mask survives
    problems = [SearchProblem(n, per_color, require_gallai=gallai)
                for per_color, gallai, value in ANCHORS for n in (value - 1, value)]
    problems.append(SearchProblem(11, ("kipas(5)", "kipas(5)")))
    for problem in problems:
        table, plain = _completion_tables(problem), plain_completion_tables(problem)
        assert len(table) == len(plain)
        for pos, (row, want) in enumerate(zip(table, plain)):
            for color in range(problem.k + 1):
                assert decoded_masks(row[color]) == decoded_masks(want[color]), (
                    problem, pos, color)


def test_search_builds_no_image(monkeypatch):
    # the tables are compiled from the pattern shapes: with both routes to
    # the images closed, every ledger search keeps its kind and node count
    def no_images(*args):
        raise AssertionError("the search built an image")

    monkeypatch.setattr(patterns_module, "enumerate_pattern_images", no_images)
    monkeypatch.setattr(search_module, "enumerate_pattern_images", no_images)
    nodes = {  # the nodes on value - 1 (a witness) and on value vertices (exhausted)
        "h1,h1": (484, 1425), "h2,h2": (67, 705), "h3,h3": (136, 756),
        "h4,h4": (809, 3829), "h5,h5": (1219, 6074), "h6,h6": (540, 5469),
        "h10,h10": (16, 448), "h11,h11": (5116, 33632), "h12,h12": (2871, 99256),
        "kipas(2),kipas(2)": (40, 108), "kipas(3),kipas(3)": (386, 3632),
        "kipas(4),kipas(4)": (2871, 99256), "kipas(4),path(3)": (6, 36),
        "h10,h10,h10": (60670, 313420), "kipas(2),kipas(2),kipas(2)": (18285, 150949),
    }
    assert len(nodes) == len(ANCHORS)
    for per_color, gallai, value in ANCHORS:
        got = tuple((out.kind, out.nodes_explored) for out in (
            exhaustive_check(SearchProblem(n, per_color, require_gallai=gallai))
            for n in (value - 1, value)))
        witness, exhausted = nodes[",".join(per_color)]
        assert got == (("witness", witness), ("exhausted", exhausted)), per_color


def test_one_budget_message_for_search_cnf_and_images():
    # the search, the CNF encoder and the image list refuse a pattern over
    # the image budget through one orbit engine, with one text and count
    for pid, n, count in (("kipas(6)", 12, 525888), ("kipas(6)", 15, 540540),
                          ("path(16)", 17, 524314)):
        want = (f"{pid} on {n} vertices has at least {count} images, "
                f"over the image budget of {IMAGE_BUDGET}")
        problem = SearchProblem(n, (pid, pid))
        for build in (partial(exhaustive_check, problem), partial(encode_cnf, problem),
                      partial(enumerate_pattern_images, resolve(pid), n)):
            with pytest.raises(TooLargeError) as info:
                build()
            assert str(info.value) == want, build


def test_completion_tables_memory_peak():
    # kipas(5) at n = 11: the tables are compiled from the 360 shapes, with
    # no image built; building them from the image tuples peaked at about
    # 59 MB under tracemalloc, and from an image[:-1] copy of each at 75 MB
    problem = SearchProblem(11, ("kipas(5)", "kipas(5)"))
    tracemalloc.start()
    try:
        table = _completion_tables(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one mask per image: C(11, 6) subsets times 360 shapes
    assert sum(row[1][0].bit_length() for row in table) == 166320
    assert peak < 45 * 2**20, peak


def test_problem_over_the_budget_is_refused_before_anything_is_built(monkeypatch):
    def no_lists(*args):
        raise AssertionError("a list was built for a refused problem")

    monkeypatch.setattr(search_module, "edge_index", no_lists)
    monkeypatch.setattr(search_module, "enumerate_pattern_images", no_lists)
    monkeypatch.setattr(search_module, "pattern_shapes", no_lists)
    for args, what in (((100000, (None, None)), "9999900000 edge slots"),
                       ((30, (None,) * 255), "14087475 at-most-one pairs"),
                       ((400, (None,) * 3, True), "10586800 rainbow triangles")):
        with pytest.raises(TooLargeError, match=f"{what}, over the image budget of "
                                                f"{IMAGE_BUDGET}"):
            SearchProblem(*args)
    # a witness is an EdgeColoring, so k is capped by its palette: one rule
    with pytest.raises(ColorRangeError, match="^k=256 exceeds 255, the most colors a byte"):
        SearchProblem(3, (None,) * 256)
    # within the budget each list is accepted: C(1024, 2) slots, C(147, 3)
    # triangles; C(148, 3) triangles are counted only with k >= 3 and Gallai on
    assert SearchProblem(1024, (None,)).k == 1
    assert SearchProblem(147, (None,) * 3, require_gallai=True).n == 147
    assert SearchProblem(148, (None,) * 2, require_gallai=True).n == 148
    assert SearchProblem(148, (None,) * 3).n == 148
    with pytest.raises(TooLargeError, match="529396 rainbow triangles"):
        SearchProblem(148, (None,) * 3, require_gallai=True)


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
                    assert tuple(out.witness.colors) == want, problem
                kinds.add((out.kind, problem.k, gallai))
    assert {("witness", 2, False), ("exhausted", 2, False),
            ("witness", 3, True), ("exhausted", 3, True), ("exhausted", 3, False)} <= kinds
