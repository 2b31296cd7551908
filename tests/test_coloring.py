import random
import tracemalloc
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    buffer_inputs,
    plain_blowup,
    plain_serialize,
    random_coloring,
    random_gallai_blowup,
)
from gallaikit.coloring import (
    ArityMismatchError,
    MAX_COLORS,
    ColorRangeError,
    DuplicateEdgeError,
    EdgeColoring,
    GrcHeaderError,
    GrcSyntaxError,
    MissingEdgeError,
    NonInjectiveMapError,
    UnmappedColorError,
    blowup,
    edge_count,
    edge_index,
    edge_list,
    join,
    make_coloring,
    parse,
    read_grc,
    relabel_colors,
    serialize,
    write_grc,
)


def test_edge_count_small():
    assert [edge_count(n) for n in (1, 2, 3, 4, 5)] == [0, 1, 3, 6, 10]


def test_edge_index_is_lexicographic_bijection():
    for n in range(2, 9):
        pairs = edge_list(n)
        assert pairs == sorted(pairs)
        assert [edge_index(n, i, j) for i, j in pairs] == list(range(edge_count(n)))


def test_make_coloring_requires_every_edge():
    with pytest.raises(MissingEdgeError):
        make_coloring(3, 1, {(0, 1): 1, (0, 2): 1})


def test_make_coloring_rejects_duplicates():
    with pytest.raises(DuplicateEdgeError):
        make_coloring(3, 1, [(0, 1, 1), (1, 0, 1), (0, 2, 1), (1, 2, 1)])


def test_make_coloring_rejects_out_of_range_color():
    with pytest.raises(ColorRangeError):
        make_coloring(2, 1, {(0, 1): 2})
    with pytest.raises(ColorRangeError):
        make_coloring(2, 1, {(0, 1): 0})


def test_color_lookup_is_symmetric():
    c = make_coloring(3, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 1})
    assert c.color(0, 2) == c.color(2, 0) == 2


def test_serialize_k2():
    c = make_coloring(2, 1, {(0, 1): 1})
    assert serialize(c) == "grc 1 2 1\n1\n"


def test_serialize_rainbow_k3():
    c = make_coloring(3, 3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    assert serialize(c) == "grc 1 3 3\n1 2\n3\n"


def test_serialize_pentagon_rows():
    from gallaikit.construct import base_pentagon

    text = serialize(base_pentagon(1, 2))
    assert text.splitlines() == ["grc 1 5 2", "1 2 2 1", "1 2 2", "1 2", "1"]


@given(st.integers(min_value=1, max_value=20), st.data())
def test_parse_serialize_round_trip(n, data):
    k = data.draw(st.integers(min_value=1, max_value=5))
    colors = data.draw(
        st.tuples(*[st.integers(min_value=1, max_value=k)] * edge_count(n))
    )
    c = make_coloring(n, k, dict(zip(edge_list(n), colors)))
    text = serialize(c)
    # serialize translates rows of the buffer; the per-pair loop is the oracle
    rows = [" ".join(str(c.color(i, j)) for j in range(i + 1, n)) for i in range(n - 1)]
    assert text == "\n".join([f"grc 1 {n} {k}", *rows]) + "\n"
    back = parse(text)
    assert back == c
    assert serialize(back) == text


def test_parse_rejects_bad_version_and_garbage():
    with pytest.raises(GrcSyntaxError):
        parse("grc 2 3 1\n1 1\n1\n")
    with pytest.raises(GrcSyntaxError):
        parse("nope\n")


def test_parse_rejects_header_inconsistencies():
    with pytest.raises(GrcHeaderError):
        parse("grc 1 3 1\n1 1 1\n1\n")
    with pytest.raises(GrcHeaderError):
        parse("grc 1 3 1\n1 1\n")
    with pytest.raises(GrcHeaderError):
        parse("grc 1 0 1\n")


def test_grc_file_round_trip(tmp_path):
    rng = random.Random(7)
    c = random_coloring(rng, 6, 3)
    path = tmp_path / "c.grc"
    write_grc(c, path)
    assert read_grc(path) == c


def test_join_sizes_and_bridge():
    left = make_coloring(2, 3, {(0, 1): 1})
    right = make_coloring(3, 3, {(0, 1): 2, (0, 2): 2, (1, 2): 2})
    j = join(left, right, 3)
    assert j.n == 5
    assert j.color(0, 1) == 1
    assert j.color(2, 3) == 2
    # every cross edge wears the bridge color
    assert all(j.color(i, jj) == 3 for i in (0, 1) for jj in (2, 3, 4))


def test_join_lifts_palette_to_cover_bridge():
    c = make_coloring(2, 2, {(0, 1): 1})
    assert join(c, c, 3).k == 3
    with pytest.raises(ColorRangeError):
        join(c, c, 0)


def test_blowup_identity():
    base = make_coloring(3, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 1})
    singletons = [make_coloring(1, 2, {}) for _ in range(3)]
    assert blowup(base, singletons) == base


def test_blowup_cross_edges_inherit_base_color():
    rng = random.Random(3)
    base = random_coloring(rng, 3, 2)
    parts = [random_coloring(rng, s, 2) for s in (2, 1, 3)]
    c = blowup(base, parts)
    assert c.n == 6
    # part vertex ranges: [0,2), [2,3), [3,6)
    assert c.color(0, 2) == base.color(0, 1)
    assert c.color(2, 5) == base.color(1, 2)
    assert c.color(0, 1) == parts[0].color(0, 1)
    assert c.color(3, 5) == parts[2].color(0, 2)


def test_blowup_rejects_arity_mismatch():
    base = make_coloring(2, 1, {(0, 1): 1})
    with pytest.raises(ArityMismatchError):
        blowup(base, [make_coloring(1, 1, {})])


def test_relabel_permutes_colors():
    c = make_coloring(3, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 1})
    swapped = relabel_colors(c, {1: 2, 2: 1}, 2)
    assert tuple(swapped.colors) == (2, 1, 2)


def test_relabel_can_grow_palette():
    c = make_coloring(2, 1, {(0, 1): 1})
    lifted = relabel_colors(c, {1: 4}, 4)
    assert lifted.k == 4 and tuple(lifted.colors) == (4,)


def test_relabel_rejects_collisions_and_gaps():
    c = make_coloring(3, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 1})
    with pytest.raises(NonInjectiveMapError):
        relabel_colors(c, {1: 1, 2: 1}, 2)
    with pytest.raises(UnmappedColorError):
        relabel_colors(c, {1: 2}, 2)


def test_relabel_refuses_non_int_targets_and_palettes_above_a_byte():
    c = make_coloring(3, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 1})
    with pytest.raises(ColorRangeError, match="relabel target 1.5 outside 1..2"):
        relabel_colors(c, {1: 1.5, 2: 2}, 2)
    with pytest.raises(ColorRangeError, match="k=256 exceeds 255"):
        relabel_colors(c, {1: 1, 2: 256}, 256)
    with pytest.raises(ColorRangeError, match="^need k >= 1, got k=0$"):
        relabel_colors(c, {1: 1, 2: 2}, 0)


def _relabel_oracle(c, mapping, new_k):
    # one dict lookup per edge
    return EdgeColoring(c.n, new_k, tuple(mapping[x] for x in c.colors))


def test_relabel_matches_per_edge_dict_oracle():
    # the identity (which leaves a declared but unused color unmapped), an
    # injective map into a palette grown to 255, and a permutation of the
    # used colors onto 1..len(used)
    rng = random.Random(21)
    for c in buffer_inputs():
        used = sorted(set(c.colors))
        maps = [
            ({v: v for v in used}, c.k),
            (dict(zip(used, rng.sample(range(1, MAX_COLORS + 1), len(used)))), MAX_COLORS),
            (dict(zip(used, rng.sample(range(1, len(used) + 1), len(used)))), max(len(used), 1)),
        ]
        for mapping, new_k in maps:
            got = relabel_colors(c, mapping, new_k)
            assert got == _relabel_oracle(c, mapping, new_k), (c.n, c.k, mapping)
            assert type(got.colors) is bytes


def test_buffer_round_trip_on_differential_inputs():
    for c in buffer_inputs():
        assert c.colors == bytes(c.colors)
        text = serialize(c)
        back = parse(text)
        assert back == c and back.colors == c.colors, (c.n, c.k)
        assert serialize(back) == text


def test_parsed_coloring_retains_at_most_two_bytes_per_edge():
    # one byte per edge is the storage; a tuple of ints would cost 8 more
    n = 1000
    rng = random.Random(2500)
    text = serialize(EdgeColoring(n, 9, [rng.randint(1, 9) for _ in range(edge_count(n))]))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = parse(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert back.n == n and len(back.colors) == edge_count(n)
    assert held <= 2 * edge_count(n), held / edge_count(n)


def test_serialize_matches_str_join_oracle():
    # k <= 9 writes the whole body at once, with a newline after each row's
    # last color, and k >= 10 row by row through a translate table: one-digit,
    # two-digit and three-digit colors, alone or mixed in a row, give the
    # oracle's text, which parse reads back
    rng = random.Random(12)
    for k in (1, 2, 9, 10, 255):
        for n in (1, 2, 3, 7, 40, *(rng.randint(1, 80) for _ in range(20))):
            m = edge_count(n)
            colors = [rng.randint(1, k) for _ in range(m)]
            colors[: min(m, 2)] = [k, 1][: min(m, 2)]
            c = EdgeColoring(n, k, tuple(colors))
            text = serialize(c)
            assert text == plain_serialize(c), (n, k)
            assert parse(text) == c, (n, k)
    for c in buffer_inputs():
        assert serialize(c) == plain_serialize(c), (c.n, c.k)


def test_blowup_matches_per_pair_oracle():
    from gallaikit.construct import base_pentagon

    rng = random.Random(11)
    for _ in range(60):
        base = random_coloring(rng, rng.randint(1, 6), rng.randint(1, 4))
        parts = [random_coloring(rng, rng.randint(1, 7), rng.randint(1, 6))
                 for _ in range(base.n)]
        got = blowup(base, parts)
        assert got == plain_blowup(base, parts)
        assert got.colors == bytes(got.colors)
    for c in buffer_inputs()[50:72]:
        assert join(c, c, 7) == plain_blowup(EdgeColoring(2, 7, (7,)), [c, c])
    parts = [random_gallai_blowup(rng, s, 3) for s in (1, 9, 4, 12, 2)]
    for cycle, chord in ((1, 2), (9, 10)):
        base = base_pentagon(cycle, chord)
        assert blowup(base, parts) == plain_blowup(base, parts)


# int() reads several of these (+1 as 1, 1_0 as 10, an Arabic-Indic one as 1)
NON_DECIMAL_TOKENS = ["+1", "1_0", "\u0661", "-1", "1.0", "0x1", "\u00b2", "1e1"]


@pytest.mark.parametrize("token", NON_DECIMAL_TOKENS)
def test_parse_accepts_only_ascii_decimal_color_tokens(token):
    with pytest.raises(GrcSyntaxError):
        parse(f"grc 1 3 10\n{token} 1\n2\n")
    with pytest.raises(GrcSyntaxError):
        parse(f"grc 1 3 10\n2 2\n{token}\n")
    with pytest.raises(GrcSyntaxError):
        parse(f"grc 1 {token} 10\n")


def test_parse_reads_leading_zeros_and_two_digit_colors():
    assert tuple(parse("grc 1 3 12\n01 12\n007\n").colors) == (1, 12, 7)


def test_parse_reports_the_first_bad_token_in_reading_order():
    with pytest.raises(ColorRangeError, match="color 11 outside 1..10 in row 0"):
        parse("grc 1 3 10\n11 x\n2\n")
    with pytest.raises(GrcSyntaxError, match="'x' in row 0"):
        parse("grc 1 3 10\nx 11\n2\n")
    with pytest.raises(ColorRangeError, match="color 0 outside 1..10 in row 1"):
        parse("grc 1 3 10\n1 1\n000\n")
    with pytest.raises(ColorRangeError, match="color 256 outside 1..10"):
        parse("grc 1 3 10\n1 256\n2\n")
    with pytest.raises(ColorRangeError, match="outside 1..10"):
        parse("grc 1 3 10\n1 " + "9" * 5000 + "\n2\n")


@pytest.mark.parametrize("row, k, colors", [
    ("1  2 3", 9, (1, 2, 3)),
    ("1\t2 3", 9, (1, 2, 3)),
    ("1 2 3 ", 9, (1, 2, 3)),
    (" 1 2 3", 9, (1, 2, 3)),
    ("01 2 3", 9, (1, 2, 3)),
    ("1 007 3", 9, (1, 7, 3)),
    ("12 1 10", 12, (12, 1, 10)),
])
def test_parse_reads_each_row_form_as_its_canonical_twin(row, k, colors):
    # only serialize's own shape at k <= 9 is read by slicing; every other
    # row form goes through the tokenizer and must give the same coloring
    twin = EdgeColoring(4, k, colors + (4, 5, 6))
    assert parse(f"grc 1 4 {k}\n{row}\n4 5\n6\n") == twin
    assert parse(serialize(twin)) == twin


def test_parse_reads_whitespace_variants_of_a_whole_file():
    c = random_coloring(random.Random(31), 30, 5)
    text = serialize(c)
    for variant in (text.replace(" ", "  "), text.replace(" ", "\t"),
                    text.replace("\n", " \n"), text.replace("\n", "\r\n")):
        assert parse(variant) == c


@pytest.mark.parametrize("token", NON_DECIMAL_TOKENS + ["x", "0", "000", "11", "256", "9" * 5000])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_bad_token_in_a_canonical_row_is_reported_as_by_the_tokenizer(token, at):
    # the row is serialize's shape but for the bad token; widened to double
    # spaces, the same row skips the bulk read, so both errors must agree
    toks = ["1"] * 5
    toks[at] = token
    rest = "1 1 1 1\n1 1 1\n1 1\n1\n"
    want = ColorRangeError if token.isascii() and token.isdigit() else GrcSyntaxError
    with pytest.raises(want) as fast:
        parse(f"grc 1 6 10\n{' '.join(toks)}\n{rest}")
    with pytest.raises(want) as slow:
        parse(f"grc 1 6 10\n{'  '.join(toks)}\n{rest}")
    assert str(fast.value) == str(slow.value)
    if want is GrcSyntaxError:
        assert str(fast.value) == f"bad color token {token!r} in row 0"
    elif len(token) < 5:
        assert str(fast.value) == f"color {int(token)} outside 1..10 in row 0"


def _outcome(text: str):
    try:
        return parse(text)
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)


def test_bulk_row_read_matches_the_tokenizer_on_mutated_text():
    # every body space doubled, no row of two or more colors is in serialize's
    # shape, so the tokenizer reads them all: same coloring, or same error
    rng = random.Random(37)
    alphabet = "0123456789" + " \t\r\x0b" + "x+_١"
    refused = 0
    for _ in range(4000):
        n, k = rng.randint(1, 9), rng.randint(1, 12)
        text = list(serialize(random_coloring(rng, n, k)))
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            kind = rng.randrange(3)
            if kind == 0:
                text.insert(at, rng.choice(alphabet))
            elif at < len(text):
                if kind == 1:
                    text[at] = rng.choice(alphabet)
                else:
                    del text[at]
        head, _, body = "".join(text).partition("\n")
        bulk = _outcome(f"{head}\n{body}")
        assert bulk == _outcome(f"{head}\n{body.replace(' ', '  ')}"), "".join(text)
        refused += isinstance(bulk, tuple)
    assert refused >= 2000, refused


def test_first_bad_token_of_a_canonical_row_is_the_one_reported():
    with pytest.raises(GrcSyntaxError, match="'x' in row 0"):
        parse("grc 1 4 10\n1 x 0\n1 1\n1\n")
    with pytest.raises(ColorRangeError, match="color 0 outside 1..10 in row 0"):
        parse("grc 1 4 10\n1 0 x\n1 1\n1\n")
    with pytest.raises(ColorRangeError, match="color 7 outside 1..3 in row 1"):
        parse("grc 1 4 3\n1 1 1\n2 7\n1\n")


def test_a_row_of_canonical_length_is_still_split_at_whitespace_only():
    # even positions are digits and the length is 2 * 3 - 1, but "1,2" is one token
    with pytest.raises(GrcHeaderError, match="row 0 should list 3 colors, got 2"):
        parse("grc 1 4 9\n1,2 3\n1 1\n1\n")


def test_palette_is_capped_at_255_colors():
    assert MAX_COLORS == 255
    top = EdgeColoring(3, 255, (255, 1, 200))
    assert parse(serialize(top)) == top
    assert tuple(make_coloring(2, 255, {(0, 1): 255}).colors) == (255,)
    assert join(top, top, 255).k == 255
    with pytest.raises(ColorRangeError, match="k=256 exceeds 255"):
        EdgeColoring(2, 256, (1,))
    with pytest.raises(ColorRangeError, match="k=256 exceeds 255"):
        parse("grc 1 2 256\n1\n")
    with pytest.raises(ColorRangeError):
        make_coloring(2, 256, {(0, 1): 1})
    with pytest.raises(ColorRangeError):
        join(top, top, 256)
    with pytest.raises(ColorRangeError):
        relabel_colors(top, {1: 1, 200: 2, 255: 3}, 256)


def test_edge_coloring_range_check_names_the_first_bad_color():
    # buffers of wider items are read by item (16843009 is four bytes of 1)
    for colors, bad in (((1, 5, 0), "5"), ((1, 0, 5), "0"), ((300, 1, 1), "300"),
                        ((1, -1, 1), "-1"), ((1, 1.5, 1), "1.5"),
                        (array("i", [1, 300, 1]), "300"), (memoryview(array("H", [1, 5, 1])), "5"),
                        (array("i", [16843009, 1, 1]), "16843009")):
        with pytest.raises(ColorRangeError, match=f"color {bad} outside 1..4"):
            EdgeColoring(3, 4, colors)
    c = EdgeColoring(3, 4, b"\x01\x04\x02")
    assert tuple(c.colors) == (1, 4, 2) and type(c.colors) is bytes
    assert c == EdgeColoring(3, 4, [1, 4, 2])
