"""The value records against their frozen dataclass twins (conftest.RECORD_TWINS).

Each library record is built from random and edge-case field values; its
twin is built from the values the record stored, so __post_init__'s
normalization (colors to bytes, pattern ids to canonical form) is not
what is compared.  Construction, equality, hashing, repr, immutability,
copying and pickling must all agree with what the dataclass does.
"""

import copy
import dataclasses
import pickle
import random
from array import array
from itertools import combinations

import pytest
from conftest import RECORD_TWINS, random_coloring

from gallaikit._record import Record
from gallaikit.cnf import CnfDocument, CnfError
from gallaikit.coloring import ColorRangeError, ColoringError, EdgeColoring, edge_count
from gallaikit.decompose import GallaiPartition
from gallaikit.detect import (
    AvoidanceSpec,
    CheckStats,
    Embedding,
    VerificationReport,
    color_neighbor_masks,
)
from gallaikit.formulas import FormulaError, GrValue
from gallaikit.patterns import Pattern, PatternError
from gallaikit.search import SearchError, SearchOutcome, SearchProblem

_IDS = (None, "k3", "h10", "kipas(4)", "path(3)", "h1")
_LABELS = ("custom", "k3", "", "a'b\"c", "ü\n")


def _coloring(rng: random.Random) -> EdgeColoring:
    return random_coloring(rng, rng.randint(1, 5), rng.randint(1, 3))


def _embedding(rng: random.Random) -> Embedding:
    return Embedding(rng.randint(1, 3), tuple(rng.sample(range(6), rng.randint(0, 3))))


def _stats(rng: random.Random) -> CheckStats:
    return CheckStats(*(rng.choice((0, 1, True, 7, -2, 10**30)) for _ in range(3)))


def _clauses(rng: random.Random, num_vars: int) -> tuple:
    if num_vars == 0:
        return ()
    return tuple(
        tuple(rng.choice((1, -1)) * rng.randint(1, num_vars)
              for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3))
    )


def _random_args(cls, rng: random.Random) -> tuple:
    """Valid field values for cls, drawn from small ranges so that equal
    values come up often."""
    if cls is EdgeColoring:
        n, k = rng.randint(1, 4), rng.randint(1, 2)
        colors = [rng.randint(1, k) for _ in range(edge_count(n))]
        return n, k, rng.choice((tuple, list, bytes))(colors)
    if cls is Pattern:
        m = rng.randint(1, 4)
        pairs = list(combinations(range(m), 2))
        return m, frozenset(rng.sample(pairs, rng.randint(0, len(pairs)))), rng.choice(_LABELS)
    if cls is Embedding:
        return _embedding(rng).color, _embedding(rng).map
    if cls is CheckStats:
        return tuple(rng.choice((0, 1, True, 10**30)) for _ in range(3))
    if cls is VerificationReport:
        witnesses = tuple(_embedding(rng) for _ in range(rng.randint(0, 2)))
        return (rng.random() < 0.5, rng.choice((None, (0, 1, 2), (1, 3, 4))), witnesses,
                _stats(rng))
    if cls is AvoidanceSpec:
        colors = rng.sample(range(1, 5), rng.randint(0, 2))
        return (tuple(sorted((c, rng.choice(_IDS[1:])) for c in colors)),
                rng.random() < 0.5)
    if cls is SearchProblem:
        return (rng.randint(1, 6), tuple(rng.choice(_IDS) for _ in range(rng.randint(1, 2))),
                rng.random() < 0.5)
    if cls is SearchOutcome:
        witness = _coloring(rng) if rng.random() < 0.5 else None
        return (rng.choice(("witness", "exhausted")), witness, rng.randint(0, 3),
                rng.random() < 0.5)
    if cls is CnfDocument:
        n, k = rng.randint(1, 3), rng.randint(1, 2)
        num_vars = edge_count(n) * k
        return n, k, num_vars, _clauses(rng, num_vars)
    if cls is GallaiPartition:
        quotient = _coloring(rng)
        return tuple((i,) for i in range(quotient.n)), quotient
    assert cls is GrValue
    return rng.choice((3, 4, 3.0, 10**20)), rng.choice(_LABELS)


def _edge_args(cls) -> list[tuple]:
    """Hand-picked values: bools that equal ints, NaN, empty containers,
    big ints and strings that repr escapes.  Built afresh on every call, so
    no NaN object is shared between two records."""
    nan = float("nan")
    return {
        EdgeColoring: [(1, 1, ()), (1, 255, b""), (2, 1, (True,)), (2, 1, (1,))],
        Pattern: [(1, frozenset(), ""), (2, frozenset({(0, 1)}), "ü\n")],
        Embedding: [(1, ()), (True, ()), (2, (0,)), (nan, (0,))],
        CheckStats: [(0, 0, 0), (False, 0, 0), (10**40, -1, nan)],
        VerificationReport: [(True, None, (), CheckStats(0, 0, 0)),
                             (1, None, (), CheckStats(False, 0, 0))],
        AvoidanceSpec: [((), True), ((), 1), (((1, "k3"),), False)],
        SearchProblem: [(1, (None,), False), (1, (None,), 0)],
        SearchOutcome: [("exhausted", None, 0, False), ("exhausted", None, 0, 0),
                        ("witness", EdgeColoring(1, 1, ()), nan, True)],
        CnfDocument: [(1, 1, 0, ()), (2, 1, 1, ((1,), (-1,))), (2, 1, 1, ((True,),))],
        GallaiPartition: [((), EdgeColoring(1, 1, ())), (((0,),), EdgeColoring(1, 1, ()))],
        GrValue: [(3, ""), (3.0, ""), (nan, "x"), (10**40, "a'b\"c")],
    }[cls]


def _cases(cls) -> list[tuple]:
    cases = _edge_args(cls)
    for seed in range(30):
        cases.append(_random_args(cls, random.Random(f"{cls.__name__}-{seed}")))
    return cases


def _field_names(twin) -> list[str]:
    return [f.name for f in dataclasses.fields(twin)]


def _twin_of(record):
    twin = RECORD_TWINS[type(record)]
    return twin(*(getattr(record, name) for name in _field_names(twin)))


_CLASSES = list(RECORD_TWINS)


def _ids(cls) -> str:
    return cls.__name__


@pytest.mark.parametrize("cls", _CLASSES, ids=_ids)
def test_fields_and_match_args_follow_the_twin(cls):
    twin = RECORD_TWINS[cls]
    assert cls.__match_args__ == twin.__match_args__ == tuple(_field_names(twin))
    assert not dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("cls", _CLASSES, ids=_ids)
def test_eq_hash_and_repr_agree_with_the_twin(cls):
    records = [cls(*args) for args in _cases(cls)]
    # the same values again, as new objects
    again = [cls(*args) for args in _cases(cls)]
    twins = [_twin_of(r) for r in records]
    twins_again = [_twin_of(r) for r in again]
    equal_pairs = 0
    for r, t in zip(records + again, twins + twins_again):
        assert repr(r) == repr(t)
        assert hash(r) == hash(t)
        assert r == r and not r != r
    for (r1, t1) in zip(records, twins):
        for (r2, t2) in zip(again, twins_again):
            assert (r1 == r2) == (t1 == t2), (r1, r2)
            assert (r1 != r2) == (t1 != t2), (r1, r2)
            if r1 == r2:
                equal_pairs += 1
                assert hash(r1) == hash(r2)
    assert equal_pairs > len(records)  # the value ranges are small enough to collide


@pytest.mark.parametrize("cls", _CLASSES, ids=_ids)
def test_another_class_with_the_same_fields_is_never_equal(cls):
    twin = RECORD_TWINS[cls]
    names = _field_names(twin)
    other_record = type(cls.__name__, (Record,),
                        {"__annotations__": dict.fromkeys(names, "object")})
    other_twin = dataclasses.make_dataclass(cls.__name__, names, frozen=True)
    for args in _cases(cls)[:8]:
        r = cls(*args)
        t = _twin_of(r)
        values = [getattr(r, name) for name in names]
        for mine, theirs, other in ((r, t, other_record(*values)),
                                    (t, r, other_twin(*values))):
            assert mine != other and other != mine
            assert not mine == other and not other == mine
            assert mine != theirs and not mine == theirs
            assert mine.__eq__(other) is NotImplemented
            assert hash(mine) == hash(other)
            assert repr(mine) == repr(other)


@pytest.mark.parametrize("cls", _CLASSES, ids=_ids)
def test_positional_keyword_and_default_construction(cls):
    twin = RECORD_TWINS[cls]
    names = _field_names(twin)
    defaults = {f.name: f.default for f in dataclasses.fields(twin)
                if f.default is not dataclasses.MISSING}
    required = len(names) - len(defaults)
    for args in _cases(cls):
        full = cls(*args)
        for split in range(len(names) + 1):
            keywords = dict(zip(names[split:], args[split:]))
            assert cls(*args[:split], **keywords) == full
        for omitted in range(1, len(defaults) + 1):
            kept = len(names) - omitted
            short = cls(*args[:kept])
            expect = twin(*(getattr(short, name) for name in names[:kept]))
            assert short == cls(*(getattr(expect, name) for name in names))
            assert repr(short) == repr(expect)
    assert required >= 1


@pytest.mark.parametrize("cls", _CLASSES, ids=_ids)
def test_bad_arguments_raise_type_error(cls):
    twin = RECORD_TWINS[cls]
    names = _field_names(twin)
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(twin))
    args = _cases(cls)[-1]
    bad_calls = [
        ((), {}, "missing"),
        (args[:required - 1], {}, "missing"),  # the last required field
        (args[1:required], {}, "missing"),  # a field shifted out
        (args + (0,), {}, "positional arguments but"),
        (args, {"bogus": 1}, "unexpected keyword argument 'bogus'"),
        (args[:1], {"bogus": 1, **dict(zip(names[1:], args[1:]))},
         "unexpected keyword argument 'bogus'"),
        (args, {names[0]: args[0]}, f"multiple values for argument '{names[0]}'"),
        (args[:-1], {names[0]: args[0], names[-1]: args[-1]},
         f"multiple values for argument '{names[0]}'"),
    ]
    for pos, kw, phrase in bad_calls:
        for make in (twin, cls):
            with pytest.raises(TypeError) as exc:
                make(*pos, **kw)
            assert phrase in str(exc.value), (make, pos, kw)


@pytest.mark.parametrize("cls", _CLASSES, ids=_ids)
def test_fields_cannot_be_set_or_deleted(cls):
    names = _field_names(RECORD_TWINS[cls])
    for args in _cases(cls)[-3:]:
        r = cls(*args)
        before = repr(r)
        for obj in (r, _twin_of(r)):
            for name in names + ["extra"]:
                with pytest.raises(AttributeError):
                    setattr(obj, name, 1)
            for name in names:
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        assert repr(r) == before and not hasattr(r, "extra")


@pytest.mark.parametrize("cls", _CLASSES, ids=_ids)
def test_copies_and_pickles_are_equal(cls):
    for args in _cases(cls)[4:]:  # no NaN, which equals only itself
        r = cls(*args)
        copies = [copy.copy(r), copy.deepcopy(r)]
        copies += [pickle.loads(pickle.dumps(r, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for dup in copies:
            assert type(dup) is cls
            assert dup == r and hash(dup) == hash(r) and repr(dup) == repr(r)
            assert vars(dup).keys() == vars(r).keys()
            with pytest.raises(AttributeError):
                setattr(dup, _field_names(RECORD_TWINS[cls])[0], 1)


@pytest.mark.parametrize("make, error, message", [
    (lambda: EdgeColoring(0, 1, ()), ColoringError, "need n >= 1, got n=0"),
    (lambda: EdgeColoring(3, 2, (1, 2)), ColoringError, "n=3 needs 3 colors, got 2"),
    (lambda: EdgeColoring(2, 2, (3,)), ColorRangeError, "color 3 outside 1..2"),
    (lambda: EdgeColoring(2, 0, (1,)), ColorRangeError, "need k >= 1, got k=0"),
    (lambda: EdgeColoring(2, 256, (1,)), ColorRangeError, "k=256 exceeds 255"),
    (lambda: Pattern(0, frozenset(), "x"), PatternError, "need m >= 1, got 0"),
    (lambda: Pattern(2, frozenset({(1, 0)}), "x"), PatternError, r"bad edge \(1, 0\) for m=2"),
    (lambda: SearchProblem(0, ("k3",)), SearchError, "need n >= 1, got 0"),
    (lambda: SearchProblem(3, ()), SearchError, "per_color must list at least one color"),
    (lambda: CnfDocument(2, 1, 2, ()), CnfError, "num_vars must be edge_count \\* k"),
    (lambda: CnfDocument(2, 1, 1, ((1,), ())), CnfError, "empty clause"),
    (lambda: CnfDocument(2, 1, 1, ((2,),)), CnfError, "literal 2 out of range"),
    (lambda: GrValue(2, "x"), FormulaError, "implausible Gallai-Ramsey value 2"),
])
def test_post_init_errors_are_raised_as_before(make, error, message):
    with pytest.raises(error, match=f"^{message}"):
        make()


def test_post_init_normalizes_the_stored_fields():
    c = EdgeColoring(3, 2, b"\x01\x02\x01")
    assert tuple(c.colors) == (1, 2, 1) and type(c.colors) is bytes and c.colors == b"\x01\x02\x01"
    assert c == EdgeColoring(3, 2, [1, 2, 1]) == EdgeColoring(n=3, k=2, colors=(1, 2, 1))
    assert SearchProblem(4, ("k3", None)).per_color == ("complete(3)", None)
    # every int sequence is stored as one bytes object, equal and hash-equal
    raw = bytearray(b"\x01\x02\x01")
    made = [EdgeColoring(3, 2, colors) for colors in
            ((1, 2, 1), [1, 2, 1], b"\x01\x02\x01", raw, memoryview(b"\x01\x02\x01"),
             array("i", [1, 2, 1]), memoryview(array("H", [1, 2, 1])))]
    for other in made:
        assert type(other.colors) is bytes and other.colors == b"\x01\x02\x01"
        assert other == c and hash(other) == hash(c)
        assert repr(other) == repr(RECORD_TWINS[EdgeColoring](3, 2, other.colors))
    # a mutable input is copied, never aliased
    from_raw = made[3]
    before = hash(from_raw)
    raw[0] = 2
    assert from_raw == c and hash(from_raw) == before and from_raw.colors[0] == 1


def test_cached_masks_stay_outside_eq_hash_and_repr():
    rng = random.Random(13)
    for _ in range(20):
        c = random_coloring(rng, rng.randint(1, 12), rng.randint(1, 4))
        fresh = EdgeColoring(c.n, c.k, c.colors)
        masks = color_neighbor_masks(c)
        assert vars(c)["_neighbor_masks"] is masks
        assert "_neighbor_masks" not in vars(fresh)
        assert c == fresh and fresh == c
        assert hash(c) == hash(fresh) and repr(c) == repr(fresh)
        assert repr(c) == repr(RECORD_TWINS[EdgeColoring](c.n, c.k, c.colors))
        assert color_neighbor_masks(copy.copy(c)) is masks


def test_subclass_fields_follow_the_dataclass_rules():
    class Base(Record):
        a: int
        b: str = "b"

    class Child(Base):
        c: float = 1.5

    @dataclasses.dataclass(frozen=True)
    class TwinBase:
        a: int
        b: str = "b"

    @dataclasses.dataclass(frozen=True)
    class TwinChild(TwinBase):
        c: float = 1.5

    assert Child.__match_args__ == TwinChild.__match_args__ == ("a", "b", "c")
    assert repr(Child(1)).partition("(")[2] == repr(TwinChild(1)).partition("(")[2]
    assert Child(1, c=2.0) == Child(a=1, b="b", c=2.0) != Base(1)
    with pytest.raises(TypeError):
        type("Bad", (Base,), {"__annotations__": {"d": "int"}})
    with pytest.raises(TypeError):
        dataclasses.make_dataclass("Bad", ["d"], bases=(TwinBase,), frozen=True)
