"""Edge colorings of complete graphs.

An EdgeColoring assigns a color from {1, ..., k} to every unordered pair of
n labeled vertices.  Colors are stored densely over the upper triangle in
lexicographic edge order: (0,1), (0,2), ..., (0,n-1), (1,2), ...  That order
is a run of rows: row i holds the colors of (i,i+1), ..., (i,n-1).

Each coloring keeps that upper triangle once, as the bytes object colors,
one byte per edge in that order.  The layers that touch every edge work on
those bytes in C rather than loop over them in Python: the color range
check, parse (which builds the bytes from the row text), serialize (which
translates the bytes back to text), blowup (which assembles rows from byte
slices), relabel_colors (one bytes.translate) and the per-color neighbor
masks in decompose (built once per coloring from a byte matrix in 8 lanes and
cached on it).  A byte caps the palette: k is at most MAX_COLORS = 255, and
a larger k raises ColorRangeError everywhere a coloring is made (parse,
EdgeColoring(...), the CNF decoder).

The text format ("grc") mirrors that layout.  Line 1 is the header
``grc 1 <n> <k>``; line i+1 (for i = 0 .. n-2) lists the colors of the edges
(i,i+1), (i,i+2), ..., (i,n-1) separated by single spaces.  serialize always
emits exactly that shape.  parse accepts any run of whitespace between and
around the tokens (spaces, tabs) and leading zeros, but checks every count
against the header; rows in serialize's shape with one-digit colors skip the
tokenizer and are read by slicing.  Every number in the text (n, k and each
color) is a token of ASCII digits [0-9]+; a sign, an underscore or any other
digit character is a GrcSyntaxError.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence, Union

from ._record import Record


class ColoringError(Exception):
    """Base class for coloring construction and io errors."""


class MissingEdgeError(ColoringError):
    """An explicit edge list left some pair uncolored."""


class DuplicateEdgeError(ColoringError):
    """An explicit edge list colored some pair twice."""


class ColorRangeError(ColoringError):
    """A color fell outside 1..k."""


class ArityMismatchError(ColoringError):
    """A composition got the wrong number of arguments."""


class NonInjectiveMapError(ColoringError):
    """A relabeling sent two used colors to the same target."""


class UnmappedColorError(ColoringError):
    """A relabeling left a used color without a target."""


class GrcSyntaxError(ColoringError):
    """Malformed grc text."""


class GrcHeaderError(ColoringError):
    """grc body inconsistent with its header counts."""


MAX_COLORS = 255


def edge_count(n: int) -> int:
    return n * (n - 1) // 2


def row_offset(n: int, i: int) -> int:
    """edge_index(n, i, j) - j for every j > i: K_n's lexicographic edge layout."""
    return i * (2 * n - i - 3) // 2 - 1


def edge_index(n: int, i: int, j: int) -> int:
    """Position of edge (i, j) in lexicographic order over K_n."""
    if i > j:
        i, j = j, i
    if i == j or i < 0 or j >= n:
        raise ColoringError(f"bad edge ({i}, {j}) for n={n}")
    return row_offset(n, i) + j


def edge_list(n: int) -> list[tuple[int, int]]:
    """All edges of K_n in lexicographic order."""
    return list(combinations(range(n), 2))


def row_bounds(n: int) -> list[tuple[int, int]]:
    """(start, stop) of row i, the edges (i, i+1..n-1), for i = 0 .. n-1."""
    return [(row_offset(n, i) + i + 1, row_offset(n, i) + n) for i in range(n)]


def _check_k(k: int) -> None:
    if k < 1:
        raise ColorRangeError(f"need k >= 1, got k={k}")
    if k > MAX_COLORS:
        raise ColorRangeError(f"k={k} exceeds {MAX_COLORS}, the most colors a byte holds")


class EdgeColoring(Record):
    """Complete graph on n vertices, one color in 1..k per edge.

    Immutable; equality and hashing are structural.  k is declared, not
    inferred, so a coloring may use fewer colors than it reserves, and at
    most MAX_COLORS.  colors may be given as any sequence of ints and is
    stored as bytes (module docstring), whose items are ints; a mutable input
    is copied, and a buffer of items wider than a byte (array('i')) is read
    item by item.  Derived data such as decompose's neighbor masks is cached on
    the instance, outside the fields.
    """

    n: int
    k: int
    colors: bytes

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ColoringError(f"need n >= 1, got n={self.n}")
        _check_k(self.k)
        if len(self.colors) != edge_count(self.n):
            raise ColoringError(
                f"n={self.n} needs {edge_count(self.n)} colors, got {len(self.colors)}"
            )
        try:
            buf = bytes(self.colors)  # a bytes input comes back as the same object
            if len(buf) != len(self.colors):  # a buffer of items wider than a byte
                buf = bytes(iter(self.colors))
        except (TypeError, ValueError):  # a color that is no int in 0..255
            buf = None
        if buf is None or buf.translate(None, bytes(range(1, self.k + 1))):
            bad = next(c for c in self.colors
                       if not (isinstance(c, int) and 1 <= c <= self.k))
            raise ColorRangeError(f"color {bad} outside 1..{self.k}")
        object.__setattr__(self, "colors", buf)

    def color(self, i: int, j: int) -> int:
        return self.colors[edge_index(self.n, i, j)]

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Yield ((i, j), color) in lexicographic edge order."""
        for idx, pair in enumerate(combinations(range(self.n), 2)):
            yield pair, self.colors[idx]


EntrySpec = Union[Mapping[tuple[int, int], int], Iterable[tuple[int, int, int]]]


def make_coloring(n: int, k: int, entries: EntrySpec) -> EdgeColoring:
    """Build a coloring from explicit per-edge entries.

    entries is either a {(i, j): color} mapping or an iterable of
    (i, j, color) triples; endpoint order within a pair does not matter.
    Every edge must appear exactly once.
    """
    if isinstance(entries, Mapping):
        triples = [(i, j, c) for (i, j), c in entries.items()]
    else:
        triples = [(i, j, c) for i, j, c in entries]
    if n < 1:
        raise ColoringError(f"need n >= 1, got n={n}")
    _check_k(k)
    slots: list[int | None] = [None] * edge_count(n)
    for i, j, c in triples:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ColoringError(f"bad edge ({i}, {j}) for n={n}")
        idx = edge_index(n, i, j)
        if slots[idx] is not None:
            raise DuplicateEdgeError(f"edge ({min(i, j)}, {max(i, j)}) colored twice")
        if not 1 <= c <= k:
            raise ColorRangeError(f"color {c} outside 1..{k} on edge ({i}, {j})")
        slots[idx] = c
    for idx, c in enumerate(slots):
        if c is None:
            raise MissingEdgeError(f"edge {edge_list(n)[idx]} has no color")
    return EdgeColoring(n, k, slots)  # type: ignore[arg-type]


def join(left: EdgeColoring, right: EdgeColoring, bridge_color: int) -> EdgeColoring:
    """Disjoint copies of left and right with all cross edges in bridge_color.

    Left keeps its labels, right is shifted by left.n.  The result declares
    max(left.k, right.k, bridge_color) colors.
    """
    if bridge_color < 1:
        raise ColorRangeError(f"need bridge color >= 1, got {bridge_color}")
    return blowup(EdgeColoring(2, bridge_color, (bridge_color,)), [left, right])


def blowup(base: EdgeColoring, parts: Sequence[EdgeColoring]) -> EdgeColoring:
    """Substitute parts[v] for each base vertex v.

    Edges inside a part keep the part's colors; edges between two parts take
    the base color of the corresponding base edge.  Vertices are numbered
    part by part in base vertex order, preserving within-part order.
    """
    if len(parts) != base.n:
        raise ArityMismatchError(f"base has {base.n} vertices, got {len(parts)} parts")
    n = sum(p.n for p in parts)
    k = max([base.k] + [p.k for p in parts])
    chunks = []
    for p_id, part in enumerate(parts):
        # every vertex of the part ends its row with the same cross edges
        tail = b"".join(bytes((base.color(p_id, q),)) * parts[q].n
                        for q in range(p_id + 1, base.n))
        for start, stop in row_bounds(part.n):
            chunks.append(part.colors[start:stop])
            chunks.append(tail)
    return EdgeColoring(n, k, b"".join(chunks))


def relabel_colors(
    c: EdgeColoring, mapping: Mapping[int, int], new_k: int
) -> EdgeColoring:
    """Apply a color relabeling.

    The map must cover every color the coloring actually uses, be injective
    on those, and land inside 1..new_k.  Unused colors may be left unmapped.
    """
    _check_k(new_k)
    used = sorted(set(c.colors))
    for old in used:
        if old not in mapping:
            raise UnmappedColorError(f"color {old} is used but not mapped")
    targets = [mapping[old] for old in used]
    for t in targets:
        if not (isinstance(t, int) and 1 <= t <= new_k):
            raise ColorRangeError(f"relabel target {t} outside 1..{new_k}")
    if len(set(targets)) != len(targets):
        raise NonInjectiveMapError("two used colors map to the same target")
    table = bytes.maketrans(bytes(used), bytes(targets))
    return EdgeColoring(c.n, new_k, c.colors.translate(table))


# str.translate table: code point v (a color byte read as latin-1) -> "v "
_COLOR_WORDS = tuple(f"{v} " for v in range(MAX_COLORS + 1))
# bytes.translate table: color byte v <= 9 -> its ASCII digit
_DIGIT_CHARS = bytes.maketrans(bytes(range(10)), b"0123456789")


def serialize(c: EdgeColoring) -> str:
    """Canonical grc text: header, then one row per leading vertex.

    For k <= 9 the rows are written in bulk, the mirror of parse's one-digit
    read: each color is one digit followed by a space, or by a newline at
    the end of a row, so color e sits at offset 2e of the body, and the
    digits are the color bytes translated at once.  For larger k each row
    is its slice of colors read as latin-1 (one code point per color) and
    translated to decimal words.
    """
    lines = [f"grc 1 {c.n} {c.k}"]
    buf = c.colors
    if c.k <= 9:
        body = bytearray(b" ") * (2 * len(buf))
        body[::2] = buf.translate(_DIGIT_CHARS)
        for _, stop in row_bounds(c.n)[:-1]:
            body[2 * stop - 1] = 10  # "\n" after the row's last color
        return lines[0] + "\n" + body.decode("ascii")
    for start, stop in row_bounds(c.n)[:-1]:
        lines.append(buf[start:stop].decode("latin-1").translate(_COLOR_WORDS)[:-1])
    return "\n".join(lines) + "\n"


_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _decimal(token: str) -> bool:
    """True iff token is ASCII [0-9]+ (int() would also take '+1', '1_0', '١')."""
    return token.isascii() and token.isdigit()


def _reject_row(toks: list[str], k: int, i: int) -> NoReturn:
    """Raise for the first token of row i that is not a color in 1..k."""
    for t in toks:
        if not _decimal(t):
            raise GrcSyntaxError(f"bad color token {t!r} in row {i}")
        digits = t.lstrip("0")
        if not digits or len(digits) > 3 or int(digits) > k:
            raise ColorRangeError(f"color {digits or 0} outside 1..{k} in row {i}")
    raise AssertionError(f"row {i} has no bad token")


def parse(text: str) -> EdgeColoring:
    """Inverse of serialize; raises on any structural inconsistency.

    A row exactly as serialize writes it for k <= 9 (cnt single ASCII
    digits joined by single spaces) is read in bulk: its even positions are
    the digits, and str.translate turns them into bytes.  Any other row
    (runs of spaces, tabs, leading zeros, two-digit colors, a bad token) is
    split into tokens, which are counted, joined and checked as one ASCII
    digit string, then translated when each is one digit or converted by
    int() token by token.  Both give the same colors, and a row that fails
    a check is reported by the tokens: the first bad token in reading order
    is the one named.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GrcSyntaxError("empty document")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "grc":
        raise GrcSyntaxError("header must be 'grc 1 <n> <k>'")
    if head[1] != "1":
        raise GrcSyntaxError(f"unsupported format version {head[1]!r}")
    if not (_decimal(head[2]) and _decimal(head[3])):
        raise GrcSyntaxError("header n and k must be integers")
    try:
        n, k = int(head[2]), int(head[3])
    except ValueError:  # more digits than int() converts
        raise GrcSyntaxError("header n and k must be integers") from None
    if n < 1 or k < 1:
        raise GrcHeaderError(f"need n >= 1 and k >= 1, got n={n} k={k}")
    _check_k(k)
    rows = list(lines[1:])
    while rows and not rows[-1].strip():
        rows.pop()
    if len(rows) != n - 1:
        raise GrcHeaderError(f"expected {n - 1} rows after the header, got {len(rows)}")
    palette = bytes(range(1, k + 1))
    chunks = []
    for i, row in enumerate(rows):
        cnt = n - 1 - i
        digits = row[::2]
        if len(row) == 2 * cnt - 1 and row[1::2] == " " * (cnt - 1) and _decimal(digits):
            vals = digits.encode("ascii").translate(_DIGIT_VALUES)
        else:
            vals = _tokenized_row(row, cnt, k, i)
        if vals.translate(None, palette):
            _reject_row(row.split(), k, i)
        chunks.append(vals)
    return EdgeColoring(n, k, b"".join(chunks))


def _tokenized_row(row: str, cnt: int, k: int, i: int) -> bytes:
    """The color bytes of row i, which must hold cnt tokens, read token by token."""
    toks = row.split()
    if len(toks) != cnt:
        raise GrcHeaderError(f"row {i} should list {cnt} colors, got {len(toks)}")
    digits = "".join(toks)
    if not _decimal(digits):
        _reject_row(toks, k, i)
    if len(digits) == len(toks):
        return digits.encode("ascii").translate(_DIGIT_VALUES)
    try:
        return bytes(map(int, toks))
    except ValueError:  # a value above 255
        _reject_row(toks, k, i)


def read_grc(path) -> EdgeColoring:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GrcSyntaxError(f"{path}: non-ASCII byte at offset {exc.start}") from None
    return parse(text)


def write_grc(c: EdgeColoring, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize(c))
