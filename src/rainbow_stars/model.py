"""Core data model: star patterns, digraph collections, and the text format.

A collection holds c simple directed graphs G_1..G_c on the common vertex set
{1..n}.  Vertices and colors are 1-indexed everywhere.  An edge is a triple
(color, source, target) with source != target; within one color a pair occurs
at most once, but the same pair may appear in many colors.

Collections are immutable values: every operation returns a fresh object and
equality is semantic (same n, same c, same edge sets), independent of how the
adjacency happens to be stored.  Two storage layouts exist behind the same
interface: dense bit rows (one Python int per source vertex per color) for
n <= dense_threshold, and compressed sparse rows (CSR) above it: per side
(out and in), one sorted target list, and per color a dict from each source
that has edges to the start of its run; the in side is built from the out
side on the first in-query.  Both layouts are built straight from the
edges; the sparse one never passes through a dense copy, so its memory
grows with the edge count alone.  Edges are read back through one walk per
store, `out_rows`, which yields each source with its ascending targets.

Edges are checked in bulk, a column at a time: ranges by min and max, loops
by one pairwise comparison, repeats by counting.  Only when a bulk check
declines are the edges walked one by one, in input order, so that the error
names the first bad edge (or, in the parser, its line).

Text interchange format, version 1 (LF line endings, trailing newline):

    rainbow-digraph v1
    n c
    i u v          <- one line per edge: color, source, target
    # comment lines and blank lines are ignored in the body

The parser takes edge lines in any order.  It reads the body in chunks of
whole lines.  A plain chunk (lines of three ASCII digit tokens with single
spaces) is split and converted at once; in any other chunk the comment and
blank lines are dropped and the rest is split line by line.  Either way the
chunk's columns get the same bulk checks.  Serialization is canonical:
edges sorted by (color, source, target), no comments, so equal collections
serialize to byte-identical strings.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import add, eq, floordiv, mod, mul, ne, or_, sub
from typing import Iterable, Iterator, Sequence

DEFAULT_DENSE_THRESHOLD = 512

_HEADER = "rainbow-digraph v1"
_CHUNK_CHARS = 1 << 16  # the body is read in chunks of about this many characters
_SPELLED_MAX = 1 << 16  # values read through a table of decimal spellings
_DROP_DIGITS = str.maketrans("", "", "0123456789")

_Columns = tuple[Sequence[int], Sequence[int], Sequence[int]]  # colors, sources, targets


class ParseError(ValueError):
    """Malformed edge-list text; `line_number` is 1-based."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class StarPattern:
    """Shape of a directed star: p in-edges and q out-edges at the center."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError(f"star pattern needs p, q >= 0, got ({self.p}, {self.q})")
        if self.p + self.q == 0:
            raise ValueError("star pattern needs at least one edge (p + q >= 1)")

    @property
    def size(self) -> int:
        return self.p + self.q

    def reversed(self) -> "StarPattern":
        return StarPattern(self.q, self.p)

    def normalized(self) -> tuple["StarPattern", bool]:
        """Pattern with p <= q, plus a flag telling whether a swap happened."""
        if self.p <= self.q:
            return self, False
        return self.reversed(), True


@dataclass(frozen=True)
class StarEmbedding:
    """A concrete rainbow star: leaves are (vertex, color) pairs.

    in_leaves[k] = (u, i) means edge u -> center in color i; out_leaves[k]
    = (w, j) means center -> w in color j.  All leaf vertices are distinct
    from each other and from the center; all p+q colors are distinct.
    """

    center: int
    in_leaves: tuple[tuple[int, int], ...]
    out_leaves: tuple[tuple[int, int], ...]

    @property
    def pattern(self) -> StarPattern:
        return StarPattern(len(self.in_leaves), len(self.out_leaves))

    def edge_triples(self) -> list[tuple[int, int, int]]:
        """The star's edges as (color, source, target) triples."""
        triples = [(i, u, self.center) for (u, i) in self.in_leaves]
        triples += [(i, self.center, w) for (w, i) in self.out_leaves]
        return triples

    def is_valid_in(self, collection: "DigraphCollection") -> bool:
        """Structural soundness plus edge membership in the collection."""
        vertices = [u for (u, _) in self.in_leaves] + [w for (w, _) in self.out_leaves]
        colors = [i for (_, i) in self.in_leaves] + [i for (_, i) in self.out_leaves]
        if self.center in vertices:
            return False
        if len(set(vertices)) != len(vertices) or len(set(colors)) != len(colors):
            return False
        return all(collection.has_edge(i, u, v) for (i, u, v) in self.edge_triples())


@dataclass(frozen=True)
class EdgeCountSummary:
    """Per-color edge counts with their sum and minimum."""

    per_color: tuple[int, ...]
    total: int
    minimum: int


class _DenseStore:
    """Bit-row adjacency: bit (v-1) of rows[i-1][u] set iff u -> v in color i."""

    kind = "dense"

    __slots__ = ("n", "c", "rows", "_in_presence", "_counts")

    def __init__(self, n: int, c: int, rows: list[list[int]]):
        self.n = n
        self.c = c
        self.rows = rows  # rows[i-1][u] for u in 1..n; index 0 unused
        self._in_presence = [0] * c  # OR of all rows of one color
        for i in range(c):
            acc = 0
            for u in range(1, n + 1):
                acc |= rows[i][u]
            self._in_presence[i] = acc
        self._counts = tuple(
            sum(rows[i][u].bit_count() for u in range(1, n + 1)) for i in range(c)
        )

    def has_edge(self, i: int, u: int, v: int) -> bool:
        return bool(self.rows[i - 1][u] >> (v - 1) & 1)

    def out_list(self, i: int, u: int) -> tuple[int, ...]:
        return _mask_to_vertices(self.rows[i - 1][u])

    def in_list(self, i: int, v: int) -> tuple[int, ...]:
        bit = 1 << (v - 1)
        row = self.rows[i - 1]
        return tuple(u for u in range(1, self.n + 1) if row[u] & bit)

    def edge_count(self, i: int) -> int:
        return self._counts[i - 1]

    def out_rows(self, i: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        row = self.rows[i - 1]
        for u in range(1, self.n + 1):
            if row[u]:
                yield u, _mask_to_vertices(row[u])

    def colors_with_out(self, u: int) -> frozenset[int]:
        return frozenset(i for i in range(1, self.c + 1) if self.rows[i - 1][u])

    def colors_with_in(self, v: int) -> frozenset[int]:
        bit = 1 << (v - 1)
        return frozenset(i for i in range(1, self.c + 1) if self._in_presence[i - 1] & bit)

    def color_masks(self) -> tuple[list[int], list[int]]:
        size = self.n + 1
        # presence << 1 puts vertex v's bit at position v
        in_flags = ([(presence << 1) >> v & 1 for v in range(size)]
                    for presence in self._in_presence)
        return _color_masks(in_flags, size), _color_masks(map(map, repeat(bool), self.rows), size)


class _SparseStore:
    """Compressed sparse rows (CSR) per side, for vertex counts past the threshold.

    A side is one list of targets, sorted by (color, source, target); the
    targets of the j-th source that has edges are targets[starts[j]:
    starts[j+1]], and per color a dict maps each such source to its j.
    Sources without edges get no entry, so memory grows with the edge
    count alone.  The out side comes from the sorted, distinct edge keys
    (i*m + u)*m + v, m = n + 1, that `from_edges` and the parser check in
    bulk; the in side, the same layout with source and target swapped, is
    built from the out side on the first in-query.  Reading a file back
    and serializing or comparing it, as a round trip does, never asks for
    it.
    """

    kind = "sparse"

    __slots__ = ("n", "c", "_out", "_in", "_counts")

    def __init__(self, n: int, c: int, keys: list[int]):
        m = n + 1
        self.n = n
        self.c = c
        self._counts = tuple(bisect_left(keys, (i + 1) * m * m) - bisect_left(keys, i * m * m)
                             for i in range(1, c + 1))
        self._out = _csr_side(keys, m, c)
        self._in: _Side | None = None

    def _in_side(self) -> _Side:
        """The in side, built from the out side on the first in-query: an
        edge u -> v in color i has the in key (i*m + v)*m + u."""
        if self._in is None:
            m, (targets, starts, rows) = self.n + 1, self._out
            # each target's color and source: every run's label repeated over the run
            colors = chain.from_iterable(map(repeat, range(1, self.c + 1), self._counts))
            sources = chain.from_iterable(
                map(repeat, chain.from_iterable(rows), map(sub, starts[1:], starts)))
            rows_in = map(add, map(mul, colors, repeat(m)), targets)  # i*m + v
            keys = sorted(map(add, map(mul, rows_in, repeat(m)), sources))
            self._in = _csr_side(keys, m, self.c)
        return self._in

    def has_edge(self, i: int, u: int, v: int) -> bool:
        targets, starts, rows = self._out
        j = rows[i - 1].get(u)
        if j is None:
            return False
        k = bisect_left(targets, v, starts[j], starts[j + 1])
        return k < starts[j + 1] and targets[k] == v

    def out_list(self, i: int, u: int) -> tuple[int, ...]:
        return _row(self._out, i, u)

    def in_list(self, i: int, v: int) -> tuple[int, ...]:
        return _row(self._in_side(), i, v)

    def edge_count(self, i: int) -> int:
        return self._counts[i - 1]

    def out_rows(self, i: int) -> Iterable[tuple[int, list[int]]]:
        targets, starts, rows = self._out
        row = rows[i - 1]  # sources ascending, numbered j, j+1, ...
        first = next(iter(row.values()), 0)
        spans = map(slice, starts[first:first + len(row)], starts[first + 1:first + len(row) + 1])
        return zip(row, map(targets.__getitem__, spans))

    def colors_with_out(self, u: int) -> frozenset[int]:
        return frozenset(i for i, row in enumerate(self._out[2], start=1) if u in row)

    def colors_with_in(self, v: int) -> frozenset[int]:
        return frozenset(i for i, row in enumerate(self._in_side()[2], start=1) if v in row)

    def color_masks(self) -> tuple[list[int], list[int]]:
        size = self.n + 1
        return tuple(_color_masks((map(row.__contains__, range(size)) for row in side[2]), size)
                     for side in (self._in_side(), self._out))


_Side = tuple[list[int], list[int], list[dict[int, int]]]  # targets, starts, per color x -> j


def _csr_side(keys: list[int], m: int, c: int) -> _Side:
    """The side of the sorted keys (i*m + x)*m + y: the targets y, the start
    of each nonempty row (i, x), and per color i a dict from x to its row."""
    starts: list[int] = []
    rows = []
    for i in range(1, c + 1):
        lo, hi = bisect_left(keys, i * m * m), bisect_left(keys, (i + 1) * m * m)
        row_ids = list(map(floordiv, islice(keys, lo, hi), repeat(m)))  # i*m + x
        # true where a row starts; row ids are positive, so the first key starts one
        firsts = list(map(ne, row_ids, chain((0,), row_ids)))
        xs = map(sub, compress(row_ids, firsts), repeat(i * m))
        rows.append(dict(zip(xs, count(len(starts)))))
        starts.extend(compress(range(lo, hi), firsts))
    starts.append(len(keys))
    return list(map(mod, keys, repeat(m))), starts, rows


def _row(side: _Side, i: int, x: int) -> tuple[int, ...]:
    targets, starts, rows = side
    j = rows[i - 1].get(x)
    return () if j is None else tuple(targets[starts[j]:starts[j + 1]])


def _color_masks(flags_by_color: Iterable[Iterable[int]], size: int) -> list[int]:
    """Per index, a mask with bit k set where the k-th flag list is true."""
    masks = [0] * size
    for k, flags in enumerate(flags_by_color):
        masks = list(map(or_, masks, map(mul, flags, repeat(1 << k))))
    return masks


def _mask_to_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


class DigraphCollection:
    """Immutable collection of c simple digraphs on vertices {1..n}."""

    __slots__ = ("_store",)

    def __init__(self, store):
        self._store = store

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_edges(
        n: int,
        c: int,
        edges: Iterable[tuple[int, int, int]],
        dense_threshold: int = DEFAULT_DENSE_THRESHOLD,
    ) -> "DigraphCollection":
        """Build from (color, source, target) triples; the one edge validator.

        Checks n and c, then the triples in bulk: each column against its
        range with min and max, loops with one pairwise comparison of
        sources and targets, and duplicates by counting (see
        `_bulk_store`).  Where a bulk check declines, the triples are
        walked in input order instead, and ValueError names the first bad
        one (out-of-range index, loop or duplicate).  Dense bit rows for
        n <= dense_threshold, else the sparse CSR layout, built from the
        sorted edge keys.
        """
        _check_dims(n, c)
        edges = list(edges)
        return DigraphCollection(_build_store(
            n, c, [_edge_columns(n, c, edges)], _walk_edges(n, c, edges), dense_threshold))

    @staticmethod
    def from_out_rows(n: int, c: int, rows: Sequence[Sequence[int]]) -> "DigraphCollection":
        """Build dense storage directly from per-color bit rows.

        rows[i][u-1] is the target mask of vertex u in color i+1 (bit v-1 set
        iff u -> v).  Loop bits are rejected.  Intended for bulk builders that
        assemble whole rows at once; always yields the dense layout, whatever
        n is.  Large sparse inputs go through `from_edges`, which builds the
        sparse layout from the edges with no dense copy.
        """
        _check_dims(n, c)
        if len(rows) != c:
            raise ValueError(f"expected {c} row blocks, got {len(rows)}")
        full = (1 << n) - 1
        padded: list[list[int]] = []
        for i, block in enumerate(rows, start=1):
            if len(block) != n:
                raise ValueError(f"color {i}: expected {n} rows, got {len(block)}")
            rowlist = [0] * (n + 1)
            for u, mask in enumerate(block, start=1):
                if mask < 0 or mask & ~full:
                    raise ValueError(f"color {i}: row of vertex {u} has out-of-range bits")
                if mask >> (u - 1) & 1:
                    raise ValueError(f"color {i}: loop at vertex {u}")
                rowlist[u] = mask
            padded.append(rowlist)
        return DigraphCollection(_DenseStore(n, c, padded))

    # -- basic queries -------------------------------------------------------

    @property
    def n(self) -> int:
        return self._store.n

    @property
    def c(self) -> int:
        return self._store.c

    @property
    def storage_kind(self) -> str:
        return self._store.kind

    def has_edge(self, color: int, u: int, v: int) -> bool:
        _check_edge(self.n, self.c, color, u, v)
        return self._store.has_edge(color, u, v)

    def out_neighbors(self, color: int, u: int) -> tuple[int, ...]:
        """Targets of u in the given color, ascending."""
        return self._store.out_list(color, u)

    def in_neighbors(self, color: int, v: int) -> tuple[int, ...]:
        """Sources of edges into v in the given color, ascending."""
        return self._store.in_list(color, v)

    def edge_count(self, color: int) -> int:
        return self._store.edge_count(color)

    def color_edges(self, color: int) -> tuple[tuple[int, int], ...]:
        """Edges of one color as (source, target), sorted."""
        return tuple((u, v) for u, vs in self._store.out_rows(color) for v in vs)

    def all_edges(self) -> Iterator[tuple[int, int, int]]:
        """All (color, source, target) triples, sorted."""
        for i in range(1, self.c + 1):
            for u, vs in self._store.out_rows(i):
                for v in vs:
                    yield (i, u, v)

    def colors_with_out_edge(self, u: int) -> frozenset[int]:
        """Colors in which u has at least one out-edge."""
        return self._store.colors_with_out(u)

    def colors_with_in_edge(self, v: int) -> frozenset[int]:
        """Colors in which v has at least one in-edge."""
        return self._store.colors_with_in(v)

    def color_masks(self) -> tuple[list[int], list[int]]:
        """Per vertex v (index 0 unused), the colors of its in-edges and of
        its out-edges as masks, bit i-1 standing for color i; one pass per
        color."""
        return self._store.color_masks()

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DigraphCollection):
            return NotImplemented
        if self.n != other.n or self.c != other.c:
            return False
        return all(
            self.color_edges(i) == other.color_edges(i) for i in range(1, self.c + 1)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.c, tuple(self.all_edges())))

    def __repr__(self) -> str:
        total = sum(self.edge_count(i) for i in range(1, self.c + 1))
        return f"DigraphCollection(n={self.n}, c={self.c}, edges={total}, {self.storage_kind})"


def _check_dims(n: int, c: int) -> None:
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    if c < 1:
        raise ValueError(f"need at least one color, got c={c}")


def _check_edge(n: int, c: int, i: int, u: int, v: int) -> None:
    if not 1 <= i <= c:
        raise ValueError(f"color {i} out of range 1..{c}")
    if not 1 <= u <= n:
        raise ValueError(f"vertex {u} out of range 1..{n}")
    if not 1 <= v <= n:
        raise ValueError(f"vertex {v} out of range 1..{n}")
    if u == v:
        raise ValueError(f"loop at vertex {u} in color {i}")


def edge_counts(collection: DigraphCollection) -> EdgeCountSummary:
    """Per-color counts, their sum, and their minimum."""
    per_color = tuple(collection.edge_count(i) for i in range(1, collection.c + 1))
    return EdgeCountSummary(per_color, sum(per_color), min(per_color))


def reverse(collection: DigraphCollection) -> DigraphCollection:
    """Every edge u -> v becomes v -> u, in the same color."""
    threshold = collection.n if collection.storage_kind == "dense" else 0
    flipped = [(i, v, u) for (i, u, v) in collection.all_edges()]
    return DigraphCollection.from_edges(collection.n, collection.c, flipped, threshold)


def permute(
    collection: DigraphCollection,
    vertex_perm: Sequence[int] | None = None,
    color_perm: Sequence[int] | None = None,
) -> DigraphCollection:
    """Relabel vertices and/or colors.

    vertex_perm[k-1] is the new label of vertex k (a permutation of 1..n);
    color_perm likewise over 1..c.  None leaves that side untouched.
    """
    n, c = collection.n, collection.c
    vp = _check_perm(vertex_perm, n, "vertex") if vertex_perm is not None else None
    cp = _check_perm(color_perm, c, "color") if color_perm is not None else None
    mapped = [
        (
            cp[i - 1] if cp else i,
            vp[u - 1] if vp else u,
            vp[v - 1] if vp else v,
        )
        for (i, u, v) in collection.all_edges()
    ]
    threshold = n if collection.storage_kind == "dense" else 0
    return DigraphCollection.from_edges(n, c, mapped, threshold)


def _check_perm(perm: Sequence[int], size: int, label: str) -> Sequence[int]:
    if len(perm) != size or sorted(perm) != list(range(1, size + 1)):
        raise ValueError(f"{label} permutation must rearrange 1..{size}, got {list(perm)}")
    return perm


def serialize_edge_list(collection: DigraphCollection) -> str:
    """Canonical text form: header, dimensions, sorted edges, trailing LF."""
    lines = [_HEADER, f"{collection.n} {collection.c}"]
    for i in range(1, collection.c + 1):
        for u, vs in collection._store.out_rows(i):
            prefix = f"{i} {u} "
            lines.append(prefix + ("\n" + prefix).join(map(str, vs)))  # one string per source
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str, dense_threshold: int = DEFAULT_DENSE_THRESHOLD) -> DigraphCollection:
    """Parse format v1; raises ParseError with a 1-based line number.

    The header and the dimension line are found with `find`; the body is
    read in chunks of whole lines, each converted and checked at once (see
    `_body_chunks`).  Only where a bulk check declines does the
    line-by-line walk read the body again, to name the first bad line.
    """
    if "\r" in text:
        at = text.index("\r")
        raise ParseError(text.count("\n", 0, at) + 1, "carriage return; format v1 uses LF endings")
    if not text.endswith("\n"):
        raise ParseError(max(1, text.count("\n") + 1), "missing trailing newline")
    head_end = text.find("\n")
    if text[:head_end] != _HEADER:
        raise ParseError(1, f"bad header {text[:head_end]!r}, expected {_HEADER!r}")
    dims_end = text.find("\n", head_end + 1)
    if dims_end < 0:
        raise ParseError(2, "missing dimension line 'n c'")
    dims = text[head_end + 1:dims_end]
    try:
        n, c = map(int, dims.split())
    except ValueError:
        raise ParseError(2, f"dimension line needs two integers, got {dims!r}") from None
    try:
        _check_dims(n, c)
    except ValueError as exc:
        raise ParseError(2, str(exc)) from None

    lineno = 2

    def triples() -> Iterator[tuple[int, int, int]]:
        nonlocal lineno
        for lineno, raw in enumerate(text[dims_end + 1:].split("\n")[:-1], start=3):
            tokens = raw.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            try:
                i, u, v = map(int, tokens)
            except ValueError:
                raise ValueError(f"edge line needs three integers, got {raw!r}") from None
            yield i, u, v

    # the walk raises on the triple it has just read, before it asks for the
    # next one, so lineno is the line of the first bad edge
    try:
        store = _build_store(n, c, _body_chunks(text, dims_end + 1, n, c),
                             _walk_edges(n, c, triples()), dense_threshold)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None
    return DigraphCollection(store)


def _body_chunks(text: str, start: int, n: int, c: int) -> Iterator[_Columns | None]:
    """Checked columns of the body from `start` on, one chunk of whole lines
    at a time; None for a chunk whose edge lines are not all three integers
    or whose columns fail `_checked_columns`.

    A plain chunk, whose lines are three ASCII digit tokens separated by
    single spaces (one `translate` and one `split` check that), is split
    at once.  In any other chunk the comment and blank lines are dropped
    and each other line is split on its own.  Values up to _SPELLED_MAX are
    read through a table of their decimal spellings, which is faster than
    `int`; it is built only for a body with at least as many characters
    as it has entries.  A chunk with a token the table lacks (0, a leading
    zero, "+1", a value past max(n, c)) is read with `int`, as the walk
    reads it.
    """
    top = max(n, c)
    spelled = (dict(zip(map(str, range(1, top + 1)), range(1, top + 1))).__getitem__
               if top <= min(_SPELLED_MAX, len(text) - start) else int)
    while start < len(text):
        end = text.rfind("\n", start, start + _CHUNK_CHARS) + 1 or text.index("\n", start) + 1
        chunk = text[start:end]
        lines, tokens = chunk.count("\n"), chunk.split()
        if len(tokens) != 3 * lines or chunk.translate(_DROP_DIGITS) != "  \n" * lines:
            rows = [row for row in map(str.split, chunk.split("\n")) if row and row[0][0] != "#"]
            if any(len(row) != 3 for row in rows):
                yield None
                return
            tokens = list(chain.from_iterable(rows))
        values = _ints(tokens, spelled)
        if values is None:
            yield None
            return
        yield _checked_columns(n, c, values[0::3], values[1::3], values[2::3])
        start = end


def _ints(tokens: list[str], to_int) -> list[int] | None:
    """The tokens read by `to_int`, or None if `int` does not read them all."""
    try:
        return list(map(to_int, tokens))
    except KeyError:  # not in the table: 0, a leading zero or a value past max(n, c)
        return _ints(tokens, int)
    except ValueError:  # not an integer, or too many digits for int
        return None


def _edge_columns(n: int, c: int, edges: list) -> _Columns | None:
    """Checked columns of a list of triples, or None."""
    try:
        if set(map(len, edges)) <= {3}:
            return _checked_columns(n, c, *(zip(*edges) if edges else ((), (), ())))
    except TypeError:
        pass  # an edge that is no sequence: the walk names it
    return None


def _checked_columns(n: int, c: int, colors, sources, targets) -> _Columns | None:
    """The columns if every triple passes `_check_edge`, else None: ranges by
    min and max per column, loops by one pairwise comparison."""
    try:
        if not targets or (
            1 <= min(colors) and max(colors) <= c
            and 1 <= min(sources) and max(sources) <= n
            and 1 <= min(targets) and max(targets) <= n
            and not any(map(eq, sources, targets))
        ):
            return colors, sources, targets
    except TypeError:
        pass  # the walk raises the error that names the triple
    return None


def _build_store(n: int, c: int, chunks: Iterable[_Columns | None],
                 walk: Iterator[tuple[int, int, int]], dense_threshold: int):
    """The store of the checked column chunks.  Where a bulk check
    declines, `walk` reads the edges again in input order and raises
    ValueError at the first bad one."""
    store = _bulk_store(n, c, chunks, dense_threshold)
    if store is None:
        for _ in walk:
            pass
        raise AssertionError("a bulk check declined edges that the walk accepts")
    return store


def _bulk_store(n: int, c: int, chunks: Iterable[_Columns | None], dense_threshold: int):
    """Dense or sparse store of the column chunks, or None if a chunk is
    None or an edge repeats.  Repeats are counted, not looked up: dense
    rows OR each edge's bit in, so a repeat leaves the popcount sum short
    of the number of triples; sparse keys are sorted, so a repeat sits
    next to itself."""
    m = n + 1
    if n <= dense_threshold:
        bits = [0] + [1 << k for k in range(n)]  # bits[v] = 1 << (v-1)
        flat = [0] * ((c + 1) * m)  # row i*m + u; rows below m stay empty
        total = 0
        for columns in chunks:
            if columns is None:
                return None
            colors, sources, targets = columns
            total += len(targets)
            for r, bit in zip(map(add, map(mul, colors, repeat(m)), sources),
                              map(bits.__getitem__, targets)):
                flat[r] |= bit
        store = _DenseStore(n, c, [flat[i * m:(i + 1) * m] for i in range(1, c + 1)])
        return store if sum(store._counts) == total else None
    keys: list[int] = []
    for columns in chunks:
        if columns is None:
            return None
        colors, sources, targets = columns
        keys.extend(map(add, map(mul, map(add, map(mul, colors, repeat(m)), sources), repeat(m)),
                        targets))
    keys.sort()
    if any(map(eq, keys, islice(keys, 1, None))):
        return None
    return _SparseStore(n, c, keys)


def _walk_edges(n: int, c: int, edges: Iterable) -> Iterator[tuple[int, int, int]]:
    """The triples in input order, each checked before the next is read;
    ValueError names the first bad one."""
    m = n + 1
    seen: set[int] = set()
    for (i, u, v) in edges:
        _check_edge(n, c, i, u, v)
        key = (i * m + u) * m + v
        if key in seen:
            raise ValueError(f"duplicate edge ({i}, {u}, {v})")
        seen.add(key)
        yield i, u, v
