"""Core data model: star patterns, digraph collections, and the text format.

A collection holds c simple directed graphs G_1..G_c on the common vertex set
{1..n}.  Vertices and colors are 1-indexed everywhere.  An edge is a triple
(color, source, target) with source != target; within one color a pair occurs
at most once, but the same pair may appear in many colors.

Collections are immutable values: every operation returns a fresh object and
equality is semantic (same n, same c, same edge sets), independent of how the
adjacency happens to be stored.  Two storage layouts exist behind the same
interface, and n alone picks between them: dense bit rows for
n <= DEFAULT_DENSE_THRESHOLD, and compressed sparse rows (CSR) above it.
Both address the row of source u in color i by its id i*(n+1) + u, as the
parser and `from_edges` compute it.  The dense layout is one flat list of
ints, row id r at index r; the sparse one is, per side (out and in), flat
int arrays of the sorted targets, of the ids of the nonempty rows and of
where each row starts; in-neighbour queries scan the out side until they
have read a few times its edges, and then the in side is built from it.
Both layouts are built straight from the edges; the sparse one never
passes through a dense copy, so its memory grows with the edge count alone.
Bulk builders that assemble whole bit rows use `from_out_rows`, which is
dense at any n; everything else, relabelled copies included, takes the
layout of its n.  Edges are read back a color at a time through one
reader per store, `color_rows`: the sources with edges, where each one's
targets start, and the ascending targets.  Which colors a vertex has in-
or out-edges in is read off per-vertex color masks, which each collection
computes once, in one pass over each color's edges (`color_masks`).

Edges are checked in bulk: ranges by min and max, a column at a time,
except in a parsed column whose every token is found in a table of the
spellings of 1..n (or 1..c), which is in range by construction; repeats by
counting; loops in the sparse layout by one pairwise comparison of the
source and target columns, and in the dense layout once per row, after the
build, by one AND of the row with its own vertex's bit.  Only when a bulk
check declines are the edges walked one by one, in input order, so that
the error names the first bad edge (or, in the parser, its line).

Text interchange format, version 1 (LF line endings, trailing newline):

    rainbow-digraph v1
    n c
    i u v          <- one line per edge: color, source, target
    # comment lines and blank lines are ignored in the body

The parser takes edge lines in any order.  It reads the body in chunks of
whole lines.  A plain chunk (lines of three ASCII digit tokens with single
spaces) is split at once; in any other chunk the comment and blank lines
are dropped and the rest is split line by line.  Either way each of the
chunk's three columns is read at once, through a table or with `int`,
straight into the values the store holds: the color table maps i to its
row base i*m (m = n + 1), so a row id is one addition of the source, and in
the dense layout the target table maps v to its bit 1 << (v-1).  The
tables are built once per size and kept, a few sizes' worth, for later
parses.  Edges that arrive in canonical order, as every serialized file
does, become the sparse layout without a sort.
Serialization is canonical: edges sorted by (color, source, target), no
comments, so equal collections serialize to byte-identical strings.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, compress, count, cycle, islice, repeat
from operator import add, and_, eq, floordiv, lshift, lt, mod, mul, ne, sub
from typing import Callable, Iterable, Iterator, Sequence

DEFAULT_DENSE_THRESHOLD = 512

_HEADER = "rainbow-digraph v1"
_IN_SCANS = 8  # a sparse store's in-queries scan up to this many times its edges
_CHUNK_CHARS = 1 << 16  # the body is read in chunks of about this many characters
_SPELLED_MAX = 1 << 14  # largest table of decimal spellings; past it int reads faster
_TABLES = 8  # sizes' tables kept for reuse, per kind; a parse reads up to three
_DROP_DIGITS = str.maketrans("", "", "0123456789")
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")

# the edges as the store takes them: row ids i*m + u (m = n + 1) and targets,
# v itself, or in the dense layout its bit 1 << (v-1)
_Chunk = tuple[Sequence[int], Sequence[int]]


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
        """Structural soundness plus edge membership in the collection; a
        center, leaf or color outside the collection makes it False."""
        vertices = [u for (u, _) in self.in_leaves] + [w for (w, _) in self.out_leaves]
        colors = [i for (_, i) in self.in_leaves] + [i for (_, i) in self.out_leaves]
        if self.center in vertices:
            return False
        if len(set(vertices)) != len(vertices) or len(set(colors)) != len(colors):
            return False
        try:
            return all(collection.has_edge(i, u, v) for (i, u, v) in self.edge_triples())
        except ValueError:  # an index out of range
            return False


@dataclass(frozen=True)
class EdgeCountSummary:
    """Per-color edge counts with their sum and minimum."""

    per_color: tuple[int, ...]
    total: int
    minimum: int


class _DenseStore:
    """Bit rows in one flat list addressed by row id, as the parser names
    rows: bit (v-1) of rows[i*m + u] (m = n + 1) is set iff u -> v in color
    i.  The rows below m and each color's row i*m stay 0."""

    kind = "dense"

    __slots__ = ("n", "c", "rows", "_counts")

    def __init__(self, n: int, c: int, rows: list[int]):
        self.n = n
        self.c = c
        self.rows = rows
        # the edges up to the end of each color's rows, color 0's first
        ends = list(islice(accumulate(map(int.bit_count, rows)), n, None, n + 1))
        self._counts = tuple(map(sub, ends[1:], ends))

    def _block(self, i: int) -> list[int]:
        """Color i's rows u = 1..n, copied; row u at index u-1."""
        base = i * (self.n + 1)
        return self.rows[base + 1:base + self.n + 1]

    def has_edge(self, i: int, u: int, v: int) -> bool:
        return bool(self.rows[i * (self.n + 1) + u] >> (v - 1) & 1)

    def out_list(self, i: int, u: int) -> tuple[int, ...]:
        return _mask_to_vertices(self.rows[i * (self.n + 1) + u])

    def in_list(self, i: int, v: int) -> tuple[int, ...]:
        return tuple(compress(count(1), map(and_, self._block(i), repeat(1 << (v - 1)))))

    def edge_count(self, i: int) -> int:
        return self._counts[i - 1]

    def color_rows(self, i: int) -> tuple[list[int], list[int], list[int]]:
        row = self._block(i)
        sources, masks = list(compress(count(1), row)), list(filter(None, row))
        starts = list(accumulate(map(int.bit_count, masks), initial=0))
        return sources, starts, list(chain.from_iterable(map(_mask_to_vertices, masks)))

    def color_masks(self) -> tuple[list[int], list[int]]:
        in_masks, out_masks = [0] * (self.n + 1), [0] * (self.n + 1)
        for k in range(self.c):
            bit, presence = 1 << k, 0  # presence: the OR of the color's rows
            row = self._block(k + 1)
            for u, mask in compress(enumerate(row, 1), row):
                out_masks[u] |= bit
                presence |= mask
            for v in _mask_to_vertices(presence):
                in_masks[v] |= bit
        return in_masks, out_masks


class _SparseStore:
    """Compressed sparse rows (CSR) per side, for vertex counts past the threshold.

    A side is three flat arrays of 8-byte ints: the targets, sorted by
    (color, source, target); the id i*m + x (m = n + 1) of each row (i, x)
    that has edges, ascending; and where each such row starts.  The
    targets of the j-th row are targets[starts[j]:starts[j+1]], and a
    row's j is found by bisection in the ids.  Sources without edges get
    no entry, so memory grows with the edge count alone.  The out side
    comes from the row and target columns of the edges that `from_edges`
    and the parser check in bulk, without a sort when they arrive in
    order (see `_bulk_store`).  The in side is the same layout with
    source and target swapped.  It costs a sort of every edge, so the
    first `in_list` queries read the out side's target runs instead (a
    scan in C, some 30 times cheaper per edge than the build), and the in
    side is built once they have read _IN_SCANS times the edge count: a
    star search asks for in-neighbours only at centers whose colors pass
    its screen, so one that stops early, or finds few such centers, never
    builds it, and a long one pays at most a fraction of a build more.
    `color_masks` reads the out side alone, so neither it nor a round trip
    (reading a file back and serializing or comparing it) nor a (0, q)
    star search ever builds the in side.
    """

    kind = "sparse"

    __slots__ = ("n", "c", "_out", "_in", "_ends", "_scans_left")

    def __init__(self, n: int, c: int, out: _Side):
        targets, row_ids, starts = out
        self.n = n
        self.c = c
        # color i's edges are out-side positions _ends[i-1] .. _ends[i]-1
        self._ends = tuple(starts[bisect_left(row_ids, i * (n + 1))] for i in range(1, c + 2))
        self._out = out
        self._in: _Side | None = None
        self._scans_left = _IN_SCANS * len(targets)  # edges in-queries may still scan

    def _in_side(self) -> _Side:
        """The in side, built from the out side when an in-query finds the
        scan budget spent: an edge u -> v in color i has the in key
        (i*m + v)*m + u."""
        if self._in is None:
            m, (targets, row_ids, starts) = self.n + 1, self._out
            # each target's color and source: every run's label repeated over the run
            colors = chain.from_iterable(
                map(repeat, range(1, self.c + 1), map(sub, self._ends[1:], self._ends)))
            sources = chain.from_iterable(
                map(repeat, map(mod, row_ids, repeat(m)), map(sub, starts[1:], starts)))
            rows_in = map(add, map(mul, colors, repeat(m)), targets)  # i*m + v
            self._in = _csr_side(*_split(sorted(_keys(rows_in, sources, m)), m))
        return self._in

    def has_edge(self, i: int, u: int, v: int) -> bool:
        targets, row_ids, starts = self._out
        j = _row_index(row_ids, i * (self.n + 1) + u)
        if j is None:
            return False
        k = bisect_left(targets, v, starts[j], starts[j + 1])
        return k < starts[j + 1] and targets[k] == v

    def out_list(self, i: int, u: int) -> tuple[int, ...]:
        return _row(self._out, i * (self.n + 1) + u)

    def in_list(self, i: int, v: int) -> tuple[int, ...]:
        lo, hi = self._ends[i - 1], self._ends[i]
        if self._scan(hi - lo):
            targets, row_ids, starts = self._out
            base = i * (self.n + 1)
            # the row of position k is the last one starting at or before k
            return tuple(row_ids[bisect_right(starts, k) - 1] - base
                         for k in _positions(targets, v, lo, hi))
        return _row(self._in_side(), i * (self.n + 1) + v)

    def _scan(self, edges: int) -> bool:
        """Whether an in-query may scan this many out-side edges rather
        than build the in side; a granted scan is charged to the budget."""
        if self._in is not None or edges > self._scans_left:
            return False
        self._scans_left -= edges
        return True

    def edge_count(self, i: int) -> int:
        return self._ends[i] - self._ends[i - 1]

    def color_rows(self, i: int) -> tuple[list[int], list[int], array]:
        targets, row_ids, starts = self._out
        base = i * (self.n + 1)
        lo, hi = bisect_left(row_ids, base), bisect_left(row_ids, base + self.n + 1)
        first = starts[lo]
        return (list(map(sub, row_ids[lo:hi], repeat(base))),
                list(map(sub, starts[lo:hi + 1], repeat(first))), targets[first:starts[hi]])

    def color_masks(self) -> tuple[list[int], list[int]]:
        m, (targets, row_ids, _) = self.n + 1, self._out
        in_masks, out_masks = [0] * m, [0] * m
        bounds = [bisect_left(row_ids, i * m) for i in range(1, self.c + 2)]
        for k in range(self.c):
            bit, base = 1 << k, (k + 1) * m
            # x has out-edges in color k+1 where base + x is a row id
            for r in row_ids[bounds[k]:bounds[k + 1]]:
                out_masks[r - base] |= bit
            # and in-edges where x is a target of the color's run
            for v in set(targets[self._ends[k]:self._ends[k + 1]]):
                in_masks[v] |= bit
        return in_masks, out_masks


_Side = tuple[array, array, array]  # targets, row ids i*m + x, row starts


def _csr_side(rows: Sequence[int], targets: Sequence[int]) -> _Side:
    """The side of the edges sorted by (row id i*m + x, target y), given as
    their columns: the targets y, the ids i*m + x of the nonempty rows, and
    the start of each row in the targets with the end of the last one
    appended."""
    # true where a row starts; row ids are positive, so the first edge starts one
    firsts = bytes(map(ne, rows, chain((0,), rows)))
    return (array("q", targets), array("q", compress(rows, firsts)),
            array("q", chain(compress(count(), firsts), (len(rows),))))


def _keys(rows: Iterable[int], targets: Iterable[int], m: int) -> Iterator[int]:
    """The edge keys row*m + target, whose order is (row, target) order."""
    return map(add, map(mul, rows, repeat(m)), targets)


def _split(keys: list[int], m: int) -> tuple[array, array]:
    """The row and target columns of the keys."""
    return array("q", map(floordiv, keys, repeat(m))), array("q", map(mod, keys, repeat(m)))


def _positions(values: array, x: int, lo: int, hi: int) -> Iterator[int]:
    """The positions of x in values[lo:hi], ascending, each found by a scan in C."""
    try:
        while True:
            lo = values.index(x, lo, hi)
            yield lo
            lo += 1
    except ValueError:
        return


def _row_index(row_ids: array, r: int) -> int | None:
    j = bisect_left(row_ids, r)
    return j if j < len(row_ids) and row_ids[j] == r else None


def _row(side: _Side, r: int) -> tuple[int, ...]:
    targets, row_ids, starts = side
    j = _row_index(row_ids, r)
    return () if j is None else tuple(targets[starts[j]:starts[j + 1]])


def _mask_to_vertices(mask: int) -> tuple[int, ...]:
    """The vertices v whose bit v-1 is set, ascending: by `bin()` when over
    8 + length/8 bits are set, where that costs less, else bit by bit."""
    if 8 * mask.bit_count() > mask.bit_length() + 64:
        return tuple(compress(count(1), bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _row_pairs(sources: list[int], starts: list[int], targets: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(source, target) for each edge of a color's rows."""
    return zip(chain.from_iterable(map(repeat, sources, map(sub, starts[1:], starts))), targets)


class DigraphCollection:
    """Immutable collection of c simple digraphs on vertices {1..n}."""

    __slots__ = ("_store", "_masks")

    def __init__(self, store):
        self._store = store
        self._masks: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_edges(n: int, c: int, edges: Iterable[tuple[int, int, int]]) -> "DigraphCollection":
        """Build from (color, source, target) triples; the one edge validator.

        Checks n and c, then the triples in bulk: each column against its
        range with min and max, loops with one pairwise comparison of
        sources and targets (in the dense layout, once per row), and
        duplicates by counting (see `_bulk_store`).  Where a bulk check
        declines, the triples are walked in input order instead, and
        ValueError names the first bad one (out-of-range index, loop or
        duplicate).  n alone picks the layout: dense bit rows for
        n <= DEFAULT_DENSE_THRESHOLD, else the sparse CSR layout, built
        from the sorted edge keys.  An edge that is no sequence, or a value
        that is no int (a str, a float), raises TypeError from the walk or
        the store; a sequence of another length raises ValueError.
        """
        _check_dims(n, c)
        edges, dense = list(edges), n <= DEFAULT_DENSE_THRESHOLD
        return DigraphCollection(_build_store(
            n, c, [_edge_columns(n, c, edges, dense)], lambda: _walk_edges(n, c, edges), dense))

    @staticmethod
    def from_out_rows(n: int, c: int, rows: Sequence[Sequence[int]]) -> "DigraphCollection":
        """Build dense storage directly from per-color bit rows.

        rows[i][u-1] is the target mask of vertex u in color i+1 (bit v-1 set
        iff u -> v); it is copied to row id (i+1)*(n+1) + u of the dense
        store's flat list.  Loop bits are rejected.  Intended for bulk
        builders that assemble whole rows at once; always yields the dense
        layout, whatever n is.  Large sparse inputs go through `from_edges`,
        which builds the sparse layout from the edges with no dense copy.
        """
        _check_dims(n, c)
        if len(rows) != c:
            raise ValueError(f"expected {c} row blocks, got {len(rows)}")
        full, m = (1 << n) - 1, n + 1
        flat = [0] * ((c + 1) * m)  # row i*m + u; rows below m stay empty
        for i, block in enumerate(rows, start=1):
            if len(block) != n:
                raise ValueError(f"color {i}: expected {n} rows, got {len(block)}")
            for u, mask in enumerate(block, start=1):
                if mask < 0 or mask & ~full:
                    raise ValueError(f"color {i}: row of vertex {u} has out-of-range bits")
                if mask >> (u - 1) & 1:
                    raise ValueError(f"color {i}: loop at vertex {u}")
            flat[i * m + 1:(i + 1) * m] = block
        return DigraphCollection(_DenseStore(n, c, flat))

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
        store = self._store
        if not (1 <= color <= store.c and 1 <= u <= store.n):
            _check_index(store.n, store.c, color, u)
        return store.out_list(color, u)

    def in_neighbors(self, color: int, v: int) -> tuple[int, ...]:
        """Sources of edges into v in the given color, ascending."""
        store = self._store
        if not (1 <= color <= store.c and 1 <= v <= store.n):
            _check_index(store.n, store.c, color, v)
        return store.in_list(color, v)

    def edge_count(self, color: int) -> int:
        _check_color(self._store.c, color)
        return self._store.edge_count(color)

    def color_edges(self, color: int) -> tuple[tuple[int, int], ...]:
        """Edges of one color as (source, target), sorted."""
        _check_color(self._store.c, color)
        return tuple(_row_pairs(*self._store.color_rows(color)))

    def all_edges(self) -> Iterator[tuple[int, int, int]]:
        """All (color, source, target) triples, sorted."""
        for i in range(1, self.c + 1):
            for u, v in _row_pairs(*self._store.color_rows(i)):
                yield (i, u, v)

    def color_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per vertex v (index 0 unused), the colors of its in-edges and of
        its out-edges as masks, bit i-1 standing for color i.  The store
        computes them in one pass over each color's edges, on the first
        call; every later call returns the same tuples."""
        if self._masks is None:
            in_masks, out_masks = self._store.color_masks()
            self._masks = (tuple(in_masks), tuple(out_masks))
        return self._masks

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


def _check_vertex(n: int, v: int) -> None:
    if not 1 <= v <= n:
        raise ValueError(f"vertex {v} out of range 1..{n}")


def _check_color(c: int, i: int) -> None:
    if not 1 <= i <= c:
        raise ValueError(f"color {i} out of range 1..{c}")


def _check_index(n: int, c: int, i: int, v: int) -> None:
    _check_color(c, i)
    _check_vertex(n, v)


def _check_edge(n: int, c: int, i: int, u: int, v: int) -> None:
    _check_index(n, c, i, u)
    _check_vertex(n, v)
    if u == v:
        raise ValueError(f"loop at vertex {u} in color {i}")


def edge_counts(collection: DigraphCollection) -> EdgeCountSummary:
    """Per-color counts, their sum, and their minimum."""
    per_color = tuple(collection.edge_count(i) for i in range(1, collection.c + 1))
    return EdgeCountSummary(per_color, sum(per_color), min(per_color))


def reverse(collection: DigraphCollection) -> DigraphCollection:
    """Every edge u -> v becomes v -> u, in the same color."""
    return DigraphCollection.from_edges(
        collection.n, collection.c, [(i, v, u) for (i, u, v) in collection.all_edges()])


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
    return DigraphCollection.from_edges(n, c, mapped)


def _check_perm(perm: Sequence[int], size: int, label: str) -> Sequence[int]:
    if len(perm) != size or sorted(perm) != list(range(1, size + 1)):
        raise ValueError(f"{label} permutation must rearrange 1..{size}, got {list(perm)}")
    return perm


def serialize_edge_list(collection: DigraphCollection) -> str:
    """Canonical text form: header, dimensions, sorted edges, trailing LF.

    Each color is one join over the rows that `color_rows` reads: a row is
    its prefix "i u " joined with the spellings "v\n" of its targets,
    taken from tables of 0..n when there are at least n edges.
    """
    n, c, store = collection.n, collection.c, collection._store
    edges = sum(map(store.edge_count, range(1, c + 1)))
    source_of, target_of = _spellings("{} ", n, edges), _spellings("{}\n", n, edges)
    parts = [f"{_HEADER}\n{n} {c}\n"]
    for i in range(1, c + 1):
        sources, starts, targets = store.color_rows(i)
        prefixes = list(map(f"{i} ".__add__, map(source_of, sources)))
        spelled = list(map(target_of, targets))
        rows = map(spelled.__getitem__, map(slice, starts, starts[1:]))
        parts.append("".join(map(add, prefixes, map(str.join, prefixes, rows))))
    return "".join(parts)


def _spellings(form: str, n: int, uses: int):
    """form.format as a function of 0..n: a table lookup when it is used
    at least n times, else form.format itself."""
    return list(map(form.format, range(n + 1))).__getitem__ if n <= uses else form.format


def parse_edge_list(text: str) -> DigraphCollection:
    """Parse format v1; raises ParseError with a 1-based line number.

    The header and the dimension line are found with `find`; n alone
    picks the layout, as in `from_edges`.  The body is read in chunks of
    whole lines, each converted at once into the row ids and targets the
    store takes, and checked (see `_body_chunks` and `_bulk_store`).  Only
    where a bulk check declines is the line-by-line walk made, to read the
    body again and name the first bad line.
    """
    if "\r" in text:
        at = text.index("\r")
        raise ParseError(text.count("\n", 0, at) + 1, "carriage return; format v1 uses LF endings")
    if text and not text.endswith("\n"):
        raise ParseError(text.count("\n") + 1, "missing trailing newline")
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
    dense = n <= DEFAULT_DENSE_THRESHOLD
    try:
        store = _build_store(n, c, _body_chunks(text, dims_end + 1, n, c, dense),
                             lambda: _walk_edges(n, c, triples()), dense)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None
    return DigraphCollection(store)


def _body_chunks(text: str, start: int, n: int, c: int, dense: bool) -> Iterator[_Chunk | None]:
    """The body from `start` on as the store takes it, one chunk of whole
    lines at a time; None for a chunk whose edge lines are not all three
    integers in range, or, in the sparse layout, that has a loop.

    A plain chunk, whose lines are three ASCII digit tokens separated by
    single spaces (one `translate` and one `split` check that), is split
    at once.  In any other chunk the comment and blank lines are dropped
    and each other line is split on its own.  Each column is then read at
    once (`_column`) through a table of spellings (`_spelled`): the colors
    to their row bases i*m, so a row id is one addition of the source, and
    the targets, in the dense layout, to their bits.  Only a column that
    falls back to `int` needs a range check.  Dense loops are left to the
    store, which checks each row once.
    """
    m, chars = n + 1, len(text) - start
    color_of, vertex_of = _table(c, m, chars), _table(n, 1, chars)
    step = 0 if dense else 1  # how a target is held: its bit, or itself
    target_of = _table(n, step, chars)
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
        bases = _column(tokens[0::3], color_of, c, m)
        sources = _column(tokens[1::3], vertex_of, n, 1)
        targets = _column(tokens[2::3], target_of, n, step)
        if bases is None or sources is None or targets is None or (
                not dense and any(map(eq, sources, targets))):
            yield None
            return
        yield list(map(add, bases, sources)), targets
        start = end


def _table(top: int, step: int, chars: int) -> dict[str, int] | None:
    """The table `_spelled(top, step)`, or None where it costs more than
    `int`: past _SPELLED_MAX entries or one entry per character."""
    return _spelled(top, step) if top <= min(_SPELLED_MAX, chars) else None


@lru_cache(maxsize=_TABLES)
def _spelled(top: int, step: int) -> dict[str, int]:
    """The value (`_scaled`) of each spelling of 1..top, built once per
    size and shared by later parses of that size, which only read it.  A
    dense target's bits are the ints of `_bits`, not copies."""
    values = islice(_bits(top), 1, None) if step == 0 else _scaled(range(1, top + 1), step)
    return dict(zip(map(str, range(1, top + 1)), values))


@lru_cache(maxsize=_TABLES)
def _bits(n: int) -> list[int]:
    """bits[v] = 1 << (v-1), the bit of v in a dense row, for v in 1..n,
    and bits[0] = 0; built once per size, as the tables are, and only read.
    Its callers are dense, so n <= DEFAULT_DENSE_THRESHOLD."""
    return [0, *_scaled(range(1, n + 1), 0)]


def _scaled(values: Iterable[int], step: int) -> Iterator[int]:
    """Each value k as the store holds it: k*step, or for step 0 the bit
    1 << (k-1) of a dense target."""
    return map(mul, values, repeat(step)) if step else map(lshift, repeat(1), map(sub, values, repeat(1)))


def _column(tokens: list[str], table: dict[str, int] | None, top: int, step: int) -> list[int] | None:
    """The tokens, ints in 1..top, as the store holds them (`_scaled`), or
    None.  Table hits are in range; a token the table lacks (0, "007",
    "+1", past top) sends the column to `int`, as the walk reads it, and to
    a min and max check."""
    if table is not None:
        try:
            return list(map(table.__getitem__, tokens))
        except KeyError:
            pass
    try:
        values = list(map(int, tokens))
    except ValueError:  # not an integer, or too many digits for int
        return None
    if values and not (1 <= min(values) and max(values) <= top):
        return None
    return values if step == 1 else list(_scaled(values, step))


def _edge_columns(n: int, c: int, edges: list, dense: bool) -> _Chunk | None:
    """A list of triples as the store takes them, or None if one is no
    triple or fails `_check_edge`: ranges by min and max per column, and
    in the sparse layout loops by one pairwise comparison."""
    try:
        if not set(map(len, edges)) <= {3}:
            return None
        colors, sources, targets = zip(*edges) if edges else ((), (), ())
        if targets and not (
            1 <= min(colors) and max(colors) <= c
            and 1 <= min(sources) and max(sources) <= n
            and 1 <= min(targets) and max(targets) <= n
            and (dense or not any(map(eq, sources, targets)))
        ):
            return None
    except TypeError:
        return None  # an edge that is no sequence, or no number in one: the walk raises TypeError
    # a value that passed the checks but is no int (a float) raises TypeError here or in the store
    rows = list(map(add, map(mul, colors, repeat(n + 1)), sources))
    return rows, list(map(_bits(n).__getitem__, targets)) if dense else targets


def _build_store(n: int, c: int, chunks: Iterable[_Chunk | None],
                 walk: Callable[[], Iterator[tuple[int, int, int]]], dense: bool):
    """The store of the checked chunks.  Where a bulk check declines,
    `walk()` reads the edges again in input order and raises ValueError at
    the first bad one."""
    store = _bulk_store(n, c, chunks, dense)
    if store is None:
        for _ in walk():
            pass
        raise AssertionError("a bulk check declined edges that the walk accepts")
    return store


def _bulk_store(n: int, c: int, chunks: Iterable[_Chunk | None], dense: bool):
    """Dense or sparse store of the chunks, or None if a chunk is None, an
    edge repeats or a dense row has a loop.  Each edge's bit is ORed into
    the flat list the dense store keeps, at its row id, so a repeat leaves
    the popcount sum short of the number of edges, and a loop u -> u sets
    the row's own bit u-1, found by one AND per row.  Sparse keys
    row*m + target that strictly increase, checked a chunk at a time, have
    no repeat and are in CSR order, so the row and target columns are the
    out side's as they are; other keys are sorted, where a repeat sits
    next to itself, and split."""
    m = n + 1
    if dense:
        flat = [0] * ((c + 1) * m)  # row i*m + u; rows below m stay empty
        total = 0
        for chunk in chunks:
            if chunk is None:
                return None
            row_ids, bits = chunk
            total += len(row_ids)
            for r, bit in zip(row_ids, bits):
                flat[r] |= bit
        # row i*m + u ANDed with u's own bit: nonzero where u -> u
        if any(map(and_, flat, cycle(_bits(n)))):
            return None
        store = _DenseStore(n, c, flat)
        return store if sum(store._counts) == total else None
    rows: list[int] = []
    targets: list[int] = []
    last = -1  # the last key so far while they strictly increase, else None
    for chunk in chunks:
        if chunk is None:
            return None
        chunk_rows, column = chunk
        if last is not None and column:
            keys = list(_keys(chunk_rows, column, m))
            last = keys[-1] if last < keys[0] and all(map(lt, keys, islice(keys, 1, None))) else None
        rows += chunk_rows
        targets += column
    if last is None:
        keys = sorted(_keys(rows, targets, m))
        del rows, targets
        if any(map(eq, keys, islice(keys, 1, None))):
            return None
        rows, targets = _split(keys, m)
        del keys
    return _SparseStore(n, c, _csr_side(rows, targets))


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
