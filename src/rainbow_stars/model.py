"""Core data model: star patterns, digraph collections, and the text format.

A collection holds c simple directed graphs G_1..G_c on the common vertex set
{1..n}.  Vertices and colors are 1-indexed everywhere.  An edge is a triple
(color, source, target) with source != target; within one color a pair occurs
at most once, but the same pair may appear in many colors.

Collections are immutable values: every operation returns a fresh object and
equality is semantic (same n, same c, same edge sets), independent of how the
adjacency happens to be stored.  Two storage layouts exist behind the same
interface: dense bit rows (one Python int per source vertex per color) for
n <= dense_threshold, and sorted adjacency maps above it.  `from_edges` builds
either layout straight from the edge triples; the sparse one never passes
through a dense copy, so its memory stays proportional to the edge count.
`from_edges` is also the one place where edge triples are validated; the
text parser only splits lines into triples and hands them over.  Edges are
read back through one walk per store, `out_rows`, which yields each source
with its ascending targets.

Text interchange format, version 1 (LF line endings, trailing newline):

    rainbow-digraph v1
    n c
    i u v          <- one line per edge: color, source, target
    # comment lines and blank lines are ignored in the body

The parser takes edge lines in any order.  Serialization is canonical: edges
sorted by (color, source, target), no comments, so equal collections
serialize to byte-identical strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

DEFAULT_DENSE_THRESHOLD = 512

_HEADER = "rainbow-digraph v1"


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


class _SparseStore:
    """Sorted adjacency maps per color, for vertex counts past the threshold.

    Built from one set of edge keys u * (n + 1) + v per color, already
    validated by `from_edges`; sorting the keys sorts the pairs by (u, v).
    """

    kind = "sparse"

    __slots__ = ("n", "c", "out_adj", "in_adj", "_counts")

    def __init__(self, n: int, c: int, keys_by_color: list[set[int]]):
        self.n = n
        self.c = c
        self.out_adj: list[dict[int, tuple[int, ...]]] = []
        self.in_adj: list[dict[int, tuple[int, ...]]] = []
        for keys in keys_by_color:
            outs: dict[int, list[int]] = {}
            ins: dict[int, list[int]] = {}
            for key in sorted(keys):
                u, v = divmod(key, n + 1)
                outs.setdefault(u, []).append(v)
                ins.setdefault(v, []).append(u)
            # keys arrive sorted, so sources are inserted in ascending order
            # and each in-list is ascending
            self.out_adj.append({u: tuple(vs) for u, vs in outs.items()})
            self.in_adj.append({v: tuple(us) for v, us in ins.items()})
        self._counts = tuple(len(keys) for keys in keys_by_color)

    def has_edge(self, i: int, u: int, v: int) -> bool:
        return v in self.out_adj[i - 1].get(u, ())

    def out_list(self, i: int, u: int) -> tuple[int, ...]:
        return self.out_adj[i - 1].get(u, ())

    def in_list(self, i: int, v: int) -> tuple[int, ...]:
        return self.in_adj[i - 1].get(v, ())

    def edge_count(self, i: int) -> int:
        return self._counts[i - 1]

    def out_rows(self, i: int) -> Iterable[tuple[int, tuple[int, ...]]]:
        return self.out_adj[i - 1].items()  # sources in ascending order

    def colors_with_out(self, u: int) -> frozenset[int]:
        return frozenset(i for i in range(1, self.c + 1) if self.out_adj[i - 1].get(u))

    def colors_with_in(self, v: int) -> frozenset[int]:
        return frozenset(i for i in range(1, self.c + 1) if self.in_adj[i - 1].get(v))


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

        Checks n and c, then each triple in input order, and raises
        ValueError on the first bad one (out-of-range index, loop or
        duplicate) before reading the next.  Dense bit rows for
        n <= dense_threshold, else the sparse layout, built from a set of
        edge keys per color.
        """
        _check_dims(n, c)
        if n > dense_threshold:
            keys: list[set[int]] = [set() for _ in range(c)]
            for (i, u, v) in edges:
                _check_edge(n, c, i, u, v)
                seen, key = keys[i - 1], u * (n + 1) + v
                if key in seen:
                    raise ValueError(f"duplicate edge ({i}, {u}, {v})")
                seen.add(key)
            return DigraphCollection(_SparseStore(n, c, keys))
        rows = [[0] * (n + 1) for _ in range(c)]
        for (i, u, v) in edges:
            _check_edge(n, c, i, u, v)
            row, bit = rows[i - 1], 1 << (v - 1)
            if row[u] & bit:
                raise ValueError(f"duplicate edge ({i}, {u}, {v})")
            row[u] |= bit
        return DigraphCollection(_DenseStore(n, c, rows))

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
            lines.extend([prefix + v for v in map(str, vs)])
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str, dense_threshold: int = DEFAULT_DENSE_THRESHOLD) -> DigraphCollection:
    """Parse format v1; raises ParseError with a 1-based line number."""
    if "\r" in text:
        at = text.index("\r")
        raise ParseError(text.count("\n", 0, at) + 1, "carriage return; format v1 uses LF endings")
    if not text.endswith("\n"):
        raise ParseError(max(1, text.count("\n") + 1), "missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines:
        raise ParseError(1, f"missing header {_HEADER!r}")
    if lines[0] != _HEADER:
        raise ParseError(1, f"bad header {lines[0]!r}, expected {_HEADER!r}")
    if len(lines) < 2:
        raise ParseError(2, "missing dimension line 'n c'")
    try:
        n, c = map(int, lines[1].split())
    except ValueError:
        raise ParseError(2, f"dimension line needs two integers, got {lines[1]!r}") from None

    lineno = 2  # from_edges checks n and c before it reads a triple

    def triples() -> Iterator[tuple[int, int, int]]:
        nonlocal lineno
        for lineno, raw in enumerate(lines[2:], start=3):
            tokens = raw.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            try:
                i, u, v = map(int, tokens)
            except ValueError:
                raise ValueError(f"edge line needs three integers, got {raw!r}") from None
            yield i, u, v

    # from_edges raises on the triple it has just read, before it asks for
    # the next one, so lineno is the line of the first bad edge
    try:
        return DigraphCollection.from_edges(n, c, triples(), dense_threshold)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None
