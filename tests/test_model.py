"""Data model: constructors, value semantics, serialization, symmetries."""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from rainbow_stars import model
from rainbow_stars.constructions import ConstructionFamily, build
from rainbow_stars.model import (
    DEFAULT_DENSE_THRESHOLD,
    DigraphCollection,
    ParseError,
    StarEmbedding,
    StarPattern,
    edge_counts,
    parse_edge_list,
    permute,
    reverse,
    serialize_edge_list,
)

from layout import dense_up_to


@st.composite
def collections(draw, max_n: int = 7, max_c: int = 4):
    n = draw(st.integers(2, max_n))
    c = draw(st.integers(1, max_c))
    pairs = [
        (i, u, v)
        for i in range(1, c + 1)
        for u in range(1, n + 1)
        for v in range(1, n + 1)
        if u != v
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    # threshold 0 forces the sparse backend, a large one the dense backend
    with dense_up_to(draw(st.sampled_from([0, 512]))):
        return DigraphCollection.from_edges(n, c, edges)


def permutations(n: int):
    return st.permutations(list(range(1, n + 1)))


def test_star_pattern_validation():
    with pytest.raises(ValueError):
        StarPattern(-1, 2)
    with pytest.raises(ValueError):
        StarPattern(0, 0)
    assert StarPattern(2, 3).size == 5
    assert StarPattern(2, 3).reversed() == StarPattern(3, 2)
    assert StarPattern(3, 1).normalized() == (StarPattern(1, 3), True)
    assert StarPattern(1, 3).normalized() == (StarPattern(1, 3), False)


@pytest.mark.parametrize("threshold", [DEFAULT_DENSE_THRESHOLD, 0], ids=["dense", "sparse"])
def test_constructor_rejects_bad_edges(threshold):
    with dense_up_to(threshold):
        with pytest.raises(ValueError):
            DigraphCollection.from_edges(3, 2, [(1, 1, 1)])  # loop
        with pytest.raises(ValueError):
            DigraphCollection.from_edges(3, 2, [(3, 1, 2)])  # color out of range
        with pytest.raises(ValueError):
            DigraphCollection.from_edges(3, 2, [(1, 0, 2)])  # vertex out of range
        with pytest.raises(ValueError, match=r"duplicate edge \(1, 1, 2\)"):
            DigraphCollection.from_edges(3, 2, [(1, 1, 2), (1, 1, 2)])
        with pytest.raises(ValueError):
            DigraphCollection.from_edges(3, 2, [(1, 1, 2), (1, 2, 3, 1)])  # not a triple
        with pytest.raises(ValueError):
            DigraphCollection.from_edges(0, 2, [])
        with pytest.raises(ValueError):
            DigraphCollection.from_edges(3, 0, [])
        # a str fails the bulk check's comparisons and then the walk's, a float
        # passes both and fails in the store, and a bare int cannot be unpacked
        for edge in ((1, "a", 2), (1, 2.0, 3), 5):
            with pytest.raises(TypeError):
                DigraphCollection.from_edges(3, 2, [(1, 1, 2), edge])



@pytest.mark.parametrize("threshold", [DEFAULT_DENSE_THRESHOLD, 0], ids=["dense", "sparse"])
def test_per_vertex_queries_reject_out_of_range_indices(threshold):
    # one edge 3 -> 1 in color 2; -1 must not read vertex 3 from the end,
    # nor color 0 read color 2, and n+1 must not raise IndexError
    with dense_up_to(threshold):
        col = DigraphCollection.from_edges(3, 2, [(2, 3, 1)])
    assert col.storage_kind == ("dense" if threshold else "sparse")
    assert col.out_neighbors(2, 3) == (1,) and col.in_neighbors(2, 1) == (3,)
    assert col.edge_count(2) == 1 and col.color_edges(2) == ((3, 1),)
    for bad in (-1, 0, 4):
        for query in (lambda v: col.out_neighbors(2, v), lambda v: col.in_neighbors(2, v)):
            with pytest.raises(ValueError, match=rf"vertex {bad} out of range 1\.\.3"):
                query(bad)
    for bad in (-1, 0, 3):
        for query in (lambda i: col.out_neighbors(i, 3), lambda i: col.in_neighbors(i, 3),
                      col.edge_count, col.color_edges):
            with pytest.raises(ValueError, match=rf"color {bad} out of range 1\.\.2"):
                query(bad)

def test_golden_serialization():
    col = DigraphCollection.from_edges(3, 2, [(2, 3, 1), (1, 1, 2), (1, 1, 3)])
    assert serialize_edge_list(col) == (
        "rainbow-digraph v1\n3 2\n1 1 2\n1 1 3\n2 3 1\n"
    )


@given(collections())
def test_serialize_parse_round_trip(col):
    assert parse_edge_list(serialize_edge_list(col)) == col


@given(st.data(), collections())
def test_parse_accepts_any_order_comments_and_blanks(data, col):
    canonical = serialize_edge_list(col)
    lines = canonical.split("\n")[:-1]
    head, body = lines[:2], data.draw(st.permutations(lines[2:]))
    filler = st.sampled_from(["", "   ", "# comment", "  # indented 1 2 3"])
    for k in sorted(data.draw(st.lists(st.integers(0, len(body)), max_size=5)), reverse=True):
        body.insert(k, data.draw(filler))
    text = "\n".join(head + body) + "\n"
    for threshold in (0, 512):
        with dense_up_to(threshold):
            parsed = parse_edge_list(text)
        assert parsed == col
        assert serialize_edge_list(parsed) == canonical


@given(collections())
def test_backend_equivalence(col):
    edges = list(col.all_edges())
    with dense_up_to(col.n):
        dense = DigraphCollection.from_edges(col.n, col.c, edges)
        wider = DigraphCollection.from_edges(col.n, col.c + 1, edges)
    with dense_up_to(0):
        sparse = DigraphCollection.from_edges(col.n, col.c, edges)
        # sparse in-queries scan the out side until their budget is spent and
        # then build the in side: one copy is asked for in-neighbours before
        # any out-query, the other only after them
        in_first = DigraphCollection.from_edges(col.n, col.c, edges)
    vertices = range(1, col.n + 1)
    ins = {(i, v): dense.in_neighbors(i, v) for i in range(1, col.c + 1) for v in vertices}
    assert {key: in_first.in_neighbors(*key) for key in ins} == ins
    assert dense.storage_kind == "dense" and sparse.storage_kind == "sparse"
    assert dense == sparse == in_first
    assert hash(dense) == hash(sparse)
    assert dense != edges
    assert dense != wider
    assert serialize_edge_list(dense) == serialize_edge_list(sparse)
    for i in range(1, col.c + 1):
        assert dense.color_edges(i) == sparse.color_edges(i)
        assert dense.edge_count(i) == sparse.edge_count(i) == len(dense.color_edges(i))
        for u in vertices:
            for v in vertices:
                if u != v:
                    expected = (i, u, v) in edges
                    assert dense.has_edge(i, u, v) == sparse.has_edge(i, u, v) == expected
        for v in vertices:
            assert dense.out_neighbors(i, v) == sparse.out_neighbors(i, v)
            assert sparse.in_neighbors(i, v) == ins[i, v]
    # each layout's color masks against the colors of the edges
    for v in vertices:
        out_mask = sum({1 << (i - 1) for (i, u, _) in edges if u == v})
        in_mask = sum({1 << (i - 1) for (i, _, w) in edges if w == v})
        for layout in (dense, sparse, in_first):
            in_masks, out_masks = layout.color_masks()
            assert (in_masks[v], out_masks[v]) == (in_mask, out_mask)
    assert dense.color_masks() == sparse.color_masks() == in_first.color_masks()
    # the masks are computed once and kept, as tuples
    for layout in (dense, sparse):
        masks = layout.color_masks()
        assert layout.color_masks() is masks and all(type(side) is tuple for side in masks)


def test_canonical_and_shuffled_bodies_give_the_same_sparse_store():
    # a canonical body's columns become the CSR as they are; a shuffled one
    # is sorted first, and both must give the same arrays and text
    rng = random.Random(5)
    n, c = 700, 3
    edges = {(rng.randint(1, c), *rng.sample(range(1, n + 1), 2)) for _ in range(3000)}
    canonical = serialize_edge_list(DigraphCollection.from_edges(n, c, edges))
    head, body = canonical.split("\n", 2)[:2], canonical.split("\n")[2:-1]
    rng.shuffle(body)
    shuffled = "\n".join(head + body) + "\n"
    assert shuffled != canonical
    presorted, sorted_ = parse_edge_list(canonical), parse_edge_list(shuffled)
    assert presorted.storage_kind == sorted_.storage_kind == "sparse"
    assert presorted._store._out == sorted_._store._out
    assert presorted._store._ends == sorted_._store._ends
    assert presorted == sorted_
    assert serialize_edge_list(presorted) == serialize_edge_list(sorted_) == canonical


def random_edges(rng, n, c, density):
    """A random edge set with about density * c*n*(n-1) edges."""
    slots = c * n * (n - 1)
    edges = set()
    for s in rng.sample(range(slots), round(density * slots)):
        i, rest = divmod(s, n * (n - 1))
        u, v = divmod(rest, n - 1)
        edges.add((i + 1, u + 1, v + 1 + (v >= u)))
    return edges


def test_canonical_bodies_never_reach_the_walk(monkeypatch):
    # serialized text, in both layouts, and the edges themselves are all
    # taken by the bulk checks: the line-by-line walk yields nothing
    steps = []
    walk = model._walk_edges

    def counted(n, c, edges):
        for triple in walk(n, c, edges):
            steps.append(triple)
            yield triple

    monkeypatch.setattr(model, "_walk_edges", counted)
    rng = random.Random(27)
    cases = [(n, c, random_edges(rng, n, c, density))
             for n in (8, 16, 24, 32, 40) for c in (2, 8) for density in (0.02, 0.3)]
    cases += [(3, 7, random_edges(rng, 3, 7, 0.5)), (1, 2, set()), (2, 1, {(1, 2, 1)})]
    # 512 is the last dense n and 513 the first sparse one by default;
    # 8000 edges take more than one chunk
    cases += [(n, 3, {(3, n, 1), (1, 1, n)}
               | {(rng.randint(1, 3), *rng.sample(range(1, n + 1), 2)) for _ in range(8000)})
              for n in (512, 513)]
    for n, c, edges in cases:
        for threshold in (0, DEFAULT_DENSE_THRESHOLD):
            with dense_up_to(threshold):
                col = DigraphCollection.from_edges(n, c, edges)
                text = serialize_edge_list(col)
                parsed = parse_edge_list(text)
            assert parsed.storage_kind == col.storage_kind
            assert parsed == col and tuple(parsed.all_edges()) == tuple(sorted(edges))
    assert steps == []
    # a bad line still reaches the counted walk
    with pytest.raises(ParseError):
        parse_edge_list("rainbow-digraph v1\n3 2\n1 1 2\n1 2 2\n")
    assert steps == [(1, 1, 2)]


def test_spelling_tables_are_reused_and_the_limit_is_read_per_parse(monkeypatch):
    # a second parse of a dense size finds its three tables (colors,
    # sources, target bits) built
    text = "rainbow-digraph v1\n5 3\n1 1 2\n3 5 4\n"
    parse_edge_list(text)
    before = model._spelled.cache_info()
    expected = ((1, 1, 2), (3, 5, 4))
    assert tuple(parse_edge_list(text).all_edges()) == expected
    after = model._spelled.cache_info()
    assert after.hits - before.hits == 3 and after.misses == before.misses
    # a limit below every size sends each column to int, cache or no cache,
    # and builds no spelling table
    monkeypatch.setattr(model, "_SPELLED_MAX", 0)
    assert tuple(parse_edge_list(text).all_edges()) == expected
    assert model._spelled.cache_info() == after
    assert model._spelled.cache_info().maxsize == model._bits.cache_info().maxsize == model._TABLES


def test_serialize_dense_rows_of_every_weight():
    # dense rows are read bit by bit when light and through bin() when
    # heavy; rows on both sides of that choice, at both ends of the bit
    # range, must serialize as the plain one-line-per-edge text
    n = 600
    rng = random.Random(9)
    targets = {
        (1, 2): [1], (1, 3): [n], (1, 4): [1, n], (1, 5): [v for v in range(1, n + 1) if v != 5],
        (1, n): list(range(1, n)), (2, n): [1], (2, 1): [2],
        # of length 600, a row of 83 bits is the heaviest read bit by bit
        # and one of 84 the lightest read through bin()
        (1, 6): sorted(rng.sample(range(7, n), 82)) + [n],
        (1, 7): sorted(rng.sample(range(8, n), 83)) + [n],
        (2, 8): sorted(rng.sample(range(9, n + 1), 300)),
        (3, 9): [10, 11, 12],
    }
    c = 3
    rows = [[0] * n for _ in range(c)]
    for (i, u), vs in targets.items():
        rows[i - 1][u - 1] = sum(1 << (v - 1) for v in vs)
    col = DigraphCollection.from_out_rows(n, c, rows)
    assert col.storage_kind == "dense"
    edges = sorted((i, u, v) for (i, u), vs in targets.items() for v in vs)
    assert list(col.all_edges()) == edges
    expected = f"rainbow-digraph v1\n{n} {c}\n" + "".join(f"{i} {u} {v}\n" for i, u, v in edges)
    assert serialize_edge_list(col) == expected
    assert parse_edge_list(expected) == col


def test_sparse_store_memory_grows_with_edges_alone():
    # a side is three arrays of 8-byte ints: a target per edge, and an id
    # and a start per nonempty row, at most 48 bytes per edge for both
    # sides; per-color dicts and lists of int objects took over 300
    rng = random.Random(7)
    n, c, m = 100_000, 3, 20_000
    edges = {(rng.randint(1, c), *rng.sample(range(1, n + 1), 2)) for _ in range(m)}
    tracemalloc.start()
    try:
        col = DigraphCollection.from_edges(n, c, edges)
        col._store._in_side()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert col.storage_kind == "sparse" and col._store._in is not None
    assert kept < 64 * len(edges)


def test_dense_parse_keeps_its_rows_once():
    # the dense store keeps the flat row list that the parse fills, one int
    # per (color, source) at its row id: a header-only parse peaks at about
    # what it keeps, where a copy of the rows per color would double it
    tracemalloc.start()
    try:
        col = parse_edge_list("rainbow-digraph v1\n500 2000\n")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * kept and kept > 8 * 2001 * 501
    assert col.storage_kind == "dense" and len(col._store.rows) == 2001 * 501


@pytest.mark.parametrize("relabel", [reverse, permute], ids=["reverse", "permute"])
def test_relabelling_an_edgeless_build_stays_small(relabel):
    # a build with no edges comes from bit rows, dense at any n; its
    # relabelled copy takes the layout of its n, not a dense one of n*n/16
    # bytes of bits
    col = build(ConstructionFamily.CYCLIC_REMAINDER, 20_000, 3, 0, 1).collection
    assert col.storage_kind == "dense" and not any(col.all_edges())
    tracemalloc.start()
    try:
        moved = relabel(col)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert moved == col and moved.storage_kind == "sparse"


def test_sparse_in_queries_scan_before_the_in_side_is_built():
    # in-neighbour queries read the out side's target runs until they have
    # scanned model._IN_SCANS times the edge count; the later ones build
    # the in side, and both kinds of answer match the dense layout's.  The
    # in-colors come from the color masks, which read the out side alone
    # and scan nothing
    rng = random.Random(11)
    n, c = 600, 3
    edges = sorted({(rng.randint(1, c), *rng.sample(range(1, n + 1), 2)) for _ in range(1500)})
    sparse = DigraphCollection.from_edges(n, c, edges)
    with dense_up_to(n):
        dense = DigraphCollection.from_edges(n, c, edges)
    assert sparse.storage_kind == "sparse"
    for v in range(1, 4):
        assert sparse.color_masks()[0][v] == dense.color_masks()[0][v]
        for i in range(1, c + 1):
            assert sparse.in_neighbors(i, v) == dense.in_neighbors(i, v)
    assert sparse._store._in is None
    for v in range(1, n + 1):
        assert sparse.color_masks()[0][v] == dense.color_masks()[0][v]
        for i in range(1, c + 1):
            assert sparse.in_neighbors(i, v) == dense.in_neighbors(i, v)
    assert sparse._store._in is not None


@given(collections())
def test_reverse_involution(col):
    assert reverse(reverse(col)) == col


@given(collections())
def test_reverse_swaps_neighborhoods(col):
    rev = reverse(col)
    for i in range(1, col.c + 1):
        for v in range(1, col.n + 1):
            assert rev.out_neighbors(i, v) == col.in_neighbors(i, v)


@given(st.data(), collections(max_n=6, max_c=3))
def test_permute_inverse_recovers(data, col):
    vperm = data.draw(permutations(col.n))
    cperm = data.draw(permutations(col.c))
    moved = permute(col, vperm, cperm)
    v_inv = [0] * col.n
    c_inv = [0] * col.c
    for k, image in enumerate(vperm, start=1):
        v_inv[image - 1] = k
    for k, image in enumerate(cperm, start=1):
        c_inv[image - 1] = k
    assert permute(moved, v_inv, c_inv) == col


@given(st.data(), collections(max_n=6, max_c=3))
def test_permute_preserves_counts(data, col):
    vperm = data.draw(permutations(col.n))
    moved = permute(col, vperm, None)
    assert edge_counts(moved) == edge_counts(col)
    cperm = data.draw(permutations(col.c))
    recolored = permute(col, None, cperm)
    assert sorted(edge_counts(recolored).per_color) == sorted(edge_counts(col).per_color)


def test_permute_identity():
    col = DigraphCollection.from_edges(4, 2, [(1, 1, 2), (2, 3, 4)])
    assert permute(col, [1, 2, 3, 4], [1, 2]) == col
    assert permute(col) == col


def test_permute_rejects_a_non_permutation():
    col = DigraphCollection.from_edges(3, 1, [(1, 1, 2)])
    with pytest.raises(ValueError, match=r"vertex permutation must rearrange 1\.\.3"):
        permute(col, [1, 1, 2])


def test_edge_counts():
    col = DigraphCollection.from_edges(4, 3, [(1, 1, 2), (1, 2, 1), (3, 1, 4)])
    summary = edge_counts(col)
    assert summary.per_color == (2, 0, 1)
    assert summary.total == 3
    assert summary.minimum == 0
    assert repr(col) == "DigraphCollection(n=4, c=3, edges=3, dense)"


def test_from_out_rows_matches_from_edges():
    # rows[i-1][u-1] is a bitmask of targets for vertex u in color i
    rows = [[0b110, 0b000, 0b001], [0b000, 0b101, 0b000]]
    built = DigraphCollection.from_out_rows(3, 2, rows)
    expected = DigraphCollection.from_edges(
        3, 2, [(1, 1, 2), (1, 1, 3), (1, 3, 1), (2, 2, 1), (2, 2, 3)]
    )
    assert built == expected
    # one flat list of rows, row (i, u) at i*(n+1) + u, as from_edges builds it
    assert built._store.rows == expected._store.rows == [0] * 5 + [0b110, 0, 0b001, 0, 0, 0b101, 0]


@pytest.mark.parametrize(
    "rows,message",
    [
        ([[0, 0], [0, 0]], "expected 1 row blocks, got 2"),
        ([[0]], "color 1: expected 2 rows, got 1"),
        ([[0b100, 0]], "color 1: row of vertex 1 has out-of-range bits"),
        ([[-1, 0]], "color 1: row of vertex 1 has out-of-range bits"),
        ([[0b01, 0]], "color 1: loop at vertex 1"),
    ],
)
def test_from_out_rows_rejects_bad_rows(rows, message):
    with pytest.raises(ValueError, match=message):
        DigraphCollection.from_out_rows(2, 1, rows)


@pytest.mark.parametrize(
    "text,bad_line",
    [
        ("", 1),
        ("wrong header\n3 2\n", 1),
        ("rainbow-digraph v1\n", 2),
        ("rainbow-digraph v1\n3\n", 2),
        ("rainbow-digraph v1\n3 2\n1 1\n", 3),
        ("rainbow-digraph v1\n3 2\n1 1 1\n", 3),
        ("rainbow-digraph v1\n3 2\n5 1 2\n", 3),
        ("rainbow-digraph v1\n3 2\n1 4 2\n", 3),
        ("rainbow-digraph v1\n3 2\n1 1 2\n1 1 2\n", 4),
        ("rainbow-digraph v1\n3 2\n1 1 2\nx y z\n", 4),
        ("rainbow-digraph v1\n3 2\n1 1 2\n1 1 2\nx y z\n", 4),
        ("rainbow-digraph v1\n3 2\n1 1 2\n1 1 2\n2 1 2\n", 4),
        ("rainbow-digraph v1\n3 2\n# c\n\n1 1 1\n", 5),
        ("rainbow-digraph v1\n0 2\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, bad_line):
    # the first bad line is reported, whichever layout the edges go into
    for threshold in (DEFAULT_DENSE_THRESHOLD, 0):
        with dense_up_to(threshold), pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert err.value.line_number == bad_line


def reference_parse(text):
    """The format read line by line, as plainly as it can be written: the
    collection's (n, c, sorted edges), or the first bad line's
    (line_number, message)."""
    if "\r" in text:
        return text.count("\n", 0, text.index("\r")) + 1, "carriage return; format v1 uses LF endings"
    if text and not text.endswith("\n"):
        return text.count("\n") + 1, "missing trailing newline"
    lines = text[:-1].split("\n")
    if lines[0] != "rainbow-digraph v1":
        return 1, f"bad header {lines[0]!r}, expected 'rainbow-digraph v1'"
    if len(lines) < 2:
        return 2, "missing dimension line 'n c'"
    try:
        n, c = map(int, lines[1].split())
    except ValueError:
        return 2, f"dimension line needs two integers, got {lines[1]!r}"
    if n < 1:
        return 2, f"need at least one vertex, got n={n}"
    if c < 1:
        return 2, f"need at least one color, got c={c}"
    seen = set()
    for lineno, raw in enumerate(lines[2:], start=3):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            i, u, v = map(int, tokens)
        except ValueError:
            return lineno, f"edge line needs three integers, got {raw!r}"
        if not 1 <= i <= c:
            return lineno, f"color {i} out of range 1..{c}"
        for w in (u, v):
            if not 1 <= w <= n:
                return lineno, f"vertex {w} out of range 1..{n}"
        if u == v:
            return lineno, f"loop at vertex {u} in color {i}"
        if (i, u, v) in seen:
            return lineno, f"duplicate edge ({i}, {u}, {v})"
        seen.add((i, u, v))
    return n, c, tuple(sorted(seen))


# Respellings of an edge line; int() reads most of them, the bulk reader none.
RESPELLINGS = [
    lambda e: e.replace(" ", "\t", 1),
    lambda e: e.replace(" ", "  ", 1),
    lambda e: " " + e,
    lambda e: e + " ",
    lambda e: "+" + e,
    lambda e: "00" + e,
    lambda e: e.replace("1", "\u0661", 1),  # ARABIC-INDIC DIGIT ONE
]
# Lines the bulk reader does not take; the last one has two edges' tokens.
IRREGULAR = ["", "   ", "# 1 2 3", "1 x 2", "1 2", "1 2 3 4", "1 2 1 2 1 2"]
DIMENSIONS = ["0 2", "3 0", "3", "a b", "1 1 1"]


@st.composite
def mutated_texts(draw):
    """Canonical texts with a few lines edited: bad edges in plain spelling
    (a loop, 0, or one past c or n), repeats, irregular lines and
    respellings; now and then a bad dimension line."""
    col = draw(collections(max_n=9))
    lines = serialize_edge_list(col).split("\n")[:-1]
    bad_edges = [f"1 {col.n} {col.n}", "1 0 2", f"{col.c + 1} 1 2", f"1 1 {col.n + 1}"]
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 3]))):
        kinds = ["bad", "irregular"] + (["repeat", "repeat", "respell"] if len(lines) > 2 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "respell":
            k = draw(st.integers(2, len(lines) - 1))
            lines[k] = draw(st.sampled_from(RESPELLINGS))(lines[k])
            continue
        line = draw(st.sampled_from({"bad": bad_edges, "irregular": IRREGULAR, "repeat": lines[2:]}[kind]))
        lines.insert(draw(st.integers(2, len(lines))), line)
    if draw(st.integers(0, 9)) == 0:
        lines[1] = draw(st.sampled_from(DIMENSIONS))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_texts(), st.sampled_from([1, 5, 12, 1 << 16]))
# six tokens on two lines: the right count of tokens, but not one edge a line
@example("rainbow-digraph v1\n3 2\n1 2 1 2 1 2\n\n", 1 << 16)
@example("rainbow-digraph v1\n3 2\n1 2 3 1\n1 2\n", 1 << 16)
# a token past int's digit limit, read through the table (n = 3) and with
# int (n = 70000); a comment line makes the second chunk of five lines not plain
@example("rainbow-digraph v1\n3 2\n1 1 2\n1 " + "1" * 5000 + " 2\n", 1 << 16)
@example("rainbow-digraph v1\n70000 2\n1 1 2\n1 " + "1" * 5000 + " 2\n", 1 << 16)
@example("rainbow-digraph v1\n3 2\n1 1 2\n2 1 2\n# 1 2\n\n1 2 1\n1 1 2\n", 12)
# a loop on the last line of an otherwise canonical body, which the dense
# store finds in its row check after the build
@example("rainbow-digraph v1\n4 2\n1 1 2\n1 2 3\n2 4 1\n2 4 4\n", 1 << 16)
# the two copies of a repeated edge in different chunks of 12 characters
@example("rainbow-digraph v1\n3 2\n1 1 2\n1 1 3\n2 3 1\n1 1 2\n", 12)
# a target spelled 007 sends its column to int, whose values must be the
# table's (dense bits, or vertices)
@example("rainbow-digraph v1\n9 2\n1 1 2\n1 3 007\n2 9 1\n", 1 << 16)
# the last dense size by default, with a loop at its top bit, and the first
# sparse one, with a repeat
@example("rainbow-digraph v1\n512 2\n1 1 512\n2 512 1\n1 512 512\n", 1 << 16)
@example("rainbow-digraph v1\n513 2\n1 1 513\n2 513 1\n1 1 513\n", 1 << 16)
@example("rainbow-digraph v1\n513 2\n1 1 513\n2 513 1\n2 513 2\n", 1 << 16)
def test_parse_matches_line_by_line_reference(text, chunk):
    expected = reference_parse(text)
    # chunks of a few characters put repeats and bad lines on either side
    # of a chunk boundary; a small table limit reads the vertex columns
    # (and with 1 the color columns too) with int, whose range checks then
    # meet the bad edges
    for spelled_max in (model._SPELLED_MAX, 4, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_CHUNK_CHARS", chunk)
            patch.setattr(model, "_SPELLED_MAX", spelled_max)
            for threshold in (0, 512):
                try:
                    with dense_up_to(threshold):
                        parsed = parse_edge_list(text)
                except ParseError as err:
                    assert (err.line_number, str(err)) == (expected[0], f"line {expected[0]}: {expected[1]}")
                else:
                    assert (parsed.n, parsed.c, tuple(parsed.all_edges())) == expected


def test_parse_rejects_crlf_and_missing_newline():
    with pytest.raises(ParseError):
        parse_edge_list("rainbow-digraph v1\r\n3 2\r\n")
    with pytest.raises(ParseError):
        parse_edge_list("rainbow-digraph v1\n3 2")


def test_embedding_validity():
    col = DigraphCollection.from_edges(
        4, 3, [(1, 2, 1), (2, 1, 3), (3, 1, 4)]
    )
    star = StarEmbedding(center=1, in_leaves=((2, 1),), out_leaves=((3, 2), (4, 3)))
    assert star.pattern == StarPattern(1, 2)
    assert star.is_valid_in(col)
    # repeated color across leaves is not rainbow
    clash = StarEmbedding(center=1, in_leaves=((2, 2),), out_leaves=((3, 2), (4, 3)))
    assert not clash.is_valid_in(col)
    # missing edge
    ghost = StarEmbedding(center=1, in_leaves=((4, 1),), out_leaves=((3, 2), (4, 3)))
    assert not ghost.is_valid_in(col)
    # the center as one of its own leaves, on either side
    for looped in [
        StarEmbedding(center=1, in_leaves=((1, 1),), out_leaves=((3, 2), (4, 3))),
        StarEmbedding(center=1, in_leaves=((2, 1),), out_leaves=((1, 2), (4, 3))),
    ]:
        assert not looped.is_valid_in(col), looped
    # a color, leaf or center outside the collection
    for star in [
        StarEmbedding(center=1, in_leaves=((2, 1),), out_leaves=((3, 2), (4, 9))),
        StarEmbedding(center=1, in_leaves=((2, 0),), out_leaves=((3, 2), (4, 3))),
        StarEmbedding(center=1, in_leaves=((2, 1),), out_leaves=((3, 2), (5, 3))),
        StarEmbedding(center=0, in_leaves=((2, 1),), out_leaves=((3, 2), (4, 3))),
        StarEmbedding(center=7, in_leaves=((2, 1),), out_leaves=()),
    ]:
        assert not star.is_valid_in(col), star
