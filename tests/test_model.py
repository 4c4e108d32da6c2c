"""Data model: constructors, value semantics, serialization, symmetries."""

import pytest
from hypothesis import given, settings, strategies as st

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
    threshold = draw(st.sampled_from([0, 512]))
    return DigraphCollection.from_edges(n, c, edges, threshold)


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
    with pytest.raises(ValueError):
        DigraphCollection.from_edges(3, 2, [(1, 1, 1)], threshold)  # loop
    with pytest.raises(ValueError):
        DigraphCollection.from_edges(3, 2, [(3, 1, 2)], threshold)  # color out of range
    with pytest.raises(ValueError):
        DigraphCollection.from_edges(3, 2, [(1, 0, 2)], threshold)  # vertex out of range
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 1, 2\)"):
        DigraphCollection.from_edges(3, 2, [(1, 1, 2), (1, 1, 2)], threshold)
    with pytest.raises(ValueError):
        DigraphCollection.from_edges(0, 2, [], threshold)
    with pytest.raises(ValueError):
        DigraphCollection.from_edges(3, 0, [], threshold)


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
        parsed = parse_edge_list(text, threshold)
        assert parsed == col
        assert serialize_edge_list(parsed) == canonical


@given(collections())
def test_backend_equivalence(col):
    edges = list(col.all_edges())
    dense = DigraphCollection.from_edges(col.n, col.c, edges, col.n)
    sparse = DigraphCollection.from_edges(col.n, col.c, edges, 0)
    assert dense.storage_kind == "dense" and sparse.storage_kind == "sparse"
    assert dense == sparse
    for i in range(1, col.c + 1):
        assert dense.color_edges(i) == sparse.color_edges(i)
        for v in range(1, col.n + 1):
            assert dense.out_neighbors(i, v) == sparse.out_neighbors(i, v)
            assert dense.in_neighbors(i, v) == sparse.in_neighbors(i, v)
    for v in range(1, col.n + 1):
        assert dense.colors_with_out_edge(v) == sparse.colors_with_out_edge(v)
        assert dense.colors_with_in_edge(v) == sparse.colors_with_in_edge(v)


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


def test_edge_counts():
    col = DigraphCollection.from_edges(4, 3, [(1, 1, 2), (1, 2, 1), (3, 1, 4)])
    summary = edge_counts(col)
    assert summary.per_color == (2, 0, 1)
    assert summary.total == 3
    assert summary.minimum == 0


def test_from_out_rows_matches_from_edges():
    # rows[i-1][u-1] is a bitmask of targets for vertex u in color i
    rows = [[0b110, 0b000, 0b001], [0b000, 0b101, 0b000]]
    built = DigraphCollection.from_out_rows(3, 2, rows)
    expected = DigraphCollection.from_edges(
        3, 2, [(1, 1, 2), (1, 1, 3), (1, 3, 1), (2, 2, 1), (2, 2, 3)]
    )
    assert built == expected


@pytest.mark.parametrize(
    "text,bad_line",
    [
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
        with pytest.raises(ParseError) as err:
            parse_edge_list(text, threshold)
        assert err.value.line_number == bad_line


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
