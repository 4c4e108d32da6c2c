"""Rainbow star detection: fast search vs independent oracles."""

import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from rainbow_stars.constructions import ConstructionFamily, build
from rainbow_stars.detector import (
    _colors_suffice,
    _leaf_colors,
    _match_leaves,
    classify_vertices,
    find_rainbow_star,
    find_rainbow_star_naive,
    hopcroft_karp,
    matching_fastpath_p0,
)
from rainbow_stars.model import DigraphCollection, StarPattern, permute, reverse


def complete_collection(n: int, c: int) -> DigraphCollection:
    edges = [
        (i, u, v)
        for i in range(1, c + 1)
        for u in range(1, n + 1)
        for v in range(1, n + 1)
        if u != v
    ]
    return DigraphCollection.from_edges(n, c, edges)


def random_collection(rng: random.Random, n: int, c: int, density: float) -> DigraphCollection:
    edges = [
        (i, u, v)
        for i in range(1, c + 1)
        for u in range(1, n + 1)
        for v in range(1, n + 1)
        if u != v and rng.random() < density
    ]
    return DigraphCollection.from_edges(n, c, edges)


def test_complete_collection_has_star():
    col = complete_collection(4, 3)
    emb = find_rainbow_star(col, StarPattern(1, 2))
    assert emb is not None and emb.is_valid_in(col)
    assert emb.pattern == StarPattern(1, 2)


def test_too_few_colors_is_free():
    col = complete_collection(5, 2)
    assert find_rainbow_star(col, StarPattern(1, 2)) is None


def test_too_few_vertices_is_free():
    # p+q leaves plus the center need p+q+1 vertices
    col = complete_collection(3, 5)
    assert find_rainbow_star(col, StarPattern(1, 2)) is None
    assert find_rainbow_star(col, StarPattern(1, 1)) is not None


def test_single_color_never_rainbow_beyond_one_edge():
    col = complete_collection(4, 1)
    assert find_rainbow_star(col, StarPattern(1, 1)) is None
    assert find_rainbow_star(col, StarPattern(0, 1)) is not None


def test_star_needs_distinct_leaves():
    # two colors on the same arc only: center 1 cannot reuse vertex 2
    col = DigraphCollection.from_edges(3, 2, [(1, 1, 2), (2, 1, 2)])
    assert find_rainbow_star(col, StarPattern(0, 2)) is None
    grown = DigraphCollection.from_edges(3, 2, [(1, 1, 2), (2, 1, 2), (2, 1, 3)])
    emb = find_rainbow_star(grown, StarPattern(0, 2))
    assert emb is not None and emb.is_valid_in(grown)


def test_colors_must_differ_across_sides():
    col = DigraphCollection.from_edges(3, 2, [(1, 2, 1), (1, 1, 3)])
    assert find_rainbow_star(col, StarPattern(1, 1)) is None
    two = DigraphCollection.from_edges(3, 2, [(1, 2, 1), (2, 1, 3)])
    assert find_rainbow_star(two, StarPattern(1, 1)) is not None


@pytest.mark.parametrize("p,q", [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (0, 3), (2, 2),
                                 (1, 3), (3, 1), (2, 3)])
def test_fuzz_against_naive(p, q):
    rng = random.Random(1009 * p + 31 * q + 11)
    for trial in range(120):
        n = rng.randint(2, 6)
        c = rng.randint(1, 5)
        col = random_collection(rng, n, c, rng.choice((0.15, 0.4, 0.8)))
        fast = find_rainbow_star(col, StarPattern(p, q))
        naive = find_rainbow_star_naive(col, StarPattern(p, q))
        assert (fast is None) == (naive is None), (n, c, p, q, trial)
        if fast is not None:
            assert fast.is_valid_in(col)


def test_fastpath_matches_general_search():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(2, 6)
        c = rng.randint(1, 5)
        q = rng.randint(1, 3)
        col = random_collection(rng, n, c, rng.choice((0.2, 0.5, 0.8)))
        full = find_rainbow_star(col, StarPattern(0, q))
        fp = matching_fastpath_p0(col, q)
        assert (full is None) == (fp is None)
        if fp is not None:
            assert fp.is_valid_in(col)


@given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_verdict_invariance(n, c, p, q, seed):
    if p + q == 0:
        q = 1
    rng = random.Random(seed)
    col = random_collection(rng, n, c, 0.5)
    pat = StarPattern(p, q)
    verdict = find_rainbow_star(col, pat) is None
    vperm = list(range(1, n + 1))
    cperm = list(range(1, c + 1))
    rng.shuffle(vperm)
    rng.shuffle(cperm)
    assert (find_rainbow_star(permute(col, vperm, cperm), pat) is None) == verdict
    assert (find_rainbow_star(reverse(col), pat.reversed()) is None) == verdict


def test_prefilter_alone_is_not_decisive():
    # every vertex sees all colors both ways, yet no rainbow out-star of
    # size q exists: the per-center bipartite matching stays at q-1
    out = build(ConstructionFamily.REMARK_CN, 8, 8, 0, 8)
    col = out.collection
    assert classify_vertices(col, StarPattern(0, 8)).violators == tuple(range(1, 9))
    assert find_rainbow_star(col, StarPattern(0, 8)) is None
    out_masks = col.color_masks()[1]
    assert all(
        len(_match_leaves(_leaf_colors(col.out_neighbors, v, out_masks[v]))) == 7
        for v in range(1, 9)
    )


def _brute_matching_size(adjacency) -> int:
    rights = sorted({r for rs in adjacency.values() for r in rs})
    best = 0
    lefts = list(adjacency)
    for size in range(min(len(lefts), len(rights)), 0, -1):
        for chosen in itertools.permutations(rights, size):
            for subset in itertools.combinations(lefts, size):
                if all(r in adjacency[l] for l, r in zip(subset, chosen)):
                    return size
    return best


@given(st.dictionaries(st.integers(0, 5), st.sets(st.integers(0, 5), max_size=4),
                       max_size=5))
@settings(max_examples=80, deadline=None)
def test_hopcroft_karp_against_brute_force(adjacency):
    adjacency = {left: tuple(sorted(rs)) for left, rs in adjacency.items()}
    matching = hopcroft_karp(adjacency)
    # returned pairs form a matching inside the graph
    assert len(set(matching.values())) == len(matching)
    for left, right in matching.items():
        assert right in adjacency[left]
    assert len(matching) == _brute_matching_size(adjacency)


def test_classification_partitions_vertices():
    col = DigraphCollection.from_edges(
        6,
        3,
        [(1, 1, 2), (2, 1, 3), (3, 1, 4), (1, 5, 1), (2, 5, 1), (3, 5, 1),
         (1, 2, 6), (2, 3, 6), (3, 4, 6)],
    )
    report = classify_vertices(col, StarPattern(1, 2))
    groups = (report.a_vertices, report.b_vertices, report.c_vertices, report.violators)
    flat = sorted(v for g in groups for v in g)
    assert flat == [1, 2, 3, 4, 5, 6]
    # vertices 2, 3, 4 touch at most p+q-1 = 2 colors
    assert report.b_vertices == (2, 3, 4)
    # vertex 6 sees 3 in-colors but has out-edges in at most q-1 = 1 color
    assert report.a_vertices == (6,)
    # vertex 5 has out-edges in 3 colors but in-edges in at most p-1 = 0
    assert report.c_vertices == (5,)
    assert report.violators == (1,)


def _disjoint_choice_exists(in_mask: int, out_mask: int, p: int, q: int) -> bool:
    in_colors = [i for i in range(4) if in_mask >> i & 1]
    out_colors = [i for i in range(4) if out_mask >> i & 1]
    return any(
        not set(chosen_in) & set(chosen_out)
        for chosen_in in itertools.combinations(in_colors, p)
        for chosen_out in itertools.combinations(out_colors, q)
    )


def test_color_screen_matches_enumeration_and_picks_the_violators():
    # the closed form |I| >= p, |O| >= q, |I ∪ O| >= p+q against every
    # choice of disjoint P ⊆ I, Q ⊆ O, for all masks over c <= 4 colors
    for in_mask, out_mask in itertools.product(range(16), repeat=2):
        for p, q in itertools.product(range(4), repeat=2):
            if p + q:
                assert _colors_suffice(in_mask, out_mask, p, q) == \
                    _disjoint_choice_exists(in_mask, out_mask, p, q), (in_mask, out_mask, p, q)
    # classify_vertices' violators are exactly the centers the screen passes
    rng = random.Random(20261019)
    for _ in range(60):
        n, c = rng.randint(2, 10), rng.randint(1, 5)
        dense = random_collection(rng, n, c, rng.uniform(0.05, 0.6))
        sparse = DigraphCollection.from_edges(n, c, dense.all_edges(), 0)
        size = rng.randint(1, 4)
        p = rng.randint(0, size)
        pat = StarPattern(p, size - p)
        assert (dense.storage_kind, sparse.storage_kind) == ("dense", "sparse")
        for col in (dense, sparse):
            in_masks, out_masks = col.color_masks()
            passing = tuple(v for v in range(1, n + 1)
                            if _colors_suffice(in_masks[v], out_masks[v], pat.p, pat.q))
            assert classify_vertices(col, pat).violators == passing


@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_classification_by_color_listings(n, c, seed):
    col = random_collection(random.Random(seed), n, c, 0.5)
    pat = StarPattern(1, 1)
    report = classify_vertices(col, pat)
    sparse = DigraphCollection.from_edges(n, c, col.all_edges(), 0)
    for other in (pat, StarPattern(0, 2), StarPattern(2, 1)):
        assert classify_vertices(sparse, other) == classify_vertices(col, other)
    for i in range(1, c + 1):
        for v in report.a_by_color[i - 1]:
            assert v in report.a_vertices
            assert col.out_neighbors(i, v)
        for v in report.c_by_color[i - 1]:
            assert v in report.c_vertices
            assert col.in_neighbors(i, v)
        for v in report.b_by_color[i - 1]:
            assert v in report.b_vertices
            assert col.out_neighbors(i, v) or col.in_neighbors(i, v)


def clique_with_isolated_vertex(k: int, c: int) -> DigraphCollection:
    # K_k complete in every color plus vertex k+1 with no edges: a star
    # exists iff p+q <= min(k-1, c), so p+q = k is a near miss
    return DigraphCollection.from_edges(k + 1, c, complete_collection(k, c).all_edges())


def ascending_chain(length: int) -> DigraphCollection:
    # out-star at center 1: leaf j+1 in colors j and j+1 (j = 1..L), leaf
    # L+2 in color 1 only; its single rainbow (0, L+1) star is found last
    edges = [(1, 1, length + 2)]
    for j in range(1, length + 1):
        edges += [(j, 1, j + 1), (j + 1, 1, j + 1)]
    return DigraphCollection.from_edges(length + 2, length + 1, edges)


def detector_corpus():
    """(collection, pattern) pairs: seeded random collections, clique near
    misses and narrow hits, ascending chains, and the REMARK_CN instance."""
    rng = random.Random(20261018)
    for _ in range(2000):
        n = rng.randint(2, 12)
        c = rng.randint(1, 6)
        col = random_collection(rng, n, c, rng.uniform(0.1, 0.8))
        size = rng.randint(1, 5)
        p = rng.randint(0, size)
        yield col, StarPattern(p, size - p)
    for k in (4, 5, 6):
        for c in (k - 1, k, k + 1):
            col = clique_with_isolated_vertex(k, c)
            for size in (k - 1, k):
                for p in range(size + 1):
                    # the two-sided near misses of K_6 are left out, as when
                    # the digest was fixed; test_two_sided_clique_near_misses
                    # _are_free decides them
                    if size == 6 and 0 < p < 6:
                        continue
                    yield col, StarPattern(p, size - p)
    for length in range(4, 11):
        col = ascending_chain(length)
        yield col, StarPattern(0, length + 1)
        yield reverse(col), StarPattern(length + 1, 0)
    yield build(ConstructionFamily.REMARK_CN, 8, 8, 0, 8).collection, StarPattern(0, 8)


# sha256 over one repr line per corpus entry: n, c, p, q, the embedding
# find_rainbow_star returns (center, in_leaves, out_leaves) or None, the
# classify_vertices fields, and for p = 0 the matching_fastpath_p0 result;
# fixed before the detector's per-center search was restructured, and kept
# when its three searches became one checked slot walk
DETECTOR_DIGEST = "0589ba6680d9c3e621fa8b975b1aa768b0e340f096473074646fe03420735be5"


def test_detector_answers_pinned():
    digest = hashlib.sha256()
    entries = 0
    for col, pat in detector_corpus():
        emb = find_rainbow_star(col, pat)
        found = None if emb is None else (emb.center, emb.in_leaves, emb.out_leaves)
        report = classify_vertices(col, pat)
        classified = (
            report.a_vertices, report.b_vertices, report.c_vertices, report.violators,
            report.a_by_color, report.b_by_color, report.c_by_color,
        )
        record = (col.n, col.c, pat.p, pat.q, found, classified)
        if pat.p == 0:
            fast = matching_fastpath_p0(col, pat.q)
            record += (None if fast is None else (fast.center, fast.in_leaves, fast.out_leaves),)
        digest.update((repr(record) + "\n").encode())
        entries += 1
    assert entries == 2099
    assert digest.hexdigest() == DETECTOR_DIGEST


# the worst cases of an unchecked slot walk, each decided well inside a
# second of CPU time by the checked one: the clique near misses fail the
# joint matching of neighbours to colors at the root, the chains are
# one-sided, so their walk never backs up, and A_k fails the joint matching
# at its second in slot, so the walk backs up over k+1 first choices only

def timed_find(col, pat, limit=1.0):
    start = time.process_time()
    emb = find_rainbow_star(col, pat)
    assert time.process_time() - start < limit, (col.n, col.c, pat)
    return emb


@pytest.mark.parametrize("k,p,q", [(7, 4, 3), (8, 4, 4)])
def test_clique_probes_are_free(k, p, q):
    assert timed_find(clique_with_isolated_vertex(k, k), StarPattern(p, q)) is None


@pytest.mark.parametrize("c", [6, 7])
def test_two_sided_clique_near_misses_are_free(c):
    # the K_6 near misses detector_corpus leaves out
    col = clique_with_isolated_vertex(6, c)
    for p in range(1, 6):
        assert timed_find(col, StarPattern(p, 6 - p)) is None


def a_k_edges(k: int) -> set[tuple[int, int, int]]:
    # center 1 with in-leaves a_j = 1+j and out-leaves b_j = 1+k+j (j = 1..k):
    # a_j -> 1 and 1 -> b_j in the shared colors 1..k+1, and 1 -> a_j in its
    # own color k+1+j.  No (k, k) star: the in-leaves must be every a_j, and
    # they leave one shared color for the b_j.  The center still passes all
    # three matchings, so no root test decides it
    edges = {(k + 1 + j, 1, 1 + j) for j in range(1, k + 1)}
    edges |= {(i, 1 + j, 1) for i in range(1, k + 2) for j in range(1, k + 1)}
    return edges | {(i, 1, 1 + k + j) for i in range(1, k + 2) for j in range(1, k + 1)}


def a_k(k: int, extra=()) -> DigraphCollection:
    return DigraphCollection.from_edges(2 * k + 1, 2 * k + 1, sorted(a_k_edges(k) | set(extra)))


@pytest.mark.parametrize("k", [8, 12])
def test_a_k_probes_are_free(k):
    assert timed_find(a_k(k), StarPattern(k, k)) is None


def test_a_k_with_one_edge_added_against_naive():
    # every edge A_2 lacks, and the nine b_j -> 1 edges in an own color that
    # each give A_3 a star (b_j then takes an in slot and frees an a_j)
    pat = StarPattern(2, 2)
    assert find_rainbow_star_naive(a_k(2), pat) is None
    stars = 0
    for i, u, w in itertools.product(range(1, 6), repeat=3):
        if u == w or (i, u, w) in a_k_edges(2):
            continue
        col = a_k(2, [(i, u, w)])
        fast = find_rainbow_star(col, pat)
        assert (fast is None) == (find_rainbow_star_naive(col, pat) is None), (i, u, w)
        if fast is not None:
            assert fast.is_valid_in(col)
            stars += 1
    assert stars == 18
    for i in range(5, 8):
        for b in range(5, 8):
            col = a_k(3, [(i, b, 1)])
            fast = find_rainbow_star(col, StarPattern(3, 3))
            assert fast is not None and fast.is_valid_in(col), (i, b)
            assert find_rainbow_star_naive(col, StarPattern(3, 3)) is not None


def test_in_leaves_leave_the_out_colors_free():
    # center 1 with k+2 in-neighbours 2..k+3 in every color 1..2k+1 and k
    # out-neighbours in colors 1..k+1 only, k = 6: the (k, k) star's
    # in-leaves may take one of the out side's colors, so each later in
    # slot must skip k colors that the out matching rules out (an unchecked
    # walk tries every in chain first, 13 s at k = 5)
    k = 6
    edges = [(i, u, 1) for u in range(2, k + 4) for i in range(1, 2 * k + 2)]
    edges += [(i, 1, w) for w in range(k + 4, 2 * k + 4) for i in range(1, k + 2)]
    col = DigraphCollection.from_edges(2 * k + 3, 2 * k + 1, edges)
    emb = timed_find(col, StarPattern(k, k))
    assert emb.in_leaves == ((2, 1),) + tuple((2 + j, k + 1 + j) for j in range(1, k))
    assert emb.out_leaves == tuple((k + 3 + j, 1 + j) for j in range(1, k + 1))


@pytest.mark.parametrize("length", [18, 1500])
def test_chain_probes_find_the_known_star(length):
    leaves = tuple((j + 1, j + 1) for j in range(1, length + 1)) + ((length + 2, 1),)
    col = ascending_chain(length)
    emb = timed_find(col, StarPattern(0, length + 1))
    assert (emb.center, emb.in_leaves, emb.out_leaves) == (1, (), leaves)
    emb = timed_find(reverse(col), StarPattern(length + 1, 0))
    assert (emb.center, emb.in_leaves, emb.out_leaves) == (1, leaves, ())
    assert emb.is_valid_in(reverse(col))



@pytest.mark.parametrize("q", [2, 3, 4])
def test_out_star_search_leaves_the_sparse_in_side_unbuilt(q):
    # a sparse collection builds its in side for in-queries, a (0, q)
    # search reads out-colors only, and classification reads the
    # in-colors off the out side; with q = 4 no center has a star, so every
    # center is scanned
    rng = random.Random(q)
    edges = {(rng.randint(1, 3), *rng.sample(range(1, 201), 2)) for _ in range(600)}
    col = DigraphCollection.from_edges(200, 3, sorted(edges), 0)
    assert col.storage_kind == "sparse" and col._store._in is None
    emb = find_rainbow_star(col, StarPattern(0, q))
    assert (emb is None) == (q == 4)
    assert col._store._in is None
    dense = DigraphCollection.from_edges(200, 3, sorted(edges))
    assert emb == find_rainbow_star(dense, StarPattern(0, q))
    report = classify_vertices(col, StarPattern(0, q))
    assert col._store._in is None
    assert report == classify_vertices(dense, StarPattern(0, q))


def test_two_sided_search_screened_by_color_masks_leaves_the_in_side_unbuilt():
    # with 3 colors no center has the 4 colors a (2, 2) star needs; the
    # screen reads every center's in-colors off the color masks, so no
    # in-neighbour query runs and the sparse in side is never built
    rng = random.Random(11)
    edges = sorted({(rng.randint(1, 3), *rng.sample(range(1, 601), 2)) for _ in range(1500)})
    col = DigraphCollection.from_edges(600, 3, edges)
    assert col.storage_kind == "sparse"
    assert find_rainbow_star(col, StarPattern(2, 2)) is None
    assert col._store._in is None


def test_deep_two_sided_star_is_found():
    # center 1 has in-leaf 1+j in color j and out-leaf 601+j in color 600+j
    # (j = 1..600): the (600, 600) star is deeper than the recursion limit
    half = 600
    edges = [(j, 1 + j, 1) for j in range(1, half + 1)]
    edges += [(half + j, 1, 1 + half + j) for j in range(1, half + 1)]
    col = DigraphCollection.from_edges(2 * half + 1, 2 * half, edges)
    emb = timed_find(col, StarPattern(half, half))
    assert emb.in_leaves == tuple((1 + j, j) for j in range(1, half + 1))
    assert emb.out_leaves == tuple((1 + half + j, half + j) for j in range(1, half + 1))

def one_sided_corpus():
    """(collection, pattern) pairs with p = 0 or q = 0: the ascending chains
    L <= 12 in both orientations, and seeded random collections (n up to 20)
    under one-sided patterns with p+q <= 7."""
    for length in range(1, 13):
        col = ascending_chain(length)
        yield col, StarPattern(0, length + 1)
        yield reverse(col), StarPattern(length + 1, 0)
    rng = random.Random(20261107)
    for _ in range(2200):
        n = rng.randint(3, 20)
        c = rng.randint(1, 8)
        col = random_collection(rng, n, c, rng.uniform(0.03, 0.5))
        size = rng.randint(1, 7)
        yield col, StarPattern(0, size) if rng.random() < 0.5 else StarPattern(size, 0)


# sha256 over one repr line per one_sided_corpus entry: n, c, p, q and the
# embedding find_rainbow_star returns (center, in_leaves, out_leaves) or
# None; fixed before the one-sided slot walk became a checked greedy walk
ONE_SIDED_DIGEST = "a19c1abdb005304dffd138c643b9fbe7bd1a28dc5cb9e7b3fa06661983ec06fd"


def test_one_sided_embeddings_pinned():
    digest = hashlib.sha256()
    entries = 0
    for col, pat in one_sided_corpus():
        emb = find_rainbow_star(col, pat)
        found = None if emb is None else (emb.center, emb.in_leaves, emb.out_leaves)
        digest.update((repr((col.n, col.c, pat.p, pat.q, found)) + "\n").encode())
        entries += 1
    assert entries == 2224
    assert digest.hexdigest() == ONE_SIDED_DIGEST


def test_one_sided_verdicts_against_networkx_matching():
    # a (0, q) star at v is a matching of q out-leaves to distinct colors,
    # and a (p, 0) star one of p in-leaves; each pattern is set at the
    # largest matching number over the centers (a narrow hit) or one above
    # it (a near miss), so the scan has to tell the two apart
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261108)
    for trial in range(150):
        n = rng.randint(3, 24)
        c = rng.randint(1, 9)
        col = random_collection(rng, n, c, rng.uniform(0.03, 0.4))
        side = rng.choice(("out", "in"))
        neighbors = col.out_neighbors if side == "out" else col.in_neighbors
        numbers = []
        for v in range(1, n + 1):
            graph = nx.Graph()
            leaves = set()
            for i in range(1, c + 1):
                for w in neighbors(i, v):
                    leaves.add(("leaf", w))
                    graph.add_edge(("leaf", w), ("color", i))
            matching = nx.bipartite.hopcroft_karp_matching(graph, top_nodes=leaves)
            numbers.append(len(matching) // 2)
        size = max(numbers) + rng.randint(0, 1)
        if size == 0:
            continue
        pat = StarPattern(0, size) if side == "out" else StarPattern(size, 0)
        emb = find_rainbow_star(col, pat)
        centers = [v for v in range(1, n + 1) if numbers[v - 1] >= size]
        if not centers:
            assert emb is None, (trial, pat)
        else:
            assert emb is not None and emb.is_valid_in(col), (trial, pat)
            assert emb.center == centers[0], (trial, pat)
