"""Rainbow star detection and the vertex classification it induces.

A rainbow star with pattern (p, q) at center v consists of p in-edges and q
out-edges at v whose leaf vertices are pairwise distinct (and distinct from v)
and whose p+q colors are pairwise distinct.  `find_rainbow_star` is the
production search; `find_rainbow_star_naive` re-decides by raw enumeration and
`matching_fastpath_p0` re-decides the p=0 case through bipartite matching, so
the three can cross-check each other.

All functions are pure reads of an immutable collection.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import permutations

from .model import DigraphCollection, StarEmbedding, StarPattern

NAIVE_WORK_GUARD = 400


@dataclass(frozen=True)
class ClassificationReport:
    """Partition of the vertex set by color-degree spread.

    b_vertices: incident to edges of at most p+q-1 colors.
    a_vertices: not in B, out-edges in at most q-1 colors.
    c_vertices: not in B or A, in-edges in at most p-1 colors.
    violators: the rest; exactly the vertices passing the homomorphic
    center test (enough in-colors and out-colors for a color-disjoint,
    vertex-repeating image of the star).

    Per-color breakdowns: a_by_color[i-1] lists A-vertices with an out-edge in
    color i, c_by_color[i-1] lists C-vertices with an in-edge in color i, and
    b_by_color[i-1] lists B-vertices incident to color i at all.
    """

    pattern: StarPattern
    a_vertices: tuple[int, ...]
    b_vertices: tuple[int, ...]
    c_vertices: tuple[int, ...]
    violators: tuple[int, ...]
    a_by_color: tuple[tuple[int, ...], ...]
    b_by_color: tuple[tuple[int, ...], ...]
    c_by_color: tuple[tuple[int, ...], ...]

    @property
    def size_a(self) -> int:
        return len(self.a_vertices)

    @property
    def size_b(self) -> int:
        return len(self.b_vertices)

    @property
    def size_c(self) -> int:
        return len(self.c_vertices)


def detect_homomorphic_center(collection: DigraphCollection, v: int, pat: StarPattern) -> bool:
    """Can v center a star image when leaf vertices may coincide?

    True iff disjoint color sets P ⊆ in_colors(v), Q ⊆ out_colors(v) with
    |P| = p, |Q| = q exist; see `_colors_suffice`.
    """
    return _colors_suffice(
        collection.colors_with_in_edge(v), collection.colors_with_out_edge(v), pat.p, pat.q
    )


def _colors_suffice(in_colors: frozenset[int], out_colors: frozenset[int], p: int, q: int) -> bool:
    """Disjoint P ⊆ in_colors, Q ⊆ out_colors with |P| = p, |Q| = q exist.

    Closed form: |I| >= p, |O| >= q, |I ∪ O| >= p+q.  (Put min(p, |I∖O|)
    in-colors outside O first; the rest of P forces Q to avoid only what
    remains, and the union bound is exactly what's needed.)
    """
    return len(in_colors) >= p and len(out_colors) >= q and len(in_colors | out_colors) >= p + q


def find_rainbow_star(collection: DigraphCollection, pat: StarPattern):
    """First rainbow star in deterministic scan order, or None.

    Scan order: centers ascending; in-leaf slots before out-leaf slots;
    candidates per slot ordered by (vertex, color) ascending.  The embedding
    returned is the lexicographically first valid assignment in that order.

    Each center's in- and out-color sets are read once and screened by
    `_colors_suffice`.  A center that passes has its sorted (leaf, color)
    pairs gathered once per side, out side first; each list feeds a maximum
    matching of leaves to colors (one below q, resp. p, rules the center
    out, and the in side is only gathered once the out side passes) and
    then the slot walk of `_embed_at_center`.  For one-sided patterns the
    out-side matching is exact, so the walk only ever runs where a witness
    exists.
    """
    p, q = pat.p, pat.q
    if collection.n - 1 < p + q:
        return None
    for v in range(1, collection.n + 1):
        in_colors = collection.colors_with_in_edge(v)
        out_colors = collection.colors_with_out_edge(v)
        if not _colors_suffice(in_colors, out_colors, p, q):
            continue
        out_cands = _leaf_colors(collection.out_neighbors, v, out_colors)
        if q and len(_match_leaves(out_cands)) < q:
            continue
        in_cands = _leaf_colors(collection.in_neighbors, v, in_colors)
        if p and len(_match_leaves(in_cands)) < p:
            continue
        emb = _embed_at_center(v, p, q, in_cands, out_cands, in_colors, out_colors)
        if emb is not None:
            return emb
    return None


def _leaf_colors(neighbors, v: int, colors: frozenset[int]) -> list[tuple[int, int]]:
    """Sorted (leaf, color) pairs of one side at v; `neighbors` is the
    collection's `in_neighbors` or `out_neighbors`."""
    return sorted((w, i) for i in colors for w in neighbors(i, v))


def _match_leaves(cands: list[tuple[int, int]]) -> dict[int, int]:
    """Maximum matching of leaves to colors over (leaf, color) pairs."""
    adj: dict[int, list[int]] = {}
    for w, i in cands:
        adj.setdefault(w, []).append(i)
    return hopcroft_karp(adj)


def _embed_at_center(v: int, p: int, q: int, in_cands, out_cands, in_colors, out_colors):
    """Backtracking over the p+q leaf slots at a fixed center.

    Slots below p take (leaf, color) pairs from in_cands, the rest from
    out_cands.  Same-role slots follow ascending candidate chains: the
    lexicographically first embedding has sorted in-leaves and sorted
    out-leaves, so restricting to ascending chains returns exactly that
    embedding; the chain restarts at the first out slot.  After each choice
    `_colors_suffice` on the unused colors prunes: ignoring vertex
    distinctness, the remaining slots are fillable iff it holds for the
    in- and out-slots still open, which a per-slot table gives.
    """
    size = p + q
    # per slot: its candidates, and the (in, out) slots still open after it
    slots = [(in_cands, p - k - 1, q) for k in range(p)]
    slots += [(out_cands, 0, q - k - 1) for k in range(q)]
    used_vertices = {v}
    used_colors: set[int] = set()
    chosen: list[tuple[int, int]] = []

    def fill(k: int, start: int) -> bool:
        if k == size:
            return True
        cands, need_in, need_out = slots[k]
        for idx in range(0 if k == p else start, len(cands)):
            w, i = cands[idx]
            if w in used_vertices or i in used_colors:
                continue
            used_vertices.add(w)
            used_colors.add(i)
            chosen.append((w, i))
            left_in, left_out = in_colors - used_colors, out_colors - used_colors
            if _colors_suffice(left_in, left_out, need_in, need_out) and fill(k + 1, idx + 1):
                return True
            chosen.pop()
            used_colors.remove(i)
            used_vertices.remove(w)
        return False

    if fill(0, 0):
        return StarEmbedding(v, tuple(chosen[:p]), tuple(chosen[p:]))
    return None


def find_rainbow_star_naive(collection: DigraphCollection, pat: StarPattern, max_work: int = NAIVE_WORK_GUARD):
    """Reference oracle: enumerate centers, leaf-vertex tuples, color tuples.

    No pruning beyond skipping absent edges.  Guarded by n*c*(p+q) so it is
    only ever run on tiny instances.
    """
    work = collection.n * collection.c * pat.size
    if work > max_work:
        raise ValueError(
            f"naive enumeration guard: n*c*(p+q) = {work} exceeds {max_work}"
        )
    p, q = pat.p, pat.q
    vertices = range(1, collection.n + 1)
    for v in vertices:
        others = [u for u in vertices if u != v]
        for in_tuple in permutations(others, p):
            taken = set(in_tuple)
            rest = [u for u in others if u not in taken]
            for out_tuple in permutations(rest, q):
                emb = _color_tuples(collection, v, in_tuple, out_tuple)
                if emb is not None:
                    return emb
    return None


def _color_tuples(collection, v, in_tuple, out_tuple):
    """Injective color assignment to fixed leaf tuples, by exhaustive search."""
    edges = [(u, v) for u in in_tuple] + [(v, w) for w in out_tuple]
    chosen: list[int] = []

    def assign(k: int) -> bool:
        if k == len(edges):
            return True
        u, w = edges[k]
        for i in range(1, collection.c + 1):
            if i in chosen or not collection.has_edge(i, u, w):
                continue
            chosen.append(i)
            if assign(k + 1):
                return True
            chosen.pop()
        return False

    if not assign(0):
        return None
    p = len(in_tuple)
    in_leaves = tuple((u, chosen[k]) for k, u in enumerate(in_tuple))
    out_leaves = tuple((w, chosen[p + k]) for k, w in enumerate(out_tuple))
    return StarEmbedding(v, in_leaves, out_leaves)


def out_edge_matching_number(collection: DigraphCollection, v: int) -> int:
    """Maximum matching between out-neighbor slots of v and colors.

    The bipartite graph joins u to color i iff v -> u is an edge of G_i; a
    matching of size q is exactly a rainbow (0, q) star at v.
    """
    return len(_center_out_matching(collection, v))


def matching_fastpath_p0(collection: DigraphCollection, q: int):
    """Decide (0, q) patterns via maximum bipartite matching per center."""
    if q < 1:
        raise ValueError(f"pattern (0, q) needs q >= 1, got q={q}")
    for v in range(1, collection.n + 1):
        matching = _center_out_matching(collection, v)
        if len(matching) >= q:
            pairs = tuple(sorted(matching.items())[:q])
            return StarEmbedding(v, (), pairs)
    return None


def _center_out_matching(collection: DigraphCollection, v: int) -> dict[int, int]:
    return _match_leaves(_leaf_colors(collection.out_neighbors, v, collection.colors_with_out_edge(v)))


def hopcroft_karp(adjacency: dict[int, tuple[int, ...]]) -> dict[int, int]:
    """Maximum bipartite matching as {left: right}; deterministic.

    Phase structure: BFS layers from free left vertices, then layered DFS
    augmentation.  Exhausted vertices get infinite distance so no phase
    revisits them.
    """
    adjacency = {u: tuple(sorted(rights)) for u, rights in adjacency.items()}
    inf = float("inf")
    match_left: dict[int, int] = {}
    match_right: dict[int, int] = {}
    lefts = sorted(adjacency)

    while True:
        dist: dict[int, float] = {}
        queue: deque[int] = deque()
        for u in lefts:
            if u not in match_left:
                dist[u] = 0
                queue.append(u)
        reachable_free_right = False
        while queue:
            u = queue.popleft()
            for r in adjacency[u]:
                w = match_right.get(r)
                if w is None:
                    reachable_free_right = True
                elif w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not reachable_free_right:
            return match_left

        def augment(u: int) -> bool:
            for r in adjacency[u]:
                w = match_right.get(r)
                if w is None or (dist.get(w, inf) == dist[u] + 1 and augment(w)):
                    match_left[u] = r
                    match_right[r] = u
                    return True
            dist[u] = inf
            return False

        for u in lefts:
            if u not in match_left and dist.get(u) == 0:
                augment(u)


def classify_vertices(collection: DigraphCollection, pat: StarPattern) -> ClassificationReport:
    """Partition vertices: B by incidence, then A, then C, rest violators."""
    p, q = pat.p, pat.q
    vertices = range(1, collection.n + 1)
    in_colors = {v: collection.colors_with_in_edge(v) for v in vertices}
    out_colors = {v: collection.colors_with_out_edge(v) for v in vertices}
    a_set, b_set, c_set, bad = [], [], [], []
    for v in vertices:
        if len(in_colors[v] | out_colors[v]) <= p + q - 1:
            b_set.append(v)
        elif len(out_colors[v]) <= q - 1:
            a_set.append(v)
        elif len(in_colors[v]) <= p - 1:
            c_set.append(v)
        else:
            bad.append(v)

    colors = range(1, collection.c + 1)
    return ClassificationReport(
        pattern=pat,
        a_vertices=tuple(a_set),
        b_vertices=tuple(b_set),
        c_vertices=tuple(c_set),
        violators=tuple(bad),
        a_by_color=tuple(tuple(v for v in a_set if i in out_colors[v]) for i in colors),
        b_by_color=tuple(
            tuple(v for v in b_set if i in in_colors[v] or i in out_colors[v]) for i in colors
        ),
        c_by_color=tuple(tuple(v for v in c_set if i in in_colors[v]) for i in colors),
    )
