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
    pairs gathered once for each side the pattern uses, out side first;
    each list feeds a maximum matching of leaves to colors, and one below
    q, resp. p, rules the center out.  For a one-sided pattern that
    matching is exact: the center has a star, and `_walk_one_side` reads
    the first one off in polynomial time.  A two-sided pattern must also
    pass a joint matching of the center's distinct neighbours to colors
    (a star's p+q leaves form one of size p+q) before the backtracking of
    `_embed_at_center` runs.
    """
    p, q = pat.p, pat.q
    if collection.n - 1 < p + q:
        return None
    for v in range(1, collection.n + 1):
        in_colors = collection.colors_with_in_edge(v)
        out_colors = collection.colors_with_out_edge(v)
        if not _colors_suffice(in_colors, out_colors, p, q):
            continue
        if q:
            out_cands = _leaf_colors(collection.out_neighbors, v, out_colors)
            out_match = _match_leaves(out_cands)
            if len(out_match) < q:
                continue
            if not p:
                return StarEmbedding(v, (), _walk_one_side(out_cands, out_match, q))
        in_cands = _leaf_colors(collection.in_neighbors, v, in_colors)
        in_match = _match_leaves(in_cands)
        if len(in_match) < p:
            continue
        if not q:
            return StarEmbedding(v, _walk_one_side(in_cands, in_match, p), ())
        if _joint_matching_short(in_cands, out_cands, out_match, p + q):
            continue
        emb = _embed_at_center(v, p, q, in_cands, out_cands)
        if emb is not None:
            return emb
    return None


def _leaf_colors(neighbors, v: int, colors: frozenset[int]) -> list[tuple[int, int]]:
    """Sorted (leaf, color) pairs of one side at v; `neighbors` is the
    collection's `in_neighbors` or `out_neighbors`."""
    return sorted((w, i) for i in colors for w in neighbors(i, v))


def _match_leaves(cands: list[tuple[int, int]]) -> dict[int, int]:
    """Maximum matching {leaf: color} over sorted (leaf, color) pairs; the
    same matching `hopcroft_karp` returns, without re-sorting."""
    return _augment(_adjacency(cands), {})


def _adjacency(pairs) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for w, i in pairs:
        adj.setdefault(w, []).append(i)
    return adj


def _joint_matching_short(in_cands, out_cands, out_match: dict[int, int], size: int) -> bool:
    """True when the center's distinct neighbours, in or out, cannot be
    matched to `size` distinct colors, so no (p, q) star with p+q = size
    is there.  Fewer than `size` neighbours settles it without a matching;
    otherwise the out-side matching is augmented over both sides."""
    adj = _adjacency(in_cands)
    for w, i in out_cands:
        adj.setdefault(w, []).append(i)
    return len(adj) < size or len(_augment(adj, dict(out_match))) < size


def _walk_one_side(cands, witness: dict[int, int], size: int) -> tuple[tuple[int, int], ...]:
    """The first ascending chain of `size` pairs of `cands` (one side's
    sorted (leaf, color) pairs) with distinct leaves and colors.

    `witness` is a matching {leaf: color} of at least `size` pairs, so the
    chain exists.  Slots are filled in turn, and a candidate (w, i) is taken
    iff the leaves after w still match the slots left with colors other
    than i and those already used.  That test is exact, so the candidate
    taken is the one a backtracking search would keep, and no choice is
    undone.  The witness answers the test when enough of its pairs have a
    leaf after w and a color other than i; otherwise those pairs are
    augmented to a maximum matching of what is left, which becomes the
    next witness if it is large enough.
    """
    chosen: list[tuple[int, int]] = []
    used: set[int] = set()
    last = start = 0
    for k in range(size):
        need = size - k - 1
        for idx in range(start, len(cands)):
            w, i = cands[idx]
            if w == last or i in used:
                continue
            rest = {u: j for u, j in witness.items() if u > w and j != i}
            if len(rest) < need:
                taken = used | {i}
                rest = _augment(_adjacency((u, j) for u, j in cands[idx + 1:]
                                           if u > w and j not in taken), rest)
                if len(rest) < need:
                    continue
            witness = rest
            chosen.append((w, i))
            used.add(i)
            last, start = w, idx + 1
            break
    return tuple(chosen)


def _embed_at_center(v: int, p: int, q: int, in_cands, out_cands):
    """Backtracking over the p+q leaf slots at a fixed center (p, q >= 1).

    Slots below p take (leaf, color) pairs from in_cands, the rest from
    out_cands.  Same-role slots follow ascending candidate chains: the
    lexicographically first embedding has sorted in-leaves and sorted
    out-leaves, so restricting to ascending chains returns exactly that
    embedding; the chain restarts at the first out slot.  The choices are
    kept on lists, not on the call stack, so p+q is not bounded by the
    recursion limit.  The search is exponential in
    p+q at worst; `find_rainbow_star` runs it only where both side
    matchings and the joint matching pass.
    """
    size = p + q
    used_vertices = {v}
    used_colors: set[int] = set()
    chosen: list[tuple[int, int]] = []
    indices: list[int] = []   # the candidate index chosen at each filled slot
    start = 0
    while len(chosen) < size:
        k = len(chosen)
        cands = in_cands if k < p else out_cands
        idx = start
        while idx < len(cands) and (cands[idx][0] in used_vertices
                                    or cands[idx][1] in used_colors):
            idx += 1
        if idx < len(cands):
            w, i = cands[idx]
            used_vertices.add(w)
            used_colors.add(i)
            chosen.append((w, i))
            indices.append(idx)
            start = 0 if k + 1 == p else idx + 1
        elif chosen:
            w, i = chosen.pop()
            used_vertices.remove(w)
            used_colors.remove(i)
            start = indices.pop() + 1
        else:
            return None
    return StarEmbedding(v, tuple(chosen[:p]), tuple(chosen[p:]))


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

    Lefts and each left's rights are taken in ascending order; see
    `_augment`.
    """
    return _augment({u: sorted(adjacency[u]) for u in sorted(adjacency)}, {})


def _augment(adjacency: dict[int, list[int]], match_left: dict[int, int]) -> dict[int, int]:
    """Grow `match_left` {left: right} into a maximum matching of
    `adjacency` (left -> rights) and return it; every left it matches must
    be a key of `adjacency`.

    Hopcroft-Karp phases: BFS layers from the free lefts, then a layered
    depth-first augmenting search from each free left in key order, trying
    rights in list order.  The search keeps its path on a list, not on the
    call stack, so its depth is not bounded by the recursion limit.
    Exhausted lefts get infinite distance so no phase revisits them.
    """
    inf = float("inf")
    match_right = {r: u for u, r in match_left.items()}
    while True:
        dist: dict[int, float] = {}
        queue: deque[int] = deque()
        for u in adjacency:
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
        for root in adjacency:
            if root in match_left or dist[root] != 0:
                continue
            # path[d] is the left at depth d and pos[d] the index of the
            # right it is trying; a dead end pops and moves its parent on
            path, pos = [root], [0]
            while path:
                u, k = path[-1], pos[-1]
                rights, step = adjacency[u], dist[u] + 1
                while k < len(rights):
                    w = match_right.get(rights[k])
                    if w is None or dist.get(w, inf) == step:
                        break
                    k += 1
                if k == len(rights):
                    dist[u] = inf
                    path.pop()
                    pos.pop()
                    if pos:
                        pos[-1] += 1
                    continue
                pos[-1] = k
                if w is not None:
                    path.append(w)
                    pos.append(0)
                    continue
                for u, k in zip(path, pos):
                    r = adjacency[u][k]
                    match_left[u] = r
                    match_right[r] = u
                break


def classify_vertices(collection: DigraphCollection, pat: StarPattern) -> ClassificationReport:
    """Partition vertices: B by incidence, then A, then C, rest violators.

    Every vertex's in- and out-colors come from one `color_masks` call,
    as masks (bit i-1 for color i)."""
    p, q = pat.p, pat.q
    in_masks, out_masks = collection.color_masks()
    a_set, b_set, c_set, bad = [], [], [], []
    for v in range(1, collection.n + 1):
        if (in_masks[v] | out_masks[v]).bit_count() <= p + q - 1:
            b_set.append(v)
        elif out_masks[v].bit_count() <= q - 1:
            a_set.append(v)
        elif in_masks[v].bit_count() <= p - 1:
            c_set.append(v)
        else:
            bad.append(v)

    bits = [1 << i for i in range(collection.c)]
    return ClassificationReport(
        pattern=pat,
        a_vertices=tuple(a_set),
        b_vertices=tuple(b_set),
        c_vertices=tuple(c_set),
        violators=tuple(bad),
        a_by_color=tuple(tuple(v for v in a_set if out_masks[v] & bit) for bit in bits),
        b_by_color=tuple(
            tuple(v for v in b_set if (in_masks[v] | out_masks[v]) & bit) for bit in bits
        ),
        c_by_color=tuple(tuple(v for v in c_set if in_masks[v] & bit) for bit in bits),
    )
