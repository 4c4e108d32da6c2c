"""Rainbow star detection and the vertex classification it induces.

A rainbow star with pattern (p, q) at center v consists of p in-edges and q
out-edges at v whose leaf vertices are pairwise distinct (and distinct from v)
and whose p+q colors are pairwise distinct.  `find_rainbow_star` is the
production search: it decides each center with one walk over the p+q leaf
slots, which takes a candidate only while leaf-to-color matchings of what is
left still cover the slots left.  Deciding a center is exact matching in
general, so no walk is polynomial on every input, but a one-sided pattern's
walk never backs up.  `find_rainbow_star_naive` re-decides by raw
enumeration, independently of it.  `matching_fastpath_p0` re-decides the
p=0 case by one maximum matching per center; it shares `_leaf_colors` and
`_match_leaves` with `find_rainbow_star`, so it checks the walk and the
screen, not the matching.

All functions are pure reads of an immutable collection.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import permutations

from .model import DigraphCollection, StarEmbedding, StarPattern, _mask_to_vertices

NAIVE_WORK_GUARD = 400


@dataclass(frozen=True)
class ClassificationReport:
    """Partition of the vertex set by color-degree spread.

    b_vertices: incident to edges of at most p+q-1 colors.
    a_vertices: not in B, out-edges in at most q-1 colors.
    c_vertices: not in B or A, in-edges in at most p-1 colors.
    violators: the rest; exactly the vertices passing `_colors_suffice`
    (enough in-colors and out-colors for a color-disjoint,
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


def _colors_suffice(in_mask: int, out_mask: int, p: int, q: int) -> bool:
    """Disjoint P ⊆ I, Q ⊆ O with |P| = p, |Q| = q exist; the masks hold I and O.

    Closed form: |I| >= p, |O| >= q, |I ∪ O| >= p+q.  (Put min(p, |I∖O|)
    in-colors outside O first; the rest of P forces Q to avoid only what
    remains, and the union bound is exactly what's needed.)
    """
    return (in_mask.bit_count() >= p and out_mask.bit_count() >= q
            and (in_mask | out_mask).bit_count() >= p + q)


def find_rainbow_star(collection: DigraphCollection, pat: StarPattern):
    """First rainbow star in deterministic scan order, or None.

    Scan order: centers ascending; in-leaf slots before out-leaf slots;
    candidates per slot ordered by (vertex, color) ascending.  The embedding
    returned is the lexicographically first valid assignment in that order.

    Each center's in- and out-colors are read off the collection's
    `color_masks`, computed once per collection, and screened by
    `_colors_suffice`.  A center that passes has its sorted (leaf, color)
    pairs gathered once for each side the pattern uses, out side first,
    and matched: out-leaves to colors, in-leaves to colors and, for a
    two-sided pattern, the center's distinct neighbours to colors.  A
    star's leaves give matchings of size q, p and p+q, so one below that
    rules the center out; otherwise the matchings are the witnesses of one
    checked walk over the p+q leaf slots, `_walk`.
    """
    p, q = pat.p, pat.q
    if collection.n - 1 < p + q:
        return None
    in_masks, out_masks = collection.color_masks()
    in_cands = out_cands = out_match = joint = None
    for v in range(1, collection.n + 1):
        if not _colors_suffice(in_masks[v], out_masks[v], p, q):
            continue
        if q:
            out_cands = _leaf_colors(collection.out_neighbors, v, out_masks[v])
            out_match = _match_leaves(out_cands)
            if len(out_match) < q:
                continue
        if p:
            in_cands = _leaf_colors(collection.in_neighbors, v, in_masks[v])
            in_match = _match_leaves(in_cands)
            if len(in_match) < p:
                continue
        if p and q:
            joint = _augment(_adjacency(in_cands + out_cands), dict(out_match))
            if len(joint) < p + q:
                continue
        emb = _walk(v, p, q, in_cands, out_cands, in_match if p else out_match, out_match, joint)
        if emb is not None:
            return emb
    return None


def _leaf_colors(neighbors, v: int, mask: int) -> list[tuple[int, int]]:
    """Sorted (leaf, color) pairs of one side at v, colors taken from the
    mask in ascending order; `neighbors` is `in_neighbors` or `out_neighbors`."""
    return sorted((w, i) for i in _mask_to_vertices(mask) for w in neighbors(i, v))


def _match_leaves(cands: list[tuple[int, int]]) -> dict[int, int]:
    """Maximum matching {leaf: color} over sorted (leaf, color) pairs; the
    same matching `hopcroft_karp` returns, without re-sorting."""
    return _augment(_adjacency(cands), {})


def _adjacency(pairs) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for w, i in pairs:
        adj.setdefault(w, []).append(i)
    return adj


def _walk(v: int, p: int, q: int, in_cands, out_cands, same, other, joint):
    """The first star at v, or None.

    Slots below p take in-pairs, the rest out-pairs; each side's slots
    follow an ascending chain of its sorted pairs, as the lexicographically
    first star does, and the chain restarts at the first out slot.  A
    candidate (w, i) is taken only while three matchings of the pairs left
    still cover the slots left: in-leaves after w to colors, unused
    out-leaves to colors, and the distinct neighbours still open (in after
    w, or out and unused) to colors.  `same` is the matching of the slot's
    side, `other` the out side's during in slots, and `joint` the merged
    one.  Each is cut by w and i, and augmented over the open pairs only
    when too little of it survives.  The test only prunes, so the walk
    keeps the star unpruned backtracking finds.  With no in slot left the
    out matching is exact, so only in slots are undone and a one-sided
    pattern never backs up.  The last slot is taken untested.
    """
    size = p + q
    out_pairs = set(out_cands) if p > 1 and q else None
    used_leaves: set[int] = set()
    used_colors: set[int] = set()
    trail: list[tuple] = []   # per filled slot: its pair, its index, the state before it
    start = last = 0
    while True:
        k = len(trail)
        inside = k < p
        cands = in_cands if inside else out_cands
        need = (p if inside else size) - k - 1   # slots left on this side
        for idx in range(start, len(cands)):
            w, i = cands[idx]
            if w <= last or i in used_colors or w in used_leaves:
                continue
            if k + 1 == size:
                pairs = tuple(t[:2] for t in trail) + ((w, i),)
                return StarEmbedding(v, pairs[:p], pairs[p:])
            if need:   # `same` already avoids the earlier choices
                same_cut = {u: j for u, j in same.items() if u > w and j != i}
                if len(same_cut) < need:
                    same_cut = _augment(_adjacency(
                        (u, j) for u, j in cands[idx + 1:] if u > w and j != i
                        and j not in used_colors and u not in used_leaves), same_cut)
                    if len(same_cut) < need:
                        continue
            if inside and q:
                other_cut = {u: j for u, j in other.items() if u != w and j != i}
                if len(other_cut) < q:
                    other_cut = _augment(_adjacency(
                        (u, j) for u, j in out_cands if u != w and j != i
                        and j not in used_colors and u not in used_leaves), other_cut)
                    if len(other_cut) < q:
                        continue
            if inside and q and need:
                joint_cut = {u: j for u, j in joint.items() if u != w and j != i
                             and (u > w or (u, j) in out_pairs)}
                if len(joint_cut) < need + q:
                    joint_cut = _augment(_adjacency(
                        [(u, j) for u, j in in_cands[idx + 1:] if u > w and j != i
                         and j not in used_colors]
                        + [(u, j) for u, j in out_cands if u != w and j != i
                           and j not in used_colors and u not in used_leaves]), joint_cut)
                    if len(joint_cut) < need + q:
                        continue
            break
        else:
            if not trail:
                return None
            w, i, idx, last, same, other, joint = trail.pop()
            used_leaves.remove(w)
            used_colors.remove(i)
            start = idx + 1
            continue
        trail.append((w, i, idx, last, same, other, joint))
        used_leaves.add(w)
        used_colors.add(i)
        if k + 1 == p:
            same, other, start, last = other_cut, None, 0, 0
        else:
            same, start, last = same_cut, idx + 1, w
            if inside and q:
                other, joint = other_cut, joint_cut


def find_rainbow_star_naive(collection: DigraphCollection, pat: StarPattern):
    """Reference oracle: enumerate centers, leaf-vertex tuples, color tuples.

    No pruning beyond skipping absent edges.  Guarded by n*c*(p+q) so it is
    only ever run on tiny instances.
    """
    work = collection.n * collection.c * pat.size
    if work > NAIVE_WORK_GUARD:
        raise ValueError(
            f"naive enumeration guard: n*c*(p+q) = {work} exceeds {NAIVE_WORK_GUARD}"
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


def matching_fastpath_p0(collection: DigraphCollection, q: int):
    """Decide (0, q) patterns via maximum bipartite matching per center."""
    if q < 1:
        raise ValueError(f"pattern (0, q) needs q >= 1, got q={q}")
    out_masks = collection.color_masks()[1]
    for v in range(1, collection.n + 1):
        # maximum matching {out-leaf: color}; q or more pairs iff a (0, q)
        # star sits at v
        matching = _match_leaves(_leaf_colors(collection.out_neighbors, v, out_masks[v]))
        if len(matching) >= q:
            pairs = tuple(sorted(matching.items())[:q])
            return StarEmbedding(v, (), pairs)
    return None


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

    Every vertex's in- and out-colors are read off the collection's
    `color_masks` (bit i-1 for color i), which it computes once and shares
    with any star search on it."""
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
