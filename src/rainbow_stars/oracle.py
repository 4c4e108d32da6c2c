"""Exact optima over rainbow-star-free collections.

Two engines.  max_exact is a branch-and-bound over individual edge slots and
works for any pattern, but only at toy sizes (the slot count c*n*(n-1) is
guarded).  Its per-node work is incremental: forward checking asks of each
later slot that can share a star with a new edge only for the rest of that
star, and the bound reads per-color counts of the alive slots left.  Both
objectives search only collections with non-increasing per-color counts
whose first slot is present, and an out-star pattern walks the slots in the
mirror image of its in-star reversal's order, so the two orientations cost
the same.

cover_oracle_s0q handles out-star patterns at moderate n by searching cover
structures instead of edge sets: a collection is free of rainbow (0, q)
stars exactly when each vertex's (target, color) incidence graph has a
vertex cover of size at most q-1, and maximal realizations of covers
dominate everything else, so the search space collapses to per-vertex cover
shapes.  The cover structure, and the cyclic dealer of the sum witness, live
in `constructions`, which builds its out-star families from them too.

For the min objective the cover oracle walks the vertex-type multiplicities
depth first, cutting subtrees by an averaging bound that is linear in them,
and decides each multiplicity left ("can every color reach load t?", first
at the smallest t that beats the incumbent) instead of optimising it.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .bounds import check_objective
from .constructions import CoverStructure, _cyclic_cover, _smallest_targets
from .detector import find_rainbow_star
from .model import DigraphCollection, StarPattern, edge_counts

FIRM_SLOT_GUARD = 36
STRETCH_SLOT_GUARD = 48
COVER_GUARDS = {"n": 64, "c": 8, "q": 6}
DEFAULT_BUDGET_SECS = 60.0
_BUDGET_CHECK_MASK = 0xFFF  # test the clock every 4096 nodes


@dataclass(frozen=True)
class SearchOutcome:
    """nodes_explored is an engine-specific work count: search nodes for
    max_exact; for cover_oracle_s0q (min), walk visits plus feasibility
    nodes (see there)."""

    optimum: int
    witness: DigraphCollection
    objective: str
    proved_optimal: bool
    nodes_explored: int
    elapsed: float


class _BudgetExpired(Exception):
    pass


def max_exact(
    n: int,
    c: int,
    pat: StarPattern,
    objective: str,
    budget_secs: float = DEFAULT_BUDGET_SECS,
    allow_large: bool = False,
) -> SearchOutcome:
    """Exact optimum over all rainbow-free collections at toy size.

    Branch-and-bound over edge slots with include/exclude branching; the
    collection is free at every node.  Slots come in lexicographic (color,
    source, target) order, or (color, target, source) for out-star patterns
    (p = 0): that is the mirror image of the in-star reversal's order, so a
    (0, q) solve runs node for node as its (q, 0) reversal, whose forward
    checks prune harder, and its witness is the reversal's reversed.  For
    p+q = 1 every edge is a star and nothing is included.  For
    p+q >= 2 no single edge is a star, and a slot stays alive while adding
    it completes no star: after an include, forward checking kills the
    later slots it blocks, by pairs.  An alive later slot completed no star
    before, so it is blocked now exactly when some star holds both it and
    the new edge.  Such a slot has another color and meets the new edge
    at the star's center, in roles the pattern allows, with distinct
    leaves; it is killed when that center has the leaves the star still
    needs, outside both colors and the three vertices (none for p+q = 2,
    one for p+q = 3).  Each slot's list of those pairs is built once, before
    the search.  The optimistic bound caps each color at its count plus its
    alive slots from the current index on, kept per color as the walk
    passes slots and forward checking kills them, so it costs O(c).  Two
    symmetry breaks apply to both objectives: per-color counts must be
    non-increasing, and the first slot is forced into every nonempty
    candidate.  They are sound because color relabeling keeps the sum and
    the minimum and can sort the counts, vertex relabeling then puts a
    color-1 edge of any collection worth more than 0 on the first slot,
    and the empty collection is the starting incumbent.

    On budget expiry the best incumbent is returned with
    proved_optimal=False.
    """
    check_objective(objective)
    if n < 1 or c < 1:
        raise ValueError(f"requires n >= 1 and c >= 1, got n={n}, c={c}")
    slot_count = c * n * (n - 1)
    if slot_count > STRETCH_SLOT_GUARD:
        raise ValueError(
            f"instance has c*n*(n-1) = {slot_count} slots, beyond the "
            f"stretch guard {STRETCH_SLOT_GUARD}"
        )
    if slot_count > FIRM_SLOT_GUARD and not allow_large:
        raise ValueError(
            f"instance has c*n*(n-1) = {slot_count} slots, beyond the firm "
            f"guard {FIRM_SLOT_GUARD}; pass allow_large=True to run anyway"
        )
    p, q = pat.p, pat.q
    start = time.monotonic()
    deadline = start + budget_secs

    # (color, target, source) for out-stars: their reversal's order, mirrored
    slots = [
        (i, a, b) if p else (i, b, a)
        for i in range(1, c + 1)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        if a != b
    ]
    total_slots = len(slots)
    out_masks = [[0] * (n + 1) for _ in range(c + 1)]
    in_masks = [[0] * (n + 1) for _ in range(c + 1)]
    counts = [0] * (c + 1)
    chosen: list[tuple[int, int, int]] = []
    alive = [True] * total_slots
    # alive slots at or after the current index, per color
    remaining = [0] * (c + 1)
    for i, _, _ in slots:
        remaining[i] += 1
    best_value = 0
    best_edges: list[tuple[int, int, int]] = []
    nodes = 0

    def leaves(center: int, need_in: int, need_out: int, used_v: int, used_c: int) -> bool:
        """need_in in-leaves and need_out out-leaves at center, at least one
        in all, in distinct colors outside used_c and at distinct vertices
        outside used_v."""
        masks = in_masks if need_in else out_masks
        after = (need_in - 1, need_out) if need_in else (need_in, need_out - 1)
        last = after == (0, 0)
        for i in range(1, c + 1):
            bit_i = 1 << (i - 1)
            if used_c & bit_i:
                continue
            cand = masks[i][center] & ~used_v
            if last and cand:
                return True
            while cand:
                low = cand & -cand
                cand ^= low
                if leaves(center, *after, used_v | low, used_c | bit_i):
                    return True
        return False

    def pair_checks(idx: int, i: int, u: int, v: int) -> list[tuple[int, int, int, int, int, int]]:
        """(j, center, need_in, need_out, used_v, used_c) for each later
        slot j = (k, x, y) that can join the new edge (i, u, v) in a star:
        another color, and a center in common where both fit the pattern,
        with distinct leaves.  The rest is the leaves that star still needs,
        outside both colors and its three vertices."""
        used_uv = 1 << (u - 1) | 1 << (v - 1)
        found = []
        for j in range(idx + 1, total_slots):
            k, x, y = slots[j]
            if k == i:
                continue
            if x == u and y != v and q >= 2:      # both out-leaves at u
                center, leaf, need_in, need_out = u, y, p, q - 2
            elif y == u and x != v and p and q:   # j an in-leaf at u
                center, leaf, need_in, need_out = u, x, p - 1, q - 1
            elif x == v and y != u and p and q:   # j an out-leaf at v
                center, leaf, need_in, need_out = v, y, p - 1, q - 1
            elif y == v and x != u and p >= 2:    # both in-leaves at v
                center, leaf, need_in, need_out = v, x, p - 2, q
            else:
                continue
            found.append((j, center, need_in, need_out,
                          used_uv | 1 << (leaf - 1), 1 << (i - 1) | 1 << (k - 1)))
        return found

    # per slot, the later slots that can share a star with it, each with the
    # rest of that star to look for
    pairs = [pair_checks(idx, *slots[idx]) for idx in range(total_slots)]
    whole = p + q == 2  # a pair is then a whole star, and needs no more leaves

    def bound() -> int:
        if objective == "min":
            return min(counts[i] + remaining[i] for i in range(1, c + 1))
        total = 0
        ceiling = None
        for i in range(1, c + 1):
            cap = counts[i] + remaining[i]
            ceiling = cap if ceiling is None else min(ceiling, cap)
            total += ceiling
        return total

    def search(idx: int) -> None:
        nonlocal nodes, best_value, best_edges
        nodes += 1
        if nodes & _BUDGET_CHECK_MASK == 0 and time.monotonic() > deadline:
            raise _BudgetExpired
        if idx == total_slots:
            value = sum(counts[1:]) if objective == "sum" else min(counts[1:])
            if value > best_value:
                best_value = value
                best_edges = list(chosen)
            return
        if bound() <= best_value:
            return
        i, u, v = slots[idx]
        here = alive[idx]
        if here:
            remaining[i] -= 1
        # an alive slot completes a star only for p+q = 1; per-color counts
        # stay non-increasing
        if here and p + q >= 2 and not (i > 1 and counts[i] >= counts[i - 1]):
            out_masks[i][u] |= 1 << (v - 1)
            in_masks[i][v] |= 1 << (u - 1)
            counts[i] += 1
            chosen.append((i, u, v))
            killed = [j for j, center, need_in, need_out, used_v, used_c in pairs[idx]
                      if alive[j] and (whole or leaves(center, need_in, need_out, used_v, used_c))]
            for j in killed:
                alive[j] = False
                remaining[slots[j][0]] -= 1
            search(idx + 1)
            for j in killed:
                alive[j] = True
                remaining[slots[j][0]] += 1
            chosen.pop()
            counts[i] -= 1
            out_masks[i][u] &= ~(1 << (v - 1))
            in_masks[i][v] &= ~(1 << (u - 1))
        # a collection worth more than the empty starting incumbent has a
        # color-1 edge once colors are sorted, and relabels so that edge is
        # the first slot
        if idx > 0:
            search(idx + 1)
        if here:
            remaining[i] += 1

    try:
        search(0)
        proved = True
    except _BudgetExpired:
        proved = False

    witness = DigraphCollection.from_edges(n, c, best_edges)
    _certify(witness, pat, objective, best_value)
    return SearchOutcome(
        optimum=best_value,
        witness=witness,
        objective=objective,
        proved_optimal=proved,
        nodes_explored=nodes,
        elapsed=time.monotonic() - start,
    )


def _certify(witness: DigraphCollection, pat: StarPattern, objective: str, value: int) -> None:
    emb = find_rainbow_star(witness, pat)
    if emb is not None:
        raise RuntimeError(f"internal error: witness contains a rainbow star at {emb.center}")
    summary = edge_counts(witness)
    attained = summary.total if objective == "sum" else summary.minimum
    if attained != value:
        raise RuntimeError(
            f"internal error: witness attains {attained}, oracle reported {value}"
        )


def cover_oracle_s0q(n: int, c: int, q: int, objective: str) -> SearchOutcome:
    """Exact optimum for (0, q) patterns via cover-shape search.

    Domain n > c >= q >= 1 (smaller n is closed-form territory, handled by
    the bound evaluators).  Every free collection is dominated by the
    maximal realization of a cover structure, and for those the objectives
    depend only on each vertex's split a_v + b_v <= q-1.  The sum objective
    separates per vertex.

    The min objective is solved exactly in two layers.  Outer: a depth-first
    walk over type multiplicities in lexicographic order, after two seed
    shapes set the incumbent.  c times the averaging bound
    b_total + token_weight // c grows by a fixed coef[a] per type-a vertex,
    so a prefix whose remaining vertices all take the largest coefficient
    left bounds its whole subtree, and the subtree is cut when that bound
    does not beat the incumbent.  Inner: for each multiplicity reached, the
    color-cover tokens are dealt to colors as per-color allocation vectors
    (built once, ascending by load).  Whether every color can reach load t
    is a decision search over colors, memoised per t on (colors left,
    tokens left) and cut when the tokens left cannot average t; only
    minimal vectors (no token removable while still reaching t) are tried.
    It is asked first at the smallest t that beats the incumbent, so a
    losing multiplicity costs one infeasibility proof; otherwise the exact
    value is found by bisection up to the averaging bound.  The memo keeps,
    for each (colors left, tokens left), the first vector in ascending
    order whose rest stays feasible, so the layout is read back from it
    color by color.  Each type's tokens, listed color by color, are then
    dealt to its vertices in turn.

    nodes_explored counts walk visits plus feasibility nodes (memo misses
    whose vectors were enumerated); it is 1 for q = 1 and q for the sum.
    The witness is re-certified by the detector before it is returned.
    """
    check_objective(objective)
    if not (n > c >= q >= 1):
        raise ValueError(
            f"requires n > c >= q >= 1, got n={n}, c={c}, q={q} "
            "(n <= c cases have closed forms in the bound evaluators)"
        )
    if n > COVER_GUARDS["n"] or c > COVER_GUARDS["c"] or q > COVER_GUARDS["q"]:
        raise ValueError(
            f"practical guards n <= {COVER_GUARDS['n']}, c <= {COVER_GUARDS['c']}, "
            f"q <= {COVER_GUARDS['q']}; got n={n}, c={c}, q={q}"
        )
    start = time.monotonic()
    if objective == "sum":
        value, structure, nodes = _cover_sum(n, c, q)
    else:
        value, structure, nodes = _cover_min(n, c, q)
    witness = structure.realize()
    _certify(witness, StarPattern(0, q), objective, value)
    return SearchOutcome(
        optimum=value,
        witness=witness,
        objective=objective,
        proved_optimal=True,
        nodes_explored=nodes,
        elapsed=time.monotonic() - start,
    )


def _type_value(a: int, n: int, c: int, q: int) -> int:
    # a covered colors contribute n-1 edges each; the other colors stop at
    # the q-1-a covered targets
    return a * (n - 1) + (c - a) * (q - 1 - a)


def _cover_sum(n: int, c: int, q: int) -> tuple[int, CoverStructure, int]:
    values = [_type_value(a, n, c, q) for a in range(q)]
    best_a = max(range(q), key=lambda a: (values[a], -a))
    # token spread is irrelevant to the total; deal consecutive colors
    # cyclically so the witness is balanced anyway
    return n * values[best_a], _cyclic_cover(n, c, q, best_a, n * best_a), q


def _cover_min(n: int, c: int, q: int) -> tuple[int, CoverStructure, int]:
    # A type-a vertex covers a colors (its count contribution there is n-1)
    # and b = q-1-a targets (contributing b to every other color), so with
    # b_total fixed a token of type a is worth w_a = (n-1) - b = n-q+a.
    weights = [n - q + a for a in range(q)]
    # c times the averaging bound b_total + token_weight // c is linear in the
    # multiplicities: one type-a vertex adds coef[a]
    coef = [c * (q - 1 - a) + a * weights[a] for a in range(q)]
    tail_max = [max(coef[j:]) for j in range(q)]
    nodes = 0
    best_value = -1
    best_plan: Optional[tuple[tuple[int, ...], list[list[int]]]] = None

    def inner_maxmin(mult: tuple[int, ...]) -> Optional[tuple[int, list[list[int]]]]:
        """Exact max-min per-color count for fixed type multiplicities, or
        None when it cannot beat the incumbent.

        Token layout: type a supplies a*mult[a] tokens of weight w_a, at
        most mult[a] per color (one per vertex).  Any per-color count matrix
        within those caps is realizable by dealing, so the search is over
        count matrices only, one decision per target load t.
        """
        b_total = sum(m * (q - 1 - a) for a, m in enumerate(mult))
        type_as = [a for a in range(1, q) if mult[a]]
        if not type_as:
            if b_total <= best_value:
                return None
            return b_total, [[0] * c for _ in range(q)]
        caps = [mult[a] for a in type_as]
        ws = [weights[a] for a in type_as]
        supply = tuple(a * mult[a] for a in type_as)
        t_count = len(type_as)

        def usable(k: int, rem: tuple[int, ...]) -> int:
            return sum(ws[t] * min(rem[t], k * caps[t]) for t in range(t_count))

        lo = max(best_value - b_total + 1, 0)
        hi = usable(c, supply) // c
        if lo > hi:
            return None

        # every per-color token vector within the caps, ascending by
        # (load, alloc); `drop` is the load left after removing one token of
        # the lightest type present, so a vector is minimal for target t
        # (no token can go and still reach t) exactly when drop < t
        options: list[tuple[int, tuple[int, ...], int]] = []

        def gen(t: int, load: int, alloc: tuple[int, ...], lightest: int) -> None:
            if t == t_count:
                options.append((load, alloc, load - lightest if lightest else -1))
                return
            for x in range(caps[t] + 1):
                gen(t + 1, load + ws[t] * x, alloc + (x,), lightest or (ws[t] if x else 0))

        gen(0, 0, (), 0)
        options.sort()
        # per target: (colors left, supply left) -> the first (vector, rest)
        # whose rest stays feasible, or None when there is none
        Choice = Optional[tuple[tuple[int, ...], tuple[int, ...]]]
        memos: dict[int, dict[tuple[int, tuple[int, ...]], Choice]] = {}
        minimal: dict[int, list[tuple[int, ...]]] = {}

        def candidates(target: int, rem: tuple[int, ...]):
            """Minimal vectors reaching `target` within rem, ascending, with
            the supply they leave.  The first one whose rest stays feasible
            is the lexicographically least feasible choice: any vector that
            is not minimal has a feasible minimal part ahead of it."""
            vectors = minimal.get(target)
            if vectors is None:
                vectors = minimal[target] = [
                    alloc for load, alloc, drop in options[bisect_left(options, (target,)):]
                    if drop < target
                ]
            for alloc in vectors:
                rest = tuple(rem[t] - alloc[t] for t in range(t_count))
                if min(rest) >= 0:
                    yield alloc, rest

        def feasible(target: int, k: int, rem: tuple[int, ...]) -> bool:
            """Can each of k colors reach load >= target from supply rem?"""
            nonlocal nodes
            if usable(k, rem) < k * target:
                return False
            if k == 1:
                return True
            memo = memos.setdefault(target, {})
            key = (k, rem)
            if key not in memo:
                nodes += 1
                memo[key] = next(
                    (pick for pick in candidates(target, rem) if feasible(target, k - 1, pick[1])),
                    None,
                )
            return memo[key] is not None

        if not feasible(lo, c, supply):
            return None
        # largest feasible target, by bisection up to the averaging bound
        value, bad = lo, hi + 1
        while bad - value > 1:
            mid = (value + bad) // 2
            if feasible(mid, c, supply):
                value = mid
            else:
                bad = mid

        # the memo holds each color's choice; one color left is decided by
        # the averaging cut alone, unmemoised, so it takes the first vector
        # that fits
        memo = memos[value]
        layout = [[0] * c for _ in range(q)]
        rem = supply
        for color in range(c):
            k = c - color
            alloc, rem = memo[(k, rem)] if k > 1 else next(candidates(value, rem))
            for t, a in enumerate(type_as):
                layout[a][color] = alloc[t]
        return b_total + value, layout

    def consider(mult: tuple[int, ...]) -> None:
        nonlocal best_value, best_plan
        found = inner_maxmin(mult)
        if found is not None:
            best_value, layout = found
            best_plan = (mult, layout)

    # incumbent seeds: everything on the largest type, then the mixed shape
    # with r vertices shifted one type down
    seeds = [tuple(n if a == q - 1 else 0 for a in range(q))]
    shifted = n * (q - 1) % c
    if 0 < shifted <= n:
        seeds.append(tuple(
            shifted if a == q - 2 else (n - shifted if a == q - 1 else 0)
            for a in range(q)
        ))
    for seed in seeds:
        consider(seed)

    # depth-first over multiplicities in lexicographic order; a prefix whose
    # remaining vertices all take the best coefficient left bounds its whole
    # subtree, so subtrees that cannot beat the incumbent are cut unvisited
    prefix = [0] * q

    def walk(j: int, left: int, acc: int) -> None:
        nonlocal nodes
        nodes += 1
        if j == q - 1:
            prefix[j] = left
            if (acc + left * coef[j]) // c > best_value:
                consider(tuple(prefix))
            return
        for head in range(left + 1):
            rest = left - head
            if (acc + head * coef[j] + rest * tail_max[j + 1]) // c > best_value:
                prefix[j] = head
                walk(j + 1, rest, acc + head * coef[j])

    walk(0, n, 0)

    assert best_plan is not None
    mult, layout = best_plan
    # vertices grouped by type in ascending type order; each type's tokens,
    # listed color by color, are dealt to its vertices in turn, so no vertex
    # gets a color twice (at most mult[a] tokens per color)
    a_sets: list[frozenset[int]] = []
    for a, m in enumerate(mult):
        tokens = [color for color, count in enumerate(layout[a], start=1) for _ in range(count)]
        a_sets.extend(frozenset(tokens[j::m]) for j in range(m))
    types = [a for a, m in enumerate(mult) for _ in range(m)]
    b_sets = tuple(_smallest_targets(v, n, q - 1 - types[v - 1]) for v in range(1, n + 1))
    structure = CoverStructure(n, c, q, tuple(a_sets), b_sets)
    return best_value, structure, nodes
