"""Exact optima over rainbow-star-free collections.

Two engines.  max_exact is a branch-and-bound over individual edge slots and
works for any pattern, but only at toy sizes (the slot count c*n*(n-1) is
guarded).  Its state is bit sets and its per-node work is incremental:
forward checking kills a new edge's partners (the later slots that can
share a star with it) group by group with bit masks, asking only for the
one leaf such a star can still lack, and the bound is read off per-color
caps only where one fell.  Both objectives search only collections with
non-increasing per-color counts whose first slot is present and whose twin
vertices (ones no earlier slot tells apart) enter each row in order, and a
slot with no alive later partner is always kept.  An out-star pattern is
solved as its in-star reversal, so the two orientations cost the same.

cover_oracle_s0q handles out-star patterns at moderate n by searching cover
structures instead of edge sets: a collection is free of rainbow (0, q)
stars exactly when each vertex's (target, color) incidence graph has a
vertex cover of size at most q-1, and maximal realizations of covers
dominate everything else, so the search space collapses to per-vertex cover
shapes.  The cover structure, and the cyclic dealer of the sum witness, live
in `constructions`, which builds its out-star families from them too.

For the min objective the cover oracle walks the vertex-type multiplicities
depth first, cutting subtrees by an averaging bound that is linear in them.
One with at most one token type a is solved directly: a*m tokens, at most m
per color, a < c, so equal shares reach the lightest color's cap a*m // c.
Any other is decided ("can every color reach load t?"), first at the least t
beating the incumbent; nodes_explored adds the decision nodes to walk visits.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .bounds import check_objective
from .constructions import CoverStructure, _cyclic_cover, _smallest_targets
from .detector import find_rainbow_star
from .model import DigraphCollection, StarPattern, edge_counts

SLOT_GUARD = 48
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
    source, target) order.  An out-star pattern (0, q) is solved as its
    (q, 0) reversal, whose forward checks prune harder, and the reversal's
    witness is reversed back, so the two run node for node.  For
    p+q = 1 every edge is a star and nothing is included.  For
    p+q >= 2 no single edge is a star, and a slot stays alive while adding
    it completes no star; the alive slots are the bits of one int.

    After an include, forward checking kills the later slots it blocks.  An
    alive later slot completed no star before, so it is blocked now exactly
    when some star holds both it and the new edge: it is a partner of the
    new edge's slot, with another color and meeting it at the star's
    center, in roles the pattern allows, with distinct leaves.  A star takes
    p+q colors and p+q leaves, and the slot guard keeps min(c, n-1) <= 3, so
    a star that fits needs at most one leaf beyond the pair.  Before the
    search, each slot's partners are grouped by (color, center, side of that
    leaf), each group a bit mask, by index arithmetic.  For p+q = 2 the pair
    is the star and the alive part of every group dies.  For p+q = 3, R is
    the center's neighbours on the group's side in the third colors, less
    the new edge's two vertices: when R is empty nothing dies, when it has
    two or more vertices the whole group dies, and when it is one vertex b
    all but the partner with leaf b die.  When no star fits
    (p+q > min(c, n-1)) no slot has a partner.

    The optimistic bound caps each color at its count plus its alive slots
    from the current index on: the least cap for min, the sum of the caps'
    running minima for sum.  An include keeps its color's cap, and excluding
    an alive slot or killing some lowers caps, so the bound is evaluated
    only where a cap fell since it last held; the child of a dead slot or of
    an include that killed nothing is never cut.  Each call walks its chain
    of exclude children in a loop, so the recursion takes one call per
    include.

    Four rules cut the tree for both objectives: per-color counts must be
    non-increasing, the first slot is forced into every nonempty candidate,
    twins enter each row in order, and a lone slot (alive, includable, with
    no alive later partner) gets no exclude child.  The first two are sound
    because color relabeling keeps the sum and the minimum and can sort the
    counts, vertex relabeling then puts a color-1 edge of any collection
    worth more than 0 on the first slot, and the empty collection is the
    starting incumbent.

    For the third, read a slot as (color i, source a, target b).  Targets
    x < y above a are twins at row a of color i when no slot decided before
    that row tells them apart: in every earlier color their rows and their
    columns agree once x and y swap, and in color i the same sources below
    a chose them.  Twins form classes, and a target y with a smaller twin
    above a left out of row a is not included, so each class enters each
    row as a prefix.  The test runs only at an include with b > a + 1, on
    the masks the search keeps.  It is sound because every collection
    relabels into the searched space: walk its rows in slot order, and in
    each twin class above a move row a's chosen targets to the front.
    Each such permutation fixes every decided slot, so the earlier rows,
    the counts and the forced first slot all hold (vertex 1 never moves,
    and vertex 2 is chosen in row 1 and leads its class).

    For the fourth, let T be an optimal collection with the most edges
    among the optimal ones, relabeled into the searched space, and follow
    its path.  Every later slot of T is alive on it, as T is free.  At a
    lone slot T plus that slot stays free: the slot completes no star with
    the edges chosen so far, and no star holds it and a later edge of T,
    which would be an alive partner.  That collection is worth at least T's
    value with one edge more, and relabels into the searched space, so T
    holds every lone slot on its path and the rule never cuts it.

    budget_secs must be finite and >= 0.  The clock is read every 4096
    nodes; on expiry the best incumbent is returned, proved_optimal=False.
    Every instance within SLOT_GUARD slots runs under the budget alone, so
    allow_large does nothing; it is kept for callers that still pass it.
    """
    check_objective(objective)
    if n < 1 or c < 1:
        raise ValueError(f"requires n >= 1 and c >= 1, got n={n}, c={c}")
    if not 0 <= budget_secs < math.inf:
        raise ValueError(f"budget_secs must be a finite number of seconds >= 0, got {budget_secs}")
    slot_count = c * n * (n - 1)
    if slot_count > SLOT_GUARD:
        raise ValueError(
            f"instance has c*n*(n-1) = {slot_count} slots, beyond the "
            f"slot guard {SLOT_GUARD}"
        )
    # an out-star pattern runs as its reversal, so p >= 1 below
    flip = not pat.p
    p, q = (pat.q, 0) if flip else (pat.p, pat.q)
    start = time.monotonic()
    deadline = start + budget_secs

    # colors run from 0 here
    slots = [(i, a, b) for i in range(c) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    total_slots = len(slots)
    block = n * (n - 1)  # slots per color
    out_masks = [[0] * (n + 1) for _ in range(c)]
    in_masks = [[0] * (n + 1) for _ in range(c)]
    counts = [0] * c
    # per color: its count plus its alive slots at or after the current index
    caps = [block] * c
    chosen: list[tuple[int, int, int]] = []
    alive = (1 << total_slots) - 1  # bit j: slot j completes no star
    best_value = 0
    best_edges: list[tuple[int, int, int]] = []
    nodes = 0

    def offset(a: int, b: int) -> int:
        """Position of the slot (a, b) within its color's block."""
        return (a - 1) * (n - 1) + b - 1 - (b > a)

    # how a partner meets the slot (u, v), per role: is the center v, does
    # the partner leave the center, and is the missing leaf an in-leaf.  A
    # star takes p+q colors and p+q leaves, so none fits past min(c, n-1)
    fits = p + q <= min(c, n - 1)
    assert not fits or p + q <= 3
    roles = [role for role, allowed in (
        ((False, True, True), q >= 2),      # both out-leaves at u
        ((False, False, p - 1), q),         # the partner an in-leaf at u
        ((True, True, p - 1), q),           # the partner an out-leaf at v
        ((True, False, p - 2), p >= 2),     # both in-leaves at v
    ) if allowed and fits]

    def shapes(u: int, v: int) -> list[tuple[int, int, list[int]]]:
        """Per role, the center, the missing leaf's side, and the bit of the
        partner with each leaf w, within color 0's block."""
        found = []
        for at_v, leaves, need_in in roles:
            center = v if at_v else u
            by_leaf = [0] * (n + 1)
            for w in range(1, n + 1):
                if w != u and w != v:
                    by_leaf[w] = 1 << (offset(center, w) if leaves else offset(w, center))
            found.append((center, need_in, by_leaf))
        return found

    # per slot (i, u, v): its partner groups (k, mask, center, rows, keep,
    # by_leaf), of the later colors k > i, and their union.  For p+q = 2 a
    # color's groups merge and rows is None; for p+q = 3 rows holds the
    # third colors' mask rows on the missing leaf's side, keep masks off u
    # and v, and by_leaf[w] is the partner with leaf w
    block_shapes = [shapes(u, v) for _, u, v in slots[:block]] if roles else []
    groups: list[list[tuple]] = [[]] * total_slots
    partners = [0] * total_slots
    for idx, (i, u, v) in enumerate(slots if roles else ()):
        found = block_shapes[idx % block]
        union = sum(sum(by_leaf) for _, _, by_leaf in found)
        keep = ~(1 << (u - 1) | 1 << (v - 1))
        slot_groups = []
        for k in range(i + 1, c):
            shift = k * block
            if p + q == 2:
                slot_groups.append((k, union << shift, 0, None, 0, None))
                continue
            for center, need_in, by_leaf in found:
                side = in_masks if need_in else out_masks
                slot_groups.append((k, sum(by_leaf) << shift, center,
                                    [side[h] for h in range(c) if h not in (i, k)],
                                    keep, [bit << shift for bit in by_leaf]))
        groups[idx] = slot_groups
        partners[idx] = sum(mask for _, mask, *_ in slot_groups)

    def twin_left_out(i: int, a: int, y: int) -> bool:
        """Is a twin of the slot's target y, between its source a and y, out
        of row a of color i?  Row a holds a prefix of each twin class, so
        this is the nearest smaller twin's test."""
        column = in_masks[i]
        col_y = column[y]
        bit_y = 1 << (y - 1)
        left_out = (bit_y - (1 << a)) & ~out_masks[i][a]
        while left_out:
            bit_x = left_out & -left_out
            left_out ^= bit_x
            x = bit_x.bit_length()
            if column[x] != col_y:
                continue
            swap = bit_x | bit_y
            for h in range(i):
                out_x, in_x = out_masks[h][x], in_masks[h][x]
                if ((out_x ^ swap if out_x & bit_y else out_x) != out_masks[h][y]
                        or (in_x ^ swap if in_x & bit_y else in_x) != in_masks[h][y]):
                    break
            else:
                return True
        return False

    def search(idx: int, check: bool) -> None:
        """The node at slot idx and its chain of exclude children, with a
        call per include; check says a cap fell since the bound last held."""
        nonlocal nodes, best_value, best_edges, alive
        entry = caps[:]
        while True:
            nodes += 1
            if nodes & _BUDGET_CHECK_MASK == 0 and time.monotonic() > deadline:
                raise _BudgetExpired
            if idx == total_slots:
                value = sum(counts) if objective == "sum" else min(counts)
                if value > best_value:
                    best_value = value
                    best_edges = list(chosen)
                break
            if check and best_value >= (
                    min(caps) if objective == "min" else sum(accumulate(caps, min))):
                break
            # a dead slot's exclude child keeps every cap, so its bound holds
            check = alive >> idx & 1
            if check:
                i, u, v = slots[idx]
                lone = False
                # an alive slot completes a star only for p+q = 1; per-color
                # counts stay non-increasing, and twins enter a row in order
                # (tested when the target is past the source's successor)
                if p + q >= 2 and not (i and counts[i] >= counts[i - 1]) and not (
                        v - u > 1 and twin_left_out(i, u, v)):
                    out_masks[i][u] |= 1 << (v - 1)
                    in_masks[i][v] |= 1 << (u - 1)
                    counts[i] += 1
                    chosen.append((i + 1, u, v))
                    before = alive
                    held = caps[:]
                    for k, mask, center, rows, keep, by_leaf in groups[idx]:
                        hit = alive & mask
                        if hit and rows is not None:
                            # the vertices that can be the missing leaf
                            last = 0
                            for row in rows:
                                last |= row[center]
                            last &= keep
                            if not last:
                                continue
                            if not last & (last - 1):
                                # one: the partner whose leaf it is survives
                                hit &= ~by_leaf[last.bit_length()]
                        if hit:
                            alive ^= hit
                            caps[k] -= hit.bit_count()
                    # the include keeps its own cap, so only a kill lowers one
                    search(idx + 1, alive != before)
                    alive = before
                    caps[:] = held
                    chosen.pop()
                    counts[i] -= 1
                    out_masks[i][u] &= ~(1 << (v - 1))
                    in_masks[i][v] &= ~(1 << (u - 1))
                    # a lone slot: no alive later partner, so no exclude child
                    lone = not alive & partners[idx]
                # a collection worth more than the empty incumbent relabels
                # to hold the first slot (the symmetry breaks above)
                if lone or not idx:
                    break
                caps[i] -= 1
            idx += 1
        caps[:] = entry

    try:
        search(0, True)
        proved = True
    except _BudgetExpired:
        proved = False

    if flip:
        best_edges = [(i, v, u) for i, u, v in best_edges]
    return _certify(DigraphCollection.from_edges(n, c, best_edges), pat, objective,
                    best_value, proved, nodes, start)


def _certify(witness: DigraphCollection, pat: StarPattern, objective: str, value: int,
             proved: bool, nodes: int, start: float) -> SearchOutcome:
    """The outcome of an exact engine that found `witness` worth `value`,
    once the detector and the edge counts confirm both; `start` is the
    engine's clock reading when it began."""
    emb = find_rainbow_star(witness, pat)
    if emb is not None:
        raise RuntimeError(f"internal error: witness contains a rainbow star at {emb.center}")
    summary = edge_counts(witness)
    attained = summary.total if objective == "sum" else summary.minimum
    if attained != value:
        raise RuntimeError(
            f"internal error: witness attains {attained}, oracle reported {value}"
        )
    return SearchOutcome(optimum=value, witness=witness, objective=objective, proved_optimal=proved,
                         nodes_explored=nodes, elapsed=time.monotonic() - start)


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
    does not beat the incumbent.  Inner: a type-a vertex covers a colors,
    one token each.  With at most one token type a, the a*mult[a] tokens go
    at most mult[a] to a color and a <= q-1 < c, so averaging caps the
    lightest color at a*mult[a] // c tokens, which equal shares reach.
    Otherwise the tokens are dealt to colors as per-color allocation vectors
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

    nodes_explored counts walk visits plus the feasibility nodes (memo
    misses whose vectors were enumerated) of multiplicities with two or more
    token types; it is 1 for q = 1 and q for the sum.
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
    return _certify(structure.realize(), StarPattern(0, q), objective, value, True, nodes, start)


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
        if len(type_as) <= 1:
            # a < c: equal shares reach the lightest color's cap a*mult[a] // c
            a = type_as[0] if type_as else 0
            share = a * mult[a] // c
            value = b_total + weights[a] * share
            if value <= best_value:
                return None
            return value, [[share if t == a else 0] * c for t in range(q)]
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
        # (no token can go and still reach t) exactly when drop < t.  The
        # vectors grow a type at a time, lightest first, each with its load
        # and the weight of its first (lightest) type present
        vectors = [(0, (), 0)]
        for w, cap in zip(ws, caps):
            vectors = [(load + w * x, alloc + (x,), lightest or (w if x else 0))
                       for load, alloc, lightest in vectors for x in range(cap + 1)]
        options = sorted((load, alloc, load - lightest if lightest else -1)
                         for load, alloc, lightest in vectors)
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
    if shifted:
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
