"""Exact search: branch-and-bound, the cover-structure oracle, and their
independent cross-checks."""

import hashlib
import itertools
import random
import time

import pytest

from rainbow_stars.bounds import EXACT, UNCONSTRAINED, UPPER_BOUND, exact_bound
from rainbow_stars.constructions import ConstructionFamily, build
from rainbow_stars.detector import find_rainbow_star
from rainbow_stars.model import (
    DigraphCollection,
    StarPattern,
    edge_counts,
    reverse,
    serialize_edge_list,
)
from rainbow_stars.oracle import (
    COVER_GUARDS,
    SLOT_GUARD,
    CoverStructure,
    _certify,
    cover_oracle_s0q,
    max_exact,
)
from rainbow_stars.verify import FROZEN_COVER_853_MIN


def formula_min(n: int, c: int, q: int) -> int:
    quotient, remainder = divmod(n * (q - 1), c)
    return quotient * (n - 1) + remainder


def brute_force_cover_optimum(n: int, c: int, q: int, objective: str) -> int:
    """Enumerate every maximal cover structure directly.

    A vertex picks a colors to fill completely and q-1-a extra targets;
    per-color counts depend only on the color subset and the extra count.
    """
    options = []
    for a in range(0, q):
        extra = q - 1 - a
        if extra > n - 1:
            continue
        for subset in itertools.combinations(range(1, c + 1), a):
            options.append((frozenset(subset), extra))
    best = -1
    for assignment in itertools.product(options, repeat=n):
        counts = [0] * c
        for colors, extra in assignment:
            for i in range(c):
                counts[i] += (n - 1) if (i + 1) in colors else extra
        value = sum(counts) if objective == "sum" else min(counts)
        best = max(best, value)
    return best


def test_pinned_small_instances():
    assert max_exact(3, 2, StarPattern(1, 1), "sum").optimum == 6
    assert max_exact(3, 2, StarPattern(1, 1), "min").optimum == 3
    assert max_exact(4, 2, StarPattern(1, 1), "min").optimum == 4
    assert max_exact(3, 2, StarPattern(0, 1), "sum").optimum == 0


def test_outcomes_carry_certified_witnesses():
    for objective in ("sum", "min"):
        outcome = max_exact(4, 2, StarPattern(1, 1), objective)
        assert outcome.proved_optimal
        witness = outcome.witness
        assert find_rainbow_star(witness, StarPattern(1, 1)) is None
        counts = edge_counts(witness)
        achieved = counts.total if objective == "sum" else counts.minimum
        assert achieved == outcome.optimum


def test_budget_expiry_returns_unproved_incumbent():
    # the clock is consulted every 4096 nodes, so the instance must be large
    # enough to reach a checkpoint; full searches here take 35,146 and
    # 57,139 nodes.  A zero budget stops at the first checkpoint, so the node
    # count, the incumbent and its witness pin where the clock is read
    for n, c, pat, objective, incumbent, witness_sha in (
        (4, 3, StarPattern(1, 2), "min", 5,
         "606ae7b5057deb558b09515497e67a1fb2e12495c24cd0888270f98de244fb08"),
        (4, 4, StarPattern(0, 3), "sum", 26,
         "a42d684fb3c8b4332b6b0e4843cca21fd98b87aba837a6952f9c17fdb4765206"),
    ):
        outcome = max_exact(n, c, pat, objective, budget_secs=0.0)
        assert not outcome.proved_optimal
        assert (outcome.optimum, outcome.nodes_explored) == (incumbent, 4096)
        text = serialize_edge_list(outcome.witness)
        assert hashlib.sha256(text.encode()).hexdigest() == witness_sha
        assert find_rainbow_star(outcome.witness, pat) is None
        counts = edge_counts(outcome.witness)
        assert (counts.total if objective == "sum" else counts.minimum) == incumbent


def test_budget_must_be_finite_and_nonnegative():
    # NaN never expires and a negative budget acted as zero; 0.0 stays legal
    for budget in (float("nan"), float("inf"), -1.0, -0.5):
        with pytest.raises(ValueError, match="finite number of seconds >= 0"):
            max_exact(3, 2, StarPattern(1, 1), "sum", budget_secs=budget)
    assert max_exact(3, 2, StarPattern(1, 1), "sum", budget_secs=0.0).proved_optimal


def test_one_vertex_has_no_slots():
    # n = 1 has no edge slot: the root is the only leaf, and the empty
    # collection is proved optimal
    for objective in ("sum", "min"):
        for pat in (StarPattern(0, 1), StarPattern(1, 2), StarPattern(3, 0)):
            outcome = max_exact(1, 3, pat, objective)
            assert outcome.proved_optimal
            assert (outcome.optimum, outcome.nodes_explored) == (0, 1)
            assert edge_counts(outcome.witness).total == 0


def max_exact_domain():
    """(n, c, p, q, objective) with n <= 7, c*n*(n-1) <= 48 and
    1 <= p+q <= 3, both orientations; n = 4 with c in {3, 4} and p+q = 3
    is left out for time (seconds per solve)."""
    for n in range(2, 8):
        for c in range(1, 48 // (n * (n - 1)) + 1):
            for size in range(1, 4):
                if n == 4 and c in (3, 4) and size == 3:
                    continue
                for p in range(size + 1):
                    for objective in ("sum", "min"):
                        yield n, c, p, size - p, objective


def max_exact_slow_domain():
    """The 16 solves max_exact_domain leaves out: n = 4, c in {3, 4},
    p+q = 3, both objectives (about 35 s of CPU before the pair check)."""
    for c in (3, 4):
        for p in range(4):
            for objective in ("sum", "min"):
                yield 4, c, p, 3 - p, objective


def max_exact_sweep_domain():
    """Every (n, c, p, q, objective) with n <= 7, c*n*(n-1) <= 48 (c <= 6 at
    n = 1) and 1 <= p+q <= 6, both objectives: 2,484 solves, about 3 s of
    CPU.  It holds both domains above, and the patterns no star of which
    fits."""
    for n in range(1, 8):
        for c in range(1, (48 // (n * (n - 1)) if n > 1 else 6) + 1):
            for size in range(1, 7):
                for p in range(size + 1):
                    for objective in ("sum", "min"):
                        yield n, c, p, size - p, objective


def solve_all(domain) -> dict:
    """max_exact outcome per (n, c, p, q, objective) point of the domain."""
    return {(n, c, p, q, objective): max_exact(n, c, StarPattern(p, q), objective)
            for n, c, p, q, objective in domain}


@pytest.fixture(scope="module")
def default_solves():
    return solve_all(max_exact_domain())


@pytest.fixture(scope="module")
def slow_solves():
    return solve_all(max_exact_slow_domain())


@pytest.fixture(scope="module")
def triple_solves():
    """n = 4, c = 3, where a p+q = 3 star fits: every pattern for min, and
    (0, 3) with its (3, 0) reversal for sum (about 0.5 s of CPU)."""
    return solve_all([(4, 3, p, 3 - p, "min") for p in range(4)]
                     + [(4, 3, 0, 3, "sum"), (4, 3, 3, 0, "sum")])


def answer_digest(solves) -> tuple[str, int]:
    """sha256 over "n c p q objective optimum proved_optimal" lines, and the
    solve count: what a search change must keep, without nodes or
    witnesses."""
    digest = hashlib.sha256()
    for (n, c, p, q, objective), outcome in solves.items():
        digest.update(f"{n} {c} {p} {q} {objective} {outcome.optimum} "
                      f"{outcome.proved_optimal}\n".encode())
    return digest.hexdigest(), len(solves)


def max_exact_digest(solves) -> tuple[str, int]:
    """sha256 over "n c p q objective optimum nodes_explored proved_optimal"
    lines, each followed by the serialized witness, and the solve count.

    Each solve also audits `exact_bound`'s label: an EXACT or UNCONSTRAINED
    value must be the proved optimum, and an UPPER_BOUND must not be below
    it; ASYMPTOTIC coefficients are not compared."""
    digest = hashlib.sha256()
    for (n, c, p, q, objective), outcome in solves.items():
        bound = exact_bound(StarPattern(p, q), n, c, objective)
        point = (n, c, p, q, objective, bound.kind, bound.value, outcome.optimum)
        if bound.kind in (EXACT, UNCONSTRAINED):
            assert outcome.proved_optimal and bound.value == outcome.optimum, point
        elif bound.kind == UPPER_BOUND:
            assert bound.value >= outcome.optimum, point
        digest.update(
            f"{n} {c} {p} {q} {objective} {outcome.optimum} "
            f"{outcome.nodes_explored} {outcome.proved_optimal}\n".encode())
        digest.update(serialize_edge_list(outcome.witness).encode())
    return digest.hexdigest(), len(solves)


# answer_digest over max_exact_domain and max_exact_slow_domain, fixed before
# the out-star slot order and the symmetry breaks for min
MAX_EXACT_ANSWER_DIGEST = "d25c95b8f2e1ad71dfba84d45bfba9636cfc73616713e4f28dc7245e4e2b9352"
MAX_EXACT_SLOW_ANSWER_DIGEST = "3981c183ae9218b502f24be3fc6bd9766dc2addfec6e3c2755c8322a193a1de6"
# max_exact_digest over every point of max_exact_domain (704 solves).  The
# anchored star check, the incident-slot forward check, the incremental bound
# and the pair check each kept the search tree node for node.  Re-pinned when
# out-star patterns took the mirror of their reversal's slot order and min
# took the non-increasing color counts and the forced first slot: 151,790
# nodes became 78,723, no solve took more, and every answer held.  Re-pinned
# when a lone slot (includable, no alive later partner) lost its exclude
# child: 78,723 nodes became 54,099, no solve took more, and every answer
# and witness held.  Re-pinned when twin vertices had to enter each row in
# order: 54,099 nodes became 36,428, with the same guarantees.
MAX_EXACT_DIGEST = "1c3ea57aee56e259473ace543ef340967034f94f0690b85e677e463f087c814b"
# the same over max_exact_slow_domain, re-pinned with all three: 1,376,904
# nodes became 976,336, then 957,468, then 694,228
MAX_EXACT_SLOW_DIGEST = "13957b4b7c6176052b0435ff5ceba86c59b9b5136396406607218ec53793a7b5"


def check_symmetries(solves) -> None:
    """Each (0, q) solve runs as its (q, 0) reversal, node for node, and
    finds its witness reversed; each min witness has non-increasing
    per-color counts."""
    for (n, c, p, q, objective), outcome in solves.items():
        if p == 0:
            mirror = solves[n, c, q, 0, objective]
            assert outcome.nodes_explored == mirror.nodes_explored, (n, c, q, objective)
            assert outcome.witness == reverse(mirror.witness), (n, c, q, objective)
        if objective == "min":
            per_color = edge_counts(outcome.witness).per_color
            assert list(per_color) == sorted(per_color, reverse=True), (n, c, p, q)


def test_out_star_mirror_and_sorted_min_counts(default_solves):
    check_symmetries(default_solves)


def twin_rows(witness: DigraphCollection, p: int):
    """Each (color, major, x, y, y in the row, x in the row) of the witness
    where minors x < y above the major are twins, walking max_exact's slot
    order (color, source, target).  For p = 0 the search runs on the
    reversal, so a major here is a target of the witness and a minor one
    of its sources.  Twins keep every slot decided before the row when
    they swap: all of the earlier colors, and the row's color at majors
    below it."""
    n, c = witness.n, witness.c

    def has(i, major, minor):
        return witness.has_edge(i, major, minor) if p else witness.has_edge(i, minor, major)

    for i in range(1, c + 1):
        for a in range(1, n + 1):
            for y in range(a + 2, n + 1):
                for x in range(a + 1, y):
                    swap = {x: y, y: x}
                    earlier_kept = all(
                        witness.has_edge(h, u, v)
                        == witness.has_edge(h, swap.get(u, u), swap.get(v, v))
                        for h in range(1, i)
                        for u in range(1, n + 1) for v in range(1, n + 1) if u != v)
                    if earlier_kept and all(has(i, major, x) == has(i, major, y)
                                            for major in range(1, a)):
                        yield i, a, x, y, has(i, a, y), has(i, a, x)


def test_twins_enter_each_row_in_order(default_solves):
    # no witness row takes a twin while leaving out a smaller one; the rows
    # where a larger twin is taken are counted so the check is not vacuous
    taken = 0
    for (n, c, p, q, objective), outcome in default_solves.items():
        for i, a, x, y, y_in, x_in in twin_rows(outcome.witness, p):
            assert x_in or not y_in, (n, c, p, q, objective, i, a, x, y)
            taken += y_in
    assert taken > 0


def test_p_plus_q_three_mirror_and_optimum(triple_solves):
    # the default domain holds no p+q = 3 search where a star fits; here one
    # does, and every min pattern proves 8
    check_symmetries(triple_solves)
    for (n, c, p, q, objective), outcome in triple_solves.items():
        if objective == "min":
            assert outcome.proved_optimal and outcome.optimum == 8, (p, q)


def test_max_exact_answers_pinned(default_solves):
    assert answer_digest(default_solves) == (MAX_EXACT_ANSWER_DIGEST, 704)


def test_max_exact_search_pinned(default_solves):
    assert max_exact_digest(default_solves) == (MAX_EXACT_DIGEST, 704)


@pytest.mark.slow
def test_max_exact_answers_pinned_past_the_default_domain(slow_solves):
    assert answer_digest(slow_solves) == (MAX_EXACT_SLOW_ANSWER_DIGEST, 16)


@pytest.mark.slow
def test_max_exact_search_pinned_past_the_default_domain(slow_solves):
    assert max_exact_digest(slow_solves) == (MAX_EXACT_SLOW_DIGEST, 16)
    check_symmetries(slow_solves)


# sha256 over "n c p q objective optimum proved_optimal" lines, each followed
# by the serialized witness, over max_exact_sweep_domain (no node counts);
# fixed before twin vertices had to enter each row in order
MAX_EXACT_SWEEP_DIGEST = "74b829f04e1e84a02b3bb036d322a8e2a1c616d9dbf101ce536e5da210e0aac4"


@pytest.mark.slow
def test_max_exact_answers_and_witnesses_pinned_over_the_sweep():
    digest = hashlib.sha256()
    solves = solve_all(max_exact_sweep_domain())
    for (n, c, p, q, objective), outcome in solves.items():
        digest.update(f"{n} {c} {p} {q} {objective} {outcome.optimum} "
                      f"{outcome.proved_optimal}\n".encode())
        digest.update(serialize_edge_list(outcome.witness).encode())
    assert (digest.hexdigest(), len(solves)) == (MAX_EXACT_SWEEP_DIGEST, 2484)


@pytest.mark.parametrize("n,c", [(3, 2), (4, 1)])
def test_max_exact_against_brute_force(n, c):
    # 12 slots each: every one of the 4096 collections, kept when free
    slots = [(i, u, v) for i in range(1, c + 1)
             for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    patterns = [StarPattern(p, size - p) for size in range(1, 4) for p in range(size + 1)]
    best = {(pat, objective): 0 for pat in patterns for objective in ("sum", "min")}
    for subset in range(1 << len(slots)):
        edges = [slot for k, slot in enumerate(slots) if subset >> k & 1]
        collection = DigraphCollection.from_edges(n, c, edges)
        counts = edge_counts(collection)
        for pat in patterns:
            if find_rainbow_star(collection, pat) is None:
                for objective, value in (("sum", counts.total), ("min", counts.minimum)):
                    best[pat, objective] = max(best[pat, objective], value)
    for (pat, objective), value in best.items():
        outcome = max_exact(n, c, pat, objective)
        assert outcome.proved_optimal
        assert outcome.optimum == value, (pat, objective)


def test_slot_guards():
    # 4 colors on 5 vertices is 80 slots, past the guard
    with pytest.raises(ValueError, match="beyond the slot guard 48"):
        max_exact(5, 4, StarPattern(1, 1), "sum")
    # no vertex or no color is no instance at all
    for n, c in ((0, 2), (3, 0)):
        with pytest.raises(ValueError, match=f"requires n >= 1 and c >= 1, got n={n}, c={c}"):
            max_exact(n, c, StarPattern(1, 1), "sum")
    # 48 slots, at the guard, runs with no opt-in under the default budget
    assert 4 * 4 * 3 == SLOT_GUARD
    outcome = max_exact(4, 4, StarPattern(1, 1), "sum")
    assert outcome.optimum == 16 and outcome.proved_optimal


def test_forward_check_needs_at_most_one_leaf():
    # a star takes p+q colors and p+q leaves, so one fits only when
    # p+q <= min(c, n-1); inside the slot guard that is at most 3, so a
    # star through two slots lacks at most one leaf
    n = 2
    while n * (n - 1) <= SLOT_GUARD:
        widest = SLOT_GUARD // (n * (n - 1))
        assert min(widest, n - 1) <= 3, (n, widest)
        n += 1
    # no (2, 2) star fits on 4 vertices: no slot has a partner, so each is
    # lone and kept without an exclude child, one node per slot and the leaf
    for objective, value in (("sum", 48), ("min", 12)):
        outcome = max_exact(4, 4, StarPattern(2, 2), objective)
        assert outcome.proved_optimal
        assert (outcome.optimum, outcome.nodes_explored) == (value, 49)
        assert exact_bound(StarPattern(2, 2), 4, 4, objective).value == value


def test_certify_rejects_bad_witnesses():
    star = DigraphCollection.from_edges(3, 2, [(1, 1, 2), (2, 1, 3)])
    with pytest.raises(RuntimeError, match="contains a rainbow star"):
        _certify(star, StarPattern(0, 2), "sum", 2, True, 1, 0.0)
    with pytest.raises(RuntimeError, match="attains 2, oracle reported 3"):
        _certify(star, StarPattern(1, 1), "sum", 3, True, 1, 0.0)
    # a sound witness becomes the outcome, with the engine's own fields
    outcome = _certify(star, StarPattern(1, 1), "min", 1, False, 7, time.monotonic())
    assert (outcome.optimum, outcome.witness, outcome.objective) == (1, star, "min")
    assert (outcome.proved_optimal, outcome.nodes_explored) == (False, 7)
    assert 0 <= outcome.elapsed < 60


def test_reversal_symmetry_of_optima():
    for n in (3, 4):
        for objective in ("sum", "min"):
            fwd = max_exact(n, 2, StarPattern(0, 2), objective)
            rev = max_exact(n, 2, StarPattern(2, 0), objective)
            assert fwd.optimum == rev.optimum


def test_min_times_colors_never_beats_sum():
    rng = random.Random(3)
    for _ in range(6):
        n = rng.randint(3, 4)
        c = rng.randint(2, 3)
        p, q = rng.choice(((1, 1), (0, 2), (1, 2)))
        best_sum = max_exact(n, c, StarPattern(p, q), "sum").optimum
        best_min = max_exact(n, c, StarPattern(p, q), "min").optimum
        assert c * best_min <= best_sum


def test_cover_structure_validation_and_realization():
    cover = CoverStructure(
        n=4, c=3, q=2,
        a_sets=(frozenset({1}), frozenset(), frozenset(), frozenset()),
        b_sets=(frozenset(), frozenset({1}), frozenset({1}), frozenset({2})),
    )
    col = cover.realize()
    assert find_rainbow_star(col, StarPattern(0, 2)) is None
    # vertex 1 fills color 1 completely; each other vertex sends its one
    # covered target in every color it leaves uncovered
    assert edge_counts(col).per_color == (3 + 3, 3, 3)
    empty = (frozenset(),) * 4
    with pytest.raises(ValueError, match="cover size"):
        CoverStructure(n=4, c=3, q=2,
                       a_sets=(frozenset({1, 2}),) + empty[1:],
                       b_sets=(frozenset({2}),) + empty[1:])
    with pytest.raises(ValueError, match="one .A_v, B_v. pair per vertex"):
        CoverStructure(n=4, c=3, q=2, a_sets=empty[1:], b_sets=empty)
    with pytest.raises(ValueError, match=r"vertex 1: colors outside 1\.\.3"):
        CoverStructure(n=4, c=3, q=2, a_sets=(frozenset({4}),) + empty[1:], b_sets=empty)
    for targets in ({1}, {5}):
        with pytest.raises(ValueError, match="vertex 1: bad target set"):
            CoverStructure(n=4, c=3, q=2, a_sets=empty,
                           b_sets=(frozenset(targets),) + empty[1:])


def test_cover_oracle_domain_and_guards():
    with pytest.raises(ValueError):
        cover_oracle_s0q(5, 5, 2, "min")  # needs n > c
    with pytest.raises(ValueError):
        cover_oracle_s0q(5, 3, 4, "min")  # needs c >= q
    with pytest.raises(ValueError):
        cover_oracle_s0q(COVER_GUARDS["n"] + 2, COVER_GUARDS["c"] + 1, 2, "min")
    with pytest.raises(ValueError):
        cover_oracle_s0q(30, 8, COVER_GUARDS["q"] + 1, "min")


def test_cover_oracle_against_closed_forms():
    for (n, c, q) in ((5, 3, 2), (9, 4, 3), (12, 5, 2), (30, 6, 4)):
        assert cover_oracle_s0q(n, c, q, "sum").optimum == (q - 1) * (n * n - n)
    # divisible remainders attain the floor formula
    for (n, c, q) in ((6, 3, 2), (10, 5, 3), (12, 6, 3), (9, 4, 3)):
        r = (n * (q - 1)) % c
        assert q == 1 or r % (q - 1) == 0
        assert cover_oracle_s0q(n, c, q, "min").optimum == formula_min(n, c, q)


def test_cover_oracle_witnesses_attain():
    for objective in ("sum", "min"):
        outcome = cover_oracle_s0q(7, 3, 2, objective)
        counts = edge_counts(outcome.witness)
        achieved = counts.total if objective == "sum" else counts.minimum
        assert achieved == outcome.optimum
        assert find_rainbow_star(outcome.witness, StarPattern(0, 2)) is None


def test_frozen_adjudication_instance():
    # the floor formula gives 22 here, but its remainder 1 is not a multiple
    # of q-1 = 2; the exact optimum sits one below and the balanced
    # assignment construction attains it
    outcome = cover_oracle_s0q(8, 5, 3, "min")
    assert outcome.optimum == FROZEN_COVER_853_MIN == 21
    assert formula_min(8, 5, 3) == 22
    constructed = build(ConstructionFamily.CYCLIC_REMAINDER, 8, 5, 0, 3)
    assert constructed.predicted_counts.minimum == 21


def test_min_oracle_strict_exactly_when_remainder_indivisible():
    for n in range(6, 17):
        got = cover_oracle_s0q(n, 5, 3, "min").optimum
        target = formula_min(n, 5, 3)
        if ((n * 2) % 5) % 2 == 0:
            assert got == target, n
        else:
            assert got == target - 1, n


# sha256 over "n c q optimum" lines, each followed by the serialized witness,
# for every cover-min point with n > c >= q >= 1, c <= 6, n <= 30 (539
# points, c then q then n ascending); fixed before the pruned walk and the
# decision search replaced the exhaustive composition loop
COVER_MIN_GRID_DIGEST = "d5c06b694bc8f9e57043f600d7e96acb83a5e43fc252fa04abea442a29f516f5"
# sha256 over "n c q nodes_explored" lines for the same 539 points (4,502
# nodes in total, 16,637 before multiplicities with at most one token type
# were solved directly)
COVER_MIN_GRID_NODES_DIGEST = "aad24cf128553495d5f409ade01b4ae3410993501e4500d6582301822bfeda91"


def test_cover_min_grid_optima_and_witnesses_pinned():
    digest = hashlib.sha256()
    nodes_digest = hashlib.sha256()
    points = 0
    for c in range(1, 7):
        for q in range(1, c + 1):
            for n in range(c + 1, 31):
                outcome = cover_oracle_s0q(n, c, q, "min")
                assert outcome.proved_optimal
                digest.update(f"{n} {c} {q} {outcome.optimum}\n".encode())
                digest.update(serialize_edge_list(outcome.witness).encode())
                nodes_digest.update(f"{n} {c} {q} {outcome.nodes_explored}\n".encode())
                points += 1
    assert points == 539
    assert digest.hexdigest() == COVER_MIN_GRID_DIGEST
    assert nodes_digest.hexdigest() == COVER_MIN_GRID_NODES_DIGEST


# sha256 over "n c q objective optimum proved_optimal" lines, each followed
# by the serialized witness, for every solve in the COVER_GUARDS domain: c
# <= 8, q <= min(c, 6), c < n <= 64, min then sum (3,862 solves, c then q
# then n ascending); fixed before multiplicities with at most one token type
# were solved directly
COVER_GUARD_DOMAIN_DIGEST = "2943c255f844d50f03a36a096e8397c6c1779caab10bf52608f02b199e69681d"


@pytest.mark.slow
def test_cover_answers_pinned_over_the_guard_domain():
    digest = hashlib.sha256()
    solves = 0
    for c in range(1, COVER_GUARDS["c"] + 1):
        for q in range(1, min(c, COVER_GUARDS["q"]) + 1):
            for n in range(c + 1, COVER_GUARDS["n"] + 1):
                for objective in ("min", "sum"):
                    outcome = cover_oracle_s0q(n, c, q, objective)
                    digest.update(f"{n} {c} {q} {objective} {outcome.optimum} "
                                  f"{outcome.proved_optimal}\n".encode())
                    digest.update(serialize_edge_list(outcome.witness).encode())
                    solves += 1
    assert solves == 3862
    assert digest.hexdigest() == COVER_GUARD_DOMAIN_DIGEST


def test_cover_min_at_the_guard_corner():
    # (64, 8, 6): r = 320 mod 8 = 0, so the floor formula is attained
    outcome = cover_oracle_s0q(64, 8, 6, "min")
    assert outcome.proved_optimal
    assert outcome.optimum == formula_min(64, 8, 6)
    assert outcome.nodes_explored == 1
    # (64, 6, 6): r = 320 mod 6 = 2 is not a multiple of 5, so the optimum
    # lies between the CYCLIC_REMAINDER construction and the formula
    outcome = cover_oracle_s0q(64, 6, 6, "min")
    assert outcome.proved_optimal
    low = build(ConstructionFamily.CYCLIC_REMAINDER, 64, 6, 0, 6).predicted_counts.minimum
    assert low <= outcome.optimum <= formula_min(64, 6, 6)
    assert outcome.nodes_explored == 13
    # q = 2: every multiplicity has at most one token type, so the walk's
    # one visit is the whole search and no feasibility node is explored
    outcome = cover_oracle_s0q(64, 8, 2, "min")
    assert outcome.proved_optimal
    assert outcome.optimum == formula_min(64, 8, 2)
    assert outcome.nodes_explored == 1


@pytest.mark.parametrize(
    "n,c,q",
    [(4, 2, 2), (4, 3, 2), (5, 2, 2), (5, 3, 2), (4, 3, 3), (5, 4, 2),
     (6, 3, 2), (7, 3, 2), (6, 5, 2), (5, 4, 3)],
)
def test_cover_oracle_against_brute_force(n, c, q):
    for objective in ("sum", "min"):
        assert cover_oracle_s0q(n, c, q, objective).optimum == \
            brute_force_cover_optimum(n, c, q, objective)


@pytest.mark.slow
def test_cover_oracle_against_brute_force_large():
    # ~16M assignments; same q = 3, c = 5 column as the frozen instance
    assert cover_oracle_s0q(6, 5, 3, "min").optimum == \
        brute_force_cover_optimum(6, 5, 3, "min")


def test_engines_agree_on_common_domain(triple_solves):
    for (n, c) in ((3, 2), (4, 2), (4, 3)):
        for objective in ("sum", "min"):
            bb = max_exact(n, c, StarPattern(0, 2), objective).optimum
            cover = cover_oracle_s0q(n, c, 2, objective).optimum
            assert bb == cover, (n, c, objective, bb, cover)
    # q = 3 at (4, 3), where the star lacks a leaf after a pair, and the
    # (3, 0) reversal
    for objective in ("sum", "min"):
        cover = cover_oracle_s0q(4, 3, 3, objective).optimum
        for p, q in ((0, 3), (3, 0)):
            bb = triple_solves[4, 3, p, q, objective].optimum
            assert bb == cover, (p, q, objective, bb, cover)


def test_oracle_determinism():
    first = max_exact(4, 2, StarPattern(1, 1), "min")
    second = max_exact(4, 2, StarPattern(1, 1), "min")
    assert first.optimum == second.optimum
    assert first.nodes_explored == second.nodes_explored
    assert first.witness == second.witness
    a = cover_oracle_s0q(8, 5, 3, "min")
    b = cover_oracle_s0q(8, 5, 3, "min")
    assert a.witness == b.witness and a.nodes_explored == b.nodes_explored
