"""Exact search: branch-and-bound, the cover-structure oracle, and their
independent cross-checks."""

import hashlib
import itertools
import random

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
    FIRM_SLOT_GUARD,
    STRETCH_SLOT_GUARD,
    CoverStructure,
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
    # enough to reach a checkpoint; full search here takes ~44k nodes
    outcome = max_exact(4, 3, StarPattern(1, 2), "min", budget_secs=0.0)
    assert not outcome.proved_optimal
    assert outcome.optimum <= 8
    assert find_rainbow_star(outcome.witness, StarPattern(1, 2)) is None
    counts = edge_counts(outcome.witness)
    assert counts.minimum == outcome.optimum


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


def solve_all(domain) -> dict:
    """max_exact outcome per (n, c, p, q, objective) point of the domain."""
    return {(n, c, p, q, objective): max_exact(n, c, StarPattern(p, q), objective,
                                               allow_large=True)
            for n, c, p, q, objective in domain}


@pytest.fixture(scope="module")
def default_solves():
    return solve_all(max_exact_domain())


@pytest.fixture(scope="module")
def slow_solves():
    return solve_all(max_exact_slow_domain())


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
# nodes became 78,723, no solve took more, and every answer held.
MAX_EXACT_DIGEST = "9df70da13f1e5cfdff3c064e5bcc7942d5d1d3f234ff0da504bae9f2c7376a35"
# the same over max_exact_slow_domain, re-pinned with it: 1,376,904 nodes
# became 976,336
MAX_EXACT_SLOW_DIGEST = "754b4389ec911e6056e8604c351758bac535a2e1712e402acfee144b6adc2283"


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
    # 4 colors on 5 vertices is 80 slots, past the stretch guard
    with pytest.raises(ValueError):
        max_exact(5, 4, StarPattern(1, 1), "sum", allow_large=True)
    # 48 slots needs the explicit opt-in
    with pytest.raises(ValueError):
        max_exact(4, 4, StarPattern(1, 1), "sum")
    outcome = max_exact(4, 4, StarPattern(1, 1), "sum",
                        budget_secs=120.0, allow_large=True)
    assert outcome.optimum == 16 and outcome.proved_optimal
    assert FIRM_SLOT_GUARD < 4 * 4 * 3 <= STRETCH_SLOT_GUARD


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
    with pytest.raises(ValueError):
        CoverStructure(n=4, c=3, q=2,
                       a_sets=(frozenset({1, 2}),) + (frozenset(),) * 3,
                       b_sets=(frozenset({2}),) + (frozenset(),) * 3)


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
# sha256 over "n c q nodes_explored" lines for the same 539 points (16,637
# nodes in total)
COVER_MIN_GRID_NODES_DIGEST = "6255fece9077e8f930b3b7bc5eff34f029a673f2a15a17cbe50e7b8c866fd060"


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


def test_cover_min_at_the_guard_corner():
    # (64, 8, 6): r = 320 mod 8 = 0, so the floor formula is attained
    outcome = cover_oracle_s0q(64, 8, 6, "min")
    assert outcome.proved_optimal
    assert outcome.optimum == formula_min(64, 8, 6)
    assert outcome.nodes_explored == 92
    # (64, 6, 6): r = 320 mod 6 = 2 is not a multiple of 5, so the optimum
    # lies between the CYCLIC_REMAINDER construction and the formula
    outcome = cover_oracle_s0q(64, 6, 6, "min")
    assert outcome.proved_optimal
    low = build(ConstructionFamily.CYCLIC_REMAINDER, 64, 6, 0, 6).predicted_counts.minimum
    assert low <= outcome.optimum <= formula_min(64, 6, 6)
    assert outcome.nodes_explored == 74


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


def test_engines_agree_on_common_domain():
    for (n, c) in ((3, 2), (4, 2), (4, 3)):
        for objective in ("sum", "min"):
            bb = max_exact(n, c, StarPattern(0, 2), objective).optimum
            cover = cover_oracle_s0q(n, c, 2, objective).optimum
            assert bb == cover, (n, c, objective, bb, cover)


def test_oracle_determinism():
    first = max_exact(4, 2, StarPattern(1, 1), "min")
    second = max_exact(4, 2, StarPattern(1, 1), "min")
    assert first.optimum == second.optimum
    assert first.nodes_explored == second.nodes_explored
    assert first.witness == second.witness
    a = cover_oracle_s0q(8, 5, 3, "min")
    b = cover_oracle_s0q(8, 5, 3, "min")
    assert a.witness == b.witness and a.nodes_explored == b.nodes_explored
