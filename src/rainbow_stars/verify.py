"""Verification suites: batteries of checks with machine-readable reports.

Each suite returns a VerificationReport whose cases carry the expected value
with its provenance kind (theorem, oracle, or construction), the actual
value, and a status.  `discrepancy` is reserved for anticipated
theorem-versus-oracle gaps (the exact minimum for out-stars when q-1 does
not divide the remainder); every other mismatch is a fail.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from fractions import Fraction
from typing import Callable

from . import __version__
from . import bounds
from .constructions import (
    _SPECS,
    ConstructionFamily,
    applicability_error,
    build,
    part_count,
)
from .detector import (
    find_rainbow_star,
    find_rainbow_star_naive,
    matching_fastpath_p0,
)
from .model import (
    DigraphCollection,
    StarPattern,
    permute,
    reverse,
)
from .oracle import cover_oracle_s0q, max_exact

DEFAULT_SEED = 20260814

# regression constant: exact minimum over free collections at (n, c, q) =
# (8, 5, 3), computed by the cover-structure oracle and double-checked by
# direct enumeration of all maximal cover structures; one below the
# floor(n(q-1)/c)(n-1) + r target, whose remainder 1 is not divisible by q-1
FROZEN_COVER_853_MIN = 21


@dataclass(frozen=True)
class VerificationCase:
    params: dict
    expected: str
    expected_kind: str  # theorem | oracle | construction
    actual: str
    status: str  # pass | fail | discrepancy
    note: str = ""


@dataclass
class VerificationReport:
    suite: str
    seed: int
    tool_version: str
    timestamp: str
    cases: list[VerificationCase] = field(default_factory=list)

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "discrepancy": 0}
        for case in self.cases:
            counts[case.status] += 1
        counts["total"] = len(self.cases)
        return counts

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "tool_version": self.tool_version,
            "timestamp": self.timestamp,
            # one level deep: params is the only container in a case
            "cases": [dict(vars(case), params=dict(case.params)) for case in self.cases],
            "summary": self.summary,
        }


def _case(kind: str, params: dict, expected: str, actual: str, passed: bool,
          note: str = "") -> VerificationCase:
    """A two-way check's case: pass if it passed, fail otherwise."""
    return VerificationCase(params, expected, kind, actual, "pass" if passed else "fail", note)


def _sort_key(case: VerificationCase):
    return tuple(sorted((k, repr(v)) for k, v in case.params.items()))


def _finish(suite: str, seed: int, cases: list[VerificationCase]) -> VerificationReport:
    cases = sorted(cases, key=_sort_key)
    return VerificationReport(
        suite=suite,
        seed=seed,
        tool_version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        cases=cases,
    )


def _random_collection(rng: random.Random, n: int, c: int, density: float) -> DigraphCollection:
    edges = [
        (i, u, v)
        for i in range(1, c + 1)
        for u in range(1, n + 1)
        for v in range(1, n + 1)
        if u != v and rng.random() < density
    ]
    return DigraphCollection.from_edges(n, c, edges)


# -- detector-equivalence -----------------------------------------------------

_DENSITIES = (0.1, 0.25, 0.5, 0.8)


def suite_detector_equivalence(seed: int = DEFAULT_SEED) -> list[VerificationCase]:
    """Fast detector vs naive enumeration vs the out-star matching fastpath,
    plus the verdict invariance battery."""
    rng = random.Random(seed)
    cases: list[VerificationCase] = []
    patterns = [
        (p, q) for p in range(0, 5) for q in range(0, 5) if 1 <= p + q <= 4
    ]
    start = time.monotonic()
    buckets: dict[tuple, list[int]] = {}
    total = 0
    trial = 0
    while total < 1000:
        density = _DENSITIES[trial % len(_DENSITIES)]
        trial += 1
        n = rng.randint(2, 6)
        c = rng.randint(1, 5)
        p, q = patterns[rng.randrange(len(patterns))]
        col = _random_collection(rng, n, c, density)
        pat = StarPattern(p, q)
        fast = find_rainbow_star(col, pat)
        naive = find_rainbow_star_naive(col, pat)
        ok = (fast is None) == (naive is None)
        if ok and fast is not None:
            ok = fast.is_valid_in(col)
        if ok and p == 0:
            fp = matching_fastpath_p0(col, q)
            ok = (fp is None) == (fast is None)
            if ok and fp is not None:
                ok = fp.is_valid_in(col)
        key = ((p, q), density)
        stats = buckets.setdefault(key, [0, 0])
        stats[0] += 1
        stats[1] += 0 if ok else 1
        total += 1
    elapsed = time.monotonic() - start
    for ((p, q), density), (count, bad) in sorted(buckets.items()):
        cases.append(_case("oracle", {"check": "equivalence", "p": p, "q": q, "density": density},
                           "0 disagreements", f"{bad} disagreements in {count} instances",
                           bad == 0))
    on_time = total >= 1000 and elapsed <= 60
    cases.append(_case("oracle", {"check": "equivalence-runtime"}, "1000 instances within 60 s",
                       f"{total} instances within budget" if on_time
                       else f"{total} instances in {elapsed:.1f} s", on_time))

    bad_invariance = 0
    count_invariance = 200
    for _ in range(count_invariance):
        n = rng.randint(2, 5)
        c = rng.randint(1, 4)
        p, q = patterns[rng.randrange(len(patterns))]
        col = _random_collection(rng, n, c, rng.choice(_DENSITIES))
        pat = StarPattern(p, q)
        verdict = find_rainbow_star(col, pat) is None
        vperm = list(range(1, n + 1))
        cperm = list(range(1, c + 1))
        rng.shuffle(vperm)
        rng.shuffle(cperm)
        permuted = permute(col, tuple(vperm), tuple(cperm))
        if (find_rainbow_star(permuted, pat) is None) != verdict:
            bad_invariance += 1
            continue
        if (find_rainbow_star(reverse(col), pat.reversed()) is None) != verdict:
            bad_invariance += 1
    cases.append(_case("theorem", {"check": "verdict-invariance"}, "0 violations",
                       f"{bad_invariance} violations in {count_invariance} instances",
                       bad_invariance == 0,
                       "vertex and color permutation, and reversal with swapped pattern"))
    return cases


# -- constructions-free -------------------------------------------------------

_GRID_FAMILIES = (
    ConstructionFamily.COMPLETE_PREFIX,
    ConstructionFamily.AC_SPLIT_SUM,
    ConstructionFamily.B_ONLY,
    ConstructionFamily.AB_MIX,
    ConstructionFamily.A_ONLY,
    ConstructionFamily.AC_MIN,
)


def _freeness_case(family: ConstructionFamily, n: int, c: int, p: int, q: int) -> VerificationCase:
    try:
        build(family, n, c, p, q)
        error = None
    except Exception as exc:  # build certifies freeness and counts itself
        error = f"{type(exc).__name__}: {exc}"
    return _case("construction", {"family": family.value, "n": n, "c": c, "p": p, "q": q},
                 "rainbow-free with predicted counts", error or "rainbow-free, counts match",
                 error is None)


# (families, p, q) of the freeness grid: c runs over p+q..12 and n over 30,
# 60 and 120, raised to the family's part count
_GRID_TABLE = (
    *((_GRID_FAMILIES, p, q) for p in range(1, 4) for q in range(p, 4)),
    *(((ConstructionFamily.ASSIGNED_OUT, ConstructionFamily.CYCLIC_REMAINDER), 0, q)
      for q in range(1, 4)),
)


def _grid_builds() -> list[tuple[ConstructionFamily, int, int, int, int]]:
    keys = dict.fromkeys(
        (family, max(target, part_count(family, c, p, q)), c, p, q)
        for families, p, q in _GRID_TABLE
        for c in range(p + q, 13)
        for family in families
        for target in (30, 60, 120)
    )
    jobs = [key for key in keys if applicability_error(*key) is None]
    for (n, c, q) in [(5, 5, 3), (5, 8, 3), (8, 12, 5), (12, 12, 12), (6, 6, 2)]:
        jobs.append((ConstructionFamily.REMARK_CN, n, c, 0, q))
    for (n, c, q) in [(3, 4, 3), (2, 2, 2), (4, 9, 4)]:
        jobs.append((ConstructionFamily.REMARK_NQ, n, c, 0, q))
    for n in (30, 60, 120):
        for c in (1, 2, 5):
            jobs.append((ConstructionFamily.S11_COMPLETE1, n, c, 1, 1))
            jobs.append((ConstructionFamily.BIPARTITE_S11, n, c, 1, 1))
    jobs.append((ConstructionFamily.TRIANGLE_N3, 3, 2, 1, 1))
    return jobs


_ATTAINMENT_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3))


def _regime_cs(p: int, q: int) -> dict[tuple[str, Callable], list[int]]:
    """The first three c >= p+q in each of the `bounds.regimes` of a
    chain-SECOND pair, keyed by (objective, regime function); a start
    belongs to both regimes it joins."""
    assert bounds.thresholds(p, q).chain == bounds.CHAIN_SECOND
    picked = {}
    for objective in bounds.OBJECTIVES:
        listed = bounds.regimes(p, q, objective)
        ends = [start for _, start, _ in listed[1:]] + [bounds.INFINITY]
        for (formula, start, _), end in zip(listed, ends):
            cs = picked[objective, formula] = []
            c = p + q
            while len(cs) < 3 and bounds.compare_threshold(c, end) <= 0:
                if bounds.compare_threshold(c, start) >= 0:
                    cs.append(c)
                c += 1
    return picked


def attainment_instances() -> list[tuple[ConstructionFamily, str, int, int, int, int]]:
    """(family, objective, n, c, p, q) tuples for coefficient attainment;
    each regime is built by the first family whose spec row claims it."""
    out = []
    for (p, q) in _ATTAINMENT_PAIRS:
        for (objective, regime), cs in _regime_cs(p, q).items():
            family = next(f for f in ConstructionFamily
                          if _SPECS[f].regimes.get(objective) is regime)
            for c in cs:
                parts = part_count(family, c, p, q)
                n = 100 * parts
                if applicability_error(family, n, c, p, q) is None:
                    out.append((family, objective, n, c, p, q))
    return out


def attainment(family, objective, n, c, p, q) -> tuple[Fraction, Fraction, Fraction]:
    """Build the family at (n, c, p, q); return the closed-form coefficient
    of the objective, how far objective/n^2 of the build lands from it, and
    the tolerance 5*parts/n."""
    coefficient = bounds.coefficient(p, q, c, objective)
    counts = build(family, n, c, p, q).predicted_counts
    value = counts.total if objective == "sum" else counts.minimum
    deviation = abs(Fraction(value, n * n) - coefficient)
    return coefficient, deviation, Fraction(5 * part_count(family, c, p, q), n)


def suite_constructions_free(seed: int = DEFAULT_SEED) -> list[VerificationCase]:
    """Freeness over the documented grid plus coefficient attainment."""
    cases = [_freeness_case(*job) for job in _grid_builds()]
    for (family, objective, n, c, p, q) in attainment_instances():
        coefficient, deviation, tolerance = attainment(family, objective, n, c, p, q)
        cases.append(_case("theorem", {"family": family.value, "objective": objective,
                                       "n": n, "c": c, "p": p, "q": q},
                           f"|{objective}/n^2 - {coefficient}| <= {tolerance}",
                           f"deviation {float(deviation):.6f}", deviation <= tolerance))
    return cases


# -- exact-small ---------------------------------------------------------

_EXACT_SMALL_POINTS = (
    # (n, c, p, q, objective): `bounds.exact_bound` gives each an EXACT value
    (3, 2, 1, 1, "sum"), (3, 3, 1, 1, "sum"), (4, 2, 1, 1, "sum"), (4, 3, 1, 1, "sum"),
    (3, 4, 1, 1, "sum"), (4, 4, 1, 1, "sum"), (4, 2, 1, 1, "min"), (4, 3, 1, 1, "min"),
    (5, 2, 1, 1, "min"), (3, 2, 1, 1, "min"),
)


def suite_exact_small(seed: int = DEFAULT_SEED) -> list[VerificationCase]:
    """Branch-and-bound versus the exact values of `bounds.exact_bound`,
    the oracle cross-check, and reversal symmetry of optima."""
    cases = []
    for (n, c, p, q, objective) in _EXACT_SMALL_POINTS:
        bound = bounds.exact_bound(StarPattern(p, q), n, c, objective)
        outcome = max_exact(n, c, StarPattern(p, q), objective)
        exact = bound.kind == bounds.EXACT
        cases.append(_case("theorem", {"check": "exact-table", "n": n, "c": c, "p": p, "q": q,
                                       "objective": objective},
                           f"{bound.value}, proved optimal",
                           f"{outcome.optimum}, proved={outcome.proved_optimal}, "
                           f"nodes={outcome.nodes_explored}",
                           exact and outcome.optimum == bound.value and outcome.proved_optimal,
                           "" if exact else f"exact_bound gives {bound.kind}"))
    for (n, c, q) in ((3, 2, 2), (4, 2, 2), (4, 3, 2)):
        for objective in bounds.OBJECTIVES:
            bb = max_exact(n, c, StarPattern(0, q), objective).optimum
            cover = cover_oracle_s0q(n, c, q, objective).optimum
            cases.append(_case("oracle", {"check": "cross-check", "n": n, "c": c, "q": q,
                                          "objective": objective},
                               "engines agree", f"branch_bound={bb}, cover={cover}", bb == cover,
                               "" if bb == cover else "correctness failure: exact engines disagree"))
    for (n, c, p, q, objective) in ((3, 2, 0, 2, "sum"), (3, 2, 1, 2, "sum"),
                                    (3, 2, 0, 2, "min"), (4, 2, 0, 2, "min")):
        fwd = max_exact(n, c, StarPattern(p, q), objective)
        rev = max_exact(n, c, StarPattern(q, p), objective)
        cases.append(_case("theorem", {"check": "reversal", "n": n, "c": c, "p": p, "q": q,
                                       "objective": objective},
                           "equal optima for (p,q) and (q,p)", f"{fwd.optimum} vs {rev.optimum}",
                           fwd.optimum == rev.optimum))
    return cases


# -- thresholds ---------------------------------------------------------

def _gap(left, right, p: int, q: int, start) -> float:
    """|left - right| of two regime formulas of `bounds` at a start, rounded to a float."""
    at = Fraction(start.float_value() if isinstance(start, bounds.SurdValue) else float(start))
    return abs(float(left(p, q, at)) - float(right(p, q, at)))


def suite_thresholds(seed: int = DEFAULT_SEED) -> list[VerificationCase]:
    """Exact ordering identities and piecewise continuity for all p <= q <= 12."""
    cases = []
    for p in range(1, 13):
        for q in range(p, 13):
            ts = bounds.thresholds(p, q)
            problems = []
            if not ts.t1 <= ts.t2:
                problems.append("t1 > t2")
            if bounds.compare_int_surd(ts.t1, ts.t3) > 0:
                problems.append("t1 > t3")
            if ts.chain == bounds.CHAIN_FIRST:
                if ts.t2 is bounds.INFINITY:
                    problems.append("chain FIRST with infinite t2")
                else:
                    if bounds.compare_int_surd(ts.t2, ts.t3) > 0:
                        problems.append("FIRST but t2 > t3")
                    if bounds.compare_surds(ts.t3, ts.t4) > 0:
                        problems.append("FIRST but t3 > t4")
            else:
                if bounds.compare_surds(ts.t4, ts.t3) > 0:
                    problems.append("SECOND but t4 > t3")
                if ts.t2 is not bounds.INFINITY:
                    if bounds.compare_int_surd(ts.t2, ts.t3) < 0:
                        problems.append("SECOND but t3 > t2")
            sign = q * (q - p - 1) ** 2 - p * (p + q - 1) ** 2
            predicted_first = q >= p + 2 and sign >= 0
            if (ts.chain == bounds.CHAIN_FIRST) != predicted_first:
                problems.append("chain/sign mismatch")
            note = ""
            if sign >= 0 and q < p + 2:
                note = "sign >= 0 but q <= p+1 forces the SECOND chain (t2 infinite)"

            # continuity at each interior start, 1e-9 float tolerance; an
            # infinite start (FIRST with infinite t2) is reported above
            for objective in bounds.OBJECTIVES:
                listed = bounds.regimes(p, q, objective)
                for (left, _, _), (right, start, name) in zip(listed, listed[1:]):
                    if start is bounds.INFINITY:
                        break
                    if _gap(left, right, p, q, start) > 1e-9:
                        problems.append("sum discontinuity" if objective == "sum"
                                        else f"min discontinuity at {name}")
            cases.append(_case("theorem", {"p": p, "q": q}, "orderings, chain rule, continuity",
                               "; ".join(problems) or "all identities hold", not problems, note))
    return cases


# -- cover-adjudication --------------------------------------------------

def _min_status(got: int, bound: bounds.BoundResult) -> str:
    """An out-star minimum against the floor formula: pass at it,
    discrepancy below an UPPER_BOUND, fail otherwise."""
    if got == bound.value:
        return "pass"
    return "discrepancy" if bound.kind == bounds.UPPER_BOUND and got < bound.value else "fail"


def suite_cover_adjudication(seed: int = DEFAULT_SEED) -> list[VerificationCase]:
    """Out-star exact formulas in one pass over n > c >= q, n <= 30, with
    `exact_bound` asked once per objective at each point.  Where q <= 4:
    construction sums equal (q-1)(n^2-n), and the per-color minimum of the
    balanced assignment meets the floor formula.  Where c <= 6: the cover
    oracle's sum and min.  Then the frozen (8,5,3) adjudication instance."""
    cases = []

    def min_case(params, expected, got, bound, notes):
        status = _min_status(got, bound)
        cases.append(VerificationCase(params, expected, "theorem", str(got), status, notes[status]))

    for n in range(2, 31):
        for c in range(1, n):
            for q in range(1, c + 1 if c <= 6 else 5):  # q <= 4 or c <= 6
                point = {"n": n, "c": c, "q": q}
                total = bounds.exact_bound(StarPattern(0, q), n, c, "sum").value
                bound = bounds.exact_bound(StarPattern(0, q), n, c, "min")
                target, r = bound.value, n * (q - 1) % c
                if q <= 4:
                    for family in (ConstructionFamily.COMPLETE_PREFIX,
                                   ConstructionFamily.ASSIGNED_OUT):
                        if applicability_error(family, n, c, 0, q) is None:
                            got = build(family, n, c, 0, q).predicted_counts.total
                            cases.append(_case("theorem", {"check": "sum-formula",
                                                           "family": family.value, **point},
                                               str(total), str(got), got == total))
                    built = build(ConstructionFamily.CYCLIC_REMAINDER,
                                  n, c, 0, q).predicted_counts.minimum
                    min_case({"check": "min-formula", "family": "CYCLIC_REMAINDER", **point},
                             str(target), built, bound, {
                                "pass": "",
                                "discrepancy": f"(q-1) = {q-1} does not divide r = {r}: "
                                               f"balanced assignment reaches {built}, "
                                               f"formula target {target}",
                                "fail": "below formula although (q-1) | r" if built < target
                                        else "above formula",
                            })
                if c <= 6:
                    got = cover_oracle_s0q(n, c, q, "sum").optimum
                    cases.append(_case("theorem", {"check": "cover-sum", **point},
                                       str(total), str(got), got == total))
                    optimum = cover_oracle_s0q(n, c, q, "min").optimum
                    exact = bound.kind == bounds.EXACT
                    min_case({"check": "cover-min", **point},
                             str(target) if exact else f"<= {target}", optimum, bound, {
                                "pass": "",
                                "discrepancy": f"exact optimum {optimum} below formula target "
                                               f"{target}; (q-1) = {q-1} does not divide r = {r}",
                                "fail": "" if exact else "oracle exceeds the proved upper bound",
                            })
                if (n, c, q) == (8, 5, 3):
                    constructed, oracle_value, target_853 = built, optimum, target
    # frozen adjudication instance, from the values both checks computed there
    cases.append(_case("oracle", {"check": "frozen-853", "n": 8, "c": 5, "q": 3},
                       str(FROZEN_COVER_853_MIN), str(oracle_value),
                       oracle_value == FROZEN_COVER_853_MIN,
                       "regression constant for the adjudication instance"))
    sandwich_ok = constructed <= oracle_value <= target_853
    strict = oracle_value < target_853
    cases.append(VerificationCase(
        params={"check": "adjudication-853", "n": 8, "c": 5, "q": 3},
        expected=f"construction {constructed} <= oracle <= {target_853}",
        expected_kind="oracle",
        actual=f"oracle {oracle_value}",
        status=("discrepancy" if strict else "pass") if sandwich_ok else "fail",
        note=("formula target not attained: exact optimum is strictly below; "
              "remainder 1 is not divisible by q-1 = 2" if strict else ""),
    ))
    return cases


_SUITES: dict[str, Callable[[int], list[VerificationCase]]] = {
    "detector-equivalence": suite_detector_equivalence,
    "constructions-free": suite_constructions_free,
    "exact-small": suite_exact_small,
    "thresholds": suite_thresholds,
    "cover-adjudication": suite_cover_adjudication,
}
SUITE_NAMES = tuple(_SUITES)


def combine_suites(seed: int, cases_by_suite: dict[str, list[VerificationCase]]) -> VerificationReport:
    """The "all" report over every suite's cases, each tagged with its suite."""
    return _finish("all", seed, [
        replace(case, params={**case.params, "suite": suite_name})
        for suite_name in SUITE_NAMES for case in cases_by_suite[suite_name]
    ])


def run_suite(name: str, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Run one named suite, or all of them under the name "all"."""
    if name == "all":
        return combine_suites(seed, {suite_name: _SUITES[suite_name](seed)
                                     for suite_name in SUITE_NAMES})
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES + ('all',))}"
        )
    return _finish(name, seed, _SUITES[name](seed))
