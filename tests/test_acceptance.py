"""Acceptance gate: nine criteria, one printed pass/fail line each.

Each test prints its verdict line even under output capture, then asserts.
Tolerances and grids are pinned here and must not be loosened: coefficient
attainment allows |objective/n^2 - coefficient| <= 5*parts/n, threshold
algebra must finish within 5 s, the detector battery within 60 s, and each
exact-search instance within a 120 s budget.
"""

import hashlib
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from rainbow_stars import verify
from rainbow_stars.constructions import ConstructionFamily, build
from rainbow_stars.detector import find_rainbow_star
from rainbow_stars.model import DigraphCollection, StarPattern, edge_counts, permute, reverse
from rainbow_stars.oracle import cover_oracle_s0q, max_exact
from rainbow_stars.verify import (
    DEFAULT_SEED,
    FROZEN_COVER_853_MIN,
    combine_suites,
    suite_constructions_free,
    suite_cover_adjudication,
    suite_detector_equivalence,
    suite_exact_small,
    suite_thresholds,
)


def announce(capsys, number: int, ok: bool, label: str) -> None:
    with capsys.disabled():
        print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} - {label}")


def failures(cases, *checks):
    return [
        case for case in cases
        if case.status == "fail" and (not checks or case.params.get("check") in checks)
    ]


@pytest.fixture(scope="module")
def detector_cases():
    return suite_detector_equivalence(DEFAULT_SEED)


@pytest.fixture(scope="module")
def construction_cases():
    return suite_constructions_free(DEFAULT_SEED)


@pytest.fixture(scope="module")
def exact_small_cases():
    return suite_exact_small(DEFAULT_SEED)


@pytest.fixture(scope="module")
def adjudication_run():
    """The cover-adjudication cases, with how often the suite asked each
    exact_bound question and built each construction."""
    asked, built = Counter(), Counter()

    def counting(counter, function):
        def wrapper(*args):
            counter[args] += 1
            return function(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify.bounds, "exact_bound", counting(asked, verify.bounds.exact_bound))
        patch.setattr(verify, "build", counting(built, verify.build))
        cases = suite_cover_adjudication(DEFAULT_SEED)
    return cases, asked, built


@pytest.fixture(scope="module")
def adjudication_cases(adjudication_run):
    return adjudication_run[0]


def test_criterion_1_detector_equivalence(capsys, detector_cases):
    bad = failures(detector_cases, "equivalence", "equivalence-runtime")
    ok = not bad
    announce(capsys, 1, ok,
             "three detectors agree on 1000 seeded instances within 60 s")
    assert ok, bad


def test_criterion_2_construction_freeness(capsys, construction_cases):
    freeness = [case for case in construction_cases if "family" in case.params
                and "objective" not in case.params]
    bad = [case for case in freeness if case.status == "fail"]
    ok = len(freeness) > 400 and not bad
    announce(capsys, 2, ok,
             f"all {len(freeness)} grid builds certified rainbow-free")
    assert ok, bad[:5]


def test_criterion_3_exact_sum_and_min_formulas(capsys, adjudication_cases):
    sum_cases = [c for c in adjudication_cases if c.params.get("check") == "sum-formula"]
    min_cases = [c for c in adjudication_cases if c.params.get("check") == "min-formula"]
    bad = failures(adjudication_cases, "sum-formula", "min-formula")
    divisible_gaps = [
        c for c in min_cases
        if c.status == "discrepancy" and "does not divide" not in c.note
    ]
    ok = sum_cases and min_cases and not bad and not divisible_gaps
    announce(capsys, 3, bool(ok),
             "construction sums and the divisible-remainder minima are exact; "
             f"{sum(c.status == 'discrepancy' for c in min_cases)} indivisible "
             "cases reported as discrepancies")
    assert ok, (bad[:5], divisible_gaps[:5])


def test_criterion_4_exact_small_table(capsys, exact_small_cases):
    table = [c for c in exact_small_cases if c.params.get("check") == "exact-table"]
    bad = [c for c in table if c.status != "pass"]
    ok = len(table) == 10 and not bad
    announce(capsys, 4, ok,
             "branch-and-bound proves all ten pinned optima within budget")
    assert ok, bad


def test_criterion_5_cover_oracle_grids(capsys, adjudication_cases):
    bad = failures(adjudication_cases, "cover-sum", "cover-min",
                   "frozen-853", "adjudication-853")
    frozen = [c for c in adjudication_cases if c.params.get("check") == "frozen-853"]
    sandwich = [c for c in adjudication_cases
                if c.params.get("check") == "adjudication-853"]
    oracle_853 = cover_oracle_s0q(8, 5, 3, "min").optimum
    constructed_853 = build(
        ConstructionFamily.CYCLIC_REMAINDER, 8, 5, 0, 3
    ).predicted_counts.minimum
    pinned = (
        oracle_853 == FROZEN_COVER_853_MIN
        and constructed_853 <= oracle_853 <= 22
    )
    ok = (not bad and len(frozen) == 1 and frozen[0].status == "pass"
          and len(sandwich) == 1 and sandwich[0].status in ("pass", "discrepancy")
          and pinned)
    announce(capsys, 5, ok,
             f"cover oracle matches the closed forms; (8,5,3) frozen at "
             f"{FROZEN_COVER_853_MIN} with {constructed_853} <= oracle <= 22")
    assert ok, (bad[:5], frozen, sandwich, oracle_853, constructed_853)


def test_cover_adjudication_strict_points(adjudication_cases):
    # the strict points are the cover-min discrepancies: at (5,3,3) the
    # oracle and the balanced assignment reach 12 under the floor formula's
    # 13, and q <= 4, c <= 6, n <= 16 holds 20 of them
    def at_533(check):
        [case] = [case for case in adjudication_cases if case.params["check"] == check
                  and (case.params["n"], case.params["c"], case.params["q"]) == (5, 3, 3)]
        return case.status, case.actual, case.expected

    assert at_533("cover-min") == ("discrepancy", "12", "<= 13")
    assert at_533("min-formula") == ("discrepancy", "12", "13")
    strict = [case for case in adjudication_cases
              if case.params["check"] == "cover-min" and case.status == "discrepancy"
              and case.params["q"] <= 4 and case.params["c"] <= 6 and case.params["n"] <= 16]
    assert len(strict) == 20


def test_cover_adjudication_asks_each_question_once(adjudication_run):
    # one pass over the (n, c, q) points: each (pattern, n, c, objective)
    # goes to exact_bound once, and each (family, n, c, 0, q) is built once
    _, asked, built = adjudication_run
    assert (len(asked), set(asked.values())) == (3286, {1})
    assert (len(built), set(built.values())) == (4141, {1})


def test_criterion_6_engine_cross_check(capsys, exact_small_cases):
    cross = [c for c in exact_small_cases if c.params.get("check") == "cross-check"]
    bad = [c for c in cross if c.status != "pass"]
    ok = len(cross) == 6 and not bad
    announce(capsys, 6, ok,
             "branch-and-bound and cover oracle agree on every common instance")
    if bad:
        # disagreement between two exact engines invalidates everything
        # downstream, so stop the whole run rather than continue
        pytest.exit(f"exact engines disagree: {bad}", returncode=1)
    assert ok


def test_criterion_7_threshold_algebra(capsys):
    start = time.monotonic()
    cases = suite_thresholds(DEFAULT_SEED)
    elapsed = time.monotonic() - start
    bad = [c for c in cases if c.status != "pass"]
    ok = len(cases) == 78 and not bad and elapsed <= 5.0
    announce(capsys, 7, ok,
             f"exact threshold identities for all 78 pairs in {elapsed:.2f} s")
    assert ok, (bad[:5], elapsed)


def test_criterion_8_coefficient_attainment(capsys, construction_cases):
    attainment = [case for case in construction_cases if "objective" in case.params]
    bad = [case for case in attainment if case.status != "pass"]
    # the worked example: B_ONLY at (p,q,c) = (1,2,3), n = 600, tolerance 0.025
    out = build(ConstructionFamily.B_ONLY, 600, 3, 1, 2)
    deviation = abs(Fraction(out.predicted_counts.minimum, 600 * 600) - Fraction(4, 9))
    example_ok = deviation <= Fraction(25, 1000)
    ok = len(attainment) >= 50 and not bad and example_ok
    announce(capsys, 8, ok,
             f"{len(attainment)} attainment checks within 5*parts/n; "
             f"worked example deviates {float(deviation):.4f} <= 0.025")
    assert ok, (bad[:5], float(deviation))


def test_criterion_9_invariance_battery(capsys):
    rng = random.Random(DEFAULT_SEED)
    violations = []
    patterns = [(0, 1), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1)]
    for trial in range(150):
        n = rng.randint(2, 5)
        c = rng.randint(1, 4)
        p, q = patterns[rng.randrange(len(patterns))]
        density = rng.choice((0.2, 0.5, 0.8))
        edges = [
            (i, u, v)
            for i in range(1, c + 1)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and rng.random() < density
        ]
        col = DigraphCollection.from_edges(n, c, edges)
        pat = StarPattern(p, q)
        verdict = find_rainbow_star(col, pat) is None
        vperm = list(range(1, n + 1))
        cperm = list(range(1, c + 1))
        rng.shuffle(vperm)
        rng.shuffle(cperm)
        if (find_rainbow_star(permute(col, vperm, None), pat) is None) != verdict:
            violations.append(("vertex-perm", trial))
        if (find_rainbow_star(permute(col, None, cperm), pat) is None) != verdict:
            violations.append(("color-perm", trial))
        if (find_rainbow_star(reverse(col), pat.reversed()) is None) != verdict:
            violations.append(("reversal", trial))
    # optima: reversal symmetry, and witness value survives relabeling
    for _ in range(8):
        n = rng.randint(3, 4)
        c = rng.randint(2, 3)
        p, q = rng.choice(((0, 1), (0, 2), (1, 1)))
        objective = rng.choice(("sum", "min"))
        fwd = max_exact(n, c, StarPattern(p, q), objective, budget_secs=120.0)
        rev = max_exact(n, c, StarPattern(q, p), objective, budget_secs=120.0)
        if fwd.optimum != rev.optimum:
            violations.append(("oracle-reversal", (n, c, p, q, objective)))
        vperm = list(range(1, n + 1))
        cperm = list(range(1, c + 1))
        rng.shuffle(vperm)
        rng.shuffle(cperm)
        moved = permute(fwd.witness, vperm, cperm)
        counts = edge_counts(moved)
        value = counts.total if objective == "sum" else counts.minimum
        if value != fwd.optimum or find_rainbow_star(moved, StarPattern(p, q)) is not None:
            violations.append(("witness-relabel", (n, c, p, q, objective)))
    ok = not violations
    announce(capsys, 9, ok,
             "verdicts and optima invariant under reversal and relabeling")
    assert ok, violations[:5]


# sha256 of the `rainbow-stars verify --suite all --seed 20260814` report
# with its timestamp removed, written as compact JSON with sorted keys (the
# CLI's indented text parses to the same object); fixed before the
# detector's three per-center searches became one walk.  Re-pinned when min
# took max_exact's symmetry breaks: only the nodes= fields of the exact-table
# (1,1) min cases changed, (3,2) 61 -> 50, (4,2) 417 -> 188, (4,3) 475 -> 246
# and (5,2) 3866 -> 937.  Re-pinned when max_exact dropped a lone slot's
# exclude child: only the nodes= fields of the ten (1,1) exact-table cases
# changed, min (3,2) 50 -> 42, (4,2) 188 -> 172, (4,3) 246 -> 220 and (5,2)
# 937 -> 868, sum (3,2) 30 -> 27, (4,2) 88 -> 80, (3,3) 67 -> 60, (4,3)
# 292 -> 268, (3,4) 114 -> 98 and (4,4) 424 -> 374.  Re-pinned when twin
# vertices had to enter each row of max_exact in order: only six nodes=
# fields changed, min (4,2) 172 -> 146, (5,2) 868 -> 511 and (4,3) 220 ->
# 194, sum (4,2) 80 -> 62, (4,3) 268 -> 181 and (4,4) 374 -> 304.
# Re-pinned when the attainment c values came from `bounds.regimes`, where
# a start belongs to both regimes it joins: only four AC_SPLIT_SUM sum cases
# changed, (1,1) gains c = 4 and drops c = 7, (2,2) gains c = 9 and drops
# c = 12
VERIFY_REPORT_DIGEST = "3d20ba32a706c70236e7dcf885824b4d711efa88dae2ad1ed962347b6e0c2749"


def test_verify_report_pinned(detector_cases, construction_cases, exact_small_cases,
                              adjudication_cases):
    report = combine_suites(DEFAULT_SEED, {
        "detector-equivalence": detector_cases,
        "constructions-free": construction_cases,
        "exact-small": exact_small_cases,
        "thresholds": suite_thresholds(DEFAULT_SEED),
        "cover-adjudication": adjudication_cases,
    }).to_json_dict()
    del report["timestamp"]
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_REPORT_DIGEST
