"""Closed forms: thresholds, coefficients, exact values, exact arithmetic."""

import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rainbow_stars import bounds
from rainbow_stars.bounds import (
    CHAIN_FIRST,
    CHAIN_SECOND,
    INFINITY,
    OBJECTIVES,
    UPPER_BOUND,
    SurdValue,
    coefficient,
    compare_int_surd,
    compare_surds,
    compare_threshold,
    exact_bound,
    fraction_str,
    min_base,
    sum_high,
    threshold_json,
    thresholds,
)
from rainbow_stars.model import StarPattern


def test_surd_comparisons_are_exact():
    root2 = SurdValue(0, 2)
    assert compare_int_surd(1, root2) < 0
    assert compare_int_surd(2, root2) > 0
    assert compare_int_surd(3, SurdValue(0, 9)) == 0
    assert compare_int_surd(Fraction(141421356, 10**8), root2) < 0
    assert compare_int_surd(Fraction(141421357, 10**8), root2) > 0
    assert compare_surds(SurdValue(1, 2), SurdValue(0, 6)) < 0  # 2.414 vs 2.449
    assert compare_surds(SurdValue(2, 2), SurdValue(1, 6)) < 0  # 3.414 vs 3.449
    assert compare_surds(SurdValue(0, 8), SurdValue(0, 8)) == 0
    assert compare_int_surd(0, SurdValue(1, 4)) < 0  # c below the base
    # a regime start of each kind: 5 = t1 of (1, 4), 20/3 = t2 of (1, 5),
    # 3 + sqrt(4) = t3 of (2, 2); no finite c reaches INFINITY
    t2 = thresholds(1, 5).t2
    assert t2 == Fraction(20, 3)
    for start, below, at, above in ((5, 4, 5, 6), (t2, 6, t2, 7),
                                    (SurdValue(3, 4), 4, 5, 6),
                                    (SurdValue(2, 2), 3, None, 4)):
        assert compare_threshold(below, start) == -1
        assert compare_threshold(above, start) == 1
        if at is not None:
            assert compare_threshold(at, start) == 0
    assert compare_threshold(10**100, INFINITY) == -1
    assert compare_threshold(Fraction(10**100, 3), INFINITY) == -1
    assert [SurdValue(0, 2).descriptor(), SurdValue(1, 2).descriptor(),
            SurdValue(1, 4).descriptor()] == ["sqrt(2)", "1+sqrt(2)", "3"]
    with pytest.raises(ValueError, match="radicand must be >= 0, got -1"):
        SurdValue(0, -1)


def test_threshold_values_for_small_patterns():
    ts = thresholds(1, 2)
    assert ts.t1 == 3
    assert ts.t2 is INFINITY  # q <= p+1 leaves the middle regime unbounded
    assert ts.t3 == SurdValue(2, 2)
    assert ts.t4 == SurdValue(1, 1)  # 1 + sqrt((q-1)(q-p)) = 2
    assert ts.chain == CHAIN_SECOND

    ts = thresholds(1, 3)
    assert ts.t1 == 4
    assert ts.t2 == Fraction(6)
    assert ts.t3 == SurdValue(3, 3)
    assert ts.t4 == SurdValue(2, 4)
    assert ts.chain == CHAIN_SECOND  # 3(q-p-1)^2 = 3 < 9 = p(p+q-1)^2

    ts = thresholds(1, 4)
    # all three upper thresholds coincide at 6; the sign form vanishes
    assert ts.t2 == Fraction(6)
    assert ts.t3 == SurdValue(4, 4)
    assert ts.t4 == SurdValue(3, 9)
    assert ts.chain == CHAIN_FIRST


def test_chain_rule_handles_equal_sign_with_small_q():
    # the sign form q(q-p-1)^2 - p(p+q-1)^2 vanishes at (1,1), but t2 is
    # unbounded there, so the ordering must be SECOND
    assert thresholds(1, 1).chain == CHAIN_SECOND
    sign = lambda p, q: q * (q - p - 1) ** 2 - p * (p + q - 1) ** 2
    assert sign(1, 1) == 0


@given(st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=144, deadline=None)
def test_threshold_orderings(p, q):
    if p > q:
        p, q = q, p
    ts = thresholds(p, q)
    assert compare_int_surd(ts.t1, ts.t3) <= 0
    if ts.t2 is not INFINITY:
        assert Fraction(ts.t1) <= ts.t2
    if ts.chain == CHAIN_FIRST:
        assert ts.t2 is not INFINITY
        assert compare_int_surd(ts.t2, ts.t3) <= 0
        assert compare_surds(ts.t3, ts.t4) <= 0
    else:
        assert compare_surds(ts.t4, ts.t3) <= 0
        if ts.t2 is not INFINITY:
            assert compare_int_surd(ts.t2, ts.t3) >= 0


def test_sum_coefficient_examples():
    assert coefficient(1, 2, 8, "sum") == Fraction(16, 7)
    # below the split the coefficient is flat at p+q-1
    assert coefficient(1, 2, 3, "sum") == 2
    assert coefficient(1, 2, 5, "sum") == 2
    # (1,1): flat 1 through c = 4, then c/4
    assert coefficient(1, 1, 2, "sum") == 1
    assert coefficient(1, 1, 4, "sum") == 1
    assert coefficient(1, 1, 8, "sum") == 2


def test_min_coefficient_examples():
    assert coefficient(1, 2, 3, "min") == Fraction(4, 9)
    assert coefficient(1, 2, 4, "min") == Fraction(1, 3)
    # (1,1) collapses to 1/4 in every regime
    for c in range(2, 12):
        assert coefficient(1, 1, c, "min") == Fraction(1, 4)
    # FIRST-chain linear regime: (q-1)/c between t2 and t4
    ts = thresholds(1, 5)
    assert ts.chain == CHAIN_FIRST
    c = 8  # t2 = 20/3 <= 8 <= t4 = 4 + sqrt(16) = 8
    assert coefficient(1, 5, c, "min") == Fraction(4, c)


def test_coefficient_domain():
    with pytest.raises(ValueError, match=r"coefficients need c >= p\+q, got c=2 < 3"):
        coefficient(1, 2, 2, "sum")
    # p = 0 is the out-star; a negative p and p > q fail the threshold checks
    with pytest.raises(ValueError, match="thresholds need p >= 1"):
        coefficient(-1, 2, 5, "min")
    with pytest.raises(ValueError, match="thresholds need p <= q"):
        coefficient(3, 2, 9, "min")
    with pytest.raises(ValueError, match="objective must be one of"):
        coefficient(1, 2, 8, "max")


def test_coefficient_entry_covers_the_out_star():
    # p = 0 gives q-1 and (q-1)/c; p >= 1 is the regime chooser's answer
    assert [coefficient(0, 3, 6, objective) for objective in OBJECTIVES] == [2, Fraction(1, 3)]
    assert coefficient(1, 2, 8, "sum") == sum_high(1, 2, 8)
    assert coefficient(1, 2, 3, "min") == min_base(1, 2, 3)
    with pytest.raises(ValueError, match="the out-star coefficient needs c >= q, got c=2 < q=3"):
        coefficient(0, 3, 2, "sum")


def test_coefficient_continuity_guard(monkeypatch):
    # a regime formula shifted by 1 disagrees with its neighbour at the
    # start they share: t1 = 3 for (1, 2), the sum threshold 4 for (1, 1)
    min_mid, sum_high = bounds.min_mid, bounds.sum_high
    monkeypatch.setattr(bounds, "min_mid", lambda p, q, c: min_mid(p, q, c) + 1)
    with pytest.raises(RuntimeError, match=r"^internal error: adjacent formulas disagree at t1 "
                                           r"\(p=1, q=2, c=3\): 4/9 != 13/9$"):
        coefficient(1, 2, 3, "min")
    assert coefficient(1, 2, 4, "min") == Fraction(1, 3)  # past t3 = 2+sqrt(2): min_top
    monkeypatch.setattr(bounds, "sum_high", lambda p, q, c: sum_high(p, q, c) + 1)
    with pytest.raises(RuntimeError, match=r"^internal error: adjacent formulas disagree at "
                                           r"sum threshold \(p=1, q=1, c=4\): 1 != 2$"):
        coefficient(1, 1, 4, "sum")
    assert coefficient(1, 1, 3, "sum") == 1


@given(st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=36, deadline=None)
def test_coefficient_monotonicity_in_c(p, q):
    if p > q:
        p, q = q, p
    values_min = [coefficient(p, q, c, "min") for c in range(p + q, 50)]
    values_sum = [coefficient(p, q, c, "sum") for c in range(p + q, 50)]
    assert all(a >= b for a, b in zip(values_min, values_min[1:]))
    assert all(a <= b for a, b in zip(values_sum, values_sum[1:]))
    # per-color average never beats the sum
    for coef_min, coef_sum, c in zip(values_min, values_sum, range(p + q, 50)):
        assert coef_min * c <= coef_sum


@given(st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=81, deadline=None)
def test_piecewise_continuity(p, q):
    if p > q:
        p, q = q, p
    split = p + 2 * q - 1 + 2 * math.sqrt(p * q)
    high = (split - p + 1) ** 2 / (4 * (split - q + 1)) + (p - 1)
    assert abs(high - (p + q - 1)) < 1e-9
    ts = thresholds(p, q)
    t1 = ts.t1
    base = (p + q - 1) ** 2 / t1**2
    mid = (t1 - q + 1) ** 2 * (p + q - 1) ** 2 / (4 * t1 * t1 * p * (t1 - p - q + 1))
    assert abs(base - mid) < 1e-9


def test_exact_bound_out_star_splits():
    # many vertices: extremal range
    res = exact_bound(StarPattern(0, 2), 5, 3, "min")
    assert (res.kind, res.value) == ("EXACT", 6)
    res = exact_bound(StarPattern(0, 2), 5, 3, "sum")
    assert (res.kind, res.value) == ("EXACT", 20)
    # many colors: per-vertex fixed targets
    res = exact_bound(StarPattern(0, 2), 4, 7, "sum")
    assert (res.kind, res.value) == ("EXACT", 28)
    res = exact_bound(StarPattern(0, 2), 4, 7, "min")
    assert (res.kind, res.value) == ("EXACT", 4)
    # so few vertices the star cannot exist at all
    res = exact_bound(StarPattern(0, 5), 4, 3, "sum")
    assert res.kind == "EXACT" and res.value == 3 * 4 * 3
    # fewer colors than star edges
    res = exact_bound(StarPattern(0, 3), 9, 2, "min")
    assert res.kind == "UNCONSTRAINED" and res.value == 9 * 8


def test_out_star_min_is_exact_only_when_q_minus_1_divides_r():
    # r = 16 mod 5 = 1 is not a multiple of q-1 = 2: the floor formula gives
    # 22 but the optimum is 21, so the formula is only an upper bound
    res = exact_bound(StarPattern(0, 3), 8, 5, "min")
    assert (res.kind, res.value) == (UPPER_BOUND, 22)
    assert "oracle --cover" in res.domain_note
    # r = 18 mod 5 = 3, not even: the sum stays exact
    assert exact_bound(StarPattern(0, 3), 9, 5, "sum").kind == "EXACT"
    assert exact_bound(StarPattern(0, 3), 9, 5, "min").kind == UPPER_BOUND
    # r = 20 mod 6 = 2 and r = 0 are multiples of 2; q = 2 divides everything
    assert exact_bound(StarPattern(0, 3), 10, 6, "min").kind == "EXACT"
    assert exact_bound(StarPattern(0, 3), 10, 5, "min").kind == "EXACT"
    assert exact_bound(StarPattern(0, 2), 7, 3, "min").kind == "EXACT"
    assert exact_bound(StarPattern(3, 0), 8, 5, "min").kind == UPPER_BOUND


def test_exact_bound_two_path():
    assert exact_bound(StarPattern(1, 1), 4, 2, "sum").value == 12
    assert exact_bound(StarPattern(1, 1), 4, 5, "sum").value == 5 * 4
    assert exact_bound(StarPattern(1, 1), 4, 2, "min").value == 4
    assert exact_bound(StarPattern(1, 1), 7, 3, "min").value == 12
    # n = 3 is off the floor(n^2/4) formula: the two triangle orientations
    # reach 3 at c = 2, and every c >= 3 is capped by the c = 3 optimum, 2
    res = exact_bound(StarPattern(1, 1), 3, 2, "min")
    assert (res.kind, res.value) == ("EXACT", 3)
    for c in (3, 4, 10):
        res = exact_bound(StarPattern(1, 1), 3, c, "min")
        assert (res.kind, res.value) == ("EXACT", 2)


def test_exact_bound_normalizes_by_reversal():
    fwd = exact_bound(StarPattern(0, 2), 5, 3, "min")
    rev = exact_bound(StarPattern(2, 0), 5, 3, "min")
    assert rev.value == fwd.value
    assert rev.normalized and not fwd.normalized


def test_exact_bound_asymptotic_fallback():
    res = exact_bound(StarPattern(1, 2), 100, 8, "sum")
    assert res.kind == "ASYMPTOTIC"
    assert res.value == Fraction(16, 7)


def test_exact_bound_trivial_ranges():
    res = exact_bound(StarPattern(1, 2), 3, 5, "sum")
    assert res.kind == "UNCONSTRAINED" and res.value == 5 * 3 * 2
    res = exact_bound(StarPattern(2, 2), 9, 3, "min")
    assert res.kind == "UNCONSTRAINED" and res.value == 9 * 8


def test_fraction_str_and_threshold_json():
    assert fraction_str(Fraction(16, 7)) == "16/7"
    assert fraction_str(Fraction(4, 2)) == "2"
    assert fraction_str(7) == "7"
    assert fraction_str(INFINITY) == "inf"
    blob = threshold_json(thresholds(1, 2))
    assert blob["t2"] == {"exact": "inf", "decimal": "inf"}
    assert blob["t3"]["exact"] == "2+sqrt(2)"
    assert blob["chain"] == CHAIN_SECOND
    blob = threshold_json(thresholds(1, 3))
    assert blob["t2"] == {"exact": "6", "decimal": "6.000000000000"}
    assert blob["t4"]["exact"] == "4"  # 2 + sqrt(4) collapses to an integer


def test_bound_outputs_pinned():
    # one sha256 over every exact_bound repr (or its error's type and
    # message) for p, q <= 5, c <= 15, n <= 12 and both objectives, every
    # thresholds repr and threshold_json for p <= q <= 12, and both
    # coefficients for c from p+q to 39; pinned before the closed forms
    # became one function per regime
    digest = hashlib.sha256()
    for p in range(0, 6):
        for q in range(0, 6):
            for c in range(0, 16):
                for n in range(0, 13):
                    for objective in ("sum", "min"):
                        try:
                            line = repr(exact_bound(StarPattern(p, q), n, c, objective))
                        except ValueError as exc:
                            line = f"{type(exc).__name__}: {exc}"
                        digest.update(line.encode())
    for q in range(1, 13):
        for p in range(1, q + 1):
            ts = thresholds(p, q)
            digest.update(repr(ts).encode())
            digest.update(json.dumps(threshold_json(ts), sort_keys=True).encode())
            for c in range(p + q, 40):
                digest.update(repr((coefficient(p, q, c, "min"), coefficient(p, q, c, "sum"))).encode())
    assert digest.hexdigest() == (
        "a84ef26587d111f31b4dd0a5bd521fba11ebfe696f1e0b0782dfbcd20a51028f"
    )
