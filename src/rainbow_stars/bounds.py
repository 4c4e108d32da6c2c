"""Closed-form extremal values: exact small-pattern formulas, asymptotic
coefficients of n², and the regime thresholds that select between them.

Objectives: "sum" maximizes the total edge count over the collection, "min"
maximizes the smallest per-color edge count, both over collections with no
rainbow star of the given pattern.

Each regime of the n² coefficient has one function here, taking (p, q, c)
and returning a Fraction: `sum_low` and `sum_high` for the total, and
`min_base`, `min_mid`, `min_linear` and `min_top` for the minimum.  Each
computes in integer arithmetic (c may also be a Fraction) and leaves the
domain check to its callers.  `regimes` is the one list of which function
holds from which threshold; `coefficient` reads it and is the one entry
for any normalized pattern, the out-star included.  The constructions
that reach each regime, the verification suites and the CLI read the
same functions, and the suites walk the same list.

Every regime comparison against an irrational threshold is decided in exact
integer arithmetic by squaring (each helper documents its reduction); floats
appear only in reporting and in the thresholds suite, which evaluates the
regime functions at float breakpoints.  At a boundary both adjacent formulas
are evaluated and must agree, otherwise a RuntimeError signals an internal
inconsistency.  An unbounded threshold is `INFINITY`, which is `math.inf`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .model import StarPattern

EXACT = "EXACT"
UPPER_BOUND = "UPPER_BOUND"
ASYMPTOTIC = "ASYMPTOTIC"
UNCONSTRAINED = "UNCONSTRAINED"

CHAIN_FIRST = "FIRST"
CHAIN_SECOND = "SECOND"

OBJECTIVES = ("sum", "min")


def check_objective(objective: str) -> None:
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


INFINITY = math.inf


@dataclass(frozen=True)
class SurdValue:
    """Exact value base + sqrt(radicand) with integer base, radicand >= 0."""

    base: int
    radicand: int

    def __post_init__(self) -> None:
        if self.radicand < 0:
            raise ValueError(f"radicand must be >= 0, got {self.radicand}")

    def float_value(self) -> float:
        return self.base + math.sqrt(self.radicand)

    def descriptor(self) -> str:
        root = math.isqrt(self.radicand)
        if root * root == self.radicand:
            return str(self.base + root)
        if self.base == 0:
            return f"sqrt({self.radicand})"
        return f"{self.base}+sqrt({self.radicand})"


def compare_int_surd(c: Union[int, Fraction], surd: SurdValue) -> int:
    """Sign of c - (base + sqrt(r)), for an int or a Fraction c.

    Reduction: c >= base + sqrt(r) iff c - base >= 0 and (c - base)^2 >= r
    (both sides of c - base >= sqrt(r) are nonnegative, so squaring is exact
    over the rationals).
    """
    d = c - surd.base
    if d < 0:
        return -1
    dd = d * d
    if dd > surd.radicand:
        return 1
    if dd < surd.radicand:
        return -1
    return 0


def compare_surds(s1: SurdValue, s2: SurdValue) -> int:
    """Sign of (a1 + sqrt(b1)) - (a2 + sqrt(b2)), exactly.

    For t = a1 - a2 >= 0 the question t + sqrt(b1) ? sqrt(b2) squares once to
    2t*sqrt(b1) ? b2 - t^2 - b1 =: u; a negative u settles it (left side is
    nonnegative), otherwise both sides are nonnegative and squaring again
    gives the integer comparison 4 t^2 b1 ? u^2.  For t < 0 swap the operands.
    """
    t = s1.base - s2.base
    if t < 0:
        return -compare_surds(s2, s1)
    u = s2.radicand - t * t - s1.radicand
    if u < 0:
        return 1
    lhs = 4 * t * t * s1.radicand
    rhs = u * u
    if lhs > rhs:
        return 1
    if lhs < rhs:
        return -1
    return 0


def compare_threshold(c: Union[int, Fraction], start) -> int:
    """Sign of c - start, exactly, for an int, Fraction, SurdValue or INFINITY start."""
    if isinstance(start, SurdValue):
        return compare_int_surd(c, start)
    return (c > start) - (c < start)


@dataclass(frozen=True)
class ThresholdSet:
    """Regime thresholds for a star with 1 <= p <= q.

    t1 = 2p+q-1, t2 = (q-1)(p+q-1)/(q-p-1) for q >= p+2 (else unbounded),
    t3 = p+q-1+sqrt(pq), t4 = q-1+sqrt((q-1)(q-p)).  `chain` records which
    ordering of t2, t3, t4 holds; FIRST means t2 <= t3 <= t4, SECOND means
    t4 <= t3 <= t2.
    """

    p: int
    q: int
    t1: int
    t2: Union[Fraction, float]  # INFINITY when unbounded
    t3: SurdValue
    t4: SurdValue
    chain: str


def thresholds(p: int, q: int) -> ThresholdSet:
    """Exact threshold values; chain decided by an integer predicate.

    Chain FIRST iff q >= p+2 and q(q-p-1)^2 >= p(p+q-1)^2.  For q <= p+1 the
    value t2 is unbounded, which forces the SECOND ordering; the integer
    predicate alone would misclassify (p, q) = (1, 1), the only pair with
    q <= p+1 where it holds with equality.
    """
    if p < 1:
        raise ValueError(f"thresholds need p >= 1, got p={p} (use the p=0 exact path)")
    if p > q:
        raise ValueError(f"thresholds need p <= q, got ({p}, {q}); normalize by reversal")
    t1 = 2 * p + q - 1
    t2 = Fraction((q - 1) * (p + q - 1), q - p - 1) if q >= p + 2 else INFINITY
    t3 = SurdValue(p + q - 1, p * q)
    t4 = SurdValue(q - 1, (q - 1) * (q - p))
    first = q >= p + 2 and q * (q - p - 1) ** 2 >= p * (p + q - 1) ** 2
    return ThresholdSet(p, q, t1, t2, t3, t4, CHAIN_FIRST if first else CHAIN_SECOND)


def sum_low(p: int, q: int, c: Union[int, Fraction]) -> Fraction:
    """p+q-1: the first p+q-1 colors complete."""
    return Fraction(p + q - 1)


def sum_high(p: int, q: int, c: Union[int, Fraction]) -> Fraction:
    """(c-p+1)^2/(4(c-q+1)) + p-1: the A/C split."""
    den = 4 * (c - q + 1)
    return Fraction((c - p + 1) ** 2 + (p - 1) * den, den)


def min_base(p: int, q: int, c: Union[int, Fraction]) -> Fraction:
    """(p+q-1)^2/c^2: complete digraphs on color-sharing parts."""
    return Fraction((p + q - 1) ** 2, c * c)


def min_mid(p: int, q: int, c: Union[int, Fraction]) -> Fraction:
    """(c-q+1)^2 (p+q-1)^2/(4c^2 p(c-p-q+1)): A parts into all, B parts complete."""
    return Fraction((c - q + 1) ** 2 * (p + q - 1) ** 2, 4 * c * c * p * (c - p - q + 1))


def min_linear(p: int, q: int, c: Union[int, Fraction]) -> Fraction:
    """(q-1)/c: every vertex out to everyone in q-1 of the c colors."""
    return Fraction(q - 1, c)


def min_top(p: int, q: int, c: Union[int, Fraction]) -> Fraction:
    """(c^2-(p-1)(q-1))^2/(4c^2(c-p+1)(c-q+1)): assigned A to A plus C both ways."""
    return Fraction((c * c - (p - 1) * (q - 1)) ** 2, 4 * c * c * (c - p + 1) * (c - q + 1))


def regimes(p: int, q: int, objective: str) -> tuple:
    """The n^2 coefficient's regimes for a normalized pattern p <= q, as
    (formula, start, name) triples in ascending start c; name labels the
    start, and the first starts at the smallest c of the domain, p+q.  The
    formulas are looked up at each call; 1 <= p <= q is checked by
    `thresholds`."""
    check_objective(objective)
    if p == 0:
        return ((sum_low if objective == "sum" else min_linear, q, "q"),)
    ts = thresholds(p, q)
    if objective == "sum":
        return ((sum_low, p + q, "p+q"),
                (sum_high, SurdValue(p + 2 * q - 1, 4 * p * q), "sum threshold"))
    if ts.chain == CHAIN_SECOND:
        top = ((min_top, ts.t3, "t3"),)
    else:
        top = ((min_linear, ts.t2, "t2"), (min_top, ts.t4, "t4"))
    return ((min_base, p + q, "p+q"), (min_mid, ts.t1, "t1"), *top)


def coefficient(p: int, q: int, c: int, objective: str) -> Fraction:
    """Coefficient of n^2 in the largest total edge count ("sum") or the
    largest minimum per-color edge count ("min"), for a normalized pattern
    p <= q, the out-star p = 0 included: the formula of the last of
    `regimes` whose start c has reached.  At a start the formulas that end
    and begin there must agree, or a RuntimeError is raised."""
    listed = regimes(p, q, objective)
    if p == 0 and c < q:
        raise ValueError(f"the out-star coefficient needs c >= q, got c={c} < q={q}")
    if c < p + q:
        raise ValueError(f"coefficients need c >= p+q, got c={c} < {p + q}")
    formula = None
    for regime, start, name in listed:
        sign = compare_threshold(c, start)
        if sign < 0:
            break
        if sign == 0 and formula is not None and formula(p, q, c) != regime(p, q, c):
            raise RuntimeError(
                f"internal error: adjacent formulas disagree at {name} "
                f"(p={p}, q={q}, c={c}): {formula(p, q, c)} != {regime(p, q, c)}"
            )
        formula = regime
    return formula(p, q, c)


@dataclass(frozen=True)
class BoundResult:
    """Outcome of a bound query.

    kind EXACT carries an integer value; UPPER_BOUND carries an integer the
    optimum never exceeds but may fall below; ASYMPTOTIC carries the rational
    coefficient of n^2; UNCONSTRAINED means no rainbow star of the pattern
    fits at all (too few colors or vertices), so the complete collection is
    free and gives the value.  `normalized` records that (p, q) was swapped
    to p <= q via reversal symmetry.
    """

    kind: str
    objective: str
    value: Union[int, Fraction]
    regime: str
    domain_note: str
    pattern: StarPattern
    n: int
    c: int
    normalized: bool


def out_star_min_formula(n: int, c: int, q: int) -> int:
    """The floor formula floor(n(q-1)/c)(n-1) + r, with r = n(q-1) mod c.

    For n > c >= q it is the out-star minimum when (q-1) divides r, and an
    upper bound on it otherwise.
    """
    quotient, remainder = divmod(n * (q - 1), c)
    return quotient * (n - 1) + remainder


def exact_bound(pat: StarPattern, n: int, c: int, objective: str) -> BoundResult:
    """Dispatch to the applicable closed form.

    Exact values exist for p = 0 (all n, c splits below) and for
    (p, q) = (1, 1); other patterns fall back to the asymptotic coefficient.
    The one p = 0 exception is the minimum for n > c when q-1 does not
    divide r = n(q-1) mod c: there the floor formula is an UPPER_BOUND (the
    optimum can fall below it; oracle.cover_oracle_s0q computes it).
    (1, 1) with objective "min" at n = 3 is off the floor(n^2/4) formula:
    3 at c = 2 and 2 for c >= 3, resting on `oracle.max_exact` (see the
    note of that result).
    """
    check_objective(objective)
    if n < 1 or c < 1:
        raise ValueError(f"need n >= 1 and c >= 1, got n={n}, c={c}")
    norm, swapped = pat.normalized()
    p, q = norm.p, norm.q
    complete = c * n * (n - 1) if objective == "sum" else n * (n - 1)  # every color complete

    def result(kind, value, regime, note):
        return BoundResult(kind, objective, value, regime, note, norm, n, c, swapped)

    if p == 0:
        if n <= q:
            return result(
                EXACT, complete, "out-star/all-complete",
                f"n <= q: an out-star needs q distinct targets, so every collection "
                f"on {n} vertices is free; complete collection is optimal",
            )
        if c < q:
            return result(
                UNCONSTRAINED, complete, "trivial/too-few-colors",
                "c < q: fewer colors than star edges; complete collection is free",
            )
        if n > c:
            if objective == "sum":
                return result(
                    EXACT, (q - 1) * (n * n - n), "out-star/extremal-sum",
                    "valid for n > c >= q >= 1",
                )
            value = out_star_min_formula(n, c, q)
            remainder = n * (q - 1) % c
            if q == 1 or remainder % (q - 1) == 0:
                return result(
                    EXACT, value, "out-star/extremal-min",
                    "valid for n > c >= q >= 1 when (q-1) divides r = n(q-1) mod c",
                )
            return result(
                UPPER_BOUND, value, "out-star/extremal-min",
                f"r = {remainder} is not a multiple of q-1 = {q - 1}, so the floor "
                f"formula only bounds the optimum from above and can exceed it; "
                f"'rainbow-stars oracle --cover' computes the exact value",
            )
        # q <= n <= c: fixed-target construction (q-1 common targets per
        # vertex, every color) is optimal in this range
        value = (q - 1) * c * n if objective == "sum" else n * (q - 1)
        return result(
            EXACT, value, "out-star/many-colors",
            "c >= n >= q: per-vertex fixed-target collections are optimal",
        )

    if c < p + q:
        return result(
            UNCONSTRAINED, complete, "trivial/too-few-colors",
            "c < p+q: fewer colors than star edges; complete collection is free",
        )
    if n <= p + q:
        return result(
            UNCONSTRAINED, complete, "trivial/too-few-vertices",
            "n <= p+q: fewer vertices than the star needs; complete collection is free",
        )

    if p == 1 and q == 1:
        if objective == "sum":
            if c <= 3:
                return result(
                    EXACT, n * n - n, "two-path/sum-few-colors",
                    "valid for 2 <= c <= 3, n >= 3",
                )
            return result(
                EXACT, c * (n * n // 4), "two-path/sum-many-colors",
                "valid for c >= 4, n >= 3",
            )
        if n == 3:
            return result(
                EXACT, 3 if c == 2 else 2, "two-path/min-triangle",
                "n = 3: max_exact proves 3 at c = 2 (opposite triangle "
                "orientations) and 2 at c = 3 (18 slots); dropping colors keeps a "
                "collection free and cannot lower its minimum, so no c > 3 beats "
                "c = 3, and BIPARTITE_S11 reaches 2 for every c",
            )
        return result(
            EXACT, n * n // 4, "two-path/min",
            "valid for c >= 2, n >= 4",
        )

    return result(
        ASYMPTOTIC, coefficient(p, q, c, objective), f"asymptotic/{objective}",
        "coefficient of n^2, exact up to o(n^2); valid for c >= p+q",
    )


def fraction_str(value: Union[int, Fraction, float]) -> str:
    """Canonical text for rational outputs and INFINITY; integers print without /1."""
    if value == INFINITY:
        return "inf"
    return str(Fraction(value))


def threshold_json(ts: ThresholdSet) -> dict:
    """Serialization with exact descriptors plus 12-digit decimals."""

    def surd_entry(s: SurdValue) -> dict:
        return {"exact": s.descriptor(), "decimal": f"{s.float_value():.12f}"}

    return {
        "p": ts.p,
        "q": ts.q,
        "t1": ts.t1,
        "t2": {"exact": fraction_str(ts.t2), "decimal": f"{float(ts.t2):.12f}"},
        "t3": surd_entry(ts.t3),
        "t4": surd_entry(ts.t4),
        "chain": ts.chain,
    }
