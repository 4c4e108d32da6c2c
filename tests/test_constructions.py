"""Extremal families: builds are free, counts match, errors are informative."""

import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rainbow_stars import constructions
from rainbow_stars.bounds import coefficient
from rainbow_stars.constructions import (
    BUILD_EDGE_CAP,
    BUILD_ROW_CAP,
    ApplicabilityError,
    ConstructionFamily,
    CoverStructure,
    _smallest_targets,
    applicability_error,
    build,
    colex_subsets,
    predicted_value,
    proportional_sizes,
)
from rainbow_stars.detector import classify_vertices, find_rainbow_star
from rainbow_stars.model import StarPattern, edge_counts, serialize_edge_list

F = ConstructionFamily


def test_colex_order():
    assert list(colex_subsets(3, 2)) == [(1, 2), (1, 3), (2, 3)]
    assert list(colex_subsets(4, 1)) == [(1,), (2,), (3,), (4,)]
    assert list(colex_subsets(2, 0)) == [()]
    subsets = list(colex_subsets(5, 3))
    assert len(subsets) == math.comb(5, 3)
    assert subsets[0] == (1, 2, 3) and subsets[-1] == (3, 4, 5)


def test_proportional_sizes_largest_remainder():
    # equal thirds of 10: remainders tie, lower index wins the extra
    assert proportional_sizes(10, [Fraction(1, 3)] * 3) == [4, 3, 3]
    assert proportional_sizes(9, [Fraction(1, 3)] * 3) == [3, 3, 3]
    assert proportional_sizes(7, [Fraction(1, 2), Fraction(1, 2)]) == [4, 3]
    sizes = proportional_sizes(11, [Fraction(5, 8), Fraction(3, 8)])
    assert sizes == [7, 4]  # 6.875 rounds up before 4.125
    assert sum(proportional_sizes(100, [Fraction(1, 7)] * 7)) == 100
    with pytest.raises(ValueError, match="negative weight"):
        proportional_sizes(4, [Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(ValueError, match="weights must sum to 1, got 3/4"):
        proportional_sizes(4, [Fraction(1, 2), Fraction(1, 4)])


def test_bipartite_s11_counts():
    out = build(F.BIPARTITE_S11, 4, 4, 1, 1)
    assert out.predicted_counts.per_color == (4, 4, 4, 4)
    assert out.certified_free


def test_cyclic_remainder_counts():
    out = build(F.CYCLIC_REMAINDER, 4, 3, 0, 2)
    assert out.predicted_counts.per_color == (4, 4, 4)
    assert edge_counts(out.collection) == out.predicted_counts


def test_b_only_counts():
    out = build(F.B_ONLY, 6, 3, 1, 2)
    assert out.predicted_counts.per_color == (12, 12, 12)


def test_complete_prefix_counts():
    out = build(F.COMPLETE_PREFIX, 5, 4, 0, 3)
    assert out.predicted_counts.total == 40
    # exactly the first p+q-1 = 2 colors carry edges
    assert out.predicted_counts.per_color == (20, 20, 0, 0)


def test_predicted_value_examples():
    assert predicted_value(F.CYCLIC_REMAINDER, 5, 3, 0, 2, "min") == 6
    assert predicted_value(F.AC_MIN, 400, 4, 1, 2, "min") == Fraction(1, 3)
    assert predicted_value(F.AC_SPLIT_SUM, 200, 8, 1, 2, "sum") == Fraction(16, 7)
    with pytest.raises(ValueError):
        predicted_value(F.AC_SPLIT_SUM, 200, 8, 1, 2, "min")  # no min claim
    with pytest.raises(ApplicabilityError):
        predicted_value(F.ASSIGNED_OUT, 30, 5, 1, 2, "min")  # needs p = 0


def test_predicted_coefficients_match_closed_forms():
    # the families built for a regime must predict that regime's coefficient
    assert predicted_value(F.AC_SPLIT_SUM, 200, 8, 1, 2, "sum") == coefficient(1, 2, 8, "sum")
    assert predicted_value(F.AC_MIN, 400, 4, 1, 2, "min") == coefficient(1, 2, 4, "min")
    assert predicted_value(F.AB_MIX, 600, 3, 1, 2, "min") == coefficient(1, 2, 3, "min")


def test_applicability_error_messages_name_thresholds():
    # middle-regime family past its upper threshold t2 = 6
    reason = applicability_error(F.AB_MIX, 1000, 7, 1, 3)
    assert reason is not None and "t2" in reason
    with pytest.raises(ApplicabilityError):
        build(F.AB_MIX, 1000, 7, 1, 3)
    # top-regime family below its lower threshold t4 = 8
    reason = applicability_error(F.AC_MIN, 1000, 7, 1, 5)
    assert reason is not None and "t4" in reason
    # fine at the threshold itself
    assert applicability_error(F.AC_MIN, 1000, 8, 1, 5) is None


def test_applicability_error_rejects_bad_patterns():
    assert applicability_error(F.B_ONLY, 30, 5, 2, 1) is not None  # needs p <= q
    assert applicability_error(F.ASSIGNED_OUT, 30, 5, 1, 2) is not None  # needs p = 0
    assert applicability_error(F.TRIANGLE_N3, 4, 2, 1, 1) is not None  # n = 3 only
    with pytest.raises(ApplicabilityError):
        build(F.S11_COMPLETE1, 30, 2, 1, 2)


@pytest.mark.parametrize(
    "family,n,c,p,q",
    [
        (F.COMPLETE_PREFIX, 20, 5, 1, 2),
        (F.ASSIGNED_OUT, 20, 4, 0, 2),
        (F.CYCLIC_REMAINDER, 20, 4, 0, 3),
        (F.AC_SPLIT_SUM, 20, 12, 1, 2),
        (F.B_ONLY, 24, 4, 1, 2),
        (F.AB_MIX, 24, 3, 1, 2),
        (F.A_ONLY, 35, 7, 1, 5),
        (F.AC_MIN, 24, 4, 1, 2),
        (F.S11_COMPLETE1, 10, 3, 1, 1),
        (F.BIPARTITE_S11, 10, 4, 1, 1),
        (F.REMARK_CN, 6, 8, 0, 3),
        (F.REMARK_NQ, 3, 5, 0, 4),
        (F.TRIANGLE_N3, 3, 2, 1, 1),
    ],
)
def test_every_family_builds_free(family, n, c, p, q):
    out = build(family, n, c, p, q)
    assert out.certified_free
    assert find_rainbow_star(out.collection, StarPattern(p, q)) is None
    assert edge_counts(out.collection) == out.predicted_counts
    sizes = [len(g.vertices) for g in out.parts]
    if sizes:
        assert sum(sizes) == n
        covered = sorted(v for g in out.parts for v in g.vertices)
        assert covered == list(range(1, n + 1))


def test_build_refuses_a_row_it_cannot_certify(monkeypatch):
    spec = constructions._SPECS[F.COMPLETE_PREFIX]
    rows, per_color, parts = spec.build(4, 3, 1, 1)

    def patch(build_row):
        monkeypatch.setitem(constructions._SPECS, F.COMPLETE_PREFIX, replace(spec, build=build_row))

    # counts that disagree with the collection built from the rows
    patch(lambda n, c, p, q: (rows, [count + 1 for count in per_color], parts))
    with pytest.raises(RuntimeError, match="differ from partition arithmetic"):
        build(F.COMPLETE_PREFIX, 4, 3, 1, 1)
    # every color complete holds a rainbow (1, 1) star
    full = [[0b1111 & ~(1 << u) for u in range(4)] for _ in range(3)]
    patch(lambda n, c, p, q: (full, [12] * 3, parts))
    with pytest.raises(RuntimeError, match="build contains a rainbow star"):
        build(F.COMPLETE_PREFIX, 4, 3, 1, 1)


def test_build_refuses_past_the_edge_cap(monkeypatch):
    # no row is built: every builder fails if it is reached
    for family, spec in list(constructions._SPECS.items()):
        monkeypatch.setitem(constructions._SPECS, family,
                            replace(spec, build=lambda n, c, p, q: pytest.fail("built")))
    for family, n, c, p, q in (
        (F.CYCLIC_REMAINDER, 100_000, 3, 0, 2),  # about 10^10 edges, exact sum
        (F.AC_SPLIT_SUM, 30_000, 5, 1, 2),  # a coefficient times n^2
        (F.AB_MIX, 15_000, 5, 1, 3),  # no sum claim: every slot
        (F.COMPLETE_PREFIX, BUILD_ROW_CAP, 2, 0, 1),  # no edges, but c*n rows
    ):
        with pytest.raises(ValueError, match="past the build cap"):
            build(family, n, c, p, q)
    # the largest build estimate elsewhere (AC_MIN in verify) stays well
    # below the cap
    assert 5 * 9 * 4500 * 4499 < BUILD_EDGE_CAP


def test_cyclic_remainder_sum_counts_its_build():
    # the sum and the minimum are read off in closed form, without the cover
    for c in range(1, 7):
        for q in range(1, c + 1):
            for n in range(c + 1, 17):
                out = build(F.CYCLIC_REMAINDER, n, c, 0, q)
                assert predicted_value(F.CYCLIC_REMAINDER, n, c, 0, q, "sum") == \
                    out.predicted_counts.total, (n, c, q)
                assert predicted_value(F.CYCLIC_REMAINDER, n, c, 0, q, "min") == \
                    out.predicted_counts.minimum, (n, c, q)


@pytest.fixture(scope="module")
def small_builds():
    """((family, n, c, p, q), output) for every applicable build with
    n <= 16, c <= 7 and 0 <= p <= q <= 4, in that loop order."""
    return [((family, n, c, p, q), build(family, n, c, p, q))
            for family in F for n in range(1, 17) for c in range(1, 8)
            for q in range(0, 5) for p in range(0, q + 1)
            if applicability_error(family, n, c, p, q) is None]


def _exact_claims(point, out):
    """How many integer claims the family makes at the point, each asserted
    to be the build's total (sum) or minimum (min)."""
    claims = 0
    for objective, picker in (("sum", "total"), ("min", "minimum")):
        try:
            claim = predicted_value(*point, objective)
        except ValueError:
            continue
        if isinstance(claim, int):
            assert getattr(out.predicted_counts, picker) == claim, (point, objective)
            claims += 1
    return claims


def test_exact_families_predict_their_builds(small_builds):
    # every exact claim on the small grid; among them CYCLIC_REMAINDER at
    # (5, 3, 0, 3), where q-1 = 2 does not divide r = 1 and it builds 12
    assert sum(_exact_claims(point, out) for point, out in small_builds) == 4394
    for point in [
        (F.COMPLETE_PREFIX, 17, 6, 1, 2),
        (F.ASSIGNED_OUT, 18, 4, 0, 3),
        (F.CYCLIC_REMAINDER, 19, 5, 0, 2),
        (F.REMARK_CN, 7, 9, 0, 4),
    ]:  # beyond the grid
        assert _exact_claims(point, build(*point)) == 2, point


_PARTITIONED = (F.COMPLETE_PREFIX, F.S11_COMPLETE1, F.ASSIGNED_OUT, F.A_ONLY, F.B_ONLY,
                F.AB_MIX, F.AC_MIN, F.AC_SPLIT_SUM, F.BIPARTITE_S11)


def test_partitioned_builds_have_no_violator(small_builds):
    # the A/B/C part rule keeps every vertex in a class of classify_vertices;
    # REMARK_NQ's one B part owns all c colors, so it is free only by n <= q
    checked = 0
    for (family, n, c, p, q), out in small_builds:
        if family in _PARTITIONED:
            report = classify_vertices(out.collection, StarPattern(p, q))
            assert report.violators == (), (family, n, c, p, q)
            checked += 1
    assert checked == 2677


def test_divisible_b_only_prediction_is_exact():
    # 24 splits evenly into binom(4,2) = 6 parts and 4 | 24*2
    claim = predicted_value(F.B_ONLY, 24, 4, 1, 2, "min")
    assert isinstance(claim, int)
    out = build(F.B_ONLY, 24, 4, 1, 2)
    assert out.predicted_counts.minimum == claim


def test_linear_regime_attainment():
    # FIRST-chain pair in its linear regime: coefficient (q-1)/c = 4/7
    p, q, c = 1, 5, 7
    parts = math.comb(c, q - 1)
    n = 60 * parts
    out = build(F.A_ONLY, n, c, p, q)
    value = coefficient(p, q, c, "min")
    assert value == Fraction(q - 1, c)
    deviation = abs(Fraction(out.predicted_counts.minimum, n * n) - value)
    assert deviation <= Fraction(5 * parts, n)


@given(st.integers(2, 9), st.integers(0, 3), st.integers(1, 3), st.integers(20, 40))
@settings(max_examples=60, deadline=None)
def test_random_domain_points_build_or_refuse(c, p, q, n):
    # applicability_error is the single gate: build succeeds iff it is None
    if p > q:
        p, q = q, p
    for family in F:
        reason = applicability_error(family, n, c, p, q)
        if reason is None:
            out = build(family, n, c, p, q)
            assert out.certified_free
        else:
            with pytest.raises(ApplicabilityError):
                build(family, n, c, p, q)


@st.composite
def cover_structures(draw):
    """A valid cover structure with n <= 8, c <= 5 and q <= 4."""
    n, c, q = draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    a_sets, b_sets = [], []
    for v in range(1, n + 1):
        a_v = draw(st.frozensets(st.integers(1, c), max_size=q - 1))
        others = [u for u in range(1, n + 1) if u != v]
        room = min(q - 1 - len(a_v), len(others))
        b_v = draw(st.frozensets(st.sampled_from(others), max_size=room)) if room else frozenset()
        a_sets.append(a_v)
        b_sets.append(b_v)
    return CoverStructure(n, c, q, tuple(a_sets), tuple(b_sets))


@given(cover_structures())
@settings(max_examples=100, deadline=None)
def test_cover_structure_agrees_with_itself(cover):
    # the counts and the rows describe one realization, and it is free
    collection = cover.realize()
    assert edge_counts(collection).per_color == tuple(cover.counts())
    assert find_rainbow_star(collection, StarPattern(0, cover.q)) is None
    n = cover.n
    for v in range(1, n + 1):
        others = [u for u in range(1, n + 1) if u != v]
        for b in range(n):
            assert _smallest_targets(v, n, b) == frozenset(others[:b])


def _claim(family, n, c, p, q, objective):
    try:
        return repr(predicted_value(family, n, c, p, q, objective))
    except ValueError:  # the family makes no claim for this objective
        return "-"


def test_small_builds_pinned(small_builds):
    # one sha256 over every applicable build with n <= 16, c <= 7,
    # 0 <= p <= q <= 4: edges, predicted counts and coefficients, parts and
    # both predictions; the digest was computed before the families were
    # folded into one spec table, and re-pinned when the CYCLIC_REMAINDER
    # min claims became the build's own minimum (27 points where q-1 does
    # not divide r had claimed the floor formula; nothing else changed), and
    # when AC_SPLIT_SUM's parts gained their colors (345 builds, parts alone)
    digest = hashlib.sha256()
    for (family, n, c, p, q), out in small_builds:
        digest.update(repr((family.value, n, c, p, q)).encode())
        digest.update(serialize_edge_list(out.collection).encode())
        digest.update(repr((out.predicted_counts, out.predicted_coefficients,
                            out.parts)).encode())
        digest.update(_claim(family, n, c, p, q, "sum").encode())
        digest.update(_claim(family, n, c, p, q, "min").encode())
    assert len(small_builds) == 3072
    assert digest.hexdigest() == (
        "f9b2ff70a04ca95b81af2144bc5f64f1c085a899128038cf60434f9b1e5929c9"
    )


def test_applicability_messages_pinned():
    # one sha256 over every domain verdict (None or the full message) for
    # n 0..16, c 0..10 and p, q 0..6, pinned like the builds above
    digest = hashlib.sha256()
    for family in F:
        for n in range(0, 17):
            for c in range(0, 11):
                for p in range(0, 7):
                    for q in range(0, 7):
                        digest.update(repr(applicability_error(family, n, c, p, q)).encode())
    assert digest.hexdigest() == (
        "f431bf0cf877a84554d91effe1f52a3b3521b801b1c7d763a25e991015cd5123"
    )
