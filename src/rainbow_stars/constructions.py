"""Extremal construction families: collections that avoid a rainbow star.

Each family is a deterministic generator parameterized by (n, c, p, q).  All
that is known about a family is one row of the spec table `_SPECS`: its
domain check, its builder, its exact sum and minimum, the `bounds` regime
functions (`sum_low`, `sum_high`, `min_base`, `min_mid`, `min_linear`,
`min_top`) of the n^2 coefficients it is designed to attain, and its part
count.  `build`, `applicability_error`, `predicted_value` and `part_count`
only read that table; no builder states a claim.

A domain is checked in three steps, and the first failure is reported as a
message prefixed with the family name: n, c >= 1 and p, q >= 0 with p+q >= 1;
then the family's own conditions; then at least as many vertices as parts.

A build returns the collection, its part groups (none for a family without
parts), the per-color edge counts of the materialized collection (asserted
equal to the counts the builder works out apart from its rows: from the part
sizes, in a partitioned family), and the row's coefficients.  Every build is
certified rainbow-star-free by the detector before it is returned.  One past
BUILD_ROW_CAP rows or BUILD_EDGE_CAP predicted edges is refused before any
row is built.

Out-star shapes built vertex by vertex are `CoverStructure`s: a collection
has no rainbow (0, q) star exactly when each vertex's (target, color) pairs
have a vertex cover of size at most q-1.  CYCLIC_REMAINDER, REMARK_CN and
the cover oracle's witnesses are built through its `rows` and `counts`.

Conventions shared by the partitioned families: parts are sized with the
largest-remainder method over exact rational targets (ties broken by lower
part index), color subsets are assigned to parts in colexicographic order,
and vertices 1..n fill the parts consecutively.  Each part is of side A, B
or C and owns a color subset.  In color i the senders are the A and B parts
that own i and every C part, the receivers are every A part and the B and
C parts that own i, and each sender points to every receiver but itself.
So an A vertex sends, a B vertex has edges, and a C vertex receives, only
in its own colors: with at most q-1, p+q-1 and p-1 colors each, a part stays
in its class of `detector.classify_vertices`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

from . import bounds as _bounds
from .bounds import min_base, min_linear, min_mid, min_top, sum_high, sum_low
from .detector import find_rainbow_star
from .model import (
    DigraphCollection,
    EdgeCountSummary,
    StarPattern,
    _mask_to_vertices,
    edge_counts,
)


class ConstructionFamily(Enum):
    COMPLETE_PREFIX = "COMPLETE_PREFIX"  # the first p+q-1 colors complete
    ASSIGNED_OUT = "ASSIGNED_OUT"  # parts own (q-1)-color subsets, out-edges to everyone
    CYCLIC_REMAINDER = "CYCLIC_REMAINDER"  # balanced cyclic color assignment
    AC_SPLIT_SUM = "AC_SPLIT_SUM"  # A/C split for the sum
    B_ONLY = "B_ONLY"  # complete digraphs on color-sharing parts
    AB_MIX = "AB_MIX"  # A parts into all, B parts complete
    A_ONLY = "A_ONLY"  # ASSIGNED_OUT's build for p >= 1
    AC_MIN = "AC_MIN"  # assigned A to A, plus C both ways
    S11_COMPLETE1 = "S11_COMPLETE1"  # one complete color
    BIPARTITE_S11 = "BIPARTITE_S11"  # every color the same oriented bipartite graph
    REMARK_CN = "REMARK_CN"  # fixed q-1 targets per vertex in every color
    REMARK_NQ = "REMARK_NQ"  # all colors complete
    TRIANGLE_N3 = "TRIANGLE_N3"  # opposite triangle orientations


class ApplicabilityError(ValueError):
    """Parameters outside a family's domain; message names the failed check."""


@dataclass(frozen=True)
class PartGroup:
    """One part: a label, its assigned color subset, and its vertices."""

    label: str
    colors: tuple[int, ...]
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class ConstructionOutput:
    family: ConstructionFamily
    n: int
    c: int
    p: int
    q: int
    collection: DigraphCollection
    predicted_counts: EdgeCountSummary
    predicted_coefficients: dict[str, Fraction]
    parts: tuple[PartGroup, ...]  # empty for a family without parts
    certified_free: bool


def colex_subsets(c: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of {1..c} in colexicographic order."""
    if k == 0:
        yield ()
        return
    for top in range(k, c + 1):
        for rest in colex_subsets(top - 1, k - 1):
            yield rest + (top,)


def proportional_sizes(n: int, weights: list[Fraction]) -> list[int]:
    """Integer sizes summing to n, near n*weight, by largest remainder.

    Weights must be nonnegative rationals summing to 1.  Ties in the
    remainder go to the lower index, making the split deterministic.
    """
    if any(w < 0 for w in weights):
        raise ValueError(f"negative weight in {weights}")
    if sum(weights) != 1:
        raise ValueError(f"weights must sum to 1, got {sum(weights)}")
    targets = [n * w for w in weights]
    sizes = [int(t) for t in targets]  # floor: targets are nonnegative
    leftover = n - sum(sizes)
    order = sorted(range(len(weights)), key=lambda j: (-(targets[j] - sizes[j]), j))
    for j in order[:leftover]:
        sizes[j] += 1
    return sizes


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ApplicabilityError(message)


def _colex_parts(side: str, n: int, c: int, k: int) -> list[tuple]:
    """One `side` part per k-subset of colors in colex order, labelled
    side1, side2, ..., splitting n vertices equally."""
    subsets = list(colex_subsets(c, k))
    sizes = proportional_sizes(n, [Fraction(1, len(subsets))] * len(subsets))
    return [(side, f"{side}{j}", subset, size)
            for j, (subset, size) in enumerate(zip(subsets, sizes), start=1)]


def _part_build(n: int, c: int, parts: list[tuple]):
    """Rows, per-color counts and groups of the collection the parts span.

    `parts` lists (side, label, colors, size) in vertex order, as in the
    module docstring's rule.  A color's count is its senders times its
    receivers, less the vertices that do both (those of the parts that own
    it), from the part sizes alone.
    """
    every = range(1, c + 1)
    senders, receivers = [0] * (c + 1), [0] * (c + 1)
    sent, received, owned = [0] * (c + 1), [0] * (c + 1), [0] * (c + 1)
    groups = []
    at = 1
    for side, label, colors, size in parts:
        groups.append(PartGroup(label, colors, tuple(range(at, at + size))))
        mask = ((1 << size) - 1) << (at - 1)
        at += size
        for i in every if side == "C" else colors:
            senders[i] |= mask
            sent[i] += size
        for i in every if side == "A" else colors:
            receivers[i] |= mask
            received[i] += size
        for i in colors:
            owned[i] += size
    rows = [[0] * n for _ in range(c)]
    for i in every:
        for u in _mask_to_vertices(senders[i]):
            rows[i - 1][u - 1] = receivers[i] & ~(1 << (u - 1))
    return rows, [sent[i] * received[i] - owned[i] for i in every], tuple(groups)


# -- cover structures --------------------------------------------------------


@dataclass(frozen=True)
class CoverStructure:
    """Per-vertex covers: colors in a_sets saturate, targets in b_sets catch
    the rest.  Valid when |a_sets[v]| + |b_sets[v]| <= q-1 for every v."""

    n: int
    c: int
    q: int
    a_sets: tuple[frozenset[int], ...]
    b_sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.a_sets) != self.n or len(self.b_sets) != self.n:
            raise ValueError("cover structure needs one (A_v, B_v) pair per vertex")
        colors = frozenset(range(1, self.c + 1))
        vertices = frozenset(range(1, self.n + 1))
        for v in range(1, self.n + 1):
            a_v, b_v = self.a_sets[v - 1], self.b_sets[v - 1]
            if len(a_v) + len(b_v) > self.q - 1:
                raise ValueError(
                    f"vertex {v}: cover size {len(a_v)} + {len(b_v)} exceeds q-1 = {self.q - 1}"
                )
            if not a_v <= colors:
                raise ValueError(f"vertex {v}: colors outside 1..{self.c}")
            if v in b_v or not b_v <= vertices:
                raise ValueError(f"vertex {v}: bad target set {sorted(b_v)}")

    def rows(self) -> list[list[int]]:
        """Out-rows of the maximal realization: v->u in color i iff i in A_v
        or u in B_v."""
        rows = [[0] * self.n for _ in range(self.c)]
        full = (1 << self.n) - 1
        for v, (a_v, b_v) in enumerate(zip(self.a_sets, self.b_sets), start=1):
            own, short = full & ~(1 << (v - 1)), 0
            for u in b_v:
                short |= 1 << (u - 1)
            for i in range(1, self.c + 1):
                rows[i - 1][v - 1] = own if i in a_v else short
        return rows

    def counts(self) -> list[int]:
        """Per-color edge counts of the maximal realization: n-1 from each
        vertex that covers the color, |B_v| from each other vertex."""
        pairs = list(zip(self.a_sets, self.b_sets))
        return [sum(self.n - 1 if i in a_v else len(b_v) for a_v, b_v in pairs)
                for i in range(1, self.c + 1)]

    def realize(self) -> DigraphCollection:
        """The maximal realization, as a collection."""
        return DigraphCollection.from_out_rows(self.n, self.c, self.rows())


def _smallest_targets(v: int, n: int, b: int) -> frozenset[int]:
    """The b smallest vertices of 1..n other than v."""
    targets: list[int] = []
    u = 1
    while len(targets) < b:
        if u != v:
            targets.append(u)
        u += 1
    return frozenset(targets)


def _cyclic_cover(n: int, c: int, q: int, per: int, kept: int) -> CoverStructure:
    """Colors 1..c dealt cyclically, the next `per` to each vertex, keeping
    the first `kept` entries; B_v is the q-1-|A_v| smallest other vertices."""
    dealt = [pos % c + 1 for pos in range(kept)]
    a_sets = tuple(frozenset(dealt[v * per:(v + 1) * per]) for v in range(n))
    b_sets = tuple(_smallest_targets(v, n, q - 1 - len(a_v)) for v, a_v in enumerate(a_sets, start=1))
    return CoverStructure(n, c, q, a_sets, b_sets)


# -- family builders ---------------------------------------------------------
# Each returns (rows, predicted per-color counts, part groups), the groups a
# tuple that fills vertices 1..n in order, or () for a family without parts.


def _cover_build(cover: CoverStructure):
    return cover.rows(), cover.counts(), ()


def _complete_build(n, c, k):
    """The first k colors complete, the rest empty: one B part, reported
    without groups."""
    rows, per_color, _ = _part_build(n, c, [("B", "B", tuple(range(1, k + 1)), n)])
    return rows, per_color, ()


def _build_complete_prefix(n, c, p, q):
    return _complete_build(n, c, p + q - 1)


def _build_assigned_out(n, c, p, q):
    """Parts own (q-1)-subsets and their vertices send edges to everyone in
    exactly those colors."""
    return _part_build(n, c, _colex_parts("A", n, c, q - 1))


def _assigned_out_min(n, c, p, q):
    parts = _colex_parts("A", n, c, q - 1)
    return min(sum(size for _, _, colors, size in parts if i in colors)
               for i in range(1, c + 1)) * (n - 1)


def _cyclic_remainder_cover(n, c, q):
    """q-1 colors per vertex, dealt cyclically, less the last r = n(q-1) mod
    c entries: a vertex that lost x of its colors catches x targets instead."""
    return _cyclic_cover(n, c, q, q - 1, n * (q - 1) - n * (q - 1) % c)


def _cyclic_remainder_value(n, c, q, objective):
    """The objective over _cyclic_remainder_cover(n, c, q).counts(), without
    the cover.  With whole, r = divmod(n(q-1), c) every color keeps `whole`
    tokens of n-1 edges.  The r lost entries empty r // (q-1) vertices,
    which send q-1 edges in every color, and one more loses x = r mod (q-1)
    and sends x in each of the c-(q-1-x) colors it does not hold."""
    if q == 1:
        return 0
    whole, r = divmod(n * (q - 1), c)
    if objective == "min":
        return whole * (n - 1) + (q - 1) * (r // (q - 1))
    return c * (whole * (n - 1) + r) - (-r % (q - 1)) * (r % (q - 1))


def _build_cyclic_remainder(n, c, p, q):
    return _cover_build(_cyclic_remainder_cover(n, c, q))


def _build_ac_split_sum(n, c, p, q):
    denominator = 2 * (c - q + 1)
    weight_a = Fraction(c - p + 1, denominator)
    weight_c = Fraction(c + p - 2 * q + 1, denominator)
    size_a, size_c = proportional_sizes(n, [weight_a, weight_c])
    return _part_build(n, c, [("A", "A", tuple(range(1, q)), size_a),
                              ("C", "C", tuple(range(1, p)), size_c)])


def _build_b_only(n, c, p, q):
    return _part_build(n, c, _colex_parts("B", n, c, p + q - 1))


def _b_only_claim(n, c, p, q, copies):
    """B_ONLY's per-color count times `copies` (1 for the min, c for the
    sum), or None unless the parts and the color unions split n evenly."""
    k = p + q - 1
    if n % math.comb(c, k) or (n * k) % c:
        return None
    size = n * k // c
    return copies * size * (size - 1)


def _build_ab_mix(n, c, p, q):
    denominator = 2 * p * (c - p - q + 1)
    weight_b = Fraction((q - 1) * (p + q - 1) - c * (q - p - 1), denominator)
    weight_a = Fraction((p + q - 1) * (c - 2 * p - q + 1), denominator)
    n_a, n_b = proportional_sizes(n, [weight_a, weight_b])
    return _part_build(n, c, _colex_parts("A", n_a, c, q - 1) + _colex_parts("B", n_b, c, p + q - 1))


def _build_ac_min(n, c, p, q):
    denominator = 2 * (c - p + 1) * (c - q + 1)
    weight_a = Fraction((c - p + 1) ** 2 + (p - 1) * (q - p), denominator)
    weight_c = Fraction((c - q + 1) ** 2 - (q - 1) * (q - p), denominator)
    n_a, n_c = proportional_sizes(n, [weight_a, weight_c])
    return _part_build(n, c, _colex_parts("A", n_a, c, q - 1) + _colex_parts("C", n_c, c, p - 1))


def _build_bipartite_s11(n, c, p, q):
    return _part_build(n, c, [("C", "left", (), n // 2), ("A", "right", (), n - n // 2)])


def _build_remark_cn(n, c, p, q):
    # no color covered; B_v the q-1 next vertices in cyclic order
    b_sets = tuple(frozenset((v - 1 + k) % n + 1 for k in range(1, q)) for v in range(1, n + 1))
    return _cover_build(CoverStructure(n, c, q, (frozenset(),) * n, b_sets))


def _build_remark_nq(n, c, p, q):
    return _complete_build(n, c, c)


def _build_triangle_n3(n, c, p, q):
    # G_1 = 1->2->3->1, G_2 the reverse orientation
    forward = [(1, 2), (2, 3), (3, 1)]
    rows = [[0] * 3 for _ in range(2)]
    for (u, v) in forward:
        rows[0][u - 1] |= 1 << (v - 1)
        rows[1][v - 1] |= 1 << (u - 1)
    return rows, [3, 3], ()


# -- family domains ----------------------------------------------------------
# Each raises ApplicabilityError at the first of the family's own conditions
# that fails; the part count is checked after them, from the spec row.


def _domain_complete_prefix(n, c, p, q):
    _require(c >= max(1, p + q - 1), f"requires c >= p+q-1 = {p + q - 1}, got c={c}")


def _domain_assigned_out(n, c, p, q):
    _require(p == 0, f"requires p = 0, got p={p}")
    _require(1 <= q <= c, f"requires 1 <= q <= c, got q={q}, c={c}")


def _domain_cyclic_remainder(n, c, p, q):
    _require(p == 0, f"requires p = 0, got p={p}")
    _require(n > c, f"requires n > c, got n={n}, c={c}")
    _require(c >= q >= 1, f"requires c >= q >= 1, got c={c}, q={q}")


def _domain_two_sided(n, c, p, q):
    _require(1 <= p <= q, f"requires 1 <= p <= q, got ({p}, {q})")
    _require(c >= p + q, f"requires c >= p+q = {p + q}, got c={c}")


def _domain_ac_split_sum(n, c, p, q):
    _domain_two_sided(n, c, p, q)
    _require(c + p - 2 * q + 1 >= 0, f"requires c >= 2q-p-1 = {2 * q - p - 1}, got c={c}")


def _domain_ab_mix(n, c, p, q):
    _domain_two_sided(n, c, p, q)
    ts = _bounds.thresholds(p, q)
    _require(c >= ts.t1, f"requires c >= t1 = {ts.t1}, got c={c}")
    _require(c <= ts.t2, f"requires c <= t2 = {ts.t2}, got c={c}")


def _domain_ac_min(n, c, p, q):
    _domain_two_sided(n, c, p, q)
    ts = _bounds.thresholds(p, q)
    _require(
        _bounds.compare_int_surd(c, ts.t4) >= 0,
        f"requires c >= t4 = {ts.t4.descriptor()}, got c={c}",
    )


def _domain_s11(n, c, p, q):
    _require(p == 1 and q == 1, f"requires (p, q) = (1, 1), got ({p}, {q})")


def _domain_remark_cn(n, c, p, q):
    _require(p == 0, f"requires p = 0, got p={p}")
    _require(c >= n >= q >= 1, f"requires c >= n >= q >= 1, got c={c}, n={n}, q={q}")


def _domain_remark_nq(n, c, p, q):
    _require(p == 0, f"requires p = 0, got p={p}")
    _require(n <= q, f"requires n <= q, got n={n}, q={q}")


def _domain_triangle_n3(n, c, p, q):
    _require(n == 3, f"requires n = 3, got n={n}")
    _require(c == 2, f"requires c = 2, got c={c}")
    _domain_s11(n, c, p, q)


# -- the spec table ----------------------------------------------------------


@dataclass(frozen=True)
class _FamilySpec:
    """One family.  Every callable takes (n, c, p, q), except part_count,
    which takes (c, p, q), and the regimes, which take (p, q, c)."""

    domain: Callable[..., None]  # raises ApplicabilityError at the first failed condition
    build: Callable[..., tuple]
    # exact values by objective; an entry may answer None off its exact points
    predict: dict[str, Callable[..., Optional[int]]] = field(default_factory=dict)
    regimes: dict[str, Callable[..., Fraction]] = field(default_factory=dict)  # n^2 coefficients
    part_count: Callable[..., int] = lambda c, p, q: 1
    part_formula: str = ""  # how a part count that is not constant is named in messages


_COMPLETE_PREFIX = _FamilySpec(
    _domain_complete_prefix,
    _build_complete_prefix,
    {
        "sum": lambda n, c, p, q: (p + q - 1) * (n * n - n),
        "min": lambda n, c, p, q: n * n - n if c == p + q - 1 else 0,
    },
    {"sum": sum_low},
)

_ASSIGNED_OUT = _FamilySpec(
    _domain_assigned_out,
    _build_assigned_out,
    {"sum": lambda n, c, p, q: (q - 1) * (n * n - n), "min": _assigned_out_min},
    {"min": min_linear},
    part_count=lambda c, p, q: math.comb(c, q - 1),
    part_formula="binom(c, q-1)",
)

_SPECS: dict[ConstructionFamily, _FamilySpec] = {
    ConstructionFamily.COMPLETE_PREFIX: _COMPLETE_PREFIX,
    ConstructionFamily.ASSIGNED_OUT: _ASSIGNED_OUT,
    ConstructionFamily.CYCLIC_REMAINDER: _FamilySpec(
        _domain_cyclic_remainder,
        _build_cyclic_remainder,
        {
            "sum": lambda n, c, p, q: _cyclic_remainder_value(n, c, q, "sum"),
            "min": lambda n, c, p, q: _cyclic_remainder_value(n, c, q, "min"),
        },
    ),
    ConstructionFamily.AC_SPLIT_SUM: _FamilySpec(
        _domain_ac_split_sum,
        _build_ac_split_sum,
        regimes={"sum": sum_high},
        part_count=lambda c, p, q: 2,
    ),
    ConstructionFamily.B_ONLY: _FamilySpec(
        _domain_two_sided,
        _build_b_only,
        {
            "sum": lambda n, c, p, q: _b_only_claim(n, c, p, q, c),
            "min": lambda n, c, p, q: _b_only_claim(n, c, p, q, 1),
        },
        {"min": min_base, "sum": lambda p, q, c: c * min_base(p, q, c)},
        part_count=lambda c, p, q: math.comb(c, p + q - 1),
        part_formula="binom(c, p+q-1)",
    ),
    ConstructionFamily.AB_MIX: _FamilySpec(
        _domain_ab_mix,
        _build_ab_mix,
        regimes={"min": min_mid},
        part_count=lambda c, p, q: math.comb(c, p + q - 1) + math.comb(c, q - 1),
        part_formula="binom(c,p+q-1) + binom(c,q-1)",
    ),
    ConstructionFamily.A_ONLY: replace(_ASSIGNED_OUT, domain=_domain_two_sided),
    ConstructionFamily.AC_MIN: _FamilySpec(
        _domain_ac_min,
        _build_ac_min,
        regimes={"min": min_top},
        part_count=lambda c, p, q: math.comb(c, q - 1) + math.comb(c, p - 1),
        part_formula="binom(c,q-1) + binom(c,p-1)",
    ),
    # COMPLETE_PREFIX at (1, 1): one complete color
    ConstructionFamily.S11_COMPLETE1: replace(_COMPLETE_PREFIX, domain=_domain_s11, regimes={}),
    ConstructionFamily.BIPARTITE_S11: _FamilySpec(
        _domain_s11,
        _build_bipartite_s11,
        {"sum": lambda n, c, p, q: c * (n * n // 4), "min": lambda n, c, p, q: n * n // 4},
        # the A/C split at p = q = 1: min 1/4, sum c/4
        {"min": min_top, "sum": sum_high},
    ),
    ConstructionFamily.REMARK_CN: _FamilySpec(
        _domain_remark_cn,
        _build_remark_cn,
        {"sum": lambda n, c, p, q: (q - 1) * c * n, "min": lambda n, c, p, q: n * (q - 1)},
    ),
    ConstructionFamily.REMARK_NQ: _FamilySpec(
        _domain_remark_nq,
        _build_remark_nq,
        {"sum": lambda n, c, p, q: c * n * (n - 1), "min": lambda n, c, p, q: n * (n - 1)},
    ),
    ConstructionFamily.TRIANGLE_N3: _FamilySpec(
        _domain_triangle_n3,
        _build_triangle_n3,
        {"sum": lambda n, c, p, q: 6, "min": lambda n, c, p, q: 3},
    ),
}


# -- public interface --------------------------------------------------------

# the most (color, vertex) rows and edges one build may take.  Rows are
# bit masks: a build of 9*10^8 edges (COMPLETE_PREFIX, n = 15000, c = 5,
# q = 5) took 0.5 s and 133 MB (Python 3.11, one core of a 2 vCPU host).
# The largest build asked for elsewhere has 62,681,512 edges (AC_MIN,
# n = 4500, c = 9, in `verify`), whose estimate (it has no sum claim, so
# every slot) is 182,209,500
BUILD_ROW_CAP = 1_000_000
BUILD_EDGE_CAP = 1_000_000_000


def _claim(spec: _FamilySpec, n: int, c: int, p: int, q: int,
           objective: str) -> Union[int, Fraction, None]:
    """The row's exact value at (n, c, p, q) where it has one, else its
    regime's n^2 coefficient, else None (no claim for the objective)."""
    predict = spec.predict.get(objective)
    value = None if predict is None else predict(n, c, p, q)
    if value is None and objective in spec.regimes:
        value = spec.regimes[objective](p, q, c)
    return value


def build(family: ConstructionFamily, n: int, c: int, p: int, q: int) -> ConstructionOutput:
    """Materialize a family at (n, c, p, q), certify freeness, check counts.

    The predicted counts are those of the collection, once they equal the
    counts the builder works out apart from its rows (from the part sizes,
    in a partitioned family); the size cap reads the row's sum claim.
    Raises ApplicabilityError outside the family domain, ValueError past
    BUILD_ROW_CAP rows (c*n) or BUILD_EDGE_CAP edges (the predicted sum; a
    coefficient times n^2 where that is the claim, every slot where there
    is none), checked before any row is built, and RuntimeError if the
    materialized collection contradicts the builder's counts or
    contains a rainbow star (either would be a builder defect, not bad input).
    """
    reason = applicability_error(family, n, c, p, q)
    if reason is not None:
        raise ApplicabilityError(reason)
    if c * n > BUILD_ROW_CAP:
        raise ValueError(f"{family.value} at n={n}, c={c} takes {c * n} rows, "
                         f"past the build cap of {BUILD_ROW_CAP}")
    spec = _SPECS[family]
    edges = _claim(spec, n, c, p, q, "sum")
    if edges is None:  # no sum claim: every slot
        edges = c * n * (n - 1)
    elif isinstance(edges, Fraction):
        edges *= n * n
    if edges > BUILD_EDGE_CAP:
        raise ValueError(f"{family.value} at n={n}, c={c} takes about {math.ceil(edges)} "
                         f"edges, past the build cap of {BUILD_EDGE_CAP}")
    rows, per_color, parts = spec.build(n, c, p, q)
    collection = DigraphCollection.from_out_rows(n, c, rows)
    counts = edge_counts(collection)
    if counts.per_color != tuple(per_color):
        raise RuntimeError(
            f"internal error: {family.value} counts {counts.per_color} "
            f"differ from partition arithmetic {tuple(per_color)}"
        )
    witness = find_rainbow_star(collection, StarPattern(p, q))
    if witness is not None:
        raise RuntimeError(
            f"internal error: {family.value} build contains a rainbow star at "
            f"center {witness.center}"
        )
    coefficients = {objective: regime(p, q, c) for objective, regime in spec.regimes.items()}
    return ConstructionOutput(
        family, n, c, p, q, collection, counts, coefficients, parts, True
    )


def applicability_error(family: ConstructionFamily, n: int, c: int, p: int, q: int) -> Optional[str]:
    """The domain violation message for these parameters, or None if valid.

    Checks the domain only; does not materialize edges.
    """
    try:
        spec = _SPECS[family]
    except KeyError:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown family {family!r}") from None
    try:
        _require(n >= 1 and c >= 1, f"requires n >= 1 and c >= 1, got n={n}, c={c}")
        _require(p >= 0 and q >= 0 and p + q >= 1, f"requires p, q >= 0 and p+q >= 1, got ({p}, {q})")
        spec.domain(n, c, p, q)
        count = spec.part_count(c, p, q)
        named = f"{spec.part_formula} = {count}" if spec.part_formula else str(count)
        _require(n >= count, f"part count {named} exceeds n = {n}")
    except ApplicabilityError as exc:
        return f"{family.value}: {exc}"
    return None


def part_count(family: ConstructionFamily, c: int, p: int, q: int) -> int:
    """How many vertex parts the family splits into at (c, p, q): 1 for the
    families without parts, and a lower bound on n for the others."""
    return _SPECS[family].part_count(c, p, q)


def predicted_value(
    family: ConstructionFamily, n: int, c: int, p: int, q: int, objective: str
) -> Union[int, Fraction]:
    """The value a family is built to reach: exact integer or n^2 coefficient.

    The row's exact value where it has one, as an integer; otherwise its
    regime's coefficient, as a Fraction.  Raises ApplicabilityError outside
    the domain and ValueError for objectives the family makes no claim about.
    """
    _bounds.check_objective(objective)
    reason = applicability_error(family, n, c, p, q)
    if reason is not None:
        raise ApplicabilityError(reason)
    value = _claim(_SPECS[family], n, c, p, q, objective)
    if value is None:
        raise ValueError(f"{family.value} makes no {objective} prediction")
    return value
