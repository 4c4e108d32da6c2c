"""Extremal construction families: collections that avoid a rainbow star.

Each family is a deterministic generator parameterized by (n, c, p, q).  All
that is known about a family is one row of the spec table `_SPECS`: its
domain check, its builder, its predicted sum and minimum and its part count.
`build`, `applicability_error`, `predicted_value` and `part_count` only read
that table.

A domain is checked in three steps, and the first failure is reported as a
message prefixed with the family name: n, c >= 1 and p, q >= 0 with p+q >= 1;
then the family's own conditions; then at least as many vertices as parts.

A build returns the collection, the partition data actually used, per-color
edge counts derived from the partition arithmetic (asserted against the
materialized collection), and the rational n^2 coefficients the family is
designed to attain.  Those coefficients are read from the regime functions
of `bounds` (`sum_low`, `sum_high`, `min_base`, `min_mid`, `min_linear`,
`min_top`); no family writes its own copy of a closed form.  Every build
is certified rainbow-star-free by the detector before it is returned.

Conventions shared by the partitioned families: parts are sized with the
largest-remainder method over exact rational targets (ties broken by lower
part index), color subsets are assigned to parts in colexicographic order,
and vertices 1..n fill the parts consecutively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
class PartsInfo:
    """Partition data of a build.

    vertex_colors[v-1] is the color subset assigned to vertex v (empty for
    families without per-vertex color assignment).
    """

    groups: tuple[PartGroup, ...]
    vertex_colors: tuple[tuple[int, ...], ...]


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
    parts: PartsInfo
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


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ApplicabilityError(message)


def _summary(per_color: list[int]) -> EdgeCountSummary:
    return EdgeCountSummary(tuple(per_color), sum(per_color), min(per_color))


def _subset_parts(n: int, c: int, k: int, label: str, start: int = 1):
    """Split n vertices, numbered from `start`, into equal consecutive parts,
    one per k-subset of colors in colex order, labelled label1, label2, ...

    Returns the groups and, indexed by color 1..c, the mask and the number
    of the vertices whose part owns that color.
    """
    subsets = list(colex_subsets(c, k))
    sizes = proportional_sizes(n, [Fraction(1, len(subsets))] * len(subsets))
    groups = []
    masks = [0] * (c + 1)
    owners = [0] * (c + 1)
    at = start
    for j, (subset, size) in enumerate(zip(subsets, sizes), start=1):
        vertices = tuple(range(at, at + size))
        part_mask = ((1 << size) - 1) << (at - 1)
        at += size
        groups.append(PartGroup(f"{label}{j}", subset, vertices))
        for i in subset:
            masks[i] |= part_mask
            owners[i] += size
    return groups, masks, owners


def _parts_info(groups: list[PartGroup]) -> PartsInfo:
    """Partition data of groups that fill vertices 1..n in order."""
    return PartsInfo(tuple(groups), tuple(g.colors for g in groups for _ in g.vertices))


def _rows_between(n: int, c: int, sources: list[int], targets: list[int]) -> list[list[int]]:
    """Rows in which each vertex of sources[i] points to targets[i] but
    itself, in color i (both lists indexed by color 1..c)."""
    rows = [[0] * n for _ in range(c)]
    for i in range(1, c + 1):
        for u in _mask_to_vertices(sources[i]):
            rows[i - 1][u - 1] = targets[i] & ~(1 << (u - 1))
    return rows


# -- family builders ---------------------------------------------------------
# Each returns (rows, predicted per-color counts, coefficients, parts info).


def _complete_rows(n, c, k):
    """Rows and per-color counts of the first k colors complete, the rest empty."""
    full = (1 << n) - 1
    sources = [0] + [full] * k + [0] * (c - k)
    return _rows_between(n, c, sources, [full] * (c + 1)), [n * (n - 1)] * k + [0] * (c - k)


def _build_complete_prefix(n, c, p, q):
    k = p + q - 1
    rows, per_color = _complete_rows(n, c, k)
    return rows, per_color, {"sum": sum_low(p, q, c)}, PartsInfo((), ((),) * n)


def _build_assigned_out(n, c, p, q):
    """ASSIGNED_OUT, and A_ONLY for p >= 1: parts own (q-1)-subsets and
    their vertices send edges to everyone in exactly those colors."""
    groups, masks, assigned = _subset_parts(n, c, q - 1, "A")
    rows = _rows_between(n, c, masks, [(1 << n) - 1] * (c + 1))
    per_color = [assigned[i] * (n - 1) for i in range(1, c + 1)]
    return rows, per_color, {"min": min_linear(p, q, c)}, _parts_info(groups)


def _assigned_out_min(n, c, p, q):
    assigned = _subset_parts(n, c, q - 1, "A")[2]
    return min(assigned[1:]) * (n - 1)


def _cyclic_assignment(n, c, q):
    """CYCLIC_REMAINDER's colors per vertex and edges per color.

    The assignment walks colors 1..c cyclically, q-1 consecutive ones per
    vertex, and drops its last r = n(q-1) mod c entries.  A vertex sends
    edges to everyone in its own colors; one that lost x of its q-1 colors
    sends x edges in each other color instead.
    """
    kept = n * (q - 1) - n * (q - 1) % c
    vertex_colors = [
        tuple(sorted(pos % c + 1 for pos in range(v * (q - 1), min((v + 1) * (q - 1), kept))))
        for v in range(n)
    ]
    per_color = [kept // c * (n - 1)] * c
    for own in vertex_colors:
        for i in range(1, c + 1):
            if i not in own:
                per_color[i - 1] += q - 1 - len(own)
    return vertex_colors, per_color


def _build_cyclic_remainder(n, c, p, q):
    vertex_colors, per_color = _cyclic_assignment(n, c, q)
    full = (1 << n) - 1
    rows = [[0] * n for _ in range(c)]
    for v, own in enumerate(vertex_colors, start=1):
        # the first q-1-|own| other vertices, the targets of the colors it lacks
        short = _mask([u for u in range(1, n + 1) if u != v][:q - 1 - len(own)])
        for i in range(1, c + 1):
            rows[i - 1][v - 1] = full & ~(1 << (v - 1)) if i in own else short
    return rows, per_color, {}, PartsInfo((), tuple(vertex_colors))


def _build_ac_split_sum(n, c, p, q):
    denominator = 2 * (c - q + 1)
    weight_a = Fraction(c - p + 1, denominator)
    weight_c = Fraction(c + p - 2 * q + 1, denominator)
    size_a, size_c = proportional_sizes(n, [weight_a, weight_c])
    a_vertices = tuple(range(1, size_a + 1))
    c_vertices = tuple(range(size_a + 1, n + 1))
    mask_a = _mask(a_vertices)
    full = (1 << n) - 1
    # colors below p are complete, colors p..q-1 point everyone into A, and
    # the rest point C into A
    sources = [0] + [full] * (q - 1) + [full & ~mask_a] * (c - q + 1)
    targets = [0] + [full] * (p - 1) + [mask_a] * (c - p + 1)
    rows = _rows_between(n, c, sources, targets)
    per_color = (
        [n * (n - 1)] * (p - 1)
        + [size_a * (size_a - 1) + size_c * size_a] * (q - p)
        + [size_c * size_a] * (c - q + 1)
    )
    parts = PartsInfo(
        (PartGroup("A", (), a_vertices), PartGroup("C", (), c_vertices)),
        ((),) * n,
    )
    return rows, per_color, {"sum": sum_high(p, q, c)}, parts


def _build_b_only(n, c, p, q):
    k = p + q - 1
    groups, masks, sizes = _subset_parts(n, c, k, "B")
    rows = _rows_between(n, c, masks, masks)
    per_color = [sizes[i] * (sizes[i] - 1) for i in range(1, c + 1)]
    coefficients = {"min": min_base(p, q, c), "sum": c * min_base(p, q, c)}
    return rows, per_color, coefficients, _parts_info(groups)


def _b_only_claim(n, c, p, q, copies):
    """B_ONLY's per-color claim times `copies` (1 for the min, c for the
    sum): exact when the parts and the color unions split n evenly, else
    the n^2 coefficient."""
    k = p + q - 1
    if n % math.comb(c, k) == 0 and (n * k) % c == 0:
        size = n * k // c
        return copies * size * (size - 1)
    return copies * min_base(p, q, c)


def _build_ab_mix(n, c, p, q):
    denominator = 2 * p * (c - p - q + 1)
    weight_b = Fraction((q - 1) * (p + q - 1) - c * (q - p - 1), denominator)
    weight_a = Fraction((p + q - 1) * (c - 2 * p - q + 1), denominator)
    n_a, n_b = proportional_sizes(n, [weight_a, weight_b])
    a_groups, a_masks, a_sizes = _subset_parts(n_a, c, q - 1, "A")
    b_groups, b_masks, b_sizes = _subset_parts(n_b, c, p + q - 1, "B", start=n_a + 1)
    mask_a_all = _mask(range(1, n_a + 1))
    sources = [a | b for a, b in zip(a_masks, b_masks)]
    targets = [mask_a_all | b for b in b_masks]
    rows = _rows_between(n, c, sources, targets)
    per_color = []
    for i in range(1, c + 1):
        src = a_sizes[i] + b_sizes[i]
        per_color.append(src * (n_a + b_sizes[i]) - src)
    return rows, per_color, {"min": min_mid(p, q, c)}, _parts_info(a_groups + b_groups)


def _build_ac_min(n, c, p, q):
    denominator = 2 * (c - p + 1) * (c - q + 1)
    weight_a = Fraction((c - p + 1) ** 2 + (p - 1) * (q - p), denominator)
    weight_c = Fraction((c - q + 1) ** 2 - (q - 1) * (q - p), denominator)
    n_a, n_c = proportional_sizes(n, [weight_a, weight_c])
    a_groups, a_masks, a_sizes = _subset_parts(n_a, c, q - 1, "A")
    c_groups, c_masks, c_sizes = _subset_parts(n_c, c, p - 1, "C", start=n_a + 1)
    mask_a_all = _mask(range(1, n_a + 1))
    mask_c_all = _mask(range(n_a + 1, n + 1))
    sources = [a | mask_c_all for a in a_masks]
    targets = [mask_a_all | m for m in c_masks]
    rows = _rows_between(n, c, sources, targets)
    per_color = []
    for i in range(1, c + 1):
        alpha_i, gamma_i = a_sizes[i], c_sizes[i]
        per_color.append((alpha_i + n_c) * (n_a + gamma_i) - alpha_i - gamma_i)
    return rows, per_color, {"min": min_top(p, q, c)}, _parts_info(a_groups + c_groups)


def _build_s11_complete1(n, c, p, q):
    rows, per_color = _complete_rows(n, c, 1)
    return rows, per_color, {}, PartsInfo((), ((),) * n)


def _build_bipartite_s11(n, c, p, q):
    left = tuple(range(1, n // 2 + 1))
    right = tuple(range(n // 2 + 1, n + 1))
    rows = _rows_between(n, c, [_mask(left)] * (c + 1), [_mask(right)] * (c + 1))
    per_color = [len(left) * len(right)] * c
    # the A/C split at p = q = 1: min 1/4, sum c/4
    coefficients = {"min": min_top(p, q, c), "sum": sum_high(p, q, c)}
    parts = PartsInfo(
        (PartGroup("left", (), left), PartGroup("right", (), right)),
        ((),) * n,
    )
    return rows, per_color, coefficients, parts


def _build_remark_cn(n, c, p, q):
    rows = [[0] * n for _ in range(c)]
    for v in range(1, n + 1):
        targets = [(v - 1 + k) % n + 1 for k in range(1, q)]
        tmask = _mask(targets)
        for i in range(c):
            rows[i][v - 1] = tmask
    per_color = [n * (q - 1)] * c
    return rows, per_color, {}, PartsInfo((), ((),) * n)


def _build_remark_nq(n, c, p, q):
    rows, per_color = _complete_rows(n, c, c)
    return rows, per_color, {}, PartsInfo((), ((),) * n)


def _build_triangle_n3(n, c, p, q):
    # G_1 = 1->2->3->1, G_2 the reverse orientation
    forward = [(1, 2), (2, 3), (3, 1)]
    rows = [[0] * 3 for _ in range(2)]
    for (u, v) in forward:
        rows[0][u - 1] |= 1 << (v - 1)
        rows[1][v - 1] |= 1 << (u - 1)
    per_color = [3, 3]
    return rows, per_color, {}, PartsInfo((), ((), (), ()))


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
    which takes (c, p, q)."""

    domain: Callable[..., None]  # raises ApplicabilityError at the first failed condition
    build: Callable[..., tuple]
    predict: dict[str, Callable[..., Union[int, Fraction]]]  # by objective
    part_count: Callable[..., int] = lambda c, p, q: 1
    part_formula: str = ""  # how a part count that is not constant is named in messages


_SPECS: dict[ConstructionFamily, _FamilySpec] = {
    ConstructionFamily.COMPLETE_PREFIX: _FamilySpec(
        _domain_complete_prefix,
        _build_complete_prefix,
        {
            "sum": lambda n, c, p, q: (p + q - 1) * (n * n - n),
            "min": lambda n, c, p, q: n * n - n if c == p + q - 1 else 0,
        },
    ),
    ConstructionFamily.ASSIGNED_OUT: _FamilySpec(
        _domain_assigned_out,
        _build_assigned_out,
        {"sum": lambda n, c, p, q: (q - 1) * (n * n - n), "min": _assigned_out_min},
        part_count=lambda c, p, q: math.comb(c, q - 1),
        part_formula="binom(c, q-1)",
    ),
    ConstructionFamily.CYCLIC_REMAINDER: _FamilySpec(
        _domain_cyclic_remainder,
        _build_cyclic_remainder,
        {
            "sum": lambda n, c, p, q: sum(_cyclic_assignment(n, c, q)[1]),
            "min": lambda n, c, p, q: min(_cyclic_assignment(n, c, q)[1]),
        },
    ),
    ConstructionFamily.AC_SPLIT_SUM: _FamilySpec(
        _domain_ac_split_sum,
        _build_ac_split_sum,
        {"sum": lambda n, c, p, q: sum_high(p, q, c)},
        part_count=lambda c, p, q: 2,
    ),
    ConstructionFamily.B_ONLY: _FamilySpec(
        _domain_two_sided,
        _build_b_only,
        {
            "sum": lambda n, c, p, q: _b_only_claim(n, c, p, q, c),
            "min": lambda n, c, p, q: _b_only_claim(n, c, p, q, 1),
        },
        part_count=lambda c, p, q: math.comb(c, p + q - 1),
        part_formula="binom(c, p+q-1)",
    ),
    ConstructionFamily.AB_MIX: _FamilySpec(
        _domain_ab_mix,
        _build_ab_mix,
        {"min": lambda n, c, p, q: min_mid(p, q, c)},
        part_count=lambda c, p, q: math.comb(c, p + q - 1) + math.comb(c, q - 1),
        part_formula="binom(c,p+q-1) + binom(c,q-1)",
    ),
    ConstructionFamily.A_ONLY: _FamilySpec(
        _domain_two_sided,
        _build_assigned_out,
        {"sum": lambda n, c, p, q: (q - 1) * (n * n - n), "min": _assigned_out_min},
        part_count=lambda c, p, q: math.comb(c, q - 1),
        part_formula="binom(c, q-1)",
    ),
    ConstructionFamily.AC_MIN: _FamilySpec(
        _domain_ac_min,
        _build_ac_min,
        {"min": lambda n, c, p, q: min_top(p, q, c)},
        part_count=lambda c, p, q: math.comb(c, q - 1) + math.comb(c, p - 1),
        part_formula="binom(c,q-1) + binom(c,p-1)",
    ),
    ConstructionFamily.S11_COMPLETE1: _FamilySpec(
        _domain_s11,
        _build_s11_complete1,
        {
            "sum": lambda n, c, p, q: n * n - n,
            "min": lambda n, c, p, q: n * n - n if c == 1 else 0,
        },
    ),
    ConstructionFamily.BIPARTITE_S11: _FamilySpec(
        _domain_s11,
        _build_bipartite_s11,
        {"sum": lambda n, c, p, q: c * (n * n // 4), "min": lambda n, c, p, q: n * n // 4},
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


def build(family: ConstructionFamily, n: int, c: int, p: int, q: int) -> ConstructionOutput:
    """Materialize a family at (n, c, p, q), certify freeness, check counts.

    Raises ApplicabilityError outside the family domain and RuntimeError if
    the materialized collection contradicts the partition arithmetic or
    contains a rainbow star (either would be a builder defect, not bad input).
    """
    reason = applicability_error(family, n, c, p, q)
    if reason is not None:
        raise ApplicabilityError(reason)
    rows, per_color, coefficients, parts = _SPECS[family].build(n, c, p, q)
    collection = DigraphCollection.from_out_rows(n, c, rows)
    predicted = _summary(per_color)
    actual = edge_counts(collection)
    if actual != predicted:
        raise RuntimeError(
            f"internal error: {family.value} counts {actual.per_color} "
            f"differ from partition arithmetic {predicted.per_color}"
        )
    witness = find_rainbow_star(collection, StarPattern(p, q))
    if witness is not None:
        raise RuntimeError(
            f"internal error: {family.value} build contains a rainbow star at "
            f"center {witness.center}"
        )
    return ConstructionOutput(
        family, n, c, p, q, collection, predicted, coefficients, parts, True
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

    Exact families (and exact objectives of mixed families) return integers;
    asymptotic claims return Fractions.  Raises ApplicabilityError outside
    the domain and ValueError for objectives the family makes no claim about.
    """
    _bounds.check_objective(objective)
    reason = applicability_error(family, n, c, p, q)
    if reason is not None:
        raise ApplicabilityError(reason)
    predict = _SPECS[family].predict.get(objective)
    if predict is None:
        raise ValueError(f"{family.value} makes no {objective} prediction")
    return predict(n, c, p, q)
