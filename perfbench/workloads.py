"""Seeded inputs, operations and answer checks of the four workloads.

Every workload is a list of operations.  An operation (`Op`) is a call chain
into the public functions of `model`, `detector`, `bounds`, `constructions`
and `oracle`, plus a check of its answer that runs outside the timed region.
The library modules are reached through `lib.<module>.<name>` at call time,
so the traced run can rebind those names (see tracing.py).

The workloads and why each exists (BENCHMARK.json repeats this briefly):

exact-solve      `oracle` does nearly all the work: cover-oracle solves drawn
                 from the `cover-adjudication` domain, plus branch-and-bound
                 on small instances.  Detector and model only certify.
detect-random    typical detector use on the `detector-equivalence` kind of
                 input: parse, search, classify random collections.
detect-nearmiss  the detector's exponential backtracking on a fixed ladder of
                 adversarial instances; the seed only reorders the ladder.
export-large     `model` parse/serialize and `constructions` builds on large
                 edge lists, dense and sparse, with detector searches on the
                 sparse files.  No oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
FRAMES_FILE = HERE / "frames.json"

WORKLOADS = ("exact-solve", "detect-random", "detect-nearmiss", "export-large")


@dataclass(frozen=True)
class Answer:
    """Outcome of an answer check: `wrong` says what is wrong, or is None.

    `notes` name defects the check observed without failing the op (a false
    EXACT label is counted as `false_exact`, see exact-solve)."""

    wrong: Optional[str] = None
    notes: tuple[str, ...] = ()


OK = Answer()


@dataclass
class Op:
    key: str                          # the op's input, for digests and reports
    run: Callable[[], object]
    check: Callable[[object], Answer]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    sizes: dict                       # input sizes for the report
    min_passes: int = 3
    largest_text: Optional[str] = None  # re-parsed under tracemalloc when traced

    def digest(self) -> str:
        h = hashlib.sha256()
        for op in self.ops:
            h.update(op.key.encode())
            h.update(b"\n")
        return h.hexdigest()


def build(name: str, lib, rng, tiny: bool = False) -> Workload:
    builders = {
        "exact-solve": exact_solve,
        "detect-random": detect_random,
        "detect-nearmiss": detect_nearmiss,
        "export-large": export_large,
    }
    return builders[name](lib, rng, tiny)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- answer checks ------------------------------------------------------------
#
# Each check takes the answer and the facts it is checked against and returns
# an Answer.  They never call the function under test on the same input.


def formula_min(n: int, c: int, q: int) -> int:
    k, r = divmod(n * (q - 1), c)
    return k * (n - 1) + r


def min_divisible(n: int, c: int, q: int) -> bool:
    return q == 1 or (n * (q - 1)) % c % (q - 1) == 0


def check_cover(lib, n, c, q, objective, outcome, bound, construction_min) -> Answer:
    """Cover-oracle optimum against the closed forms.

    sum: (q-1)(n^2-n).  min: the floor formula when (q-1) divides r, else
    between the CYCLIC_REMAINDER minimum and the formula.  A bound labelled
    EXACT that differs from the optimum is noted as false_exact."""
    value = outcome.optimum
    if not outcome.proved_optimal:
        return Answer("cover oracle did not prove optimality")
    counts = lib.model.edge_counts(outcome.witness)
    if (counts.total if objective == "sum" else counts.minimum) != value:
        return Answer(f"witness attains {counts}, optimum reported {value}")
    if objective == "sum":
        expected = (q - 1) * (n * n - n)
        if value != expected:
            return Answer(f"sum optimum {value}, theorem gives {expected}")
    else:
        target = formula_min(n, c, q)
        if min_divisible(n, c, q):
            if value != target:
                return Answer(f"min optimum {value}, formula gives {target}")
        elif not construction_min <= value <= target:
            return Answer(
                f"min optimum {value} outside [{construction_min}, {target}]")
    if bound.kind == lib.bounds.EXACT and bound.value != value:
        return Answer(None, ("false_exact",))
    return OK


def check_bnb(lib, outcome, cover_value, table_value, reverse_value) -> Answer:
    """Branch-and-bound optimum: proved, attained by its witness, and equal to
    the cover oracle (p = 0), the exact-small table and the reversed pattern
    wherever those are known (None where not)."""
    value = outcome.optimum
    if not outcome.proved_optimal:
        return Answer("branch-and-bound did not prove optimality")
    counts = lib.model.edge_counts(outcome.witness)
    attained = counts.total if outcome.objective == "sum" else counts.minimum
    if attained != value:
        return Answer(f"witness attains {attained}, optimum reported {value}")
    for label, other in (("cover oracle", cover_value),
                         ("exact-small table", table_value),
                         ("reversed pattern", reverse_value)):
        if other is not None and other != value:
            return Answer(f"optimum {value}, {label} gives {other}")
    return OK


def check_star(collection, pat, emb, expect_star=None, naive=None, fastpath=None,
               known=None) -> Answer:
    """A detector verdict against every reference that applies.

    expect_star: True when a star is planted or known to exist, False when
    known absent.  naive / fastpath: verdicts of the reference deciders,
    None where they do not apply.  known: the exact embedding expected."""
    if emb is not None:
        if emb.pattern != pat:
            return Answer(f"witness has pattern {emb.pattern}, asked {pat}")
        if not emb.is_valid_in(collection):
            return Answer(f"witness at center {emb.center} is not a rainbow star")
    found = emb is not None
    for label, expected in (("planted/known", expect_star),
                            ("naive enumeration", naive),
                            ("p=0 matching fastpath", fastpath)):
        if expected is not None and expected != found:
            return Answer(f"verdict {'star' if found else 'free'} contradicts {label}")
    if known is not None and emb != known:
        return Answer(f"witness {emb} differs from the known first embedding")
    return OK


def check_classification(report, n, emb) -> Answer:
    """A/B/C/violator sets partition 1..n, and agree with the verdict: a
    witness center passes the profile test, and no violator means free."""
    parts = report.a_vertices + report.b_vertices + report.c_vertices + report.violators
    if sorted(parts) != list(range(1, n + 1)):
        return Answer("classification is not a partition of the vertices")
    if emb is not None and emb.center not in report.violators:
        return Answer(f"witness center {emb.center} is not a violator")
    return OK


def check_counts(lib, collection, predicted_counts: tuple[int, ...]) -> Answer:
    counts = lib.model.edge_counts(collection).per_color
    if counts != tuple(predicted_counts):
        return Answer(f"edge counts {counts}, predicted {tuple(predicted_counts)}")
    return OK


def check_round_trip(lib, original: str, collection, reserialized: str,
                     predicted_counts: tuple[int, ...]) -> Answer:
    """Byte-identical text after parse and serialize, predicted edge counts."""
    if reserialized != original:
        return Answer("round trip is not byte-identical")
    return check_counts(lib, collection, predicted_counts)


def combine(*answers: Answer) -> Answer:
    for answer in answers:
        if answer.wrong is not None:
            return answer
    notes = tuple(note for answer in answers for note in answer.notes)
    return Answer(None, notes)


# -- exact-solve --------------------------------------------------------------

# Sampling: every frame entry that took CENSUS_S or more at the parent commit,
# or between MIDDLE_S, is always in (census); one entry is drawn from each
# block of the rest, so every seed gets the same cost profile and op count.
# The census holds the 11 slowest ops, so the tail (11th slowest) is always
# the least of them, and the ops around the median, so the median op is the
# same on every seed (drawn from blocks of 8 too, its cost differed by about
# 8% between seeds).  The slow census costs about 7 s, so this workload runs
# two passes, not three.
CENSUS_S = 0.6
MIDDLE_S = (0.001, 0.003)
COVER_BLOCK = BNB_BLOCK = 8
COVER_SUM_OPS = 20

# exact optima of the path pattern at small sizes (n, c, p, q, objective)
EXACT_SMALL_TABLE = {
    (3, 2, 1, 1, "sum"): 6,
    (3, 3, 1, 1, "sum"): 6,
    (4, 2, 1, 1, "sum"): 12,
    (4, 3, 1, 1, "sum"): 12,
    (3, 4, 1, 1, "sum"): 8,
    (4, 4, 1, 1, "sum"): 16,
    (4, 2, 1, 1, "min"): 4,
    (4, 3, 1, 1, "min"): 4,
    (5, 2, 1, 1, "min"): 6,
    (3, 2, 1, 1, "min"): 3,
}


def block_sample(rng, frame: list, seconds: list, block: int) -> list:
    def always(t: float) -> bool:
        return t >= CENSUS_S or MIDDLE_S[0] <= t < MIDDLE_S[1]

    body = [entry for entry, t in zip(frame, seconds) if not always(t)]
    census = [entry for entry, t in zip(frame, seconds) if always(t)]
    return [rng.choice(body[at:at + block]) for at in range(0, len(body), block)] + census


def exact_solve(lib, rng, tiny: bool) -> Workload:
    frames = json.loads(FRAMES_FILE.read_text())
    cover_frame = [tuple(p) for p in frames["cover_min"]]
    bnb_frame = [tuple(u) for u in frames["bnb_units"]]
    cover_s, bnb_s = frames["cover_min_seconds"], frames["bnb_unit_seconds"]
    if tiny:
        cover_frame, bnb_frame = cover_frame[:16], bnb_frame[:16]
    all_points = sorted(cover_frame)

    cover_ops = [(n, c, q, "min") for (n, c, q) in block_sample(rng, cover_frame, cover_s, COVER_BLOCK)]
    sum_count = 4 if tiny else COVER_SUM_OPS
    cover_ops += [(n, c, q, "sum") for (n, c, q) in rng.sample(all_points, min(sum_count, len(all_points)))]
    units = block_sample(rng, bnb_frame, bnb_s, BNB_BLOCK)
    units += [key for key in EXACT_SMALL_TABLE if not tiny or key[0] * key[1] * (key[0] - 1) <= 12]

    construction_mins: dict = {}
    cover_values: dict = {}

    def cover_op(n, c, q, objective) -> Op:
        def run():
            outcome = lib.oracle.cover_oracle_s0q(n, c, q, objective)
            bound = lib.bounds.exact_bound(lib.model.StarPattern(0, q), n, c, objective)
            return outcome, bound

        def check(answer):
            outcome, bound = answer
            low = None
            if objective == "min" and not min_divisible(n, c, q):
                if (n, c, q) not in construction_mins:
                    built = lib.constructions.build(
                        lib.constructions.ConstructionFamily.CYCLIC_REMAINDER, n, c, 0, q)
                    construction_mins[(n, c, q)] = built.predicted_counts.minimum
                low = construction_mins[(n, c, q)]
            return check_cover(lib, n, c, q, objective, outcome, bound, low)

        return Op(f"cover n={n} c={c} q={q} {objective}", run, check)

    def bnb_op(n, c, p, q, objective) -> Op:
        """max_exact on (p, q) and, for p != q, on the reversed (q, p)."""
        patterns = [(p, q)] + ([(q, p)] if p != q else [])

        def run():
            return [lib.oracle.max_exact(n, c, lib.model.StarPattern(a, b), objective,
                                         budget_secs=60.0, allow_large=True)
                    for (a, b) in patterns]

        def check(outcomes):
            cover_value = None
            if p == 0 and n > c >= q:
                if (n, c, q, objective) not in cover_values:
                    cover_values[(n, c, q, objective)] = lib.oracle.cover_oracle_s0q(
                        n, c, q, objective).optimum
                cover_value = cover_values[(n, c, q, objective)]
            return combine(*(
                check_bnb(lib, outcome, cover_value,
                          EXACT_SMALL_TABLE.get((n, c, a, b, objective)),
                          outcomes[-1 - k].optimum)
                for k, (outcome, (a, b)) in enumerate(zip(outcomes, patterns))))

        return Op(f"bnb n={n} c={c} p={p} q={q} {objective}", run, check)

    ops = [cover_op(*point) for point in cover_ops] + [bnb_op(*unit) for unit in units]
    rng.shuffle(ops)
    return Workload("exact-solve", ops, {
        "cover_ops": len(cover_ops),
        "cover_n": [min(p[0] for p in cover_ops), max(p[0] for p in cover_ops)],
        "cover_c_max": max(p[1] for p in cover_ops),
        "bnb_ops": len(ops) - len(cover_ops),
        "bnb_slots_max": max(u[0] * (u[0] - 1) * u[1] for u in units),
    }, min_passes=2)


# -- detect-random ------------------------------------------------------------

# Shapes on a fixed grid, patterns dealt in turn; the seed draws the edges
# and the plantings.  A fixed grid keeps the costliest instances (the tail)
# the same size on every seed.
RANDOM_N = (8, 16, 24, 32, 40)
RANDOM_C = (2, 4, 6, 8)
RANDOM_DENSITY = (0.02, 0.08, 0.15, 0.22, 0.3)
RANDOM_REPLICATES = 3
RANDOM_PATTERNS = [(p, q) for p in range(7) for q in range(7) if 1 <= p + q <= 6]
PLANT_SHARE = 0.25


def random_text(rng, n: int, c: int, density: float, plant=None):
    """Canonical edge-list text of a random collection and its per-color
    counts; `plant` = (p, q) adds a rainbow star of that pattern."""
    slots = c * n * (n - 1)
    edges = set()
    for s in rng.sample(range(slots), round(density * slots)):
        i, rest = divmod(s, n * (n - 1))
        u, v = divmod(rest, n - 1)
        edges.add((i + 1, u + 1, v + 1 + (v >= u)))
    if plant is not None:
        p, q = plant
        center = rng.randint(1, n)
        leaves = rng.sample([x for x in range(1, n + 1) if x != center], p + q)
        colors = rng.sample(range(1, c + 1), p + q)
        for k, (w, i) in enumerate(zip(leaves, colors)):
            edges.add((i, w, center) if k < p else (i, center, w))
    counts = [0] * c
    for (i, _, _) in edges:
        counts[i - 1] += 1
    body = "".join(f"{i} {u} {v}\n" for (i, u, v) in sorted(edges))
    return f"rainbow-digraph v1\n{n} {c}\n{body}", tuple(counts)


def detect_random(lib, rng, tiny: bool) -> Workload:
    ops, texts = [], []
    sizes = {"instances": 0, "n": list(RANDOM_N), "c": list(RANDOM_C),
             "density": list(RANDOM_DENSITY), "edges": 0, "bytes": 0, "planted": 0}
    shapes = [(n, c, d) for n in RANDOM_N for c in RANDOM_C for d in RANDOM_DENSITY]
    shapes = [shape for shape in shapes for _ in range(RANDOM_REPLICATES)]
    for index, (n, c, density) in enumerate(shapes[::30] if tiny else shapes):
        p, q = RANDOM_PATTERNS[index % len(RANDOM_PATTERNS)]
        plant = (p, q) if rng.random() < PLANT_SHARE and p + q <= min(c, n - 1) else None
        text, counts = random_text(rng, n, c, density, plant)
        sizes["instances"] += 1
        sizes["edges"] += sum(counts)
        sizes["bytes"] += len(text)
        sizes["planted"] += plant is not None
        ops.append(random_op(lib, index, text, n, lib.model.StarPattern(p, q), counts,
                             plant is not None))
        texts.append(text)
    return Workload("detect-random", ops, sizes, largest_text=max(texts, key=len))


def random_op(lib, index, text, n, pat, counts, planted) -> Op:
    first: list = []

    def run():
        collection = lib.model.parse_edge_list(text)
        emb = lib.detector.find_rainbow_star(collection, pat)
        report = lib.detector.classify_vertices(collection, pat)
        return collection, emb, report

    def check(answer):
        collection, emb, report = answer
        if first:  # later passes must repeat the checked first answer
            if (emb, report.violators) != first[0]:
                return Answer("answer differs from the first pass")
            return OK
        answer = combine(
            check_counts(lib, collection, counts),
            check_star(collection, pat, emb, expect_star=True if planted else None,
                       **reference_verdicts(lib, collection, pat)),
            check_classification(report, n, emb),
        )
        if answer.wrong is None:
            first.append((emb, report.violators))
        return answer

    return Op(f"random #{index} n={n} {pat.p},{pat.q} {text_digest(text)}", run, check)


# -- detect-nearmiss ----------------------------------------------------------

# (k, c, p, q): K_k complete in every color plus one isolated vertex.  A star
# exists iff p+q <= min(k-1, c), so p+q = k is a near miss and p+q = k-1 a
# narrow hit.  The ladder takes every such rung with k <= 6 (each under a
# second at the parent commit) and the chains below; slower instances are
# probes.
LADDER_CLIQUES = [(k, c, p, q) for k in (4, 5, 6) for c in (k - 1, k, k + 1)
                  for p in range(k + 1) for q in range(p, k + 1)
                  if p + q in (k - 1, k) and p + q <= c]
LADDER_CHAINS = [4, 5, 6, 7, 8, 9, 10, 11, 12]
# the naive decider enumerates vertex tuples and, for each, color tuples;
# run it where both stay small
NAIVE_TUPLE_CAP = 20000
NAIVE_WORK_CAP = 200000
# run once per traced run under the per-op deadline; their outcome (time or
# failure kind) is reported, and overruns and errors inside the detector are
# the per-layer counts detector.deadline_overruns and detector.errors
PROBE_CLIQUES = [(7, 7, 4, 3), (8, 8, 4, 4)]
PROBE_CHAINS = [14, 18, 1500]


def clique_collection(lib, k: int, c: int):
    edges = [(i, u, v) for i in range(1, c + 1) for u in range(1, k + 1)
             for v in range(1, k + 1) if u != v]
    return lib.model.DigraphCollection.from_edges(k + 1, c, edges)


def chain_collection(lib, length: int):
    """Ascending-chain out-star at center 1: leaf j+1 in colors j and j+1
    (j = 1..L), and the extra leaf L+2 in color 1 only."""
    edges = [(1, 1, length + 2)]
    for j in range(1, length + 1):
        edges += [(j, 1, j + 1), (j + 1, 1, j + 1)]
    return lib.model.DigraphCollection.from_edges(length + 2, length + 1, edges)


def chain_embedding(lib, length: int):
    """The only rainbow (0, L+1) star of the chain, in scan order."""
    leaves = tuple((j + 1, j + 1) for j in range(1, length + 1)) + ((length + 2, 1),)
    return lib.model.StarEmbedding(1, (), leaves)


def reference_verdicts(lib, collection, pat) -> dict:
    """Verdicts of the naive decider (within its guard and a size cap) and
    of the p = 0 matching fastpath, where they apply."""
    detector, n, size = lib.detector, collection.n, pat.p + pat.q
    verdicts = {}
    tuples = n * math.perm(n - 1, size)
    if (n * collection.c * size <= detector.NAIVE_WORK_GUARD and tuples <= NAIVE_TUPLE_CAP
            and tuples * math.perm(collection.c, size) <= NAIVE_WORK_CAP):
        verdicts["naive"] = detector.find_rainbow_star_naive(collection, pat) is not None
    if pat.p == 0:
        verdicts["fastpath"] = detector.matching_fastpath_p0(collection, pat.q) is not None
    return verdicts


def ladder_op(lib, key: str, collection, pat, star: bool, known=None) -> Op:
    references: list = []

    def check(emb):
        if not references:
            references.append(reference_verdicts(lib, collection, pat))
        return check_star(collection, pat, emb, expect_star=star, known=known,
                          **references[0])

    return Op(key, lambda: lib.detector.find_rainbow_star(collection, pat), check)


def clique_op(lib, k, c, p, q) -> Op:
    return ladder_op(lib, f"clique k={k} c={c} {p},{q}", clique_collection(lib, k, c),
                     lib.model.StarPattern(p, q), p + q <= min(k - 1, c))


def chain_op(lib, length) -> Op:
    return ladder_op(lib, f"chain L={length}", chain_collection(lib, length),
                     lib.model.StarPattern(0, length + 1), True,
                     chain_embedding(lib, length))


def detect_nearmiss(lib, rng, tiny: bool) -> Workload:
    cliques = [r for r in LADDER_CLIQUES if r[0] <= 4] if tiny else LADDER_CLIQUES
    chains = LADDER_CHAINS[:3] if tiny else LADDER_CHAINS
    ops = [clique_op(lib, *rung) for rung in cliques] + [chain_op(lib, L) for L in chains]
    rng.shuffle(ops)
    return Workload("detect-nearmiss", ops, {
        "rungs": len(ops),
        "cliques_kcpq": cliques,
        "chains_L": chains,
        "probes": [f"clique {r}" for r in PROBE_CLIQUES] + [f"chain L={L}" for L in PROBE_CHAINS],
    })


def nearmiss_probes(lib, tiny: bool) -> list[Op]:
    """Built only for the traced run: the 1500-chain alone costs a second."""
    cliques = [] if tiny else PROBE_CLIQUES
    chains = [1500] if tiny else PROBE_CHAINS
    return [clique_op(lib, *rung) for rung in cliques] + [chain_op(lib, L) for L in chains]


# -- export-large -------------------------------------------------------------

# Sizes are fixed, so every seed's ops cost the same; the seed draws the
# sparse files' edges and planted stars, and the op order.
# Sparse files (n, c, edges): the 60000-vertex, 3-color, 150k-edge file of
# the roadmap baseline and a 20000-vertex, 5-color, 50k-edge file, the two
# ends of the domain.
SPARSE_SPECS = [(60000, 3, 150000), (20000, 5, 50000)]
# Construction exports (n, c, q, objective) over n 200..601 and c 3..8; the
# dense layout ends at 512 vertices, so the last two parse to sparse.
EXPORTS = [(200, 3, 3, "sum"), (280, 8, 3, "min"), (360, 5, 2, "sum"),
           (440, 6, 2, "min"), (530, 4, 2, "sum"), (601, 7, 2, "min")]
SPARSE_PATTERNS = [(0, 2), (1, 1), (1, 2), (0, 3), (2, 1)]


def sparse_text(rng, n: int, c: int, edge_count: int, pat):
    """Random sparse collection with one planted star of pattern `pat`."""
    p, q = pat
    center = rng.randint(1, n)
    leaves = [x for x in rng.sample(range(1, n + 1), p + q + 1) if x != center][:p + q]
    colors = rng.sample(range(1, c + 1), p + q)
    edges = {(i, w, center) if k < p else (i, center, w)
             for k, (w, i) in enumerate(zip(leaves, colors))}
    while len(edges) < edge_count:
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u != v:
            edges.add((rng.randint(1, c), u, v))
    counts = [0] * c
    for (i, _, _) in edges:
        counts[i - 1] += 1
    body = "".join(f"{i} {u} {v}\n" for (i, u, v) in sorted(edges))
    return f"rainbow-digraph v1\n{n} {c}\n{body}", tuple(counts)


def export_large(lib, rng, tiny: bool) -> Workload:
    scale = 100 if tiny else 1
    ops, texts = [], []
    sizes = {"sparse": [], "exports": [], "dense_threshold": lib.model.DEFAULT_DENSE_THRESHOLD}
    for (n, c, edge_count) in SPARSE_SPECS:
        n, edge_count = n // scale, edge_count // scale
        pat = rng.choice([pq for pq in SPARSE_PATTERNS if sum(pq) <= c])
        text, counts = sparse_text(rng, n, c, edge_count, pat)
        texts.append(text)
        sizes["sparse"].append({"n": n, "c": c, "edges": edge_count, "bytes": len(text)})
        ops.append(sparse_op(lib, f"n={n} c={c}", text, counts, lib.model.StarPattern(*pat)))
    for (n, c, q, objective) in EXPORTS[:3] if tiny else EXPORTS:
        n //= 5 if tiny else 1
        family = export_family(lib, objective)
        sizes["exports"].append({"n": n, "c": c, "q": q, "family": family.name,
                                 "edges": lib.constructions.predicted_value(
                                     family, n, c, 0, q, "sum")})
        ops.append(export_op(lib, n, c, q, objective))
    rng.shuffle(ops)
    return Workload("export-large", ops, sizes, largest_text=max(texts, key=len))


def sparse_op(lib, dims: str, text: str, counts, pat) -> Op:
    def run():
        collection = lib.model.parse_edge_list(text)
        emb = lib.detector.find_rainbow_star(collection, pat)
        report = lib.detector.classify_vertices(collection, pat)
        return collection, emb, report, lib.model.serialize_edge_list(collection)

    def check(answer):
        collection, emb, report, out = answer
        return combine(check_round_trip(lib, text, collection, out, counts),
                       check_star(collection, pat, emb, expect_star=True),
                       check_classification(report, collection.n, emb))

    return Op(f"sparse {dims} {pat.p},{pat.q} {text_digest(text)}", run, check)


def export_family(lib, objective: str):
    """The family that attains the out-star bound of the objective."""
    family = lib.constructions.ConstructionFamily
    return family.ASSIGNED_OUT if objective == "sum" else family.CYCLIC_REMAINDER


def export_op(lib, n: int, c: int, q: int, objective: str) -> Op:
    """exact_bound -> certified build -> serialize -> parse."""
    chosen = export_family(lib, objective)
    pat = lib.model.StarPattern(0, q)

    def run():
        bound = lib.bounds.exact_bound(pat, n, c, objective)
        built = lib.constructions.build(chosen, n, c, 0, q)
        text = lib.model.serialize_edge_list(built.collection)
        return bound, built, text, lib.model.parse_edge_list(text)

    def check(answer):
        bound, built, text, collection = answer
        return combine(check_export(lib, n, c, q, objective, bound, built),
                       check_round_trip(lib, text, collection,
                                        lib.model.serialize_edge_list(collection),
                                        built.predicted_counts.per_color))

    return Op(f"export n={n} c={c} q={q} {objective}", run, check)


def check_export(lib, n, c, q, objective, bound, built) -> Answer:
    """The build is certified and reaches the exact bound (the minimum may
    fall short only where (q-1) does not divide r)."""
    if not built.certified_free:
        return Answer("build is not certified free")
    if bound.kind != lib.bounds.EXACT:
        return Answer(f"bound kind {bound.kind}, expected EXACT for n > c >= q")
    counts = built.predicted_counts
    if objective == "sum" and counts.total != bound.value:
        return Answer(f"build sum {counts.total}, bound {bound.value}")
    if objective == "min":
        if counts.minimum > bound.value or (
                min_divisible(n, c, q) and counts.minimum != bound.value):
            return Answer(f"build minimum {counts.minimum}, bound {bound.value}")
    return OK
