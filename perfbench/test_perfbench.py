"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_one_seed_gives_identical_inputs(lib, name):
    tiny = name in ("detect-random", "export-large")

    def digest(seed):
        return W.build(name, lib, random.Random(f"{name}/{seed}"), tiny).digest()

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


# -- every checker rejects a corrupted answer ---------------------------------

def test_cover_check(lib):
    outcome = lib.oracle.cover_oracle_s0q(9, 4, 3, "min")
    bound = lib.bounds.exact_bound(lib.model.StarPattern(0, 3), 9, 4, "min")
    assert W.check_cover(lib, 9, 4, 3, "min", outcome, bound, None) == W.OK
    bumped = dataclasses.replace(outcome, optimum=outcome.optimum + 1)
    assert W.check_cover(lib, 9, 4, 3, "min", bumped, bound, None).wrong
    unproved = dataclasses.replace(outcome, proved_optimal=False)
    assert W.check_cover(lib, 9, 4, 3, "min", unproved, bound, None).wrong
    # a right answer to another question is wrong here: formula and theorem
    assert W.check_cover(lib, 10, 4, 3, "min", outcome, bound, None).wrong
    total = lib.oracle.cover_oracle_s0q(9, 4, 3, "sum")
    assert W.check_cover(lib, 10, 4, 3, "sum", total, bound, None).wrong


def test_cover_check_notes_false_exact(lib):
    outcome = lib.oracle.cover_oracle_s0q(8, 5, 3, "min")
    bound = lib.bounds.exact_bound(lib.model.StarPattern(0, 3), 8, 5, "min")
    low = lib.constructions.build(
        lib.constructions.ConstructionFamily.CYCLIC_REMAINDER, 8, 5, 0, 3).predicted_counts.minimum
    answer = W.check_cover(lib, 8, 5, 3, "min", outcome, bound, low)
    assert answer.wrong is None
    assert answer.notes == (("false_exact",) if bound.value != outcome.optimum else ())
    assert W.check_cover(lib, 8, 5, 3, "min", outcome, bound, outcome.optimum + 1).wrong


def test_bnb_check(lib):
    outcome = lib.oracle.max_exact(3, 2, lib.model.StarPattern(1, 1), "sum")
    value = outcome.optimum
    assert W.check_bnb(lib, outcome, value, value, value) == W.OK
    assert W.check_bnb(lib, outcome, None, None, None) == W.OK
    assert W.check_bnb(lib, dataclasses.replace(outcome, optimum=value + 1), None, None, None).wrong
    assert W.check_bnb(lib, dataclasses.replace(outcome, proved_optimal=False), None, None, None).wrong
    assert W.check_bnb(lib, outcome, value + 1, None, None).wrong
    assert W.check_bnb(lib, outcome, None, value - 1, None).wrong
    assert W.check_bnb(lib, outcome, None, None, value + 2).wrong


def test_star_check(lib):
    collection = W.chain_collection(lib, 4)
    pat = lib.model.StarPattern(0, 5)
    known = W.chain_embedding(lib, 4)
    emb = lib.detector.find_rainbow_star(collection, pat)
    assert W.check_star(collection, pat, emb, expect_star=True, known=known) == W.OK
    assert W.check_star(collection, pat, None, expect_star=True).wrong
    assert W.check_star(collection, pat, emb, naive=False).wrong
    assert W.check_star(collection, pat, emb, fastpath=False).wrong
    assert W.check_star(collection, pat, None, naive=True).wrong
    broken = dataclasses.replace(emb, out_leaves=emb.out_leaves[:-1] + ((6, 2),))
    assert W.check_star(collection, pat, broken).wrong
    assert W.check_star(collection, pat, broken, known=known).wrong
    short = dataclasses.replace(emb, out_leaves=emb.out_leaves[:-1])
    assert W.check_star(collection, pat, short).wrong


def test_classification_check(lib):
    collection = W.chain_collection(lib, 4)
    pat = lib.model.StarPattern(0, 5)
    emb = lib.detector.find_rainbow_star(collection, pat)
    report = lib.detector.classify_vertices(collection, pat)
    assert W.check_classification(report, collection.n, emb) == W.OK
    dropped = dataclasses.replace(report, b_vertices=report.b_vertices[1:])
    assert W.check_classification(dropped, collection.n, emb).wrong
    moved = dataclasses.replace(report, violators=(), b_vertices=report.b_vertices + report.violators)
    assert W.check_classification(moved, collection.n, emb).wrong


def test_round_trip_check(lib):
    text, counts = W.sparse_text(random.Random(3), 600, 3, 1500, (1, 1))
    collection = lib.model.parse_edge_list(text)
    out = lib.model.serialize_edge_list(collection)
    assert W.check_round_trip(lib, text, collection, out, counts) == W.OK
    assert W.check_round_trip(lib, text, collection, out.replace("\n1 ", "\n2 ", 1), counts).wrong
    assert W.check_round_trip(lib, text, collection, out, (counts[0] + 1,) + counts[1:]).wrong


def test_export_check(lib):
    pat = lib.model.StarPattern(0, 2)
    bound = lib.bounds.exact_bound(pat, 40, 3, "sum")
    built = lib.constructions.build(lib.constructions.ConstructionFamily.ASSIGNED_OUT, 40, 3, 0, 2)
    assert W.check_export(lib, 40, 3, 2, "sum", bound, built) == W.OK
    assert W.check_export(lib, 40, 3, 2, "sum", dataclasses.replace(bound, value=bound.value + 1), built).wrong
    assert W.check_export(lib, 40, 3, 2, "sum", bound,
                          dataclasses.replace(built, certified_free=False)).wrong
    assert W.check_export(lib, 40, 3, 2, "min", bound, built).wrong


# -- failures are counted, not fatal -------------------------------------------

def test_overrun_error_and_wrong_answer_fail_one_op_each():
    def spin():
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            pass

    def recurse(k=0):
        return recurse(k + 1)

    ops = [W.Op("spin", spin, lambda _: W.OK),
           W.Op("recurse", recurse, lambda _: W.OK),
           W.Op("wrong", lambda: 1, lambda _: W.Answer("corrupted")),
           W.Op("fine", lambda: 2, lambda _: W.OK)]
    run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    tally = run.Tally()
    outcomes = [run.run_op(op, tally, deadline_s=0.2) for op in ops]
    assert outcomes == ["Overrun", "RecursionError", "wrong", "ok"]
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 3, 1)
    assert tally.latencies[0] == 0.2


# -- tiny end-to-end runs ------------------------------------------------------

@pytest.mark.parametrize("name", W.WORKLOADS)
def test_tiny_smoke_run(name):
    result, report = run.measure(name, 5, 0.2, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0, report["first_wrong"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_tiny_traced_run_counts_repeat(name):
    counts = ("oracle.cover_nodes", "oracle.bnb_nodes", "detector.find_calls",
              "detector.hopcroft_karp_calls", "bounds.false_exact")
    seen = []
    for _ in range(2):
        result, report = run.measure(name, 5, 0.2, trace=True, tiny=True)
        assert result["correct"] and result["failed"] == 0, report["first_wrong"]
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        seen.append([result["metrics"][c]["value"] for c in counts])
    assert seen[0] == seen[1]
    if name == "detect-nearmiss":
        assert report["probes"] == {"chain L=1500": "RecursionError"}
        assert result["metrics"]["detector.errors"]["value"] == 1


def test_spec_matches_the_metrics_printed():
    assert [m["name"] for m in SPEC["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(tracing.PER_LAYER)
