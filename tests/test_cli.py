"""Command line front end: JSON shapes, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from rainbow_stars import bounds, verify
from rainbow_stars.bounds import exact_bound
from rainbow_stars.cli import main
from rainbow_stars.constructions import ConstructionFamily
from rainbow_stars.model import DigraphCollection, StarPattern
from rainbow_stars.oracle import DEFAULT_BUDGET_SECS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_bound_exact_golden(capsys):
    code, payload = run(capsys, "bound", "--p", "0", "--q", "2",
                        "--n", "5", "--c", "3", "--objective", "min")
    assert code == 0
    assert payload["kind"] == "EXACT"
    assert payload["value"] == 6


def test_bound_out_star_min_upper_bound_against_oracle(capsys):
    code, payload = run(capsys, "bound", "--p", "0", "--q", "3",
                        "--n", "8", "--c", "5", "--objective", "min")
    assert code == 0
    assert (payload["kind"], payload["value"]) == ("UPPER_BOUND", 22)
    assert "oracle --cover" in payload["domain_note"]
    code, payload = run(capsys, "oracle", "--n", "8", "--c", "5", "--p", "0",
                        "--q", "3", "--objective", "min", "--cover")
    assert code == 0
    assert payload["optimum"] == 21 and payload["proved_optimal"] is True


def test_bound_asymptotic_includes_thresholds(capsys):
    code, payload = run(capsys, "bound", "--p", "1", "--q", "2",
                        "--c", "8", "--objective", "sum")
    assert code == 0
    assert payload["kind"] == "ASYMPTOTIC"
    assert payload["coefficient"] == "16/7"
    assert payload["thresholds"]["chain"] == "SECOND"
    assert payload["thresholds"]["t2"]["exact"] == "inf"


def test_bound_out_star_coefficient(capsys):
    code, payload = run(capsys, "bound", "--p", "0", "--q", "3",
                        "--c", "6", "--objective", "min")
    assert code == 0
    assert payload["coefficient"] == "1/3"
    assert "thresholds" not in payload


def test_bound_fraction_value(capsys):
    # an asymptotic value at a given n is a coefficient, printed as a fraction
    code, payload = run(capsys, "bound", "--p", "1", "--q", "2",
                        "--n", "4", "--c", "3", "--objective", "min")
    assert code == 0
    assert (payload["kind"], payload["value"]) == ("ASYMPTOTIC", "4/9")


def test_bound_domain_error_is_structured(capsys):
    for p, q, objective, message in (("1", "2", "min", "c >= p+q"),
                                     ("0", "3", "sum", "needs c >= q")):
        code, payload = run(capsys, "bound", "--p", p, "--q", q,
                            "--c", "2", "--objective", objective)
        assert code == 1
        assert payload["error"]["type"] == "ValueError"
        assert message in payload["error"]["message"]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["bound", "--p", "1", "--q", "1", "--c", "3", "--objective", "best"])
    assert err.value.code == 2


def test_construct_then_check_round_trip(tmp_path, capsys):
    target = tmp_path / "f.txt"
    code, payload = run(capsys, "construct", "--family", "BIPARTITE_S11",
                        "--n", "4", "--c", "4", "--p", "1", "--q", "1",
                        "--out", str(target))
    assert code == 0
    assert payload["certified_free"]
    assert payload["predicted_counts"]["per_color"] == [4, 4, 4, 4]
    assert payload["edge_list_path"] == str(target)
    assert target.read_text().startswith("rainbow-digraph v1\n")

    code, verdict = run(capsys, "check", "--in", str(target), "--p", "1", "--q", "1")
    assert code == 0
    assert verdict["rainbow_free"] is True
    assert verdict["witness"] is None
    assert verdict["edge_counts"]["minimum"] == 4


def test_construct_embeds_edge_list_without_out(capsys):
    code, payload = run(capsys, "construct", "--family", "CYCLIC_REMAINDER",
                        "--n", "4", "--c", "3", "--p", "0", "--q", "2")
    assert code == 0
    assert payload["edge_list"].startswith("rainbow-digraph v1\n4 3\n")
    assert "edge_list_path" not in payload


# one applicable point per family and side: p = 0 where the family allows
# it, and p >= 1 where it allows that
_CONSTRUCT_POINTS = (
    ("COMPLETE_PREFIX", 6, 3, 0, 2), ("COMPLETE_PREFIX", 6, 4, 1, 2),
    ("ASSIGNED_OUT", 6, 3, 0, 2), ("CYCLIC_REMAINDER", 7, 5, 0, 3),
    ("AC_SPLIT_SUM", 8, 4, 1, 2), ("B_ONLY", 12, 4, 1, 2), ("AB_MIX", 24, 3, 1, 2),
    ("A_ONLY", 12, 4, 1, 2), ("AC_MIN", 24, 4, 1, 2), ("S11_COMPLETE1", 6, 3, 1, 1),
    ("BIPARTITE_S11", 7, 3, 1, 1), ("REMARK_CN", 6, 8, 0, 3), ("REMARK_NQ", 3, 5, 0, 4),
    ("TRIANGLE_N3", 3, 2, 1, 1),
)


def test_construct_output_pinned(capsys):
    # one sha256 over the whole JSON stdout of `construct` at every point:
    # edge list, predicted counts and coefficients, and parts (re-pinned
    # when AC_SPLIT_SUM's parts gained their colors)
    digest = hashlib.sha256()
    for family, n, c, p, q in _CONSTRUCT_POINTS:
        assert main(["construct", "--family", family, "--n", str(n), "--c", str(c),
                     "--p", str(p), "--q", str(q)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "9a84b27976272ae54198fd897add8771a9c9cc1a931d72f9f10efc2edd8068cf"
    )


def test_construct_unknown_family_is_domain_error(capsys):
    code, payload = run(capsys, "construct", "--family", "NO_SUCH",
                        "--n", "4", "--c", "3", "--p", "0", "--q", "2")
    assert code == 1
    assert payload["error"]["type"] == "ValueError"


def test_construct_inapplicable_parameters(capsys):
    code, payload = run(capsys, "construct", "--family", "TRIANGLE_N3",
                        "--n", "5", "--c", "2", "--p", "1", "--q", "1")
    assert code == 1
    assert payload["error"]["type"] == "ApplicabilityError"


def test_construct_past_the_edge_cap_is_domain_error(capsys):
    # about 10^10 edges: refused before any row is built
    code, payload = run(capsys, "construct", "--family", "CYCLIC_REMAINDER",
                        "--n", "100000", "--c", "3", "--p", "0", "--q", "2")
    assert code == 1
    assert payload["error"]["type"] == "ValueError"
    assert "past the build cap" in payload["error"]["message"]


def test_construct_unwritable_out_is_domain_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, payload = run(capsys, "construct", "--family", "CYCLIC_REMAINDER",
                        "--n", "4", "--c", "3", "--p", "0", "--q", "2", "--out", str(target))
    assert code == 1
    assert payload["error"]["type"] == "ValueError"
    assert payload["error"]["message"].startswith(f"cannot write {target}: ")


def test_check_reports_witness(tmp_path, capsys):
    source = tmp_path / "g.txt"
    source.write_text("rainbow-digraph v1\n3 2\n1 2 1\n2 1 3\n")
    code, verdict = run(capsys, "check", "--in", str(source), "--p", "1", "--q", "1")
    assert code == 0
    assert verdict["rainbow_free"] is False
    witness = verdict["witness"]
    assert witness["center"] == 1
    assert witness["in_leaves"] == [[2, 1]]
    assert witness["out_leaves"] == [[3, 2]]
    assert set(verdict["classification"]) >= {"a_vertices", "violators"}


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not an edge list\n")
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(b"rainbow-digraph v1\r\n3 2\r\n1 1 2\r\n")
    for path in (bad, crlf):
        code, payload = run(capsys, "check", "--in", str(path), "--p", "0", "--q", "1")
        assert code == 1
        assert payload["error"]["type"] == "ParseError"


def test_check_missing_file(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code, payload = run(capsys, "check", "--in", str(missing), "--p", "0", "--q", "1")
    assert code == 1
    assert "cannot read" in payload["error"]["message"]


def test_check_empty_file_names_the_header(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, payload = run(capsys, "check", "--in", str(empty), "--p", "0", "--q", "1")
    assert code == 1
    assert payload["error"] == {
        "type": "ParseError",
        "message": "line 1: bad header '', expected 'rainbow-digraph v1'",
    }


def test_check_long_chain_reports_star(tmp_path, capsys):
    # one center with a 1500-long augmenting chain: leaf j+1 in colors j and
    # j+1, and leaf 1502 in color 1 only; its one rainbow (0, 1501) star
    # takes leaf j+1 in color j+1 and leaf 1502 in color 1
    length = 1500
    lines = ["rainbow-digraph v1", f"{length + 2} {length + 1}", f"1 1 {length + 2}"]
    for j in range(1, length + 1):
        lines += [f"{j} 1 {j + 1}", f"{j + 1} 1 {j + 1}"]
    source = tmp_path / "chain.txt"
    source.write_text("\n".join(lines) + "\n")
    code, verdict = run(capsys, "check", "--in", str(source), "--p", "0",
                        "--q", str(length + 1))
    assert code == 0
    assert verdict["rainbow_free"] is False
    witness = verdict["witness"]
    assert witness["center"] == 1 and witness["in_leaves"] == []
    expected = [[j + 1, j + 1] for j in range(1, length + 1)] + [[length + 2, 1]]
    assert witness["out_leaves"] == expected


def test_check_internal_error_is_structured(tmp_path, capsys, monkeypatch):
    # an exception other than ValueError is internal: JSON on stdout, the
    # traceback on stderr, exit code 3
    def broken(collection, pat):
        raise RuntimeError("detector failed")

    monkeypatch.setattr("rainbow_stars.cli.find_rainbow_star", broken)
    source = tmp_path / "g.txt"
    source.write_text("rainbow-digraph v1\n3 2\n1 2 1\n2 1 3\n")
    code = main(["check", "--in", str(source), "--p", "1", "--q", "1"])
    captured = capsys.readouterr()
    assert code == 3
    error = json.loads(captured.out)["error"]
    assert error == {"type": "RuntimeError", "message": "detector failed"}
    assert "Traceback" in captured.err


def test_oracle_branch_bound(capsys):
    code, payload = run(capsys, "oracle", "--n", "3", "--c", "2",
                        "--p", "1", "--q", "1", "--objective", "min")
    assert code == 0
    assert payload["optimum"] == 3
    assert payload["proved_optimal"] is True
    assert payload["engine"] == "branch-bound"
    assert payload["witness"].startswith("rainbow-digraph v1\n")


def test_oracle_fractional_budget(capsys):
    code, payload = run(capsys, "oracle", "--n", "3", "--c", "2", "--p", "1", "--q", "1",
                        "--objective", "min", "--budget-secs", "0.5")
    assert code == 0
    assert payload["budget_secs"] == 0.5
    assert payload["optimum"] == 3
    code, payload = run(capsys, "oracle", "--n", "3", "--c", "2", "--p", "1", "--q", "1",
                        "--objective", "min", "--budget-secs", "nan")
    assert code == 1
    assert "finite" in payload["error"]["message"]
    # a negative budget used to act as zero and still prove this small case
    code, payload = run(capsys, "oracle", "--p", "0", "--q", "2", "--n", "3", "--c", "2",
                        "--objective", "sum", "--budget-secs", "-1")
    assert code == 1
    assert payload["error"]["type"] == "ValueError"
    assert "got -1.0" in payload["error"]["message"]


def test_oracle_cover_requires_out_star(capsys):
    code, payload = run(capsys, "oracle", "--n", "5", "--c", "3",
                        "--p", "1", "--q", "1", "--objective", "min", "--cover")
    assert code == 1
    assert "p = 0" in payload["error"]["message"]
    code, payload = run(capsys, "oracle", "--n", "5", "--c", "3",
                        "--p", "0", "--q", "2", "--objective", "min", "--cover")
    assert code == 0
    assert payload["engine"] == "cover"
    assert payload["optimum"] == 6


def test_oracle_cover_rejects_branch_bound_flags(capsys):
    # the cover oracle has no budget; the flag used to be dropped silently,
    # with "budget_secs": null in the answer
    code, payload = run(capsys, "oracle", "--p", "0", "--q", "2", "--n", "5", "--c", "3",
                        "--objective", "min", "--cover", "--budget-secs", "5")
    assert code == 1
    assert payload["error"]["type"] == "ValueError"
    assert "not to --cover" in payload["error"]["message"]
    # without a flag branch-and-bound still echoes the default budget
    code, payload = run(capsys, "oracle", "--p", "0", "--q", "2", "--n", "3", "--c", "2",
                        "--objective", "min")
    assert (code, payload["budget_secs"]) == (0, DEFAULT_BUDGET_SECS)


def test_oracle_runs_to_the_slot_guard(capsys):
    # 48 slots, the most branch-and-bound takes, needs no opt-in flag
    code, payload = run(capsys, "oracle", "--n", "4", "--c", "4",
                        "--p", "1", "--q", "1", "--objective", "sum")
    assert code == 0
    assert (payload["optimum"], payload["proved_optimal"]) == (16, True)


def test_oracle_guard_feedback(capsys):
    code, payload = run(capsys, "oracle", "--n", "6", "--c", "4",
                        "--p", "1", "--q", "1", "--objective", "sum")
    assert code == 1
    assert payload["error"]["type"] == "ValueError"


def test_closed_stdout_exits_quietly():
    # the reader is gone before anything is written, as with `| head` on a
    # long report: both the answer and a domain error's JSON meet a broken
    # pipe, and neither may print a traceback
    src = Path(__file__).resolve().parent.parent / "src"
    for flags in (("--p", "0", "--q", "2"), ("--p", "1", "--q", "1")):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "rainbow_stars.cli", "oracle", *flags,
                 "--n", "5", "--c", "3", "--objective", "min", "--cover"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, ""), flags


def test_verify_report_shape_and_exit(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, summary = run(capsys, "verify", "--suite", "thresholds",
                        "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "thresholds"
    assert report["summary"]["fail"] == 0
    assert report["summary"]["total"] == report["summary"]["pass"] + \
        report["summary"]["discrepancy"]
    assert report["cases"][0]["expected_kind"] in {"theorem", "oracle", "construction"}
    assert summary["summary"]["fail"] == 0


def test_verify_cover_adjudication_fail_branches(capsys, monkeypatch):
    # stand-ins answer every point with its closed form except four: the
    # build's minimum one below an EXACT label at (5,3,2) and one above it
    # at (6,3,2), the oracle one below an EXACT label at (4,3,2) and one
    # above the UPPER_BOUND 13 at (5,3,3).  The frozen (8,5,3) case reads
    # the oracle grid, so it fails too, on the formula's 22.
    def formula(n, c, q, objective):
        return exact_bound(StarPattern(0, q), n, c, objective).value

    def fake_build(family, n, c, p, q):
        minimum = formula(n, c, q, "min") + {(5, 3, 2): -1, (6, 3, 2): 1}.get((n, c, q), 0)
        return SimpleNamespace(predicted_counts=SimpleNamespace(
            total=formula(n, c, q, "sum"), minimum=minimum))

    def fake_oracle(n, c, q, objective):
        off = {(4, 3, 2): -1, (5, 3, 3): 1}.get((n, c, q), 0) if objective == "min" else 0
        return SimpleNamespace(optimum=formula(n, c, q, objective) + off)

    monkeypatch.setattr(verify, "build", fake_build)
    monkeypatch.setattr(verify, "cover_oracle_s0q", fake_oracle)
    fails = {
        tuple(case.params[key] for key in ("check", "n", "c", "q")): case.note
        for case in verify.suite_cover_adjudication() if case.status == "fail"
    }
    assert fails == {
        ("min-formula", 5, 3, 2): "below formula although (q-1) | r",
        ("min-formula", 6, 3, 2): "above formula",
        ("cover-min", 4, 3, 2): "",
        ("cover-min", 5, 3, 3): "oracle exceeds the proved upper bound",
        ("frozen-853", 8, 5, 3): "regression constant for the adjudication instance",
    }
    code, report = run(capsys, "verify", "--suite", "cover-adjudication")
    assert (code, report["summary"]["fail"]) == (1, 5)


@pytest.mark.parametrize("broken", ["permute", "reverse"])
def test_verify_invariance_violation_fails(monkeypatch, broken):
    # an empty stand-in for the permuted or the reversed copy changes the
    # verdict of every instance that holds a star; the naive detector is
    # swapped for the fast one only to keep the equivalence battery quick
    monkeypatch.setattr(verify, broken,
                        lambda col, *_: DigraphCollection.from_edges(col.n, col.c, []))
    monkeypatch.setattr(verify, "find_rainbow_star_naive", verify.find_rainbow_star)
    [case] = [case for case in verify.suite_detector_equivalence()
              if case.params["check"] == "verdict-invariance"]
    violations, rest = case.actual.split(" ", 1)
    assert (case.status, rest) == ("fail", "violations in 200 instances")
    assert int(violations) > 0
    assert case.note == "vertex and color permutation, and reversal with swapped pattern"


def test_verify_equivalence_disagreement_fails(monkeypatch):
    # a naive enumerator that never finds a star disagrees with the fast
    # detector on every instance that holds one
    monkeypatch.setattr(verify, "find_rainbow_star_naive", lambda col, pat: None)
    cases = {(case.params["p"], case.params["q"], case.params["density"]): case
             for case in verify.suite_detector_equivalence()
             if case.params["check"] == "equivalence"}
    assert sum(case.status == "fail" for case in cases.values()) == 51
    case = cases[(1, 1, 0.8)]
    assert (case.status, case.actual, case.note) == (
        "fail", "15 disagreements in 23 instances", "")
    case = cases[(2, 2, 0.1)]
    assert (case.status, case.actual, case.note) == (
        "pass", "0 disagreements in 10 instances", "")


def test_verify_equivalence_runtime_overrun_fails(monkeypatch):
    # a clock that reads 61 s between the start and the end of the battery
    monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=iter([0.0, 61.0]).__next__))
    monkeypatch.setattr(verify, "find_rainbow_star_naive", verify.find_rainbow_star)
    [case] = [case for case in verify.suite_detector_equivalence()
              if case.params["check"] == "equivalence-runtime"]
    assert (case.status, case.actual, case.note) == ("fail", "1000 instances in 61.0 s", "")


def test_verify_exact_small_fail_branches(monkeypatch):
    real = verify.max_exact

    def cases():
        return {tuple(case.params.values()): case for case in verify.suite_exact_small()}

    # an engine that stops proving its optima fails every exact-table row
    monkeypatch.setattr(verify, "max_exact",
                        lambda *args: replace(real(*args), proved_optimal=False))
    got = cases()
    table = [case for key, case in got.items() if key[0] == "exact-table"]
    assert len(table) == 10 and all(case.status == "fail" for case in table)
    case = got[("exact-table", 3, 2, 1, 1, "sum")]
    assert (case.actual, case.note) == ("6, proved=False, nodes=27", "")
    assert all(case.status == "pass" for key, case in got.items() if key[0] != "exact-table")
    # optima shifted by p separate (p, q) from (q, p) at every reversal row
    monkeypatch.setattr(verify, "max_exact", lambda n, c, pat, objective: replace(
        real(n, c, pat, objective), optimum=real(n, c, pat, objective).optimum + pat.p))
    got = cases()
    reversal = [case for key, case in got.items() if key[0] == "reversal"]
    assert len(reversal) == 4 and all(case.status == "fail" for case in reversal)
    case = got[("reversal", 3, 2, 1, 2, "sum")]
    assert (case.actual, case.note) == ("13 vs 14", "")
    # a cover oracle one above branch-and-bound
    monkeypatch.setattr(verify, "max_exact", real)
    cover = verify.cover_oracle_s0q
    monkeypatch.setattr(verify, "cover_oracle_s0q", lambda n, c, q, objective: replace(
        cover(n, c, q, objective), optimum=cover(n, c, q, objective).optimum + 1))
    got = cases()
    cross = [case for key, case in got.items() if key[0] == "cross-check"]
    assert len(cross) == 6 and all(case.status == "fail" for case in cross)
    case = got[("cross-check", 4, 3, 2, "min")]
    assert (case.actual, case.note) == (
        "branch_bound=4, cover=5", "correctness failure: exact engines disagree")
    # a point whose closed form is not EXACT fails, though the engine proves it
    monkeypatch.setattr(verify, "cover_oracle_s0q", cover)
    monkeypatch.setattr(bounds, "exact_bound", lambda *args: replace(
        exact_bound(*args), kind=bounds.UPPER_BOUND))
    got = cases()
    table = [case for key, case in got.items() if key[0] == "exact-table"]
    assert len(table) == 10 and all(case.status == "fail" for case in table)
    case = got[("exact-table", 3, 2, 1, 1, "sum")]
    assert (case.expected, case.note) == ("6, proved optimal", "exact_bound gives UPPER_BOUND")
    assert all(case.status == "pass" for key, case in got.items() if key[0] != "exact-table")


def test_verify_attainment_overrun_fails(monkeypatch):
    # a deviation pushed past its tolerance fails every attainment case; the
    # freeness grid is left out to keep the suite quick
    real = verify.attainment

    def pushed(*instance):
        coefficient, deviation, tolerance = real(*instance)
        return coefficient, deviation + 2 * tolerance, tolerance

    monkeypatch.setattr(verify, "_grid_builds", list)
    monkeypatch.setattr(verify, "attainment", pushed)
    cases = verify.suite_constructions_free()
    assert len(cases) == len(verify.attainment_instances())
    assert all(case.status == "fail" for case in cases)
    case = cases[0]
    assert case.params == {"family": "COMPLETE_PREFIX", "objective": "sum",
                           "n": 100, "c": 2, "p": 1, "q": 1}
    assert (case.expected, case.actual, case.note) == (
        "|sum/n^2 - 1| <= 1/20", "deviation 0.110000", "")


def test_verify_regime_cs_pinned():
    # the attainment c values of each pair, by regime; a start such as the
    # sum threshold 4 of (1, 1) or t1 = t3 = 5 of (2, 2) is in both regimes
    got = {pq: {(objective, formula.__name__): cs
                for (objective, formula), cs in verify._regime_cs(*pq).items()}
           for pq in verify._ATTAINMENT_PAIRS}
    table = {
        (1, 1): ([2, 3, 4], [4, 5, 6], [2], [2], [2, 3, 4]),
        (1, 2): ([3, 4, 5], [7, 8, 9], [3], [3], [4, 5, 6]),
        (1, 3): ([4, 5, 6], [10, 11, 12], [4], [4], [5, 6, 7]),
        (2, 2): ([4, 5, 6], [9, 10, 11], [4, 5], [5], [5, 6, 7]),
        (2, 3): ([5, 6, 7], [12, 13, 14], [5, 6], [6], [7, 8, 9]),
    }
    keys = (("sum", "sum_low"), ("sum", "sum_high"), ("min", "min_base"),
            ("min", "min_mid"), ("min", "min_top"))
    assert got == {pq: dict(zip(keys, row)) for pq, row in table.items()}
    with pytest.raises(AssertionError):
        verify._regime_cs(1, 5)  # a FIRST pair


def test_verify_freeness_case_reports_a_build_that_raises(monkeypatch):
    def broken_build(family, n, c, p, q):
        raise RuntimeError("certificate refused")

    monkeypatch.setattr(verify, "build", broken_build)
    case = verify._freeness_case(ConstructionFamily.B_ONLY, 30, 4, 1, 2)
    assert (case.status, case.actual) == ("fail", "RuntimeError: certificate refused")
    assert case.params == {"family": "B_ONLY", "n": 30, "c": 4, "p": 1, "q": 2}


def test_verify_thresholds_fail_branches(monkeypatch):
    real = bounds.thresholds

    def fails():
        return {(case.params["p"], case.params["q"]): (case.actual, case.note)
                for case in verify.suite_thresholds() if case.status == "fail"}

    # a chain label flipped where t2 is finite breaks the orderings it claims
    flipped = {bounds.CHAIN_FIRST: bounds.CHAIN_SECOND, bounds.CHAIN_SECOND: bounds.CHAIN_FIRST}
    monkeypatch.setattr(bounds, "thresholds", lambda p, q: replace(
        real(p, q), chain=flipped[real(p, q).chain]) if q >= p + 2 else real(p, q))
    got = fails()
    assert len(got) == 55
    assert got[(1, 3)] == ("FIRST but t2 > t3; FIRST but t3 > t4; chain/sign mismatch", "")
    assert got[(1, 5)] == ("SECOND but t4 > t3; SECOND but t3 > t2; chain/sign mismatch", "")
    # t1 moved far up passes t3 (and t2 where finite), and min_base meets
    # min_mid off t1; the (1, 1) sign note stays
    monkeypatch.setattr(bounds, "thresholds",
                        lambda p, q: replace(real(p, q), t1=real(p, q).t1 + 100))
    got = fails()
    assert len(got) == 78
    assert got[(1, 1)] == ("t1 > t3; min discontinuity at t1",
                           "sign >= 0 but q <= p+1 forces the SECOND chain (t2 infinite)")
    assert got[(1, 5)] == ("t1 > t2; t1 > t3; min discontinuity at t1", "")
    # one regime formula shifted breaks continuity at each breakpoint it meets
    monkeypatch.setattr(bounds, "thresholds", real)
    min_mid, sum_high = bounds.min_mid, bounds.sum_high
    monkeypatch.setattr(bounds, "min_mid", lambda p, q, c: min_mid(p, q, c) + 1)
    monkeypatch.setattr(bounds, "sum_high", lambda p, q, c: sum_high(p, q, c) + 1)
    got = fails()
    assert len(got) == 78
    assert got[(1, 1)][0] == "sum discontinuity; min discontinuity at t1; min discontinuity at t3"
    assert got[(1, 5)][0] == "sum discontinuity; min discontinuity at t1; min discontinuity at t2"
    # min_top shifted up breaks the SECOND chain at t3 and the FIRST at t4
    monkeypatch.setattr(bounds, "min_mid", min_mid)
    monkeypatch.setattr(bounds, "sum_high", sum_high)
    min_top = bounds.min_top
    monkeypatch.setattr(bounds, "min_top", lambda p, q, c: min_top(p, q, c) + 1)
    got = fails()
    assert len(got) == 78
    assert got[(1, 1)][0] == "min discontinuity at t3"
    assert got[(1, 5)][0] == "min discontinuity at t4"


def test_verify_thresholds_reports_first_chain_with_infinite_t2(monkeypatch, capsys):
    # every label flipped, so the 23 pairs with q <= p+1 (t2 infinite) claim
    # FIRST; the suite reports them, not the continuity check at t2
    real = bounds.thresholds
    flipped = {bounds.CHAIN_FIRST: bounds.CHAIN_SECOND, bounds.CHAIN_SECOND: bounds.CHAIN_FIRST}
    monkeypatch.setattr(bounds, "thresholds",
                        lambda p, q: replace(real(p, q), chain=flipped[real(p, q).chain]))
    cases = verify.suite_thresholds()
    infinite = [case for case in cases if real(case.params["p"], case.params["q"]).t2 is bounds.INFINITY]
    assert len(infinite) == 23
    for case in infinite:
        assert case.status == "fail"
        assert case.actual == "chain FIRST with infinite t2; chain/sign mismatch"
    assert all(case.status == "fail" for case in cases)
    assert main(["verify", "--suite", "thresholds"]) == 1
    assert json.loads(capsys.readouterr().out)["summary"]["fail"] == 78


def test_verify_unwritable_out_is_domain_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code, payload = run(capsys, "verify", "--suite", "thresholds", "--out", str(target))
    assert code == 1
    assert payload["error"]["type"] == "ValueError"
    assert payload["error"]["message"].startswith(f"cannot write {target}: ")


def test_verify_unknown_suite(capsys):
    code, payload = run(capsys, "verify", "--suite", "nope")
    assert code == 1
    assert "unknown suite" in payload["error"]["message"]


def test_verify_reports_are_deterministic(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run(capsys, "verify", "--suite", "thresholds", "--out", str(first), "--seed", "5")
    run(capsys, "verify", "--suite", "thresholds", "--out", str(second), "--seed", "5")
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b
    assert a["seed"] == 5
