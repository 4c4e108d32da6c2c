"""Command line front end: JSON shapes, exit codes, determinism."""

import json

import pytest

from rainbow_stars.cli import main


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


def test_bound_domain_error_is_structured(capsys):
    code, payload = run(capsys, "bound", "--p", "1", "--q", "2",
                        "--c", "2", "--objective", "min")
    assert code == 1
    assert payload["error"]["type"] == "ValueError"
    assert "c >= p+q" in payload["error"]["message"]


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


def test_oracle_guard_feedback(capsys):
    code, payload = run(capsys, "oracle", "--n", "6", "--c", "4",
                        "--p", "1", "--q", "1", "--objective", "sum")
    assert code == 1
    assert payload["error"]["type"] == "ValueError"


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
