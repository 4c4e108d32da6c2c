"""Command line front end.

Five subcommands: bound, construct, check, oracle, verify.  All output is
JSON on stdout with fixed snake_case keys, sorted for byte-stable reports
(the timestamp field of verification reports is the only varying part).
Witness collections are embedded as edge-list strings, not JSON arrays, so
there is exactly one graph syntax across files and reports.

Exit codes: 0 on success and for verification runs with no fail entries,
1 for domain errors (reported as structured JSON on stdout), 2 for usage
errors (argparse text on stderr), 3 for any other exception raised by a
subcommand (reported as the same structured JSON as a domain error), and
141 with nothing printed when stdout's reader has gone (a broken pipe).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .bounds import (
    OBJECTIVES,
    coefficient,
    exact_bound,
    fraction_str,
    threshold_json,
    thresholds,
)
from .constructions import ConstructionFamily, build
from .detector import classify_vertices, find_rainbow_star
from .model import (
    StarPattern,
    edge_counts,
    parse_edge_list,
    serialize_edge_list,
)
from .oracle import DEFAULT_BUDGET_SECS, cover_oracle_s0q, max_exact
from .verify import DEFAULT_SEED, SUITE_NAMES, run_suite


def _dump(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _number(value) -> object:
    """Integers as JSON numbers, other rationals as exact fraction strings."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return fraction_str(value)
    return int(value)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _by_color_json(groups) -> dict:
    return {str(i + 1): list(vs) for i, vs in enumerate(groups)}


def cmd_bound(args) -> int:
    pat = StarPattern(args.p, args.q)
    if args.n is not None:
        result = exact_bound(pat, args.n, args.c, args.objective)
        _dump({
            "kind": result.kind,
            "objective": result.objective,
            "value": _number(result.value),
            "value_float": float(result.value),
            "regime": result.regime,
            "domain_note": result.domain_note,
            "p": args.p,
            "q": args.q,
            "n": result.n,
            "c": result.c,
            "normalized": result.normalized,
        })
        return 0
    norm, swapped = pat.normalized()
    p, q, c = norm.p, norm.q, args.c
    value = coefficient(p, q, c, args.objective)
    payload = {
        "kind": "ASYMPTOTIC",
        "objective": args.objective,
        "coefficient": fraction_str(value),
        "coefficient_float": float(value),
        "regime": "two-sided" if p else "out-star",
        "p": args.p,
        "q": args.q,
        "c": c,
        "normalized": swapped,
    }
    if p:
        payload["thresholds"] = threshold_json(thresholds(p, q))
    _dump(payload)
    return 0


def cmd_construct(args) -> int:
    family = ConstructionFamily(args.family)
    out = build(family, args.n, args.c, args.p, args.q)
    text = serialize_edge_list(out.collection)
    payload = {
        "family": family.value,
        "n": out.n,
        "c": out.c,
        "p": out.p,
        "q": out.q,
        "certified_free": out.certified_free,
        "predicted_counts": dataclasses.asdict(out.predicted_counts),
        "predicted_coefficients": {
            objective: fraction_str(coef)
            for objective, coef in sorted(out.predicted_coefficients.items())
        },
        "parts": [
            {"label": g.label, "colors": list(g.colors), "size": len(g.vertices)}
            for g in out.parts
        ],
    }
    if args.out is not None:
        _write(args.out, text)
        payload["edge_list_path"] = args.out
    else:
        payload["edge_list"] = text
    _dump(payload)
    return 0


def cmd_check(args) -> int:
    try:
        # no newline translation, so CRLF files reach the parser as they are
        with open(args.infile, newline="") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.infile}: {exc}") from exc
    collection = parse_edge_list(text)
    pat = StarPattern(args.p, args.q)
    witness = find_rainbow_star(collection, pat)
    report = classify_vertices(collection, pat)
    counts = edge_counts(collection)
    _dump({
        "n": collection.n,
        "c": collection.c,
        "p": args.p,
        "q": args.q,
        "rainbow_free": witness is None,
        "witness": None if witness is None else dataclasses.asdict(witness),
        "edge_counts": dataclasses.asdict(counts),
        "classification": {
            "a_vertices": list(report.a_vertices),
            "b_vertices": list(report.b_vertices),
            "c_vertices": list(report.c_vertices),
            "violators": list(report.violators),
            "a_by_color": _by_color_json(report.a_by_color),
            "b_by_color": _by_color_json(report.b_by_color),
            "c_by_color": _by_color_json(report.c_by_color),
        },
    })
    return 0


def cmd_oracle(args) -> int:
    pat = StarPattern(args.p, args.q)
    budget = args.budget_secs
    if args.cover:
        if args.p != 0:
            raise ValueError("--cover handles out-stars only; it needs p = 0")
        if budget is not None:
            raise ValueError("--budget-secs applies to branch-and-bound only, not to --cover")
        outcome = cover_oracle_s0q(args.n, args.c, args.q, args.objective)
        engine = "cover"
    else:
        if budget is None:
            budget = DEFAULT_BUDGET_SECS
        outcome = max_exact(args.n, args.c, pat, args.objective, budget_secs=budget)
        engine = "branch-bound"
    _dump({
        "engine": engine,
        "n": args.n,
        "c": args.c,
        "p": args.p,
        "q": args.q,
        "objective": outcome.objective,
        "optimum": outcome.optimum,
        "proved_optimal": outcome.proved_optimal,
        "nodes_explored": outcome.nodes_explored,
        "elapsed_secs": round(outcome.elapsed, 6),
        "budget_secs": budget,
        "witness": serialize_edge_list(outcome.witness),
    })
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, seed=args.seed)
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    if args.out is not None:
        _write(args.out, text + "\n")
        _dump({"written": args.out, "suite": report.suite, "summary": report.summary})
    else:
        print(text)
    return 0 if report.summary["fail"] == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbow-stars",
        description="bounds, constructions, detection, and exact optima for "
                    "rainbow directed stars in graph collections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def star_args(sp, require_n: bool) -> None:
        sp.add_argument("--p", type=int, required=True, help="in-degree of the star center")
        sp.add_argument("--q", type=int, required=True, help="out-degree of the star center")
        sp.add_argument("--c", type=int, required=True, help="number of colors")
        sp.add_argument("--n", type=int, required=require_n, help="number of vertices")

    sp = sub.add_parser("bound", help="closed-form value or asymptotic coefficient")
    star_args(sp, require_n=False)
    sp.add_argument("--objective", choices=OBJECTIVES, required=True)
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("construct", help="build an extremal family member")
    sp.add_argument("--family", required=True,
                    help="one of: " + ", ".join(f.value for f in ConstructionFamily))
    star_args(sp, require_n=True)
    sp.add_argument("--out", help="write the edge list to this path instead of embedding it")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("check", help="detect a rainbow star in an edge-list file")
    sp.add_argument("--in", dest="infile", required=True, help="edge-list file to read")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("oracle", help="exact optimum by search")
    star_args(sp, require_n=True)
    sp.add_argument("--objective", choices=OBJECTIVES, required=True)
    sp.add_argument("--budget-secs", type=float,
                    help=f"branch-and-bound time budget (default {DEFAULT_BUDGET_SECS:g})")
    sp.add_argument("--cover", action="store_true",
                    help="use the cover-structure engine (out-stars, p = 0)")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True,
                    help="one of: " + ", ".join(SUITE_NAMES + ("all",)))
    sp.add_argument("--out", help="write the report to this path")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            code = args.func(args)
        except BrokenPipeError:
            raise
        except Exception as exc:
            _dump({"error": {"type": type(exc).__name__, "message": str(exc)}})
            code = 1
            if not isinstance(exc, ValueError):
                # anything else is internal: the same JSON on stdout, and the
                # traceback on stderr
                traceback.print_exc()
                code = 3
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: exit quietly, with stdout on devnull so
        # that the flush at interpreter exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
