"""Write perfbench/frames.json: the exact-solve sampling frames, sorted by cost.

The exact-solve workload draws one point from each block of consecutive
entries in these lists, so every seed gets a sample of the same cost profile
(stratified sampling).  The order comes from one timing of each point on the
parent commit; rerun this script only when a change to the benchmark's
domain needs new frames, never to absorb a speed-up of the program.

    python3 perfbench/rank_costs.py
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from rainbow_stars import oracle  # noqa: E402
from rainbow_stars.model import StarPattern  # noqa: E402

# exact-solve domains (see workloads.py)
COVER_MAX_C = 6
COVER_MAX_N = 30
BNB_MAX_SLOTS = 48
BNB_MAX_STAR = 3
# a branch-and-bound unit slower than this at the parent commit would take a
# whole run on its own; such units are listed as excluded, with their time
BNB_UNIT_LIMIT_S = 1.5


def cover_points():
    return [
        (n, c, q)
        for c in range(1, COVER_MAX_C + 1)
        for q in range(1, c + 1)
        for n in range(c + 1, COVER_MAX_N + 1)
    ]


def bnb_units():
    """(n, c, p, q, objective) with p <= q; the unit also solves (q, p)."""
    units = []
    for n in range(2, 8):
        for c in range(1, BNB_MAX_SLOTS + 1):
            if c * n * (n - 1) > BNB_MAX_SLOTS:
                continue
            for p in range(0, 2):
                for q in range(p, BNB_MAX_STAR + 1):
                    if 1 <= p + q <= BNB_MAX_STAR:
                        for objective in ("sum", "min"):
                            units.append((n, c, p, q, objective))
    return units


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def main() -> None:
    cover = []
    for (n, c, q) in cover_points():
        _, dt = timed(lambda: oracle.cover_oracle_s0q(n, c, q, "min"))
        cover.append((dt, [n, c, q]))
    cover.sort(key=lambda item: (item[0], item[1]))

    kept, excluded = [], []
    for (n, c, p, q, objective) in bnb_units():
        total = 0.0
        proved = True
        for (a, b) in {(p, q), (q, p)}:
            out, dt = timed(lambda: oracle.max_exact(
                n, c, StarPattern(a, b), objective,
                budget_secs=2 * BNB_UNIT_LIMIT_S, allow_large=True))
            total += dt
            proved = proved and out.proved_optimal
        entry = (total, [n, c, p, q, objective])
        (kept if proved and total <= BNB_UNIT_LIMIT_S else excluded).append(entry)
    kept.sort(key=lambda item: (item[0], item[1]))
    excluded.sort(key=lambda item: item[1])

    frames = {
        "note": "sorted by one timing at the parent commit; seconds are for reference",
        "timed_on": f"Python {platform.python_version()}, {platform.machine()}",
        "cover_min": [point for _, point in cover],
        "cover_min_seconds": [round(dt, 4) for dt, _ in cover],
        "bnb_units": [unit for _, unit in kept],
        "bnb_unit_seconds": [round(dt, 4) for dt, _ in kept],
        "bnb_excluded": [
            {"unit": unit, "seconds": round(dt, 2)} for dt, unit in excluded
        ],
    }
    (HERE / "frames.json").write_text(json.dumps(frames, indent=1) + "\n")


if __name__ == "__main__":
    main()
