#!/usr/bin/env python3
"""Sweep the cover oracle against the floor formula for the out-star minimum.

The formula floor(n(q-1)/c)(n-1) + r is attained whenever (q-1) divides
r = n(q-1) mod c, which is where `exact_bound` labels it EXACT.  This sweep
prints every strict case in the grid, the gap, and whether the
balanced-assignment construction reaches the oracle value, and exits non-zero
if the oracle misses an EXACT label.  The frozen regression constant for
(8,5,3) came from this table.
"""

import argparse
import sys

from rainbow_stars.bounds import EXACT, exact_bound
from rainbow_stars.constructions import ConstructionFamily, applicability_error, build
from rainbow_stars.model import StarPattern
from rainbow_stars.oracle import cover_oracle_s0q


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=16)
    parser.add_argument("--max-c", type=int, default=6)
    parser.add_argument("--max-q", type=int, default=4)
    args = parser.parse_args()

    strict = 0
    total = 0
    print(f"{'n':>3} {'c':>3} {'q':>3} {'oracle':>7} {'formula':>8} "
          f"{'gap':>4} {'(q-1)|r':>8} {'construction':>12}")
    for q in range(2, args.max_q + 1):
        for c in range(q, args.max_c + 1):
            for n in range(c + 1, args.max_n + 1):
                total += 1
                got = cover_oracle_s0q(n, c, q, "min").optimum
                bound = exact_bound(StarPattern(0, q), n, c, "min")
                target = bound.value
                if bound.kind == EXACT:
                    if got != target:
                        sys.exit(f"EXACT formula missed: (n, c, q, oracle, formula) = "
                                 f"{(n, c, q, got, target)}")
                    continue
                strict += 1
                family = ConstructionFamily.CYCLIC_REMAINDER
                if applicability_error(family, n, c, 0, q) is None:
                    built = build(family, n, c, 0, q).predicted_counts.minimum
                    reached = str(built)
                else:
                    reached = "-"
                print(f"{n:>3} {c:>3} {q:>3} {got:>7} {target:>8} "
                      f"{target - got:>4} {'no':>8} {reached:>12}")
    print(f"\n{total} instances, {strict} strictly below the formula; "
          "all divisible cases attained it exactly")


if __name__ == "__main__":
    main()
