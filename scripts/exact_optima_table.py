#!/usr/bin/env python3
"""Exhaustive optima for the two-edge path pattern on desk-scale instances.

Runs the branch-and-bound engine over small (n, c) and prints the maximum
total and per-color minimum over rainbow-free collections, with node counts.
The sum column follows n^2-n for c <= 3 and c*floor(n^2/4) for c >= 4; the
minimum column follows floor(n^2/4) except at (n, c) = (3, 2), where
opposite triangle orientations reach 3.
"""

import argparse

from rainbow_stars.model import StarPattern
from rainbow_stars.oracle import SLOT_GUARD, max_exact


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--max-c", type=int, default=4)
    args = parser.parse_args()

    pat = StarPattern(1, 1)
    print(f"{'n':>3} {'c':>3} {'sum':>5} {'min':>5} "
          f"{'sum nodes':>10} {'min nodes':>10}")
    for n in range(3, args.max_n + 1):
        for c in range(2, args.max_c + 1):
            if c * n * (n - 1) > SLOT_GUARD:
                print(f"{n:>3} {c:>3}  past the slot guard, skipped")
                continue
            best_sum = max_exact(n, c, pat, "sum")
            best_min = max_exact(n, c, pat, "min")
            marker = "" if best_sum.proved_optimal and best_min.proved_optimal \
                else "  (budget hit)"
            print(f"{n:>3} {c:>3} {best_sum.optimum:>5} {best_min.optimum:>5} "
                  f"{best_sum.nodes_explored:>10} {best_min.nodes_explored:>10}"
                  f"{marker}")


if __name__ == "__main__":
    main()
