#!/usr/bin/env python3
"""Build every coefficient-attainment instance and tabulate the deviations.

For each pattern and regime the matching construction family is built at
n = 100 * (number of parts); the table shows how far objective/n^2 lands
from the closed-form coefficient against the 5*parts/n tolerance.
"""

import argparse
from fractions import Fraction

from rainbow_stars.constructions import part_count
from rainbow_stars.verify import attainment, attainment_instances


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=100,
                        help="vertices per part (default 100)")
    args = parser.parse_args()

    print(f"{'family':<16} {'obj':<4} {'p':>2} {'q':>2} {'c':>3} {'n':>6} "
          f"{'coefficient':>12} {'deviation':>10} {'tolerance':>10}")
    worst = Fraction(0)
    for (family, objective, n, c, p, q) in attainment_instances():
        n = args.scale * part_count(family, c, p, q)
        coefficient, deviation, tolerance = attainment(family, objective, n, c, p, q)
        worst = max(worst, deviation / tolerance)
        flag = "" if deviation <= tolerance else "  <-- OUT OF TOLERANCE"
        print(f"{family.value:<16} {objective:<4} {p:>2} {q:>2} {c:>3} {n:>6} "
              f"{str(coefficient):>12} {float(deviation):>10.6f} "
              f"{float(tolerance):>10.6f}{flag}")
    print(f"\nworst deviation/tolerance ratio: {float(worst):.3f}")


if __name__ == "__main__":
    main()
