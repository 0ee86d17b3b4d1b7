#!/usr/bin/env python3
"""Survey the eigenvalue-constrained torsion families.

For a batch of random rational eigentriples (m1, m2, m3), solve the exact
affine system for 27-component torsions with Sigma Psi_i = m_i Psi_i and
tabulate the family dimension and its invariants a, b, c.  Then enumerate
the admissible root assignments at a given scale mu and print the induced
torsion values with their fiber sizes.  Exits 1 when a surveyed family is
not 9-dimensional or differs from the closed-form family.

Usage: python3 scripts/eigen_family_survey.py [--count 12] [--mu 7] [--seed 1]
"""

import argparse
import random
import sys
from fractions import Fraction

from g2torsion import classifier as cl


def rand_fraction(rng):
    return Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=12, help="random triples")
    ap.add_argument("--mu", type=Fraction, default=Fraction(7))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    print(f"{'m1':>8} {'m2':>8} {'m3':>8} | {'dim':>3} {'a':>8} {'b':>8} {'c':>3} match")
    failed = 0
    for _ in range(args.count):
        m = cl.EigenTriple.of(*(rand_fraction(rng) for _ in range(3)))
        fam = cl.solve_family(m)
        match = cl.families_coincide(fam, m)
        print(f"{str(m.m1):>8} {str(m.m2):>8} {str(m.m3):>8} | "
              f"{fam.dimension:>3} {str(fam.a):>8} {str(fam.b):>8} "
              f"{str(fam.c):>3} {match}")
        failed += fam.dimension != 9 or not match

    mu = args.mu
    print(f"\nadmissible roots at mu = {mu}: "
          + ", ".join(str(r) for r in sorted(cl.eigenvalue_roots(mu))))
    print(f"{'assignment':>28} | value")
    for pattern, val in sorted(cl.torsion_value_enumeration(mu).items()):
        label = ", ".join(str(x) for x in pattern)
        print(f"({label:>24}) | {val}")
    fibers = cl.torsion_value_fibers(mu)
    print("fibers:", {str(k): v for k, v in sorted(fibers.items())})
    print("kernel dimension chain (k = 1..4):",
          list(cl.kernel_dims().values()))
    if failed:
        sys.exit(f"{failed} of {args.count} families are not 9-dimensional "
                 "or differ from the closed form")


if __name__ == "__main__":
    main()
