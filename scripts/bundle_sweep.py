#!/usr/bin/env python3
"""Sweep the bundle parameter a and report all numerical residuals.

For each a: solve the conformal-factor boundary value problem, measure the
construction hypotheses on the 4-dimensional base, assemble the
5-dimensional total space, and check the characteristic-connection
conclusions (torsion norm, dT, d*T, nabla eta, Ric^nabla, the submersion
Ricci identity, and the curvature witness of non-flatness).  Large a has
no solution (the problem folds); those rows report the divergence.

Usage: python3 scripts/bundle_sweep.py [--values 0 0.25 0.5] [--grid 400]
                                       [--points 10] [--seed 7]
"""

import argparse
import random

import numpy as np

from g2torsion import bundle as bd
from g2torsion.liouville import solve_liouville


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--values", type=float, nargs="+",
                    default=[0.0, 0.25, 0.4, 0.5, 0.6])
    ap.add_argument("--grid", type=int, default=400)
    ap.add_argument("--points", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    head = None
    for a in args.values:
        try:
            sol = solve_liouville(a, n=args.grid)
        except RuntimeError as exc:
            print(f"{a:>5} solver diverged ({str(exc).splitlines()[0][:60]}...)")
            continue
        data = bd.assemble_N5(sol)
        # the points theorem1 --seed draws, so a row repeats its residuals
        points = data.total.sample_points(random.Random(args.seed), args.points)
        rep = bd.strominger_check(data, points=points)
        if head is None:
            head = f"{'a':>5} {'solver':>9} " \
                + " ".join(f"{c:>13}" for c in rep.residuals) + f" {'max|R|':>9}"
            print(head)
            print("-" * len(head))
        row = f"{a:>5} {sol.residual_norm:>9.2e} " \
            + " ".join(f"{v:>13.3e}" for v in rep.residuals.values()) \
            + f" {rep.max_r_nabla:>9.3e}"
        print(row)
        mu2 = (2.0 * a) ** 2
        eig = np.sort(rep.ricci_eigenvalues, axis=-1)[0]
        print(f"      Ric^g eigenvalues {np.round(eig, 10)}  "
              f"(target 0, 0, {mu2 / 2:g} x3)   Scal = {3 * mu2 / 2:g}")
        hyp, worst = max((v, k) for k, v in data.hypotheses.items())
        print(f"      largest hypothesis residual {hyp:.3e} ({worst})")
        print(f"      residuals are maxima over {rep.points} sample points")


if __name__ == "__main__":
    main()
