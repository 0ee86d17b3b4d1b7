"""Command-line front end.

Subcommands
-----------
decompose <form-file>        1+7+27 splitting of a 3-form
lemma --m1 --m2 --m3 [--mu]  eigenvalue-constrained torsion family
values --mu                  enumeration of T(theta1, theta2, theta3)
kernels                      dimensions of spinor-annihilator spaces
det-e2 --b --mu              restricted-determinant closed form + brute force
group-report <algebra-file>  full exact pipeline on a metric Lie algebra
kahler --a ...               Ricci spectrum of the explicit Kaehler metric
theorem1 --a ...             5-dimensional bundle assembly; hypotheses and
                             conclusions judged in one verdict at --tol
selftest                     curated battery across all modules

Exit codes: 0 all checks pass, 1 a verification item failed, 2 usage or
input-file error.  Each command returns one payload of raw values (rationals,
forms, floats, checklist items); ``pipeline.exact_json`` is the one renderer
that turns it into JSON values: keys sorted on output, exact rationals as
"p/q" strings in lowest terms, floating-point values in 12-significant-digit
scientific notation.  ``--format text`` prints the same rendered values, one
per line, in each command's key order.

The numerical layer (numpy and the modules built on it) is imported only by
the commands that solve, so the exact commands start without it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache

from . import classifier, linalg, pipeline
from .forms import parse_form
from .g2 import project3, standard_omega3
from .liegroup import (abelian, curvature, parse_algebra, parallel_fields,
                       r4_su2, su2, with_torsion)
from .linalg import parse_rational
from .pipeline import ChecklistItem, exact_json, rational_str
from .spin import standard_rep


def _render_text(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v if v != {} and v != [] else '-'}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.extend(_render_text(v, indent + 1))
                lines.append("")
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def emit(payload: dict, args) -> None:
    rendered = exact_json(payload)
    text = json.dumps(rendered, sort_keys=True, indent=2)
    if args.report_path:
        try:
            with open(args.report_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write report {args.report_path}: {exc.strerror}") from exc
    try:
        print(text if args.fmt == "json" else "\n".join(_render_text(rendered)), flush=True)
    except BrokenPipeError:     # the reader closed stdout, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ------------------------------------------------------------ subcommands


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


def cmd_decompose(args):
    form = parse_form(_read(args.form_file), 7)
    if form.degrees() not in ([], [3]):
        raise ValueError(f"expected a 3-form, found degrees {form.degrees()}")
    parts = project3(form)
    recomposed = parts[1] + parts[7] + parts[27] == form
    return {
        "command": "decompose",
        "input": args.form_file,
        "components": parts,
        "norms2": {k: v.norm2() for k, v in parts.items()},
        "recomposes": recomposed,
        "passed": recomposed,
    }


def cmd_lemma(args):
    m = classifier.EigenTriple.of(args.m1, args.m2, args.m3)
    family = classifier.solve_family(m)
    payload = {"command": "lemma", "m": m.values, "dimension": family.dimension}
    passed = family.matches_lemma()
    if not family.is_empty():
        payload.update({
            "a": family.a,
            "b": family.b,
            "c": family.c,
            "formulas_match": passed,
            "particular": family.particular,
            "directions": family.directions,
        })
    if args.mu is not None:
        roots = classifier.eigenvalue_roots(args.mu)
        payload["mu"] = args.mu
        payload["roots_admissible"] = all(x in roots for x in m.values)
        payload["torsion_value"] = classifier.torsion_value(m, args.mu)
    payload["passed"] = passed
    return payload


def cmd_values(args):
    mu = args.mu
    fibers = classifier.torsion_value_fibers(mu)
    return {
        "command": "values",
        "mu": mu,
        "assignments": [
            {"m": pattern, "value": val}
            for pattern, val in sorted(
                classifier.torsion_value_enumeration(mu).items())
        ],
        "fibers": dict(sorted(fibers.items())),
        "passed": fibers == classifier.expected_fibers(mu),
    }


def cmd_kernels(args):
    dims = classifier.kernel_dims()
    pinned = classifier.PINNED_KERNEL_DIMS
    return {
        "command": "kernels",
        "dims": dims,
        "pinned": pinned,
        "passed": all(dims[k] == v for k, v in pinned.items()),
    }


def cmd_det_e2(args):
    b, mu = args.b, args.mu
    try:
        report = classifier.det_e2(b, mu)
    except AssertionError as exc:
        return {"command": "det-e2", "b": b, "mu": mu, "error": str(exc),
                "passed": False}
    return {
        "command": "det-e2",
        "b": b,
        "mu": mu,
        "closed_form": report["closed_form"],
        "member": report["member"],
        "det4": report["det4"],
        "det6": report["det6"],
        "cross_checked": report["member"] is not None,
        "passed": True,
    }


def cmd_group_report(args):
    algebra = parse_algebra(_read(args.algebra_file), n=7)
    report = pipeline.run(algebra, placement=args.placement)
    return {"command": "group-report", "input": args.algebra_file,
            **report.to_dict()}


def cmd_kahler(args):
    from .bundle import (eigenvalue_multiplicity_gap, kahler_coframe,
                         kahler_ricci_deviation, kahler_ricci_eigenvalues)
    from .liouville import solve_liouville

    sol = solve_liouville(args.a, domain=args.domain, n=args.grid)
    cf = kahler_coframe(sol)
    points = cf.sample_points(random.Random(args.seed), args.points)
    eigs = kahler_ricci_eigenvalues(cf, points)
    target = 4.0 * args.a * args.a
    deviation = kahler_ricci_deviation(eigs, args.a)
    return {
        "command": "kahler",
        "a": args.a,
        "domain": args.domain,
        "grid": args.grid,
        "points": args.points,
        "solver_residual": sol.residual_norm,
        "target": target,
        "eigenvalues": eigs.tolist(),
        "max_deviation": deviation,
        "multiplicity_gap": eigenvalue_multiplicity_gap(eigs, target),
        "tolerance": args.tol,
        "passed": deviation <= args.tol,
    }


def cmd_theorem1(args):
    """Conclusions at --points points drawn with --seed; all five hypotheses
    at assemble_N5's 10 fixed points, whatever --points and --seed say, kept
    per process for each (a, domain, grid) by theorem1_bundle; torsion_norm
    and jacobian_residual are held to TORSION_NORM_TOL, not --tol."""
    from .bundle import (TORSION_NORM_TOL, strominger_check, theorem1_bundle,
                         theorem1_passed)

    bundle = theorem1_bundle(args.a, args.domain, args.grid)
    points = bundle.total.sample_points(random.Random(args.seed), args.points)
    rep = strominger_check(bundle, points)
    return {
        "command": "theorem1",
        "a": args.a,
        "grid": args.grid,
        "points": rep.points,
        "mu": bundle.mu,
        "hypotheses": bundle.hypotheses,
        "residuals": rep.residuals,
        "max_r_nabla": rep.max_r_nabla,
        "non_flat": rep.non_flat,
        "tolerance": args.tol,
        "torsion_norm_tolerance": TORSION_NORM_TOL,
        "passed": theorem1_passed(bundle.hypotheses, rep, args.tol),
    }


# ------------------------------------------------------------ selftest


def _selftest_items():
    rep = standard_rep()
    op = rep.operator(standard_omega3())
    spec_ok = linalg.has_spectrum(op, {Fraction(-7): 1, Fraction(1): 7})
    yield ("spinor spectrum of the calibration form", spec_ok,
           "-7 (x1), 1 (x7)" if spec_ok else
           "charpoly " + ", ".join(rational_str(c) for c in linalg.charpoly(op)))

    from .g2 import lambda7_basis, lambda27_basis
    psi0 = rep.find_psi0()
    ranks = (1, len(lambda7_basis()), len(lambda27_basis()))
    ann = all(all(x == 0 for x in rep.act(f, psi0)) for f in lambda27_basis())
    yield "splitting ranks (1, 7, 27)", ranks == (1, 7, 27), str(ranks)
    yield "traceless part annihilates the canonical spinor", ann, ""

    mu = Fraction(7)
    hi, lo = classifier.root_pair(mu)
    fam_ok = all(classifier.solve_family(classifier.EigenTriple(*pattern))
                 .matches_lemma()
                 for pattern in ((hi, hi, hi), (lo, hi, hi), (hi, lo, hi),
                                 (lo, lo, lo)))
    yield "eigenvalue families have dimension 9 with matching invariants", fam_ok, ""

    pinned = tuple(classifier.PINNED_KERNEL_DIMS.values())
    all_dims = classifier.kernel_dims()
    dims = tuple(all_dims[k] for k in classifier.PINNED_KERNEL_DIMS)
    yield f"annihilator dimensions {pinned}", dims == pinned, str(dims)

    fibers = classifier.torsion_value_fibers(mu)
    want = classifier.expected_fibers(mu)
    counts = ", ".join(str(n) for _, n in sorted(want.items()))
    yield (f"torsion value fibers {{{counts}}}", fibers == want,
           ", ".join(f"{rational_str(v)}: {n}" for v, n in sorted(fibers.items())))

    det_ok = True
    for b in (Fraction(5, 7) * mu, Fraction(0), Fraction(1)):
        r = classifier.det_e2(b, mu)
        if b == Fraction(5, 7) * mu and r["closed_form"] != 0:
            det_ok = False
        if r["member"] is not None and r["det6"] != 0:
            det_ok = False
    yield "restricted determinant closed form and degenerate b", det_ok, ""

    analysis = classifier.two_field_case_analysis(mu)
    two_ok = (analysis["first_template_matches"]
              and analysis["second_empty"]
              and analysis["exclusion_identities_hold"])
    yield "two-special-field branch analysis", two_ok, ""

    member = classifier.two_field_template(*classifier.branch1_member(mu, 1, 1, 1))
    omega_rep = classifier.omega_form_identities(member, mu)
    yield "parallel 2-form identities on a branch member", all(
        v for k, v in omega_rep.items() if isinstance(v, bool)), ""

    lam = Fraction(2)
    alg = su2(lam, n=7, slots=(1, 2, 3))
    cartan = alg.cartan_three_form()
    conn = with_torsion(alg, -cartan)
    curv = curvature(conn)
    flat = curv.is_nabla_flat()
    fields = parallel_fields(conn)
    yield "minus-Cartan connection is flat with 7 parallel fields", flat and len(fields) == 7, f"fields {len(fields)}"

    g2rep = pipeline.run(r4_su2(-7))
    yield "bundled algebra pipeline", (
        g2rep.passed and g2rep.mu == 7 and g2rep.norm2_torsion == 49
        and g2rep.norm2_d_omega3 == 294 and g2rep.t_theta == 7), ""
    yield "abelian pipeline", pipeline.run(abelian(7)).passed, ""
    bad = pipeline.run(su2(-7, n=7, slots=(1, 2, 3)))
    yield "misplaced calibration detected", not bad.cocalibrated, str(
        bad.cocalibration_residual)

    from .bundle import (assemble_N5, kahler_coframe, kahler_ricci_deviation,
                         kahler_ricci_eigenvalues, strominger_check,
                         theorem1_passed)
    from .liouville import solve_liouville

    sol = solve_liouville(0.5, n=400)
    cf = kahler_coframe(sol)
    pts = cf.sample_points(random.Random(1), 5)
    eigs = kahler_ricci_eigenvalues(cf, pts)
    dev = kahler_ricci_deviation(eigs, 0.5)
    yield "Kaehler Ricci spectrum", dev < 1e-6, f"deviation {dev:.2e}"

    bundle = assemble_N5(sol)
    srep = strominger_check(bundle, bundle.total.sample_points(
        random.Random(2), 5))
    residuals = {**bundle.hypotheses, **srep.residuals}
    worst = max(residuals, key=lambda k: (math.isnan(residuals[k]), residuals[k]))
    yield ("bundle residual panel", theorem1_passed(bundle.hypotheses, srep, 1e-6),
           f"max residual {residuals[worst]:.2e} ({worst})")


def cmd_selftest(args):
    items = [ChecklistItem(name, bool(ok), witness)
             for name, ok, witness in _selftest_items()]
    return {"command": "selftest", "items": items,
            "passed": all(item.passed for item in items)}


# ------------------------------------------------------------ parsing


def _fraction(text):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


@lru_cache(maxsize=1)
def build_parser():
    """The CLI parser, built once per process: parse_args keeps no state in
    it, so every main() call can reuse it."""
    top = argparse.ArgumentParser(
        prog="g2torsion",
        description="Exact and numerical verification toolkit for "
                    "torsion geometry on 7-manifolds and their reductions.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       dest="fmt")
        p.add_argument("--report", dest="report_path", default=None,
                       help="also write the JSON payload to this path")

    p = sub.add_parser("decompose", help="1+7+27 splitting of a 3-form file")
    p.add_argument("form_file")
    common(p)

    p = sub.add_parser("lemma", help="eigenvalue-constrained torsion family")
    p.add_argument("--m1", type=_fraction, required=True)
    p.add_argument("--m2", type=_fraction, required=True)
    p.add_argument("--m3", type=_fraction, required=True)
    p.add_argument("--mu", type=_fraction, default=None)
    common(p)

    p = sub.add_parser("values", help="torsion value enumeration")
    p.add_argument("--mu", type=_fraction, required=True)
    common(p)

    p = sub.add_parser("kernels", help="spinor annihilator dimensions")
    common(p)

    p = sub.add_parser("det-e2", help="restricted determinant closed form")
    p.add_argument("--b", type=_fraction, required=True)
    p.add_argument("--mu", type=_fraction, required=True)
    common(p)

    p = sub.add_parser("group-report", help="exact pipeline on an algebra file")
    p.add_argument("algebra_file")
    p.add_argument("--placement", default=None,
                   help="comma-separated frame permutation, e.g. 1,2,7,3,4,5,6")
    common(p)

    for name, text in (("kahler", "Ricci spectrum of the Kaehler metric"),
                       ("theorem1", "bundle assembly and residual panel")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--a", type=float, default=0.5)
        p.add_argument("--domain", type=float, nargs=2, default=(1.0, 2.0))
        p.add_argument("--grid", type=int, default=400)
        p.add_argument("--points", type=int, default=10)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--tol", type=float, default=1e-6)
        common(p)

    p = sub.add_parser("selftest", help="curated battery across all modules")
    common(p)
    return top


def _check_args(args) -> None:
    """Input checks argparse does not express; each raises ValueError, so
    the command exits with code 2.

    Also turns a --placement list into a tuple of ints.
    """
    if [] in vars(args).values():     # argparse reads --opt=-- as no value
        raise ValueError("an option was given '--' as its value")
    if args.command == "group-report":
        if args.placement:
            fields = args.placement.split(",")
            if not all(re.fullmatch(r"[0-9]+", x) for x in fields):
                raise ValueError(f"bad --placement {args.placement!r}: "
                                 "fields must be ASCII digits")
            args.placement = tuple(int(x) for x in fields)
        else:
            args.placement = None
    elif args.command in ("kahler", "theorem1"):
        if not math.isfinite(args.a):
            raise ValueError("--a must be finite")
        if not all(math.isfinite(x) for x in args.domain):
            raise ValueError("--domain must be finite")
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ValueError("--tol must be finite and positive")
        if args.grid < 4:
            raise ValueError("--grid must be at least 4")
        if args.points < 1:
            raise ValueError("--points must be at least 1")
        if args.seed < 0:
            raise ValueError("--seed must be a non-negative integer")


DISPATCH = {
    "decompose": cmd_decompose,
    "lemma": cmd_lemma,
    "values": cmd_values,
    "kernels": cmd_kernels,
    "det-e2": cmd_det_e2,
    "group-report": cmd_group_report,
    "kahler": cmd_kahler,
    "theorem1": cmd_theorem1,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        payload = DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        payload = {"command": args.command, "error": str(exc), "passed": False}
    try:
        emit(payload, args)
    except ValueError as exc:     # an unwritable --report path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if payload["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
