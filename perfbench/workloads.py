"""Seeded request streams for the three workloads, with their known answers.

Each workload is an endless sequence of *blocks*.  A block holds a fixed
multiset of request kinds (so every seed runs the same mix in the same
proportions) whose parameters and order are drawn from the seed.  The
timed stream always runs whole blocks, so a run never ends on a lopsided
partial mix.

Every request carries its own oracle: a function of (exit code, parsed JSON
payload, stderr) that returns ``None`` when the answer is right and a short
reason otherwise.  The oracles are computed here from closed forms and from
the seven associative triples below, never from the package under test.

Rationals that can be negative are passed as ``--m2=-5/11``: argparse reads
a detached ``-5/11`` as an option and exits 2.  Form files use the
``+p/q*eIJK`` token syntax.  Both choices keep the detached-sign parser
defect out of the measured streams on purpose.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

#: The calibration 3-form e127 + e135 - e146 - e236 - e245 + e347 + e567 as
#: its seven associative triples and their signs.  Hard-coded so that the
#: oracles do not depend on the package they check.
ASSOCIATIVE = {
    (1, 2, 7): 1, (1, 3, 5): 1, (1, 4, 6): -1, (2, 3, 6): -1,
    (2, 4, 5): -1, (3, 4, 7): 1, (5, 6, 7): 1,
}
ALL_TRIPLES = list(itertools.combinations(range(1, 8), 3))
OTHER_TRIPLES = [t for t in ALL_TRIPLES if t not in ASSOCIATIVE]

#: Size bound of every seeded rational (lambda, mu, m_i, b, form
#: coefficients): +-p/q with 1 <= p <= NUM_BOUND and 1 <= q <= DEN_BOUND.
NUM_BOUND = 99
DEN_BOUND = 9
SIZE_BOUND = f"+-p/q, 1 <= p <= {NUM_BOUND}, 1 <= q <= {DEN_BOUND}"

#: Bundle parameters.  For a <= 0.46 a solution exists (16 a^2 is below the
#: Bratu critical value 3.5138 on a unit interval); for a >= 0.67 none does
#: (8 a^2 is above it), so the solver must report divergence with exit 1.
CONVERGENT_A = tuple(round(0.05 * k, 2) for k in range(1, 10))     # 0.05 .. 0.45
DIVERGENT_A = tuple(round(0.70 + 0.05 * k, 2) for k in range(7))   # 0.70 .. 1.00
GRIDS = (200, 400, 800, 1600)
POINTS = (5, 10, 20, 40)


@dataclass
class Outcome:
    """What one CLI call returned."""

    code: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str | None = None     # exception escaping cli.main, if any

    @property
    def payload(self):
        return json.loads(self.stdout) if self.stdout.strip() else None


@dataclass
class Request:
    kind: str
    argv: list
    oracle: Callable                 # (code, payload, stderr) -> str | None
    key: tuple                       # what a cache could reuse; repeats are counted
    props: dict = field(default_factory=dict)


def verdict(req: Request, out: Outcome) -> str | None:
    """None when the outcome matches the known answer, else the reason."""
    if out.error is not None:
        return f"raised {out.error}"
    if "Traceback" in out.stderr:
        return "printed a traceback"
    try:
        payload = out.payload
    except ValueError as exc:
        return f"unparsable payload: {exc}"
    return req.oracle(out.code, payload, out.stderr)


# ------------------------------------------------------------ helpers


def _rational(rng):
    return Fraction(rng.choice((1, -1)) * rng.randint(1, NUM_BOUND),
                    rng.randint(1, DEN_BOUND))


def _q(x):
    """Exact rational from a payload field, or None."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def _compare(code, want_code, payload, fields):
    """Shared oracle tail: exit code, then each (name, got, want) in order."""
    if code != want_code:
        return f"exit {code}, want {want_code}"
    if payload is None:
        return "no payload"
    for name, got, want in fields:
        if got != want:
            return f"{name} = {got!r}, want {want!r}"
    return None


def _triple_sign(slots):
    """omega(e_a, e_b, e_c) for the calibration form: +-1 or 0."""
    base = tuple(sorted(slots))
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3)
                     if slots[i] > slots[j])
    return ASSOCIATIVE.get(base, 0) * (-1) ** inversions


def _form_text(coeffs):
    """'+p/q*eIJK' tokens, one per monomial."""
    return " ".join(("+" if c > 0 else "-") + f"{abs(c)}*e"
                    + "".join(map(str, idx)) for idx, c in coeffs.items())


def _mapping(m):
    """Payload form mapping {'127': 'p/q'} -> {(1, 2, 7): Fraction}."""
    return {tuple(int(d) for d in k): Fraction(v) for k, v in (m or {}).items()}


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ------------------------------------------------------------ pipeline


def group_report(workdir, name, slots, lam):
    """su(2)_lam on the ordered slots: [e_a, e_b] = lam e_c cyclically."""
    a, b, c = slots
    path = _write(workdir, name, f"# dimension 7\n{a} {b} {c} {lam}\n"
                                 f"{b} {c} {a} {lam}\n{c} {a} {b} {lam}\n")
    eps = _triple_sign(slots)

    def oracle(code, p, err):
        if eps:
            return _compare(code, 0, p, [
                ("cocalibrated", p and p.get("cocalibrated"), True),
                ("mu", p and _q(p.get("mu")), -eps * lam),
                ("norm2_torsion", p and _q(p.get("norm2_torsion")), lam * lam),
                ("passed", p and p.get("passed"), True)])
        return _compare(code, 1, p, [
            ("cocalibrated", p and p.get("cocalibrated"), False),
            ("passed", p and p.get("passed"), False)])

    return Request("group-report", ["group-report", path], oracle,
                   ("group-report", tuple(slots), lam),
                   {"cocalibrated": bool(eps)})


def pipeline_block(rng, workdir, tag):
    """Each associative triple once and two other triples, each in seeded
    slot order and at a seeded lambda: 7/9 cocalibrated."""
    picks = list(ASSOCIATIVE) + rng.sample(OTHER_TRIPLES, 2)
    reqs = []
    for i, triple in enumerate(picks):
        slots = list(triple)
        rng.shuffle(slots)
        reqs.append(group_report(workdir, f"{tag}-{i}.alg", tuple(slots),
                                 _rational(rng)))
    rng.shuffle(reqs)
    return reqs


def pipeline_warmup(workdir):
    return [group_report(workdir, "warm-0.alg", (1, 2, 7), Fraction(-7)),
            group_report(workdir, "warm-1.alg", (1, 2, 3), Fraction(1))]


# ------------------------------------------------------------ classifier


def lemma(m, mu):
    m1, m2, m3 = m
    roots = {Fraction(6, 7) * mu, Fraction(-8, 7) * mu}

    def oracle(code, p, err):
        return _compare(code, 0, p, [
            ("dimension", p.get("dimension"), 9),
            ("a", _q(p.get("a")), -(m1 - m2 + m3) / 4),
            ("b", _q(p.get("b")), (-m1 + m2 + m3) / 4),
            ("c", _q(p.get("c")), 0),
            ("torsion_value", _q(p.get("torsion_value")), mu / 7 - sum(m) / 4),
            ("roots_admissible", p.get("roots_admissible"),
             all(x in roots for x in m)),
            ("passed", p.get("passed"), True)] if p else [])

    argv = ["lemma", f"--m1={m1}", f"--m2={m2}", f"--m3={m3}", f"--mu={mu}"]
    return Request("lemma", argv, oracle, ("lemma", m, mu))


def values(mu):
    want = {Fraction(0): 3, mu / 2: 3, -mu / 2: 1, mu: 1}

    def oracle(code, p, err):
        got = p and {Fraction(k): n for k, n in p.get("fibers", {}).items()}
        return _compare(code, 0, p, [("fibers", got, want),
                                     ("passed", p and p.get("passed"), True)])

    return Request("values", ["values", f"--mu={mu}"], oracle, ("values", mu))


def det_e2(b, mu):
    inner = -b * b - Fraction(4, 7) * b * mu + Fraction(45, 49) * mu * mu
    closed = inner * inner / 4

    def oracle(code, p, err):
        fields = [("closed_form", p and _q(p.get("closed_form")), closed),
                  ("passed", p and p.get("passed"), True)]
        if p and p.get("cross_checked"):
            fields.append(("det4", _q(p.get("det4")), closed))
        return _compare(code, 0, p, fields)

    return Request("det-e2", ["det-e2", f"--b={b}", f"--mu={mu}"], oracle,
                   ("det-e2", b, mu))


def decompose(workdir, name, coeffs):
    path = _write(workdir, name, "# seeded 3-form\n" + _form_text(coeffs) + "\n")
    pairing = sum((c * ASSOCIATIVE.get(idx, 0) for idx, c in coeffs.items()),
                  Fraction(0))
    want_p1 = {idx: pairing / 7 * s for idx, s in ASSOCIATIVE.items()}
    norm2 = sum((c * c for c in coeffs.values()), Fraction(0))

    def oracle(code, p, err):
        if not p:
            return _compare(code, 0, p, [])
        comps = {k: _mapping(v) for k, v in p.get("components", {}).items()}
        total = {}
        for part in comps.values():
            for idx, c in part.items():
                total[idx] = total.get(idx, 0) + c
        total = {idx: c for idx, c in total.items() if c}
        norms = {k: Fraction(v) for k, v in p.get("norms2", {}).items()}
        return _compare(code, 0, p, [
            ("sum of components", total, coeffs),
            ("sum of norms2", sum(norms.values(), Fraction(0)), norm2),
            ("1-component", comps.get("1"), {k: v for k, v in want_p1.items() if v}),
            ("1-norm2", norms.get("1"), pairing * pairing / 7),
            ("recomposes", p.get("recomposes"), True)])

    return Request("decompose", ["decompose", path], oracle,
                   ("decompose", tuple(sorted(coeffs.items()))))


def kernels():
    def oracle(code, p, err):
        dims = (p or {}).get("dims", {})
        return _compare(code, 0, p, [
            ("dims", (dims.get("1"), dims.get("3"), dims.get("4")), (27, 14, 9)),
            ("passed", p and p.get("passed"), True)])

    return Request("kernels", ["kernels"], oracle, ("kernels",))


def _seeded_form(rng):
    idx = rng.sample(ALL_TRIPLES, rng.randint(4, 12))
    return {i: _rational(rng) for i in sorted(idx)}


def classifier_block(rng, workdir, tag):
    """16 requests: 1 kernels, 8 lemma (half admissible), 5 det-e2, 1 values
    and 1 decompose.  About as many requests are cheaper than a lemma as are
    dearer, so the median request is a lemma: the 56x35 elimination."""
    reqs = [kernels(), values(_rational(rng)),
            decompose(workdir, f"{tag}.form", _seeded_form(rng))]
    for i in range(8):
        mu = _rational(rng)
        if i % 2:
            roots = (Fraction(6, 7) * mu, Fraction(-8, 7) * mu)
            m = tuple(rng.choice(roots) for _ in range(3))
        else:
            m = tuple(_rational(rng) for _ in range(3))
        reqs.append(lemma(m, mu))
    reqs += [det_e2(_rational(rng), _rational(rng)) for _ in range(5)]
    rng.shuffle(reqs)
    return reqs


def classifier_warmup(workdir):
    mu = Fraction(7)
    return [lemma((Fraction(6), Fraction(6), Fraction(-8)), mu), values(mu),
            det_e2(Fraction(5), mu),
            decompose(workdir, "warm.form", {t: Fraction(s) for t, s in ASSOCIATIVE.items()}),
            kernels()]


# ------------------------------------------------------------ bundle


def bundle(kind, a, grid, points, seed):
    argv = [kind, f"--a={a}", f"--grid={grid}", f"--points={points}",
            f"--seed={seed}"]
    divergent = a >= 0.67

    def oracle(code, p, err):
        if divergent:
            if code != 1 or "Newton did not converge" not in err:
                return f"exit {code} ({err.strip()[:60]!r}), want 1 with divergence"
            if p is not None and p.get("passed") is not False:
                return "divergent run reported passed"
            return None
        if not p:
            return _compare(code, 0, p, [])
        tol = float(p.get("tolerance", "nan"))
        if kind == "kahler":
            worst = [("max_deviation", float(p["max_deviation"]), tol)]
        else:
            worst = [(k, float(v), float(p["torsion_norm_tolerance"])
                      if k == "torsion_norm" else tol)
                     for k, v in p.get("residuals", {}).items()]
            worst += [(k, float(v), tol) for k, v in p.get("hypotheses", {}).items()]
        over = [name for name, v, lim in worst if not v <= lim]
        return _compare(code, 0, p, [
            ("residuals over tolerance", over, []),
            ("non_flat", p.get("non_flat", True), True),
            ("passed", p.get("passed"), True)])

    return Request(kind, argv, oracle, (kind, a, grid), {"divergent": divergent})


def bundle_block(rng, workdir, tag):
    """36 requests: per kind, every (grid, points) pair once at a seeded a
    and sample seed, so every block does the same work; plus four divergent
    a (one in nine)."""
    reqs = [bundle(kind, rng.choice(CONVERGENT_A), grid, pts, rng.randint(0, 10**6))
            for kind in ("kahler", "theorem1") for grid in GRIDS for pts in POINTS]
    reqs += [bundle(kind, rng.choice(DIVERGENT_A), rng.choice(GRIDS),
                    rng.choice(POINTS), rng.randint(0, 10**6))
             for kind in ("kahler", "theorem1", "kahler", "theorem1")]
    rng.shuffle(reqs)
    return reqs


def bundle_warmup(workdir):
    return [bundle("kahler", 0.25, 200, 5, 1), bundle("theorem1", 0.25, 200, 5, 1)]


@dataclass(frozen=True)
class Workload:
    block: Callable          # (rng, workdir, tag) -> list[Request]
    warmup: Callable         # (workdir) -> list[Request], fixed for every seed
    exact: bool              # payloads are exact rationals (digest them)
    trace_block_s: float     # nominal block time used to size the traced run
    min_blocks: int          # fewest blocks a timed stream runs


#: classifier-stream runs at least 12 blocks, so at least 12 ``kernels``
#: requests: its tail sample (the 11th largest) is always a ``kernels``
#: request, whatever the host's speed.
WORKLOADS = {
    "pipeline-stream": Workload(pipeline_block, pipeline_warmup, True, 4.5, 2),
    "classifier-stream": Workload(classifier_block, classifier_warmup, True, 2.5, 12),
    "bundle-stream": Workload(bundle_block, bundle_warmup, False, 9.0, 1),
}
