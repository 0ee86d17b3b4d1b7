"""Exact exterior algebra on an oriented orthonormal frame of R^n (n <= 8).

A k-form is stored as a dict mapping strictly increasing 1-based index tuples
to rational coefficients.  All operations (wedge, interior product, Hodge
star, inner product) are exact over Q.  One index walk, `Form.derivation`,
carries every derivation: the hook by a vector, sigma and, in `liegroup` and
`classifier`, the invariant d, nabla of forms and the parallel-form d.

Conventions fixed here and used throughout the package:

* interior product:  (X . alpha)(Y1, ..., Y_{k-1}) = alpha(X, Y1, ...),
  so  e_i . e_I = (-1)^{pos} e_{I minus i}  with pos the 0-based position
  of i inside I;
* Hodge star:  alpha ^ (*beta) = <alpha, beta> vol  for k-forms alpha, beta,
  with vol = e_1 ^ ... ^ e_n;
* a derivation of degree p sends each e_i to a (p+1)-form D e_i and obeys
  D(a ^ b) = Da ^ b + (-1)^(p deg a) a ^ Db;
* the basis (e_I) is orthonormal: <e_I, e_J> = delta_IJ.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations

from .linalg import frac, parse_rational, rational_str

ZERO = Fraction(0)
ONE = Fraction(1)


def sort_index(idx):
    """Sort an index tuple, returning (sorted_tuple, sign); sign 0 if repeated."""
    idx = list(idx)
    sign = 1
    # insertion sort, counting inversions
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


class Form:
    """Exact differential form with constant rational coefficients.

    Immutable by convention: all operations return fresh instances.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        if not 0 < n <= 8:
            raise ValueError(f"frame dimension {n} out of supported range 1..8")
        self.n = n
        clean = {}
        if coeffs:
            axes = frozenset(range(1, n + 1))
            for idx, c in coeffs.items():
                # range first: a zero or a repeated index excuses nothing
                if not axes.issuperset(idx):
                    raise ValueError(f"index {idx} out of range for R^{n}")
                c = frac(c)
                if c == 0:
                    continue
                sidx, sign = sort_index(tuple(idx))
                if sign == 0:
                    continue
                clean[sidx] = clean.get(sidx, ZERO) + sign * c
                if clean[sidx] == 0:
                    del clean[sidx]
        self.coeffs = clean

    # ---------------- constructors ----------------

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def basis(cls, n, *indices):
        return cls(n, {tuple(indices): ONE})

    @classmethod
    def _raw(cls, n, coeffs):
        """A form from sorted indices and nonzero coefficients, unchecked."""
        out = cls.__new__(cls)
        out.n = n
        out.coeffs = coeffs
        return out

    # ---------------- basic structure ----------------

    def degrees(self):
        return sorted({len(i) for i in self.coeffs})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.coeffs.items()))))

    def __getitem__(self, idx):
        sidx, sign = sort_index(tuple(idx))
        if sign == 0:
            return ZERO
        return sign * self.coeffs.get(sidx, ZERO)

    # ---------------- linear operations ----------------

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._check(other)
        acc = dict(self.coeffs)
        for i, c in other.coeffs.items():
            acc[i] = acc.get(i, ZERO) + c
            if acc[i] == 0:
                del acc[i]
        return Form._raw(self.n, acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = frac(c)
        return Form._raw(self.n, {} if c == 0 else {i: c * v for i, v in self.coeffs.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __truediv__(self, c):
        return self.scale(ONE / frac(c))

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(f"frame dimension mismatch: {self.n} vs {other.n}")

    # ---------------- multiplicative structure ----------------

    def wedge(self, other):
        self._check(other)
        acc = {}
        for i, ci in self.coeffs.items():
            for j, cj in other.coeffs.items():
                merged, sign = sort_index(i + j)
                if sign == 0:
                    continue
                acc[merged] = acc.get(merged, ZERO) + sign * ci * cj
                if acc[merged] == 0:
                    del acc[merged]
        return Form._raw(self.n, acc)

    def __xor__(self, other):
        return self.wedge(other)

    def hook_basis(self, i):
        """Interior product by the frame vector e_i."""
        acc = {}
        for idx, c in self.coeffs.items():
            if i not in idx:
                continue
            pos = idx.index(i)
            rest = idx[:pos] + idx[pos + 1 :]
            sign = -1 if pos % 2 else 1
            acc[rest] = acc.get(rest, ZERO) + sign * c
            if acc[rest] == 0:
                del acc[rest]
        return Form._raw(self.n, acc)

    def hook(self, vector):
        """Interior product by a frame index or by a vector given as length-n
        rational coordinates x: the derivation sending e_j to the 0-form x_j."""
        if isinstance(vector, int):
            return self.hook_basis(vector)
        return self.derivation([Form._raw(self.n, {(): x} if x else {})
                                for x in map(frac, vector)])

    def derivation(self, images):
        """The derivation sending each e_i to the form images[i - 1].

        The images share one degree p + 1.  In each monomial the index at
        position s is replaced in place by the terms of its image, with sign
        (-1)^(s p), and each substituted index tuple is sorted as it is made.
        """
        if len(images) != self.n:
            raise ValueError(f"{len(images)} derivation images for R^{self.n}")
        images = [image.coeffs for image in images]
        degrees = {len(ab) for image in images for ab in image}
        if len(degrees) > 1:
            raise ValueError(f"derivation images of mixed degrees {sorted(degrees)}")
        p_odd = bool(degrees) and degrees.pop() % 2 == 0
        acc = {}
        for idx, coeff in self.coeffs.items():
            for s, i in enumerate(idx):
                if images[i - 1]:
                    c = -coeff if p_odd and s % 2 else coeff
                    for ab, v in images[i - 1].items():
                        key, sign = sort_index(idx[:s] + ab + idx[s + 1:])
                        if sign:
                            acc[key] = acc.get(key, ZERO) + (c * v if sign > 0 else -c * v)
        return Form._raw(self.n, {key: c for key, c in acc.items() if c})

    def hodge(self):
        """Hodge star for the standard orientation and orthonormal frame."""
        n = self.n
        full = tuple(range(1, n + 1))
        acc = {}
        for idx, c in self.coeffs.items():
            comp = tuple(i for i in full if i not in idx)
            _, sign = sort_index(idx + comp)
            acc[comp] = acc.get(comp, ZERO) + sign * c
        return Form._raw(self.n, acc)

    def inner(self, other):
        """Pointwise inner product, orthonormal-basis convention."""
        self._check(other)
        if len(self.coeffs) > len(other.coeffs):
            self, other = other, self
        return sum(
            (c * other.coeffs[i] for i, c in self.coeffs.items() if i in other.coeffs),
            ZERO,
        )

    def norm2(self):
        return sum((c * c for c in self.coeffs.values()), ZERO)

    def evaluate(self, *vectors):
        """Evaluate a k-form on k coordinate vectors via iterated hooks."""
        out = self
        for v in vectors:
            out = out.hook(v)
        if out.degrees() not in ([], [0]):
            raise ValueError("number of vectors does not match form degree")
        return out.coeffs.get((), ZERO)

    # ---------------- composite operators ----------------

    def sigma(self):
        """(1/2) sum_i (e_i . T)^(e_i . T) for a homogeneous form T: half the
        derivation sending e_i to e_i . T, applied to T."""
        images = [self.hook_basis(i) for i in range(1, self.n + 1)]
        return self.derivation(images).scale(Fraction(1, 2))

    # ---------------- presentation ----------------

    def sorted_terms(self):
        return sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __repr__(self):
        return f"Form({self.n}, {format_form(self)!r})"

    def __str__(self):
        return format_form(self)


# ---------------- serialization ----------------


def format_form(form):
    """Human- and machine-readable text: '+p/q eIJK' terms, sorted."""
    if form.is_zero():
        return "0"
    pieces = []
    for idx, c in form.sorted_terms():
        sign = "+" if c > 0 else "-"
        coeff = rational_str(abs(c))
        label = "1" if not idx else "e" + "".join(str(i) for i in idx)
        pieces.append(f"{sign}{coeff}*{label}")
    return " ".join(pieces)


def _parse_term(tok):
    """One unsigned 'p/q*eIJK' term -> (coefficient, index tuple).

    The coefficient and the monomial may be joined by '*', by whitespace or
    by nothing; either one may be omitted.
    """
    tok = re.sub(r"\s*\*\s*", "*", tok.strip())
    if "*" not in tok:
        tok = re.sub(r"\s+", "*", tok, count=1)
    if "*" in tok:
        cpart, epart = tok.split("*", 1)
    elif "e" in tok:
        pos = tok.index("e")
        cpart, epart = tok[:pos], tok[pos:]
    else:
        cpart, epart = tok, ""
    try:
        coeff = parse_rational(cpart) if cpart else ONE
    except ValueError as exc:
        raise ValueError(f"cannot parse coefficient {cpart!r}: {exc}") from exc
    if epart in ("", "1"):
        idx = ()
    else:
        if not epart.startswith("e"):
            raise ValueError(f"cannot parse term {tok!r}")
        digits = epart[1:]
        if not re.fullmatch(r"[0-9]+", digits):
            raise ValueError(f"cannot parse index block {epart!r}")
        idx = tuple(int(d) for d in digits)
        if len(set(idx)) != len(idx):
            raise ValueError(f"repeated index in {epart!r}")
    return coeff, idx


def parse_form(text, n):
    """Inverse of format_form; '#' starts a comment, a sum may span lines.

    Each line is split into terms at its '+' and '-' signs, so a sign may
    stand apart from its term ('+ e127', '- 3/2 e34').  A term lies on one
    line; a sign without a term after it is an error.  Accepts omitted '*'
    and an omitted unit coefficient.  Malformed terms raise ValueError
    carrying the line and column where the term starts.
    """
    acc = {}
    for lineno, raw in enumerate(text.splitlines() or [""], start=1):
        line = raw.split("#", 1)[0]
        for m in re.finditer(r"([+-]?)([^+-]*)", line):
            sign, body = m.groups()
            if not sign and not body.strip():
                continue
            try:
                if not body.strip():
                    raise ValueError(f"sign {sign!r} without a term")
                coeff, idx = _parse_term(body)
                if any(not 1 <= i <= n for i in idx):
                    raise ValueError(f"index {idx} out of range for R^{n}")
            except ValueError as exc:
                raise ValueError(
                    f"line {lineno}, column {m.start() + 1}: {exc}") from exc
            sidx, parity = sort_index(idx)
            if sign == "-":
                parity = -parity
            acc[sidx] = acc.get(sidx, ZERO) + parity * coeff
    return Form(n, acc)


def basis_indices(n, k):
    """All degree-k basis index tuples in lexicographic order."""
    return list(combinations(range(1, n + 1), k))


def form_to_vector(form, indices):
    return [form.coeffs.get(i, ZERO) for i in indices]


def vector_to_form(n, vec, indices):
    return Form(n, dict(zip(indices, vec)))
