"""Exact linear algebra over the rationals.

Everything here works on plain lists of lists of fractions.Fraction.  The
matrices involved are small (tens of rows and columns).  The reduced row
echelon form, which answers every rank, kernel, affine-solve and span
question, is computed fraction-free on Python ints and converted to
Fractions once at the end; `det` and `charpoly` work in Fraction arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)

#: Largest decimal exponent in rational text: Fraction('1eN') builds 10**N.
MAX_EXPONENT = 1000


def parse_rational(text: str) -> Fraction:
    """Read an exact rational ('3', '-3/2', '1.25', '5e-3') from ASCII text.

    Raises ValueError on a non-ASCII character or '_', a decimal exponent
    beyond MAX_EXPONENT in size, a zero denominator and other bad text.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"non-ASCII character or '_' in {text!r}")
    exp = re.search(r"[eE][+-]?0*([0-9]{0,5})", text)   # 5 digits exceed the bound
    if exp and int(exp[1] or 0) > MAX_EXPONENT:
        raise ValueError(f"decimal exponent in {text!r} exceeds {MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rational_str(x) -> str:
    """An exact rational in lowest terms: 'p' for integers, else 'p/q'."""
    return str(Fraction(x))


def mat_copy(m):
    return [list(row) for row in m]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[ZERO] * c for _ in range(r)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in bt] for row in a]


def commutator(a, b):
    """AB - BA of two square matrices, from the nonzero entries of each row
    only; every other entry is ZERO, so the result equals
    matmul(a, b) - matmul(b, a) entry by entry."""
    n = len(a)
    sa = [[(k, x) for k, x in enumerate(row) if x] for row in a]
    sb = [[(k, x) for k, x in enumerate(row) if x] for row in b]
    out = []
    for i in range(n):
        row = [ZERO] * n
        for k, x in sa[i]:
            for j, y in sb[k]:
                row[j] += x * y
        for k, x in sb[i]:
            for j, y in sa[k]:
                row[j] -= x * y
        out.append(row)
    return out


def matvec(a, v):
    """Av, each row summed from ZERO over its nonzero entries only."""
    return [sum((x * y for x, y in zip(row, v) if x), ZERO) for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(s, a):
    return [[s * x for x in row] for row in a]


def trace(a):
    return sum((a[i][i] for i in range(len(a))), ZERO)


def rref(m):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    Fraction-free: each row is scaled by the lcm of its denominators to a row
    of Python ints, and eliminated by integer row operations
    r_i <- p r_i - f r_pivot, each new row divided by the gcd of its entries.
    Pivot row i ends as a multiple of the reduced row, and becomes Fractions
    only on the final division by its pivot.  The pivot is the first nonzero
    entry at or below the current row, as in Fraction Gauss-Jordan.
    """
    r = []
    for row in m:
        if not any(row):
            r.append([0] * len(row))
            continue
        dens = [x.denominator for x in row]
        den = lcm(*dens)
        if den == 1:
            ints = [x.numerator for x in row]
        else:
            ints = [x.numerator * (den // d) for x, d in zip(row, dens)]
        g = gcd(*ints)
        r.append([x // g for x in ints] if g > 1 else ints)
    rows = len(r)
    cols = len(r[0]) if rows else 0
    pivots = []
    pr = 0
    for pc in range(cols):
        piv = None
        for i in range(pr, rows):
            if r[i][pc]:
                piv = i
                break
        if piv is None:
            continue
        r[pr], r[piv] = r[piv], r[pr]
        prow = r[pr]
        p = prow[pc]
        for i in range(rows):
            f = r[i][pc]
            if f and i != pr:
                row = [p * x - f * y for x, y in zip(r[i], prow)]
                g = gcd(*row)
                r[i] = [x // g for x in row] if g > 1 else row
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    out = []
    for row, pc in zip(r, pivots):
        p = row[pc]
        out.append([Fraction(x, p) if x else ZERO for x in row])
    out.extend([ZERO] * cols for _ in range(rows - pr))
    return out, pivots


def rank(m):
    if not m or not m[0]:
        return 0
    return len(rref(m)[1])


def det(m):
    """Exact determinant by Gaussian elimination with first-nonzero pivots."""
    n = len(m)
    a = mat_copy(m)
    out = ONE
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return ZERO
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        inv = ONE / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def kernel(r, pivots, cols):
    """Kernel basis of the first `cols` columns of a reduced form, one vector
    per free column (deterministic)."""
    basis = []
    for free in sorted(set(range(cols)) - set(pivots)):
        v = [ZERO] * cols
        v[free] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][free]
        basis.append(v)
    return basis


def nullspace(m):
    """Basis of the right kernel, one vector per free column (deterministic)."""
    return kernel(*rref(m), len(m[0]) if m else 0)


def eliminate(a, columns):
    """One elimination for A x = b with b anywhere in the span of `columns`.

    Reduces [A | b_1 .. b_k] and returns (R, pivots of A, number of columns
    of A), the form that `particular` reads and `kernel` takes.  Rows of R
    past the rank of A are zero on A's columns.
    """
    cols = len(a[0]) if a else 0
    r, pivots = rref([list(row) + list(rhs) for row, rhs in zip(a, zip(*columns))])
    return r, [pc for pc in pivots if pc < cols], cols


def particular(elimination, weights):
    """The solution of A x = sum_i w_i b_i whose free coordinates are 0, or
    None when that system is inconsistent, read from eliminate(A, [b_i]).

    Rows of R up to the rank of A combine to the values at their pivots;
    rows past it must combine to 0.  Where the b_i add pivots of their own,
    R has subtracted multiples of those later rows from the earlier ones,
    and they combine to 0 whenever the system is consistent.  So x0 is the
    last column of rref([A | sum_i w_i b_i]), Fraction for Fraction, since
    the reduced row echelon form is unique.
    """
    r, pivots, cols = elimination
    values = [sum((w * x for w, x in zip(weights, row[cols:]) if x), ZERO) for row in r]
    if any(values[len(pivots):]):
        return None
    x0 = [ZERO] * cols
    for pc, v in zip(pivots, values):
        x0[pc] = v
    return x0


def solve_affine(a, b):
    """Particular solution plus kernel basis of A x = b, from one elimination.

    Returns (x0, kernel_basis); x0 is None when the system is inconsistent.
    """
    elimination = eliminate(a, [b])
    x0 = particular(elimination, [ONE])
    if x0 is None:
        return None, []
    return x0, kernel(*elimination)


def charpoly(a):
    """Coefficients [1, c1, ..., cn] of det(tI - A) via Faddeev-LeVerrier."""
    n = len(a)
    coeffs = [ONE]
    m = mat_copy(a)
    for k in range(1, n + 1):
        if k > 1:
            m = matmul(a, mat_add(m_prev, mat_scale(coeffs[k - 1], identity(n))))
        c = -trace(m) / k
        coeffs.append(c)
        m_prev = m
    return coeffs


def has_spectrum(a, spectrum):
    """Do the eigenvalues of A, with algebraic multiplicity, form exactly
    the {eigenvalue: multiplicity} mapping `spectrum`?  They do when
    det(tI - A) equals the product of the factors (t - lam)^m."""
    want = [ONE]
    for lam, mult in spectrum.items():
        for _ in range(mult):
            want = [x - lam * y for x, y in zip(want + [ZERO], [ZERO] + want)]
    return charpoly(a) == want


def eigenspace(a, lam):
    n = len(a)
    shifted = [[a[i][j] - (lam if i == j else ZERO) for j in range(n)] for i in range(n)]
    return nullspace(shifted)


def vectors_span_equal(a_basis, b_basis):
    """Do two lists of rational vectors span the same subspace?

    The nonzero rows of the reduced row echelon form determine the span.
    """
    (ra, pa), (rb, pb) = rref(a_basis), rref(b_basis)
    return ra[:len(pa)] == rb[:len(pb)]


def in_span(vec, basis):
    """Is vec a combination of the basis vectors?  It is unless it adds a
    pivot column to the matrix with the basis vectors as columns."""
    return len(basis) not in rref(transpose(basis + [vec]))[1]
