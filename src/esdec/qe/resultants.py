"""Resultants and principal subresultant coefficients, exactly.

Both are determinants of Sylvester submatrices, evaluated by
fraction-free Bareiss elimination (Bareiss 1968) on integer
polynomials: dicts from exponent tuples to nonzero ints, every entry of
one matrix over one variable frame (a tuple of names sorted by
var_sort_key).  The zero polynomial is the empty dict.

The elimination stays in the integers.  Step k replaces each entry
below and right of the pivot by (a_ij a_kk - a_ik a_kj) / a_(k-1)(k-1),
and that quotient is a minor of the matrix (Sylvester's identity), so
an integer polynomial: the division is exact, and _exact_quotient
checks that it is.

MultiPoly callers (det_bareiss, and psc_set on MultiPoly coefficients)
are converted on entry.  det_bareiss scales each row by the lcm L_i of
its coefficient denominators, so the int matrix has determinant
(prod L_i) * det, and divides that product back out exactly at the end.
psc_set does this through det_bareiss, which for a Sylvester submatrix
is the identity
psc_j(L_f*f, L_g*g) = L_f^(n-j) * L_g^(m-j) * psc_j(f, g)
(m = deg f >= n = deg g; f fills n - j rows and g fills m - j).
The projection (cad.collins_project) converts each polynomial once,
scaled to integers, and calls psc_set on int coefficient lists
directly: its outputs are made primitive, which removes any positive
constant factor such as those powers of L_f and L_g.  The resultant
cascade of qe.roots builds its Sylvester matrices of int polynomials
itself (_subresultant_matrix) and calls _det on them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ..poly import MultiPoly, merge_vars


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple([e1 + e2 for e1, e2 in zip(m1, m2)])
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) - c
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def _exact_quotient(a: dict, b: dict) -> dict:
    """a / b for int polynomials that b divides exactly; raises
    ArithmeticError otherwise.  Lead terms by lex order: each step's
    lead coefficient is lc(quotient left) * lc(b), so it divides."""
    rem = dict(a)
    lead_b = max(b)
    cb = b[lead_b]
    out = {}
    while rem:
        lead = max(rem)
        q, r = divmod(rem[lead], cb)
        mono = tuple([e1 - e2 for e1, e2 in zip(lead, lead_b)])
        if r or (mono and min(mono) < 0):
            raise ArithmeticError("inexact polynomial division")
        out[mono] = q
        rem = _sub(rem, {tuple([e1 + e2 for e1, e2 in zip(mono, m)]): q * c
                         for m, c in b.items()})
    return out


def _det(rows: list) -> dict:
    """Bareiss determinant of a square matrix of int polynomials over one
    frame (see the module docstring); the rows are copied, not changed."""
    n = len(rows)
    M = [list(r) for r in rows]
    sign = 1
    prev = None  # the previous pivot; None stands for the constant 1
    for k in range(n - 1):
        if not M[k][k]:
            for r in range(k + 1, n):
                if M[r][k]:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return {}
        pivot, row_k = M[k][k], M[k]
        for i in range(k + 1, n):
            row_i = M[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                v = _sub(_mul(row_i[j], pivot), _mul(lead, row_k[j]))
                row_i[j] = v if prev is None or not v else _exact_quotient(v, prev)
        prev = pivot
    out = M[n - 1][n - 1]
    return out if sign == 1 else {m: -c for m, c in out.items()}


def int_coeffs(p: MultiPoly, var: str | None, frame: tuple, den: int | None = None) -> list:
    """p times ``den`` as a dense list of int polynomials over ``frame``
    in ``var`` (index = degree; [{}] for the zero polynomial; one entry
    when var is None).  ``frame`` holds every variable of p but ``var``,
    in var_sort_key order; ``den`` is a multiple of every denominator of
    p's coefficients, by default their lcm."""
    names = p.vars
    main = names.index(var) if var in names else None
    where = {v: i for i, v in enumerate(frame)}
    slots = [(i, where[v]) for i, v in enumerate(names) if i != main]
    if den is None:
        den = lcm(*(c.denominator for c in p.terms.values()))
    out = [{} for _ in range(p.degree(var) + 1)]
    width = len(frame)
    for mono, c in p.terms.items():
        key = [0] * width
        for i, j in slots:
            key[j] = mono[i]
        out[0 if main is None else mono[main]][tuple(key)] = c.numerator * (den // c.denominator)
    return out


def det_bareiss(rows: list) -> MultiPoly:
    """Fraction-free determinant of a square MultiPoly matrix, over the
    union of the entries' variables (see the module docstring)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("det_bareiss needs a square matrix")
    if n == 0:
        return MultiPoly.const(1)
    frame = ()
    for row in rows:
        for entry in row:
            frame = merge_vars(frame, entry.vars)
    scale = 1
    ints = []
    for row in rows:
        den = lcm(*(c.denominator for e in row for c in e.terms.values()))
        scale *= den
        ints.append([int_coeffs(e, None, frame, den)[0] for e in row])
    det = _det(ints)
    return MultiPoly._make(frame, {m: Fraction(c, scale) for m, c in det.items()})


def _coeff_row(coeffs: list, shift: int, top: int, bottom: int, zero) -> list:
    """Coefficients of x^shift * p from degree ``top`` down to ``bottom``."""
    row = []
    for d in range(top, bottom - 1, -1):
        idx = d - shift
        row.append(coeffs[idx] if 0 <= idx < len(coeffs) else zero)
    return row


def _subresultant_matrix(fc: list, gc: list, j: int, zero) -> list:
    m, n = len(fc) - 1, len(gc) - 1
    top, bottom = m + n - j - 1, j
    rows = []
    for s in range(n - j - 1, -1, -1):
        rows.append(_coeff_row(fc, s, top, bottom, zero))
    for s in range(m - j - 1, -1, -1):
        rows.append(_coeff_row(gc, s, top, bottom, zero))
    return rows


def psc_set(fc: list, gc: list) -> list:
    """Principal subresultant coefficients psc_j for 0 <= j < min(deg f,
    deg g) of two polynomials given as dense coefficient lists in the
    main variable (index = degree, nonzero last entry); psc_0 is the
    resultant with the larger degree first.  Empty when either degree
    is < 1.  The entries are all MultiPoly or all int polynomials over
    one frame (see the module docstring); the pscs are of the same
    kind."""
    m, n = len(fc) - 1, len(gc) - 1
    if m < 1 or n < 1:
        return []
    if m < n:
        fc, gc, m, n = gc, fc, n, m
    if isinstance(fc[0], MultiPoly):
        zero = MultiPoly.const(0)
        return [det_bareiss(_subresultant_matrix(fc, gc, j, zero)) for j in range(n)]
    return [_det(_subresultant_matrix(fc, gc, j, {})) for j in range(n)]
