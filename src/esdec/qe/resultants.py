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

The projection (cad.collins_project) takes each polynomial's int
coefficient lists from its kept int form (int_coeffs), scaled by the lcm
of its denominators, and calls psc_set on them: its outputs are made
primitive, which removes any positive constant factor such as the
powers of those scales in the pscs.  The resultant cascade of qe.roots
builds its Sylvester matrices of int polynomials itself
(_subresultant_matrix) and calls _det on them.
"""

from __future__ import annotations

from ..poly import MultiPoly


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


def int_coeffs(p: MultiPoly, var: str | None, frame: tuple) -> list:
    """p times the lcm of its coefficient denominators as a dense list of
    int polynomials over ``frame`` in ``var`` (index = degree; [{}] for
    the zero polynomial; one entry when var is None).  ``frame`` holds
    every variable p uses but ``var``, in var_sort_key order.  The terms
    are those of p's kept int form in var (MultiPoly.kept_form), each put
    into the frame's slots."""
    looked, size, terms = p.kept_form(var)
    slots = [frame.index(name) for name, _deg in looked]
    width = len(frame)
    out = [{} for _ in range(size)]
    for c, k, exps in terms:
        key = [0] * width
        for j, e in zip(slots, exps):
            key[j] = e
        out[k][tuple(key)] = c
    return out


def _coeff_row(coeffs: list, shift: int, top: int, bottom: int) -> list:
    """Coefficients of x^shift * p from degree ``top`` down to ``bottom``."""
    row = []
    for d in range(top, bottom - 1, -1):
        idx = d - shift
        row.append(coeffs[idx] if 0 <= idx < len(coeffs) else {})
    return row


def _subresultant_matrix(fc: list, gc: list, j: int) -> list:
    m, n = len(fc) - 1, len(gc) - 1
    top, bottom = m + n - j - 1, j
    rows = []
    for s in range(n - j - 1, -1, -1):
        rows.append(_coeff_row(fc, s, top, bottom))
    for s in range(m - j - 1, -1, -1):
        rows.append(_coeff_row(gc, s, top, bottom))
    return rows


def psc_set(fc: list, gc: list) -> list:
    """Principal subresultant coefficients psc_j for 0 <= j < min(deg f,
    deg g) of two polynomials given as dense coefficient lists in the
    main variable (index = degree, nonzero last entry) of int
    polynomials over one frame (see the module docstring); psc_0 is the
    resultant with the larger degree first.  Empty when either degree
    is < 1."""
    m, n = len(fc) - 1, len(gc) - 1
    if m < 1 or n < 1:
        return []
    if m < n:
        fc, gc, m, n = gc, fc, n, m
    return [_det(_subresultant_matrix(fc, gc, j)) for j in range(n)]
