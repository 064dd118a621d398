"""Resultants and principal subresultant coefficients, exactly.

Both are determinants of Sylvester submatrices, evaluated by
fraction-free Bareiss elimination.  Polynomial entries are MultiPoly
over the non-main variables, so multivariate inputs work too.
"""

from __future__ import annotations

from ..poly import MultiPoly


def det_bareiss(rows: list) -> MultiPoly:
    """Fraction-free determinant of a square MultiPoly matrix."""
    n = len(rows)
    if n == 0:
        return MultiPoly.const(1)
    M = [list(r) for r in rows]
    if any(len(r) != n for r in M):
        raise ValueError("det_bareiss needs a square matrix")
    sign = 1
    prev = MultiPoly.const(1)
    for k in range(n - 1):
        if M[k][k].is_zero:
            for r in range(k + 1, n):
                if not M[r][k].is_zero:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.const(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]).exact_div(prev)
            M[i][k] = MultiPoly.const(0)
        prev = M[k][k]
    out = M[n - 1][n - 1]
    return out if sign == 1 else -out


def _coeff_row(coeffs: list, shift: int, top: int, bottom: int) -> list:
    """Coefficients of x^shift * p from degree ``top`` down to ``bottom``."""
    row = []
    for d in range(top, bottom - 1, -1):
        idx = d - shift
        row.append(coeffs[idx] if 0 <= idx < len(coeffs) else MultiPoly.const(0))
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
    main variable (index = degree, MultiPoly entries over the others,
    nonzero last entry); psc_0 is the resultant with the larger degree
    first.  Empty when either degree is < 1."""
    m, n = len(fc) - 1, len(gc) - 1
    if m < 1 or n < 1:
        return []
    if m < n:
        fc, gc, m, n = gc, fc, n, m
    return [det_bareiss(_subresultant_matrix(fc, gc, j)) for j in range(n)]


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Res(f, g) in ``var``, the Sylvester determinant; a swap to put
    the larger degree first costs the sign (-1)^(deg f * deg g)."""
    fc = f.as_univar(var)
    gc = g.as_univar(var)
    m, n = len(fc) - 1, len(gc) - 1
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of a zero polynomial")
    sign = 1
    if m < n:
        fc, gc, m, n = gc, fc, n, m
        if (m * n) % 2:
            sign = -1
    out = gc[0] ** m if n == 0 else det_bareiss(_subresultant_matrix(fc, gc, 0))
    return out if sign == 1 else -out
