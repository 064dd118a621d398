"""Transform substitution, coefficient decomposition, and growth-order signs.

The two rational transformations used throughout the package are

    F1: x -> X + Y*x        F2: x -> X + Y/x

Substituting a transform into a k-variate polynomial p(x1..xk) and
clearing denominators yields a pair (num, den) of polynomials over
y1..yk, X, Y.  Each term of p is expanded in closed form by the
binomial theorem under F1; the F2 numerator is the F1 numerator with
each y_i exponent j reflected to deg_{x_i} p - j (the argument is in
``substitute_transform``).  The expansion runs on ints, on p scaled by
the lcm of its coefficient denominators, and divides each sum by that
lcm once: it is linear in the coefficients, so the terms are exactly
those of expanding with Fractions.  Grouping num by y-monomials
gives the coefficient decomposition q = sum_a q_a(X, Y) * y^a whose
support drives the dominance analysis: on sequences that grow fast
enough, the sign of a polynomial at any increasing tuple is the sign
of the coefficient of its dominant monomial.

Dominance orientation: for ascending tuples (later arguments
astronomically larger) the dominant exponent vector maximizes
(a_k, ..., a_1) lexicographically; for descending tuples it maximizes
(a_1, ..., a_k).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, lcm
from typing import Sequence

from .poly import Monomial, MultiPoly

_XVAR = re.compile(r"x(\d+)\Z")
_YVAR = re.compile(r"y(\d+)\Z")


class TransformKind(enum.Enum):
    F1 = "F1"  # x -> X + Y*x
    F2 = "F2"  # x -> X + Y/x


def y_names(k: int) -> tuple:
    return tuple(f"y{i}" for i in range(1, k + 1))


def infer_arity(p: MultiPoly, pattern: re.Pattern = _XVAR) -> int:
    best = 0
    for v in p.used_vars():
        m = pattern.match(v)
        if m:
            best = max(best, int(m.group(1)))
    return best


def substitute_transform(
    p: MultiPoly, kind: TransformKind, k: int | None = None
) -> tuple[MultiPoly, MultiPoly]:
    """Substitute x_i = f(y_i, X, Y) into p and clear denominators.

    Returns (num, den) over y1..yk, X, Y.  For F1 the denominator is 1;
    for F2 it is prod y_i^(d_i) with d_i = deg_{x_i} p.  k defaults to
    the largest x-index appearing in p; pass the ambient arity when p is
    an atom of a wider predicate.  Variables that p does not use (a
    cancelled x2, say) are dropped first, so they need not lie within k;
    any other variable outside x1..xk raises ValueError, for both kinds.

    Each term is expanded in closed form.  Under F1 a term
    c * prod x_i^(e_i) becomes c * prod (X + Y*y_i)^(e_i), which by the
    binomial theorem is the sum over 0 <= j_i <= e_i of
    c * prod C(e_i, j_i) * y^j * X^(|e| - |j|) * Y^|j|.

    F2 is derived from F1.  The same term becomes
    c * prod (X + Y/y_i)^(e_i) * y_i^(d_i) = c * prod (X*y_i + Y)^(e_i) *
    y_i^(d_i - e_i) under F2.  Expanding, the F1 term X^(e-j) Y^j y_i^j
    pairs with the F2 term X^(e-j) Y^j y_i^(d_i - j), with the same
    binomial coefficient.  So the F2 numerator is the F1 numerator with
    every y_i exponent j replaced by d_i - j.  j <= e_i <= d_i keeps the
    result a polynomial, and j -> d_i - j is a bijection of 0..d_i, so no
    two terms merge.

    The sums are taken on ints.  With L the lcm of p's coefficient
    denominators, L*p has int coefficients, and its expansion is L times
    that of p, term by term, since the expansion is linear in the
    coefficients.  So each nonzero int sum s gives the term Fraction(s, L)
    of p's expansion exactly, and a zero sum is a term that cancels.
    """
    if kind not in (TransformKind.F1, TransformKind.F2):
        raise ValueError(f"unknown transform {kind!r}")
    p = p.drop_unused()
    if k is None:
        k = infer_arity(p)
    allv = y_names(k) + ("X", "Y")
    slots = []  # y position of each variable of p
    for v in p.vars:
        m = _XVAR.match(v)
        if not m or not 1 <= int(m.group(1)) <= k:
            raise ValueError(f"{v!r} is not among x1..x{k}")
        slots.append(int(m.group(1)) - 1)
    degs = [0] * k
    for slot, column in zip(slots, zip(*p.terms)):
        degs[slot] = max(column)
    reflect = kind is TransformKind.F2
    L = lcm(*(c.denominator for c in p.terms.values()))
    sums: dict = {}  # int coefficients of the expansion of L*p
    for mono, coeff in p.terms.items():
        scaled = coeff.numerator * (L // coeff.denominator)
        for js in product(*(range(e + 1) for e in mono)):
            c, ys = scaled, [0] * k
            for slot, e, j in zip(slots, mono, js):
                c *= comb(e, j)
                ys[slot] = degs[slot] - j if reflect else j
            key = (*ys, sum(mono) - sum(js), sum(js))
            sums[key] = sums.get(key, 0) + c
    num = MultiPoly._make(allv, {key: Fraction(c, L) for key, c in sums.items() if c})
    den = tuple(degs) + (0, 0) if reflect else (0,) * (k + 2)
    return num, MultiPoly._make(allv, {den: Fraction(1)})


@dataclass(frozen=True)
class CoefficientDecomposition:
    """q(y1..yk, X, Y) regrouped as sum_a q_a(X, Y) * y^a.

    ``support`` is the set of y-exponent vectors with a nonzero
    coefficient polynomial; ``coeffs`` maps each of them to q_a over
    (X, Y).  Reassembling always reproduces ``source`` exactly.
    """

    source: MultiPoly
    k: int
    support: frozenset
    coeffs: dict

    def reassemble(self) -> MultiPoly:
        allv = y_names(self.k) + ("X", "Y")
        acc = MultiPoly.zero(allv)
        for alpha in sorted(self.support):
            piece = self.coeffs[alpha].with_vars(allv)
            for y, e in zip(y_names(self.k), alpha):
                if e:
                    piece = piece * MultiPoly.var(y, allv) ** e
            acc = acc + piece
        return acc


def coefficient_decomposition(q: MultiPoly, k: int | None = None) -> CoefficientDecomposition:
    """Group a polynomial over y1..yk, X, Y by its y-monomials.

    ``source`` is q over at least y1..yk, X, Y.  A variable outside
    those that some term uses raises ValueError: its exponents would
    have no place in the grouping.  k defaults to the largest y-index
    appearing in q."""
    if q.is_zero:
        raise ValueError("coefficient_decomposition: zero polynomial")
    if k is None:
        k = infer_arity(q, _YVAR)
    allv = y_names(k) + ("X", "Y")
    for v in q.vars:
        if v not in allv and v in q.used_vars():
            raise ValueError(f"{v!r} is not among y1..y{k}, X, Y")
    q = q.with_vars(tuple(set(allv) | set(q.vars)))
    ypos = [q.vars.index(y) for y in y_names(k)]
    ix, iy = q.vars.index("X"), q.vars.index("Y")
    buckets: dict = {}
    for mono, coeff in q.terms.items():
        alpha = tuple([mono[i] for i in ypos])
        buckets.setdefault(alpha, {})[mono[ix], mono[iy]] = coeff
    coeffs = {alpha: MultiPoly._make(("X", "Y"), terms) for alpha, terms in buckets.items()}
    return CoefficientDecomposition(
        source=q, k=k, support=frozenset(coeffs), coeffs=coeffs
    )


def dominant_monomial(support: Sequence[Monomial], orientation: str = "ascending") -> Monomial:
    """The exponent vector whose term dominates on fast-growing tuples.

    ``ascending``: maximize (a_k, ..., a_1) lexicographically (later
    slots carry larger values).  ``descending``: maximize (a_1, ..., a_k).
    """
    items = list(support)
    if not items:
        raise ValueError("dominant_monomial: empty support")
    if orientation == "ascending":
        return max(items, key=lambda a: tuple(reversed(a)))
    if orientation == "descending":
        return max(items)
    raise ValueError(f"unknown orientation {orientation!r}")


def lex_sign_on_growing(p: MultiPoly) -> int:
    """Sign p takes at every increasing tuple of a fast-growing sequence.

    Zero iff p is identically zero; otherwise the sign of the dominant
    monomial's coefficient.
    """
    if p.is_zero:
        return 0
    xs = [v for v in p.vars if _XVAR.match(v) or _YVAR.match(v)]
    pos = [p.vars.index(v) for v in xs]
    support = {}
    for mono, coeff in p.terms.items():
        support[tuple(mono[i] for i in pos)] = coeff
    alpha = dominant_monomial(list(support), "ascending")
    c = support[alpha]
    return 1 if c > 0 else -1


def sufficient_R(p: MultiPoly) -> int:
    """An integer R making the dominant-monomial sign rule exact on every
    R-growing sequence.

    With integerized coefficients (max magnitude M, total degree D), a
    competitor differing from the dominant monomial last at slot j >= 2
    is suppressed by a factor >= R^(R/2) once R >= 2(D+1), and the
    slot-1 stragglers (one per gap) form a geometric series summing to
    at most M/(R-1).  R = max(3, 2(D+1), M+2, 8) therefore keeps the
    dominant term strictly larger than the sum of all others.  Safe,
    not tight; validated by the oracle-agreement suite.
    """
    if p.is_zero or p.constant_value() is not None:
        return 3
    prim = p.primitive()
    M = int(prim.max_abs_coeff())
    D = prim.total_degree()
    T = len(prim.terms)
    R = max(3, 2 * (D + 1), M + 2, 8)
    while R ** 4 <= T * M * (M + 1):
        R += 1
    return R


def spanning_subset(polys: Sequence[MultiPoly], degree_bound: int, nvars: int) -> list:
    """A subfamily spanning the same coefficient space (hence defining
    the same common zero set), of size at most C(degree_bound+nvars, nvars).

    Inputs must have total degree <= degree_bound and use at most
    ``nvars`` variables.  Greedy Gaussian elimination over the monomial
    basis keeps exactly the rank-increasing members, in input order.
    """
    pivots: list = []  # (pivot column, reduced row) pairs
    chosen = []

    def vectorize(p: MultiPoly) -> dict:
        q = p.drop_unused()
        vec: dict = {}
        for mono, coeff in q.terms.items():
            col = tuple(sorted((v, e) for v, e in zip(q.vars, mono) if e))
            vec[col] = coeff
        return vec

    for p in polys:
        if p.total_degree() > degree_bound:
            raise ValueError("spanning_subset: degree bound violated")
        if len(p.used_vars()) > nvars:
            raise ValueError("spanning_subset: variable count violated")
        vec = vectorize(p)
        for col, rowvec in pivots:
            if col in vec:
                factor = vec[col] / rowvec[col]
                for c2, v2 in rowvec.items():
                    s = vec.get(c2, Fraction(0)) - factor * v2
                    if s == 0:
                        vec.pop(c2, None)
                    else:
                        vec[c2] = s
        if vec:
            pivots.append((min(vec), vec))
            chosen.append(p)
    assert len(chosen) <= comb(degree_bound + nvars, nvars)
    return chosen
