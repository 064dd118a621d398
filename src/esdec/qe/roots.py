"""Exact univariate real root isolation and real algebraic numbers.

Univariate polynomials appear here as dense Fraction coefficient lists
(index = degree).  Root isolation is Sturm-chain bisection of the
squarefree integer primitive part sf; every interval returned has
rational non-root endpoints and exactly one root inside.

Every rational root comes back as an exact point, by the rational root
theorem: a root p/q in lowest terms has q | lead(sf), and two distinct
fractions with denominators <= |lead| differ by at least 1/lead^2.  So
once an isolating interval is narrower than 1/lead^2, a rational root
inside lies within 1/(2 lead^2) of the midpoint and every other such
fraction lies farther: the only candidate is the fraction nearest the
midpoint with denominator <= |lead|.  The root is rational exactly when
that candidate lies strictly inside the interval (else it may be another
root of sf) and sf vanishes there.  A linear sf gives its root
-sf[0]/sf[1] directly.

A real algebraic number is a squarefree integer-coefficient defining
polynomial plus an isolating interval (or an exact rational).  Signs of
arbitrary polynomials at such numbers are decided exactly: a gcd test
recognizes zero, interval refinement settles everything else.

Multivariate sign evaluation at sample points mixing rationals and
algebraic numbers works by interval arithmetic with adaptive
refinement; exact zero recognition goes through a resultant cascade
that produces an integer "characteristic" polynomial of the queried
value, whose nonzero roots are bounded away from zero by a computable
gap.  This keeps every decision exact without any numeric fallback.
The cascade is built only when an enclosure of the value holds zero,
and root finding accepts a candidate root without a zero test at it
when the polynomial changes sign across the candidate's isolating
interval.  A cascade step whose resultant vanishes identically (a
reducible defining polynomial, or coordinates that depend on each
other) is repaired by splitting the defining polynomial and dividing
the shared factor out; see _eliminate_algebraics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from ..errors import ResourceLimitError
from ..poly import MultiPoly

Coeffs = list  # list[Fraction], index = degree


def utrim(c: Coeffs) -> Coeffs:
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def udeg(c: Coeffs) -> int:
    c = utrim(c)
    return 0 if (len(c) == 1 and c[0] == 0) else len(c) - 1


def uis_zero(c: Coeffs) -> bool:
    return all(x == 0 for x in c)


def ueval(c: Coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coeff in reversed(c):
        acc = acc * x + coeff
    return acc


def uderiv(c: Coeffs) -> Coeffs:
    if len(c) <= 1:
        return [Fraction(0)]
    return [Fraction(i) * c[i] for i in range(1, len(c))]


def _positive_primitive(c: Coeffs) -> Coeffs:
    """Content-normalized by a positive rational: signs preserved."""
    c = utrim(c)
    if uis_zero(c):
        return [Fraction(0)]
    den = 1
    for x in c:
        den = den * x.denominator // int_gcd(den, x.denominator)
    ints = [x * den for x in c]
    g = 0
    for x in ints:
        g = int_gcd(g, abs(int(x)))
    return [x / g for x in ints]


def uprimitive(c: Coeffs) -> Coeffs:
    """Integer primitive form with positive leading coefficient."""
    ints = _positive_primitive(c)
    return [-x for x in ints] if ints[-1] < 0 else ints


def udivmod(a: Coeffs, b: Coeffs):
    a = utrim(a)
    b = utrim(b)
    if uis_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    db = udeg(b)
    while not uis_zero(r) and udeg(r) >= db:
        shift = udeg(r) - db
        factor = r[udeg(r)] / b[db]
        q[shift] += factor
        for i in range(len(b)):
            r[i + shift] -= factor * b[i]
        r = utrim(r)
    return utrim(q), utrim(r)


def ugcd(a: Coeffs, b: Coeffs) -> Coeffs:
    a, b = utrim(a), utrim(b)
    while not uis_zero(b):
        _, r = udivmod(a, b)
        a, b = b, r
    return uprimitive(a) if not uis_zero(a) else [Fraction(0)]


def usquarefree(c: Coeffs) -> Coeffs:
    c = utrim(c)
    if udeg(c) <= 1:
        return uprimitive(c) if not uis_zero(c) else c
    g = ugcd(c, uderiv(c))
    if udeg(g) == 0:
        return uprimitive(c)
    q, r = udivmod(c, g)
    if not uis_zero(r):
        raise AssertionError("the gcd with the derivative must divide exactly")
    return uprimitive(q)


def sturm_chain(c: Coeffs) -> list:
    """Sturm chain of a squarefree polynomial, scaled only by positive
    rationals so sign variations stay faithful."""
    chain = [_positive_primitive(c)]
    d = uderiv(c)
    if not uis_zero(d):
        chain.append(_positive_primitive(d))
        while True:
            _, r = udivmod(chain[-2], chain[-1])
            if uis_zero(r):
                break
            chain.append(_positive_primitive([-x for x in r]))
    return chain


def _variations(signs: list) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_count(chain: list, lo: Fraction, hi: Fraction) -> int:
    """Distinct roots in (lo, hi]; requires chain[0](lo) != 0."""
    def sgn(v):
        return 0 if v == 0 else (1 if v > 0 else -1)
    va = _variations([sgn(ueval(p, lo)) for p in chain])
    vb = _variations([sgn(ueval(p, hi)) for p in chain])
    return va - vb


def cauchy_bound(c: Coeffs) -> Fraction:
    c = utrim(c)
    lead = abs(c[-1])
    rest = max((abs(x) for x in c[:-1]), default=Fraction(0))
    return 1 + rest / lead


def isolate_squarefree(c: Coeffs) -> list:
    """Isolating intervals for a squarefree polynomial: (r, r) for exact
    rational roots, open (lo, hi) with one root and non-root rational
    endpoints otherwise.  Sorted ascending."""
    c = utrim(c)
    if udeg(c) == 0:
        return []
    chain = sturm_chain(c)
    B = cauchy_bound(c)
    out = []

    def rec(lo, hi, count):
        if count == 0:
            return
        if count == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if ueval(c, mid) == 0:
            out.append((mid, mid))
            # shrink around the exact root until it is the only one inside
            w = (hi - lo) / 4
            while True:
                l2, h2 = mid - w, mid + w
                if ueval(c, l2) != 0 and ueval(c, h2) != 0 and sturm_count(chain, l2, h2) == 1:
                    break
                w /= 2
            rec(lo, l2, sturm_count(chain, lo, l2))
            rec(h2, hi, sturm_count(chain, h2, hi))
        else:
            rec(lo, mid, sturm_count(chain, lo, mid))
            rec(mid, hi, sturm_count(chain, mid, hi))

    total = sturm_count(chain, -B, B)
    rec(-B, B, total)
    return sorted(out)


class RealAlgebraicNumber:
    """A real root of a squarefree integer polynomial, isolated by a
    rational interval; exact rationals collapse to a direct value.

    Refinement narrows the interval in place (always preserving the
    isolating property), so instances may be shared freely.  It moves
    ``lo`` only to a point where the defining polynomial has the sign it
    has at ``lo``, so that sign is fixed once and each bisection step
    costs one evaluation.
    """

    __slots__ = ("poly", "lo", "hi", "value", "_lo_positive")

    def __init__(self, poly: Coeffs | None, lo: Fraction, hi: Fraction,
                 value: Fraction | None = None):
        if value is not None:
            self.value = Fraction(value)
            self.poly = None
            self.lo = self.hi = self.value
            return
        self.value = None
        self.poly = [Fraction(x) for x in poly]
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        at_lo = ueval(self.poly, self.lo)
        if at_lo == 0 or ueval(self.poly, self.hi) == 0:
            raise ValueError("isolating interval endpoints must not be roots")
        self._lo_positive = at_lo > 0

    @staticmethod
    def from_rational(q) -> "RealAlgebraicNumber":
        return RealAlgebraicNumber(None, 0, 0, value=Fraction(q))

    @property
    def is_rational(self) -> bool:
        return self.value is not None

    def interval(self):
        return (self.lo, self.hi)

    def refine(self):
        if self.value is not None:
            return
        mid = (self.lo + self.hi) / 2
        v = ueval(self.poly, mid)
        if v == 0:
            self.value = mid
            self.lo = self.hi = mid
            self.poly = None
            return
        if (v > 0) == self._lo_positive:
            self.lo = mid
        else:
            self.hi = mid

    def restrict(self, factor: Coeffs):
        """Define this number by whichever of ``factor``, a factor of the
        defining polynomial, and its cofactor it is a root of.  Either has
        only roots of the defining polynomial, so the interval stays
        isolating; a linear one gives the number's rational value.
        Returns whether the number is a root of ``factor``."""
        is_root = self.sign_of_poly(factor) == 0
        if self.value is not None:
            return is_root
        factor = uprimitive(factor if is_root else udivmod(self.poly, factor)[0])
        if udeg(factor) == 1:
            self.value = -factor[0] / factor[1]
            self.lo = self.hi = self.value
            self.poly = None
        else:
            self.poly = factor
            self._lo_positive = ueval(factor, self.lo) > 0
        return is_root

    def sign_of_poly(self, q: Coeffs) -> int:
        """Exact sign of q at this number."""
        q = utrim(q)
        if self.value is not None:
            v = ueval(q, self.value)
            return 0 if v == 0 else (1 if v > 0 else -1)
        if uis_zero(q):
            return 0
        # q vanishes here iff gcd(defining, q) has a root in the isolating
        # interval; the gcd divides the defining polynomial, so neither
        # endpoint can be one of its roots and a Sturm count is exact.
        g = ugcd(self.poly, q)
        if udeg(g) > 0 and sturm_count(sturm_chain(g), self.lo, self.hi) > 0:
            return 0
        qsf = usquarefree(q)
        chain_q = sturm_chain(qsf)
        while True:
            if self.value is not None:
                return self.sign_of_poly(q)
            vlo, vhi = ueval(q, self.lo), ueval(q, self.hi)
            if vlo != 0 and vhi != 0 and sturm_count(chain_q, self.lo, self.hi) == 0:
                return 1 if vlo > 0 else -1
            self.refine()

    def compare_rational(self, r: Fraction) -> int:
        if self.value is not None:
            return 0 if self.value == r else (1 if self.value > r else -1)
        # the number lies strictly inside its isolating interval
        if r <= self.lo:
            return 1
        if r >= self.hi:
            return -1
        return self.sign_of_poly([-Fraction(r), Fraction(1)])

    def compare(self, other: "RealAlgebraicNumber") -> int:
        if other.value is not None:
            return self.compare_rational(other.value)
        if self.value is not None:
            return -other.compare_rational(self.value)
        # equality test: the numbers coincide iff gcd(p1, p2) has a root
        # in the overlap of the isolating intervals (such a root lies in
        # both intervals and is a root of both polynomials, hence is both
        # numbers; the gcd's roots avoid all four endpoints)
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo < hi:
            g = ugcd(self.poly, other.poly)
            if udeg(g) > 0 and sturm_count(sturm_chain(g), lo, hi) > 0:
                return 0
        while not (self.hi < other.lo or other.hi < self.lo):
            if self.value is not None or other.value is not None:
                return self.compare(other)
            self.refine()
            other.refine()
        return -1 if self.hi < other.lo else 1

    def __repr__(self):
        if self.value is not None:
            return f"RealAlgebraicNumber({self.value})"
        return f"RealAlgebraicNumber({self.poly}, ({self.lo}, {self.hi}))"


def _settle(sf: Coeffs, lo: Fraction, hi: Fraction):
    """The root of the integer squarefree ``sf`` isolated in (lo, hi):
    a Fraction when it is rational, else a narrowed isolating interval.
    Bisect below 1/lead^2, then test the one rational candidate (see the
    module docstring)."""
    lead = int(sf[-1])
    gap = Fraction(1, lead * lead)
    lo_positive = ueval(sf, lo) > 0
    while hi - lo >= gap:
        mid = (lo + hi) / 2
        v = ueval(sf, mid)
        if v == 0:
            return mid
        if (v > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
    cand = ((lo + hi) / 2).limit_denominator(lead)
    # a candidate outside (lo, hi) may be a root of sf, but not this one
    if lo < cand < hi and ueval(sf, cand) == 0:
        return cand
    return lo, hi


def isolate_real_roots(p) -> list:
    """All distinct real roots of a nonzero univariate polynomial, as
    RealAlgebraicNumber, ascending.  Accepts a MultiPoly in one variable
    or a coefficient list.  Rational roots come back as exact values;
    irrational ones are defined by the squarefree part with its rational
    roots divided out."""
    if isinstance(p, MultiPoly):
        used = p.used_vars()
        if len(used) > 1:
            raise ValueError("isolate_real_roots needs a univariate polynomial")
        if not used:
            if p.is_zero:
                raise ValueError("cannot isolate roots of the zero polynomial")
            return []
        coeffs = [c.constant_value() for c in p.as_univar(used[0])]
    else:
        coeffs = [Fraction(x) for x in p]
    if uis_zero(coeffs):
        raise ValueError("cannot isolate roots of the zero polynomial")
    sf = usquarefree(coeffs)
    if udeg(sf) == 1:
        return [RealAlgebraicNumber.from_rational(-sf[0] / sf[1])]
    settled = [lo if lo == hi else _settle(sf, lo, hi) for lo, hi in isolate_squarefree(sf)]
    # defining the irrational roots by sf itself would keep its rational
    # roots, at which an elimination resultant can vanish identically
    rest = sf
    for r in settled:
        if not isinstance(r, tuple):
            rest, _ = udivmod(rest, [-r, Fraction(1)])
    rest = uprimitive(rest)
    return [RealAlgebraicNumber(rest, *r) if isinstance(r, tuple)
            else RealAlgebraicNumber.from_rational(r) for r in settled]


# -- signs and roots at mixed rational/algebraic sample points ----------


def _iadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _imul(a, b):
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(vals), max(vals))


def _ipow(a, e: int):
    out = (Fraction(1), Fraction(1))
    for _ in range(e):
        out = _imul(out, a)
    return out


def interval_eval(p: MultiPoly, boxes: dict) -> tuple:
    """Interval enclosure of p over a box with Fraction endpoints."""
    total = (Fraction(0), Fraction(0))
    for mono, coeff in p.terms.items():
        term = (Fraction(coeff), Fraction(coeff))
        for v, e in zip(p.vars, mono):
            if e:
                term = _imul(term, _ipow(boxes[v], e))
        total = _iadd(total, term)
    return total


def _defining_multipoly(a: RealAlgebraicNumber, var: str) -> MultiPoly:
    terms = {(i,): Fraction(c) for i, c in enumerate(a.poly) if c != 0}
    return MultiPoly((var,), terms)


def _reduce_mod(M: MultiPoly, defining: Coeffs, var: str) -> MultiPoly:
    """Remainder of M modulo the defining polynomial, as a polynomial in
    ``var`` (exact; the defining leading coefficient is a nonzero
    rational).  Leaves the value at the algebraic number unchanged."""
    if var not in M.vars:
        return M
    coeffs = M.as_univar(var)
    dm = udeg(defining)
    if dm == 0:
        return M
    lead_inv = Fraction(1) / defining[dm]
    while len(coeffs) - 1 >= dm:
        top = len(coeffs) - 1
        lead = coeffs[top]
        if lead.is_zero:
            coeffs.pop()
            continue
        factor = lead * lead_inv
        for i in range(dm + 1):
            coeffs[top - dm + i] = coeffs[top - dm + i] - factor * MultiPoly.const(defining[i])
        coeffs.pop()
    return MultiPoly.from_univar(coeffs, var)


def _coeffs_in(M: MultiPoly, var: str) -> dict:
    """M as univariate coefficient lists in ``var``, one per monomial in
    the other variables (exponent tuples with var's entry dropped)."""
    i = M.vars.index(var)
    by_rest: dict = {}
    for mono, coeff in M.terms.items():
        by_rest.setdefault(mono[:i] + mono[i + 1:], {})[mono[i]] = coeff
    return {rest: [powers.get(k, Fraction(0)) for k in range(max(powers) + 1)]
            for rest, powers in by_rest.items()}


def _shared_factor(defining: Coeffs, M: MultiPoly, var: str) -> Coeffs:
    """gcd of the defining polynomial and every coefficient of M taken
    as a polynomial in ``var`` over the other variables."""
    g = defining
    for coeffs in _coeffs_in(M, var).values():
        g = ugcd(g, coeffs)
        if udeg(g) == 0:
            break
    return g


def _divide_out(M: MultiPoly, factor: Coeffs, var: str) -> MultiPoly:
    """M divided by the highest power of factor(var) that divides it."""
    i = M.vars.index(var)
    parts = _coeffs_in(M, var)
    while True:
        quotients = {}
        for rest, coeffs in parts.items():
            q, r = udivmod(coeffs, factor)
            if not uis_zero(r):
                return MultiPoly(M.vars, {
                    other[:i] + (k,) + other[i:]: c
                    for other, cs in parts.items() for k, c in enumerate(cs)})
            quotients[rest] = q
        parts = quotients


def _eliminate_algebraics(M: MultiPoly, algs: dict) -> MultiPoly:
    """Cascade of resultants with the defining polynomials; the result
    vanishes wherever M vanishes at the actual algebraic coordinates
    (with conjugate combinations possibly adding spurious zeros).

    A resultant vanishes identically when the defining polynomial shares
    a factor with every coefficient of the polynomial ``out`` it is taken
    with.  The number is redefined by that factor or by its cofactor,
    whichever it is a root of (RealAlgebraicNumber.restrict), and the step
    is redone.  In the first case ``out`` vanishes identically at the
    number: it is the product over the conjugates of the numbers
    eliminated before, and some conjugate's factor vanishes there.  The
    factor taken by the actual numbers does not, so dividing ``out`` by
    the highest power of the shared factor keeps its zeros and leaves a
    polynomial that does not vanish identically at the number."""
    from .resultants import resultant

    out = M
    for v in sorted(algs, key=lambda s: s):
        a = algs[v]
        while not out.is_zero:
            if a.is_rational:
                out = out.partial_eval({v: a.value}) if v in out.vars else out
                break
            reduced = _reduce_mod(out, a.poly, v)
            if not reduced.is_zero:
                if v not in reduced.used_vars():
                    out = reduced.partial_eval({v: Fraction(0)}) if v in reduced.vars else reduced
                    break
                res = resultant(_defining_multipoly(a, v), reduced, v)
                if not res.is_zero:
                    out = res
                    break
            shared = _shared_factor(a.poly, out, v)
            if udeg(shared) == 0:  # not reached: a zero resultant needs a shared factor
                return MultiPoly.zero()
            if a.restrict(shared):
                out = _divide_out(out, shared, v)
    return out


def _fresh_var(avoid) -> str:
    i = 0
    while f"W{i}" in avoid:
        i += 1
    return f"W{i}"


def _nonzero_root_gap(N: Coeffs) -> Fraction:
    """Positive rational strictly below every nonzero real root magnitude."""
    N = utrim(N)
    k = 0
    while k < len(N) and N[k] == 0:
        k += 1
    tail = N[k:]
    c0 = abs(tail[0])
    rest = max((abs(c) for c in tail[1:]), default=Fraction(0))
    return c0 / (c0 + rest) if rest else Fraction(1)


def _split_point(point: dict):
    rats, algs = {}, {}
    for v, x in point.items():
        if isinstance(x, RealAlgebraicNumber):
            if x.is_rational:
                rats[v] = x.value
            else:
                algs[v] = x
        else:
            rats[v] = Fraction(x)
    return rats, algs


def sign_at_point(p: MultiPoly, point: dict) -> int:
    """Exact sign of p at a sample point whose coordinates are Fractions
    or RealAlgebraicNumbers."""
    rats, algs = _split_point(point)
    q = p.partial_eval(rats).drop_unused()
    live = {v: algs[v] for v in q.used_vars()}
    if not live:
        v = q.constant_value()
        return 0 if v == 0 else (1 if v > 0 else -1)
    if len(live) == 1:
        (v, a), = live.items()
        coeffs = [c.constant_value() for c in q.as_univar(v)]
        return a.sign_of_poly(coeffs)

    gap = None
    while True:
        box = interval_eval(q, {v: a.interval() for v, a in live.items()})
        if box[0] > 0:
            return 1
        if box[1] < 0:
            return -1
        if gap is None:
            # built only once an enclosure holds zero: most signs are
            # read off the first enclosure
            tvar = _fresh_var(q.vars)
            M = MultiPoly.var(tvar, (tvar,) + q.vars) - q.with_vars((tvar,) + q.vars)
            N_poly = _eliminate_algebraics(M, live)
            ncoeffs = [c.constant_value() for c in N_poly.as_univar(tvar)]
            if any(c is None for c in ncoeffs) or uis_zero(ncoeffs):
                raise ResourceLimitError("degenerate characteristic polynomial")
            zero_possible = ncoeffs[0] == 0
            gap = _nonzero_root_gap(ncoeffs)
        if not zero_possible:
            pass  # the value is a nonzero root of N; keep refining
        elif -gap < box[0] and box[1] < gap:
            return 0
        collapsed = False
        for a in live.values():
            a.refine()
            collapsed = collapsed or a.is_rational
        if collapsed:
            return sign_at_point(p, point)


def _changes_sign_around(p: MultiPoly, point: dict, var: str, root) -> bool:
    """Whether p(sample, var) has opposite signs at the two ends of an
    irrational root's isolating interval.  The interval isolates the root
    among those of the elimination polynomial, which has every root of
    p(sample, var), so a sign change puts a root of p at the root, and
    p is not zero at either end.  The ends are rational, so this spares
    the zero test at the root itself, whose characteristic polynomial
    carries the root's defining polynomial."""
    if root.is_rational:
        return False
    lo, hi = root.interval()
    return sign_at_point(p, {**point, var: lo}) * sign_at_point(p, {**point, var: hi}) < 0


def roots_at_point(p: MultiPoly, point: dict, var: str):
    """Real roots (ascending RealAlgebraicNumbers) of p(sample, var), or
    None when p vanishes identically at the sample.  The coefficients are
    evaluated at the rational coordinates once; a constant one gives its
    sign directly, and only one with a live algebraic variable goes to
    sign_at_point, at the algebraic coordinates.  When no algebraic
    coordinate is left in the coefficients, their rational values go
    straight to isolate_real_roots."""
    rats, algs = _split_point(point)
    coeffs = p.partial_eval(rats).as_univar(var)
    deg = -1
    for i in range(len(coeffs) - 1, -1, -1):
        value = coeffs[i].constant_value()
        if value is None:
            value = sign_at_point(coeffs[i], algs)
        if value != 0:
            deg = i
            break
    if deg < 0:
        return None
    if deg == 0:
        return []
    coeffs = coeffs[: deg + 1]
    live = {v: algs[v] for c in coeffs for v in c.used_vars()}
    if not live:
        return isolate_real_roots([c.constant_value() for c in coeffs])
    trunc = MultiPoly.from_univar(coeffs, var)
    N_poly = _eliminate_algebraics(trunc, live)
    if N_poly.is_zero:
        raise ResourceLimitError("algebraic lifting degeneracy: cascade vanished")
    ncoeffs = [c.constant_value() for c in N_poly.as_univar(var)]
    if any(c is None for c in ncoeffs) or uis_zero(ncoeffs):
        raise ResourceLimitError("algebraic lifting degeneracy: cascade vanished")
    out = []
    for cand in isolate_real_roots(ncoeffs):
        if _changes_sign_around(trunc, algs, var, cand) or \
                sign_at_point(trunc, {**algs, var: cand}) == 0:
            out.append(cand)
    return out
