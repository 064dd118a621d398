"""Exact univariate real root isolation and real algebraic numbers.

Univariate polynomials appear here as dense int coefficient lists
(index = degree).  isolate_real_roots also takes a Fraction list or a
MultiPoly, and RealAlgebraicNumber.sign_of_poly a Fraction list; each
converts its input once, on entry, to a positive multiple with int
coefficients and no content (_to_ints), which has the same roots and
the same signs.  A polynomial evaluated at a rational point arrives as
an int list already (see below), and a linear one gives its root
-c0/c1 at once.

The int kit:

* the sign of c at n/d (d > 0) is the sign of d^deg * c(n/d), the sum
  of c_i * n^i * d^(deg - i), taken by Horner in ints (usign);
* a pseudo-remainder (_prem) multiplies the running remainder r by
  |lc(b)| / g, with g = gcd(lc(r), lc(b)), before each step cancels
  r's lead, so it is a positive multiple of the remainder over Q and
  has its signs;
* the quotient by a primitive divisor that divides exactly has int
  coefficients (Gauss's lemma), so long division in ints finds it, and
  a step that does not divide in ints shows that there is no quotient
  (_quotient);
* a gcd comes from the primitive remainder sequence: pseudo-remainders,
  each divided by its content (ugcd).

Root isolation is Sturm-chain bisection of the squarefree primitive
part sf; every interval returned has rational non-root endpoints and
exactly one root inside.  The chain is the signed remainder sequence of
(sf, sf') with each member divided by a positive constant
(_remainders), so its sign sequences, and with them the bisection
midpoints and the isolating intervals, are those of the chain over Q.
Sturm stays rather than Descartes' rule with Vincent-Collins-Akritas
bisection: that gives other intervals, and cad picks a sector's sample
from the interval ends around it (_rational_between), so samples and
witnesses would move; and the same remainder sequence answers the
Tarski queries below.

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

A real algebraic number is a squarefree int polynomial p plus an
isolating interval (lo, hi) (or an exact rational).  The sign of q at
it is one Tarski query (Basu, Pollack and Roy, Algorithms in Real
Algebraic Geometry, ch. 2): for a < b not roots of p, the sign
variations of the signed remainder sequence of (p, p'q) at a minus
those at b are the sum of sign q(x) over the roots x of p in (a, b).
The interval holds one root, so that sum is the sign.  q is first
replaced by its pseudo-remainder by p, which has q's sign at every root
of p and a degree below p's.  A rational r inside the interval compares
with the number by p's sign at r alone: the root inside is simple, as p
is squarefree, so p has its sign at lo exactly left of the root.  Two
irrational numbers are equal exactly when g = gcd(p1, p2) changes sign
across the overlap of their intervals: g divides p1, so its roots are
simple roots of p1, at most one of them inside the overlap, and none at
its ends, each of which is an end of an interval, where p1 or p2 is
not zero.

At a sample point whose coordinates on the variables a polynomial uses
are all rational, its sign and its coefficients in the main variable
are computed in ints, scaled by one positive common denominator
(_int_coeffs); a positive factor changes neither a sign nor a root.
What this reads of the polynomial itself (the variables it uses, its
degrees in them, and its terms scaled by the lcm of their denominators)
is its int form.  The form and its evaluation live in ``poly``
(int_form, eval_int_form), which the sequence side shares
(MultiPoly.sign_at); a caller that evaluates one polynomial at many
points builds the form once and passes it in.
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
from math import gcd, lcm

from ..errors import ResourceLimitError
from ..poly import MultiPoly, eval_int_form, int_form


def utrim(c: list) -> list:
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def usign(c: list, x: Fraction) -> int:
    """Sign of the int list c at x, by Horner on d^deg * c(n/d)."""
    n, d = x.numerator, x.denominator
    acc, dpow = c[-1], 1
    for coeff in c[-2::-1]:
        dpow *= d
        acc = acc * n + coeff * dpow
    return (acc > 0) - (acc < 0)


def uderiv(c: list) -> list:
    return [i * c[i] for i in range(1, len(c))] or [0]


def _umul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _content_free(c: list) -> list:
    """The int list c, trimmed, divided by its positive content."""
    c = utrim(c)
    g = gcd(*c)
    return [x // g for x in c] if g > 1 else c


def _to_ints(c: list) -> list:
    """A positive multiple of an int or Fraction list with int
    coefficients and no content, trimmed: the same roots and signs."""
    den = lcm(*(x.denominator for x in c))
    return _content_free([x.numerator * (den // x.denominator) for x in c])


def uprimitive(c: list) -> list:
    """Primitive int form with positive leading coefficient."""
    c = _to_ints(c)
    return [-x for x in c] if c[-1] < 0 else c


def _prem(a: list, b: list) -> list:
    """A positive multiple of the remainder of a by the nonzero b, in
    ints (see the module docstring)."""
    r = utrim(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) > db:
        lr = r[-1]
        g = gcd(lr, lb)
        m, t = abs(lb) // g, (lr if lb > 0 else -lr) // g
        if m != 1:
            r = [m * x for x in r]
        shift = len(r) - 1 - db
        for i, y in enumerate(b):
            r[shift + i] -= t * y
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r or [0]


def _quotient(a: list, b: list) -> list | None:
    """a / b for the primitive b, or None when b does not divide a (see
    the module docstring)."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        t, rem = divmod(r[k + db], lb)
        if rem:
            return None
        q[k] = t
        if t:
            for i, y in enumerate(b):
                r[k + i] -= t * y
    return None if any(r[:db]) else q


def ugcd(a: list, b: list) -> list:
    """Primitive gcd with a positive leading coefficient, of int lists."""
    a, b = _content_free(a), _content_free(b)
    while any(b):
        a, b = b, _content_free(_prem(a, b))
    return uprimitive(a)


def usquarefree(c: list) -> list:
    """Primitive squarefree part of an int list, leading coefficient
    positive."""
    c = uprimitive(c)
    if len(c) <= 2:
        return c
    g = ugcd(c, uderiv(c))
    return c if len(g) == 1 else _quotient(c, g)


def _remainders(a: list, b: list) -> list:
    """Signed remainder sequence of (a, b): a, b, then minus the
    remainder of the two members before, until it is zero; each member
    divided by a positive constant, which keeps its signs."""
    chain = [_content_free(a)]
    b = _content_free(b)
    while any(b):
        chain.append(b)
        b = _content_free([-x for x in _prem(chain[-2], b)])
    return chain


def _variations(chain: list, x: Fraction) -> int:
    out = prev = 0
    for c in chain:
        s = usign(c, x)
        if s:
            out += s == -prev
            prev = s
    return out


def _tarski_query(chain: list, lo: Fraction, hi: Fraction) -> int:
    """Variations of a signed remainder sequence of (p, p'q) at lo minus
    those at hi, for lo and hi not roots of p: the sum of sign q over
    the roots of p in (lo, hi).  With q = 1 (a Sturm chain), the number
    of distinct roots."""
    return _variations(chain, lo) - _variations(chain, hi)


def cauchy_bound(c: list) -> Fraction:
    return 1 + Fraction(max(abs(x) for x in c[:-1]), abs(c[-1]))


def isolate_squarefree(c: list) -> list:
    """Isolating intervals for a squarefree trimmed int list: (r, r) for
    exact rational roots, open (lo, hi) with one root and non-root rational
    endpoints otherwise.  Sorted ascending."""
    if len(c) == 1:
        return []
    chain = _remainders(c, uderiv(c))
    B = cauchy_bound(c)
    out = []

    def rec(lo, hi, count):
        if count == 0:
            return
        if count == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if usign(c, mid) == 0:
            out.append((mid, mid))
            # shrink around the exact root until it is the only one inside
            w = (hi - lo) / 4
            while True:
                l2, h2 = mid - w, mid + w
                if usign(c, l2) != 0 and usign(c, h2) != 0 and _tarski_query(chain, l2, h2) == 1:
                    break
                w /= 2
            rec(lo, l2, _tarski_query(chain, lo, l2))
            rec(h2, hi, _tarski_query(chain, h2, hi))
        else:
            rec(lo, mid, _tarski_query(chain, lo, mid))
            rec(mid, hi, _tarski_query(chain, mid, hi))

    total = _tarski_query(chain, -B, B)
    rec(-B, B, total)
    return sorted(out)


class RealAlgebraicNumber:
    """A real root of a squarefree int polynomial, isolated by a
    rational interval; exact rationals collapse to a direct value.

    Refinement narrows the interval in place (always preserving the
    isolating property), so instances may be shared freely.  It moves
    ``lo`` only to a point where the defining polynomial has the sign it
    has at ``lo``, so that sign is fixed once and each bisection step
    costs one evaluation.  Signs and comparisons do not refine (see the
    module docstring).
    """

    __slots__ = ("poly", "lo", "hi", "value", "_lo_positive")

    def __init__(self, poly: list | None, lo: Fraction, hi: Fraction,
                 value: Fraction | None = None):
        if value is not None:
            self.value = value if isinstance(value, Fraction) else Fraction(value)
            self.poly = None
            self.lo = self.hi = self.value
            return
        self.value = None
        self.poly = _to_ints(poly)
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        at_lo = usign(self.poly, self.lo)
        if at_lo == 0 or usign(self.poly, self.hi) == 0:
            raise ValueError("isolating interval endpoints must not be roots")
        self._lo_positive = at_lo > 0

    @staticmethod
    def from_rational(q) -> "RealAlgebraicNumber":
        return RealAlgebraicNumber(None, 0, 0, value=q)

    @property
    def is_rational(self) -> bool:
        return self.value is not None

    def interval(self):
        return (self.lo, self.hi)

    def refine(self):
        if self.value is not None:
            return
        mid = (self.lo + self.hi) / 2
        v = usign(self.poly, mid)
        if v == 0:
            self.value = mid
            self.lo = self.hi = mid
            self.poly = None
            return
        if (v > 0) == self._lo_positive:
            self.lo = mid
        else:
            self.hi = mid

    def restrict(self, factor: list) -> bool:
        """Define this number by whichever of ``factor``, a factor of the
        defining polynomial, and its cofactor it is a root of.  Either has
        only roots of the defining polynomial, so the interval stays
        isolating; a linear one gives the number's rational value.
        Returns whether the number is a root of ``factor``."""
        is_root = self.sign_of_poly(factor) == 0
        if self.value is not None:
            return is_root
        factor = uprimitive(factor)
        if not is_root:
            factor = uprimitive(_quotient(self.poly, factor))
        if len(factor) == 2:
            self.value = Fraction(-factor[0], factor[1])
            self.lo = self.hi = self.value
            self.poly = None
        else:
            self.poly = factor
            self._lo_positive = usign(factor, self.lo) > 0
        return is_root

    def sign_of_poly(self, q: list) -> int:
        """Exact sign of q at this number: one Tarski query (see the
        module docstring)."""
        q = _to_ints(q)
        if self.value is not None:
            return usign(q, self.value)
        p = self.poly
        return _tarski_query(_remainders(p, _umul(uderiv(p), _prem(q, p))), self.lo, self.hi)

    def compare_rational(self, r: Fraction) -> int:
        v = self.value
        if v is not None:  # one int cross-multiplication; denominators are positive
            d = v.numerator * r.denominator - r.numerator * v.denominator
            return (d > 0) - (d < 0)
        # the number lies strictly inside its isolating interval
        if r <= self.lo:
            return 1
        if r >= self.hi:
            return -1
        s = usign(self.poly, r)
        return 0 if s == 0 else (1 if (s > 0) == self._lo_positive else -1)

    def compare(self, other: "RealAlgebraicNumber") -> int:
        if other.value is not None:
            return self.compare_rational(other.value)
        if self.value is not None:
            return -other.compare_rational(self.value)
        # equal iff gcd(p1, p2) changes sign across the overlap (see the
        # module docstring)
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo < hi:
            g = ugcd(self.poly, other.poly)
            if usign(g, lo) != usign(g, hi):
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


def isolate_real_roots(p) -> list:
    """All distinct real roots of a nonzero univariate polynomial, as
    RealAlgebraicNumber, ascending.  Accepts a MultiPoly in one variable
    or a coefficient list of ints or Fractions; a positive multiple of a
    list has the same roots, in the same form.  A linear polynomial's
    root is -c0/c1.  Rational roots come back as exact values; irrational
    ones are defined by the squarefree part with its rational roots
    divided out."""
    if isinstance(p, MultiPoly):
        used = p.used_vars()
        if len(used) > 1:
            raise ValueError("isolate_real_roots needs a univariate polynomial")
        if not used:
            if p.is_zero:
                raise ValueError("cannot isolate roots of the zero polynomial")
            return []
        p = [c.constant_value() for c in p.as_univar(used[0])]
    coeffs = utrim(p)
    if not any(coeffs):
        raise ValueError("cannot isolate roots of the zero polynomial")
    if len(coeffs) == 2:
        return [RealAlgebraicNumber.from_rational(Fraction(-coeffs[0], coeffs[1]))]
    sf = usquarefree(coeffs)
    if len(sf) == 2:
        return [RealAlgebraicNumber.from_rational(Fraction(-sf[0], sf[1]))]
    # bisect each interval below 1/lead^2, then test the one rational
    # candidate (see the module docstring)
    lead = sf[-1]
    gap = Fraction(1, lead * lead)
    roots = [RealAlgebraicNumber(sf, lo, hi) if lo < hi else RealAlgebraicNumber.from_rational(lo)
             for lo, hi in isolate_squarefree(sf)]
    for i, r in enumerate(roots):
        while r.value is None and r.hi - r.lo >= gap:
            r.refine()
        if r.value is None:
            cand = ((r.lo + r.hi) / 2).limit_denominator(lead)
            # a candidate outside (lo, hi) may be a root of sf, but not this one
            if r.lo < cand < r.hi and usign(sf, cand) == 0:
                roots[i] = RealAlgebraicNumber.from_rational(cand)
    # defining the irrational roots by sf itself would keep its rational
    # roots, at which an elimination resultant can vanish identically;
    # rest divides sf, so it has no root at an interval's end either
    rest = sf
    for r in roots:
        if r.value is not None:
            rest = _quotient(rest, [-r.value.numerator, r.value.denominator])
    if rest is not sf:
        for r in roots:
            if r.value is None:
                r.poly, r._lo_positive = rest, usign(rest, r.lo) > 0
    return roots


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


def _reduce_mod(M: MultiPoly, defining: list, var: str) -> MultiPoly:
    """Remainder of M modulo the defining polynomial, as a polynomial in
    ``var`` (exact; the defining leading coefficient is a nonzero
    rational).  Leaves the value at the algebraic number unchanged."""
    if var not in M.vars:
        return M
    coeffs = M.as_univar(var)
    dm = len(defining) - 1
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


def _coeffs_in(M: MultiPoly, var: str) -> tuple:
    """(den, parts): M times den, the lcm of its denominators, as int
    coefficient lists in ``var``, one per monomial in the other variables
    (exponent tuples with var's entry dropped)."""
    i = M.vars.index(var)
    den = lcm(*(c.denominator for c in M.terms.values()))
    by_rest: dict = {}
    for mono, coeff in M.terms.items():
        by_rest.setdefault(mono[:i] + mono[i + 1:], {})[mono[i]] = \
            coeff.numerator * (den // coeff.denominator)
    return den, {rest: [powers.get(k, 0) for k in range(max(powers) + 1)]
                 for rest, powers in by_rest.items()}


def _shared_factor(defining: list, M: MultiPoly, var: str) -> list:
    """gcd of the defining polynomial and every coefficient of M taken
    as a polynomial in ``var`` over the other variables."""
    g = defining
    for coeffs in _coeffs_in(M, var)[1].values():
        g = ugcd(g, coeffs)
        if len(g) == 1:
            break
    return g


def _divide_out(M: MultiPoly, factor: list, var: str) -> MultiPoly:
    """M divided by the highest power of the primitive factor(var) that
    divides it: the quotients of M's int lists, divided by their den."""
    i = M.vars.index(var)
    den, parts = _coeffs_in(M, var)
    while True:
        quotients = {}
        for rest, coeffs in parts.items():
            q = _quotient(coeffs, factor)
            if q is None:
                return MultiPoly(M.vars, {
                    other[:i] + (k,) + other[i:]: Fraction(c, den)
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
            if len(shared) == 1:  # not reached: a zero resultant needs a shared factor
                return MultiPoly.zero()
            if a.restrict(shared):
                out = _divide_out(out, shared, v)
    return out


def _fresh_var(avoid) -> str:
    i = 0
    while f"W{i}" in avoid:
        i += 1
    return f"W{i}"


def _nonzero_root_gap(N: list) -> Fraction:
    """Positive rational strictly below every nonzero real root magnitude
    of the nonzero int list N."""
    k = 0
    while N[k] == 0:
        k += 1
    c0 = abs(N[k])
    rest = max((abs(c) for c in N[k + 1:]), default=0)
    return Fraction(c0, c0 + rest) if rest else Fraction(1)


def _int_coeffs(p: MultiPoly, point: dict, var: str | None = None) -> list | None:
    """p at the rational coordinates of ``point``, times a positive int,
    as a list of int coefficients in ``var`` (index = degree; the value
    alone, in a list of one, when var is None).  None when a variable p
    uses, other than var, has an irrational coordinate.  Everything but
    the coordinates is read off p once, by poly.int_form; poly.eval_int_form
    does the rest, and its docstring has the argument."""
    return eval_int_form(int_form(p, var), point)


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


def sign_at_point(p: MultiPoly, point: dict, form: tuple | None = None) -> int:
    """Exact sign of p at a sample point whose coordinates are Fractions
    or RealAlgebraicNumbers.  When every coordinate p uses is rational,
    the sign is that of _int_coeffs' value.  A caller that evaluates p at
    many points may pass ``form``, p's int_form, built once."""
    ints = _int_coeffs(p, point) if form is None else eval_int_form(form, point)
    if ints is not None:
        return (ints[0] > 0) - (ints[0] < 0)
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
            if any(c is None for c in ncoeffs) or not any(ncoeffs):
                raise ResourceLimitError("degenerate characteristic polynomial")
            ncoeffs = _to_ints(ncoeffs)
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


def roots_at_point(p: MultiPoly, point: dict, var: str, form: tuple | None = None):
    """Real roots (ascending RealAlgebraicNumbers) of p(sample, var), or
    None when p vanishes identically at the sample.  When every
    coordinate p uses is rational, the int coefficients of _int_coeffs,
    trimmed, go straight to isolate_real_roots; ``form``, when given, is
    int_form(p, var), kept by a caller that solves p over many points.
    Otherwise the
    coefficients are evaluated at the rational coordinates once; a
    constant one gives its sign directly, and only one with a live
    algebraic variable goes to sign_at_point, at the algebraic
    coordinates.  When no algebraic coordinate is left in the
    coefficients, their rational values go to isolate_real_roots."""
    ints = _int_coeffs(p, point, var) if form is None else eval_int_form(form, point)
    if ints is not None:
        while ints and ints[-1] == 0:
            ints.pop()
        if not ints:
            return None
        return isolate_real_roots(ints) if len(ints) > 1 else []
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
    if any(c is None for c in ncoeffs) or not any(ncoeffs):
        raise ResourceLimitError("algebraic lifting degeneracy: cascade vanished")
    out = []
    for cand in isolate_real_roots(ncoeffs):
        if _changes_sign_around(trunc, algs, var, cand) or \
                sign_at_point(trunc, {**algs, var: cand}) == 0:
            out.append(cand)
    return out
