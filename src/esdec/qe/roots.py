"""Exact univariate real root isolation and real algebraic numbers.

Univariate polynomials are dense int coefficient lists (index =
degree), the one input kind of isolate_real_roots, RealAlgebraicNumber
and its sign_of_poly.  A polynomial evaluated at a rational point
arrives as an int list already (see below), and a linear one gives its
root -c0/c1 at once.

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
are computed in ints, scaled by one positive common denominator; a
positive factor changes neither a sign nor a root.  What this reads of
the polynomial itself (the variables it uses, its degrees in them, and
its terms scaled by the lcm of their denominators) is its int form,
which the polynomial keeps (MultiPoly.kept_form): one with no main
variable for signs, and one in the main variable for roots, which the
projection has read already (resultants.int_coeffs).  The form and its
evaluation live in ``poly`` (int_form, eval_int_form), which the
sequence side shares (MultiPoly.sign_at).
At a sample point where two or more coordinates a polynomial uses are
irrational, the polynomial becomes an int polynomial over a frame, as
in resultants: a dict from exponent tuples to ints, one slot per
variable.  The rational coordinates are substituted once, in ints
(_substitute, which keeps the positive factor it multiplied by), and a
slot leaves the frame once its variable is substituted, eliminated or
unused.  A sign is read off an interval enclosure over the numbers'
intervals, refined while it holds zero; exact zero recognition goes
through a resultant cascade that produces an integer "characteristic"
polynomial of the queried value, whose nonzero roots are bounded away
from zero by a computable gap.  This keeps every decision exact without
any numeric fallback.  Each cascade step keeps a positive multiple of
the exact polynomial, which has the same zeros and, for the value, the
same gap: a remainder by the defining polynomial scaled by one power of
its |lc| and divided by its content, then the int Bareiss determinant
of the Sylvester matrix (see _eliminate_algebraics).  The cascade is
built only when an enclosure of the value holds zero, and root finding
accepts a candidate root without a zero test at it when the polynomial
changes sign across the candidate's isolating interval.  A cascade step
whose resultant vanishes identically (a reducible defining polynomial,
or coordinates that depend on each other) is repaired by splitting the
defining polynomial and dividing the shared factor out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ..errors import ResourceLimitError
from ..poly import MultiPoly, eval_int_form
from .resultants import _det, _subresultant_matrix


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


def uprimitive(c: list) -> list:
    """Primitive int form with positive leading coefficient."""
    c = _content_free(c)
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
    """A real root of a squarefree int list, isolated by a rational
    interval; exact rationals collapse to a direct value.

    Refinement narrows the interval in place (always preserving the
    isolating property), so instances may be shared freely.  It moves
    ``lo`` only to a point where the defining polynomial has the sign it
    has at ``lo``, so that sign is fixed once and each bisection step
    costs one evaluation.  Signs and comparisons do not refine (see the
    module docstring).
    """

    __slots__ = ("poly", "lo", "hi", "value", "_lo_positive")

    def __init__(self, poly: list, lo: Fraction, hi: Fraction):
        self.value = None
        self.poly = _content_free(poly)
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        at_lo = usign(self.poly, self.lo)
        if at_lo == 0 or usign(self.poly, self.hi) == 0:
            raise ValueError("isolating interval endpoints must not be roots")
        self._lo_positive = at_lo > 0

    @staticmethod
    def from_rational(q: Fraction) -> "RealAlgebraicNumber":
        """The exact number q, a Fraction, adopted as it is."""
        out = object.__new__(RealAlgebraicNumber)
        out.value = out.lo = out.hi = q
        out.poly = None
        return out

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
        q = _content_free(q)
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


def isolate_real_roots(p: list) -> list:
    """All distinct real roots of a nonzero int list (index = degree),
    as RealAlgebraicNumber, ascending; a positive multiple of the list,
    trailing zeros included, has the same roots, in the same form.  A
    linear polynomial's root is -c0/c1.  Rational roots come back as
    exact values; irrational ones are defined by the squarefree part with
    its rational roots divided out."""
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
#
# Polynomials here are int polynomials over a frame, as in resultants: a
# dict from exponent tuples to nonzero ints, slot i of every tuple the
# exponent of the frame's i-th name.  A slot leaves the frame once its
# variable is substituted, eliminated or unused (_drop_unused).


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


def interval_eval(p: dict, boxes: list) -> tuple:
    """Interval enclosure of the int polynomial p over a box: slot i of
    p's exponent tuples ranges over boxes[i], a pair of Fractions.  Every
    step is exact, so the enclosure of c*p is c times that of p (c > 0)."""
    total = (0, 0)
    for mono, coeff in p.items():
        term = (coeff, coeff)
        for box, e in zip(boxes, mono):
            if e:
                term = _imul(term, _ipow(box, e))
        total = _iadd(total, term)
    return total


def _drop_unused(p: dict, frame: tuple) -> tuple:
    """(p, frame) without the slots that no term of p uses."""
    used = [i for i, column in enumerate(zip(*p)) if any(column)]
    if len(used) == len(frame):
        return p, frame
    return ({tuple([m[i] for i in used]): c for m, c in p.items()},
            tuple([frame[i] for i in used]))


def _int_poly(p: MultiPoly) -> tuple:
    """(p times the lcm L of its denominators, p.vars, L)."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}, p.vars, den


def _substitute(p: dict, frame: tuple, scale: int, point: dict) -> tuple:
    """(q, frame', scale') with q / scale' equal to p / scale at the
    rational coordinates ``point`` gives (Fractions, ints or rational real
    algebraic numbers), over the other slots that q uses.  As in
    eval_int_form, a coordinate n/d of a variable of degree deg multiplies
    every term by the int d^deg times its value, so scale' = scale * d^deg."""
    if not p:
        return p, (), scale
    subs, keep = [], []
    for i, v in enumerate(frame):
        x = point.get(v)
        if isinstance(x, RealAlgebraicNumber):
            x = x.value
        if x is None:
            keep.append(i)
            continue
        x = Fraction(x)
        n, d = x.numerator, x.denominator
        deg = max(m[i] for m in p)
        subs.append((i, [n ** e * d ** (deg - e) for e in range(deg + 1)]))
        scale *= d ** deg
    if not subs:
        return (*_drop_unused(p, frame), scale)
    out: dict = {}
    for m, c in p.items():
        for i, powers in subs:
            c *= powers[m[i]]
        key = tuple([m[i] for i in keep])
        out[key] = out.get(key, 0) + c
    q, frame = _drop_unused({m: c for m, c in out.items() if c}, tuple([frame[i] for i in keep]))
    return q, frame, scale


def _univariate(p: dict) -> list:
    """p over a frame of one slot or none, as an int list (index = degree)."""
    out = [0] * (1 + max(map(sum, p), default=0))
    for m, c in p.items():
        out[sum(m)] = c
    return out


def _columns(p: dict, i: int) -> dict:
    """p as int lists in slot i (index = degree), one per exponent tuple of
    the other slots."""
    by_rest: dict = {}
    for m, c in p.items():
        by_rest.setdefault(m[:i] + m[i + 1:], {})[m[i]] = c
    return {rest: [powers.get(k, 0) for k in range(max(powers) + 1)]
            for rest, powers in by_rest.items()}


def _reduce_columns(columns: dict, defining: list) -> dict:
    """The nonzero remainders of the columns by the defining polynomial,
    every column first multiplied by the same power |lc|^k, then all
    divided by their content: a positive multiple of the remainder over Q
    of the polynomial the columns make, so it has its value at the number
    (see _eliminate_algebraics).  k is the most steps a column takes, so
    each step's quotient lc(r) / lc is an int."""
    dd, lead = len(defining) - 1, defining[-1]
    scale = abs(lead) ** max(max(map(len, columns.values())) - dd, 0)
    out = {}
    for rest, c in columns.items():
        r = [x * scale for x in c]
        for top in range(len(r) - 1, dd - 1, -1):
            t = r[top] // lead
            if t:
                for j, y in enumerate(defining):
                    r[top - dd + j] -= t * y
        r = utrim(r[:dd])
        if any(r):
            out[rest] = r
    g = gcd(*(x for r in out.values() for x in r))
    return {rest: [x // g for x in r] for rest, r in out.items()} if g > 1 else out


def _divide_out(columns: dict, factor: list, i: int) -> dict:
    """The polynomial of the columns divided by the highest power of the
    primitive factor (in slot i) that divides it."""
    while True:
        quotients = {}
        for rest, c in columns.items():
            q = _quotient(c, factor)
            if q is None:
                return {rest[:i] + (k,) + rest[i:]: x
                        for rest, cs in columns.items() for k, x in enumerate(cs) if x}
            quotients[rest] = q
        columns = quotients


def _eliminate_algebraics(p: dict, frame: tuple, algs: dict) -> tuple:
    """(N, frame'): a cascade of resultants with the defining polynomials
    of ``algs`` (name to number) eliminates their slots from p, in the
    order of their names.  N vanishes wherever p does at the actual
    algebraic coordinates (with conjugate combinations possibly adding
    spurious zeros).

    Each step keeps a positive multiple of the exact polynomial, which has
    the same zeros: the remainder of p by the defining polynomial, scaled
    by a power of its |lc| and divided by its content (_reduce_columns), has
    p's value at the number; the resultant, the int Bareiss determinant of
    the Sylvester matrix of (defining, remainder), has degree deg(defining)
    in the remainder's entries, so a positive factor c on the remainder
    puts c^deg on the resultant; a rational coordinate is substituted as
    in _substitute.

    A resultant vanishes identically when the defining polynomial shares
    a factor with every coefficient of p in the number's slot, by Gauss's
    lemma a gcd of int lists (ugcd), which it shares with the remainders
    as well.  The number is redefined by that factor or by its cofactor,
    whichever it is a root of (RealAlgebraicNumber.restrict), and the step
    is redone.  In the first case p vanishes identically at the number:
    it is the product over the conjugates of the numbers eliminated
    before, and some conjugate's factor vanishes there.  The factor taken
    by the actual numbers does not, so dividing p by the highest power of
    the shared factor keeps its zeros and leaves a polynomial that does
    not vanish identically at the number."""
    for v in sorted(algs):
        a = algs[v]
        while p and v in frame:
            if a.is_rational:
                p, frame, _ = _substitute(p, frame, 1, {v: a.value})
                break
            i = frame.index(v)
            rest = frame[:i] + frame[i + 1:]
            columns = _columns(p, i)
            reduced = _reduce_columns(columns, a.poly)
            if reduced:
                if all(len(c) == 1 for c in reduced.values()):
                    p, frame = _drop_unused({k: c[0] for k, c in reduced.items()}, rest)
                    break
                rows = [{} for _ in range(max(map(len, reduced.values())))]
                for k, c in reduced.items():
                    for e, x in enumerate(c):
                        if x:
                            rows[e][k] = x
                one = (0,) * len(rest)
                res = _det(_subresultant_matrix([{one: c} if c else {} for c in a.poly], rows, 0))
                if res:
                    p, frame = _drop_unused(res, rest)
                    break
            shared = uprimitive(a.poly)
            for c in reduced.values():
                if len(shared) == 1:
                    break
                shared = ugcd(shared, c)
            if len(shared) == 1:  # not reached: a zero resultant needs a shared factor
                return {}, frame
            if a.restrict(shared):
                p = _divide_out(columns, shared, i)
    return p, frame


def _nonzero_root_gap(N: list) -> Fraction:
    """Positive rational strictly below every nonzero real root magnitude
    of the nonzero int list N; the same for every nonzero multiple of N."""
    k = 0
    while N[k] == 0:
        k += 1
    c0 = abs(N[k])
    rest = max((abs(c) for c in N[k + 1:]), default=0)
    return Fraction(c0, c0 + rest) if rest else Fraction(1)


def _sign(p: dict, frame: tuple, scale: int, point: dict) -> int:
    """Exact sign of p / scale at ``point``, which has a coordinate for
    every name of the frame.  With the rational coordinates substituted, a
    constant gives its sign and one live number a Tarski query; otherwise
    the enclosure of p / scale over the numbers' intervals decides, and
    while it holds zero the numbers are refined.  Once one holds zero, the
    characteristic polynomial N of the value (the cascade of
    scale * t - p) tells a zero from a nonzero value: a nonzero root of N
    lies beyond the gap (_nonzero_root_gap), so an enclosure inside it
    holding zero means zero.  A number that collapses to a rational while
    refined is substituted and the sign taken again."""
    while True:
        p, frame, scale = _substitute(p, frame, scale, point)
        live = [point[v] for v in frame]
        if not live:
            c = p.get((), 0)
            return (c > 0) - (c < 0)
        if len(live) == 1:
            return live[0].sign_of_poly(_univariate(p))
        gap = None
        while True:
            lo, hi = interval_eval(p, [a.interval() for a in live])
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if gap is None:
                # built only once an enclosure holds zero: most signs are
                # read off the first enclosure; "" names t's slot
                char = {(0,) + m: -c for m, c in p.items()}
                char[(1,) + (0,) * len(frame)] = scale
                N = _univariate(_eliminate_algebraics(char, ("",) + frame, dict(zip(frame, live)))[0])
                if not any(N):
                    raise ResourceLimitError("degenerate characteristic polynomial")
                zero_possible = N[0] == 0
                gap = _nonzero_root_gap(N) * scale
            if zero_possible and -gap < lo and hi < gap:
                return 0
            collapsed = False
            for a in live:
                a.refine()
                collapsed = collapsed or a.is_rational
            if collapsed:
                break


def sign_at_point(p: MultiPoly, point: dict) -> int:
    """Exact sign of p at a sample point whose coordinates are Fractions
    or RealAlgebraicNumbers.  When every coordinate p uses is rational,
    the sign is that of the value eval_int_form gives for p's kept int
    form; otherwise p goes to _sign as an int polynomial."""
    ints = eval_int_form(p.kept_form(), point)
    if ints is not None:
        return (ints[0] > 0) - (ints[0] < 0)
    return _sign(*_int_poly(p), point)


def _changes_sign_around(sign_at, root) -> bool:
    """Whether the polynomial whose sign at a value of the main variable
    ``sign_at`` gives has opposite signs at the two ends of an irrational
    root's isolating interval.  The interval isolates the root among those
    of the elimination polynomial, which has every root of the polynomial,
    so a sign change puts a root of it at the root, and it is not zero at
    either end.  The ends are rational, so this spares the zero test at
    the root itself, whose characteristic polynomial carries the root's
    defining polynomial."""
    if root.is_rational:
        return False
    lo, hi = root.interval()
    return sign_at(lo) * sign_at(hi) < 0


def roots_at_point(p: MultiPoly, point: dict, var: str):
    """Real roots (ascending RealAlgebraicNumbers) of p(sample, var), or
    None when p vanishes identically at the sample.  When every
    coordinate p uses is rational, the int coefficients in var that
    eval_int_form gives for p's kept int form in var, trimmed, go
    straight to isolate_real_roots.
    Otherwise p is substituted at the rational coordinates once, as an
    int polynomial (_substitute), and its coefficients in var are signed
    from the top (_sign) down to the first nonzero one.  When no algebraic
    coordinate is left in the coefficients up to it, they go to
    isolate_real_roots; else the cascade's polynomial in var does, and
    each of its roots is kept when p changes sign around it or is zero
    at it."""
    ints = eval_int_form(p.kept_form(var), point)
    if ints is not None:
        while ints and ints[-1] == 0:
            ints.pop()
        if not ints:
            return None
        return isolate_real_roots(ints) if len(ints) > 1 else []
    q, frame, scale = _substitute(*_int_poly(p), point)
    if var in frame:
        i = frame.index(var)
        rest = frame[:i] + frame[i + 1:]
        coeffs = [{} for _ in range(1 + max(m[i] for m in q))]
        for m, c in q.items():
            coeffs[m[i]][m[:i] + m[i + 1:]] = c
    else:
        i, rest, coeffs = None, frame, [q]
    deg = next((k for k in range(len(coeffs) - 1, -1, -1)
                if _sign(coeffs[k], rest, scale, point)), -1)
    if deg < 0:
        return None
    if deg == 0:
        return []
    trunc, frame = _drop_unused({m: c for m, c in q.items() if m[i] <= deg}, frame)
    live = {v: point[v] for v in frame if v != var}
    if not live:
        return isolate_real_roots(_univariate(trunc))
    N = _univariate(_eliminate_algebraics(trunc, frame, live)[0])
    if not any(N):
        raise ResourceLimitError("algebraic lifting degeneracy: cascade vanished")

    def sign_at(x):
        return _sign(trunc, frame, scale, {**point, var: x})

    return [cand for cand in isolate_real_roots(N)
            if _changes_sign_around(sign_at, cand) or sign_at(cand) == 0]
