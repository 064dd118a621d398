"""The int kit of esdec.qe.roots against the Fraction path it replaced.

The reference below is that path, kept here and nowhere else: Euclid's
gcd over Q, a Sturm chain of positive-primitive Fraction lists, Sturm
counts, and signs at a real algebraic number by a gcd zero test, a Sturm
chain of q's squarefree part and interval refinement.  Numbers are drawn
as roots of products of linear, irreducible quadratic and irreducible
cubic int factors, repeated factors included.
"""

from fractions import Fraction as F
from math import gcd, lcm

import sympy
from hypothesis import example, given, settings, strategies as st

from esdec.qe.roots import RealAlgebraicNumber, isolate_real_roots

# -- the Fraction path -------------------------------------------------


def _trim(c):
    c = [F(x) for x in c]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _eval(c, x):
    acc = F(0)
    for coeff in reversed(c):
        acc = acc * x + coeff
    return acc


def _sign(c, x):
    v = _eval(c, x)
    return (v > 0) - (v < 0)


def _deriv(c):
    return [i * c[i] for i in range(1, len(c))] or [F(0)]


def _divmod(a, b):
    a, b = _trim(a), _trim(b)
    q = [F(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    while any(r) and len(r) >= len(b):
        shift = len(r) - len(b)
        factor = r[-1] / b[-1]
        q[shift] += factor
        for i, y in enumerate(b):
            r[i + shift] -= factor * y
        r = _trim(r)
    return _trim(q), r


def _positive_primitive(c):
    c = _trim(c)
    if not any(c):
        return [F(0)]
    den = lcm(*(x.denominator for x in c))
    ints = [x * den for x in c]
    g = gcd(*(int(x) for x in ints))
    return [x / g for x in ints]


def _primitive(c):
    c = _positive_primitive(c)
    return [-x for x in c] if c[-1] < 0 else c


def _gcd(a, b):
    a, b = _trim(a), _trim(b)
    while any(b):
        a, b = b, _divmod(a, b)[1]
    return _primitive(a)


def _squarefree(c):
    c = _trim(c)
    if len(c) <= 2:
        return _primitive(c)
    g = _gcd(c, _deriv(c))
    return _primitive(c if len(g) == 1 else _divmod(c, g)[0])


def _chain(c):
    chain = [_positive_primitive(c)]
    d = _deriv(c)
    if any(d):
        chain.append(_positive_primitive(d))
        while True:
            r = _divmod(chain[-2], chain[-1])[1]
            if not any(r):
                break
            chain.append(_positive_primitive([-x for x in r]))
    return chain


def _count(chain, lo, hi):
    def variations(x):
        signs = [s for s in (_sign(p, x) for p in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return variations(lo) - variations(hi)


def _sturm_intervals(c):
    """Isolating intervals of a squarefree list by Sturm bisection, exact
    roots met at a midpoint as (r, r)."""
    c = _trim(c)
    if len(c) == 1:
        return []
    chain = _chain(c)
    B = 1 + max(abs(x) for x in c[:-1]) / abs(c[-1])
    out = []

    def rec(lo, hi, count):
        if count == 0:
            return
        if count == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if _eval(c, mid) == 0:
            out.append((mid, mid))
            w = (hi - lo) / 4
            while True:
                l2, h2 = mid - w, mid + w
                if _eval(c, l2) != 0 and _eval(c, h2) != 0 and _count(chain, l2, h2) == 1:
                    break
                w /= 2
            rec(lo, l2, _count(chain, lo, l2))
            rec(h2, hi, _count(chain, h2, hi))
        else:
            rec(lo, mid, _count(chain, lo, mid))
            rec(mid, hi, _count(chain, mid, hi))

    rec(-B, B, _count(chain, -B, B))
    return sorted(out)


def _settle(sf, lo, hi):
    lead = int(sf[-1])
    lo_positive = _eval(sf, lo) > 0
    while hi - lo >= F(1, lead * lead):
        mid = (lo + hi) / 2
        v = _eval(sf, mid)
        if v == 0:
            return mid
        if (v > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
    cand = ((lo + hi) / 2).limit_denominator(lead)
    if lo < cand < hi and _eval(sf, cand) == 0:
        return cand
    return lo, hi


def _isolate_reprs(coeffs):
    """What isolate_real_roots returned on the Fraction path, as the
    reprs of the int kit's numbers."""
    coeffs = _trim(coeffs)
    if len(coeffs) == 2:
        return [f"RealAlgebraicNumber({-coeffs[0] / coeffs[1]})"]
    sf = _squarefree(coeffs)
    settled = [lo if lo == hi else _settle(sf, lo, hi) for lo, hi in _sturm_intervals(sf)]
    rest = sf
    for r in settled:
        if not isinstance(r, tuple):
            rest = _divmod(rest, [-r, F(1)])[0]
    rest = [int(c) for c in _primitive(rest)]
    return [f"RealAlgebraicNumber({rest}, ({r[0]}, {r[1]}))" if isinstance(r, tuple)
            else f"RealAlgebraicNumber({r})" for r in settled]


class _Reference:
    """A copy of a RealAlgebraicNumber's state, signed and compared the
    Fraction way, refining the copy in place."""

    def __init__(self, ran):
        self.poly = None if ran.is_rational else _trim(ran.poly)
        self.lo, self.hi, self.value = ran.lo, ran.hi, ran.value

    def refine(self):
        if self.value is not None:
            return
        lo_positive = _eval(self.poly, self.lo) > 0
        mid = (self.lo + self.hi) / 2
        v = _eval(self.poly, mid)
        if v == 0:
            self.value = self.lo = self.hi = mid
        elif (v > 0) == lo_positive:
            self.lo = mid
        else:
            self.hi = mid

    def sign_of_poly(self, q):
        q = _trim(q)
        if self.value is not None:
            return _sign(q, self.value)
        if not any(q):
            return 0
        g = _gcd(self.poly, q)
        if len(g) > 1 and _count(_chain(g), self.lo, self.hi) > 0:
            return 0
        chain_q = _chain(_squarefree(q))
        while True:
            if self.value is not None:
                return self.sign_of_poly(q)
            vlo, vhi = _eval(q, self.lo), _eval(q, self.hi)
            if vlo != 0 and vhi != 0 and _count(chain_q, self.lo, self.hi) == 0:
                return 1 if vlo > 0 else -1
            self.refine()

    def compare_rational(self, r):
        if self.value is not None:
            return (self.value > r) - (self.value < r)
        if r <= self.lo:
            return 1
        if r >= self.hi:
            return -1
        return self.sign_of_poly([-r, F(1)])

    def compare(self, other):
        if other.value is not None:
            return self.compare_rational(other.value)
        if self.value is not None:
            return -other.compare_rational(self.value)
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo < hi:
            g = _gcd(self.poly, other.poly)
            if len(g) > 1 and _count(_chain(g), lo, hi) > 0:
                return 0
        while not (self.hi < other.lo or other.hi < self.lo):
            if self.value is not None or other.value is not None:
                return self.compare(other)
            self.refine()
            other.refine()
        return -1 if self.hi < other.lo else 1


# -- inputs --------------------------------------------------------------


def _product(factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def _irreducible(c):
    return sympy.Poly(list(reversed(c)), sympy.Symbol("x")).is_irreducible


_linear = st.tuples(st.integers(1, 12), st.integers(-24, 24)).map(lambda ab: [-ab[1], ab[0]])
_quadratic = st.lists(st.integers(-12, 12), min_size=3, max_size=3).filter(
    lambda c: c[-1] > 0 and _irreducible(c))
_cubic = st.lists(st.integers(-6, 6), min_size=4, max_size=4).filter(
    lambda c: c[-1] != 0 and _irreducible(c))
_powers = st.tuples(st.one_of(_linear, _quadratic, _cubic), st.integers(1, 2))
_factors = st.lists(_powers, min_size=1, max_size=3)
_scale = st.one_of(st.integers(-50, 50).filter(bool),
                   st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(bool))


def _expand(factors):
    return _product([f for f, mult in factors for _ in range(mult)])


@st.composite
def _numbers(draw, factors):
    """A real root of the product of ``factors``: as isolate_real_roots
    gives it, or defined by the squarefree product itself on a Sturm
    interval, where the root may be rational; refined a few times."""
    coeffs = _expand(factors)
    if draw(st.booleans()):
        roots = isolate_real_roots(coeffs)
    else:
        sf = _squarefree(coeffs)
        roots = [RealAlgebraicNumber.from_rational(lo) if lo == hi
                 else RealAlgebraicNumber([int(c) for c in sf], lo, hi)
                 for lo, hi in _sturm_intervals(sf)]
    if not roots:
        roots = [RealAlgebraicNumber.from_rational(draw(st.fractions(-5, 5, max_denominator=6)))]
    ran = draw(st.sampled_from(roots))
    for _ in range(draw(st.integers(0, 4))):
        ran.refine()
    return ran


@st.composite
def _number_and_poly(draw):
    """A number and a polynomial q: some of the number's factors, some
    new ones, times a nonzero int or Fraction."""
    factors = draw(_factors)
    ran = draw(_numbers(factors))
    kept = [f for f in factors if draw(st.booleans())]
    scale = draw(_scale)
    return ran, [scale * c for c in _expand(kept + draw(st.lists(_powers, max_size=2)))]


@st.composite
def _two_numbers(draw):
    """Two numbers whose defining products may share factors, so they may
    be equal."""
    factors = draw(_factors)
    shared = [f for f in factors if draw(st.booleans())]
    other = shared + draw(st.lists(_powers, max_size=2))
    return draw(_numbers(factors)), draw(_numbers(other or factors))


@st.composite
def _number_and_rational(draw):
    """A number and a rational inside its interval, on or outside an end,
    or a rational root of one of its factors."""
    factors = draw(_factors)
    ran = draw(_numbers(factors))
    step = F(draw(st.integers(1, 99)), 100)
    lo, hi = ran.lo, ran.hi
    candidates = [lo, hi, lo + step * (hi - lo), lo - step, hi + step]
    candidates += [F(-f[0], f[1]) for f, _mult in factors if len(f) == 2]
    return ran, draw(st.sampled_from(candidates))


# -- checks --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(_factors, _scale, st.integers(0, 2))
@example([([-1, 3], 2), ([-2, 0, 1], 1), ([-2, 0, 0, 1], 1)], F(1), 0)
@example([([1, -3, 0, 1], 2)], F(-7, 3), 1)
@example([([4, 6, 3, 2], 1)], 1, 0)  # its Sturm chain divides x^2 + x + 1 by -x - 1 in one step
def test_isolate_real_roots_gives_the_fraction_paths_numbers(factors, scale, pad):
    """The same values, defining polynomials and intervals, for any
    nonzero multiple of the product, as ints or Fractions."""
    coeffs = [scale * c for c in _expand(factors)] + [0] * pad
    want = _isolate_reprs(coeffs)
    assert [repr(r) for r in isolate_real_roots(coeffs)] == want
    assert [repr(r) for r in isolate_real_roots(_expand(factors))] == want


@settings(max_examples=200, deadline=None)
@given(_number_and_poly())
def test_sign_of_poly_matches_the_fraction_path(case):
    """The Tarski query gives the refined Fraction path's sign, and leaves
    the number's interval as it was."""
    ran, q = case
    want = _Reference(ran).sign_of_poly(q)
    before = (ran.lo, ran.hi, ran.value)
    assert ran.sign_of_poly(q) == want
    assert (ran.lo, ran.hi, ran.value) == before


@settings(max_examples=200, deadline=None)
@given(_two_numbers())
def test_compare_matches_the_fraction_path(pair):
    a, b = pair
    want = _Reference(a).compare(_Reference(b))
    assert a.compare(b) == want
    assert b.compare(a) == -want


@settings(max_examples=200, deadline=None)
@given(_number_and_rational())
def test_compare_rational_matches_the_fraction_path(case):
    ran, r = case
    assert ran.compare_rational(r) == _Reference(ran).compare_rational(r)
