import random
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix
from sympy.polys.subresultants_qq_zz import sylvester

from esdec.poly import MultiPoly
from esdec.qe.resultants import det_bareiss, psc_set, resultant
from esdec.qe.roots import (
    RealAlgebraicNumber, interval_eval, isolate_real_roots,
    roots_at_point, sign_at_point, ueval, usquarefree,
)

F = Fraction


def X(name="x1"):
    return MultiPoly.var(name)


def test_isolate_basic():
    x = X()
    roots = isolate_real_roots(x ** 2 - 2)
    assert len(roots) == 2
    lo, hi = roots[1].interval()
    assert lo < hi and lo >= 0
    assert isolate_real_roots(x ** 2 + 1) == []
    collapsed = isolate_real_roots((x - 1) ** 2 * x)
    assert [r.value for r in collapsed] == [0, 1]
    assert all(r.is_rational for r in collapsed)


def test_isolate_random_rational_roots():
    rng = random.Random(17)
    x = X()
    for _ in range(40):
        roots = sorted({F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))})
        p = MultiPoly.const(1, ("x1",))
        for r in roots:
            p = p * (x - r) ** rng.randint(1, 2)
        got = isolate_real_roots(p)
        assert len(got) == len(roots)
        for ran, want in zip(got, roots):
            assert ran.is_rational
            assert ran.compare_rational(want) == 0


def test_real_algebraic_number_rejects_root_endpoint():
    with pytest.raises(ValueError):
        RealAlgebraicNumber([F(-1), F(1)], F(1), F(2))


def test_refine_evaluates_once_per_step(monkeypatch):
    """The sign at lo is kept, so a bisection step evaluates the
    defining polynomial at the midpoint alone."""
    a = isolate_real_roots([F(-2), F(0), F(1)])[1]  # sqrt 2
    calls = []
    monkeypatch.setattr("esdec.qe.roots.ueval", lambda c, x: calls.append(x) or ueval(c, x))
    for _ in range(20):
        width = a.hi - a.lo
        calls.clear()
        a.refine()
        assert len(calls) == 1
        assert a.hi - a.lo == width / 2 and a.lo ** 2 < 2 < a.hi ** 2


def _poly_product(factors):
    out = [F(1)]
    for f in factors:
        prod = [F(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


# a*x - b with a rich in divisors, the denominator of the root b/a
_linear = st.tuples(
    st.sampled_from([1, 2, 6, 12, 60, 360, 720, 5040, 55440, 38798760]),
    st.integers(-10 ** 9, 10 ** 9),
).map(lambda ab: [F(-ab[1]), F(ab[0])])
# a*x^2 + b*x + c with b^2 - 4ac not a square: no rational root
_irreducible_quadratic = st.tuples(
    st.integers(1, 30), st.integers(-30, 30), st.integers(-30, 30),
).filter(lambda abc: sympy.sqrt(abc[1] ** 2 - 4 * abc[0] * abc[2]).is_rational is False
         ).map(lambda abc: [F(abc[2]), F(abc[1]), F(abc[0])])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.one_of(_linear, _irreducible_quadratic), st.integers(1, 2)),
                min_size=1, max_size=4))
@example([([F(-23), F(38798760)], 1), ([F(-2), F(0), F(1)], 1)])
@example([([F(0), F(21), F(-84), F(-63), F(6)], 1)])  # an irrational root near 0
def test_isolate_matches_sympy(factors):
    """Same roots as sympy's real_roots, ascending, each exact exactly
    when it is rational."""
    coeffs = _poly_product([f for f, mult in factors for _ in range(mult)])
    x = sympy.Symbol("x")
    want = sorted(set(sympy.Poly(list(reversed(coeffs)), x).real_roots()))
    got = isolate_real_roots(coeffs)
    assert len(got) == len(want)
    for a, b in zip(got, got[1:]):
        assert a.compare(b) < 0
    for ran, root in zip(got, want):
        assert ran.is_rational == isinstance(root, sympy.Rational)
        if ran.is_rational:
            assert ran.value == F(int(root.p), int(root.q))
        else:
            lo, hi = ran.interval()
            assert sympy.Rational(lo.numerator, lo.denominator) < root
            assert root < sympy.Rational(hi.numerator, hi.denominator)


# a*x^2 + b*x + c with two irrational real roots
_real_quadratic = _irreducible_quadratic.filter(lambda c: c[1] ** 2 - 4 * c[2] * c[0] > 0)


@st.composite
def _number_and_rational(draw):
    """An irrational root, refined a few times, and a rational inside its
    isolating interval, outside it or on either endpoint."""
    coeffs = draw(_real_quadratic)
    index = draw(st.integers(0, 1))
    ran = isolate_real_roots(coeffs)[index]
    for _ in range(draw(st.integers(0, 6))):
        ran.refine()
    lo, hi = ran.interval()
    step = F(draw(st.integers(1, 99)), 100)
    r = draw(st.sampled_from([lo, hi, lo + step * (hi - lo), lo - step, hi + step]))
    return coeffs, index, ran, r


@settings(max_examples=200, deadline=None)
@given(_number_and_rational())
def test_compare_rational_matches_exact_comparison(case):
    coeffs, index, ran, r = case
    x = sympy.Symbol("x")
    root = sorted(sympy.Poly(list(reversed(coeffs)), x).real_roots())[index]
    want = 1 if root > sympy.Rational(r.numerator, r.denominator) else -1
    lo, hi = ran.interval()
    if lo < r < hi:
        assert ran.compare_rational(r) == want
    else:  # answered from the interval, with no sign computation
        with mock.patch.object(RealAlgebraicNumber, "sign_of_poly", side_effect=AssertionError):
            assert ran.compare_rational(r) == want


def test_alg_sign_at():
    x = X()
    sqrt2 = isolate_real_roots(x ** 2 - 2)[1]
    assert sqrt2.sign_of_poly([F(-2), F(0), F(1)]) == 0
    assert sqrt2.sign_of_poly([F(-1), F(1)]) == 1
    assert sqrt2.sign_of_poly([F(-3, 2), F(1)]) == -1
    assert sqrt2.sign_of_poly([F(0), F(-2), F(0), F(1)]) == 0  # x(x^2-2)


def test_compare_and_dedup():
    x = X()
    a = isolate_real_roots(x ** 2 - 2)[1]
    b = isolate_real_roots(x ** 4 - 4)[1]  # also sqrt(2)
    assert b.compare(a) == 0
    c = isolate_real_roots(x ** 2 - 3)[1]
    assert a.compare(c) == -1
    assert c.compare(a) == 1
    assert a.compare_rational(F(3, 2)) < 0 or a.compare_rational(F(3, 2)) > 0


def test_resultant_examples():
    x, a, b = X("x1"), X("a1"), X("b1")
    r = resultant(x ** 2 - a, x - b, "x1")
    assert r == b ** 2 - a
    assert resultant(x - 1, x + 1, "x1").constant_value() in (2, -2)
    p = x ** 2 - 2
    assert resultant(p, p, "x1").is_zero


def _to_sympy(p: MultiPoly):
    syms = [sympy.Symbol(v) for v in p.vars]
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(s ** e for s, e in zip(syms, mono)))
        for mono, c in p.terms.items()
    ))


# bivariate polynomials in x1 (degree <= 4) and a1 (degree <= 2)
_bivariate = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 2)),
    st.integers(-4, 4).filter(bool),
    min_size=1, max_size=5,
).map(lambda terms: MultiPoly(("x1", "a1"), {m: F(c) for m, c in terms.items()}))


@settings(max_examples=60, deadline=None)
@given(_bivariate, _bivariate)
@example(X("x1") + 2, X("x1") ** 3)  # deg f < deg g with mn odd: -8
@example(MultiPoly.const(3, ("x1",)), X("x1") ** 2 + 1)
def test_resultant_matches_sylvester_determinant(f, g):
    """The one resultant is det Sylvester(f, g) in that order, also when
    deg f < deg g (sympy's ``resultant`` swaps to Res(g, f) there)."""
    M = sylvester(_to_sympy(f), _to_sympy(g), sympy.Symbol("x1"))
    if M.rows == 0:  # two constants
        want = 1
    else:  # det over ZZ[a1]: sympy's generic det is 40x slower here
        dm = DomainMatrix.from_Matrix(M)
        want = dm.domain.to_sympy(dm.det())
    assert sympy.expand(_to_sympy(resultant(f, g, "x1")) - want) == 0


# univariate integer polynomials of degree 1..4, as coefficient lists
_uni = st.lists(st.integers(-3, 3), min_size=2, max_size=5).filter(lambda c: c[-1] != 0)


@settings(max_examples=80, deadline=None)
@given(_uni, _uni, st.lists(st.integers(-2, 2), min_size=1, max_size=3).filter(lambda c: c[-1] != 0))
@example([0, 1], [0, 0, 1], [1])  # gcd x
@example([-1, 1], [-1, 1], [1])  # equal inputs: every psc is zero
def test_psc_set_resultant_and_gcd_degree(fc, gc, hc):
    """psc_0 is the resultant with the larger degree first; on univariate
    inputs the leading zero pscs count deg gcd(f, g)."""
    h = MultiPoly.from_univar([MultiPoly.const(c) for c in hc], "x1")
    f = h * MultiPoly.from_univar([MultiPoly.const(c) for c in fc], "x1")
    g = h * MultiPoly.from_univar([MultiPoly.const(c) for c in gc], "x1")
    pscs = psc_set(f.as_univar("x1"), g.as_univar("x1"))
    m, n = f.degree("x1"), g.degree("x1")
    assert len(pscs) == min(m, n)
    big, small = (f, g) if m >= n else (g, f)
    assert pscs[0] == resultant(big, small, "x1")
    zeros = next((j for j, p in enumerate(pscs) if not p.is_zero), len(pscs))
    x = sympy.Symbol("x1")
    assert zeros == sympy.degree(sympy.gcd(_to_sympy(f), _to_sympy(g)), x)


def test_psc_set():
    x, y = X("x1"), X("y1")
    f = x ** 2 - y
    g = x - 1
    pscs = psc_set(f.as_univar("x1"), g.as_univar("x1"))
    assert len(pscs) == 1
    assert pscs[0] == MultiPoly.const(1) - y  # resultant(x^2-y, x-1)


def test_det_bareiss_known():
    one = MultiPoly.const
    m = [[one(2), one(1)], [one(7), one(4)]]
    assert det_bareiss(m).constant_value() == 1
    x = X("x1")
    m2 = [[x, one(1)], [one(1), x]]
    assert det_bareiss(m2) == x ** 2 - 1


def test_sign_at_point_mixed():
    x = X("x1")
    sqrt2 = isolate_real_roots(x ** 2 - 2)[1]
    sqrt3 = isolate_real_roots(x ** 2 - 3)[1]
    a, b = MultiPoly.var("a1"), MultiPoly.var("b1")
    # a*b at (sqrt2, sqrt3) = sqrt6 > 0
    assert sign_at_point(a * b, {"a1": sqrt2, "b1": sqrt3}) == 1
    # a^2*b^2 - 6 = 0 at (sqrt2, sqrt3)
    p = (a * b) ** 2 - 6
    assert sign_at_point(p, {"a1": sqrt2, "b1": sqrt3}) == 0
    # a^2 + b^2 - 5 = 0 exactly
    assert sign_at_point(a ** 2 + b ** 2 - 5, {"a1": sqrt2, "b1": sqrt3}) == 0
    assert sign_at_point(a - b, {"a1": sqrt2, "b1": sqrt3}) == -1
    assert sign_at_point(a + b - 3, {"a1": sqrt2, "b1": sqrt3}) == 1  # sqrt2+sqrt3 > 3


def test_roots_at_point():
    x1, y1 = MultiPoly.var("x1"), MultiPoly.var("y1")
    # y^2 - x at x = sqrt2: roots +- 2^(1/4)
    sqrt2 = isolate_real_roots(MultiPoly.var("z1") ** 2 - 2)[1]
    roots = roots_at_point(y1 ** 2 - x1, {"x1": sqrt2}, "y1")
    assert len(roots) == 2
    fourth = roots[1]
    assert sign_at_point(y1 ** 4 - 2, {"y1": fourth}) == 0
    # identically vanishing polynomial at the sample
    zero = roots_at_point((x1 ** 2 - 2) * y1, {"x1": sqrt2}, "y1")
    assert zero is None
    # rational sample fast path
    got = roots_at_point(y1 ** 2 - x1, {"x1": F(4)}, "y1")
    assert [r.value for r in got] == [-2, 2]


def test_roots_at_point_with_a_reducible_defining_polynomial():
    """-sqrt2 defined by x^4 - 4 = (x^2 - 2)(x^2 + 2): the polynomial's
    coefficients share the factor x^2 + 2, so the resultant with x^4 - 4
    vanishes identically; the number is redefined by x^2 - 2."""
    x, z = MultiPoly.var("x"), MultiPoly.var("z")
    a = RealAlgebraicNumber([F(-4), F(0), F(0), F(0), F(1)], F(-15, 8), F(-5, 4))
    roots = roots_at_point((x ** 2 + 2) * (z ** 2 - 1) * z, {"x": a}, "z")
    assert [r.value for r in roots] == [-1, 0, 1]
    assert a.poly == [F(-2), F(0), F(1)] and a.lo ** 2 > 2 > a.hi ** 2
    # restrict keeps the factor the number is a root of, else the cofactor
    b = RealAlgebraicNumber([F(-4), F(0), F(0), F(0), F(1)], F(-15, 8), F(-5, 4))
    b.restrict([F(-2), F(0), F(1)])
    assert b.poly == [F(-2), F(0), F(1)] and sign_at_point(x ** 2 - 2, {"x": b}) == 0
    # a linear factor gives the rational value: 1 is the root of
    # (x - 1)(x^2 - 2) in (1/2, 5/4)
    c = RealAlgebraicNumber([F(2), F(-2), F(-1), F(1)], F(1, 2), F(5, 4))
    c.restrict([F(2), F(0), F(-1)])
    assert c.is_rational and c.value == 1


def test_roots_at_point_with_dependent_coordinates():
    """a = -1/sqrt2 and b = sqrt2: (ab - 1)(z^2 - 2) vanishes identically
    at the conjugate a = 1/sqrt2, so the cascade over a leaves a factor
    b^2 - 2 that vanishes at b; it is divided out, and the zeros at the
    actual coordinates stay."""
    a, b, z = MultiPoly.var("a"), MultiPoly.var("b"), MultiPoly.var("z")
    alpha = RealAlgebraicNumber([F(-1), F(0), F(2)], F(-1), F(0))
    beta = RealAlgebraicNumber([F(-2), F(0), F(1)], F(1), F(2))
    point = {"a": alpha, "b": beta}
    low, high = roots_at_point((a * b - 1) * (z ** 2 - 2), point, "z")
    assert sign_at_point(z + b, {"b": beta, "z": low}) == 0
    assert sign_at_point(z - b, {"b": beta, "z": high}) == 0
    assert sign_at_point(a * b + 1, point) == 0
    assert sign_at_point(a * b * z, {**point, "z": high}) == -1


def test_interval_eval():
    x = MultiPoly.var("x1")
    lo, hi = interval_eval(x ** 2 - 1, {"x1": (F(-1, 2), F(1, 2))})
    assert lo <= -F(3, 4) <= hi


def test_usquarefree():
    # (x-1)^3 -> x-1 up to sign/scale
    p = [F(-1), F(3), F(-3), F(1)]
    sf = usquarefree(p)
    assert len(sf) == 2
