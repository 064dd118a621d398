import random
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix
from sympy.polys.subresultants_qq_zz import sylvester

from esdec.decider import decide_es
from esdec.poly import MultiPoly, eval_int_form, int_form, merge_vars
from esdec.predicates import parse
from esdec.qe import decide_sentence, parse_sentence
from esdec.qe.resultants import _det, _subresultant_matrix, int_coeffs, psc_set
from esdec.qe.roots import (
    RealAlgebraicNumber, _sign, interval_eval,
    isolate_real_roots, roots_at_point, sign_at_point, usign, usquarefree, utrim,
)

F = Fraction


def X(name="x1"):
    return MultiPoly.var(name)


def _ints(p):
    """An int list with the roots and signs of p, a MultiPoly in one
    variable or a list of ints and Fractions: its coefficients times the
    lcm of their denominators."""
    if isinstance(p, MultiPoly):
        p = [c.constant_value() for c in p.as_univar(*p.used_vars())]
    den = lcm(*(F(c).denominator for c in p))
    return [int(c * den) for c in p]


def test_isolate_basic():
    x = X()
    roots = isolate_real_roots(_ints(x ** 2 - 2))
    assert len(roots) == 2
    lo, hi = roots[1].interval()
    assert lo < hi and lo >= 0
    assert isolate_real_roots(_ints(x ** 2 + 1)) == []
    collapsed = isolate_real_roots(_ints((x - 1) ** 2 * x))
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
        got = isolate_real_roots(_ints(p))
        assert len(got) == len(roots)
        for ran, want in zip(got, roots):
            assert ran.is_rational
            assert ran.compare_rational(want) == 0


def test_real_algebraic_number_rejects_root_endpoint():
    with pytest.raises(ValueError):
        RealAlgebraicNumber([-1, 1], F(1), F(2))


def test_refine_evaluates_once_per_step(monkeypatch):
    """The sign at lo is kept, so a bisection step evaluates the
    defining polynomial at the midpoint alone."""
    a = isolate_real_roots([-2, 0, 1])[1]  # sqrt 2
    calls = []
    monkeypatch.setattr("esdec.qe.roots.usign", lambda c, x: calls.append(x) or usign(c, x))
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
    got = isolate_real_roots(_ints(coeffs))
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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.one_of(_linear, _irreducible_quadratic), st.integers(1, 2)),
                min_size=1, max_size=3),
       st.integers(1, 10 ** 6), st.integers(0, 2))
def test_isolate_is_the_same_for_ints_fractions_and_multiples(factors, k, pad):
    """An int list and a positive int multiple of it, trailing zeros
    included, give roots with identical reprs."""
    coeffs = _poly_product([f for f, mult in factors for _ in range(mult)])
    ints = [int(c) for c in coeffs]
    want = repr(isolate_real_roots(ints))
    assert repr(isolate_real_roots([k * c for c in ints] + [0] * pad)) == want


_NAMES = ("a", "b", "x", "y")


@st.composite
def _rational_point_case(draw):
    """A polynomial with Fraction coefficients over declared variables,
    some of which it does not use (their exponents are all 0, or no term
    is left), a main variable, and one to four rational points: each
    coordinate a Fraction or a rational RealAlgebraicNumber, and an unused
    variable's coordinate sometimes missing, except the main variable's."""
    declared = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True))
    dead = draw(st.sets(st.sampled_from(declared)))
    mono = st.tuples(*[st.just(0) if v in dead else st.integers(0, 3) for v in declared])
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    p = MultiPoly(declared, draw(st.dictionaries(mono, coeff, max_size=6)))
    var = draw(st.sampled_from(declared))
    points = []
    for _ in range(draw(st.integers(1, 4))):
        point = {}
        for v in declared:
            if v != var and v not in p.used_vars() and draw(st.booleans()):
                continue
            r = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6))
            point[v] = RealAlgebraicNumber.from_rational(r) if draw(st.booleans()) else r
        points.append(point)
    return p, points, var


def _positive_multiple(ints, fracs):
    """Whether the int list is k * the Fraction list for one k > 0, both
    read with trailing zeros trimmed."""
    ints, fracs = utrim(ints), utrim(fracs)
    if len(ints) != len(fracs) or not all(type(c) is int for c in ints):
        return False
    k = next((F(c) / f for c, f in zip(ints, fracs) if f), None)
    if k is None:
        return not any(ints)
    return k > 0 and all(c == k * f for c, f in zip(ints, fracs))


def _roots_by_partial_eval(p, point, var):
    """roots_at_point at a rational point by the route without integer
    evaluation: substitute the Fractions, read the constant coefficients."""
    rats = {v: x.value if isinstance(x, RealAlgebraicNumber) else x for v, x in point.items()}
    coeffs = utrim([c.constant_value() for c in p.partial_eval(rats).as_univar(var)])
    if not any(coeffs):
        return None
    return isolate_real_roots(_ints(coeffs)) if len(coeffs) > 1 else []


@settings(max_examples=300, deadline=None)
@given(_rational_point_case())
@example((MultiPoly(("a", "x"), {}), [{"x": F(1)}], "x"))  # declared a, no terms, no coordinate
@example((MultiPoly(("a", "x"), {(2, 1): F(1, 2), (1, 0): F(-3)}), [{"a": F(2, 3), "x": F(9)}], "x"))
def test_integer_evaluation_matches_partial_eval(case):
    """p's kept int forms are fresh int forms of p; at each point
    sign_at_point and roots_at_point read them without building another,
    and they agree with the partial_eval route."""
    p, points, var = case
    form, form_var = p.kept_form(), p.kept_form(var)
    assert form == int_form(p) and form_var == int_form(p, var)
    with mock.patch("esdec.poly.int_form", side_effect=AssertionError):
        for point in points:
            rats = {v: x.value if isinstance(x, RealAlgebraicNumber) else x for v, x in point.items()}
            value = p.evaluate({v: rats.get(v, F(0)) for v in p.vars})
            assert _positive_multiple(eval_int_form(form, point), [value])
            assert sign_at_point(p, point) == (value > 0) - (value < 0)
            without_var = {v: x for v, x in point.items() if v != var}
            wanted = [c.constant_value() for c in p.partial_eval(
                {v: rats[v] for v in without_var}).as_univar(var)]
            assert _positive_multiple(eval_int_form(form_var, without_var), wanted)
            want_roots = repr(_roots_by_partial_eval(p, without_var, var))
            assert repr(roots_at_point(p, without_var, var)) == want_roots
    assert p.kept_form() is form and p.kept_form(var) is form_var


def test_integer_evaluation_needs_every_used_coordinate_rational():
    a, x = MultiPoly.var("a"), MultiPoly.var("x")
    sqrt2 = isolate_real_roots([-2, 0, 1])[1]
    assert eval_int_form((a * x - 1).kept_form("x"), {"a": sqrt2}) is None
    assert eval_int_form((a * x - 1).kept_form("x"), {"a": F(1, 2), "b": sqrt2}) == [-2, 1]
    # 1/sqrt2, found on the algebraic path
    root, = roots_at_point(a * x - 1, {"a": sqrt2}, "x")
    assert not root.is_rational and sign_at_point(2 * x ** 2 - 1, {"x": root}) == 0


# a*x^2 + b*x + c with two irrational real roots
_real_quadratic = _irreducible_quadratic.filter(lambda c: c[1] ** 2 - 4 * c[2] * c[0] > 0)


@st.composite
def _number_and_rational(draw):
    """An irrational root, refined a few times, and a rational inside its
    isolating interval, outside it or on either endpoint."""
    coeffs = draw(_real_quadratic)
    index = draw(st.integers(0, 1))
    ran = isolate_real_roots(_ints(coeffs))[index]
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
    sqrt2 = isolate_real_roots(_ints(x ** 2 - 2))[1]
    assert sqrt2.sign_of_poly([-2, 0, 1]) == 0
    assert sqrt2.sign_of_poly([-1, 1]) == 1
    assert sqrt2.sign_of_poly(_ints([F(-3, 2), F(1)])) == -1
    assert sqrt2.sign_of_poly([0, -2, 0, 1]) == 0  # x(x^2-2)


def test_compare_and_dedup():
    x = X()
    a = isolate_real_roots(_ints(x ** 2 - 2))[1]
    b = isolate_real_roots(_ints(x ** 4 - 4))[1]  # also sqrt(2)
    assert b.compare(a) == 0
    c = isolate_real_roots(_ints(x ** 2 - 3))[1]
    assert a.compare(c) == -1
    assert c.compare(a) == 1
    assert a.compare_rational(F(3, 2)) < 0 or a.compare_rational(F(3, 2)) > 0


def _sylvester_det(f, g):
    """det Sylvester(f, g) in x1, f first whatever the degrees, as the
    resultant cascade of qe.roots takes it: the int Bareiss _det of
    _subresultant_matrix, on f and g scaled to int coefficients by the lcms
    L_f and L_g of their denominators.  f fills deg g rows and g fills
    deg f, so L_f^deg g * L_g^deg f is divided back out."""
    frame = tuple(v for v in merge_vars(f.vars, g.vars) if v != "x1")
    fc, gc = int_coeffs(f, "x1", frame), int_coeffs(g, "x1", frame)
    rows = _subresultant_matrix(fc, gc, 0)
    det = _det(rows) if rows else {(0,) * len(frame): 1}  # two constants
    scale = (lcm(*(c.denominator for c in f.terms.values())) ** (len(gc) - 1)
             * lcm(*(c.denominator for c in g.terms.values())) ** (len(fc) - 1))
    return MultiPoly(frame, {m: F(c, scale) for m, c in det.items()})


def _int_coeffs_reference(p, var, frame):
    """int_coeffs by direct conversion of p's Fraction terms: each
    numerator scaled to the lcm of the denominators, its exponents put
    into the frame's slots."""
    names = p.vars
    main = names.index(var) if var in names else None
    where = {v: i for i, v in enumerate(frame)}
    slots = [(i, where[v]) for i, v in enumerate(names) if i != main]
    den = lcm(*(c.denominator for c in p.terms.values()))
    out = [{} for _ in range(p.degree(var) + 1)]
    for mono, c in p.terms.items():
        key = [0] * len(frame)
        for i, j in slots:
            key[j] = mono[i]
        out[0 if main is None else mono[main]][tuple(key)] = c.numerator * (den // c.denominator)
    return out


@st.composite
def _int_coeffs_case(draw):
    """A polynomial over some of a1, b1, x1 with Fraction coefficients and
    maybe unused variables, a main variable among them, outside them or
    None, and a frame of the others, maybe with extra names."""
    declared = draw(st.lists(st.sampled_from(("a1", "b1", "x1")), unique=True))
    dead = draw(st.sets(st.sampled_from(declared))) if declared else set()
    mono = st.tuples(*[st.just(0) if v in dead else st.integers(0, 3) for v in declared])
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    p = MultiPoly(declared, draw(st.dictionaries(mono, coeff, max_size=5)))
    var = draw(st.sampled_from((None, "z1", *declared)))
    extra = draw(st.sets(st.sampled_from(("c1", "y1", "X"))))
    frame = tuple(v for v in merge_vars(declared, extra) if v != var)
    return p, var, frame


@settings(max_examples=200, deadline=None)
@given(_int_coeffs_case())
@example((MultiPoly(("a1", "x1"), {}), "x1", ("a1",)))  # the zero polynomial
@example((MultiPoly(("a1", "b1"), {(1, 0): F(1, 2), (2, 0): F(-3, 4)}), "x1", ("a1", "b1", "c1")))
@example((MultiPoly(("a1", "x1"), {(0, 2): F(2, 3), (0, 0): F(1)}), "x1", ("a1", "y1")))
def test_int_coeffs_matches_direct_conversion(case):
    """int_coeffs, read off the kept int form, is the direct conversion,
    also after the kept form in another variable was built."""
    p, var, frame = case
    want = _int_coeffs_reference(p, var, frame)
    assert int_coeffs(p, var, frame) == want
    for other in (None, *p.vars):
        p.kept_form(other)
        assert int_coeffs(p, var, frame) == want


def test_resultant_examples():
    x, a, b = X("x1"), X("a1"), X("b1")
    r = _sylvester_det(x ** 2 - a, x - b)
    assert r == b ** 2 - a
    assert _sylvester_det(x - 1, x + 1).constant_value() in (2, -2)
    p = x ** 2 - 2
    assert _sylvester_det(p, p).is_zero


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
    """The int determinant of the Sylvester matrix of (f, g), in that
    order also when deg f < deg g, is sympy's (sympy's ``resultant`` swaps
    to Res(g, f) there)."""
    M = sylvester(_to_sympy(f), _to_sympy(g), sympy.Symbol("x1"))
    if M.rows == 0:  # two constants
        want = 1
    else:  # det over ZZ[a1]: sympy's generic det is 40x slower here
        dm = DomainMatrix.from_Matrix(M)
        want = dm.domain.to_sympy(dm.det())
    assert sympy.expand(_to_sympy(_sylvester_det(f, g)) - want) == 0


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
    pscs = psc_set(int_coeffs(f, "x1", ()), int_coeffs(g, "x1", ()))
    m, n = f.degree("x1"), g.degree("x1")
    assert len(pscs) == min(m, n)
    big, small = (f, g) if m >= n else (g, f)
    assert MultiPoly((), pscs[0]) == _sylvester_det(big, small)
    zeros = next((j for j, p in enumerate(pscs) if p), len(pscs))
    x = sympy.Symbol("x1")
    assert zeros == sympy.degree(sympy.gcd(_to_sympy(f), _to_sympy(g)), x)


def test_psc_set():
    x, y = X("x1"), X("y1")
    f = x ** 2 - y
    g = x - 1
    pscs = psc_set(int_coeffs(f, "x1", ("y1",)), int_coeffs(g, "x1", ("y1",)))
    assert len(pscs) == 1
    assert MultiPoly(("y1",), pscs[0]) == MultiPoly.const(1) - y  # resultant(x^2-y, x-1)


def _scaled_det(rows):
    """The determinant of a square MultiPoly matrix by the int Bareiss
    _det: each row scaled to int coefficients by the lcm L_i of its
    denominators, over the union of the entries' variables, so the int
    matrix has determinant (prod L_i) * det, which is divided back out."""
    frame = ()
    for row in rows:
        for entry in row:
            frame = merge_vars(frame, entry.vars)
    scale, ints = 1, []
    for row in rows:
        den = lcm(*(c.denominator for entry in row for c in entry.terms.values()))
        scale *= den
        ints.append([{m: int(c * den) for m, c in entry.with_vars(frame).terms.items()}
                     for entry in row])
    return MultiPoly(frame, {m: F(c, scale) for m, c in _det(ints).items()})


def test_scaled_det_known():
    one = MultiPoly.const
    m = [[one(2), one(1)], [one(7), one(4)]]
    assert _scaled_det(m).constant_value() == 1
    x = X("x1")
    m2 = [[x, one(1)], [one(1), x]]
    assert _scaled_det(m2) == x ** 2 - 1


# polynomials in x1 (degree <= 3), a1 and b1 (degree <= 1) with rational,
# mostly non-integer coefficients: they reach the int core's row scaling
# and its exact division by non-constant pivots
_ratio = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 4))
_trivariate = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 1)),
    _ratio, min_size=1, max_size=4,
).map(lambda terms: MultiPoly(("x1", "a1", "b1"), terms))


def _sympy_det(M):
    """Determinant of a sympy Matrix over QQ[...] by DomainMatrix."""
    dm = DomainMatrix.from_Matrix(M)
    return dm.domain.to_sympy(dm.det())


@settings(max_examples=60, deadline=None)
@given(_trivariate, _trivariate)
@example(F(1, 2) * X("x1") ** 2 - F(3, 4) * X("a1"), F(2, 3) * X("x1") + F(-3, 4) * X("b1"))
@example(F(1, 2) * X("x1") * X("a1") + X("b1"), F(-3, 4) * X("x1") ** 3 + F(1, 3) * X("a1"))
def test_resultant_of_rational_trivariate_polys_matches_sylvester(f, g):
    M = sylvester(_to_sympy(f), _to_sympy(g), sympy.Symbol("x1"))
    want = 1 if M.rows == 0 else _sympy_det(M)
    assert sympy.expand(_to_sympy(_sylvester_det(f, g)) - want) == 0


_entry = st.one_of(st.just(MultiPoly.zero()), _trivariate)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=n, max_size=n)))
@example([[F(1, 2) * X("a1"), X("b1")], [MultiPoly.const(F(-3, 4)), X("x1") * X("a1")]])
@example([[MultiPoly.zero(), X("a1"), MultiPoly.const(F(1, 2))],
          [X("b1"), MultiPoly.zero(), X("x1")],
          [MultiPoly.const(F(2, 3)), X("x1"), X("a1") + F(1, 3)]])
def test_scaled_det_matches_domain_matrix(rows):
    """Zero entries force row swaps; rational entries force row scaling
    and exact division by non-constant pivots."""
    want = _sympy_det(sympy.Matrix([[_to_sympy(e) for e in row] for row in rows]))
    assert sympy.expand(_to_sympy(_scaled_det(rows)) - want) == 0


def test_sign_at_point_mixed():
    x = X("x1")
    sqrt2 = isolate_real_roots(_ints(x ** 2 - 2))[1]
    sqrt3 = isolate_real_roots(_ints(x ** 2 - 3))[1]
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
    sqrt2 = isolate_real_roots(_ints(MultiPoly.var("z1") ** 2 - 2))[1]
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


def test_roots_at_point_when_the_rationals_cancel_every_algebraic():
    """x = 1 cancels the only term in the algebraic a, so the roots in y
    come from rational coefficients alone: exactly the rational 2."""
    x, a, y = MultiPoly.var("x"), MultiPoly.var("a"), MultiPoly.var("y")
    sqrt2 = isolate_real_roots([-2, 0, 1])[1]
    got = roots_at_point((x - 1) * a * y + y - 2, {"x": F(1), "a": sqrt2}, "y")
    assert [r.value for r in got] == [2]


def test_roots_at_point_with_a_reducible_defining_polynomial():
    """-sqrt2 defined by x^4 - 4 = (x^2 - 2)(x^2 + 2): the polynomial's
    coefficients share the factor x^2 + 2, so the resultant with x^4 - 4
    vanishes identically; the number is redefined by x^2 - 2."""
    x, z = MultiPoly.var("x"), MultiPoly.var("z")
    a = RealAlgebraicNumber([-4, 0, 0, 0, 1], F(-15, 8), F(-5, 4))
    roots = roots_at_point((x ** 2 + 2) * (z ** 2 - 1) * z, {"x": a}, "z")
    assert [r.value for r in roots] == [-1, 0, 1]
    assert a.poly == [-2, 0, 1] and a.lo ** 2 > 2 > a.hi ** 2
    # restrict keeps the factor the number is a root of, else the cofactor
    b = RealAlgebraicNumber([-4, 0, 0, 0, 1], F(-15, 8), F(-5, 4))
    b.restrict([-2, 0, 1])
    assert b.poly == [-2, 0, 1] and sign_at_point(x ** 2 - 2, {"x": b}) == 0
    # a linear factor gives the rational value: 1 is the root of
    # (x - 1)(x^2 - 2) in (1/2, 5/4)
    c = RealAlgebraicNumber([2, -2, -1, 1], F(1, 2), F(5, 4))
    c.restrict([2, 0, -1])
    assert c.is_rational and c.value == 1


def test_roots_at_point_with_dependent_coordinates():
    """a = -1/sqrt2 and b = sqrt2: (ab - 1)(z^2 - 2) vanishes identically
    at the conjugate a = 1/sqrt2, so the cascade over a leaves a factor
    b^2 - 2 that vanishes at b; it is divided out, and the zeros at the
    actual coordinates stay."""
    a, b, z = MultiPoly.var("a"), MultiPoly.var("b"), MultiPoly.var("z")
    alpha = RealAlgebraicNumber([-1, 0, 2], F(-1), F(0))
    beta = RealAlgebraicNumber([-2, 0, 1], F(1), F(2))
    point = {"a": alpha, "b": beta}
    low, high = roots_at_point((a * b - 1) * (z ** 2 - 2), point, "z")
    assert sign_at_point(z + b, {"b": beta, "z": low}) == 0
    assert sign_at_point(z - b, {"b": beta, "z": high}) == 0
    assert sign_at_point(a * b + 1, point) == 0
    assert sign_at_point(a * b * z, {**point, "z": high}) == -1


def test_interval_eval():
    # x^2 - 1 as an int polynomial over the frame (x1,)
    lo, hi = interval_eval({(2,): 1, (0,): -1}, [(F(-1, 2), F(1, 2))])
    assert lo <= -F(3, 4) <= hi
    # 3*(x^2 - 1): the enclosure is exactly three times as wide
    assert interval_eval({(2,): 3, (0,): -3}, [(F(-1, 2), F(1, 2))]) == (3 * lo, 3 * hi)


def test_src_callers_pass_int_lists(monkeypatch):
    """The decision paths hand isolate_real_roots, RealAlgebraicNumber
    and sign_of_poly int lists only: at rational sample points, at
    points with two irrational coordinates (counted where _sign runs)
    and in a decide_es op."""
    seen = set()

    def ints_only(name, c):
        seen.add(name)
        assert c and all(type(x) is int for x in c), (name, c)

    init, sign_of_poly = RealAlgebraicNumber.__init__, RealAlgebraicNumber.sign_of_poly
    at_two_irrationals = []

    def checked_isolate(p):
        ints_only("isolate_real_roots", p)
        return isolate_real_roots(p)

    def checked_init(self, poly, lo, hi):
        ints_only("__init__", poly)
        init(self, poly, lo, hi)

    def checked_sign_of_poly(self, q):
        ints_only("sign_of_poly", q)
        return sign_of_poly(self, q)

    def counted_sign(p, frame, scale, point):
        irrational = [v for v in frame
                      if isinstance(point[v], RealAlgebraicNumber) and not point[v].is_rational]
        at_two_irrationals.append(len(irrational) >= 2)
        return _sign(p, frame, scale, point)

    monkeypatch.setattr("esdec.qe.roots.isolate_real_roots", checked_isolate)
    monkeypatch.setattr(RealAlgebraicNumber, "__init__", checked_init)
    monkeypatch.setattr(RealAlgebraicNumber, "sign_of_poly", checked_sign_of_poly)
    monkeypatch.setattr("esdec.qe.roots._sign", counted_sign)
    for text, truth in [
        ("exists x. exists y. exists z. x^2 - 2 = 0 and y^2 - 3 = 0 and z^2 - x*y = 0", True),
        ("forall x. exists y. y^2 - x >= 0 or y - x < 0", True),
        ("exists x. exists y. x^2 + y^2 - 4 = 0 and x*y - 1 > 0", True),
        ("forall x. x^2 - 2 != 0", False),
    ]:
        assert decide_sentence(parse_sentence(text)) is truth
    assert any(at_two_irrationals)
    assert decide_es(parse("2*x1*x2 - x2 - 4 > 0")).answer == "NO"
    assert seen == {"isolate_real_roots", "__init__", "sign_of_poly"}


def test_usquarefree():
    # (x-1)^3 -> x-1 up to sign/scale
    p = [-1, 3, -3, 1]
    sf = usquarefree(p)
    assert len(sf) == 2
