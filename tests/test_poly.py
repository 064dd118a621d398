from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from esdec.poly import MultiPoly, merge_vars, var_sort_key


def P(text_vars, terms):
    return MultiPoly(text_vars, {m: Fraction(c) for m, c in terms.items()})


def test_var_order_canonical():
    assert merge_vars(("Y", "x2"), ("X", "x1", "y1")) == ("x1", "x2", "y1", "X", "Y")
    assert var_sort_key("y2") < var_sort_key("y10")
    assert var_sort_key("y3") < var_sort_key("X")


@given(st.lists(st.from_regex(r"[A-Za-z]{1,3}[0-9]{0,3}", fullmatch=True), max_size=8))
@example(["Y", "y10", "x2", "X", "y2", "x1", "b3", "B"])
def test_var_sort_key_memo_keeps_the_order(names):
    """The memoized key sorts names as the key computed afresh does."""
    fresh = var_sort_key.__wrapped__
    assert sorted(names, key=var_sort_key) == sorted(names, key=fresh)
    assert [var_sort_key(n) for n in names] == [fresh(n) for n in names]


def test_var_sort_key_rejects_bad_names_every_time():
    for _ in range(2):  # a raised error is not memoized
        for bad in ("x_1", "1x", "", "x1y"):
            with pytest.raises(ValueError):
                var_sort_key(bad)
    assert var_sort_key("y10") == (False, "y", 10)


def test_difference_of_squares():
    x1 = MultiPoly.var("x1")
    assert (x1 + 1) * (x1 - 1) == x1 ** 2 - 1


def test_add_zero_identity():
    p = P(("x1", "x2"), {(1, 1): 2, (0, 0): -3})
    assert p + MultiPoly.zero() == p


def test_cancellation():
    x1, x2 = MultiPoly.var("x1"), MultiPoly.var("x2")
    assert x1 * x2 - x2 - x1 * x2 == -x2


def test_eval_exact():
    x1, x2 = MultiPoly.var("x1"), MultiPoly.var("x2")
    p = x1 ** 2 * x2 - Fraction(1, 3)
    v = p.evaluate({"x1": Fraction(1, 2), "x2": Fraction(4, 3)})
    assert v == Fraction(1, 4) * Fraction(4, 3) - Fraction(1, 3)


def test_partial_eval():
    x1, x2 = MultiPoly.var("x1"), MultiPoly.var("x2")
    p = x1 * x2 + x2
    q = p.partial_eval({"x1": Fraction(2)})
    assert q == 3 * MultiPoly.var("x2")


def test_univar_roundtrip():
    x, y = MultiPoly.var("x1"), MultiPoly.var("x2")
    p = x ** 2 * y + x * (y ** 2 - 1) + 7
    coeffs = p.as_univar("x1")
    assert len(coeffs) == 3
    assert MultiPoly.from_univar(coeffs, "x1") == p


def test_primitive_and_content():
    x = MultiPoly.var("x1")
    p = Fraction(4, 6) * x ** 2 - Fraction(2, 3)
    assert p.content() == Fraction(2, 3)
    prim = p.primitive()
    assert prim == x ** 2 - 1
    assert (-p).primitive() == x ** 2 - 1  # sign-canonical


def test_to_text_roundtrip_shape():
    x1, x2 = MultiPoly.var("x1"), MultiPoly.var("x2")
    p = -x1 ** 2 + Fraction(5, 3) * x2 - 1
    assert p.to_text() == "-x1^2 + 5/3*x2 - 1"
    assert MultiPoly.zero().to_text() == "0"


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_ring_axioms_sample(a, b, c):
    x, y = MultiPoly.var("x1"), MultiPoly.var("x2")
    p = a * x + b
    q = b * y + c
    r = c * x * y + a
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p - p).is_zero


_POOL = ("x1", "x2", "y1", "X", "Y")
_COEFF = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


@st.composite
def _polys(draw):
    """Polynomials over a random subset of _POOL, handed to the checked
    constructor in random variable order, zero coefficients included."""
    names = draw(st.lists(st.sampled_from(_POOL), unique=True, max_size=4))
    monos = st.tuples(*[st.integers(0, 2)] * len(names))
    return MultiPoly(names, draw(st.dictionaries(monos, _COEFF, max_size=4)))


def _assert_canonical(r):
    assert r.vars == tuple(sorted(r.vars, key=var_sort_key))
    assert len(set(r.vars)) == len(r.vars)
    for mono, coeff in r.terms.items():
        assert len(mono) == len(r.vars)
        assert isinstance(coeff, Fraction) and coeff != 0
    rebuilt = MultiPoly(r.vars, r.terms)
    assert r == rebuilt and hash(r) == hash(rebuilt)


@settings(max_examples=150, deadline=None)
@given(_polys(), _polys(), _COEFF, st.permutations(_POOL), st.integers(0, 3))
def test_operations_return_canonical_polys(p, q, c, order, e):
    results = [
        p + q, p - q, -p, p * q, p * c, c * p, p ** e,
        p.with_vars(order), p.drop_unused(), p.primitive(),
        MultiPoly.var(order[e], order), MultiPoly.const(c, order),
        MultiPoly.zero(order),
    ]
    for i, v in enumerate(p.vars):
        results.append(p.partial_eval({v: c}))
        coeffs = p.as_univar(v)
        results.extend(coeffs)
        results.append(MultiPoly.from_univar(coeffs, v))
        results.append(p.rename_vars({v: f"z{i + 1}"}))
    for r in results:
        _assert_canonical(r)
