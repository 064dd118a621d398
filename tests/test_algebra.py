import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from esdec.algebra import (
    TransformKind,
    infer_arity,
    y_names,
    coefficient_decomposition,
    dominant_monomial,
    lex_sign_on_growing,
    spanning_subset,
    substitute_transform,
    sufficient_R,
)
from esdec.poly import MultiPoly


def xv(i):
    return MultiPoly.var(f"x{i}")


def test_substitute_f2_bilinear():
    p = xv(1) * xv(2)
    num, den = substitute_transform(p, TransformKind.F2)
    y1 = MultiPoly.var("y1")
    y2 = MultiPoly.var("y2")
    X = MultiPoly.var("X")
    Y = MultiPoly.var("Y")
    assert num == X ** 2 * y1 * y2 + X * Y * y1 + X * Y * y2 + Y ** 2
    assert den == y1 * y2


def test_substitute_f1_difference():
    p = xv(1) - xv(2)
    num, den = substitute_transform(p, TransformKind.F1)
    Y, y1, y2 = MultiPoly.var("Y"), MultiPoly.var("y1"), MultiPoly.var("y2")
    assert num == Y * y1 - Y * y2
    assert den.constant_value() == 1


def test_substitute_constant():
    p = MultiPoly.const(5, ("x1", "x2"))
    num, den = substitute_transform(p, TransformKind.F2, k=2)
    assert num.constant_value() == 5
    assert den.constant_value() == 1


def test_substitute_ignores_cancelled_variables():
    """x2 - x2 leaves x2 among the variables but unused; an arity-1
    substitution must not ask for y2."""
    p = xv(1) + xv(2) - xv(2)
    assert "x2" in p.vars
    for kind in TransformKind:
        assert substitute_transform(p, kind, k=1) == substitute_transform(xv(1), kind, k=1)


def test_substitute_consistency_random():
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randint(1, 3)
        p = MultiPoly.zero(tuple(f"x{i}" for i in range(1, k + 1)))
        for _ in range(rng.randint(1, 4)):
            mono = tuple(rng.randint(0, 2) for _ in range(k))
            p = p + MultiPoly((f"x{i}" for i in range(1, k + 1)), {mono: Fraction(rng.randint(-5, 5))})
        if p.is_zero:
            continue
        for kind in TransformKind:
            num, den = substitute_transform(p, kind, k=k)
            ys = {f"y{i}": Fraction(rng.randint(1, 9)) for i in range(1, k + 1)}
            X, Y = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
            point = dict(ys, X=X, Y=Y)
            if kind is TransformKind.F1:
                xs = {f"x{i}": X + Y * ys[f"y{i}"] for i in range(1, k + 1)}
            else:
                xs = {f"x{i}": X + Y / ys[f"y{i}"] for i in range(1, k + 1)}
            lhs = num.evaluate(point)
            rhs = p.evaluate(xs) * den.evaluate(point)
            assert lhs == rhs
            # every y is positive, so den is: num has p's sign (typesys keeps num only)
            assert (lhs > 0) - (lhs < 0) == (p.evaluate(xs) > 0) - (p.evaluate(xs) < 0)


def _f1_expansion(p, k):
    """F1 expanded term by term: each x_i^e becomes (X + Y*y_i)^e."""
    p = p.drop_unused()
    allv = y_names(k) + ("X", "Y")
    X = MultiPoly.var("X", allv)
    Y = MultiPoly.var("Y", allv)
    num = MultiPoly.zero(allv)
    for mono, coeff in p.terms.items():
        piece = MultiPoly.const(coeff, allv)
        for v, e in zip(p.vars, mono):
            piece = piece * (X + Y * MultiPoly.var(f"y{v[1:]}", allv)) ** e
        num = num + piece
    return num, MultiPoly.const(1, allv)


def _f2_expansion(p, k):
    """F2 expanded term by term: each x_i^e becomes (X*y_i + Y)^e times
    y_i^(d_i - e), with d_i = deg_{x_i} p."""
    p = p.drop_unused()
    allv = y_names(k) + ("X", "Y")
    X = MultiPoly.var("X", allv)
    Y = MultiPoly.var("Y", allv)
    degs = {i: p.degree(f"x{i}") for i in range(1, k + 1)}
    den = MultiPoly.const(1, allv)
    for i in range(1, k + 1):
        if degs[i]:
            den = den * MultiPoly.var(f"y{i}", allv) ** degs[i]
    num = MultiPoly.zero(allv)
    xpos = {i: p.vars.index(f"x{i}") for i in range(1, k + 1) if f"x{i}" in p.vars}
    for mono, coeff in p.terms.items():
        piece = MultiPoly.const(coeff, allv)
        for i in range(1, k + 1):
            e = mono[xpos[i]] if i in xpos else 0
            d = degs[i]
            if not d:
                continue
            yv = MultiPoly.var(f"y{i}", allv)
            if e:
                piece = piece * (X * yv + Y) ** e
            if d - e:
                piece = piece * yv ** (d - e)
        num = num + piece
    return num, den


_XS = ("x1", "x2", "x3")
_X_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
    max_size=5,
).map(lambda terms: MultiPoly(_XS, terms))


@settings(max_examples=200, deadline=None)
@given(_X_POLYS, st.integers(0, 2))
@example(xv(1) * xv(2) + xv(2), 0)
@example(MultiPoly.zero(_XS), 0)
@example(MultiPoly.const(3, _XS), 1)
@example(xv(1) - xv(2), 0)
@example(Fraction(1, 2) * xv(1) ** 2 + Fraction(1, 3) * xv(1) * xv(2), 0)  # L = 6
def test_substitute_f2_matches_term_expansion(p, extra):
    k = max(infer_arity(p), 1) + extra
    num, den = substitute_transform(p, TransformKind.F2, k)
    ref_num, ref_den = _f2_expansion(p, k)
    assert num.vars == ref_num.vars and num.terms == ref_num.terms
    assert den.vars == ref_den.vars and den.terms == ref_den.terms


@settings(max_examples=200, deadline=None)
@given(_X_POLYS, st.integers(0, 2))
@example(xv(1) ** 2 + xv(1) * xv(2), 0)  # X*Y*y1 from both terms
@example(MultiPoly.zero(_XS), 0)
@example(MultiPoly.const(3, _XS), 1)
@example(xv(1) - xv(2), 0)  # the X terms cancel: a zero sum is dropped
@example(Fraction(1, 2) * xv(1) ** 2 + Fraction(1, 3) * xv(1) * xv(2), 0)  # L = 6
def test_substitute_f1_matches_term_expansion(p, extra):
    k = max(infer_arity(p), 1) + extra
    num, den = substitute_transform(p, TransformKind.F1, k)
    ref_num, ref_den = _f1_expansion(p, k)
    assert num.vars == ref_num.vars and num.terms == ref_num.terms
    assert den.vars == ref_den.vars and den.terms == ref_den.terms


@settings(max_examples=200, deadline=None)
@given(_X_POLYS, st.integers(0, 2))
@example(xv(1) ** 3 * xv(2) - xv(2), 1)
@example(MultiPoly.zero(_XS), 0)
def test_cleared_denominator_is_a_unit_monomial(p, extra):
    """F2's cleared denominator is the one monomial prod y_i^(deg_{x_i} p)
    with coefficient 1, and F1's is 1: both are positive wherever every
    y_i is, which is why a coefficient system keeps numerators only."""
    k = max(infer_arity(p), 1) + extra
    degs = tuple(p.degree(f"x{i}") for i in range(1, k + 1))
    _num, den = substitute_transform(p, TransformKind.F2, k)
    assert den.vars == y_names(k) + ("X", "Y")
    assert den.terms == {degs + (0, 0): 1}
    _num, den = substitute_transform(p, TransformKind.F1, k)
    assert den.terms == {(0,) * (k + 2): 1}


@settings(max_examples=100, deadline=None)
@given(_X_POLYS, st.integers(1, 2))
@example(xv(1) * xv(2) + xv(2), 1)
def test_substitute_rejects_k_below_used_index(p, k):
    if infer_arity(p) <= k:
        p = p + xv(3) ** 4  # exponents above 3 are not drawn, so it stays
    for kind in TransformKind:
        with pytest.raises(ValueError):
            substitute_transform(p, kind, k)


def test_substitute_rejects_variables_other_than_x():
    for name in ("z1", "y1", "x0", "X"):
        p = xv(1) + MultiPoly.var(name)
        for kind in TransformKind:
            with pytest.raises(ValueError):
                substitute_transform(p, kind, 3)


def test_decomposition_examples():
    Y, y1, y2 = MultiPoly.var("Y"), MultiPoly.var("y1"), MultiPoly.var("y2")
    q = Y * y1 - Y * y2
    d = coefficient_decomposition(q)
    assert d.support == frozenset({(1, 0), (0, 1)})
    assert d.coeffs[(1, 0)] == Y.with_vars(("X", "Y"))
    assert d.coeffs[(0, 1)] == -Y.with_vars(("X", "Y"))
    assert d.reassemble() == q.with_vars(("y1", "y2", "X", "Y"))

    q2 = y1 * y2
    d2 = coefficient_decomposition(q2)
    assert d2.support == frozenset({(1, 1)})
    assert d2.coeffs[(1, 1)].constant_value() == 1

    p = xv(1) * xv(2)
    num, _ = substitute_transform(p, TransformKind.F2)
    d3 = coefficient_decomposition(num)
    assert d3.support == frozenset({(1, 1), (1, 0), (0, 1), (0, 0)})


def test_decomposition_rejects_variables_other_than_y_x_y():
    """A term in a variable outside y1..yk, X, Y has no place in the
    grouping, so it raises instead of overwriting another term."""
    y1, y2, z = MultiPoly.var("y1"), MultiPoly.var("y2"), MultiPoly.var("z")
    with pytest.raises(ValueError, match="'y2'"):
        coefficient_decomposition(y1 * y2 + 2 * y1, k=1)
    with pytest.raises(ValueError, match="'z'"):
        coefficient_decomposition(y1 * z + 3 * y1)
    # an unused variable loses nothing
    d = coefficient_decomposition(y1 + z - z, k=1)
    assert d.support == frozenset({(1,)})
    assert d.reassemble() == y1


def test_decomposition_roundtrip_random():
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randint(1, 3)
        vars_ = tuple(f"y{i}" for i in range(1, k + 1)) + ("X", "Y")
        q = MultiPoly.zero(vars_)
        for _ in range(rng.randint(1, 6)):
            mono = tuple(rng.randint(0, 2) for _ in vars_)
            q = q + MultiPoly(vars_, {mono: Fraction(rng.randint(-4, 4))})
        if q.is_zero:
            continue
        d = coefficient_decomposition(q, k=k)
        assert d.reassemble() == q
        assert all(not c.is_zero for c in d.coeffs.values())


def test_dominant_monomial_cases():
    assert dominant_monomial([(1, 0), (0, 1)], "ascending") == (0, 1)
    assert dominant_monomial([(1, 1), (0, 1)], "ascending") == (1, 1)
    assert dominant_monomial([(1, 0), (0, 1)], "descending") == (1, 0)


def test_lex_sign_examples():
    assert lex_sign_on_growing(xv(1) - xv(2)) == -1
    assert lex_sign_on_growing(xv(1) * xv(2) - xv(2)) == 1
    assert lex_sign_on_growing(MultiPoly.zero(("x1",))) == 0


def canonical_sequence(R, length):
    seq = [Fraction(R)]
    while len(seq) < length:
        seq.append(seq[-1] ** R)
    return seq


def random_poly(rng, kmax=3, deg=3, coeff=10):
    k = rng.randint(1, kmax)
    vars_ = tuple(f"x{i}" for i in range(1, k + 1))
    p = MultiPoly.zero(vars_)
    for _ in range(rng.randint(1, 5)):
        while True:
            mono = tuple(rng.randint(0, deg) for _ in range(k))
            if sum(mono) <= deg:
                break
        p = p + MultiPoly(vars_, {mono: Fraction(rng.randint(-coeff, coeff))})
    return p, k


def test_lex_sign_oracle_small_sample():
    # the full 1000-instance run lives in the acceptance suite
    rng = random.Random(11)
    from itertools import combinations

    for _ in range(60):
        p, k = random_poly(rng)
        if p.is_zero:
            continue
        R = sufficient_R(p)
        seq = canonical_sequence(R, 5)
        want = lex_sign_on_growing(p)
        for tup in combinations(seq, k):
            val = p.evaluate({f"x{i}": t for i, t in enumerate(tup, start=1)})
            got = 0 if val == 0 else (1 if val > 0 else -1)
            assert got == want


def test_sufficient_r_examples():
    assert sufficient_R(MultiPoly.const(7, ("x1",))) == 3
    assert sufficient_R(xv(1) - xv(2)) >= 3


def test_spanning_subset():
    x = MultiPoly.var("x1")
    P = [x ** 2, 2 * x ** 2, x ** 2 + x, x]
    sub = spanning_subset(P, 2, 1)
    assert len(sub) == 2
    assert spanning_subset([MultiPoly.zero(("x1",))], 2, 1) == []
    y = MultiPoly.var("x2")
    assert len(spanning_subset([x, y, x + y], 1, 2)) == 2
