"""Signs and roots at points with two or three irrational coordinates,
against the Fraction path that the int cascade of esdec.qe.roots replaced.

The reference below is that path, kept here and nowhere else: the
polynomial at the rational coordinates as a Fraction MultiPoly, interval
enclosures over Fraction coefficients, remainders by Fraction division,
resultants by det_bareiss of the MultiPoly Sylvester matrix, and the
shared factor divided out of a rebuilt MultiPoly.  Both sides refine the
same numbers in place, so each runs on its own deep copy of the point and
the check compares the answers, the numbers' states afterwards and any
ResourceLimitError.

Numbers are roots of irreducible quadratics, defined by them or by a
reducible product on an isolating interval; some coordinates
depend on each other (a shared number, its negation or its reciprocal),
and some are rationals dressed as roots of a product with a linear
factor, which collapse to the rational at their first refinement.
"""

import copy
from fractions import Fraction as F
from math import lcm

from hypothesis import assume, example, given, settings, strategies as st

from esdec.errors import ResourceLimitError
from esdec.poly import MultiPoly
from esdec.qe.resultants import _subresultant_matrix, det_bareiss
from esdec.qe.roots import (
    RealAlgebraicNumber, _int_coeffs, _quotient, _to_ints, isolate_real_roots,
    roots_at_point, sign_at_point, ugcd, usign,
)

# -- the Fraction path -------------------------------------------------


def _resultant(f, g, var):
    fc, gc = f.as_univar(var), g.as_univar(var)
    m, n = len(fc) - 1, len(gc) - 1
    sign = 1
    if m < n:
        fc, gc, m, n = gc, fc, n, m
        if (m * n) % 2:
            sign = -1
    if n == 0:
        out = gc[0] ** m
    else:
        out = det_bareiss(_subresultant_matrix(fc, gc, 0, MultiPoly.const(0)))
    return out if sign == 1 else -out


def _iadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _imul(a, b):
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(vals), max(vals))


def _ipow(a, e):
    out = (F(1), F(1))
    for _ in range(e):
        out = _imul(out, a)
    return out


def _interval_eval(p, boxes):
    total = (F(0), F(0))
    for mono, coeff in p.terms.items():
        term = (F(coeff), F(coeff))
        for v, e in zip(p.vars, mono):
            if e:
                term = _imul(term, _ipow(boxes[v], e))
        total = _iadd(total, term)
    return total


def _reduce_mod(M, defining, var):
    if var not in M.vars:
        return M
    coeffs = M.as_univar(var)
    dm = len(defining) - 1
    lead_inv = F(1) / defining[dm]
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


def _coeffs_in(M, var):
    i = M.vars.index(var)
    den = lcm(*(c.denominator for c in M.terms.values()))
    by_rest = {}
    for mono, coeff in M.terms.items():
        by_rest.setdefault(mono[:i] + mono[i + 1:], {})[mono[i]] = \
            coeff.numerator * (den // coeff.denominator)
    return den, {rest: [powers.get(k, 0) for k in range(max(powers) + 1)]
                 for rest, powers in by_rest.items()}


def _shared_factor(defining, M, var):
    g = defining
    for coeffs in _coeffs_in(M, var)[1].values():
        g = ugcd(g, coeffs)
        if len(g) == 1:
            break
    return g


def _divide_out(M, factor, var):
    i = M.vars.index(var)
    den, parts = _coeffs_in(M, var)
    while True:
        quotients = {}
        for rest, coeffs in parts.items():
            q = _quotient(coeffs, factor)
            if q is None:
                return MultiPoly(M.vars, {
                    other[:i] + (k,) + other[i:]: F(c, den)
                    for other, cs in parts.items() for k, c in enumerate(cs)})
            quotients[rest] = q
        parts = quotients


def _eliminate_algebraics(M, algs):
    out = M
    for v in sorted(algs):
        a = algs[v]
        while not out.is_zero:
            if a.is_rational:
                out = out.partial_eval({v: a.value}) if v in out.vars else out
                break
            reduced = _reduce_mod(out, a.poly, v)
            if not reduced.is_zero:
                if v not in reduced.used_vars():
                    out = reduced.partial_eval({v: F(0)}) if v in reduced.vars else reduced
                    break
                defining = MultiPoly((v,), {(i,): F(c) for i, c in enumerate(a.poly) if c})
                res = _resultant(defining, reduced, v)
                if not res.is_zero:
                    out = res
                    break
            shared = _shared_factor(a.poly, out, v)
            if len(shared) == 1:
                return MultiPoly.zero()
            if a.restrict(shared):
                out = _divide_out(out, shared, v)
    return out


def _nonzero_root_gap(N):
    k = 0
    while N[k] == 0:
        k += 1
    c0 = abs(N[k])
    rest = max((abs(c) for c in N[k + 1:]), default=0)
    return F(c0, c0 + rest) if rest else F(1)


def _split_point(point):
    rats, algs = {}, {}
    for v, x in point.items():
        if isinstance(x, RealAlgebraicNumber):
            if x.is_rational:
                rats[v] = x.value
            else:
                algs[v] = x
        else:
            rats[v] = F(x)
    return rats, algs


def _fresh_var(avoid):
    i = 0
    while f"W{i}" in avoid:
        i += 1
    return f"W{i}"


def _sign_at_point(p, point):
    ints = _int_coeffs(p, point)
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
        return a.sign_of_poly([c.constant_value() for c in q.as_univar(v)])
    gap = None
    while True:
        box = _interval_eval(q, {v: a.interval() for v, a in live.items()})
        if box[0] > 0:
            return 1
        if box[1] < 0:
            return -1
        if gap is None:
            tvar = _fresh_var(q.vars)
            M = MultiPoly.var(tvar, (tvar,) + q.vars) - q.with_vars((tvar,) + q.vars)
            N_poly = _eliminate_algebraics(M, live)
            ncoeffs = [c.constant_value() for c in N_poly.as_univar(tvar)]
            if any(c is None for c in ncoeffs) or not any(ncoeffs):
                raise ResourceLimitError("degenerate characteristic polynomial")
            ncoeffs = _to_ints(ncoeffs)
            zero_possible = ncoeffs[0] == 0
            gap = _nonzero_root_gap(ncoeffs)
        if zero_possible and -gap < box[0] and box[1] < gap:
            return 0
        collapsed = False
        for a in live.values():
            a.refine()
            collapsed = collapsed or a.is_rational
        if collapsed:
            return _sign_at_point(p, point)


def _changes_sign_around(p, point, var, root):
    if root.is_rational:
        return False
    lo, hi = root.interval()
    return _sign_at_point(p, {**point, var: lo}) * _sign_at_point(p, {**point, var: hi}) < 0


def _roots_at_point(p, point, var):
    rats, algs = _split_point(point)
    coeffs = p.partial_eval(rats).as_univar(var)
    deg = -1
    for i in range(len(coeffs) - 1, -1, -1):
        value = coeffs[i].constant_value()
        if value is None:
            value = _sign_at_point(coeffs[i], algs)
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
    return [cand for cand in isolate_real_roots(ncoeffs)
            if _changes_sign_around(trunc, algs, var, cand)
            or _sign_at_point(trunc, {**algs, var: cand}) == 0]


# -- inputs --------------------------------------------------------------

# irreducible over Q: each number's own factor
_FACTORS = [[-2, 0, 1], [-3, 0, 1], [-1, 0, 2], [-1, -1, 1], [1, -4, 1]]
# cofactors that make a reducible defining polynomial
_COFACTORS = [[2, 0, 1], [-1, 2], [1, 1]]


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def _number(draw):
    """(number, its own factor): a root of an irreducible factor, defined
    by it or, on an isolating interval, by its product with a cofactor;
    or a rational c/2 defined by (2x - c)(x^2 - 7) on (c/2 - 1/2, c/2 +
    1/2), whose first bisection midpoint is the rational itself."""
    kind = draw(st.sampled_from(["irreducible", "reducible", "collapsing"]))
    if kind == "collapsing":
        r = F(draw(st.integers(-3, 3)), 2)
        factor = [-r.numerator, r.denominator]
        return RealAlgebraicNumber(_mul(factor, [-7, 0, 1]), r - F(1, 2), r + F(1, 2)), factor
    factor = draw(st.sampled_from(_FACTORS))
    roots = [r for r in isolate_real_roots(factor) if not r.is_rational]
    ran = draw(st.sampled_from(roots))
    if kind == "reducible":
        poly = _mul(factor, draw(st.sampled_from(_COFACTORS)))
        others = isolate_real_roots(poly)

        def isolates(lo, hi):
            return usign(poly, lo) and usign(poly, hi) and sum(
                r.compare_rational(lo) > 0 and r.compare_rational(hi) < 0 for r in others) == 1

        while not isolates(ran.lo, ran.hi):
            ran.refine()
        ran = RealAlgebraicNumber(poly, ran.lo, ran.hi)
    for _ in range(draw(st.integers(0, 3))):
        ran.refine()
    return ran, factor


def _negated(c):
    return [x * (-1) ** i for i, x in enumerate(c)]


@st.composite
def _point(draw, names):
    """A point with an irrational-looking number on each name, the later
    ones sometimes the same number as an earlier one, its negation or its
    reciprocal (defined by the reversed polynomial), and a rational r1."""
    point, factors = {"r1": draw(st.sampled_from([F(1, 2), F(-2), F(3)]))}, {}
    for name in names:
        how = draw(st.sampled_from(["fresh", "fresh", "same", "negated", "reciprocal"]))
        if not factors or how == "fresh":
            point[name], factors[name] = draw(_number())
            continue
        src = draw(st.sampled_from(sorted(factors)))
        ran, factor = point[src], factors[src]
        if how == "negated" and not ran.is_rational:
            ran = RealAlgebraicNumber(_negated(ran.poly), -ran.hi, -ran.lo)
            factor = _negated(factor)
        elif how == "reciprocal" and not ran.is_rational and (ran.lo > 0 or ran.hi < 0):
            ran = RealAlgebraicNumber(ran.poly[::-1], 1 / ran.hi, 1 / ran.lo)
            factor = factor[::-1]
        point[name], factors[name] = ran, factor
    return point, factors


_small = st.integers(-2, 2)


@st.composite
def _poly(draw, names, extra=()):
    """A polynomial of up to three small terms over r1 and the names,
    which declares the ``extra`` variables too but uses none of them."""
    frame = ("r1",) + tuple(names) + tuple(extra)

    def monomial():
        return tuple(0 if v in extra else draw(st.integers(0, 1)) for v in frame)

    terms = {monomial(): F(draw(_small)) for _ in range(draw(st.integers(0, 3)))}
    return MultiPoly(frame, terms)


def _factor_poly(factor, name):
    return MultiPoly((name,), {(i,): F(c) for i, c in enumerate(factor) if c})


@st.composite
def _vanishing(draw, names, factors, extra=()):
    """A _poly times a coordinate's own factor, which is zero at the
    point, sometimes times a cofactor of a reducible defining polynomial,
    sometimes plus another _poly."""
    name = draw(st.sampled_from(list(names)))
    times = draw(_poly(names, extra))
    if times.is_zero:
        times = MultiPoly.const(1)
    out = times * _factor_poly(factors[name], name)
    if draw(st.booleans()):
        out = out * _factor_poly(draw(st.sampled_from(_COFACTORS)), draw(st.sampled_from(list(names))))
    if draw(st.booleans()):
        out = out + draw(_poly(names, extra))
    return out


@st.composite
def _sign_case(draw):
    """Two or three numbers, and a polynomial of degree at most 3 in each,
    which keeps the characteristic polynomial small."""
    names = ("a1", "a2", "a3")[: draw(st.integers(2, 3))]
    point, factors = draw(_point(names))
    extra = ("u1",) if draw(st.booleans()) else ()
    if extra:
        point["u1"], _ = draw(_number())
    p = draw(st.one_of(_poly(names, extra=extra), _vanishing(names, factors, extra=extra)))
    assume(all(p.degree(v) <= 3 for v in names))
    return p, point


@st.composite
def _roots_case(draw):
    """Two numbers, and coefficients in z1 of degree at most 3 in each:
    the zero test at a root eliminates the root's defining polynomial too,
    and on larger draws both paths run for seconds to minutes."""
    names = ("a1", "a2")
    point, factors = draw(_point(names))
    extra = ("u1",) if draw(st.booleans()) else ()
    if extra:
        point["u1"], _ = draw(_number())
    z = MultiPoly.var("z1")
    coeffs = [draw(st.one_of(_poly(names, extra=extra), _vanishing(names, factors, extra=extra)))
              for _ in range(draw(st.integers(1, 2)))]
    p = sum((c * z ** k for k, c in enumerate(coeffs)), MultiPoly.zero())
    if draw(st.booleans()):  # a root z = a_i + a_j or z = a_i * c
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        p = p * (z - MultiPoly.var(a) - MultiPoly.var(b) * draw(_small))
    name = draw(st.sampled_from(names))
    if draw(st.booleans()) and not point[name].is_rational:
        # every coefficient shares the cofactor of a reducible definition
        p = p * _factor_poly(_quotient(point[name].poly, factors[name]), name)
    assume(all(p.degree(v) <= 3 for v in names))
    return p, point


def _run(f, *args):
    """(repr of f's answer or its ResourceLimitError, reprs of the point's
    numbers afterwards)."""
    point = args[1]
    try:
        got = repr(f(*args))
    except ResourceLimitError as exc:
        got = f"ResourceLimitError: {exc}"
    return got, {v: repr(x) for v, x in point.items()}


def _both(ours, reference, p, point, *rest):
    mine = copy.deepcopy(point)
    want = _run(reference, p, copy.deepcopy(point), *rest)
    assert _run(ours, p, mine, *rest) == want


# -- checks --------------------------------------------------------------


def _sqrt(k):
    return RealAlgebraicNumber([-k, 0, 1], F(1), F(k))


@settings(max_examples=120, deadline=None)
@given(_sign_case())
@example((MultiPoly.var("a1") * MultiPoly.var("a2") - 1,  # sqrt2 * (1/sqrt2) - 1
          {"a1": _sqrt(2), "a2": RealAlgebraicNumber([-1, 0, 2], F(0), F(1))}))
def test_sign_at_point_matches_the_fraction_cascade(case):
    p, point = case
    _both(sign_at_point, _sign_at_point, p, point)


@settings(max_examples=120, deadline=None)
@given(_roots_case())
@example((MultiPoly(("a1", "a2", "u1", "z1"),
                    {(1, 0, 0, 1): F(1), (0, 1, 0, 0): F(-1)}),  # u1 is in no term
          {"a1": _sqrt(2), "a2": _sqrt(3), "u1": _sqrt(5)}))
@example(((MultiPoly.var("a1") * MultiPoly.var("a2") - 1) * (MultiPoly.var("z1") ** 2 - 2),
          {"a1": RealAlgebraicNumber([-1, 0, 2], F(-1), F(0)), "a2": _sqrt(2)}))  # shared factor
@example(((MultiPoly.var("a1") ** 2 + 2) * (MultiPoly.var("z1") ** 2 - MultiPoly.var("a2")),
          {"a1": RealAlgebraicNumber([-4, 0, 0, 0, 1], F(1), F(2)), "a2": _sqrt(3)}))  # restrict
def test_roots_at_point_matches_the_fraction_cascade(case):
    p, point = case
    _both(roots_at_point, _roots_at_point, p, point, "z1")


def test_a_collapsing_coordinate_is_substituted_alike():
    """1/2, defined by (2x - 1)(x^2 - 7) on (0, 1), is its first bisection
    midpoint: the enclosure of a1 - 1/2 + a2^2 - 3 holds zero until a1
    collapses, and the sign is taken again with a1 = 1/2."""
    p = MultiPoly.var("a1") - F(1, 2) + MultiPoly.var("a2") ** 2 - 3
    point = {"a1": RealAlgebraicNumber(_mul([-1, 2], [-7, 0, 1]), F(0), F(1)), "a2": _sqrt(3)}
    _both(sign_at_point, _sign_at_point, p, point)
    assert sign_at_point(p, point) == 0
    assert point["a1"].is_rational
