import random
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from esdec.algebra import TransformKind
from esdec.feasibility import (
    FEASIBLE, INFEASIBLE, FeasibilityInstance, build_psi_eventual, build_psi_star,
    is_feasible, sign_sentence, witness_search,
)
from esdec.poly import MultiPoly
from esdec.predicates import parse
from esdec.qe import decide_sentence, parse_sentence
from esdec.typesys import build_Q, compute_type, enumerate_types

from golden import GROWTH_PATTERNS, LINEAR_PARTS, growth_gap_atoms, growth_gap_truth

F = Fraction
X = MultiPoly.var("X", ("X", "Y"))
Y = MultiPoly.var("Y", ("X", "Y"))


def test_positive_definite_infeasible():
    inst = FeasibilityInstance(
        sign_constraints=((X ** 2 + Y ** 2 + 1, -1),),
        dwarfed=(), gigantic=(),
    )
    assert is_feasible(inst) == INFEASIBLE


def test_both_dwarfed_feasible():
    inst = FeasibilityInstance(
        sign_constraints=((X, 1), (Y, 1)),
        dwarfed=((X, 1, Y, 1), (Y, 1, X, 1)),
        gigantic=(),
    )
    assert is_feasible(inst) == FEASIBLE


def test_gigantic_dwarfed_feasible():
    inst = FeasibilityInstance(
        sign_constraints=((X, 1), (Y, 1)),
        dwarfed=((Y, 1, X, 1),),
        gigantic=((X, 1, Y, 1),),
    )
    assert is_feasible(inst) == FEASIBLE


def test_psi_star_shape():
    inst = FeasibilityInstance(
        sign_constraints=((X, 1),),
        dwarfed=((X, 1, Y, 1),),
        gigantic=(),
    )
    s = build_psi_star(inst)
    assert [q for q, _ in s.prefix] == ["forall", "exists", "forall", "exists", "exists"]
    assert [v for _, v in s.prefix] == ["R", "L", "H", "X", "Y"]
    # degenerate: no dwarfed/gigantic constraints at all
    s2 = build_psi_star(FeasibilityInstance(((X, 1),), (), ()))
    assert decide_sentence(s2)


def test_vacuous_pairs_excluded():
    ps = parse("x1 > 0")
    Q = build_Q(ps, TransformKind.F1)
    types = list(enumerate_types(Q))
    for typ in types:
        inst = FeasibilityInstance.from_type(Q, typ)
        entry = Q.entries[0]
        sigma = typ.sigma(entry)
        want_pairs = sum(
            1 for (a, b) in entry.pairs if sigma[a] != 0 and sigma[b] != 0
        )
        assert len(inst.dwarfed) + len(inst.gigantic) == want_pairs


def test_sign_constraints_listed_once():
    """A coefficient shared by several entries of Q gives one sign
    constraint: type 1320 of this F2 system has Y in three entries."""
    Q = build_Q(parse("x1 + 0*x2 + 1 != 0 ; x1 + x2 > 0"), TransformKind.F2)
    types = list(enumerate_types(Q))
    for typ in types[::7] + [types[1320]]:
        inst = FeasibilityInstance.from_type(Q, typ)
        want = {
            (entry.decomp.coeffs[alpha], typ.sigma(entry)[alpha])
            for entry in Q.entries for alpha in entry.support
            if entry.decomp.coeffs[alpha].constant_value() is None
        }
        assert len(inst.sign_constraints) == len(want)
        assert set(inst.sign_constraints) == want
    inst = FeasibilityInstance.from_type(Q, types[1320])
    assert [c.to_text() for c, _ in inst.sign_constraints].count("Y") == 1


def test_witness_search_examples():
    ps = parse("x1 > 0")  # F1 numerator: X + Y*y1, coefficients X and Y
    Q = build_Q(ps, TransformKind.F1)
    entry = Q.entries[0]
    assert entry.support == ((0,), (1,))
    found_dd = found_gd = 0
    for typ in enumerate_types(Q):
        sigma = typ.sigma(entry)
        tau = typ.tau(entry)
        inst = FeasibilityInstance.from_type(Q, typ)
        if sigma[(0,)] == 1 and sigma[(1,)] == 1:
            if set(tau.values()) == {"D"}:
                got = witness_search(inst, 4, 3)
                assert got is not None
                A, B, b = got
                assert (A, B) == (1, 1)
                found_dd += 1
            elif tau[((0,), (1,))] == "G" and tau[((1,), (0,))] == "D":
                got = witness_search(inst, 4, 3)
                assert got is not None
                A, B, b = got
                assert compute_type(Q, A, B, b, 4) == typ
                found_gd += 1
    assert found_dd == 1 and found_gd == 1


def test_one_sided_soundness_monotone():
    mono = parse("x1 < x2 ; x1 >= x2")
    for kind in TransformKind:
        Q = build_Q(mono, kind)
        feasible_count = 0
        for typ in enumerate_types(Q):
            inst = FeasibilityInstance.from_type(Q, typ)
            verdict = is_feasible(inst)
            got = witness_search(inst, 4, 3, budget=40)
            if got is not None:
                assert verdict != INFEASIBLE
                A, B, b = got
                assert compute_type(Q, A, B, b, 4) == typ
            if verdict == FEASIBLE:
                feasible_count += 1
        assert feasible_count == 3, kind  # one per nonzero Y sign + the zero type


def test_monotone_census_f1():
    """Feasible F1 types for the monotone pair: sign(Y) = +1, -1, or the
    all-zero type; tau is two-sided dwarfed for the nonzero ones."""
    mono = parse("x1 < x2 ; x1 >= x2")
    Q = build_Q(mono, TransformKind.F1)
    entry = Q.entries[0]
    feas = []
    for typ in enumerate_types(Q):
        if is_feasible(FeasibilityInstance.from_type(Q, typ)) == FEASIBLE:
            feas.append(typ)
    assert len(feas) == 3
    for typ in feas:
        sigma = typ.sigma(entry)
        pair = (sigma[(1, 0)], sigma[(0, 1)])
        assert pair in ((1, -1), (-1, 1), (0, 0))
        if pair != (0, 0):
            assert set(typ.tau(entry).values()) == {"D"}
        witness = witness_search(FeasibilityInstance.from_type(Q, typ), 4, 3)
        assert witness is not None


def test_sign_sentence_screen():
    ps = parse("x1 < x2 ; x1 >= x2")
    Q = build_Q(ps, TransformKind.F1)
    sat = unsat = 0
    for typ in enumerate_types(Q):
        inst = FeasibilityInstance.from_type(Q, typ)
        if decide_sentence(sign_sentence(inst)):
            sat += 1
        else:
            unsat += 1
    assert sat > 0 and unsat > 0


def test_gigantic_denominator_sign_must_be_forced():
    """The collapse of forall H needs s_b*q_b > 0 on every gigantic pair."""
    with pytest.raises(ValueError):
        FeasibilityInstance(sign_constraints=((X, 1),), dwarfed=(), gigantic=((X, 1, Y, 1),))
    with pytest.raises(ValueError):  # the sign is constrained, but to the other side
        FeasibilityInstance(((X, 1), (Y, -1)), (), ((X, 1, Y, 1),))
    one = MultiPoly.const(1, ("X", "Y"))
    with pytest.raises(ValueError):  # a constant of the wrong sign
        FeasibilityInstance(((X, 1),), (), ((X, 1, one, -1),))
    FeasibilityInstance(((X, 1),), (), ((X, 1, one, 1),))  # a constant of the right sign
    FeasibilityInstance(((X, 1),), (), ((X, 1, one, -1),), constant_conflict=True)
    FeasibilityInstance(((X, 1),), ((X, 1, Y, 1),), ())  # dwarfed pairs need nothing


# hand-built instances over the coefficients X and Y, with their status
_EXPLICIT = (
    # |X| >= H|Y| for every H: X unbounded against Y
    (((X, 1), (Y, 1)), (), ((X, 1, Y, 1),), FEASIBLE),
    # X dwarfed by Y and gigantic against it: H <= L for every H
    (((X, 1), (Y, 1)), ((X, 1, Y, 1),), ((X, 1, Y, 1),), INFEASIBLE),
    # both orders gigantic: H^2 <= 1 for every H
    (((X, 1), (Y, 1)), (), ((X, 1, Y, 1), (Y, 1, X, 1)), INFEASIBLE),
    # X + Y gigantic against Y, all positive: take X large
    (((X, 1), (Y, 1), (X + Y, 1)), (), ((X + Y, 1, Y, 1),), FEASIBLE),
    # ... but with X < 0 < Y, X + Y stays below Y
    (((X, -1), (Y, 1), (X + Y, 1)), (), ((X + Y, 1, Y, 1),), INFEASIBLE),
    # X - Y gigantic against Y while 0 < X < Y: X - Y is negative
    (((X, 1), (Y, 1), (Y - X, 1)), (), ((X - Y, 1, Y, 1),), INFEASIBLE),
    # Y dwarfed by X, X^2 + 1 gigantic against Y (Y -> 0)
    (((X, 1), (Y, 1)), ((Y, 1, X, 1),), ((X ** 2 + 1, 1, Y, 1),), FEASIBLE),
)


def test_explicit_instances_match_psi_star():
    for signs, dwarfed, gigantic, want in _EXPLICIT:
        inst = FeasibilityInstance(signs, dwarfed, gigantic)
        assert is_feasible(inst) == want, (signs, dwarfed, gigantic)
        full = FEASIBLE if decide_sentence(build_psi_star(inst)) else INFEASIBLE
        assert full == want, (signs, dwarfed, gigantic)


@st.composite
def _small_instances(draw):
    """from_type instances of {a*x1 + b*x2 + c rel 0}, optionally with an
    order atom k*x1 - k*x2; the relations do not change Q, so they are
    fixed.  Two general linear atoms make psi* cost seconds."""
    a, b = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
    c = draw(st.integers(-1, 1))
    text = f"{a}*x1 + {b}*x2 + {c} > 0"
    k = draw(st.sampled_from((0, 1, 2, -1)))
    if k:
        text += f" ; {k}*x1 - {k}*x2 < 0"
    kind = draw(st.sampled_from(list(TransformKind)))
    Q = build_Q(parse(text), kind)
    types = list(enumerate_types(Q))
    return text, kind, Q, types[draw(st.integers(0, len(types) - 1))]


@given(_small_instances())
@settings(max_examples=25, deadline=None)
def test_is_feasible_matches_psi_star(case):
    """The top-sector collapse against the full five-variable sentence."""
    text, kind, Q, typ = case
    inst = FeasibilityInstance.from_type(Q, typ)
    assume(not inst.constant_conflict)  # settled before any QE, and psi* omits constants
    full = FEASIBLE if decide_sentence(build_psi_star(inst)) else INFEASIBLE
    event(full)
    assert is_feasible(inst) == full, (text, kind, typ)


def test_psi_eventual_shape():
    inst = FeasibilityInstance(((X, 1), (Y, 1)), ((Y, 1, X, 1),), ((X, 1, Y, 1),))
    s = build_psi_eventual(inst)
    assert s.prefix == (("eventually", "L"), ("eventually", "H"), ("exists", "X"), ("exists", "Y"))
    assert len(build_psi_star(inst).matrix.children) == len(s.matrix.children) + 1  # no L >= R
    assert decide_sentence(build_psi_eventual(FeasibilityInstance((), (), ())))


def _eventual_growth_gap(pattern, linear, signs) -> str:
    return "eventually l. eventually h. exists x. exists y. " + " and ".join(
        growth_gap_atoms(pattern, linear, signs))


def test_eventual_growth_gap_sentences_match_analytic_rule():
    rng = random.Random(5)
    for pattern in GROWTH_PATTERNS:
        for linear in rng.sample(LINEAR_PARTS, 12):
            signs = {"u": rng.choice((1, -1)), "v": rng.choice((1, -1))}
            text = _eventual_growth_gap(pattern, linear, signs)
            assert decide_sentence(parse_sentence(text)) == growth_gap_truth(pattern), text
