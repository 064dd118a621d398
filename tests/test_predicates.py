import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from esdec.algebra import infer_arity
from esdec.errors import ParseError
from esdec.poly import MultiPoly
from esdec.predicates import (
    And, Atom, Not, Or,
    PredicateSet, atom_sign, eval_at, eval_with, holds_everywhere, member_verdicts,
    negate, parse, parse_predicate, symmetrize_single,
)


def test_parse_monotone_pair():
    ps = parse("x1 < x2 ; x1 >= x2")
    assert len(ps.members) == 2
    assert ps.arity == 2
    assert isinstance(ps.members[0].root, Atom)
    assert ps.members[0].root.rel == "<"


def test_parse_boolean():
    ps = parse("x1^2 - 2 = 0 and not (x2 > 0)")
    assert len(ps.members) == 1
    assert ps.arity == 2
    root = ps.members[0].root
    assert isinstance(root, And) and len(root.children) == 2
    assert isinstance(root.children[1], Not)


def test_parse_rejects_x0():
    with pytest.raises(ParseError):
        parse("x1 < x0")


def test_parse_rejects_bad_exponent():
    with pytest.raises(ParseError):
        parse("x1^ - 2 > 0")


def test_parse_parenthesized_poly_vs_pred():
    ps = parse("(x1 + 1) * x2 > 0")
    assert isinstance(ps.members[0].root, Atom)
    ps2 = parse("(x1 > 0 or x2 > 0) and x1 < 1")
    assert isinstance(ps2.members[0].root, And)


def test_print_parse_roundtrip():
    texts = [
        "x1 < x2 ; x1 >= x2",
        "x1^2 - 2 = 0 and not (x2 > 0)",
        "(x1 > 0 or x2 != 0) and not (x1 = x2 and x2 <= 3/2)",
        "-2/3*x1^3 + x2*x1 - 7 > 0",
    ]
    for text in texts:
        ps = parse(text)
        again = parse(ps.to_text())
        assert again == ps


def test_eval_examples():
    lt = parse_predicate("x1 < x2")
    assert eval_at(lt, (Fraction(1), Fraction(2)))
    eq = parse_predicate("x1 = x2")
    assert eval_at(eq, (Fraction(1, 3), Fraction(2, 6)))
    sq = parse_predicate("x1^2 - 2 = 0")
    assert not eval_at(sq.padded(2), (Fraction(3, 2), Fraction(0)))
    with pytest.raises(ValueError):
        eval_at(lt, (Fraction(1),))


def test_eval_with_three_valued():
    """An atom read as None (unknown) leaves the value open unless the
    known atoms settle it."""
    p, q = parse_predicate("x1 > 0").root, parse_predicate("x1 < 5").root
    for unknown, known in ((p, q), (q, p)):
        def truth(value):
            return lambda atom: None if atom is unknown else value
        assert eval_with(Not(unknown), truth(True)) is None
        assert eval_with(Or((unknown, known)), truth(True)) is True
        assert eval_with(Or((unknown, known)), truth(False)) is None
        assert eval_with(And((unknown, known)), truth(False)) is False
        assert eval_with(And((unknown, known)), truth(True)) is None
        assert eval_with(Not(And((unknown, known))), truth(False)) is True
    # a total assignment gives the two-valued answer
    assert eval_with(And(()), lambda atom: None) is True
    assert eval_with(Or(()), lambda atom: None) is False
    assert eval_with(Not(Or((p, q))), lambda atom: atom is p) is False


def test_holds_everywhere():
    lt = parse_predicate("x1 < x2")
    assert holds_everywhere(lt, [1, 2, 3])
    assert not holds_everywhere(lt, [1, 3, 2])
    five = parse_predicate("x1 < x5")
    assert five.arity == 5
    assert holds_everywhere(five, [4, 3, 2, 1])  # vacuous


def test_negate():
    lt = parse_predicate("x1 < x2")
    assert negate(lt).root == Atom(lt.root.poly, ">=")
    both = parse_predicate("x1 > 0 and x2 > 0")
    neg = negate(both)
    assert isinstance(neg.root, Or)
    assert negate(parse_predicate("not (x1 > 0)")).root == Atom(
        parse_predicate("x1 > 0").root.poly, ">"
    )


def test_negate_pointwise_random():
    rng = random.Random(5)
    preds = [
        parse_predicate(t)
        for t in (
            "x1 < x2 or (x1 = x2 and not (x2 > 1))",
            "not (x1*x2 >= 1/2) and x1 != x2",
            "x1^2 - x2 <= 0 or not (x1 > 0 and x2 < 0)",
        )
    ]
    for pred in preds:
        neg = negate(pred)
        for _ in range(3400):
            point = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(pred.arity))
            assert eval_at(neg, point) == (not eval_at(pred, point))


def test_symmetrize_identity_case():
    ps = parse("x1 > 0")
    sym = symmetrize_single(ps)
    assert sym.arity == 1
    assert sym == ps.members[0]


def test_symmetrize_monotone_pair_counts():
    ps = parse("x1 < x2 ; x1 >= x2")
    sym = symmetrize_single(ps)
    assert sym.arity == 4
    assert isinstance(sym.root, Or) and len(sym.root.children) == 2
    for child in sym.root.children:
        assert isinstance(child, And) and len(child.children) == 6  # C(4,2)


def test_symmetrize_equivalence_bruteforce():
    ps = parse("x1 < x2 ; x1 >= x2")
    sym = symmetrize_single(ps)
    grid = [Fraction(0), Fraction(1, 2), Fraction(2)]
    from itertools import product

    for n in (4, 5):
        for seq in product(grid, repeat=n):
            lhs = holds_everywhere(sym, seq)
            rhs = any(holds_everywhere(m, seq) for m in ps.members)
            assert lhs == rhs, seq


def _two_pass_verdicts(pset, seq):
    """Reference: holds everywhere, else its NNF negation holds
    everywhere, else mixed."""
    out = {}
    for i, m in enumerate(pset.members):
        if holds_everywhere(m, seq):
            out[i] = "everywhere"
        elif holds_everywhere(negate(m), seq):
            out[i] = "nowhere"
        else:
            out[i] = "mixed"
    return out


_VERDICT_RELS = ("<", "<=", ">", ">=", "=", "!=")


@st.composite
def _verdict_sets(draw):
    """1-3 members over order atoms x_i - x_j rel 0 and linear atoms
    a*x_i + b*x_j + c rel 0, combined with and/or/not and padded to an
    arity of 1-3, so sequences of length 0-6 include ones too short for
    the arity."""
    arity = draw(st.integers(1, 3))
    var = st.integers(1, arity).map(lambda i: f"x{i}")

    def atom():
        rel = draw(st.sampled_from(_VERDICT_RELS))
        if draw(st.booleans()):
            return f"{draw(var)} - {draw(var)} {rel} 0"
        a, b, c = (draw(st.integers(-3, 3)) for _ in range(3))
        return f"{a}*{draw(var)} + {b}*{draw(var)} + {c} {rel} 0"

    def node(depth):
        shape = draw(st.sampled_from(("atom", "not", "and", "or") if depth else ("atom",)))
        if shape == "atom":
            return atom()
        if shape == "not":
            return f"not ({node(depth - 1)})"
        return f"({node(depth - 1)}) {shape} ({node(depth - 1)})"

    members = [parse_predicate(node(2)).padded(arity)
               for _ in range(draw(st.integers(1, 3)))]
    return PredicateSet(tuple(members))


@given(_verdict_sets(),
       st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                min_size=0, max_size=6))
@example(parse("x1 < x2 ; x1 - x2 != 0"), [])
@example(parse("x1 < x2 ; x1 - x2 != 0"), [Fraction(3)])
@example(parse("x1 < x2 ; x1 >= x2"), [Fraction(1), Fraction(2), Fraction(0)])
@settings(max_examples=150, deadline=None)
def test_member_verdicts_matches_two_passes(pset, seq):
    assert member_verdicts(pset, seq) == _two_pass_verdicts(pset, seq), \
        (pset.to_text(), seq)


def test_eval_at_ignores_cancelled_variables():
    """x2 - x2 cancels, so the predicate's arity is 1 and x2 is never read."""
    pred = parse_predicate("x2 - x2 != 0 or x1 > 0")
    assert pred.arity == 1
    assert eval_at(pred, [1]) is True
    assert eval_at(pred, [-1]) is False
    assert member_verdicts(PredicateSet((pred,)), [Fraction(1), Fraction(2)]) == {0: "everywhere"}


_SPELLED = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.sampled_from((0.5, -1.25, 0.1, 3.0)),
    st.sampled_from(("1/3", "-2", "0.75", "5/2")),
)
_SPELLING_TEXTS = ("x1 < x2", "x1*x2 - 1/2 >= 0 or x1 = x2", "not (2*x1 - 3*x2 + 1 != 0)")


@given(st.lists(_SPELLED, max_size=5))
@example([2, Fraction(5, 2), 2.5, "5/2"])
@example([0.1, Fraction(0.1), "0.1"])
@settings(max_examples=150, deadline=None)
def test_coordinate_spellings_give_the_truths_of_their_fractions(seq):
    """Ints and Fractions are read as they are, floats and strings
    through Fraction: every spelling gives the truths of its Fraction."""
    exact = [Fraction(x) for x in seq]
    preds = [parse_predicate(text) for text in _SPELLING_TEXTS]
    for pred in preds:
        if len(seq) >= 2:
            assert eval_at(pred, seq[:2]) == eval_at(pred, exact[:2])
        assert holds_everywhere(pred, seq) == holds_everywhere(pred, exact)
    pset = PredicateSet(tuple(preds))
    assert member_verdicts(pset, seq) == member_verdicts(pset, exact)


_FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def _atom_sign_cases(draw):
    """A polynomial over x1..x3 (zero, constant or not, coefficients
    Fractions that may cancel) with a point of every length from its
    highest used index up to 3: a variable beyond the point is unused."""
    exponents = st.tuples(*(st.integers(0, 2) for _ in range(3)))
    terms = draw(st.dictionaries(exponents, _FRACTIONS, max_size=5))
    poly = MultiPoly(("x1", "x2", "x3"), terms)
    size = draw(st.integers(max(infer_arity(poly), 1), 3))
    return poly, draw(st.lists(_FRACTIONS, min_size=size, max_size=size))


def _sign_by_evaluate(poly, point):
    """The sign through MultiPoly.evaluate over the used variables."""
    used = poly.drop_unused()
    value = used.evaluate({v: point[int(v[1:]) - 1] for v in used.vars})
    return (value > 0) - (value < 0)


@given(_atom_sign_cases())
@example((MultiPoly(("x1", "x2", "x3"), {}), [Fraction(0)]))
@example((MultiPoly(("x1", "x2", "x3"), {(0, 0, 0): Fraction(-2, 3)}), [Fraction(1, 2)]))
@example((parse_predicate("x1 + x3 - x3 > 0").root.poly, [Fraction(-1, 2)]))
@settings(max_examples=300, deadline=None)
def test_atom_sign_matches_evaluate(case):
    """The sign read from the polynomial's int form is the sign of its
    value, also on the second read, from the kept form."""
    poly, point = case
    want = _sign_by_evaluate(poly, point)
    for _ in range(2):
        assert atom_sign(Atom(poly, ">"), point) == want, (poly, point)

