import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from esdec import typesys
from esdec.algebra import TransformKind, coefficient_decomposition, substitute_transform
from esdec.errors import InconsistentTypeError, ResourceLimitError
from esdec.poly import MultiPoly
from esdec.predicates import (
    And, Atom, Not, Or, Predicate, PredicateSet,
    atoms_of, holds_everywhere, negate, parse,
)
from esdec.ramsey import apply_transform, canonical_growing
from esdec.typesys import (
    CandidateType, CoefficientSystem, NotWellPlaced, QEntry, _entry_bound,
    build_Q, compute_type, enumerate_types,
    eval_predicates_from_type, sign_from_type,
)

F = Fraction
MONOTONE = parse("x1 < x2 ; x1 >= x2")


def test_build_q_monotone_f1_dedup():
    Q = build_Q(MONOTONE, TransformKind.F1)
    assert len(Q.entries) == 1  # both atoms share x1 - x2
    entry = Q.entries[0]
    assert entry.decomp.support == frozenset({(1, 0), (0, 1)})
    assert [entry_id for _atom, entry_id in Q.atoms] == [0, 0]


def test_build_q_f2_denominator():
    """Under F2 the cleared denominator y1*y2 is positive on the positive
    terms of b, so Q keeps only the numerator, and a certificate lists
    every entry as a numerator."""
    ps = parse("x1*x2 > 0")
    Q = build_Q(ps, TransformKind.F2)
    assert len(Q.entries) == 1
    assert len(Q.entries[0].decomp.support) == 4
    assert [entry_id for _atom, entry_id in Q.atoms] == [0]
    typ = next(enumerate_types(Q))
    assert [e["part"] for e in typ.to_json(Q).values()] == ["numerator"]


def test_build_q_constant_atom():
    ps = parse("0 = 0")
    Q = build_Q(ps, TransformKind.F1)
    assert Q.entries == ()
    assert [entry_id for _atom, entry_id in Q.atoms] == [None]


def _per_atom_Q(pset, transform):
    """Reference: substitute every atom, then share entries by numerator."""
    k = pset.arity
    entries, index_of, atoms = [], {}, []
    for member in pset.members:
        for atom in atoms_of(member.root):
            entry_id = None
            if not atom.poly.is_zero:
                num, _den = substitute_transform(atom.poly, transform, k=k)
                entry_id = index_of.get(num)
                if entry_id is None:
                    entry_id = index_of[num] = len(entries)
                    entries.append(QEntry(entry_id, coefficient_decomposition(num, k=k)))
            atoms.append((atom, entry_id))
    return CoefficientSystem(entries=tuple(entries), atoms=tuple(atoms))


_XS = ("x1", "x2", "x3")
_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3),
    st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
    min_size=1, max_size=4,
).map(lambda terms: MultiPoly(_XS, terms))
_RELS = ("<", "<=", ">", ">=", "=", "!=")


@st.composite
def _repeating_sets(draw):
    """1-3 members whose atoms draw from a pool of 1-3 polynomials, a
    copy of the first with an unused x4 (equal to it), its double (not
    equal), x1 + x2 - x2 (x2 cancelled) and zero, under random relations,
    not, and and or."""
    pool = draw(st.lists(_POLYS, min_size=1, max_size=3))
    x1 = MultiPoly.var("x1", ("x1", "x2"))
    pool += [pool[0].with_vars(_XS + ("x4",)), pool[0] * 2,
             x1 + MultiPoly.var("x2", ("x1", "x2")) - MultiPoly.var("x2", ("x1", "x2")),
             MultiPoly.zero(_XS)]

    def node(depth):
        shape = draw(st.sampled_from(("atom", "not", "and", "or") if depth else ("atom",)))
        if shape == "atom":
            return Atom(draw(st.sampled_from(pool)), draw(st.sampled_from(_RELS)))
        if shape == "not":
            return Not(node(depth - 1))
        return (And if shape == "and" else Or)((node(depth - 1), node(depth - 1)))

    return PredicateSet(tuple(Predicate(node(2), 3) for _ in range(draw(st.integers(1, 3)))))


def _p_and_not_p(text):
    pred = parse(text).members[0]
    return PredicateSet((pred, negate(pred)))


@given(_repeating_sets(), st.sampled_from(tuple(TransformKind)))
@example(_p_and_not_p("x1 - x2 < 0"), TransformKind.F2)
@example(parse("x1 + x2 - x2 > 0 ; x1 >= 0 ; 0 = 0"), TransformKind.F1)
@settings(max_examples=150, deadline=None)
def test_build_q_matches_substituting_every_atom(pset, kind):
    """Substituting each distinct polynomial once gives the entries and
    atoms of substituting every atom."""
    got, want = build_Q(pset, kind), _per_atom_Q(pset, kind)
    assert [(id(a), e) for a, e in got.atoms] == [(id(a), e) for a, e in want.atoms]
    assert len(got.entries) == len(want.entries)
    for g, w in zip(got.entries, want.entries):
        assert g.entry_id == w.entry_id and g.decomp.k == w.decomp.k
        assert (g.decomp.source.vars, g.decomp.source.terms) == \
            (w.decomp.source.vars, w.decomp.source.terms)
        assert list(g.decomp.coeffs) == list(w.decomp.coeffs)
        for alpha, c in g.decomp.coeffs.items():
            assert (c.vars, c.terms) == (w.decomp.coeffs[alpha].vars, w.decomp.coeffs[alpha].terms)


def test_build_q_substitutes_each_distinct_polynomial_once(monkeypatch):
    """{P ; not P} substitutes P once per transform, through the name
    typesys imports (the one perfbench traces)."""
    calls = []

    def counting(p, kind, k=None):
        calls.append(kind)
        return substitute_transform(p, kind, k=k)

    monkeypatch.setattr(typesys, "substitute_transform", counting)
    pset = _p_and_not_p("x1 - x2 < 0 or x1 - x2 > 0")
    assert len([a for m in pset.members for a in atoms_of(m.root)]) == 4
    for kind in TransformKind:
        Q = build_Q(pset, kind)
        assert [e for _a, e in Q.atoms] == [0, 0, 0, 0]
    assert calls == list(TransformKind)


def test_enumerate_counts():
    ps1 = parse("x1 > 0")  # single variable: support {(0,), (1,)}? no: X + Y*y1 -> {(0,),(1,)}
    Q1 = build_Q(ps1, TransformKind.F1)
    assert len(Q1.entries) == 1
    # support size 2 -> 17 valid assignments (see below)
    assert len(list(enumerate_types(Q1))) == 17

    Q = build_Q(MONOTONE, TransformKind.F1)
    # |support| = 2: 4 sign pairs * 3 tau combos + 2 * 1 + 2 * 1 + 1 = 17.
    # The two zero/nonzero sign cases force both tau values (0-ratio is
    # dwarfed, 0-denominator is gigantic), the all-zero case forces G/G.
    assert len(list(enumerate_types(Q))) == 17
    types = list(enumerate_types(Q))
    assert len(types) == 17
    assert len(set(types)) == 17

    Qf2 = build_Q(MONOTONE, TransformKind.F2)
    assert len(list(enumerate_types(Qf2))) == 17  # one numerator entry, as under F1


def test_enumerate_checks_both_caps_before_iterating():
    """An over-cap call raises on the call itself, not on the first next()."""
    Q = build_Q(parse("x1 > 0 ; x1 > 1"), TransformKind.F1)  # entry bounds 36, 289 types
    with pytest.raises(ResourceLimitError, match="entry"):
        enumerate_types(Q, cap=35)  # an entry's unpruned bound
    with pytest.raises(ResourceLimitError, match="type count"):
        enumerate_types(Q, cap=288)  # the type count
    types = enumerate_types(Q, cap=289)
    assert next(types) == next(enumerate_types(Q))
    assert len(list(types)) == 288


def test_enumerate_unpruned_count():
    Q = build_Q(MONOTONE, TransformKind.F1)
    assert _entry_bound(Q.entries[0]) == 3 ** 2 * 2 ** 2


def test_singleton_support_three_types():
    ps = parse("x1 = 0")  # F1 numerator: X + Y*y1 -> support {(0,), (1,)}
    Q = build_Q(parse("1 = 0"), TransformKind.F1)
    # constant nonzero atom: numerator is the constant poly, support {(0,)}
    entry = Q.entries[0]
    assert entry.support == ((0,),)
    assert len(list(enumerate_types(Q))) == 3


def test_compute_type_examples():
    Q = build_Q(MONOTONE, TransformKind.F1)
    b = [F(4), F(256)]
    typ = compute_type(Q, F(0), F(1), b, 4)
    assert isinstance(typ, CandidateType)
    entry = Q.entries[0]
    sig = typ.sigma(entry)
    assert sig[(1, 0)] == 1 and sig[(0, 1)] == -1
    tau = typ.tau(entry)
    assert tau[((1, 0), (0, 1))] == "D" and tau[((0, 1), (1, 0))] == "D"

    zero = compute_type(Q, F(3), F(0), b, 4)
    sig0 = zero.sigma(entry)
    assert sig0[(1, 0)] == 0 and sig0[(0, 1)] == 0
    assert set(zero.tau(entry).values()) == {"G"}

    ps = parse("2*x1 - x2 > 0")  # coefficients 2Y and -Y: ratio 2
    Q2 = build_Q(ps, TransformKind.F1)
    got = compute_type(Q2, F(0), F(1), b, 4)
    assert isinstance(got, NotWellPlaced)
    assert got.ratio == 2
    assert str(got) == f"entry 0: |ratio {got.alpha}/{got.beta}| = 2 falls between b1/R and bn^R"


def test_compute_type_requires_growing():
    Q = build_Q(MONOTONE, TransformKind.F1)
    with pytest.raises(ValueError):
        compute_type(Q, F(0), F(1), [F(1), F(2)], 4)


def test_sign_from_type_examples():
    Q = build_Q(MONOTONE, TransformKind.F1)
    entry = Q.entries[0]
    b = [F(4), F(256)]
    typ = compute_type(Q, F(0), F(-1), b, 4)  # Y < 0
    sig = typ.sigma(entry)
    assert sig[(1, 0)] == -1 and sig[(0, 1)] == 1
    assert sign_from_type(entry, typ, "ascending") == 1
    assert sign_from_type(entry, typ, "descending") == -1

    zero = compute_type(Q, F(5), F(0), b, 4)
    assert sign_from_type(entry, zero, "ascending") == 0


def test_sign_from_type_inconsistent():
    ps = parse("x1 + x2 + x1*x2 > 0")
    Q = build_Q(ps, TransformKind.F1)
    entry = Q.entries[0]
    support = entry.support
    assert len(support) >= 3
    # build a cyclic gigantic pattern among three live coefficients
    sigma = tuple(1 for _ in support)
    tau = []
    live = list(support)
    for (a, b) in entry.pairs:
        ia, ib = live.index(a), live.index(b)
        tau.append("G" if (ia - ib) % len(live) == 1 else "D")
    typ = CandidateType(sigmas=(sigma,), taus=(tuple(tau),))
    with pytest.raises(InconsistentTypeError):
        sign_from_type(entry, typ, "ascending")


def test_eval_predicates_from_type():
    Q = build_Q(MONOTONE, TransformKind.F1)
    b = [F(4), F(256)]
    typ = compute_type(Q, F(0), F(1), b, 4)  # Y > 0: increasing image
    v = eval_predicates_from_type(MONOTONE, Q, typ, "ascending")
    assert v == {0: "everywhere", 1: "nowhere"}
    v2 = eval_predicates_from_type(MONOTONE, Q, typ, "descending")
    assert v2 == {0: "nowhere", 1: "everywhere"}

    taut = parse("0 = 0")
    Qt = build_Q(taut, TransformKind.F1)
    for typ2 in enumerate_types(Qt):
        assert eval_predicates_from_type(taut, Qt, typ2, "ascending") == {0: "everywhere"}


def test_roundtrip_containment():
    Q = build_Q(MONOTONE, TransformKind.F1)
    all_types = set(enumerate_types(Q))
    b = canonical_growing(4, 3)
    for A, B in ((F(0), F(1)), (F(2), F(-3)), (F(1), F(0)), (F(-5), F(1, 2))):
        typ = compute_type(Q, A, B, b, 4)
        assert isinstance(typ, CandidateType)
        assert typ in all_types


def test_bridge_sample():
    """Type-based evaluation agrees with brute force on transformed
    sequences (small sample; the 500-instance run is acceptance)."""
    rng = random.Random(23)
    sets = [MONOTONE, parse("x1*x2 > 0"), parse("x1 = x2 ; x1 != x2"),
            parse("x1 + x2 < 1 or x1 > 2")]
    from esdec.algebra import sufficient_R
    from esdec.predicates import atoms_of

    for _ in range(40):
        pset = rng.choice(sets)
        kind = rng.choice(list(TransformKind))
        Q = build_Q(pset, kind)
        R = 4
        for m in pset.members:
            for atom in atoms_of(m.root):
                R = max(R, sufficient_R(atom.poly))
        A = F(rng.randint(-4, 4), rng.randint(1, 3))
        B = F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 2))
        point = {"X": A, "Y": B}
        ratios = [
            abs(ca.evaluate(point) / cb.evaluate(point))
            for e in Q.entries
            for a, ca in e.decomp.coeffs.items()
            for bb, cb in e.decomp.coeffs.items()
            if a != bb and cb.evaluate(point) != 0 and ca.evaluate(point) != 0
        ]
        start = max([F(R)] + [r * R for r in ratios])
        b = canonical_growing(R, 4, start=start)
        typ = compute_type(Q, A, B, b, R)
        assert isinstance(typ, CandidateType), typ
        c = [apply_transform(kind, x, A, B) for x in b]
        for orientation, seq in (("ascending", c), ("descending", list(reversed(c)))):
            want = {}
            for i, m in enumerate(pset.members):
                if holds_everywhere(m, seq):
                    want[i] = "everywhere"
                elif holds_everywhere(negate(m), seq):
                    want[i] = "nowhere"
                else:
                    want[i] = "mixed"
            got = eval_predicates_from_type(pset, Q, typ, orientation)
            assert got == want, (pset.to_text(), kind, A, B, orientation)


def test_enumeration_deterministic():
    Q = build_Q(MONOTONE, TransformKind.F1)
    first = list(enumerate_types(Q))
    second = list(enumerate_types(Q))
    assert first == second
