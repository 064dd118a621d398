import random
from fractions import Fraction

import pytest

from esdec.algebra import TransformKind
from esdec.errors import InconsistentTypeError, ResourceLimitError
from esdec.predicates import holds_everywhere, negate, parse
from esdec.ramsey import apply_transform, canonical_growing
from esdec.typesys import (
    CandidateType, NotWellPlaced, _entry_bound,
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
    assert len(Q.atom_list) == 2


def test_build_q_f2_denominator():
    ps = parse("x1*x2 > 0")
    Q = build_Q(ps, TransformKind.F2)
    parts = sorted(e.part for e in Q.entries)
    assert parts == ["denominator", "numerator"]
    num = next(e for e in Q.entries if e.part == "numerator")
    den = next(e for e in Q.entries if e.part == "denominator")
    assert len(num.decomp.support) == 4
    assert den.decomp.support == frozenset({(1, 1)})
    assert den.forced_positive


def test_build_q_constant_atom():
    ps = parse("0 = 0")
    Q = build_Q(ps, TransformKind.F1)
    assert Q.atom_entries[0] == (None, None)


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
    assert len(list(enumerate_types(Qf2))) == 17  # denominator entry contributes factor 1


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
