import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from esdec.algebra import TransformKind
from esdec.decider import DecisionStats, _point_type_no
from esdec import feasibility
from esdec.feasibility import (
    FEASIBLE, INFEASIBLE, UNDECIDED, FeasibilityInstance, _try_witness, build_psi_eventual,
    build_psi_star, is_feasible, witness_search,
)
from esdec.poly import MultiPoly
from esdec.predicates import parse
from esdec.qe import QeBudget, decide_sentence, parse_sentence
from esdec.ramsey import at_least_power, canonical_growing, is_R_growing
from esdec.typesys import (
    DWARFED, GIGANTIC, CandidateType, NotWellPlaced, build_Q, compute_type,
    enumerate_types,
)

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


def test_constant_conflict_is_infeasible_without_qe(monkeypatch):
    def no_qe(*args, **kwargs):
        raise AssertionError("a constant conflict needs no QE")

    monkeypatch.setattr(feasibility, "decide_sentence", no_qe)
    inst = FeasibilityInstance((), (), (), constant_conflict=True)
    assert is_feasible(inst) == INFEASIBLE
    assert is_feasible(inst, QeBudget(max_cells=1)) == INFEASIBLE


def test_exhausted_budget_is_undecided():
    """Running out of cells answers 'undecided', never a guess: every
    instance of this system with a sign constraint needs more than one."""
    Q = build_Q(parse("x1 - x2 <= 0 ; x1 != 0"), TransformKind.F1)
    insts = [FeasibilityInstance.from_type(Q, t) for t in enumerate_types(Q)]
    insts = [inst for inst in insts if inst.sign_constraints]
    assert len(insts) == 289
    assert all(is_feasible(inst, QeBudget(max_cells=1)) == UNDECIDED for inst in insts)


def test_witness_search_examples():
    ps = parse("x1 > 0")  # F1 numerator: X + Y*y1, coefficients X and Y
    Q = build_Q(ps, TransformKind.F1)
    entry = Q.entries[0]
    assert entry.support == ((0,), (1,))
    found_dd = found_gd = 0
    for typ in enumerate_types(Q):
        sigma = typ.sigma(entry)
        tau = typ.tau(entry)
        if sigma[(0,)] == 1 and sigma[(1,)] == 1:
            if set(tau.values()) == {"D"}:
                got = witness_search(Q, typ, 4, 3)
                assert got is not None
                A, B, b = got
                assert (A, B) == (1, 1)
                found_dd += 1
            elif tau[((0,), (1,))] == "G" and tau[((1,), (0,))] == "D":
                got = witness_search(Q, typ, 4, 3)
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
            got = witness_search(Q, typ, 4, 3)
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
        witness = witness_search(Q, typ, 4, 3)
        assert witness is not None


def test_sign_sentence_screen():
    """The sign screen, the sign patterns of one decomposition's walk,
    admits some types' signs and rejects others'.  No point type of the
    walk makes both members 'nowhere', so it answers with the patterns."""
    ps = parse("x1 < x2 ; x1 >= x2")
    Q = build_Q(ps, TransformKind.F1)
    realized = _point_type_no(ps, TransformKind.F1, Q, QeBudget(), False, DecisionStats())
    sat = unsat = 0
    for typ in enumerate_types(Q):
        if typ.sigmas in realized:
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


# -- the pre-change type at a point and witness test, as references -----


def _old_compute_type(Q, A, B, b, R):
    """compute_type before the coefficient values and the ratio rule
    moved behind one function each."""
    b = [Fraction(x) for x in b]
    if not is_R_growing(b, R):
        raise ValueError("compute_type: b must be R-growing")
    low = b[0] / R
    point = {"X": Fraction(A), "Y": Fraction(B)}
    sigmas = []
    taus = []
    for entry in Q.entries:
        vals = {a: c.evaluate(point) for a, c in entry.decomp.coeffs.items()}
        sigma_vec = tuple(
            0 if vals[a] == 0 else (1 if vals[a] > 0 else -1) for a in entry.support
        )
        tau_vec = []
        for (a, bb) in entry.pairs:
            va, vb = vals[a], vals[bb]
            if vb == 0:
                tau_vec.append(GIGANTIC)
            elif va == 0:
                tau_vec.append(DWARFED)
            else:
                rho = abs(va / vb)
                if rho <= low:
                    tau_vec.append(DWARFED)
                elif at_least_power(rho, b[-1], R):
                    tau_vec.append(GIGANTIC)
                else:
                    return NotWellPlaced(entry.entry_id, a, bb, rho)
        sigmas.append(sigma_vec)
        taus.append(tuple(tau_vec))
    return CandidateType(sigmas=tuple(sigmas), taus=tuple(taus))


def _old_try_witness(Q, typ, A, B, R, n):
    """_try_witness with its own evaluation loop and gigantic bound."""
    point = {"X": A, "Y": B}
    dmax = Fraction(0)
    gmin = None
    for entry in Q.entries:
        sigma = typ.sigma(entry)
        tau = typ.tau(entry)
        vals = {}
        for alpha in entry.support:
            v = entry.decomp.coeffs[alpha].evaluate(point)
            want = sigma[alpha]
            actual = 0 if v == 0 else (1 if v > 0 else -1)
            if actual != want:
                return None
            vals[alpha] = v
        for (a, b) in entry.pairs:
            if sigma[a] == 0 or sigma[b] == 0:
                continue
            rho = abs(vals[a] / vals[b])
            if tau[(a, b)] == DWARFED:
                dmax = max(dmax, rho)
            else:
                gmin = rho if gmin is None else min(gmin, rho)
    start = max(Fraction(R), R * dmax)
    b_seq = canonical_growing(R, n, start=start)
    if gmin is not None and not at_least_power(gmin, b_seq[-1], R):
        return None
    if _old_compute_type(Q, A, B, b_seq, R) != typ:
        return None
    return (A, B, b_seq)


def _old_grid(R, n):
    """witness_search's points, in its order (its random draws came after)."""
    big = Fraction(R) ** (R ** (n + 1))
    base = [Fraction(v) for v in (0, 1, -1, 2, -2, 3, -3, 5, -5)]
    base += [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3)]
    base += [big, -big, 1 / big, -1 / big]
    return list(product(base, repeat=2))


@st.composite
def _linear_systems(draw):
    """Coefficient systems of one atom a*x1 + b*x2 + c > 0, or of two
    with an order atom k*x1 - k*x2 < 0; relations do not change Q."""
    a, b = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
    c = draw(st.integers(-1, 1))
    text = f"{a}*x1 + {b}*x2 + {c} > 0"
    k = draw(st.sampled_from((0, 1, -2)))
    if k:
        text += f" ; {k}*x1 - {k}*x2 < 0"
    kind = draw(st.sampled_from(list(TransformKind)))
    return text, build_Q(parse(text), kind)


_GRID_POINTS = st.sets(st.integers(0, 288), min_size=1, max_size=32)


@given(_linear_systems(), st.integers(0, 288), _GRID_POINTS)
@example(("x1 > 0", build_Q(parse("x1 > 0"), TransformKind.F1)), 0, set(range(289)))
@example(("x1 + x2 + 1 > 0 ; x1 - x2 < 0",
          build_Q(parse("x1 + x2 + 1 > 0 ; x1 - x2 < 0"), TransformKind.F2)),
         200, {0, 18, 40, 150, 288})
@settings(max_examples=8, deadline=None)
def test_type_at_point_matches_pre_change(case, drawn, sample):
    """compute_type, _try_witness and witness_search against the
    pre-change code, with R = 4 and n = 3, on the enumerated types and
    the grid points.  Both _try_witness versions return None at once
    when the point's coefficient signs differ from the type's, so they
    run on every type at one drawn point, and on every type whose signs
    the point realizes at each point of a drawn sample (every point of
    a two-atom system costs seconds).  compute_type runs at each sampled
    point on the default b and on each b a witness test built there;
    witness_search must return the first witness in grid order."""
    text, Q = case
    R, n = 4, 3
    grid = _old_grid(R, n)
    by_signs: dict = {}
    for typ in enumerate_types(Q):
        by_signs.setdefault(typ.sigmas, []).append(typ)
    A, B = grid[drawn]
    for types in by_signs.values():
        for typ in types:
            assert _try_witness(Q, typ, A, B, R, n) == _old_try_witness(Q, typ, A, B, R, n)
    hit = set()
    for A, B in (grid[i] for i in sorted(sample)):
        point = {"X": A, "Y": B}
        signs = tuple(
            tuple(0 if v == 0 else (1 if v > 0 else -1)
                  for v in (e.decomp.coeffs[al].evaluate(point) for al in e.support))
            for e in Q.entries)
        bs = {tuple(canonical_growing(R, n))}
        for typ in by_signs.get(signs, []):
            got = _old_try_witness(Q, typ, A, B, R, n)
            assert _try_witness(Q, typ, A, B, R, n) == got, (text, typ, A, B)
            if got is not None:
                hit.add(typ)
                bs.add(tuple(got[2]))
        for b in bs:
            assert compute_type(Q, A, B, b, R) == _old_compute_type(Q, A, B, b, R)
    for typ in hit:
        first = next(w for w in (_old_try_witness(Q, typ, A, B, R, n) for A, B in grid)
                     if w is not None)
        assert witness_search(Q, typ, R, n) == first, (text, typ)
