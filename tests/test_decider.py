import gc
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from esdec import decider
from esdec.algebra import TransformKind
from esdec.decider import (
    NO, UNDEC, YES, EsValue, check_order_invariance, decide_es, es_bruteforce,
    weak_orderings,
)
from esdec.errors import InconsistentTypeError, OrderInvarianceError, ResourceLimitError
from esdec.feasibility import (
    _REL_OF_SIGN, FEASIBLE, UNDECIDED, FeasibilityInstance, _conjunction, is_feasible,
)
from esdec.predicates import Atom, eval_at, holds_everywhere, parse
from esdec.qe import (
    QeBudget, RealAlgebraicNumber, Sentence, decide_sentence, isolate_real_roots, sign_vectors,
)
from esdec.ramsey import canonical_growing, extract_homogeneous
from esdec.typesys import (
    build_Q, coefficient_values, enumerate_types, eval_predicates_from_type, point_type, type_at,
)


def test_undecided_types_answer_undecided_never_no():
    """A feasibility test that runs out of cells leaves its type
    undecided, and with no NO found the answer is UNDECIDED, by the type
    enumeration; a larger budget decides the same set YES."""
    pset = parse("x1 - x2 <= 0 ; x1 != 0")
    v = decide_es(pset, QeBudget(max_cells=5), search_witness=False)
    assert v.answer == UNDEC
    assert v.stats.decided_by == "types"
    assert "F1: type undecided" in v.stats.undecided_events
    assert set(v.stats.undecided_events) <= {"F1: type undecided", "F2: type undecided"}
    assert v.to_json()["stats"]["decidedBy"] == "types"
    assert decide_es(pset, QeBudget(max_cells=20), search_witness=False).answer == YES


def test_weak_orderings_counts():
    # ordered Bell numbers
    for n, count in ((1, 1), (2, 3), (3, 13), (4, 75), (5, 541)):
        assert sum(1 for _ in weak_orderings(n)) == count


def _weak_orderings_from(prefix, present, top, n, keep):
    pos = len(prefix)
    if pos == n:
        yield prefix
        return
    remaining = n - pos
    for level in range(1, top + remaining + 1):
        new_present = present | (1 << level)
        new_top = max(top, level)
        # every present level is <= new_top; the missing ones must
        # still fit into the positions left after this one
        if new_top - new_present.bit_count() > remaining - 1:
            continue
        new_prefix = prefix + (level,)
        if keep is None or keep(new_prefix):
            yield from _weak_orderings_from(new_prefix, new_present, new_top, n, keep)


def _weak_orderings(n, keep=None):
    """Canonical weak orderings of n positions depth-first, by nested
    generators, in the order of their prefixes: the search es_bruteforce
    made before it was one recursion, kept as the loop search's
    independent reference.  ``keep(prefix)``, if given, is asked about
    every nonempty prefix, the full ordering included; a prefix it
    rejects is neither yielded nor extended."""
    if n == 0:
        yield ()
        return
    yield from _weak_orderings_from((), 0, 0, n, keep)


def test_weak_orderings_order():
    """Lexicographic order of the canonical rank tuples; a prefix filter
    drops exactly the orderings with a rejected prefix, keeping order."""
    def no_repeat(prefix):
        return len(prefix) < 2 or prefix[-1] != prefix[-2]

    for n in range(6):
        want = [t for t in product(range(1, n + 1), repeat=n)
                if set(t) == set(range(1, max(t, default=0) + 1))]
        assert list(weak_orderings(n)) == want
        assert list(_weak_orderings(n)) == want
        assert list(_weak_orderings(n, no_repeat)) == \
            [t for t in want if all(a != b for a, b in zip(t, t[1:]))]


def test_searches_leave_no_reference_cycles():
    """With the collector off, each call leaves nothing for it to free:
    the recursive searches make no self-referencing closures."""
    mono = parse("x1 < x2 ; x1 >= x2")
    noise = [Fraction(x) for x in (3, -1, 4, -1, 5, -9, 2, 6, -5, 3, 5, 8)]
    growing = [5 + 7 * x for x in canonical_growing(4, 8)]
    calls = (
        lambda: es_bruteforce(mono, 3, 6),
        lambda: extract_homogeneous(noise, mono, 3),  # brute force
        lambda: extract_homogeneous(growing, mono, 4),  # constructive
        lambda: decide_es(parse("x1 - x2 >= 0"), search_witness=False),  # a cell walk stopped early
    )
    for call in calls:
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()


def _pattern_walk(Q):
    """Each cell of one decomposition of Q's nonconstant coefficients
    over (X, Y): its sign vector, the sign pattern that gives Q's
    support, shaped as CandidateType.sigmas (a constant has its own
    sign), and its sample."""
    index = decider._coefficient_index(Q)
    slots = tuple(tuple((index.get(c), decider._constant_sign(c)) for c in
                        (entry.decomp.coeffs[a] for a in entry.support)) for entry in Q.entries)
    for vector, point in sign_vectors(list(index), ("X", "Y"), QeBudget()):
        yield vector, tuple(tuple(s if i is None else vector[i] for i, s in entry)
                            for entry in slots), point


def _realized(Q):
    """The sign patterns of Q's walk: the sign screen of the type
    enumeration."""
    return {sigmas for _vector, sigmas, _point in _pattern_walk(Q)}


def _by_types(text, type_cap=200_000, screened=True):
    """The type enumeration alone, over both transforms: the reference
    that decide_es's sign-vector and point-type stages answer before.
    Each transform's sign screen comes from its own walk, or is left out
    (``screened`` False)."""
    pset = parse(text)
    systems = []
    for kind in TransformKind:
        Q = build_Q(pset, kind)
        systems.append((kind, Q, _realized(Q) if screened else None))
    return decider._decide_by_types(pset, systems, QeBudget(), type_cap, False,
                                    decider.DecisionStats())


def test_decide_monotone_pair_yes():
    v = decide_es(parse("x1 < x2 ; x1 >= x2"))
    assert v.answer == YES and v.stats.decided_by == "signs"
    v = _by_types("x1 < x2 ; x1 >= x2")
    assert v.answer == YES
    assert v.stats.types_total > 0


def test_sign_vectors_over_the_cap_go_to_the_later_stages():
    """More entry-sign vectors than type_cap are left to the later
    stages: both transforms are walked, find no NO, and the type
    enumeration stops at the cap, so the answer is UNDECIDED; at a cap
    that admits the three vectors, stage 1 answers YES."""
    pset = parse("x1 < x2 ; x1 >= x2")
    v = decide_es(pset, type_cap=2)
    assert v.answer == UNDEC and v.stats.decided_by == "types"
    assert v.stats.qe_calls == {"screen": 2, "feasibility": 0}
    assert [e.split(":")[0] for e in v.stats.undecided_events] == ["F1", "F2"]
    assert all(e.endswith("exceeds cap 2") for e in v.stats.undecided_events)
    v = decide_es(pset, type_cap=3)
    assert v.answer == YES and v.stats.decided_by == "signs"


def test_decide_eq_neq_yes():
    assert decide_es(parse("x1 = x2 ; x1 != x2")).answer == YES


def test_decide_single_lt_no():
    v = decide_es(parse("x1 < x2"))
    assert v.answer == NO
    assert v.transform is not None and v.orientation in ("ascending", "descending")
    assert v.witness is not None
    j = v.to_json()
    assert j["answer"] == "NO" and "type" in j


def test_decide_single_ge_no():
    assert decide_es(parse("x1 >= x2")).answer == NO


def test_decide_single_eq_no():
    assert decide_es(parse("x1 = x2")).answer == NO


def test_decide_member_order_invariant():
    a = decide_es(parse("x1 < x2 ; x1 >= x2"))
    b = decide_es(parse("x1 >= x2 ; x1 < x2"))
    assert a.answer == b.answer == YES


def _feasibility_first_decide(pset):
    """Reference without the verdict-first shortcut or the sign screen:
    test every type's feasibility, then read its verdicts."""
    undecided = False
    for kind in (TransformKind.F1, TransformKind.F2):
        Q = build_Q(pset, kind)
        for typ in enumerate_types(Q):
            verdict = is_feasible(FeasibilityInstance.from_type(Q, typ))
            if verdict == UNDECIDED:
                undecided = True
            if verdict != FEASIBLE:
                continue
            for orientation in ("ascending", "descending"):
                try:
                    verdicts = eval_predicates_from_type(pset, Q, typ, orientation)
                except InconsistentTypeError:
                    break
                if all(v == "nowhere" for v in verdicts.values()):
                    return NO, (kind, typ, orientation)
    return (UNDEC if undecided else YES), None


_RELS = ("<", "<=", ">", ">=", "=", "!=")


@st.composite
def _order_sets(draw):
    """1-2 members over atoms a*x1 - a*x2 rel 0.  One a per set keeps
    the coefficient system at 17 types per transform, so the reference
    stays cheap; the explicit examples cover two coefficients."""
    a = draw(st.sampled_from((1, 2, -1, -3)))

    def atom():
        return f"{a}*x1 - {a}*x2 {draw(st.sampled_from(_RELS))} 0"

    def member():
        shape = draw(st.sampled_from(("atom", "not", "and", "or")))
        if shape == "atom":
            return atom()
        if shape == "not":
            return f"not {atom()}"
        return f"{atom()} {shape} {atom()}"

    return " ; ".join(member() for _ in range(draw(st.integers(1, 2))))


@given(_order_sets())
@example("x1 < x2")
@example("x1 = x2 ; x1 != x2")
@example("2*x1 - 2*x2 < 0 and x1 - x2 != 0")
@example("x1 - x2 > 0 or 2*x1 - 2*x2 < 0")  # a screen-passing infeasible type comes first
@settings(max_examples=20, deadline=None)
def test_decide_matches_feasibility_first(text):
    """decide_es gives the reference's answer, and the type enumeration
    alone gives its certificate too."""
    pset = parse(text)
    got = decide_es(pset, search_witness=False)
    want, cert = _feasibility_first_decide(pset)
    assert got.answer == want, text
    got = _by_types(text)
    assert got.answer == want, text
    if want == NO:
        assert (got.transform, got.certificate_type, got.orientation) == cert, text


def test_screen_exhaustion_falls_through(monkeypatch):
    """A walk that runs out of budget leaves the set to the type
    enumeration and each type to is_feasible, and records no undecided
    event."""
    calls = []

    def exhausted(polys, variables, budget=None):
        calls.append(polys)
        raise ResourceLimitError("screen budget")

    yes_text, no_text = "x1 - x2 <= 0 ; x1 != 0", "-2*x1 + 2*x2 >= 0"
    yes = decide_es(parse(yes_text), search_witness=False)
    no = _by_types(no_text)  # decide_es answers it from a point type
    assert yes.answer == YES and yes.stats.types_skipped_by_screen > 0
    assert yes.stats.decided_by == "types"
    assert no.answer == NO and no.stats.types_skipped_by_screen > 0
    monkeypatch.setattr(decider, "sign_vectors", exhausted)
    for text, want in ((yes_text, yes), (no_text, no)):
        calls.clear()
        v = decide_es(parse(text), search_witness=False)
        assert calls, text
        assert v.answer == want.answer, text
        assert v.stats.decided_by == "types", text
        assert v.stats.undecided_events == [], text
        assert v.stats.types_skipped_by_screen == 0, text
        assert (v.transform, v.certificate_type, v.orientation) == \
            (want.transform, want.certificate_type, want.orientation), text


@st.composite
def _linear_atom_sets(draw):
    """1-2 members, each one atom a*x1 + b*x2 + c rel 0."""
    def atom():
        a, b = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
        return f"{a}*x1 + {b}*x2 + {draw(st.integers(-1, 1))} {draw(st.sampled_from(_RELS))} 0"

    return " ; ".join(atom() for _ in range(draw(st.integers(1, 2))))


def _sign_sentence(inst: FeasibilityInstance) -> Sentence:
    """The screen's sentence for one type, as the decider decided it
    before one decomposition per transform answered it."""
    atoms = [Atom(poly.drop_unused(), _REL_OF_SIGN[sign]) for poly, sign in inst.sign_constraints]
    return Sentence((("exists", "X"), ("exists", "Y")), _conjunction(atoms))


@given(_linear_atom_sets())
@example("x1 + -1*x2 + 0 >= 0 ; 0*x1 + 2*x2 + 1 != 0")  # 81 signatures, 72 rejected
@example("x1 - x2 <= 0 ; x1 != 0")  # no point type answers
@settings(max_examples=60, deadline=None)
def test_sign_screen_matches_sign_sentences(text):
    """Under both transforms, for every distinct sign signature of a
    system with at most 3,000 types, the signature is among the walk's
    sign patterns exactly when its constants have their own signs and
    its existential sentence is true.  A point-type stage that answers
    no NO returns exactly those patterns."""
    pset = parse(text)
    for kind in TransformKind:
        Q = build_Q(pset, kind)
        try:
            types = enumerate_types(Q, cap=3000)
        except ResourceLimitError:
            continue
        realized = _realized(Q)
        out = decider._point_type_no(pset, kind, Q, QeBudget(), False, decider.DecisionStats())
        assert isinstance(out, decider.Verdict) or out == realized, (text, kind)
        seen = set()
        for typ in types:
            if typ.sigmas in seen:
                continue
            seen.add(typ.sigmas)
            inst = FeasibilityInstance.from_type(Q, typ)
            want = not inst.constant_conflict and decide_sentence(_sign_sentence(inst))
            assert (typ.sigmas in realized) == want, (text, kind, typ.sigmas)


@given(_linear_atom_sets())
@example("x1 - x2 <= 0 ; x1 != 0")  # YES, 18 types skipped
@example("1*x1 + -1*x2 + 0 >= 0")  # NO after 4 skipped types
@settings(max_examples=40, deadline=None)
def test_sign_screen_changes_no_answer(text):
    """The screen is a shortcut: the type enumeration with each
    transform's walk patterns and without any screen give the same
    answer, certificate and type count wherever no feasibility test is
    left undecided, and every type the screen skips is one that the
    unscreened run tests and finds infeasible."""
    screened = _by_types(text, type_cap=3000)
    plain = _by_types(text, type_cap=3000, screened=False)
    if any("type undecided" in e for e in screened.stats.undecided_events
           + plain.stats.undecided_events):
        return
    assert screened.answer == plain.answer, text
    assert (screened.transform, screened.certificate_type, screened.orientation) == \
        (plain.transform, plain.certificate_type, plain.orientation), text
    assert screened.stats.types_total == plain.stats.types_total, text
    assert plain.stats.types_skipped_by_screen == 0, text
    assert screened.stats.qe_calls["feasibility"] + screened.stats.types_skipped_by_screen \
        == plain.stats.qe_calls["feasibility"], text


def test_decide_counts_qe_calls():
    """QE work by purpose, in the stats and their JSON.  The type
    enumeration alone builds no decomposition: it is handed each
    transform's walk patterns.  In x1 - x2 >= 0 its screen rejects four
    types before the fifth is tested and certifies NO; a YES pair with no
    all-nowhere type makes no QE call at all.  decide_es answers the
    first two from a point type of one decomposition and the pair from
    sign vectors; x1 - x2 <= 0 ; x1 != 0 reaches the enumeration, whose
    screens are the patterns of the two walks."""
    cases = (  # text, answer, how, QE calls of decide_es, of the enumeration alone, skipped
        ("x1 < x2", NO, "points", {"screen": 1, "feasibility": 0},
         {"screen": 0, "feasibility": 1}, 0),
        ("x1 - x2 >= 0", NO, "points", {"screen": 1, "feasibility": 0},
         {"screen": 0, "feasibility": 1}, 4),
        ("x1 < x2 ; x1 >= x2", YES, "signs", {"screen": 0, "feasibility": 0},
         {"screen": 0, "feasibility": 0}, 0),
        ("x1 - x2 <= 0 ; x1 != 0", YES, "types", {"screen": 2, "feasibility": 0},
         {"screen": 0, "feasibility": 0}, 18),
    )
    for text, answer, how, decide_calls, qe_calls, skipped in cases:
        v = decide_es(parse(text), search_witness=False)
        assert v.answer == answer, text
        assert v.stats.decided_by == how, text
        assert v.stats.qe_calls == decide_calls, text
        assert v.to_json()["stats"]["decidedBy"] == how, text
        v = _by_types(text)
        assert v.answer == answer, text
        assert v.stats.qe_calls == qe_calls, text
        assert v.stats.types_skipped_by_screen == skipped, text
        got = v.to_json()["stats"]
        assert got["qeCalls"] == qe_calls, text
        assert "screenCacheHits" not in got, text


def _witness_sequence(kind, A, B, b, orientation):
    """The concrete sequence of a NO witness, in its orientation."""
    seq = [A + B * x if kind is TransformKind.F1 else A + B / x for x in b]
    return seq if orientation == "ascending" else seq[::-1]


@given(_linear_atom_sets())
@example("x1 + 2*x2 + 0 != 0")
@example("1*x1 + 0*x2 + 0 != 0 ; 0*x1 + 1*x2 + 0 > 0")
@settings(max_examples=40, deadline=None)
def test_point_type_certificates_are_feasible(text):
    """A NO from a point type is FEASIBLE by the growth-gap sentence and
    passes the re-verification of its verdicts.  The small type cap
    bounds the sets left to the type enumeration, which this does not
    test."""
    pset = parse(text)
    v = decide_es(pset, search_witness=False, type_cap=3000)
    if v.stats.decided_by != "points":
        return
    assert v.answer == NO, text
    Q = build_Q(pset, v.transform)
    assert is_feasible(FeasibilityInstance.from_type(Q, v.certificate_type)) == FEASIBLE, text
    decider._reverify_no(pset, Q, v)


@given(_linear_atom_sets())
@example("x1 + 2*x2 + 0 != 0")
@settings(max_examples=60, deadline=None)
def test_point_type_witnesses_realize_their_type(text):
    """A point-type NO's witness realizes the certificate exactly, and
    every member is false on every tuple of its concrete sequence."""
    pset = parse(text)
    v = decide_es(pset, type_cap=3000)
    if v.stats.decided_by != "points" or v.witness is None:
        return
    A, B, b = v.witness
    Q = build_Q(pset, v.transform)
    assert type_at(Q, coefficient_values(Q, A, B), b, decider.WITNESS_R) == v.certificate_type
    seq = _witness_sequence(v.transform, A, B, b, v.orientation)
    for member in pset.members:
        assert not any(eval_at(member, tup) for tup in combinations(seq, pset.arity)), text


def _check_no_witness(pset, v):
    """What the benchmark checks of a NO witness: the concrete sequence
    is defined (no zero term under F2) and every member is false on each
    of its increasing tuples."""
    A, B, b = v.witness
    assert v.transform is TransformKind.F1 or all(x != 0 for x in b)
    seq = _witness_sequence(v.transform, A, B, b, v.orientation)
    for member in pset.members:
        assert not any(eval_at(member, tup) for tup in combinations(seq, pset.arity))


def test_point_type_no_has_a_witness_past_an_irrational_cell():
    """The first NO cell of x1^2 - 2 > 0 lies at X = -sqrt(2); the walk
    goes on to a rational one, whose sample is the witness."""
    pset = parse("x1^2 - 2 > 0")
    v = decide_es(pset)
    assert v.answer == NO and v.stats.decided_by == "points"
    assert v.witness is not None
    _check_no_witness(pset, v)


def _rational_no_cell(pset, Q):
    """The first cell of Q's walk with a rational sample whose point
    type makes every member 'nowhere': its sign vector and sample."""
    for vector, sigmas, point in _pattern_walk(Q):
        if any(isinstance(x, RealAlgebraicNumber) and x.value is None for x in point.values()):
            continue
        if decider._nowhere_orientation(pset, Q, point_type(Q, sigmas), decider.DecisionStats()):
            return vector, point
    raise AssertionError("no rational NO cell")


@pytest.mark.parametrize("tail", ("rational", "exhausted", "end"))
def test_point_type_no_prefers_a_rational_sample(monkeypatch, tail):
    """A NO vector met first at an irrational sample answers with a
    witness when it comes back at a rational one, and without one when
    the walk ends or runs out of cells before that."""
    pset = parse("x1^2 - 2 > 0")
    vector, point = _rational_no_cell(pset, build_Q(pset, TransformKind.F1))
    root2 = isolate_real_roots([-2, 0, 1])[-1]
    assert root2.value is None

    def walk(polys, variables, budget=None):
        yield vector, {**point, "X": root2}
        if tail == "rational":
            yield vector, point
        elif tail == "exhausted":
            raise ResourceLimitError("walk budget")

    monkeypatch.setattr(decider, "sign_vectors", walk)
    v = decide_es(pset)
    assert v.answer == NO and v.stats.decided_by == "points"
    assert v.transform is TransformKind.F1
    if tail != "rational":
        assert v.witness is None
        return
    A, B = (x.value if isinstance(x, RealAlgebraicNumber) else x
            for x in (point["X"], point["Y"]))
    assert v.witness[:2] == (A, B)
    _check_no_witness(pset, v)


@given(_linear_atom_sets())
@example("x1 + -1*x2 + 0 >= 0 ; 0*x1 + 2*x2 + 1 != 0")
@example("1*x1 + 1*x2 + -1 >= 0")
@settings(max_examples=30, deadline=None)
def test_decide_matches_the_type_enumeration(text):
    """Wherever the type enumeration alone finishes under a small type
    cap, decide_es gives its answer."""
    want = _by_types(text, type_cap=3000)
    if want.answer == UNDEC:
        return
    got = decide_es(parse(text), search_witness=False, type_cap=3000)
    assert got.answer == want.answer, text


@st.composite
def _one_form_sets(draw):
    """Two members over one form a*x1 + b*x2 + c, each one relation to
    0: YES by sign vectors exactly when the two relations cover every
    sign."""
    a, b = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
    form = f"{a}*x1 + {b}*x2 + {draw(st.integers(-1, 1))}"
    return " ; ".join(f"{form} {draw(st.sampled_from(_RELS))} 0" for _ in range(2))


@given(_one_form_sets())
@example("1*x1 + -1*x2 + 0 < 0 ; 1*x1 + -1*x2 + 0 >= 0")
@settings(max_examples=40, deadline=None)
def test_sign_vector_yes_never_meets_an_enumeration_no(text):
    """When sign vectors answer YES, no enumerated type of either
    transform makes every member 'nowhere', so the enumeration alone
    cannot answer NO."""
    pset = parse(text)
    if decide_es(pset, type_cap=3000).stats.decided_by != "signs":
        return
    assert _by_types(text, type_cap=3000).answer == YES, text
    for kind in TransformKind:
        Q = build_Q(pset, kind)
        stats = decider.DecisionStats()
        for typ in enumerate_types(Q):
            assert decider._nowhere_orientation(pset, Q, typ, stats) is None, (text, kind)


def test_envelope_note_emitted():
    with pytest.warns(UserWarning):
        v = decide_es(parse("x1^3 > x2"), search_witness=False, type_cap=100)
    assert v.answer in (NO, UNDEC, YES)


def test_order_invariance_check():
    check_order_invariance(parse("x1 < x2 ; x1 >= x2"))
    with pytest.raises(OrderInvarianceError):
        check_order_invariance(parse("x1 + x2 > 1"))
    # a cancelled variable beyond the arity is not read
    check_order_invariance(parse("x2 - x2 != 0 or x1 > x1"))


def test_es_bruteforce_monotone():
    mono = parse("x1 < x2 ; x1 >= x2")
    got = es_bruteforce(mono, 3, 6)
    assert got.value == 5 and got.exact
    assert got.counterexample is not None and len(got.counterexample) == 4
    # verify the counterexample: no 3-term subsequence is monotone
    seq = [Fraction(l) for l in got.counterexample]
    for sub in combinations(seq, 3):
        assert not any(holds_everywhere(m, list(sub)) for m in mono.members)
    assert es_bruteforce(mono, 2, 4).value == 2


def test_es_bruteforce_le():
    # strictly decreasing sequences never contain a <=-pair, so the
    # Ramsey value is unbounded; the decider agrees with NO
    got = es_bruteforce(parse("x1 <= x2"), 2, 4)
    assert got.value is None
    assert got.counterexample is not None
    assert decide_es(parse("x1 <= x2"), search_witness=False).answer == NO


def test_es_bruteforce_cap():
    got = es_bruteforce(parse("x1 = x2"), 2, 4)
    assert got.value is None and not got.exact
    assert got.searched_up_to == 4


def test_es_bruteforce_rejects_a_cap_below_n():
    """A cap below n searches no length, so it is a usage error, as
    n < 1 is; a cap of n searches n alone."""
    mono = parse("x1 < x2 ; x1 >= x2")
    with pytest.raises(ValueError, match="n_max must be >= n"):
        es_bruteforce(mono, 5, 3)
    with pytest.raises(ValueError, match="n must be >= 1"):
        es_bruteforce(mono, 0, 3)
    assert es_bruteforce(mono, 3, 3) == EsValue(None, 3, (1, 1, 2))


def test_es_bruteforce_sizes_its_table_by_the_lengths_searched():
    """A generous cap costs nothing: the truth table and the rows grow
    with the length searched, so a search that answers at N = 5 takes
    the time and memory of a cap of 5, not of the cap given."""
    for text, n, value in (("x1 < x2 ; x1 >= x2", 3, 5),
                           ("x1 < x2 and x2 < x3 ; not (x1 < x2 and x2 < x3)", 4, 5)):
        pset = parse(text)
        start = time.perf_counter()
        got = es_bruteforce(pset, n, 10 ** 6)
        assert time.perf_counter() - start < 2.0, text
        assert got == es_bruteforce(pset, n, value), text
        assert got.value == value, text


def _admits_good_subsequence(pset, seq, n):
    for subset in combinations(range(len(seq)), n):
        sub = [seq[i] for i in subset]
        if any(holds_everywhere(m, sub) for m in pset.members):
            return True
    return False


def _full_enumeration_es(pset, n, n_max):
    """Reference without pruning or the truth table: test every weak
    ordering of each length in full."""
    last_counterexample = None
    for N in range(n, n_max + 1):
        failed = None
        for pattern in weak_orderings(N):
            if not _admits_good_subsequence(pset, [Fraction(l) for l in pattern], n):
                failed = pattern
                break
        if failed is None:
            return EsValue(N, N, last_counterexample)
        last_counterexample = failed
    return EsValue(None, n_max, last_counterexample)


@st.composite
def _invariant_sets(draw, variables=2):
    """1-3 members, each a Boolean combination of atoms a*xi - a*xj rel 0
    (i < j <= ``variables``), which are order-invariant by construction."""
    def atom():
        a = draw(st.sampled_from((1, 2, -1, -3)))
        i, j = (1, 2) if variables == 2 else draw(
            st.sampled_from(list(combinations(range(1, variables + 1), 2))))
        return f"{a}*x{i} - {a}*x{j} {draw(st.sampled_from(_RELS))} 0"

    def node(depth):
        shape = draw(st.sampled_from(("atom", "not", "and", "or") if depth else ("atom",)))
        if shape == "atom":
            return atom()
        if shape == "not":
            return f"not ({node(depth - 1)})"
        return f"({node(depth - 1)}) {shape} ({node(depth - 1)})"

    return " ; ".join(node(2) for _ in range(draw(st.integers(1, 3))))


@given(_invariant_sets(), st.sampled_from(((2, 3), (2, 4), (2, 5), (3, 4), (3, 5))))
@example("x1 < x2 ; x1 >= x2", (3, 5))
@example("x1 < x2 ; x1 > x2", (3, 5))
@example("x1 = x2", (2, 5))
@example("x1 <= x2 and x1 != x2 ; x1 = x2", (3, 5))
@settings(max_examples=40, deadline=None)
def test_es_bruteforce_matches_full_enumeration(text, params):
    pset = parse(text)
    n, n_max = params
    assert es_bruteforce(pset, n, n_max) == _full_enumeration_es(pset, n, n_max), text


def _es_by_loop(pset, n, n_max):
    """es_bruteforce as it searched before arity 2 had its clique rows:
    for every n-subset through the last position, every member over
    every k-subset of it, from the same level-keyed truth table."""
    k = pset.arity
    members = list(enumerate(pset.members))
    truth = {}

    def keep(prefix):
        last = prefix[-1]
        for rest in combinations(prefix[:-1], n - 1):
            tuples = list(combinations(rest + (last,), k))
            for i, member in members:
                for levels in tuples:
                    key = (i, levels)
                    holds = truth.get(key)
                    if holds is None:
                        holds = truth[key] = eval_at(member, [Fraction(v) for v in levels])
                    if not holds:
                        break
                else:
                    return False
        return True

    last_counterexample = None
    for N in range(n, n_max + 1):
        failed = next(_weak_orderings(N, keep), None)
        if failed is None:
            return EsValue(N, N, last_counterexample)
        last_counterexample = failed
    return EsValue(None, n_max, last_counterexample)


@given(st.one_of(_invariant_sets(), _invariant_sets(3)),
       st.sampled_from(((1, 3), (2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5),
                        (4, 5))))
@example("x1 < x2 ; x1 >= x2", (3, 5))
@example("x1 = x2 ; x1 != x2", (3, 5))
@example("x1 < x2 and x2 < x3 ; not (x1 < x2 and x2 < x3)", (3, 5))
@example("x1 < x2 and x2 < x3 ; not (x1 < x2 and x2 < x3)", (4, 5))
@example("x1 < x3 ; x2 >= x3", (4, 5))
# the benchmark's es_bruteforce ops
@example("x1 < x2 ; x1 >= x2", (3, 6))
@example("x2 > x1 ; x2 <= x1", (3, 6))
@example("x1 > x2 ; x1 <= x2", (3, 6))
@example("x1 - x2 < 0 ; x1 - x2 >= 0", (3, 6))
@settings(max_examples=60, deadline=None)
def test_es_bruteforce_matches_the_loop_search(text, params):
    """Value, searched length and counterexample are those of the loop
    over n-subsets, for arity 2 (clique rows) and arity 3 (k-subsets of
    each n-subset)."""
    pset = parse(text)
    n, n_max = params
    assert es_bruteforce(pset, n, n_max) == _es_by_loop(pset, n, n_max), text


def test_order_invariance_failure_is_not_cached():
    """A non-invariant set raises on every call, memo or not."""
    pset = parse("x1 + x2 > 1")
    for _ in range(3):
        with pytest.raises(OrderInvarianceError):
            es_bruteforce(pset, 2, 3)
        with pytest.raises(OrderInvarianceError):
            check_order_invariance(pset)


@st.composite
def _sets_maybe_invariant(draw):
    """An order-invariant set, or one with an added atom that depends on
    scale (a*x1 + c, c != 0) or on more than order (x1 + x2 > c)."""
    text = draw(_invariant_sets())
    extra = draw(st.sampled_from(("", "x1 - 1 > 0", "x1 + x2 > 1", "2*x1 + 3 <= 0",
                                  "x1 - x2 != 0 or x1 > 0")))
    return f"{text} ; {extra}" if extra else text


@given(_sets_maybe_invariant(), st.sampled_from(((2, 3), (2, 4), (3, 4))))
@settings(max_examples=30, deadline=None)
def test_es_bruteforce_matches_unmemoized_check(text, params):
    """es_bruteforce on a fresh parse, twice (a memo hit the second
    time), raises exactly when the unmemoized check raises, and returns
    the same value each time."""
    n, n_max = params
    try:
        check_order_invariance.__wrapped__(parse(text))
        invariant = True
    except OrderInvarianceError:
        invariant = False
    got = []
    for _ in range(2):
        try:
            got.append(es_bruteforce(parse(text), n, n_max))
        except OrderInvarianceError:
            got.append(None)
    if invariant:
        assert got[0] is not None and got[0] == got[1], text
    else:
        assert got == [None, None], text


def test_es_bruteforce_evaluates_each_member_once_per_tuple(monkeypatch):
    """Each member is evaluated at most once per tuple of levels, and
    the pruned search needs at most 2 members * 5^2 level pairs here
    (check_order_invariance evaluates atoms directly and is not
    counted)."""
    calls = []

    def counting(member, point):
        calls.append((member, tuple(point)))
        return eval_at(member, point)

    monkeypatch.setattr(decider, "eval_at", counting)
    got = es_bruteforce(parse("x1 < x2 ; x1 >= x2"), 3, 6)
    assert got.value == 5
    assert len(calls) == len(set(calls))
    assert len(calls) <= 2 * 5 ** 2
