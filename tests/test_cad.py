import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from esdec.errors import ParseError, ResourceLimitError
from esdec.poly import MultiPoly, merge_vars
from esdec.predicates import And, Atom, Not, Or, atoms_of, eval_with, rel_holds
from esdec.qe import (
    QeBudget, Sentence, decide_sentence, export_smtlib, parse_sentence, sentence_negate,
)
from esdec.qe import cad
from esdec.qe.cad import EVENTUALLY, EXISTS, FORALL, _Decider, _settles, collins_project
from esdec.qe.resultants import psc_set
from esdec.qe.roots import RealAlgebraicNumber, roots_at_point, sign_at_point

from golden import GOLDEN_SENTENCES, GROWTH_PATTERNS, LINEAR_PARTS, growth_gap_atoms, growth_gap_truth

F = Fraction


@dataclass
class CadCell:
    """One sampled cell of the decomposition."""

    level: int
    variable: str | None
    kind: str  # "sector" | "section" | "root"
    sample: object  # Fraction | RealAlgebraicNumber | None at the root
    truth: bool | None = None
    children: list = field(default_factory=list)


class _TreeDecider(_Decider):
    """The decision recursion, recording each sampled cell as a child of
    the cell it was lifted over; a cell that trial evaluation settles
    gets no children."""

    def decide(self, level, point, cell):
        if level in self._trial_levels:
            truth = self._trial_truth(level, point)
            if truth is not None:
                return truth
        quant, var = self.sentence.prefix[level - 1]
        for kind, child_point in self._lift(level, point):
            child = CadCell(level, var, kind, child_point[var])
            cell.children.append(child)
            child.truth = self.decide(level + 1, child_point, child)
            if _settles(quant, child.truth):
                return child.truth
        return quant == FORALL


def decide_with_tree(sentence, budget=None):
    """decide_sentence that also returns the sampled cell tree."""
    root = CadCell(0, None, "root", None)
    root.truth = _TreeDecider(sentence, budget or QeBudget()).decide(1, {}, root)
    return root.truth, root


class _PlainDecider(_Decider):
    """Lifting without the memo: every root set and every atom sign is
    computed afresh at each sample point, and every subtree is walked."""

    _decide_open = _Decider._decide_cells

    def _roots(self, level, index, point):
        return cad.roots_at_point(self.levels[level][index], point, self.order[level - 1])

    def _atom_sign(self, atom, point):
        return cad.sign_at_point(atom.poly, point)


class _NoTrialDecider(_Decider):
    """Lifting without trial evaluation: every cell is lifted to full
    sample points, and only there is the matrix evaluated."""

    def decide(self, level, point, cell):
        if level > self.nvars:
            return eval_with(
                self.sentence.matrix,
                lambda atom: rel_holds(self._atom_sign(atom, point), atom.rel),
            )
        quant = self.sentence.prefix[level - 1][0]
        for _kind, child_point in self._lift(level, point):
            sub = self.decide(level + 1, child_point, None)
            if _settles(quant, sub):
                return sub
        return quant == FORALL


class _FullTrialDecider(_Decider):
    """Trial evaluation without the residual: each trial level evaluates
    the whole matrix, re-reading every atom assigned so far.  It keeps no
    residual, so it walks every subtree."""

    _decide_open = _Decider._decide_cells

    def _trial_truth(self, level, point):
        def atom_truth(atom):
            if self._atom_level[id(atom)] >= level:
                return None
            return rel_holds(self._atom_sign(atom, point), atom.rel)
        return eval_with(self.sentence.matrix, atom_truth)


def test_parse_sentence_shapes():
    s = parse_sentence("forall r. exists l. l >= r and l^2 > 0")
    assert s.prefix == (("forall", "r"), ("exists", "l"))
    with pytest.raises(ParseError):
        parse_sentence("x1 > 0")  # no quantifier
    with pytest.raises(ParseError):
        parse_sentence("forall x. y > 0")  # free variable
    with pytest.raises(ViolatedExpectation := ParseError):
        parse_sentence("forall X. X > 0")  # uppercase


def test_sentence_negate_roundtrip():
    s = parse_sentence("forall x. exists y. y > x^2")
    n = sentence_negate(s)
    assert n.prefix == (("exists", "x"), ("forall", "y"))
    assert sentence_negate(n).prefix == s.prefix


def test_decide_trivial_pairs():
    assert decide_sentence(parse_sentence("exists x. x^2 - 2 = 0"))
    assert decide_sentence(parse_sentence("forall x. x^2 + 1 > 0"))
    assert decide_sentence(parse_sentence("forall x. exists y. y > x^2"))
    assert not decide_sentence(parse_sentence("exists y. forall x. y > x^2"))


def test_golden_suite_with_duality():
    for text, expected in GOLDEN_SENTENCES:
        s = parse_sentence(text)
        t0 = time.monotonic()
        got = decide_sentence(s)
        elapsed = time.monotonic() - t0
        assert got == expected, text
        assert elapsed < 10, (text, elapsed)
        assert decide_sentence(sentence_negate(s)) == (not expected), text


def test_budget_limits():
    six = parse_sentence("forall a. exists b. forall c. exists d. exists e. exists f. "
                         "f > e and e > d and d > c and b = a")
    with pytest.raises(ResourceLimitError, match="6 variables exceeds the limit 5"):
        decide_sentence(six)
    s = parse_sentence("forall a. exists b. forall c. exists d. exists e. e > d and d > c and b = a")
    with pytest.raises(ResourceLimitError):
        decide_sentence(s, QeBudget(max_cells=5))


def test_collins_projection_contains_discriminant_data():
    x, b, c = MultiPoly.var("x1"), MultiPoly.var("b1"), MultiPoly.var("c1")
    proj = collins_project([x ** 2 + b * x + c], "x1")
    # the psc set of (p, p') must produce the discriminant up to scale
    disc = b ** 2 - 4 * c
    assert any(p == disc.primitive() or p == (-disc).primitive() for p in proj)


def test_cell_tree_sign_invariance():
    s = parse_sentence("exists x. exists y. y^2 = x and x < 2")
    truth, root = decide_with_tree(s)
    assert truth
    rng = random.Random(3)
    level1 = [cell for cell in root.children if cell.kind == "sector"]
    # collect the level-1 polynomials from the decomposition run
    dec = _Decider(s, QeBudget())
    polys = dec.levels[1]
    assert polys
    for cell in level1:
        if not isinstance(cell.sample, Fraction):
            continue
        neighbors = sorted(
            [c.sample for c in root.children if isinstance(c.sample, Fraction)]
        )
        idx = neighbors.index(cell.sample)
        base_signs = [sign_at_point(p, {"x": cell.sample}) for p in polys]
        for _ in range(10):
            jitter = cell.sample + F(rng.randint(-99, 99), 1000)
            # stay inside the sector: clamp jitter away from neighbors
            signs = [sign_at_point(p, {"x": jitter}) for p in polys]
            if all(s1 == s2 for s1, s2 in zip(base_signs, signs)):
                continue
            # jitter may have left the cell; only identical-sign samples count
            # for invariance, so verify the jittered point is in another cell
            assert any(sign_at_point(p, {"x": jitter}) != base_signs[i]
                       for i, p in enumerate(polys))


def test_export_smtlib():
    s = parse_sentence("exists x. x^2 - 2 = 0")
    text = export_smtlib(s)
    assert "(set-logic NRA)" in text
    assert "(exists ((x Real))" in text
    assert "(check-sat)" in text
    s2 = parse_sentence("forall x. x != 0 or x = 0")
    assert "(not (=" in export_smtlib(s2)
    s3 = parse_sentence("forall x. 2/3*x^2 >= 0 or x < -1/2")
    text3 = export_smtlib(s3)  # atoms are normalized to (lhs - rhs) rel 0
    assert "(/ 2 3)" in text3 and "(+ x (/ 1 2))" in text3
    s4 = parse_sentence("exists x. -x - 3 = 0")
    assert "(- 3)" in export_smtlib(s4)


def test_five_var_linear_sentence():
    s = parse_sentence(
        "forall a. exists b. forall c. exists d. exists e. e > d and d > c and b = a"
    )
    assert decide_sentence(s)


def _run(decider_cls, sentence, budget):
    dec = decider_cls(sentence, budget)
    try:
        truth = dec.decide(1, {}, None)
    except ResourceLimitError:
        truth = "exhausted"
    return truth, dec.cells_used, dec


_RELS = ("<", "<=", ">", ">=", "=", "!=")


@st.composite
def _small_sentences(draw):
    """Prenex sentences in 2-3 variables; atoms have 1-3 terms of degree
    <= 2 with coefficients in -2..2, joined by and/or."""
    names = draw(st.permutations(("x", "y", "z")))[: draw(st.integers(2, 3))]
    monomials = ["1", *names] + [f"{a}*{b}" for i, a in enumerate(names) for b in names[i:]]

    def atom():
        terms = draw(st.lists(
            st.tuples(st.integers(-2, 2), st.sampled_from(monomials)), min_size=1, max_size=3,
        ))
        poly = " + ".join(f"({c})*{m}" for c, m in terms)
        return f"{poly} {draw(st.sampled_from(_RELS))} 0"

    matrix = atom()
    for _ in range(draw(st.integers(0, 2))):
        matrix = f"({matrix}) {draw(st.sampled_from(('and', 'or')))} {atom()}"
    prefix = " ".join(f"{draw(st.sampled_from((FORALL, EXISTS)))} {v}." for v in names)
    return f"{prefix} {matrix}"


@given(_small_sentences())
@example("forall x. exists y. x^2 - 2 != 0 or y^2 - x^2 = 0")  # irrational sections
@example("forall x. exists y. x^2 - 2 != 0 or (y - x > 0 and y - 1 < 0)")  # ... told apart
@example("exists x. exists y. x^2 - 2 = 0 and y^2 - x*y - 1 < 0")
@example("forall z. forall x. exists y. z^2 - 1 != 0 or y^2 - x >= 0 or y - x < 0")  # z unused inside
@example("forall x. forall y. (0)*x < 0")  # x declared by the atom, not used
@settings(max_examples=40, deadline=None)
def test_lifting_memo_matches_plain_lifting(text):
    sentence = parse_sentence(text)
    budget = QeBudget(max_cells=300)
    truth, cells, _ = _run(_Decider, sentence, budget)
    assert (truth, cells) == _run(_PlainDecider, sentence, budget)[:2], text


def test_lifting_memo_keys_irrational_samples_by_identity():
    s = parse_sentence("forall x. exists y. x^2 - 2 != 0 or (y - x > 0 and y - 1 < 0)")
    truth, _, dec = _run(_Decider, s, QeBudget())
    assert truth is False
    keys = [k for (_, _, coords) in dec._roots_memo for k in coords]
    assert any(isinstance(k, RealAlgebraicNumber) and not k.is_rational for k in keys)
    assert all(isinstance(k, (tuple, RealAlgebraicNumber)) for k in keys)


def test_lifting_memo_keys_rationals_by_int_pairs():
    """A rational keys as its value's (numerator, denominator) in lowest
    terms, whether it is a Fraction or a RealAlgebraicNumber."""
    assert cad._coord_key(F(2, 4)) == cad._coord_key(RealAlgebraicNumber.from_rational(F(1, 2))) == (1, 2)
    assert cad._coord_key(F(-3)) == (-3, 1)
    sqrt2 = RealAlgebraicNumber([-2, 0, 1], F(1), F(2))
    assert cad._coord_key(sqrt2) is sqrt2
    s = parse_sentence("forall x. exists y. y^2 - x >= 0 or y - x < 0")
    truth, _, dec = _run(_Decider, s, QeBudget())
    keys = [k for (_, _, coords) in dec._roots_memo for k in coords]
    keys += [k for (_, coords) in dec._sign_memo for k in coords]
    assert truth is True and keys
    for k in keys:
        assert type(k) is tuple and all(type(c) is int for c in k)
        assert k[1] > 0 and gcd(*k) == 1


def test_lifting_memo_reuses_results_across_unused_coordinates(monkeypatch):
    """z is outermost and no polynomial of the inner levels uses it, so
    every z-cell after the first reuses the roots and atom signs found
    over the first one."""
    calls = {"roots": 0, "signs": 0}

    def counted(kind, fn):
        def wrapper(*args):
            calls[kind] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cad, "roots_at_point", counted("roots", roots_at_point))
    monkeypatch.setattr(cad, "sign_at_point", counted("signs", sign_at_point))
    s = parse_sentence("forall z. forall x. exists y. z^2 - 1 != 0 or y^2 - x >= 0 or y - x < 0")
    truth, cells, _ = _run(_Decider, s, QeBudget())
    memo = dict(calls)
    calls.update(roots=0, signs=0)
    assert (truth, cells) == _run(_PlainDecider, s, QeBudget())[:2] == (True, 25)
    assert memo["roots"] < cells <= calls["roots"]
    assert memo["signs"] < calls["signs"]
    # lifted to full sample points, the same sentence charges 55 cells
    assert _run(_NoTrialDecider, s, QeBudget())[:2] == (True, 55)


# (sentence, truth); "eventually v" reads "for all sufficiently large v"
EVENTUALLY_CASES = (
    ("eventually x. x > 5", True),
    ("eventually x. x < 5", False),
    ("eventually x. x^2 - 3*x + 1 > 0", True),
    ("eventually x. exists y. y^2 = x", True),
    ("eventually x. forall y. x > y", False),
    ("forall y. eventually x. x > y", True),
    ("eventually x. eventually y. x*y > 1", True),
    ("exists y. eventually x. x*y < 0 and y^2 = 2", True),
)


def _growth_gap_text(pattern, linear, signs):
    """The benchmark's qe sentences: l >= r is known at level 2, so no
    l < r sector needs lifting."""
    atoms = ["l >= r", *growth_gap_atoms(pattern, linear, signs)]
    return "forall r. exists l. forall h. exists x. exists y. " + " and ".join(atoms)


_growth_gap_sentences = st.builds(
    _growth_gap_text,
    st.sampled_from(GROWTH_PATTERNS),
    st.sampled_from(LINEAR_PARTS),
    st.fixed_dictionaries({k: st.sampled_from((1, -1)) for k in ("u", "v")}),
)
GROWTH_GAP_PATTERN = (("D", "u", "v"),)
GROWTH_GAP_EXAMPLE = _growth_gap_text(GROWTH_GAP_PATTERN, (1, 0, 0, 1), {"u": 1, "v": -1})


def _examples(texts):
    def apply(test):
        for text in texts:
            test = example(text)(test)
        return test
    return apply


@given(st.one_of(_small_sentences(), _growth_gap_sentences))
@_examples(text for text, _ in EVENTUALLY_CASES)
@example(GROWTH_GAP_EXAMPLE)
@example("forall x. exists y. 1 > 0 or x*y > 0")  # settled before x is assigned
@example("exists x. forall y. 2 < 1 and x - y > 0")
@example("exists x. forall y. not (y > 0) and x > 0")  # an unknown under not
@example("forall x. exists y. forall z. not (x > 0 and y - z > 0) or (x*y < 1 and z > x)")
@settings(max_examples=30, deadline=None)
def test_trial_evaluation_matches_lifting_to_full_points(text):
    """Stopping at a cell whose assigned atoms settle the matrix gives the
    truth of lifting it to full sample points, with no more cells.  Folding
    only the newly known atoms into the residual passed down the recursion
    settles the same cells, with the same truth, as evaluating the whole
    matrix at each trial level."""
    sentence = parse_sentence(text)
    budget = QeBudget(max_cells=300)
    truth, cells, dec = _run(_Decider, sentence, budget)
    whole_truth, _, whole = _run(_FullTrialDecider, sentence, budget)
    assert (truth, dec.cells_by_level, dec.settled_early) == \
        (whole_truth, whole.cells_by_level, whole.settled_early), text
    full_truth, full_cells, _ = _run(_NoTrialDecider, sentence, budget)
    if full_truth == "exhausted":  # trial evaluation may finish within it
        return
    assert (truth, cells <= full_cells) == (full_truth, True), text


def test_trial_evaluation_settles_growth_gap_cells():
    """l >= r is known at level 2: an l-cell below r is not lifted."""
    dec = _Decider(parse_sentence(GROWTH_GAP_EXAMPLE), QeBudget())
    assert dec.decide(1, {}, None) is growth_gap_truth(GROWTH_GAP_PATTERN)
    assert dec.settled_early > 0
    assert sum(dec.cells_by_level) == dec.cells_used
    assert dec.cells_used < _run(_NoTrialDecider, dec.sentence, QeBudget())[1]


class _UnmemoizedDecider(_Decider):
    """The decision recursion without the subtree memo: every open level
    walks its cells."""

    _decide_open = _Decider._decide_cells


def _lift_outcome(decider_cls, sentence, budget):
    """(truth or "exhausted", cells charged, cells by level, settled early)."""
    truth, cells, dec = _run(decider_cls, sentence, budget)
    return truth, cells, tuple(dec.cells_by_level), dec.settled_early


Z_UNUSED_INSIDE = "forall z. forall x. exists y. z^2 - 1 != 0 or y^2 - x >= 0 or y - x < 0"


@given(_small_sentences(), st.integers(1, 60))
@example(GROWTH_GAP_EXAMPLE, 60)
@example(GROWTH_GAP_EXAMPLE, 8)
@example(Z_UNUSED_INSIDE, 60)
@example(Z_UNUSED_INSIDE, 14)  # runs out inside the replayed z = 1 subtree
@example("exists z. forall x. (z < 0 and x - 1 > 0) or (z >= 0 and x^2 >= 0)", 60)  # z picks the residual
@settings(max_examples=40, deadline=None)
def test_subtree_memo_matches_the_plain_recursion(text, max_cells):
    """Replaying a memoized subtree gives the truth and charges of walking
    it: the same LiftStats under a roomy budget, and under a small one
    the same exhaustion, at the same cell, with the same counts."""
    sentence = parse_sentence(text)
    for budget in (QeBudget(max_cells=300), QeBudget(max_cells=max_cells)):
        want = _lift_outcome(_UnmemoizedDecider, sentence, budget)
        assert _lift_outcome(_Decider, sentence, budget) == want, (text, budget)
        if want[0] == "exhausted":
            assert want[1] == budget.max_cells + 1


def _counting(decider_cls):
    class Counting(decider_cls):
        """Counts decide calls, open levels and walked levels."""

        def __init__(self, sentence, budget):
            super().__init__(sentence, budget)
            self.calls = self.opens = self.walks = 0

        def decide(self, level, point, cell):
            self.calls += 1
            return super().decide(level, point, cell)

        def _decide_open(self, level, point):
            self.opens += 1
            return super()._decide_open(level, point)

        def _decide_cells(self, level, point):
            self.walks += 1
            return super()._decide_cells(level, point)

    return Counting


def test_subtree_memo_skips_a_subtree_over_an_unused_coordinate():
    """z is outermost and no inner polynomial uses it; z^2 - 1 != 0
    settles every z-cell but z = -1 and z = 1, which leave the same
    residual.  The x-subtree over z = 1 is then replayed, not walked, and
    the LiftStats are those of walking it."""
    s = parse_sentence(Z_UNUSED_INSIDE)
    memo = _counting(_Decider)(s, QeBudget())
    plain = _counting(_UnmemoizedDecider)(s, QeBudget())
    assert memo.decide(1, {}, None) is plain.decide(1, {}, None) is True
    assert memo.opens - memo.walks == 1  # one hit, at level 2
    assert len(memo._subtree_memo) == memo.walks == 7
    assert memo.calls == 16 < plain.calls == 26
    assert (memo.cells_by_level, memo.settled_early) == (plain.cells_by_level, plain.settled_early) \
        == ([5, 10, 10], 3)


def test_residuals_are_interned():
    """Folding equal truths into a residual gives one object each time,
    which the subtree memo keys by identity."""
    s = parse_sentence("forall z. forall x. exists y. z > 0 or not (z < 1 and x > 0 and y > x)")
    dec = _Decider(s, QeBudget())
    unchanged = dec._fold(s.matrix, 0, {})  # no constant atom
    assert unchanged == s.matrix and unchanged is dec._fold(s.matrix, 0, {})
    folded = []
    for z in (F(-1), F(-2)):
        dec._keys[0] = cad._coord_key(z)
        folded.append(dec._fold(s.matrix, 1, {"z": z}))
    inner = s.matrix.children[1].child.children
    assert folded[0] is folded[1]
    assert folded[0] == Not(And(inner[1:]))
    assert folded[0].child is dec._fold(And(inner), 1, {"z": F(-1)})


def test_eventually_parse_and_negate_roundtrip():
    s = parse_sentence("forall y. eventually x. x > y")
    assert s.prefix == (("forall", "y"), ("eventually", "x"))
    n = sentence_negate(s)
    assert n.prefix == (("exists", "y"), ("eventually", "x"))
    assert sentence_negate(n).prefix == s.prefix
    with pytest.raises(ParseError):
        parse_sentence("eventually eventually. eventually > 0")  # keyword as a name
    with pytest.raises(ValueError):
        Sentence((("sometimes", "x"),), parse_sentence("exists x. x > 0").matrix)


def test_eventually_truth_and_duality():
    for text, expected in EVENTUALLY_CASES:
        s = parse_sentence(text)
        assert decide_sentence(s) == expected, text
        assert decide_sentence(sentence_negate(s)) == (not expected), text


def test_eventually_lifts_one_cell_per_level():
    """The eventually levels lift the top sector alone: one cell each."""
    dec = _Decider(parse_sentence("eventually x. eventually y. x*y > 1"), QeBudget())
    assert dec.decide(1, {}, None) is True
    assert dec.cells_used == 2


@given(_small_sentences(), st.integers(0, 2))
@example("forall x. exists y. x^2 - 2 != 0 or y^2 - x^2 = 0", 1)
@example("exists x. forall y. x*y - 1 > 0 or y < 0", 0)
@example("exists y. forall x. x*y + 1 < 0 or x > 0", 1)
# irrational roots defined with the rational root 0 of x(2x^2 - 1) left in
# make the elimination resultant vanish identically
@example("forall x. forall y. 1 - 2*y*y < 0 and x*x + x*y < 0", 0)
# -sqrt2 defined by x^4 - 4, whose factor x^2 + 2 divides a lifted
# polynomial: the elimination resultant vanishes identically
@example("forall x. forall z. exists y. (2*y*y + z*z < 0 and -2*x*y - 2*z < 0) or 1 - z + y*y < 0", 1)
@settings(max_examples=40, deadline=None)
def test_eventually_matches_its_definition(text, index):
    """eventually v. Psi  ==  exists c. forall v. v <= c or Psi, with the
    disjunct moved into the matrix (the inner quantifiers do not bind c
    or v)."""
    s = parse_sentence(text)
    i = index % len(s.prefix)
    v = s.prefix[i][1]
    sentence = Sentence(s.prefix[:i] + ((EVENTUALLY, v),) + s.prefix[i + 1:], s.matrix)
    v_minus_c = MultiPoly.var(v, (v, "c")) - MultiPoly.var("c", (v, "c"))
    reference = Sentence(
        s.prefix[:i] + ((EXISTS, "c"), (FORALL, v)) + s.prefix[i + 1:],
        Or((Atom(v_minus_c, "<="), s.matrix)),
    )
    assert decide_sentence(sentence, QeBudget(max_cells=3000)) == \
        decide_sentence(reference, QeBudget(max_cells=30_000)), (text, i)


def test_export_smtlib_eventually():
    text = export_smtlib(parse_sentence("eventually x. exists y. y > x"))
    assert "(exists ((c_x Real)) (forall ((x Real)) (=> (> x c_x) (exists ((y Real))" in text
    # one bound name per eventually level, none shared with a variable
    two = export_smtlib(parse_sentence("eventually c. eventually x. x*c > 1"))
    assert "((c_c Real))" in two and "((c_x Real))" in two
    s = parse_sentence("exists x. x > 0")
    object.__setattr__(s, "prefix", (("sometimes", "x"),))  # bypass the AST check
    with pytest.raises(ValueError):
        export_smtlib(s)


# -- Hong's projection against Collins', kept here as the reference -------


def _reducta(coeffs):
    """cad._reducta on MultiPoly coefficient lists."""
    out = []
    cur = list(coeffs)
    while True:
        while len(cur) > 1 and cur[-1].is_zero:
            cur.pop()
        if len(cur) <= 1:
            return out
        out.append(list(cur))
        cur = cur[:-1]


def _psc_set(fc, gc):
    """psc_set on MultiPoly coefficient lists: each list scaled to int
    coefficients by the lcm of its denominators, over the union of the
    entries' variables, and the pscs read back as MultiPolys.  Each is a
    positive multiple of the psc over Q (psc_j(L_f f, L_g g) =
    L_f^(n-j) L_g^(m-j) psc_j(f, g)), which cad._canonical removes."""
    frame = ()
    for c in fc + gc:
        frame = merge_vars(frame, c.vars)

    def ints(coeffs):
        den = lcm(*(k.denominator for c in coeffs for k in c.terms.values()))
        return [{m: int(k * den) for m, k in c.with_vars(frame).terms.items()} for c in coeffs]

    return [MultiPoly(frame, v) for v in psc_set(ints(fc), ints(gc))]


def _collins_reference(polys, var):
    """Collins' projection: the coefficients and reductum-derivative psc
    sets of collins_project, and psc sets of every reductum of A_i
    against every reductum of A_j, i < j."""
    out = {}

    def add(p):
        q = cad._canonical(p)
        if q is not None:
            out[q] = True

    unis = [p.as_univar(var) for p in polys]
    alone = [all(c.constant_value() is not None for c in coeffs) for coeffs in unis]
    for coeffs, lone in zip(unis, alone):
        if lone:
            continue
        for c in coeffs:
            add(c)
        for red in _reducta(coeffs):
            if len(red) >= 3:
                for v in _psc_set(red, [red[k] * k for k in range(1, len(red))]):
                    add(v)
    for i in range(len(unis)):
        for j in range(i + 1, len(unis)):
            if alone[i] and alone[j]:
                continue
            for ri in _reducta(unis[i]):
                for rj in _reducta(unis[j]):
                    for v in _psc_set(ri, rj):
                        add(v)
    return list(out)


class _CollinsDecider(_Decider):
    """The decision with Collins' projection in place of Hong's."""

    def _build_levels(self):
        for atom in atoms_of(self.sentence.matrix):
            self._add_poly(atom.poly)
        for lvl in range(self.nvars, 1, -1):
            for p in _collins_reference(self.levels[lvl], self.order[lvl - 1]):
                self._add_poly(p)


def _projection_sentences():
    """The golden sentences, their negations, and growth-gap sentences of
    every pattern (18 linear parts each, seeded)."""
    out = []
    for text, _ in GOLDEN_SENTENCES:
        s = parse_sentence(text)
        out += [(text, s), (f"not ({text})", sentence_negate(s))]
    rng = random.Random(16)
    for pattern in GROWTH_PATTERNS:
        for linear in rng.sample(LINEAR_PARTS, 18):
            signs = {"u": rng.choice((1, -1)), "v": rng.choice((1, -1))}
            text = _growth_gap_text(pattern, linear, signs)
            out.append((text, parse_sentence(text)))
    return out


# Hong's set is strictly smaller here: 6 polynomials on level 1 against 8
HONG_SMALLER = "forall z. forall x. exists y. ((2*y - z*y != 0) or y + z - 2*x^2 <= 0) or -2 - 2*x*y != 0"


def _hong_and_collins(sentence):
    """_run with each projection, after checking that each level of
    Hong's is within Collins'."""
    hong = _run(_Decider, sentence, QeBudget())
    collins = _run(_CollinsDecider, sentence, QeBudget())
    for lvl, polys in hong[2].levels.items():
        assert set(polys) <= set(collins[2].levels[lvl]), (sentence, lvl)
    return hong, collins


def test_hong_projection_is_within_collins_with_the_same_truths():
    for text, s in _projection_sentences():
        hong, collins = _hong_and_collins(s)
        assert hong[0] == collins[0], text
    (truth, cells, hong), (c_truth, c_cells, collins) = _hong_and_collins(parse_sentence(HONG_SMALLER))
    assert (len(hong.levels[1]), len(collins.levels[1])) == (6, 8)
    assert (truth, cells, c_truth, c_cells) == (True, 129, True, 167)


# -- the projection in ints against the projection on MultiPoly ----------


def _hong_on_multipolys(polys, var):
    """Hong's projection computed on MultiPoly coefficients, psc sets
    through _psc_set and outputs made canonical by cad._canonical,
    deduplicated in first-found order."""
    out = {}

    def add(p):
        q = cad._canonical(p)
        if q is not None:
            out.setdefault(q, q)

    unis = [p.as_univar(var) for p in polys]
    alone = [all(c.constant_value() is not None for c in coeffs) for coeffs in unis]
    for coeffs, lone in zip(unis, alone):
        if lone:
            continue
        for c in coeffs:
            add(c)
        for red in _reducta(coeffs):
            if len(red) >= 3:
                for v in _psc_set(red, [red[k] * k for k in range(1, len(red))]):
                    add(v)
    for i in range(len(unis)):
        for j in range(i + 1, len(unis)):
            if alone[i] and alone[j]:
                continue
            for ri in _reducta(unis[i]):
                for v in _psc_set(ri, unis[j]):
                    add(v)
    return list(out)


# polynomials in x1 (degree <= 3), a1 (degree <= 2) and b1 (degree <= 1)
# with rational, mostly non-integer coefficients
_projected = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 1)),
    st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
    min_size=1, max_size=4,
).map(lambda terms: MultiPoly(("x1", "a1", "b1"), terms))


@settings(max_examples=60, deadline=None)
@given(st.lists(_projected, min_size=1, max_size=3), st.sampled_from(("x1", "a1", "b1")))
@example([MultiPoly(("x1", "a1"), {(2, 0): F(1, 2), (0, 1): F(-3, 4)}),
          MultiPoly(("x1", "a1"), {(2, 0): F(-2), (0, 1): F(3)})], "x1")  # one polynomial, twice
@example([MultiPoly(("x1", "b1"), {(1, 1): F(2, 3), (0, 0): F(1)}),
          MultiPoly(("x1",), {(3,): F(1, 2), (0,): F(-1)})], "x1")  # one in x1 alone
def test_projection_in_ints_is_canonical_and_matches_multipolys(polys, var):
    """Every collins_project output is an integer primitive polynomial
    with a positive lex-leading coefficient, nonconstant, without
    ``var`` and over the variables it uses; none repeats; and the list
    is the MultiPoly computation's, in content and order."""
    got = collins_project(polys, var)
    for p in got:
        assert p.vars and p.vars == p.used_vars() and var not in p.vars
        coeffs = list(p.terms.values())
        assert all(c.denominator == 1 for c in coeffs)
        assert gcd(*(c.numerator for c in coeffs)) == 1
        assert p.terms[max(p.terms)] > 0
    assert len(set(got)) == len(got)
    want = _hong_on_multipolys(polys, var)
    assert [(p.vars, p.terms) for p in got] == [(q.vars, q.terms) for q in want]


# -- sector samples ---------------------------------------------------------


def _least_denominator_between(lo, hi):
    """Brute force: the rational strictly inside (lo, hi) of least
    denominator, and of least absolute numerator among those."""
    q = 1
    while True:
        inside = [p for p in range(floor(lo * q), ceil(hi * q) + 1) if lo < F(p, q) < hi]
        if inside:
            return F(min(inside, key=abs), q)
        q += 1


_ENDS = st.builds(F, st.integers(-400, 400), st.integers(1, 40))


@settings(max_examples=300, deadline=None)
@given(_ENDS, _ENDS)
@example(F(0), F(1))
@example(F(-1), F(0))
@example(F(-3, 2), F(5, 2))
@example(F(1, 3), F(1, 2))
@example(F(7), F(22, 3))
def test_simplest_between_has_the_least_denominator(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    assert cad._simplest_between(lo, hi) == _least_denominator_between(lo, hi)


# midpoint samples grow with the refinement history of the shared roots:
# this ran past 60 s with them
SHORT_SAMPLES = ("forall y. forall z. exists x. ((-2)*z*z + (-1)*y*x + (1)*1 != 0) "
                 "or (-1)*y*x + (-2)*y*y + (2)*z != 0")


def test_simplest_sector_samples_keep_lifting_short():
    s = parse_sentence(SHORT_SAMPLES)
    assert _run(_Decider, s, QeBudget(max_cells=300))[:2] == (True, 137)
    assert _run(_CollinsDecider, s, QeBudget(max_cells=300))[:2] == (True, 229)
