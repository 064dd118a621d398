"""Sentence decision by cylindrical algebraic decomposition.

The projection operator is the original Collins one: all coefficients
of each polynomial (viewed in the level's main variable), principal
subresultant coefficient sets of every reductum against its derivative,
and psc sets of every pair of reducta across distinct polynomials.
This is larger than later refinements but unconditionally correct; at
the degrees this package meets, correctness is worth far more than
cell counts.

Lifting walks the levels outermost-first.  Over each sample point of
the level below, the level's polynomials are solved exactly
(roots_at_point), the merged roots cut the line into sectors and
sections, sectors get rational sample points (gap midpoints, integer
points beyond the extremes), and sections carry their real algebraic
number.  Truths are folded back up through the quantifier prefix with
short-circuiting.  An atom's polynomial is one of its level's, so
whether it vanishes at a sample point with two or more irrational
coordinates is read off the decomposition: exactly when the point's
coordinate on that level is one of its roots there.  The exact zero
test at such points, the costly part of sign evaluation, is not needed
for atoms.

Trial evaluation (partial CAD's; Collins & Hong, JSC 1991): on entry to
each level the matrix is evaluated in three-valued (Kleene) logic over
the atoms whose variables are all assigned, the others reading
"unknown".  When that settles the matrix, its value is returned and
nothing below is lifted.  This is sound because:

* Kleene logic is monotone: a value it reaches with some atoms unknown
  is the value of every completion, so the matrix takes that value c at
  every extension of the sample point;
* every quantifier ranges over the nonempty real line ("eventually v"
  over a nonempty ray (c, oo)), so Q v. c equals c for a c that does
  not depend on v, and the whole inner prefix folds to c.

At the full sample point every atom is known, so the last level's check
is the full evaluation: there is one evaluator.

An "eventually" level lifts one cell only: the sector above the largest
root of the level's polynomials (the whole line, sampled at 0, when
there is none).  Over a sample point the level's polynomials are
delineable, so the truth of the inner formula is constant on each
sector of the line, in particular on that unbounded top sector, which
is exactly where "for all sufficiently large v" looks.  The other
samples are never built, and the roots are compared only to find the
largest.  As in partial CAD (Collins & Hong, JSC 1991), only cells
that can decide the answer are lifted.

Lifting reuses its own results within one call (partial CAD's reuse
across sibling cells; Collins & Hong, JSC 1991).  A polynomial's roots
over a sample point, and an atom's sign at a sample point, are
memoized under the polynomial's position and the point's coordinates on
the variables that polynomial actually uses.  Trial evaluation asks for
an atom's sign only once all its variables are assigned, so at a
partial sample point the key is as exact as at a full one.  This is
sound because:

* the roots of p(point, var) and the sign of p at point depend only on
  the coordinates of the variables p uses, so siblings that differ
  only in other coordinates get the same answer;
* those coordinates are exact and keyed exactly: a rational, or a real
  algebraic number collapsed to one, keys as its Fraction value (as in
  roots._split_point); an irrational real algebraic number keys as the
  object itself, by identity, since refinement narrows its interval in
  place but never changes its value;
* real algebraic numbers may be shared freely (see roots.py).

The memo lives on one decision call and is dropped when it returns.
It holds at most one entry per polynomial or atom per charged cell (and
the empty point at the root), so the cell budget bounds it too.  Every
sample is still charged as a cell, so cell counts, budgets and answers
are those of the unmemoized lifting.

Budgets make partiality honest: exceeding the cell budget raises
ResourceLimitError, which callers surface as "undecided", never as an
answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from ..errors import ResourceLimitError
from ..poly import MultiPoly
from ..predicates import Atom, atoms_of, eval_with, rel_holds
from .resultants import psc_set
from .roots import RealAlgebraicNumber, roots_at_point, sign_at_point
from .sentences import EVENTUALLY, EXISTS, FORALL, Sentence


@dataclass
class QeBudget:
    max_cells: int = 100_000
    max_vars: int = 5

    def __post_init__(self):
        if self.max_cells <= 0 or self.max_vars <= 0:
            raise ValueError("budgets must be positive")


def _canonical(p: MultiPoly) -> MultiPoly | None:
    """Primitive, sign-normalized, variable-trimmed; None if constant."""
    q = p.drop_unused()
    if q.constant_value() is not None:
        return None
    return q.primitive()


def _reducta(coeffs: list) -> list:
    """Successive leading-term truncations with degree >= 1, as dense
    coefficient lists."""
    out = []
    cur = list(coeffs)
    while True:
        while len(cur) > 1 and cur[-1].is_zero:
            cur.pop()
        if len(cur) <= 1:
            break
        out.append(list(cur))
        cur = cur[:-1]
    return out


def collins_project(polys: list, var: str) -> list:
    """The Collins projection of a level's polynomials w.r.t. its main
    variable; output polynomials no longer involve ``var``."""
    out: dict = {}

    def add(p: MultiPoly):
        q = _canonical(p)
        if q is not None:
            out[q] = True

    # a polynomial in var alone has constant coefficients, and so do the
    # psc sets it takes part in with another such polynomial: those add
    # nothing, and at a level with many of them computing them dominates
    unis, alone = [], []
    for p in polys:
        coeffs = p.as_univar(var)
        unis.append(coeffs)
        alone.append(all(c.constant_value() is not None for c in coeffs))
        if alone[-1]:
            continue
        for c in coeffs:
            add(c)
        for red in _reducta(coeffs):
            if len(red) >= 3:
                dred = [red[k] * k for k in range(1, len(red))]
                for v in psc_set(red, dred):
                    add(v)
    for i in range(len(unis)):
        for j in range(i + 1, len(unis)):
            if alone[i] and alone[j]:
                continue
            for ri in _reducta(unis[i]):
                for rj in _reducta(unis[j]):
                    for v in psc_set(ri, rj):
                        add(v)
    return list(out)


def _rational_below(x: RealAlgebraicNumber) -> Fraction:
    return Fraction(floor(x.lo) - 1)


def _rational_above(x: RealAlgebraicNumber) -> Fraction:
    return Fraction(ceil(x.hi) + 1)


def _rational_between(a: RealAlgebraicNumber, b: RealAlgebraicNumber) -> Fraction:
    while not a.hi < b.lo:
        progressed = False
        if not a.is_rational:
            a.refine()
            progressed = True
        if not b.is_rational:
            b.refine()
            progressed = True
        if not progressed:
            raise AssertionError("distinct rationals must already be separated")
    return (a.hi + b.lo) / 2


def _same_number(root: RealAlgebraicNumber, sample) -> bool:
    if isinstance(sample, RealAlgebraicNumber):
        return root.compare(sample) == 0
    return root.compare_rational(sample) == 0


def _merge_roots(groups: list) -> list:
    """Sort and deduplicate RealAlgebraicNumbers from several polynomials."""
    merged: list = []
    for root in (r for grp in groups for r in grp):
        placed = False
        for i, existing in enumerate(merged):
            c = root.compare(existing)
            if c == 0:
                placed = True
                break
            if c < 0:
                merged.insert(i, root)
                placed = True
                break
        if not placed:
            merged.append(root)
    return merged


def _settles(quant: str, sub: bool) -> bool:
    """Whether one lifted cell's truth is the level's answer: a witness
    for exists, a counterexample for forall, and always for eventually,
    which lifts a single cell."""
    return quant == EVENTUALLY or sub == (quant == EXISTS)


@dataclass(frozen=True)
class LiftStats:
    """What one decision lifted: the cells charged at each level,
    outermost first, and how many of them trial evaluation settled
    without lifting the cylinder above them."""

    by_level: tuple
    settled_early: int

    def to_json(self) -> dict:
        return {
            "total": sum(self.by_level),
            "byLevel": list(self.by_level),
            "settledEarly": self.settled_early,
        }


def _coord_key(x):
    """Exact memo key of one coordinate: its Fraction value, or an
    irrational RealAlgebraicNumber itself, which hashes by identity."""
    if isinstance(x, RealAlgebraicNumber):
        return x if x.value is None else x.value
    return x


class _Decider:
    def __init__(self, sentence: Sentence, budget: QeBudget):
        self.sentence = sentence
        self.budget = budget
        self.cells_used = 0
        self.settled_early = 0
        self.order = list(sentence.variables)  # outermost ... innermost
        self.nvars = len(self.order)
        self.levels: dict = {i: [] for i in range(1, self.nvars + 1)}
        self.cells_by_level = [0] * self.nvars
        self._build_levels()
        # memo keys: the variables each level polynomial uses besides the
        # level's own, and each matrix atom's (by identity) polynomial
        # slot and used variables; see the module docstring.  An atom's
        # level is that of its innermost variable (0 for a constant): its
        # sign is known on entry to the next level
        self._root_vars = {
            lvl: [tuple(v for v in p.used_vars() if v != self.order[lvl - 1]) for p in polys]
            for lvl, polys in self.levels.items()
        }
        slots: dict = {}
        self._atom_keys = {}
        self._atom_level = {}
        self._atom_index = {}  # an atom's place in its level's polynomials, found on first use
        for atom in atoms_of(sentence.matrix):
            used = atom.poly.used_vars()
            self._atom_keys[id(atom)] = (slots.setdefault(atom.poly, len(slots)), used)
            self._atom_level[id(atom)] = max((self.order.index(v) + 1 for v in used), default=0)
        # trial evaluation can only change its answer where atoms become known
        self._trial_levels = {lvl + 1 for lvl in self._atom_level.values()}
        self._roots_memo: dict = {}
        self._sign_memo: dict = {}

    def _level_of(self, p: MultiPoly) -> int:
        used = p.used_vars()
        return max(self.order.index(v) for v in used) + 1

    def _add_poly(self, p: MultiPoly):
        q = _canonical(p)
        if q is None:
            return
        lvl = self._level_of(q)
        if q not in self.levels[lvl]:
            self.levels[lvl].append(q)

    def _build_levels(self):
        for atom in atoms_of(self.sentence.matrix):
            self._add_poly(atom.poly)
        for lvl in range(self.nvars, 1, -1):
            var = self.order[lvl - 1]
            for p in collins_project(self.levels[lvl], var):
                self._add_poly(p)

    def _charge_cell(self, level: int):
        self.cells_used += 1
        self.cells_by_level[level - 1] += 1
        if self.cells_used > self.budget.max_cells:
            raise ResourceLimitError(
                f"cell budget {self.budget.max_cells} exhausted",
                cells=self.cells_used,
            )

    def _roots(self, level: int, index: int, point: dict):
        """roots_at_point for the index-th polynomial of the level, memoized."""
        key = (level, index, tuple(_coord_key(point[v]) for v in self._root_vars[level][index]))
        try:
            return self._roots_memo[key]
        except KeyError:
            roots = roots_at_point(self.levels[level][index], point, self.order[level - 1])
            self._roots_memo[key] = roots
            return roots

    def _atom_sign(self, atom: Atom, point: dict) -> int:
        """sign_at_point of the atom's polynomial, memoized."""
        slot, used = self._atom_keys[id(atom)]
        key = (slot, tuple(_coord_key(point[v]) for v in used))
        sign = self._sign_memo.get(key)
        if sign is None:
            sign = self._sign_memo[key] = self._sign_on_cell(atom, point)
        return sign

    def _sign_on_cell(self, atom: Atom, point: dict) -> int:
        """The atom's sign, with its zeros read off the decomposition
        where sign_at_point would need a characteristic polynomial to
        recognize one: at two or more irrational coordinates.  The atom's
        polynomial is one of its level's, and the point's coordinate on
        that level is a sample lifted over the rest of the point, so the
        polynomial vanishes exactly where that sample is one of its roots
        there (everywhere, if it vanishes identically).  Only the sign of
        a nonzero value is left to sign_at_point."""
        _, used = self._atom_keys[id(atom)]
        irrational = [v for v in used if isinstance(point[v], RealAlgebraicNumber)
                      and not point[v].is_rational]
        if len(irrational) < 2:
            return sign_at_point(atom.poly, point)
        level = self._atom_level[id(atom)]
        index = self._atom_index.get(id(atom))
        if index is None:
            index = self._atom_index[id(atom)] = self.levels[level].index(_canonical(atom.poly))
        roots = self._roots(level, index, point)
        sample = point[self.order[level - 1]]
        if roots is None or any(r is sample or _same_number(r, sample) for r in roots):
            return 0
        return sign_at_point(atom.poly, point)

    def _trial_truth(self, level: int, point: dict):
        """The matrix in three-valued logic over the atoms whose variables
        are all assigned on entry to ``level``; None while unsettled."""
        def atom_truth(atom):
            if self._atom_level[id(atom)] >= level:
                return None
            return rel_holds(self._atom_sign(atom, point), atom.rel)
        return eval_with(self.sentence.matrix, atom_truth)

    def _top_sample(self, level: int, point: dict) -> Fraction:
        """A rational above every root of the level's polynomials; each
        polynomial's roots come ascending, so only its last one counts."""
        top = None
        for index in range(len(self.levels[level])):
            roots = self._roots(level, index, point)
            if roots and (top is None or roots[-1].compare(top) > 0):
                top = roots[-1]
        return Fraction(0) if top is None else _rational_above(top)

    def _samples(self, level: int, point: dict):
        """(kind, sample) for the cells lifted at this level over the
        point: all of them, or the top sector's alone for 'eventually'."""
        if self.sentence.prefix[level - 1][0] == EVENTUALLY:
            yield "sector", self._top_sample(level, point)
            return
        groups = []
        for index in range(len(self.levels[level])):
            roots = self._roots(level, index, point)
            if roots:
                groups.append(roots)
        roots = _merge_roots(groups)
        if not roots:
            yield "sector", Fraction(0)
            return
        yield "sector", _rational_below(roots[0])
        for i, r in enumerate(roots):
            yield "section", r
            if i + 1 < len(roots):
                yield "sector", _rational_between(r, roots[i + 1])
        yield "sector", _rational_above(roots[-1])

    def decide(self, level: int, point: dict, cell) -> bool:
        """Truth of the prefix from ``level`` inward, with the outer
        variables fixed to ``point``.  The matrix is tried first; at
        level nvars + 1 every atom is assigned, so it always settles there.

        ``cell`` is unused here and passed down as None; it lets a
        subclass thread a cell tree through the recursion."""
        if level in self._trial_levels:
            truth = self._trial_truth(level, point)
            if truth is not None:
                if 1 < level <= self.nvars:
                    self.settled_early += 1
                return truth
        quant, var = self.sentence.prefix[level - 1]
        for _kind, sample in self._samples(level, point):
            self._charge_cell(level)
            child_point = dict(point)
            child_point[var] = sample
            sub = self.decide(level + 1, child_point, None)
            if _settles(quant, sub):
                return sub
        return quant == FORALL


def decide_sentence_stats(
    sentence: Sentence, budget: QeBudget | None = None,
) -> tuple[bool, LiftStats]:
    """Exact truth of a prenex sentence over the reals, with the
    LiftStats of the lifting that decided it.

    Raises ResourceLimitError when a budget is exhausted; never guesses.
    """
    budget = budget or QeBudget()
    if len(sentence.prefix) > budget.max_vars:
        raise ResourceLimitError(
            f"{len(sentence.prefix)} variables exceeds the limit {budget.max_vars}",
            variables=len(sentence.prefix),
        )
    dec = _Decider(sentence, budget)
    truth = dec.decide(1, {}, None)
    return truth, LiftStats(tuple(dec.cells_by_level), dec.settled_early)


def decide_sentence(sentence: Sentence, budget: QeBudget | None = None) -> bool:
    """Exact truth of a prenex sentence over the reals (see
    decide_sentence_stats)."""
    return decide_sentence_stats(sentence, budget)[0]
