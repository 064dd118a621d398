"""Sentence decision by cylindrical algebraic decomposition.

The projection operator is Hong's (H. Hong, ISSAC 1990): the
coefficients of each polynomial A_i in the level's main variable, the
principal subresultant coefficients (pscs) of each reductum of A_i
against its derivative, and, for i < j, the pscs of each reductum of
A_i against A_j itself.  Collins' operator pairs the reducta of A_i
with every reductum of A_j, the first of which is A_j, so Hong's set is
a subset of Collins'.  It is as sound: on a connected region where it
is sign-invariant, the coefficients fix the reductum F that A_i is
there, with lc(F) nonzero, and the pscs of F and F' fix its number of
distinct roots; psc_k(F, A_j) is (up to sign) lc(F)^e * psc_k(F, G), G
being A_j cut to its degree there, so the pscs against A_j fix
deg gcd(A_i, A_j) as the pscs against G do.  Delineability of the
product needs nothing more.

The projection runs on int polynomials (see resultants.py) over one
frame: the variables of the level's polynomials other than the main
one, sorted by var_sort_key.  Each polynomial is converted once, scaled
by the lcm of its denominators; the coefficients, reducta and psc sets
are taken in ints, and an output is made canonical there: divided by
the gcd of its coefficients, negated when the coefficient of its
lex-greatest exponent tuple is negative, and dropped when constant.
That is _canonical's polynomial (MultiPoly.primitive after dropping the
unused variables), because a positive scale does not change the
primitive part, and because dropping variables that no term uses, or
adding them, removes or inserts a column of zeros in every exponent
tuple, which leaves their lex order unchanged: the frame orders the
variables as MultiPoly does, so the greatest tuple is the same
monomial.  Equal outputs have equal int terms in the frame, so they are
deduplicated on those, in first-found order, and one MultiPoly is built
for each distinct output.

Lifting walks the levels outermost-first.  Over each sample point of
the level below, the level's polynomials are solved exactly
(roots_at_point), the merged roots cut the line into sectors and
sections, sectors get rational sample points (the simplest rational in
each gap, integer points beyond the extremes), and sections carry their
real algebraic number.  Truths are folded back up through the
quantifier prefix with short-circuiting.  An atom's polynomial is one
of its level's, so whether it vanishes at a sample point with two or
more irrational coordinates is read off the decomposition: exactly
when the point's coordinate on that level is one of its roots there.
The exact zero test at such points, the costly part of sign
evaluation, is not needed for atoms.

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

Each trial level reads only the atoms that became known on entry to it
(those of the level just assigned): it folds their truth values into
the residual matrix the trial level before it left, by the Kleene
identities (a true conjunct and a false disjunct drop out, a false
conjunct or a true disjunct settles the connective, "not" of a value is
its negation), and keeps the open result for the levels below.  This
is sound because:

* the residual equals the matrix at every extension of the point: each
  fold replaces an atom by its truth at the point, which is its truth
  at every extension (all its variables are assigned), and each
  identity holds in two-valued logic;
* a node folds to a value exactly when Kleene logic over the known
  atoms gives it that value (by induction on the formula), so the same
  cells settle, with the same truth, as when the whole matrix is
  evaluated;
* the recursion is depth-first, so the residual a trial level reads was
  kept by the trial level before it over this point's own coordinates:
  a residual is replaced only when its level is entered again, over a
  new sample, and every level below is reached through it.

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
  algebraic number collapsed to one, keys as the int pair (numerator,
  denominator) of its value in lowest terms, which equal rationals
  share and distinct ones do not; an irrational real algebraic number
  keys as the object itself, by identity, since refinement narrows its
  interval in place but never changes its value;
* a sample's key is computed once, when the sample is lifted, and stays
  exact while it is in use: a rational's value never changes, and an
  irrational number that later collapses to a rational is still the
  same number, so the object still keys only itself (it may miss an
  entry that its rational key would hit, which costs a recomputation,
  never a wrong answer);
* memo keys are read from the keys of the current path by position:
  depth-first recursion overwrites a level's key only when the next
  sample there is lifted, after the previous sample's cylinder is
  decided;
* real algebraic numbers may be shared freely (see roots.py).

Lifting decides each repeated subtree once.  A level that trial
evaluation leaves open is memoized under the level, the residual in
force there, and the memo keys of the fixed coordinates that any
polynomial of this level or an inner one uses.  An entry holds the
subtree's truth, the cells it charged at each level and its
settled_early count; a hit adds those counts instead of walking the
subtree again.  This is sound because below the level the recursion
reads only three things:

* the residual, into which every atom of an outer level is folded;
* the roots of the polynomials of this level and the inner ones, which
  depend only on the coordinates they use (as above); the samples, and
  so the cells charged, are made from those roots alone;
* the signs of the residual's atoms, whose polynomials are among those
  level polynomials.

So equal keys give equal truths and equal charges, in the same order.
Coordinates key as above: an irrational one keys by identity, which can
miss an entry but never hit a wrong one.  A hit that would pass the cell
budget walks the subtree instead, which charges the same cells in the
same order, so it stops where the unmemoized lifting stops, with the
same counts.

Residuals are interned per decision so that they can be keyed by
identity: _fold makes each And, Or and Not that it keeps through a table
keyed by the node's type and the ids of its children.  A residual is an
atom, a node of the matrix or a node of that table, so residuals built
from the same parts are one object.  The table holds its nodes, and they
hold their children, so no id in a key is reused while the decision
runs.

What evaluating a polynomial at rational coordinates in ints reads of
the polynomial itself, its int form (poly.int_form), is built once for
each level polynomial when the decision starts.  An atom's polynomial
keeps its own form (MultiPoly.kept_form), built on its first sign and
kept with the polynomial, which does not change.

The memos, the interned residuals and the level polynomials' int forms
live on one decision call and are dropped when it returns.  The roots
and sign memos hold at most one entry per polynomial or atom per charged
cell (and the empty point at the root), the subtree memo at most one per
charged cell whose level below was walked (and the root), and the
interned residuals at most one per connective of the matrix per trial
level entered, so the cell budget bounds them too.  Every sample is
still charged as a cell, a replayed subtree charging its cells again, so
cell counts, budgets and answers are those of the unmemoized lifting.

sign_vectors hands out the decomposition itself: it lifts every cell of
the sentence "exists v_1 ... exists v_n. f_1 = 0 or ... or f_k = 0",
whose matrix only carries the polynomials, through the same _lift, and
yields each cell's sign vector with its full sample point, lazily, in
walk order: a consumer that stops reading stops the lifting.  The f_j
are the factors of the given polynomials' splits p = v_1^e_1 * ... *
v_k^e_k * r (the variables of p's monomial content, and r when it is
not constant), and p's sign is the product of the factors' signs, each
to its exponent, and the sign of r when r is a constant.  The decider reads the point types of
Q's coefficients off these cells and asks, for one type, whether
"exists X. exists Y." of its sign constraints holds; that sentence's
atoms are exactly Q's nonconstant coefficients with their prescribed
signs, so one walk per transform answers every type.  This is sound
because the cells are sign-invariant for the factors, hence for their
products (every cell's sign vector is the one at its sample), and the
samples are exact, so the vectors are exactly the sign vectors taken on
the whole space, and a screen sentence holds exactly when some vector
gives each of its atoms the prescribed sign.  The split keeps degrees
and projections small: Y^2 and 2*X*Y contribute only the factors Y and
X, and under F1 every coefficient of Q is a power of Y times a
polynomial in X.

Budgets make partiality honest: exceeding the cell budget raises
ResourceLimitError, which callers surface as "undecided", never as an
answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, prod

from ..errors import ResourceLimitError
from ..poly import MultiPoly, int_form, merge_vars
from ..predicates import Atom, Not, Or, atoms_of, rel_holds
from .resultants import int_coeffs, psc_set
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


def _int_canonical(p: dict) -> dict | None:
    """_canonical of an int polynomial, in its frame (see the module
    docstring); None if constant."""
    if not p or (len(p) == 1 and not any(next(iter(p)))):
        return None
    g = gcd(*p.values())
    if p[max(p)] < 0:
        g = -g
    return p if g == 1 else {m: c // g for m, c in p.items()}


def _reducta(coeffs: list) -> list:
    """Successive leading-term truncations with degree >= 1, as dense
    coefficient lists.  The entries are int polynomials or MultiPolys;
    either is zero when it has no terms."""
    out = []
    cur = list(coeffs)
    while True:
        while len(cur) > 1 and not getattr(cur[-1], "terms", cur[-1]):
            cur.pop()
        if len(cur) <= 1:
            break
        out.append(list(cur))
        cur = cur[:-1]
    return out


def collins_project(polys: list, var: str) -> list:
    """Hong's projection of a level's polynomials w.r.t. its main
    variable (see the module docstring); output polynomials are
    canonical (_canonical), distinct, in first-found order, and no
    longer involve ``var``.  Computed on int polynomials over one frame,
    the variables of ``polys`` but ``var``; the module docstring has why
    that gives the MultiPoly outputs."""
    frame = ()
    for p in polys:
        frame = merge_vars(frame, p.vars)
    frame = tuple(v for v in frame if v != var)
    const = {(0,) * len(frame)}
    out: dict = {}  # canonical int polynomial, as a frozenset of its terms -> itself

    def add(p: dict):
        q = _int_canonical(p)
        if q is not None:
            out.setdefault(frozenset(q.items()), q)

    # a polynomial in var alone has constant coefficients, and so do the
    # psc sets it takes part in with another such polynomial: those add
    # nothing, and at a level with many of them computing them dominates
    unis, alone = [], []
    for p in polys:
        coeffs = int_coeffs(p, var, frame)
        unis.append(coeffs)
        alone.append(all(c.keys() <= const for c in coeffs))
        if alone[-1]:
            continue
        for c in coeffs:
            add(c)
        for red in _reducta(coeffs):
            if len(red) >= 3:
                dred = [{m: k * c for m, c in red[k].items()} for k in range(1, len(red))]
                for v in psc_set(red, dred):
                    add(v)
    for i in range(len(unis)):
        for j in range(i + 1, len(unis)):
            if alone[i] and alone[j]:
                continue
            for ri in _reducta(unis[i]):
                for v in psc_set(ri, unis[j]):
                    add(v)
    polys_out = []
    for q in out.values():
        used = [i for i in range(len(frame)) if any(m[i] for m in q)]
        polys_out.append(MultiPoly._make(
            tuple(frame[i] for i in used),
            {tuple([m[i] for i in used]): Fraction(c) for m, c in q.items()}))
    return polys_out


def _rational_below(x: RealAlgebraicNumber) -> Fraction:
    v = x.value
    if v is not None:
        return Fraction(v.numerator // v.denominator - 1)
    return Fraction(floor(x.lo) - 1)


def _rational_above(x: RealAlgebraicNumber) -> Fraction:
    v = x.value
    if v is not None:
        return Fraction(1 - (-v.numerator // v.denominator))
    return Fraction(ceil(x.hi) + 1)


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The simplest rational strictly inside (lo, hi): least denominator,
    then least absolute numerator (only integers can tie).  For 0 <= lo,
    by continued-fraction descent on ints: floor(lo) + 1 if it is below
    hi, else t + 1/x' with t = floor(lo) and x' the simplest rational in
    (1/(hi - t), 1/(lo - t)), whose end is infinite (denominator 0) when
    lo is t; (h1*y + h0)/(k1*y + k0) accumulates the partial quotients.
    For hi <= 0 it is minus the simplest rational in (-hi, -lo)."""
    p, q, r, s = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    if p < 0 < r:
        return Fraction(0)
    sign = 1
    if r <= 0:
        sign, p, q, r, s = -1, -r, s, -p, q
    h0, h1, k0, k1 = 0, 1, 1, 0
    while True:
        t = p // q
        if (t + 1) * s < r:
            return Fraction(sign * (h1 * (t + 1) + h0), k1 * (t + 1) + k0)
        h0, h1, k0, k1 = h1, h1 * t + h0, k1, k1 * t + k0
        p, q, r, s = s, r - t * s, q, p - t * q


def _rational_between(a: RealAlgebraicNumber, b: RealAlgebraicNumber) -> Fraction:
    """The simplest rational strictly inside (a.hi, b.lo), once refinement
    separates the isolating intervals of the adjacent roots a < b.  Any
    rational in that gap lies in the sector between them and samples it
    equally well; the simplest stays short, where the midpoint would carry
    every bisection of the shared roots, which comparisons refine in place.
    Two rational roots are apart already."""
    if a.value is not None and b.value is not None:
        return _simplest_between(a.value, b.value)
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
    return _simplest_between(a.hi, b.lo)


def _same_number(root: RealAlgebraicNumber, sample) -> bool:
    if isinstance(sample, RealAlgebraicNumber):
        return root.compare(sample) == 0
    return root.compare_rational(sample) == 0


def _merge_roots(groups: list) -> list:
    """Merge the ascending roots of several polynomials into one ascending
    list without repeats.  Each group is merged into the roots of the
    groups before it, so of equal roots the first in input order stays,
    and one compare per step gives both the order and the equality."""
    merged: list = []
    for grp in groups:
        out = []
        i = j = 0
        while i < len(merged) and j < len(grp):
            c = merged[i].compare(grp[j])
            if c <= 0:
                out.append(merged[i])
                i += 1
            if c >= 0:
                if c > 0:
                    out.append(grp[j])
                j += 1
        out.extend(merged[i:])
        out.extend(grp[j:])
        merged = out
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
    """Exact memo key of one coordinate: a rational's (numerator,
    denominator) in lowest terms, or an irrational RealAlgebraicNumber
    itself, which hashes by identity."""
    if isinstance(x, RealAlgebraicNumber):
        if x.value is None:
            return x
        x = x.value
    return (x.numerator, x.denominator)


class _Decider:
    def __init__(self, sentence: Sentence, budget: QeBudget):
        if len(sentence.prefix) > budget.max_vars:
            raise ResourceLimitError(
                f"{len(sentence.prefix)} variables exceeds the limit {budget.max_vars}",
                variables=len(sentence.prefix),
            )
        self.sentence = sentence
        self.budget = budget
        self.cells_used = 0
        self.settled_early = 0
        self.order = list(sentence.variables)  # outermost ... innermost
        self.nvars = len(self.order)
        self.levels: dict = {i: [] for i in range(1, self.nvars + 1)}
        self.cells_by_level = [0] * self.nvars
        self._seen: set = set()  # every level's polynomials, for _place
        self._build_levels()
        # memo keys: the positions in ``order`` of the variables each level
        # polynomial uses besides the level's own, and each matrix atom's
        # (by identity) polynomial slot and used positions; see the module
        # docstring.  An atom's level is that of its innermost variable (0
        # for a constant): its sign is known on entry to the next level
        pos = {v: i for i, v in enumerate(self.order)}
        self._root_pos = {
            lvl: [tuple(pos[v] for v in p.used_vars() if v != self.order[lvl - 1]) for p in polys]
            for lvl, polys in self.levels.items()
        }
        self._root_forms = {
            lvl: [int_form(p, self.order[lvl - 1]) for p in polys]
            for lvl, polys in self.levels.items()
        }
        slots: dict = {}
        self._atom_keys = {}
        self._atom_vars = {}
        self._atom_level = {}
        self._atom_index = {}  # an atom's place in its level's polynomials, found on first use
        for atom in atoms_of(sentence.matrix):
            used = atom.poly.used_vars()
            positions = tuple(pos[v] for v in used)
            self._atom_keys[id(atom)] = (slots.setdefault(atom.poly, len(slots)), positions)
            self._atom_vars[id(atom)] = used
            self._atom_level[id(atom)] = max(positions, default=-1) + 1
        # the memo key of each coordinate of the current sample point, set
        # when its sample is lifted (_lift)
        self._keys = [None] * self.nvars
        # trial evaluation can only change its answer where atoms become
        # known; each trial level folds those atoms into the residual of
        # the trial level before it (level 0: the matrix itself)
        trial = sorted({lvl + 1 for lvl in self._atom_level.values()})
        self._trial_levels = set(trial)
        self._prev_trial = dict(zip(trial, [0] + trial))
        self._residuals = {0: sentence.matrix}
        # the subtree memo's key parts (see the module docstring): per
        # level, the trial level whose residual is in force there, and
        # the fixed positions that a polynomial of that level or inner uses
        self._residual_level = {lvl: max((t for t in trial if t <= lvl), default=0)
                                for lvl in self.levels}
        self._subtree_pos = {
            lvl: tuple(sorted({i for inner in range(lvl, self.nvars + 1)
                               for used in self._root_pos[inner] for i in used if i < lvl - 1}))
            for lvl in self.levels
        }
        self._interned: dict = {}  # residual nodes by (type, ids of their children)
        self._roots_memo: dict = {}
        self._sign_memo: dict = {}
        self._subtree_memo: dict = {}

    def _add_poly(self, p: MultiPoly):
        self._place(_canonical(p))

    def _place(self, q: MultiPoly | None):
        """Append a canonical polynomial (None: a constant) to its level,
        that of its innermost variable (it uses all its vars), unless a
        level holds it already."""
        if q is None or q in self._seen:
            return
        self._seen.add(q)
        self.levels[max(self.order.index(v) for v in q.vars) + 1].append(q)

    def _build_levels(self):
        for atom in atoms_of(self.sentence.matrix):
            self._add_poly(atom.poly)
        for lvl in range(self.nvars, 1, -1):
            var = self.order[lvl - 1]
            for q in collins_project(self.levels[lvl], var):  # canonical already
                self._place(q)

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
        keys = self._keys
        key = (level, index, tuple([keys[i] for i in self._root_pos[level][index]]))
        try:
            return self._roots_memo[key]
        except KeyError:
            roots = roots_at_point(self.levels[level][index], point, self.order[level - 1],
                                   self._root_forms[level][index])
            self._roots_memo[key] = roots
            return roots

    def _atom_sign(self, atom: Atom, point: dict) -> int:
        """sign_at_point of the atom's polynomial, memoized."""
        slot, positions = self._atom_keys[id(atom)]
        keys = self._keys
        key = (slot, tuple([keys[i] for i in positions]))
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
        form = atom.poly.kept_form()
        irrational = [v for v in self._atom_vars[id(atom)]
                      if isinstance(point[v], RealAlgebraicNumber) and not point[v].is_rational]
        if len(irrational) < 2:
            return sign_at_point(atom.poly, point, form)
        level = self._atom_level[id(atom)]
        index = self._atom_index.get(id(atom))
        if index is None:
            index = self._atom_index[id(atom)] = self.levels[level].index(_canonical(atom.poly))
        roots = self._roots(level, index, point)
        sample = point[self.order[level - 1]]
        if roots is None or any(r is sample or _same_number(r, sample) for r in roots):
            return 0
        return sign_at_point(atom.poly, point, form)

    def _fold(self, node, known: int, point: dict):
        """``node`` with the atoms of level ``known`` replaced by their
        truth at the point and folded away by the Kleene identities: True
        or False when that settles it, else the node left open."""
        if isinstance(node, Atom):
            if self._atom_level[id(node)] != known:
                return node
            return rel_holds(self._atom_sign(node, point), node.rel)
        if isinstance(node, Not):
            sub = self._fold(node.child, known, point)
            if sub is node.child:
                return node
            return (not sub) if isinstance(sub, bool) else self._intern(Not, sub)
        settling = isinstance(node, Or)  # a true disjunct, a false conjunct
        kept = []
        for child in node.children:
            sub = self._fold(child, known, point)
            if sub is settling:
                return settling
            if sub is not (not settling):
                kept.append(sub)
        if not kept:
            return not settling
        if len(kept) == 1:
            return kept[0]
        return self._intern(type(node), tuple(kept))

    def _intern(self, kind, children):
        """The one ``kind`` node over these children (a Not's child, or an
        And's or Or's tuple), by the children's identities."""
        key = (kind, id(children)) if kind is Not else (kind, tuple(map(id, children)))
        node = self._interned.get(key)
        if node is None:
            node = self._interned[key] = kind(children)
        return node

    def _trial_truth(self, level: int, point: dict):
        """The matrix in three-valued logic over the atoms whose variables
        are all assigned on entry to ``level``; None while unsettled.  The
        residual of the trial level before this one on the current path
        has every earlier atom folded in, so only the atoms of level - 1
        are read; an open result is kept as this level's residual."""
        residual = self._fold(self._residuals[self._prev_trial[level]], level - 1, point)
        if isinstance(residual, bool):
            return residual
        self._residuals[level] = residual
        return None

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

    def _lift(self, level: int, point: dict):
        """(kind, child point) for each cell of _samples, charged, with
        its sample's memo key recorded for the levels below."""
        var = self.order[level - 1]
        for kind, sample in self._samples(level, point):
            self._charge_cell(level)
            self._keys[level - 1] = _coord_key(sample)
            child_point = dict(point)
            child_point[var] = sample
            yield kind, child_point

    def decide(self, level: int, point: dict, cell) -> bool:
        """Truth of the prefix from ``level`` inward, with the outer
        variables fixed to ``point``.  The matrix is tried first; at
        level nvars + 1 every atom is assigned, so it always settles there.
        An open level is decided by _decide_open.

        ``cell`` is unused here and passed down as None; it lets a
        subclass thread a cell tree through the recursion."""
        if level in self._trial_levels:
            truth = self._trial_truth(level, point)
            if truth is not None:
                if 1 < level <= self.nvars:
                    self.settled_early += 1
                return truth
        return self._decide_open(level, point)

    def _decide_open(self, level: int, point: dict) -> bool:
        """_decide_cells, memoized by subtree: a hit replays the charges
        of the walk it stands for (see the module docstring)."""
        keys = self._keys
        key = (level, id(self._residuals[self._residual_level[level]]),
               tuple([keys[i] for i in self._subtree_pos[level]]))
        entry = self._subtree_memo.get(key)
        if entry is not None:
            truth, cells, settled = entry
            total = sum(cells)
            if self.cells_used + total > self.budget.max_cells:
                # the walk charges the same cells in the same order, so it
                # stops where the unmemoized lifting stops, with its counts
                return self._decide_cells(level, point)
            self.cells_used += total
            for i, n in enumerate(cells, level - 1):
                self.cells_by_level[i] += n
            self.settled_early += settled
            return truth
        by_level, settled = self.cells_by_level[level - 1:], self.settled_early
        truth = self._decide_cells(level, point)
        self._subtree_memo[key] = (
            truth,
            tuple([n - m for n, m in zip(self.cells_by_level[level - 1:], by_level)]),
            self.settled_early - settled,
        )
        return truth

    def _decide_cells(self, level: int, point: dict) -> bool:
        """The level's quantifier over its lifted cells, each decided by
        decide, stopping at the first that settles it."""
        quant = self.sentence.prefix[level - 1][0]
        for _kind, child_point in self._lift(level, point):
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
    dec = _Decider(sentence, budget or QeBudget())
    truth = dec.decide(1, {}, None)
    return truth, LiftStats(tuple(dec.cells_by_level), dec.settled_early)


def decide_sentence(sentence: Sentence, budget: QeBudget | None = None) -> bool:
    """Exact truth of a prenex sentence over the reals (see
    decide_sentence_stats)."""
    return decide_sentence_stats(sentence, budget)[0]


def sign_vectors(polys: list, variables: tuple, budget: QeBudget | None = None):
    """(sign vector, full sample point) for every cell of a decomposition
    of the real space of ``variables`` sign-invariant for the nonzero
    polynomials, lazily, in walk order (see the module docstring); the
    vector is (sign of polys[0], ..., of polys[-1]) at the point.  A
    consumer that stops early lifts no cell past the last one it read.

    The decomposition is built for the factors of each polynomial's
    split p = v_1^e_1 * ... * v_k^e_k * r, with the monomial's variables
    as polynomials and r left when it is not constant, and p's sign is
    read off theirs.

    Raises ResourceLimitError when a budget is exhausted; never guesses.
    """
    factors: dict = {}  # factor polynomial -> its place among the atoms
    shapes = []  # per polynomial: the constant's sign, ((factor place, exponent), ...)
    for p in polys:
        exps = [min((m[i] for m in p.terms), default=0) for i in range(len(p.vars))]
        rest = MultiPoly(p.vars, {tuple(e - x for e, x in zip(m, exps)): c
                                  for m, c in p.terms.items()}).drop_unused()
        parts = [(MultiPoly.var(v, (v,)), e) for v, e in zip(p.vars, exps) if e]
        const = rest.constant_value()
        if const is None:
            const = 1
            parts.append((rest, 1))
        shapes.append(((const > 0) - (const < 0),
                       tuple((factors.setdefault(f, len(factors)), e) for f, e in parts)))
    atoms = tuple(Atom(f, "=") for f in factors)
    sentence = Sentence(tuple((EXISTS, v) for v in variables), Or(atoms))
    dec = _Decider(sentence, budget or QeBudget())
    for point in _full_points(dec, 1, {}):
        signs = [dec._atom_sign(atom, point) for atom in atoms]
        yield tuple(const * prod(signs[i] ** e for i, e in parts)
                    for const, parts in shapes), point


def _full_points(dec: _Decider, level: int, point: dict):
    """The full sample point of every cell lifted over ``point``,
    depth-first; each is read before the next is lifted, while the
    decider's memo keys are those of its path."""
    if level > dec.nvars:
        yield point
        return
    for _kind, child_point in dec._lift(level, point):
        yield from _full_points(dec, level + 1, child_point)
