"""Feasibility of candidate types via a real growth-gap sentence.

A candidate type is feasible when for every R and every length there
are parameters (A, B) and a well-placed R-growing sequence realizing
it.  The growth quantification collapses to the first-order sentence

    psi* = forall R  exists L  forall H  exists X exists Y :
        L >= R,  the sign conditions,  and
        (dwarfed)   s_a*q_a <= L * s_b*q_b
        (gigantic)  s_a*q_a >= H * s_b*q_b

because the threshold function sup{H : Xi(L, H)} is semialgebraic and
semialgebraic functions grow at most polynomially, so "a gap wide
enough for an R-growing sequence" and "arbitrarily wide gap" coincide.
Absolute values are realized through the prescribed signs (|q| = s*q
when s != 0), and ratio constraints are multiplied through by their
denominators, whose signs the type prescribes; no division appears.

Pairs with a zero prescribed sign never enter the constraint lists: a
zero numerator is automatically dwarfed and a zero denominator makes
the ratio infinite, hence automatically gigantic.

``is_feasible`` decides the equivalent four-variable sentence

    eventually L. eventually H. exists X. exists Y. <psi*'s matrix without L >= R>

whose two "eventually" levels each lift the top sector only (see
qe.cad).  The collapse is sound because:

* R occurs only in L >= R, so with phi(L) = forall H exists X exists Y
  <the rest>, psi* says: for every R some L >= R satisfies phi.  That
  is, phi's solution set in L is unbounded above.  A semialgebraic
  subset of the line is a finite union of points and intervals, so it
  is unbounded above exactly when it contains a ray (c, oo): when phi
  holds eventually in L.
* Every gigantic atom reads s_a*q_a >= H * s_b*q_b, and the instance
  forces s_b*q_b > 0 (checked at construction).  So if (X, Y) witnesses
  some H, it witnesses every smaller H too: for each L the set of H
  with exists X exists Y is closed downward.  A downward-closed set is
  all of the line iff it is unbounded above, iff (being semialgebraic)
  it contains a ray: forall H is eventually H.

``build_psi_star`` stays as the uncollapsed reference and export form.

The decider's sign screen, whether a type's signs are realized at all,
builds no sentence here: a type passes when its sigmas are one of the
sign patterns that the point-type stage read in its walk of one
decomposition per transform (see decider and qe.cad.sign_vectors).

The grid witness search is a corroboration oracle only: a found
witness certifies feasibility one-sidedly; absence proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from .errors import ResourceLimitError
from .poly import MultiPoly
from .predicates import And, Atom
from .qe import QeBudget, Sentence, decide_sentence
from .qe.sentences import EVENTUALLY, EXISTS, FORALL
from .ramsey import canonical_growing
from .typesys import (
    DWARFED, CandidateType, CoefficientSystem, coefficient_values, type_at,
)

PSI_VARS = ("R", "L", "H", "X", "Y")
PSI_PREFIX = ((FORALL, "R"), (EXISTS, "L"), (FORALL, "H"), (EXISTS, "X"), (EXISTS, "Y"))
EVENTUAL_PREFIX = ((EVENTUALLY, "L"), (EVENTUALLY, "H"), (EXISTS, "X"), (EXISTS, "Y"))


@dataclass(frozen=True)
class FeasibilityInstance:
    """Sign and magnitude constraints extracted from (Q, type).

    ``sign_constraints`` pairs nonconstant coefficient polynomials with
    their prescribed signs; constant coefficients are checked at
    construction time and either dropped (sign agrees) or recorded as a
    contradiction.  ``dwarfed``/``gigantic`` hold (q_a, s_a, q_b, s_b)
    quadruples with both signs nonzero.  Unless constant signs already
    conflict, every gigantic quad's denominator sign must be forced:
    (q_b, s_b) is a sign constraint, or q_b is a constant of sign s_b.
    The collapse of "forall H" in ``is_feasible`` rests on this.
    """

    sign_constraints: tuple
    dwarfed: tuple
    gigantic: tuple
    constant_conflict: bool = False

    def __post_init__(self):
        if self.constant_conflict:
            return
        for _qa, _sa, qb, sb in self.gigantic:
            if (qb, sb) not in self.sign_constraints and _constant_sign(qb) != sb:
                raise ValueError(
                    f"gigantic denominator {qb.to_text()} has no forced sign {sb}")

    @staticmethod
    def from_type(Q: CoefficientSystem, typ: CandidateType) -> "FeasibilityInstance":
        signs = []
        dwarfed = []
        gigantic = []
        conflict = False
        for entry in Q.entries:
            sigma = typ.sigma(entry)
            tau = typ.tau(entry)
            coeffs = entry.decomp.coeffs
            for alpha in entry.support:
                c = coeffs[alpha]
                want = sigma[alpha]
                actual = _constant_sign(c)
                if actual is None:
                    if (c, want) not in signs:
                        signs.append((c, want))
                elif actual != want:
                    conflict = True
            for (a, b) in entry.pairs:
                if sigma[a] == 0 or sigma[b] == 0:
                    continue  # conventions make these pairs vacuous
                quad = (coeffs[a], sigma[a], coeffs[b], sigma[b])
                if tau[(a, b)] == DWARFED:
                    dwarfed.append(quad)
                else:
                    gigantic.append(quad)
        return FeasibilityInstance(
            sign_constraints=tuple(signs),
            dwarfed=tuple(dwarfed),
            gigantic=tuple(gigantic),
            constant_conflict=conflict,
        )


def _constant_sign(poly: MultiPoly) -> int | None:
    """The sign of a constant polynomial; None if it is not constant."""
    cv = poly.constant_value()
    if cv is None:
        return None
    return 0 if cv == 0 else (1 if cv > 0 else -1)


_REL_OF_SIGN = {1: ">", -1: "<", 0: "="}


def _signed(poly: MultiPoly, sign: int) -> MultiPoly:
    return poly if sign >= 0 else -poly


def _conjunction(atoms: list):
    """And of the atoms; X = 0, which exists X satisfies, if there are none."""
    if not atoms:
        return Atom(MultiPoly.var("X", ("X",)), "=")
    return And(tuple(atoms)) if len(atoms) > 1 else atoms[0]


def _growth_atoms(inst: FeasibilityInstance, allv: tuple) -> list:
    """The sign conditions and the dwarfed/gigantic constraints, over
    the variables ``allv``."""
    L = MultiPoly.var("L", allv)
    H = MultiPoly.var("H", allv)
    atoms = [Atom(poly.drop_unused(), _REL_OF_SIGN[sign])
             for poly, sign in inst.sign_constraints]
    for qa, sa, qb, sb in inst.dwarfed:
        lhs = _signed(qa, sa).with_vars(allv) - L * _signed(qb, sb).with_vars(allv)
        atoms.append(Atom(lhs.drop_unused(), "<="))
    for qa, sa, qb, sb in inst.gigantic:
        lhs = _signed(qa, sa).with_vars(allv) - H * _signed(qb, sb).with_vars(allv)
        atoms.append(Atom(lhs.drop_unused(), ">="))
    return atoms


def build_psi_star(inst: FeasibilityInstance) -> Sentence:
    """The growth-gap sentence for the instance (always constructible,
    even when a constant-sign conflict already settles infeasibility)."""
    L_minus_R = MultiPoly.var("L", PSI_VARS) - MultiPoly.var("R", PSI_VARS)
    atoms = [Atom(L_minus_R.drop_unused(), ">="), *_growth_atoms(inst, PSI_VARS)]
    return Sentence(PSI_PREFIX, _conjunction(atoms))


def build_psi_eventual(inst: FeasibilityInstance) -> Sentence:
    """psi* with "forall R exists L >= R" and "forall H" collapsed to
    "eventually" (see the module docstring); R is gone."""
    allv = tuple(v for _, v in EVENTUAL_PREFIX)
    return Sentence(EVENTUAL_PREFIX, _conjunction(_growth_atoms(inst, allv)))


FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDECIDED = "undecided"


def is_feasible(inst: FeasibilityInstance, budget: QeBudget | None = None) -> str:
    """Decide the instance by its collapsed growth-gap sentence;
    'undecided' propagates budget exhaustion."""
    if inst.constant_conflict:
        return INFEASIBLE
    try:
        return FEASIBLE if decide_sentence(build_psi_eventual(inst), budget) else INFEASIBLE
    except ResourceLimitError:
        return UNDECIDED


def witness_search(Q: CoefficientSystem, typ: CandidateType, R: int, n: int):
    """The first (A, B, b) on a fixed grid of points that realizes the
    type exactly, with b an n-term R-growing sequence; a hit is a
    one-sided feasibility certificate.  None, when no grid point
    realizes it, proves nothing."""
    big = Fraction(R) ** (R ** (n + 1))
    base = [Fraction(v) for v in (0, 1, -1, 2, -2, 3, -3, 5, -5)]
    base += [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3)]
    base += [big, -big, 1 / big, -1 / big]
    for A, B in product(base, repeat=2):
        got = _try_witness(Q, typ, A, B, R, n)
        if got is not None:
            return got
    return None


def _try_witness(Q: CoefficientSystem, typ: CandidateType, A: Fraction,
                 B: Fraction, R: int, n: int):
    """(A, B, b) when the point realizes the type with the tightest
    R-growing b from R * (its largest dwarfed ratio), at least R."""
    values = coefficient_values(Q, A, B, typ.sigmas)
    if values is None:
        return None  # most grid points fail here, before any division
    dmax = max((abs(vals[a] / vals[b])
                for entry, vals, taus in zip(Q.entries, values, typ.taus)
                for (a, b), t in zip(entry.pairs, taus) if t == DWARFED and vals[b] != 0),
               default=Fraction(0))
    b_seq = canonical_growing(R, n, start=max(Fraction(R), R * dmax))
    if type_at(Q, values, b_seq, R) != typ:
        return None
    return (A, B, b_seq)
