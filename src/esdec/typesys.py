"""Candidate types: sign and magnitude classes of transform coefficients.

Substituting a transform into every atom polynomial of a predicate set
and decomposing the cleared numerator by y-monomials yields a
coefficient system Q.  Relative to concrete parameters (A, B) and an
R-growing sequence b, each coefficient q_a(A, B) has a sign, and each
ratio q_a/q_b is either *dwarfed* (|ratio| <= b1/R) or *gigantic*
(|ratio| >= bn^R) when b is well-placed.  A candidate type prescribes
these data abstractly:

  sigma : support -> {-1, 0, +1}
  tau   : ordered pairs of distinct support elements -> {D, G}

Validity constraints (violators are unrealizable, so pruning them
preserves completeness of any enumeration client):

  * sigma(beta) = 0 forces tau(alpha, beta) = G (zero denominator:
    the ratio is infinite by convention, hence gigantic);
  * sigma(alpha) = 0 with sigma(beta) != 0 forces tau(alpha, beta) = D
    (the ratio is 0);
  * both signs nonzero forbids tau(alpha, beta) = tau(beta, alpha) = G
    (the two magnitudes multiply to 1).

Q holds numerators only, soundly: an atom p transforms to num/den, and
den is 1 under F1 and the monomial prod y_i^(deg_{x_i} p) with
coefficient 1 under F2 (algebra.substitute_transform).  Every y_i is a
term of the R-growing b, which is positive, in either traversal
orientation, so den > 0 and sign(p) = sign(num) at every transformed
tuple.

A type determines every atom's sign on transformed tuples without
knowing (A, B, b): among the nonzero-sign exponent vectors, one must
dominate all others pairwise (gigantic ratio wins; two dwarfed ratios
fall back to the positional lexicographic order), and its sign is the
atom sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Iterator, Sequence

from .algebra import (
    CoefficientDecomposition,
    TransformKind,
    coefficient_decomposition,
    dominant_monomial,
    substitute_transform,
)
from .errors import InconsistentTypeError, ResourceLimitError
from .predicates import PredicateSet, atoms_of, eval_with, rel_holds
from .ramsey import DWARFED, GIGANTIC, is_R_growing, ratio_class


@dataclass(frozen=True)
class QEntry:
    """One deduplicated numerator of the coefficient system."""

    entry_id: int
    decomp: CoefficientDecomposition

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.decomp.support))

    @property
    def pairs(self) -> tuple:
        sup = self.support
        return tuple((a, b) for a in sup for b in sup if a != b)


@dataclass(frozen=True)
class CoefficientSystem:
    entries: tuple  # QEntry, ...
    atoms: tuple  # (Atom, entry index | None for a zero atom), in member order


def build_Q(pset: PredicateSet, transform: TransformKind) -> CoefficientSystem:
    """Substitute the transform into every distinct atom polynomial,
    decompose the numerator, and share identical numerators across atoms.

    An atom whose polynomial equals an earlier atom's (``{P ; not P}``,
    or one form under several relations) takes that atom's entry without
    a second substitution.  That is sound: substitute_transform reads
    only ``p.drop_unused()`` and k, and MultiPoly equality and hashing
    compare after ``drop_unused``, so equal polynomials give the same
    numerator, hence the same entry.  Entries, their order and
    ``atoms`` are those of substituting every atom."""
    k = pset.arity
    entries: list = []
    index_of: dict = {}  # numerator -> entry id
    entry_of: dict = {}  # atom polynomial -> entry id
    atoms: list = []
    for member in pset.members:
        for atom in atoms_of(member.root):
            entry_id = None
            if not atom.poly.is_zero:
                entry_id = entry_of.get(atom.poly)
                if entry_id is None:
                    num, _den = substitute_transform(atom.poly, transform, k=k)
                    entry_id = index_of.get(num)
                    if entry_id is None:
                        entry_id = index_of[num] = len(entries)
                        entries.append(QEntry(entry_id, coefficient_decomposition(num, k=k)))
                    entry_of[atom.poly] = entry_id
            atoms.append((atom, entry_id))
    return CoefficientSystem(entries=tuple(entries), atoms=tuple(atoms))


@dataclass(frozen=True)
class CandidateType:
    """Per-entry (sigma, tau); sigma aligned with QEntry.support, tau
    with QEntry.pairs."""

    sigmas: tuple  # tuple per entry: ints in {-1, 0, 1}
    taus: tuple  # tuple per entry: strings in {D, G}

    def sigma(self, entry: QEntry) -> dict:
        return dict(zip(entry.support, self.sigmas[entry.entry_id]))

    def tau(self, entry: QEntry) -> dict:
        return dict(zip(entry.pairs, self.taus[entry.entry_id]))

    def to_json(self, Q: CoefficientSystem) -> dict:
        out = {}
        for entry in Q.entries:
            out[str(entry.entry_id)] = {
                "part": "numerator",
                "sigma": [[list(a), s] for a, s in sorted(self.sigma(entry).items())],
                "tau": [[list(a), list(b), t] for (a, b), t in sorted(self.tau(entry).items())],
            }
        return out


def _valid_entry_assignment(pairs, sigma, tau) -> bool:
    for (a, b) in pairs:
        t = tau[(a, b)]
        if sigma[b] == 0 and t != GIGANTIC:
            return False
        if sigma[a] == 0 and sigma[b] != 0 and t != DWARFED:
            return False
        if sigma[a] != 0 and sigma[b] != 0:
            if t == GIGANTIC and tau[(b, a)] == GIGANTIC:
                return False
    return True


def _entry_bound(entry: QEntry) -> int:
    """Unpruned assignment count: 3^|support| * 2^|pairs|."""
    return 3 ** len(entry.support) * 2 ** len(entry.pairs)


def _entry_assignments(entry: QEntry, cap: int = 1_000_000) -> list:
    if _entry_bound(entry) > cap:
        raise ResourceLimitError(
            f"entry {entry.entry_id}: up to {_entry_bound(entry)} candidate "
            f"assignments exceeds cap {cap}",
            bound=_entry_bound(entry), cap=cap,
        )
    support = entry.support
    pairs = entry.pairs
    out = []
    for sigma_vec in product((-1, 0, 1), repeat=len(support)):
        sigma = dict(zip(support, sigma_vec))
        for tau_vec in product((DWARFED, GIGANTIC), repeat=len(pairs)):
            if _valid_entry_assignment(pairs, sigma, dict(zip(pairs, tau_vec))):
                out.append((sigma_vec, tau_vec))
    return out


def enumerate_types(Q: CoefficientSystem,
                    cap: int = 1_000_000) -> Iterator[CandidateType]:
    """All candidate types satisfying the validity constraints, in a
    deterministic order, as a lazy iterator.  Both caps are checked on
    the call, before any type is built: ResourceLimitError when an
    entry's unpruned assignments or the type count exceed ``cap``."""
    per_entry = [_entry_assignments(entry, cap) for entry in Q.entries]
    total = 1
    for lst in per_entry:
        total *= len(lst)
    if total > cap:
        raise ResourceLimitError(
            f"candidate type count {total} exceeds cap {cap}",
            types=total, cap=cap,
        )
    return (
        CandidateType(sigmas=tuple(sig for sig, _ in combo),
                      taus=tuple(tau for _, tau in combo))
        for combo in product(*per_entry)
    )


@dataclass(frozen=True)
class NotWellPlaced:
    entry_id: int
    alpha: tuple
    beta: tuple
    ratio: Fraction

    def __str__(self):
        return (f"entry {self.entry_id}: |ratio {self.alpha}/{self.beta}| = "
                f"{self.ratio} falls between b1/R and bn^R")


def coefficient_values(Q: CoefficientSystem, A: Fraction, B: Fraction,
                       signs: tuple | None = None) -> tuple | None:
    """Q's coefficients at (X, Y) = (A, B), exactly: per entry, a dict
    from each support element to its value.  Every sign, ratio and type
    read off a point comes from these.  With ``signs`` (shaped as
    CandidateType.sigmas), None at the first coefficient whose sign
    differs, before the rest are evaluated."""
    point = {"X": Fraction(A), "Y": Fraction(B)}
    out = []
    for i, entry in enumerate(Q.entries):
        vals = {}
        for j, a in enumerate(entry.support):
            vals[a] = v = entry.decomp.coeffs[a].evaluate(point)
            if signs is not None and (v > 0) - (v < 0) != signs[i][j]:
                return None
        out.append(vals)
    return tuple(out)


def ratio_magnitudes(Q: CoefficientSystem, A: Fraction, B: Fraction) -> list:
    """The distinct finite nonzero |q_alpha/q_beta| within each entry at
    (A, B), sorted.  A zero ratio is always dwarfed and an infinite one
    always gigantic, so only these constrain a well-placed b."""
    out = set()
    for vals in coefficient_values(Q, A, B):
        nonzero = [abs(v) for v in vals.values() if v != 0]
        out.update(va / vb for va, vb in permutations(nonzero, 2))
    return sorted(out)


def type_at(Q: CoefficientSystem, values: tuple, b: Sequence[Fraction], R: int):
    """The type that Q's ``coefficient_values`` at a point realize with
    the R-growing b, or NotWellPlaced naming the first ratio that
    ``ratio_class`` finds neither dwarfed nor gigantic."""
    taus = []
    for entry, vals in zip(Q.entries, values):
        tau_vec = []
        for (a, bb) in entry.pairs:
            va, vb = vals[a], vals[bb]
            if vb == 0:
                tau_vec.append(GIGANTIC)  # ratio is infinite by convention
            elif va == 0:
                tau_vec.append(DWARFED)  # ratio is 0
            else:
                rho = abs(va / vb)
                t = ratio_class(rho, b, R)
                if t is None:
                    return NotWellPlaced(entry.entry_id, a, bb, rho)
                tau_vec.append(t)
        taus.append(tuple(tau_vec))
    sigmas = tuple(tuple((vals[a] > 0) - (vals[a] < 0) for a in entry.support)
                   for entry, vals in zip(Q.entries, values))
    return CandidateType(sigmas=sigmas, taus=tuple(taus))


def point_type(Q: CoefficientSystem, sigmas: tuple) -> CandidateType:
    """The type that every point (A, B) whose coefficients have the signs
    ``sigmas`` (shaped as CandidateType.sigmas) realizes with an R-growing
    b from b1 >= R * (its largest finite nonzero ratio): every pair of
    nonzero coefficients is then dwarfed, a zero denominator makes its
    pair gigantic and a zero numerator its pair dwarfed."""
    taus = []
    for entry, sig in zip(Q.entries, sigmas):
        sigma = dict(zip(entry.support, sig))
        taus.append(tuple(GIGANTIC if sigma[b] == 0 else DWARFED for _a, b in entry.pairs))
    return CandidateType(sigmas=tuple(sigmas), taus=tuple(taus))


def compute_type(Q: CoefficientSystem, A: Fraction, B: Fraction,
                 b: Sequence[Fraction], R: int):
    """The realized type at (A, B, b), or NotWellPlaced naming the first
    offending ratio.  b must be R-growing."""
    b = [Fraction(x) for x in b]
    if not is_R_growing(b, R):
        raise ValueError("compute_type: b must be R-growing")
    return type_at(Q, coefficient_values(Q, A, B), b, R)


def _lex_beats(a, b, orientation: str) -> bool:
    return dominant_monomial([a, b], orientation) == a


def sign_from_type(entry: QEntry, typ: CandidateType, orientation: str) -> int:
    """The tuple-independent sign of the entry polynomial on transformed
    increasing tuples, for the given traversal orientation."""
    sigma = typ.sigma(entry)
    tau = typ.tau(entry)
    live = [a for a in entry.support if sigma[a] != 0]
    if not live:
        return 0

    def dominates(a, b) -> bool:
        t_ab, t_ba = tau[(a, b)], tau[(b, a)]
        if t_ab == GIGANTIC:
            return True
        if t_ba == GIGANTIC:
            return False
        return _lex_beats(a, b, orientation)

    champ = live[0]
    for other in live[1:]:
        if not dominates(champ, other):
            champ = other
    if any(other != champ and not dominates(champ, other) for other in live):
        raise InconsistentTypeError(
            f"entry {entry.entry_id}: no coefficient dominates all others"
        )
    return sigma[champ]


def eval_predicates_from_type(pset: PredicateSet, Q: CoefficientSystem,
                              typ: CandidateType, orientation: str) -> dict:
    """Per-member verdict ('everywhere' or 'nowhere') on sequences whose
    coefficient system ``Q = build_Q(pset, transform)`` realizes the
    type, traversed in the given orientation: the verdicts of the entry
    signs the type gives (verdicts_from_entry_signs)."""
    return verdicts_from_entry_signs(
        pset, Q, tuple(sign_from_type(e, typ, orientation) for e in Q.entries))


def verdicts_from_entry_signs(pset: PredicateSet, Q: CoefficientSystem,
                              entry_signs: tuple) -> dict:
    """Per-member verdict ('everywhere' or 'nowhere') when each entry of
    Q has the sign ``entry_signs[entry_id]`` on every transformed
    increasing tuple.  An atom's sign is its numerator entry's (see the
    module docstring), so it is tuple-independent and one Boolean
    evaluation of each member suffices."""
    atom_sign = {atom: 0 if entry_id is None else entry_signs[entry_id]
                 for atom, entry_id in Q.atoms}
    verdicts = {}
    for m_idx, member in enumerate(pset.members):
        holds = eval_with(member.root, lambda a: rel_holds(atom_sign[a], a.rel))
        verdicts[m_idx] = "everywhere" if holds else "nowhere"
    return verdicts
