"""Candidate types: sign and magnitude classes of transform coefficients.

Substituting a transform into every atom polynomial of a predicate set
and decomposing by y-monomials yields a coefficient system Q.  Relative
to concrete parameters (A, B) and an R-growing sequence b, each
coefficient q_a(A, B) has a sign, and each ratio q_a/q_b is either
*dwarfed* (|ratio| <= b1/R) or *gigantic* (|ratio| >= bn^R) when b is
well-placed.  A candidate type prescribes these data abstractly:

  sigma : support -> {-1, 0, +1}
  tau   : ordered pairs of distinct support elements -> {D, G}

Validity constraints (violators are unrealizable, so pruning them
preserves completeness of any enumeration client):

  * sigma(beta) = 0 forces tau(alpha, beta) = G (zero denominator:
    the ratio is infinite by convention, hence gigantic);
  * sigma(alpha) = 0 with sigma(beta) != 0 forces tau(alpha, beta) = D
    (the ratio is 0);
  * both signs nonzero forbids tau(alpha, beta) = tau(beta, alpha) = G
    (the two magnitudes multiply to 1);
  * denominator entries of the reciprocal transform are pure
    y-monomials with coefficient 1: sigma is forced to +1.

A type determines every atom's sign on transformed tuples without
knowing (A, B, b): among the nonzero-sign exponent vectors, one must
dominate all others pairwise (gigantic ratio wins; two dwarfed ratios
fall back to the positional lexicographic order), and its sign is the
atom sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .algebra import (
    CoefficientDecomposition,
    TransformKind,
    coefficient_decomposition,
    dominant_monomial,
    substitute_transform,
)
from .errors import InconsistentTypeError, ResourceLimitError
from .poly import MultiPoly
from .predicates import Atom, PredicateSet, atoms_of, eval_with, rel_holds
from .ramsey import is_R_growing

DWARFED = "D"
GIGANTIC = "G"


@dataclass(frozen=True)
class QEntry:
    """One deduplicated polynomial of the coefficient system."""

    entry_id: int
    part: str  # "numerator" | "denominator"
    decomp: CoefficientDecomposition
    forced_positive: bool  # denominator entries under the reciprocal transform

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.decomp.support))

    @property
    def pairs(self) -> tuple:
        sup = self.support
        return tuple((a, b) for a in sup for b in sup if a != b)


@dataclass(frozen=True)
class CoefficientSystem:
    transform: TransformKind
    arity: int
    entries: tuple  # QEntry, ...
    atom_entries: dict  # id(atom occurrence) -> (num entry index, den entry index | None)
    atom_list: tuple  # (member_index, Atom) pairs in deterministic order


def build_Q(pset: PredicateSet, transform: TransformKind) -> CoefficientSystem:
    """Substitute the transform into every atom polynomial, decompose,
    and share identical polynomials across atoms."""
    k = pset.arity
    entries: list = []
    index_of: dict = {}
    atom_entries: dict = {}
    atom_list: list = []

    def intern(poly: MultiPoly, part: str, forced: bool) -> int:
        key = (part == "denominator" and forced, poly)
        if key in index_of:
            return index_of[key]
        decomp = coefficient_decomposition(poly, k=k)
        entry = QEntry(len(entries), part, decomp, forced)
        entries.append(entry)
        index_of[key] = entry.entry_id
        return entry.entry_id

    for m_idx, member in enumerate(pset.members):
        for atom in atoms_of(member.root):
            atom_list.append((m_idx, atom))
            if atom.poly.is_zero:
                atom_entries[len(atom_list) - 1] = (None, None)  # sign 0 atom
                continue
            num, den = substitute_transform(atom.poly, transform, k=k)
            num_id = intern(num, "numerator", False)
            den_id = None
            if transform is TransformKind.F2:
                dc = den.constant_value()
                if dc is None:
                    den_id = intern(den, "denominator", True)
                # a constant denominator (no x appears) contributes sign +1
            atom_entries[len(atom_list) - 1] = (num_id, den_id)
    return CoefficientSystem(
        transform=transform,
        arity=k,
        entries=tuple(entries),
        atom_entries=atom_entries,
        atom_list=tuple(atom_list),
    )


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
                "part": entry.part,
                "sigma": [[list(a), s] for a, s in sorted(self.sigma(entry).items())],
                "tau": [[list(a), list(b), t] for (a, b), t in sorted(self.tau(entry).items())],
            }
        return out


def _valid_entry_assignment(support, pairs, sigma, tau, forced_positive) -> bool:
    if forced_positive and any(s != 1 for s in sigma.values()):
        return False
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
    """Unpruned assignment count: 3^|support| * 2^|pairs| (1 sign choice
    when the sign is structurally forced)."""
    sig = 1 if entry.forced_positive else 3 ** len(entry.support)
    return sig * 2 ** len(entry.pairs)


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
    sigma_iter = (
        product(*[(1,)] * len(support)) if entry.forced_positive
        else product((-1, 0, 1), repeat=len(support))
    )
    for sigma_vec in sigma_iter:
        sigma = dict(zip(support, sigma_vec))
        for tau_vec in product((DWARFED, GIGANTIC), repeat=len(pairs)):
            tau = dict(zip(pairs, tau_vec))
            if _valid_entry_assignment(support, pairs, sigma, tau,
                                       entry.forced_positive):
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


def compute_type(Q: CoefficientSystem, A: Fraction, B: Fraction,
                 b: Sequence[Fraction], R: int):
    """The realized type at (A, B, b), or NotWellPlaced naming the first
    offending ratio.  b must be R-growing."""
    b = [Fraction(x) for x in b]
    if not is_R_growing(b, R):
        raise ValueError("compute_type: b must be R-growing")
    low = b[0] / R
    high = b[-1] ** R
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
                tau_vec.append(GIGANTIC)  # ratio is infinite by convention
            elif va == 0:
                tau_vec.append(DWARFED)  # ratio is 0
            else:
                rho = abs(va / vb)
                if rho <= low:
                    tau_vec.append(DWARFED)
                elif rho >= high:
                    tau_vec.append(GIGANTIC)
                else:
                    return NotWellPlaced(entry.entry_id, a, bb, rho)
        sigmas.append(sigma_vec)
        taus.append(tuple(tau_vec))
    return CandidateType(sigmas=tuple(sigmas), taus=tuple(taus))


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
    type, traversed in the given orientation.  Atom signs are
    tuple-independent, so one Boolean evaluation of each member
    suffices."""
    entry_signs = {
        e.entry_id: sign_from_type(e, typ, orientation) for e in Q.entries
    }
    # equal atoms share entries (interned by polynomial), hence share signs
    atom_sign: dict = {}
    for occ_idx, (m_idx, atom) in enumerate(Q.atom_list):
        num_id, den_id = Q.atom_entries[occ_idx]
        if num_id is None:
            s = 0
        else:
            s = entry_signs[num_id]
            if den_id is not None:
                s *= entry_signs[den_id]
        atom_sign[atom] = s

    verdicts = {}
    for m_idx, member in enumerate(pset.members):
        holds = eval_with(member.root, lambda a: rel_holds(atom_sign[a], a.rel))
        verdicts[m_idx] = "everywhere" if holds else "nowhere"
    return verdicts
