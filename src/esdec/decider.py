"""The main decision procedure for predicate sets, plus an exact
brute-force harness for order-invariant sets.

Decision: for each of the two transforms and every candidate type of
the induced coefficient system, evaluate every member's verdict in
both traversal orientations; only a type that makes every member false
everywhere in some orientation, and whose signs some point (X, Y)
realizes, has its feasibility tested.  The realizable sign vectors are
read off one decomposition of Q's nonconstant coefficients per
transform (qe.cad.sign_vectors), the sign screen.  If such a
type is feasible, arbitrarily long counterexample sequences exist and
the answer is NO, with the (transform, type, orientation) triple as
the certificate.  If the enumeration completes without such a type,
the answer is YES.  Budget exhaustion inside a feasibility test makes
the overall answer UNDECIDED (unless a NO was already found, which is
conclusive on its own).

The brute-force harness computes the exact Ramsey value of an
order-invariant set by searching canonical weak orderings, which are
exhaustive for such sets, depth-first for one without a good n-term
subsequence.  A prefix that already holds a good subsequence is never
extended, and each member is evaluated once per distinct tuple of
argument levels.  Order-invariance itself is checked by realizing every
weak ordering of argument tuples at several scales and comparing atom
truth.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .algebra import TransformKind
from .errors import InconsistentTypeError, OrderInvarianceError, ResourceLimitError
from .feasibility import FEASIBLE, UNDECIDED, FeasibilityInstance, is_feasible, witness_search
from .predicates import PredicateSet, atom_sign, atoms_of, eval_at, rel_holds
from .qe import QeBudget, sign_vectors
from .typesys import (
    CandidateType, CoefficientSystem, build_Q, enumerate_types,
    eval_predicates_from_type,
)

YES = "YES"
NO = "NO"
UNDEC = "UNDECIDED"

ENVELOPE_NOTE = (
    "predicate set exceeds the practical envelope (arity <= 2, <= 2 atoms "
    "per member, degree <= 2); the candidate type count may be prohibitive"
)

# growth parameters (R, n) at which a NO's witness is searched for
WITNESS_R = 4
WITNESS_N = 4


@dataclass
class DecisionStats:
    """Every enumerated type counts in ``types_total`` and has its
    verdicts evaluated (``types_inconsistent``: no dominant coefficient).
    Only types with an all-nowhere orientation are screened and tested,
    so ``types_feasible`` is at most 1: the first is the NO certificate.
    ``qe_calls`` counts QE work by purpose: under "screen" the sign
    decompositions built (at most one per transform), under
    "feasibility" the decide_sentence calls of feasibility tests."""

    types_total: int = 0
    types_feasible: int = 0
    types_skipped_by_screen: int = 0
    types_inconsistent: int = 0
    qe_calls: dict = field(default_factory=lambda: {"screen": 0, "feasibility": 0})
    undecided_events: list = field(default_factory=list)
    elapsed: float = 0.0
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "typesTotal": self.types_total,
            "typesFeasible": self.types_feasible,
            "typesSkippedByScreen": self.types_skipped_by_screen,
            "typesInconsistent": self.types_inconsistent,
            "qeCalls": dict(self.qe_calls),
            "undecidedEvents": list(self.undecided_events),
            "elapsed": self.elapsed,
            "notes": list(self.notes),
        }


@dataclass
class Verdict:
    answer: str  # YES | NO | UNDECIDED
    transform: TransformKind | None = None
    certificate_type: object = None  # CandidateType for NO
    certificate_json: dict | None = None
    orientation: str | None = None
    witness: tuple | None = None  # (A, B, b) if the search found one
    stats: DecisionStats = field(default_factory=DecisionStats)

    def to_json(self) -> dict:
        out = {"answer": self.answer, "stats": self.stats.to_json()}
        if self.answer == NO:
            out["transform"] = self.transform.value
            out["orientation"] = self.orientation
            out["type"] = self.certificate_json
            if self.witness is not None:
                A, B, b = self.witness
                out["witness"] = {
                    "A": str(A), "B": str(B), "b": [str(x) for x in b],
                }
        return out


def _within_envelope(pset: PredicateSet) -> bool:
    if pset.arity > 2:
        return False
    for member in pset.members:
        atoms = atoms_of(member.root)
        if len(atoms) > 2:
            return False
        if any(a.poly.total_degree() > 2 for a in atoms):
            return False
    return True


def decide_es(pset: PredicateSet, budget: QeBudget | None = None,
              type_cap: int = 200_000, search_witness: bool = True) -> Verdict:
    """Decide whether every long enough sequence admits a fixed-length
    subsequence on which some member holds everywhere.

    Verdicts come first: NO needs a realizable type that makes every
    member 'nowhere' in some orientation, so a type with no such
    orientation cannot certify NO, whether it is feasible or not, and
    its feasibility is never tested.  Feasibility does not depend on the
    orientation, so one test settles both.  The sign screen checks a
    necessary condition for feasibility, that some point (X, Y)
    realizes the type's signs, on one decomposition per transform,
    built when the first type reaches it (_sign_screen); its 'no' skips
    the type, and when it runs out of budget the full test decides.
    Resource limits surface as UNDECIDED, never as a wrong answer.
    """
    stats = DecisionStats()
    if not _within_envelope(pset):
        warnings.warn(ENVELOPE_NOTE)
        stats.notes.append(ENVELOPE_NOTE)
    t0 = time.monotonic()
    budget = budget or QeBudget()
    for kind in (TransformKind.F1, TransformKind.F2):
        Q = build_Q(pset, kind)
        screen = None
        try:
            types = enumerate_types(Q, cap=type_cap)
        except ResourceLimitError as exc:
            stats.undecided_events.append(f"{kind.value}: {exc}")
            continue
        for typ in types:
            stats.types_total += 1
            orientation = _nowhere_orientation(pset, Q, typ, stats)
            if orientation is None:
                continue
            inst = FeasibilityInstance.from_type(Q, typ)
            if inst.constant_conflict:
                continue  # infeasible without any QE
            if screen is None:
                stats.qe_calls["screen"] += 1
                screen = _sign_screen(Q, budget)
            if not screen(inst):
                stats.types_skipped_by_screen += 1
                continue
            stats.qe_calls["feasibility"] += 1
            verdict = is_feasible(inst, budget)
            if verdict == UNDECIDED:
                stats.undecided_events.append(f"{kind.value}: type undecided")
            if verdict != FEASIBLE:
                continue
            stats.types_feasible += 1
            witness = (witness_search(Q, typ, WITNESS_R, WITNESS_N)
                       if search_witness else None)
            stats.elapsed = time.monotonic() - t0
            out = Verdict(NO, kind, typ, typ.to_json(Q), orientation,
                          witness, stats)
            _reverify_no(pset, Q, out)
            return out
    stats.elapsed = time.monotonic() - t0
    if stats.undecided_events:
        return Verdict(UNDEC, stats=stats)
    return Verdict(YES, stats=stats)


def _sign_screen(Q: CoefficientSystem, budget: QeBudget):
    """Whether some point (X, Y) realizes an instance's sign constraints,
    as a test of FeasibilityInstances of Q: some sign vector that Q's
    nonconstant coefficients take on the plane gives each constraint its
    prescribed sign.  When the cell budget runs out, every instance
    passes, to be decided by is_feasible."""
    index: dict = {}
    for entry in Q.entries:
        for c in entry.decomp.coeffs.values():
            if c.constant_value() is None:
                index.setdefault(c, len(index))
    try:
        vectors = sign_vectors(list(index), ("X", "Y"), budget)
    except ResourceLimitError:
        return lambda inst: True
    return lambda inst: any(all(v[index[p]] == s for p, s in inst.sign_constraints)
                            for v in vectors)


def _nowhere_orientation(pset: PredicateSet, Q: CoefficientSystem,
                         typ: CandidateType, stats: DecisionStats) -> str | None:
    """The first orientation in which the type makes every member
    'nowhere', or None.  A type with no dominant coefficient is not
    realizable, which ends its scan."""
    for orientation in ("ascending", "descending"):
        try:
            verdicts = eval_predicates_from_type(pset, Q, typ, orientation)
        except InconsistentTypeError:
            stats.types_inconsistent += 1
            return None
        if all(v == "nowhere" for v in verdicts.values()):
            return orientation
    return None


def _reverify_no(pset: PredicateSet, Q: CoefficientSystem, verdict: Verdict):
    """A NO certificate must evaluate every member to 'nowhere'."""
    got = eval_predicates_from_type(
        pset, Q, verdict.certificate_type, verdict.orientation
    )
    if any(v != "nowhere" for v in got.values()):
        raise AssertionError("internal: NO certificate failed re-verification")


# -- exact Ramsey values for order-invariant sets -----------------------


def _weak_orderings_from(prefix: tuple, present: frozenset, top: int, n: int, keep):
    """weak_orderings' depth-first recursion below ``prefix``; a module
    function, so the recursion makes no reference cycle."""
    pos = len(prefix)
    if pos == n:
        yield prefix
        return
    remaining = n - pos
    for level in range(1, top + remaining + 1):
        new_present = present | {level}
        new_top = max(top, level)
        # every present level is <= new_top; the missing ones must
        # still fit into the positions left after this one
        if new_top - len(new_present) > remaining - 1:
            continue
        new_prefix = prefix + (level,)
        if keep is None or keep(new_prefix):
            yield from _weak_orderings_from(new_prefix, new_present, new_top, n, keep)


def weak_orderings(n: int, keep=None):
    """Canonical weak orderings of n positions: all rank assignments
    surjective onto an initial segment {1..m}, depth-first in the order
    of their prefixes.  Counts are the ordered Bell numbers (3 for n=2:
    ties, up, down).  ``keep(prefix)``, if given, is asked about every
    nonempty prefix, the full ordering included; a prefix it rejects is
    neither yielded nor extended."""
    if n == 0:
        yield ()
        return
    yield from _weak_orderings_from((), frozenset(), 0, n, keep)


# realization scales: all strictly increasing in the level, spread across
# magnitudes and signs so scale-dependent atoms get caught
_SCALES = (
    lambda level: Fraction(level),
    lambda level: Fraction(10) ** level,
    lambda level: Fraction(level, 1000),
    lambda level: Fraction(100 * level - 1000, 3),
    lambda level: -(Fraction(10) ** (-level)),
)


@lru_cache(maxsize=64)
def check_order_invariance(pset: PredicateSet):
    """Sampling check that atom truth depends only on the weak ordering
    of the arguments: every weak ordering of an argument tuple is
    realized at several scales and the atom truths must agree.

    Memoized (``__wrapped__`` is the plain check), soundly: the check is
    a pure function of a frozen PredicateSet, and equal sets have equal
    atoms.  A raised OrderInvarianceError is not cached, so a
    non-invariant set raises on every call."""
    k = pset.arity
    atoms = []
    for member in pset.members:
        atoms.extend(atoms_of(member.root))
    for pattern in weak_orderings(k):
        realizations = [
            tuple(scale(level) for level in pattern) for scale in _SCALES
        ]
        for atom in atoms:
            truths = {rel_holds(atom_sign(atom, point), atom.rel) for point in realizations}
            if len(truths) > 1:
                raise OrderInvarianceError(
                    f"atom '{atom.poly.to_text()} {atom.rel} 0' differs across "
                    f"scales on weak ordering {pattern}"
                )


@dataclass(frozen=True)
class EsValue:
    value: int | None  # None: every length up to the cap had a counterexample
    searched_up_to: int
    counterexample: tuple | None  # weak ordering of length value-1 (or the cap)

    @property
    def exact(self) -> bool:
        return self.value is not None


def es_bruteforce(pset: PredicateSet, n: int, n_max: int) -> EsValue:
    """Exact Ramsey value: the least N <= n_max such that every weak
    ordering of length N admits an n-term subsequence on which some
    member holds everywhere.  Requires order invariance (checked).

    For each N the weak orderings are searched in ``weak_orderings``
    order for the first one without such a subsequence (the
    counterexample), with two shortcuts that leave the result unchanged:

    - A prefix whose values already contain a good n-term subsequence
      is not extended.  The subsequences of a prefix's values are
      subsequences of every extension, so a pruned subtree holds no
      counterexample, and the first ordering that survives is the first
      counterexample of the full enumeration.  Each new prefix checks
      only the n-subsets that contain its last position; every other
      subset was checked when a shorter prefix was kept.
    - Member truths come from a table local to the call, keyed by the
      member and its tuple of argument levels.  Truth is a function of
      the argument values, and a level always realizes as the same
      Fraction, so an entry is exact wherever it is reused; order
      invariance is needed only for weak orderings to be exhaustive.
    """
    check_order_invariance(pset)
    if n < 1:
        raise ValueError("n must be >= 1")
    k = pset.arity
    members = list(enumerate(pset.members))
    truth: dict = {}

    def keep(prefix: tuple) -> bool:
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
                    return False  # member holds on every k-subset
        return True

    last_counterexample = None
    for N in range(n, n_max + 1):
        failed = next(weak_orderings(N, keep), None)
        if failed is None:
            return EsValue(N, N, last_counterexample)
        last_counterexample = failed
    return EsValue(None, n_max, last_counterexample)
