"""The main decision procedure for predicate sets, plus an exact
brute-force harness for order-invariant sets.

Decision.  A set is Erdos-Szekeres unless, under one of the two
transforms, some feasible type makes every member false everywhere
('nowhere') in some traversal orientation; that type, with its
transform and orientation, is a NO certificate.  decide_es settles this
in three exact stages.

1. Sign vectors (YES).  A type fixes the sign of each entry of Q on
   transformed increasing tuples, and a member's verdict reads only
   those entry signs: an atom's sign is its numerator entry's, since
   the cleared denominator is positive (typesys).  So every type's
   verdicts are those of one of the 3^entries entry-sign vectors.  A
   transform none of whose vectors makes every member 'nowhere' has no
   type that does and can certify nothing; when neither transform has
   one, the answer is YES, with no type enumerated.
2. Point types (NO).  At a point (A, B), for any R and n, an R-growing
   b from b1 >= R * max|q_a/q_b| over the finite nonzero ratios makes
   every nonzero ratio dwarfed (|ratio| <= b1/R); a zero numerator's
   ratio is 0 and a zero denominator's infinite.  So (A, B, b) realizes
   the point type (typesys.point_type): the signs of the q_a(A, B),
   every pair of nonzero coefficients dwarfed, a zero denominator's
   pair gigantic and a zero numerator's dwarfed.  That holds for every
   R and n, so the point type is feasible with no QE, and it depends on
   the coefficients' signs alone.  One decomposition of Q's nonconstant
   coefficients over (X, Y) per transform (qe.cad.sign_vectors) has
   sign-invariant cells and exact sample points, so the sign vectors its
   walk reads are exactly those the coefficients take on the plane, and
   its point types are all the point types there are.  The walk is lazy
   and stops at the first cell with a rational sample whose point type
   makes every member 'nowhere': NO, with the witness (A, B, b) there.
   A NO met only at irrational samples answers without a witness, once
   the walk has ended or run out of cells.
3. Types (the rest).  The transforms kept by stage 1 and not answered
   by stage 2 go to the candidate-type enumeration: every member's
   verdict in both orientations, for every type; only a type that makes
   every member 'nowhere' in some orientation, and whose signs some
   point (X, Y) realizes, has its feasibility tested by QE.  The
   realizable signs are the sign patterns stage 2's walk read, shaped as
   a type's sigmas (the sign screen), so each transform gets one
   decomposition and the screen is one set lookup per type.  A feasible
   such type is a NO certificate; if the enumeration completes without
   one, the answer is YES.  Budget exhaustion inside a feasibility test
   makes the answer UNDECIDED (unless a NO was already found, which is
   conclusive on its own); a walk that runs out of cells leaves every
   type to its feasibility test.

The brute-force harness computes the exact Ramsey value of an
order-invariant set by searching canonical weak orderings, which are
exhaustive for such sets, for one without a good n-term subsequence
(es_bruteforce).  The search is one plain depth-first recursion
(_first_survivor) over a prefix held in one int list: levels are tried
in increasing order, so the first ordering it completes is the first
survivor in lexicographic order, and a prefix that already holds a
good subsequence is never extended, which removes no survivor.  Member
truths sit in a table indexed by member and argument levels, filled
on first read and grown with the length searched (not sized by the
cap), so each member is evaluated once per tuple of levels;
for arity 2 a good subsequence through a new position is a clique in
bitmask rows, rewritten in place along the current path.  The
recursion is a module function with its state in its arguments, so it
leaves no reference cycle.  Order-invariance itself is checked by
realizing every weak ordering of argument tuples at several scales and
comparing atom truth.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .algebra import TransformKind
from .errors import InconsistentTypeError, OrderInvarianceError, ResourceLimitError
from .feasibility import (
    FEASIBLE, UNDECIDED, FeasibilityInstance, _constant_sign, _try_witness, is_feasible,
    witness_search,
)
from .predicates import PredicateSet, atom_sign, atoms_of, eval_at, rel_holds
from .qe import QeBudget, RealAlgebraicNumber, sign_vectors
from .typesys import (
    CandidateType, CoefficientSystem, build_Q, enumerate_types,
    eval_predicates_from_type, point_type, verdicts_from_entry_signs,
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
    """How decide_es reached its answer.  ``decided_by`` names the stage
    that answered: "signs" (no entry-sign vector makes every member
    'nowhere'), "points" (a point type of the walk is the NO
    certificate) or "types" (the type enumeration, UNDECIDED included).
    The type counts cover the enumeration alone: every enumerated type
    counts in ``types_total`` and has its verdicts evaluated
    (``types_inconsistent``: no dominant coefficient); only types with an
    all-nowhere orientation are screened and tested, so
    ``types_feasible`` is at most 1: the first is the NO certificate.
    ``qe_calls`` counts QE work by purpose: under "screen" the (X, Y)
    decompositions built, at most one per transform, which the point
    types and the sign screen share; under "feasibility" the
    decide_sentence calls of feasibility tests."""

    types_total: int = 0
    types_feasible: int = 0
    types_skipped_by_screen: int = 0
    types_inconsistent: int = 0
    decided_by: str | None = None
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
            "decidedBy": self.decided_by,
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

    Three exact stages (see the module docstring), the first two per
    transform: a transform none of whose entry-sign vectors makes every
    member 'nowhere' can certify nothing and is dropped
    (_nowhere_sign_vector), so when both are dropped the answer is YES;
    the point types of one decomposition of a kept transform answer NO
    when one makes every member 'nowhere' (_point_type_no); the type
    enumeration (_decide_by_types) decides the rest on the kept
    transforms, screened by the sign patterns their walks read.  Each
    transform's Q is built once, F2's only when F1 does not answer NO.
    ``stats.decided_by`` names the stage.  Resource limits surface as
    UNDECIDED, never as a wrong answer.
    """
    stats = DecisionStats()
    if not _within_envelope(pset):
        warnings.warn(ENVELOPE_NOTE)
        stats.notes.append(ENVELOPE_NOTE)
    t0 = time.monotonic()
    budget = budget or QeBudget()
    kept: list = []
    for kind in (TransformKind.F1, TransformKind.F2):
        Q = build_Q(pset, kind)
        if not _nowhere_sign_vector(pset, Q, type_cap):
            continue
        out = _point_type_no(pset, kind, Q, budget, search_witness, stats)
        if isinstance(out, Verdict):
            break
        kept.append((kind, Q, out))
    else:
        if kept:
            out = _decide_by_types(pset, kept, budget, type_cap, search_witness, stats)
        else:
            stats.decided_by = "signs"
            out = Verdict(YES, stats=stats)
    stats.elapsed = time.monotonic() - t0
    return out


def _nowhere_sign_vector(pset: PredicateSet, Q: CoefficientSystem, cap: int) -> bool:
    """Whether some vector of entry signs makes every member 'nowhere';
    also when there are more than ``cap`` vectors, which are left to the
    later stages."""
    if 3 ** len(Q.entries) > cap:
        return True
    return any(all(v == "nowhere" for v in verdicts_from_entry_signs(pset, Q, signs).values())
               for signs in product((-1, 0, 1), repeat=len(Q.entries)))


def _point_type_no(pset: PredicateSet, kind: TransformKind, Q: CoefficientSystem,
                   budget: QeBudget, search_witness: bool,
                   stats: DecisionStats) -> Verdict | set | None:
    """NO with the first point type, in the walk of one decomposition of
    Q's nonconstant coefficients over (X, Y), that makes every member
    'nowhere' at a rational sample, witnessed there; a NO met only at
    irrational samples answers without a witness when the walk ends or
    runs out of cells after it.  Else the set of sign patterns the walk
    read, shaped as CandidateType.sigmas: each support element gets its
    cell's sign, each constant coefficient its own sign; None when the
    walk ran out of cells.  A vector's point type is read once, when the
    vector is first met; a vector met again, at a rational sample, can
    still answer."""
    stats.qe_calls["screen"] += 1
    index = _coefficient_index(Q)
    # per support element: its place in a sign vector, or its constant sign
    slots = tuple(tuple((index.get(c), _constant_sign(c)) for c in
                        (entry.decomp.coeffs[a] for a in entry.support))
                  for entry in Q.entries)
    nos: dict = {}  # sign vector -> (point type, orientation of a NO or None)
    first_no = None  # the first NO, met at an irrational sample
    try:
        for vector, point in sign_vectors(list(index), ("X", "Y"), budget):
            no = nos.get(vector)
            if no is None:
                typ = point_type(Q, tuple(tuple(s if i is None else vector[i] for i, s in entry)
                                          for entry in slots))
                no = nos[vector] = (typ, _nowhere_orientation(pset, Q, typ, stats))
            if no[1] is None:
                continue
            A, B = (x.value if isinstance(x, RealAlgebraicNumber) else x
                    for x in (point["X"], point["Y"]))
            if A is not None and B is not None:
                return _point_no(pset, kind, Q, no, (A, B) if search_witness else None, stats)
            first_no = first_no or no
    except ResourceLimitError:
        realized = None
    else:
        realized = {typ.sigmas for typ, _ in nos.values()}
    if first_no is not None:
        return _point_no(pset, kind, Q, first_no, None, stats)
    return realized


def _point_no(pset: PredicateSet, kind: TransformKind, Q: CoefficientSystem, no: tuple,
              sample: tuple | None, stats: DecisionStats) -> Verdict:
    """The re-verified NO of a point type and orientation, with the
    witness (A, B, b) at the rational ``sample`` (A, B) of a cell with
    the type's signs, when given."""
    typ, orientation = no
    witness = None
    if sample is not None:
        witness = _try_witness(Q, typ, *sample, WITNESS_R, WITNESS_N)
        if witness is None:
            raise AssertionError("internal: a rational sample does not realize its point type")
    stats.decided_by = "points"
    out = Verdict(NO, kind, typ, typ.to_json(Q), orientation, witness, stats)
    _reverify_no(pset, Q, out)
    return out


def _decide_by_types(pset: PredicateSet, systems: list, budget: QeBudget, type_cap: int,
                     search_witness: bool, stats: DecisionStats) -> Verdict:
    """The type enumeration over ``systems``, (kind, Q, realized)
    triples: verdicts come first, since NO needs a realizable type that
    makes every member 'nowhere' in some orientation, so a type with no
    such orientation cannot certify NO, whether it is feasible or not,
    and its feasibility is never tested.  Feasibility does not depend on
    the orientation, so one test settles both.

    The sign screen skips a type whose signs no point (X, Y) realizes,
    which is then infeasible.  ``realized`` is the set of sign patterns
    of one decomposition's walk (_point_type_no), every sign vector the
    coefficients take on the plane, or None when the walk ran out of
    cells, which passes every type.  For a type without a constant
    conflict (checked first), ``typ.sigmas in realized`` exactly when
    some cell's vector gives each of its instance's sign constraints its
    sign: those are the distinct pairs (nonconstant q_a, its sign in the
    type), and a pattern equals typ.sigmas exactly when its vector gives
    each such q_a that sign and every constant has its own sign, which
    is what ``inst.constant_conflict`` checks."""
    stats.decided_by = "types"
    for kind, Q, realized in systems:
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
            if realized is not None and typ.sigmas not in realized:
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
            out = Verdict(NO, kind, typ, typ.to_json(Q), orientation, witness, stats)
            _reverify_no(pset, Q, out)
            return out
    if stats.undecided_events:
        return Verdict(UNDEC, stats=stats)
    return Verdict(YES, stats=stats)


def _coefficient_index(Q: CoefficientSystem) -> dict:
    """Q's distinct nonconstant coefficients, each to its place in a sign
    vector."""
    index: dict = {}
    for entry in Q.entries:
        for c in entry.decomp.coeffs.values():
            if c.constant_value() is None:
                index.setdefault(c, len(index))
    return index


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


def weak_orderings(n: int):
    """Canonical weak orderings of n positions: all rank assignments
    surjective onto an initial segment {1..m}, in lexicographic order.
    Counts are the ordered Bell numbers (3 for n=2: ties, up, down)."""
    for levels in product(range(1, n + 1), repeat=n):
        if set(levels) == set(range(1, max(levels, default=0) + 1)):
            yield levels


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
    member holds everywhere.  Requires order invariance (checked), and
    1 <= n <= n_max (ValueError otherwise: a cap below n searches no
    length).

    For each N, _first_survivor searches the canonical weak orderings
    for the first one without such a subsequence (the counterexample),
    by one depth-first recursion over a prefix kept in one int list.
    Each position tries its levels in increasing order, and a level is
    skipped only when the levels still missing below the new top cannot
    fit into the positions left, so the orderings completed are exactly
    the canonical ones, in lexicographic (``weak_orderings``) order.
    Three shortcuts leave the result unchanged:

    - A prefix whose values already contain a good n-term subsequence
      is not extended.  The subsequences of a prefix's values are
      subsequences of every extension, so a pruned subtree holds no
      counterexample, and the first ordering that survives is the first
      counterexample of the full enumeration.  Each new prefix checks
      only the n-subsets that contain its last position; every other
      subset was checked when a shorter prefix was kept.
    - Member truths come from a table local to the call, truth[i][a][b]
      for member i at the levels (a, b), one index per argument, filled
      by eval_at the first time an entry is read.  The table grows with
      N, to the levels 0..N a length-N ordering can use, keeping every
      entry already filled, so its size follows the lengths searched and
      not the cap.  Truth is a function
      of the argument values, and a level always realizes as the same
      value, so an entry is exact wherever it is reused; order
      invariance is needed only for weak orderings to be exhaustive.
    - For arity 2, a prefix ending at position p stores, per member, its
      row: the bitmask of the earlier positions j with the member true
      on (j, p).  A member holds everywhere on an n-subset S + {p}
      exactly when it holds on every pair of it, that is, when S lies in
      p's row and each position of S has every lower one of S in its
      own row: S is an (n-1)-clique of the graph the rows draw, found in
      p's row by _has_clique.  Row p is written in place when a prefix
      ending at p is tried.  The recursion tries a prefix only inside the
      subtree of each of its shorter prefixes, and leaves that subtree
      before a sibling of one of them writes its row; so the rows below p
      are those of this prefix's own prefixes, the current path.

    The recursion, like _has_clique, is a module function that takes its
    state as arguments: a nested function that calls itself holds its
    own closure cell, a reference cycle that only the garbage collector
    frees, once per call.
    """
    check_order_invariance(pset)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n_max < n:
        raise ValueError("n_max must be >= n")
    members = pset.members
    truth = [[] for _ in members]
    # rows[i][p]: member i's row of position p, arity 2 only
    rows = [[] for _ in members] if pset.arity == 2 else None
    last_counterexample = None
    for N in range(n, n_max + 1):
        for table in truth:
            _grow_table(table, pset.arity, N + 1)
        if rows is not None:
            for member_rows in rows:
                member_rows.extend([0] * (N - len(member_rows)))
        levels = [0] * N
        if not _first_survivor(levels, 0, 0, 0, n, members, truth, rows):
            return EsValue(N, N, last_counterexample)
        last_counterexample = tuple(levels)
    return EsValue(None, n_max, last_counterexample)


def _grow_table(table: list, k: int, size: int) -> None:
    """Pad the k-deep nested list ``table`` with Nones until every index
    runs over range(size), keeping the entries already filled."""
    if k == 1:
        table.extend([None] * (size - len(table)))
        return
    for sub in table:
        _grow_table(sub, k - 1, size)
    while len(table) < size:
        sub = []
        _grow_table(sub, k - 1, size)
        table.append(sub)


def _first_survivor(levels: list, pos: int, present: int, top: int, n: int,
                    members: tuple, truth: list, rows: list | None) -> bool:
    """Whether levels[:pos], a kept prefix whose levels are the set bits
    of ``present``, the highest ``top``, extends to a canonical weak
    ordering of len(levels) positions none of whose prefixes holds a good
    n-subsequence; if so, the first such ordering is left in ``levels``.
    es_bruteforce states why that is the first counterexample, and why
    the rows (arity 2; None otherwise) are those of the current path."""
    size = len(levels)
    if pos == size:
        return True
    remaining = size - pos - 1
    for level in range(1, top + remaining + 2):
        new_present = present | 1 << level
        new_top = level if level > top else top
        if new_top - new_present.bit_count() > remaining:
            continue
        levels[pos] = level
        if rows is None:
            good = _tuples_good(levels, pos, n, members, truth)
        else:
            good = _pairs_good(levels, pos, n, members, truth, rows)
        if not good and _first_survivor(levels, pos + 1, new_present, new_top, n,
                                        members, truth, rows):
            return True
    return False


def _pairs_good(levels: list, p: int, n: int, members: tuple, truth: list,
                rows: list) -> bool:
    """Arity 2: whether some member holds on every pair of an n-subset
    of levels[:p + 1] through p, with each member's row of p written
    until one does."""
    last = levels[p]
    for i, member in enumerate(members):
        table = truth[i]
        row = 0
        for j in range(p):
            a = levels[j]
            value = table[a][last]
            if value is None:
                value = table[a][last] = eval_at(member, (a, last))
            if value:
                row |= 1 << j
        rows[i][p] = row
        if _has_clique(row, n - 1, rows[i]):
            return True
    return False


def _tuples_good(levels: list, p: int, n: int, members: tuple, truth: list) -> bool:
    """Whether some member holds on every k-subset of an n-subset of
    levels[:p + 1] through p, k the arity."""
    k = members[0].arity
    last = levels[p]
    for rest in combinations(levels[:p], n - 1):
        tuples = list(combinations(rest + (last,), k))
        for member, table in zip(members, truth):
            if all(_truth(table, member, t) for t in tuples):
                return True
    return False


def _truth(table: list, member, levels: tuple) -> bool:
    """The member's truth at ``levels``, from its table, evaluated on the
    first read."""
    for a in levels[:-1]:
        table = table[a]
    value = table[levels[-1]]
    if value is None:
        value = table[levels[-1]] = eval_at(member, levels)
    return value


def _has_clique(candidates: int, m: int, rows: list) -> bool:
    """Whether the bitmask ``candidates`` holds m positions that pairwise
    join: position a joins a higher b when bit a is set in rows[b].  The
    highest candidate either is in such a set, with m - 1 more among the
    candidates in its row, or is not; a module function, so the
    recursion makes no reference cycle."""
    if m < 2:
        return m == 0 or candidates != 0
    while candidates.bit_count() >= m:
        top = candidates.bit_length() - 1
        candidates ^= 1 << top
        if _has_clique(candidates & rows[top], m - 1, rows):
            return True
    return False
