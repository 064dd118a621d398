"""Structured sequence generators and the cross-ratio predicate family.

The cross-ratio (z1,z2;z3,z4) = (z1-z3)(z2-z4) / ((z2-z3)(z1-z4)) is
invariant under x -> A + B*x and x -> A + B/x (B != 0), and on
fast-growing sequences it explodes doubly exponentially.  The family
built here exploits that: one membership predicate forces consecutive
cross-ratios to square each other (written in squared polynomial form
so no sign analysis is needed), its reversal covers reversed
sequences, and an equality predicate covers constant ones.  On the
integer sequences 1..N the squaring chain caps homogeneous subsequence
lengths at roughly log log N.

The brute-force searcher enumerates homogeneous subsequences by depth
first search; homogeneity is hereditary, so pruning on the first
violated tuple is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import DegenerateCrossRatioError
from .poly import MultiPoly
from .predicates import And, Atom, Predicate, PredicateSet, _rename_x, eval_at
from .ramsey import canonical_growing


def cross_ratio(z1, z2, z3, z4) -> Fraction:
    """(z1,z2;z3,z4), exactly; degenerate when z2 = z3 or z1 = z4."""
    z1, z2, z3, z4 = (Fraction(z) for z in (z1, z2, z3, z4))
    den = (z2 - z3) * (z1 - z4)
    if den == 0:
        raise DegenerateCrossRatioError("cross-ratio undefined: z2 = z3 or z1 = z4")
    return (z1 - z3) * (z2 - z4) / den


def _x(i: int, allv) -> MultiPoly:
    return MultiPoly.var(f"x{i}", allv)


def _cr_num_den(i, j, k, l, allv):
    """Numerator and denominator of (x_i, x_j; x_k, x_l)."""
    xi, xj, xk, xl = (_x(t, allv) for t in (i, j, k, l))
    return (xi - xk) * (xj - xl), (xj - xk) * (xi - xl)


def crossratio_family() -> PredicateSet:
    """The three-member family: equality, the squared cross-ratio growth
    predicate, and its argument reversal.

    The growth member on (x1..x5) says: all five values distinct, the
    squared cross-ratio (x1,x2;x3,x4)^2 is at least 4, and
    (x1,x2;x3,x5)^2 at least (x1,x2;x3,x4)^4, both cleared to
    polynomial form by the (positive) squared denominators.
    """
    allv = tuple(f"x{i}" for i in range(1, 6))
    distinct = [
        Atom((_x(i, allv) - _x(j, allv)).drop_unused(), "!=")
        for i, j in combinations(range(1, 6), 2)
    ]
    n4, d4 = _cr_num_den(1, 2, 3, 4, allv)
    n5, d5 = _cr_num_den(1, 2, 3, 5, allv)
    # (n4/d4)^2 >= 4         <=>  n4^2 - 4*d4^2 >= 0          (d4 != 0)
    # (n5/d5)^2 >= (n4/d4)^4 <=>  n5^2*d4^4 - n4^4*d5^2 >= 0  (d4, d5 != 0)
    grow1 = Atom((n4 ** 2 - 4 * d4 ** 2).drop_unused(), ">=")
    grow2 = Atom((n5 ** 2 * d4 ** 4 - n4 ** 4 * d5 ** 2).drop_unused(), ">=")
    member2 = Predicate(And(tuple(distinct) + (grow1, grow2)), 5)
    flip = {f"x{i}": f"x{6 - i}" for i in range(1, 6)}
    member3 = Predicate(_rename_x(member2.root, flip), 5)
    member1 = Predicate(Atom(_x(1, ("x1", "x2")) - _x(2, ("x1", "x2")), "="), 2)
    return PredicateSet((member1, member2, member3))


def growth_tuple_ok(c1: int, c2: int, c3: int, c4: int, c5: int) -> bool:
    """The growth member's test on one 5-tuple, specialized to integer
    arguments for speed; cross-checked against the predicate AST."""
    if len({c1, c2, c3, c4, c5}) != 5:
        return False
    n4 = (c1 - c3) * (c2 - c4)
    d4 = (c2 - c3) * (c1 - c4)
    if n4 * n4 < 4 * d4 * d4:
        return False
    n5 = (c1 - c3) * (c2 - c5)
    d5 = (c2 - c3) * (c1 - c5)
    return n5 * n5 * d4 ** 4 >= n4 ** 4 * d5 * d5


def growth_homogeneous_subsequences(values: Sequence[int]):
    """Yield every nonempty subsequence (as index tuples) on which the
    growth member holds everywhere.

    Homogeneity is hereditary, so the family is downward closed and the
    DFS tree is exactly the family.  A 4-subset whose squared
    cross-ratio falls below 4 cannot be the first four slots of any
    valid 5-tuple, so once a prefix contains one, no extension can ever
    succeed; such "sterile" prefixes are still yielded (they are
    vacuously homogeneous) but not expanded."""
    vals = list(values)
    N = len(vals)

    def bad_quad(a: int, b: int, c: int, d: int) -> bool:
        n4 = (vals[a] - vals[c]) * (vals[b] - vals[d])
        d4 = (vals[b] - vals[c]) * (vals[a] - vals[d])
        return n4 * n4 < 4 * d4 * d4

    def extension_ok(prefix: list, new: int) -> bool:
        m = len(prefix)
        if m >= 4:
            for quad in combinations(range(m), 4):
                a, b, c, d = (prefix[q] for q in quad)
                if not growth_tuple_ok(vals[a], vals[b], vals[c], vals[d], vals[new]):
                    return False
        return True

    def dfs(prefix: list, start: int, sterile: bool):
        if prefix:
            yield tuple(prefix)
        if sterile:
            return
        m = len(prefix)
        for t in range(start, N):
            if not extension_ok(prefix, t):
                continue
            new_sterile = False
            if m >= 3:
                for trip in combinations(range(m), 3):
                    a, b, c = (prefix[q] for q in trip)
                    if bad_quad(a, b, c, t):
                        new_sterile = True
                        break
            prefix.append(t)
            yield from dfs(prefix, t + 1, new_sterile)
            prefix.pop()

    yield from dfs([], 0, False)


@dataclass(frozen=True)
class BruteforceResult:
    length: int
    indices: tuple
    exact: bool  # False when the node budget cut the search short


def longest_homogeneous_bruteforce(seq: Sequence[Fraction], pred: Predicate,
                                   node_budget: int = 2_000_000) -> BruteforceResult:
    """Exact maximum length of a subsequence on which the predicate
    holds everywhere, by pruned depth-first search over subsequences.

    Exponential by nature; when the budget runs out the best result so
    far is returned flagged as a lower bound."""
    values = [Fraction(x) for x in seq]
    N = len(values)
    k = pred.arity
    best: list = []
    nodes = 0
    exact = True

    def new_tuples_ok(prefix: list, new: int) -> bool:
        m = len(prefix)
        if m + 1 < k:
            return True
        for rest in combinations(range(m), k - 1):
            tup = [values[prefix[r]] for r in rest] + [values[new]]
            if not eval_at(pred, tup):
                return False
        return True

    def dfs(prefix: list, start: int):
        nonlocal best, nodes, exact
        if len(prefix) > len(best):
            best = list(prefix)
        for t in range(start, N):
            if len(prefix) + (N - t) <= len(best):
                break  # not enough room to beat the best
            nodes += 1
            if nodes > node_budget:
                exact = False
                return
            if new_tuples_ok(prefix, t):
                prefix.append(t)
                dfs(prefix, t + 1)
                prefix.pop()

    dfs([], 0)
    return BruteforceResult(len(best), tuple(best), exact)


# -- sequence generators -------------------------------------------------


@dataclass(frozen=True)
class CorpusSpec:
    family: str  # arithmetic | geometric | shifted_reciprocal | integers | growing
    N: int
    A: Fraction = Fraction(0)
    B: Fraction = Fraction(1)
    step: Fraction = Fraction(1)
    ratio: Fraction = Fraction(2)
    R: int = 4

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")


def generate(spec: CorpusSpec) -> list:
    """Exact rational sequences for the structured families."""
    N = spec.N
    if spec.family == "integers":
        return [Fraction(i) for i in range(1, N + 1)]
    if spec.family == "arithmetic":
        return [spec.A + i * spec.step for i in range(N)]
    if spec.family == "geometric":
        if spec.ratio == 0:
            raise ValueError("geometric ratio must be nonzero")
        return [spec.A * spec.ratio ** i for i in range(N)]
    if spec.family == "shifted_reciprocal":
        return [spec.A + spec.B / i for i in range(1, N + 1)]
    if spec.family == "growing":
        return canonical_growing(spec.R, N)
    raise ValueError(f"unknown sequence family {spec.family!r}")
