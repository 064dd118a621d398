"""Constructive extraction pipelines on rational sequences.

The chain of extractions here turns an arbitrary host sequence into a
fast-growing ("R-growing") sequence together with an exactly verified
embedding witness:

  1. repeated values  -> constant image (Y = 0);
  2. a strictly monotone subsequence (decreasing handled by negating,
     which folds into the witness parameters);
  3. an additive R-fold chain ("x3 - x1 >= R*(x2 - x1)" on all triples),
     obtained by striding a doubling-differences (DDC) chain at the
     guaranteed lengths and, below them, by an exact chain search;
  4. a shift by the first term, making values positive with consecutive
     ratios >= R;
  5. a multiplicative R-fold pass.  Logarithms never appear: the
     comparisons are done in exact multiplicative form (DDC on logs is
     b_i*b_k >= b_j^2, the midpoint split is x^2 <= lo*hi, R-fold is
     b_k*b_i^(R-1) >= b_j^R), with the reciprocal branch producing the
     X + Y/x witness;
  6. a final ratio normalization folded into the scale parameter.

The monotone search (step 2) and the R-fold chain searches (steps 3
and 5) run on integers: each sequence is multiplied once by the common
denominator of its values (``_scaled_ints``, which states why no
comparison changes), and the searches return indices.  Everything that
is verified or returned is computed from the original rational values.
Every extraction re-verifies its defining inequality before returning;
failures are reported, never fabricated.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from typing import Sequence

from .algebra import TransformKind, sufficient_R
from .errors import ExtractionFailure
from .predicates import atoms_of, member_verdicts


@dataclass(frozen=True)
class GrowthParams:
    R: int
    n: int

    def __post_init__(self):
        if not isinstance(self.R, int) or self.R < 3:
            raise ValueError("R must be an integer >= 3")
        if self.n < 1:
            raise ValueError("target length must be >= 1")


@dataclass(frozen=True)
class EmbeddingWitness:
    kind: TransformKind
    A: Fraction
    B: Fraction
    orientation: str  # forward | reversed
    index_map: tuple  # strictly increasing indices into the host

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "A": str(self.A),
            "B": str(self.B),
            "orientation": self.orientation,
            "indexMap": list(self.index_map),
        }


def canonical_growing(R: int, n: int, start: Fraction | None = None) -> list:
    """The tightest admissible R-growing sequence from ``start`` (default R)."""
    first = Fraction(start) if start is not None else Fraction(R)
    seq = [first]
    while len(seq) < n:
        seq.append(seq[-1] ** R)
    return seq


def is_R_growing(b: Sequence[Fraction], R: int) -> bool:
    """Exact check: b1 >= R and b_{i+1} >= b_i^R."""
    if not isinstance(R, int) or R < 3:
        raise ValueError("R must be an integer >= 3")
    b = [Fraction(x) for x in b]
    if not b:
        return False
    if b[0] < R:
        return False
    return all(b[i + 1] >= b[i] ** R for i in range(len(b) - 1))


def apply_transform(kind: TransformKind, x: Fraction, A: Fraction, B: Fraction) -> Fraction:
    if kind is TransformKind.F1:
        return A + B * x
    if x == 0:
        raise ZeroDivisionError("X + Y/x at x = 0")
    return A + B / x


def verify_embedding(a: Sequence[Fraction], b: Sequence[Fraction], witness: EmbeddingWitness) -> bool:
    """Exact recomputation of the transformed sequence against the host."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    idx = witness.index_map
    if len(idx) != len(b) or any(i < 0 or i >= len(a) for i in idx):
        return False
    if any(j <= i for i, j in zip(idx, idx[1:])):
        return False
    used = b if witness.orientation == "forward" else list(reversed(b))
    if witness.kind is TransformKind.F2 and any(x == 0 for x in used):
        return False  # division by zero
    for pos, x in zip(idx, used):
        if apply_transform(witness.kind, x, witness.A, witness.B) != a[pos]:
            return False
    return True


# -- comparison scales -------------------------------------------------


class _Additive:
    @staticmethod
    def ddc_ok(x, y, z):  # z - y >= y - x
        return z + x >= 2 * y

    @staticmethod
    def mid_le(x, lo, hi):  # x <= (lo + hi)/2
        return 2 * x <= lo + hi

    @staticmethod
    def rfold_append(first, last, z, R):  # z - first >= R*(last - first)
        return z - first >= R * (last - first)

    @staticmethod
    def invert(v):
        return -v


class _Multiplicative:
    """Log-domain comparisons carried out exactly on positive rationals."""

    @staticmethod
    def ddc_ok(x, y, z):  # log z - log y >= log y - log x
        return z * x >= y * y

    @staticmethod
    def mid_le(x, lo, hi):
        return x * x <= lo * hi

    @staticmethod
    def rfold_append(first, last, z, R):  # z/first >= (last/first)^R
        return z * first ** (R - 1) >= last ** R

    @staticmethod
    def invert(v):
        return 1 / v


ADDITIVE = _Additive()
MULTIPLICATIVE = _Multiplicative()


def _check_increasing(seq, scale=None) -> list:
    vals = [Fraction(x) for x in seq]
    if any(y <= x for x, y in zip(vals, vals[1:])):
        raise ValueError("input sequence must be strictly increasing")
    if scale is MULTIPLICATIVE and vals and vals[0] <= 0:
        raise ValueError("multiplicative comparisons need positive values")
    return vals


def check_ddc(seq: Sequence[Fraction]) -> bool:
    """Doubling differences, via the equivalent local form
    b_{j+1} - b_j >= b_j - b_1 (strictly increasing input required)."""
    vals = _check_increasing(seq)
    return all(vals[j + 1] - vals[j] >= vals[j] - vals[0] for j in range(1, len(vals) - 1))


def check_ddc_triples(seq: Sequence[Fraction]) -> bool:
    """The all-triples form |b_k - b_i| >= 2|b_j - b_i|; test oracle."""
    vals = [Fraction(x) for x in seq]
    return all(
        abs(vals[k] - vals[i]) >= 2 * abs(vals[j] - vals[i])
        for i, j, k in combinations(range(len(vals)), 3)
    )


@lru_cache(maxsize=None)
def ddc_guarantee_length(k: int, l: int) -> int:
    """Smallest guaranteed input length for the split extraction."""
    if k <= 0 or l <= 0:
        return 0
    if k == 1 or l == 1:
        return 1
    if k == 2 or l == 2:
        return 2
    return ddc_guarantee_length(k - 1, l) + ddc_guarantee_length(k, l - 1) - 1


@dataclass(frozen=True)
class Extraction:
    direction: str  # forward | reverse-negated
    indices: tuple  # into the input sequence, strictly increasing
    values: tuple  # input values at those indices

    def normalized(self, scale=ADDITIVE) -> list:
        """The increasing sequence the stated direction refers to:
        the values themselves, or rev(invert(values))."""
        if self.direction == "forward":
            return list(self.values)
        return [scale.invert(v) for v in reversed(self.values)]


def _ddc_split(items, k, l, scale):
    """Midpoint-split recursion; ``items`` is a list of (value, index)
    pairs, strictly increasing in value, of length >= guarantee(k, l)."""
    if k <= 1:
        return ("forward", items[:k])
    if l <= 1:
        return ("reverse-negated", items[:l])
    if k == 2:
        return ("forward", items[:2])
    if l == 2:
        return ("reverse-negated", items[:2])
    lo, hi = items[0][0], items[-1][0]
    left = [it for it in items if scale.mid_le(it[0], lo, hi)]
    right = items[len(left):]
    if len(left) >= ddc_guarantee_length(k - 1, l):
        direction, sub = _ddc_split(left, k - 1, l, scale)
        if direction == "reverse-negated":
            return direction, sub
        return "forward", sub + [items[-1]]
    direction, sub = _ddc_split(right, k, l - 1, scale)
    if direction == "forward":
        return direction, sub
    return "reverse-negated", [items[0]] + sub


def _scaled_ints(values) -> list:
    """``values`` multiplied by L, the lcm of their denominators, as ints.

    L > 0, and every comparison the sequence searches make is
    homogeneous, with the same degree on both sides:

      order                  u < v                     degree 1
      DDC                    z + x >= 2y               degree 1
      additive R-fold        z - f >= R(l - f)         degree 1
      multiplicative R-fold  z * f^(R-1) >= l^R        degree R

    Multiplying every value by L multiplies both sides of a degree-d
    comparison by L^d > 0, so each one has the same truth on the scaled
    ints as on the rationals, and a search returns the same indices.
    """
    # unpack a list: unpacking a generator grows the argument tuple by
    # resizing, which left the heap fragmented (under CPython 3.11 the
    # peak RSS of a long extraction loop grew by about 170 bytes a call)
    L = lcm(*[v.denominator for v in values])
    return [v.numerator * (L // v.denominator) for v in values]


def _longest_chain(values, append_ok, want=None):
    """Longest subsequence whose every append step satisfies
    ``append_ok(first, last, new)``.

    The triple conditions it serves (R-fold and DDC, in either scale)
    are tightest at (first, last, new), so a chain's extendability
    depends only on its first and last elements and the O(n^3) dynamic
    program below is exact.  Returns the index list of a longest chain
    (earliest start wins ties); stops early once ``want`` is reached.
    Callers pass ``_scaled_ints`` values, on which the homogeneous
    conditions keep their truth and run on ints.
    """
    n = len(values)
    if n == 0:
        return []
    best = [0]
    for f in range(n):
        length = [0] * n
        parent: list = [None] * n
        length[f] = 1
        for j in range(f, n):
            if not length[j]:
                continue
            for t in range(j + 1, n):
                if length[j] == 1 or append_ok(values[f], values[j], values[t]):
                    if length[t] < length[j] + 1:
                        length[t] = length[j] + 1
                        parent[t] = j
        jbest = max(range(f, n), key=lambda t: (length[t], -t))
        if length[jbest] > len(best):
            chain = []
            t = jbest
            while t is not None:
                chain.append(t)
                t = parent[t]
            best = chain[::-1]
        if want is not None and len(best) >= want:
            return best
    return best

def _verify_ddc(values, scale) -> bool:
    return all(
        scale.ddc_ok(values[i], values[j], values[k])
        for i, j, k in combinations(range(len(values)), 3)
    )


def _verify_rfold(values, R, scale) -> bool:
    return all(
        scale.rfold_append(values[i], values[j], values[k], R)
        for i, j, k in combinations(range(len(values)), 3)
    )


def extract_ddc(seq: Sequence[Fraction], k: int, l: int, scale=ADDITIVE) -> Extraction:
    """A subsequence of length k satisfying the doubling-differences
    condition, or one of length l whose reverse-negation does, by the
    midpoint-split recursion; needs input length >= the recurrence
    guarantee.  The output is re-verified exactly.
    """
    vals = _check_increasing(seq, scale)
    need = ddc_guarantee_length(k, l)
    if len(vals) < need:
        raise ExtractionFailure(
            f"the midpoint split needs length >= {need} for (k={k}, l={l}), got {len(vals)}",
            stage="precondition",
        )
    direction, sub = _ddc_split(list(zip(vals, range(len(vals)))), k, l, scale)
    out = Extraction(direction, tuple(i for _, i in sub), tuple(v for v, _ in sub))
    if not _verify_ddc(out.normalized(scale), scale):
        raise ExtractionFailure("extracted chain failed the doubling check", stage="verify")
    return out


def extract_rfold(seq: Sequence[Fraction], n: int, R: int, scale=ADDITIVE) -> Extraction:
    """A subsequence on which "x3 - x1 >= R*(x2 - x1)" (in the given
    scale) holds everywhere, in forward or reverse-negated direction.

    At or above the recurrence length ddc_guarantee_length(m, m), with
    m = r*(n-1)+1 and r = ceil(log2 R), the paper's construction: a
    doubling-differences chain of length m by the midpoint split, of
    which every r-th element is kept, turning each doubling step into
    an R-fold one.  Below it, the exact chain search: ``_longest_chain``
    under ``rfold_append``, forward and then on the reverse-inverted
    values.

    The search dominates striding any shorter doubling chain: R-fold is
    tightest at (first, last, new) in both scales, so ``_longest_chain``
    is exact for it and finds n terms whenever any n-term R-fold chain
    exists in that direction, a strided one included.  R-fold with
    R >= 2 implies the doubling step, so from each start it reaches no
    more positions than a doubling-chain program would, and with
    ``want=n`` it stops at the first start that reaches n.  Each
    direction's values are scaled to ints by ``_scaled_ints`` before the
    search (the reciprocals of the multiplicative reverse direction
    bring new denominators); the chosen indices are verified for the
    R-fold property exactly, on the original values, before returning.
    """
    if not isinstance(R, int) or R < 2:
        raise ValueError("R must be an integer >= 2")
    vals = _check_increasing(seq, scale)
    if n <= 0:
        return Extraction("forward", (), ())
    if len(vals) < n:
        raise ExtractionFailure(
            f"no {n}-term R-fold chain found in length-{len(vals)} input (R={R})",
            stage="rfold",
        )
    if n <= 2:
        return Extraction("forward", tuple(range(n)), tuple(vals[:n]))
    r = (R - 1).bit_length()  # ceil(log2 R) for R >= 2
    m = r * (n - 1) + 1

    if len(vals) >= ddc_guarantee_length(m, m):
        chain = extract_ddc(vals, m, m, scale)
        # the chain has exactly m terms, so every r-th index from either
        # end picks the same n positions
        picked = chain.indices[::r]
        ext = Extraction(chain.direction, picked, tuple(vals[i] for i in picked))
        if _verify_rfold(ext.normalized(scale), R, scale):
            return ext

    def append_ok(first, last, new):
        return scale.rfold_append(first, last, new, R)

    top = len(vals) - 1
    for direction in ("forward", "reverse-negated"):
        forward = direction == "forward"
        values = vals if forward else [scale.invert(v) for v in reversed(vals)]
        chain = _longest_chain(_scaled_ints(values), append_ok, want=n)
        if len(chain) >= n:
            idx = sorted(i if forward else top - i for i in chain[:n])
            ext = Extraction(direction, tuple(idx), tuple(vals[i] for i in idx))
            if _verify_rfold(ext.normalized(scale), R, scale):
                return ext
    raise ExtractionFailure(
        f"no {n}-term R-fold chain found in length-{len(vals)} input (R={R})",
        stage="rfold",
    )


# -- the embedding pipeline --------------------------------------------


def _strictly_monotone(a):
    """Longest strictly increasing and strictly decreasing subsequences,
    as index lists; classic O(n^2) with parent links.  Runs on
    ``_scaled_ints(a)``, whose order is that of ``a``; a decreasing
    subsequence is an increasing one of the negated values."""
    ints = _scaled_ints(a)
    n = len(ints)
    results = []
    for vals in (ints, [-v for v in ints]):
        length = [1] * n
        parent: list = [None] * n
        for j in range(n):
            vj = vals[j]
            for i in range(j):
                if vals[i] < vj and length[i] + 1 > length[j]:
                    length[j] = length[i] + 1
                    parent[j] = i
        jbest = max(range(n), key=lambda j: (length[j], -j)) if n else 0
        chain = []
        t = jbest if n else None
        while t is not None:
            chain.append(t)
            t = parent[t]
        results.append(chain[::-1] if n else [])
    return results[0], results[1]


@dataclass(frozen=True)
class GrowingEmbedding:
    sequence: tuple  # the R-growing sequence b
    witness: EmbeddingWitness


def _finish(a, c_vals, positions, kind, A, B) -> GrowingEmbedding:
    if all(p < q for p, q in zip(positions, positions[1:])):
        orientation, index_map, b = "forward", tuple(positions), tuple(c_vals)
    elif all(p > q for p, q in zip(positions, positions[1:])):
        orientation, index_map, b = "reversed", tuple(reversed(positions)), tuple(c_vals)
    else:
        raise ExtractionFailure("internal: non-monotone index map", stage="finish")
    witness = EmbeddingWitness(kind, Fraction(A), Fraction(B), orientation, index_map)
    emb = GrowingEmbedding(b, witness)
    if not verify_embedding(a, emb.sequence, witness):
        raise ExtractionFailure("internal: witness failed exact verification", stage="finish")
    return emb


def _chain(ext: Extraction, positions, scale) -> tuple:
    """The increasing chain ``ext`` stands for (``ext.normalized``), with
    the host positions of its terms in the same order."""
    order = ext.indices if ext.direction == "forward" else ext.indices[::-1]
    return ext.normalized(scale), [positions[i] for i in order]


def extract_growing_embedding(a: Sequence[Fraction], params: GrowthParams) -> GrowingEmbedding:
    """An R-growing sequence b with an exactly verified two-parameter
    embedding (x -> A + B*x or x -> A + B/x, possibly of rev(b)) into
    the host sequence.

    Each R-fold pass reads its chain u through ``Extraction.normalized``,
    host positions in the same order, so one rule covers both
    directions.  Pass 1 runs on nu*host (nu = -1 for a decreasing
    monotone stage), and u = +-nu*host, so with s = +-nu the host is
    A + s*t, where A = s*u[0] and t = u[1:] - u[0].  Pass 2 runs on t,
    and c = u[1:]/u[0]: a forward chain u is t, so t = u[0]*c (F1,
    B = s*u[0]); a reverse one is 1/t, so t = 1/(u[0]*c) (F2, B = s/u[0]).

    Raises ExtractionFailure with the losing stage when the host is too
    short or too unstructured for every branch; guarantees exist only
    at lengths far beyond desk scale, so failures are honest outcomes.
    """
    R, n = params.R, params.n
    host = [Fraction(x) for x in a]
    if not host:
        raise ExtractionFailure("empty host sequence", stage="input")

    # repeated value: constant image under B = 0
    counts: dict = {}
    for i, v in enumerate(host):
        counts.setdefault(v, []).append(i)
    value, positions = max(counts.items(), key=lambda kv: (len(kv[1]), -kv[1][0]))
    if len(positions) >= n:
        return _finish(host, canonical_growing(R, n), positions[:n], TransformKind.F1, value, 0)

    inc, dec = _strictly_monotone(host)
    nu, mono = (1, inc) if len(inc) >= len(dec) else (-1, dec)
    s_vals = [nu * host[i] for i in mono]  # strictly increasing
    if len(s_vals) < n + 1:
        raise ExtractionFailure(
            f"monotone stage found only {len(s_vals)} terms, need >= {n + 1}",
            stage="monotone",
        )

    # additive R-fold pass (prefer the longer outcome, need n+1, ideally n+2)
    try:
        pass1 = extract_rfold(s_vals, min(n + 2, len(s_vals)), R, ADDITIVE)
    except ExtractionFailure:
        try:
            pass1 = extract_rfold(s_vals, n + 1, R, ADDITIVE)
        except ExtractionFailure as exc:
            raise ExtractionFailure(
                f"additive pass found no chain of length {n + 1}", stage="pass1"
            ) from exc
    u, u_pos = _chain(pass1, mono, ADDITIVE)
    s = nu if pass1.direction == "forward" else -nu
    A, t, t_pos = s * u[0], [x - u[0] for x in u[1:]], u_pos[1:]
    if not (t[0] > 0 and all(t[j + 1] >= R * t[j] for j in range(len(t) - 1))):
        raise ExtractionFailure("internal: shifted chain has a ratio below R", stage="pass1")

    # rescale shortcut: t / (t1/R) starts exactly at R and often already grows fast
    lam = t[0] / R
    b_try = [x / lam for x in t[:n]]
    if is_R_growing(b_try, R):
        return _finish(host, b_try, t_pos[:n], TransformKind.F1, A, s * lam)

    # multiplicative pass
    if len(t) < n + 1:
        raise ExtractionFailure(
            f"shifted chain has {len(t)} terms, need {n + 1} for the ratio pass",
            stage="pass2",
        )
    pass2 = extract_rfold(t, n + 1, R, MULTIPLICATIVE)
    u, u_pos = _chain(pass2, t_pos, MULTIPLICATIVE)
    c = [x / u[0] for x in u[1:]]
    if not is_R_growing(c, R):
        raise ExtractionFailure("ratio-normalized chain is not R-growing", stage="pass2")
    if pass2.direction == "forward":
        return _finish(host, c, u_pos[1:], TransformKind.F1, A, s * u[0])
    return _finish(host, c, u_pos[1:], TransformKind.F2, A, s / u[0])


# -- well-placed refinement and homogeneous extraction ------------------


@dataclass(frozen=True)
class RefineResult:
    values: tuple  # the surviving contiguous run of b, first/last dropped
    start: int  # slice bounds into the input b
    stop: int


def finite_ratio_magnitudes(Q, A: Fraction, B: Fraction) -> list:
    """All distinct finite nonzero |q_alpha/q_beta| over the coefficient
    system's entries, evaluated exactly at (A, B)."""
    point = {"X": Fraction(A), "Y": Fraction(B)}
    out = set()
    for entry in Q.entries:
        vals = {alpha: c.evaluate(point) for alpha, c in entry.decomp.coeffs.items()}
        for alpha, va in vals.items():
            for beta, vb in vals.items():
                if alpha == beta or vb == 0 or va == 0:
                    continue  # zero is always dwarfed, infinity always gigantic
                out.add(abs(va / vb))
    return sorted(out)


def refine_well_placed(b: Sequence[Fraction], Q, A: Fraction, B: Fraction,
                       params: GrowthParams) -> RefineResult:
    """Longest contiguous run of b avoiding every finite coefficient
    ratio, with its first and last terms dropped; verified well-placed
    (each ratio <= b1/R or >= bn^R) before returning."""
    vals = [Fraction(x) for x in b]
    if not is_R_growing(vals, params.R):
        raise ValueError("refine_well_placed: input must be R-growing")
    ratios = finite_ratio_magnitudes(Q, A, B)
    if not ratios:
        return RefineResult(tuple(vals), 0, len(vals))

    def cell(x: Fraction) -> int:
        lo = bisect_left(ratios, x)
        # 2*lo for the open interval below ratios[lo], 2*lo+1 for an exact hit
        if lo < len(ratios) and ratios[lo] == x:
            return 2 * lo + 1
        return 2 * lo

    cells = [cell(x) for x in vals]
    best_start, best_stop = 0, 0
    i = 0
    while i < len(cells):
        j = i
        while j < len(cells) and cells[j] == cells[i]:
            j += 1
        if j - i > best_stop - best_start:
            best_start, best_stop = i, j
        i = j
    start, stop = best_start + 1, best_stop - 1
    if stop - start < 1:
        raise ExtractionFailure(
            "no ratio-free run long enough to refine", stage="refine"
        )
    refined = vals[start:stop]
    low, high = refined[0] / params.R, refined[-1] ** params.R
    for rho in ratios:
        if not (rho <= low or rho >= high):
            raise ExtractionFailure(
                f"ratio {rho} is neither dwarfed nor gigantic after refinement",
                stage="refine",
            )
    return RefineResult(tuple(refined), start, stop)


@dataclass(frozen=True)
class HomogeneousResult:
    indices: tuple  # into the host sequence
    values: tuple
    verdicts: dict  # member index -> "everywhere" | "nowhere"
    method: str  # "constructive" | "bruteforce"


def _homogeneous_verdicts(pset, vals) -> dict | None:
    """The members' verdicts on vals when each is everywhere or nowhere."""
    v = member_verdicts(pset, vals)
    if all(s in ("everywhere", "nowhere") for s in v.values()):
        return v
    return None


def _homogeneous_dfs(host, pset, n, prefix, next_start, nodes_left):
    """The first extension of ``prefix`` to n indices, depth-first, on
    which every member is everywhere or nowhere, with its verdicts; None
    if there is none.  ``nodes_left`` is a one-item list, the unspent node
    budget.  A module function, so the recursion makes no reference
    cycle."""
    N = len(host)
    if len(prefix) == n:
        v = _homogeneous_verdicts(pset, [host[i] for i in prefix])
        return (tuple(prefix), v) if v else None
    if len(prefix) + (N - next_start) < n:
        return None
    for t in range(next_start, N):
        nodes_left[0] -= 1
        if nodes_left[0] < 0:
            raise ExtractionFailure("node budget exhausted", stage="bruteforce")
        cand = prefix + [t]
        if len(cand) >= pset.arity and _homogeneous_verdicts(pset, [host[i] for i in cand]) is None:
            continue
        got = _homogeneous_dfs(host, pset, n, cand, t + 1, nodes_left)
        if got:
            return got
    return None


def _homogeneous_bruteforce(host, pset, n, node_budget):
    found = _homogeneous_dfs(host, pset, n, [], 0, [node_budget])
    if not found:
        raise ExtractionFailure(
            f"no homogeneous subsequence of length {n} found", stage="bruteforce"
        )
    idx, verdicts = found
    return HomogeneousResult(idx, tuple(host[i] for i in idx), verdicts, "bruteforce")


def extract_homogeneous(a: Sequence[Fraction], pset, n: int,
                        node_budget: int = 500_000) -> HomogeneousResult:
    """An n-term subsequence on which every member of the set holds
    everywhere or nowhere; constructive pipeline first, brute force as
    the desk-scale fallback.  Output is re-verified by definition."""
    from . import typesys  # local: typesys imports this module

    host = [Fraction(x) for x in a]
    if n < 1:
        raise ValueError("n must be >= 1")

    R = 4
    for member in pset.members:
        for atom in atoms_of(member.root):
            R = max(R, sufficient_R(atom.poly))
    try:
        emb = extract_growing_embedding(host, GrowthParams(R, n + 2))
        w = emb.witness
        Q = typesys.build_Q(pset, w.kind)
        # refine_well_placed has checked every finite coefficient ratio
        # against refined[0]/R and refined[-1]**R, so the run is well placed
        refined = refine_well_placed(emb.sequence, Q, w.A, w.B, GrowthParams(R, n + 2))
        start, stop = refined.start, min(refined.stop, refined.start + n)
        n_all = len(emb.sequence)
        if w.orientation == "forward":
            hostpos = w.index_map[start:stop]
        else:
            hostpos = w.index_map[n_all - stop:n_all - start]
        vals = [host[i] for i in hostpos]
        verdicts = _homogeneous_verdicts(pset, vals) if len(vals) == n else None
        if verdicts is not None:
            return HomogeneousResult(tuple(hostpos), tuple(vals), verdicts, "constructive")
    except ExtractionFailure:
        pass
    return _homogeneous_bruteforce(host, pset, n, node_budget)
