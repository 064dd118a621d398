import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from esdec.algebra import TransformKind, sufficient_R
from esdec.errors import ExtractionFailure
from esdec.predicates import atoms_of, holds_everywhere, negate, parse
from esdec.ramsey import (
    GrowthParams, apply_transform, at_least_power, canonical_growing,
    extract_growing_embedding, extract_homogeneous, refine_well_placed,
)
from esdec.typesys import build_Q, ratio_magnitudes

F = Fraction


def test_refine_well_placed_all_ones():
    ps = parse("x1 < x2 ; x1 >= x2")
    Q = build_Q(ps, TransformKind.F1)
    R = 4
    b = canonical_growing(R, 5)
    got = refine_well_placed(b, ratio_magnitudes(Q, F(0), F(1)), GrowthParams(R, 5))
    # all finite ratios equal 1 <= b1/R: the whole sequence is one run,
    # well placed as it stands
    assert got.values == tuple(b)
    assert (got.start, got.stop) == (0, 5)


def test_refine_well_placed_vacuous():
    ps = parse("x1 < x2 ; x1 >= x2")
    Q = build_Q(ps, TransformKind.F1)
    b = canonical_growing(4, 3)
    # B = 0 kills every coefficient: no finite nonzero ratios at all
    got = refine_well_placed(b, ratio_magnitudes(Q, F(3), F(0)), GrowthParams(4, 3))
    assert got.values == tuple(b)


def test_refine_well_placed_failure():
    ps = parse("2*x1 - x2 > 0")
    Q = build_Q(ps, TransformKind.F1)
    R = 4
    # ratio 2 sits inside every short canonical run: refinement of a
    # 3-term sequence cannot satisfy the verification
    b = [F(2), F(2) ** 4, F(2) ** 16]
    with pytest.raises((ExtractionFailure, ValueError)):
        refine_well_placed(b, ratio_magnitudes(Q, F(0), F(1)), GrowthParams(R, 3))


def _old_refine(b, ratios, R):
    """The refinement before ends were dropped by side: the first
    longest run of one cell, both ends dropped, then verified.  Returns
    (start, stop), or None where it raised ExtractionFailure."""
    def cell(x):
        lo = bisect_left(ratios, x)
        if lo < len(ratios) and ratios[lo] == x:
            return 2 * lo + 1
        return 2 * lo

    if not ratios:
        return 0, len(b)
    cells = [cell(x) for x in b]
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
        return None
    if not all(rho <= b[start] / R or at_least_power(rho, b[stop - 1], R) for rho in ratios):
        return None
    return start, stop


@st.composite
def _growing_with_ratios(draw):
    """An R-growing b (each step b_i^R times 1 to 3, plus 0 to 2) and
    sorted ratio magnitudes placed against it: equal to a term, between
    two terms, below b_1 or above b_n."""
    R = draw(st.integers(3, 5))
    b = [F(draw(st.integers(R, 3 * R)), draw(st.sampled_from((1, 1, 2))))]
    if b[0] < R:
        b[0] = F(R)
    for _ in range(draw(st.integers(0, 5))):
        b.append(b[-1] ** R * draw(st.integers(1, 3)) + draw(st.integers(0, 2)))
    ratios = set()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(b) - 1))
        where = draw(st.sampled_from(("at", "above", "below", "bottom", "top")))
        if where == "at":
            ratios.add(b[i])
        elif where == "above":
            ratios.add(b[i] + F(1, draw(st.integers(1, 3))))
        elif where == "below":
            ratios.add(b[i] - F(1, draw(st.integers(2, 4))))
        elif where == "bottom":
            ratios.add(F(1, draw(st.integers(1, 9))))
        else:
            ratios.add(b[-1] ** R * draw(st.integers(1, 2)))
    # a coefficient ratio comes with its reciprocal
    ratios |= {1 / r for r in ratios if draw(st.booleans())}
    return R, b, sorted(ratios)


@given(_growing_with_ratios())
@example((4, canonical_growing(4, 5), [F(1, 10), F(10)]))
@example((4, canonical_growing(4, 3), [F(4)]))
@example((3, [F(3), F(27), F(3) ** 9], [F(27) + 1]))
@settings(max_examples=150, deadline=None)
def test_refine_well_placed_never_shorter_than_old(case):
    """Against the refinement that dropped both ends of the first
    longest run: never shorter, and always a well-placed slice of b;
    against every slice of b: the first of the longest well-placed."""
    R, b, ratios = case
    old = _old_refine(b, ratios, R)
    placed = [(s, t) for s in range(len(b)) for t in range(s + 1, len(b) + 1)
              if all(rho <= b[s] / R or rho >= b[t - 1] ** R for rho in ratios)]
    try:
        got = refine_well_placed(b, ratios, GrowthParams(R, len(b)))
    except ExtractionFailure:
        assert old is None and not placed, (R, b, ratios)
        return
    assert got.values == tuple(b[got.start:got.stop]) and got.values
    first, last = got.values[0], got.values[-1]
    assert all(rho <= first / R or rho >= last ** R for rho in ratios)
    assert (got.start, got.stop) == min(placed, key=lambda st: (st[0] - st[1], st[0]))
    if old is not None:
        assert got.stop - got.start >= old[1] - old[0]


def test_refine_keeps_n_terms_past_one_low_ratio():
    """One ratio between b_1 and b_2 of an (n+2)-term b leaves n terms:
    the run b_2..b_(n+2) has ratios below it only, and keeps b_2 too
    when the ratio is <= b_2/R."""
    R = 4
    b = canonical_growing(R, 5)  # 4, 256, ...
    got = refine_well_placed(b, [F(1, 10), F(100)], GrowthParams(R, 5))
    assert (got.start, got.stop) == (2, 5)
    assert len(got.values) == 3
    got = refine_well_placed(b, [F(1, 10), F(10)], GrowthParams(R, 5))
    assert (got.start, got.stop) == (1, 5)


def test_extract_homogeneous_constructive_past_one_low_ratio():
    """At the embedding's (A, B) one coefficient ratio, 2097151/13, lies
    between b_1 and b_2 (below b_2/R); the refinement drops b_1 only,
    keeps n + 1 terms, and the pipeline answers without brute force."""
    pset = parse("x1 + x2 - 3 > 0 ; x1 + x2 - 3 <= 0")
    got = extract_homogeneous(canonical_growing(8, 6), pset, 3)
    assert got.method == "constructive"
    assert got.indices == (2, 3, 4)
    assert all(v in ("everywhere", "nowhere") for v in got.verdicts.values())


def test_extract_homogeneous_reversed_embedding():
    """A decreasing image of an R-growing b embeds as F1 'reversed'.  The
    constructive answer is then the host positions of the first n terms
    of the well-placed run, which lie backwards in the host."""
    mono = parse("x1 < x2 ; x1 >= x2")
    host = [3 + 2 * x for x in canonical_growing(8, 6, F(9))][::-1]
    got = extract_homogeneous(host, mono, 3)
    assert got.method == "constructive"
    assert got.indices == (2, 3, 4)
    assert got.verdicts == {0: "nowhere", 1: "everywhere"}

    R = max([4] + [sufficient_R(a.poly) for m in mono.members for a in atoms_of(m.root)])
    emb = extract_growing_embedding(host, GrowthParams(R, 5))
    w = emb.witness
    assert (w.kind, w.orientation) == (TransformKind.F1, "reversed")
    ratios = ratio_magnitudes(build_Q(mono, w.kind), w.A, w.B)
    run = refine_well_placed(emb.sequence, ratios, GrowthParams(R, 5))
    first = [apply_transform(w.kind, t, w.A, w.B) for t in run.values[:3]]
    assert got.indices == tuple(sorted(host.index(v) for v in first))
    assert got.values == tuple(host[i] for i in got.indices)


def test_extract_homogeneous_monotone_guarantee():
    mono = parse("x1 < x2 ; x1 >= x2")
    rng = random.Random(3)
    for _ in range(25):
        seq = [F(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(5)]
        got = extract_homogeneous(seq, mono, 3)
        assert len(got.values) == 3
        assert all(v in ("everywhere", "nowhere") for v in got.verdicts.values())
        assert any(
            got.verdicts[i] == "everywhere" for i in range(len(mono.members))
        ) or all(v == "nowhere" for v in got.verdicts.values())


def test_extract_homogeneous_constant():
    eq = parse("x1 = x2")
    got = extract_homogeneous([F(7)] * 4, eq, 4)
    assert got.values == (7, 7, 7, 7)
    assert got.verdicts[0] == "everywhere"


def test_extract_homogeneous_increasing():
    lt = parse("x1 < x2")
    got = extract_homogeneous([F(1), F(3), F(2), F(4)], lt, 3)
    assert got.verdicts[0] == "everywhere"
    vals = list(got.values)
    assert vals == sorted(vals) and len(vals) == 3


def test_extract_homogeneous_constructive_path():
    mono = parse("x1 < x2 ; x1 >= x2")
    g = canonical_growing(4, 8)
    host = [5 + 7 * x for x in g]
    got = extract_homogeneous(host, mono, 4)
    assert len(got.values) == 4
    assert got.verdicts[0] == "everywhere"  # increasing image
    assert got.method in ("constructive", "bruteforce")


def test_extract_homogeneous_nowhere_counts():
    # "nowhere" is homogeneous too: ties make x1 != x2 false everywhere
    neq = parse("x1 != x2")
    got = extract_homogeneous([F(1), F(1), F(1)], neq, 2)
    assert got.verdicts[0] == "nowhere"


def test_extract_homogeneous_failure():
    lt = parse("x1 < x2")
    # the only 3-subsequence of (1, 2, 0) is mixed for x1 < x2
    with pytest.raises(ExtractionFailure):
        extract_homogeneous([F(1), F(2), F(0)], lt, 3)
