import random
from fractions import Fraction
from itertools import accumulate, combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from esdec import ramsey
from esdec.algebra import TransformKind
from esdec.errors import ExtractionFailure
from esdec.ramsey import (
    ADDITIVE, MULTIPLICATIVE,
    EmbeddingWitness, Extraction, GrowthParams, _longest_chain, _scaled_ints,
    _strictly_monotone,
    canonical_growing, check_ddc, check_ddc_triples, ddc_guarantee_length,
    extract_ddc, extract_growing_embedding, extract_rfold,
    is_R_growing, verify_embedding,
)

F = Fraction


def test_is_r_growing():
    assert is_R_growing([F(4), F(256), F(256) ** 4], 4)
    assert not is_R_growing([F(4), F(255)], 4)
    assert is_R_growing([F(4)], 4)
    assert not is_R_growing([F(3)], 4)
    with pytest.raises(ValueError):
        is_R_growing([F(4)], 2)


def test_canonical_growing():
    assert canonical_growing(4, 3) == [4, 256, 4 ** 16]
    assert is_R_growing(canonical_growing(5, 4), 5)


def test_check_ddc_examples():
    assert check_ddc([1, 2, 4, 8, 16])
    assert not check_ddc([1, 2, 3, 4])
    assert check_ddc([1, 2, 3])
    with pytest.raises(ValueError):
        check_ddc([1, 1, 2])


def test_ddc_local_equals_triples_sampled():
    rng = random.Random(2)
    for _ in range(300):
        length = rng.randint(2, 7)
        vals = sorted(rng.sample(range(1, 40), length))
        assert check_ddc(vals) == check_ddc_triples(vals)


def test_ddc_guarantee_table():
    assert ddc_guarantee_length(2, 2) == 2
    assert ddc_guarantee_length(3, 3) == 3
    assert ddc_guarantee_length(5, 5) == 21
    from math import comb
    for k in range(2, 7):
        for l in range(2, 7):
            assert ddc_guarantee_length(k, l) <= comb(k + l, k)


def test_extract_ddc_optimal():
    vals = [1, 2, 3, 4]
    chain = _longest_chain(vals, ADDITIVE.ddc_ok)
    assert len(chain) == 3
    assert check_ddc([vals[i] for i in chain])


def test_extract_ddc_revneg():
    # shrinking gaps: no forward doubling triple, so the split must
    # return the reverse-negated direction at full length l
    got = extract_ddc([0, 8, 12, 14, 15], 3, 5)
    assert got.direction == "reverse-negated"
    norm = got.normalized()
    assert check_ddc(norm)
    assert len(norm) == 5


def test_extract_ddc_proof_geometric():
    seq = [F(2) ** i for i in range(20)]
    got = extract_ddc(seq, 3, 3)
    assert len(got.values) == 3
    assert check_ddc(got.normalized())


def test_extract_ddc_proof_needs_length():
    with pytest.raises(ExtractionFailure):
        extract_ddc([1, 2], 3, 3)
    got = extract_ddc([1, 2], 2, 2)
    assert got.direction == "forward" and got.values == (1, 2)


def test_extract_ddc_proof_random():
    rng = random.Random(9)
    for _ in range(200):
        k = rng.randint(2, 5)
        l = rng.randint(2, 5)
        need = ddc_guarantee_length(k, l)
        length = need + rng.randint(0, 4)
        cur = rng.randint(0, 5)
        vals = []
        for _ in range(length):
            vals.append(cur)
            cur += rng.randint(1, 10)
        got = extract_ddc(vals, k, l)
        want = k if got.direction == "forward" else l
        assert len(got.values) == want
        assert check_ddc_triples(got.normalized())


def _rfold_ok(vals, R):
    return all(z - x >= R * (y - x) for x, y, z in combinations(vals, 3))


def test_extract_rfold_geometric():
    seq = [F(16) ** i for i in range(9)]
    got = extract_rfold(seq, 3, 16)
    assert _rfold_ok(got.normalized(), 16)


def test_extract_rfold_arithmetic():
    got = extract_rfold(list(range(1, 101)), 3, 4)
    assert len(got.values) == 3
    assert _rfold_ok(got.normalized(), 4)


def test_extract_rfold_trivial_and_failure():
    got = extract_rfold([3, 7], 2, 4)
    assert got.values == (3, 7)
    with pytest.raises(ExtractionFailure):
        extract_rfold([1, 2, 3], 3, 50)
    for seq, n in (([5], 2), ([], 1), ([1, 2], 3)):
        with pytest.raises(ExtractionFailure) as info:
            extract_rfold(seq, n, 4)
        assert info.value.stage == "rfold"


def _all_triples(vals, R, scale):
    return all(scale.rfold_append(x, y, z, R) for x, y, z in combinations(vals, 3))


def _brute_longest(vals, R, scale):
    for size in range(len(vals), 0, -1):
        for sub in combinations(vals, size):
            if _all_triples(sub, R, scale):
                return size
    return 0


def _increasing(max_len):
    """Strictly increasing positive sequences whose gaps grow and shrink."""
    gaps = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3)), max_size=max_len)
    return gaps.map(
        lambda gs: [F(1 + sum(2 ** e + j for e, j in gs[:i])) for i in range(len(gs))])


_scales = st.sampled_from([ADDITIVE, MULTIPLICATIVE])


@settings(max_examples=150, deadline=None)
@given(_increasing(10), st.integers(2, 5), _scales, st.integers(1, 10))
def test_longest_chain_rfold_matches_brute_force(vals, R, scale, want):
    """The chain program is exact for R-fold in both scales: its chains
    hold on all triples and are as long as the longest such subset."""
    def append_ok(first, last, new):
        return scale.rfold_append(first, last, new, R)

    best = _brute_longest(vals, R, scale)
    full = _longest_chain(vals, append_ok)
    early = _longest_chain(vals, append_ok, want=want)
    assert len(full) == best
    assert len(early) >= min(want, best)
    for chain in (full, early):
        assert all(i < j for i, j in zip(chain, chain[1:]))
        assert _all_triples([vals[i] for i in chain], R, scale)


def _cascade_rfold(vals, n, R, scale):
    """extract_rfold as it was with the optimal-DDC stride (n >= 3): the
    proof-mode stride at the guarantee length, then a stride of the
    longer optimal doubling chain, then the exact R-fold search; None
    where all three fail."""
    r = (R - 1).bit_length()
    m = r * (n - 1) + 1
    top = len(vals) - 1

    def stride(direction, chain):
        if len(chain) < m:
            return None
        if direction == "forward":
            picked = [chain[t * r] for t in range(n)]
        else:
            picked = sorted(chain[len(chain) - 1 - t * r] for t in range(n))
        ext = Extraction(direction, tuple(picked), tuple(vals[i] for i in picked))
        return ext if _all_triples(ext.normalized(scale), R, scale) else None

    if len(vals) >= ddc_guarantee_length(m, m):
        ddc = extract_ddc(vals, m, m, scale)
        got = stride(ddc.direction, ddc.indices)
        if got is not None:
            return got
    rev_vals = [scale.invert(v) for v in reversed(vals)]
    fwd = _longest_chain(vals, scale.ddc_ok)
    rev = _longest_chain(rev_vals, scale.ddc_ok)
    got = (stride("forward", fwd) if len(fwd) >= len(rev)
           else stride("reverse-negated", sorted(top - i for i in rev)))
    if got is not None:
        return got
    for direction, values in (("forward", vals), ("reverse-negated", rev_vals)):
        chain = _longest_chain(values, lambda x, y, z: scale.rfold_append(x, y, z, R),
                               want=n)
        if len(chain) >= n:
            idx = sorted(i if direction == "forward" else top - i for i in chain[:n])
            return Extraction(direction, tuple(idx), tuple(vals[i] for i in idx))
    return None


@settings(max_examples=300, deadline=None)
@given(_increasing(22), st.integers(3, 5), st.integers(2, 5), _scales)
@example([F(x) for x in (0, 64, 96, 112, 120, 124, 126, 127)], 4, 2, ADDITIVE)
@example([F(2 ** k) for k in range(21)], 3, 4, ADDITIVE)  # proof-mode stride
@example([F(256 - 2 ** k) for k in range(7, -1, -1)], 3, 2, MULTIPLICATIVE)
def test_extract_rfold_matches_cascade(vals, n, R, scale):
    """Wherever the old cascade found n terms, the exact search finds n
    terms too (and the other way round), each an R-fold chain."""
    want = _cascade_rfold(vals, n, R, scale)
    try:
        got = extract_rfold(vals, n, R, scale)
    except ExtractionFailure:
        got = None
    assert (got is None) == (want is None)
    if got is not None:
        assert len(got.indices) == n
        assert all(i < j for i, j in zip(got.indices, got.indices[1:]))
        assert got.values == tuple(vals[i] for i in got.indices)
        assert _all_triples(got.normalized(scale), R, scale)


def test_multiplicative_scale_chain():
    seq = [F(4) ** (4 ** i) for i in range(4)]
    got = extract_rfold(seq, 3, 4, MULTIPLICATIVE)
    norm = got.normalized(MULTIPLICATIVE)
    assert all(z * x ** 3 >= y ** 4 for x, y, z in combinations(norm, 3))


def test_verify_embedding_tamper():
    b = canonical_growing(4, 3)
    a = [5 + 7 * x for x in b]
    w = EmbeddingWitness(TransformKind.F1, F(5), F(7), "forward", (0, 1, 2))
    assert verify_embedding(a, b, w)
    bad = EmbeddingWitness(TransformKind.F1, F(6), F(7), "forward", (0, 1, 2))
    assert not verify_embedding(a, b, bad)
    w2 = EmbeddingWitness(TransformKind.F2, F(0), F(1), "forward", (0,))
    assert not verify_embedding([F(1)], [F(0)], w2)  # zero input to X + Y/x


def test_embedding_repeat_branch():
    a = [F(7)] * 5
    emb = extract_growing_embedding(a, GrowthParams(4, 4))
    assert emb.witness.kind is TransformKind.F1
    assert emb.witness.B == 0
    assert is_R_growing(emb.sequence, 4)
    assert verify_embedding(a, emb.sequence, emb.witness)


def test_embedding_affine_example():
    g = [F(4), F(256), F(256) ** 4]
    a = [F(5)] + [5 + 7 * x for x in g]
    emb = extract_growing_embedding(a, GrowthParams(4, 3))
    w = emb.witness
    assert w.kind is TransformKind.F1
    assert (w.A, w.B) == (5, 7)
    assert list(emb.sequence) == g
    assert verify_embedding(a, emb.sequence, w)


def test_embedding_reciprocal_family():
    g = canonical_growing(4, 5)
    a = [3 + F(1) / x for x in reversed(g)]  # increasing host
    emb = extract_growing_embedding(a, GrowthParams(4, 3))
    assert emb.witness.kind is TransformKind.F2
    assert is_R_growing(emb.sequence, 4)
    assert verify_embedding(a, emb.sequence, emb.witness)


def test_embedding_corpus():
    R = 4
    for n in (3, 4, 5):
        g = canonical_growing(R, n + 2)
        hosts = []
        for A, B in ((F(5), F(7)), (F(0), F(1)), (F(-2), F(1, 3))):
            hosts.append([A + B * x for x in g])
            hosts.append([A + B / x for x in reversed(g)])
        hosts.extend([[-x for x in h] for h in list(hosts)])
        hosts.append([F(9)] * n)
        for host in hosts:
            emb = extract_growing_embedding(host, GrowthParams(R, n))
            assert len(emb.sequence) == n
            assert is_R_growing(emb.sequence, R)
            assert verify_embedding(host, emb.sequence, emb.witness)


def test_embedding_failure_reported():
    rng = random.Random(13)
    noise = [F(rng.randint(-50, 50), rng.randint(1, 7)) for _ in range(8)]
    try:
        emb = extract_growing_embedding(noise, GrowthParams(4, 6))
        assert verify_embedding(noise, emb.sequence, emb.witness)
    except ExtractionFailure as exc:
        assert exc.stage


def test_optimal_at_least_as_long_as_proof():
    rng = random.Random(77)
    for _ in range(60):
        k = rng.randint(2, 4)
        l = rng.randint(2, 4)
        need = ddc_guarantee_length(k, l)
        length = need + rng.randint(0, 3)
        cur = rng.randint(0, 9)
        vals = []
        for _ in range(length):
            vals.append(cur)
            cur += rng.randint(1, 9)
        proof = extract_ddc(vals, k, l)
        optimal = max(len(_longest_chain(vals, ADDITIVE.ddc_ok)),
                      len(_longest_chain([-v for v in reversed(vals)], ADDITIVE.ddc_ok)))
        assert optimal >= len(proof.values)


# -- searches on scaled ints against the searches on Fractions -----------


def _fraction_strictly_monotone(a):
    """_strictly_monotone as it compared Fractions pair by pair."""
    n = len(a)
    results = []
    for cmp in (lambda u, v: u < v, lambda u, v: u > v):
        length = [1] * n
        parent: list = [None] * n
        for j in range(n):
            for i in range(j):
                if cmp(a[i], a[j]) and length[i] + 1 > length[j]:
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


def _fraction_longest_chain(values, append_ok, want=None):
    """_longest_chain as it ran on the Fraction values themselves."""
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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ExtractionFailure as exc:
        return ("failure", exc.stage, str(exc))


def _fraction_run(fn, *args):
    """fn with its searches comparing the rational values themselves."""
    with mock.patch.object(ramsey, "_scaled_ints", list):
        return _outcome(fn, *args)


# small denominators, plus large ones whose lcm overflows any machine word
_denominators = st.one_of(st.integers(1, 9), st.sampled_from([10 ** 6 + 3, 2 ** 61 - 1, 3 ** 40]))
_mixed = st.lists(st.builds(F, st.integers(-40, 40), _denominators), max_size=16)


def _increasing_fractions(max_len):
    """Strictly increasing positive Fractions with non-unit denominators
    whose gaps grow and shrink."""
    start = st.builds(F, st.integers(1, 9), _denominators)
    gaps = st.lists(st.builds(lambda e, j, d: F(2 ** e + j, d), st.integers(0, 8),
                              st.integers(0, 3), _denominators), max_size=max_len - 1)
    return st.builds(lambda s, gs: list(accumulate([s, *gs])), start, gaps)


def test_scaled_ints_example():
    assert _scaled_ints([F(1, 2), F(-2, 3), F(5)]) == [3, -4, 30]
    assert _scaled_ints([]) == []


@settings(max_examples=300, deadline=None)
@given(_mixed)
@example([F(1, 3), F(1, 2), F(-1, 3), F(1, 2), F(2, 3 ** 40)])
def test_strictly_monotone_matches_fraction_search(vals):
    assert _strictly_monotone(vals) == _fraction_strictly_monotone(vals)


@settings(max_examples=200, deadline=None)
@given(_increasing_fractions(12), st.integers(2, 5), _scales,
       st.one_of(st.none(), st.integers(1, 12)))
def test_longest_chain_on_scaled_ints_matches_fractions(vals, R, scale, want):
    """Forward and reverse-inverted values, as extract_rfold searches
    them; 1/v gives the multiplicative reverse new denominators."""
    def append_ok(first, last, new):
        return scale.rfold_append(first, last, new, R)

    for values in (vals, [scale.invert(v) for v in reversed(vals)]):
        ints = _scaled_ints(values)
        assert all(type(x) is int for x in ints)
        assert (_longest_chain(ints, append_ok, want)
                == _fraction_longest_chain(values, append_ok, want))


@settings(max_examples=200, deadline=None)
@given(_increasing_fractions(14), st.integers(1, 5), st.integers(2, 5), _scales)
def test_extract_rfold_matches_fraction_run(vals, n, R, scale):
    assert _outcome(extract_rfold, vals, n, R, scale) == _fraction_run(
        extract_rfold, vals, n, R, scale)


@st.composite
def _hosts(draw):
    """Noise with small denominators; half the time n + 2 terms of
    A + B*b or A + B/b (b R-growing, either orientation) planted in it."""
    R, n = draw(st.integers(3, 4)), draw(st.integers(3, 4))
    host = draw(st.lists(st.builds(F, st.integers(-60, 60), st.integers(1, 9)),
                         min_size=n + 2, max_size=24))
    if draw(st.booleans()):
        b = canonical_growing(R, n + 2, F(draw(st.integers(R, 7))))
        A = draw(st.builds(F, st.integers(-20, 20), st.integers(1, 5)))
        B = draw(st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 5)))
        vals = [A + B * x for x in b] if draw(st.booleans()) else [A + B / x for x in b]
        if draw(st.booleans()):
            vals.reverse()
        positions = sorted(draw(st.permutations(range(len(host))))[:n + 2])
        for pos, v in zip(positions, vals):
            host[pos] = v
    return host, GrowthParams(R, n)


@settings(max_examples=150, deadline=None)
@given(_hosts())
def test_extract_growing_embedding_matches_fraction_run(case):
    host, params = case
    got = _outcome(extract_growing_embedding, host, params)
    assert got == _fraction_run(extract_growing_embedding, host, params)
    if not isinstance(got, tuple):
        assert is_R_growing(got.sequence, params.R)
        assert verify_embedding(host, got.sequence, got.witness)


# -- the embedding pipeline against its two-branch form ------------------


def _two_branch_growing_embedding(a, params):
    """extract_growing_embedding as it was before each pass read its chain
    through Extraction.normalized: separate index arithmetic for the
    forward and the reverse chain, and a repeated-value witness built
    beside _finish."""
    R, n = params.R, params.n
    host = [F(x) for x in a]
    if not host:
        raise ExtractionFailure("empty host sequence", stage="input")
    counts: dict = {}
    for i, v in enumerate(host):
        counts.setdefault(v, []).append(i)
    value, positions = max(counts.items(), key=lambda kv: (len(kv[1]), -kv[1][0]))
    if len(positions) >= n:
        b = canonical_growing(R, n)
        witness = EmbeddingWitness(TransformKind.F1, value, F(0), "forward",
                                   tuple(positions[:n]))
        emb = ramsey.GrowingEmbedding(tuple(b), witness)
        if not verify_embedding(host, b, witness):
            raise ExtractionFailure("internal: constant witness failed", stage="repeat")
        return emb
    if n < 2:
        raise ExtractionFailure("internal: n=1 should use the repeat branch", stage="input")

    inc, dec = _strictly_monotone(host)
    if len(inc) >= len(dec):
        nu, mono = 1, inc
    else:
        nu, mono = -1, dec
    s_vals = [nu * host[i] for i in mono]
    s_pos = list(mono)
    if len(s_vals) < n + 1:
        raise ExtractionFailure(
            f"monotone stage found only {len(s_vals)} terms, need >= {n + 1}",
            stage="monotone",
        )
    try:
        pass1 = extract_rfold(s_vals, min(n + 2, len(s_vals)), R, ADDITIVE)
    except ExtractionFailure:
        try:
            pass1 = extract_rfold(s_vals, n + 1, R, ADDITIVE)
        except ExtractionFailure as exc:
            raise ExtractionFailure(
                f"additive pass found no chain of length {n + 1}", stage="pass1"
            ) from exc
    w = [s_vals[i] for i in pass1.indices]
    wpos = [s_pos[i] for i in pass1.indices]
    m = len(w)
    if pass1.direction == "forward":
        t = [w[j + 1] - w[0] for j in range(m - 1)]
        t_pos = [wpos[j + 1] for j in range(m - 1)]
        A2, eps2 = nu * w[0], nu
    else:
        t = [w[m - 1] - w[m - 2 - j] for j in range(m - 1)]
        t_pos = [wpos[m - 2 - j] for j in range(m - 1)]
        A2, eps2 = nu * w[m - 1], -nu
    if not (t[0] > 0 and all(t[j + 1] >= R * t[j] for j in range(len(t) - 1))):
        raise ExtractionFailure("internal: shifted chain has a ratio below R", stage="pass1")
    lam = t[0] / R
    b_try = [x / lam for x in t[:n]]
    if len(b_try) == n and is_R_growing(b_try, R):
        return ramsey._finish(host, b_try, t_pos[:n], TransformKind.F1, A2, eps2 * lam)
    if len(t) < n + 1:
        raise ExtractionFailure(
            f"shifted chain has {len(t)} terms, need {n + 1} for the ratio pass",
            stage="pass2",
        )
    pass2 = extract_rfold(t, n + 1, R, MULTIPLICATIVE)
    v = [t[i] for i in pass2.indices]
    vpos = [t_pos[i] for i in pass2.indices]
    M = len(v)
    if pass2.direction == "forward":
        c = [v[i + 1] / v[0] for i in range(M - 1)]
        c_pos = [vpos[i + 1] for i in range(M - 1)]
        kind, B = TransformKind.F1, eps2 * v[0]
    else:
        c = [v[M - 1] / v[M - 2 - i] for i in range(M - 1)]
        c_pos = [vpos[M - 2 - i] for i in range(M - 1)]
        kind, B = TransformKind.F2, eps2 * v[M - 1]
    c, c_pos = c[:n], c_pos[:n]
    if not is_R_growing(c, R):
        raise ExtractionFailure("ratio-normalized chain is not R-growing", stage="pass2")
    return ramsey._finish(host, c, c_pos, kind, A2, B)


def _retry_shape(R):
    """0, R, R+1, R^R, R^(R^2): no 5-term additive R-fold chain, so at
    n = 3 only pass 1's retry with n + 1 terms embeds it."""
    return [F(0), F(R), F(R + 1), F(R) ** R, F(R) ** (R * R)]


@st.composite
def _embedding_cases(draw):
    """Planted F1 and F2 hosts in either orientation and noise hosts
    (``_hosts``), hosts with a repeated value, and affine images of the
    retry shape, alone or planted in noise, forward or reversed."""
    case = draw(st.sampled_from(["hosts", "repeat", "retry"]))
    if case == "hosts":
        return draw(_hosts())
    R, n = draw(st.integers(3, 4)), draw(st.integers(1, 4))
    host = draw(st.lists(st.builds(F, st.integers(-60, 60), st.integers(1, 9)),
                         min_size=5, max_size=16))
    if case == "repeat":
        value = draw(st.builds(F, st.integers(-9, 9), st.integers(1, 3)))
        for pos in draw(st.permutations(range(len(host))))[:draw(st.integers(1, n + 1))]:
            host[pos] = value
        return host, GrowthParams(R, n)
    A = draw(st.builds(F, st.integers(-20, 20), st.integers(1, 5)))
    B = draw(st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 5)))
    vals = [A + B * x for x in _retry_shape(R)]
    if draw(st.booleans()):
        vals.reverse()
    if draw(st.booleans()):
        return vals, GrowthParams(R, 3)
    positions = sorted(draw(st.permutations(range(len(host))))[:5])
    for pos, v in zip(positions, vals):
        host[pos] = v
    return host, GrowthParams(R, 3)


@settings(max_examples=300, deadline=None)
@given(_embedding_cases())
@example(([F(0), F(4), F(5), F(256), F(4) ** 16], GrowthParams(4, 3)))
@example(([F(3) - F(2, 5) * x for x in _retry_shape(4)][::-1], GrowthParams(4, 3)))
def test_extract_growing_embedding_matches_two_branch_form(case):
    host, params = case
    got = _outcome(extract_growing_embedding, host, params)
    assert repr(got) == repr(_outcome(_two_branch_growing_embedding, host, params))


def test_retry_shape_needs_the_retry():
    """The retry shape embeds, and only through the n + 1 attempt."""
    host = _retry_shape(4)
    with pytest.raises(ExtractionFailure):
        extract_rfold(host, 5, 4, ADDITIVE)
    emb = extract_growing_embedding(host, GrowthParams(4, 3))
    assert emb.sequence == (4, 256, 4 ** 16)
    assert verify_embedding(host, emb.sequence, emb.witness)
