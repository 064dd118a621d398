import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from esdec.corpus import (
    CorpusSpec, cross_ratio, crossratio_family, generate,
    growth_homogeneous_subsequences, growth_tuple_ok,
)
from esdec.errors import DegenerateCrossRatioError
from esdec.predicates import eval_at

F = Fraction


def test_cross_ratio_value():
    assert cross_ratio(1, 2, 3, 4) == F(4, 3)
    with pytest.raises(DegenerateCrossRatioError):
        cross_ratio(1, 2, 2, 4)
    with pytest.raises(DegenerateCrossRatioError):
        cross_ratio(5, 2, 3, 5)


def test_cross_ratio_projective_invariance():
    rng = random.Random(31)
    for _ in range(200):
        zs = []
        while len(set(zs)) != 4:
            zs = [F(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(4)]
        A = F(rng.randint(-9, 9), rng.randint(1, 4))
        B = F(0)
        while B == 0:
            B = F(rng.randint(-9, 9), rng.randint(1, 4))
        base = cross_ratio(*zs)
        assert cross_ratio(*(A + B * z for z in zs)) == base
        if all(z != 0 for z in zs):
            assert cross_ratio(*(A + B / z for z in zs)) == base


def test_family_shape():
    fam = crossratio_family()
    assert fam.arity == 5
    assert len(fam.members) == 3
    assert eval_at(fam.members[0].padded(5), (F(5), F(5), F(1), F(2), F(3)))


def test_growth_member_matches_fast_checker():
    fam = crossratio_family()
    grow = fam.members[1]
    rng = random.Random(7)
    for _ in range(300):
        tup = tuple(rng.randint(1, 40) for _ in range(5))
        want = eval_at(grow, tuple(F(t) for t in tup))
        assert want == growth_tuple_ok(*tup), tup


def test_growth_reversal_member():
    fam = crossratio_family()
    rev = fam.members[2]
    rng = random.Random(9)
    for _ in range(100):
        tup = tuple(rng.randint(1, 30) for _ in range(5))
        assert eval_at(rev, tuple(F(t) for t in tup)) == growth_tuple_ok(*reversed(tup))


def test_growth_member_satisfiable_instances():
    # cross-ratios anchored at (c1, c2, c3) approach (c3-c1)/(c3-c2), so
    # long chains need a huge first gap and a tiny second one; this
    # 5-tuple passes both squared conditions exactly
    assert growth_tuple_ok(1, 99, 100, 103, 117)
    assert cross_ratio(1, 99, 100, 103) == F(396, 102)
    # and the chain bound is what homogeneity buys
    assert abs(cross_ratio(1, 99, 100, 103)) >= 2
    assert abs(cross_ratio(1, 99, 100, 117)) >= cross_ratio(1, 99, 100, 103) ** 2


def test_homogeneous_enumeration_small():
    vals = list(range(1, 9))  # integers(8)
    seen = set(growth_homogeneous_subsequences(vals))
    # downward closure + brute-force cross-check on all <=5-subsets
    for m in range(1, 6):
        for sub in combinations(range(8), m):
            ok = all(
                growth_tuple_ok(*(vals[i] for i in quint))
                for quint in combinations(sub, 5)
            )
            assert (sub in seen) == ok, sub


def test_chain_bound_on_integers():
    for N in (8, 16):
        vals = list(range(1, N + 1))
        for idx in growth_homogeneous_subsequences(vals):
            if len(idx) < 5:
                continue
            c = [vals[i] for i in idx]
            assert abs(cross_ratio(c[0], c[1], c[2], c[3])) >= 2
            for i in range(3, len(c) - 1):
                assert abs(cross_ratio(c[0], c[1], c[2], c[i + 1])) >= \
                    cross_ratio(c[0], c[1], c[2], c[i]) ** 2
            n = len(c)
            assert abs(cross_ratio(c[0], c[1], c[2], c[-1])) >= 2 ** (2 ** (n - 4))


def test_generate_families():
    assert generate(CorpusSpec("integers", 5)) == [1, 2, 3, 4, 5]
    assert generate(CorpusSpec("shifted_reciprocal", 3, A=F(3), B=F(1))) == [4, F(7, 2), F(10, 3)]
    assert generate(CorpusSpec("geometric", 3, A=F(4), ratio=F(4))) == [4, 16, 64]
    assert generate(CorpusSpec("arithmetic", 4, A=F(1), step=F(1, 2)))[-1] == F(5, 2)
    assert generate(CorpusSpec("growing", 3, R=4)) == [4, 256, 4 ** 16]


def test_homogeneous_lengths_monotone_in_N():
    best = 0
    for N in (8, 12, 16):
        vals = list(range(1, N + 1))
        longest = max(len(t) for t in growth_homogeneous_subsequences(vals))
        assert longest >= best
        best = longest
