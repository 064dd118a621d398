"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Expected wall time is a few minutes in total.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from esdec.algebra import (
    TransformKind, lex_sign_on_growing, sufficient_R,
)
from esdec.corpus import (
    cross_ratio, crossratio_family, growth_homogeneous_subsequences,
    growth_tuple_ok,
)
from esdec.decider import NO, YES, decide_es, es_bruteforce
from esdec.errors import ExtractionFailure
from esdec.feasibility import (
    FEASIBLE, INFEASIBLE, FeasibilityInstance, is_feasible, witness_search,
)
from esdec.poly import MultiPoly
from esdec.predicates import (
    atoms_of, eval_at, holds_everywhere, negate, parse, parse_predicate,
    symmetrize_single,
)
from esdec.qe import decide_sentence, parse_sentence, sentence_negate
from esdec.ramsey import (
    GrowthParams, apply_transform, canonical_growing, check_ddc,
    check_ddc_triples, ddc_guarantee_length, extract_ddc,
    extract_growing_embedding, is_R_growing, verify_embedding,
)
from esdec.typesys import CandidateType, build_Q, compute_type, \
    enumerate_types, eval_predicates_from_type

from golden import GOLDEN_SENTENCES

F = Fraction


def test_criterion_1_decision_correctness():
    cases = [
        ("x1 < x2 ; x1 >= x2", YES),
        ("x1 = x2 ; x1 != x2", YES),
        ("x1 < x2", NO),
        ("x1 >= x2", NO),
        ("x1 = x2", NO),
    ]
    for text, want in cases:
        t0 = time.monotonic()
        verdict = decide_es(parse(text))
        elapsed = time.monotonic() - t0
        assert verdict.answer == want, text
        assert elapsed < 300, (text, elapsed)
        if want == NO:
            assert verdict.witness is not None, text
    print("criterion 1: PASS — decide answers YES/YES/NO/NO/NO, each under 5 minutes")


def test_criterion_2_exact_ramsey_value():
    mono = parse("x1 < x2 ; x1 >= x2")
    t0 = time.monotonic()
    got = es_bruteforce(mono, 3, 6)
    elapsed = time.monotonic() - t0
    assert got.value == 5
    assert elapsed < 10
    ce = got.counterexample
    assert ce is not None and len(ce) == 4
    seq = [F(level) for level in ce]
    for sub in combinations(seq, 3):
        assert not any(holds_everywhere(m, list(sub)) for m in mono.members)
    # lower side for n=4: the 3x3 block construction has no 4-term
    # monotone subsequence
    block = [F(v) for v in (3, 2, 1, 6, 5, 4, 9, 8, 7)]
    for sub in combinations(block, 4):
        assert not any(holds_everywhere(m, list(sub)) for m in mono.members)
    print(f"criterion 2: PASS — exact value 5 in {elapsed:.2f}s, "
          f"counterexample {ce} verified, 9-term block avoids 4-monotone")


def test_criterion_3_constructive_pipeline():
    R = 4
    successes = 0
    for n in (3, 4, 5, 6):
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
            successes += 1
    # adversarial noise: failures are reported, successes must verify
    rng = random.Random(99)
    reported = 0
    for _ in range(20):
        noise = [F(rng.randint(-1000, 1000), rng.randint(1, 9)) for _ in range(8)]
        try:
            emb = extract_growing_embedding(noise, GrowthParams(R, 6))
            assert is_R_growing(emb.sequence, R)
            assert verify_embedding(noise, emb.sequence, emb.witness)
        except ExtractionFailure as exc:
            assert exc.stage
            reported += 1
    print(f"criterion 3: PASS — {successes} corpus embeddings verified exactly; "
          f"{reported}/20 noise inputs reported as failures, zero fabricated")


def test_criterion_4_ddc_suite():
    # local form vs all-triples, exhaustive: increasing sequences with
    # values in 1..12, lengths up to 6
    checked = 0
    for m in range(2, 7):
        for vals in combinations(range(1, 13), m):
            assert check_ddc(vals) == check_ddc_triples(vals)
            checked += 1
    # proof-mode extraction on random increasing sequences
    rng = random.Random(424)
    from math import comb
    for trial in range(10_000):
        k = rng.randint(2, 5)
        l = rng.randint(2, 5)
        length = comb(k + l, k) + rng.randint(0, 3)
        cur = rng.randint(0, 9)
        vals = []
        for _ in range(length):
            vals.append(cur)
            cur += rng.randint(1, 12)
        got = extract_ddc(vals, k, l)
        want = k if got.direction == "forward" else l
        assert len(got.values) == want
        assert check_ddc_triples(got.normalized())
    print(f"criterion 4: PASS — local/all-triples agree on {checked} sequences; "
          f"10000 proof-mode extractions verified")


def _random_poly_c5(rng):
    k = rng.randint(1, 3)
    vars_ = tuple(f"x{i}" for i in range(1, k + 1))
    p = MultiPoly.zero(vars_)
    for _ in range(rng.randint(1, 6)):
        while True:
            mono = tuple(rng.randint(0, 3) for _ in range(k))
            if sum(mono) <= 3:
                break
        p = p + MultiPoly(vars_, {mono: F(rng.randint(-10, 10))})
    return p, k


def test_criterion_5_lex_sign_oracle():
    rng = random.Random(55)
    agreements = 0
    done = 0
    while done < 1000:
        p, k = _random_poly_c5(rng)
        if p.is_zero:
            continue
        done += 1
        R = sufficient_R(p)
        seq = canonical_growing(R, 5)
        want = lex_sign_on_growing(p)
        for tup in combinations(seq, k):
            val = p.evaluate({f"x{i}": t for i, t in enumerate(tup, start=1)})
            got = 0 if val == 0 else (1 if val > 0 else -1)
            assert got == want, (p.to_text(), R)
        agreements += 1
    assert agreements == 1000
    print("criterion 5: PASS — 1000/1000 lex-sign oracle agreements")


_C6_SETS = (
    "x1 < x2 ; x1 >= x2",
    "x1*x2 > 0",
    "x1 = x2 ; x1 != x2",
    "x1 + x2 < 1 or x1 > 2",
    "x1^2 - x2 = 0",
    "x1 > 0",
    "x1 <= x2 and x2 <= x1",
)


def _fit_instance(rng, pset, kind):
    """Choose (A, B, b, R) with b well-placed for Q(pset, kind); tries a
    split keeping the large ratios gigantic before the all-dwarfed fit."""
    Q = build_Q(pset, kind)
    max_deg = max((max(sum(a) for a in e.decomp.support) for e in Q.entries
                   if e.decomp.support), default=1)
    max_terms = max((len(e.decomp.support) for e in Q.entries), default=1)
    R = max(4, 2 * (max_deg + 1), max_terms + 2)
    for m in pset.members:
        for atom in atoms_of(m.root):
            R = max(R, sufficient_R(atom.poly))
    big = F(R) ** (R ** 3 + 6)  # just above b3^R when b1 = R
    pool = [F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-1, 2),
            big, -big, 1 / big]
    rng.shuffle(pool)
    pairs = [(a, b) for a in pool for b in pool]
    rng.shuffle(pairs)
    cap = F(R) ** (R ** 3 + 30)  # keep the exact arithmetic tractable
    for A, B in pairs:
        point = {"X": A, "Y": B}
        ratios = set()
        for e in Q.entries:
            vals = {al: c.evaluate(point) for al, c in e.decomp.coeffs.items()}
            nz = [abs(v) for v in vals.values() if v != 0]
            for va in nz:
                for vb in nz:
                    ratios.add(va / vb)
        ordered = sorted(ratios)
        starts = []
        if len(ordered) > 1:
            gap_at = max(range(len(ordered) - 1),
                         key=lambda i: ordered[i + 1] / ordered[i])
            starts.append(max(F(R), R * ordered[gap_at]))
        starts.append(max(F(R), R * ordered[-1]) if ordered else F(R))
        for start in starts:
            if start > cap:
                continue
            b = canonical_growing(R, 3, start=start)
            typ = compute_type(Q, A, B, b, R)
            if isinstance(typ, CandidateType):
                return Q, A, B, b, R, typ
    return None


def test_criterion_6_type_bridge():
    rng = random.Random(66)
    sets = [parse(t) for t in _C6_SETS]
    done = 0
    while done < 500:
        pset = rng.choice(sets)
        kind = rng.choice(list(TransformKind))
        fit = _fit_instance(rng, pset, kind)
        assert fit is not None
        Q, A, B, b, R, typ = fit
        done += 1
        c = [apply_transform(kind, x, A, B) for x in b]
        for orientation, seq in (("ascending", c), ("descending", list(reversed(c)))):
            want = {}
            for i, m in enumerate(pset.members):
                if holds_everywhere(m, seq):
                    want[i] = "everywhere"
                else:
                    assert holds_everywhere(negate(m), seq), \
                        "instance not homogeneous: R too small"
                    want[i] = "nowhere"
            got = eval_predicates_from_type(pset, Q, typ, orientation)
            assert got == want, (pset.to_text(), kind, A, B, orientation)
    print("criterion 6: PASS — 500/500 type-based evaluations match brute force")


def test_criterion_7_feasibility():
    X = MultiPoly.var("X", ("X", "Y"))
    Y = MultiPoly.var("Y", ("X", "Y"))
    pos_def = FeasibilityInstance(
        sign_constraints=((X ** 2 + Y ** 2 + 1, -1),), dwarfed=(), gigantic=())
    assert is_feasible(pos_def) == INFEASIBLE

    both_d = FeasibilityInstance(
        sign_constraints=((X, 1), (Y, 1)),
        dwarfed=((X, 1, Y, 1), (Y, 1, X, 1)), gigantic=())
    assert is_feasible(both_d) == FEASIBLE
    g_d = FeasibilityInstance(
        sign_constraints=((X, 1), (Y, 1)),
        dwarfed=((Y, 1, X, 1),), gigantic=((X, 1, Y, 1),))
    assert is_feasible(g_d) == FEASIBLE

    # one-sided soundness across every candidate type of the criterion-1 sets
    crit1 = ["x1 < x2 ; x1 >= x2", "x1 = x2 ; x1 != x2", "x1 < x2",
             "x1 >= x2", "x1 = x2"]
    checked = witnesses = 0
    for text in crit1:
        pset = parse(text)
        for kind in TransformKind:
            Q = build_Q(pset, kind)
            for typ in enumerate_types(Q):
                inst = FeasibilityInstance.from_type(Q, typ)
                verdict = is_feasible(inst)
                got = witness_search(Q, typ, 4, 3)
                checked += 1
                if got is not None:
                    witnesses += 1
                    assert verdict != INFEASIBLE, (text, kind)
                    A, B, b = got
                    assert compute_type(Q, A, B, b, 4) == typ
    assert witnesses > 0
    print(f"criterion 7: PASS — definite instances decided; one-sided "
          f"soundness over {checked} types ({witnesses} witnesses found)")


def test_criterion_8_qe_golden_suite():
    worst = 0.0
    for text, expected in GOLDEN_SENTENCES:
        s = parse_sentence(text)
        t0 = time.monotonic()
        got = decide_sentence(s)
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        assert got == expected, text
        assert elapsed < 10, (text, elapsed)
        assert decide_sentence(sentence_negate(s)) == (not expected), text
    print(f"criterion 8: PASS — 25/25 sentences, negation-duality holds, "
          f"worst case {worst:.2f}s")


def test_criterion_9_cross_ratio():
    assert cross_ratio(1, 2, 3, 4) == F(4, 3)

    rng = random.Random(9)
    fam = crossratio_family()
    grow = fam.members[1]
    invariant_checks = 0
    for _ in range(1000):
        zs = []
        while len(set(zs)) != 4 or 0 in zs:
            zs = [F(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(4)]
        A = F(rng.randint(-9, 9), rng.randint(1, 4))
        B = F(0)
        while B == 0:
            B = F(rng.randint(-9, 9), rng.randint(1, 4))
        base = cross_ratio(*zs)
        assert cross_ratio(*(A + B * z for z in zs)) == base
        assert cross_ratio(*(A + B / z for z in zs)) == base
        invariant_checks += 1

    # fast tuple checker agrees with the predicate AST
    for _ in range(150):
        tup = tuple(rng.randint(1, 50) for _ in range(5))
        assert eval_at(grow, tuple(F(t) for t in tup)) == growth_tuple_ok(*tup)

    # chained doubly exponential growth on integer sequences
    longest_seen = {}
    for N in (8, 16, 32, 64):
        count = 0
        for idx in growth_homogeneous_subsequences(list(range(1, N + 1))):
            n = len(idx)
            longest_seen[N] = max(longest_seen.get(N, 0), n)
            if n < 5:
                continue
            c = [i + 1 for i in idx]
            count += 1
            assert abs(cross_ratio(c[0], c[1], c[2], c[3])) >= 2
            for i in range(3, n - 1):
                assert abs(cross_ratio(c[0], c[1], c[2], c[i + 1])) >= \
                    cross_ratio(c[0], c[1], c[2], c[i]) ** 2
            assert abs(cross_ratio(c[0], c[1], c[2], c[n - 1])) >= \
                2 ** (2 ** (n - 4))
    assert all(longest_seen[a] <= longest_seen[b]
               for a, b in ((8, 16), (16, 32), (32, 64)))
    print(f"criterion 9: PASS — (1,2;3,4) = 4/3; {invariant_checks} invariance "
          f"checks; chained bound verified, longest homogeneous {longest_seen}")


def test_criterion_10_single_predicate_equivalence():
    pset = parse("x1 < x2 ; x1 >= x2")  # r = 2, k = 2
    bar = symmetrize_single(pset)
    assert bar.arity == 4
    grid = (F(0), F(1, 2), F(2))
    total = 0
    for n in (4, 5, 6):
        for seq in product(grid, repeat=n):
            lhs = holds_everywhere(bar, seq)
            rhs = any(holds_everywhere(m, seq) for m in pset.members)
            assert lhs == rhs, seq
            total += 1
    print(f"criterion 10: PASS — equivalence verified on {total} grid sequences")
