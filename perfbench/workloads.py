"""Seeded input generators for the three workloads.

Nothing here imports esdec: the generators produce text (predicate
sets, sentences) and Fractions (host sequences), plus the reference
facts each op is checked against.  The same seed always gives the same
ops.  Every workload is a list of rounds; each round has a fixed
composition of op classes and only the drawn coefficients change, so
rate and latency percentiles compare across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from reference import (
    NEGATED, RELATIONS, erdos_szekeres, expected_singleton, growth_gap_truth, holds,
)

WORKLOADS = ("decide", "qe", "extract")


@dataclass
class Op:
    kind: str  # decide | qe | embed | homog | bruteforce
    label: str  # op class, for the per-class breakdown
    text: str = ""  # predicate set or sentence text handed to esdec
    expect: object = None  # expected answer; extractions are checked structurally
    members: list = field(default_factory=list)  # benchmark-side predicates
    host: list = field(default_factory=list)  # Fractions
    params: dict = field(default_factory=dict)


# -- predicate text ---------------------------------------------------------


def _mono_text(e1: int, e2: int) -> str:
    parts = []
    for name, e in (("x1", e1), ("x2", e2)):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_text(poly: dict) -> str:
    out = []
    for (e1, e2), c in sorted(poly.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), kv[0])):
        if c == 0:
            continue
        mono = _mono_text(e1, e2)
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        if c < 0:
            out.append(f"- {body}" if out else f"-{body}")
        else:
            out.append(f"+ {body}" if out else body)
    return " ".join(out) if out else "0"


def node_text(node: tuple) -> str:
    tag = node[0]
    if tag == "atom":
        return f"{poly_text(node[1])} {node[2]} 0"
    if tag == "not":
        return f"not ({node_text(node[1])})"
    return f"({node_text(node[1])}) {tag} ({node_text(node[2])})"


def negation(node: tuple) -> tuple:
    if node[0] == "atom":
        return ("atom", node[1], NEGATED[node[2]])
    return ("not", node)


# -- decide -----------------------------------------------------------------


# relation classes: a set {P ; not P} is the same up to member order and
# the sign of the form within a class, so its cost depends on the class
REL_CLASSES = {"lt": ("<", ">="), "le": ("<=", ">"), "eq": ("=", "!=")}


def _diff_atom(rng: random.Random, scale: int, sign: int, rel_class: str) -> tuple:
    """a*x1 - a*x2 rel 0 with a = sign * scale: depends only on the order
    of x1 and x2."""
    a = Fraction(sign * scale)
    return ("atom", {(1, 0): a, (0, 1): -a}, rng.choice(REL_CLASSES[rel_class]))


def _diff_bool(rng: random.Random, scale: int) -> tuple:
    """A Boolean combination of two order atoms over one linear form, drawn
    again until neither it nor its negation always holds (a YES singleton
    costs as much as a pair, which would change the round's cost mix)."""
    a = Fraction(scale * rng.choice((1, -1)))
    poly = {(1, 0): a, (0, 1): -a}
    while True:
        r1, r2 = rng.sample(RELATIONS, 2)
        left, right = ("atom", poly, r1), ("atom", dict(poly), r2)
        if rng.random() < 0.5:
            right = ("not", right)
        node = (rng.choice(("and", "or")), left, right)
        both = [{"node": n, "family": "diff"} for n in (node, ("not", node))]
        if all(expected_singleton(pred) == "NO" for pred in both):
            return node


def _unary_atom(rng: random.Random) -> tuple:
    """x1 + c rel 0 or -x1 + c rel 0 with |c| = 2 and rel in {<, >=}.  The
    pair costs seconds, so its shape is the same in every round, whatever
    the seed or the number of rounds a run completes; the signs and the
    member of the relation class are drawn."""
    a = Fraction(rng.choice((1, -1)))
    c = Fraction(2 * rng.choice((1, -1)))
    return ("atom", {(1, 0): a, (0, 0): c}, rng.choice(REL_CLASSES["lt"]))


# (degree-2 monomial, linear monomial): both variables always appear, so
# the coefficient system's per-entry type bound exceeds esdec's cap
# (univariate quadratics instead run for minutes)
_DEG2_SHAPES = (((2, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (1, 0)), ((1, 1), (0, 1)))
_T_CANDIDATES = tuple(Fraction(t) for t in range(-6, 7))


def _deg2_atom(rng: random.Random) -> tuple:
    """A degree-2 atom P with constants t, s on which P(t, t) is false and
    P(s, s) is true, so both {P} and {not P} have a constant counterexample."""
    while True:
        quad, lin = rng.choice(_DEG2_SHAPES)
        poly = {quad: Fraction(rng.choice((1, 2, -1, -2))),
                lin: Fraction(rng.choice((1, 2, 3, -1, -2, -3))),
                (0, 0): Fraction(rng.randint(-4, 4))}
        node = ("atom", poly, rng.choice(RELATIONS))
        false_at = next((t for t in _T_CANDIDATES if not holds(node, t, t)), None)
        true_at = next((t for t in _T_CANDIDATES if holds(node, t, t)), None)
        if false_at is not None and true_at is not None:
            return node, false_at, true_at


# one round: (family, coefficient scale, sign, relation class) per atom.  Op
# costs depend on these, so every round has the same multiset and only the
# member of each relation class, the Boolean shapes, the unary signs, the
# degree-2 atoms and the order of ops are drawn.  Every atom P emits {P},
# {not P} and {P ; not P}.
DECIDE_ROUND = (
    ("diff", 1, 1, "lt"), ("diff", 1, -1, "le"), ("diff", 2, 1, "eq"), ("diff", 2, -1, "lt"),
    ("diff", 3, 1, "le"), ("diff", 3, -1, "eq"), ("diff", 5, 1, "lt"), ("diff", 5, -1, "le"),
    ("bool", 1, None, None), ("bool", 2, None, None),
    ("unary", 1, None, None),
    ("deg2", 1, None, None), ("deg2", 1, None, None), ("deg2", 1, None, None),
    ("deg2", 1, None, None),
)


def _decide_atom(rng: random.Random, family: str, scale: int, sign, rel_class) -> dict:
    if family == "diff":
        return {"node": _diff_atom(rng, scale, sign, rel_class), "family": "diff"}
    if family == "bool":
        return {"node": _diff_bool(rng, scale), "family": "diff"}
    if family == "unary":
        return {"node": _unary_atom(rng), "family": "unary"}
    node, false_at, true_at = _deg2_atom(rng)
    return {"node": node, "family": "deg2", "false_at": false_at, "true_at": true_at}


def decide_round(rng: random.Random) -> list:
    ops = []
    for label, *slot in DECIDE_ROUND:
        pred = _decide_atom(rng, label, *slot)
        neg = dict(pred, node=negation(pred["node"]), false_at=pred.get("true_at"))
        p_text, n_text = node_text(pred["node"]), node_text(neg["node"])
        ops.append(Op("decide", f"{label}.single", p_text, expected_singleton(pred),
                      [pred["node"]]))
        ops.append(Op("decide", f"{label}.single", n_text, expected_singleton(neg),
                      [neg["node"]]))
        # Ramsey's theorem for pairs: {P ; not P} is always YES
        ops.append(Op("decide", f"{label}.pair", f"{p_text} ; {n_text}", "YES",
                      [pred["node"], neg["node"]]))
    rng.shuffle(ops)
    return ops


# -- qe ---------------------------------------------------------------------


def _form_text(a: int, b: int) -> str:
    parts = [f"{coef}*{var}" for coef, var in ((a, "x"), (b, "y")) if coef]
    return "(" + " + ".join(parts).replace("+ -", "- ") + ")"


# constraint patterns of one qe round: each ordered pair is (kind, p, q)
GROWTH_PATTERNS = (
    (("D", "u", "v"),),
    (("G", "u", "v"),),
    (("D", "u", "v"), ("D", "v", "u")),
    (("D", "u", "v"), ("G", "v", "u")),
    (("G", "u", "v"), ("D", "v", "u")),
    (("D", "u", "v"), ("G", "u", "v")),
    (("G", "u", "v"), ("G", "v", "u")),
    (("D", "v", "u"), ("G", "v", "u")),
)


# every invertible linear part (a1, b1, a2, b2) with entries in {-1, 0, 1},
# in a fixed order; larger entries triple the spread of sentence costs
LINEAR_PARTS = tuple(m for m in product((-1, 0, 1), repeat=4) if m[0] * m[3] != m[1] * m[2])


def growth_gap_sentence(rng: random.Random, pattern: tuple, linear: tuple) -> tuple:
    """forall r exists l forall h exists x exists y over two forms u, v in
    x, y with the given invertible linear part and seeded nonzero signs.
    The forms have no constant term: constants push single sentences from
    about a second to beyond a minute."""
    a1, b1, a2, b2 = linear
    forms = {"u": _form_text(a1, b1), "v": _form_text(a2, b2)}
    signs = {"u": rng.choice((1, -1)), "v": rng.choice((1, -1))}
    signed = {k: (f if signs[k] > 0 else f"(-{f})") for k, f in forms.items()}
    atoms = ["l >= r"]
    atoms += [f"{forms[k]} {'>' if signs[k] > 0 else '<'} 0" for k in ("u", "v")]
    for kind, p, q in pattern:
        if kind == "D":
            atoms.append(f"{signed[p]} <= l*{signed[q]}")
        else:
            atoms.append(f"{signed[p]} >= h*{signed[q]}")
    text = "forall r. exists l. forall h. exists x. exists y. " + " and ".join(atoms)
    return text, growth_gap_truth(frozenset(pattern))


# the golden suite: sentences with analytically known truth values
GOLDEN = (
    ("exists x. x^2 - 2 = 0", True),
    ("forall x. x^2 + 1 > 0", True),
    ("forall x. exists y. y > x^2", True),
    ("exists y. forall x. y > x^2", False),
    ("forall x. exists y. y^3 = x", True),
    ("exists x. x^2 + 1 = 0", False),
    ("forall x. x^2 >= 0", True),
    ("exists x. x^3 - 2 = 0 and x > 1 and x < 2", True),
    ("forall x. forall y. x^2 + y^2 >= 2*x*y", True),
    ("exists x. exists y. x^2 + y^2 = 1 and x = y", True),
    ("forall x. exists y. x + y = 0", True),
    ("exists x. forall y. x*y = y", True),
    ("forall x. forall y. exists z. z > x and z > y", True),
    ("forall b. forall c. exists x. b^2 - 4*c < 0 or x^2 + b*x + c = 0", True),
    ("exists x. forall y. y^2 > x", True),
    ("forall x. exists y. y^2 = x or x < 0", True),
    ("exists b. forall a. b > a", False),
    ("forall a. exists b. forall c. exists d. d > c and b > a", True),
    ("exists x. x > 0 and x^2 = 2 and x^3 = 3", False),
    ("forall x. x != 0 or x = 0", True),
    ("exists x. exists y. x^2 + y^2 < 0", False),
    ("forall x. exists y. y < x and y^2 > x^2 + 1", True),
    ("forall x. x >= 1 or x < 1", True),
    ("forall a. exists b. forall c. exists d. exists e. e > d and d > c and b = a", True),
    ("forall a. forall b. exists c. c^2 = a^2*b^2", True),
)

GOLDEN_PER_ROUND = 1


def golden_ops(rng: random.Random) -> list:
    """The golden sentences and their negations (negated by esdec at set-up
    time; negation duality gives the expected truth), in seeded order."""
    ops = []
    for text, truth in GOLDEN:
        ops.append(Op("qe", "golden", text, truth))
        ops.append(Op("qe", "golden.neg", text, not truth, params={"negate": True}))
    rng.shuffle(ops)
    return ops


def qe_round(rng: random.Random, golden: list, index: int) -> list:
    """One sentence per growth pattern.  Pattern p in round r uses linear
    part (r + 6p) mod 48, the same for every seed, so sentence costs match
    across seeds and no sentence repeats within 48 rounds; the seed draws
    the signs and the golden order."""
    ops = []
    for p, pattern in enumerate(GROWTH_PATTERNS):
        linear = LINEAR_PARTS[(index + 6 * p) % len(LINEAR_PARTS)]
        text, truth = growth_gap_sentence(rng, pattern, linear)
        ops.append(Op("qe", "growth." + ("true" if truth else "false"), text, truth))
    start = index * GOLDEN_PER_ROUND
    ops += [golden[(start + i) % len(golden)] for i in range(GOLDEN_PER_ROUND)]
    rng.shuffle(ops)
    return ops


# -- extract ----------------------------------------------------------------

EMBED_R = 4
EMBED_BANDS = ((20, 45), (46, 70), (71, 95), (96, 120))
# linear arity-2 atoms P for extract_homogeneous on {P ; not P}, as
# ({(e1, e2): coeff}, rel); every one has sufficient R = 8 in esdec's rule
HOMOG_ATOMS = (
    ({(1, 0): 1, (0, 1): -1}, "<"),
    ({(1, 0): 1, (0, 1): -1, (0, 0): -1}, "<"),
    ({(1, 0): 2, (0, 1): -1}, ">"),
    ({(1, 0): 1, (0, 1): 1, (0, 0): -3}, ">"),
)
HOMOG_R = 8
BRUTE_SETS = (  # order-invariant sets with Ramsey value (n-1)^2 + 1
    "x1 < x2 ; x1 >= x2",
    "x2 > x1 ; x2 <= x1",
    "x1 > x2 ; x1 <= x2",
    "x1 - x2 < 0 ; x1 - x2 >= 0",
)
BRUTE_N = 3


def _noise(rng: random.Random, length: int) -> list:
    return [Fraction(rng.randint(-100, 100), rng.randint(1, 9)) for _ in range(length)]


def _growing(R: int, n: int, start: Fraction) -> list:
    b = [start]
    while len(b) < n:
        b.append(b[-1] ** R)
    return b


def embed_op(rng: random.Random, length: int, planted: bool, n: int) -> Op:
    host = _noise(rng, length)
    if planted:
        # n + 2 terms of A + B*b or A + B/b, either orientation, among noise
        m = n + 2
        b = _growing(EMBED_R, m, Fraction(rng.randint(EMBED_R, 9)))
        A = Fraction(rng.randint(-50, 50))
        B = Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1))
        kind = rng.choice(("F1", "F2"))
        vals = [A + B * x if kind == "F1" else A + B / x for x in b]
        if rng.random() < 0.5:
            vals.reverse()
        for pos, v in zip(sorted(rng.sample(range(length), m)), vals):
            host[pos] = v
    label = "embed." + ("planted" if planted else "noise")
    return Op("embed", label, host=host, params={"R": EMBED_R, "n": n})


def homog_op(rng: random.Random, exact: bool, noise_length: int) -> Op:
    poly, rel = rng.choice(HOMOG_ATOMS)
    atom = ("atom", {m: Fraction(c) for m, c in poly.items()}, rel)
    members = [atom, negation(atom)]
    n = 3
    if exact:
        # an exact transformed sequence growing at the set's sufficient R
        b = _growing(HOMOG_R, n + 3, Fraction(HOMOG_R + rng.randint(0, 3)))
        A = Fraction(rng.randint(-20, 20))
        B = Fraction(rng.randint(1, 5)) * rng.choice((1, -1))
        host = [A + B * x for x in b]
    else:
        host = _noise(rng, noise_length)
    label = "homog." + ("exact" if exact else "noise")
    text = " ; ".join(node_text(m) for m in members)
    return Op("homog", label, text, members=members, host=host, params={"n": n})


def extract_round(rng: random.Random, index: int) -> list:
    """One host per length band and kind.  Latency and success depend most
    on host length and n, so these follow the round index and the slot, the
    same for every seed (each band's lengths cycle in 26 rounds, n
    alternates); the seed draws the host values."""
    ops = []
    for slot, ((lo, hi), planted) in enumerate(product(EMBED_BANDS, (True, False))):
        length = lo + (7 * index + 13 * slot) % (hi - lo + 1)
        ops.append(embed_op(rng, length, planted, n=3 + (index + slot) % 2))
    for slot, exact in enumerate((True, True, False, False)):
        ops.append(homog_op(rng, exact, noise_length=10 + (7 * index + 11 * slot) % 21))
    # es_bruteforce is the slowest op; at 3 of the round's 15 ops, p90 falls in
    # the middle of its latencies instead of on the edge of the embedding tail
    for i in range(3 * index, 3 * index + 3):  # cycle through the spellings
        ops.append(Op("bruteforce", "bruteforce", BRUTE_SETS[i % len(BRUTE_SETS)],
                      erdos_szekeres(BRUTE_N), params={"n": BRUTE_N, "n_max": 6}))
    rng.shuffle(ops)
    return ops


# -- pools ------------------------------------------------------------------


def make_rounds(workload: str, seed: int, rounds: int) -> list:
    """``rounds`` rounds of ops for the workload; deterministic in seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "decide":
        return [decide_round(rng) for _ in range(rounds)]
    if workload == "extract":
        return [extract_round(rng, i) for i in range(rounds)]
    golden = golden_ops(rng)
    return [qe_round(rng, golden, i) for i in range(rounds)]
