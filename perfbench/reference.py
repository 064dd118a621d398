"""Independent references for the benchmark's outputs.

Nothing here imports esdec.  Predicates are kept in the benchmark's own
form, built by the generators in ``workloads``:

    ("atom", {(e1, e2): coeff, ...}, rel)    # sum coeff * x1^e1 * x2^e2  rel  0
    ("not", node) | ("and", a, b) | ("or", a, b)

and evaluated with exact ``Fraction`` arithmetic.  Each ``check_*``
function returns None when the output agrees with the reference and a
one-line reason otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

RELATIONS = ("<", "<=", ">", ">=", "=", "!=")
NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}


def rel_holds(value: Fraction, rel: str) -> bool:
    if rel == "<":
        return value < 0
    if rel == "<=":
        return value <= 0
    if rel == ">":
        return value > 0
    if rel == ">=":
        return value >= 0
    if rel == "=":
        return value == 0
    if rel == "!=":
        return value != 0
    raise ValueError(f"unknown relation {rel!r}")


def poly_value(poly: dict, x1: Fraction, x2: Fraction) -> Fraction:
    return sum((c * x1 ** e1 * x2 ** e2 for (e1, e2), c in poly.items()), Fraction(0))


def holds(node: tuple, x1: Fraction, x2: Fraction = Fraction(0)) -> bool:
    tag = node[0]
    if tag == "atom":
        return rel_holds(poly_value(node[1], x1, x2), node[2])
    if tag == "not":
        return not holds(node[1], x1, x2)
    if tag == "and":
        return holds(node[1], x1, x2) and holds(node[2], x1, x2)
    if tag == "or":
        return holds(node[1], x1, x2) or holds(node[2], x1, x2)
    raise ValueError(f"unknown node {tag!r}")


def arity(node: tuple) -> int:
    """Highest variable index used (1 or 2)."""
    if node[0] == "atom":
        return 2 if any(e2 for (_, e2) in node[1]) else 1
    return max(arity(child) for child in node[1:])


def holds_on_all_pairs(node: tuple, seq: list, k: int) -> bool | None:
    """True / False when the predicate holds on every / no increasing
    k-tuple of ``seq`` (k = 1 or 2); None when mixed."""
    seen = {holds(node, *tup) for tup in combinations(seq, k)}
    if len(seen) == 2:
        return None
    return seen.pop() if seen else True


# -- decide --------------------------------------------------------------


def _unary_points(atom: tuple) -> list:
    """The root of a linear atom in one variable and a point on each side:
    together they show every sign the form takes."""
    poly = atom[1]
    a = sum(c for (e1, e2), c in poly.items() if e1 + e2 == 1)
    root = -poly.get((0, 0), Fraction(0)) / a
    return [root - 1, root, root + 1]


def expected_singleton(pred: dict) -> str:
    """Exact answer for {P} in each of the generator's families.

    A set {P} is NO iff arbitrarily long sequences exist on which P
    fails on every increasing tuple (by Ramsey's theorem the other
    colour class is then the only source of homogeneous subsequences).

    * ``diff``: linear P in x1 - x2 with no constant term, so P depends
      only on the order of x1 and x2.  Constant, increasing and
      decreasing sequences realise each order on all pairs: NO iff P
      fails at one of x1 = x2, x1 < x2, x1 > x2.
    * ``unary``: linear P in one variable.  A long sequence inside the
      set where P fails exists iff that set is nonempty.
    * ``deg2``: the generator guarantees a constant t with P(t, t)
      false; the constant sequence t, t, ... is then a counterexample.
    """
    node, family = pred["node"], pred["family"]
    if family == "diff":
        one, zero = Fraction(1), Fraction(0)
        fails = [not holds(node, a, b) for a, b in ((zero, zero), (zero, one), (one, zero))]
        return "NO" if any(fails) else "YES"
    if family == "unary":
        return "NO" if any(not holds(node, x, x) for x in _unary_points(node)) else "YES"
    if family == "deg2":
        t = pred["false_at"]
        if holds(node, t, t):
            raise ValueError("generator promised P(t, t) false")
        return "NO"
    raise ValueError(f"no reference for family {family!r}")


def witness_sequence(kind: str, A: Fraction, B: Fraction, b: list, orientation: str) -> list:
    """The concrete sequence A + B*b (F1) or A + B/b (F2), reversed when
    the certificate's orientation is descending."""
    vals = [A + B * x if kind == "F1" else A + B / x for x in b]
    return vals if orientation == "ascending" else vals[::-1]


def check_no_witness(members: list, kind: str, A: Fraction, B: Fraction, b: list,
                     orientation: str) -> str | None:
    """Every member must be false on every increasing tuple of the
    concrete witness sequence."""
    if kind == "F2" and any(x == 0 for x in b):
        return "witness divides by zero"
    seq = witness_sequence(kind, A, B, b, orientation)
    k = max(arity(m) for m in members)
    for i, node in enumerate(members):
        for tup in combinations(seq, k):
            if holds(node, *tup):
                return f"member {i} holds on a tuple of the NO witness"
    return None


def check_decide(expected: str, members: list, answer: str,
                 witness: tuple | None) -> str | None:
    """``witness`` is (kind, A, B, b, orientation) for NO answers that
    carry one.  UNDECIDED never fails; a definite answer must match the
    expected one, and a NO witness must be a real counterexample."""
    if answer == "UNDECIDED":
        return None
    if answer != expected:
        return f"answered {answer}, reference says {expected}"
    if answer == "NO" and witness is not None:
        return check_no_witness(members, *witness)
    return None


# -- qe ------------------------------------------------------------------


def growth_gap_truth(constraints: frozenset) -> bool:
    """Truth of the growth-gap sentence over two affine forms u, v whose
    linear part is invertible, so (u, v) ranges over all of R^2 and only
    the magnitudes |u|, |v| matter.  D(p, q) is |p| <= L|q| (L chosen
    after R), G(p, q) is |p| >= H|q| for every H.  The sentence is false
    exactly when one ordered pair is both dwarfed and gigantic (H <= L
    for all H), or both orders are gigantic (H^2 <= 1 for all H)."""
    for p, q in (("u", "v"), ("v", "u")):
        if ("D", p, q) in constraints and ("G", p, q) in constraints:
            return False
    return not (("G", "u", "v") in constraints and ("G", "v", "u") in constraints)


def check_qe(expected: bool, got) -> str | None:
    if got is not expected:
        return f"decided {got!r}, reference says {expected}"
    return None


# -- extract -------------------------------------------------------------


def check_embedding(host: list, R: int, n: int, kind: str, A: Fraction, B: Fraction,
                    orientation: str, index_map: tuple, b: tuple) -> str | None:
    """Recompute the witness map from the host and the growth of b."""
    if len(b) != n or len(index_map) != n:
        return f"witness has {len(b)} terms, wanted {n}"
    if any(j <= i for i, j in zip(index_map, index_map[1:])):
        return "index map is not strictly increasing"
    if any(not 0 <= i < len(host) for i in index_map):
        return "index map leaves the host"
    if b[0] < R or any(b[i + 1] < b[i] ** R for i in range(n - 1)):
        return "b is not R-growing"
    used = list(b) if orientation == "forward" else list(b)[::-1]
    for pos, x in zip(index_map, used):
        if kind == "F2" and x == 0:
            return "witness divides by zero"
        image = A + B * x if kind == "F1" else A + B / x
        if image != host[pos]:
            return f"host[{pos}] differs from the transformed term"
    return None


def check_homogeneous(host: list, members: list, n: int, indices: tuple, values: tuple,
                      verdicts: dict) -> str | None:
    """Each member must hold on all or on no increasing tuple of the
    returned subsequence, and the reported verdicts must say which."""
    if len(indices) != n or any(j <= i for i, j in zip(indices, indices[1:])):
        return "indices are not n strictly increasing positions"
    if any(not 0 <= i < len(host) for i in indices):
        return "indices leave the host"
    if [host[i] for i in indices] != list(values):
        return "values differ from the host"
    k = max(arity(m) for m in members)
    for i, node in enumerate(members):
        status = holds_on_all_pairs(node, list(values), k)
        if status is None:
            return f"member {i} is mixed on the subsequence"
        want = "everywhere" if status else "nowhere"
        if verdicts.get(i) != want:
            return f"member {i} reported {verdicts.get(i)!r}, reference says {want}"
    return None


def erdos_szekeres(n: int) -> int:
    """Least N with an n-term monotone subsequence in every N reals."""
    return (n - 1) ** 2 + 1


def check_bruteforce(n: int, value) -> str | None:
    if value != erdos_szekeres(n):
        return f"value {value!r}, reference says {erdos_szekeres(n)}"
    return None
