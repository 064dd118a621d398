"""The golden sentence suite: analytically known truth values covering
1-5 variables, quantifier alternations, equalities, and both strict and
non-strict inequalities.  Also the growth-gap sentences of the
benchmark's qe workload, whose truth follows from their pattern."""

from itertools import product

GOLDEN_SENTENCES = [
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
]

assert len(GOLDEN_SENTENCES) == 25


# growth-gap sentences in the benchmark's style: two forms u, v in x, y
# with an invertible linear part in {-1, 0, 1}, seeded nonzero signs, and
# one of eight dwarfed (D) / gigantic (G) patterns over the ordered pairs
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
LINEAR_PARTS = tuple(m for m in product((-1, 0, 1), repeat=4) if m[0] * m[3] != m[1] * m[2])


def growth_gap_truth(pattern) -> bool:
    """False exactly when one ordered pair is both dwarfed and gigantic
    (H <= L for every H), or both orders are gigantic (H^2 <= 1)."""
    for p, q in (("u", "v"), ("v", "u")):
        if ("D", p, q) in pattern and ("G", p, q) in pattern:
            return False
    return not (("G", "u", "v") in pattern and ("G", "v", "u") in pattern)


def growth_gap_atoms(pattern, linear, signs) -> list:
    """The sign atoms of u and v and the pattern's bounds, in x, y, l, h."""
    a1, b1, a2, b2 = linear
    forms = {"u": f"({a1}*x + {b1}*y)", "v": f"({a2}*x + {b2}*y)"}
    signed = {k: f if signs[k] > 0 else f"(-{f})" for k, f in forms.items()}
    atoms = [f"{forms[k]} {'>' if signs[k] > 0 else '<'} 0" for k in ("u", "v")]
    for kind, p, q in pattern:
        bound = "l" if kind == "D" else "h"
        atoms.append(f"{signed[p]} {'<=' if kind == 'D' else '>='} {bound}*{signed[q]}")
    return atoms
