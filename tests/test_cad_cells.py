"""The decomposition's cells as data: the sign vectors and sample points
sign_vectors hands out, and the sorted, deduplicated roots each level's cells are
cut from."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from esdec.algebra import TransformKind
from esdec.errors import ResourceLimitError
from esdec.feasibility import _REL_OF_SIGN
from esdec.poly import MultiPoly
from esdec.predicates import And, Atom, parse
from esdec.qe import QeBudget, Sentence, decide_sentence, isolate_real_roots, sign_vectors
from esdec.qe import cad
from esdec.qe.cad import _merge_roots
from esdec.qe.roots import sign_at_point
from esdec.typesys import build_Q


def _nonconstant_coefficients(Q) -> list:
    out: dict = {}
    for entry in Q.entries:
        for c in entry.decomp.coeffs.values():
            if c.constant_value() is None:
                out.setdefault(c, None)
    return list(out)


@pytest.mark.parametrize("text", [
    "x1^2 - 2 > 0", "x1*x2 > 1", "x1^2 + x2 - 3 >= 0", "x1 + 2*x2 != 0",
])
@pytest.mark.parametrize("kind", list(TransformKind))
def test_sign_vectors_are_the_realizable_sign_patterns(text, kind):
    """Every sign pattern of Q's nonconstant coefficients is among the
    vectors exactly when "exists X. exists Y." of it holds; X^2 - 2 puts
    irrational section samples into the walk."""
    polys = _nonconstant_coefficients(build_Q(parse(text), kind))
    assert 1 <= len(polys) <= 4
    vectors = {v for v, _point in sign_vectors(polys, ("X", "Y"), QeBudget())}
    for pattern in product((-1, 0, 1), repeat=len(polys)):
        atoms = tuple(Atom(p.drop_unused(), _REL_OF_SIGN[s]) for p, s in zip(polys, pattern))
        matrix = And(atoms) if len(atoms) > 1 else atoms[0]
        want = decide_sentence(Sentence((("exists", "X"), ("exists", "Y")), matrix))
        assert (pattern in vectors) == want, (text, kind, pattern)


def test_sign_vectors_charge_the_cell_budget():
    polys = _nonconstant_coefficients(build_Q(parse("x1^2 - 2 > 0"), TransformKind.F1))
    with pytest.raises(ResourceLimitError, match="cell budget 3 exhausted"):
        list(sign_vectors(polys, ("X", "Y"), QeBudget(max_cells=3)))


def test_sign_vectors_read_a_zero_polynomial_as_zero():
    """Every polynomial gets an entry, the zero polynomial too, whatever
    variables it declares."""
    X = MultiPoly.var("X")
    polys = [X, MultiPoly.zero(("X",)), MultiPoly.zero()]
    cells = list(sign_vectors(polys, ("X", "Y"), QeBudget()))
    assert {v for v, _point in cells} == {(-1, 0, 0), (0, 0, 0), (1, 0, 0)}
    for v, point in cells:
        assert v == tuple(sign_at_point(q, point) for q in polys)


def test_sign_vectors_walk_lazily(monkeypatch):
    """A walk stopped after its first cell has charged fewer cells than
    the whole walk, and each vector is the signs at its own sample."""
    charged = []
    charge = cad._Decider._charge_cell

    def counting(self, level):
        charged.append(level)
        return charge(self, level)

    monkeypatch.setattr(cad._Decider, "_charge_cell", counting)
    polys = _nonconstant_coefficients(build_Q(parse("x1*x2 > 1"), TransformKind.F1))
    walk = sign_vectors(polys, ("X", "Y"), QeBudget())
    vector, point = next(walk)
    first = len(charged)
    walk.close()
    cells = list(sign_vectors(polys, ("X", "Y"), QeBudget()))
    full = len(charged) - first
    assert 0 < first < full
    assert full > len(cells)  # the level-1 cells are charged too
    assert cells[0][0] == vector
    for v, p in cells:
        assert v == tuple(sign_at_point(q, p) for q in polys)


def _insertion_merge(groups: list) -> list:
    """_merge_roots before it sorted: each root is inserted before the
    first larger one, unless an equal one is already there."""
    merged: list = []
    for root in (r for grp in groups for r in grp):
        placed = False
        for i, existing in enumerate(merged):
            c = root.compare(existing)
            if c == 0:
                placed = True
                break
            if c < 0:
                merged.insert(i, root)
                placed = True
                break
        if not placed:
            merged.append(root)
    return merged


_x = MultiPoly.var("x", ("x",))
# factors with shared, rational and irrational roots: +-1, 0, 1/2, +-sqrt(2), 2
_FACTORS = (_x - 1, _x + 1, _x, 2 * _x - 1, _x * _x - 2, _x - 2, _x * _x - _x - 1)


@given(st.lists(st.lists(st.sampled_from(range(len(_FACTORS))), min_size=1, max_size=3),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_merge_roots_keeps_the_insertion_merge(factor_lists):
    """The stable sort keeps the same root objects, in the same order,
    as the insertion merge it replaced."""
    groups = []
    for factors in factor_lists:
        p = MultiPoly.const(1, ("x",))
        for i in factors:
            p = p * _FACTORS[i]
        groups.append(isolate_real_roots(p))
    want = _insertion_merge(groups)
    got = _merge_roots(groups)
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))
