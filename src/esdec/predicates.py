"""Semialgebraic predicates on tuples of reals, and sets of them.

A predicate is a Boolean combination of polynomial sign atoms
``p(x1..xk) rel 0``; a set is a nonempty ordered list of predicates,
padded to a common arity.  ``holds_everywhere`` quantifies a predicate
over all increasing index tuples of a sequence, which is the central
notion everything else in the package reduces to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Sequence

from .algebra import infer_arity
from .errors import ParseError, ResourceLimitError
from .parser import PolyParser, TokenStream, tokenize
from .poly import MultiPoly


@dataclass(frozen=True)
class Atom:
    poly: MultiPoly  # compared against 0
    rel: str  # = != < <= > >=


@dataclass(frozen=True)
class Not:
    child: object


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


Node = object  # Atom | Not | And | Or


def rel_holds(sign: int, rel: str) -> bool:
    if rel == "=":
        return sign == 0
    if rel == "!=":
        return sign != 0
    if rel == "<":
        return sign < 0
    if rel == "<=":
        return sign <= 0
    if rel == ">":
        return sign > 0
    if rel == ">=":
        return sign >= 0
    raise ValueError(f"unknown relation {rel!r}")


def eval_with(node: Node, atom_truth: Callable[[Atom], bool | None]) -> bool | None:
    """Evaluate a predicate tree given a truth assignment for atoms, in
    three-valued (Kleene) logic: ``atom_truth`` may read None for an atom
    it cannot decide, and the value is None when the known atoms leave it
    open.  With a total assignment it is the two-valued one."""
    if isinstance(node, Atom):
        return atom_truth(node)
    if isinstance(node, Not):
        sub = eval_with(node.child, atom_truth)
        return None if sub is None else not sub
    if not isinstance(node, (And, Or)):
        raise TypeError(f"not a predicate node: {node!r}")
    settling = isinstance(node, Or)  # a true disjunct, a false conjunct
    unknown = False
    for child in node.children:
        sub = eval_with(child, atom_truth)
        if sub is settling:
            return settling
        unknown = unknown or sub is None
    return None if unknown else not settling


def atoms_of(node: Node) -> list:
    if isinstance(node, Atom):
        return [node]
    if isinstance(node, Not):
        return atoms_of(node.child)
    if isinstance(node, (And, Or)):
        out = []
        for c in node.children:
            out.extend(atoms_of(c))
        return out
    raise TypeError(f"not a predicate node: {node!r}")


@dataclass(frozen=True)
class Predicate:
    """A k-ary semialgebraic predicate; ``arity`` >= every variable index."""

    root: Node
    arity: int

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        used = max((infer_arity(a.poly) for a in atoms_of(self.root)), default=0)
        if used > self.arity:
            raise ValueError(f"arity {self.arity} below highest variable index {used}")

    def padded(self, arity: int) -> "Predicate":
        if arity == self.arity:
            return self
        return Predicate(self.root, arity)

    def to_text(self) -> str:
        return _node_text(self.root, 0)


@dataclass(frozen=True)
class PredicateSet:
    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ValueError("predicate set must be nonempty")
        arity = max(m.arity for m in self.members)
        object.__setattr__(
            self, "members", tuple(m.padded(arity) for m in self.members)
        )

    @property
    def arity(self) -> int:
        return self.members[0].arity

    def to_text(self) -> str:
        return " ; ".join(m.to_text() for m in self.members)


# -- parsing ----------------------------------------------------------


class FormulaParser:
    """Boolean combinations of atoms.  ``resolve`` is handed to the
    PolyParser: the default reads x1, x2, ...; the sentence parser
    passes one that accepts its quantified names."""

    def __init__(self, stream: TokenStream, resolve=None):
        self.stream = stream
        self.polys = PolyParser(stream, resolve)

    def expect_end(self):
        tok = self.stream.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)

    def parse_set(self) -> PredicateSet:
        members = [self.parse_pred()]
        while self.stream.peek().text == ";":
            self.stream.next()
            members.append(self.parse_pred())
        self.expect_end()
        return PredicateSet(tuple(members))

    def parse_pred(self) -> Predicate:
        node = self.parse_disj()
        arity = max((infer_arity(a.poly) for a in atoms_of(node)), default=0)
        return Predicate(node, max(arity, 1))

    def parse_disj(self) -> Node:
        parts = [self.parse_conj()]
        while self.stream.peek().text == "or":
            self.stream.next()
            parts.append(self.parse_conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_conj(self) -> Node:
        parts = [self.parse_unary()]
        while self.stream.peek().text == "and":
            self.stream.next()
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self) -> Node:
        tok = self.stream.peek()
        if tok.text == "not":
            self.stream.next()
            return Not(self.parse_unary())
        if tok.text == "(":
            # could open a nested predicate or a parenthesized polynomial
            mark = self.stream.save()
            try:
                lhs_rel = self.polys.parse_atom_parts()
                return Atom(*lhs_rel)
            except ParseError:
                self.stream.restore(mark)
            self.stream.expect("(")
            inner = self.parse_disj()
            self.stream.expect(")")
            return inner
        poly, rel = self.polys.parse_atom_parts()
        return Atom(poly, rel)


def parse(text: str) -> PredicateSet:
    """Parse a semicolon-separated predicate set."""
    return FormulaParser(TokenStream(tokenize(text))).parse_set()


def parse_predicate(text: str) -> Predicate:
    ps = parse(text)
    if len(ps.members) != 1:
        raise ParseError("expected a single predicate")
    return ps.members[0]


# -- printing ---------------------------------------------------------

_PREC = {"or": 0, "and": 1, "unary": 2}


def _node_text(node: Node, parent_prec: int) -> str:
    if isinstance(node, Atom):
        return f"{node.poly.to_text()} {node.rel} 0"
    if isinstance(node, Not):
        return "not " + _wrap(_node_text(node.child, _PREC["unary"]), isinstance(node.child, (And, Or)))
    if isinstance(node, And):
        text = " and ".join(_node_text(c, _PREC["and"]) for c in node.children)
        return _wrap(text, parent_prec > _PREC["and"])
    if isinstance(node, Or):
        text = " or ".join(_node_text(c, _PREC["or"]) for c in node.children)
        return _wrap(text, parent_prec > _PREC["or"])
    raise TypeError(f"not a predicate node: {node!r}")


def _wrap(text: str, need: bool) -> str:
    return f"({text})" if need else text


# -- evaluation -------------------------------------------------------


def _exact(x):
    """x itself when it is an int or a Fraction, which MultiPoly.sign_at
    reads directly; else Fraction(x), which is exact for floats and
    decimal strings."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _named(point: Sequence[Fraction]) -> dict:
    """The point as the mapping x_i -> point[i-1] that MultiPoly.sign_at reads."""
    return {f"x{i}": x for i, x in enumerate(point, 1)}


def atom_sign(atom: Atom, point: Sequence[Fraction]) -> int:
    """Sign of the atom's polynomial with x_i = point[i-1].  Only the
    variables it uses are read: a cancelled variable may lie beyond the
    arity, which counts used variables only."""
    return atom.poly.sign_at(_named(point))


def _holds(pred: Predicate, named: dict) -> bool:
    """eval_at at a point already checked, converted and named (_named)."""
    return eval_with(pred.root, lambda a: rel_holds(a.poly.sign_at(named), a.rel))


def eval_at(pred: Predicate, point: Sequence[Fraction]) -> bool:
    """Exact truth of the predicate at a tuple of rationals."""
    if len(point) != pred.arity:
        raise ValueError(f"arity mismatch: predicate takes {pred.arity}, got {len(point)}")
    return _holds(pred, _named([_exact(x) for x in point]))


def holds_everywhere(pred: Predicate, seq: Sequence[Fraction]) -> bool:
    """True iff the predicate holds on every increasing index tuple.

    Vacuously true when the sequence is shorter than the arity.
    """
    values = [_exact(x) for x in seq]
    k = pred.arity
    if len(values) < k:
        return True
    return all(_holds(pred, _named(tup)) for tup in combinations(values, k))


# -- negation (NNF) ---------------------------------------------------

_FLIP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}


def _nnf(node: Node, negated: bool) -> Node:
    """``node`` (its negation when ``negated``) in NNF over atoms."""
    if isinstance(node, Atom):
        return Atom(node.poly, _FLIP[node.rel]) if negated else node
    if isinstance(node, Not):
        return _nnf(node.child, not negated)
    if isinstance(node, And):
        return (Or if negated else And)(tuple(_nnf(c, negated) for c in node.children))
    if isinstance(node, Or):
        return (And if negated else Or)(tuple(_nnf(c, negated) for c in node.children))
    raise TypeError(f"not a predicate node: {node!r}")


def negate_node(node: Node) -> Node:
    """Negation of a bare predicate tree, pushed to NNF over atoms."""
    return _nnf(node, True)


def negate(pred: Predicate) -> Predicate:
    """Logical negation pushed to negation normal form over atoms."""
    return Predicate(_nnf(pred.root, True), pred.arity)


# -- one-predicate replacements ---------------------------------------


def _rename_x(node: Node, mapping: dict) -> Node:
    if isinstance(node, Atom):
        return Atom(node.poly.rename_vars(mapping), node.rel)
    if isinstance(node, Not):
        return Not(_rename_x(node.child, mapping))
    if isinstance(node, And):
        return And(tuple(_rename_x(c, mapping) for c in node.children))
    if isinstance(node, Or):
        return Or(tuple(_rename_x(c, mapping) for c in node.children))
    raise TypeError(f"not a predicate node: {node!r}")


def symmetrize_single(pset: PredicateSet, conjunct_cap: int = 20000) -> Predicate:
    """Single predicate in r*k variables equivalent (for holds-everywhere
    purposes on sequences of length >= r*k) to the set of r k-ary members.

    Member i contributes the conjunction of its instantiations over all
    increasing k-subsets of the r*k slots; the result is the disjunction
    of these conjunctions.
    """
    r = len(pset.members)
    k = pset.arity
    rk = r * k
    total = r * comb(rk, k)
    if total > conjunct_cap:
        raise ResourceLimitError(
            f"symmetrize_single needs {total} conjuncts, cap is {conjunct_cap}",
            conjuncts=total, cap=conjunct_cap,
        )
    big_members = []
    for member in pset.members:
        conjuncts = []
        for slots in combinations(range(1, rk + 1), k):
            mapping = {f"x{j}": f"x{slot}" for j, slot in enumerate(slots, start=1)}
            conjuncts.append(_rename_x(member.root, mapping))
        big_members.append(conjuncts[0] if len(conjuncts) == 1 else And(tuple(conjuncts)))
    if r == 1:
        return Predicate(big_members[0], rk)
    return Predicate(Or(tuple(big_members)), rk)


def member_verdicts(pset: PredicateSet, seq: Sequence[Fraction]) -> dict:
    """Per-member homogeneity status on a sequence: 'everywhere',
    'nowhere', or 'mixed', from one pass over the increasing tuples.
    A sequence shorter than the arity has no tuples: 'everywhere'."""
    values = [_exact(x) for x in seq]
    out = {}
    for i, m in enumerate(pset.members):
        seen = set()
        for tup in combinations(values, m.arity):
            seen.add(_holds(m, _named(tup)))
            if len(seen) == 2:
                break
        if len(seen) == 2:
            out[i] = "mixed"
        elif seen == {False}:
            out[i] = "nowhere"
        else:
            out[i] = "everywhere"
    return out
