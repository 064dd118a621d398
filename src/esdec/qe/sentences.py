"""Prenex sentences over the reals: AST, text parser, SMT-LIB export.

Text form: a quantifier prefix "forall r. exists l. ..." followed by a
quantifier-free Boolean combination in the predicate grammar, with the
quantified lowercase names as variables.  Sentences have no free
variables.

Besides forall and exists, a prefix may say "eventually v.": the rest
of the sentence holds for all sufficiently large v, i.e. there is a c
such that it holds for every v > c.  The truth set of a formula in v
(outer variables fixed) is semialgebraic, so either it or its
complement contains a ray (c, oo); hence "not eventually v. phi" is
"eventually v. not phi".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import ParseError
from ..parser import TokenStream, tokenize
from ..poly import MultiPoly, var_sort_key
from ..predicates import And, Atom, FormulaParser, Node, Not, Or, atoms_of, negate_node

FORALL = "forall"
EXISTS = "exists"
EVENTUALLY = "eventually"
QUANTIFIERS = (FORALL, EXISTS, EVENTUALLY)


@dataclass(frozen=True)
class Sentence:
    prefix: tuple  # ((quantifier, variable), ...) outermost first
    matrix: Node

    def __post_init__(self):
        names = [v for _, v in self.prefix]
        if len(set(names)) != len(names):
            raise ValueError("quantified variables must be distinct")
        if any(q not in QUANTIFIERS for q, _ in self.prefix):
            raise ValueError("quantifiers must be forall/exists/eventually")
        for name in names:
            var_sort_key(name)  # letters then digits, or ValueError
        free = set()
        for atom in atoms_of(self.matrix):
            free.update(atom.poly.used_vars())
        if not free <= set(names):
            raise ValueError(f"free variables: {sorted(free - set(names))}")

    @property
    def variables(self) -> tuple:
        return tuple(v for _, v in self.prefix)


_DUAL = {FORALL: EXISTS, EXISTS: FORALL, EVENTUALLY: EVENTUALLY}


def sentence_negate(s: Sentence) -> Sentence:
    flipped = tuple((_DUAL[q], v) for q, v in s.prefix)
    return Sentence(flipped, negate_node(s.matrix))


# -- parsing ------------------------------------------------------------

_KEYWORDS = {"and", "or", "not", *QUANTIFIERS}


def parse_sentence(text: str) -> Sentence:
    stream = TokenStream(tokenize(text))
    prefix = []
    declared: list = []
    while stream.peek().text in QUANTIFIERS:
        quant = stream.next().text
        name_tok = stream.next()
        if name_tok.kind != "name" or name_tok.text in _KEYWORDS:
            raise ParseError("expected a variable name after quantifier",
                             name_tok.line, name_tok.col)
        if not name_tok.text[0].islower():
            raise ParseError("quantified variables are lowercase",
                             name_tok.line, name_tok.col)
        if name_tok.text in declared:
            raise ParseError(f"variable {name_tok.text!r} quantified twice",
                             name_tok.line, name_tok.col)
        declared.append(name_tok.text)
        stream.expect(".")
        prefix.append((quant, name_tok.text))
    if not prefix:
        raise ParseError("sentence needs at least one quantifier", 1, 1)

    def resolve(tok):
        if tok.text not in declared:
            raise ParseError(f"unquantified variable {tok.text!r}", tok.line, tok.col)
        return tok.text

    matrix_parser = FormulaParser(stream, resolve)
    matrix = matrix_parser.parse_disj()
    matrix_parser.expect_end()
    return Sentence(tuple(prefix), matrix)


# -- SMT-LIB export ------------------------------------------------------


def _smt_rational(q: Fraction) -> str:
    if q.denominator == 1:
        body = str(abs(q.numerator))
    else:
        body = f"(/ {abs(q.numerator)} {q.denominator})"
    return f"(- {body})" if q < 0 else body


def _smt_poly(p: MultiPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for mono, coeff in sorted(p.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0])):
        factors = []
        for v, e in zip(p.vars, mono):
            factors.extend([v] * e)
        if not factors:
            parts.append(_smt_rational(coeff))
        elif coeff == 1 and len(factors) == 1:
            parts.append(factors[0])
        else:
            inner = " ".join([_smt_rational(coeff)] + factors) if coeff != 1 \
                else " ".join(factors)
            parts.append(f"(* {inner})")
    if len(parts) == 1:
        return parts[0]
    return f"(+ {' '.join(parts)})"


def _smt_node(node: Node) -> str:
    if isinstance(node, Atom):
        p = _smt_poly(node.poly)
        if node.rel == "!=":
            return f"(not (= {p} 0))"
        return f"({node.rel} {p} 0)"
    if isinstance(node, Not):
        return f"(not {_smt_node(node.child)})"
    if isinstance(node, And):
        return f"(and {' '.join(_smt_node(c) for c in node.children)})"
    if isinstance(node, Or):
        return f"(or {' '.join(_smt_node(c) for c in node.children)})"
    raise TypeError(f"not a matrix node: {node!r}")


def export_smtlib(s: Sentence) -> str:
    """Semantically equivalent SMT-LIB2 script (logic NRA); used as an
    external cross-check channel only, never as the decision path.

    "eventually v. phi" becomes "exists c_v. forall v. v > c_v => phi";
    variable names are letters and digits only, so c_v is fresh."""
    body = _smt_node(s.matrix)
    for quant, var in reversed(s.prefix):
        if quant in (FORALL, EXISTS):
            body = f"({quant} (({var} Real)) {body})"
        elif quant == EVENTUALLY:
            c = f"c_{var}"
            body = f"(exists (({c} Real)) (forall (({var} Real)) (=> (> {var} {c}) {body})))"
        else:
            raise ValueError(f"unknown quantifier {quant!r}")
    return "\n".join([
        "(set-logic NRA)",
        f"(assert {body})",
        "(check-sat)",
        "",
    ])
