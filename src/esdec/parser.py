"""Tokenizer and recursive-descent parsers for the shared text formats.

Grammar (predicates; whitespace insignificant, ``#`` starts a comment):

    set      := pred (";" pred)*
    pred     := disj ;  disj := conj ("or" conj)* ;  conj := unary ("and" unary)*
    unary    := "not" unary | "(" pred ")" | atom
    atom     := poly rel poly ;  rel := "=" | "!=" | "<" | "<=" | ">" | ">="
    poly     := term (("+"|"-") term)* ;  term := factor ("*" factor)*
    factor   := rational | var | var "^" nat | "(" poly ")" | "-" factor
    var      := "x" nat (nat >= 1) ;  rational := int ("/" posint)? | decimal

Atoms normalize to (lhs - rhs) rel 0.  Sentence text prepends a
quantifier prefix ("forall r. exists l. ...") and uses the quantified
lowercase names as variables.  The sentence module reads the prefix
itself, then parses the matrix with the predicate module's
FormulaParser, whose PolyParser resolves only the quantified names.

Sequence files carry one rational per line ("-3/7", or a decimal such
as "2.5", stored exactly).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .poly import MultiPoly

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<num>\d+\.\d+|\d+)
  | (?P<name>[A-Za-z][A-Za-z0-9]*)
  | (?P<op><=|>=|!=|[-+*/^()=<>;.])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # num | name | op | end
    text: str
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("end", "", line, col))
    return tokens


def parse_sequence(text: str) -> list:
    """Sequence file: one rational per line; '#' comments; blank lines ok."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            values.append(Fraction(body))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {body!r}", lineno, 1) from exc
    return values


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def save(self) -> int:
        return self.i

    def restore(self, mark: int):
        self.i = mark


_XVAR_NAME = re.compile(r"x(\d+)\Z")

RELATIONS = ("=", "!=", "<", "<=", ">", ">=")


class PolyParser:
    """Polynomial parser over a caller-controlled variable universe.

    ``resolve`` maps an identifier token to a canonical variable name or
    raises ParseError; the default accepts x1, x2, ... (indices >= 1).
    """

    def __init__(self, stream: TokenStream, resolve=None):
        self.stream = stream
        self.resolve = resolve or self._resolve_xvar

    @staticmethod
    def _resolve_xvar(tok: Token) -> str:
        m = _XVAR_NAME.match(tok.text)
        if not m:
            raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.col)
        if int(m.group(1)) < 1:
            raise ParseError("variable indices start at 1", tok.line, tok.col)
        return f"x{int(m.group(1))}"

    def parse_poly(self) -> MultiPoly:
        acc = self.parse_term()
        while self.stream.peek().text in ("+", "-"):
            op = self.stream.next().text
            rhs = self.parse_term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_term(self) -> MultiPoly:
        acc = self.parse_factor()
        while self.stream.peek().text == "*":
            self.stream.next()
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self) -> MultiPoly:
        tok = self.stream.peek()
        if tok.text == "-":
            self.stream.next()
            return -self.parse_factor()
        if tok.text == "(":
            self.stream.next()
            inner = self.parse_poly()
            self.stream.expect(")")
            return inner
        if tok.kind == "num":
            self.stream.next()
            value = Fraction(tok.text)
            if self.stream.peek().text == "/":
                self.stream.next()
                den_tok = self.stream.next()
                if den_tok.kind != "num" or "." in den_tok.text or int(den_tok.text) == 0:
                    raise ParseError("denominator must be a positive integer", den_tok.line, den_tok.col)
                value /= int(den_tok.text)
            return MultiPoly.const(value)
        if tok.kind == "name":
            self.stream.next()
            name = self.resolve(tok)
            poly = MultiPoly.var(name)
            if self.stream.peek().text == "^":
                self.stream.next()
                exp_tok = self.stream.next()
                if exp_tok.kind != "num" or "." in exp_tok.text:
                    raise ParseError("exponent must be a nonnegative integer", exp_tok.line, exp_tok.col)
                poly = poly ** int(exp_tok.text)
            return poly
        raise ParseError(f"expected a polynomial factor, found {tok.text or 'end of input'!r}", tok.line, tok.col)

    def parse_atom_parts(self):
        lhs = self.parse_poly()
        tok = self.stream.peek()
        if tok.text not in RELATIONS:
            raise ParseError(f"expected a relation, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        self.stream.next()
        rhs = self.parse_poly()
        return lhs - rhs, tok.text
