"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a mapping from exponent tuples to nonzero Fractions,
together with an ordered tuple of variable names.  Everything is exact:
no floats anywhere.  Values are immutable after construction; all
operations return new objects, so instances are safe to share.

There are two constructors.  ``MultiPoly(variables, terms)`` is the
checked one: it sorts the variables, remaps the exponents to match,
converts coefficients to Fraction and drops zeros.  ``MultiPoly._make``
is for results computed in this module, whose variables are already
canonical and whose coefficients are nonzero Fractions; it adopts both
as they are, so no result pays for a second sort.

Variable order is canonical: lowercase names sort before uppercase,
then alphabetically by letter part, then numerically by index, which
yields x1 < x2 < ..., y1 < ... < yk < X < Y.  Arithmetic between
polynomials over different variable lists aligns them to the union.

Monomials are plain exponent tuples (one nonnegative int per variable).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Monomial = tuple  # exponent vector, one entry per variable

_VAR_RE = re.compile(r"([A-Za-z]+)(\d*)\Z")


@lru_cache(maxsize=1024)
def var_sort_key(name: str) -> tuple:
    """Sort key of a variable name (see the module docstring); raises
    ValueError unless the name is letters then digits.  Memoized, bounded:
    every sort of variables calls it, and a program meets few names."""
    m = _VAR_RE.match(name)
    if not m:
        raise ValueError(f"bad variable name: {name!r}")
    base, digits = m.group(1), m.group(2)
    return (base[0].isupper(), base, int(digits) if digits else 0)


def merge_vars(a: Sequence[str], b: Sequence[str]) -> tuple:
    return tuple(sorted(set(a) | set(b), key=var_sort_key))


class MultiPoly:
    """Sparse exact polynomial; ``terms`` maps exponent tuple -> Fraction."""

    __slots__ = ("vars", "terms", "_hash", "_form", "_var_form")

    def __init__(self, variables: Sequence[str], terms: Mapping[Monomial, Fraction] | None = None):
        vlist = tuple(variables)
        if len(set(vlist)) != len(vlist):
            raise ValueError("duplicate variable names")
        ordered = tuple(sorted(vlist, key=var_sort_key))
        self.vars = ordered
        clean: dict = {}
        if terms:
            remap = None
            if vlist != ordered:
                idx = {v: i for i, v in enumerate(ordered)}
                remap = [idx[v] for v in vlist]
            for mono, coeff in terms.items():
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c == 0:
                    continue
                if len(mono) != len(ordered):
                    raise ValueError("exponent tuple length mismatch")
                if remap is not None:
                    fixed = [0] * len(ordered)
                    for pos, e in enumerate(mono):
                        fixed[remap[pos]] = e
                    mono = tuple(fixed)
                clean[mono] = clean.get(mono, Fraction(0)) + c
            clean = {m: c for m, c in clean.items() if c != 0}
        self.terms = clean
        self._hash = None
        self._form = None
        self._var_form = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def _make(ordered: tuple, terms: dict) -> "MultiPoly":
        """Adopt canonical ``ordered`` and nonzero Fraction ``terms``
        unchecked; the caller must not mutate ``terms`` afterwards."""
        out = object.__new__(MultiPoly)
        out.vars = ordered
        out.terms = terms
        out._hash = None
        out._form = None
        out._var_form = None
        return out

    @staticmethod
    def zero(variables: Sequence[str] = ()) -> "MultiPoly":
        return MultiPoly(variables, {})

    @staticmethod
    def const(value, variables: Sequence[str] = ()) -> "MultiPoly":
        v = Fraction(value)
        variables = tuple(variables)
        if v == 0:
            return MultiPoly(variables, {})
        return MultiPoly(variables, {(0,) * len(variables): v})

    @staticmethod
    def var(name: str, variables: Sequence[str] | None = None) -> "MultiPoly":
        variables = tuple(variables) if variables is not None else (name,)
        if name not in variables:
            raise ValueError(f"{name!r} not among {variables}")
        ordered = tuple(sorted(set(variables), key=var_sort_key))
        mono = tuple(1 if v == name else 0 for v in ordered)
        return MultiPoly._make(ordered, {mono: Fraction(1)})

    # -- basic queries -----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Fraction | None:
        """The value if this polynomial is constant, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (mono, coeff), = self.terms.items()
            if all(e == 0 for e in mono):
                return coeff
        return None

    def degree(self, name: str) -> int:
        if name not in self.vars or not self.terms:
            return 0
        i = self.vars.index(name)
        return max(m[i] for m in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def used_vars(self) -> tuple:
        """The variables some term has a nonzero exponent in, in order
        (``vars`` is sorted, so these are too)."""
        return tuple([v for v, column in zip(self.vars, zip(*self.terms)) if any(column)])

    def max_abs_coeff(self) -> Fraction:
        return max((abs(c) for c in self.terms.values()), default=Fraction(0))

    # -- alignment ---------------------------------------------------

    def with_vars(self, variables: Sequence[str]) -> "MultiPoly":
        """Re-express over a superset of the current variables."""
        ordered = tuple(sorted(set(variables), key=var_sort_key))
        if ordered == self.vars:
            return self
        if not set(self.vars) <= set(ordered):
            raise ValueError("with_vars: target must be a superset")
        pos = [ordered.index(v) for v in self.vars]
        terms = {}
        for mono, coeff in self.terms.items():
            fixed = [0] * len(ordered)
            for p, e in zip(pos, mono):
                fixed[p] = e
            terms[tuple(fixed)] = coeff
        return MultiPoly._make(ordered, terms)

    def drop_unused(self) -> "MultiPoly":
        used = self.used_vars()
        if used == self.vars:
            return self
        keep = [i for i, v in enumerate(self.vars) if v in used]
        terms = {tuple(m[i] for i in keep): c for m, c in self.terms.items()}
        return MultiPoly._make(used, terms)

    @staticmethod
    def _aligned(a: "MultiPoly", b: "MultiPoly"):
        if a.vars == b.vars:
            return a, b
        allv = merge_vars(a.vars, b.vars)
        return a.with_vars(allv), b.with_vars(allv)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other, self.vars)
        a, b = MultiPoly._aligned(self, other)
        terms = dict(a.terms)
        for mono, coeff in b.terms.items():
            s = terms.get(mono, Fraction(0)) + coeff
            if s == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = s
        return MultiPoly._make(a.vars, terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = Fraction(other)
            terms = {m: k * c for m, k in self.terms.items()} if c else {}
            return MultiPoly._make(self.vars, terms)
        a, b = MultiPoly._aligned(self, other)
        terms: dict = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                s = terms.get(mono, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(mono, None)
                else:
                    terms[mono] = s
        return MultiPoly._make(a.vars, terms)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = MultiPoly._make(self.vars, {(0,) * len(self.vars): Fraction(1)})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = MultiPoly._aligned(self.drop_unused(), other.drop_unused())
        return a.terms == b.terms

    def __hash__(self):
        if self._hash is None:
            p = self.drop_unused()
            self._hash = hash((p.vars, frozenset(p.terms.items())))
        return self._hash

    def __repr__(self):
        return f"MultiPoly({self.to_text()!r})"

    # -- evaluation --------------------------------------------------

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact value at a full rational assignment."""
        vals = [Fraction(point[v]) for v in self.vars]
        total = Fraction(0)
        pow_cache: dict = {}
        for mono, coeff in self.terms.items():
            prod = coeff
            for i, e in enumerate(mono):
                if e:
                    key = (i, e)
                    p = pow_cache.get(key)
                    if p is None:
                        p = vals[i] ** e
                        pow_cache[key] = p
                    prod *= p
            total += prod
        return total

    def kept_form(self, var: str | None = None) -> tuple:
        """int_form(self, var), built on the first call and kept, like the
        hash (a polynomial does not change).  Two forms are kept: the one
        with no main variable, which signs read, and the one in the last
        main variable asked for, as the pair (var, form), which a CAD
        level's projection and its root finding both read.  A var this
        polynomial does not have gives the first: int_form is the same."""
        if var not in self.vars:
            form = self._form
            if form is None:
                form = self._form = int_form(self)
            return form
        kept = self._var_form
        if kept is None or kept[0] != var:
            kept = self._var_form = (var, int_form(self, var))
        return kept[1]

    def sign_at(self, point: Mapping) -> int:
        """Exact sign at rational coordinates: ``point`` maps variable names
        to ints or Fractions, and only the variables this polynomial uses
        are read.  The sign is that of the value of its kept int form."""
        value = eval_int_form(self.kept_form(), point)[0]
        return (value > 0) - (value < 0)

    def partial_eval(self, point: Mapping[str, Fraction]) -> "MultiPoly":
        """Substitute exact values for a subset of the variables."""
        fixed = {v: Fraction(x) for v, x in point.items() if v in self.vars}
        if not fixed:
            return self
        keep = tuple(v for v in self.vars if v not in fixed)
        terms: dict = {}
        idx_fixed = [(i, fixed[v]) for i, v in enumerate(self.vars) if v in fixed]
        idx_keep = [i for i, v in enumerate(self.vars) if v not in fixed]
        for mono, coeff in self.terms.items():
            c = coeff
            for i, val in idx_fixed:
                if mono[i]:
                    c *= val ** mono[i]
            if c == 0:
                continue
            key = tuple(mono[i] for i in idx_keep)
            s = terms.get(key, Fraction(0)) + c
            if s == 0:
                terms.pop(key, None)
            else:
                terms[key] = s
        return MultiPoly._make(keep, terms)

    def rename_vars(self, mapping: Mapping[str, str]) -> "MultiPoly":
        new_names = [mapping.get(v, v) for v in self.vars]
        if len(set(new_names)) != len(new_names):
            raise ValueError("rename collides variables")
        return MultiPoly(new_names, self.terms)

    # -- univariate views ---------------------------------------------

    def as_univar(self, main: str) -> list:
        """Dense coefficient list in ``main``; entry i is a MultiPoly
        over the remaining variables."""
        if main not in self.vars:
            return [self]
        i = self.vars.index(main)
        others = self.vars[:i] + self.vars[i + 1:]
        # the top bucket is nonempty unless self is zero, which gives [0]
        buckets: list = [dict() for _ in range(self.degree(main) + 1)]
        for mono, coeff in self.terms.items():
            buckets[mono[i]][mono[:i] + mono[i + 1:]] = coeff
        return [MultiPoly._make(others, b) for b in buckets]

    @staticmethod
    def from_univar(coeffs: Iterable["MultiPoly"], main: str) -> "MultiPoly":
        acc = MultiPoly.zero((main,))
        x = MultiPoly.var(main)
        for k, c in enumerate(coeffs):
            if isinstance(c, MultiPoly) and c.is_zero:
                continue
            acc = acc + c * x ** k
        return acc

    # -- normalization ------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-coefficient primitive."""
        if not self.terms:
            return Fraction(1)
        coeffs = self.terms.values()
        return Fraction(gcd(*[c.numerator for c in coeffs]), lcm(*[c.denominator for c in coeffs]))

    def primitive(self) -> "MultiPoly":
        """Integer-coefficient primitive part with canonical sign
        (coefficient of the lexicographically greatest monomial > 0)."""
        if not self.terms:
            return self
        c = self.content()
        lead = max(self.terms)
        if self.terms[lead] < 0:
            c = -c
        elif c == 1:
            return self
        return MultiPoly._make(self.vars, {m: k / c for m, k in self.terms.items()})

    # -- printing ------------------------------------------------------

    def to_text(self) -> str:
        """Render in the shared polynomial grammar (parse round-trips)."""
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))
        parts = []
        for mono, coeff in items:
            factors = []
            for v, e in zip(self.vars, mono):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mag = abs(coeff)
            coeff_txt = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([coeff_txt] + factors)
            else:
                body = coeff_txt
            parts.append(("-" if coeff < 0 else "+", body))
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


# -- evaluation in ints ------------------------------------------------


def int_form(p: MultiPoly, var: str | None = None) -> tuple:
    """What eval_int_form reads of p: the variables p uses other than var,
    each with p's degree in it; the length of the output list; and each
    term as (c*L, its index in the output, its exponents in those
    variables), with L the lcm of p's coefficient denominators.  Callers
    read it through MultiPoly.kept_form, which builds it once per
    polynomial and main variable."""
    names = p.vars
    main = names.index(var) if var in names else None
    degs = [0] * len(names)
    den = 1
    for mono, c in p.terms.items():
        for i, e in enumerate(mono):
            if e > degs[i]:
                degs[i] = e
        d = c.denominator
        if den % d:
            den = den * d // gcd(den, d)
    looked = [i for i, deg in enumerate(degs) if deg and i != main]
    terms = tuple(
        (c.numerator * (den // c.denominator), 0 if main is None else mono[main],
         tuple(mono[i] for i in looked))
        for mono, c in p.terms.items())
    size = 1 if main is None else degs[main] + 1
    return tuple((names[i], degs[i]) for i in looked), size, terms


def eval_int_form(form: tuple, point: Mapping) -> list | None:
    """The polynomial whose int_form is ``form`` at the rational
    coordinates of ``point``, times a positive int, as a list of int
    coefficients in the form's main variable (index = degree; the value
    alone, in a list of one, when it has none).  A coordinate is an int,
    a Fraction or a real algebraic number (qe.roots); None when a looked
    up coordinate is irrational.  Only the variables with a nonzero
    exponent are looked up in ``point``.

    Write each coordinate as n_i/d_i and let deg_i be p's degree in it,
    and L the lcm of p's coefficient denominators.  The term c*x^e then
    becomes the int c*L * prod n_i^e_i * d_i^(deg_i - e_i), which is the
    term's value times L * prod d_i^deg_i.  That factor is positive and
    the same for every term, so the value keeps its sign and the
    coefficient list its roots."""
    looked, size, terms = form
    powers = []
    for name, deg in looked:
        x = point[name]
        # a real algebraic number otherwise; an exact type test, since a
        # test against Fraction's abstract bases costs more than the rest
        if type(x) is not Fraction and not isinstance(x, int):
            x = x.value
            if x is None:
                return None
        n, d = x.numerator, x.denominator
        powers.append([n ** e * d ** (deg - e) for e in range(deg + 1)])
    out = [0] * size
    for t, k, exps in terms:
        for pw, e in zip(powers, exps):
            t *= pw[e]
        out[k] += t
    return out
