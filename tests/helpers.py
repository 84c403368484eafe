"""Shared test fixtures: reference schemes, a random-scheme generator,
the per-state reading of enumerated jump moments, and the polynomial
arithmetic of the all-Fraction coefficients as a reference."""

import random
from fractions import Fraction

from onestep.poly import (ExpressionSyntaxError, Monomial, SymbolId,
                          SymbolKind, TokenStream, _exact, _symbol_table,
                          _TOKEN_RE)

VERHULST = """\
phi <-> 2 phi @ lambda, gamma
phi -> 0 @ beta
"""

LOTKA_VOLTERRA = """\
x -> 2 x @ k_1
x + y -> 2 y @ k_2
y -> 0 @ k_3
"""

PURE_DEATH = "phi -> 0 @ beta\n"

_SPECIES_POOL = ("x", "y", "z", "w")


def random_scheme_text(rng: random.Random, max_species: int = 3,
                       max_interactions: int = 4, max_stoich: int = 3,
                       reversible_chance: float = 0.4) -> str:
    """A random syntactically valid scheme over a small species pool.

    Every interaction changes the state and every rate symbol is fresh,
    so the text always parses into a valid scheme.
    """
    n = rng.randint(1, max_species)
    names = _SPECIES_POOL[:n]
    lines = []
    serial = 0
    for _ in range(rng.randint(1, max_interactions)):
        while True:
            init = [rng.randint(0, max_stoich) for _ in range(n)]
            fin = [rng.randint(0, max_stoich) for _ in range(n)]
            if init != fin:
                break
        serial += 1
        rates = [f"k_{serial}"]
        arrow = "->"
        if rng.random() < reversible_chance:
            arrow = "<->"
            serial += 1
            rates.append(f"k_{serial}")
        lines.append(f"{_side(init, names)} {arrow} {_side(fin, names)}"
                     f" @ {', '.join(rates)}")
    return "\n".join(lines) + "\n"


def _side(coeffs, names) -> str:
    parts = []
    for c, name in zip(coeffs, names):
        if c == 1:
            parts.append(name)
        elif c > 1:
            parts.append(f"{c} {name}")
    return " + ".join(parts) if parts else "0"


def per_state_moments(moments) -> list[tuple[list, list]]:
    """A JumpMoments read back per state: one (first, second) pair per
    state, a list and a nested n x n list of exact values, each a Fraction
    or the int 0 for a zero numerator, as jump_moments returned them
    before its integer form."""
    def exact(numerator):
        return Fraction(numerator, moments.denominator) if numerator else 0

    n = moments.first.shape[1]
    return [([exact(v) for v in moments.first[s]],
             [[exact(moments.second[i, j][s]) if (i, j) in moments.second
               else 0 for j in range(n)] for i in range(n)])
            for s in range(len(moments.first))]


# ---------------------------------------------------------------------------
# Polynomial arithmetic as it was when every coefficient was a Fraction:
# a verbatim copy of that Polynomial (renamed FractionPolynomial), its
# helpers, monomial, the expression parser and bind_values.  It shares
# onestep's Monomial, so the terms of the two compare with ==, and the
# tokenizer and value conversion, which did not change.


def is_canonical_coefficient(c) -> bool:
    """An int when integral, otherwise a Fraction with denominator > 1;
    never a float, a bool or 0."""
    if type(c) is int:
        return c != 0
    return type(c) is Fraction and c.denominator > 1


def _symbol_key(sym):
    # species sort before rate constants, alphabetically within each kind
    return (0 if sym.kind is SymbolKind.SPECIES else 1, sym.name)


def _storage_key(exponents):
    return tuple((_symbol_key(s), e) for s, e in exponents)


class FractionPolynomial:
    """Immutable polynomial in canonical form (merged, sorted terms)."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc = {}
        for m in terms:
            acc[m.exponents] = acc.get(m.exponents, Fraction(0)) + m.coefficient
        self._terms = _from_dict(acc)

    @staticmethod
    def zero():
        return FractionPolynomial()

    @staticmethod
    def one():
        return FractionPolynomial.constant(1)

    @staticmethod
    def constant(value):
        p = FractionPolynomial.__new__(FractionPolynomial)
        c = Fraction(value)
        p._terms = () if c == 0 else (Monomial(c, ()),)
        return p

    @staticmethod
    def symbol(sym):
        p = FractionPolynomial.__new__(FractionPolynomial)
        p._terms = (Monomial(Fraction(1), ((sym, 1),)),)
        return p

    @property
    def terms(self):
        return self._terms

    def __eq__(self, other):
        other_p = _try_coerce(other)
        if other_p is None:
            return NotImplemented
        return self._terms == other_p._terms

    def __hash__(self):
        return hash(self._terms)

    def __add__(self, other):
        other_p = _try_coerce(other)
        if other_p is None:
            return NotImplemented
        acc = {m.exponents: m.coefficient for m in self._terms}
        for m in other_p._terms:
            acc[m.exponents] = acc.get(m.exponents, Fraction(0)) + m.coefficient
        return _wrap(_from_dict(acc))

    __radd__ = __add__

    def __neg__(self):
        return _wrap(tuple(Monomial(-m.coefficient, m.exponents) for m in self._terms))

    def __sub__(self, other):
        other_p = _try_coerce(other)
        if other_p is None:
            return NotImplemented
        return self + (-other_p)

    def __rsub__(self, other):
        other_p = _try_coerce(other)
        if other_p is None:
            return NotImplemented
        return other_p + (-self)

    def __mul__(self, other):
        other_p = _try_coerce(other)
        if other_p is None:
            return NotImplemented
        acc = {}
        for a in self._terms:
            for b in other_p._terms:
                exps = _merge_exponents(a.exponents, b.exponents)
                acc[exps] = acc.get(exps, Fraction(0)) + a.coefficient * b.coefficient
        return _wrap(_from_dict(acc))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        out = FractionPolynomial.one()
        for _ in range(n):
            out = out * self
        return out


def _wrap(terms):
    p = FractionPolynomial.__new__(FractionPolynomial)
    p._terms = terms
    return p


def _from_dict(acc):
    items = [(e, c) for e, c in acc.items() if c != 0]
    items.sort(key=lambda ec: _storage_key(ec[0]))
    return tuple(Monomial(c, e) for e, c in items)


def _merge_exponents(a, b):
    acc = dict(a)
    for s, e in b:
        acc[s] = acc.get(s, 0) + e
    return tuple(sorted(acc.items(), key=lambda se: _symbol_key(se[0])))


def _try_coerce(value):
    if isinstance(value, FractionPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return FractionPolynomial.constant(value)
    return None


def fraction_monomial(coefficient, powers):
    """Convenience constructor for a single-term polynomial."""
    exps = tuple(sorted(((s, e) for s, e in powers.items() if e != 0),
                        key=lambda se: _symbol_key(se[0])))
    for _, e in exps:
        if e < 0:
            raise ValueError("exponents must be nonnegative")
    c = Fraction(coefficient)
    return _wrap(() if c == 0 else (Monomial(c, exps),))


class _FractionParser(TokenStream):
    def __init__(self, text, table):
        super().__init__(text, _TOKEN_RE, lambda c, i: ExpressionSyntaxError(
            f"unexpected character {c!r}", i))
        self.table = table

    def parse_expr(self):
        negate = self.accept_op("-")
        p = self.parse_term()
        if negate:
            p = -p
        while True:
            if self.accept_op("+"):
                p = p + self.parse_term()
            elif self.accept_op("-"):
                p = p - self.parse_term()
            else:
                return p

    def parse_term(self):
        p = self.parse_factor()
        while self.accept_op("*"):
            p = p * self.parse_factor()
        return p

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            if "." not in tok.text and self.accept_op("/"):
                den = self.peek()
                if den.kind != "number" or "." in den.text:
                    raise ExpressionSyntaxError("bad rational literal", den.position,
                                                expected="an integer denominator")
                self.take()
                return FractionPolynomial.constant(Fraction(int(tok.text), int(den.text)))
            return FractionPolynomial.constant(Fraction(tok.text))
        if tok.kind == "name":
            self.take()
            sym = self.table.get(tok.text)
            if sym is None:
                sym = SymbolId(tok.text, SymbolKind.SPECIES)
            p = FractionPolynomial.symbol(sym)
            if self.accept_op("^"):
                exp = self.peek()
                if exp.kind != "number" or "." in exp.text:
                    raise ExpressionSyntaxError("bad exponent", exp.position,
                                                expected="a nonnegative integer")
                self.take()
                return p ** int(exp.text)
            return p
        if tok.kind == "op" and tok.text == "(":
            self.take()
            p = self.parse_expr()
            if not self.accept_op(")"):
                raise ExpressionSyntaxError("unbalanced parenthesis",
                                            self.peek().position, expected="')'")
            return p
        raise ExpressionSyntaxError(f"unexpected {tok.text!r}" if tok.kind != "end"
                                    else "unexpected end of input",
                                    tok.position,
                                    expected="a number, symbol, or '('")

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(f"unexpected {tok.text!r}", tok.position,
                                        expected="'+', '-', '*', or end of input")


def fraction_parse_expression(text, symbols=None):
    parser = _FractionParser(text, _symbol_table(symbols))
    p = parser.parse_expr()
    parser.expect_end()
    return p


def fraction_bind_values(p, values):
    exact = {}
    terms = []
    for m in p.terms:
        c = m.coefficient
        free = []
        for sym, e in m.exponents:
            if sym in values:
                if sym not in exact:
                    exact[sym] = _exact(sym, values[sym])
                c *= exact[sym] ** e
            else:
                free.append((sym, e))
        terms.append(Monomial(c, tuple(free)))
    return FractionPolynomial(terms)
