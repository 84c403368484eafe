"""Exact multivariate polynomials over named symbols.

Coefficients are rational (fractions.Fraction), so every algebraic
operation here is exact, evaluation and binding included: a float value
counts as the rational it represents.  Floating point only appears when
polynomials are compiled to a numeric function (as_function).
Symbols carry a kind (species or rate constant) because model assembly
and printing treat the two vocabularies differently.
"""

from __future__ import annotations

import enum
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np


class SymbolKind(enum.Enum):
    SPECIES = "species"
    RATE = "rate"


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class SymbolId:
    """A named symbol; two symbols are equal iff name and kind agree."""

    name: str
    kind: SymbolKind

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ValueError(f"invalid symbol name {self.name!r}")
        if not isinstance(self.kind, SymbolKind):
            raise ValueError(f"invalid symbol kind {self.kind!r}")

    def __repr__(self) -> str:
        return f"{self.kind.value}:{self.name}"


def species(name: str) -> SymbolId:
    return SymbolId(name, SymbolKind.SPECIES)


def rate(name: str) -> SymbolId:
    return SymbolId(name, SymbolKind.RATE)


def _symbol_key(sym: SymbolId) -> tuple[int, str]:
    # species sort before rate constants, alphabetically within each kind
    return (0 if sym.kind is SymbolKind.SPECIES else 1, sym.name)


class MissingSymbolError(KeyError):
    """Raised when evaluation or compilation lacks a value for a symbol."""

    def __init__(self, symbol: SymbolId):
        self.symbol = symbol
        super().__init__(f"no value bound for symbol {symbol!r}")

    def __str__(self) -> str:
        return self.args[0]


Exponents = tuple[tuple[SymbolId, int], ...]


@dataclass(frozen=True)
class Monomial:
    """One term: a nonzero rational coefficient times a product of powers.

    exponents is sorted by symbol and holds strictly positive powers only,
    so equal monomials compare equal structurally.
    """

    coefficient: Fraction
    exponents: Exponents


def _storage_key(exponents: Exponents) -> tuple:
    return tuple((_symbol_key(s), e) for s, e in exponents)


Number = Union[int, Fraction]


class Polynomial:
    """Immutable polynomial in canonical form (merged, sorted terms)."""

    __slots__ = ("_terms", "_integer")

    def __init__(self, terms: Iterable[Monomial] = ()):
        acc: dict[Exponents, Fraction] = {}
        for m in terms:
            acc[m.exponents] = acc.get(m.exponents, Fraction(0)) + m.coefficient
        self._terms = _from_dict(acc)

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial.constant(1)

    @staticmethod
    def constant(value: Number) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        c = Fraction(value)
        p._terms = () if c == 0 else (Monomial(c, ()),)
        return p

    @staticmethod
    def symbol(sym: SymbolId) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        p._terms = (Monomial(Fraction(1), ((sym, 1),)),)
        return p

    @property
    def terms(self) -> tuple[Monomial, ...]:
        return self._terms

    @property
    def symbols(self) -> frozenset[SymbolId]:
        return frozenset(s for m in self._terms for s, _ in m.exponents)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        other_p = _try_coerce(other)
        if other_p is None:
            return NotImplemented
        return self._terms == other_p._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __add__(self, other) -> "Polynomial":
        other_p = _try_coerce(other)
        if other_p is None:
            return NotImplemented
        acc = {m.exponents: m.coefficient for m in self._terms}
        for m in other_p._terms:
            acc[m.exponents] = acc.get(m.exponents, Fraction(0)) + m.coefficient
        return _wrap(_from_dict(acc))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _wrap(tuple(Monomial(-m.coefficient, m.exponents) for m in self._terms))

    def __sub__(self, other) -> "Polynomial":
        other_p = _try_coerce(other)
        if other_p is None:
            return NotImplemented
        return self + (-other_p)

    def __rsub__(self, other) -> "Polynomial":
        other_p = _try_coerce(other)
        if other_p is None:
            return NotImplemented
        return other_p + (-self)

    def __mul__(self, other) -> "Polynomial":
        other_p = _try_coerce(other)
        if other_p is None:
            return NotImplemented
        acc: dict[Exponents, Fraction] = {}
        for a in self._terms:
            for b in other_p._terms:
                exps = _merge_exponents(a.exponents, b.exponents)
                acc[exps] = acc.get(exps, Fraction(0)) + a.coefficient * b.coefficient
        return _wrap(_from_dict(acc))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        out = Polynomial.one()
        for _ in range(n):
            out = out * self
        return out

    def evaluate(self, point: Mapping[SymbolId, object]):
        """Evaluate exactly at a point mapping symbols to numbers.

        Scalar values are read by _exact.  The sum is taken in Python ints
        over the coefficients scaled to a common denominator (computed once
        per polynomial) and comes back as one Fraction.  A value may also
        be an integer or object ndarray of ints: the sum is then taken
        elementwise and comes back as an object array of Fractions.
        Raises MissingSymbolError for a symbol absent from the point and
        TypeError for any other value, a float array too.
        """
        den, degrees, terms = self._integer_form()
        nums = []
        dens = []
        for sym in degrees:
            try:
                x = point[sym]
            except KeyError:
                raise MissingSymbolError(sym) from None
            if isinstance(x, np.ndarray) and x.dtype.kind in "iuO":
                nums.append(x.astype(object))   # Python ints: nothing wraps
                dens.append(1)
            else:
                x = _exact(sym, x)
                nums.append(x.numerator)
                dens.append(x.denominator)
        scale = 1
        for d, q in zip(degrees.values(), dens):
            if q != 1:
                scale *= q ** d
        total = 0
        for c, powers in terms:
            t = c * scale
            for i, e in powers:
                q = dens[i]
                t = t * nums[i] ** e if q == 1 else t * nums[i] ** e // q ** e
            total += t
        if isinstance(total, np.ndarray):
            return np.frompyfunc(Fraction, 2, 1)(total, den * scale)
        return Fraction(total, den * scale)

    def _integer_form(self):
        """(den, degrees, terms): den is the least common denominator of
        the coefficients; degrees maps each symbol, in the order the terms
        first read it, to its highest power; terms holds (den * coefficient,
        ((symbol position in degrees, power), ...)) per term."""
        try:
            return self._integer
        except AttributeError:
            pass
        den = 1
        degrees: dict[SymbolId, int] = {}
        for m in self._terms:
            den = math.lcm(den, m.coefficient.denominator)
            for sym, e in m.exponents:
                degrees[sym] = max(degrees.get(sym, 0), e)
        position = {sym: i for i, sym in enumerate(degrees)}
        terms = tuple(
            (m.coefficient.numerator * (den // m.coefficient.denominator),
             tuple((position[sym], e) for sym, e in m.exponents))
            for m in self._terms)
        self._integer = (den, degrees, terms)
        return self._integer

    def __str__(self) -> str:
        return canonical_string(self)

    def __repr__(self) -> str:
        return f"<Polynomial {canonical_string(self)}>"


def _wrap(terms: tuple[Monomial, ...]) -> Polynomial:
    p = Polynomial.__new__(Polynomial)
    p._terms = terms
    return p


def _from_dict(acc: Mapping[Exponents, Fraction]) -> tuple[Monomial, ...]:
    items = [(e, c) for e, c in acc.items() if c != 0]
    items.sort(key=lambda ec: _storage_key(ec[0]))
    return tuple(Monomial(c, e) for e, c in items)


def _merge_exponents(a: Exponents, b: Exponents) -> Exponents:
    acc: dict[SymbolId, int] = dict(a)
    for s, e in b:
        acc[s] = acc.get(s, 0) + e
    return tuple(sorted(acc.items(), key=lambda se: _symbol_key(se[0])))


def _try_coerce(value) -> Polynomial | None:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return None


def _exact(sym: SymbolId, value) -> Fraction:
    """value, bound to sym, as an exact rational with Python-int parts:
    ints and numpy integers (through operator.index) and Fractions as they
    are, floats (np.float64 too) as the rational they represent; anything
    else, a string too, is a TypeError, and a NaN or infinite float a
    ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"value for {sym!r} must be finite, "
                             f"got {value!r}")
        return Fraction(value)
    try:
        return Fraction(operator.index(value))
    except TypeError:
        raise TypeError(f"value for {sym!r} must be an int, Fraction or "
                        f"float, got {type(value).__name__}") from None


def monomial(coefficient: Number, powers: Mapping[SymbolId, int]) -> Polynomial:
    """Convenience constructor for a single-term polynomial."""
    exps = tuple(sorted(((s, e) for s, e in powers.items() if e != 0),
                        key=lambda se: _symbol_key(se[0])))
    for _, e in exps:
        if e < 0:
            raise ValueError("exponents must be nonnegative")
    c = Fraction(coefficient)
    return _wrap(() if c == 0 else (Monomial(c, exps),))


def falling_factorial(sym: SymbolId, n: int) -> Polynomial:
    """x*(x-1)*...*(x-n+1) as a polynomial in sym; n = 0 gives 1."""
    if sym.kind is not SymbolKind.SPECIES:
        raise ValueError(f"falling factorial is defined for species symbols, got rate {sym.name!r}")
    if not isinstance(n, int) or n < 0:
        raise ValueError("falling factorial order must be a nonnegative integer")
    x = Polynomial.symbol(sym)
    out = Polynomial.one()
    for i in range(n):
        out = out * (x - i)
    return out


def power(sym: SymbolId, n: int) -> Polynomial:
    """Plain power x^n, the mass-action counterpart of the exact rate."""
    if sym.kind is not SymbolKind.SPECIES:
        raise ValueError(f"power is defined for species symbols, got rate {sym.name!r}")
    if not isinstance(n, int) or n < 0:
        raise ValueError("power must be a nonnegative integer")
    return Polynomial.symbol(sym) ** n


# ---------------------------------------------------------------------------
# printing


def sorted_terms(p: Polynomial,
                 symbol_order: Sequence[SymbolId] | None = None) -> list[Monomial]:
    """Terms in display order: ascending lexicographic on exponent vectors.

    The exponent vector of each term is read off against a significance
    list: symbol_order first (most significant first), then any remaining
    symbols of the polynomial, species before rates, alphabetically.  A
    polynomial of at most one term is returned as it is, without reading
    symbol_order.
    """
    if len(p.terms) <= 1:
        return list(p.terms)
    present = p.symbols
    if symbol_order is None:
        sig = sorted(present, key=_symbol_key)
    else:
        sig = [s for s in symbol_order if s in present]
        seen = set(sig)
        sig += sorted((s for s in present if s not in seen), key=_symbol_key)

    def term_key(m: Monomial) -> tuple[int, ...]:
        e = dict(m.exponents)
        return tuple(e.get(s, 0) for s in sig)

    return sorted(p.terms, key=term_key)


def rates_then_species(factor: tuple[SymbolId, int]) -> tuple[bool, str]:
    """Display order of a term's factors: rate constants first, then
    species, alphabetically within each kind."""
    return (factor[0].kind is SymbolKind.SPECIES, factor[0].name)


def render_terms(terms: Iterable[Monomial],
                 number: Callable[[Fraction], str],
                 factor: Callable[[SymbolId, int], str], *,
                 times: str, zero: str, lead: str,
                 order: Callable | None = None) -> str:
    """Join terms into a signed sum: "t1 - t2 + t3".

    number prints a coefficient's absolute value, left out when it is 1
    and the term has factors; factor prints one power sym^e; times joins
    a term's parts.  lead is the sign written before a negative first
    term, zero the text for no terms.  order, a sort key over (symbol,
    power) pairs, orders each term's factors; None keeps storage order.
    """
    pieces = []
    for m in terms:
        c = abs(m.coefficient)
        parts = [number(c)] if c != 1 or not m.exponents else []
        exponents = m.exponents if order is None else sorted(m.exponents,
                                                              key=order)
        parts += [factor(sym, e) for sym, e in exponents]
        if m.coefficient < 0:
            sign = "- " if pieces else lead
        else:
            sign = "+ " if pieces else ""
        pieces.append(sign + times.join(parts))
    return " ".join(pieces) if pieces else zero


def canonical_string(p: Polynomial,
                     symbol_order: Sequence[SymbolId] | None = None) -> str:
    """Deterministic text form; parse_expression inverts it exactly."""
    return render_terms(
        sorted_terms(p, symbol_order), str,
        lambda sym, e: sym.name if e == 1 else f"{sym.name}^{e}",
        times="*", zero="0", lead="-", order=rates_then_species)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])")


class ExpressionSyntaxError(ValueError):
    """Syntax error with character position and what was expected there."""

    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


@dataclass(frozen=True)
class Token:
    kind: str  # a group name of the token pattern, or "end"
    text: str
    position: int  # 0-based character offset


class TokenStream:
    """The tokens of one text, front to back, for the expression and
    scheme parsers: pattern's named groups are the token kinds,
    whitespace is skipped, an "end" token closes the stream, and a
    character no group matches raises unexpected(character, position)."""

    def __init__(self, text: str, pattern: re.Pattern,
                 unexpected: Callable[[str, int], Exception]):
        self.tokens = []
        i = 0
        while i < len(text):
            if text[i].isspace():
                i += 1
                continue
            m = pattern.match(text, i)
            if m is None:
                raise unexpected(text[i], i)
            self.tokens.append(Token(m.lastgroup, m.group(), i))
            i = m.end()
        self.tokens.append(Token("end", "", len(text)))
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept_op(self, op: str) -> bool:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            self.pos += 1
            return True
        return False


def _symbol_table(symbols) -> dict[str, SymbolId]:
    if symbols is None:
        return {}
    if isinstance(symbols, Mapping):
        return dict(symbols)
    return {s.name: s for s in symbols}


class _Parser(TokenStream):
    def __init__(self, text: str, table: dict[str, SymbolId]):
        super().__init__(text, _TOKEN_RE, lambda c, i: ExpressionSyntaxError(
            f"unexpected character {c!r}", i))
        self.table = table

    def parse_expr(self) -> Polynomial:
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

    def parse_term(self) -> Polynomial:
        p = self.parse_factor()
        while self.accept_op("*"):
            p = p * self.parse_factor()
        return p

    def parse_factor(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            if "." not in tok.text and self.accept_op("/"):
                den = self.peek()
                if den.kind != "number" or "." in den.text:
                    raise ExpressionSyntaxError("bad rational literal", den.position,
                                                expected="an integer denominator")
                self.take()
                return Polynomial.constant(Fraction(int(tok.text), int(den.text)))
            return Polynomial.constant(Fraction(tok.text))
        if tok.kind == "name":
            self.take()
            sym = self.table.get(tok.text)
            if sym is None:
                sym = SymbolId(tok.text, SymbolKind.SPECIES)
            p = Polynomial.symbol(sym)
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

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(f"unexpected {tok.text!r}", tok.position,
                                        expected="'+', '-', '*', or end of input")


def parse_expression(text: str, symbols=None) -> Polynomial:
    """Parse an expression in +, -, *, ^uint, parentheses, and literals.

    Literals are nonnegative decimals or integer rationals p/q; a single
    leading minus is allowed at the head of an expression or parenthesized
    subexpression.  symbols maps names to SymbolId (a mapping or iterable);
    unknown names default to species.
    """
    parser = _Parser(text, _symbol_table(symbols))
    p = parser.parse_expr()
    parser.expect_end()
    return p


def bind_values(p: Polynomial, values: Mapping[SymbolId, object]) -> Polynomial:
    """Bind numeric values to symbols term by term, exactly: values are
    read by _exact, as in Polynomial.evaluate, so a float binds as the
    rational it represents.  Symbols absent from values stay free.

    Only the values of symbols p reads are converted, each once per call:
    a bad value for such a symbol is a TypeError naming it, and values
    for symbols p does not read are never looked at."""
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
    return Polynomial(terms)


# ---------------------------------------------------------------------------
# numeric compilation

_TERMS_PER_LINE = 256
_FACTORS_PER_LINE = 256


def _compile(source: str, name: str, namespace: dict) -> Callable:
    """Run generated source in namespace and return its function name,
    popped: a function left in its own globals is a cycle, which only the
    garbage collector frees."""
    exec(source, namespace)
    return namespace.pop(name)


def as_function(polys: Sequence[Polynomial],
                args: Sequence[SymbolId]) -> Callable:
    """Compile to one float function of positional arguments in args
    order that returns the polynomials' values as a tuple, in order.

    Works elementwise when the arguments are numpy arrays.  All of the
    polynomials' symbols must appear in args, and every coefficient must
    round to a finite float: one that does not raises OverflowError.

    The body is generated source over float literals and the argument
    positions _0, _1, ...: "s0 = 0.0 + c1*_0*_0 - c2*_1 ...", terms in
    storage order and powers as repeated products, evaluated left to
    right, for each polynomial.  Long sums continue over several
    statements, and so does a term of more than _FACTORS_PER_LINE
    factors ("t = c*_0*...", "t = t*_0*...", then "s0 = s0 - t"), which
    keeps the expressions shallow enough to compile.
    """
    index = {s: f"_{i}" for i, s in enumerate(args)}

    def factors(sym: SymbolId, e: int) -> list[str]:
        if sym not in index:
            raise MissingSymbolError(sym)
        return [index[sym]] * e

    def literal(c: Fraction) -> str:
        try:
            return repr(float(c))
        except OverflowError:
            raise OverflowError("a compiled coefficient is beyond the float "
                                "range; rescale the rate values") from None

    def add_terms(k: int, terms: list[Monomial]) -> None:
        if terms:
            body = render_terms(terms, literal,
                                lambda sym, e: "*".join(factors(sym, e)),
                                times="*", zero="0.0", lead="-")
            lines.append(f"    s{k} = s{k} + {body}")

    def add_long_term(k: int, m: Monomial) -> None:
        c = abs(m.coefficient)
        parts = [literal(c)] if c != 1 else []
        for sym, e in m.exponents:
            parts += factors(sym, e)
        for i in range(0, len(parts), _FACTORS_PER_LINE):
            product = "*".join(parts[i:i + _FACTORS_PER_LINE])
            lines.append(f"    t = {product}" if i == 0
                         else f"    t = t*{product}")
        sign = "-" if m.coefficient < 0 else "+"
        lines.append(f"    s{k} = s{k} {sign} t")

    params = ", ".join(f"_{i}" for i in range(len(args)))
    lines = [f"def polynomials({params}):"]
    for k, p in enumerate(polys):
        lines.append(f"    s{k} = 0.0")
        run: list[Monomial] = []
        for m in p.terms:
            if sum(e for _, e in m.exponents) > _FACTORS_PER_LINE:
                add_terms(k, run)
                run = []
                add_long_term(k, m)
            else:
                run.append(m)
                if len(run) == _TERMS_PER_LINE:
                    add_terms(k, run)
                    run = []
        add_terms(k, run)
    lines.append("    return (" + "".join(f"s{k}, " for k in
                                          range(len(polys))) + ")")
    return _compile("\n".join(lines), "polynomials", {})
