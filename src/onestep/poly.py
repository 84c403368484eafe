"""Exact multivariate polynomials over named symbols.

Coefficients are rational: an integral one is a Python int, any other a
fractions.Fraction with denominator > 1.  Every algebraic operation here
is exact, evaluation and binding included: a float value counts as the
rational it represents.  Floating point only appears when
polynomials are compiled to a numeric function (as_function).
Symbols carry a kind (species or rate constant) because model assembly
and printing treat the two vocabularies differently.

numpy is imported only by the paths that evaluate over arrays, so the
symbolic layer (poly, scheme, derive, codegen) loads without it.
"""

from __future__ import annotations

import enum
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union


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

    def __hash__(self) -> int:
        # the generated hash would build a tuple and call Enum's hash on
        # every dict and set lookup; equal ids share a name, and ids that
        # share only a name are told apart by __eq__
        return hash(self.name)


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


class UnboundRateError(KeyError):
    """A rate symbol of a scheme with no value in the bindings."""

    def __init__(self, symbol: SymbolId):
        self.symbol = symbol
        super().__init__(f"no value bound for rate symbol {symbol.name!r}")

    def __str__(self) -> str:
        return self.args[0]


Exponents = tuple[tuple[SymbolId, int], ...]


Number = Union[int, Fraction]


@dataclass(frozen=True)
class Monomial:
    """One term: a nonzero rational coefficient times a product of powers.

    In a Polynomial the coefficient is an int when it is integral and a
    Fraction otherwise (_canonical), and exponents is sorted by symbol and
    holds strictly positive powers only, so equal monomials compare equal
    structurally.
    """

    coefficient: Number
    exponents: Exponents


def _storage_key(exponents: Exponents) -> tuple:
    return tuple((_symbol_key(s), e) for s, e in exponents)


def _canonical(c: Number) -> Number:
    """c as an int when it is integral, else as the Fraction it is."""
    return c.numerator if c.denominator == 1 else c


def _accumulate(acc: dict[Exponents, Number], terms) -> dict:
    """acc with each (exponents, coefficient) of terms added in."""
    for e, c in terms:
        old = acc.get(e)
        acc[e] = c if old is None else old + c
    return acc


class Polynomial:
    """Immutable polynomial in canonical form (merged, sorted terms)."""

    __slots__ = ("_terms", "_integer")

    def __init__(self, terms: Iterable[Monomial] = ()):
        self._terms = _from_dict(_accumulate(
            {}, ((m.exponents, m.coefficient) for m in terms)))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial.constant(1)

    @staticmethod
    def constant(value: Number) -> "Polynomial":
        c = value if type(value) is int else _canonical(Fraction(value))
        return _wrap((Monomial(c, ()),) if c else ())

    @staticmethod
    def symbol(sym: SymbolId) -> "Polynomial":
        return _wrap((Monomial(1, ((sym, 1),)),))

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
        return _wrap(_from_dict(_accumulate(
            {m.exponents: m.coefficient for m in self._terms},
            ((m.exponents, m.coefficient) for m in other_p._terms))))

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
        if isinstance(other, (int, Fraction)):
            # a scalar scales each coefficient in place: the exponents and
            # the order of the terms stay, and 0 gives the zero polynomial
            return _wrap(tuple(Monomial(_canonical(m.coefficient * other),
                                        m.exponents)
                               for m in self._terms) if other else ())
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _wrap(_from_dict(_accumulate({}, (
            (_merge_exponents(a.exponents, b.exponents),
             a.coefficient * b.coefficient)
            for a in self._terms for b in other._terms))))

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

        Scalar values are read by _exact, and the value comes back as one
        Fraction.  A value may also be an integer ndarray, or an object
        ndarray of ints (elements are read by operator.index): the
        polynomial is then evaluated elementwise and comes back as a pair
        (numerators, denominator), an integer ndarray that never wraps and
        one positive int; the value is their quotient, not reduced.  The
        numerators are int64 when a bound shows that no power, partial
        product or sum reaches 2**53 in magnitude, else Python ints in an
        object array (_int_dtype).  A polynomial that reads no array value
        comes back as one Fraction, whatever else the point holds.

        The scalar values fold into one reduced rational coefficient per
        group of terms that read the same powers of the array values
        (computed over the coefficients scaled to a common denominator,
        once per polynomial), and the denominator is the lcm of those
        coefficients' denominators.  Each power of a value is computed once
        per call, so each group costs one pass over the arrays.  Raises
        MissingSymbolError for a symbol absent from the point and
        TypeError for any other value, a float array too, and for an
        array element that is not an int.
        """
        den, degrees, terms = self._integer_form()
        values = []
        scale = 1
        for sym, d in degrees.items():
            try:
                x = point[sym]
            except KeyError:
                raise MissingSymbolError(sym) from None
            if _is_ndarray(x) and x.dtype.kind in "iuO":
                values.append(_int_array(sym, x))
            else:
                x = _exact(sym, x)
                values.append(x)
                scale *= x.denominator ** d
        powers = {}     # (i, e): values[i] ** e, by products, once a call

        def power(i: int, e: int):
            product = powers.setdefault((i, 1), values[i])
            for k in range(2, e + 1):
                if (i, k) not in powers:
                    powers[i, k] = product * values[i]
                product = powers[i, k]
            return product

        # a term's scalar factors go into its int; the powers of array
        # values it reads key the group whose int it joins
        groups: dict[tuple, int] = {}
        for c, factors in terms:
            t = c * scale
            key = []
            for i, e in factors:
                if isinstance(values[i], Fraction):
                    x = power(i, e)
                    t = t * x.numerator // x.denominator
                else:
                    key.append((i, e))
            key = tuple(key)
            groups[key] = groups.get(key, 0) + t
        arrays = [i for i, x in enumerate(values)
                  if not isinstance(x, Fraction)]
        if not arrays:
            return Fraction(groups.get((), 0), den * scale)
        coefficients = {key: Fraction(t, den * scale)
                        for key, t in groups.items() if t}
        common = math.lcm(*(c.denominator for c in coefficients.values()))
        # with |x_i| <= top[i], a group's |numerator| times its powers of
        # top bounds each of its powers and partial products, and their
        # sum bounds the running total
        top = {i: max(1, _largest(values[i])) for i in arrays}
        numerators, bound = {}, 0
        for key, c in coefficients.items():
            numerators[key] = c.numerator * (common // c.denominator)
            product = abs(numerators[key])
            for i, e in key:
                product *= top[i] ** e
            bound += product
        import numpy as np
        dtype = _int_dtype(bound)
        for i in arrays:
            values[i] = values[i].astype(dtype)
        total = np.zeros(np.broadcast_shapes(*(values[i].shape
                                               for i in arrays)),
                         dtype=dtype)
        for key, t in numerators.items():
            for i, e in key:
                t = t * power(i, e)
            total += t
        return total, common

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


def _from_dict(acc: Mapping[Exponents, Number]) -> tuple[Monomial, ...]:
    items = [(e, c) for e, c in acc.items() if c]
    items.sort(key=lambda ec: _storage_key(ec[0]))
    return tuple(Monomial(_canonical(c), e) for e, c in items)


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


def _is_ndarray(x) -> bool:
    """isinstance(x, numpy.ndarray), without importing numpy: no ndarray
    exists before numpy is imported."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def _int_array(sym: SymbolId, x):
    """x, an integer or object ndarray bound to sym: an integer ndarray as
    it is, an object one as an object ndarray of Python ints; an object
    element that is not an int (operator.index refuses it: a float,
    Fraction or string) is a TypeError naming sym."""
    if x.dtype.kind in "iu":
        return x
    import numpy as np
    out = np.empty(x.shape, dtype=object)
    for k, v in enumerate(x.flat):
        try:
            out.flat[k] = operator.index(v)
        except TypeError:
            raise TypeError(f"value for {sym!r} must be an int, Fraction or "
                            f"float, or an array of ints; got an array "
                            f"element of type {type(v).__name__}") from None
    return out


def _largest(x) -> int:
    """The largest magnitude in x, an int or an integer ndarray of any
    dtype, as a Python int; 0 for an empty array."""
    if not _is_ndarray(x):
        return abs(x)
    if not x.size:
        return 0
    return max(abs(int(x.min())), abs(int(x.max())))


def _int_dtype(bound: int):
    """The dtype of an exact integer array whose values, and every partial
    product and sum formed from them, are at most bound in magnitude:
    int64 below 2**53, else object, whose Python ints never wrap.  Below
    2**53 each value is also exact as a float64, so dividing by a
    denominator below 2**53 is one correctly rounded float division, as
    int / int is."""
    import numpy as np
    return np.int64 if bound < 2 ** 53 else object


def _fractions_differ(a, a_den: int, b, b_den: int):
    """a / a_den != b / b_den elementwise, for a and b ints or integer
    ndarrays of any dtype over positive int denominators, by
    cross-multiplication: a * b_den != b * a_den.  The products are taken
    in int64 when they are provably below 2**63, else in Python ints."""
    import numpy as np
    dtype = (np.int64 if max(1, _largest(a)) * b_den < 2 ** 63
             and max(1, _largest(b)) * a_den < 2 ** 63 else object)
    return np.asarray(a, dtype) * b_den != np.asarray(b, dtype) * a_den


def monomial(coefficient: Number, powers: Mapping[SymbolId, int]) -> Polynomial:
    """Convenience constructor for a single-term polynomial."""
    exps = tuple(sorted(((s, e) for s, e in powers.items() if e != 0),
                        key=lambda se: _symbol_key(se[0])))
    for _, e in exps:
        if e < 0:
            raise ValueError("exponents must be nonnegative")
    c = _canonical(Fraction(coefficient))
    return _wrap((Monomial(c, exps),) if c else ())


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


# symbols, most significant first, or their rank table from symbol_ranks
SymbolOrder = Union[Sequence[SymbolId], Mapping[SymbolId, int]]


def symbol_ranks(symbol_order: Sequence[SymbolId]) -> dict[SymbolId, int]:
    """Each symbol's first position in symbol_order: a renderer builds
    this once for all the polynomials it prints."""
    ranks: dict[SymbolId, int] = {}
    for i, sym in enumerate(symbol_order):
        ranks.setdefault(sym, i)
    return ranks


def sorted_terms(p: Polynomial,
                 symbol_order: SymbolOrder | None = None) -> list[Monomial]:
    """Terms in display order: ascending lexicographic on exponent vectors.

    The exponent vector of each term is read off against a significance
    list: the polynomial's symbols by rank in symbol_order (a rank table
    is only looked up), then those it does not rank, species before
    rates, alphabetically.  A polynomial of at most one term is returned
    as it is, without reading symbol_order.
    """
    if len(p.terms) <= 1:
        return list(p.terms)
    ranks = (symbol_order if isinstance(symbol_order, Mapping)
             else symbol_ranks(symbol_order or ()))
    sig = sorted(p.symbols, key=lambda s: (0, ranks[s]) if s in ranks
                 else (1, _symbol_key(s)))
    column = {sym: k for k, sym in enumerate(sig)}

    def term_key(m: Monomial) -> list[int]:
        vector = [0] * len(column)
        for sym, e in m.exponents:
            vector[column[sym]] = e
        return vector

    return sorted(p.terms, key=term_key)


def rates_then_species(factor: tuple[SymbolId, int]) -> tuple[bool, str]:
    """Display order of a term's factors: rate constants first, then
    species, alphabetically within each kind."""
    return (factor[0].kind is SymbolKind.SPECIES, factor[0].name)


def render_terms(terms: Iterable[Monomial],
                 number: Callable[[Number], str],
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
                     symbol_order: SymbolOrder | None = None) -> str:
    """Deterministic text form; parse_expression inverts it exactly."""
    return render_terms(
        sorted_terms(p, symbol_order), str,
        lambda sym, e: sym.name if e == 1 else f"{sym.name}^{e}",
        times="*", zero="0", lead="-", order=rates_then_species)


# ---------------------------------------------------------------------------
# parsing

# the largest stoichiometric coefficient of a scheme, so the largest power
# of a derived model, and the largest exponent parse_expression reads
MAX_STOICH = 64

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
                digits = exp.text.lstrip("0") or "0"   # int() of no long text
                if len(digits) > 2 or int(digits) > MAX_STOICH:
                    raise ExpressionSyntaxError(
                        f"exponent {exp.text} exceeds {MAX_STOICH}",
                        exp.position)
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
    storage order, each its sign and then |c| times its factors (powers
    as repeated products) taken left to right, for each polynomial.
    Each distinct product is computed once for all terms and
    polynomials: one that two longer products or terms read goes into a
    local ("p7 = c1*_0", read as "p7*_0"), deleted after its last
    reader.  Long sums continue over several statements, and a run of
    _FACTORS_PER_LINE products also goes into a local, which keeps the
    expressions shallow enough to compile.
    """
    index = {s: f"_{i}" for i, s in enumerate(args)}

    def literal(c: Number) -> str:
        try:
            return repr(float(c))
        except OverflowError:
            raise OverflowError("a compiled coefficient is beyond the float "
                                "range; rescale the rate values") from None

    def parts(m: Monomial) -> list[str]:
        c = abs(m.coefficient)
        out = [literal(c)] if c != 1 or not m.exponents else []
        for sym, e in m.exponents:
            if sym not in index:
                raise MissingSymbolError(sym)
            out += [index[sym]] * e
        return out

    # every prefix of a term's parts is a node, keyed by the node before
    # it and its last part; its readers are the distinct longer nodes and
    # the terms that end at it
    nodes: dict[tuple[int | None, str], int] = {}
    readers: dict[int | None, int] = {}
    rows = []
    for p in polys:
        row = []
        for m in p.terms:
            chain, node = [], None
            for part in parts(m):
                if (node, part) not in nodes:
                    nodes[node, part] = len(nodes)
                    readers[node] = readers.get(node, 0) + 1
                node = nodes[node, part]
                chain.append((node, part))
            readers[node] = readers.get(node, 0) + 1
            row.append((m.coefficient < 0, chain))
        rows.append(row)

    lines: list[str] = []
    # each local's last line, the one that computes it or its last reader
    last_use: dict[str, int] = {}

    def product(chain: list[tuple[int, str]]) -> tuple[str, str | None]:
        """The expression of a term's product, and the local it reads."""
        (_, expr), local, inline = chain[0], None, 0
        for node, part in chain[1:]:
            name = f"p{node}"
            if name not in last_use:            # not computed yet
                expr, inline = f"{expr}*{part}", inline + 1
                if readers[node] == 1 and inline < _FACTORS_PER_LINE:
                    continue
                if local:
                    last_use[local] = len(lines)
                last_use[name] = len(lines)
                lines.append(f"    {name} = {expr}")
            expr = local = name
            inline = 0
        return expr, local

    for k, row in enumerate(rows):
        for i in range(0, max(len(row), 1), _TERMS_PER_LINE):
            run = [(negative, *product(chain))
                   for negative, chain in row[i:i + _TERMS_PER_LINE]]
            for _, _, local in run:
                if local:
                    last_use[local] = len(lines)
            head = f"s{k}" if i else "0.0"
            lines.append(f"    s{k} = {head}" + "".join(
                f" {'-' if negative else '+'} {expr}"
                for negative, expr, _ in run))
    dead: dict[int, list[str]] = {}
    for local, line in last_use.items():
        dead.setdefault(line, []).append(local)
    params = ", ".join(f"_{i}" for i in range(len(args)))
    body = [f"def polynomials({params}):"]
    for i, line in enumerate(lines):
        body.append(line)
        if i in dead:
            body.append(f"    del {', '.join(dead[i])}")
    body.append("    return (" + "".join(f"s{k}, " for k in
                                         range(len(polys))) + ")")
    return _compile("\n".join(body), "polynomials", {})
