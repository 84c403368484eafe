"""Shared test fixtures: reference schemes, a random-scheme generator,
the per-state reading of enumerated jump moments, the random streams'
construction, and three references: the polynomial arithmetic of the
all-Fraction coefficients, the exact integer arrays of the oracles and
of check on Python ints alone, and the jump sampler that runs every path
in its generated per-path loop."""

import math
import operator
import random
from fractions import Fraction

import numpy as np
import scipy.sparse

from onestep.cme import (ChannelTable, JumpMoments, TruncatedGenerator,
                         moved_together)
from onestep.cme import reaction_channels
from onestep.poly import (ExpressionSyntaxError, MissingSymbolError,
                          Monomial, SymbolId, SymbolKind, TokenStream,
                          _compile, _exact, _symbol_table, _TOKEN_RE)
from onestep.scheme import InteractionScheme
from onestep.sim import (_SSA_CHUNK, _SSA_EVENT_BUDGET, Engine, SimConfig,
                         SimulationError, Stream, TrajectoryEnsemble,
                         _choice_tree, _rekeyer, _ssa_leaves, _ssa_rate_lines,
                         integer_initial_state, trajectory_rng)

VERHULST = """\
phi <-> 2 phi @ lambda, gamma
phi -> 0 @ beta
"""

LOTKA_VOLTERRA = """\
x -> 2 x @ k_1
x + y -> 2 y @ k_2
y -> 0 @ k_3
"""

RING3 = """\
2 x1 <-> 2 x2 @ a_1, b_1
2 x2 <-> 2 x3 @ a_2, b_2
2 x3 <-> 2 x1 @ a_3, b_3
"""

PURE_DEATH = "phi -> 0 @ beta\n"

# the random-stream contract of onestep.sim restated: the domain of each
# consumer of draws (the last word of its Philox counter's start)
EM_NORMALS, EM_REDRAWS, SSA_WAITS, SSA_CHOICES, CHECK_STATES = range(5)


def reference_stream(base_seed: int, index: int,
                     domain: int) -> np.random.Generator:
    """The stream of one consumer of trajectory index, built from Philox's
    own key and counter arguments: the key words (base_seed, index), the
    counter words (0, 0, 0, domain), low word first in both."""
    return np.random.Generator(np.random.Philox(
        counter=domain << 192, key=base_seed | index << 64))


def lower_stack(stack: np.ndarray, pattern) -> np.ndarray:
    """The (S, n, n) lower-triangular matrices of a (slots, S) array in a
    sim._FactorPattern's slot layout, zero outside the pattern."""
    lower = np.zeros((stack.shape[1], pattern.n, pattern.n))
    for s, (i, j) in enumerate(pattern.slots):
        lower[:, i, j] = stack[s]
    return lower


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


# ---------------------------------------------------------------------------
# The exact oracles, array evaluation and check's comparison as they were
# when every exact integer array held Python ints (dtype object): verbatim
# copies of ChannelTable.rate_numerators (taking the table as an
# argument), jump_moments, build_generator, Polynomial.evaluate (taking
# the polynomial as an argument) with its _int_array, and
# cli._moment_mismatches.  The int64 path must give the same values.


def object_rate_numerators(table, states):
    n = table.stoich.shape[1]
    x = np.asarray(states)
    if (x.ndim != 2 or x.shape[1] != n or x.dtype.kind not in "iu"
            or (x < 0).any()):
        raise ValueError(f"states must be nonnegative integer vectors "
                         f"of {n} entries, one per species")
    x = x.astype(object)
    falling = {}            # (i, m): x_i (x_i - 1) ... (x_i - m + 1)

    def factorial(i, m):
        product = falling.setdefault((i, 1), x[:, i])
        for k in range(2, m + 1):
            if (i, k) not in falling:
                falling[i, k] = product * (x[:, i] - (k - 1))
            product = falling[i, k]
        return product

    out = np.empty((len(x), len(table.numerators)), dtype=object)
    for c, (value, stoich) in enumerate(zip(table.numerators,
                                            table.stoich.tolist())):
        for i, m in enumerate(stoich):
            if m:
                value = value * factorial(i, m)
        out[:, c] = value
    return out


def _object_weighted_sum(at, channels, weights):
    return at[:, channels].dot(np.array(weights, dtype=object))


def object_jump_moments(scheme, rates, states):
    table = ChannelTable(scheme, rates)
    at = object_rate_numerators(table, states)          # (S, C)
    change = table.change.T.tolist()                    # per species
    first = np.zeros((len(at), len(change)), dtype=object)
    for i, d in enumerate(change):
        channels = [c for c, v in enumerate(d) if v]
        if channels:
            first[:, i] = _object_weighted_sum(at, channels,
                                               [d[c] for c in channels])
    second = {}
    for (i, j), (channels, weights) in moved_together(table.change).items():
        # (j, i) sorts before (i, j) for j < i and holds the same sum
        second[i, j] = second[j, i] if i > j else \
            _object_weighted_sum(at, channels, weights)
    return JumpMoments(table.denominator, first, second)


def object_build_generator(scheme, rates, box):
    if len(box.bounds) != len(scheme.species):
        raise ValueError("box dimension does not match the species count")
    table = ChannelTable(scheme, rates)
    states = box.state_array()
    at = object_rate_numerators(table, states)
    source = np.arange(box.size)
    parts = [(source, source, -at.sum(axis=1))]
    lost = np.zeros(box.size, dtype=object)
    # channels that share a change vector share their entries
    for change in dict.fromkeys(map(tuple, table.change.tolist())):
        v = at[:, (table.change == change).all(axis=1)].sum(axis=1)
        target = states + change
        inside = ((target >= 0) & (target <= box.bounds)).all(axis=1)
        lost = lost + np.where(inside, 0, v)
        parts.append((np.ravel_multi_index(tuple(target[inside].T),
                                           tuple(b + 1 for b in box.bounds)),
                      source[inside], v[inside]))
    rows, cols, values = map(np.concatenate, zip(*parts))
    keep = values != 0
    # int / int is correctly rounded, as float(Fraction) is
    den = table.denominator
    matrix = scipy.sparse.coo_matrix(
        ((values[keep] / den).astype(np.float64), (rows[keep], cols[keep])),
        shape=(box.size, box.size)).tocsr()
    return TruncatedGenerator(
        scheme=scheme, box=box, matrix=matrix,
        lost_rate=(lost / den).astype(np.float64))


def _object_int_array(sym, x):
    if x.dtype.kind in "iu":
        return x.astype(object)
    out = np.empty(x.shape, dtype=object)
    for k, v in enumerate(x.flat):
        try:
            out.flat[k] = operator.index(v)
        except TypeError:
            raise TypeError(f"value for {sym!r} must be an int, Fraction or "
                            f"float, or an array of ints; got an array "
                            f"element of type {type(v).__name__}") from None
    return out


def object_evaluate(p, point):
    den, degrees, terms = p._integer_form()
    values = []
    scale = 1
    for sym, d in degrees.items():
        try:
            x = point[sym]
        except KeyError:
            raise MissingSymbolError(sym) from None
        if isinstance(x, np.ndarray) and x.dtype.kind in "iuO":
            values.append(_object_int_array(sym, x))
        else:
            x = _exact(sym, x)
            values.append(x)
            scale *= x.denominator ** d
    powers = {}     # (i, e): values[i] ** e, by products, once a call

    def power(i, e):
        product = powers.setdefault((i, 1), values[i])
        for k in range(2, e + 1):
            if (i, k) not in powers:
                powers[i, k] = product * values[i]
            product = powers[i, k]
        return product

    # a term's scalar factors go into its int; the powers of array
    # values it reads key the group whose int it joins
    groups = {}
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
    arrays = [x for x in values if not isinstance(x, Fraction)]
    if not arrays:
        return Fraction(groups.get((), 0), den * scale)
    total = np.zeros(np.broadcast_shapes(*(x.shape for x in arrays)),
                     dtype=object)
    for key, t in groups.items():
        if t:
            for i, e in key:
                t = t * power(i, e)
            total += t
    return total, den * scale


def object_moment_mismatches(moments, drift, diffusion, entries, point):
    def differs(numerators, p):
        value = object_evaluate(p, point)
        if isinstance(value, Fraction):         # p reads no species
            value = (value.numerator, value.denominator)
        values, denominator = value
        return numerators * denominator != values * moments.denominator

    first_wrong = np.zeros(moments.first.shape, dtype=bool)
    for i, p in enumerate(drift):
        first_wrong[:, i] = differs(moments.first[:, i], p)
    second_wrong = np.zeros((len(first_wrong), len(entries)), dtype=bool)
    for e, (i, j) in enumerate(entries):
        second_wrong[:, e] = differs(moments.second.get((i, j), 0),
                                     diffusion[i][j])
    return first_wrong, second_wrong


# ---------------------------------------------------------------------------
# The jump sampler before its lockstep head, copied verbatim: every path
# runs from its start in the generated per-path loop.  Tests compare
# onestep.sim.gillespie_ssa with scalar_gillespie_ssa bit for bit; a test
# that lowers the event budget sets _SSA_EVENT_BUDGET here too.

# The jump sampler's loop over one path; _ssa_path_source fills in the
# state's locals x0, x1, ... (row, store), the channels' rates (rates),
# their running sums (sums, total) and the choice of channel (choice).
# The outer loop computes every rate: at the start of the path and after
# a leaf that breaks; the other leaves recompute the rates they change.
_SSA_PATH = """\
def sample_path(j, init, grid, exponential, uniform, budget):
    {row}= init
    # the next value (ei, ui) of each chunk of draws; drawn counts the
    # waiting times drawn, ecount those of the last chunk
    ei = ecount = drawn = 0
    ui = {chunk}
    t = 0.0
    g = 0
    g_count = len(grid)
    due = grid[0]
    rows = []
    store = rows.append
    while True:
{rates}
        while True:
{sums}
            total = {total}
            if total <= 0.0:
                t = inf             # absorbed: the state holds forever
            else:
                if ei == ecount:
                    if drawn >= budget:
                        raise SimulationError(
                            f"trajectory {{j}} used up its budget of "
                            f"{{budget}} jump events at t = {{t!r}}: "
                            "the model may blow up in finite time, or t_final "
                            "needs more jump events than the budget")
                    ecount = min({chunk}, budget - drawn)
                    exp_buf = exponential(ecount).tolist()
                    drawn += ecount
                    ei = 0
                t += exp_buf[ei] / total
                ei += 1
            # the last grid time is t_final, so an event past it ends the
            # path
            while due < t:
{store}
                g += 1
                if g == g_count:
                    return rows
                due = grid[g]
            if ui == {chunk}:
                uni_buf = uniform({chunk}).tolist()
                ui = 0
            target = uni_buf[ui] * total
            ui += 1
{choice}
"""


def _ssa_path_source(channels, n: int) -> str:
    """The source of the function that _compile_ssa_path compiles."""
    lines = _ssa_rate_lines(channels)
    count = len(channels)
    leaves = _ssa_leaves(channels, lines)
    return _SSA_PATH.format(
        row="".join(f"x{i}, " for i in range(n)),
        store="\n".join(f"{' ' * 16}store(x{i})" for i in range(n)),
        rates="\n".join(" " * 8 + line for line in lines[:count]),
        sums="\n".join(" " * 12 + line for line in lines[count:]),
        total=f"c{count - 1}",
        choice="\n".join(_choice_tree(leaves, 0, count - 1, " " * 12)),
        chunk=_SSA_CHUNK)


def _compile_ssa_path(channels, n: int):
    """Generate the jump sampler's loop over one path as one function
    sample_path(j, init, grid, exponential, uniform, budget) -> rows.

    The state is held in the locals x0, ..., x{n-1} and each channel's
    rate in r0, r1, ... (the statements of _ssa_rate_lines).  Each event
    computes the running sums, waits exponential time over their total,
    picks its channel with _choice_tree and runs the channel's leaf from
    _ssa_leaves: the change to the locals, then the rates of the channels
    that consume a species it moved, or a `break` to the loop that
    recomputes every rate.  A rate whose species did not move keeps its
    bits, so every sum, and so every path, is the one that recomputing
    every rate at every event gives.  At every grid time the path passes,
    the state's coordinates are appended to rows, one flat list.  Waiting
    times come from exponential(k) and choices from uniform(k), in chunks
    of _SSA_CHUNK drawn when the path needs the next one (no value depends
    on the chunk size); waiting time budget + 1 raises SimulationError.
    """
    return _compile(_ssa_path_source(channels, n), "sample_path",
                    {"inf": math.inf, "SimulationError": SimulationError})


def scalar_gillespie_ssa(scheme: InteractionScheme,
                         config: SimConfig) -> TrajectoryEnsemble:
    """Exact jump-process sampling with exponential waiting times: each
    event fires the first channel whose cumulative rate exceeds u times
    the total (Gillespie's direct method).

    States are integer occupation numbers; sampled paths are reported on
    the shared time grid by last-value interpolation.  The initial state
    must be integral.  A trajectory that needs more than
    _SSA_EVENT_BUDGET events raises SimulationError.
    """
    n = len(scheme.species)
    if len(config.initial_state) != n:
        raise ValueError("initial state length does not match the scheme")
    init = integer_initial_state(config.initial_state)

    float_rates = {sym: float(_exact(sym, v))
                   for sym, v in config.rates.items()}
    sample_path = _compile_ssa_path(reaction_channels(scheme, float_rates),
                                    n)

    times = config.times
    grid = times.tolist()          # the path loop runs on plain floats
    paths = np.empty((config.trajectories, len(grid), n))
    rows = paths.reshape(config.trajectories, -1)     # a view
    seed = config.base_seed
    waits = trajectory_rng(seed, 0, Stream.SSA_WAITS)  # re-keyed every path
    choices = trajectory_rng(seed, 0, Stream.SSA_CHOICES)
    budget = _SSA_EVENT_BUDGET
    for j in range(config.trajectories):
        _rekeyer(Stream.SSA_WAITS)(waits.bit_generator, seed, j)
        _rekeyer(Stream.SSA_CHOICES)(choices.bit_generator, seed, j)
        rows[j] = sample_path(j, init, grid, waits.standard_exponential,
                              choices.random, budget)
    return TrajectoryEnsemble(engine=Engine.SSA, species=scheme.species,
                              times=times, paths=paths,
                              clamp_events=np.zeros(config.trajectories,
                                                    dtype=np.int64))
