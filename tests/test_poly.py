"""Exact polynomial algebra: frozen values plus algebraic laws."""

import math
import re
from collections.abc import Callable, Sequence
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import onestep.poly
import onestep.scheme
from onestep import (ExpressionSyntaxError, MissingSymbolError, Polynomial,
                     SymbolId, SymbolKind, as_function, bind_values,
                     canonical_string, falling_factorial, monomial,
                     parse_expression, power, rate, sorted_terms, species)
from onestep.poly import (Monomial, _compile, _fractions_differ,
                          _symbol_key, render_terms)
from helpers import (FractionPolynomial, fraction_bind_values,
                     fraction_monomial, fraction_parse_expression,
                     is_canonical_coefficient, object_evaluate)

PHI = species("phi")
X = species("x")
Y = species("y")
LAM = rate("lambda")
BETA = rate("beta")
GAMMA = rate("gamma")
K1 = rate("k_1")
K2 = rate("k_2")

SYMS = {s.name: s for s in (PHI, X, Y, LAM, BETA, GAMMA, K1, K2)}


def verhulst_drift() -> Polynomial:
    phi = Polynomial.symbol(PHI)
    return (Polynomial.symbol(LAM) * phi - Polynomial.symbol(BETA) * phi
            - Polynomial.symbol(GAMMA) * phi * phi)


class TestSymbolId:
    def test_equality_needs_name_and_kind(self):
        assert species("x") == X
        assert species("x") != rate("x")
        assert rate("x") == SymbolId("x", SymbolKind.RATE)

    def test_hash_keeps_equal_ids_together_and_kinds_apart(self):
        assert hash(species("x")) == hash(X)
        table = {X: "species", rate("x"): "rate"}
        assert table[species("x")] == "species"
        assert table[SymbolId("x", SymbolKind.RATE)] == "rate"
        assert len({X, species("x"), rate("x")}) == 2

    def test_name_grammar(self):
        for ok in ("x", "_x", "k_1", "Phi2", "_"):
            SymbolId(ok, SymbolKind.SPECIES)
        for bad in ("", "2x", "x-y", "a b", "x$"):
            with pytest.raises(ValueError):
                SymbolId(bad, SymbolKind.SPECIES)


class TestAddition:
    def test_additive_inverse_empties_the_term_list(self):
        x = Polynomial.symbol(X)
        total = x + (-x)
        assert total.terms == ()
        assert not total

    def test_unlike_terms_coexist(self):
        p = monomial(1, {K1: 1, X: 1}) + monomial(1, {K2: 1, X: 1, Y: 1})
        assert canonical_string(p) == "k_1*x + k_2*x*y"

    def test_like_terms_merge(self):
        x = Polynomial.symbol(X)
        assert (2 * x + 1) + (3 * x - 1) == 5 * x


class TestMultiplication:
    def test_multiplicative_identity(self):
        x = Polynomial.symbol(X)
        assert x * Polynomial.one() == x

    def test_expands_the_stoichiometry_two_factor(self):
        x = Polynomial.symbol(X)
        assert x * (x - 1) == parse_expression("x^2 - x")

    def test_rate_times_species_product(self):
        p = Polynomial.symbol(K2) * Polynomial.symbol(X) * Polynomial.symbol(Y)
        assert canonical_string(p) == "k_2*x*y"


class TestFallingFactorial:
    def test_order_zero_is_one(self):
        assert falling_factorial(PHI, 0) == Polynomial.one()

    def test_order_one_is_the_symbol(self):
        assert falling_factorial(PHI, 1) == Polynomial.symbol(PHI)

    def test_order_three_expansion(self):
        p = falling_factorial(PHI, 3)
        assert p == parse_expression("phi^3 - 3*phi^2 + 2*phi")
        assert p.evaluate({PHI: 3}) == 6

    def test_rejects_rate_symbols(self):
        with pytest.raises(ValueError):
            falling_factorial(LAM, 2)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            falling_factorial(PHI, -1)

    @given(n=st.integers(0, 6))
    def test_zero_below_order_and_factorial_at_order(self, n):
        p = falling_factorial(X, n)
        for m in range(n):
            assert p.evaluate({X: m}) == 0
        assert p.evaluate({X: n}) == math.factorial(n)


class TestPower:
    def test_order_zero_is_one(self):
        assert power(PHI, 0) == Polynomial.one()

    def test_squared_form(self):
        assert power(PHI, 2) == parse_expression("phi^2")

    def test_first_power(self):
        assert power(X, 1) == Polynomial.symbol(X)

    def test_rejects_rate_symbols(self):
        with pytest.raises(ValueError):
            power(GAMMA, 2)


class TestBindValues:
    def test_binds_one_rate(self):
        p = Polynomial.symbol(LAM) * Polynomial.symbol(PHI)
        assert bind_values(p, {LAM: 1}) == Polynomial.symbol(PHI)

    def test_binds_rationals_and_merges(self):
        bound = bind_values(verhulst_drift(), {LAM: 1, BETA: Fraction(1, 5),
                                               GAMMA: Fraction(1, 20)})
        assert bound == (monomial(Fraction(4, 5), {PHI: 1})
                         + monomial(Fraction(-1, 20), {PHI: 2}))
        assert bound.evaluate({PHI: 10}) == 3

    def test_empty_binding_is_identity(self):
        x = Polynomial.symbol(X)
        assert bind_values(x, {}) == x

    def test_converts_each_symbol_it_reads_once(self, monkeypatch):
        calls = []
        real = onestep.poly._exact

        def counted(sym, value):
            calls.append(sym)
            return real(sym, value)

        monkeypatch.setattr(onestep.poly, "_exact", counted)
        # gamma is read by two terms, k_1 by one; the hundred unread
        # rates are never converted
        p = parse_expression("gamma*x + gamma*y^2 + k_1*x*y", SYMS)
        values = {rate(f"r_{i}"): i for i in range(100)}
        values.update({GAMMA: 2, K1: 0.5})
        bound = bind_values(p, values)
        assert sorted(calls, key=repr) == sorted([GAMMA, K1], key=repr)
        assert bound == parse_expression("2*x + 2*y^2 + 1/2*x*y", SYMS)
        assert bound.terms == reference_bind_values(p, values).terms

    def test_a_bad_value_for_a_read_symbol_is_named(self):
        with pytest.raises(TypeError, match="value for rate:beta"):
            bind_values(verhulst_drift(), {LAM: 1, BETA: "1/5",
                                           GAMMA: Fraction(1, 20)})

    def test_a_value_for_an_unread_symbol_is_not_converted(self):
        p = Polynomial.symbol(LAM) * Polynomial.symbol(PHI)
        assert bind_values(p, {LAM: 2, GAMMA: "unused"}) == \
            bind_values(p, {LAM: 2})


class _UnreadOrder(Sequence):
    """A symbol order that fails the test when it is read."""

    def __getitem__(self, index):
        raise AssertionError("symbol_order was read")

    def __len__(self):
        raise AssertionError("symbol_order was read")


class TestSortedTerms:
    def test_zero_and_one_term_never_read_the_order(self):
        one = monomial(Fraction(-3, 2), {X: 2, K1: 1})
        assert sorted_terms(Polynomial.zero(), _UnreadOrder()) == []
        assert sorted_terms(one, _UnreadOrder()) == list(one.terms)
        assert sorted_terms(one, [K1, X]) == list(one.terms)

    def test_two_terms_follow_the_order(self):
        p = parse_expression("x*k_1 + x^2", SYMS)
        with pytest.raises(AssertionError, match="symbol_order was read"):
            sorted_terms(p, _UnreadOrder())
        assert [m.exponents for m in sorted_terms(p, [K1, X])] == \
            [((X, 2),), ((X, 1), (K1, 1))]


class TestEvaluate:
    def test_float_point_gives_the_exact_fraction(self):
        v = verhulst_drift().evaluate(
            {LAM: 1.0, BETA: 0.2, GAMMA: 0.05, PHI: 10.0})
        assert type(v) is Fraction
        assert v == 10 - Fraction(0.2) * 10 - Fraction(0.05) * 100
        assert v == pytest.approx(3.0, abs=1e-12)

    def test_numpy_integer_scalars_are_exact(self):
        # 2**120 does not fit in int64: numpy arithmetic would wrap
        v = parse_expression("x^3").evaluate({X: np.int64(2 ** 40)})
        assert type(v) is Fraction and type(v.numerator) is int
        assert v == 2 ** 120

    def test_numpy_floats_are_exact(self):
        v = parse_expression("x^2").evaluate({X: np.float64(0.1)})
        assert type(v) is Fraction and type(v.numerator) is int
        assert v == Fraction(0.1) ** 2

    def test_strings_are_refused(self):
        with pytest.raises(TypeError, match="species:x"):
            parse_expression("x^2").evaluate({X: "3"})
        with pytest.raises(TypeError, match="species:x"):
            bind_values(parse_expression("x^2"), {X: "3"})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       np.float64("nan"), np.float64("-inf")])
    def test_nan_and_infinite_floats_are_refused_by_name(self, value):
        # a ValueError naming the symbol, not Fraction's bare ValueError
        # or OverflowError
        message = re.escape(f"value for rate:beta must be finite, "
                            f"got {value!r}")
        with pytest.raises(ValueError, match=message):
            verhulst_drift().evaluate({LAM: 1, BETA: value, GAMMA: 1,
                                       PHI: 2})
        with pytest.raises(ValueError, match=message):
            bind_values(verhulst_drift(), {LAM: 1, BETA: value, GAMMA: 1})

    def test_constant_one(self):
        assert Polynomial.one().evaluate({}) == 1
        assert float(Polynomial.one().evaluate({})) == 1.0

    def test_matches_falling_factorial_value(self):
        assert parse_expression("x^2 - x").evaluate({X: 4}) == 12

    def test_missing_symbol_is_named(self):
        with pytest.raises(MissingSymbolError) as err:
            verhulst_drift().evaluate({LAM: 1, BETA: 1, GAMMA: 1})
        assert "phi" in str(err.value)

    def test_exact_inputs_give_exact_outputs(self):
        v = verhulst_drift().evaluate(
            {LAM: 1, BETA: Fraction(1, 5), GAMMA: Fraction(1, 20), PHI: 10})
        assert v == Fraction(3)


class TestParseExpression:
    def test_two_species_drift_entry(self):
        p = parse_expression("k_1*x - k_2*x*y", SYMS)
        assert p == (monomial(1, {K1: 1, X: 1})
                     - monomial(1, {K2: 1, X: 1, Y: 1}))

    def test_zero_literal_is_the_empty_polynomial(self):
        assert parse_expression("0").terms == ()

    def test_parses_products_of_sums(self):
        assert parse_expression("x*(x-1)") == parse_expression("x^2 - x")

    def test_decimal_literals_are_exact(self):
        assert parse_expression("0.2") == Polynomial.constant(Fraction(1, 5))

    def test_rational_literals(self):
        p = parse_expression("1/20*phi^2", SYMS)
        assert p == monomial(Fraction(1, 20), {PHI: 2})

    def test_unknown_names_default_to_species(self):
        p = parse_expression("q")
        assert p.symbols == {species("q")}

    def test_unary_minus_at_head(self):
        assert parse_expression("-x + 1") == 1 - Polynomial.symbol(X)

    def test_error_carries_position_and_expectation(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("x + ")
        assert err.value.position == 4
        assert err.value.expected

    def test_rejects_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("x 2")

    def test_rejects_fractional_exponent(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("x^1.5")

    def test_exponents_up_to_the_largest_stoichiometry(self):
        assert onestep.poly.MAX_STOICH == onestep.scheme.MAX_STOICH == 64
        assert parse_expression("x^64") == power(X, 64)
        assert parse_expression("x^0064") == power(X, 64)
        with pytest.raises(ExpressionSyntaxError, match="exponent 65 "):
            parse_expression("x^65")
        with pytest.raises(ExpressionSyntaxError, match="exponent 00065 "):
            parse_expression("x^00065")
        # refused by its length: int() would refuse 5,000 digits itself
        with pytest.raises(ExpressionSyntaxError, match="at position 2"):
            parse_expression("x^" + "9" * 5000)


class TestCanonicalString:
    def test_zero(self):
        assert canonical_string(Polynomial.zero()) == "0"

    def test_logistic_drift_snapshot(self):
        assert canonical_string(verhulst_drift()) == \
            "lambda*phi - beta*phi - gamma*phi^2"

    def test_rate_species_product_snapshot(self):
        assert canonical_string(parse_expression("k_2*x*y", SYMS)) == "k_2*x*y"

    def test_leading_negative_has_no_gap(self):
        p = -parse_expression("k_2*x*y", SYMS)
        assert canonical_string(p) == "-k_2*x*y"

    def test_fraction_coefficients_round_trip(self):
        p = monomial(Fraction(4, 5), {PHI: 1}) - monomial(Fraction(1, 20), {PHI: 2})
        assert parse_expression(canonical_string(p), SYMS) == p


# ---------------------------------------------------------------------------
# properties

_UNIVERSE = (X, Y, K1, GAMMA)

_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=8)
_powers = st.dictionaries(st.sampled_from(_UNIVERSE), st.integers(1, 3),
                          max_size=3)
_polys = st.lists(st.tuples(_coeffs, _powers), max_size=5).map(
    lambda ts: sum((monomial(c, e) for c, e in ts), Polynomial.zero()))
_points = st.fixed_dictionaries(
    {s: st.floats(-2, 2, allow_nan=False, allow_infinity=False)
     for s in _UNIVERSE})


def _close(left: float, right: float) -> bool:
    return abs(left - right) <= 1e-9 * max(1.0, abs(left), abs(right))


class TestAlgebraicLaws:
    @given(a=_polys, b=_polys, point=_points)
    def test_addition_commutes_with_evaluation(self, a, b, point):
        assert _close(float((a + b).evaluate(point)),
                      float(a.evaluate(point)) + float(b.evaluate(point)))

    @given(a=_polys, b=_polys, point=_points)
    def test_multiplication_commutes_with_evaluation(self, a, b, point):
        assert _close(float((a * b).evaluate(point)),
                      float(a.evaluate(point)) * float(b.evaluate(point)))

    @given(a=_polys, b=_polys)
    def test_addition_is_commutative_in_normal_form(self, a, b):
        assert (a + b).terms == (b + a).terms

    @given(a=_polys, b=_polys, c=_polys)
    def test_multiplication_is_associative_in_normal_form(self, a, b, c):
        assert ((a * b) * c).terms == (a * (b * c)).terms

    @given(a=_polys, b=_polys, c=_polys)
    def test_multiplication_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(p=_polys)
    def test_canonical_string_round_trips(self, p):
        table = {s.name: s for s in _UNIVERSE}
        assert parse_expression(canonical_string(p), table) == p

    @given(p=_polys, q=_polys)
    def test_equal_polynomials_share_a_hash(self, p, q):
        if p == q:
            assert hash(p) == hash(q)

    @given(a=_polys, point=st.fixed_dictionaries(
        {s: st.fractions(min_value=-3, max_value=3, max_denominator=4)
         for s in _UNIVERSE}))
    def test_rational_evaluation_is_exact(self, a, point):
        direct = a.evaluate(point)
        termwise = sum((m.coefficient
                        * math.prod(point[s] ** e for s, e in m.exponents)
                        for m in a.terms), Fraction(0))
        assert direct == termwise


def _termwise_evaluate(p: Polynomial, point):
    """Polynomial.evaluate as first written: coefficient times repeated
    multiplication per term, terms summed left to right."""
    total = None
    for m in p.terms:
        v = m.coefficient
        for sym, e in m.exponents:
            for _ in range(e):
                v = v * point[sym]
        total = v if total is None else total + v
    return Fraction(0) if total is None else total


_int_values = st.integers(-50, 50)
_fraction_values = st.fractions(min_value=-3, max_value=3,
                                max_denominator=9)
_float_values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def _points_of(values):
    return st.fixed_dictionaries({s: values for s in _UNIVERSE})


class TestEvaluateAgainstTermwise:
    """Every point takes the integer-scaled path and gives what the
    termwise loop gives over the exact values."""

    @given(a=_polys, point=st.one_of(
        _points_of(_int_values), _points_of(_fraction_values),
        _points_of(st.one_of(_int_values, _fraction_values))))
    def test_exact_points_give_the_same_fraction(self, a, point):
        value = a.evaluate(point)
        assert type(value) is Fraction
        assert value == _termwise_evaluate(a, point)

    @given(a=_polys, point=st.one_of(
        _points_of(_float_values),
        _points_of(st.one_of(_int_values, _float_values))))
    def test_float_points_give_the_exact_fraction(self, a, point):
        value = a.evaluate(point)
        assert type(value) is Fraction
        assert value == _termwise_evaluate(
            a, {s: Fraction(v) for s, v in point.items()})

    def test_rational_coefficients_at_exact_points(self):
        p = parse_expression("1/6*x^3 - 1/2*x^2 + 1/3*x", SYMS)
        assert [p.evaluate({X: k}) for k in range(5)] == [0, 0, 0, 1, 4]
        assert p.evaluate({X: Fraction(1, 2)}) == Fraction(1, 16)


# beyond 32 bits, so a square or cube wraps around in int64
_wide_ints = st.integers(-2 ** 40, 2 ** 40)
_exact_values = st.one_of(_int_values, _fraction_values)


def predicted_dtype(p, point):
    """The dtype that the bound of Polynomial.evaluate predicts for its
    numerators at point: the terms' coefficients times their scalar
    factors, summed per set of array powers they read, over the lcm of
    those sums' denominators; int64 when the sum over the sets of
    |numerator| * prod max(1, largest |x|) ** e is below 2**53."""
    groups = {}
    for m in p.terms:
        c, key = Fraction(m.coefficient), []
        for sym, e in m.exponents:
            if isinstance(point[sym], np.ndarray):
                key.append((sym, e))
            else:
                c *= Fraction(point[sym]) ** e
        groups[tuple(key)] = groups.get(tuple(key), 0) + c
    groups = {key: c for key, c in groups.items() if c}
    common = math.lcm(*(c.denominator for c in groups.values()))
    bound = 0
    for key, c in groups.items():
        product = abs(c * common)
        for sym, e in key:
            product *= max(1, *(abs(int(v)) for v in point[sym].flat)) ** e
        bound += product
    return np.int64 if bound < 2 ** 53 else object


class TestArrayEvaluation:
    """Integer arrays for x and y take the exact path elementwise, which
    returns the pair (numerators, denominator)."""

    @given(a=_polys, rows=st.lists(st.tuples(_wide_ints, _wide_ints),
                                   min_size=1, max_size=4),
           k=_exact_values, g=_exact_values,
           dtype=st.sampled_from([object, np.int64]))
    @example(a=monomial(3, {X: 3, Y: 2, K1: 1}),
             rows=[(2 ** 31 + 1, -2 ** 40), (-2 ** 33, 7)],
             k=Fraction(2, 3), g=1, dtype=np.int64)
    def test_each_entry_is_the_fraction_at_its_point(self, a, rows, k, g,
                                                      dtype):
        xs, ys = (np.array(column, dtype=dtype) for column in zip(*rows))
        value = a.evaluate({X: xs, Y: ys, K1: k, GAMMA: g})
        expected = [a.evaluate({X: x, Y: y, K1: k, GAMMA: g})
                    for x, y in rows]
        if a.symbols.isdisjoint({X, Y}):
            assert type(value) is Fraction
            assert [value] * len(rows) == expected
        else:
            numerators, denominator = value
            assert numerators.dtype == predicted_dtype(
                a, {X: xs, Y: ys, K1: k, GAMMA: g})
            assert numerators.shape == (len(rows),)
            assert type(denominator) is int and denominator > 0
            assert [Fraction(v, denominator) for v in numerators] == expected

    def test_without_an_array_symbol_the_value_is_one_fraction(self):
        p = parse_expression("1/2*k_1^2 + 3", SYMS)
        value = p.evaluate({X: np.arange(4), K1: Fraction(1, 3)})
        assert type(value) is Fraction and value == Fraction(55, 18)

    def test_terms_that_cancel_give_zero_numerators(self):
        # k_1 = gamma, so the one group of terms, those in x, sums to 0
        p = parse_expression("k_1*x - gamma*x", SYMS)
        numerators, denominator = p.evaluate(
            {X: np.arange(3), K1: Fraction(1, 3), GAMMA: Fraction(2, 6)})
        assert numerators.dtype == np.int64     # a bound of 0
        assert numerators.tolist() == [0, 0, 0] and denominator > 0

    def test_numpy_integers_in_object_arrays_do_not_wrap(self):
        xs = np.array([np.int64(2 ** 40), np.int64(-3)], dtype=object)
        numerators, denominator = parse_expression("x^3", SYMS).evaluate(
            {X: xs})
        assert [Fraction(v, denominator) for v in numerators] == \
            [2 ** 120, -27]

    def test_float_arrays_are_refused(self):
        p = parse_expression("1/3*x^2 - 2*x*k_1 + 1", SYMS)
        with pytest.raises(TypeError, match="species:x"):
            p.evaluate({X: np.array([0.5, -1.25, 3.0]), K1: 0.75})

    @pytest.mark.parametrize("element", [0.5, "3", Fraction(1, 2)],
                             ids=["float", "str", "Fraction"])
    def test_object_elements_that_are_not_ints_are_refused_by_name(
            self, element):
        p = parse_expression("x^2 + k_1", SYMS)
        message = (r"value for species:x must be .* array of ints; got an "
                   rf"array element of type {type(element).__name__}")
        with pytest.raises(TypeError, match=message):
            p.evaluate({X: np.array([2, element], dtype=object), K1: 1})


    @pytest.mark.parametrize("text, xs, ys, dtype", [
        ("x", [2 ** 53 - 1, 0], [0, 0], np.int64),
        ("x", [2 ** 53, 0], [0, 0], object),
        ("x", [-(2 ** 53 - 1), 5], [0, 0], np.int64),
        ("x", [-2 ** 53, 5], [0, 0], object),
        ("3*x", [(2 ** 53 - 1) // 3, 1], [0, 0], np.int64),
        ("3*x", [(2 ** 53 - 1) // 3 + 1, 1], [0, 0], object),
        ("x^2", [94_906_265, -3], [0, 0], np.int64),
        ("x^2", [94_906_266, -3], [0, 0], object),
        # the running total: 2 ** 52 + (2 ** 52 - 1) stays below 2 ** 53
        ("x + y", [2 ** 52, 1], [2 ** 52 - 1, 1], np.int64),
        ("x + y", [2 ** 52, 1], [2 ** 52, 1], object),
        # a scalar folds into the coefficient: 1/3 x over 3 reads |x| once
        ("k_1*x", [2 ** 53 - 1, 3], [0, 0], np.int64),
        ("k_1*x - k_1*y", [2 ** 52, 3], [2 ** 52, 3], object),
    ])
    @pytest.mark.parametrize("array_dtype", [np.int64, object])
    def test_numerators_at_the_edge(self, text, xs, ys, dtype, array_dtype):
        p = parse_expression(text, SYMS)
        point = {X: np.array(xs, dtype=array_dtype),
                 Y: np.array(ys, dtype=array_dtype), K1: Fraction(1, 3)}
        numerators, denominator = p.evaluate(point)
        assert numerators.dtype == dtype == predicted_dtype(p, point)
        assert [Fraction(v, denominator) for v in numerators.tolist()] == \
            [p.evaluate({X: x, Y: y, K1: Fraction(1, 3)})
             for x, y in zip(xs, ys)]

    def test_the_denominator_is_the_lcm_of_the_group_coefficients(self):
        # 1/6 x^2 + 1/4 x: over 12, where den * 6 * 4 would be 24
        p = parse_expression("k_1*x^2 + gamma*x", SYMS)
        numerators, denominator = p.evaluate(
            {X: np.arange(4), K1: Fraction(1, 6), GAMMA: Fraction(1, 4)})
        assert denominator == 12
        assert numerators.tolist() == [0, 5, 14, 27]

    @given(a=_polys, rows=st.lists(st.tuples(_wide_ints, _wide_ints),
                                   min_size=1, max_size=4),
           k=_exact_values, g=_exact_values,
           dtype=st.sampled_from([object, np.int64]))
    def test_matches_the_object_arrays(self, a, rows, k, g, dtype):
        # the object-array code returned the same values over den times
        # the scalars' denominators to their degrees, a multiple of the
        # lcm of the reduced group coefficients' denominators
        xs, ys = (np.array(column, dtype=dtype) for column in zip(*rows))
        point = {X: xs, Y: ys, K1: k, GAMMA: g}
        value, reference = a.evaluate(point), object_evaluate(a, point)
        if isinstance(reference, Fraction):
            assert type(value) is Fraction and value == reference
            return
        (numerators, denominator), (old, old_denominator) = value, reference
        assert old_denominator % denominator == 0
        assert (numerators.astype(object)
                * (old_denominator // denominator)).tolist() == old.tolist()


class TestFractionsDiffer:
    """_fractions_differ cross-multiplies in int64 only where no product
    reaches 2**63; a wrapped product could turn a mismatch into "equal"."""

    @pytest.mark.parametrize("a, a_den, b, b_den, want", [
        # 2 ** 53 + 1 and 2 ** 53 are one float apart from each other
        ([2 ** 53 + 1, 2 ** 53 - 1], 1, [2 ** 53, 2 ** 53 - 1], 1,
         [True, False]),
        ([2 ** 53 + 1, 7], 3, [2 ** 53, 7], 3, [True, False]),
        # a * 4 = 2 ** 64 wraps to 0 in int64, as b * 4 is
        ([2 ** 62, 2], 4, [0, 2], 4, [True, False]),
        ([2 ** 61 - 1, 2], 4, [2 ** 61 - 1, 3], 4, [False, True]),
        ([2 ** 61, 2], 4, [2 ** 61, 2], 4, [False, False]),
        ([2 ** 62 - 1, 1], 2, [2 ** 63 - 2, 2], 4, [False, False]),
        ([2 ** 62, 1], 2, [2 ** 63 - 1, 2], 4, [True, False]),
        # a denominator at 2 ** 63 with zero numerators
        ([0, 0], 1, [0, 1], 2 ** 63, [False, True]),
    ])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_products_at_the_edge(self, a, a_den, b, b_den, want, dtype):
        for x, y, x_den, y_den in ((a, b, a_den, b_den),
                                   (b, a, b_den, a_den)):
            got = _fractions_differ(np.array(x, dtype), x_den,
                                    np.array(y, dtype), y_den)
            assert got.dtype == bool
            assert got.tolist() == want == [
                Fraction(u, x_den) != Fraction(v, y_den)
                for u, v in zip(x, y)]

    def test_ints_beyond_int64_on_either_side(self):
        ones = np.array([1, 2, -1])
        assert _fractions_differ(2 ** 70, 2 ** 70, ones, 1).tolist() == \
            [False, True, True]
        assert _fractions_differ(ones, 1, -2 ** 70, 2 ** 70).tolist() == \
            [True, True, False]
        assert _fractions_differ(0, 1, ones * 0, 3).tolist() == \
            [False, False, False]
        assert not _fractions_differ(3, 6, 1, 2)


# bind_values as it was before binding term by term: Polynomial.substitute
# multiplied whole polynomials for every factor of every term.  The term by
# term binder must reproduce its terms exactly.

def reference_coerce_exact(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    raise TypeError(f"expected Polynomial, int, or Fraction, got {type(value).__name__}")


def reference_substitute(p, env):
    out = Polynomial.zero()
    for m in p.terms:
        part = Polynomial.constant(m.coefficient)
        for sym, e in m.exponents:
            if sym in env:
                part = part * (reference_coerce_exact(env[sym]) ** e)
            else:
                part = part * (Polynomial.symbol(sym) ** e)
        out = out + part
    return out


def reference_bind_values(p, values):
    env = {}
    for sym, v in values.items():
        if isinstance(v, float):
            v = Fraction(v)
        env[sym] = v
    return reference_substitute(p, env)


class TestBindValuesAgainstSubstitute:
    """Partial bindings leave species free; zeros and values that make
    terms cancel drop them from the result."""

    @given(a=_polys, values=st.dictionaries(
        st.sampled_from(_UNIVERSE),
        st.one_of(_int_values, _fraction_values, _float_values,
                  st.sampled_from([0, 1, -1, 2, 0.5, Fraction(1, 2)])),
        max_size=len(_UNIVERSE)))
    @example(a=parse_expression("k_1*x - 2*x + 3", SYMS), values={K1: 2})
    @example(a=parse_expression("k_1*x - 1/2*x*y", SYMS),
             values={K1: 0.5, Y: 1})
    @example(a=parse_expression("gamma^2*x - x*y^2", SYMS),
             values={GAMMA: Fraction(-3, 2), Y: 1.5})
    @example(a=parse_expression("k_1*x^3 + y", SYMS), values={X: 0})
    def test_same_terms_as_the_substitute_binder(self, a, values):
        bound = bind_values(a, values)
        assert bound.terms == reference_bind_values(a, values).terms
        # a float coefficient would compare equal to its Fraction
        assert all(is_canonical_coefficient(m.coefficient)
                   for m in bound.terms)
        assert bound.symbols <= a.symbols - values.keys()


# (coefficient, powers) lists with integral Fractions, zeros and repeated
# exponents, which Polynomial(terms) merges and drops
_raw_terms = st.lists(st.tuples(
    st.one_of(_coeffs, st.integers(-5, 5),
              st.integers(-3, 3).map(lambda n: Fraction(2 * n, 2))),
    _powers), max_size=6)
_scalars = st.one_of(st.integers(-6, 6), _fraction_values,
                     st.sampled_from([0, Fraction(0), 2, Fraction(1, 2),
                                      Fraction(-6, 3)]))
_atoms = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 12), st.integers(1, 6)).map(
        lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["0.5", "1.25", "2.0", "0.1"]),
    st.sampled_from(["x", "y", "k_1", "gamma"]),
    st.tuples(st.sampled_from(["x", "y", "k_1"]), st.integers(0, 4)).map(
        lambda t: f"{t[0]}^{t[1]}"))
_expressions = st.recursive(_atoms, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(" ".join),
    inner.map(lambda e: f"({e})"),
    inner.map(lambda e: f"(-{e})")), max_leaves=8)


def _both(raw) -> tuple[Polynomial, FractionPolynomial]:
    """raw (coefficient, powers) pairs through Polynomial(terms) and
    through the all-Fraction reference."""
    terms = [Monomial(c, tuple(sorted(e.items(),
                                      key=lambda se: _symbol_key(se[0]))))
             for c, e in raw]
    return Polynomial(terms), FractionPolynomial(terms)


def _assert_same_terms(p: Polynomial, reference: FractionPolynomial):
    assert p.terms == reference.terms
    assert all(is_canonical_coefficient(m.coefficient) for m in p.terms)


class TestIntegerCoefficientsAgainstFractions:
    """Each operation gives the terms of the arithmetic in which every
    coefficient was a Fraction, with each coefficient an int when it is
    integral and a Fraction with denominator > 1 otherwise."""

    @given(a=_raw_terms, b=_raw_terms, k=_scalars)
    def test_sums_differences_and_negation(self, a, b, k):
        (p, rp), (q, rq) = _both(a), _both(b)
        _assert_same_terms(p, rp)
        _assert_same_terms(p + q, rp + rq)
        _assert_same_terms(p - q, rp - rq)
        _assert_same_terms(-p, -rp)
        _assert_same_terms(p + k, rp + k)
        _assert_same_terms(k - p, k - rp)

    @given(a=_raw_terms, b=_raw_terms, n=st.integers(0, 4))
    @settings(max_examples=60)
    def test_products_and_powers(self, a, b, n):
        (p, rp), (q, rq) = _both(a), _both(b)
        _assert_same_terms(p * q, rp * rq)
        _assert_same_terms(p ** n, rp ** n)

    @given(a=_raw_terms, k=_scalars)
    @example(a=[(Fraction(1, 2), {X: 1}), (Fraction(3, 2), {Y: 1})], k=2)
    @example(a=[(3, {X: 1})], k=Fraction(1, 3))
    @example(a=[(3, {X: 1})], k=0)
    def test_scalar_products(self, a, k):
        p, rp = _both(a)
        _assert_same_terms(p * k, rp * k)
        _assert_same_terms(k * p, k * rp)

    @given(c=st.one_of(_scalars, _float_values), powers=_powers)
    def test_constant_symbol_and_monomial(self, c, powers):
        _assert_same_terms(Polynomial.constant(c),
                           FractionPolynomial.constant(c))
        _assert_same_terms(monomial(c, powers), fraction_monomial(c, powers))
        _assert_same_terms(Polynomial.symbol(K1),
                           FractionPolynomial.symbol(K1))

    @given(text=_expressions)
    @example(text="1/2*x*2 + 4/2 - 0.5*y*2.0")
    def test_parse_expression(self, text):
        _assert_same_terms(parse_expression(text, SYMS),
                           fraction_parse_expression(text, SYMS))

    @given(a=_raw_terms, values=st.dictionaries(
        st.sampled_from(_UNIVERSE),
        st.one_of(_int_values, _fraction_values, _float_values),
        max_size=len(_UNIVERSE)))
    @example(a=[(Fraction(1, 2), {K1: 1, X: 1})], values={K1: 2})
    def test_bind_values(self, a, values):
        p, rp = _both(a)
        _assert_same_terms(bind_values(p, values),
                           fraction_bind_values(rp, values))


class TestNumericCompilation:
    def test_compiled_function_matches_evaluate(self):
        f = as_function([verhulst_drift()], (PHI, LAM, BETA, GAMMA))
        (value,) = f(10.0, 1.0, 0.2, 0.05)
        assert value == pytest.approx(3.0, abs=1e-12)

    def test_compiled_function_vectorizes(self):
        f = as_function([parse_expression("x^2 - x"),
                         parse_expression("2*x")], (X,))
        first, second = f(np.array([0.0, 1.0, 4.0]))
        assert np.allclose(first, [0.0, 0.0, 12.0])
        assert np.allclose(second, [0.0, 2.0, 8.0])

    def test_values_come_back_as_a_tuple_in_order(self):
        f = as_function([parse_expression("y", SYMS),
                         parse_expression("x", SYMS)], (X, Y))
        assert f(1.0, 2.0) == (2.0, 1.0)

    def test_unbound_symbol_fails_at_compile_time(self):
        with pytest.raises(MissingSymbolError):
            as_function([Polynomial.symbol(PHI), verhulst_drift()], (PHI,))

    def test_bind_values_converts_floats_exactly(self):
        p = bind_values(parse_expression("gamma*phi^2", SYMS), {GAMMA: 0.2})
        (term,) = p.terms
        assert term.coefficient == Fraction(0.2)


def _closure_as_function(p: Polynomial, args):
    """as_function as first written: one closure per polynomial that
    interprets the terms in storage order, t = c then t = t * v per power,
    summed as 0.0 + t1 + t2 + ..."""
    index = {s: i for i, s in enumerate(args)}
    compiled = []
    for m in p.terms:
        idx = []
        for sym, e in m.exponents:
            if sym not in index:
                raise MissingSymbolError(sym)
            idx.append((index[sym], e))
        compiled.append((float(m.coefficient), tuple(idx)))
    compiled_t = tuple(compiled)

    def fn(*values):
        total = 0.0
        for c, idx in compiled_t:
            t = c
            for i, e in idx:
                v = values[i]
                for _ in range(e):
                    t = t * v
            total = total + t
        return total

    return fn


def _same_floats(left, right) -> bool:
    return (type(left) is type(right)
            and np.asarray(left).tobytes() == np.asarray(right).tobytes())


def _same_as_closures(polys, values) -> bool:
    """as_function(polys) returns a tuple whose every entry has the bits
    of the closure compiled from that polynomial alone."""
    got = as_function(polys, _UNIVERSE)(*values)
    want = tuple(_closure_as_function(p, _UNIVERSE)(*values) for p in polys)
    return (type(got) is tuple and len(got) == len(want)
            and all(_same_floats(g, w) for g, w in zip(got, want)))


_unit_or_any = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]),
                         _coeffs)
_compiled_polys = st.lists(st.tuples(_unit_or_any, _powers), max_size=6).map(
    lambda ts: sum((monomial(c, e) for c, e in ts), Polynomial.zero()))
_compiled_vectors = st.lists(_compiled_polys, max_size=4)
_float_args = st.lists(_float_values, min_size=len(_UNIVERSE),
                       max_size=len(_UNIVERSE))
_LEADING_NEGATIVE = -parse_expression("x^3*gamma + 2*y", SYMS) \
    + parse_expression("k_1*y^2", SYMS)
_MIXED = [Polynomial.constant(Fraction(5, 3)), _LEADING_NEGATIVE,
          Polynomial.zero(), parse_expression("x*y - 1/7", SYMS),
          Polynomial.constant(-2)]


class TestAsFunctionAgainstClosure:
    """Each value the generated function returns comes from the closure's
    float operations in the closure's order, so it has the same bits."""

    @given(polys=_compiled_vectors, values=_float_args)
    @example(polys=[], values=[1.5, -2.0, 3.0, 0.0])
    @example(polys=[Polynomial.zero()], values=[1.5, -2.0, 3.0, 0.0])
    @example(polys=[Polynomial.constant(-3)], values=[1.5, -2.0, 3.0, 0.0])
    @example(polys=[_LEADING_NEGATIVE], values=[1.5, -2.0, 3.0, 0.1])
    @example(polys=[-parse_expression("x*y", SYMS)
                    + parse_expression("gamma", SYMS)],
             values=[0.0, 0.0, -0.0, 0.0])
    @example(polys=_MIXED, values=[1.5, -2.0, 3.0, 0.1])
    def test_float_scalars(self, polys, values):
        assert _same_as_closures(polys, values)

    @given(polys=_compiled_vectors,
           rows=st.lists(_float_args, min_size=1, max_size=5))
    @example(polys=[], rows=[[1.0, 2.0, 3.0, 4.0]])
    @example(polys=[Polynomial.zero()], rows=[[1.0, 2.0, 3.0, 4.0]])
    @example(polys=[Polynomial.constant(-3)], rows=[[1.0, 2.0, 3.0, 4.0]])
    @example(polys=[_LEADING_NEGATIVE], rows=[[1.5, -2.0, 3.0, 0.1],
                                              [0.0, 7.0, -1e3, 2.5]])
    @example(polys=_MIXED, rows=[[1.5, -2.0, 3.0, 0.1],
                                 [0.0, 7.0, -1e3, 2.5]])
    def test_float_arrays(self, polys, rows):
        assert _same_as_closures(polys, np.array(rows, dtype=np.float64).T)

    def test_long_sums_compile(self):
        # 4096 terms: one expression that long is too deep for Python's
        # compiler, so the sum runs over several statements
        p = Polynomial(monomial(Fraction((-1) ** i * (i + 1), 7),
                                {X: i % 8, Y: i // 8 % 8, K1: i // 64 % 8,
                                 GAMMA: i // 512}).terms[0]
                       for i in range(4096))
        assert len(p.terms) == 4096
        columns = np.array([[0.5, -1.25, 1.0, 0.75], [1.0, 0.9, -0.3, 1.1]]).T
        assert _same_as_closures([p, _LEADING_NEGATIVE, p], columns)

    @pytest.mark.parametrize("degree", [256, 257, 3000, 10_000])
    def test_high_degree_terms_compile(self, degree):
        # one product that long is too deep for Python's compiler, so the
        # term runs over several statements before it joins the sum
        alone = monomial(1, {X: degree})
        mixed = (parse_expression("2*y - k_1", SYMS)
                 + monomial(Fraction(-3, 7), {X: degree - 2, Y: 1, K1: 1})
                 + monomial(-1, {GAMMA: degree}) + _LEADING_NEGATIVE)
        polys = [alone, mixed, -alone]
        for values in ([1.0001, 0.9999, -1.0, 1.0], [-1.0002, 2.0, 0.5, -1.0]):
            assert _same_as_closures(polys, values)
        columns = np.array([[1.0001, 0.9999, -1.0, 1.0],
                            [0.9995, -1.0003, 1.0, -0.9998],
                            [0.0, 1e-3, -2.0, 1.0]]).T
        assert _same_as_closures(polys, columns)

    def test_missing_symbol_is_named_at_compile_time(self):
        with pytest.raises(MissingSymbolError, match="gamma"):
            as_function([parse_expression("x*y", SYMS), _LEADING_NEGATIVE],
                        (X, Y, K1))


# as_function before it computed each distinct product once (body
# verbatim): every term's product written out in its own sum, a term of
# more than _FACTORS_PER_LINE factors over statements of its own.
_TERMS_PER_LINE = 256
_FACTORS_PER_LINE = 256


def _line_as_function(polys: Sequence[Polynomial],
                      args: Sequence[SymbolId]) -> Callable:
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


def _hexes(values) -> list[list[str]]:
    return [[float.hex(float(v)) for v in np.ravel(value)]
            for value in values]


def _same_hex_as_line_compiler(polys, values) -> bool:
    with np.errstate(all="ignore"):
        got = as_function(polys, _UNIVERSE)(*values)
        want = _line_as_function(polys, _UNIVERSE)(*values)
    return type(got) is tuple and _hexes(got) == _hexes(want)


# few coefficients and low powers, so that terms share their products;
# some powers beyond _FACTORS_PER_LINE
_shared_coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 20),
                                  Fraction(-1, 20), Fraction(3)])
_shared_powers = st.dictionaries(st.sampled_from(_UNIVERSE),
                                 st.integers(1, 3), max_size=3)
_long_powers = st.dictionaries(st.sampled_from(_UNIVERSE),
                               st.sampled_from([1, 255, 256, 257]),
                               min_size=1, max_size=2)
_shared_polys = st.lists(st.tuples(_shared_coeffs, _shared_powers),
                         max_size=6).map(
    lambda ts: sum((monomial(c, e) for c, e in ts), Polynomial.zero()))
_long_polys = st.tuples(_shared_polys, _shared_coeffs, _long_powers).map(
    lambda t: t[0] + monomial(t[1], t[2]))
_shared_vectors = st.lists(st.one_of(_shared_polys, _long_polys),
                           max_size=4)
_any_float = st.one_of(st.floats(-2.0, 2.0),
                       st.sampled_from([0.0, -0.0, 1e3, -1e3, math.inf,
                                        -math.inf, math.nan]))
_any_args = st.lists(_any_float, min_size=len(_UNIVERSE),
                     max_size=len(_UNIVERSE))


class TestAsFunctionAgainstLineCompiler:
    """Computing each distinct product once changes no bits: every value
    has the float.hex of the value of the compiler that wrote each term's
    product out, terms beyond _FACTORS_PER_LINE factors included."""

    @given(polys=_shared_vectors, values=_any_args)
    @example(polys=[_LEADING_NEGATIVE, -_LEADING_NEGATIVE],
             values=[1.5, -2.0, 3.0, 0.1])
    @example(polys=[monomial(-3, {X: 300, Y: 1}), monomial(3, {X: 257}),
                    monomial(1, {X: 256})],
             values=[1.001, 0.5, 1.0, 1.0])
    def test_float_scalars(self, polys, values):
        assert _same_hex_as_line_compiler(polys, values)

    @given(polys=_shared_vectors,
           rows=st.lists(_any_args, min_size=1, max_size=4))
    def test_float_arrays(self, polys, rows):
        assert _same_hex_as_line_compiler(
            polys, np.array(rows, dtype=np.float64).T)

    def test_each_distinct_product_is_computed_once(self, monkeypatch):
        sources = []
        compile_ = onestep.poly._compile

        def recorded(source, name, namespace):
            sources.append(source)
            return compile_(source, name, namespace)
        monkeypatch.setattr(onestep.poly, "_compile", recorded)
        polys = [parse_expression(text, SYMS) for text in
                 ("x*y", "y - x*y", "3*x*y^2", "x*y^2 + 3*x")]
        f = as_function(polys, _UNIVERSE)
        # x*y, then 3*x, 3*x*y, 3*x*y*y, and x*y*y from x*y: five products
        # where writing each term out takes eight
        assert sources[0].count("*") == 5
        assert _line_as_function(polys, _UNIVERSE)(1.0, 2.0, 0, 0) == \
            f(1.0, 2.0, 0, 0)
