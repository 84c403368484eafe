"""Parse errors of scheme text and expressions: the message, and where it
points, for each way a line or an expression can be malformed.

Scheme errors carry a 1-based line and column; expression errors a
0-based character position.  Both kinds of text are read by the same
token stream, so the two tables pin one lexer from two sides.
"""

import pytest

from onestep.poly import ExpressionSyntaxError, parse_expression
from onestep.scheme import SchemeSyntaxError, parse_scheme

# (scheme text, line, column, str(error))
SCHEME_ERRORS = [
    ("x -> 2x @ k$", 1, 12,
     "line 1, column 12: unexpected character '$'"),
    ("x - > y @ k", 1, 3,
     "line 1, column 3: unexpected character '-'"),
    ("x -> 2x @ k j", 1, 13,
     "line 1, column 13: trailing input 'j' (expected end of line)"),
    ("x -> 2x k", 1, 9,
     "line 1, column 9: missing rate section (expected '@')"),
    ("x -> 2x", 1, 8,
     "line 1, column 8: missing rate section (expected '@')"),
    ("x -> 2x @", 1, 10,
     "line 1, column 10: missing rate symbol (expected a rate symbol "
     "after '@')"),
    ("x -> 2x @ 3", 1, 11,
     "line 1, column 11: missing rate symbol (expected a rate symbol "
     "after '@')"),
    ("x <-> 2x @ k,", 1, 14,
     "line 1, column 14: missing backward rate symbol (expected a rate "
     "symbol after ',')"),
    ("x <-> 2x @ k", 1, 13,
     "line 1, column 13: a reversible reaction needs two rate symbols "
     "(expected ', <backward rate>')"),
    ("x -> 2x @ k, j", 1, 11,
     "line 1, column 11: an irreversible reaction takes one rate symbol"),
    ("0 x -> x @ k", 1, 1,
     "line 1, column 1: zero stoichiometric coefficient"),
    ("65 x -> x @ k", 1, 1,
     "line 1, column 1: stoichiometric coefficient exceeds 64"),
    ("64 x + x -> 0 @ k", 1, 10,
     "line 1, column 10: stoichiometry of 'x' exceeds 64"),
    ("x 2x @ k", 1, 3,
     "line 1, column 3: malformed reaction (expected '->' or '<->')"),
    ("x -> + @ k", 1, 6,
     "line 1, column 6: malformed complex (expected a species name)"),
    ("\tx -> 2 * @ k", 1, 11,
     "line 1, column 11: malformed complex (expected a species name)"),
    ("x -> 2x @ k\n\n  y -> $ @ j", 3, 8,
     "line 3, column 8: unexpected character '$'"),
    ("# comment\nx -> 2x @ k # c\nx -> y @ k, j", 3, 10,
     "line 3, column 10: an irreversible reaction takes one rate symbol"),
]

# (expression text, position, str(error))
EXPRESSION_ERRORS = [
    ("x $ y", 2, "unexpected character '$' at position 2"),
    ("2..5", 1, "unexpected character '.' at position 1"),
    ("x y", 2,
     "unexpected 'y' at position 2 (expected '+', '-', '*', or end of "
     "input)"),
    ("x)", 1,
     "unexpected ')' at position 1 (expected '+', '-', '*', or end of "
     "input)"),
    ("x^y", 2, "bad exponent at position 2 (expected a nonnegative integer)"),
    ("x^1.5", 2,
     "bad exponent at position 2 (expected a nonnegative integer)"),
    ("x^", 2, "bad exponent at position 2 (expected a nonnegative integer)"),
    ("k^-1", 2,
     "bad exponent at position 2 (expected a nonnegative integer)"),
    ("x^65", 2, "exponent 65 exceeds 64 at position 2"),
    ("k_1*x^200000", 6, "exponent 200000 exceeds 64 at position 6"),
    ("(x + y", 6, "unbalanced parenthesis at position 6 (expected ')')"),
    ("((x)", 4, "unbalanced parenthesis at position 4 (expected ')')"),
    ("-(-x", 4, "unbalanced parenthesis at position 4 (expected ')')"),
    ("1/x", 2,
     "bad rational literal at position 2 (expected an integer "
     "denominator)"),
    ("1/2.5", 2,
     "bad rational literal at position 2 (expected an integer "
     "denominator)"),
    ("x + 3/", 6,
     "bad rational literal at position 6 (expected an integer "
     "denominator)"),
    ("x +", 3,
     "unexpected end of input at position 3 (expected a number, symbol, "
     "or '(')"),
    ("", 0,
     "unexpected end of input at position 0 (expected a number, symbol, "
     "or '(')"),
    (" \t ", 3,
     "unexpected end of input at position 3 (expected a number, symbol, "
     "or '(')"),
    ("x * * y", 4,
     "unexpected '*' at position 4 (expected a number, symbol, or '(')"),
    ("x -- y", 3,
     "unexpected '-' at position 3 (expected a number, symbol, or '(')"),
]


@pytest.mark.parametrize("text, line, column, message", SCHEME_ERRORS)
def test_scheme_error_message_and_location(text, line, column, message):
    with pytest.raises(SchemeSyntaxError) as err:
        parse_scheme(text)
    assert (str(err.value), err.value.line, err.value.column) == \
        (message, line, column)


@pytest.mark.parametrize("text, position, message", EXPRESSION_ERRORS)
def test_expression_error_message_and_position(text, position, message):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(text)
    assert (str(err.value), err.value.position) == (message, position)
