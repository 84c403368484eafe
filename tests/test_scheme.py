"""Scheme parsing, validation, formatting, and serialization."""

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from onestep import (DuplicateRateSymbolError, EmptySchemeError, Interaction,
                     InteractionScheme, NoOpInteractionError, SchemeError,
                     SchemeSyntaxError, format_scheme, parse_scheme, rate,
                     species)
from onestep.scheme import scheme_from_dict, scheme_to_dict
from helpers import LOTKA_VOLTERRA, VERHULST, random_scheme_text


class TestParse:
    def test_predator_prey_stoichiometry(self):
        s = parse_scheme(LOTKA_VOLTERRA)
        assert [sp.name for sp in s.species] == ["x", "y"]
        assert len(s.interactions) == 3
        assert [ia.initial for ia in s.interactions] == [(1, 0), (1, 1), (0, 1)]
        assert [ia.final for ia in s.interactions] == [(2, 0), (0, 2), (0, 0)]

    def test_logistic_stoichiometry_and_rates(self):
        s = parse_scheme(VERHULST)
        assert [sp.name for sp in s.species] == ["phi"]
        assert len(s.interactions) == 2
        assert [ia.initial for ia in s.interactions] == [(1,), (1,)]
        assert [ia.final for ia in s.interactions] == [(2,), (0,)]
        first, second = s.interactions
        assert (first.forward_rate, first.backward_rate) == (rate("lambda"),
                                                             rate("gamma"))
        assert (second.forward_rate, second.backward_rate) == (rate("beta"),
                                                               None)

    def test_rate_declaration_order_is_forwards_then_backwards(self):
        s = parse_scheme(VERHULST)
        assert s.rate_symbols == (rate("lambda"), rate("beta"), rate("gamma"))

    def test_identity_reaction_is_rejected_with_its_line(self):
        with pytest.raises(NoOpInteractionError) as err:
            parse_scheme("x -> x @ k")
        assert err.value.line == 1

    def test_species_numbered_by_first_appearance(self):
        s = parse_scheme("y -> 0 @ a\nx -> 2 x @ b")
        assert [sp.name for sp in s.species] == ["y", "x"]

    def test_comments_and_blank_lines_are_skipped(self):
        s = parse_scheme("# header\n\nphi -> 0 @ beta  # trailing\n\n")
        assert len(s.interactions) == 1

    def test_starred_and_juxtaposed_coefficients(self):
        a = parse_scheme("2*x -> 3 x @ k")
        b = parse_scheme("2x -> 3x @ k")
        assert a == b
        assert a.interactions[0].initial == (2,)
        assert a.interactions[0].final == (3,)

    def test_repeated_species_accumulate(self):
        s = parse_scheme("x + x -> 0 @ k")
        assert s.interactions[0].initial == (2,)

    def test_creation_from_the_empty_complex(self):
        s = parse_scheme("0 -> x @ k")
        assert s.interactions[0].initial == (0,)
        assert s.interactions[0].final == (1,)

    def test_underscore_names(self):
        s = parse_scheme("_a -> 2 _a @ _k")
        assert s.species[0] == species("_a")
        assert s.interactions[0].forward_rate == rate("_k")

    def test_empty_text_is_an_error(self):
        with pytest.raises(EmptySchemeError):
            parse_scheme("")
        with pytest.raises(EmptySchemeError):
            parse_scheme("# nothing but comments\n")

    def test_syntax_errors_carry_line_numbers(self):
        with pytest.raises(SchemeSyntaxError) as err:
            parse_scheme("x -> 2x @ k\nx -> @ j")
        assert err.value.line == 2

    def test_missing_rate_section(self):
        with pytest.raises(SchemeSyntaxError):
            parse_scheme("x -> 2x")

    def test_reversible_needs_two_rates(self):
        with pytest.raises(SchemeSyntaxError):
            parse_scheme("x <-> 2x @ k")

    def test_irreversible_takes_only_one_rate(self):
        with pytest.raises(SchemeSyntaxError):
            parse_scheme("x -> 2x @ k, j")

    def test_duplicate_rate_symbols_are_rejected_by_default(self):
        text = "x -> 2x @ k\ny -> 0 @ k"
        with pytest.raises(DuplicateRateSymbolError) as err:
            parse_scheme(text)
        assert err.value.name == "k"
        shared = parse_scheme(text, allow_shared_rates=True)
        assert shared.rate_symbols == (rate("k"),)

    def test_one_symbol_for_both_directions_is_always_rejected(self):
        with pytest.raises(DuplicateRateSymbolError):
            parse_scheme("x <-> 2x @ k, k", allow_shared_rates=True)

    def test_species_rate_name_collision(self):
        with pytest.raises(DuplicateRateSymbolError):
            parse_scheme("x -> 2x @ x")

    def test_zero_coefficient_is_rejected(self):
        with pytest.raises(SchemeSyntaxError):
            parse_scheme("0 x -> x @ k")

    def test_coefficient_cap(self):
        parse_scheme("64 x -> x @ k")
        with pytest.raises(SchemeSyntaxError):
            parse_scheme("65 x -> x @ k")


def changes(scheme):
    return [ia.change for ia in scheme.interactions]


class TestChangeVectors:
    def test_logistic(self):
        assert changes(parse_scheme(VERHULST)) == [(1,), (-1,)]

    def test_predator_prey(self):
        assert changes(parse_scheme(LOTKA_VOLTERRA)) == \
            [(1, 0), (-1, 1), (0, -1)]


class TestInteractionValidation:
    def test_no_op_rejected(self):
        with pytest.raises(NoOpInteractionError):
            Interaction((1,), (1,), rate("k"))

    def test_negative_coefficients_rejected(self):
        with pytest.raises(SchemeError):
            Interaction((-1,), (0,), rate("k"))

    def test_rate_symbols_must_be_rate_kind(self):
        with pytest.raises(SchemeError):
            Interaction((1,), (2,), species("k"))

    def test_shared_direction_symbol_rejected(self):
        with pytest.raises(DuplicateRateSymbolError):
            Interaction((1,), (2,), rate("k"), rate("k"))

    def test_reversible_flag(self):
        assert Interaction((1,), (2,), rate("a"), rate("b")).reversible
        assert not Interaction((1,), (2,), rate("a")).reversible

    def test_scheme_checks_vector_lengths(self):
        with pytest.raises(SchemeError):
            InteractionScheme((species("x"), species("y")),
                              (Interaction((1,), (2,), rate("k")),))


class TestFormat:
    def test_predator_prey_snapshot(self):
        s = parse_scheme(LOTKA_VOLTERRA)
        assert format_scheme(s) == ("x -> 2x @ k_1\n"
                                    "x + y -> 2y @ k_2\n"
                                    "y -> 0 @ k_3\n")

    def test_logistic_snapshot_keeps_the_reversible_arrow(self):
        s = parse_scheme(VERHULST)
        assert format_scheme(s) == ("phi <-> 2phi @ lambda, gamma\n"
                                    "phi -> 0 @ beta\n")

    def test_pure_birth_round_trips_verbatim(self):
        text = "0 -> x @ k\n"
        assert format_scheme(parse_scheme(text)) == text


class TestJson:
    def test_round_trip(self):
        s = parse_scheme(VERHULST)
        assert scheme_from_dict(json.loads(json.dumps(scheme_to_dict(s)))) == s

    @pytest.mark.parametrize("data", ["{not json", ["x"], None])
    def test_an_object_that_is_not_a_mapping_is_a_scheme_error(self, data):
        with pytest.raises(SchemeError):
            scheme_from_dict(data)

    def test_missing_fields_are_a_scheme_error(self):
        with pytest.raises(SchemeError):
            scheme_from_dict({"species": ["x"]})


class TestRandomSchemes:
    @given(seed=st.integers(0, 10 ** 9))
    def test_parse_format_round_trip(self, seed):
        text = random_scheme_text(random.Random(seed), max_species=4,
                                  max_interactions=5, max_stoich=3)
        s = parse_scheme(text)
        assert parse_scheme(format_scheme(s)) == s

    @given(seed=st.integers(0, 10 ** 9))
    def test_change_plus_initial_equals_final(self, seed):
        s = parse_scheme(random_scheme_text(random.Random(seed)))
        for ia, r in zip(s.interactions, changes(s)):
            assert tuple(i + d for i, d in zip(ia.initial, r)) == ia.final
            assert any(r)

    @given(seed=st.integers(0, 10 ** 9))
    def test_reparsing_keeps_species_indices(self, seed):
        text = random_scheme_text(random.Random(seed))
        assert parse_scheme(text).species == parse_scheme(text).species
