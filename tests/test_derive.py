"""Symbolic derivation of transition rates, drift, diffusion, and the SDE."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onestep import (DiffusionSign, IncompatibleNoiseError, NoiseStrategy,
                     Polynomial, RateMode, SdeModel, build_sde_model,
                     canonical_string, diffusion_matrix, drift_vector,
                     falling_factorial, jump_moments, parse_expression,
                     parse_scheme, rate, species, transition_rates)
from helpers import (LOTKA_VOLTERRA, VERHULST, per_state_moments,
                     random_scheme_text)

PHI = species("phi")


def _table(scheme):
    return {s.name: s for s in scheme.species + scheme.rate_symbols}


def expr(text, scheme):
    return parse_expression(text, _table(scheme))


class TestTransitionRates:
    @pytest.mark.parametrize("mode", list(RateMode))
    @pytest.mark.parametrize("sign", list(DiffusionSign))
    def test_one_rate_pass_per_model(self, mode, sign, monkeypatch):
        calls = []

        def counted(scheme, mode):
            calls.append(mode)
            return transition_rates(scheme, mode)

        monkeypatch.setattr("onestep.derive.transition_rates", counted)
        model = build_sde_model(parse_scheme(VERHULST), mode, sign)
        assert calls == [mode]
        scheme = model.scheme
        assert model.drift == tuple(drift_vector(scheme, mode))
        assert model.diffusion == tuple(map(tuple, diffusion_matrix(
            scheme, mode, sign)))

    def test_each_factor_is_built_once_per_call(self, monkeypatch):
        built = []

        def counted(sym, n):
            built.append((sym.name, n))
            return falling_factorial(sym, n)

        monkeypatch.setattr("onestep.derive.falling_factorial", counted)
        transition_rates(parse_scheme("2 x <-> 2 y @ a, b\n2 x -> 0 @ c\n"
                                      "2 y -> x @ d\ny -> 0 @ e\n"))
        assert sorted(built) == [("x", 2), ("y", 1), ("y", 2)]

    def test_logistic_power_form(self):
        s = parse_scheme(VERHULST)
        tr = transition_rates(s, RateMode.FOKKER_PLANCK)
        assert tr.forward == (expr("lambda*phi", s), expr("beta*phi", s))
        assert tr.backward == (expr("gamma*phi^2", s), Polynomial.zero())

    def test_logistic_combinatorial_form(self):
        s = parse_scheme(VERHULST)
        tr = transition_rates(s, RateMode.EXACT)
        assert tr.backward[0] == expr("gamma*phi^2 - gamma*phi", s)
        assert tr.forward == (expr("lambda*phi", s), expr("beta*phi", s))

    def test_predator_prey_power_form(self):
        s = parse_scheme(LOTKA_VOLTERRA)
        tr = transition_rates(s, RateMode.FOKKER_PLANCK)
        assert tr.forward == (expr("k_1*x", s), expr("k_2*x*y", s),
                              expr("k_3*y", s))
        assert tr.backward == (Polynomial.zero(),) * 3

    def test_exact_rates_are_nonnegative_on_integer_states(self):
        s = parse_scheme("3 x <-> 2 y @ a, b")
        tr = transition_rates(s, RateMode.EXACT)
        ones = {sym: 1 for sym in s.rate_symbols}
        for state in itertools.product(range(6), repeat=2):
            point = dict(ones)
            point.update(zip(s.species, state))
            for p in tr.forward + tr.backward:
                assert p.evaluate(point) >= 0


class TestDrift:
    def test_logistic_golden(self):
        s = parse_scheme(VERHULST)
        (a,) = drift_vector(s, RateMode.FOKKER_PLANCK)
        assert a == expr("lambda*phi - beta*phi - gamma*phi^2", s)

    def test_predator_prey_golden(self):
        s = parse_scheme(LOTKA_VOLTERRA)
        ax, ay = drift_vector(s, RateMode.FOKKER_PLANCK)
        assert ax == expr("k_1*x - k_2*x*y", s)
        assert ay == expr("k_2*x*y - k_3*y", s)


class TestDiffusion:
    def test_logistic_difference_sign(self):
        s = parse_scheme(VERHULST)
        ((b,),) = diffusion_matrix(s, RateMode.FOKKER_PLANCK,
                                   DiffusionSign.DIFFERENCE)
        assert b == expr("lambda*phi + beta*phi - gamma*phi^2", s)

    def test_logistic_sum_sign(self):
        s = parse_scheme(VERHULST)
        ((b,),) = diffusion_matrix(s, RateMode.FOKKER_PLANCK,
                                   DiffusionSign.SUM)
        assert b == expr("lambda*phi + beta*phi + gamma*phi^2", s)

    def test_predator_prey_is_sign_independent(self):
        s = parse_scheme(LOTKA_VOLTERRA)
        expected = [
            [expr("k_1*x + k_2*x*y", s), expr("-k_2*x*y", s)],
            [expr("-k_2*x*y", s), expr("k_2*x*y + k_3*y", s)],
        ]
        for sign in DiffusionSign:
            assert diffusion_matrix(s, RateMode.FOKKER_PLANCK, sign) == expected


class TestModelAssembly:
    def test_logistic_display_strings(self):
        model = build_sde_model(parse_scheme(VERHULST))
        order = model.display_order
        assert canonical_string(model.drift[0], order) == \
            "lambda*phi - beta*phi - gamma*phi^2"
        assert canonical_string(model.diffusion[0][0], order) == \
            "lambda*phi + beta*phi - gamma*phi^2"

    def test_predator_prey_display_strings(self):
        model = build_sde_model(parse_scheme(LOTKA_VOLTERRA))
        order = model.display_order
        drift = [canonical_string(p, order) for p in model.drift]
        assert drift == ["k_1*x - k_2*x*y", "k_2*x*y - k_3*y"]
        diffusion = [[canonical_string(p, order) for p in row]
                     for row in model.diffusion]
        assert diffusion == [["k_1*x + k_2*x*y", "-k_2*x*y"],
                             ["-k_2*x*y", "k_2*x*y + k_3*y"]]

    def test_per_reaction_noise_needs_the_sum_sign_when_reversible(self):
        s = parse_scheme(VERHULST)
        with pytest.raises(IncompatibleNoiseError):
            build_sde_model(s, RateMode.FOKKER_PLANCK,
                            DiffusionSign.DIFFERENCE,
                            NoiseStrategy.PER_REACTION)
        build_sde_model(s, RateMode.FOKKER_PLANCK, DiffusionSign.SUM,
                        NoiseStrategy.PER_REACTION)

    def test_per_reaction_noise_allows_difference_without_reversibles(self):
        build_sde_model(parse_scheme(LOTKA_VOLTERRA),
                        RateMode.FOKKER_PLANCK, DiffusionSign.DIFFERENCE,
                        NoiseStrategy.PER_REACTION)

    def test_model_validates_shapes_and_symbols(self):
        s = parse_scheme(VERHULST)
        model = build_sde_model(s)
        with pytest.raises(ValueError):
            SdeModel(species=model.species, rate_symbols=model.rate_symbols,
                     drift=(), diffusion=model.diffusion,
                     rate_mode=model.rate_mode,
                     diffusion_sign=model.diffusion_sign,
                     noise_strategy=model.noise_strategy)
        foreign = Polynomial.symbol(rate("other"))
        with pytest.raises(ValueError):
            SdeModel(species=model.species, rate_symbols=model.rate_symbols,
                     drift=(foreign,), diffusion=model.diffusion,
                     rate_mode=model.rate_mode,
                     diffusion_sign=model.diffusion_sign,
                     noise_strategy=model.noise_strategy)

    def test_the_model_keeps_its_rates_outside_its_value(self):
        scheme = parse_scheme(LOTKA_VOLTERRA)
        model = build_sde_model(scheme, RateMode.EXACT)
        assert model.transition_rates == transition_rates(scheme,
                                                          RateMode.EXACT)
        # a replaced model has none, so none can belong to another scheme
        copy = replace(model)
        assert copy.transition_rates is None
        assert copy == model and hash(copy) == hash(model)
        assert repr(copy) == repr(model)

    def test_asymmetric_diffusion_is_rejected(self):
        s = parse_scheme(LOTKA_VOLTERRA)
        model = build_sde_model(s)
        skewed = (
            (model.diffusion[0][0], model.drift[0]),
            (model.diffusion[1][0], model.diffusion[1][1]),
        )
        with pytest.raises(ValueError):
            SdeModel(species=model.species, rate_symbols=model.rate_symbols,
                     drift=model.drift, diffusion=skewed,
                     rate_mode=model.rate_mode,
                     diffusion_sign=model.diffusion_sign,
                     noise_strategy=model.noise_strategy)

    @pytest.mark.parametrize("old, new, needle", [
        ("phi", "psi", "species"), ("beta", "mu", "rate symbols")])
    def test_scheme_must_be_the_models(self, old, new, needle):
        model = build_sde_model(parse_scheme(VERHULST))
        other = parse_scheme(VERHULST.replace(old, new))
        with pytest.raises(ValueError, match=f"scheme's {needle} differ"):
            replace(model, scheme=other)
        # the same rate symbols in another order are the same set
        assert replace(model, rate_symbols=model.rate_symbols[::-1]).scheme \
            == model.scheme

    def test_standalone_model_without_a_scheme(self):
        x = species("x")
        model = SdeModel(species=(x,), rate_symbols=(),
                         drift=(-Polynomial.symbol(x),),
                         diffusion=((Polynomial.zero(),),),
                         rate_mode=RateMode.FOKKER_PLANCK,
                         diffusion_sign=DiffusionSign.SUM,
                         noise_strategy=NoiseStrategy.MATRIX_SQRT)
        assert model.scheme is None
        assert model.display_order == (x,)


def _random_rates(scheme, rng):
    return {sym: Fraction(rng.randint(1, 9), rng.randint(1, 4))
            for sym in scheme.rate_symbols}


class TestDerivationProperties:
    @given(seed=st.integers(0, 10 ** 9))
    def test_signs_coincide_without_backward_rates(self, seed):
        s = parse_scheme(random_scheme_text(random.Random(seed),
                                            reversible_chance=0.0))
        assert diffusion_matrix(s, RateMode.EXACT, DiffusionSign.DIFFERENCE) \
            == diffusion_matrix(s, RateMode.EXACT, DiffusionSign.SUM)

    @given(seed=st.integers(0, 10 ** 9))
    def test_diffusion_matrix_is_symmetric(self, seed):
        s = parse_scheme(random_scheme_text(random.Random(seed)))
        for mode in RateMode:
            for sign in DiffusionSign:
                b = diffusion_matrix(s, mode, sign)
                n = len(s.species)
                for i in range(n):
                    for j in range(n):
                        assert b[i][j] == b[j][i]

    @given(seed=st.integers(0, 10 ** 9))
    def test_exact_and_power_rates_agree_at_unit_stoichiometry(self, seed):
        s = parse_scheme(random_scheme_text(random.Random(seed),
                                            max_stoich=1))
        assert transition_rates(s, RateMode.EXACT) == \
            transition_rates(s, RateMode.FOKKER_PLANCK)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 10 ** 9))
    def test_enumerated_jump_moments_match_the_derivation(self, seed):
        rng = random.Random(seed)
        s = parse_scheme(random_scheme_text(rng))
        rates = _random_rates(s, rng)
        drift = drift_vector(s, RateMode.EXACT)
        second = diffusion_matrix(s, RateMode.EXACT, DiffusionSign.SUM)
        n = len(s.species)
        states = list(itertools.product(range(4), repeat=n))
        for state, (first_enum, second_enum) in zip(
                states, per_state_moments(jump_moments(s, rates, states))):
            point = dict(rates)
            point.update(zip(s.species, state))
            for i in range(n):
                assert drift[i].evaluate(point) == first_enum[i]
                for j in range(n):
                    assert second[i][j].evaluate(point) == second_enum[i][j]


class TestLargeSchemes:
    def test_2000_interaction_cycle_derives(self):
        """2,000 one-way interactions k_i: s_(i mod 4) -> s_(i+1 mod 4).
        Each drift entry has 1,000 terms, k_i s_(j-1) in and k_i s_j out;
        summing them one interaction at a time took half a minute."""
        count = 4
        scheme = parse_scheme("".join(
            f"s{i % count} -> s{(i + 1) % count} @ k_{i}\n"
            for i in range(2000)))
        model = build_sde_model(scheme, diffusion_sign=DiffusionSign.SUM)
        point = {sym: Fraction(i + 1) for i, sym
                 in enumerate(scheme.species + scheme.rate_symbols)}
        ks = [point[rate(f"k_{i}")] for i in range(2000)]
        for j, a in enumerate(model.drift):
            src = point[species(f"s{(j - 1) % count}")]
            here = point[species(f"s{j}")]
            assert len(a.terms) == 1000
            assert a.evaluate(point) == \
                sum(ks[(j - 1) % count::count]) * src \
                - sum(ks[j::count]) * here
        # the diagonal of B is the same flows with both signs positive
        assert len(model.diffusion[0][0].terms) == 1000
