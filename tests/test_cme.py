"""Truncated master-equation oracle: generator, evolution, moments."""

import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from onestep import (ChannelTable, DegenerateDistributionError, Distribution,
                     RateMode, SimConfig, StateBox, TruncatedGenerator,
                     UnboundRateError, UnstableStepError, as_function,
                     bind_values, build_generator, default_box,
                     distribution_moments, distribution_to_csv,
                     drift_vector, evolve_distribution, gillespie_ssa,
                     jump_moments, parse_scheme, point_mass, rate,
                     reaction_channels)
import onestep.cme
from onestep.cme import _drift_flow
from helpers import (LOTKA_VOLTERRA, PURE_DEATH, VERHULST,
                     object_build_generator, object_jump_moments,
                     object_rate_numerators, per_state_moments,
                     random_scheme_text)

BETA = rate("beta")
GAMMA = rate("gamma")
LAM = rate("lambda")

VERHULST_RATES = {LAM: 1, GAMMA: Fraction(1, 2), BETA: Fraction(1, 5)}


class TestStateBox:
    def test_row_major_enumeration(self):
        box = StateBox((1, 2))
        assert list(box.states()) == [(0, 0), (0, 1), (0, 2),
                                      (1, 0), (1, 1), (1, 2)]
        assert box.size == 6

    def test_index_inverts_enumeration(self):
        box = StateBox((2, 3, 1))
        for i, state in enumerate(box.states()):
            assert box.index(state) == i
            assert box.contains(state)
        assert not box.contains((3, 0, 0))

    def test_rejects_negative_bounds(self):
        with pytest.raises(ValueError):
            StateBox((2, -1))

    @pytest.mark.parametrize("bounds", [
        (0,), (1,), (7,), (64,), (0, 0), (0, 3), (80, 80),
        (3, 3, 0, 0, 0, 0, 0, 3)],
        ids=["zero", "one", "seven", "verhulst", "zeros", "zero-first",
             "lotka-volterra", "ring8"])
    def test_state_array_is_the_enumeration(self, bounds):
        box = StateBox(bounds)
        array = box.state_array()
        expected = np.array(list(itertools.product(
            *(range(b + 1) for b in bounds))), dtype=np.int64)
        assert array.dtype == np.int64
        assert array.flags.c_contiguous
        assert array.shape == (box.size, len(bounds))
        assert np.array_equal(array, expected)


def test_importing_onestep_leaves_scipy_unloaded():
    """Only the master-equation generator needs scipy, and it imports it
    when called."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import onestep

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(onestep.__file__).resolve().parents[1]),
        env.get("PYTHONPATH")]))
    code = "import sys, onestep; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout == "False\n"


class TestChannels:
    def test_one_channel_per_direction(self):
        s = parse_scheme(VERHULST)
        channels = reaction_channels(s, VERHULST_RATES)
        assert [(stoich, change) for stoich, change, _ in channels] == \
            [((1,), (1,)), ((2,), (-1,)), ((1,), (-1,))]

    def test_unbound_rate_is_named(self):
        s = parse_scheme(VERHULST)
        with pytest.raises(UnboundRateError) as err:
            reaction_channels(s, {LAM: 1, BETA: 1})
        assert "gamma" in str(err.value)


class TestChannelTable:
    def test_rates_count_arrangements(self):
        s = parse_scheme("2 x -> 0 @ a\n0 -> x @ b\n")
        table = ChannelTable(s, {rate("a"): Fraction(1, 2), rate("b"): 1})
        assert table.denominator == 2
        at = table.rate_numerators([(3,), (1,), (5,)])
        # a x (x - 1) is 3 at x = 3 and 0 at x = 1; b consumes nothing
        assert at[:, 0].tolist() == [6, 0, 20]
        assert at[:, 1].tolist() == [2, 2, 2]

    def test_float_rates_count_as_the_rationals_they_represent(self):
        s = parse_scheme(PURE_DEATH)
        table = ChannelTable(s, {BETA: 0.1})
        assert Fraction(table.numerators[0], table.denominator) == \
            Fraction(0.1)

    @pytest.mark.parametrize("states", [
        [(2,)],                 # y is missing
        [(-1, 3)],
        [(2, 1.5)],
        [(2, 1), (3,)],
        (2, 1),                 # one state, not a sequence of them
    ])
    def test_malformed_states_are_rejected(self, states):
        s = parse_scheme(LOTKA_VOLTERRA)
        ones = {sym: 1 for sym in s.rate_symbols}
        with pytest.raises(ValueError):
            jump_moments(s, ones, states)


class TestRateValues:
    """The oracles and the jump sampler read rate values by the rule of
    Polynomial.evaluate and bind_values (poly._exact)."""

    CALLS = {
        "channel-table": lambda s, rates: ChannelTable(s, rates),
        "jump-moments": lambda s, rates: jump_moments(s, rates, [(3,)]),
        "generator": lambda s, rates: build_generator(s, rates,
                                                      StateBox((5,))),
        "jump-sampler": lambda s, rates: gillespie_ssa(s, SimConfig(
            rates=rates, initial_state=(3.0,), t_final=0.1,
            trajectories=2)),
    }

    @pytest.mark.parametrize("value", ["1/5", Decimal("0.2")],
                             ids=["string", "decimal"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_string_and_decimal_rates_are_refused_by_name(self, call,
                                                          value):
        rates = {**VERHULST_RATES, BETA: value}
        with pytest.raises(TypeError, match="value for rate:beta"):
            self.CALLS[call](parse_scheme(VERHULST), rates)


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_nan_and_infinite_rates_are_refused_by_name(self, call, value):
        # a ValueError naming the symbol, not Fraction's bare ValueError
        # or OverflowError
        rates = {**VERHULST_RATES, BETA: value}
        with pytest.raises(ValueError, match=re.escape(
                f"value for rate:beta must be finite, got {value!r}")):
            self.CALLS[call](parse_scheme(VERHULST), rates)


class TestGenerator:
    def test_pure_death_matrix(self):
        s = parse_scheme(PURE_DEATH)
        gen = build_generator(s, {BETA: 1}, StateBox((2,)))
        q = gen.matrix.toarray()
        expected = np.array([
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 2.0],
            [0.0, 0.0, -2.0],
        ])
        assert np.array_equal(q, expected)
        assert np.array_equal(gen.lost_rate, np.zeros(3))

    def test_logistic_outflow_at_three(self):
        s = parse_scheme(VERHULST)
        gen = build_generator(s, VERHULST_RATES, StateBox((6,)))
        q = gen.matrix.toarray()
        assert q[4, 3] == 3.0          # reproduction: rate lambda*phi
        assert q[2, 3] == 3.6          # competition 0.5*3*2 plus death 0.2*3
        assert q[3, 3] == -6.6

    def test_interior_columns_conserve_probability(self):
        # dyadic rates and small integer states stay exact in floats
        s = parse_scheme(VERHULST)
        rates = {LAM: Fraction(3, 4), GAMMA: Fraction(1, 2), BETA: Fraction(5, 8)}
        gen = build_generator(s, rates, StateBox((8,)))
        sums = np.asarray(gen.matrix.sum(axis=0)).ravel()
        assert np.array_equal(sums, -gen.lost_rate)
        interior = ~(gen.lost_rate > 0)
        assert interior.any()
        assert np.all(sums[interior] == 0.0)

    def test_boundary_outflow_is_tracked_exactly(self):
        s = parse_scheme(VERHULST)
        gen = build_generator(s, VERHULST_RATES, StateBox((4,)))
        # only reproduction at the boundary state leaves the box
        assert gen.lost_rate.tolist() == [0.0, 0.0, 0.0, 0.0, 4.0]

    def test_dimension_mismatch_is_rejected(self):
        s = parse_scheme(LOTKA_VOLTERRA)
        with pytest.raises(ValueError):
            build_generator(s, {rate("k_1"): 1, rate("k_2"): 1,
                                rate("k_3"): 1}, StateBox((4,)))


class TestJumpMoments:
    def test_logistic_at_three(self):
        s = parse_scheme(VERHULST)
        [(first, second)] = per_state_moments(
            jump_moments(s, VERHULST_RATES, [(3,)]))
        assert first == [Fraction(-3, 5)]
        assert second == [[Fraction(33, 5)]]

    def test_zero_rates_give_zero_moments(self):
        s = parse_scheme(VERHULST)
        [(first, second)] = per_state_moments(
            jump_moments(s, {LAM: 0, GAMMA: 0, BETA: 0}, [(5,)]))
        assert first == [0]
        assert second == [[0]]

    def test_predator_prey_at_a_small_state(self):
        s = parse_scheme(LOTKA_VOLTERRA)
        ones = {sym: 1 for sym in s.rate_symbols}
        [(first, second)] = per_state_moments(
            jump_moments(s, ones, [(2, 1)]))
        assert first == [0, 1]
        assert second == [[4, -2], [-2, 3]]


    def test_integer_form(self):
        # at (2, 1) the channel rates are 1, 2 and 1/3: 6, 12 and 2 sixths
        s = parse_scheme(LOTKA_VOLTERRA)
        rates = {rate("k_1"): Fraction(1, 2), rate("k_2"): 1,
                 rate("k_3"): Fraction(1, 3)}
        moments = jump_moments(s, rates, [(2, 1), (0, 0)])
        assert moments.denominator == 6
        # every sum is at most 3 * 2 + 6 * 2 * 1 + 2 * 1 = 20 in magnitude
        assert moments.first.dtype == np.int64
        assert moments.first.tolist() == [[-6, 10], [0, 0]]
        assert all(v.dtype == np.int64 for v in moments.second.values())
        assert list(moments.second) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert moments.second[0, 0].tolist() == [18, 0]
        assert moments.second[0, 1].tolist() == [-12, 0]
        assert moments.second[1, 0] is moments.second[0, 1]
        assert moments.second[1, 1].tolist() == [14, 0]

    def test_a_species_no_channel_moves_has_no_entries(self):
        # y only catalyses: its first moment is 0 and no entry reads it
        s = parse_scheme("x + y -> 2 x + y @ a\n")
        moments = jump_moments(s, {rate("a"): 3}, [(2, 5)])
        assert moments.first.tolist() == [[30, 0]]
        assert list(moments.second) == [(0, 0)]
        assert moments.second[0, 0].tolist() == [30]


class TestEvolution:
    def test_zero_generator_keeps_the_distribution(self):
        s = parse_scheme(PURE_DEATH)
        gen = build_generator(s, {BETA: 0}, StateBox((3,)))
        p0 = point_mass(StateBox((3,)), (2,))
        p1 = evolve_distribution(gen, p0, 1.0, dt=1e-2)
        assert np.array_equal(p1.probabilities, p0.probabilities)
        assert p1.time == 1.0

    def test_pure_death_closed_form(self):
        s = parse_scheme(PURE_DEATH)
        box = StateBox((1,))
        gen = build_generator(s, {BETA: 1}, box)
        p1 = evolve_distribution(gen, point_mass(box, (1,)), 1.0, dt=1e-3)
        assert abs(p1.probabilities[1] - math.exp(-1)) < 1e-6
        assert abs(p1.probabilities[0] - (1 - math.exp(-1))) < 1e-6
        assert p1.leaked < 1e-12

    def test_mean_decays_when_loss_dominates(self):
        s = parse_scheme(VERHULST)
        rates = {LAM: Fraction(1, 10), BETA: 1, GAMMA: Fraction(1, 2)}
        box = StateBox((12,))
        gen = build_generator(s, rates, box)
        p0 = point_mass(box, (5,))
        p1 = evolve_distribution(gen, p0, 0.5, dt=1e-3)
        mean1, _ = distribution_moments(p1)
        assert mean1[0] < 5.0

    def test_stability_guard(self):
        s = parse_scheme(PURE_DEATH)
        gen = build_generator(s, {BETA: 1}, StateBox((100,)))
        p0 = point_mass(StateBox((100,)), (50,))
        with pytest.raises(UnstableStepError):
            evolve_distribution(gen, p0, 1.0, dt=0.1)

    @pytest.mark.parametrize("name", ["t_final", "dt", "dist.time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_arguments_are_refused_by_name(self, name, value):
        s = parse_scheme(PURE_DEATH)
        box = StateBox((3,))
        gen = build_generator(s, {BETA: 1}, box)
        values = {"t_final": 1.0, "dt": 1e-3, "dist.time": 0.0, name: value}
        p0 = Distribution(box=box, probabilities=np.full(4, 0.25),
                          time=values["dist.time"])
        with pytest.raises(ValueError,
                           match=f"^{re.escape(name)} must be finite"):
            evolve_distribution(gen, p0, values["t_final"], values["dt"])

    def test_half_steps_compose(self):
        s = parse_scheme(VERHULST)
        box = StateBox((24,))
        gen = build_generator(s, VERHULST_RATES, box)
        p0 = point_mass(box, (4,))
        whole = evolve_distribution(gen, p0, 0.5, dt=1e-3)
        halves = evolve_distribution(
            gen, evolve_distribution(gen, p0, 0.25, dt=1e-3), 0.5, dt=1e-3)
        assert np.abs(whole.probabilities - halves.probabilities).max() < 1e-8

    def test_mean_flow_matches_the_drift_expectation(self):
        # d<phi>/dt by central difference against sum_phi A(phi) p(phi)
        s = parse_scheme(VERHULST)
        rates = {LAM: 1, BETA: Fraction(1, 5), GAMMA: Fraction(1, 20)}
        box = default_box(s, rates, initial_state=(10,))
        gen = build_generator(s, rates, box)
        p0 = point_mass(box, (10,))
        h = 0.005
        at_t = evolve_distribution(gen, p0, 1.0, dt=1e-3)
        ahead = evolve_distribution(gen, at_t, 1.0 + h, dt=1e-3)
        behind = evolve_distribution(gen, p0, 1.0 - h, dt=1e-3)
        assert at_t.leaked < 1e-6
        mean_ahead, _ = distribution_moments(ahead)
        mean_behind, _ = distribution_moments(behind)
        slope = (mean_ahead[0] - mean_behind[0]) / (2 * h)
        expectation = sum(
            float(first[0]) * p for (first, _), p
            in zip(per_state_moments(
                jump_moments(s, rates, list(box.states()))),
                at_t.probabilities))
        assert abs(slope - expectation) < 1e-4


class TestMoments:
    def test_point_mass_moments(self):
        box = StateBox((4, 4))
        mean, cov = distribution_moments(point_mass(box, (3, 1)))
        assert np.array_equal(mean, [3.0, 1.0])
        assert np.array_equal(cov, np.zeros((2, 2)))

    def test_uniform_on_three_states(self):
        box = StateBox((2,))
        dist = Distribution(box=box, probabilities=np.full(3, 1 / 3))
        mean, cov = distribution_moments(dist)
        assert mean[0] == pytest.approx(1.0)
        assert cov[0, 0] == pytest.approx(2 / 3)

    def test_death_mean_at_half_life(self):
        s = parse_scheme(PURE_DEATH)
        box = StateBox((1,))
        gen = build_generator(s, {BETA: 1}, box)
        p = evolve_distribution(gen, point_mass(box, (1,)), math.log(2),
                                dt=1e-3)
        mean, _ = distribution_moments(p)
        assert abs(mean[0] - 0.5) < 1e-5

    def test_vanished_mass_is_degenerate(self):
        box = StateBox((2,))
        dist = Distribution(box=box, probabilities=np.zeros(3))
        with pytest.raises(DegenerateDistributionError):
            distribution_moments(dist)

    def test_renormalizes_by_surviving_mass(self):
        box = StateBox((1,))
        dist = Distribution(box=box, probabilities=np.array([0.25, 0.25]))
        mean, _ = distribution_moments(dist)
        assert mean[0] == pytest.approx(0.5)


class TestOutput:
    def test_csv_has_one_row_per_state(self):
        s = parse_scheme(LOTKA_VOLTERRA)
        box = StateBox((1, 1))
        text = distribution_to_csv(point_mass(box, (1, 0)), s.species)
        lines = text.strip().splitlines()
        assert lines[0] == "x,y,probability"
        assert len(lines) == 1 + box.size
        assert lines[3] == "1,0,1.0"


class TestDefaultBox:
    def test_logistic_box_tracks_the_settled_flow(self):
        s = parse_scheme(VERHULST)
        rates = {LAM: 1, BETA: Fraction(1, 5), GAMMA: Fraction(1, 20)}
        box = default_box(s, rates, initial_state=(10,))
        # the drift flow settles at (lambda - beta) / gamma = 16
        assert box.bounds == (64,)

    def test_box_always_covers_the_initial_state(self):
        s = parse_scheme(PURE_DEATH)
        box = default_box(s, {BETA: 1}, initial_state=(40,))
        assert box.contains((40,))

    def test_box_covers_an_initial_state_beyond_the_cap(self):
        # the 4096 cap bounds the flow heuristic, never the initial state
        s = parse_scheme(VERHULST)
        rates = {LAM: 1, BETA: Fraction(1, 5), GAMMA: Fraction(1, 20)}
        box = default_box(s, rates, initial_state=(5000,))
        assert box.bounds == (5000,)
        assert point_mass(box, (5000,)).probabilities[-1] == 1

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=20)
    def test_box_is_always_usable(self, seed):
        rng = random.Random(seed)
        s = parse_scheme(random_scheme_text(rng, max_species=2,
                                            max_interactions=3,
                                            max_stoich=2))
        rates = {sym: Fraction(rng.randint(1, 3), 2)
                 for sym in s.rate_symbols}
        box = default_box(s, rates)
        assert len(box.bounds) == len(s.species)
        assert all(4 <= b <= 4096 for b in box.bounds)


def reference_default_box(scheme, rates, initial_state=None):
    """default_box as first written: all 50,000 Euler steps, with no stop
    at a fixed point."""
    n = len(scheme.species)
    start = tuple(initial_state) if initial_state is not None else (1,) * n
    drift = as_function([bind_values(p, rates) for p in
                         drift_vector(scheme, RateMode.FOKKER_PLANCK)],
                        scheme.species)

    x = [float(v) for v in start]
    peak = list(x)
    finite = True
    dt = 0.002
    for _ in range(50_000):
        a = drift(*x)
        x = [max(0.0, xi + dt * ai) for xi, ai in zip(x, a)]
        if any(not np.isfinite(xi) or xi > 1e7 for xi in x):
            finite = False
            break
        for i in range(n):
            if x[i] > peak[i]:
                peak[i] = x[i]

    bounds = []
    for i in range(n):
        if finite and peak[i] > 0:
            b = int(np.ceil(4.0 * peak[i]))
        else:
            b = 32
        b = max(b, int(np.ceil(start[i])), 4)
        bounds.append(min(b, 4096))
    return StateBox(tuple(bounds))


EXPLOSIVE = "x -> 2 x @ k_1\n2 x -> 3 x @ k_2\n"
RING3 = "x <-> y @ a_1, b_1\ny <-> z @ a_2, b_2\nz <-> x @ a_3, b_3\n"
RING8 = "".join(f"3 x{i} <-> 3 x{i % 8 + 1} @ a_{i}, b_{i}\n"
                for i in range(1, 9))


def _rates_for(scheme, values):
    return {sym: Fraction(values[sym.name]) for sym in scheme.rate_symbols}


class TestDefaultBoxFixedPointStop:
    """The early stop at a fixed point leaves every box unchanged.  The
    verhulst, lv-equilibrium and ring8 cases are the perfbench workloads'
    schemes, rates and initial states."""

    @pytest.mark.parametrize("text, values, initial", [
        (VERHULST, {"lambda": 1, "beta": "1/5", "gamma": "1/20"}, (10,)),
        (LOTKA_VOLTERRA, {"k_1": 1, "k_2": "1/20", "k_3": 1}, (20, 20)),
        (LOTKA_VOLTERRA, {"k_1": 1, "k_2": "1/20", "k_3": 1}, (5, 30)),
        (PURE_DEATH, {"beta": 1}, (40,)),
        (EXPLOSIVE, {"k_1": 1, "k_2": 1}, None),
        (RING3, {"a_1": 1, "b_1": "1/2", "a_2": "1/3", "b_2": 2,
                 "a_3": "3/4", "b_3": "1/5"}, (6, 0, 2)),
        (RING8, {f"{k}_{i}": v for i in range(1, 9)
                 for k, v in (("a", "1/10000"), ("b", "1/20000"))},
         (100,) * 8),
    ], ids=["verhulst", "lv-equilibrium", "lv-off-equilibrium",
            "pure-death", "explosive", "ring3", "ring8"])
    def test_matches_the_full_loop(self, text, values, initial):
        s = parse_scheme(text)
        rates = _rates_for(s, values)
        box = default_box(s, rates, initial)
        assert box == reference_default_box(s, rates, initial)
        if text == EXPLOSIVE:
            assert box.bounds == (32,)     # the non-finite fallback

    @given(seed=st.integers(0, 10 ** 6),
           initial=st.lists(st.integers(0, 20), min_size=2, max_size=2))
    @settings(max_examples=10)
    def test_matches_the_full_loop_from_small_states(self, seed, initial):
        rng = random.Random(seed)
        s = parse_scheme(random_scheme_text(rng, max_species=2,
                                            max_interactions=3,
                                            max_stoich=2))
        rates = {sym: Fraction(rng.randint(1, 3), 2)
                 for sym in s.rate_symbols}
        start = tuple(initial[:len(s.species)])
        assert default_box(s, rates, start) == \
            reference_default_box(s, rates, start)


def list_loop_default_box(scheme, rates, initial_state=None):
    """default_box with the fixed-point stop, stepped through Python lists:
    the box and the number of drift calls the flow made."""
    n = len(scheme.species)
    start = tuple(initial_state) if initial_state is not None else (1,) * n
    drift = as_function([bind_values(p, rates) for p in
                         drift_vector(scheme, RateMode.FOKKER_PLANCK)],
                        scheme.species)

    calls = 0
    x = [float(v) for v in start]
    peak = list(x)
    finite = True
    for _ in range(50_000):
        calls += 1
        x_new = [max(0.0, xi + 0.002 * ai) for xi, ai in zip(x, drift(*x))]
        if any(not np.isfinite(xi) or xi > 1e7 for xi in x_new):
            finite = False
            break
        if x_new == x:
            break
        x = x_new
        for i in range(n):
            if x[i] > peak[i]:
                peak[i] = x[i]

    bounds = []
    for i in range(n):
        b = int(np.ceil(4.0 * peak[i])) if finite and peak[i] > 0 else 32
        bounds.append(max(min(b, 4096), int(np.ceil(start[i])), 4))
    return StateBox(tuple(bounds)), calls


def _counting_as_function(monkeypatch):
    """Replace onestep.cme.as_function, the name perfbench hooks, with a
    wrapper that counts compilations and calls of the compiled function."""
    counts = {"compiled": 0, "calls": 0}
    compile_ = onestep.cme.as_function

    def counting(*args, **kwargs):
        counts["compiled"] += 1
        fn = compile_(*args, **kwargs)

        def call(*xs):
            counts["calls"] += 1
            return fn(*xs)
        return call
    monkeypatch.setattr(onestep.cme, "as_function", counting)
    return counts


class TestDefaultBoxGeneratedFlow:
    """The flow runs in one loop generated per call and unrolled over the
    species; it must give the list loop's boxes and drift calls."""

    @pytest.mark.parametrize("text, values, initial", [
        (VERHULST, {"lambda": 1, "beta": "1/5", "gamma": "1/20"}, (10,)),
        (RING3, {"a_1": 1, "b_1": "1/2", "a_2": "1/3", "b_2": 2,
                 "a_3": "3/4", "b_3": "1/5"}, (6, 0, 2)),
    ], ids=["verhulst", "ring3"])
    def test_compiles_once_and_calls_the_drift_once_per_step(
            self, text, values, initial, monkeypatch):
        s = parse_scheme(text)
        rates = _rates_for(s, values)
        box, calls = list_loop_default_box(s, rates, initial)
        counts = _counting_as_function(monkeypatch)
        assert default_box(s, rates, initial) == box
        assert counts == {"compiled": 1, "calls": calls}
        assert calls > 1000

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=5)
    def test_matches_the_full_loop_on_three_and_four_species(self, seed):
        rng = random.Random(seed)
        s = parse_scheme(random_scheme_text(rng, max_species=4))
        while len(s.species) < 3:
            s = parse_scheme(random_scheme_text(rng, max_species=4))
        rates = {sym: Fraction(rng.randint(1, 3), 2)
                 for sym in s.rate_symbols}
        start = tuple(rng.randint(0, 20) for _ in s.species)
        assert default_box(s, rates, start) == \
            reference_default_box(s, rates, start)

    def test_a_nan_step_clips_to_zero_as_max_does(self):
        # inf - inf in a drift gives NaN; max(0.0, nan) is 0.0, so the
        # flow restarts from zero and climbs to 1, where the drift stops it
        values = iter([math.nan])

        def drift(x):
            return (next(values, 1.0 if x < 1.0 else 0.0),)
        (peak,) = _drift_flow(drift, 1)(0.5)
        assert 1.0 <= peak < 1.002

    def test_thousand_species_ring_stops_on_the_first_step(
            self, monkeypatch):
        # equal rates both ways around the ring: the uniform state is a
        # fixed point of the drift, so the first step changes nothing
        n = 1000
        s = parse_scheme("".join(f"x{i} <-> x{i % n + 1} @ a_{i}, b_{i}\n"
                                 for i in range(1, n + 1)))
        rates = {sym: Fraction(1) for sym in s.rate_symbols}
        counts = _counting_as_function(monkeypatch)
        box = default_box(s, rates, (3,) * n)
        assert box.bounds == (12,) * n
        assert counts == {"compiled": 1, "calls": 1}


def reference_evolve_distribution(gen, dist, t_final, dt=1e-3):
    """evolve_distribution as first written: k1 ... k4 with four products
    with Q and the RK4 sum per step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    span = t_final - dist.time
    if span < 0:
        raise ValueError("t_final lies before the distribution's time")
    scale = float(np.abs(gen.matrix.diagonal()).max(initial=0.0))
    if dt * scale > 0.5:
        raise UnstableStepError(
            f"dt = {dt} is too large for this generator; need "
            f"dt <= {0.5 / scale:.3e}")

    q = gen.matrix
    p = np.array(dist.probabilities, dtype=np.float64)
    nfull = int(span / dt + 1e-9)
    rem = span - nfull * dt
    steps = [dt] * nfull
    if rem > 1e-12 * max(dt, 1.0):
        steps.append(rem)
    for h in steps:
        k1 = q @ p
        k2 = q @ (p + 0.5 * h * k1)
        k3 = q @ (p + 0.5 * h * k2)
        k4 = q @ (p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return Distribution(box=dist.box, probabilities=p, time=t_final)


def _oracle_generator(text, values, bounds):
    s = parse_scheme(text)
    return build_generator(s, _rates_for(s, values), StateBox(bounds))


def _exact_rk4_coefficients(a):
    """The coefficients of x^0 ... x^4 in T4(a(x - 1)), T4(z) = sum of
    z^m / m! for m <= 4, expanded exactly."""
    beta = [Fraction(0)] * 5
    for m in range(5):
        for j in range(m + 1):
            beta[j] += (a ** m / math.factorial(m) * math.comb(m, j)
                        * (-1) ** (m - j))
    return beta


def _exact_convolution(x, y):
    out = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            out[i + j] += u * v
    return out


def _scale(gen):
    return float(np.abs(gen.matrix.diagonal()).max(initial=0.0))


class TestRk4WeightedPowers:
    """One RK4 step of size h is T4(hQ) = sum_j beta_j(hL) P^j, with
    L = max|Q_ii| and P = I + Q/L; the whole schedule is one weighted sum
    of powers of P, which must agree with the k1 ... k4 loop."""

    @pytest.mark.parametrize("a", [0.0, 1e-9, 2.7e-6, 1e-3, 0.1, 1 / 3,
                                   0.49, 0.5, 0.75, 1.0])
    def test_coefficients_are_the_exact_expansion(self, a):
        beta = onestep.cme._rk4_coefficients(a)
        exact = _exact_rk4_coefficients(Fraction(a))
        assert (beta >= 0).all()
        for b, e in zip(beta.tolist(), exact):
            assert abs(Fraction(b) - e) <= Fraction(1, 10 ** 15) * e
        assert sum(exact) == 1

    @pytest.mark.parametrize("a", [1e-3, 0.1, 0.49, 0.5])
    @pytest.mark.parametrize("steps", [0, 1, 2, 3, 5, 8])
    @pytest.mark.parametrize("a_rem", [None, 0.0, 0.25])
    def test_weights_are_the_exact_convolution(self, a, steps, a_rem):
        first, w = onestep.cme._rk4_weights(a, steps, a_rem)
        exact = [Fraction(1)]
        for _ in range(steps):
            exact = _exact_convolution(
                exact, _exact_rk4_coefficients(Fraction(a)))
        if a_rem is not None:
            exact = _exact_convolution(
                exact, _exact_rk4_coefficients(Fraction(a_rem)))
        assert (w >= 0).all()
        assert abs(w.sum() - 1.0) <= 1e-15
        assert 0 <= first and first + len(w) <= len(exact)
        # to rounding, plus at most _TRIM per tail of each convolution
        trimmed = 2 * (2 * steps.bit_length() + 1) * Fraction(
            onestep.cme._TRIM)
        for k, e in enumerate(exact):
            got = Fraction(w[k - first]) if 0 <= k - first < len(w) else 0
            assert abs(got - e) <= Fraction(1, 10 ** 13) * e + trimmed

    @given(seed=st.integers(0, 10 ** 9),
           steps=st.integers(0, 3000),
           fraction=st.sampled_from([0.0, 1e-13, 0.25, 0.5, 0.999]),
           start=st.sampled_from([0.0, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_k_loop(self, seed, steps, fraction, start):
        rng = random.Random(seed)
        s = parse_scheme(random_scheme_text(rng, max_species=2,
                                            max_interactions=3,
                                            max_stoich=2))
        rates = {sym: Fraction(rng.randint(0, 6), rng.randint(1, 4))
                 for sym in s.rate_symbols}
        box = StateBox(tuple(rng.randint(0, 8) for _ in s.species))
        gen = build_generator(s, rates, box)
        scale = _scale(gen)
        a = rng.choice([1e-3, 0.01, 0.05, 0.49, 0.5])
        if a < 0.49 or not scale:
            dt = a / max(1.0, scale)
        else:       # dt L = a, up to the guard's limit of 0.5
            dt = a / scale
            while dt * scale > 0.5:
                dt = math.nextafter(dt, 0.0)
        weights = np.array([rng.random() for _ in range(box.size)])
        dist = Distribution(box=box, probabilities=weights / weights.sum(),
                            time=start)
        t_final = start + (steps + fraction) * dt
        new = evolve_distribution(gen, dist, t_final, dt)
        ref = reference_evolve_distribution(gen, dist, t_final, dt)
        assert new.time == ref.time == t_final
        assert np.abs(new.probabilities - ref.probabilities).max() <= 1e-12

    def test_benchmark_lotka_volterra_box(self):
        # the perfbench oracle: default_box from (20, 20), to t = 1
        gen = _oracle_generator(LOTKA_VOLTERRA,
                                {"k_1": 1, "k_2": "1/20", "k_3": 1},
                                (80, 80))
        p0 = point_mass(gen.box, (20, 20))
        new = evolve_distribution(gen, p0, 1.0)
        ref = reference_evolve_distribution(gen, p0, 1.0)
        assert np.abs(new.probabilities - ref.probabilities).max() <= 1e-16
        assert 4e-8 < ref.leaked < 5e-8
        assert abs(new.leaked - ref.leaked) <= 1e-15
        reach = _scale(gen) * 1.0
        first, w = onestep.cme._rk4_weights(1e-3 * _scale(gen), 1000)
        assert first + len(w) - 1 <= reach + 10 * math.sqrt(reach) + 5

    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_generator_gives_a_substochastic_power(self, seed):
        rng = random.Random(seed)
        s = parse_scheme(random_scheme_text(rng, max_stoich=3))
        rates = {sym: Fraction(rng.randint(0, 9), rng.randint(1, 7))
                 for sym in s.rate_symbols}
        box = StateBox(tuple(rng.randint(0, 6) for _ in s.species))
        gen = build_generator(s, rates, box)
        scale = _scale(gen)
        if not scale:
            assert not gen.matrix.count_nonzero()
            return
        power = np.eye(gen.size) + gen.matrix.toarray() / scale
        assert (power >= 0).all()
        assert (power.sum(axis=0) <= 1 + 1e-15).all()

    @pytest.mark.parametrize("text, values, bounds", [
        (VERHULST, {"lambda": 1, "beta": "1/5", "gamma": "1/20"}, (64,)),
        (LOTKA_VOLTERRA, {"k_1": 1, "k_2": "1/20", "k_3": 1}, (8, 8)),
        (PURE_DEATH, {"beta": 0}, (3,)),
    ], ids=["verhulst", "lotka-volterra", "zero-generator"])
    def test_input_distribution_is_not_mutated(self, text, values, bounds):
        gen = _oracle_generator(text, values, bounds)
        p0 = point_mass(gen.box, (3,) * len(bounds))
        before = p0.probabilities.copy()
        p1 = evolve_distribution(gen, p0, 0.0105, dt=1e-3)
        assert np.array_equal(p0.probabilities, before)
        assert p1.probabilities is not p0.probabilities
        assert p0.time == 0.0


# The oracles as they were before the channel table: one state and one
# channel at a time.  The table must reproduce them exactly.

def reference_channel_rate(value, stoich, state):
    v = value
    for x, m in zip(state, stoich):
        for k in range(m):
            v = v * (x - k)
            if v == 0:
                return v
    return v


def reference_jump_moments(scheme, rates, state):
    n = len(scheme.species)
    first = [0] * n
    second = [[0] * n for _ in range(n)]
    for stoich, change, value in reaction_channels(scheme, rates):
        v = reference_channel_rate(value, stoich, state)
        if v == 0:
            continue
        for i in range(n):
            if not change[i]:
                continue
            first[i] = first[i] + change[i] * v
            for j in range(n):
                if change[j]:
                    second[i][j] = second[i][j] + change[i] * change[j] * v
    return first, second


def reference_build_generator(scheme, rates, box):
    if len(box.bounds) != len(scheme.species):
        raise ValueError("box dimension does not match the species count")
    channels = reaction_channels(scheme, rates)
    size = box.size
    entries = {}
    lost = []
    for col, state in enumerate(box.states()):
        out_total = 0
        lost_here = 0
        for stoich, change, value in channels:
            v = reference_channel_rate(value, stoich, state)
            if v == 0:
                continue
            out_total = out_total + v
            target = tuple(x + d for x, d in zip(state, change))
            if box.contains(target):
                row = box.index(target)
                key = (row, col)
                entries[key] = entries.get(key, 0) + v
            else:
                lost_here = lost_here + v
        if out_total != 0:
            key = (col, col)
            entries[key] = entries.get(key, 0) - out_total
        lost.append(lost_here)

    rows = np.fromiter((k[0] for k in entries), dtype=np.int64, count=len(entries))
    cols = np.fromiter((k[1] for k in entries), dtype=np.int64, count=len(entries))
    data = np.fromiter((float(v) for v in entries.values()), dtype=np.float64,
                       count=len(entries))
    matrix = scipy.sparse.coo_matrix((data, (rows, cols)),
                                     shape=(size, size)).tocsr()
    return TruncatedGenerator(scheme=scheme, box=box, matrix=matrix,
                              lost_rate=np.array([float(v) for v in lost]))


def assert_matches_reference(scheme, rates, box):
    gen = build_generator(scheme, rates, box)
    ref = reference_build_generator(scheme, rates, box)
    for name in ("indptr", "indices", "data"):
        assert getattr(gen.matrix, name).dtype == \
            getattr(ref.matrix, name).dtype
        assert getattr(gen.matrix, name).tobytes() == \
            getattr(ref.matrix, name).tobytes(), name
    assert gen.lost_rate.tobytes() == ref.lost_rate.tobytes()
    states = list(box.states())
    assert per_state_moments(jump_moments(scheme, rates, states)) == \
        [reference_jump_moments(scheme, rates, state) for state in states]


class TestOraclesMatchTheReference:
    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_random_schemes(self, seed):
        rng = random.Random(seed)
        s = parse_scheme(random_scheme_text(rng, max_stoich=3))
        rates = {sym: rng.choice([0, rng.randint(1, 9),
                                  Fraction(rng.randint(1, 9),
                                           rng.randint(2, 7))])
                 for sym in s.rate_symbols}
        box = StateBox(tuple(rng.choice([0, rng.randint(1, 5)])
                             for _ in s.species))
        assert_matches_reference(s, rates, box)

    RING8 = "".join(f"3 x{i} <-> 3 x{i % 8 + 1} @ a_{i}, b_{i}\n"
                    for i in range(1, 9))

    # the oracle boxes of the perfbench workloads: default_box from their
    # initial states for verhulst and lotka-volterra, ring8's explicit box
    @pytest.mark.parametrize("text, values, bounds", [
        (VERHULST, {"lambda": 1, "beta": "1/5", "gamma": "1/20"}, (64,)),
        (LOTKA_VOLTERRA, {"k_1": 1, "k_2": "1/20", "k_3": 1}, (80, 80)),
        (RING8, {f"{k}_{i}": v for i in range(1, 9)
                 for k, v in (("a", "1/10000"), ("b", "1/20000"))},
         (3, 3, 0, 0, 0, 0, 0, 3)),
    ], ids=["verhulst", "lotka-volterra", "ring8"])
    def test_benchmark_oracle_boxes(self, text, values, bounds):
        s = parse_scheme(text)
        rates = {sym: Fraction(values[sym.name]) for sym in s.rate_symbols}
        assert_matches_reference(s, rates, StateBox(bounds))

    def test_products_beyond_int64(self):
        # int64 arithmetic would wrap: 2**62 * 3 * 2 at x = 3, and the
        # falling factorial of 3,000,000 of order 3 is about 2.7e19
        s = parse_scheme("2 x -> 0 @ a\n3 x -> x @ b\n")
        rates = {rate("a"): 2 ** 62, rate("b"): Fraction(1, 3)}
        assert_matches_reference(s, rates, StateBox((4,)))
        states = [(3_000_000,), (2 ** 40,)]
        assert per_state_moments(jump_moments(s, rates, states)) == \
            [reference_jump_moments(s, rates, state) for state in states]


def predicted_rate_dtype(table, states, scale=1):
    """The dtype rate_numerators' bound predicts: int64 when scale times
    the sum over the channels of |numerator| * prod max(1, largest x_i,
    m_i - 1) ** m_i, and the denominator, are both below 2**53."""
    largest = [max(column, default=0) for column in zip(*states)]
    bound = 0
    for value, stoich in zip(table.numerators, table.stoich.tolist()):
        product = abs(value)
        for top, m in zip(largest, stoich):
            product *= max(1, top, m - 1) ** m
        bound += product
    return (np.int64 if scale * bound < 2 ** 53 and table.denominator
            < 2 ** 53 else object)


def assert_same_as_object_arrays(scheme, rates, states, box):
    """rate_numerators, jump_moments and build_generator give the values
    of their object-array copies in helpers, in the dtype the bound
    predicts: the same numerators and ratios, and the same bytes."""
    table = ChannelTable(scheme, rates)
    at = table.rate_numerators(states)
    assert at.dtype == predicted_rate_dtype(table, states)
    assert at.tolist() == object_rate_numerators(table, states).tolist()

    moments = jump_moments(scheme, rates, states)
    reference = object_jump_moments(scheme, rates, states)
    assert moments.first.dtype == predicted_rate_dtype(
        table, states, int(np.abs(table.change).max()) ** 2)
    assert moments.denominator == reference.denominator
    assert moments.first.tolist() == reference.first.tolist()
    assert list(moments.second) == list(reference.second)
    for entry, numerators in moments.second.items():
        assert numerators.dtype == moments.first.dtype
        assert numerators.tolist() == reference.second[entry].tolist()
    assert per_state_moments(moments) == per_state_moments(reference)

    gen = build_generator(scheme, rates, box)
    ref = object_build_generator(scheme, rates, box)
    for name in ("indptr", "indices", "data"):
        assert getattr(gen.matrix, name).dtype == \
            getattr(ref.matrix, name).dtype
        assert getattr(gen.matrix, name).tobytes() == \
            getattr(ref.matrix, name).tobytes(), name
    assert gen.lost_rate.tobytes() == ref.lost_rate.tobytes()


class TestIntegerWidth:
    """Exact integer arrays are int64 exactly when the bound shows that no
    value reaches 2**53; otherwise they hold Python ints.  Either way they
    hold the values of the object-array code."""

    @pytest.mark.parametrize("text, rate_value, count, scale, dtype", [
        ("x -> 0 @ a\n", 1, 2 ** 53 - 1, 1, np.int64),
        ("x -> 0 @ a\n", 1, 2 ** 53, 1, object),
        ("x -> 0 @ a\n", 3, (2 ** 53 - 1) // 3, 1, np.int64),
        ("x -> 0 @ a\n", 3, (2 ** 53 - 1) // 3 + 1, 1, object),
        # the bound reads x ** 2 for x (x - 1): 94906265 ** 2 < 2 ** 53
        ("2 x -> 0 @ a\n", 1, 94_906_265, 1, np.int64),
        ("2 x -> 0 @ a\n", 1, 94_906_266, 1, object),
        # the caller's sums count: twice 2 ** 52 reaches 2 ** 53
        ("x -> 0 @ a\n", 1, 2 ** 52 - 1, 2, np.int64),
        ("x -> 0 @ a\n", 1, 2 ** 52, 2, object),
        # so does the denominator, which int64 / int must hold exactly
        ("x -> 0 @ a\n", Fraction(1, 2 ** 53 - 1), 1, 1, np.int64),
        ("x -> 0 @ a\n", Fraction(1, 2 ** 53), 1, 1, object),
    ])
    def test_rate_numerators_at_the_edge(self, text, rate_value, count,
                                         scale, dtype):
        s = parse_scheme(text)
        table = ChannelTable(s, {rate("a"): rate_value})
        states = [(0,), (count,), (count - 1,)]
        at = table.rate_numerators(states, scale)
        assert at.dtype == dtype == predicted_rate_dtype(table, states, scale)
        assert at.tolist() == object_rate_numerators(table, states).tolist()

    def test_the_second_moment_weights_count(self):
        # the rate fits below 2 ** 53, but 64 ** 2 times it is beyond
        # 2 ** 63, where int64 would wrap
        s = parse_scheme("0 -> 64 x @ a\n")
        a = 2 ** 53 - 1
        assert ChannelTable(s, {rate("a"): a}).rate_numerators(
            [(0,)]).dtype == np.int64
        moments = jump_moments(s, {rate("a"): a}, [(0,), (7,)])
        assert moments.first.dtype == object
        assert moments.first.tolist() == [[64 * a], [64 * a]]
        assert moments.second[0, 0].tolist() == [4096 * a, 4096 * a]

    def test_counts_below_the_order(self):
        # a falling factorial of order 5 is 0 below x = 5; the bound reads
        # max(x, 4) per factor, and a numerator of 2 ** 44 puts 4 ** 5
        # times it at 2 ** 54
        s = parse_scheme("5 x -> 0 @ a\n")
        states = [(x,) for x in range(7)]
        table = ChannelTable(s, {rate("a"): 1})
        at = table.rate_numerators(states)
        assert at.dtype == np.int64
        assert at[:, 0].tolist() == [0, 0, 0, 0, 0, 120, 720]
        table = ChannelTable(s, {rate("a"): 2 ** 44})
        at = table.rate_numerators(states[:3])
        assert at.dtype == object
        assert at[:, 0].tolist() == [0, 0, 0]
        assert_same_as_object_arrays(s, {rate("a"): 2 ** 44}, states[:4],
                                     StateBox((3,)))

    def test_float_rate_with_denominator_2_55_takes_the_object_path(self):
        # 2 ** -55 is the rational 1 / 2 ** 55, so the table's denominator
        # is beyond 2 ** 53 and the generator comes from Python ints
        s = parse_scheme(LOTKA_VOLTERRA)
        rates = {rate("k_1"): 1, rate("k_2"): 2.0 ** -55, rate("k_3"): 1}
        table = ChannelTable(s, rates)
        assert table.denominator == 2 ** 55
        box = StateBox((6, 5))
        assert table.rate_numerators(box.state_array()).dtype == object
        assert_same_as_object_arrays(s, rates, list(box.states()), box)

    def test_benchmark_boxes_take_the_int64_path(self):
        s = parse_scheme(LOTKA_VOLTERRA)
        rates = {rate("k_1"): 1, rate("k_2"): Fraction(1, 20),
                 rate("k_3"): 1}
        box = StateBox((80, 80))
        assert ChannelTable(s, rates).rate_numerators(
            box.state_array()).dtype == np.int64
        assert_same_as_object_arrays(s, rates, [(80, 80), (0, 3)], box)

    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_random_schemes_match_the_object_arrays(self, seed):
        rng = random.Random(seed)
        s = parse_scheme(random_scheme_text(rng, max_stoich=3))
        rates = {sym: rng.choice([0, rng.randint(1, 9), 2 ** 40, 2 ** 52,
                                  Fraction(rng.randint(1, 9),
                                           rng.randint(2, 7)),
                                  Fraction(1, 2 ** 52), 0.1])
                 for sym in s.rate_symbols}
        n = len(s.species)
        states = [tuple(rng.choice([0, 1, 2, rng.randint(0, 2 ** 17),
                                    rng.randint(0, 2 ** 26)])
                        for _ in range(n)) for _ in range(rng.randint(1, 6))]
        box = StateBox(tuple(rng.choice([0, rng.randint(1, 5)])
                             for _ in range(n)))
        assert_same_as_object_arrays(s, rates, states, box)
