"""Sampling engines: noise factorization, stepping, moments, comparison."""

import bisect
import gc
import itertools
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from onestep import (ComparisonReport, DiffusionSign, Distribution, Engine,
                     MomentReport, NegativePolicy, NoiseStrategy, NotPsdError,
                     NotSymmetricError, Polynomial, RateMode, SdeModel,
                     SimConfig, SimConfigError, SimulationError, StateBox,
                     TooFewTrajectoriesError, TrajectoryEnsemble,
                     UnboundRateError, build_generator, build_sde_model,
                     compare_engines, compare_reports, default_box,
                     distribution_moments, distribution_to_csv,
                     ensemble_moments, euler_maruyama,
                     evolve_distribution, gillespie_ssa, matrix_sqrt_psd,
                     mean_band_svg, moments_to_csv, parse_expression,
                     parse_scheme, point_mass,
                     rate, species, trajectories_to_csv, trajectory_rng)
from onestep import (InteractionScheme, NegativeRateError, as_function,
                     bind_values, reaction_channels, transition_rates)
from onestep.sim import (_CHUNK_STEPS, _PSD_TOL, _RATE_TOL, _REJECT_LIMIT,
                         _SSA_BLOCK, _SSA_EVENT_BUDGET, _SSA_LEAF_RATES,
                         _EmStepper, _choice_tree, _rekey, _ssa_leaves,
                         _ssa_path_source, _ssa_rate_lines,
                         _grid_step_indices, _require_finite,
                         symmetric_matrices)
from helpers import LOTKA_VOLTERRA, PURE_DEATH, VERHULST, random_scheme_text

VERHULST_RATES = {rate("lambda"): 1.0, rate("beta"): 0.2, rate("gamma"): 0.05}
LV_RATES = {rate("k_1"): 10.0, rate("k_2"): 0.01, rate("k_3"): 10.0}


def decay_model():
    # dx = -x dt with no noise; closed form x(t) = x(0) exp(-t)
    x = species("x")
    return SdeModel(species=(x,), rate_symbols=(),
                    drift=(-Polynomial.symbol(x),),
                    diffusion=((Polynomial.zero(),),),
                    rate_mode=RateMode.FOKKER_PLANCK,
                    diffusion_sign=DiffusionSign.SUM,
                    noise_strategy=NoiseStrategy.MATRIX_SQRT)


class TestSimConfig:
    @pytest.mark.parametrize("setting", [
        {"initial_state": (math.nan,)}, {"initial_state": (1.0, math.inf)},
        {"t_final": math.nan}, {"t_final": math.inf}, {"dt": math.nan},
        {"t_final": math.inf, "dt": math.inf}])
    def test_non_finite_settings_are_refused(self, setting):
        values = {"rates": {}, "initial_state": (1.0,), "t_final": 1.0,
                  **setting}
        with pytest.raises(SimConfigError):
            SimConfig(**values)

    @pytest.mark.parametrize("t_final, dt, needle", [
        (1e300, 1e-3, "1e+303 steps"), (1e300, 1e-300, "inf steps"),
        (2.0 ** 63, 1.0, "9.22337e+18 steps")])
    def test_step_count_beyond_int64_is_refused(self, t_final, dt, needle):
        with pytest.raises(SimConfigError, match=re.escape(needle)):
            SimConfig(rates={}, initial_state=(1.0,), t_final=t_final, dt=dt)

    def test_largest_step_count_is_accepted(self):
        # 2**63 - 1024 is the largest float below 2**63
        config = SimConfig(rates={}, initial_state=(1.0,),
                           t_final=2.0 ** 63 - 1024, dt=1.0)
        assert config.t_final / config.dt <= 2 ** 63 - 1

    @pytest.mark.parametrize("value", [-1, -0.5, Fraction(-1, 3)])
    @pytest.mark.parametrize("engine", list(Engine))
    def test_negative_rate_values_are_refused_by_name(self, engine, value):
        with pytest.raises(SimConfigError, match=re.escape(
                f"rate value for rate:beta must be nonnegative, "
                f"got {value!r}")):
            _run_verhulst(engine, {**VERHULST_RATES, rate("beta"): value})

    @pytest.mark.parametrize("value", [0, -0.0, Fraction(0)])
    @pytest.mark.parametrize("engine", list(Engine))
    def test_zero_rate_values_are_accepted(self, engine, value):
        _run_verhulst(engine, {**VERHULST_RATES, rate("beta"): value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("engine", list(Engine))
    def test_non_finite_rate_values_are_refused_by_name(self, engine, value):
        # a ValueError, not Fraction's OverflowError for an infinity
        with pytest.raises(ValueError, match=re.escape(
                f"value for rate:beta must be finite, got {value!r}")):
            _run_verhulst(engine, {**VERHULST_RATES, rate("beta"): value})

    def test_negative_zero_initial_value_is_read_as_zero(self):
        config = SimConfig(rates={}, initial_state=(-0.0, 2.0, 0),
                           t_final=1.0)
        assert config.initial_state == (0.0, 2.0, 0.0)
        assert [math.copysign(1.0, x) for x in config.initial_state] == \
            [1.0, 1.0, 1.0]


def _run_verhulst(engine: Engine, rates) -> TrajectoryEnsemble:
    """A short verhulst run from 10 with the given rate values."""
    scheme = parse_scheme(VERHULST)
    config = SimConfig(rates=rates, initial_state=(10.0,), t_final=0.1,
                       dt=0.01, trajectories=2, grid_points=3)
    if engine is Engine.SSA:
        return gillespie_ssa(scheme, config)
    return euler_maruyama(build_sde_model(scheme), config)


class TestTrajectoryRng:
    def test_streams_are_reproducible(self):
        a = trajectory_rng(5, 3).standard_normal(4)
        b = trajectory_rng(5, 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_indices_get_distinct_streams(self):
        a = trajectory_rng(5, 3).standard_normal(4)
        b = trajectory_rng(5, 4).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_offset_seed_space_is_usable(self):
        g = trajectory_rng(7 ^ (1 << 63), 0)
        assert g.standard_normal(2).shape == (2,)


def _reconstruction_error(factor, b):
    """max |L L^T - B| of each matrix over its scale 1 + max|B|."""
    error = np.abs(factor @ np.swapaxes(factor, -1, -2) - b)
    return error.max(axis=(-2, -1)) / (1.0 + np.abs(b).max(axis=(-2, -1)))


def _is_lower(factor):
    return np.array_equal(factor, np.tril(factor))


# stacks of B = R R^T with R of rank at most n, integer entries times a
# common magnitude, and some species' rows of R zero (extinct species)
@st.composite
def _psd_stacks(draw):
    n = draw(st.integers(1, 8))
    rank = draw(st.integers(0, n))
    count = draw(st.integers(1, 4))
    entries = st.integers(-20, 20)
    r = np.array(draw(st.lists(entries, min_size=count * n * rank,
                               max_size=count * n * rank)), dtype=np.float64)
    r = r.reshape(count, n, rank)
    extinct = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    r[:, extinct, :] = 0.0
    r *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return r @ np.swapaxes(r, 1, 2), np.array(extinct)


class TestMatrixSqrt:
    """The noise factor is lower triangular with L L^T = B: within
    1e-10 of B's scale for well-conditioned matrices, and within the
    documented sqrt(tol) of it when pivots are counted as zero."""

    def test_identity(self):
        assert np.array_equal(matrix_sqrt_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        s = matrix_sqrt_psd(np.diag([4.0, 9.0]))
        assert np.allclose(s, np.diag([2.0, 3.0]), atol=1e-12)

    def test_dense_reconstruction(self):
        b = np.array([[2.0, -1.0], [-1.0, 2.0]])
        factor = matrix_sqrt_psd(b)
        assert _is_lower(factor)
        assert np.allclose(factor, [[math.sqrt(2), 0.0],
                                    [-math.sqrt(0.5), math.sqrt(1.5)]],
                           rtol=0, atol=1e-15)
        assert _reconstruction_error(factor, b) < 1e-15

    def test_batched_input(self):
        stack = np.stack([np.eye(2), np.diag([4.0, 9.0])])
        roots = matrix_sqrt_psd(stack)
        assert np.allclose(roots[0], np.eye(2), atol=1e-12)
        assert np.allclose(roots[1], np.diag([2.0, 3.0]), atol=1e-12)

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            r = rng.standard_normal((5, n, n))
            b = r @ np.swapaxes(r, 1, 2)
            factor = matrix_sqrt_psd(b)
            assert _is_lower(factor)
            assert (_reconstruction_error(factor, b) <= 1e-10).all()

    @given(_psd_stacks())
    def test_rank_deficient_stacks(self, case):
        b, extinct = case
        factor = matrix_sqrt_psd(b)
        assert _is_lower(factor)
        assert (_reconstruction_error(factor, b) <= math.sqrt(_PSD_TOL)).all()
        # an extinct species gets no noise and passes none on
        assert not factor[:, extinct, :].any()
        assert not factor[:, :, extinct].any()

    @given(st.lists(st.one_of(st.floats(0.0, 1e6),
                              st.sampled_from([0.0, -0.0, -1e-13, 1e-300,
                                               -math.inf])),
                    min_size=1, max_size=20))
    def test_one_species_is_the_clipped_root(self, values):
        b = np.array(values)
        factor = matrix_sqrt_psd(b[:, None, None])
        assert np.sqrt(np.clip(b, 0.0, None)).tobytes() == \
            factor[:, 0, 0].tobytes()

    def test_each_matrix_has_its_own_scale(self):
        # pivot 0 of small is 1e-8, well above its tolerance but below
        # the one the large matrix would set: each path's noise must not
        # depend on the other paths' states
        small = np.array([[1e-8, 1e-8], [1e-8, 2e-8]])
        large = np.diag([1e6, 1e6])
        alone = matrix_sqrt_psd(small)
        assert alone[1, 0] == pytest.approx(1e-4)
        assert np.array_equal(matrix_sqrt_psd(np.stack([small, large]))[0],
                              alone)

    def test_tiny_negative_pivot_is_clamped(self):
        s = matrix_sqrt_psd(np.array([[-1e-13]]))
        assert s[0, 0] == 0.0
        # pivot 1 is 1 - 1e-12 - 1, rounding noise below zero
        b = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-12]])
        assert np.array_equal(matrix_sqrt_psd(b), [[1.0, 0.0], [1.0, 0.0]])

    def test_tiny_pivot_counts_as_zero(self):
        # eigenvalues 1 and about -1e-12, PSD within tolerance; dividing
        # the column by the pivot's root would leave pivot 1 at 1 - 1e8
        b = np.array([[1e-20, 1e-6], [1e-6, 1.0]])
        factor = matrix_sqrt_psd(b)
        assert (factor[1, 0], factor[1, 1]) == (0.0, 1.0)
        assert _reconstruction_error(factor, b) <= math.sqrt(_PSD_TOL)

    def test_asymmetric_is_rejected(self):
        with pytest.raises(NotSymmetricError):
            matrix_sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("b, pivot, why", [
        ([[1.0, 2.0], [2.0, 1.0]], "pivot 1 is -3.000000e+00",
         "negative beyond tolerance"),
        # a zero pivot above a nonzero entry: the factor would drop it
        ([[0.0, 1.0], [1.0, 0.0]], "pivot 0 is 0.000000e+00",
         "too small for the column below it")])
    def test_indefinite_is_rejected(self, b, pivot, why):
        with pytest.raises(NotPsdError,
                           match=re.escape(f"{pivot}, {why}")) as info:
            matrix_sqrt_psd(np.array(b))
        assert info.value.index == ()

    def test_first_indefinite_matrix_in_batch_order_is_named(self):
        # matrix 2 fails at pivot 0, before matrix 1 fails at pivot 1
        stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]],
                          [[-1.0, 0.0], [0.0, 1.0]]])
        with pytest.raises(NotPsdError, match="pivot 1 is -3") as info:
            matrix_sqrt_psd(stack)
        assert info.value.index == (1,)
        with pytest.raises(NotPsdError) as info:
            matrix_sqrt_psd(stack.reshape(3, 1, 2, 2)[::-1])
        assert info.value.index == (0, 0)


class TestEulerMaruyama:
    @pytest.mark.parametrize("diffusion, states, named", [
        # B = 1 - x: the first state past x = 1 is named
        ((("1 - x",),), [[0.5], [3.0], [2.0]], "(3.0,)"),
        # B = [[1 - y, x], [x, 1]] fails at pivot 1 at state (3, 0) and
        # at pivot 0 at state (0, 2); trajectory order wins
        ((("1 - y", "x"), ("x", "1")), [[0.5, 0.0], [3.0, 0.0], [0.0, 2.0]],
         "(3.0, 0.0)")])
    def test_not_psd_names_the_first_offending_state(self, diffusion, states,
                                                     named):
        names = ("x", "y")[:len(diffusion)]
        syms = tuple(species(name) for name in names)
        model = SdeModel(
            species=syms, rate_symbols=(),
            drift=tuple(Polynomial.zero() for _ in syms),
            diffusion=tuple(tuple(parse_expression(e, syms) for e in row)
                            for row in diffusion),
            rate_mode=RateMode.FOKKER_PLANCK,
            diffusion_sign=DiffusionSign.SUM,
            noise_strategy=NoiseStrategy.MATRIX_SQRT)
        config = SimConfig(rates={}, initial_state=(0.0,) * len(syms),
                           t_final=1.0)
        stepper = _EmStepper(model, config)
        with pytest.raises(NotPsdError, match=re.escape(
                f"diffusion value B at state {named} is not positive "
                "semidefinite: pivot")) as info:
            stepper.step(np.array(states), np.zeros((3, len(syms))))
        assert info.value.index == (1,)

    def test_noiseless_decay_tracks_the_flow(self):
        config = SimConfig(rates={}, initial_state=(1.0,), t_final=1.0,
                           dt=1e-4, trajectories=3, grid_points=2)
        ens = euler_maruyama(decay_model(), config)
        finals = ens.paths[:, -1, 0]
        assert np.all(finals == finals[0])
        assert abs(finals[0] - math.exp(-1)) < 5 * config.dt

    def test_zero_model_is_constant(self):
        x = species("x")
        frozen = SdeModel(species=(x,), rate_symbols=(),
                          drift=(Polynomial.zero(),),
                          diffusion=((Polynomial.zero(),),),
                          rate_mode=RateMode.FOKKER_PLANCK,
                          diffusion_sign=DiffusionSign.SUM,
                          noise_strategy=NoiseStrategy.MATRIX_SQRT)
        config = SimConfig(rates={}, initial_state=(2.5,), t_final=1.0,
                           dt=1e-2, trajectories=4, grid_points=7)
        ens = euler_maruyama(frozen, config)
        assert np.all(ens.paths == 2.5)
        assert ens.paths.shape == (4, 7, 1)
        assert np.array_equal(ens.times, np.linspace(0.0, 1.0, 7))

    def test_same_seed_reproduces_bitwise(self):
        model = build_sde_model(parse_scheme(VERHULST))
        config = SimConfig(rates=VERHULST_RATES, initial_state=(10.0,),
                           t_final=0.5, dt=1e-2, trajectories=8, base_seed=42)
        a = euler_maruyama(model, config)
        b = euler_maruyama(model, config)
        assert np.array_equal(a.paths, b.paths)

    def test_seed_changes_the_draws(self):
        model = build_sde_model(parse_scheme(VERHULST))
        config = SimConfig(rates=VERHULST_RATES, initial_state=(10.0,),
                           t_final=0.5, dt=1e-2, trajectories=8, base_seed=42)
        other = SimConfig(rates=VERHULST_RATES, initial_state=(10.0,),
                          t_final=0.5, dt=1e-2, trajectories=8, base_seed=43)
        assert not np.array_equal(euler_maruyama(model, config).paths,
                                  euler_maruyama(model, other).paths)

    def test_missing_rate_is_named(self):
        model = build_sde_model(parse_scheme(VERHULST))
        config = SimConfig(rates={rate("lambda"): 1.0, rate("beta"): 0.2},
                           initial_state=(10.0,), t_final=0.1)
        with pytest.raises(UnboundRateError) as err:
            euler_maruyama(model, config)
        assert "gamma" in str(err.value)

    @pytest.mark.parametrize("scheme, rates, initial, policy, named", [
        ("x -> 2 x @ k_1\n2 x -> 3 x @ k_2\n", (1, 1), (5.0,),
         NegativePolicy.CLAMP_ZERO, "trajectory 0 .* t = 0\\.5:"),
        ("x -> 2 x @ k_1\n2 x -> 3 x @ k_2\n", (1, 1), (5.0,),
         NegativePolicy.REJECT_STEP, "trajectory 0 .* t = 0\\.5:"),
        ("x + y -> 2 x + y @ k_1\nx + y -> x + 2 y @ k_2\n", (1, 1),
         (5.0, 5.0), NegativePolicy.CLAMP_ZERO,
         "trajectory 0 .* t = 0\\.5:"),
        # death competes with the growth from x = 1: trajectory 0 is still
        # finite when trajectory 1 has overflowed
        ("x -> 2 x @ k_1\n2 x -> 3 x @ k_2\nx -> 0 @ k_3\n", (1, 1, 3),
         (1.0,), NegativePolicy.CLAMP_ZERO, "trajectory 1 .* t = 1\\.0:"),
    ])
    def test_state_that_blows_up_is_named(self, scheme, rates, initial,
                                          policy, named):
        # the drift grows quadratically, so a state overflows to inf and
        # then NaN before the run ends
        model = build_sde_model(parse_scheme(scheme))
        config = SimConfig(rates=dict(zip(model.rate_symbols, rates)),
                           initial_state=initial, t_final=2.0,
                           trajectories=8, grid_points=5,
                           negative_policy=policy)
        with pytest.raises(SimulationError, match=named):
            euler_maruyama(model, config)

    def test_logistic_mean_agrees_with_the_master_equation(self):
        scheme = parse_scheme(VERHULST)
        model = build_sde_model(scheme, rate_mode=RateMode.EXACT,
                                diffusion_sign=DiffusionSign.SUM)
        config = SimConfig(rates=VERHULST_RATES, initial_state=(10.0,),
                           t_final=2.0, dt=1e-3, trajectories=2000,
                           base_seed=7, grid_points=5)
        report = ensemble_moments(euler_maruyama(model, config))
        box = StateBox((64,))
        gen = build_generator(scheme, VERHULST_RATES, box)
        dist = evolve_distribution(gen, point_mass(box, (10,)), 2.0, dt=1e-3)
        cme_mean, _ = distribution_moments(dist)
        gap = abs(report.mean[-1, 0] - cme_mean[0])
        assert gap <= 4 * report.standard_error[-1, 0]

    def test_clamp_policy_counts_and_floors(self):
        model = build_sde_model(parse_scheme(PURE_DEATH))
        config = SimConfig(rates={rate("beta"): 1.0}, initial_state=(1.0,),
                           t_final=5.0, dt=1e-2, trajectories=50, base_seed=3,
                           negative_policy=NegativePolicy.CLAMP_ZERO)
        ens = euler_maruyama(model, config)
        assert ens.paths.min() >= 0.0
        assert ens.clamp_events.sum() > 0

    def test_reject_policy_redraws_instead(self):
        model = build_sde_model(parse_scheme(PURE_DEATH))
        config = SimConfig(rates={rate("beta"): 1.0}, initial_state=(1.0,),
                           t_final=5.0, dt=1e-2, trajectories=50, base_seed=3,
                           negative_policy=NegativePolicy.REJECT_STEP)
        ens = euler_maruyama(model, config)
        assert ens.paths.min() >= 0.0
        assert ens.clamp_events.sum() == 0

    def test_reject_gives_up_on_a_deterministic_escape(self):
        x = species("x")
        doomed = SdeModel(species=(x,), rate_symbols=(),
                          drift=(Polynomial.constant(-10),),
                          diffusion=((Polynomial.zero(),),),
                          rate_mode=RateMode.FOKKER_PLANCK,
                          diffusion_sign=DiffusionSign.SUM,
                          noise_strategy=NoiseStrategy.MATRIX_SQRT)
        config = SimConfig(rates={}, initial_state=(0.0,), t_final=0.1,
                           dt=1e-2, trajectories=1,
                           negative_policy=NegativePolicy.REJECT_STEP)
        with pytest.raises(SimulationError):
            euler_maruyama(doomed, config)

    def test_noise_factorizations_agree_in_distribution(self):
        scheme = parse_scheme(VERHULST)
        config = SimConfig(rates=VERHULST_RATES, initial_state=(10.0,),
                           t_final=2.0, dt=2e-3, trajectories=1000,
                           base_seed=19, grid_points=9)
        by_sqrt = build_sde_model(scheme, diffusion_sign=DiffusionSign.SUM,
                                  noise_strategy=NoiseStrategy.MATRIX_SQRT)
        by_reaction = build_sde_model(scheme,
                                      diffusion_sign=DiffusionSign.SUM,
                                      noise_strategy=NoiseStrategy.PER_REACTION)
        a = ensemble_moments(euler_maruyama(by_sqrt, config))
        b = ensemble_moments(euler_maruyama(by_reaction, config))
        assert compare_reports(a, b, threshold=4.0).passed


class TestGillespie:
    def test_zero_rates_freeze_the_state(self):
        scheme = parse_scheme(VERHULST)
        config = SimConfig(rates={sym: 0.0 for sym in scheme.rate_symbols},
                           initial_state=(7,), t_final=1.0, trajectories=5,
                           grid_points=11)
        ens = gillespie_ssa(scheme, config)
        assert np.all(ens.paths == 7.0)
        assert ens.engine is Engine.SSA

    def test_states_stay_integral_and_nonnegative(self):
        scheme = parse_scheme(VERHULST)
        config = SimConfig(rates=VERHULST_RATES, initial_state=(10,),
                           t_final=2.0, trajectories=40, base_seed=1)
        ens = gillespie_ssa(scheme, config)
        assert np.array_equal(ens.paths, np.round(ens.paths))
        assert ens.paths.min() >= 0.0

    def test_pure_death_never_rises_and_absorbs_at_zero(self):
        scheme = parse_scheme(PURE_DEATH)
        config = SimConfig(rates={rate("beta"): 1.0}, initial_state=(6,),
                           t_final=20.0, trajectories=30, base_seed=2,
                           grid_points=50)
        ens = gillespie_ssa(scheme, config)
        assert np.all(np.diff(ens.paths[:, :, 0], axis=1) <= 0)
        assert np.all(ens.paths[:, -1, 0] == 0.0)

    def test_pure_death_survival_matches_the_exponential(self):
        scheme = parse_scheme(PURE_DEATH)
        config = SimConfig(rates={rate("beta"): 1.0}, initial_state=(1,),
                           t_final=1.0, trajectories=20000, base_seed=12,
                           grid_points=3)
        report = ensemble_moments(gillespie_ssa(scheme, config))
        p_alive = report.mean[-1, 0]
        stderr = report.standard_error[-1, 0]
        assert abs(p_alive - math.exp(-1)) <= 3 * stderr

    def test_same_seed_reproduces_bitwise(self):
        scheme = parse_scheme(VERHULST)
        config = SimConfig(rates=VERHULST_RATES, initial_state=(10,),
                           t_final=1.0, trajectories=6, base_seed=9)
        a = gillespie_ssa(scheme, config)
        b = gillespie_ssa(scheme, config)
        assert np.array_equal(a.paths, b.paths)

    def test_fractional_initial_state_is_rejected(self):
        scheme = parse_scheme(PURE_DEATH)
        config = SimConfig(rates={rate("beta"): 1.0}, initial_state=(1.5,),
                           t_final=1.0)
        with pytest.raises(ValueError):
            gillespie_ssa(scheme, config)

    def test_total_rate_is_summed_left_to_right(self):
        # 1.0 + 1e-16 + 1e-16 is 1.0 left to right, but 1 + 2**-52
        # compensated (math.fsum, and sum() from Python 3.12 on).  The
        # first waiting time e / 1.0 ends just after t_final, so the path
        # must not jump; e / (1 + 2**-52) would end on or before it.
        scheme = parse_scheme("0 -> x @ a\n0 -> 2 x @ b\n0 -> 3 x @ c\n")
        e = trajectory_rng(0, 0).standard_exponential()
        t_final = float(np.nextafter(e, 0.0))
        config = SimConfig(rates={rate("a"): 1.0, rate("b"): 1e-16,
                                  rate("c"): 1e-16},
                           initial_state=(0,), t_final=t_final, dt=t_final,
                           trajectories=1, grid_points=2)
        assert gillespie_ssa(scheme, config).paths[0, -1, 0] == 0.0

    def test_event_budget_stops_a_blow_up(self):
        # the jump rates grow like x^2 from x = 5: a path takes ever more
        # events and never reaches t = 2
        scheme = parse_scheme("x -> 2 x @ k_1\n2 x -> 3 x @ k_2\n")
        config = SimConfig(rates={rate("k_1"): 1, rate("k_2"): 1},
                           initial_state=(5,), t_final=2.0, trajectories=2)
        with pytest.raises(SimulationError,
                           match="trajectory 0 used up its budget of "
                                 "2097152 jump events at t = 0\\.[0-9]"):
            gillespie_ssa(scheme, config)


class TestEngineComparison:
    def test_logistic_engines_agree(self):
        model = build_sde_model(parse_scheme(VERHULST),
                                rate_mode=RateMode.EXACT,
                                diffusion_sign=DiffusionSign.SUM)
        config = SimConfig(rates=VERHULST_RATES, initial_state=(10,),
                           t_final=2.0, dt=1e-3, trajectories=1000,
                           base_seed=5, grid_points=9)
        report = compare_engines(model, config)
        assert report.passed
        assert report.max_abs_z <= 4.0

    def test_predator_prey_engines_agree(self):
        model = build_sde_model(parse_scheme(LOTKA_VOLTERRA),
                                rate_mode=RateMode.EXACT,
                                diffusion_sign=DiffusionSign.SUM)
        config = SimConfig(rates=LV_RATES, initial_state=(1000, 1000),
                           t_final=0.4, dt=1e-3, trajectories=800,
                           base_seed=5, grid_points=9)
        report = compare_engines(model, config)
        assert report.passed

    def test_identical_reports_give_zero_z(self):
        model = build_sde_model(parse_scheme(VERHULST))
        config = SimConfig(rates=VERHULST_RATES, initial_state=(10.0,),
                           t_final=0.2, dt=1e-2, trajectories=20)
        report = ensemble_moments(euler_maruyama(model, config))
        outcome = compare_reports(report, report)
        assert outcome.max_abs_z == 0.0
        assert outcome.passed

    def test_deterministic_disagreement_is_infinite(self):
        times = np.linspace(0.0, 1.0, 3)
        base = dict(times=times, covariance=np.zeros((3, 1, 1)),
                    standard_error=np.zeros((3, 1)), trajectories=10)
        a = MomentReport(mean=np.zeros((3, 1)), **base)
        b = MomentReport(mean=np.ones((3, 1)), **base)
        outcome = compare_reports(a, b)
        assert math.isinf(outcome.max_abs_z)
        assert not outcome.passed

    def test_mismatched_grids_are_rejected(self):
        def flat(times):
            g = len(times)
            return MomentReport(times=times, mean=np.zeros((g, 1)),
                                covariance=np.zeros((g, 1, 1)),
                                standard_error=np.zeros((g, 1)),
                                trajectories=4)
        with pytest.raises(ValueError):
            compare_reports(flat(np.linspace(0, 1, 3)),
                            flat(np.linspace(0, 2, 3)))


class TestMomentEstimates:
    def _constant_ensemble(self, values):
        values = np.asarray(values, dtype=np.float64)
        paths = np.tile(values[:, None, None], (1, 4, 1))
        return TrajectoryEnsemble(engine=Engine.EULER_MARUYAMA,
                                  species=(species("x"),),
                                  times=np.linspace(0.0, 1.0, 4),
                                  paths=paths,
                                  clamp_events=np.zeros(len(values),
                                                        dtype=np.int64))

    def test_two_point_sample(self):
        report = ensemble_moments(self._constant_ensemble([0.0, 2.0]))
        assert np.all(report.mean == 1.0)
        assert np.all(report.covariance == 2.0)
        assert np.all(report.standard_error == 1.0)
        assert report.trajectories == 2

    def test_identical_paths_have_zero_spread(self):
        report = ensemble_moments(self._constant_ensemble([3.0, 3.0, 3.0]))
        assert np.all(report.covariance == 0.0)
        assert np.all(report.standard_error == 0.0)

    def test_order_invariance(self):
        fwd = ensemble_moments(self._constant_ensemble([1.0, 2.0, 6.0]))
        rev = ensemble_moments(self._constant_ensemble([6.0, 2.0, 1.0]))
        assert np.array_equal(fwd.mean, rev.mean)
        assert np.array_equal(fwd.covariance, rev.covariance)

    def test_single_trajectory_is_rejected(self):
        with pytest.raises(TooFewTrajectoriesError):
            ensemble_moments(self._constant_ensemble([1.0]))

    def test_covariance_stays_psd(self):
        model = build_sde_model(parse_scheme(LOTKA_VOLTERRA))
        config = SimConfig(rates=LV_RATES, initial_state=(1000.0, 1000.0),
                           t_final=0.2, dt=1e-3, trajectories=200,
                           base_seed=21, grid_points=9)
        report = ensemble_moments(euler_maruyama(model, config))
        for g in range(report.covariance.shape[0]):
            lows = np.linalg.eigvalsh(report.covariance[g])
            assert lows.min() >= -1e-9 * (1 + np.abs(report.covariance[g]).max())


class TestStepSizeConvergence:
    def test_halving_dt_halves_the_flow_error(self):
        model = decay_model()
        errors = []
        for dt in (0.1, 0.05, 0.025, 0.0125):
            config = SimConfig(rates={}, initial_state=(1.0,), t_final=1.0,
                               dt=dt, trajectories=1, grid_points=2)
            final = euler_maruyama(model, config).paths[0, -1, 0]
            errors.append(abs(final - math.exp(-1)))
        for bigger, smaller in zip(errors, errors[1:]):
            assert 1.5 <= bigger / smaller <= 2.5


class TestOutputFormats:
    def _small_run(self):
        model = build_sde_model(parse_scheme(VERHULST))
        config = SimConfig(rates=VERHULST_RATES, initial_state=(10.0,),
                           t_final=0.2, dt=1e-2, trajectories=3,
                           base_seed=4, grid_points=5)
        return model, euler_maruyama(model, config)

    def test_trajectory_csv_layout(self):
        _, ens = self._small_run()
        lines = trajectories_to_csv(ens).strip().splitlines()
        assert lines[0] == "trajectory,t,phi"
        assert len(lines) == 1 + 3 * 5
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 0.0
        assert float(first[2]) == 10.0

    def test_trajectory_csv_is_deterministic(self):
        _, ens = self._small_run()
        _, again = self._small_run()
        assert trajectories_to_csv(ens) == trajectories_to_csv(again)

    def test_moment_csv_layout(self):
        model, ens = self._small_run()
        text = moments_to_csv(ensemble_moments(ens), model.species)
        lines = text.strip().splitlines()
        assert lines[0] == "t,mean_phi,cov_phi_phi,stderr_phi"
        assert len(lines) == 1 + 5
        row = lines[-1].split(",")
        assert float(row[0]) == 0.2

    def test_moment_csv_round_trips_through_float(self):
        model, ens = self._small_run()
        report = ensemble_moments(ens)
        row = moments_to_csv(report, model.species).strip() \
            .splitlines()[2].split(",")
        assert float(row[1]) == report.mean[1, 0]

    def test_svg_plot_shape(self):
        model, ens = self._small_run()
        svg = mean_band_svg(ensemble_moments(ens), model.species)
        assert svg.startswith("<svg xmlns=")
        assert svg.rstrip().endswith("</svg>")
        assert 'width="640"' in svg
        assert "polyline" in svg
        assert ">phi</text>" in svg


# The writers as they were before they built their text in per-trajectory
# chunks from ndarray.tolist(); the current writers must give the same
# strings.


def _reference_trajectories_to_csv(ensemble):
    names = ",".join(s.name for s in ensemble.species)
    lines = [f"trajectory,t,{names}"]
    for j in range(ensemble.paths.shape[0]):
        for g, t in enumerate(ensemble.times):
            row = ",".join(repr(float(v)) for v in ensemble.paths[j, g])
            lines.append(f"{j},{float(t)!r},{row}")
    return "\n".join(lines) + "\n"


def _reference_moments_to_csv(report, species):
    names = [s.name for s in species]
    header = ["t"]
    header += [f"mean_{n}" for n in names]
    header += [f"cov_{a}_{b}" for a in names for b in names]
    header += [f"stderr_{n}" for n in names]
    lines = [",".join(header)]
    for g, t in enumerate(report.times):
        row = [repr(float(t))]
        row += [repr(float(v)) for v in report.mean[g]]
        row += [repr(float(v)) for v in report.covariance[g].ravel()]
        row += [repr(float(v)) for v in report.standard_error[g]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _reference_distribution_to_csv(dist, species):
    names = ",".join(s.name for s in species)
    lines = [f"{names},probability"]
    for state, p in zip(dist.box.states(), dist.probabilities):
        coords = ",".join(str(x) for x in state)
        lines.append(f"{coords},{float(p)!r}")
    return "\n".join(lines) + "\n"


# values whose shortest repr takes each of its forms: signed zeros, plain
# and exponent notation on both sides of the switch, the subnormal
# minimum, infinities and NaN
_SPECIAL_VALUES = np.array([-0.0, 0.0, 1e-05, 0.1, 1e16, 1e22, 5e-324,
                            math.inf, -math.inf, math.nan, 1.0, 2.0, 17.0,
                            -3.0, 1e15, 123456789012345678.0, 0.0001])


def _writer_values(seed: int, shape, kind: str) -> np.ndarray:
    """Values for the writers: integer-valued floats (as the jump sampler
    records), floats over many decades, raw bit patterns, or a mix of
    these with the special values."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    if kind == "integer":
        values = rng.integers(0, 10 ** 6, size).astype(np.float64)
    elif kind == "decades":
        values = (rng.standard_normal(size)
                  * 10.0 ** rng.integers(-320, 300, size))
    elif kind == "bits":
        values = rng.integers(0, 2 ** 63, size, dtype=np.uint64) \
            .view(np.float64)
        values = np.where(rng.random(size) < 0.5, -values, values)
    else:
        values = np.where(rng.random(size) < 0.5,
                          rng.choice(_SPECIAL_VALUES, size),
                          rng.standard_normal(size) * 100.0)
    return values.reshape(shape)


_writer_kinds = st.sampled_from(["integer", "decades", "bits", "special"])
_writer_seeds = st.integers(0, 2 ** 32 - 1)


def _writer_species(n: int):
    return tuple(species(f"x{i}") for i in range(n))


def _ensemble(paths: np.ndarray, times: np.ndarray) -> TrajectoryEnsemble:
    return TrajectoryEnsemble(
        engine=Engine.EULER_MARUYAMA,
        species=_writer_species(paths.shape[2]), times=times, paths=paths,
        clamp_events=np.zeros(paths.shape[0], dtype=np.int64))


def _verhulst_ensemble(engine: Engine) -> TrajectoryEnsemble:
    """An ensemble of benchmark size: Verhulst from phi=10, 500 paths on
    200 grid points to t=2."""
    scheme = parse_scheme(VERHULST)
    config = SimConfig(rates=VERHULST_RATES, initial_state=(10.0,),
                       t_final=2.0, dt=1e-3, trajectories=500, base_seed=3,
                       grid_points=200)
    if engine is Engine.SSA:
        return gillespie_ssa(scheme, config)
    return euler_maruyama(build_sde_model(scheme), config)


def _ring_text(count: int) -> str:
    """The ring8 benchmark's scheme on count species."""
    return "".join(f"3 x{i} <-> 3 x{i % count + 1} @ a_{i}, b_{i}\n"
                   for i in range(1, count + 1))


RING8 = _ring_text(8)


def _ring8_ensemble(engine: Engine) -> TrajectoryEnsemble:
    """An ensemble of the ring8 benchmark's shape: eight species from 100
    each, 200 paths on 50 grid points to t=0.1."""
    scheme = parse_scheme(RING8)
    rates = {**{rate(f"a_{i}"): 1e-4 for i in range(1, 9)},
             **{rate(f"b_{i}"): 5e-5 for i in range(1, 9)}}
    config = SimConfig(rates=rates, initial_state=(100.0,) * 8,
                       t_final=0.1, dt=1e-3, trajectories=200, base_seed=3,
                       grid_points=50)
    if engine is Engine.SSA:
        return gillespie_ssa(scheme, config)
    return euler_maruyama(build_sde_model(scheme, RateMode.EXACT,
                                          DiffusionSign.SUM), config)


class TestWritersMatchReference:
    """The writers give exactly the strings of the reference writers."""

    @given(n=st.integers(1, 8), count=st.integers(1, 50),
           grid=st.integers(2, 20), kind=_writer_kinds, seed=_writer_seeds)
    @example(n=1, count=1, grid=2, kind="special", seed=0)
    @example(n=8, count=50, grid=20, kind="bits", seed=1)
    def test_trajectories(self, n, count, grid, kind, seed):
        paths = _writer_values(seed, (count, grid, n), kind)
        times = _writer_values(seed + 1, (grid,), kind)
        ensemble = _ensemble(paths, times)
        assert trajectories_to_csv(ensemble) == \
            _reference_trajectories_to_csv(ensemble)

    @given(n=st.integers(1, 8), grid=st.integers(2, 20), kind=_writer_kinds,
           seed=_writer_seeds)
    @example(n=1, grid=2, kind="special", seed=0)
    def test_moments(self, n, grid, kind, seed):
        report = MomentReport(
            times=_writer_values(seed, (grid,), kind),
            mean=_writer_values(seed + 1, (grid, n), kind),
            covariance=_writer_values(seed + 2, (grid, n, n), kind),
            standard_error=_writer_values(seed + 3, (grid, n), kind),
            trajectories=2)
        names = _writer_species(n)
        assert moments_to_csv(report, names) == \
            _reference_moments_to_csv(report, names)

    @given(bounds=st.lists(st.integers(0, 4), min_size=1, max_size=4),
           kind=_writer_kinds, seed=_writer_seeds)
    @example(bounds=[0], kind="special", seed=0)
    def test_distribution(self, bounds, kind, seed):
        box = StateBox(tuple(bounds))
        dist = Distribution(box=box, probabilities=_writer_values(
            seed, (box.size,), kind))
        names = _writer_species(len(bounds))
        assert distribution_to_csv(dist, names) == \
            _reference_distribution_to_csv(dist, names)

    @pytest.mark.parametrize("engine", [Engine.EULER_MARUYAMA, Engine.SSA])
    def test_verhulst_benchmark_ensemble(self, engine):
        ensemble = _verhulst_ensemble(engine)
        assert trajectories_to_csv(ensemble) == \
            _reference_trajectories_to_csv(ensemble)
        report = ensemble_moments(ensemble)
        assert moments_to_csv(report, ensemble.species) == \
            _reference_moments_to_csv(report, ensemble.species)

    @pytest.mark.parametrize("engine", [Engine.EULER_MARUYAMA, Engine.SSA])
    def test_ring8_benchmark_ensemble(self, engine):
        ensemble = _ring8_ensemble(engine)
        assert ensemble.paths.shape == (200, 50, 8)
        assert trajectories_to_csv(ensemble) == \
            _reference_trajectories_to_csv(ensemble)


def _assert_csv_peak_near_output(ensemble: TrajectoryEnsemble) -> None:
    tracemalloc.start()
    try:
        text = trajectories_to_csv(ensemble)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


class TestWriterMemory:
    def test_trajectory_csv_peak_stays_near_its_output(self):
        """The writer holds little beyond the text it returns: its traced
        peak allocation stays below 2.5 times the output's length."""
        _assert_csv_peak_near_output(
            _verhulst_ensemble(Engine.EULER_MARUYAMA))

    @pytest.mark.parametrize("make, engine", [
        (_verhulst_ensemble, Engine.SSA),
        (_ring8_ensemble, Engine.EULER_MARUYAMA),
        (_ring8_ensemble, Engine.SSA)])
    def test_peak_on_the_other_benchmark_shapes(self, make, engine):
        """The same bound on jump-sampler paths, whose values are short,
        and on eight species per row."""
        _assert_csv_peak_near_output(make(engine))


# The engines as they were when the jump sampler summed its channel rates
# in a Python loop and Euler-Maruyama compiled its drift and its noise as
# two functions (bodies verbatim, names prefixed); the engines must give
# the same bits.


class _ReferenceEmStepper:
    """Evaluates drift and noise increments for a batch of states."""

    def __init__(self, model: SdeModel, config: SimConfig):
        for r in model.rate_symbols:
            if r not in config.rates:
                raise UnboundRateError(r)

        def compile_bound(polys):
            return as_function([bind_values(p, config.rates) for p in polys],
                               model.species)

        self.n = len(model.species)
        self.drift_fn = compile_bound(model.drift)
        self.strategy = model.noise_strategy
        if self.strategy is NoiseStrategy.MATRIX_SQRT:
            self.diffusion_fn = compile_bound(
                [model.diffusion[i][j] for i in range(self.n)
                 for j in range(i, self.n)])
            self.wiener_dim = self.n
        else:
            if model.scheme is None:
                raise ValueError("per-reaction noise needs the scheme")
            tr = transition_rates(model.scheme, model.rate_mode)
            self.amplitude_fn = compile_bound(
                [f + g for f, g in zip(tr.forward, tr.backward)])
            self.change = np.array(
                [ia.change for ia in model.scheme.interactions],
                dtype=np.float64)                       # (s, n)
            self.wiener_dim = len(model.scheme.interactions)

    def drift(self, states: np.ndarray) -> np.ndarray:
        out = np.empty(states.shape)
        for i, v in enumerate(self.drift_fn(*states.T)):
            out[:, i] = v
        return out

    def noise(self, states: np.ndarray, eps: np.ndarray) -> np.ndarray:
        count = states.shape[0]
        if self.strategy is NoiseStrategy.PER_REACTION:
            amp = np.empty((count, self.wiener_dim))
            for i, v in enumerate(self.amplitude_fn(*states.T)):
                amp[:, i] = v
            low = amp.min(initial=0.0)
            if low < -_RATE_TOL:
                raise NegativeRateError(
                    f"per-reaction rate {low:.6e} is negative beyond "
                    f"tolerance {_RATE_TOL:.1e}")
            return (np.sqrt(np.clip(amp, 0.0, None)) * eps) @ self.change
        bmat = symmetric_matrices(self.diffusion_fn(*states.T), count,
                                  self.n)
        # the PSD check and its message are those of 0.2.0; the noise of
        # one species is the scalar root the engine took up to 0.1.0
        try:
            root = matrix_sqrt_psd(bmat)
        except NotPsdError as exc:
            state = tuple(states[exc.index].tolist())
            raise NotPsdError(f"diffusion value B at state {state} is not "
                              f"positive semidefinite: {exc}") from None
        if self.n == 1:
            return np.sqrt(np.clip(bmat[:, 0], 0.0, None)) * eps
        return np.einsum("tij,tj->ti", root, eps)


# overflow is not reported as it happens: it leaves a non-finite state (a
# NaN stays NaN), which stops the run at the next grid time
@np.errstate(over="ignore", invalid="ignore")
def _reference_euler_maruyama(model: SdeModel,
                              config: SimConfig) -> TrajectoryEnsemble:
    """Fixed-step Euler-Maruyama: phi += A dt + noise sqrt(dt), with the
    noise increment b(phi) eps for standard normal eps.

    Negative proposals follow config.negative_policy: clamp to zero (and
    count the event) or redraw the step's noise up to a retry limit.
    """
    n = len(model.species)
    if len(config.initial_state) != n:
        raise ValueError("initial state length does not match the model")
    stepper = _ReferenceEmStepper(model, config)
    t_count = config.trajectories
    times = config.times
    nsteps = int(math.ceil(config.t_final / config.dt - 1e-9))
    grid_at = _grid_step_indices(times, config.dt, nsteps)
    dt = config.dt
    sqrt_dt = math.sqrt(dt)
    reject = config.negative_policy is NegativePolicy.REJECT_STEP

    states = np.tile(np.asarray(config.initial_state, dtype=np.float64),
                     (t_count, 1))
    paths = np.empty((t_count, len(times), n))
    clamps = np.zeros(t_count, dtype=np.int64)
    gens = [trajectory_rng(config.base_seed, j) for j in range(t_count)]

    g = 0
    step = 0
    while g < len(times) and grid_at[g] == 0:
        paths[:, g] = states
        g += 1
    m = stepper.wiener_dim
    while step < nsteps:
        k = min(_CHUNK_STEPS, nsteps - step)
        eps = np.empty((t_count, k, m))
        for j, gen in enumerate(gens):
            eps[j] = gen.standard_normal((k, m))
        for s in range(k):
            drift = stepper.drift(states)
            noise = stepper.noise(states, eps[:, s, :])
            proposal = states + drift * dt + noise * sqrt_dt
            bad = proposal < 0
            if bad.any():
                if reject:
                    for j in np.nonzero(bad.any(axis=1))[0]:
                        proposal[j] = _reference_retry_step(stepper, states[j],
                                                  gens[j], dt, sqrt_dt)
                else:
                    clamps += bad.any(axis=1)
                    np.clip(proposal, 0.0, None, out=proposal)
            states = proposal
            step += 1
            while g < len(times) and grid_at[g] == step:
                _require_finite(states, times[g])
                paths[:, g] = states
                g += 1
    return TrajectoryEnsemble(engine=Engine.EULER_MARUYAMA,
                              species=model.species, times=times,
                              paths=paths, clamp_events=clamps)


def _reference_retry_step(stepper: _ReferenceEmStepper, state: np.ndarray,
                          gen: np.random.Generator, dt: float,
                          sqrt_dt: float) -> np.ndarray:
    row = state[None, :]
    drift = stepper.drift(row)
    for _ in range(_REJECT_LIMIT):
        eps = gen.standard_normal((1, stepper.wiener_dim))
        proposal = row + drift * dt + stepper.noise(row, eps) * sqrt_dt
        if (proposal >= 0).all():
            return proposal[0]
    raise SimulationError(
        f"no nonnegative step found in {_REJECT_LIMIT} redraws; "
        "the step size is likely too large for this state")



def _reference_compile_ssa_rates(channels, n: int):
    """Generate a state -> (rates, total) function for the jump sampler.

    For nonnegative integer states the plain falling-factorial product
    already vanishes whenever the state cannot supply a channel's complex
    (one factor is exactly zero), so the generated expressions need no
    feasibility guards.  The total is written out as r0 + r1 + ..., left
    to right on every Python: from 3.12 on, the builtin sum of floats is
    compensated and would draw other waiting times.
    """
    used = sorted({i for stoich, _, _ in channels
                   for i, m in enumerate(stoich) if m})
    lines = ["def channel_rates(state):"]
    for i in used:
        lines.append(f"    x{i} = state[{i}]")
    for c, (stoich, _, value) in enumerate(channels):
        factors = [repr(float(value))]
        for i, m in enumerate(stoich):
            for k in range(m):
                factors.append(f"x{i}" if k == 0 else f"(x{i}-{k})")
        lines.append(f"    r{c} = {'*'.join(factors)}")
    names = [f"r{c}" for c in range(len(channels))]
    lines.append(f"    return ({', '.join(names)},), {' + '.join(names)}")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["channel_rates"]


def _reference_gillespie_ssa(scheme: InteractionScheme,
                             config: SimConfig) -> TrajectoryEnsemble:
    """Exact jump-process sampling with exponential waiting times.

    States are integer occupation numbers; sampled paths are reported on
    the shared time grid by last-value interpolation.  The initial state
    must be integral.  A trajectory that needs more than
    _SSA_EVENT_BUDGET events raises SimulationError.
    """
    n = len(scheme.species)
    if len(config.initial_state) != n:
        raise ValueError("initial state length does not match the scheme")
    init = []
    for x in config.initial_state:
        if abs(x - round(x)) > 1e-9:
            raise ValueError("jump-process simulation needs an integer "
                             f"initial state, got {x!r}")
        init.append(int(round(x)))

    float_rates = {sym: float(v) for sym, v in config.rates.items()}
    channels = reaction_channels(scheme, float_rates)
    deltas = [tuple((i, d) for i, d in enumerate(change) if d)
              for _, change, _ in channels]
    rate_fn = _reference_compile_ssa_rates(channels, n)

    times = config.times
    grid = times.tolist()          # scalar loop below runs on plain floats
    g_count = len(grid)
    t_final = config.t_final
    paths = np.empty((config.trajectories, g_count, n))
    n_channels = len(channels)

    for j in range(config.trajectories):
        rng = trajectory_rng(config.base_seed, j)
        exp_buf = rng.standard_exponential(_SSA_BLOCK).tolist()
        uni_buf = rng.random(_SSA_BLOCK).tolist()
        ei = ui = 0
        drawn = _SSA_BLOCK
        state = list(init)
        t = 0.0
        g = 0
        while True:
            channel_rates, total = rate_fn(state)
            if total <= 0.0:
                while g < g_count:            # absorbed: state holds forever
                    paths[j, g] = state
                    g += 1
                break
            if ei == _SSA_BLOCK:
                if drawn >= _SSA_EVENT_BUDGET:
                    raise SimulationError(
                        f"trajectory {j} used up its budget of "
                        f"{_SSA_EVENT_BUDGET} jump events at t = {t!r}: "
                        "the model may blow up in finite time")
                exp_buf = rng.standard_exponential(_SSA_BLOCK).tolist()
                drawn += _SSA_BLOCK
                ei = 0
            t_next = t + exp_buf[ei] / total
            ei += 1
            while g < g_count and grid[g] < t_next:
                paths[j, g] = state
                g += 1
            if t_next > t_final or g >= g_count:
                while g < g_count:
                    paths[j, g] = state
                    g += 1
                break
            if ui == _SSA_BLOCK:
                uni_buf = rng.random(_SSA_BLOCK).tolist()
                ui = 0
            u = uni_buf[ui] * total
            ui += 1
            acc = 0.0
            chosen = n_channels - 1
            for idx in range(n_channels):
                acc += channel_rates[idx]
                if u < acc:
                    chosen = idx
                    break
            for i, d in deltas[chosen]:
                state[i] += d
            t = t_next
    return TrajectoryEnsemble(engine=Engine.SSA, species=scheme.species,
                              times=times, paths=paths,
                              clamp_events=np.zeros(config.trajectories,
                                                    dtype=np.int64))



def _outcome(engine, *args):
    """An engine's paths and clamp counts, or the type and message of the
    error it raised."""
    try:
        ensemble = engine(*args)
    except (ValueError, SimulationError) as exc:
        return type(exc).__name__, str(exc)
    return ensemble.paths.tobytes(), ensemble.clamp_events.tobytes()


def _random_case(seed: int, rates, initial):
    """A random scheme (stoichiometry up to 3) with the drawn rates and
    initial occupation numbers cycled over its symbols and species."""
    scheme = parse_scheme(random_scheme_text(random.Random(seed),
                                             max_stoich=3))
    values = dict(zip(scheme.rate_symbols,
                      (rates * len(scheme.rate_symbols))))
    state = tuple(float(initial[i % len(initial)])
                  for i in range(len(scheme.species)))
    return scheme, values, state


# zero rates freeze channels; a zero initial state with only consuming
# channels is absorbed at once
_rate_values = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 0.1, 0.3, 0.7,
                                         1e-16]),
                        min_size=1, max_size=4)
_initial_values = st.lists(st.integers(0, 6), min_size=1, max_size=3)


class TestEnginesMatchReference:
    """Both engines give exactly the bits, and raise exactly the errors,
    of the reference engines."""

    @given(seed=st.integers(0, 10 ** 9), rates=_rate_values,
           initial=_initial_values, base_seed=st.integers(0, 2 ** 64 - 1),
           t_final=st.sampled_from([0.05, 0.5, 2.0]))
    @example(seed=0, rates=[0.0], initial=[3], base_seed=0, t_final=0.5)
    @example(seed=20, rates=[2.0], initial=[6], base_seed=0,  # budget
             t_final=2.0)
    def test_jump_sampler(self, seed, rates, initial, base_seed, t_final):
        scheme, values, state = _random_case(seed, rates, initial)
        config = SimConfig(rates=values, initial_state=state,
                           t_final=t_final, trajectories=3,
                           base_seed=base_seed, grid_points=7)
        # a small event budget keeps blow-ups cheap and exercises it
        with pytest.MonkeyPatch.context() as mp:
            for module in ("onestep.sim", __name__):
                mp.setattr(sys.modules[module], "_SSA_EVENT_BUDGET",
                           4 * _SSA_BLOCK)
            assert _outcome(gillespie_ssa, scheme, config) == \
                _outcome(_reference_gillespie_ssa, scheme, config)

    @given(seed=st.integers(0, 10 ** 9), rates=_rate_values,
           state=st.lists(st.integers(0, 40), min_size=3, max_size=3))
    def test_cumulative_rates(self, seed, rates, state):
        """The jump sampler's rate statements give the running sums of
        the reference rates, and their total, to the bit."""
        scheme, values, _ = _random_case(seed, rates, [0])
        channels = reaction_channels(scheme, values)
        x = state[:len(scheme.species)]
        ref_rates, ref_total = _reference_compile_ssa_rates(
            channels, len(x))(x)
        sums = {f"x{i}": v for i, v in enumerate(x)}
        exec("\n".join(_ssa_rate_lines(channels)), {}, sums)
        partial = [sums[f"c{c}"] for c in range(len(channels) - 1)]
        total = sums[f"c{len(channels) - 1}"]
        assert [*map(float.hex, partial), float.hex(total)] == \
            [*map(float.hex, itertools.accumulate(ref_rates[:-1])),
             float.hex(ref_total)]

    @pytest.mark.parametrize("text, values, initial, t_final", [
        (PURE_DEATH, {"beta": 1.0}, (6,), 2.0),
        (VERHULST, {"lambda": 1.0, "beta": 0.2, "gamma": 0.05}, (0,), 2.0),
        (VERHULST, {"lambda": 1.0, "beta": 0.2, "gamma": 0.05}, (10,), 2.0),
        (LOTKA_VOLTERRA, {"k_1": 1.0, "k_2": 0.05, "k_3": 1.0}, (20, 20),
         1.0),
        (RING8, {**{f"a_{i}": 1e-4 for i in range(1, 9)},
                 **{f"b_{i}": 5e-5 for i in range(1, 9)}}, (100,) * 8, 0.1)])
    def test_jump_sampler_on_benchmark_schemes(self, text, values, initial,
                                               t_final):
        scheme = parse_scheme(text)
        config = SimConfig(rates={rate(k): v for k, v in values.items()},
                           initial_state=initial, t_final=t_final,
                           trajectories=20, base_seed=4, grid_points=50)
        assert _outcome(gillespie_ssa, scheme, config) == \
            _outcome(_reference_gillespie_ssa, scheme, config)

    @given(seed=st.integers(0, 10 ** 9), rates=_rate_values,
           initial=_initial_values, base_seed=st.integers(0, 2 ** 64 - 1),
           mode=st.sampled_from(list(RateMode)),
           sign=st.sampled_from(list(DiffusionSign)),
           noise=st.sampled_from(list(NoiseStrategy)),
           policy=st.sampled_from(list(NegativePolicy)))
    def test_euler_maruyama(self, seed, rates, initial, base_seed, mode,
                            sign, noise, policy):
        scheme, values, state = _random_case(seed, rates, initial)
        if noise is NoiseStrategy.PER_REACTION:
            sign = DiffusionSign.SUM    # the one sign it can realize
        model = build_sde_model(scheme, mode, sign, noise)
        config = SimConfig(rates=values, initial_state=state, t_final=0.3,
                           dt=0.01, trajectories=3, base_seed=base_seed,
                           negative_policy=policy, grid_points=7)
        assert _outcome(euler_maruyama, model, config) == \
            _outcome(_reference_euler_maruyama, model, config)

    @pytest.mark.parametrize("noise", list(NoiseStrategy))
    @pytest.mark.parametrize("policy", list(NegativePolicy))
    def test_euler_maruyama_on_predator_prey(self, noise, policy):
        model = build_sde_model(parse_scheme(LOTKA_VOLTERRA), RateMode.EXACT,
                                DiffusionSign.SUM, noise)
        config = SimConfig(rates=LV_RATES, initial_state=(3.0, 3.0),
                           t_final=1.0, dt=1e-3, trajectories=20,
                           base_seed=8, negative_policy=policy,
                           grid_points=11)
        new = _outcome(euler_maruyama, model, config)
        assert new == _outcome(_reference_euler_maruyama, model, config)
        assert isinstance(new[0], bytes)


class TestJumpSamplerParts:
    """The generated channel choice is bisect's, a re-keyed Philox is the
    trajectory's own stream, and paths of huge occupation numbers are
    stored as the reference stores them."""

    @given(partial=st.lists(st.floats(), max_size=39), target=st.floats())
    @example(partial=[], target=0.5)
    @example(partial=[1.0, -2.0, math.nan, math.inf, 0.0], target=0.5)
    @example(partial=[math.nan] * 5, target=math.nan)
    @example(partial=[-math.inf, math.inf, -1.0], target=math.inf)
    def test_choice_tree_picks_bisect_right(self, partial, target):
        # unsorted, negative, NaN and inf sums, 1 to 40 channels; every
        # third leaf is empty and so a `pass`
        count = len(partial) + 1
        leaves = [[f"chosen = {k}"] if k % 3 else [] for k in range(count)]
        args = "".join(f", c{c}" for c in range(count - 1))
        source = "\n".join([f"def choose(target{args}):",
                            "    chosen = None",
                            *_choice_tree(leaves, 0, count - 1, "    "),
                            "    return chosen"])
        namespace = {}
        exec(source, namespace)
        k = bisect.bisect_right(partial, target)
        assert namespace["choose"](target, *partial) == \
            (k if k % 3 else None)

    @pytest.mark.parametrize("base_seed, index", [
        (0, 0), (0, 1), (0, 2 ** 64 - 1), (1, 0), (1, 1), (1, 2 ** 64 - 2),
        (2 ** 64 - 1, 0), (2 ** 64 - 1, 2 ** 64 - 1), (2 ** 64 - 1, 5)])
    def test_rekeyed_philox_is_the_trajectory_stream(self, base_seed, index):
        # the keys base_seed ^ index include 0 and 2**64 - 1
        bits = np.random.Philox(key=12345)
        gen = np.random.Generator(bits)
        # the path before leaves a half-used buffer and a pending uint32
        gen.random(6)                   # six 64-bit words
        gen.integers(0, 2 ** 32, dtype=np.uint32)
        assert 0 < bits.state["buffer_pos"] < 4
        assert bits.state["has_uint32"] == 1
        _rekey(bits, base_seed, index)
        ref = trajectory_rng(base_seed, index)
        for draw in ("standard_exponential", "random", "standard_normal"):
            got = getattr(gen, draw)(300)
            assert got.tobytes() == getattr(ref, draw)(300).tobytes()
        # a 32-bit draw would take a pending uint32 first
        assert gen.random(3, dtype=np.float32).tobytes() == \
            ref.random(3, dtype=np.float32).tobytes()
        assert bits.state["state"]["key"].tolist() == \
            ref.bit_generator.state["state"]["key"].tolist()

    @pytest.mark.parametrize("initial", [(2.0 ** 60,), (2.0 ** 63,),
                                         (2.0 ** 64,), (2.0 ** 70,),
                                         (1e300,)])
    def test_huge_occupation_numbers_match_the_reference(self, initial):
        # x +/- 1 beyond 2**53 is rounded where the path is stored
        scheme = parse_scheme("x -> 2 x @ k\nx -> 0 @ d\n")
        rates = {rate("k"): 1.0 / initial[0], rate("d"): 1.0 / initial[0]}
        config = SimConfig(rates=rates, initial_state=initial, t_final=2.0,
                           trajectories=4, base_seed=3, grid_points=9)
        new = _outcome(gillespie_ssa, scheme, config)
        assert new == _outcome(_reference_gillespie_ssa, scheme, config)
        assert isinstance(new[0], bytes)


# a ring x1 -> x2 -> ... -> x20 -> x1, each step also catalysed by the
# hub h, which 21 channels consume: the ring's leaves recompute four
# rates, the hub's birth and death leaves break
HUB_RING = ("".join(f"x{i} -> x{i % 20 + 1} @ a_{i}\n"
                    f"h + x{i} -> h + x{i % 20 + 1} @ b_{i}\n"
                    for i in range(1, 21))
            + "0 -> h @ k\nh -> 0 @ d\n")


def _recomputed(leaf) -> list[int]:
    """The channels whose rates a leaf recomputes, in its order."""
    return [int(line[1:line.index(" ")]) for line in leaf
            if line.startswith("r")]


def _channels(text: str):
    scheme = parse_scheme(text)
    return reaction_channels(scheme, {s: 1.0 for s in scheme.rate_symbols})


class TestDependentRates:
    """Each leaf of the jump sampler recomputes only the rates its event
    changes, and the paths keep the bits of the reference, which
    recomputes every rate at every event."""

    @pytest.mark.parametrize("count", [16, 32])
    def test_rings_match_the_reference(self, count):
        scheme = parse_scheme(_ring_text(count))
        rates = {**{rate(f"a_{i}"): 1e-3 for i in range(1, count + 1)},
                 **{rate(f"b_{i}"): 5e-4 for i in range(1, count + 1)}}
        config = SimConfig(rates=rates, initial_state=(20.0,) * count,
                           t_final=0.5, trajectories=20, base_seed=11,
                           grid_points=30)
        new = _outcome(gillespie_ssa, scheme, config)
        assert isinstance(new[0], bytes)
        assert new == _outcome(_reference_gillespie_ssa, scheme, config)

    def test_capped_and_uncapped_leaves_match_the_reference(self):
        scheme = parse_scheme(HUB_RING)
        channels = _channels(HUB_RING)
        leaves = _ssa_leaves(channels, _ssa_rate_lines(channels))
        assert [leaf[-1] == "break" for leaf in leaves] == \
            [False] * 40 + [True, True]
        rates = {**{rate(f"a_{i}"): 1.0 for i in range(1, 21)},
                 **{rate(f"b_{i}"): 0.1 for i in range(1, 21)},
                 rate("k"): 5.0, rate("d"): 0.5}
        initial = tuple(10.0 if s.name == "h" else 3.0
                        for s in scheme.species)
        config = SimConfig(rates=rates, initial_state=initial, t_final=1.0,
                           trajectories=20, base_seed=5, grid_points=30)
        new = _outcome(gillespie_ssa, scheme, config)
        assert isinstance(new[0], bytes)
        assert new == _outcome(_reference_gillespie_ssa, scheme, config)

    def test_ring8_leaves_recompute_their_four_dependents(self):
        channels = _channels(RING8)
        lines = _ssa_rate_lines(channels)
        for c, leaf in enumerate(_ssa_leaves(channels, lines)):
            # channels 2i and 2i+1 move the locals x_i and x_{i+1}; x_i
            # feeds channels 2i-1 and 2i, x_{i+1} 2i+1 and 2i+2 (mod 16)
            deps = sorted((c - c % 2 + d) % 16 for d in (-1, 0, 1, 2))
            assert _recomputed(leaf) == deps
            assert leaf[2:] == [lines[k] for k in deps]
            assert len(leaf) == 6 and "break" not in leaf

    def test_verhulst_leaves_recompute_every_rate(self):
        channels = _channels(VERHULST)
        lines = _ssa_rate_lines(channels)
        for leaf in _ssa_leaves(channels, lines):
            assert leaf[1:] == lines[:3]

    def test_4000_channel_leaves_break(self):
        channels = _channels("".join(f"x -> y @ k_{i}\n"
                                     for i in range(4000)))
        leaves = _ssa_leaves(channels, _ssa_rate_lines(channels))
        assert all(leaf == ["x0 += -1", "x1 += 1", "break"]
                   for leaf in leaves)

    def test_no_leaf_holds_more_than_the_cap(self):
        # the death of a hub that the cap's count of channels consume
        # recomputes them all; one more consumer caps it
        for extra, capped in ((0, False), (1, True)):
            count = _SSA_LEAF_RATES + extra
            text = ("".join(f"h -> y{i} + h @ k_{i}\n"
                            for i in range(count - 1)) + "h -> 0 @ d\n")
            channels = _channels(text)
            leaves = _ssa_leaves(channels, _ssa_rate_lines(channels))
            death = leaves[-1]
            assert (death[-1] == "break") is capped
            assert _recomputed(death) == ([] if capped else
                                          list(range(count)))
            assert all(len(_recomputed(leaf)) <= _SSA_LEAF_RATES
                       for leaf in leaves)

    def test_source_is_linear_in_the_channel_count(self):
        # per channel: a rate, a sum, one leaf of 2 moves and 4 rates and
        # the tree's if/else pair; per species a store
        sizes = {n: len(_ssa_path_source(_channels(_ring_text(n)),
                                         n).splitlines())
                 for n in (250, 500, 1000)}
        assert sizes[1000] - sizes[500] == 2 * (sizes[500] - sizes[250])
        assert sizes[1000] - sizes[500] == 21 * 500


class TestManyChannels:
    def test_jump_sampler_compiles_4000_channels(self):
        # the rates of the old sampler summed in one 4,000-term expression,
        # which overflowed the compiler's recursion limit
        count = 4000
        scheme = parse_scheme("".join(f"x -> y @ k_{i}\n"
                                      for i in range(count)))
        config = SimConfig(rates={s: 1.0 for s in scheme.rate_symbols},
                           initial_state=(3.0, 0.0), t_final=1.0,
                           trajectories=2, grid_points=3)
        paths = gillespie_ssa(scheme, config).paths
        assert np.all(paths.sum(axis=2) == 3.0)
        # at total rate 4,000 per particle every particle has moved by t=1
        assert np.array_equal(paths[:, -1], [[0.0, 3.0], [0.0, 3.0]])


class TestNoReferenceCycles:
    """Generated functions are popped from the namespace they were run
    in, so compiling and running them leaves nothing for the garbage
    collector."""

    @pytest.fixture
    def collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_compiling_and_sampling_leave_no_cycles(self, collector_off):
        scheme = parse_scheme(LOTKA_VOLTERRA)
        model = build_sde_model(scheme, RateMode.EXACT, DiffusionSign.SUM,
                                NoiseStrategy.MATRIX_SQRT)
        config = SimConfig(rates=LV_RATES, initial_state=(20.0, 20.0),
                           t_final=0.1, dt=0.01, trajectories=3,
                           grid_points=3)
        calls = {
            "as_function": lambda: as_function(
                [bind_values(p, LV_RATES) for p in model.drift],
                scheme.species),
            "default_box": lambda: default_box(scheme, LV_RATES, (20, 20)),
            "euler_maruyama": lambda: euler_maruyama(model, config),
            "gillespie_ssa": lambda: gillespie_ssa(scheme, config)}
        left = {}
        for name, call in calls.items():
            call()
            left[name] = gc.collect()
        assert left == dict.fromkeys(calls, 0)
