"""Sampling engines: noise factorization, stepping, moments, comparison."""

import math
import tracemalloc

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
                     compare_engines, compare_reports, distribution_moments,
                     distribution_to_csv, ensemble_moments, euler_maruyama,
                     evolve_distribution, gillespie_ssa, matrix_sqrt_psd,
                     mean_band_svg, moments_to_csv, parse_scheme, point_mass,
                     rate, species, trajectories_to_csv, trajectory_rng)
from helpers import LOTKA_VOLTERRA, PURE_DEATH, VERHULST

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


class TestMatrixSqrt:
    def test_identity(self):
        assert np.array_equal(matrix_sqrt_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        s = matrix_sqrt_psd(np.diag([4.0, 9.0]))
        assert np.allclose(s, np.diag([2.0, 3.0]), atol=1e-12)

    def test_dense_reconstruction(self):
        b = np.array([[2.0, -1.0], [-1.0, 2.0]])
        s = matrix_sqrt_psd(b)
        assert np.abs(s - s.T).max() < 1e-12
        assert np.abs(s @ s - b).max() < 1e-12

    def test_batched_input(self):
        stack = np.stack([np.eye(2), np.diag([4.0, 9.0])])
        roots = matrix_sqrt_psd(stack)
        assert np.allclose(roots[0], np.eye(2), atol=1e-12)
        assert np.allclose(roots[1], np.diag([2.0, 3.0]), atol=1e-12)

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            r = rng.standard_normal((n, n))
            b = r @ r.T
            s = matrix_sqrt_psd(b)
            assert np.abs(s @ s - b).max() <= 1e-10 * (1 + np.abs(b).max())

    def test_tiny_negative_eigenvalue_is_clamped(self):
        s = matrix_sqrt_psd(np.array([[-1e-13]]))
        assert s[0, 0] == 0.0

    def test_asymmetric_is_rejected(self):
        with pytest.raises(NotSymmetricError):
            matrix_sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_indefinite_is_rejected(self):
        with pytest.raises(NotPsdError):
            matrix_sqrt_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestEulerMaruyama:
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


class TestWriterMemory:
    def test_trajectory_csv_peak_stays_near_its_output(self):
        """The writer holds little beyond the text it returns: its traced
        peak allocation stays below 2.5 times the output's length."""
        ensemble = _verhulst_ensemble(Engine.EULER_MARUYAMA)
        tracemalloc.start()
        try:
            text = trajectories_to_csv(ensemble)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(text)
