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
                     Stream, TooFewTrajectoriesError, TrajectoryEnsemble,
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
from onestep.sim import (_CSV_VALUES_PER_COUNT, _PSD_LONE_FLOOR,
                         _PSD_SQRT_TOL, _PSD_TOL, _RATE_TOL, _REJECT_LIMIT,
                         _SSA_EVENT_BUDGET,
                         _SSA_LEAF_RATES, _EmStepper,
                         _FactorPattern, _choice_tree, _diffusion_pattern,
                         _em_step_source, _per_reaction_noise, _rekeyer,
                         _row_program,
                         _semidefinite_factor, _ssa_leaves,
                         _ssa_path_source, _ssa_rate_lines,
                         _grid_step_indices, _require_finite)
from onestep.cli import _compared_entries
from onestep.poly import _TERMS_PER_LINE, monomial
import onestep.floattext as floattext_module
import onestep.sim as sim_module
from onestep.floattext import _float_fields
from helpers import (CHECK_STATES, EM_NORMALS, EM_REDRAWS, LOTKA_VOLTERRA,
                     PURE_DEATH, SSA_CHOICES, SSA_WAITS, VERHULST,
                     lower_stack, random_scheme_text, reference_stream,
                     scalar_gillespie_ssa)

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

    def test_euler_maruyama_step_budget(self, monkeypatch):
        # the steps of one path, refused above _EM_STEP_BUDGET before the
        # engine builds its step; the jump sampler has no step budget
        def refuse(*args, **kwargs):
            raise AssertionError("the step was built")
        monkeypatch.setattr(sim_module, "_EM_STEP_BUDGET", 50)
        scheme = parse_scheme(PURE_DEATH)
        model = build_sde_model(scheme)
        rates = {rate("beta"): 1.0}
        at, over = (SimConfig(rates=rates, initial_state=(3.0,),
                              t_final=t_final, dt=0.01, trajectories=2,
                              grid_points=3) for t_final in (0.5, 0.51))
        assert euler_maruyama(model, at).paths.shape == (2, 3, 1)
        monkeypatch.setattr(sim_module, "_EmStepper", refuse)
        with pytest.raises(SimConfigError, match=re.escape(
                "t_final / dt asks for 51 Euler-Maruyama steps per path, "
                "more than the budget of 50")):
            euler_maruyama(model, over)
        assert gillespie_ssa(scheme, over).paths.shape == (2, 3, 1)

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

    def test_rates_are_a_read_only_copy(self):
        """SimConfig keeps a read-only copy of the rates it checked: a
        rate of -2.0 put into the caller's mapping afterwards would make
        the jump sampler absorb at x = 3 (total -1) and Euler-Maruyama
        raise NotPsdError, and it changes no bit of either engine."""
        scheme = parse_scheme("0 -> x @ a\nx -> 0 @ b\n")
        values = {rate("a"): 5.0, rate("b"): 1.0}
        config = SimConfig(rates=values, initial_state=(0,), t_final=2.0,
                           trajectories=4, base_seed=3, grid_points=5)
        model = build_sde_model(scheme)
        before = (gillespie_ssa(scheme, config).paths.tobytes(),
                  euler_maruyama(model, config).paths.tobytes())
        values[rate("b")] = -2.0
        assert (gillespie_ssa(scheme, config).paths.tobytes(),
                euler_maruyama(model, config).paths.tobytes()) == before
        with pytest.raises(TypeError):
            config.rates[rate("b")] = -2.0

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


_DOMAINS = [(Stream.EM_NORMALS, EM_NORMALS), (Stream.EM_REDRAWS, EM_REDRAWS),
            (Stream.SSA_WAITS, SSA_WAITS), (Stream.SSA_CHOICES, SSA_CHOICES),
            (Stream.CHECK_STATES, CHECK_STATES)]


def _plain(state):
    """A bit generator's state with its arrays as lists."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


class TestTrajectoryRng:
    def test_streams_are_reproducible(self):
        a = trajectory_rng(5, 3, Stream.EM_NORMALS).standard_normal(4)
        b = trajectory_rng(5, 3, Stream.EM_NORMALS).standard_normal(4)
        assert np.array_equal(a, b)

    def test_indices_get_distinct_streams(self):
        a = trajectory_rng(5, 3, Stream.EM_NORMALS).standard_normal(4)
        b = trajectory_rng(5, 4, Stream.EM_NORMALS).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_every_domain_is_listed(self):
        assert sorted(Stream) == [stream for stream, _ in _DOMAINS]

    @pytest.mark.parametrize("stream, domain", _DOMAINS)
    @pytest.mark.parametrize("base_seed, index", [
        (0, 0), (0, 1), (1, 0), (7, 2 ** 64 - 1), (2 ** 64 - 1, 0),
        (2 ** 64 - 1, 2 ** 64 - 1), (2 ** 63, 12345)])
    def test_known_answer(self, base_seed, index, stream, domain):
        """Each domain's draws are those of Philox built from its key and
        counter arguments: the key words (base_seed, index) and the
        counter words (0, 0, 0, domain)."""
        got = trajectory_rng(base_seed, index, stream)
        ref = reference_stream(base_seed, index, domain)
        assert _plain(got.bit_generator.state) == \
            _plain(ref.bit_generator.state)
        assert got.integers(0, 2 ** 64, 9, dtype=np.uint64).tobytes() == \
            ref.integers(0, 2 ** 64, 9, dtype=np.uint64).tobytes()
        for draw in ("standard_normal", "standard_exponential", "random"):
            assert getattr(got, draw)(5).tobytes() == \
                getattr(ref, draw)(5).tobytes()

    @pytest.mark.parametrize("stream", list(Stream))
    @pytest.mark.parametrize("base_seed", [0, 1, 2718, 2 ** 64 - 2])
    def test_neighbouring_pairs_get_distinct_streams(self, base_seed,
                                                     stream):
        # base_seed XOR index keyed (s, 1) and (s + 1, 0) alike for even s
        a = trajectory_rng(base_seed, 1, stream).random(4)
        b = trajectory_rng(base_seed + 1, 0, stream).random(4)
        assert not np.array_equal(a, b)

    def test_domains_get_distinct_streams(self):
        draws = {trajectory_rng(3, 2, stream).random(4).tobytes()
                 for stream in Stream}
        assert len(draws) == len(Stream)

    def test_largest_seed_and_index_are_usable(self):
        g = trajectory_rng(2 ** 64 - 1, 2 ** 64 - 1, Stream.CHECK_STATES)
        assert g.standard_normal(2).shape == (2,)

    @pytest.mark.parametrize("base_seed, index", [(-1, 0), (2 ** 64, 0),
                                                  (0, -1), (0, 2 ** 64)])
    def test_out_of_range_keys_are_refused(self, base_seed, index):
        with pytest.raises(ValueError, match="fit in 64 bits"):
            trajectory_rng(base_seed, index, Stream.EM_NORMALS)


def _reconstruction_error(factor, b):
    """max |L L^T - B| of each matrix over its scale 1 + max|B|."""
    error = np.abs(factor @ np.swapaxes(factor, -1, -2) - b)
    return error.max(axis=(-2, -1)) / (1.0 + np.abs(b).max(axis=(-2, -1)))


def _is_lower(factor):
    return np.array_equal(factor, np.tril(factor))


def _reference_matrix_sqrt_psd(b: np.ndarray) -> np.ndarray:
    """matrix_sqrt_psd as it was before its loop moved into
    _semidefinite_factor (body verbatim)."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim < 2 or b.shape[-1] != b.shape[-2]:
        raise ValueError("expected square matrices on the last two axes")
    n = b.shape[-1]
    wide = []           # (pivot, the matrices whose column fails there)
    if n == 1:
        # one pivot and no column below it, which an Euler-Maruyama step
        # of one species cannot afford to wrap in the loop below.  A pivot
        # below -tol * (1 + |d|) is below _PSD_LONE_FLOOR, a test with no
        # scale to work out, so the scale waits for a pivot that fails it
        pivots = b.reshape(1, -1)
        factor = np.sqrt(np.maximum(pivots, 0.0))
        if not np.count_nonzero(pivots < _PSD_LONE_FLOOR):
            return factor.reshape(b.shape)
        floor = _PSD_TOL * (1.0 + np.abs(pivots[0]))
    else:
        # entry (i, j) of every matrix is the contiguous row a[i, j], so
        # each step below is one operation over the batch
        m = math.prod(b.shape[:-2])
        a = b.reshape(m, n, n).transpose(1, 2, 0).copy()
        floor = np.abs(a).max(axis=(0, 1), initial=0.0)
        floor += 1.0
        floor *= _PSD_TOL
        asym = np.abs(a - a.transpose(1, 0, 2)).max(axis=(0, 1),
                                                   initial=0.0)
        if np.count_nonzero(asym > floor):
            i = int(np.argmax(asym > floor))
            raise NotSymmetricError(f"matrix asymmetry {asym[i]:.3e} "
                                    f"exceeds tolerance {floor[i]:.3e}")
        # pivot k ends up in a[k, k]: later steps update only the block
        # after it
        pivots = a.reshape(n * n, m)[::n + 1]
        factor = np.zeros(a.shape)
        for k in range(n):
            d = pivots[k]
            root = np.sqrt(np.maximum(d, 0.0))
            factor[k, k] = root
            if k + 1 < n:
                keep = d > floor
                col = a[k + 1:, k]
                # (np.count_nonzero is the cheapest test of a mask)
                if np.count_nonzero(keep) < m:
                    # under a pivot counted as zero a PSD matrix has no
                    # entry beyond sqrt(tol * scale * B_ii), which is at
                    # most sqrt(tol) * scale
                    wide.append((k, ~keep & (np.abs(col).max(axis=0)
                                             > floor / _PSD_SQRT_TOL)))
                col = np.where(keep, col / np.where(keep, root, 1.0), 0.0)
                factor[k + 1:, k] = col
                a[k + 1:, k + 1:] -= col[:, None] * col[None, :]
        factor = factor.transpose(2, 0, 1)
    bad = pivots < -floor               # (pivot, matrix)
    for k, fails in wide:
        bad[k] |= fails
    if np.count_nonzero(bad):
        i = int(np.argmax(bad.any(axis=0)))
        k = int(np.argmax(bad[:, i]))
        d = pivots[k, i]
        why = (f"negative beyond tolerance {floor[i]:.3e}" if d < -floor[i]
               else "too small for the column below it")
        raise NotPsdError(f"pivot {k} is {d:.6e}, {why}",
                          tuple(int(j) for j in
                                np.unravel_index(i, b.shape[:-2])))
    return factor.reshape(b.shape)


def _sqrt_outcome(sqrt, b):
    """A noise factor's bits, or the type, message and index of the error
    it raised."""
    try:
        return sqrt(b).tobytes()
    except (NotPsdError, NotSymmetricError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "index", None)


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

    @given(_psd_stacks(),
           st.lists(st.sampled_from([0.0, 0.0, 1e-9, -1e-12, -1e-6, -1.0]),
                    min_size=8, max_size=8))
    @example(case=(np.array([[[1.0, 2.0], [2.0, 1.0]]]), np.zeros(2)),
             shifts=[0.0] * 8)
    @example(case=(np.array([[[0.0, 1.0], [1.0, 0.0]]]), np.zeros(2)),
             shifts=[0.0] * 8)
    @example(case=(np.array([[[0.0, 1.0], [0.0, 0.0]]]), np.zeros(2)),
             shifts=[0.0] * 8)
    def test_same_bits_and_errors_as_the_column_loop(self, case, shifts):
        b = case[0] + np.diag(shifts[:case[0].shape[-1]])
        assert _sqrt_outcome(matrix_sqrt_psd, b) == \
            _sqrt_outcome(_reference_matrix_sqrt_psd, b)

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


# stacks of B = sum_c w_c d_c d_c^T over sparse integer vectors d_c, the
# form of a diffusion matrix, summed from +0.0 so that every entry that no
# d_c reaches is +0.0; each matrix has its own weights, zero among them
# (zero pivots).  Returned with the entries below the diagonal that some
# d_c reaches and a few more, which a pattern may hold too
@st.composite
def _pattern_stacks(draw):
    n = draw(st.integers(1, 8))
    count = draw(st.integers(1, 4))
    vectors = np.array(draw(st.lists(
        st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3]),
                 min_size=n, max_size=n), min_size=1, max_size=n + 2)),
        dtype=np.float64)
    weights = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.0, 1e-3, 1.0, 7.0, 1e3]),
        min_size=count * len(vectors), max_size=count * len(vectors))))
    b = np.zeros((count, n, n))
    for d, w in zip(vectors, weights.reshape(count, -1).T):
        b += w[:, None, None] * np.outer(d, d)
    lower = {(i, j) for d in vectors for i in range(n) for j in range(i)
             if d[i] and d[j]}
    extra = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    lower |= {(i, j) for i in range(n) for j in range(i) if extra[i * n + j]}
    return b, sorted(lower)


def _pattern_sqrt(lower):
    """The noise factor of a (count, n, n) stack taken as the
    Euler-Maruyama step takes it: one row per slot of the pattern of
    lower and its fill, each slot's entry of the stack (+0.0 on the fill,
    as every entry outside lower is there), and L's slots are scattered
    back to dense matrices."""
    def sqrt(b):
        count, n, _ = b.shape
        pattern = _FactorPattern(lower, n)
        a = np.array([b[:, i, k] for i, k in pattern.slots])
        return lower_stack(_semidefinite_factor(a, pattern, (count,)),
                           pattern)
    return sqrt


class TestPatternFactor:
    """The factor restricted to B's pattern and its symbolic fill has the
    dense loop's bits, and raises its errors."""

    @given(_pattern_stacks(),
           st.lists(st.sampled_from([0.0, 0.0, 1e-9, -1e-12, -1e-6, -1.0]),
                    min_size=8, max_size=8))
    @example(case=(np.array([[[1.0, 2.0], [2.0, 1.0]]]), [(1, 0)]),
             shifts=[0.0] * 8)
    @example(case=(np.array([[[0.0, 1.0], [1.0, 0.0]]]), [(1, 0)]),
             shifts=[0.0] * 8)
    def test_same_bits_and_errors_as_the_dense_loop(self, case, shifts):
        b, lower = case
        b = b + np.diag(shifts[:b.shape[-1]])
        assert _sqrt_outcome(_pattern_sqrt(lower), b) == \
            _sqrt_outcome(matrix_sqrt_psd, b)

    @pytest.mark.parametrize("n", [3, 8, 50])
    def test_ring_fill(self, n):
        # a ring in its own order fills in the last row only: 3n - 3
        # entries on and below the diagonal
        lower = sorted({(max(i, (i + 1) % n), min(i, (i + 1) % n))
                        for i in range(n)})
        pattern = _FactorPattern(lower, n)
        assert pattern.columns == tuple(
            (k + 1, n - 1) if k < n - 2 else tuple(range(k + 1, n))
            for k in range(n))
        assert sum(map(len, pattern.rows())) == 3 * n - 3
        # B and L are held in one row per entry of L's pattern, 2n of
        # them B's own: the diagonal and the ring's edges
        assert len(pattern.slots) == 3 * n - 3
        assert sum(i == k or (i, k) in lower for i, k in pattern.slots) == \
            2 * n

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_dense_slots_hold_the_diagonal_then_each_column(self, n):
        # matrix_sqrt_psd's pattern: n(n+1)/2 slots, the pivots first,
        # then each column's rows as one slice
        pattern = _FactorPattern([(i, j) for i in range(n)
                                  for j in range(i)], n)
        assert len(pattern.slots) == n * (n + 1) // 2
        assert pattern.slots == tuple((k, k) for k in range(n)) + tuple(
            (i, k) for k in range(n) for i in range(k + 1, n))
        start = n
        for k, step in enumerate(pattern.steps):
            if k == n - 1:
                assert step is None
                continue
            assert step[0] == slice(start, start + n - 1 - k)
            start = step[0].stop

    def test_a_zero_sign_is_all_that_can_differ(self):
        # B_21 = -0.0 inside the pattern: the dense loop subtracts
        # L_20 L_10 = +0.0 * -1.0 from it and gets +0.0, the pattern loop
        # skips that update; the noise rows sum both zeros alike
        b = np.array([[[1.0, -1.0, 0.0], [-1.0, 2.0, -0.0],
                       [0.0, -0.0, 1.0]]])
        dense = matrix_sqrt_psd(b)
        restricted = _pattern_sqrt([(1, 0), (2, 1)])(b)
        assert np.array_equal(dense, restricted)
        assert math.copysign(1.0, dense[0, 2, 1]) == 1.0
        assert math.copysign(1.0, restricted[0, 2, 1]) == -1.0


class TestEmStepSource:
    """The generated Euler-Maruyama step sums each noise row as einsum
    does, and its source grows with the factor's pattern."""

    @pytest.mark.parametrize("n, sparse", [(1, False), (2, False),
                                           (3, False), (8, False),
                                           (3, True), (8, True)])
    def test_noise_rows_have_the_bits_of_einsum(self, n, sparse):
        # the step runs on a factor with zero entries below the diagonal
        # too; -0.0 states and dt make x + d dt equal -0.0, the identity
        # of float addition, so each proposal row is the noise row itself.
        # A sparse step sums only its rows' entries: the factor holds
        # +0.0 or -0.0 at every other entry, which einsum adds
        rng = np.random.default_rng(n)
        for _ in range(20):
            count = int(rng.integers(200, 1001))
            lower = np.tril(rng.standard_normal((count, n, n)))
            lower[rng.random(lower.shape) < 0.2] = 0.0
            rows = [range(i + 1) for i in range(n)]
            if sparse:
                rows = [sorted({*np.flatnonzero(rng.random(i) < 0.5).tolist(),
                                i}) for i in range(n)]
                outside = np.tril(np.ones((n, n), dtype=bool))
                for i, row in enumerate(rows):
                    outside[i, row] = False
                signs = np.where(rng.random((count, n, n)) < 0.5, -0.0, 0.0)
                lower[:, outside] = signs[:, outside]
            # the factor in slot layout: one row per entry the step reads
            slots = [(i, j) for i, row in enumerate(rows) for j in row]
            pairs = [[(slots.index((i, j)), j) for j in row]
                     for i, row in enumerate(rows)]
            entries = tuple(zip(*slots))
            eps = rng.standard_normal((n, count))
            source, namespace = _em_step_source(n, pairs)
            namespace.update({
                "values": lambda x: np.zeros((n + len(slots), count)),
                "factor": lambda a, pattern, batch:
                    np.ascontiguousarray(lower[(slice(None), *entries)].T),
                "pattern": None, "dt": -0.0, "sqrt_dt": 1.0})
            exec(source, namespace)
            out = namespace["em_step"](np.full((n, count), -0.0), eps)
            want = np.einsum("tij,tj->ti", lower, eps.T)
            assert out.tobytes() == np.ascontiguousarray(want.T).tobytes()

    def test_ring_step_and_check_grow_linearly(self):
        # on a ring the step holds one term per entry of the factor's
        # pattern, 3n - 3, and compiles B on those slots, 2n of them
        # nonzero and the rest the zero polynomial; check
        # compares the n + n entries of B's upper triangle that a channel
        # moves.  Dense, the step held n(n+1)/2 terms and check compared
        # n^2 entries.  The step's lines grow by one statement per term
        # position of the noise row with most entries, the last, which
        # has n, and by nothing else
        terms, compiled, compared, lines = {}, {}, {}, {}
        for n in (16, 32):
            scheme = parse_scheme("".join(
                f"3 x{i} <-> 3 x{i % n + 1} @ a_{i}, b_{i}\n"
                for i in range(1, n + 1)))
            model = build_sde_model(scheme, RateMode.EXACT,
                                    DiffusionSign.SUM,
                                    NoiseStrategy.MATRIX_SQRT)
            pattern = _diffusion_pattern(model.diffusion)
            source, constants = _em_step_source(n, pattern.rows())
            # the noise terms: the factor's rows that the step gathers
            gather = re.search(r"f\.take\((k\d+), 0\)", source).group(1)
            terms[n] = len(constants[gather])
            slots = [model.diffusion[k][i] for i, k in pattern.slots]
            compiled[n] = len(slots), sum(map(bool, slots))
            compared[n] = len(_compared_entries(scheme, model.diffusion))
            lines[n] = len(source.splitlines())
            assert source.count("factor(") == 1
        assert terms == {16: 3 * 16 - 3, 32: 3 * 32 - 3}
        assert compiled == {16: (3 * 16 - 3, 2 * 16),
                            32: (3 * 32 - 3, 2 * 32)}
        assert compared == {16: 2 * 16, 32: 2 * 32}
        assert lines[32] - lines[16] == 16

    def test_a_ring_step_holds_no_dense_stack(self):
        # a 100-species ring at 512 paths: B and L take one row per entry
        # of L's pattern, 297 rows of 4 kB each, where an (n, n, T) stack
        # takes 41 MB
        n, count = 100, 512
        scheme = parse_scheme("".join(
            f"3 x{i} <-> 3 x{i % n + 1} @ a_{i}, b_{i}\n"
            for i in range(1, n + 1)))
        model = build_sde_model(scheme, RateMode.EXACT, DiffusionSign.SUM,
                                NoiseStrategy.MATRIX_SQRT)
        config = SimConfig(rates={r: 0.01 for r in model.rate_symbols},
                           initial_state=(10.0,) * n, t_final=1.0)
        stepper = _EmStepper(model, config)
        rng = np.random.default_rng(0)
        states = rng.uniform(5.0, 20.0, (n, count))
        eps = rng.standard_normal((n, count))
        tracemalloc.start()
        try:
            stepper.step(states, eps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


_ROW_SYMS = (species("x"), species("y"), species("z"))
# coefficients from a small set, so that terms and polynomials share
# products, of either sign, and 1 and -1, which start no product
_ROW_COEFFICIENTS = [1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3),
                     Fraction(7, 2), Fraction(1, 10 ** 400)]
# +-0.0, subnormals, +-inf, NaN and values whose powers overflow
_ROW_VALUES = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
               1e300, -1e300, 1.0, -2.5, 0.1, 3.0]


@st.composite
def _row_polynomials(draw):
    """Polynomials in x, y, z with powers up to 5, some constant terms,
    and now and then the zero polynomial or one negated."""
    polys = []
    for _ in range(draw(st.integers(1, 5))):
        terms = draw(st.lists(st.tuples(
            st.sampled_from(_ROW_COEFFICIENTS),
            st.lists(st.integers(0, 5), min_size=3, max_size=3)),
            max_size=8))
        p = Polynomial.zero()
        for c, powers in terms:
            p = p + monomial(c, dict(zip(_ROW_SYMS, powers)))
        polys.append(p)
        if draw(st.booleans()):
            polys.append(-p)
    return polys


def _same_values_as_as_function(polys, rows) -> None:
    """The row program gives every value as_function gives, bit for bit
    (compared as int64 views), and NaN where it gives NaN.  Which NaN
    operand's sign and payload a sum or product keeps is up to the order
    in which numpy's kernels take their operands, which changes with an
    array's length and layout: 0.0 + NaN + -NaN is NaN in a row of 7
    and -NaN in the second of two.  No value of a path is kept past its
    first non-finite state, so no output depends on those bits."""
    x = np.array(rows, dtype=np.float64)
    with np.errstate(all="ignore"):
        got = _row_program(polys, _ROW_SYMS)(x)
        want = as_function(polys, _ROW_SYMS)(*x)
    assert got.shape == (len(polys), x.shape[1])
    for k, value in enumerate(want):
        expected = np.broadcast_to(np.float64(value), x.shape[1:])
        nan = np.isnan(expected)
        assert np.isnan(got[k]).tolist() == nan.tolist(), k
        assert got[k][~nan].view(np.int64).tolist() == \
            expected[~nan].view(np.int64).tolist(), k


class TestRowProgram:
    """The Euler-Maruyama step's row program evaluates polynomials with
    the bits of as_function: products from c left to right, sums from
    0.0 in storage order, signs folded only into products of one sign."""

    @given(_row_polynomials(),
           st.lists(st.lists(st.sampled_from(_ROW_VALUES), min_size=7,
                             max_size=7), min_size=3, max_size=3))
    @example(polys=[Polynomial.zero(), parse_expression("x - 2*x*y + 3")],
             rows=[[-0.0, math.inf, math.nan, 5e-324, 1e300, 1.0, 0.0]] * 3)
    def test_values_have_the_bits_of_as_function(self, polys, rows):
        _same_values_as_as_function(polys, rows)

    def test_a_sum_longer_than_a_line(self):
        # as_function continues a sum this long over several statements;
        # the row program takes it one term position at a time
        p = sum((monomial(Fraction((-1) ** (a + b + c), a + 2 * b + 3),
                          {_ROW_SYMS[0]: a, _ROW_SYMS[1]: b,
                           _ROW_SYMS[2]: c})
                 for a in range(7) for b in range(7) for c in range(7)),
                Polynomial.zero())
        assert len(p.terms) > _TERMS_PER_LINE
        rows = [[0.5, -1.25, 1.0, -0.0, 1e300, math.nan, 2.0],
                [1.0, 0.9, -0.3, 1.1, -1e-300, 3.0, math.inf],
                [-1.0, 1.1, 0.7, 0.0, 2.0, -2.0, 0.5]]
        _same_values_as_as_function([p, -p, Polynomial.zero(), p], rows)

    def test_a_sum_that_cancels_to_zero_and_stops(self):
        # x - y cancels to +0.0 at x = y, and a -0.0 term leaves it +0.0,
        # while the longer sums go on over later term positions; 2*x at
        # x = -0.0 is 0.0 + -0.0, which is +0.0
        polys = [parse_expression("x - y + z", _ROW_SYMS),
                 parse_expression("x + y + z + x*y + x*z + y*z + x*y*z",
                                  _ROW_SYMS),
                 parse_expression("2*x", _ROW_SYMS)]
        rows = [[1.5, -0.0, 3.0, math.inf], [1.5, -0.0, 3.0, math.inf],
                [-0.0, -0.0, -0.0, 1.0]]
        _same_values_as_as_function(polys, rows)
        with np.errstate(all="ignore"):
            got = _row_program(polys, _ROW_SYMS)(np.array(rows))
        assert got[0].view(np.int64).tolist()[:3] == [0, 0, 0]
        assert got[2].view(np.int64).tolist()[1] == 0

    def test_blocks_of_columns_have_the_bits_of_one(self, monkeypatch):
        # a bank narrower than the states takes them a block of columns
        # at a time, into the same bits
        polys = [parse_expression("x^3 - 2*x*y + z^2 - 1/3", _ROW_SYMS),
                 parse_expression("-x*y*z + 7/2*y^2", _ROW_SYMS)]
        rng = np.random.default_rng(5)
        x = rng.choice(_ROW_VALUES, (3, 37))
        with np.errstate(all="ignore"):
            whole = _row_program(polys, _ROW_SYMS)(x)
            monkeypatch.setattr(sim_module, "_BANK_FLOATS", 64)
            blocks = _row_program(polys, _ROW_SYMS)
            assert blocks(x).tobytes() == whole.tobytes()
            # a second call reuses the block's bank
            assert blocks(x[:, :5]).tobytes() == whole[:, :5].tobytes()
            assert blocks(x).tobytes() == whole.tobytes()


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
            # species rows and Wiener rows, one column per state
            stepper.step(np.array(states).T, np.zeros((len(syms), 3)))
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
        # death competes with the growth from x = 1: trajectories 0 to 6
        # are still finite when trajectory 7 has overflowed
        ("x -> 2 x @ k_1\n2 x -> 3 x @ k_2\nx -> 0 @ k_3\n", (1, 1, 3),
         (1.0,), NegativePolicy.CLAMP_ZERO, "trajectory 7 .* t = 0\\.5:"),
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
        e = trajectory_rng(0, 0, Stream.SSA_WAITS).standard_exponential()
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


def _ensemble(paths: np.ndarray, times: np.ndarray,
              engine: Engine = Engine.EULER_MARUYAMA) -> TrajectoryEnsemble:
    return TrajectoryEnsemble(
        engine=engine,
        species=_writer_species(paths.shape[2]), times=times, paths=paths,
        clamp_events=np.zeros(paths.shape[0], dtype=np.int64))


def _counts(seed: int, shape, top: float) -> np.ndarray:
    """Counts as the jump sampler records them, each at most top and the
    table-size limit, and one of them top."""
    size = int(np.prod(shape))
    limit = size // _CSV_VALUES_PER_COUNT
    rng = np.random.default_rng(seed)
    paths = rng.integers(0, min(top, limit) + 1, size).astype(np.float64)
    paths[size // 2] = top
    return paths.reshape(shape)


# 1,600 values: the count table takes counts up to 25
_SHAPE = (10, 20, 8)
_LIMIT = 1600 // _CSV_VALUES_PER_COUNT


def _repr_calls(monkeypatch, ensemble: TrajectoryEnsemble) -> tuple:
    """The trajectory CSV and how often the writer's float-text kernel
    called repr."""
    calls = []

    def counted(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(floattext_module, "repr", counted, raising=False)
    return trajectories_to_csv(ensemble), len(calls)


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


def _lotka_volterra_ensemble(engine: Engine) -> TrajectoryEnsemble:
    """An ensemble of the lotka-volterra benchmark's shape: x and y from 20,
    1,000 paths on 10 grid points to t=1, per-reaction noise."""
    scheme = parse_scheme(LOTKA_VOLTERRA)
    rates = {rate("k_1"): 1.0, rate("k_2"): 0.05, rate("k_3"): 1.0}
    config = SimConfig(rates=rates, initial_state=(20.0, 20.0),
                       t_final=1.0, dt=2e-3, trajectories=1000, base_seed=3,
                       grid_points=10)
    if engine is Engine.SSA:
        return gillespie_ssa(scheme, config)
    return euler_maruyama(build_sde_model(
        scheme, RateMode.EXACT, DiffusionSign.SUM,
        NoiseStrategy.PER_REACTION), config)


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

    @given(n=st.integers(1, 8), count=st.integers(1, 50),
           grid=st.integers(2, 20), seed=_writer_seeds)
    @example(n=8, count=50, grid=20, seed=1)
    def test_jump_sampler_counts(self, n, count, grid, seed):
        """Counts up to the table-size limit, as the jump sampler records
        them: the writer takes their strings from its count table."""
        limit = count * grid * n // _CSV_VALUES_PER_COUNT
        paths = np.random.default_rng(seed).integers(
            0, limit + 1, (count, grid, n)).astype(np.float64)
        ensemble = _ensemble(paths, np.linspace(0.0, 1.0, grid), Engine.SSA)
        assert trajectories_to_csv(ensemble) == \
            _reference_trajectories_to_csv(ensemble)

    @pytest.mark.parametrize("top", [0, 1, _LIMIT, _LIMIT + 1, 2 ** 53 - 1,
                                     1e16, 123456789012345678.0])
    @pytest.mark.parametrize("engine", [Engine.SSA, Engine.EULER_MARUYAMA])
    def test_counts_at_the_table_limit(self, monkeypatch, top, engine):
        """The table holds one cell per count 0 ... top, up to the limit;
        past it, or for Euler-Maruyama, each value gets its own cell.  A
        count of 1e16 or more prints in exponent notation either way.  The
        kernel hands repr only the count top, and only where it is 2**50
        or more, past the plain-notation range it writes itself."""
        ensemble = _ensemble(_counts(3, _SHAPE, top),
                             np.linspace(0.0, 1.0, 20), engine)
        text, calls = _repr_calls(monkeypatch, ensemble)
        assert text == _reference_trajectories_to_csv(ensemble)
        assert calls == (1 if top >= 2 ** 50 else 0)
        assert (",1e+16" in text) == (top == 1e16)

    @pytest.mark.parametrize("value, reprs", [
        (0.5, 0), (-0.0, 0), (math.nan, 1), (math.inf, 1), (-math.inf, 1),
        (-1.0, 0), (1e300, 1)])
    def test_values_that_are_no_count(self, monkeypatch, value, reprs):
        """An ensemble labelled as the jump sampler's that holds a value
        other than a count gets repr's bytes, a cell per value; the kernel
        hands repr NaN, the infinities and exponent notation only."""
        paths = _counts(3, _SHAPE, 7)
        paths[4, 11, 2] = value
        ensemble = _ensemble(paths, np.linspace(0.0, 1.0, 20), Engine.SSA)
        text, calls = _repr_calls(monkeypatch, ensemble)
        assert text == _reference_trajectories_to_csv(ensemble)
        assert calls == reprs

    def test_verhulst_euler_maruyama_values_take_no_repr(self, monkeypatch):
        """Every value and grid time of the verhulst benchmark's
        Euler-Maruyama ensemble lies in the kernel's own range."""
        ensemble = _verhulst_ensemble(Engine.EULER_MARUYAMA)
        text, calls = _repr_calls(monkeypatch, ensemble)
        assert calls == 0
        assert text == _reference_trajectories_to_csv(ensemble)

    def test_no_trajectories(self):
        ensemble = _ensemble(np.empty((0, 5, 2)), np.linspace(0.0, 1.0, 5),
                             Engine.SSA)
        assert trajectories_to_csv(ensemble) == \
            _reference_trajectories_to_csv(ensemble) == "trajectory,t,x0,x1\n"

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


def _field_texts(values) -> list[str]:
    """The bytes of each row of _float_fields(values), NULs dropped."""
    return [row.tobytes().replace(b"\0", b"").decode("ascii")
            for row in _float_fields(values)]


def _with_neighbours(values) -> np.ndarray:
    """values, their negations, and the floats on either side of each."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, -values])
    with np.errstate(over="ignore"):    # past the largest float: inf
        return np.concatenate([values, np.nextafter(values, -np.inf),
                               np.nextafter(values, np.inf)])


class TestFloatText:
    """The writers' float-text kernel gives every float the bytes of its
    repr: Ryu's digits in plain notation for 1e-4 <= |x| < 2**50 and the
    signed zeros, and repr's own text for everything else."""

    @staticmethod
    def assert_reprs(values) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        assert _field_texts(values) == [repr(v) for v in values.tolist()]

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_random_bit_patterns(self, words):
        """Any 64-bit pattern, of either sign."""
        self.assert_reprs(np.array(words, dtype=np.uint64).view(np.float64))

    @given(st.lists(st.tuples(st.floats(1e-4, 2.0 ** 50, exclude_max=True),
                              st.booleans()), min_size=1, max_size=64))
    def test_random_values_the_kernel_writes(self, values):
        self.assert_reprs([-v if negative else v for v, negative in values])

    def test_every_exponent_the_kernel_writes(self):
        """Random mantissas at each exponent from 2**-14 to 2**49, with the
        extreme mantissas and both signs."""
        rng = np.random.default_rng(7)
        exponents = np.repeat(np.arange(1009, 1073, dtype=np.uint64), 500)
        mantissas = rng.integers(0, 2 ** 52, exponents.size, dtype=np.uint64)
        mantissas[::500] = 0
        mantissas[1::500] = 2 ** 52 - 1
        signs = rng.integers(0, 2, exponents.size, dtype=np.uint64)
        self.assert_reprs((signs << np.uint64(63) | exponents << np.uint64(52)
                           | mantissas).view(np.float64))

    def test_subnormals_and_the_extremes(self):
        subnormals = np.random.default_rng(8).integers(
            1, 2 ** 52, 1000, dtype=np.uint64).view(np.float64)
        self.assert_reprs(_with_neighbours(np.concatenate([
            subnormals, [5e-324, 1e-323, 2.225073858507201e-308,
                         2.2250738585072014e-308, 1.7976931348623157e308]])))

    def test_powers_of_ten_and_their_multiples(self):
        """10**e times 1, 2, 5, 9, 25, 125 and 999 over every decade, and
        one ulp either side of each."""
        values = [float(f"{m}e{e}") for e in range(-324, 309)
                  for m in (1, 2, 5, 9, 25, 125, 999)]
        values = np.array(values)
        self.assert_reprs(_with_neighbours(values[np.isfinite(values)]))

    def test_halfway_values(self):
        """k + 0.5, whose shortest digits end in the 5 of a tie."""
        k = np.concatenate([np.arange(10 ** 5), 2 ** 49 - np.arange(1000),
                            10 ** np.arange(16) + 3])
        self.assert_reprs(_with_neighbours(k + 0.5))

    def test_integers_near_the_limits(self):
        """Integers near 2**50, the kernel's end, and near 2**53, where the
        spacing of the floats grows past 1."""
        near = np.arange(-1000, 1001)
        self.assert_reprs(_with_neighbours(np.concatenate(
            [2.0 ** 50 + near, 2.0 ** 53 + 2 * near, 10.0 ** 15 + near])))

    def test_both_sides_of_the_notation_switch(self):
        self.assert_reprs(_with_neighbours([
            1e-4, 1e-5, 0.00011, 0.00099999999999999999, 0.001, 1e15, 1e16,
            9999999999999998.0, 123456789012345678.0, 0.0001234567890123456,
            0.0009876543210987654]))

    def test_signed_zeros_infinities_and_nan(self):
        self.assert_reprs([0.0, -0.0, math.inf, -math.inf, math.nan,
                           -math.nan])

    @pytest.mark.parametrize("engine", [Engine.EULER_MARUYAMA, Engine.SSA])
    @pytest.mark.parametrize("make", [_verhulst_ensemble,
                                      _lotka_volterra_ensemble,
                                      _ring8_ensemble])
    def test_benchmark_ensembles(self, make, engine):
        """The ensembles of the three benchmark workloads' shapes."""
        ensemble = make(engine)
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

    def test_peak_with_the_largest_count_table(self):
        """The same bound on ring8's jump-sampler paths with one count
        raised to the table-size limit, where the table is largest."""
        ensemble = _ring8_ensemble(Engine.SSA)
        limit = ensemble.paths.size // _CSV_VALUES_PER_COUNT
        ensemble.paths[100, 25, 4] = limit
        assert len(sim_module._count_strings(ensemble)) == limit + 1
        _assert_csv_peak_near_output(ensemble)


# The engines as they were when the jump sampler summed its channel rates
# in a Python loop and Euler-Maruyama compiled its drift and its noise as
# two functions, with sim.symmetric_matrices as it was before it went
# (bodies verbatim, names prefixed); the engines must give the same bits.


def _reference_symmetric_matrices(values, count: int, n: int) -> np.ndarray:
    """A (count, n, n) stack of symmetric matrices from the values of
    their upper triangles' entries (i <= j) in row-major order.

    The stack is a view of an entry-major (n, n, count) buffer, so
    matrix_sqrt_psd's copy into its entry-major layout reads contiguous
    rows."""
    out = np.empty((n, n, count))
    upper = ((i, j) for i in range(n) for j in range(i, n))
    for (i, j), v in zip(upper, values):
        out[i, j] = out[j, i] = v
    return out.transpose(2, 0, 1)


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
        bmat = _reference_symmetric_matrices(self.diffusion_fn(*states.T),
                                             count, self.n)
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
        # row i is 0.0 + L_i0 e_0 + ... + L_ii e_i, added left to right;
        # einsum's order depends on the stack's shape and strides
        out = np.empty(eps.shape)
        for i in range(self.n):
            z = 0.0
            for j in range(i + 1):
                z = z + root[:, i, j] * eps[:, j]
            out[:, i] = z
        return out


# overflow is not reported as it happens: it leaves a non-finite state (a
# NaN stays NaN), which stops the run at the next grid time
@np.errstate(over="ignore", invalid="ignore")
def _reference_euler_maruyama(model: SdeModel,
                              config: SimConfig) -> TrajectoryEnsemble:
    """Fixed-step Euler-Maruyama: phi += A dt + noise sqrt(dt), with the
    noise increment b(phi) eps for standard normal eps.

    Negative proposals follow config.negative_policy: clamp to zero (and
    count the event) or redraw the step's noise up to a retry limit.
    Path j draws each step's noise from its EM_NORMALS stream and each
    redraw from its EM_REDRAWS stream.
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
    gens = [reference_stream(config.base_seed, j, EM_NORMALS)
            for j in range(t_count)]
    redraws = [reference_stream(config.base_seed, j, EM_REDRAWS)
               for j in range(t_count)]

    g = 0
    step = 0
    while g < len(times) and grid_at[g] == 0:
        paths[:, g] = states
        g += 1
    m = stepper.wiener_dim
    while step < nsteps:
        eps = np.array([gen.standard_normal(m) for gen in gens])
        drift = stepper.drift(states)
        noise = stepper.noise(states, eps)
        proposal = states + drift * dt + noise * sqrt_dt
        bad = proposal < 0
        if bad.any():
            if reject:
                for j in np.nonzero(bad.any(axis=1))[0]:
                    proposal[j] = _reference_retry_step(
                        stepper, states[j], redraws[j], dt, sqrt_dt)
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
    must be integral.  Path j draws its waiting times, one at a time, from
    its SSA_WAITS stream and its channel choices from its SSA_CHOICES
    stream.  A trajectory that needs more than _SSA_EVENT_BUDGET events
    raises SimulationError.
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
        waits = reference_stream(config.base_seed, j, SSA_WAITS)
        choices = reference_stream(config.base_seed, j, SSA_CHOICES)
        events = 0
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
            if events == _SSA_EVENT_BUDGET:
                raise SimulationError(
                    f"trajectory {j} used up its budget of "
                    f"{_SSA_EVENT_BUDGET} jump events at t = {t!r}: "
                    "the model may blow up in finite time, or t_final "
                    "needs more jump events than the budget")
            events += 1
            t_next = t + waits.standard_exponential() / total
            while g < g_count and grid[g] < t_next:
                paths[j, g] = state
                g += 1
            if t_next > t_final or g >= g_count:
                while g < g_count:
                    paths[j, g] = state
                    g += 1
                break
            u = choices.random() * total
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
        # a small event budget, not a multiple of the sampler's chunk,
        # keeps blow-ups cheap and exercises it
        with pytest.MonkeyPatch.context() as mp:
            for module in ("onestep.sim", __name__):
                mp.setattr(sys.modules[module], "_SSA_EVENT_BUDGET", 4001)
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
    # a dense 3-species B whose rejected steps are redrawn one path at a
    # time: einsum summed those (1, 3, 3) stacks in another order
    @example(seed=7969, rates=[0.5, 0.5, 0.0, 0.0], initial=[3], base_seed=0,
             mode=RateMode.FOKKER_PLANCK, sign=DiffusionSign.DIFFERENCE,
             noise=NoiseStrategy.MATRIX_SQRT,
             policy=NegativePolicy.REJECT_STEP)
    @example(seed=1243, rates=[0.5], initial=[3], base_seed=27,
             mode=RateMode.EXACT, sign=DiffusionSign.DIFFERENCE,
             noise=NoiseStrategy.MATRIX_SQRT,
             policy=NegativePolicy.REJECT_STEP)
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

    @pytest.mark.parametrize("noise", list(NoiseStrategy))
    @pytest.mark.parametrize("policy", list(NegativePolicy))
    @pytest.mark.parametrize("text, values, initial, t_final, dt", [
        (VERHULST, {"lambda": 1.0, "beta": 0.2, "gamma": 0.05}, (10,), 2.0,
         1e-3),
        (LOTKA_VOLTERRA, {"k_1": 1.0, "k_2": 0.05, "k_3": 1.0}, (20, 20),
         1.0, 2e-3),
        # B vanishes at (0, 0): pivot 0 counts as zero and its column
        # test runs; from (1, 0) pivot 1 is zero until y grows
        (LOTKA_VOLTERRA, {"k_1": 1.0, "k_2": 0.05, "k_3": 1.0}, (0, 0),
         1.0, 2e-3),
        (LOTKA_VOLTERRA, {"k_1": 1.0, "k_2": 0.05, "k_3": 1.0}, (1, 0),
         1.0, 2e-3),
        (RING8, {**{f"a_{i}": 1e-4 for i in range(1, 9)},
                 **{f"b_{i}": 5e-5 for i in range(1, 9)}}, (100,) * 8, 0.1,
         1e-3),
        # long rows of the factor's pattern (its last row has 25 entries)
        # and slots that do not run consecutively, on a ring whose names
        # x10 ... x25 sort between x1 and x2
        pytest.param(_ring_text(25),
                     {**{f"a_{i}": 1e-4 for i in range(1, 26)},
                      **{f"b_{i}": 5e-5 for i in range(1, 26)}},
                     (100,) * 25, 0.05, 1e-3, id="ring25")])
    def test_euler_maruyama_on_benchmark_schemes(self, text, values, initial,
                                                 t_final, dt, policy, noise):
        """The benchmark's schemes, rates and starts, the predator-prey
        model from where its B has zero pivots, and a longer ring."""
        model = build_sde_model(parse_scheme(text), RateMode.EXACT,
                                DiffusionSign.SUM, noise)
        config = SimConfig(rates={rate(k): v for k, v in values.items()},
                           initial_state=initial, t_final=t_final, dt=dt,
                           trajectories=20, base_seed=4,
                           negative_policy=policy, grid_points=11)
        new = _outcome(euler_maruyama, model, config)
        assert new == _outcome(_reference_euler_maruyama, model, config)
        assert isinstance(new[0], bytes)


class TestPerReactionNoise:
    """Per-reaction noise sums sqrt(a_r) eps_r change_r through a matrix
    product, whose order of additions, and whether it fuses a multiply
    into an add, is the BLAS kernel's.  Where every change is +-1 or +-2
    and at most two channels move a species, each product is exact and
    each sum has at most two nonzero terms, so any kernel gives the bits
    of a left-to-right sum."""

    def test_predator_prey_rows_are_a_left_to_right_sum(self, monkeypatch):
        seen = []

        def recorded(rates, eps, change):
            out = _per_reaction_noise(rates, eps, change)
            # (the step scales the rows in place)
            seen.append((rates.copy(), eps.copy(), change, out.copy()))
            return out
        monkeypatch.setattr(sim_module, "_per_reaction_noise", recorded)
        model = build_sde_model(parse_scheme(LOTKA_VOLTERRA), RateMode.EXACT,
                                DiffusionSign.SUM, NoiseStrategy.PER_REACTION)
        config = SimConfig(rates={rate("k_1"): 1.0, rate("k_2"): 0.05,
                                  rate("k_3"): 1.0},
                           initial_state=(20.0, 20.0), t_final=1.0, dt=2e-3)
        rng = np.random.default_rng(37)
        # every rate is positive, so no row is a sum of zeros alone, whose
        # sign would be the kernel's too
        states = rng.integers(1, 60, (2, 1000)).astype(np.float64)
        _EmStepper(model, config).step(states, rng.standard_normal((3, 1000)))
        [(rates, eps, change, out)] = seen
        assert change.tolist() == [[1, 0], [-1, 1], [0, -1]]
        want = np.empty(out.shape)
        for t in range(out.shape[0]):
            for i in range(change.shape[1]):
                z = 0.0
                for r in range(change.shape[0]):
                    z += math.sqrt(rates[r, t]) * eps[r, t] * change[r, i]
                want[t, i] = z
        assert out.tobytes() == want.tobytes()


class TestJumpSamplerParts:
    """The generated channel choice and the lockstep head's are bisect's,
    a re-keyed Philox is the trajectory's own stream, and paths of huge
    occupation numbers are stored as the reference stores them."""

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
        # the lockstep head's choice, for three paths at once: the count
        # of running sums before the total (never compared) that are <=
        # target, which is bisect_right's on nondecreasing sums, ties,
        # -0.0 and inf included (one channel: 0 for every path)
        if math.isnan(target):
            return
        ordered = sorted(c for c in partial if not math.isnan(c))
        sums = np.array([*ordered, 0.0])[:, None].repeat(3, 1)
        chosen = (sums[:-1] <= np.full(3, target)).sum(0)
        assert chosen.tolist() == [bisect.bisect_right(ordered, target)] * 3

    @pytest.mark.parametrize("stream", list(Stream))
    @pytest.mark.parametrize("base_seed, index", [
        (0, 0), (0, 1), (0, 2 ** 64 - 1), (1, 0), (1, 1), (1, 2 ** 64 - 2),
        (2 ** 64 - 1, 0), (2 ** 64 - 1, 2 ** 64 - 1), (2 ** 64 - 1, 5)])
    def test_rekeyed_philox_is_the_trajectory_stream(self, base_seed, index,
                                                     stream):
        # key words 0 and 2**64 - 1, in both places
        bits = np.random.Philox(key=12345)
        gen = np.random.Generator(bits)
        # the path before leaves a half-used buffer and a pending uint32
        gen.random(6)                   # six 64-bit words
        gen.integers(0, 2 ** 32, dtype=np.uint32)
        assert 0 < bits.state["buffer_pos"] < 4
        assert bits.state["has_uint32"] == 1
        _rekeyer(stream)(bits, base_seed, index)
        ref = trajectory_rng(base_seed, index, stream)
        for draw in ("standard_exponential", "random", "standard_normal"):
            got = getattr(gen, draw)(300)
            assert got.tobytes() == getattr(ref, draw)(300).tobytes()
        # a 32-bit draw would take a pending uint32 first
        assert gen.random(3, dtype=np.float32).tobytes() == \
            ref.random(3, dtype=np.float32).tobytes()
        assert _plain(bits.state) == _plain(ref.bit_generator.state)

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


class TestDrawsDoNotDependOnChunks:
    """Each consumer of draws reads its own stream in order, so no output
    bit depends on how many steps' noise Euler-Maruyama draws at once
    (_CHUNK_STEPS) or how many values the jump sampler draws at once
    (_SSA_CHUNK), and the event budget trips at its own count."""

    @pytest.mark.parametrize("noise", list(NoiseStrategy))
    @pytest.mark.parametrize("policy", list(NegativePolicy))
    def test_euler_maruyama(self, monkeypatch, policy, noise):
        model = build_sde_model(parse_scheme(LOTKA_VOLTERRA), RateMode.EXACT,
                                DiffusionSign.SUM, noise)
        config = SimConfig(rates=LV_RATES, initial_state=(3.0, 3.0),
                           t_final=1.0, dt=1e-3, trajectories=6,
                           base_seed=8, negative_policy=policy,
                           grid_points=11)
        # steps go negative, so the reject runs redraw
        clamped = euler_maruyama(model, SimConfig(
            rates=LV_RATES, initial_state=(3.0, 3.0), t_final=1.0, dt=1e-3,
            trajectories=6, base_seed=8, grid_points=11))
        assert clamped.clamp_events.all()
        expected = _outcome(euler_maruyama, model, config)
        assert isinstance(expected[0], bytes)
        for chunk in (1, 7, 1000):
            monkeypatch.setattr("onestep.sim._CHUNK_STEPS", chunk)
            assert _outcome(euler_maruyama, model, config) == expected

    @pytest.mark.parametrize("text, values, initial, t_final", [
        (LOTKA_VOLTERRA, {"k_1": 1.0, "k_2": 0.05, "k_3": 1.0}, (20, 20),
         1.0),
        (RING8, {**{f"a_{i}": 1e-4 for i in range(1, 9)},
                 **{f"b_{i}": 5e-5 for i in range(1, 9)}}, (100,) * 8, 0.1)])
    def test_jump_sampler(self, monkeypatch, text, values, initial, t_final):
        scheme = parse_scheme(text)
        config = SimConfig(rates={rate(k): v for k, v in values.items()},
                           initial_state=initial, t_final=t_final,
                           trajectories=10, base_seed=4, grid_points=11)
        expected = _outcome(gillespie_ssa, scheme, config)
        assert isinstance(expected[0], bytes)
        for chunk in (1, 3, 65, 1000):
            monkeypatch.setattr("onestep.sim._SSA_CHUNK", chunk)
            assert _outcome(gillespie_ssa, scheme, config) == expected

    @pytest.mark.parametrize("chunk", [64, 7])
    @pytest.mark.parametrize("budget", [1, 63, 64, 65, 200])
    def test_event_budget_trips_at_its_count(self, monkeypatch, budget,
                                             chunk):
        """At the constant total rate 1000, a path may take budget events
        and raises when it needs waiting time budget + 1: at the time of
        its last event, the sum of budget waiting times."""
        monkeypatch.setattr("onestep.sim._SSA_EVENT_BUDGET", budget)
        monkeypatch.setattr("onestep.sim._SSA_CHUNK", chunk)
        scheme = parse_scheme("0 -> x @ k\n")
        t = 0.0
        for e in reference_stream(5, 0, SSA_WAITS).standard_exponential(
                budget).tolist():
            t += e / 1000.0
        config = SimConfig(rates={rate("k"): 1000.0}, initial_state=(0,),
                           t_final=10.0, trajectories=1, base_seed=5)
        with pytest.raises(SimulationError, match=re.escape(
                f"trajectory 0 used up its budget of {budget} jump events "
                f"at t = {t!r}:")):
            gillespie_ssa(scheme, config)
        # when waiting time budget ends just past t_final, the path takes
        # budget - 1 events and stays within its budget
        t_final = float(np.nextafter(t, 0.0))
        config = SimConfig(rates={rate("k"): 1000.0}, initial_state=(0,),
                           t_final=t_final, dt=t_final, trajectories=1,
                           base_seed=5, grid_points=2)
        assert gillespie_ssa(scheme, config).paths[0, -1, 0] == budget - 1


# the perfbench workloads: scheme, rates, initial state, t_final,
# trajectories and grid points
_PERFBENCH = {
    "verhulst": (VERHULST, {"lambda": 1, "beta": Fraction(1, 5),
                            "gamma": Fraction(1, 20)}, (10,), 2.0, 500, 200),
    "lotka-volterra": (LOTKA_VOLTERRA, {"k_1": 1, "k_2": Fraction(1, 20),
                                       "k_3": 1}, (20, 20), 1.0, 1000, 10),
    "ring8": (RING8, {**{f"a_{i}": Fraction(1, 10000) for i in range(1, 9)},
                      **{f"b_{i}": Fraction(1, 20000) for i in range(1, 9)}},
              (100,) * 8, 0.1, 200, 50)}


def _perfbench_case(name: str, base_seed: int = 5):
    text, values, initial, t_final, count, grid = _PERFBENCH[name]
    return parse_scheme(text), SimConfig(
        rates={rate(k): v for k, v in values.items()},
        initial_state=initial, t_final=t_final, trajectories=count,
        base_seed=base_seed, grid_points=grid)


def _bits(engine, scheme, config):
    """An engine's paths as bit patterns, or the type and message of the
    SimulationError it raised."""
    try:
        return engine(scheme, config).paths.view(np.uint64)
    except SimulationError as exc:
        return type(exc).__name__, str(exc)


def _same_bits(scheme, config) -> bool:
    new = _bits(gillespie_ssa, scheme, config)
    old = _bits(scalar_gillespie_ssa, scheme, config)
    if isinstance(new, tuple) or isinstance(old, tuple):
        return new == old
    return np.array_equal(new, old)


def _head_stop(tails, end):
    """Why a lockstep head stopped at a chunk start: too few active paths
    (none, if it finished every path), or else the count of events it
    took (the budget, or where a count could reach 2**53 or a rate
    overflow within the next chunk)."""
    if len(tails) < sim_module._LOCKSTEP_MIN:
        return "too few paths"
    return end


@pytest.fixture
def heads(monkeypatch):
    """What each lockstep head returned: (tails, end), tails (j, state, t,
    g) per path that did not finish in the head, and end the values each
    of their streams has read."""
    calls = []
    head = sim_module._lockstep_head

    def spy(*args):
        tails, end = head(*args)
        calls.append((tails, end))
        return tails, end
    monkeypatch.setattr(sim_module, "_lockstep_head", spy)
    return calls


class TestLockstepHead:
    """The lockstep head advances all paths together, chunk of draws after
    chunk of draws, and hands the rest to the path loop at a chunk's end;
    every path keeps the bits of the path loop alone
    (scalar_gillespie_ssa), and every error its message."""

    @given(seed=st.integers(0, 10 ** 9), rates=_rate_values,
           initial=_initial_values, base_seed=st.integers(0, 2 ** 64 - 1),
           t_final=st.sampled_from([0.05, 0.5, 2.0]),
           chunk=st.sampled_from([1, 3, 7, 64]),
           count=st.integers(1, 6))
    # 3 x <-> 0 and y -> 0: channels of 3, 0 and 1 factors, two species
    @example(seed=7, rates=[1.0, 2.0, 0.5], initial=[4, 2], base_seed=1,
             t_final=2.0, chunk=3, count=4)
    # eight channels of 0 to 4 factors, one of them consuming nothing
    @example(seed=63, rates=[0.1, 0.3], initial=[5, 3], base_seed=2,
             t_final=0.5, chunk=7, count=5)
    @example(seed=20, rates=[2.0], initial=[6], base_seed=0,  # budget
             t_final=2.0, chunk=64, count=3)
    # a rate of 1e300: the rate bound stops the head after 8 chunks
    @example(seed=16, rates=[1e300, 0.5], initial=[4, 2], base_seed=1,
             t_final=2.0, chunk=7, count=4)
    def test_random_schemes_across_chunks(self, seed, rates, initial,
                                          base_seed, t_final, chunk, count):
        """Every path runs in the head until it ends or hands over at a
        chunk's end, through chunks of 1 to 64 draws."""
        scheme, values, state = _random_case(seed, rates, initial)
        config = SimConfig(rates=values, initial_state=state,
                           t_final=t_final, trajectories=count,
                           base_seed=base_seed, grid_points=7)
        with pytest.MonkeyPatch.context() as mp:
            for module in (sim_module, sys.modules["helpers"]):
                mp.setattr(module, "_SSA_EVENT_BUDGET", 4001)
            mp.setattr(sim_module, "_LOCKSTEP_MIN", 0)
            mp.setattr(sim_module, "_SSA_CHUNK", chunk)
            assert _same_bits(scheme, config)

    @pytest.mark.parametrize("least", [None, 0, "more"])
    @pytest.mark.parametrize("name", list(_PERFBENCH))
    def test_perfbench_workloads(self, monkeypatch, heads, name, least):
        scheme, config = _perfbench_case(name)
        if least is not None:
            monkeypatch.setattr(
                sim_module, "_LOCKSTEP_MIN",
                config.trajectories + 1 if least == "more" else least)
        assert _same_bits(scheme, config)
        [(tails, end)] = heads
        if least == "more":
            # too few paths at the first chunk start: the head takes none
            assert (len(tails), end) == (config.trajectories, 0)
        else:
            # the head took events: some paths finished in it, or left it
            # with events taken
            assert len(tails) < config.trajectories or end > 0

    @pytest.mark.parametrize("chunk", [1, 3, 64, 1000])
    @pytest.mark.parametrize("name", list(_PERFBENCH))
    def test_chunk_sizes(self, monkeypatch, heads, name, chunk):
        monkeypatch.setattr(sim_module, "_SSA_CHUNK", chunk)
        scheme, config = _perfbench_case(name, base_seed=6)
        assert _same_bits(scheme, config)
        # the head runs chunk after chunk until too few paths are left at
        # a chunk's start, and hands each over at the end of the chunk
        # before, or finishes every path
        [(tails, end)] = heads
        assert _head_stop(tails, end) == "too few paths"
        assert end % chunk == 0

    def test_absorbed_in_the_head(self, monkeypatch, heads):
        monkeypatch.setattr(sim_module, "_LOCKSTEP_MIN", 0)
        scheme = parse_scheme(PURE_DEATH)
        config = SimConfig(rates={rate("beta"): 1.0}, initial_state=(6,),
                           t_final=50.0, trajectories=100, base_seed=2,
                           grid_points=30)
        assert _same_bits(scheme, config)
        assert heads == [([], 64)]  # every path was absorbed in the head
        assert not gillespie_ssa(scheme, config).paths[:, -1].any()

    @pytest.mark.parametrize("text, values, initial", [
        # at x = 2 the second rate is 1e308 * 2 * 1 = inf
        ("x -> 2 x @ k\n2 x -> 3 x @ h\n", {"k": 1.0, "h": 1e308}, (1,)),
        # at x = 2 the second rate is 1e308 * 2 * 1 * 0 = nan
        ("x -> 2 x @ k\n3 x -> 0 @ h\n", {"k": 1.0, "h": 1e308}, (1,)),
        # rates that consume nothing are floats, and their sum is inf
        ("0 -> x @ k\n0 -> y @ h\n", {"k": 1e308, "h": 1e308}, (0, 0))])
    def test_rates_that_overflow(self, monkeypatch, heads, text, values,
                                 initial):
        """Where a total could be inf or NaN within a chunk the head stops
        at that chunk's start, here the first; the path loop then never
        moves t (inf) or stores NaN times (nan), and runs into its budget
        or absorbs."""
        for module in (sim_module, sys.modules["helpers"]):
            monkeypatch.setattr(module, "_SSA_EVENT_BUDGET", 300)
        monkeypatch.setattr(sim_module, "_LOCKSTEP_MIN", 0)
        scheme = parse_scheme(text)
        config = SimConfig(rates={rate(k): v for k, v in values.items()},
                           initial_state=initial, t_final=1.0,
                           trajectories=8, base_seed=3, grid_points=20)
        assert _same_bits(scheme, config)
        [(tails, end)] = heads
        assert (len(tails), end) == (8, 0)

    def test_rate_bound_stops_after_one_chunk(self, monkeypatch, heads):
        """y + z -> z never fires (z = 0), but its bound h * (y + 64) *
        (z + 64) grows with y, which rises by one each event: 1.5e304 * 64
        * 64 is below 2**1023, so the head runs its first chunk, and
        1.5e304 * 128 * 64 is not, so it stops at the second's start."""
        monkeypatch.setattr(sim_module, "_LOCKSTEP_MIN", 0)
        scheme = parse_scheme("0 -> y @ a\ny + z -> z @ h\n")
        config = SimConfig(rates={rate("a"): 1.0, rate("h"): 1.5e304},
                           initial_state=(0, 0), t_final=1000.0,
                           trajectories=4, base_seed=0, grid_points=20)
        assert _same_bits(scheme, config)
        [(tails, end)] = heads
        assert (len(tails), end) == (4, 64)
        assert {tuple(state) for _, state, *_ in tails} == {(64, 0)}

    def test_overflow_after_own_streams(self, monkeypatch, heads):
        """Past _SSA_OWN chunks a path in the head reads a pair of streams
        of its own, to the end of each chunk.  y + z -> z never fires (z
        = 0), but its bound 4e303 * (y + 64) * (z + 64) reaches 2**1023
        once the largest y is about 290, and the head stops at that
        chunk start; the path loop reads each path's own pair on from
        there."""
        monkeypatch.setattr(sim_module, "_LOCKSTEP_MIN", 0)
        scheme = parse_scheme("0 -> y @ a\n0 -> x @ c\nx -> 0 @ b\n"
                              "y + z -> z @ h\n")
        config = SimConfig(rates={rate("a"): 1.0, rate("c"): 4.0,
                                  rate("b"): 1.0, rate("h"): 4e303},
                           initial_state=(0, 0, 0), t_final=1000.0,
                           trajectories=4, base_seed=0, grid_points=20)
        assert _same_bits(scheme, config)
        [(tails, end)] = heads
        assert len(tails) == 4
        assert end > sim_module._SSA_OWN * sim_module._SSA_CHUNK
        assert end % sim_module._SSA_CHUNK == 0
        top = max(y for _, (y, _, _), *_ in tails)
        assert 4e303 * (top + 64) * 64 >= 2.0 ** 1023

    def test_tie_in_the_count_choice(self, monkeypatch):
        """u * total equal to a running sum picks the channel after it
        (bisect_right, as _choice_tree does): two channels of rate 1.0
        and every choice 0.5 give u * total = c0, so channel 1 fires at
        every event."""
        monkeypatch.setattr(sim_module, "_LOCKSTEP_MIN", 0)

        def draw(ids, start, waits, choices):
            waits[...] = 1.0
            choices[...] = 0.5
        channels = _channels("0 -> x @ a\n0 -> y @ b\n")
        # events at t = 0.5, 1.0 and 1.5; the one at 1.0 is not stored
        # at grid time 1.0
        flat = np.zeros((2 * 3, 2))
        tails, end = sim_module._lockstep_head(
            channels, [0, 0], np.linspace(0.0, 1.0, 3), flat, draw, 1000)
        assert (tails, end) == ([], 64)
        assert flat.tolist() == [[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]] * 2

    def test_counts_near_2_53_skip_the_head(self, monkeypatch, heads):
        """Beyond 2**53 the path loop's ints and float64 part: x + 1 from
        2**53 stays 2**53 in floats, and the head stops at its first chunk
        start."""
        monkeypatch.setattr(sim_module, "_LOCKSTEP_MIN", 0)
        scheme = parse_scheme("x -> 2 x @ k\n")
        config = SimConfig(rates={rate("k"): 2.0 ** -53},
                           initial_state=(2 ** 53 - 1,), t_final=5.0,
                           trajectories=70, base_seed=4, grid_points=11)
        assert _same_bits(scheme, config)
        [(tails, end)] = heads
        assert (len(tails), end) == (70, 0)
        assert gillespie_ssa(scheme, config).paths[:, -1].max() > 2 ** 53

    @pytest.mark.parametrize("initial, end", [(2 ** 53 - 66, 64),
                                              (2 ** 53 - 65, 0)])
    def test_count_bound_at_a_chunk_start(self, monkeypatch, heads, initial,
                                          end):
        """The head runs a chunk while the largest count + chunk * max|d| +
        the largest stoichiometry stays at 2**53 - 1: here x + 64 + 1.
        From 2**53 - 66 it takes one chunk, x rising by one each event,
        and from 2**53 - 65 none."""
        monkeypatch.setattr(sim_module, "_LOCKSTEP_MIN", 0)
        scheme = parse_scheme("x -> 2 x @ k\n")
        config = SimConfig(rates={rate("k"): 2.0 ** -53},
                           initial_state=(initial,), t_final=300.0,
                           trajectories=3, base_seed=4, grid_points=11)
        assert _same_bits(scheme, config)
        [(tails, stop)] = heads
        assert (len(tails), stop) == (3, end)
        assert {tuple(state) for _, state, *_ in tails} == {(initial + end,)}

    def test_two_trajectories(self, monkeypatch, heads):
        """Both paths leave the head together after two chunks of draws:
        x + 64 + 1 stays below 2**53 at the first two chunk starts, not at
        the third.  They leave with states of two species, and the path
        loop takes x on past 2**53 in ints."""
        monkeypatch.setattr(sim_module, "_LOCKSTEP_MIN", 0)
        scheme = parse_scheme("x -> 2 x @ k\ny -> 0 @ d\n")
        config = SimConfig(rates={rate("k"): 2.0 ** -53, rate("d"): 0.01},
                           initial_state=(2 ** 53 - 130, 5), t_final=300.0,
                           trajectories=2, base_seed=7, grid_points=10)
        assert _same_bits(scheme, config)
        [(tails, end)] = heads
        assert ([j for j, *_ in tails], end) == ([0, 1], 128)
        assert gillespie_ssa(scheme, config).paths[:, -1, 0].min() > 2 ** 53

    @pytest.mark.parametrize("budget", [1, 10, 63])
    def test_budget_below_the_chunk(self, monkeypatch, heads, budget):
        """The head takes at most budget events, and the path loop raises
        for the same trajectory at the same t."""
        for module in (sim_module, sys.modules["helpers"]):
            monkeypatch.setattr(module, "_SSA_EVENT_BUDGET", budget)
        scheme, config = _perfbench_case("verhulst")
        new = _bits(gillespie_ssa, scheme, config)
        assert new[0] == "SimulationError"
        assert new == _bits(scalar_gillespie_ssa, scheme, config)
        [(tails, end)] = heads
        assert _head_stop(tails, end) in (budget, "too few paths")

    def test_budget_past_the_first_chunk(self, monkeypatch, heads):
        """At a budget of 100 the head takes its second chunk of 64 cut
        short to 36 draws, stops at its end, and the path loop raises for
        the first trajectory that needs more, at the same t."""
        for module in (sim_module, sys.modules["helpers"]):
            monkeypatch.setattr(module, "_SSA_EVENT_BUDGET", 100)
        scheme, config = _perfbench_case("ring8")
        new = _bits(gillespie_ssa, scheme, config)
        assert new[0] == "SimulationError"
        assert new == _bits(scalar_gillespie_ssa, scheme, config)
        [(tails, end)] = heads
        assert _head_stop(tails, end) == 100

    def test_event_at_the_last_grid_time(self, monkeypatch, heads):
        """An event at exactly a grid time is not stored there (due < t
        fails); the state after it is."""
        monkeypatch.setattr(sim_module, "_LOCKSTEP_MIN", 0)
        scheme = parse_scheme("0 -> x @ k\n")
        wait = reference_stream(9, 0, SSA_WAITS).standard_exponential()
        config = SimConfig(rates={rate("k"): 1.0}, initial_state=(0,),
                           t_final=wait, dt=wait, trajectories=3,
                           base_seed=9, grid_points=2)
        assert _same_bits(scheme, config)
        assert gillespie_ssa(scheme, config).paths[0, -1, 0] == 1.0


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
