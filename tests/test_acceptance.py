"""Acceptance gate: the binding criteria for this toolkit, one test each.

Every test prints one PASS/FAIL line (run with -s to see them inline) and
enforces both the stated tolerance and the stated time budget.
"""

import io
import math
import random
import re
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import numpy as np

from onestep import (DiffusionSign, NoiseStrategy, Polynomial, RateMode,
                     SimConfig, StateBox, build_generator, build_sde_model,
                     compare_engines, default_box, diffusion_matrix,
                     distribution_moments, drift_vector, emit_c_source,
                     emit_latex, emit_model_json, euler_maruyama,
                     evolve_distribution, jump_moments, parse_expression,
                     parse_scheme, point_mass, rate, species)
from onestep.cli import main as cli_main
from onestep.poly import canonical_string
from helpers import (VERHULST, LOTKA_VOLTERRA, per_state_moments,
                     random_scheme_text)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"FAIL criterion {number}: {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s")
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_logistic_golden_derivation():
    with criterion(1, "logistic golden drift/diffusion strings", 1.0):
        model = build_sde_model(parse_scheme(VERHULST),
                                RateMode.FOKKER_PLANCK,
                                DiffusionSign.DIFFERENCE)
        order = model.display_order
        assert canonical_string(model.drift[0], order) == \
            "lambda*phi - beta*phi - gamma*phi^2"
        assert canonical_string(model.diffusion[0][0], order) == \
            "lambda*phi + beta*phi - gamma*phi^2"


def test_criterion_2_predator_prey_golden_derivation():
    with criterion(2, "predator-prey golden derivation, both signs", 1.0):
        scheme = parse_scheme(LOTKA_VOLTERRA)
        expected_drift = ("k_1*x - k_2*x*y", "k_2*x*y - k_3*y")
        expected_diffusion = (("k_1*x + k_2*x*y", "-k_2*x*y"),
                              ("-k_2*x*y", "k_2*x*y + k_3*y"))
        for sign in (DiffusionSign.DIFFERENCE, DiffusionSign.SUM):
            model = build_sde_model(scheme, RateMode.FOKKER_PLANCK, sign)
            order = model.display_order
            drift = tuple(canonical_string(p, order) for p in model.drift)
            diffusion = tuple(tuple(canonical_string(q, order) for q in row)
                              for row in model.diffusion)
            assert drift == expected_drift
            assert diffusion == expected_diffusion


def test_criterion_3_stoichiometry_matrix_reproduction():
    with criterion(3, "initial/final stoichiometry matrices", 1.0):
        logistic = parse_scheme(VERHULST)
        assert tuple(ia.initial for ia in logistic.interactions) == \
            ((1,), (1,))
        assert tuple(ia.final for ia in logistic.interactions) == \
            ((2,), (0,))
        lv = parse_scheme(LOTKA_VOLTERRA)
        assert tuple(ia.initial for ia in lv.interactions) == \
            ((1, 0), (1, 1), (0, 1))
        assert tuple(ia.final for ia in lv.interactions) == \
            ((2, 0), (0, 2), (0, 0))


def test_criterion_4_jump_moment_oracle():
    with criterion(4, "enumerated jump moments vs symbolic derivation, "
                      "50 random schemes, exact arithmetic", 30.0):
        rng = random.Random(2024)
        for _ in range(50):
            scheme = parse_scheme(random_scheme_text(
                rng, max_species=3, max_interactions=4, max_stoich=3))
            rates = {sym: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                     for sym in scheme.rate_symbols}
            drift = drift_vector(scheme, RateMode.EXACT)
            diffusion = diffusion_matrix(scheme, RateMode.EXACT,
                                         DiffusionSign.SUM)
            n = len(scheme.species)
            states = list(np.ndindex(*(6,) * n))
            for state, (first, second) in zip(
                    states,
                    per_state_moments(jump_moments(scheme, rates, states))):
                point = dict(zip(scheme.species, (int(x) for x in state)))
                point.update(rates)
                for i in range(n):
                    assert drift[i].evaluate(point) == first[i]
                    for j in range(n):
                        assert diffusion[i][j].evaluate(point) == \
                            second[i][j]


def test_criterion_5_master_equation_consistency():
    with criterion(5, "pure-death analytic law and logistic mean-flow "
                      "identity", 10.0):
        # one particle, unit death rate: p_alive(t) = exp(-t)
        death = parse_scheme("phi -> 0 @ beta\n")
        box = StateBox((1,))
        gen = build_generator(death, {rate("beta"): 1}, box)
        p = evolve_distribution(gen, point_mass(box, (1,)), 1.0, dt=1e-3)
        assert abs(p.probabilities[1] - math.exp(-1)) < 1e-6

        # d<phi>/dt against the expected drift, central difference
        scheme = parse_scheme(VERHULST)
        rates = {rate("lambda"): 1, rate("beta"): Fraction(1, 5),
                 rate("gamma"): Fraction(1, 20)}
        vbox = default_box(scheme, rates, initial_state=(10,))
        vgen = build_generator(scheme, rates, vbox)
        start = point_mass(vbox, (10,))
        h = 0.005
        at_t = evolve_distribution(vgen, start, 1.0, dt=1e-3)
        assert at_t.leaked < 1e-6
        ahead = evolve_distribution(vgen, at_t, 1.0 + h, dt=1e-3)
        behind = evolve_distribution(vgen, start, 1.0 - h, dt=1e-3)
        mean_ahead, _ = distribution_moments(ahead)
        mean_behind, _ = distribution_moments(behind)
        slope = (mean_ahead[0] - mean_behind[0]) / (2 * h)
        drift = drift_vector(scheme, RateMode.EXACT)[0]
        expectation = sum(
            float(drift.evaluate({scheme.species[0]: state[0], **rates})) * p
            for state, p in zip(vbox.states(), at_t.probabilities))
        assert abs(slope - expectation) < 1e-4


def test_criterion_6_engine_cross_validation():
    with criterion(6, "logistic EM vs jump sampler, 10^4 paths each, "
                      "max |z| <= 4", 120.0):
        model = build_sde_model(parse_scheme(VERHULST), RateMode.EXACT,
                                DiffusionSign.SUM)
        config = SimConfig(
            rates={rate("lambda"): 1.0, rate("beta"): 0.2,
                   rate("gamma"): 0.05},
            initial_state=(10.0,), t_final=5.0, dt=1e-3,
            trajectories=10000, base_seed=0)
        report = compare_engines(model, config, threshold=4.0)
        assert report.max_abs_z <= 4.0
        assert report.passed


def test_criterion_7_step_size_convergence():
    with criterion(7, "noiseless EM error halves with dt across three "
                      "halvings", 10.0):
        x = species("x")
        from onestep import SdeModel
        model = SdeModel(species=(x,), rate_symbols=(),
                         drift=(-Polynomial.symbol(x),),
                         diffusion=((Polynomial.zero(),),),
                         rate_mode=RateMode.FOKKER_PLANCK,
                         diffusion_sign=DiffusionSign.SUM,
                         noise_strategy=NoiseStrategy.MATRIX_SQRT)
        errors = []
        for dt in (0.1, 0.05, 0.025, 0.0125):
            config = SimConfig(rates={}, initial_state=(1.0,), t_final=1.0,
                               dt=dt, trajectories=1, grid_points=2)
            final = euler_maruyama(model, config).paths[0, -1, 0]
            errors.append(abs(final - math.exp(-1)))
        for bigger, smaller in zip(errors, errors[1:]):
            assert 1.5 <= bigger / smaller <= 2.5


def _c_bodies(text):
    bodies = []
    for line in text.splitlines():
        m = re.match(r"\s+out\[(\d+)\] = (.*);$", line)
        if m:
            bodies.append(m.group(2))
    return bodies


def _parse_c_body(body, model):
    table = {s.name: s for s in model.species}
    table.update({r.name: r for r in model.rate_symbols})
    text = re.sub(r"x\[(\d+)\]",
                  lambda m: model.species[int(m.group(1))].name, body)
    text = re.sub(r"k\[(\d+)\]",
                  lambda m: model.rate_symbols[int(m.group(1))].name, text)
    return parse_expression(text, table)


def test_criterion_8_code_generation_fidelity():
    with criterion(8, "C bodies re-parse to 1e-12 relative over 20 random "
                      "models; LaTeX/JSON byte-stable", 10.0):
        rng = random.Random(4096)
        for _ in range(20):
            scheme = parse_scheme(random_scheme_text(rng))
            model = build_sde_model(
                scheme,
                rate_mode=rng.choice(list(RateMode)),
                diffusion_sign=rng.choice(list(DiffusionSign)))
            polys = list(model.drift) + [q for row in model.diffusion
                                         for q in row]
            bodies = _c_bodies(emit_c_source(model))
            assert len(bodies) == len(polys)
            parsed = [_parse_c_body(b, model) for b in bodies]
            symbols = model.species + model.rate_symbols
            for _ in range(20):
                env = {s: rng.uniform(0.25, 4.0) for s in symbols}
                for p, back in zip(polys, parsed):
                    want = p.evaluate(env)
                    got = back.evaluate(env)
                    if want == 0:
                        assert got == 0
                    else:
                        assert abs(got - want) <= 1e-12 * abs(want)
            assert emit_latex(model) == emit_latex(model)
            assert emit_model_json(model) == emit_model_json(model)


def test_criterion_9_manifest_reproducibility(tmp_path):
    with criterion(9, "simulate rerun from its manifest is byte-identical",
                   60.0):
        scheme_path = tmp_path / "verhulst.scheme"
        scheme_path.write_text(VERHULST)
        rates_path = tmp_path / "verhulst.rates"
        rates_path.write_text("lambda = 1\nbeta = 1/5\ngamma = 1/20\n")
        first = tmp_path / "first"
        rerun = tmp_path / "rerun"
        with redirect_stdout(io.StringIO()):
            code = cli_main(["simulate", str(scheme_path),
                             "--rates", str(rates_path),
                             "--initial", "phi=10",
                             "--t-final", "1.0", "--dt", "0.001",
                             "--trajectories", "100", "--seed", "11",
                             "--out", str(first)])
            assert code == 0
            code = cli_main(["simulate", "--from-manifest",
                             str(first / "verhulst.manifest.json"),
                             "--out", str(rerun)])
            assert code == 0
        for name in ("verhulst.trajectories.csv", "verhulst.moments.csv"):
            assert (rerun / name).read_bytes() == (first / name).read_bytes()
