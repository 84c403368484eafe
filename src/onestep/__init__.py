"""Stochastization toolkit for one-step processes.

From a text interaction scheme this package derives exact transition
rates, the drift vector, and the diffusion matrix of the corresponding
Langevin model; verifies the derivation against a truncated
master-equation oracle and direct jump-moment enumeration; simulates the
model by Euler-Maruyama or exact jump sampling; and exports LaTeX, C,
and JSON forms.

The symbolic layer (poly, scheme, derive, codegen) imports no numpy.
The names of the numeric modules, cme and sim, are bound on first
access, and only then are those modules and numpy imported.
"""

__version__ = "0.3.1"

from .poly import (Monomial, MissingSymbolError, ExpressionSyntaxError,
                   Polynomial, SymbolId, SymbolKind, UnboundRateError,
                   as_function, bind_values, canonical_string,
                   falling_factorial, monomial, parse_expression, power, rate,
                   sorted_terms, species)
from .scheme import (DuplicateRateSymbolError, EmptySchemeError, Interaction,
                     InteractionScheme, NoOpInteractionError, SchemeError,
                     SchemeSyntaxError, format_scheme, parse_scheme)
from .derive import (DiffusionSign, Engine, IncompatibleNoiseError,
                     NegativePolicy, NegativeRateError, NoiseStrategy,
                     NotPsdError, RateMode, SdeModel, SimConfigError,
                     SimulationError, TooFewTrajectoriesError,
                     TransitionRates, build_sde_model, diffusion_matrix,
                     drift_vector, transition_rates)
from .codegen import (ModelFormatError, c_expression, emit_c_source,
                      emit_latex, emit_model_json, latex_expression,
                      latex_symbol, model_from_json)

# name -> the numeric module that defines it
_LAZY = {
    **dict.fromkeys(
        ("ChannelTable", "DegenerateDistributionError", "Distribution",
         "JumpMoments", "StateBox", "TruncatedGenerator", "UnstableStepError",
         "build_generator", "default_box", "distribution_moments",
         "distribution_to_csv", "evolve_distribution", "jump_moments",
         "point_mass", "reaction_channels"), "cme"),
    **dict.fromkeys(
        ("ComparisonReport", "MomentReport", "NotSymmetricError", "SimConfig",
         "Stream", "TrajectoryEnsemble", "compare_engines", "compare_reports",
         "ensemble_moments", "euler_maruyama", "gillespie_ssa",
         "matrix_sqrt_psd", "mean_band_svg", "moments_to_csv",
         "trajectories_to_csv", "trajectory_rng"), "sim"),
}


def __getattr__(name):
    import importlib
    if name in ("cme", "sim"):
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, "cme", "sim"})


__all__ = [
    "ChannelTable", "ComparisonReport", "DegenerateDistributionError",
    "DiffusionSign", "Distribution", "DuplicateRateSymbolError",
    "EmptySchemeError", "Engine", "ExpressionSyntaxError",
    "IncompatibleNoiseError", "Interaction", "InteractionScheme",
    "JumpMoments", "MissingSymbolError", "ModelFormatError", "MomentReport",
    "Monomial", "NegativePolicy", "NegativeRateError", "NoOpInteractionError",
    "NoiseStrategy", "NotPsdError", "NotSymmetricError", "Polynomial",
    "RateMode", "SchemeError", "SchemeSyntaxError", "SdeModel", "SimConfig",
    "SimConfigError", "SimulationError", "StateBox", "Stream", "SymbolId",
    "SymbolKind", "TooFewTrajectoriesError", "TrajectoryEnsemble",
    "TransitionRates", "TruncatedGenerator", "UnboundRateError",
    "UnstableStepError", "as_function", "bind_values", "build_generator",
    "build_sde_model", "c_expression", "canonical_string", "cme", "codegen",
    "compare_engines", "compare_reports", "default_box", "derive",
    "diffusion_matrix", "distribution_moments", "distribution_to_csv",
    "drift_vector", "emit_c_source", "emit_latex", "emit_model_json",
    "ensemble_moments", "euler_maruyama", "evolve_distribution",
    "falling_factorial", "format_scheme", "gillespie_ssa", "jump_moments",
    "latex_expression", "latex_symbol", "matrix_sqrt_psd", "mean_band_svg",
    "model_from_json", "moments_to_csv", "monomial", "parse_expression",
    "parse_scheme", "point_mass", "poly", "power", "rate",
    "reaction_channels", "scheme", "sim", "sorted_terms", "species",
    "trajectories_to_csv", "trajectory_rng", "transition_rates",
]
