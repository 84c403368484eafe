"""Stochastization toolkit for one-step processes.

From a text interaction scheme this package derives exact transition
rates, the drift vector, and the diffusion matrix of the corresponding
Langevin model; verifies the derivation against a truncated
master-equation oracle and direct jump-moment enumeration; simulates the
model by Euler-Maruyama or exact jump sampling; and exports LaTeX, C,
and JSON forms.
"""

__version__ = "0.3.0"

from .poly import (Monomial, MissingSymbolError, ExpressionSyntaxError,
                   Polynomial, SymbolId, SymbolKind, as_function,
                   bind_values, canonical_string, falling_factorial,
                   monomial, parse_expression, power, rate, sorted_terms,
                   species)
from .scheme import (DuplicateRateSymbolError, EmptySchemeError, Interaction,
                     InteractionScheme, NoOpInteractionError, SchemeError,
                     SchemeSyntaxError, format_scheme, parse_scheme)
from .derive import (DiffusionSign, IncompatibleNoiseError, NoiseStrategy,
                     RateMode, SdeModel, TransitionRates, build_sde_model,
                     diffusion_matrix, drift_vector, transition_rates)
from .cme import (ChannelTable, DegenerateDistributionError, Distribution,
                  JumpMoments, StateBox, TruncatedGenerator, UnboundRateError,
                  UnstableStepError, build_generator, default_box,
                  distribution_moments, distribution_to_csv,
                  evolve_distribution, jump_moments, point_mass,
                  reaction_channels)
from .sim import (ComparisonReport, Engine, MomentReport, NegativePolicy,
                  NegativeRateError, NotPsdError, NotSymmetricError,
                  SimConfig, SimConfigError, SimulationError, Stream,
                  TooFewTrajectoriesError, TrajectoryEnsemble,
                  compare_engines, compare_reports,
                  ensemble_moments, euler_maruyama, gillespie_ssa,
                  matrix_sqrt_psd, mean_band_svg, moments_to_csv,
                  trajectories_to_csv, trajectory_rng)
from .codegen import (ModelFormatError, c_expression, emit_c_source,
                      emit_latex, emit_model_json, latex_expression,
                      latex_symbol, model_from_json)

__all__ = [name for name in dir() if not name.startswith("_")]
