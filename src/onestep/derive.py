"""From an interaction scheme to symbolic transition rates, drift, and
diffusion.

For state vector phi and an interaction with initial complex I, final
complex F, and change vector r = F - I, the forward transition rate is
the forward rate constant times a product of falling factorials of the
initial complex (exact mode) or of plain powers (fokker-planck mode);
the backward rate does the same with the final complex.  Drift collects
r * (forward - backward); the diffusion matrix collects r_i * r_j times
either the difference or the sum of the directional rates, selectable
because published second-moment conventions disagree and neither is
silently corrected here.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

from .poly import Polynomial, SymbolId, falling_factorial, power
from .scheme import InteractionScheme


class RateMode(enum.Enum):
    EXACT = "exact"            # falling factorials of the complex
    FOKKER_PLANCK = "fp"       # plain powers of the complex


class DiffusionSign(enum.Enum):
    DIFFERENCE = "difference"  # forward minus backward in the second moment
    SUM = "sum"                # forward plus backward (jump-moment form)


class NoiseStrategy(enum.Enum):
    MATRIX_SQRT = "sqrt"
    PER_REACTION = "per-reaction"


class IncompatibleNoiseError(ValueError):
    pass


# The simulation's choices and errors live here rather than in sim, which
# imports numpy: the command line reads them at import time, to build its
# parser and to name them in its except clauses.  sim re-imports each.

class Engine(enum.Enum):
    EULER_MARUYAMA = "em"
    SSA = "ssa"


class NegativePolicy(enum.Enum):
    CLAMP_ZERO = "clamp"
    REJECT_STEP = "reject"


class SimulationError(RuntimeError):
    pass


class NotPsdError(ValueError):
    """A matrix that is not positive semidefinite within tolerance; index
    is its position in the batch, () for a single matrix."""

    def __init__(self, message: str, index: tuple[int, ...] = ()):
        super().__init__(message)
        self.index = index


class NegativeRateError(ValueError):
    pass


class TooFewTrajectoriesError(ValueError):
    pass


class SimConfigError(ValueError):
    """A simulation setting out of its allowed range."""


@dataclass(frozen=True)
class TransitionRates:
    """Per-interaction rate polynomials; backward is the zero polynomial
    for irreversible interactions."""

    forward: tuple[Polynomial, ...]
    backward: tuple[Polynomial, ...]


def transition_rates(scheme: InteractionScheme,
                     mode: RateMode = RateMode.EXACT) -> TransitionRates:
    # each falling factorial or power is built once per call
    factor = functools.cache(falling_factorial if mode is RateMode.EXACT
                             else power)

    def complex_rate(rate_sym: SymbolId,
                     stoich: tuple[int, ...]) -> Polynomial:
        p = Polynomial.symbol(rate_sym)
        for sym, m in zip(scheme.species, stoich):
            if m:
                p = p * factor(sym, m)
        return p

    return TransitionRates(
        forward=tuple(complex_rate(ia.forward_rate, ia.initial)
                      for ia in scheme.interactions),
        backward=tuple(Polynomial.zero() if ia.backward_rate is None
                       else complex_rate(ia.backward_rate, ia.final)
                       for ia in scheme.interactions))


def drift_vector(scheme: InteractionScheme,
                 mode: RateMode = RateMode.FOKKER_PLANCK) -> list[Polynomial]:
    return _drift(scheme, transition_rates(scheme, mode))


def _drift(scheme: InteractionScheme,
           rates: TransitionRates) -> list[Polynomial]:
    # each entry's terms are collected and merged once: adding term by
    # term would re-merge the whole sum per interaction
    terms = [[] for _ in scheme.species]
    for ia, sp, sm in zip(scheme.interactions, rates.forward, rates.backward):
        net = sp - sm
        for i, r in enumerate(ia.change):
            if r:
                terms[i] += (r * net).terms
    return [Polynomial(t) for t in terms]


def diffusion_matrix(scheme: InteractionScheme,
                     mode: RateMode = RateMode.FOKKER_PLANCK,
                     sign: DiffusionSign = DiffusionSign.DIFFERENCE
                     ) -> list[list[Polynomial]]:
    return _diffusion(scheme, transition_rates(scheme, mode), sign)


def _diffusion(scheme: InteractionScheme, rates: TransitionRates,
               sign: DiffusionSign) -> list[list[Polynomial]]:
    # the upper triangle is derived, and entry (j, i) is entry (i, j)
    n = len(scheme.species)
    terms = [[[] for _ in range(n)] for _ in range(n)]
    for ia, sp, sm in zip(scheme.interactions, rates.forward, rates.backward):
        combined = sp - sm if sign is DiffusionSign.DIFFERENCE else sp + sm
        moved = [(i, r) for i, r in enumerate(ia.change) if r]
        for k, (i, ri) in enumerate(moved):
            for j, rj in moved[k:]:
                terms[i][j] += ((ri * rj) * combined).terms
    for i in range(n):
        for j in range(i, n):
            terms[i][j] = terms[j][i] = Polynomial(terms[i][j])
    return terms


@dataclass(frozen=True)
class SdeModel:
    """A Langevin model: d phi = A(phi) dt + b(phi) dW with b b^T = B.

    species and rate_symbols fix the variable vocabulary; drift is A and
    diffusion is B as exact polynomials.  scheme is retained when the
    model was built from one (it is needed for jump-process simulation)
    and may be None for models restored from a serialized form without it.
    A scheme must have the model's species, in order, and its rate
    symbols.  transition_rates keeps the scheme's transition rates when
    build_sde_model made the model, so that no caller derives them again.
    """

    species: tuple[SymbolId, ...]
    rate_symbols: tuple[SymbolId, ...]
    drift: tuple[Polynomial, ...]
    diffusion: tuple[tuple[Polynomial, ...], ...]
    rate_mode: RateMode
    diffusion_sign: DiffusionSign
    noise_strategy: NoiseStrategy
    scheme: InteractionScheme | None = field(default=None)
    # the scheme's rates when build_sde_model derived them; no part of
    # the model's value or exports, and None after dataclasses.replace
    transition_rates: TransitionRates | None = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.species)
        if len(self.drift) != n or len(self.diffusion) != n or any(
                len(row) != n for row in self.diffusion):
            raise ValueError("drift/diffusion shape does not match species")
        b = self.diffusion
        for i, row in enumerate(b):
            for j in range(i + 1, n):   # canonical terms, as Polynomial.__eq__
                if row[j]._terms != b[j][i]._terms:
                    raise ValueError("diffusion matrix is not symmetric")
        # B is symmetric now, so its upper triangle holds all its symbols
        allowed = set(self.species) | set(self.rate_symbols)
        for p in list(self.drift) + [q for i, row in enumerate(self.diffusion)
                                     for q in row[i:]]:
            if not p.symbols <= allowed:
                raise ValueError("model polynomial uses an undeclared symbol")
        if self.scheme is not None:
            if self.scheme.species != self.species:
                raise ValueError("the scheme's species differ from the "
                                 "model's")
            if set(self.scheme.rate_symbols) != set(self.rate_symbols):
                raise ValueError("the scheme's rate symbols differ from the "
                                 "model's")

    @property
    def display_order(self) -> tuple[SymbolId, ...]:
        """Symbol significance for printing: sorting terms ascending on
        this order groups them by rate constant in declaration order."""
        return tuple(reversed(self.rate_symbols)) + self.species


def build_sde_model(scheme: InteractionScheme,
                    rate_mode: RateMode = RateMode.FOKKER_PLANCK,
                    diffusion_sign: DiffusionSign = DiffusionSign.DIFFERENCE,
                    noise_strategy: NoiseStrategy = NoiseStrategy.MATRIX_SQRT
                    ) -> SdeModel:
    """Assemble the Langevin model for a scheme: the transition rates are
    derived once, and the drift and B both come from them.

    Per-reaction noise reproduces B only when B is the directional sum,
    so requesting it together with the difference sign is rejected for
    any scheme with a reversible interaction.
    """
    if (noise_strategy is NoiseStrategy.PER_REACTION
            and diffusion_sign is DiffusionSign.DIFFERENCE
            and any(ia.reversible for ia in scheme.interactions)):
        raise IncompatibleNoiseError(
            "per-reaction noise squares to the directional sum; with a "
            "reversible interaction it cannot realize the difference form")
    rates = transition_rates(scheme, rate_mode)
    model = SdeModel(
        species=scheme.species,
        rate_symbols=scheme.rate_symbols,
        drift=tuple(_drift(scheme, rates)),
        diffusion=tuple(map(tuple, _diffusion(scheme, rates, diffusion_sign))),
        rate_mode=rate_mode,
        diffusion_sign=diffusion_sign,
        noise_strategy=noise_strategy,
        scheme=scheme)
    object.__setattr__(model, "transition_rates", rates)
    return model
