"""Truncated master-equation oracle and jump-moment enumeration.

Both tools work directly from the scheme's integer jump processes and
never touch the symbolic derivation, so they can serve as independent
ground truth for it.  Both evaluate all states at once, in exact integers,
from one ChannelTable; the generator is converted to floats only when
stored, and states that would jump outside the truncation box send their
probability flux into an absorbing loss account instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .floattext import _block_rows, _csv_text, _float_fields
from .poly import (SymbolId, UnboundRateError, _compile, _exact, _int_dtype,
                   as_function, bind_values)
from .scheme import InteractionScheme


class UnstableStepError(ValueError):
    pass


class DegenerateDistributionError(ValueError):
    pass


@dataclass(frozen=True)
class StateBox:
    """Product box of occupation numbers, 0..bound inclusive per species.

    States are ordered row-major: the last species index varies fastest.
    """

    bounds: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bounds or any(not isinstance(b, int) or b < 0
                                  for b in self.bounds):
            raise ValueError("box bounds must be nonnegative integers")

    @property
    def size(self) -> int:
        out = 1
        for b in self.bounds:
            out *= b + 1
        return out

    def states(self):
        return itertools.product(*(range(b + 1) for b in self.bounds))

    def contains(self, state: Sequence[int]) -> bool:
        return all(0 <= x <= b for x, b in zip(state, self.bounds))

    def index(self, state: Sequence[int]) -> int:
        idx = 0
        for x, b in zip(state, self.bounds):
            idx = idx * (b + 1) + x
        return idx

    def state_array(self) -> np.ndarray:
        """The states in row-major order as one (size, n) int64 array."""
        grid = np.indices(tuple(b + 1 for b in self.bounds), dtype=np.int64)
        return np.ascontiguousarray(grid.reshape(len(self.bounds), -1).T)


def reaction_channels(scheme: InteractionScheme,
                      rates: Mapping[SymbolId, object]):
    """Flatten a scheme into jump channels (consumed complex, state change,
    rate value): one channel per direction of each interaction."""
    channels = []
    for ia in scheme.interactions:
        try:
            kf = rates[ia.forward_rate]
        except KeyError:
            raise UnboundRateError(ia.forward_rate) from None
        channels.append((ia.initial, ia.change, kf))
        if ia.backward_rate is not None:
            try:
                kb = rates[ia.backward_rate]
            except KeyError:
                raise UnboundRateError(ia.backward_rate) from None
            channels.append((ia.final, tuple(-d for d in ia.change), kb))
    return channels


class ChannelTable:
    """The jump channels of a scheme, flattened once: row c of the (C, n)
    arrays stoich and change is channel c of reaction_channels, and its
    rate value is numerators[c] / denominator exactly (rate values are
    read by poly._exact, so a float counts as the rational it represents
    and a string is a TypeError)."""

    def __init__(self, scheme: InteractionScheme,
                 rates: Mapping[SymbolId, object]):
        channels = reaction_channels(
            scheme, {sym: _exact(sym, v) for sym, v in rates.items()})
        values = [value for _, _, value in channels]
        self.denominator = math.lcm(*(v.denominator for v in values))
        self.numerators = [v.numerator * (self.denominator // v.denominator)
                           for v in values]
        self.stoich = np.array([s for s, _, _ in channels], dtype=np.int64)
        self.change = np.array([d for _, d, _ in channels], dtype=np.int64)

    def rate_numerators(self, states, scale: int = 1) -> np.ndarray:
        """(S, C) integer array that never wraps: each channel's numerator
        times the falling factorials of its consumed counts at each of the
        (S, n) states, zero where a state cannot supply the complex.

        scale is the caller's promise: every value it forms from the
        result is a sum of at most one term per channel, that channel's
        column times an int of magnitude at most scale.  The array is
        int64 when such sums, the products that form each column and the
        denominator all stay below 2**53 (poly._int_dtype), else an object
        array of Python ints.  The bound, taken before any array
        arithmetic, is scale times the sum over the channels of
        |numerator| * prod_i max(1, largest x_i, m_i - 1) ** m_i, as each
        factor x_i - k of a falling factorial of order m_i is at most
        max(x_i, m_i - 1) in magnitude.  Raises ValueError for a state of
        another length or with a negative or non-integer entry."""
        n = self.stoich.shape[1]
        x = np.asarray(states)
        if (x.ndim != 2 or x.shape[1] != n or x.dtype.kind not in "iu"
                or (x < 0).any()):
            raise ValueError(f"states must be nonnegative integer vectors "
                             f"of {n} entries, one per species")
        stoich = self.stoich.tolist()
        largest = x.max(axis=0).tolist() if len(x) else [0] * n
        bound = 0
        for value, ms in zip(self.numerators, stoich):
            product = abs(value)
            for top, m in zip(largest, ms):
                product *= max(1, top, m - 1) ** m
            bound += product
        dtype = _int_dtype(max(scale * bound, self.denominator))
        x = x.astype(dtype)
        falling = {}            # (i, m): x_i (x_i - 1) ... (x_i - m + 1)

        def factorial(i: int, m: int):
            product = falling.setdefault((i, 1), x[:, i])
            for k in range(2, m + 1):
                if (i, k) not in falling:
                    falling[i, k] = product * (x[:, i] - (k - 1))
                product = falling[i, k]
            return product

        out = np.empty((len(x), len(self.numerators)), dtype=dtype)
        for c, (value, ms) in enumerate(zip(self.numerators, stoich)):
            for i, m in enumerate(ms):
                if m:
                    value = value * factorial(i, m)
            out[:, c] = value
        return out


def moved_together(change) -> dict[tuple[int, int], tuple[list, list]]:
    """The entries (i, j) of the second jump moment that a channel can
    reach: those of supp(d_c) x supp(d_c) for the rows d_c of the (C, n)
    changes, in row-major order.  Each maps to its channels c and their
    weights d_c[i] * d_c[j], in channel order; every other entry of the
    second moment is exactly 0 at every state."""
    terms: dict[tuple[int, int], tuple[list, list]] = {}
    for c, d in enumerate(change.tolist()):
        moved = [i for i, v in enumerate(d) if v]
        for i in moved:
            for j in moved:
                channels, weights = terms.setdefault((i, j), ([], []))
                channels.append(c)
                weights.append(d[i] * d[j])
    return dict(sorted(terms.items()))


@dataclass(frozen=True, eq=False)
class JumpMoments:
    """First and second jump moments at S states over n species, in
    ChannelTable's integer form: every value is an int numerator over the
    one positive denominator.

    first is an (S, n) integer array that never wraps, int64 or object as
    ChannelTable.rate_numerators chooses for its sums.  second maps each
    entry (i, j) of the second moment that moved_together lists to its
    (S,) array of numerators, of the same dtype, (j, i) to the same array
    as (i, j); every other entry is exactly 0 at every state.
    """

    denominator: int
    first: np.ndarray
    second: dict[tuple[int, int], np.ndarray]


def _weighted_sum(at: np.ndarray, channels, weights) -> np.ndarray:
    """sum_k weights[k] * at[:, channels[k]], in at's dtype: it cannot wrap
    when rate_numerators' scale bounds every |weights[k]|."""
    return at[:, channels].dot(np.array(weights, dtype=at.dtype))


def jump_moments(scheme: InteractionScheme, rates: Mapping[SymbolId, object],
                 states: Sequence[Sequence[int]]) -> JumpMoments:
    """First and second jump moments at each of a sequence of states, by
    direct enumeration, as one JumpMoments.

    The second moment sums the directional rates; the first takes their
    difference.  Both are summed from ChannelTable.rate_numerators, whose
    scale is the largest d_c[i] * d_c[j]: first[:, i] over the channels
    that move species i, and each entry of the second moment over its own
    channels (moved_together), once per pair (i, j) and (j, i).
    """
    table = ChannelTable(scheme, rates)
    at = table.rate_numerators(
        states, int(np.abs(table.change).max(initial=1)) ** 2)   # (S, C)
    change = table.change.T.tolist()                    # per species
    first = np.zeros((len(at), len(change)), dtype=at.dtype)
    for i, d in enumerate(change):
        channels = [c for c, v in enumerate(d) if v]
        if channels:
            first[:, i] = _weighted_sum(at, channels, [d[c] for c in channels])
    second = {}
    for (i, j), (channels, weights) in moved_together(table.change).items():
        # (j, i) sorts before (i, j) for j < i and holds the same sum
        second[i, j] = second[j, i] if i > j else \
            _weighted_sum(at, channels, weights)
    return JumpMoments(table.denominator, first, second)


@dataclass(frozen=True)
class TruncatedGenerator:
    """Master-equation generator truncated to a box.

    matrix is the float generator Q (columns are source states); applying
    it as dp/dt = Q p conserves probability up to the absorbing loss
    described by lost_rate, the per-state outflow across the boundary.
    """

    scheme: InteractionScheme
    box: StateBox
    matrix: scipy.sparse.csr_matrix
    lost_rate: np.ndarray

    @property
    def size(self) -> int:
        return self.box.size


def build_generator(scheme: InteractionScheme,
                    rates: Mapping[SymbolId, object],
                    box: StateBox) -> TruncatedGenerator:
    import scipy.sparse     # here, so that importing onestep needs no scipy

    if len(box.bounds) != len(scheme.species):
        raise ValueError("box dimension does not match the species count")
    table = ChannelTable(scheme, rates)
    states = box.state_array()
    at = table.rate_numerators(states)
    source = np.arange(box.size)
    parts = [(source, source, -at.sum(axis=1))]
    lost = np.zeros(box.size, dtype=at.dtype)
    # channels that share a change vector share their entries
    for change in dict.fromkeys(map(tuple, table.change.tolist())):
        v = at[:, (table.change == change).all(axis=1)].sum(axis=1)
        target = states + change
        inside = ((target >= 0) & (target <= box.bounds)).all(axis=1)
        lost = lost + np.where(inside, 0, v)
        parts.append((np.ravel_multi_index(tuple(target[inside].T),
                                           tuple(b + 1 for b in box.bounds)),
                      source[inside], v[inside]))
    rows, cols, values = map(np.concatenate, zip(*parts))
    keep = values != 0
    # int / int is correctly rounded, as float(Fraction) is, and so is
    # int64 / int: both are below 2**53 there, so exact as floats
    den = table.denominator
    matrix = scipy.sparse.coo_matrix(
        ((values[keep] / den).astype(np.float64), (rows[keep], cols[keep])),
        shape=(box.size, box.size)).tocsr()
    return TruncatedGenerator(
        scheme=scheme, box=box, matrix=matrix,
        lost_rate=(lost / den).astype(np.float64))


@dataclass(frozen=True)
class Distribution:
    box: StateBox
    probabilities: np.ndarray
    time: float = 0.0

    @property
    def leaked(self) -> float:
        return max(0.0, 1.0 - float(self.probabilities.sum()))


def point_mass(box: StateBox, state: Sequence[int]) -> Distribution:
    if not box.contains(state):
        raise ValueError(f"state {tuple(state)} lies outside the box")
    p = np.zeros(box.size)
    p[box.index(state)] = 1.0
    return Distribution(box=box, probabilities=p, time=0.0)


def evolve_distribution(gen: TruncatedGenerator, dist: Distribution,
                        t_final: float, dt: float = 1e-3) -> Distribution:
    """Integrate dp/dt = Q p from dist.time to t_final with classic
    fourth-order Runge-Kutta steps of size dt (plus one remainder step).

    Refuses a non-finite t_final, dt or dist.time, and steps with
    dt * L > 0.5, L = max|Q_ii|, where the integrator would be outside
    its stability region.

    Q must be a generator (off-diagonals >= 0, column sums <= 0), so
    that P = I + Q/L is >= 0 with column sums <= 1.  One step is
    T4(hQ) = T4(hL(P - I)) = sum_j beta_j(hL) P^j, T4 the degree-4
    Taylor polynomial of exp; beta_j(a) >= 0 for a <= 1 and they sum
    to T4(0) = 1 (_rk4_coefficients).  So the whole schedule is
    M(rem) M(dt)^N p = sum_k w_k P^k p with w a probability vector, as
    in uniformization (Jensen 1953; Fox & Glynn, CACM 31, 1988): about
    Lt + 9 sqrt(Lt) products, P v = v + (Q/L) v, against 4 per step.
    Each convolution of _rk4_weights drops tails of mass at most _TRIM,
    and w is divided by its sum, which is exactly 1 before rounding and
    trimming; as |P^k p|_1 <= |p|_1, each trim moves the result by at
    most about _TRIM |p|_1.  Q = 0 returns an exact copy.
    """
    for name, value in (("t_final", t_final), ("dt", dt),
                        ("dist.time", dist.time)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
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

    p = np.array(dist.probabilities, dtype=np.float64)
    if scale > 0.0:         # else the generator is Q = 0
        nfull = int(span / dt + 1e-9)
        rem = span - nfull * dt
        first, w = _rk4_weights(dt * scale, nfull, rem * scale
                                if rem > 1e-12 * max(dt, 1.0) else None)
        q = gen.matrix / scale
        v, p = p, (p * w[0] if first == 0 else np.zeros_like(p))
        for k in range(1, first + len(w)):
            u = q @ v
            u += v          # P v, with no rounded 1 + Q_ii / L in it
            v = u
            if k >= first:
                p += w[k - first] * v
    return Distribution(box=dist.box, probabilities=p, time=t_final)


_TRIM = 1e-20       # the most tail mass one convolution may drop


def _rk4_coefficients(a: float) -> np.ndarray:
    """beta_0 ... beta_4, the coefficients of x^0 ... x^4 in
    T4(a(x - 1)), each in a form that is >= 0 in floats for a <= 1."""
    return np.array([1.0 - a * (1.0 - a / 2 * (1.0 - a / 3 * (1.0 - a / 4))),
                     a * (1.0 - a * (1.0 - a / 2 * (1.0 - a / 3))),
                     a * a / 2 * (1.0 - a * (1.0 - a / 2)),
                     a ** 3 / 6 * (1.0 - a),
                     a ** 4 / 24])


def _rk4_weights(a: float, steps: int, a_rem: float | None = None):
    """(first, w): w[i] is the weight of P^(first + i) in M(rem)
    M(dt)^steps, for a = dt L and a_rem = rem L (None: no remainder
    step), by binary powering of beta(a), over math.fsum(w)."""
    def times(x, y):
        c = np.convolve(x[1], y[1])
        lo = np.searchsorted(np.cumsum(c), _TRIM, side="right")
        hi = len(c) - np.searchsorted(np.cumsum(c[::-1]), _TRIM, "right")
        return x[0] + y[0] + int(lo), c[lo:hi]

    out, base = (0, np.ones(1)), (0, _rk4_coefficients(a))
    while steps:
        if steps & 1:
            out = times(out, base)
        steps >>= 1
        if steps:
            base = times(base, base)
    if a_rem is not None:
        out = times(out, (0, _rk4_coefficients(a_rem)))
    return out[0], out[1] / math.fsum(out[1])


def distribution_moments(dist: Distribution):
    """Mean vector and covariance matrix of the boxed distribution,
    renormalized by the surviving mass."""
    p = dist.probabilities
    mass = float(p.sum())
    if mass < 1e-12:
        raise DegenerateDistributionError(
            f"remaining probability mass {mass:.3e} is too small for moments")
    w = p / mass
    states = dist.box.state_array().astype(np.float64)
    mean = w @ states
    centered = states - mean
    cov = (w[:, None] * centered).T @ centered
    return mean, cov


def distribution_to_csv(dist: Distribution,
                        species: Sequence[SymbolId]) -> str:
    """One row per state of the box, in its order: the counts, then the
    probability in its shortest repr, assembled as bytes a block of states
    at a time (floattext)."""
    names = ",".join(s.name for s in species)
    size = min(dist.box.size, len(dist.probabilities))
    dims = [b + 1 for b in dist.box.bounds]
    top = max(dist.box.bounds)
    digits = np.arange(top + 1).astype(f"S{len(str(top))}")
    digits = digits.view(np.uint8).reshape(top + 1, -1)
    step = _block_rows(len(dims) + 1)
    chunks = [f"{names},probability\n"]
    for start in range(0, size, step):
        states = np.arange(start, min(start + step, size))
        counts = np.stack(np.unravel_index(states, dims), axis=1)
        cells = _float_fields(dist.probabilities[states])
        chunks.append(_csv_text(digits.take(counts, axis=0),
                                cells.reshape(states.size, 1, -1)))
    return "".join(chunks)


def default_box(scheme: InteractionScheme, rates: Mapping[SymbolId, object],
                initial_state: Sequence[int] | None = None) -> StateBox:
    """Heuristic truncation box: four times the largest excursion of the
    deterministic drift flow (a proxy for the fixed point it settles at),
    32 where the flow gives no finite guidance, at most 4096 per species,
    always at least covering the initial state.

    The flow takes up to 50,000 Euler steps of 0.002 and stops early once
    a step leaves the state exactly unchanged: every later step would
    repeat that state, so the box is the same as after all the steps.
    The drift is compiled once with as_function and the steps run in one
    loop generated for the species count (see _drift_flow)."""
    from .derive import RateMode, drift_vector

    n = len(scheme.species)
    start = tuple(initial_state) if initial_state is not None else (1,) * n
    drift = as_function([bind_values(p, rates) for p in
                         drift_vector(scheme, RateMode.FOKKER_PLANCK)],
                        scheme.species)
    peak = _drift_flow(drift, n)(*(float(v) for v in start))

    bounds = []
    for i in range(n):
        if peak is not None and peak[i] > 0:
            b = int(np.ceil(4.0 * peak[i]))
        else:
            b = 32
        bounds.append(max(min(b, 4096), int(np.ceil(start[i])), 4))
    return StateBox(tuple(bounds))


def _drift_flow(drift, n: int):
    """The Euler flow of default_box as one generated function of the n
    start coordinates: each coordinate and its peak is a local float, and
    drift is called once per step.  It returns the peak of every
    coordinate, or None once a coordinate passes 1e7 (which, after the
    clip, covers inf).

    A step is x_i + 0.002 * a_i clipped at zero by "if not y > 0.0",
    which maps NaN and -0.0 to 0.0 as max(0.0, y) does; then the 1e7
    test, then the stop at an unchanged state, then the peak update."""
    xs = ", ".join(f"x{i}" for i in range(n))
    lines = [f"def flow({xs}):"]
    lines += [f"    p{i} = x{i}" for i in range(n)]
    lines.append("    for _ in range(50000):")
    lines.append("        " + "".join(f"a{i}, " for i in range(n))
                 + f"= drift({xs})")
    for i in range(n):
        lines += [f"        y{i} = x{i} + 0.002 * a{i}",
                  f"        if not y{i} > 0.0:",
                  f"            y{i} = 0.0",
                  f"        if y{i} > 1e7:",
                  "            return None"]
    lines += ["        if " + " and ".join(f"y{i} == x{i}" for i in range(n))
              + ":",
              "            break"]
    for i in range(n):
        lines += [f"        x{i} = y{i}",
                  f"        if x{i} > p{i}:",
                  f"            p{i} = x{i}"]
    lines.append("    return (" + "".join(f"p{i}, " for i in range(n)) + ")")
    return _compile("\n".join(lines), "flow", {"drift": drift})
