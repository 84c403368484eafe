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
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .poly import SymbolId, _compile, _exact, as_function, bind_values
from .scheme import InteractionScheme


class UnboundRateError(KeyError):
    def __init__(self, symbol: SymbolId):
        self.symbol = symbol
        super().__init__(f"no value bound for rate symbol {symbol.name!r}")

    def __str__(self) -> str:
        return self.args[0]


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
        if not self.bounds or any(b < 0 or not isinstance(b, int)
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
        return np.array(list(self.states()), dtype=np.int64)


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

    def rate_numerators(self, states) -> np.ndarray:
        """(S, C) object array of Python ints, which never overflow: each
        channel's numerator times the falling factorials of its consumed
        counts at each of the (S, n) states, zero where a state cannot
        supply the complex.  Raises ValueError for a state of another
        length or with a negative or non-integer entry."""
        n = self.stoich.shape[1]
        x = np.asarray(states)
        if (x.ndim != 2 or x.shape[1] != n or x.dtype.kind not in "iu"
                or (x < 0).any()):
            raise ValueError(f"states must be nonnegative integer vectors "
                             f"of {n} entries, one per species")
        x = x.astype(object)
        out = np.tile(np.array(self.numerators, dtype=object), (len(x), 1))
        for (c, i), m in np.ndenumerate(self.stoich):
            for k in range(m):
                out[:, c] *= x[:, i] - k
        return out

    def exact(self, numerator: int):
        """The value numerator / denominator: a Fraction, or int 0."""
        return Fraction(numerator, self.denominator) if numerator else 0


def jump_moments(scheme: InteractionScheme, rates: Mapping[SymbolId, object],
                 states: Sequence[Sequence[int]]):
    """First and second jump moments at each of a sequence of states, by
    direct enumeration.

    Returns one (first, second) pair per state, a list and a nested list
    of exact values (ChannelTable.exact).  The second moment sums the
    directional rates; the first takes their difference.
    """
    table = ChannelTable(scheme, rates)
    at = table.rate_numerators(states)                  # (S, C)
    d = table.change.astype(object)                     # (C, n)
    first = at.dot(d)                                   # (S, n)
    second = np.tensordot(at, d[:, :, None] * d[:, None, :], 1)
    exact = np.vectorize(table.exact, otypes=[object])
    return list(zip(exact(first).tolist(), exact(second).tolist()))


@dataclass(frozen=True)
class TruncatedGenerator:
    """Master-equation generator truncated to a box.

    matrix is the float generator Q (columns are source states); applying
    it as dp/dt = Q p conserves probability up to the absorbing loss
    described by lost_rate, the per-state outflow across the boundary.
    exact_lost retains that outflow exactly.
    """

    scheme: InteractionScheme
    box: StateBox
    matrix: scipy.sparse.csr_matrix
    lost_rate: np.ndarray
    exact_lost: tuple

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
    lost = np.zeros(box.size, dtype=object)
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
    # int / int is correctly rounded, as float(Fraction) is
    den = table.denominator
    matrix = scipy.sparse.coo_matrix(
        ((values[keep] / den).astype(np.float64), (rows[keep], cols[keep])),
        shape=(box.size, box.size)).tocsr()
    return TruncatedGenerator(
        scheme=scheme, box=box, matrix=matrix,
        lost_rate=(lost / den).astype(np.float64),
        exact_lost=tuple(map(table.exact, lost.tolist())))


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

    Refuses steps with dt * max|diagonal| > 0.5, where the integrator
    would be outside its stability region.

    For a fixed Q one RK4 step of size h is one fixed matrix, the degree-4
    Taylor polynomial of hQ:

        M(h) = I + hQ(I + (h/2)Q(I + (h/3)Q(I + (h/4)Q)))

    The full steps apply it in one of two orders, chosen from Q's
    diagonals (see _assembles): M(dt) built once, one sparse product per
    step, where M stays about as sparse as four products with Q; else
    Horner on Q, four products per step (_horner_step).  The remainder
    step always takes the Horner order.
    """
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
    if nfull and _assembles(q):
        m = _rk4_matrix(q, dt)
        for _ in range(nfull):
            p = m @ p
    else:
        for _ in range(nfull):
            p = _horner_step(q, p, dt)
    if rem > 1e-12 * max(dt, 1.0):
        p = _horner_step(q, p, rem)
    return Distribution(box=dist.box, probabilities=p, time=t_final)


def _assembles(q) -> bool:
    """Whether M(h) stays about as sparse as four products with Q.

    Every nonzero of Q lies on the diagonal at offset row - col (read
    from indptr and indices in O(nnz + n)), and M's nonzeros lie on
    sums of at most four of Q's offsets.  Assemble
    when there are at most 4 * (number of nonzero offsets + 1) such sums:
    then M costs no more multiply-adds per step than four products with
    Q.  The sums grow level by level and the count stops at the limit,
    so M is never built to decide."""
    n = q.shape[0]
    rows = np.repeat(np.arange(n), np.diff(q.indptr))
    seen = np.zeros(2 * n - 1, dtype=bool)      # offsets 1 - n ... n - 1
    seen[rows - q.indices + (n - 1)] = True
    offsets = set((np.flatnonzero(seen) - (n - 1)).tolist()) - {0}
    limit = 4 * (len(offsets) + 1)
    sums = {0}
    frontier = [0]
    for _ in range(4):
        grown = set()
        for s in frontier:
            for d in offsets:
                if s + d not in sums:
                    sums.add(s + d)
                    grown.add(s + d)
                    if len(sums) > limit:
                        return False
        frontier = grown
    return True


def _rk4_matrix(q, h: float):
    """M(h) in CSR form, built in the Horner order of the identity."""
    import scipy.sparse

    eye = scipy.sparse.identity(q.shape[0], format="csr")
    m = eye
    for c in (h / 4, h / 3, h / 2, h):
        m = eye + c * (q @ m)
    return m


def _horner_step(q, p: np.ndarray, h: float) -> np.ndarray:
    """M(h) p as four products with Q, each scaled and added in place."""
    v = p
    for c in (h / 4, h / 3, h / 2, h):
        v = q @ v
        v *= c
        v += p
    return v


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
    names = ",".join(s.name for s in species)
    lines = [f"{names},probability"]
    lines += [f"{','.join(map(str, state))},{p!r}" for state, p
              in zip(dist.box.states(), dist.probabilities.tolist())]
    return "\n".join(lines) + "\n"


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
