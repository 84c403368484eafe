"""Trajectory simulation for one-step models.

Two engines over a shared configuration: an Euler-Maruyama integrator
for the Langevin model and an exact jump-process (Gillespie) sampler for
the underlying scheme.  Trajectory j of any run draws from a dedicated
counter-based Philox stream keyed by base_seed XOR j, so ensembles are
reproducible regardless of execution order and adding trajectories never
perturbs existing ones.  The jump sampler runs each path in one function
generated for the scheme, on one Philox re-keyed to the path's stream;
after each event it recomputes only the rates that the event changed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .cme import UnboundRateError, reaction_channels
from .derive import (IncompatibleNoiseError, NoiseStrategy, SdeModel,
                     transition_rates)
from .poly import SymbolId, _compile, _exact, as_function, bind_values
from .scheme import InteractionScheme

_CHUNK_STEPS = 256      # noise draws are blocked per trajectory in chunks
_SSA_BLOCK = 1024       # random draws per refill of the jump sampler
_SSA_CHUNK = 64         # block values turned into floats at once; divides
                        # _SSA_BLOCK
_SSA_LEAF_RATES = 16    # rates one event may recompute; an event that would
                        # change more recomputes every rate
# jump events one trajectory may take, checked once per refill; the most
# any test, demo or benchmark workload takes is 13,412
_SSA_EVENT_BUDGET = 2048 * _SSA_BLOCK
_PSD_TOL = 1e-9
# a lone pivot below this is below -_PSD_TOL * (1 + |pivot|)
_PSD_LONE_FLOOR = -_PSD_TOL / (1.0 - _PSD_TOL)
_PSD_SQRT_TOL = math.sqrt(_PSD_TOL)
_RATE_TOL = 1e-9
_REJECT_LIMIT = 100
_MAX_STEPS = 2 ** 63 - 1


class Engine(enum.Enum):
    EULER_MARUYAMA = "em"
    SSA = "ssa"


class NegativePolicy(enum.Enum):
    CLAMP_ZERO = "clamp"
    REJECT_STEP = "reject"


class SimulationError(RuntimeError):
    pass


class NotSymmetricError(ValueError):
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


def check_seed(base_seed: int) -> None:
    """Refuse a base seed that cannot key a 64-bit Philox stream."""
    if not 0 <= base_seed < 2 ** 64:
        raise SimConfigError("base_seed must fit in 64 bits")


@dataclass(frozen=True)
class SimConfig:
    rates: Mapping[SymbolId, object]
    initial_state: tuple[float, ...]
    t_final: float
    dt: float = 1e-3
    trajectories: int = 100
    base_seed: int = 0
    negative_policy: NegativePolicy = NegativePolicy.CLAMP_ZERO
    grid_points: int = 200

    def __post_init__(self) -> None:
        # written so that NaN fails each test
        if not 0 < self.t_final < math.inf:
            raise SimConfigError(f"t_final must be positive and finite, "
                                 f"got {self.t_final!r}")
        if not 0 < self.dt <= self.t_final:
            raise SimConfigError(f"dt must lie in (0, t_final], "
                                 f"got {self.dt!r}")
        # the step count and the grid's step indices are int64
        steps = self.t_final / self.dt - 1e-9
        if not steps <= _MAX_STEPS:
            count = math.ceil(steps) if steps < math.inf else steps
            raise SimConfigError(f"t_final / dt asks for {count:.6g} steps, "
                                 f"more than {_MAX_STEPS} (2**63 - 1)")
        if self.trajectories < 1:
            raise SimConfigError("need at least one trajectory")
        if self.grid_points < 2:
            raise SimConfigError("need at least two grid points")
        if not all(0 <= x < math.inf for x in self.initial_state):
            raise SimConfigError(f"initial state must be nonnegative and "
                                 f"finite, got {self.initial_state!r}")
        check_seed(self.base_seed)
        for sym, value in self.rates.items():
            if _exact(sym, value) < 0:
                raise SimConfigError(f"rate value for {sym!r} must be "
                                     f"nonnegative, got {value!r}")
        # -0.0 is read as 0.0, which every engine then writes alike
        object.__setattr__(self, "initial_state", tuple(
            0.0 if x == 0 else x for x in self.initial_state))

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.grid_points)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    engine: Engine
    species: tuple[SymbolId, ...]
    times: np.ndarray          # (G,)
    paths: np.ndarray          # (trajectories, G, n)
    clamp_events: np.ndarray   # (trajectories,) count of clamped steps


@dataclass(frozen=True)
class MomentReport:
    times: np.ndarray          # (G,)
    mean: np.ndarray           # (G, n)
    covariance: np.ndarray     # (G, n, n)
    standard_error: np.ndarray  # (G, n) standard error of the mean
    trajectories: int


@dataclass(frozen=True)
class ComparisonReport:
    times: np.ndarray
    mean_a: np.ndarray
    mean_b: np.ndarray
    z: np.ndarray              # (G, n) standardized mean differences
    max_abs_z: float
    threshold: float
    passed: bool


def _stream_key(base_seed: int, index: int) -> int:
    """The Philox key of trajectory index's random stream."""
    check_seed(base_seed)
    if not 0 <= index < 2 ** 64:
        raise ValueError("trajectory index must fit in 64 bits")
    return base_seed ^ index


def _rekey(bits: np.random.Philox, base_seed: int, index: int) -> None:
    """Reset bits to the start of trajectory_rng(base_seed, index)'s
    stream: its key (in 64-bit words, low word first, as Philox splits
    an int key), counter 0, an empty buffer and no pending uint32."""
    key = _stream_key(base_seed, index)
    bits.state = {"bit_generator": "Philox",
                  "state": {"counter": [0, 0, 0, 0],
                            "key": [key & (2 ** 64 - 1), key >> 64]},
                  "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                  "has_uint32": 0, "uinteger": 0}


def trajectory_rng(base_seed: int, index: int) -> np.random.Generator:
    """The dedicated random stream of one trajectory: counter-based
    Philox (4x64, 10 rounds) keyed by base_seed XOR index."""
    return np.random.Generator(
        np.random.Philox(key=_stream_key(base_seed, index)))


def matrix_sqrt_psd(b: np.ndarray) -> np.ndarray:
    """Lower-triangular noise factor L with L L^T = B of (a batch of) PSD
    matrices: a Cholesky factorization that lets pivots vanish (Higham,
    "Analysis of the Cholesky decomposition of a semi-definite matrix",
    1990), one column at a time over the whole batch.

    Each matrix has its own scale 1 + max|B|; tol below is _PSD_TOL.  A
    pivot d <= tol * scale counts as zero: L_kk = sqrt(max(d, 0)) and
    the column below it is zero, which moves no entry of L L^T from B by
    more than sqrt(tol) * scale.  A pivot below -tol * scale, or one
    counted as zero above a column entry beyond sqrt(tol) * scale, which
    no PSD matrix has, raises NotPsdError for the first such matrix in
    batch order.  Asymmetry beyond tol * scale raises NotSymmetricError.
    For n = 1 the factor is sqrt(max(B, 0)).
    """
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


def symmetric_matrices(values, count: int, n: int) -> np.ndarray:
    """A (count, n, n) stack of symmetric matrices from the values of
    their upper triangles' entries (i <= j) in row-major order.

    The stack is a view in which entry (i, j) of every matrix is one
    contiguous row, the layout matrix_sqrt_psd works in."""
    out = np.empty((n, n, count))
    upper = ((i, j) for i in range(n) for j in range(i, n))
    for (i, j), v in zip(upper, values):
        out[i, j] = out[j, i] = v
    return out.transpose(2, 0, 1)


class _EmStepper:
    """Evaluates drift and noise increments for a batch of states with
    one generated function of the drift, then the noise entries."""

    def __init__(self, model: SdeModel, config: SimConfig):
        for r in model.rate_symbols:
            if r not in config.rates:
                raise UnboundRateError(r)
        self.n = len(model.species)
        self.strategy = model.noise_strategy
        if self.strategy is NoiseStrategy.MATRIX_SQRT:
            noise = [model.diffusion[i][j] for i in range(self.n)
                     for j in range(i, self.n)]
            self.wiener_dim = self.n
        else:
            if model.scheme is None:
                raise IncompatibleNoiseError(
                    "per-reaction noise needs the scheme, but the model "
                    "input carries none")
            tr = transition_rates(model.scheme, model.rate_mode)
            noise = [f + g for f, g in zip(tr.forward, tr.backward)]
            self.change = np.array(
                [ia.change for ia in model.scheme.interactions],
                dtype=np.float64)                       # (s, n)
            self.wiener_dim = len(model.scheme.interactions)
        self.fn = as_function([bind_values(p, config.rates)
                               for p in (*model.drift, *noise)],
                              model.species)

    def step(self, states: np.ndarray,
             eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The drift and the noise increment b(phi) eps at each state."""
        count = states.shape[0]
        values = self.fn(*states.T)
        drift = np.empty(states.shape)
        for i, v in enumerate(values[:self.n]):
            drift[:, i] = v
        if self.strategy is NoiseStrategy.PER_REACTION:
            amp = np.empty((count, self.wiener_dim))
            for i, v in enumerate(values[self.n:]):
                amp[:, i] = v
            low = amp.min(initial=0.0)
            if low < -_RATE_TOL:
                raise NegativeRateError(
                    f"per-reaction rate {low:.6e} is negative beyond "
                    f"tolerance {_RATE_TOL:.1e}")
            noise = (np.sqrt(np.clip(amp, 0.0, None)) * eps) @ self.change
            return drift, noise
        bmat = symmetric_matrices(values[self.n:], count, self.n)
        try:
            factor = matrix_sqrt_psd(bmat)
        except NotPsdError as exc:
            state = tuple(states[exc.index].tolist())
            raise NotPsdError(f"diffusion value B at state {state} is not "
                              f"positive semidefinite: {exc}",
                              exc.index) from None
        return drift, np.einsum("tij,tj->ti", factor, eps)


def _grid_step_indices(times: np.ndarray, dt: float, nsteps: int) -> np.ndarray:
    return np.minimum(np.round(times / dt).astype(np.int64), nsteps)


# overflow is not reported as it happens: it leaves a non-finite state (a
# NaN stays NaN), which stops the run at the next grid time
@np.errstate(over="ignore", invalid="ignore")
def euler_maruyama(model: SdeModel, config: SimConfig) -> TrajectoryEnsemble:
    """Fixed-step Euler-Maruyama: phi += A dt + noise sqrt(dt), with the
    noise increment b(phi) eps for standard normal eps.

    Negative proposals follow config.negative_policy: clamp to zero (and
    count the event) or redraw the step's noise up to a retry limit.
    """
    n = len(model.species)
    if len(config.initial_state) != n:
        raise ValueError("initial state length does not match the model")
    stepper = _EmStepper(model, config)
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
            drift, noise = stepper.step(states, eps[:, s, :])
            proposal = states + drift * dt + noise * sqrt_dt
            bad = proposal < 0
            if np.count_nonzero(bad):
                if reject:
                    for j in np.nonzero(bad.any(axis=1))[0]:
                        proposal[j] = _retry_step(stepper, states[j],
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


def _require_finite(states: np.ndarray, t: float) -> None:
    """Raise SimulationError naming the first trajectory whose state is
    not finite at grid time t."""
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        j = int(np.argmin(finite))
        raise SimulationError(
            f"trajectory {j} is not finite at t = {float(t)!r}: the state "
            "overflowed; the model may blow up in finite time, or dt may "
            "be too large")


def _retry_step(stepper: _EmStepper, state: np.ndarray,
                gen: np.random.Generator, dt: float,
                sqrt_dt: float) -> np.ndarray:
    row = state[None, :]
    for _ in range(_REJECT_LIMIT):
        drift, noise = stepper.step(
            row, gen.standard_normal((1, stepper.wiener_dim)))
        proposal = row + drift * dt + noise * sqrt_dt
        if (proposal >= 0).all():
            return proposal[0]
    raise SimulationError(
        f"no nonnegative step found in {_REJECT_LIMIT} redraws; "
        "the step size is likely too large for this state")


def _ssa_rate_lines(channels) -> list[str]:
    """The jump sampler's rate statements at the state x0, x1, ...: first
    r{c} = <rate product> for each channel c, one statement per channel,
    then the running sums c0 = r0, c1 = c0 + r1, ..., so the last sum is
    the total r0 + r1 + ... added left to right on every Python (from
    3.12 on, the builtin sum of floats is compensated and would draw other
    waiting times).

    For nonnegative integer states the plain falling-factorial product
    already vanishes whenever the state cannot supply a channel's complex
    (one factor is exactly zero), so the rates need no feasibility guards.
    """
    lines = []
    for c, (stoich, _, value) in enumerate(channels):
        factors = [repr(float(value))]
        for i in [i for i, m in enumerate(stoich) if m]:
            for k in range(stoich[i]):
                factors.append(f"x{i}" if k == 0 else f"(x{i}-{k})")
        lines.append(f"r{c} = {'*'.join(factors)}")
    lines += [f"c{c} = c{c - 1} + r{c}" if c else "c0 = r0"
              for c in range(len(channels))]
    return lines


def _ssa_leaves(channels, rate_lines: Sequence[str]) -> list[list[str]]:
    """Each channel's leaf of the jump sampler's choice tree: its change
    to the locals x0, x1, ..., then rate_lines[c] for every channel c
    that consumes a species the change moved, in channel order.  Every
    other rate reads unchanged locals and so keeps its bits.  A leaf whose
    moved species have more than _SSA_LEAF_RATES consumers, counted per
    species, ends with `break` instead, back to the loop that recomputes
    every rate; so no leaf holds more than _SSA_LEAF_RATES rate lines."""
    consumers: dict[int, list[int]] = {}
    for c, (stoich, _, _) in enumerate(channels):
        for i in [i for i, m in enumerate(stoich) if m]:
            consumers.setdefault(i, []).append(c)
    leaves = []
    for _, change, _ in channels:
        moved = [i for i, d in enumerate(change) if d]
        leaf = [f"x{i} += {change[i]}" for i in moved]
        if sum(len(consumers.get(i, ())) for i in moved) > _SSA_LEAF_RATES:
            leaf.append("break")
        else:
            leaf += [rate_lines[c] for c in sorted(
                {c for i in moved for c in consumers.get(i, ())})]
        leaves.append(leaf)
    return leaves


def _choice_tree(leaves: Sequence[Sequence[str]], lo: int, hi: int,
                 pad: str) -> list[str]:
    """Statements that run leaves[k] for k = bisect.bisect_right(partial,
    target, lo, hi), partial being the running sums (c0, c1, ...):
    bisect's halving unrolled into `if target < c_mid` tests.  The tree
    makes bisect's comparisons with bisect's midpoints, so it picks
    bisect's leaf for any sums, also unsorted, NaN or inf ones."""
    if lo == hi:
        return [pad + line for line in leaves[lo] or ["pass"]]
    mid = (lo + hi) // 2
    inner = pad + "    "
    return [f"{pad}if target < c{mid}:",
            *_choice_tree(leaves, lo, mid, inner),
            f"{pad}else:",
            *_choice_tree(leaves, mid + 1, hi, inner)]


# The jump sampler's loop over one path; _ssa_path_source fills in the
# state's locals x0, x1, ... (row, store), the channels' rates (rates),
# their running sums (sums, total) and the choice of channel (choice).
# The outer loop computes every rate: at the start of the path and after
# a leaf that breaks; the other leaves recompute the rates they change.
_SSA_PATH = """\
def sample_path(j, init, grid, exponential, uniform, budget):
    {row}= init
    # the blocks of random numbers, the chunk of each turned into floats,
    # the next value of each chunk (ei, ui) and each chunk's start in its
    # block (eat, uat)
    exp_block = exponential({block})
    uni_block = uniform({block})
    exp_buf = exp_block[:{chunk}].tolist()
    uni_buf = uni_block[:{chunk}].tolist()
    ei = eat = ui = uat = 0
    drawn = {block}
    t = 0.0
    g = 0
    g_count = len(grid)
    due = grid[0]
    rows = []
    store = rows.append
    while True:
{rates}
        while True:
{sums}
            total = {total}
            if total <= 0.0:
                t = inf             # absorbed: the state holds forever
            else:
                if ei == {chunk}:
                    eat += {chunk}
                    if eat == {block}:
                        if drawn >= budget:
                            raise SimulationError(
                                f"trajectory {{j}} used up its budget of "
                                f"{{budget}} jump events at t = {{t!r}}: "
                                "the model may blow up in finite time")
                        exp_block = exponential({block})
                        drawn += {block}
                        eat = 0
                    exp_buf = exp_block[eat:eat + {chunk}].tolist()
                    ei = 0
                t += exp_buf[ei] / total
                ei += 1
            # the last grid time is t_final, so an event past it ends the
            # path
            while due < t:
{store}
                g += 1
                if g == g_count:
                    return rows
                due = grid[g]
            if ui == {chunk}:
                uat += {chunk}
                if uat == {block}:
                    uni_block = uniform({block})
                    uat = 0
                uni_buf = uni_block[uat:uat + {chunk}].tolist()
                ui = 0
            target = uni_buf[ui] * total
            ui += 1
{choice}
"""


def _ssa_path_source(channels, n: int) -> str:
    """The source of the function that _compile_ssa_path compiles."""
    lines = _ssa_rate_lines(channels)
    count = len(channels)
    leaves = _ssa_leaves(channels, lines)
    return _SSA_PATH.format(
        row="".join(f"x{i}, " for i in range(n)),
        store="\n".join(f"{' ' * 16}store(x{i})" for i in range(n)),
        rates="\n".join(" " * 8 + line for line in lines[:count]),
        sums="\n".join(" " * 12 + line for line in lines[count:]),
        total=f"c{count - 1}",
        choice="\n".join(_choice_tree(leaves, 0, count - 1, " " * 12)),
        block=_SSA_BLOCK, chunk=_SSA_CHUNK)


def _compile_ssa_path(channels, n: int):
    """Generate the jump sampler's loop over one path as one function
    sample_path(j, init, grid, exponential, uniform, budget) -> rows.

    The state is held in the locals x0, ..., x{n-1} and each channel's
    rate in r0, r1, ... (the statements of _ssa_rate_lines).  Each event
    computes the running sums, waits exponential time over their total,
    picks its channel with _choice_tree and runs the channel's leaf from
    _ssa_leaves: the change to the locals, then the rates of the channels
    that consume a species it moved, or a `break` to the loop that
    recomputes every rate.  A rate whose species did not move keeps its
    bits, so every sum, and so every path, is the one that recomputing
    every rate at every event gives.  At every grid time the path passes,
    the state's coordinates are appended to rows, one flat list.  Random
    numbers come in blocks of _SSA_BLOCK from exponential(k) and
    uniform(k), drawn when the path needs them; each block is turned into
    floats _SSA_CHUNK values at a time.
    """
    return _compile(_ssa_path_source(channels, n), "sample_path",
                    {"inf": math.inf, "SimulationError": SimulationError})


def integer_initial_state(initial_state: Sequence[float]) -> list[int]:
    """The initial state as occupation numbers, which the jump sampler
    needs; a fractional entry raises SimConfigError."""
    for x in initial_state:
        if abs(x - round(x)) > 1e-9:
            raise SimConfigError("jump-process simulation needs an integer "
                                 f"initial state, got {x!r}")
    return [int(round(x)) for x in initial_state]


def gillespie_ssa(scheme: InteractionScheme,
                  config: SimConfig) -> TrajectoryEnsemble:
    """Exact jump-process sampling with exponential waiting times: each
    event fires the first channel whose cumulative rate exceeds u times
    the total (Gillespie's direct method).

    States are integer occupation numbers; sampled paths are reported on
    the shared time grid by last-value interpolation.  The initial state
    must be integral.  A trajectory that needs more than
    _SSA_EVENT_BUDGET events raises SimulationError.
    """
    n = len(scheme.species)
    if len(config.initial_state) != n:
        raise ValueError("initial state length does not match the scheme")
    init = integer_initial_state(config.initial_state)

    float_rates = {sym: float(_exact(sym, v))
                   for sym, v in config.rates.items()}
    sample_path = _compile_ssa_path(reaction_channels(scheme, float_rates),
                                    n)

    times = config.times
    grid = times.tolist()          # the path loop runs on plain floats
    paths = np.empty((config.trajectories, len(grid), n))
    rows = paths.reshape(config.trajectories, -1)     # a view
    bits = np.random.Philox(key=0)      # re-keyed for every path below
    gen = np.random.Generator(bits)
    budget = _SSA_EVENT_BUDGET
    for j in range(config.trajectories):
        _rekey(bits, config.base_seed, j)
        rows[j] = sample_path(j, init, grid, gen.standard_exponential,
                              gen.random, budget)
    return TrajectoryEnsemble(engine=Engine.SSA, species=scheme.species,
                              times=times, paths=paths,
                              clamp_events=np.zeros(config.trajectories,
                                                    dtype=np.int64))


def check_trajectory_count(count: int) -> None:
    """Moment estimates, and so every simulate or check run, need at
    least two trajectories."""
    if count < 2:
        raise TooFewTrajectoriesError("moment estimates need at least two "
                                      "trajectories")


def ensemble_moments(ensemble: TrajectoryEnsemble) -> MomentReport:
    """Per-grid-time mean, sample covariance, and standard error of the
    mean across trajectories."""
    paths = ensemble.paths
    t_count = paths.shape[0]
    check_trajectory_count(t_count)
    mean = paths.mean(axis=0)
    centered = paths - mean
    cov = np.einsum("tgi,tgj->gij", centered, centered) / (t_count - 1)
    variances = np.diagonal(cov, axis1=1, axis2=2)
    stderr = np.sqrt(np.clip(variances, 0.0, None) / t_count)
    return MomentReport(times=ensemble.times, mean=mean, covariance=cov,
                        standard_error=stderr, trajectories=t_count)


def compare_reports(a: MomentReport, b: MomentReport,
                    threshold: float = 4.0) -> ComparisonReport:
    """Standardized mean differences z = (mean_a - mean_b) / pooled SE.

    Where both standard errors vanish, equal means give z = 0 and any
    difference gives an infinite z (a deterministic discrepancy)."""
    if a.times.shape != b.times.shape or not np.allclose(a.times, b.times):
        raise ValueError("moment reports use different time grids")
    se = np.sqrt(a.standard_error ** 2 + b.standard_error ** 2)
    diff = a.mean - b.mean
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, diff / np.where(se > 0, se, 1.0),
                     np.where(diff == 0, 0.0, np.inf))
    max_abs_z = float(np.abs(z).max())
    return ComparisonReport(times=a.times, mean_a=a.mean, mean_b=b.mean,
                            z=z, max_abs_z=max_abs_z, threshold=threshold,
                            passed=bool(max_abs_z <= threshold))


def compare_engines(model: SdeModel, config: SimConfig,
                    threshold: float = 4.0) -> ComparisonReport:
    """Run both engines on the same model and standardize the difference
    of their mean estimates.

    The jump sampler gets a seed offset into a disjoint key range so the
    two engines never share a random stream."""
    if model.scheme is None:
        raise ValueError("engine comparison needs a model built from a scheme")
    em = ensemble_moments(euler_maruyama(model, config))
    ssa_config = replace(config, base_seed=config.base_seed ^ (1 << 63))
    ssa = ensemble_moments(gillespie_ssa(model.scheme, ssa_config))
    return compare_reports(em, ssa, threshold)


# ---------------------------------------------------------------------------
# output formats


def trajectories_to_csv(ensemble: TrajectoryEnsemble) -> str:
    """One row per (trajectory, grid time): "j,t,x_1,...,x_n", every float
    in its shortest repr.

    One template of string slots serves every trajectory: per grid time
    the slots j, ",t,", x_1, ",", ..., x_n and a newline, with the time
    stamps and separators filled in once per call.  Each trajectory puts
    the repr of its values (one pass over ndarray.tolist) and str(j) into
    their slots by slice assignment and joins the template into one
    chunk, which keeps the writer's peak memory near twice its output."""
    names = ",".join(s.name for s in ensemble.species)
    _, grid, n = ensemble.paths.shape
    width = 2 * n + 2
    template = (["", ""] + [","] * (2 * n - 1) + ["\n"]) * grid
    template[1::width] = [f",{t!r}," for t in ensemble.times.tolist()]
    chunks = [f"trajectory,t,{names}\n"]
    for j, path in enumerate(ensemble.paths):
        template[::width] = [str(j)] * grid
        text = list(map(repr, path.ravel().tolist()))
        for i in range(n):
            template[2 + 2 * i::width] = text[i::n]
        chunks.append("".join(template))
    return "".join(chunks)


def moments_to_csv(report: MomentReport,
                   species: Sequence[SymbolId]) -> str:
    names = [s.name for s in species]
    header = ["t"]
    header += [f"mean_{n}" for n in names]
    header += [f"cov_{a}_{b}" for a in names for b in names]
    header += [f"stderr_{n}" for n in names]
    rows = zip(report.times.tolist(), report.mean.tolist(),
               report.covariance.reshape(len(report.times), -1).tolist(),
               report.standard_error.tolist())
    lines = [",".join(header)]
    lines += [",".join(map(repr, [t, *mean, *cov, *stderr]))
              for t, mean, cov, stderr in rows]
    return "\n".join(lines) + "\n"


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b")


def _svg_num(x: float) -> str:
    return format(x, ".6g")


def mean_band_svg(report: MomentReport, species: Sequence[SymbolId]) -> str:
    """Mean of each species over time with a +/-2 SE band, as a small
    self-contained 640 by 400 SVG document."""
    width, height = 640, 400
    ml, mr, mt, mb = 60.0, 20.0, 20.0, 45.0
    pw, ph = width - ml - mr, height - mt - mb
    times = report.times
    lo = float((report.mean - 2 * report.standard_error).min())
    hi = float((report.mean + 2 * report.standard_error).max())
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo -= pad
    hi += pad
    t0, t1 = float(times[0]), float(times[-1])
    if t1 <= t0:
        t1 = t0 + 1.0

    def sx(t):
        return ml + (t - t0) / (t1 - t0) * pw

    def sy(v):
        return mt + (hi - v) / (hi - lo) * ph

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    # axes
    parts.append(f'<line x1="{_svg_num(ml)}" y1="{_svg_num(mt + ph)}" '
                 f'x2="{_svg_num(ml + pw)}" y2="{_svg_num(mt + ph)}" '
                 'stroke="black"/>')
    parts.append(f'<line x1="{_svg_num(ml)}" y1="{_svg_num(mt)}" '
                 f'x2="{_svg_num(ml)}" y2="{_svg_num(mt + ph)}" '
                 'stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = t0 + frac * (t1 - t0)
        v = lo + frac * (hi - lo)
        parts.append(f'<text x="{_svg_num(sx(t))}" y="{_svg_num(mt + ph + 18)}" '
                     f'font-size="11" text-anchor="middle">{_svg_num(t)}</text>')
        parts.append(f'<text x="{_svg_num(ml - 6)}" y="{_svg_num(sy(v) + 4)}" '
                     f'font-size="11" text-anchor="end">{_svg_num(v)}</text>')
    parts.append(f'<text x="{_svg_num(ml + pw / 2)}" '
                 f'y="{_svg_num(height - 8)}" font-size="12" '
                 'text-anchor="middle">t</text>')

    for i, sp in enumerate(species):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        upper = report.mean[:, i] + 2 * report.standard_error[:, i]
        lower = report.mean[:, i] - 2 * report.standard_error[:, i]
        band = " ".join(f"{_svg_num(sx(t))},{_svg_num(sy(v))}"
                        for t, v in zip(times, upper))
        band += " " + " ".join(f"{_svg_num(sx(t))},{_svg_num(sy(v))}"
                               for t, v in zip(times[::-1], lower[::-1]))
        parts.append(f'<polygon points="{band}" fill="{color}" '
                     'fill-opacity="0.15" stroke="none"/>')
        line = " ".join(f"{_svg_num(sx(t))},{_svg_num(sy(v))}"
                        for t, v in zip(times, report.mean[:, i]))
        parts.append(f'<polyline points="{line}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_svg_num(ml + pw - 8)}" '
                     f'y="{_svg_num(mt + 16 + 16 * i)}" font-size="12" '
                     f'text-anchor="end" fill="{color}">{sp.name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
