"""Trajectory simulation for one-step models.

Two engines over a shared configuration: an Euler-Maruyama integrator
for the Langevin model and an exact jump-process (Gillespie) sampler for
the underlying scheme.  Each consumer of draws (Stream) of trajectory j
reads its own counter-based Philox stream keyed by (base_seed, j), so
runs are reproducible in any order and no draw depends on another's.
The Euler-Maruyama engine holds the states as one row per species and
takes each step in one function generated for the model, which factors
B only on its pattern and that pattern's fill.  The jump sampler
advances all paths together, one event each per numpy step and chunk of
draws after chunk of draws, while enough of them are left; each path
that is left then finishes in one function generated for the scheme, on
the path's own streams, which after each event recomputes only the
rates that the event changed.  Both give every path the same bits.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import types
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .cme import reaction_channels
from .derive import (Engine, IncompatibleNoiseError, NegativePolicy,
                     NegativeRateError, NoiseStrategy, NotPsdError,
                     SdeModel, SimConfigError, SimulationError,
                     TooFewTrajectoriesError, transition_rates)
from .floattext import _block_rows, _csv_text, _float_fields
from .poly import (Polynomial, SymbolId, UnboundRateError, _compile, _exact,
                   _ProductTrie, bind_values)
# no longer called here; perfbench's layer hooks still name it in this module
from .poly import as_function  # noqa: F401
from .scheme import InteractionScheme

_CHUNK_STEPS = 256      # noise draws are blocked per trajectory in chunks
_SSA_CHUNK = 64         # jump-sampler draws taken at once, per stream
_SSA_OWN = 4            # chunks of draws after which a path in the jump
                        # sampler's lockstep head gets streams of its own
                        # rather than re-keying the shared pair and reading
                        # past all its earlier values again
_SSA_LEAF_RATES = 16    # rates one event may recompute; an event that would
                        # change more recomputes every rate
_SSA_EVENT_BUDGET = 2 ** 21    # jump events of one path; the most any test,
                               # demo or benchmark workload takes is 13,412
_EM_STEP_BUDGET = 2 ** 21      # Euler-Maruyama steps of one path; the most
                               # any test, demo or benchmark workload takes
                               # is 10,000
_LOCKSTEP_MIN = 96      # active paths below which the jump sampler's
                        # lockstep head hands its paths to the path loop, at
                        # the end of a chunk of draws: on three channels a
                        # head iteration costs about what 90 events of the
                        # path loop cost
_CSV_VALUES_PER_COUNT = 64    # values of a jump-sampler ensemble per
                               # entry of its CSV's table of count cells,
                               # at least: an entry (a row as wide as the
                               # largest count's text) then holds well
                               # under a byte per value, against 4 or more
                               # in the text
_BANK_FLOATS = 2 ** 17  # floats of the Euler-Maruyama step's bank of
                        # products and literals: it takes the states in
                        # blocks of as many columns as keep it within this
                        # (1 MB)
_PSD_TOL = 1e-9
# a lone pivot below this is below -_PSD_TOL * (1 + |pivot|)
_PSD_LONE_FLOOR = -_PSD_TOL / (1.0 - _PSD_TOL)
_PSD_SQRT_TOL = math.sqrt(_PSD_TOL)
_RATE_TOL = 1e-9
_REJECT_LIMIT = 100
_MAX_STEPS = 2 ** 63 - 1


class NotSymmetricError(ValueError):
    pass


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
        # a read-only copy of the rates checked: a change to the caller's
        # mapping reaches no engine
        object.__setattr__(self, "rates", types.MappingProxyType(
            dict(self.rates)))
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


class Stream(enum.IntEnum):
    """A random stream's domain: the last word of its counter's start."""
    EM_NORMALS = 0      # Euler-Maruyama noise
    EM_REDRAWS = 1      # its redrawn noise under NegativePolicy.REJECT_STEP
    SSA_WAITS = 2       # the jump sampler's waiting times
    SSA_CHOICES = 3     # its choices of channel
    CHECK_STATES = 4    # check's sampled states, at index 0


@functools.cache     # at first use: importing numpy.random takes ~15 ms
def _fixed_seed():
    """Each Philox's seed, which rekeying overrides: a seed sequence whose
    state is all zeros, so it reads no OS entropy and hashes nothing."""
    class ZeroSeed(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)
    return ZeroSeed()


def _rekeyer(domain: Stream):
    """rekey(bits, base_seed, index), which resets bits to the start of
    trajectory_rng(base_seed, index, domain), for arguments that it
    accepts: it sets the key of one state dict built here and assigns it,
    half the cost of building the dict per call.  Each caller keeps its
    own."""
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, int(domain)], "key": [0, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}

    def rekey(bits: np.random.Philox, base_seed: int, index: int) -> None:
        state["state"]["key"] = [base_seed, index]
        bits.state = state
    return rekey


def trajectory_rng(base_seed: int, index: int,
                   domain: Stream) -> np.random.Generator:
    """The random stream of one consumer (domain) of trajectory index:
    Philox (4x64, 10 rounds; Salmon et al., SC 2011) with the 128-bit key
    base_seed | index << 64 and its counter starting at domain << 192."""
    check_seed(base_seed)
    if not 0 <= index < 2 ** 64:
        raise ValueError("trajectory index must fit in 64 bits")
    bits = np.random.Philox(_fixed_seed())
    _rekeyer(domain)(bits, base_seed, index)
    return np.random.Generator(bits)


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

    This checks the shapes and the symmetry and takes the scale from both
    halves of B, then gathers each lower triangle into the slot layout of
    the dense pattern, runs _semidefinite_factor on it and scatters L
    back.  The Euler-Maruyama step and check's psd-sampling run the same
    loop on B's own pattern.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim < 2 or b.shape[-1] != b.shape[-2]:
        raise ValueError("expected square matrices on the last two axes")
    n = b.shape[-1]
    m = math.prod(b.shape[:-2])
    full = b.reshape(m, n, n).transpose(1, 2, 0).copy()
    floor = None        # for n = 1, _semidefinite_factor's own
    if n > 1:
        floor = _psd_floor(full.reshape(n * n, m))
        asym = np.abs(full - full.transpose(1, 0, 2)).max(axis=(0, 1),
                                                         initial=0.0)
        if np.count_nonzero(asym > floor):
            i = int(np.argmax(asym > floor))
            raise NotSymmetricError(f"matrix asymmetry {asym[i]:.3e} "
                                    f"exceeds tolerance {floor[i]:.3e}")
    dense = _FactorPattern([(i, j) for i in range(n) for j in range(i)], n)
    lower = tuple(zip(*dense.slots))
    out = np.zeros((n, n, m))
    out[lower] = _semidefinite_factor(full[lower], dense, b.shape[:-2], floor)
    return out.transpose(2, 0, 1).reshape(b.shape)


def _consecutive(rows: Sequence[int]) -> bool:
    return list(rows) == list(range(rows[0], rows[0] + len(rows)))


def _index(positions: Sequence[int]):
    """positions as a slice when they run consecutively, else an intp
    array: either indexes rows alike."""
    if _consecutive(positions):
        return slice(positions[0], positions[0] + len(positions))
    return np.array(positions, dtype=np.intp)


class _FactorPattern:
    """Where B and its noise factor L can be nonzero, read off once from
    the entries (i, j), i > j, below B's diagonal that can be nonzero.

    columns[k] are the rows below the diagonal of column k of L,
    ascending: the symbolic fill of B's pattern, the elimination-tree
    closure of sparse Cholesky (George & Liu, "Computer Solution of Large
    Sparse Positive Definite Systems", 1981; Liu, SIAM J. Matrix Anal.
    Appl. 11, 1990).
    Column k's rows are B's own below (k, k), and those of every column
    whose first row is k; elimination in the species' own order makes a
    nonzero nowhere else.

    B and L are held in one layout, an (len(slots), T) array whose row s
    is entry slots[s] of every matrix: L's pattern on and below the
    diagonal, first (k, k) for every k, then the rows of each column in
    turn, as compressed column storage holds them (Davis, "Direct Methods
    for Sparse Linear Systems", 2006, ch. 4).  A slot of L's fill is one
    where B is zero, so B's polynomials in this layout are entry slots[s]
    of B for every s.  steps[k] is None for a column with no rows below
    the diagonal, else (below, target, p, q): the slice of its slots, and
    a[target] -= col[p] * col[q], with col those rows, is its update of
    every entry (i, j), i >= j, of two of them.  Each index is a slice
    when its positions run consecutively, else an intp array."""

    def __init__(self, below_diagonal, n: int):
        self.n = n
        below = [set() for _ in range(n)]
        for i, j in below_diagonal:
            below[j].add(i)
        columns = []
        for rows in below:
            rows = sorted(rows)
            columns.append(tuple(rows))
            if rows:
                below[rows[0]].update(rows[1:])
        self.columns = tuple(columns)
        self.slots = tuple((k, k) for k in range(n)) + tuple(
            (i, k) for k, rows in enumerate(self.columns) for i in rows)
        slot = {entry: s for s, entry in enumerate(self.slots)}
        self.steps = [None] * n
        for k, rows in enumerate(self.columns):
            if rows:
                update = sorted((slot[i, j], p, q) for p, i in enumerate(rows)
                                for q, j in enumerate(rows[:p + 1]))
                self.steps[k] = (_index([slot[i, k] for i in rows]),
                                 *map(_index, zip(*update)))

    def rows(self) -> list[list[tuple[int, int]]]:
        """Each row's (slot, column) pairs in L's pattern, columns
        ascending, the diagonal last."""
        out = [[] for _ in range(self.n)]
        for s, (i, k) in enumerate(self.slots[self.n:], self.n):
            out[i].append((s, k))
        for i, row in enumerate(out):
            row.append((i, i))
        return out


def _diffusion_pattern(diffusion) -> _FactorPattern:
    """The pattern of the polynomial matrix B, symmetric as SdeModel
    keeps it: the diagonal and the entries that are not the zero
    polynomial."""
    n = len(diffusion)
    return _FactorPattern([(i, j) for i in range(n) for j in range(i)
                           if diffusion[i][j]], n)


def _psd_floor(a: np.ndarray) -> np.ndarray:
    """tol * (1 + max|B|) of each of m matrices, over the rows a (entries,
    m) of their entries: a pivot at or below it counts as zero."""
    floor = np.abs(a).max(axis=0, initial=0.0)
    floor += 1.0
    floor *= _PSD_TOL
    return floor


def _semidefinite_factor(a: np.ndarray, pattern: _FactorPattern,
                         batch: tuple[int, ...],
                         floor: np.ndarray | None = None) -> np.ndarray:
    """matrix_sqrt_psd's factor of the symmetric matrices B, in pattern's
    slot layout: a is (len(pattern.slots), m) with row s entry slots[s]
    of every matrix, so each step below is one operation over the batch.
    The Euler-Maruyama step and check's psd-sampling both pass the rows
    that _row_program gives for B's polynomials in that layout.  a is
    overwritten; L comes back in the same layout.  floor is each
    matrix's scale, _psd_floor(a) by default.  NotPsdError's index is the
    failing matrix's position in batch, a shape of m entries.

    On B's own pattern the factor is the dense loop's, up to the sign of
    zero entries: an entry of L's fill is +0.0 in B, and every update the
    dense loop makes outside L's pattern subtracts +-0.0 from an entry,
    which moves no bits but a zero's sign.  This holds while no product
    overflows: inf * 0.0 is NaN."""
    pivots = a[:pattern.n]      # final when the loop reaches them
    if pattern.n == 1:
        # one pivot and no column below it, which an Euler-Maruyama step
        # of one species cannot afford to wrap in the loop below.  A pivot
        # below -tol * (1 + |d|) is below _PSD_LONE_FLOOR, a test with no
        # scale to work out, so the scale waits for a pivot that fails it
        factor = np.sqrt(np.maximum(pivots, 0.0))
        if not np.count_nonzero(pivots < _PSD_LONE_FLOOR):
            return factor
    if floor is None:
        floor = _psd_floor(a)
    factor = np.empty(a.shape)
    wide = []           # (pivot, the matrices whose column fails there)
    for k, step in enumerate(pattern.steps):
        d = pivots[k]
        root = factor[k]
        np.sqrt(np.maximum(d, 0.0), out=root)
        if step is None:
            continue
        below, target, p, q = step
        keep = d > floor
        col = factor[below]
        # (np.count_nonzero is the cheapest test of a mask)
        if np.count_nonzero(keep) < len(keep):
            # under a pivot counted as zero a PSD matrix has no entry
            # beyond sqrt(tol * scale * B_ii), which is at most
            # sqrt(tol) * scale
            wide.append((k, ~keep & (np.abs(a[below]).max(axis=0)
                                     > floor / _PSD_SQRT_TOL)))
            np.divide(a[below], np.where(keep, root, 1.0), out=col)
            col[:, ~keep] = 0.0
        else:
            np.divide(a[below], root, out=col)
        a[target] -= col[p] * col[q]
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
                          tuple(int(j) for j in np.unravel_index(i, batch)))
    return factor


def _term_positions(sums: Sequence[Sequence]) -> tuple[list[int], list]:
    """The sums 0.0 + v[r0] + v[r1] + ... of sums[k] = [r0, r1, ...], left
    to right, taken one term position at a time: the sums that have a
    term, most terms first (in order among equals), and each position's
    terms of those, so that position t adds its terms into the first
    len(terms[t]) of them."""
    order = sorted((k for k, terms in enumerate(sums) if terms),
                   key=lambda k: -len(sums[k]))
    most = len(sums[order[0]]) if order else 0
    return order, [[sums[k][t] for k in order if len(sums[k]) > t]
                   for t in range(most)]


def _runs(rows: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The maximal runs [i, j) of positions over which each of the row
    lists rows reads consecutive rows, a slice.  (One row read by many
    positions is no run: numpy broadcasts it more slowly than it gathers
    it and runs the product of whole blocks.)"""
    k = len(rows[0])
    if all(_consecutive(r) for r in rows):
        return [(0, k)]
    cuts = [j for j in range(1, k) if any(r[j] != r[j - 1] + 1 for r in rows)]
    return list(zip([0, *cuts], [*cuts, k]))


class _RowProgram:
    """Generated statements over arrays of rows, and the constants they
    read.  op() writes func of its operands' rows into consecutive rows of
    an array, in one numpy call per run of them that every operand reads
    as a slice, or in one call over gathered rows where that takes fewer
    calls (each operand that is no slice then costs a gather)."""

    def __init__(self):
        self.lines: list[str] = []
        self.constants = {"empty": np.empty, "multiply": np.multiply,
                          "add": np.add}

    def const(self, value) -> str:
        name = f"k{len(self.constants)}"
        self.constants[name] = value
        return name

    def op(self, func: str, out: str, start: int, *operands,
           new: str | None = None) -> None:
        """out[start:start + k] = func(*operands), each operand an array
        name and its k rows, or a float literal.  With new, the shape of
        its columns, out is a new (k, ...) array."""
        arrays = [rows for arg in operands if not isinstance(arg, str)
                  for _, rows in [arg]]
        runs = _runs(arrays)
        fancy = [rows for rows in arrays if not _consecutive(rows)]
        if len(runs) > 1 + len(fancy):
            runs = [(0, len(arrays[0]))]
        if new is not None and len(runs) > 1:
            self.lines.append(f"{out} = empty(({len(arrays[0])}, {new}))")
        whole = new is not None and len(runs) == 1
        head = operands[0]
        for i, j in runs:
            # a call on one row takes its rows as one dimension, which
            # numpy runs fastest, unless it makes out, which has two
            flat = j - i == 1 and not whole
            args = [arg if isinstance(arg, str) else
                    self.read(arg[0], arg[1][i:j], flat) for arg in operands]
            if whole and not isinstance(head, str) and \
                    not _consecutive(head[1]):
                # the gathered rows are new: out takes their place
                self.lines += [f"{out} = {args[0]}",
                               f"{func}({', '.join([out, *args[1:]])}, "
                               f"out={out})"]
            elif whole:
                self.lines.append(f"{out} = {func}({', '.join(args)})")
            else:
                target = self.rows(range(start + i, start + j), flat)
                self.lines.append(f"{func}({', '.join(args)}, "
                                  f"out={out}[{target}])")

    def read(self, name: str, rows: Sequence[int], flat: bool) -> str:
        """The rows of the array name: a gather (take, which numpy runs
        faster than fancy indexing) unless they run as a slice."""
        if not _consecutive(rows):
            return f"{name}.take({self.const(np.array(rows, dtype=np.intp))}, 0)"
        return f"{name}[{self.rows(rows, flat)}]"

    @staticmethod
    def rows(rows: Sequence[int], flat: bool) -> str:
        """The index of rows that run as a slice; flat, of one row as one
        dimension."""
        return f"{rows[0]}" if flat else f"{rows[0]}:{rows[-1] + 1}"


def _position_sums(program: _RowProgram, target: str, positions,
                   source: str, new: str | None = None) -> None:
    """The statements of _term_positions' sums into target's rows, one
    per term position: (first, rows), whose sums are target's rows from
    first on and whose terms are those rows of source.  The first
    position writes 0.0 + its terms (into a new target with columns new,
    if given), each later one adds its terms in place."""
    for t, (first, rows) in enumerate(positions):
        sums = range(first, first + len(rows))
        program.op("add", target, first, "0.0" if t == 0 else (target, sums),
                   (source, rows), new=new if t == 0 else None)


def _row_program(polys: Sequence[Polynomial], args: Sequence[SymbolId]
                 ) -> Callable:
    """Compile polys to one function values(x) of the argument rows x, in
    args order, that returns their values as the rows of a new array,
    with the bits of as_function(polys, args):
    - a bank of rows holds the constant terms and the products, the nodes
      of _ProductTrie with the sign of c folded into its literal: a node
      is read only by terms of one sign, and s + (-c * ...) has the bits
      of s - c * ... (a NaN keeps the sign and payload of one operand or
      the other, as numpy's kernels take them, in either);
    - one numpy call per product depth computes the products (_RowProgram
      may split a call into slices, or gather for it): the literals times
      the argument rows for every product with one factor (1.0 * x, which
      is x, where c = 1), then each deeper product as the row before it
      times one more factor row, so a product runs left to right from c;
    - one numpy call per term position adds the term products, as
      _term_positions lays them out: a sum starts at 0.0 + and takes its
      terms in storage order.  A polynomial with no term is 0.0.
    Each depth's products come first those that the next depth reads, in
    the order it reads them, then the terms in position order, so that
    either is a slice where it can be.  The bank takes a block of at most
    WIDTH columns of x at a time, so that it and the literals, as full
    rows, hold at most about _BANK_FLOATS floats; both are kept from call
    to call, one of each per block width (a fresh bank every call would
    have the allocator return and fault in its pages each time)."""
    trie = _ProductTrie(polys, args, signed=True)
    parents, parts = trie.parents, trie.parts
    order, terms = _term_positions([[chain[-1][0] for _, chain in row]
                                    for row in trie.terms])
    level = []          # the factors of each node's product
    for before, part in zip(parents, parts):
        level.append(level[before] + 1 if before >= 0 else int(part[0] == "_"))
    by_level = [[] for _ in range(max(level, default=0) + 1)]
    for v, d in enumerate(level):
        by_level[d].append(v)
    first = {}          # each term product's first (position, sum)
    for t, ends in enumerate(terms):
        for r, v in enumerate(ends):
            first.setdefault(v, (t, r))
    blocks, read = [], []
    for d in range(len(by_level) - 1, 0, -1):
        kept = set(read)
        blocks.append(read + sorted((v for v in by_level[d] if v not in kept),
                                    key=first.__getitem__))
        read = list(dict.fromkeys(parents[v] for v in blocks[-1]))
    blocks.reverse()
    held = sorted((v for v in by_level[0] if v in first), key=first.get)
    row = {v: r for r, v in enumerate([*held, *itertools.chain(*blocks)])}
    heads = [[float(parts[parents[v]]) if parents[v] >= 0 else 1.0]
             for v in blocks[0]] if blocks else []
    width = max(1, _BANK_FLOATS // (len(row) + len(heads) or 1))
    identity = order == list(range(len(order)))

    program = _RowProgram()
    const = program.const
    start = len(held)
    for d, block in enumerate(blocks, 1):
        head = ("literals", range(len(block))) if d == 1 else \
            ("bank", [row[parents[v]] for v in block])
        program.op("multiply", "bank", start, head,
                   ("xc", [int(parts[v][1:]) for v in block]))
        start += len(block)
    # the sums with terms, most terms first: v's first rows, if they are
    program.lines.append(f"s = v[:{len(order)}, c:c + {width}]" if identity
                         else f"s = empty(({len(order)}, w))")
    _position_sums(program, "s", [(0, [row[v] for v in ends])
                                  for ends in terms], "bank")
    if not identity:
        program.lines.append(f"v[{const(_index(order))}, c:c + {width}] = s")

    lines = ["def values(x):",
             "    count = x.shape[1]",
             f"    v = empty(({len(polys)}, count))"]
    zero = sorted(set(range(len(polys))) - set(order))
    if zero:
        lines.append(f"    v[{const(_index(zero))}] = 0.0")
    lines += [f"    for c in range(0, count, {width}):",
              f"        xc = x[:, c:c + {width}]",
              "        w = xc.shape[1]",
              "        if w not in scratch:",
              f"            bank = empty(({len(row)}, w))"]
    if held:
        values = np.array([[float(parts[v])] for v in held])
        lines.append(f"            bank[:{len(held)}] = {const(values)}")
    literals = f"{const(np.array(heads))}.repeat(w, 1)" if heads else "None"
    lines += [f"            scratch[w] = bank, {literals}",
              "        bank, literals = scratch[w]"]
    lines += [f"        {line}" for line in program.lines]
    lines.append("    return v")
    return _compile("\n".join(lines), "values",
                    {**program.constants, "scratch": {}})


def _em_step_source(n: int, rows: Sequence[Sequence[tuple[int, int]]] | None
                    ) -> tuple[str, dict]:
    """The source of the step that _EmStepper compiles for n species, and
    the constants it reads.  The step also reads values, the _row_program
    of the drift and then the noise polynomials, dt and sqrt_dt, and for
    per-reaction noise (rows None) per_reaction and change, else factor
    and pattern.

    The step em_step(x, e) reads the species rows x and the rows e of the
    normal draws.  For --noise sqrt the noise polynomials are B in
    _FactorPattern's slot layout, zero on L's fill, so the rows of values
    from n on are what _semidefinite_factor factors in place.  The noise
    row z_i is then 0.0 + L_ij e_j + ... over the (slot, column j) pairs
    of rows[i], columns ascending, from the products of the factor and
    draw rows and one numpy call per term position (_term_positions).
    That is the sum 0.0 + L_i0 e_0 + ... + L_ii e_i over row i of the
    dense L, added left to right: each entry it leaves out is +-0.0
    there, and so is its term, which leaves a sum that starts at 0.0 as
    it is.  (einsum gives these bits only for some stacks: the order in
    which it adds depends on their shape and strides.)  Per-reaction
    noise comes from the rate rows through per_reaction.  The proposal is
    (x + d dt) + z sqrt_dt, whole arrays, a new array of each call."""
    program = _RowProgram()
    program.lines.append("v = values(x)")
    if rows is None:
        program.lines.append(f"z = per_reaction(v[{n}:], e, change).T")
    else:
        # the rows last to first: a pattern's rows have more entries the
        # later they come, on a ring and for a dense B, so that sum r of
        # _term_positions is row n - 1 - r, and each position's sums are
        # the last rows, taken in their order
        noise, terms = _term_positions([[s for s, _ in pairs]
                                        for pairs in rows[::-1]])
        last = noise == list(range(n))
        column = dict(pair for pairs in rows for pair in pairs)
        slots, positions = [], []
        for ends in terms:
            positions.append((n - len(ends) if last else 0,
                              range(len(slots), len(slots) + len(ends))))
            slots += ends[::-1] if last else ends
        program.lines.append(f"f = factor(v[{n}:], pattern, x.shape[1:])")
        program.op("multiply", "g", 0, ("f", slots),
                   ("e", [column[s] for s in slots]), new="count")
        _position_sums(program, "z", positions, "g", new="count")
        if not last:
            back = [noise.index(n - 1 - i) for i in range(n)]
            program.lines.append(f"z = z[{program.const(_index(back))}]")
    program.lines += ["multiply(z, sqrt_dt, out=z)",
                      f"out = multiply(v[:{n}], dt)",
                      "add(x, out, out=out)",
                      "add(out, z, out=out)",
                      "return out"]
    return "\n".join(["def em_step(x, e):", "    count = x.shape[1]",
                      *(f"    {line}" for line in program.lines)]), \
        program.constants


def _per_reaction_noise(rates: np.ndarray, eps: np.ndarray,
                        change: np.ndarray) -> np.ndarray:
    """The (T, n) noise increments sum_r sqrt(a_r) eps_r change_r from the
    channels' rates a_r and the draws eps, one row per channel each, and
    the channels' changes (s, n)."""
    low = rates.min(initial=0.0)
    if low < -_RATE_TOL:
        raise NegativeRateError(
            f"per-reaction rate {low:.6e} is negative beyond "
            f"tolerance {_RATE_TOL:.1e}")
    # a rate is a sum that starts at 0.0 +, never -0.0, where maximum
    # and clip can differ
    root = np.maximum(rates, 0.0)
    np.sqrt(root, out=root)
    np.multiply(root, eps, out=root)
    return root.T.copy() @ change       # a C-contiguous (T, s) operand


class _EmStepper:
    """One Euler-Maruyama step over species rows.

    States are held as an (n, T) array, one contiguous row per species,
    and the normal draws of a step as an (m, T) array, one row per Wiener
    component.  step(states, eps) returns the proposal as a new (n, T)
    array from one function generated per model (_em_step_source): a
    row program evaluates the drift and noise polynomials into one array
    of rows with one numpy call per product depth and one per term
    position, with the bits of as_function; B's polynomials are taken
    one per slot of _FactorPattern's layout, so its rows land there and
    _semidefinite_factor factors them in place, and the noise rows and
    the proposal are whole-array operations, with no stacked matrices,
    transposes or einsum.  check's psd-sampling compiles the same slot
    polynomials and factors the same rows.
    Per-reaction noise keeps its (T, s) @ change product.  Every call
    allocates its own arrays, so a proposal shares no buffer with
    another.

    For --noise sqrt all of it works on B's pattern (_FactorPattern),
    read once from the model: the diagonal and the entries of
    model.diffusion that are not the zero polynomial, so a model input
    with no scheme has one too.  Only those entries and L's fill, where
    B is the zero polynomial, are compiled and written, the factor
    updates only its symbolic fill, and each noise row sums only its row
    of that fill.  An entry left out is exactly 0.0 at every state, so
    every proposal has the dense step's bits."""

    def __init__(self, model: SdeModel, config: SimConfig):
        for r in model.rate_symbols:
            if r not in config.rates:
                raise UnboundRateError(r)
        namespace = {"dt": config.dt, "sqrt_dt": math.sqrt(config.dt)}
        if model.noise_strategy is NoiseStrategy.PER_REACTION:
            if model.scheme is None:
                raise IncompatibleNoiseError(
                    "per-reaction noise needs the scheme, but the model "
                    "input carries none")
            tr = model.transition_rates
            if tr is None:          # a model restored from JSON
                tr = transition_rates(model.scheme, model.rate_mode)
            noise = [f + g for f, g in zip(tr.forward, tr.backward)]
            namespace["per_reaction"] = _per_reaction_noise
            namespace["change"] = np.array(
                [ia.change for ia in model.scheme.interactions],
                dtype=np.float64)                       # (s, n)
            self.wiener_dim = len(model.scheme.interactions)
            rows = None
        else:
            pattern = _diffusion_pattern(model.diffusion)
            # one polynomial per slot: the upper triangle's entry, which
            # equals the lower's, and the zero polynomial on L's fill
            noise = [model.diffusion[k][i] for i, k in pattern.slots]
            namespace["factor"] = _semidefinite_factor
            namespace["pattern"] = pattern
            rows = pattern.rows()
            self.wiener_dim = len(model.species)
        namespace["values"] = _row_program(
            [bind_values(p, config.rates) for p in (*model.drift, *noise)],
            model.species)
        source, constants = _em_step_source(len(model.species), rows)
        self._step = _compile(source, "em_step", {**namespace, **constants})

    def step(self, states: np.ndarray, eps: np.ndarray) -> np.ndarray:
        """The proposal states + drift dt + b(states) eps sqrt(dt), for
        states (n, T) and draws eps (m, T)."""
        try:
            return self._step(states, eps)
        except NotPsdError as exc:
            state = tuple(states[:, exc.index[0]].tolist())
            raise NotPsdError(f"diffusion value B at state {state} is not "
                              f"positive semidefinite: {exc}",
                              exc.index) from None


def _grid_step_indices(times: np.ndarray, dt: float, nsteps: int) -> np.ndarray:
    return np.minimum(np.round(times / dt).astype(np.int64), nsteps)


# overflow is not reported as it happens: it leaves a non-finite state (a
# NaN stays NaN), which stops the run at the next grid time
@np.errstate(over="ignore", invalid="ignore")
def euler_maruyama(model: SdeModel, config: SimConfig) -> TrajectoryEnsemble:
    """Fixed-step Euler-Maruyama: phi += A dt + noise sqrt(dt), with the
    noise increment b(phi) eps for standard normal eps.

    Negative proposals follow config.negative_policy: clamp to zero (and
    count the event) or redraw the step's noise up to a retry limit.  A
    run of more than _EM_STEP_BUDGET steps per path raises SimConfigError
    before any work.
    """
    nsteps = check_em_steps(config)
    n = len(model.species)
    if len(config.initial_state) != n:
        raise ValueError("initial state length does not match the model")
    stepper = _EmStepper(model, config)
    t_count = config.trajectories
    times = config.times
    grid_at = _grid_step_indices(times, config.dt, nsteps)
    reject = config.negative_policy is NegativePolicy.REJECT_STEP

    # one contiguous row per species
    states = np.empty((n, t_count))
    states[:] = np.asarray(config.initial_state, dtype=np.float64)[:, None]
    paths = np.empty((t_count, len(times), n))
    clamps = np.zeros(t_count, dtype=np.int64)
    seed = config.base_seed
    gens = [trajectory_rng(seed, j, Stream.EM_NORMALS) for j in range(t_count)]
    redraws = {}        # path j's redraw stream, from its first redraw on

    g = 0
    step = 0
    while g < len(times) and grid_at[g] == 0:
        paths[:, g] = states.T
        g += 1
    m = stepper.wiener_dim
    while step < nsteps:
        k = min(_CHUNK_STEPS, nsteps - step)
        # path j's draws of the chunk are column j: the draws of one step
        # are one contiguous row per Wiener component
        eps = np.empty((k, m, t_count))
        for j, gen in enumerate(gens):
            eps[:, :, j] = gen.standard_normal((k, m))
        for s in range(k):
            proposal = stepper.step(states, eps[s])
            bad = proposal < 0
            if np.count_nonzero(bad):
                if reject:
                    for j in np.nonzero(bad.any(axis=0))[0].tolist():
                        gen = redraws.get(j) or redraws.setdefault(
                            j, trajectory_rng(seed, j, Stream.EM_REDRAWS))
                        proposal[:, j] = _retry_step(stepper, states[:, j],
                                                     gen)
                else:
                    clamps += bad.any(axis=0)
                    np.clip(proposal, 0.0, None, out=proposal)
            states = proposal
            step += 1
            while g < len(times) and grid_at[g] == step:
                _require_finite(states.T, times[g])
                paths[:, g] = states.T
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
                gen: np.random.Generator) -> np.ndarray:
    column = state[:, None]
    for _ in range(_REJECT_LIMIT):
        proposal = stepper.step(
            column, gen.standard_normal((stepper.wiener_dim, 1)))
        if (proposal >= 0).all():
            return proposal[:, 0]
    raise SimulationError(
        f"no nonnegative step found in {_REJECT_LIMIT} redraws; "
        "the step size is likely too large for this state")


def _rate_factors(channels) -> list[list[tuple[int, int]]]:
    """Each channel's rate factors x_i - k as (i, k), in the order its rate
    multiplies them after its value: species by species, k = 0 ... m_i - 1
    for m_i of species i in the channel's complex.  _ssa_rate_lines and
    _rate_table both read this order, so the path loop and the lockstep
    head give each rate the same bits."""
    return [[(i, k) for i, m in enumerate(stoich) for k in range(m)]
            for stoich, _, _ in channels]


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
    for c, ((_, _, value), factors) in enumerate(
            zip(channels, _rate_factors(channels))):
        terms = [repr(float(value)),
                 *(f"(x{i}-{k})" if k else f"x{i}" for i, k in factors)]
        lines.append(f"r{c} = {'*'.join(terms)}")
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


# The jump sampler's loop over one path, from value drawn of its streams
# on (0 at a path's start, else where the lockstep head handed it over);
# _ssa_path_source fills in the state's locals x0, x1, ... (row, store),
# the channels' rates (rates), their running sums (sums, total) and the
# choice of channel (choice).
# The outer loop computes every rate: at the start of the path and after
# a leaf that breaks; the other leaves recompute the rates they change.
_SSA_PATH = """\
def sample_path(j, state, t, g, drawn, grid, exponential, uniform, budget):
    {row}= state
    # value i of the current chunks of count waiting times and choices;
    # drawn counts the values read from each stream
    i = count = 0
    g_count = len(grid)
    due = grid[g]
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
                if i == count:
                    if drawn >= budget:
                        raise SimulationError(
                            f"trajectory {{j}} used up its budget of "
                            f"{{budget}} jump events at t = {{t!r}}: "
                            "the model may blow up in finite time, or t_final "
                            "needs more jump events than the budget")
                    count = min({chunk}, budget - drawn)
                    waits = exponential(count).tolist()
                    choices = uniform(count).tolist()
                    drawn += count
                    i = 0
                t += waits[i] / total
            # the last grid time is t_final, so an event past it ends the
            # path
            while due < t:
{store}
                g += 1
                if g == g_count:
                    return rows
                due = grid[g]
            target = choices[i] * total
            i += 1
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
        chunk=_SSA_CHUNK)


def _compile_ssa_path(channels, n: int):
    """Generate the jump sampler's loop over one path as one function
    sample_path(j, state, t, g, drawn, grid, exponential, uniform, budget)
    -> rows, which finishes path j: at time t, in state (Python ints),
    with grid times g on stored, and its streams read up to value drawn.

    The state is held in the locals x0, ..., x{n-1} and each channel's
    rate in r0, r1, ... (the statements of _ssa_rate_lines).  Each event
    computes the running sums, waits exponential time over their total,
    picks its channel with _choice_tree and runs the channel's leaf from
    _ssa_leaves: the change to the locals, then the rates of the channels
    that consume a species it moved, or a `break` to the loop that
    recomputes every rate.  A rate whose species did not move keeps its
    bits, so every sum, and so every path, is the one that recomputing
    every rate at every event gives.  At every grid time the path passes,
    the state's coordinates are appended to rows, one flat list.  Waiting
    times and choices come in chunks of min(_SSA_CHUNK, budget - drawn)
    from exponential(c) and uniform(c), drawn together when the path
    needs its next waiting time (no value depends on the chunk size);
    waiting time budget + 1 raises SimulationError.
    """
    return _compile(_ssa_path_source(channels, n), "sample_path",
                    {"inf": math.inf, "SimulationError": SimulationError})


def _rate_table(channels, init):
    """The lockstep head's plan for the rates of _ssa_rate_lines on a bank
    of factor rows: rows 0 ... n-1 are the states x_i, the next ones the
    factors x_i - k (k >= 1) that some channel reads, and, when some
    channel has fewer factors than another, a last row of 1.0.  Returns
    (bank, change, values, positions): bank the (rows, 1) column at the
    state init, change the (rows, C) change of every row per channel (x_i
    - k moves with x_i, and the row of 1.0 stays), values the (C, 1) rate
    values, and positions one intp array per factor position p giving the
    bank row of every channel's p-th factor (the row of 1.0 past its
    last).  Multiplying the rows in that order is each rate line's
    product, left to right; times 1.0 every value keeps its bits, NaN and
    inf included."""
    n = len(init)
    factors = _rate_factors(channels)
    shifted = sorted({f for fs in factors for f in fs if f[1]})
    depth = max(1, *map(len, factors))
    rows = [*((i, 0) for i in range(n)), *shifted]
    if any(len(fs) < depth for fs in factors):
        rows.append(None)
    index = {f: r for r, f in enumerate(rows)}
    positions = [np.array([index[fs[p] if p < len(fs) else None]
                           for fs in factors], dtype=np.intp)
                 for p in range(depth)]
    bank = np.array([[init[f[0]] - f[1] if f else 1.0] for f in rows],
                    dtype=np.float64)
    change = np.array([[d[f[0]] if f else 0 for _, d, _ in channels]
                       for f in rows], dtype=np.float64)
    values = np.array([[value] for _, _, value in channels],
                      dtype=np.float64)
    return bank, change, values, positions


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _lockstep_head(channels, init, times: np.ndarray, flat: np.ndarray,
                   draw, budget: int) -> tuple[list[tuple], int]:
    """Advance every path together, one event per path and iteration, as
    the path loop would: the rates of _rate_table's bank, their running
    sums, the waiting time e / total (inf where the total is <= 0:
    absorbed), the grid rows the path passes, filled with its state, and
    the channel whose running sum first exceeds u * total.

    flat is the (trajectories * G, n) view of the paths.  The draws come
    in chunks of _SSA_CHUNK, the last one cut short at the event budget:
    draw(ids, start, waits, choices) fills rows ids of the (trajectories,
    take) arrays waits and choices with values start ... start + take - 1
    of those paths' streams.  A path leaves once it passes the last grid
    time.  Only where a chunk would start does the head decide whether
    to run it, from x_i, the active paths' largest count of species i,
    plus following * max|d| (following, the chunk's events; d, a
    channel's change).  It runs the chunk unless it is at the budget,
    fewer than _LOCKSTEP_MIN paths are active, a count could reach 2**53
    (the states are float64 rows (n, active), which hold the path loop's
    ints exactly below it), or sum_c value_c * prod_i max(1, x_i,
    m_i)**m_i (m_i, the count of species i that channel c consumes)
    reaches 2**1023: that sum bounds every rate and running sum, as
    |x_i - k| <= max(x_i, m_i), so below it no total is inf or NaN.  Otherwise it hands every path left to the path loop.  Returns
    (tails, end): end, the values each stream of a path has read when the
    last chunk ends, and tails, (j, state, t, g) per path handed over, in
    trajectory order: its state as Python ints, time and next grid row.

    The running sums are nondecreasing and finite: the rate values are
    >= 0 (SimConfig keeps the rates it checked), a rate with a factor
    x_i - k < 0 has the factor 0 too, and the bound above holds.  So the
    count of sums before the last that are <= u * total is bisect_right's
    choice and _choice_tree's."""
    n = len(init)
    first, change, values, positions = _rate_table(channels, init)
    stoich = np.array([m for m, _, _ in channels], dtype=np.float64)
    moves, deepest = np.abs(change).max(), stoich.max()
    grid_count = len(times)
    ids = np.arange(len(flat) // grid_count)
    bank = first.repeat(len(ids), 1)
    t = np.zeros(len(ids))
    base = ids * grid_count         # each path's first row of flat
    at = base.copy()                # and its next one
    written = np.zeros(len(flat), dtype=bool)
    columns = list(flat.T)          # one strided view per species
    # the chunk of draws start ... start + take - 1, at its value k
    start = take = k = 0
    exps, unis = np.empty((2, len(ids), _SSA_CHUNK))
    rates = np.empty((0, 0))
    while len(ids):
        if k == take:
            following = min(_SSA_CHUNK, budget - start - take)
            # the counts the chunk can reach, and the bound on its rates
            # (max(x, m)**m is max(1, x, m)**m, as x**0 is 1)
            reach = bank[:n].max(1) + following * moves
            bound = values[:, 0] @ (np.maximum(reach, stoich)
                                    ** stoich).prod(1)
            if following <= 0 or len(ids) < _LOCKSTEP_MIN or \
                    reach.max() + deepest >= 2 ** 53 or \
                    not bound < 2.0 ** 1023:
                break
            start, take, k = start + take, following, 0
            draw(ids, start, exps[:, :take], unis[:, :take])
        if rates.shape[1] != len(ids):      # buffers per active count
            rates, factor, scale = np.empty((3, len(values), len(ids)))
            scale[:] = values
            # c_k = c_{k-1} + r_k, one row after another, in place
            sums = list(zip(rates[1:], rates[:-1]))
        bank.take(positions[0], 0, rates, "clip")
        rates *= scale
        for factor_rows in positions[1:]:
            bank.take(factor_rows, 0, factor, "clip")
            rates *= factor
        for row, before in sums:
            row += before
        total = rates[-1]
        t = np.where(total > 0.0, t + exps[:, k].take(ids) / total, math.inf)
        # the state before the event is the path's at each grid time up
        # to t: it goes to the next grid row, where a later event
        # overwrites it if t passed none, and to the rows after that when
        # the head ends, copied from the last row written before them
        for column, x in zip(columns, bank):
            column[at] = x
        written[at] = True
        passed = times.searchsorted(t)
        at = base + passed
        live = passed < grid_count
        chosen = (rates[:-1] <= unis[:, k].take(ids) * total).sum(0)
        bank += change.take(chosen, 1)
        k += 1
        if np.count_nonzero(live) < len(ids):
            ids, bank, t, base, at = ids[live], bank[:, live], t[live], \
                base[live], at[live]
    # every other row a path passed copies the last row written before it
    rows = written.nonzero()[0]
    if len(rows):
        flat[rows[0]:] = flat.take(rows, 0).repeat(
            np.diff(rows, append=len(flat)), 0)
    # before its first chunk the head holds init as floats, maybe rounded
    states = bank[:n].T.astype(np.int64).tolist() if take else \
        [init] * len(ids)
    return list(zip(ids.tolist(), states, t.tolist(),
                    (at - base).tolist())), start + take


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

    _lockstep_head runs the paths together, chunk of draws after chunk of
    draws, while its rule allows; at a chunk's end it hands the paths
    left, or all of them, to sample_path, which finishes each in
    trajectory order on its streams read past the values the head used.
    Only the number of active paths, their counts, the rate values and
    the budget choose between the two, and no bit of any path depends on
    the choice.
    """
    n = len(scheme.species)
    if len(config.initial_state) != n:
        raise ValueError("initial state length does not match the scheme")
    init = integer_initial_state(config.initial_state)

    float_rates = {sym: float(_exact(sym, v))
                   for sym, v in config.rates.items()}
    channels = reaction_channels(scheme, float_rates)
    sample_path = _compile_ssa_path(channels, n)

    times = config.times
    grid = times.tolist()          # the path loop runs on plain floats
    count = config.trajectories
    paths = np.empty((count, len(grid), n))
    rows = paths.reshape(count, -1)     # a view
    seed = config.base_seed
    waits = trajectory_rng(seed, 0, Stream.SSA_WAITS)  # re-keyed every path
    choices = trajectory_rng(seed, 0, Stream.SSA_CHOICES)
    rekey_waits = _rekeyer(Stream.SSA_WAITS)
    rekey_choices = _rekeyer(Stream.SSA_CHOICES)
    budget = _SSA_EVENT_BUDGET

    own = {}        # path: its own pair of streams, past _SSA_OWN chunks

    def streams(j, drawn):
        """Path j's streams of waiting times and choices at their value
        drawn: the shared pair re-keyed or, from chunk _SSA_OWN on
        (counting from 0), a pair of its own, read past the values before.
        Its own pair, once made, is read in order and so is at drawn."""
        if j in own:
            return own[j]
        if drawn < _SSA_OWN * _SSA_CHUNK:
            rekey_waits(waits.bit_generator, seed, j)
            rekey_choices(choices.bit_generator, seed, j)
            pair = waits, choices
        else:
            pair = own[j] = (trajectory_rng(seed, j, Stream.SSA_WAITS),
                             trajectory_rng(seed, j, Stream.SSA_CHOICES))
        if drawn:
            pair[0].standard_exponential(drawn)
            pair[1].random(drawn)
        return pair

    def draw(ids, start, exps, unis):
        """The values from start on of paths ids' streams, into their rows
        of exps and unis."""
        for j in ids.tolist():
            path_waits, path_choices = streams(j, start)
            path_waits.standard_exponential(out=exps[j])
            path_choices.random(out=unis[j])

    tails, end = _lockstep_head(channels, init, times, paths.reshape(-1, n),
                                draw, budget)
    for j, state, t, g in tails:
        path_waits, path_choices = streams(j, end)
        rows[j, g * n:] = sample_path(
            j, state, t, g, end, grid, path_waits.standard_exponential,
            path_choices.random, budget)
    return TrajectoryEnsemble(engine=Engine.SSA, species=scheme.species,
                              times=times, paths=paths,
                              clamp_events=np.zeros(count, dtype=np.int64))


def check_em_steps(config: SimConfig) -> int:
    """The Euler-Maruyama steps of one path; more than _EM_STEP_BUDGET
    raises SimConfigError."""
    steps = int(math.ceil(config.t_final / config.dt - 1e-9))
    if steps > _EM_STEP_BUDGET:
        raise SimConfigError(f"t_final / dt asks for {steps} Euler-Maruyama "
                             f"steps per path, more than the budget of "
                             f"{_EM_STEP_BUDGET}")
    return steps


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
    of their mean estimates; the engines share no random stream."""
    if model.scheme is None:
        raise ValueError("engine comparison needs a model built from a scheme")
    em = ensemble_moments(euler_maruyama(model, config))
    ssa = ensemble_moments(gillespie_ssa(model.scheme, config))
    return compare_reports(em, ssa, threshold)


# ---------------------------------------------------------------------------
# output formats


def _count_strings(ensemble: TrajectoryEnsemble) -> np.ndarray | None:
    """The cells of float(k) for k = 0 ... the largest count, one NUL-padded
    row each (_float_fields), when ensemble is the jump sampler's and every
    value is such a count: a float64 k of at most one per
    _CSV_VALUES_PER_COUNT values that round-trips bit for bit through its
    index (so never -0.0, a fraction, NaN or inf).  None otherwise."""
    paths = ensemble.paths
    if (ensemble.engine is not Engine.SSA or not paths.size
            or paths.dtype != np.float64):
        return None
    top = paths.max()
    if not 0 <= paths.min() <= top <= paths.size // _CSV_VALUES_PER_COUNT:
        return None
    counts = paths.astype(np.intp).astype(np.float64)
    if not np.array_equal(counts.view(np.int64), paths.view(np.int64)):
        return None
    return _float_fields(np.arange(int(top) + 1, dtype=np.float64))


def trajectories_to_csv(ensemble: TrajectoryEnsemble) -> str:
    """One row per (trajectory, grid time): "j,t,x_1,...,x_n", every float
    in its shortest repr.

    The text is assembled as bytes, a block of paths at a time: each
    value's repr is a NUL-padded cell (floattext), and _csv_text lays out
    the cells of j, of t and of x_1 ... x_n in rows, drops the NULs and
    decodes the block once.  A block holds at most _BLOCK_VALUES values
    (_block_rows), which keeps the writer's peak memory near twice its output.

    A jump-sampler path holds counts, so where every value is a count of
    at most one per _CSV_VALUES_PER_COUNT values (_count_strings), each
    count's cell is made once, in a table, and a block takes its cells
    from the table by one take; otherwise, and always for
    Euler-Maruyama, each value's cell comes from _float_fields.  The limit
    bounds the table's memory."""
    names = ",".join(s.name for s in ensemble.species)
    head = f"trajectory,t,{names}\n"
    count, grid, n = ensemble.paths.shape
    if not count:
        return head
    labels = np.arange(count).astype(f"S{len(str(count - 1))}")
    labels = labels.view(np.uint8).reshape(count, 1, 1, -1)
    times = _float_fields(ensemble.times).reshape(1, grid, 1, -1)
    table = _count_strings(ensemble)
    step = _block_rows(grid * n)
    chunks = [head]
    for j in range(0, count, step):
        paths = ensemble.paths[j:j + step]
        if table is None:
            cells = _float_fields(paths)
        else:
            cells = table.take(paths.astype(np.intp), axis=0)
        chunks.append(_csv_text(labels[j:j + step], times, cells))
    return "".join(chunks)


def moments_to_csv(report: MomentReport,
                   species: Sequence[SymbolId]) -> str:
    """One row per grid time: t, the means, the covariance row by row and
    the standard errors, every float in its shortest repr, assembled as
    bytes a block of rows at a time as trajectories_to_csv does."""
    names = [s.name for s in species]
    header = ["t"]
    header += [f"mean_{n}" for n in names]
    header += [f"cov_{a}_{b}" for a in names for b in names]
    header += [f"stderr_{n}" for n in names]
    grid = len(report.times)
    values = np.concatenate(
        [np.reshape(report.times, (grid, 1)), report.mean,
         report.covariance.reshape(grid, -1), report.standard_error], axis=1)
    step = _block_rows(values.shape[1])
    chunks = [",".join(header) + "\n"]
    chunks += [_csv_text(_float_fields(values[g:g + step]))
               for g in range(0, grid, step)]
    return "".join(chunks)


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

    def points(ts, vs):
        return " ".join(f"{_svg_num(sx(t))},{_svg_num(sy(v))}"
                        for t, v in zip(ts, vs))

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
        band = f"{points(times, upper)} {points(times[::-1], lower[::-1])}"
        parts.append(f'<polygon points="{band}" fill="{color}" '
                     'fill-opacity="0.15" stroke="none"/>')
        parts.append(f'<polyline points="{points(times, report.mean[:, i])}" '
                     f'fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_svg_num(ml + pw - 8)}" '
                     f'y="{_svg_num(mt + 16 + 16 * i)}" font-size="12" '
                     f'text-anchor="end" fill="{color}">{sp.name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
