"""Command line interface.

Subcommands: derive (scheme -> symbolic model + exports), simulate
(trajectory ensembles with either engine), check (self-verification of a
scheme's derived model against direct enumeration and cross-engine
statistics), codegen (single-target export).

Exit codes are a stable contract: 0 success, 1 a check failed, 2 parse
or usage error or a simulation the settings cannot carry out, 3 binding
error (missing rate values or malformed bindings).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from . import __version__
from .codegen import (ModelFormatError, emit_c_source, emit_latex,
                      emit_model_json, model_from_json)
from .derive import (DiffusionSign, Engine, IncompatibleNoiseError,
                     NegativePolicy, NegativeRateError, NoiseStrategy,
                     NotPsdError, RateMode, SdeModel, SimConfigError,
                     SimulationError, TooFewTrajectoriesError,
                     build_sde_model, diffusion_matrix, transition_rates)
# no longer called here; perfbench's layer hooks still name them in this module
from .derive import drift_vector  # noqa: F401
from .poly import as_function  # noqa: F401
from .poly import (ExpressionSyntaxError, MissingSymbolError, UnboundRateError,
                   bind_values, canonical_string, symbol_ranks,
                   _fractions_differ)
from .scheme import SchemeError, format_scheme, parse_scheme

# The names this module takes from cme and sim, which import numpy and which
# derive and codegen never need: _load_numeric binds them, and numpy as np,
# at first use, so those commands start without importing numpy.
_NUMERIC = {
    **dict.fromkeys(("StateBox", "default_box", "jump_moments",
                     "moved_together"), "cme"),
    **dict.fromkeys(("SimConfig", "Stream", "_diffusion_pattern",
                     "_row_program", "_semidefinite_factor", "check_em_steps",
                     "check_seed", "check_trajectory_count",
                     "compare_engines", "ensemble_moments", "euler_maruyama",
                     "gillespie_ssa", "integer_initial_state",
                     "mean_band_svg", "moments_to_csv",
                     "trajectories_to_csv", "trajectory_rng"), "sim"),
}


def _load_numeric() -> None:
    """Bind numpy as np and the _NUMERIC names into this module.  A name
    already bound keeps its value, so a wrapper installed through the
    module attribute (onestep.cli.<name>) is the one the commands call."""
    import numpy
    from . import cme, sim
    modules = {"cme": cme, "sim": sim}
    names = globals()
    names.setdefault("np", numpy)
    for name, module in _NUMERIC.items():
        names.setdefault(name, getattr(modules[module], name))


def __getattr__(name):
    if name != "np" and name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_numeric()
    return globals()[name]


class RatesFileError(ValueError):
    pass


class InitialStateError(ValueError):
    pass


class ManifestError(ValueError):
    pass


class UsageError(ValueError):
    """A command-line value the command cannot use (exit 2)."""


# ---------------------------------------------------------------------------
# input helpers


# the largest rate value a float holds: every engine computes in floats
_LARGEST_RATE = Fraction(sys.float_info.max)
# a decimal with an exponent: Fraction would expand the exponent into an
# integer of as many digits before any range check could refuse it
_SCIENTIFIC = re.compile(r"(\s*[-+]?(?=\.?\d)[\d_]*\.?[\d_]*)"
                         r"[eE]([-+]?\d+(?:_\d+)*)\s*")


def parse_rate_value(text: str) -> Fraction:
    """One rate value, parsed exactly: a nonnegative decimal or an integer
    rational p/q no larger than the largest float.  A positive value that
    is 0.0 as a float is refused, since the oracles would see a rate that
    both engines see as none.

    A decimal's exponent is read apart from its mantissa and clamped
    before it is applied.  The mantissa lies within 10**-len(text) and
    10**len(text) in size, so the clamped exponent still takes every
    value it took out of the float range out of it."""
    try:
        if "/" in text:
            num, den = text.split("/")
            value = Fraction(int(num), int(den))
        elif scientific := _SCIENTIFIC.fullmatch(text):
            bound = len(text)
            exponent = min(max(int(scientific[2]), -bound - 325), bound + 309)
            value = Fraction(scientific[1]) * Fraction(10) ** exponent
        else:
            value = Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise RatesFileError(f"bad value {text!r} ({exc})") from None
    if value < 0:
        raise RatesFileError(f"value {text!r} is negative")
    if value > _LARGEST_RATE:
        raise RatesFileError(f"value {text!r} is above the largest float "
                             f"{sys.float_info.max!r}")
    if value and float(value) == 0.0:
        raise RatesFileError(f"value {text!r} is positive but rounds to 0.0 "
                             "as a float")
    return value


def parse_rates_file(text: str) -> dict[str, Fraction]:
    """Lines of "symbol = value" with '#' comments; values as in
    parse_rate_value."""
    out: dict[str, Fraction] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, eq, value = line.partition("=")
        name = name.strip()
        value = value.strip()
        if not eq or not name or not value:
            raise RatesFileError(f"rates file line {line_no}: expected "
                                 "'symbol = value'")
        if name in out:
            raise RatesFileError(f"rates file line {line_no}: duplicate "
                                 f"binding for {name!r}")
        try:
            out[name] = parse_rate_value(value)
        except RatesFileError as exc:
            raise RatesFileError(f"rates file line {line_no}: rate "
                                 f"{name!r}: {exc}") from None
    return out


def bind_rates(scheme_rates, table: dict[str, Fraction]):
    bound = {}
    for sym in scheme_rates:
        if sym.name not in table:
            raise UnboundRateError(sym)
        bound[sym] = table[sym.name]
    return bound


def parse_initial(text: str, species) -> tuple[float, ...]:
    """The initial state from comma-separated name=value pairs, one per
    species; see initial_state."""
    values: dict[str, float] = {}
    for part in text.split(","):
        name, eq, value = part.partition("=")
        name = name.strip()
        value = value.strip()
        if not eq or not name:
            raise InitialStateError(f"bad initial-state entry {part!r}; "
                                    "expected name=value")
        if name in values:
            raise InitialStateError(f"duplicate initial value for {name!r}")
        try:
            values[name] = float(value)
        except ValueError:
            raise InitialStateError(f"bad initial value {value!r} for "
                                    f"{name!r}") from None
    return initial_state(values, species)


def initial_state(values: dict, species) -> tuple[float, ...]:
    """The values of a name -> number mapping as floats in species order;
    the mapping must name each species and nothing else."""
    names = [s.name for s in species]
    for name in values:
        if name not in names:
            raise InitialStateError(f"unknown species {name!r} in initial "
                                    "state")
    missing = [n for n in names if n not in values]
    if missing:
        raise InitialStateError("initial state missing species: "
                                + ", ".join(missing))
    return tuple(float(values[n]) for n in names)


def parse_box(text: str, species) -> StateBox:
    """One nonnegative integer bound for every species, or one bound per
    species, comma-separated."""
    _load_numeric()
    parts = text.split(",")
    try:
        bounds = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"bad --box {text!r}; expected nonnegative "
                         "integer bounds") from None
    if any(b < 0 for b in bounds):
        raise UsageError(f"bad --box {text!r}; bounds must be nonnegative")
    if len(bounds) == 1:
        bounds = bounds * len(species)
    elif len(bounds) != len(species):
        raise UsageError(f"--box has {len(bounds)} bounds for "
                         f"{len(species)} species; give one bound or one "
                         "per species")
    return StateBox(tuple(bounds))


def _load_text(path: str) -> str:
    return Path(path).read_text()


def _input_kind(path: str) -> str:
    """"model" for a model JSON file, "scheme" for scheme text."""
    return "model" if path.endswith(".json") else "scheme"


def _stem(path: str) -> str:
    stem = Path(path).stem
    if stem.endswith(".model"):
        stem = stem[: -len(".model")]
    return stem


def load_model(kind: str, text: str, rate_mode: str, sign: str, noise: str,
               allow_shared_rates: bool) -> SdeModel:
    """The model of an input of the given kind: restored from model JSON,
    or derived from scheme text with the given derivation settings, which
    a model JSON input ignores."""
    if kind == "model":
        return model_from_json(text)
    return build_sde_model(parse_scheme(text, allow_shared_rates),
                           RateMode(rate_mode), DiffusionSign(sign),
                           NoiseStrategy(noise))


# ---------------------------------------------------------------------------
# derive


def model_report(model: SdeModel) -> str:
    order = symbol_ranks(model.display_order)
    lines = []
    if model.scheme is not None:
        lines.append("scheme:")
        for row in format_scheme(model.scheme).splitlines():
            lines.append(f"    {row}")
    lines.append("species: " + ", ".join(s.name for s in model.species))
    lines.append("rates: " + ", ".join(r.name for r in model.rate_symbols))
    lines.append(f"rate mode: {model.rate_mode.value}")
    lines.append(f"diffusion sign: {model.diffusion_sign.value}")
    lines.append(f"noise strategy: {model.noise_strategy.value}")
    if model.scheme is not None:
        tr = model.transition_rates
        if tr is None:              # a model restored from JSON
            tr = transition_rates(model.scheme, model.rate_mode)
        lines.append("stoichiometry (one row per interaction):")
        for i, ia in enumerate(model.scheme.interactions, start=1):
            init = ", ".join(str(c) for c in ia.initial)
            fin = ", ".join(str(c) for c in ia.final)
            vec = ", ".join(f"{d:+d}" for d in ia.change)
            lines.append(f"    I_{i} = ({init})   F_{i} = ({fin})   r_{i} = ({vec})")
        lines.append("transition rates:")
        for i, (f, b) in enumerate(zip(tr.forward, tr.backward), start=1):
            lines.append(f"    s+_{i} = {canonical_string(f, order)}")
            lines.append(f"    s-_{i} = {canonical_string(b, order)}")
    names = [s.name for s in model.species]
    lines.append("drift:")
    for name, p in zip(names, model.drift):
        lines.append(f"    A({name}) = {canonical_string(p, order)}")
    lines.append("diffusion:")
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            lines.append(f"    B({a},{b}) = "
                         f"{canonical_string(model.diffusion[i][j], order)}")
    lines.append("sde:")
    if len(names) == 1:
        a = canonical_string(model.drift[0], order)
        b = canonical_string(model.diffusion[0][0], order)
        lines.append(f"    d{names[0]} = ({a}) dt + sqrt({b}) dW")
    else:
        for i, name in enumerate(names):
            a = canonical_string(model.drift[i], order)
            lines.append(f"    d{name} = ({a}) dt + (b dW)_{name}")
        lines.append("    with b b^T = B")
    return "\n".join(lines) + "\n"


def cmd_derive(args) -> int:
    model = load_model("scheme", _load_text(args.scheme), args.rate_mode,
                       args.diffusion_sign, args.noise,
                       args.allow_shared_rates)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = _stem(args.scheme)
    report = model_report(model)
    fn_name = re.sub(r"[^A-Za-z0-9_]", "_", stem)
    if not fn_name or fn_name[0].isdigit():
        fn_name = "_" + fn_name
    written = {
        out_dir / f"{stem}.tex": emit_latex(model),
        out_dir / f"{stem}_model.c": emit_c_source(model, function_name=fn_name),
        out_dir / f"{stem}.model.json": emit_model_json(model),
        out_dir / f"{stem}.report.txt": report,
    }
    for path, content in written.items():
        path.write_text(content)
    sys.stdout.write(report)
    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# codegen


def cmd_codegen(args) -> int:
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", args.function_name):
        raise UsageError(f"bad --function-name {args.function_name!r}; "
                         "expected a C identifier")
    model = load_model(_input_kind(args.input), _load_text(args.input),
                       args.rate_mode, args.diffusion_sign, args.noise,
                       args.allow_shared_rates)
    if args.target == "latex":
        text = emit_latex(model)
    elif args.target == "c":
        text = emit_c_source(model, function_name=args.function_name)
    else:
        text = emit_model_json(model)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# simulate


# the manifest layout; replay also needs the onestep version that wrote it
MANIFEST_FORMAT = 1


@dataclass
class RunManifest:
    """Everything needed to reproduce a simulation run byte for byte."""

    tool_version: str
    format_version: int
    input_kind: str                 # "scheme" | "model"
    input_text: str
    rates: dict                     # name -> exact value string
    initial: dict                   # name -> float
    engine: str
    rate_mode: str
    diffusion_sign: str
    noise_strategy: str
    negative_policy: str
    t_final: float
    dt: float
    trajectories: int
    grid_points: int
    seed: int
    allow_shared_rates: bool
    prefix: str
    outputs: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "RunManifest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"malformed manifest JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ManifestError("malformed manifest: expected a JSON object")
        # another version may draw other bits from the same manifest
        for name, current in (("tool_version", __version__),
                              ("format_version", MANIFEST_FORMAT)):
            if name not in data:
                raise ManifestError(f"manifest has no {name}; this onestep "
                                    f"replays only its own manifests "
                                    f"({__version__}, format "
                                    f"{MANIFEST_FORMAT})")
            if data[name] != current:
                raise ManifestError(f"manifest {name} {data[name]!r} is "
                                    f"not this onestep's {current!r}; it "
                                    "would not replay byte for byte")
        try:
            manifest = RunManifest(**data)
        except TypeError as exc:
            raise ManifestError(f"malformed manifest: {exc}") from exc
        manifest.validate()
        return manifest

    def validate(self) -> None:
        """Raise ManifestError for a field of the wrong type or, where
        the field names a choice, an unknown value."""
        for f in fields(self):
            value = getattr(self, f.name)
            kinds, described = _MANIFEST_TYPES[f.type]
            if not _json_is(value, kinds):
                raise ManifestError(
                    f"malformed manifest: field {f.name!r} must be "
                    f"{described}, got {json.dumps(value)[:40]}")
            if f.name in _MANIFEST_CHOICES \
                    and value not in _MANIFEST_CHOICES[f.name]:
                raise ManifestError(
                    f"malformed manifest: {f.name} {value!r} is not one "
                    f"of {', '.join(_MANIFEST_CHOICES[f.name])}")
        for name, x in self.initial.items():
            if not _json_is(x, (int, float)):
                raise ManifestError(
                    f"malformed manifest: initial value of {name!r} must "
                    f"be a number, got {json.dumps(x)[:40]}")
            if isinstance(x, int) and abs(x) > sys.float_info.max:
                raise ManifestError(f"malformed manifest: initial value of "
                                    f"{name!r} is beyond the float range")
        # outputs are written to out_dir / (prefix + suffix)
        if self.prefix in ("", "..") or Path(self.prefix).name != self.prefix:
            raise ManifestError(f"malformed manifest: prefix {self.prefix!r} "
                                "must be a plain file name")


def _json_is(value, kinds: tuple) -> bool:
    """isinstance for a JSON value, except that a bool, an int subclass,
    passes only where kinds lists bool."""
    return isinstance(value, kinds) and (bool in kinds
                                         or not isinstance(value, bool))


# field annotation -> (accepted JSON value types, their description)
_MANIFEST_TYPES = {
    "str": ((str,), "a string"),
    "dict": ((dict,), "an object"),
    "list": ((list,), "a list"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
}

_MANIFEST_CHOICES = {
    "input_kind": ("scheme", "model"),
    "engine": tuple(e.value for e in Engine),
    "rate_mode": tuple(m.value for m in RateMode),
    "diffusion_sign": tuple(s.value for s in DiffusionSign),
    "noise_strategy": tuple(s.value for s in NoiseStrategy),
    "negative_policy": tuple(p.value for p in NegativePolicy),
}


def _manifest_outputs(prefix: str) -> list:
    return [f"{prefix}.trajectories.csv", f"{prefix}.moments.csv",
            f"{prefix}.mean.svg"]


def execute_manifest(manifest: RunManifest, out_dir: Path,
                     model: SdeModel | None = None) -> list[Path]:
    """Run the simulation a manifest describes and write its outputs.

    model is the manifest's input already loaded, if the caller has it;
    otherwise it is loaded here.  The same manifest always produces
    byte-identical files."""
    _load_numeric()
    if model is None:
        model = load_model(manifest.input_kind, manifest.input_text,
                           manifest.rate_mode, manifest.diffusion_sign,
                           manifest.noise_strategy,
                           manifest.allow_shared_rates)
    scheme = model.scheme
    rate_table = {}
    for name, value in manifest.rates.items():
        try:
            rate_table[name] = parse_rate_value(value)
        except RatesFileError as exc:
            raise RatesFileError(f"manifest rate {name!r}: {exc}") from None
    rates = bind_rates(model.rate_symbols, rate_table)
    initial = initial_state(manifest.initial, model.species)
    config = SimConfig(rates=rates, initial_state=initial,
                       t_final=manifest.t_final, dt=manifest.dt,
                       trajectories=manifest.trajectories,
                       base_seed=manifest.seed,
                       negative_policy=NegativePolicy(
                           manifest.negative_policy),
                       grid_points=manifest.grid_points)
    check_trajectory_count(config.trajectories)
    if manifest.engine == Engine.SSA.value:
        if scheme is None:
            raise ManifestError("jump-process simulation needs a scheme, "
                                "but the model input carries none")
        ensemble = gillespie_ssa(scheme, config)
    else:
        ensemble = euler_maruyama(model, config)
    moments = ensemble_moments(ensemble)

    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = manifest.prefix
    manifest.outputs = _manifest_outputs(prefix)
    written = []
    contents = [trajectories_to_csv(ensemble),
                moments_to_csv(moments, model.species),
                mean_band_svg(moments, model.species)]
    for name, content in zip(manifest.outputs, contents):
        path = out_dir / name
        path.write_text(content)
        written.append(path)
    manifest_path = out_dir / f"{prefix}.manifest.json"
    manifest_path.write_text(manifest.to_json())
    written.append(manifest_path)
    return written


def cmd_simulate(args) -> int:
    model = None
    if args.from_manifest:
        manifest = RunManifest.from_json(_load_text(args.from_manifest))
    else:
        if args.input is None:
            print("error: simulate needs a scheme/model input or "
                  "--from-manifest", file=sys.stderr)
            return 2
        if args.rates is None or args.initial is None:
            print("error: simulate needs --rates and --initial",
                  file=sys.stderr)
            return 2
        input_text = _load_text(args.input)
        input_kind = _input_kind(args.input)
        # a scheme is read here for its vocabulary only: execute_manifest
        # derives the model; a model JSON input is loaded once, here, and
        # brings its own derivation settings
        settings = dict(rate_mode=args.rate_mode,
                        diffusion_sign=args.diffusion_sign,
                        noise_strategy=args.noise)
        if input_kind == "model":
            source = model = model_from_json(input_text)
            settings = {name: getattr(source, name).value
                        for name in settings}
        else:
            source = parse_scheme(input_text, args.allow_shared_rates)
        rate_table = parse_rates_file(_load_text(args.rates))
        bound = bind_rates(source.rate_symbols, rate_table)
        initial = parse_initial(args.initial, source.species)
        manifest = RunManifest(
            tool_version=__version__,
            format_version=MANIFEST_FORMAT,
            input_kind=input_kind,
            input_text=input_text,
            rates={sym.name: str(v) for sym, v in bound.items()},
            initial={s.name: x for s, x in zip(source.species, initial)},
            engine=args.engine,
            **settings,
            negative_policy=args.negative_policy,
            t_final=args.t_final,
            dt=args.dt,
            trajectories=args.trajectories,
            grid_points=args.grid_points,
            seed=args.seed,
            allow_shared_rates=args.allow_shared_rates,
            prefix=_stem(args.input))
    written = execute_manifest(manifest, Path(args.out), model)
    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# check


_WHOLE_BOX = 4096       # check uses every state of a box this small
_SAMPLED = 512          # and this many distinct states of a larger one
_LARGEST_BOUND = 2 ** 63 - 1    # the largest bound int64 draws can reach


def _sample_states(box: StateBox, seed: int):
    _load_numeric()
    if box.size <= _WHOLE_BOX:
        return list(box.states())
    # each batch draws as many states as are still missing, coordinate by
    # coordinate in row-major order: the draws of one scalar integers
    # call per coordinate, so a batch stops where such a loop would
    rng = trajectory_rng(seed, 0, Stream.CHECK_STATES)
    bounds = np.array(box.bounds, dtype=np.int64)
    states = set()
    while len(states) < _SAMPLED:
        batch = rng.integers(0, bounds, endpoint=True,
                             size=(_SAMPLED - len(states), len(bounds)))
        states.update(map(tuple, batch.tolist()))
    return sorted(states)


def _compared_entries(scheme, diffusion) -> list[tuple[int, int]]:
    """The entries of B's upper triangle that check compares with the
    enumerated second moment, in row-major order: those where B is not the
    zero polynomial or that some channel moves (moved_together).  At every
    other entry both are exactly 0 at every state.  Both sides are
    symmetric, so a mismatch at (j, i) is one at (i, j), which comes first
    in row-major order."""
    _load_numeric()
    moved = moved_together(np.array([ia.change
                                      for ia in scheme.interactions]))
    return sorted({*((i, j) for i, j in moved if i <= j),
                   *((i, j) for i, row in enumerate(diffusion)
                     for j, p in enumerate(row[i:], start=i) if p)})


def _moment_mismatches(moments, drift, diffusion, entries, point):
    """Where the enumerated jump moments differ from the drift and from
    B's entries at the states of the point: (S, n) and (S, len(entries))
    boolean arrays.  Each polynomial is evaluated once over all states,
    and values are compared exactly by cross-multiplication
    (poly._fractions_differ)."""
    _load_numeric()

    def differs(numerators, p):
        value = p.evaluate(point)
        if isinstance(value, Fraction):         # p reads no species
            value = (value.numerator, value.denominator)
        values, denominator = value
        return _fractions_differ(numerators, moments.denominator,
                                 values, denominator)

    first_wrong = np.zeros(moments.first.shape, dtype=bool)
    for i, p in enumerate(drift):
        first_wrong[:, i] = differs(moments.first[:, i], p)
    second_wrong = np.zeros((len(first_wrong), len(entries)), dtype=bool)
    for e, (i, j) in enumerate(entries):
        second_wrong[:, e] = differs(moments.second.get((i, j), 0),
                                     diffusion[i][j])
    return first_wrong, second_wrong


def cmd_check(args) -> int:
    _load_numeric()
    scheme = parse_scheme(_load_text(args.scheme), args.allow_shared_rates)
    rate_table = parse_rates_file(_load_text(args.rates))
    rates = bind_rates(scheme.rate_symbols, rate_table)
    sign = DiffusionSign(args.diffusion_sign)
    mode = RateMode(args.rate_mode)
    initial = parse_initial(args.initial, scheme.species) if args.initial \
        else None

    # validated before the box and the exact checks, so a bad setting
    # costs nothing; the seed also draws the sampled states
    check_seed(args.seed)
    if not 0.0 < args.threshold < float("inf"):
        raise UsageError(f"--threshold must be positive and finite, got "
                         f"{args.threshold!r}")
    config = None if initial is None else SimConfig(
        rates=rates, initial_state=initial, t_final=args.t_final,
        dt=args.dt, trajectories=args.trajectories, base_seed=args.seed,
        grid_points=args.grid_points)
    if config is not None:
        check_trajectory_count(config.trajectories)
        check_em_steps(config)
        integer_initial_state(config.initial_state)
    if args.box:
        box = parse_box(args.box, scheme.species)
    else:
        box = default_box(scheme, rates, initial)
    for sym, b in zip(scheme.species, box.bounds):
        if b > _LARGEST_BOUND:
            raise UsageError(f"box bound {b} for species '{sym.name}' is "
                             f"above {_LARGEST_BOUND}, the largest bound the "
                             "states can be sampled from")

    # a second-moment or PSD failure that the difference convention
    # predicts for reversible interactions can be downgraded
    sign_status = ("ADVISORY" if sign is DiffusionSign.DIFFERENCE
                   and any(ia.reversible for ia in scheme.interactions)
                   and args.allow_sign_mismatch else "FAIL")
    results = []  # (status, name, detail); status PASS | FAIL | ADVISORY

    # each matrix is derived once: the engines always run on the exact/sum
    # model, whose drift is the exact drift and whose diffusion serves
    # every check of the exact/sum form
    check_model = build_sde_model(scheme, RateMode.EXACT, DiffusionSign.SUM,
                                  NoiseStrategy.MATRIX_SQRT)
    exact_diff = (check_model.diffusion if sign is DiffusionSign.SUM
                  else diffusion_matrix(scheme, RateMode.EXACT, sign))
    requested_diff = (exact_diff if mode is RateMode.EXACT
                      else diffusion_matrix(scheme, mode, sign))

    # enumerated jump moments vs the symbolic derivation, exact arithmetic:
    # the first mismatch is taken in state order, then entry order.  The
    # second moment is compared only where B or a channel can make it
    # nonzero
    states = _sample_states(box, args.seed)
    columns = np.array(states, dtype=np.int64).T
    point = {**rates, **dict(zip(scheme.species, columns))}
    moments = jump_moments(scheme, rates, states)
    entries = _compared_entries(scheme, exact_diff)
    first_wrong, second_wrong = _moment_mismatches(
        moments, check_model.drift, exact_diff, entries, point)
    first_bad = np.argwhere(first_wrong)[:1].tolist()
    second_bad = [(s, *entries[e])
                  for s, e in np.argwhere(second_wrong)[:1].tolist()]
    del moments, point              # freed before the engines run
    n = len(scheme.species)

    if not first_bad:
        results.append(("PASS", "first-jump-moment",
                        f"drift equals the enumerated first moment exactly "
                        f"on {len(states)} states"))
    else:
        s, i = first_bad[0]
        results.append(("FAIL", "first-jump-moment",
                        f"mismatch at state {states[s]}, component {i}"))

    if not second_bad:
        results.append(("PASS", "second-jump-moment",
                        f"diffusion ({sign.value} form) equals the "
                        f"enumerated second moment exactly on "
                        f"{len(states)} states"))
    else:
        s, i, j = second_bad[0]
        detail = (f"diffusion ({sign.value} form) differs from the "
                  f"enumerated second moment at state {states[s]}, "
                  f"entry ({i},{j})")
        if sign_status == "ADVISORY":
            detail += ("; expected for the difference convention with "
                       "reversible interactions")
        results.append((sign_status, "second-jump-moment", detail))

    # symbolic symmetry of the requested diffusion matrix
    symmetric = all(requested_diff[i][j] == requested_diff[j][i]
                    for i in range(n) for j in range(n))
    results.append(("PASS" if symmetric else "FAIL", "diffusion-symmetry",
                    "B is symmetric as polynomials" if symmetric
                    else "B is not symmetric"))

    # B has the engines' noise factor at every state, requested convention:
    # the Euler-Maruyama step's row program of B's polynomials, one per
    # slot of its pattern (_diffusion_pattern), and its factor of those
    # rows, whose verdict, state and pivot are the dense loop's, as every
    # entry left out is 0.0 at every state
    pattern = _diffusion_pattern(requested_diff)
    diffusion = _row_program([bind_values(requested_diff[k][i], rates)
                              for i, k in pattern.slots], scheme.species)
    with np.errstate(over="ignore", invalid="ignore"):
        b = diffusion(columns.astype(np.float64))
        for s in np.flatnonzero(~np.isfinite(b).all(axis=0))[:1]:
            raise UsageError(f"B({states[s]}) is beyond the float range; "
                             "rescale the rate values")
        try:
            _semidefinite_factor(b, pattern, (len(states),))
            results.append(("PASS", "psd-sampling", "B has a semidefinite "
                            f"factor at all {len(states)} states"))
        except NotPsdError as exc:
            results.append((sign_status, "psd-sampling",
                            f"B({states[exc.index[0]]}) is not positive "
                            f"semidefinite under the {sign.value} "
                            f"convention: {exc}"))

    # cross-engine agreement always runs on the exact/sum model, the one
    # convention whose Langevin equation matches the jump process
    if initial is None:
        results.append(("FAIL", "engine-consistency",
                        "needs --initial to start the trajectories"))
    else:
        report = compare_engines(check_model, config,
                                 threshold=args.threshold)
        status = "PASS" if report.passed else "FAIL"
        results.append((status, "engine-consistency",
                        f"max |z| = {report.max_abs_z:.3f} vs threshold "
                        f"{report.threshold:.1f} over "
                        f"{len(report.times)} grid times, "
                        f"{args.trajectories} trajectories per engine"))

    failed = False
    for status, name, detail in results:
        print(f"{status} {name}: {detail}")
        if status == "FAIL":
            failed = True
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _add_derivation_flags(p: argparse.ArgumentParser,
                          noise: bool = True) -> None:
    p.add_argument("--rate-mode", choices=[m.value for m in RateMode],
                   default=RateMode.FOKKER_PLANCK.value,
                   help="transition-rate form: falling factorials (exact) "
                        "or plain powers (fp)")
    p.add_argument("--diffusion-sign",
                   choices=[s.value for s in DiffusionSign],
                   default=DiffusionSign.DIFFERENCE.value,
                   help="second-moment convention: forward minus backward "
                        "(difference) or forward plus backward (sum)")
    if noise:
        p.add_argument("--noise", choices=[s.value for s in NoiseStrategy],
                       default=NoiseStrategy.MATRIX_SQRT.value,
                       help="how the Langevin noise realizes B")
    p.add_argument("--allow-shared-rates", action="store_true",
                   help="let one rate symbol appear in several interactions")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-final", type=float, default=1.0)
    p.add_argument("--trajectories", type=int, default=100)
    p.add_argument("--grid-points", type=int, default=200)
    p.add_argument("--initial",
                   help="comma-separated name=value pairs, one per species")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onestep",
        description="Stochastize one-step interaction schemes: derive "
                    "Langevin models, verify them, simulate them, export "
                    "them.")
    parser.add_argument("--version", action="version",
                        version=f"onestep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="derive the symbolic model and write "
                                      "all exports")
    p.add_argument("scheme", help="scheme text file")
    _add_derivation_flags(p)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("simulate", help="run trajectory ensembles")
    p.add_argument("input", nargs="?",
                   help="scheme text file or model JSON file")
    p.add_argument("--rates", help="rate bindings file (symbol = value)")
    p.add_argument("--engine", choices=[e.value for e in Engine],
                   default=Engine.EULER_MARUYAMA.value)
    p.add_argument("--negative-policy",
                   choices=[n.value for n in NegativePolicy],
                   default=NegativePolicy.CLAMP_ZERO.value)
    _add_derivation_flags(p)
    _add_sim_flags(p)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--from-manifest",
                   help="rerun a recorded simulation byte-for-byte")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="verify a scheme's derivation and "
                                     "engines against each other")
    p.add_argument("scheme", help="scheme text file")
    p.add_argument("--rates", required=True)
    # the engine check always realizes B by its matrix factor
    _add_derivation_flags(p, noise=False)
    _add_sim_flags(p)
    p.add_argument("--box", help="truncation box, one bound or "
                                 "comma-separated per-species bounds")
    p.add_argument("--threshold", type=float, default=4.0,
                   help="|z| limit for the engine comparison")
    p.add_argument("--allow-sign-mismatch", action="store_true",
                   help="downgrade the expected difference-convention "
                        "second-moment mismatch to an advisory")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("codegen", help="emit one export target")
    p.add_argument("input", help="scheme text file or model JSON file")
    p.add_argument("--target", choices=["latex", "c", "json"],
                   required=True)
    p.add_argument("--function-name", default="model",
                   help="symbol prefix for the C functions")
    _add_derivation_flags(p)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_codegen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SchemeError, ExpressionSyntaxError, ModelFormatError,
            ManifestError, IncompatibleNoiseError, UsageError,
            SimConfigError, TooFewTrajectoriesError, SimulationError,
            NotPsdError, NegativeRateError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the array it could not allocate; Python names none
        detail = str(exc)
        print(f"error: out of memory{': ' if detail else ''}{detail}",
              file=sys.stderr)
        return 2
    except (UnboundRateError, MissingSymbolError, RatesFileError,
            InitialStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
