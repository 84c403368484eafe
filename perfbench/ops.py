"""The benchmark's ops and the correctness gate each op must pass.

Four ops drive ``onestep.cli.main`` in-process (derive, simulate with
either engine, check); the fifth runs the master-equation oracle through
the public ``onestep.cme`` calls.  An op fails if it raises, exits
non-zero, or its output fails the gate below.

The first run of each op (the warm-up) gets the full gate: exports
round-trip, simulate outputs are present, finite and byte-identical to a
``--from-manifest`` replay, and the jump-sampler mean agrees with the
oracle.  Later runs at the same seed must reproduce the warm-up's bytes,
which carries that gate over at the cost of a hash.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DERIVATION_FLAGS, Workload

CLI_OPS = ("derive", "simulate_em", "simulate_ssa", "check")
OPS = CLI_OPS + ("oracle",)

LEAK_LIMIT = 1e-6           # mass the oracle may lose through the box edge
Z_LIMIT = 4.0               # |z| of the jump-sampler mean against the oracle
CHECK_NAMES = ("first-jump-moment", "second-jump-moment",
               "diffusion-symmetry", "psd-sampling", "engine-consistency")


def write_inputs(workload: Workload, directory: Path) -> tuple[Path, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    scheme = directory / f"{workload.name}.scheme"
    rates = directory / f"{workload.name}.rates"
    scheme.write_text(workload.scheme)
    rates.write_text(workload.rates)
    return scheme, rates


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class OpResult:
    start: float                # perf_counter at the start of the timed call
    seconds: float
    error: str | None = None


@dataclass
class Runner:
    workload: Workload
    seed: int
    work: Path
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)      # op -> {file: sha256}
    oracle_mean: list | None = None

    def __post_init__(self) -> None:
        self.scheme_path, self.rates_path = write_inputs(self.workload,
                                                         self.work / "in")

    # -- running -------------------------------------------------------------

    def run(self, op: str, tracer=None) -> OpResult:
        """Run one op; with a tracer, its root span is "op.<op>"."""
        self.attempted += 1
        first = op not in self.hashes
        start = time.perf_counter()
        try:
            if tracer is not None:
                root = tracer.open(f"op.{op}")
            try:
                start, seconds, detail = getattr(self, f"_{op}")()
            finally:
                if tracer is not None:
                    tracer.close(root)
            error = self._gate(op, detail, first)
        except (Exception, SystemExit) as exc:      # every failure is counted
            seconds, error = math.nan, f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            self.errors.append(f"{op}: {error}")
        return OpResult(start, seconds, error)

    def _cli(self, argv: list[str]):
        from onestep.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = main(argv)
            seconds = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()} "
                               f"{out.getvalue().strip()}")
        return start, seconds, out.getvalue()

    def _sim_args(self) -> list[str]:
        w = self.workload
        return [*DERIVATION_FLAGS, "--initial", w.initial_arg,
                "--seed", str(self.seed), "--dt", repr(w.dt),
                "--t-final", repr(w.t_final),
                "--trajectories", str(w.trajectories),
                "--grid-points", str(w.grid_points)]

    def _derive(self):
        start, seconds, _ = self._cli(["derive", str(self.scheme_path),
                                       *DERIVATION_FLAGS,
                                       "--out", str(self.work / "derive")])
        return start, seconds, self.work / "derive"

    def _simulate(self, engine: str, extra: list[str]):
        out = self.work / engine
        start, seconds, _ = self._cli(["simulate", str(self.scheme_path),
                                       "--rates", str(self.rates_path),
                                       "--engine", engine, *self._sim_args(),
                                       *extra, "--out", str(out)])
        return start, seconds, out

    def _simulate_em(self):
        return self._simulate("em", ["--noise", self.workload.em_noise])

    def _simulate_ssa(self):
        return self._simulate("ssa", [])

    def _check(self):
        return self._cli(["check", str(self.scheme_path),
                          "--rates", str(self.rates_path),
                          *self._sim_args()])

    def _oracle(self):
        import onestep.cme as cme
        from onestep.cli import bind_rates, parse_rates_file
        from onestep.scheme import parse_scheme

        w = self.workload
        scheme = parse_scheme(w.scheme)
        rates = bind_rates(scheme.rate_symbols, parse_rates_file(w.rates))
        start = time.perf_counter()
        if w.oracle_box is None:
            initial = tuple(v for _, v in w.initial)
            box = cme.default_box(scheme, rates, initial)
        else:
            initial = w.oracle_initial
            box = cme.StateBox(w.oracle_box)
        gen = cme.build_generator(scheme, rates, box)
        dist = cme.evolve_distribution(gen, cme.point_mass(box, initial),
                                       w.t_final)
        mean, _ = cme.distribution_moments(dist)
        seconds = time.perf_counter() - start
        return start, seconds, (mean.tolist(), dist.leaked)

    # -- gates ---------------------------------------------------------------

    def _gate(self, op: str, detail, first: bool) -> str | None:
        if op == "check":
            return self._gate_check(detail)
        if op == "oracle":
            return self._gate_oracle(*detail)
        if op == "derive":
            error = self._gate_derive(detail) if first else None
        else:
            error = self._gate_simulate(detail) if first else None
        if error is None:
            hashes = {p.name: sha256(p) for p in sorted(detail.iterdir())}
            if first:
                self.hashes[op] = hashes
            elif hashes != self.hashes[op]:
                error = "outputs differ from the first run at the same seed"
        return error

    def _gate_check(self, stdout: str) -> str | None:
        heads = [line.split(":", 1)[0] for line in stdout.splitlines()]
        if heads != [f"PASS {name}" for name in CHECK_NAMES]:
            return f"expected five PASS lines, got {stdout!r}"
        return None

    def _gate_oracle(self, mean, leaked) -> str | None:
        if not leaked <= LEAK_LIMIT:
            return f"leaked mass {leaked:.3e} exceeds {LEAK_LIMIT:.0e}"
        if not all(math.isfinite(m) for m in mean):
            return f"non-finite oracle mean {mean}"
        if self.oracle_mean is None:
            self.oracle_mean = mean
        elif mean != self.oracle_mean:
            return "oracle mean differs from the first run"
        return None

    def _gate_derive(self, out: Path) -> str | None:
        from onestep.codegen import model_from_json
        from onestep.derive import (DiffusionSign, NoiseStrategy, RateMode,
                                    build_sde_model)
        from onestep.scheme import parse_scheme

        stem = self.scheme_path.stem
        for suffix in (".tex", "_model.c", ".model.json", ".report.txt"):
            if not (out / f"{stem}{suffix}").is_file():
                return f"missing export {stem}{suffix}"
        restored = model_from_json((out / f"{stem}.model.json").read_text())
        expected = build_sde_model(parse_scheme(self.workload.scheme),
                                   RateMode.EXACT, DiffusionSign.SUM,
                                   NoiseStrategy.MATRIX_SQRT)
        if restored != expected or restored.scheme != expected.scheme:
            return "model JSON does not round-trip to the derived model"
        return None

    def _gate_simulate(self, out: Path) -> str | None:
        """Outputs present and finite, and byte-identical to a replay."""
        stem = self.scheme_path.stem
        names = [f"{stem}.trajectories.csv", f"{stem}.moments.csv",
                 f"{stem}.mean.svg", f"{stem}.manifest.json"]
        for name in names:
            if not (out / name).is_file() or (out / name).stat().st_size == 0:
                return f"missing output {name}"
        for name in names[:2]:
            body = (out / name).read_bytes().split(b"\n", 1)[1]
            if b"nan" in body or b"inf" in body:
                return f"non-finite value in {name}"
        replay = out.with_name(out.name + "-replay")
        self._cli(["simulate", "--from-manifest",
                   str(out / f"{stem}.manifest.json"), "--out", str(replay)])
        for name in names:
            if (replay / name).read_bytes() != (out / name).read_bytes():
                return f"{name} differs from its --from-manifest replay"
        return None

    def check_ssa_against_oracle(self) -> float | None:
        """Largest |z| of the jump-sampler final-time mean against the
        oracle mean; a failure is charged to simulate_ssa."""
        if not self.workload.oracle_matches_simulation:
            return None
        if self.oracle_mean is None or "simulate_ssa" not in self.hashes:
            return None
        stem = self.scheme_path.stem
        rows = (self.work / "ssa" / f"{stem}.moments.csv").read_text().split()
        header, last = rows[0].split(","), [float(v) for v in rows[-1].split(",")]
        column = dict(zip(header, last))
        worst = 0.0
        for (name, _), target in zip(self.workload.initial, self.oracle_mean):
            se = column[f"stderr_{name}"]
            diff = column[f"mean_{name}"] - target
            z = diff / se if se > 0 else (0.0 if diff == 0 else math.inf)
            worst = max(worst, abs(z))
        if worst > Z_LIMIT:
            self.failed += 1
            self.errors.append(f"simulate_ssa: final mean is {worst:.2f} "
                               f"standard errors from the oracle mean")
        return worst
