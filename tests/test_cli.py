"""Command line driver: subcommands, file outputs, exit codes."""

import argparse
import ast
import contextlib
import hashlib
import inspect
import io
import json
import random
import sys
import textwrap
import time
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onestep import (DiffusionSign, NoiseStrategy, NotPsdError, Polynomial,
                     RateMode, SimConfig, StateBox, as_function, bind_values,
                     build_sde_model, default_box, diffusion_matrix,
                     jump_moments, matrix_sqrt_psd, model_from_json,
                     monomial, parse_scheme)
from onestep import __version__
from onestep.cli import (_SAMPLED, MANIFEST_FORMAT, RatesFileError,
                         _compared_entries, _moment_mismatches,
                         _sample_states, build_parser, main, model_report,
                         parse_initial, parse_rates_file, transition_rates)
from onestep.sim import (_EmStepper, _diffusion_pattern, _row_program,
                         _semidefinite_factor)
from helpers import (CHECK_STATES, EM_NORMALS, LOTKA_VOLTERRA, VERHULST,
                     lower_stack, object_jump_moments,
                     object_moment_mismatches, per_state_moments,
                     random_scheme_text, reference_stream)

VERHULST_RATES_TEXT = """\
# logistic growth bindings
lambda = 1
beta = 1/5
gamma = 1/20
"""

LV_RATES_TEXT = """\
k_1 = 10
k_2 = 1/100
k_3 = 10
"""


@pytest.fixture
def verhulst_file(tmp_path):
    path = tmp_path / "verhulst.scheme"
    path.write_text(VERHULST)
    return path


@pytest.fixture
def verhulst_rates(tmp_path):
    path = tmp_path / "verhulst.rates"
    path.write_text(VERHULST_RATES_TEXT)
    return path


@pytest.fixture
def lv_file(tmp_path):
    path = tmp_path / "lv.scheme"
    path.write_text(LOTKA_VOLTERRA)
    return path


@pytest.fixture
def lv_rates(tmp_path):
    path = tmp_path / "lv.rates"
    path.write_text(LV_RATES_TEXT)
    return path


class TestRatesFileParsing:
    def test_decimals_and_rationals_are_exact(self):
        from fractions import Fraction
        table = parse_rates_file("a = 0.2\nb = 1/3\nc = 4\n")
        assert table == {"a": Fraction(1, 5), "b": Fraction(1, 3),
                         "c": Fraction(4)}

    def test_comments_and_blanks_are_skipped(self):
        table = parse_rates_file("# all of it\n\na = 1  # trailing\n")
        assert list(table) == ["a"]

    def test_rejects_garbage_with_line_number(self):
        from onestep.cli import RatesFileError
        with pytest.raises(RatesFileError, match="line 2"):
            parse_rates_file("a = 1\nwhat\n")

    def test_rejects_negative_rates(self):
        from onestep.cli import RatesFileError
        with pytest.raises(RatesFileError, match="negative"):
            parse_rates_file("a = -1\n")

    def test_rejects_duplicate_bindings(self):
        from onestep.cli import RatesFileError
        with pytest.raises(RatesFileError, match="duplicate"):
            parse_rates_file("a = 1\na = 2\n")

    def test_rejects_zero_denominator(self):
        from onestep.cli import RatesFileError
        with pytest.raises(RatesFileError):
            parse_rates_file("a = 1/0\n")

    def test_rate_values_share_one_parser(self):
        from fractions import Fraction
        from onestep.cli import RatesFileError, parse_rate_value
        assert parse_rate_value("0.25") == Fraction(1, 4)
        assert parse_rate_value("2/6") == Fraction(1, 3)
        for bad in ("1/0", "abc", "-1", "1/2/3"):
            with pytest.raises(RatesFileError, match=repr(bad)):
                parse_rate_value(bad)


class TestInitialStateParsing:
    def test_values_follow_species_order(self):
        from onestep import species
        sp = (species("x"), species("y"))
        assert parse_initial("y=2, x=1.5", sp) == (1.5, 2.0)

    def test_unknown_species_is_rejected(self):
        from onestep import species
        from onestep.cli import InitialStateError
        with pytest.raises(InitialStateError, match="unknown"):
            parse_initial("z=1", (species("x"),))

    def test_missing_species_is_reported(self):
        from onestep import species
        from onestep.cli import InitialStateError
        with pytest.raises(InitialStateError, match="missing.*y"):
            parse_initial("x=1", (species("x"), species("y")))


class TestDerive:
    def test_writes_all_exports(self, tmp_path, verhulst_file, capsys):
        out = tmp_path / "out"
        code = main(["derive", str(verhulst_file), "--out", str(out)])
        assert code == 0
        for name in ("verhulst.tex", "verhulst_model.c",
                     "verhulst.model.json", "verhulst.report.txt"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "A(phi) = lambda*phi - beta*phi - gamma*phi^2" in stdout
        assert "B(phi,phi) = lambda*phi + beta*phi - gamma*phi^2" in stdout
        assert "I_1 = (1)   F_1 = (2)   r_1 = (+1)" in stdout
        assert "dphi = (lambda*phi - beta*phi - gamma*phi^2) dt" in stdout
        assert "sqrt(lambda*phi + beta*phi - gamma*phi^2) dW" in stdout

    def test_report_file_matches_stdout_report(self, tmp_path, verhulst_file,
                                               capsys):
        out = tmp_path / "out"
        main(["derive", str(verhulst_file), "--out", str(out)])
        stdout = capsys.readouterr().out
        report = (out / "verhulst.report.txt").read_text()
        assert report in stdout

    def test_c_functions_take_the_stem_name(self, tmp_path, verhulst_file):
        out = tmp_path / "out"
        main(["derive", str(verhulst_file), "--out", str(out)])
        text = (out / "verhulst_model.c").read_text()
        assert "void verhulst_drift(" in text
        assert "void verhulst_diffusion(" in text

    def test_json_export_restores_the_same_model(self, tmp_path,
                                                 verhulst_file):
        from onestep import build_sde_model, parse_scheme
        out = tmp_path / "out"
        main(["derive", str(verhulst_file), "--out", str(out)])
        restored = model_from_json((out / "verhulst.model.json").read_text())
        assert restored == build_sde_model(parse_scheme(VERHULST))

    def test_the_report_reads_the_models_rates(self, tmp_path, lv_file,
                                               monkeypatch):
        """derive reports the transition rates that build_sde_model kept;
        only a model restored from JSON, which carries none, derives them
        for its report, and gets the same text."""
        calls = []

        def counted(scheme, mode):
            calls.append(mode)
            return transition_rates(scheme, mode)

        monkeypatch.setattr("onestep.cli.transition_rates", counted)
        out = tmp_path / "o"
        main(["derive", str(lv_file), "--rate-mode", "exact", "--out",
              str(out)])
        assert calls == []
        restored = model_from_json((out / "lv.model.json").read_text())
        assert model_report(restored) == (out / "lv.report.txt").read_text()
        assert calls == [RateMode.EXACT]

    def test_predator_prey_report(self, tmp_path, lv_file, capsys):
        main(["derive", str(lv_file), "--out", str(tmp_path / "o")])
        stdout = capsys.readouterr().out
        assert "A(x) = k_1*x - k_2*x*y" in stdout
        assert "A(y) = k_2*x*y - k_3*y" in stdout
        assert "B(x,y) = -k_2*x*y" in stdout
        assert "I_2 = (1, 1)   F_2 = (0, 2)   r_2 = (-1, +1)" in stdout
        assert "with b b^T = B" in stdout

    def test_exact_mode_changes_the_rates(self, tmp_path, verhulst_file,
                                          capsys):
        main(["derive", str(verhulst_file), "--rate-mode", "exact",
              "--out", str(tmp_path / "o")])
        stdout = capsys.readouterr().out
        assert "s-_1 = -gamma*phi + gamma*phi^2" in stdout

    def test_sum_sign_changes_the_diffusion(self, tmp_path, verhulst_file,
                                            capsys):
        main(["derive", str(verhulst_file), "--diffusion-sign", "sum",
              "--out", str(tmp_path / "o")])
        stdout = capsys.readouterr().out
        assert "B(phi,phi) = lambda*phi + beta*phi + gamma*phi^2" in stdout

    def test_malformed_scheme_exits_2_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.scheme"
        bad.write_text("phi -> 2 phi @ lambda\nphi -> @ beta\n")
        code = main(["derive", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert "line 2" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["derive", str(tmp_path / "nope.scheme"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCodegen:
    def test_latex_to_stdout(self, verhulst_file, capsys):
        code = main(["codegen", str(verhulst_file), "--target", "latex"])
        assert code == 0
        assert r"\varphi" in capsys.readouterr().out

    def test_c_to_file_with_custom_name(self, tmp_path, verhulst_file,
                                        capsys):
        out = tmp_path / "logistic.c"
        code = main(["codegen", str(verhulst_file), "--target", "c",
                     "--function-name", "logistic", "--out", str(out)])
        assert code == 0
        assert "void logistic_drift(" in out.read_text()
        assert f"wrote {out}" in capsys.readouterr().out

    def test_json_target_is_versioned(self, verhulst_file, capsys):
        main(["codegen", str(verhulst_file), "--target", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == "1"

    def test_model_json_is_accepted_as_input(self, tmp_path, verhulst_file,
                                             capsys):
        out = tmp_path / "o"
        main(["derive", str(verhulst_file), "--out", str(out)])
        capsys.readouterr()
        code = main(["codegen", str(out / "verhulst.model.json"),
                     "--target", "latex"])
        assert code == 0
        assert r"\lambda \varphi" in capsys.readouterr().out

    def test_unknown_target_is_a_usage_error(self, verhulst_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["codegen", str(verhulst_file), "--target", "fortran"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name", ["foo bar", "2fast", "", "a-b",
                                      "x;y"])
    def test_function_name_must_be_a_c_identifier(self, name, tmp_path,
                                                  verhulst_file, capsys):
        out = tmp_path / "m.c"
        code = main(["codegen", str(verhulst_file), "--target", "c",
                     "--function-name", name, "--out", str(out)])
        assert code == 2
        _assert_usage_error(capsys, "--function-name", repr(name))
        assert not out.exists()


class TestExponentLimit:
    """A model JSON power above the largest stoichiometry is refused
    before the exports would write it out factor by factor."""

    @pytest.mark.parametrize("command", [
        ["codegen", "--target", "c"],
        ["simulate", "--initial", "phi=10", "--trajectories", "3"],
    ], ids=["codegen", "simulate"])
    def test_exponent_above_64_exits_2(self, command, tmp_path,
                                       verhulst_rates, capsys):
        path = _bare_model_file(tmp_path, "sqrt")
        data = json.loads(path.read_text())
        data["drift"] = ["-beta*phi^200000"]
        path.write_text(json.dumps(data))
        name, *flags = command
        if name == "simulate":
            flags += ["--rates", str(verhulst_rates)]
        out = tmp_path / "out"
        assert main([name, str(path), *flags, "--out", str(out)]) == 2
        _assert_usage_error(capsys, "exponent 200000 exceeds 64",
                            "position 10")
        assert not out.exists()

    def test_exponent_64_is_read(self, tmp_path, capsys):
        path = _bare_model_file(tmp_path, "sqrt")
        data = json.loads(path.read_text())
        data["drift"] = ["-beta*phi^64"]
        path.write_text(json.dumps(data))
        assert main(["codegen", str(path), "--target", "c"]) == 0
        assert "*".join(["x[0]"] * 64) in capsys.readouterr().out


def _bare_model_file(tmp_path, noise: str):
    """A model JSON file without the scheme the model came from."""
    from onestep import (DiffusionSign, NoiseStrategy, Polynomial, RateMode,
                         SdeModel, emit_model_json, rate, species)
    phi = species("phi")
    bare = SdeModel(species=(phi,), rate_symbols=(rate("beta"),),
                    drift=(-Polynomial.symbol(rate("beta"))
                           * Polynomial.symbol(phi),),
                    diffusion=((Polynomial.symbol(rate("beta"))
                                * Polynomial.symbol(phi),),),
                    rate_mode=RateMode.FOKKER_PLANCK,
                    diffusion_sign=DiffusionSign.SUM,
                    noise_strategy=NoiseStrategy(noise))
    path = tmp_path / "bare.model.json"
    path.write_text(emit_model_json(bare))
    return path


def run_simulate(tmp_path, scheme_path, rates_path, out_name, extra=()):
    out = tmp_path / out_name
    argv = ["simulate", str(scheme_path), "--rates", str(rates_path),
            "--initial", "phi=10", "--t-final", "0.5", "--dt", "0.01",
            "--trajectories", "5", "--grid-points", "6",
            "--out", str(out), *extra]
    return main(argv), out


class TestSimulate:
    def test_writes_the_four_outputs(self, tmp_path, verhulst_file,
                                     verhulst_rates, capsys):
        code, out = run_simulate(tmp_path, verhulst_file, verhulst_rates,
                                 "run")
        assert code == 0
        for name in ("verhulst.trajectories.csv", "verhulst.moments.csv",
                     "verhulst.mean.svg", "verhulst.manifest.json"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert stdout.count("wrote ") == 4

    def test_trajectory_rows_cover_the_grid(self, tmp_path, verhulst_file,
                                            verhulst_rates):
        _, out = run_simulate(tmp_path, verhulst_file, verhulst_rates, "run")
        lines = (out / "verhulst.trajectories.csv").read_text() \
            .strip().splitlines()
        assert lines[0] == "trajectory,t,phi"
        assert len(lines) == 1 + 5 * 6

    def test_manifest_records_the_run(self, tmp_path, verhulst_file,
                                      verhulst_rates):
        _, out = run_simulate(tmp_path, verhulst_file, verhulst_rates, "run")
        data = json.loads((out / "verhulst.manifest.json").read_text())
        assert data["engine"] == "em"
        assert data["rates"] == {"lambda": "1", "beta": "1/5",
                                 "gamma": "1/20"}
        assert data["initial"] == {"phi": 10.0}
        assert data["seed"] == 0
        assert data["input_text"] == VERHULST

    def test_manifest_rerun_is_byte_identical(self, tmp_path, verhulst_file,
                                              verhulst_rates):
        _, first = run_simulate(tmp_path, verhulst_file, verhulst_rates,
                                "first")
        rerun = tmp_path / "rerun"
        code = main(["simulate",
                     "--from-manifest", str(first / "verhulst.manifest.json"),
                     "--out", str(rerun)])
        assert code == 0
        for name in ("verhulst.trajectories.csv", "verhulst.moments.csv",
                     "verhulst.mean.svg", "verhulst.manifest.json"):
            assert (rerun / name).read_bytes() == \
                (first / name).read_bytes()

    def test_engines_write_distinct_paths(self, tmp_path, verhulst_file,
                                          verhulst_rates):
        _, em_out = run_simulate(tmp_path, verhulst_file, verhulst_rates,
                                 "em")
        _, ssa_out = run_simulate(tmp_path, verhulst_file, verhulst_rates,
                                  "ssa", extra=("--engine", "ssa"))
        em_rows = (em_out / "verhulst.trajectories.csv").read_text()
        ssa_rows = (ssa_out / "verhulst.trajectories.csv").read_text()
        assert em_rows != ssa_rows
        # jump states are integers; the grid column holds the only decimals
        values = [row.split(",")[2] for row in
                  ssa_rows.strip().splitlines()[1:]]
        assert all(float(v) == int(float(v)) for v in values)

    def test_negative_zero_initial_state_is_written_as_zero(
            self, tmp_path, verhulst_file, verhulst_rates):
        # phi = 0 absorbs, so every row holds the initial value
        texts = {}
        for engine in ("em", "ssa"):
            code, out = run_simulate(
                tmp_path, verhulst_file, verhulst_rates, engine,
                extra=("--engine", engine, "--initial", "phi=-0.0"))
            assert code == 0
            texts[engine] = (out / "verhulst.trajectories.csv").read_text()
        em_rows, ssa_rows = (texts[e].splitlines() for e in ("em", "ssa"))
        assert em_rows[1] == ssa_rows[1] == "0,0.0,0.0"
        assert "-0.0" not in texts["em"]

    def test_model_json_input_runs_the_sde_engine(self, tmp_path,
                                                  verhulst_file,
                                                  verhulst_rates, capsys):
        out = tmp_path / "o"
        main(["derive", str(verhulst_file), "--out", str(out)])
        capsys.readouterr()
        code, _ = run_simulate(tmp_path, out / "verhulst.model.json",
                               verhulst_rates, "run")
        assert code == 0

    def test_ssa_needs_a_scheme(self, tmp_path, verhulst_rates, capsys):
        path = _bare_model_file(tmp_path, "sqrt")
        code, _ = run_simulate(tmp_path, path, verhulst_rates, "run",
                               extra=("--engine", "ssa"))
        assert code == 2
        assert "scheme" in capsys.readouterr().err

    def test_per_reaction_noise_needs_a_scheme(self, tmp_path,
                                               verhulst_rates, capsys):
        path = _bare_model_file(tmp_path, "per-reaction")
        code, out = run_simulate(tmp_path, path, verhulst_rates, "run")
        assert code == 2
        _assert_usage_error(capsys, "per-reaction noise needs the scheme")
        assert not out.exists()

    def test_missing_rate_exits_3(self, tmp_path, verhulst_file, capsys):
        rates = tmp_path / "partial.rates"
        rates.write_text("lambda = 1\nbeta = 1/5\n")
        code, _ = run_simulate(tmp_path, verhulst_file, rates, "run")
        assert code == 3
        assert "gamma" in capsys.readouterr().err

    def test_bad_rates_file_exits_3(self, tmp_path, verhulst_file, capsys):
        rates = tmp_path / "bad.rates"
        rates.write_text("lambda = 1\nbeta -> 2\n")
        code, _ = run_simulate(tmp_path, verhulst_file, rates, "run")
        assert code == 3
        assert "line 2" in capsys.readouterr().err

    def test_bad_initial_exits_3(self, tmp_path, verhulst_file,
                                 verhulst_rates, capsys):
        code = main(["simulate", str(verhulst_file),
                     "--rates", str(verhulst_rates), "--initial", "psi=1",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "psi" in capsys.readouterr().err

    def test_input_is_required_without_a_manifest(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "from-manifest" in capsys.readouterr().err

    def test_rates_and_initial_are_required(self, tmp_path, verhulst_file,
                                            capsys):
        code = main(["simulate", str(verhulst_file),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "--rates" in capsys.readouterr().err


# SHA-256 of the manifest of a Verhulst run (run_simulate's settings) with
# --rate-mode exact --diffusion-sign sum --noise per-reaction, recorded
# while simulate still derived the model once for the manifest and once
# to run it; from a scheme, and from the model JSON that derive writes
# under the same flags, simulated with the default flags, which a model
# input ignores; re-recorded for tool_version 0.3.0 and again for 0.3.1,
# each time its only change (0.3.1 sums per-reaction noise in a written
# order, which leaves this run's outputs as they were)
DERIVATION_FLAGS = ("--rate-mode", "exact", "--diffusion-sign", "sum",
                    "--noise", "per-reaction")
MANIFEST_GOLDEN = {
    "scheme":
        "8386cf84e64489011cf1c5c1b5c745ce4fe2a9f782b3b2f0c3f01694b6940bc7",
    "model":
        "11c85bc7988ae50c80a9663bd1c11582ededcdb876b8feb4e217dda0c2b06b9e",
}


class TestOneDerivation:
    @pytest.fixture
    def derivations(self, monkeypatch):
        """The calls simulate makes to build_sde_model."""
        calls = []
        real = build_sde_model

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr("onestep.cli.build_sde_model", counted)
        return calls

    @staticmethod
    def manifest_digest(out):
        return hashlib.sha256(
            (out / "verhulst.manifest.json").read_bytes()).hexdigest()

    def test_scheme_input_is_derived_once(self, tmp_path, verhulst_file,
                                          verhulst_rates, derivations):
        code, out = run_simulate(tmp_path, verhulst_file, verhulst_rates,
                                 "run", extra=(*DERIVATION_FLAGS,
                                               "--allow-shared-rates"))
        assert code == 0
        assert len(derivations) == 1
        assert self.manifest_digest(out) == MANIFEST_GOLDEN["scheme"]

    def test_replay_is_derived_once(self, tmp_path, verhulst_file,
                                    verhulst_rates, derivations):
        _, out = run_simulate(tmp_path, verhulst_file, verhulst_rates, "run")
        derivations.clear()
        assert main(["simulate", "--from-manifest",
                     str(out / "verhulst.manifest.json"),
                     "--out", str(tmp_path / "replay")]) == 0
        assert len(derivations) == 1

    def test_model_input_is_not_derived(self, tmp_path, verhulst_file,
                                        verhulst_rates, derivations, capsys):
        assert main(["derive", str(verhulst_file), *DERIVATION_FLAGS,
                     "--out", str(tmp_path / "o")]) == 0
        derivations.clear()
        code, out = run_simulate(tmp_path,
                                 tmp_path / "o" / "verhulst.model.json",
                                 verhulst_rates, "run")
        assert code == 0
        assert derivations == []
        assert self.manifest_digest(out) == MANIFEST_GOLDEN["model"]

    @pytest.fixture
    def model_loads(self, monkeypatch):
        """The calls simulate makes to model_from_json."""
        calls = []

        def counted(text):
            calls.append(text)
            return model_from_json(text)

        monkeypatch.setattr("onestep.cli.model_from_json", counted)
        return calls

    def test_model_input_is_parsed_once_fresh_and_on_replay(
            self, tmp_path, verhulst_file, verhulst_rates, model_loads,
            capsys):
        assert main(["derive", str(verhulst_file), *DERIVATION_FLAGS,
                     "--out", str(tmp_path / "o")]) == 0
        model_loads.clear()
        code, out = run_simulate(tmp_path,
                                 tmp_path / "o" / "verhulst.model.json",
                                 verhulst_rates, "run")
        assert code == 0
        assert len(model_loads) == 1
        assert self.manifest_digest(out) == MANIFEST_GOLDEN["model"]

        model_loads.clear()
        replay = tmp_path / "replay"
        assert main(["simulate", "--from-manifest",
                     str(out / "verhulst.manifest.json"),
                     "--out", str(replay)]) == 0
        assert len(model_loads) == 1
        for path in sorted(out.iterdir()):
            assert (replay / path.name).read_bytes() == path.read_bytes()

    def test_incompatible_noise_exits_2_and_writes_nothing(
            self, tmp_path, verhulst_file, verhulst_rates, capsys):
        code, out = run_simulate(tmp_path, verhulst_file, verhulst_rates,
                                 "run", extra=("--noise", "per-reaction"))
        assert code == 2
        _assert_usage_error(capsys, "per-reaction noise squares to the "
                                    "directional sum")
        assert not out.exists()

    @pytest.mark.parametrize("rates_text, initial, needle", [
        ("lambda = 1\nbeta = 1/5\n", "phi=10", "gamma"),
        (VERHULST_RATES_TEXT, "psi=10", "psi"),
    ], ids=["unbound-rate", "unknown-species"])
    def test_bindings_are_checked_before_the_derivation(
            self, rates_text, initial, needle, tmp_path, verhulst_file,
            capsys):
        # the model is derived only once the run is fully described, so a
        # binding error (exit 3) comes before an incompatible --noise (2)
        rates = tmp_path / "v.rates"
        rates.write_text(rates_text)
        code = main(["simulate", str(verhulst_file), "--rates", str(rates),
                     "--initial", initial, "--noise", "per-reaction",
                     "--out", str(tmp_path / "run")])
        assert code == 3
        _assert_usage_error(capsys, needle)
        assert not (tmp_path / "run").exists()


def run_check(scheme_path, rates_path, extra=()):
    return main(["check", str(scheme_path), "--rates", str(rates_path),
                 "--initial", "phi=10", "--t-final", "0.5", "--dt", "0.01",
                 "--trajectories", "60", "--grid-points", "6", *extra])


class TestCheck:
    def test_sum_convention_passes_everything(self, verhulst_file,
                                              verhulst_rates, capsys):
        code = run_check(verhulst_file, verhulst_rates,
                         extra=("--diffusion-sign", "sum"))
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out
        assert "first-jump-moment" in out
        assert "second-jump-moment" in out
        assert "diffusion-symmetry" in out
        assert "psd-sampling" in out
        assert "engine-consistency" in out

    @pytest.mark.parametrize("flags, derived", [
        (("--rate-mode", "exact", "--diffusion-sign", "sum"), []),
        (("--rate-mode", "exact"), [("exact", "difference")]),
        ((), [("exact", "difference"), ("fp", "difference")])])
    def test_each_diffusion_matrix_is_derived_once(
            self, flags, derived, ring3_files, capsys, monkeypatch):
        # the exact/sum model the engines run on is built once and serves
        # every check of the exact/sum form
        calls = []

        def counted(scheme, mode, sign):
            calls.append((mode.value, sign.value))
            return diffusion_matrix(scheme, mode, sign)
        monkeypatch.setattr("onestep.cli.diffusion_matrix", counted)
        scheme, rates = ring3_files
        main(["check", scheme, "--rates", rates, "--box", "2", *flags])
        assert calls == derived

    def test_difference_convention_fails_for_reversible(self, verhulst_file,
                                                        verhulst_rates,
                                                        capsys):
        code = run_check(verhulst_file, verhulst_rates)
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL second-jump-moment" in out

    def test_sign_mismatch_can_be_downgraded(self, verhulst_file,
                                             verhulst_rates, capsys):
        code = run_check(verhulst_file, verhulst_rates,
                         extra=("--allow-sign-mismatch",))
        assert code == 0
        out = capsys.readouterr().out
        assert "ADVISORY second-jump-moment" in out
        assert "FAIL" not in out

    def test_predator_prey_passes_both_signs(self, lv_file, lv_rates,
                                             capsys):
        for sign in ("difference", "sum"):
            code = main(["check", str(lv_file), "--rates", str(lv_rates),
                         "--initial", "x=50,y=50", "--t-final", "0.2",
                         "--dt", "0.001", "--trajectories", "60",
                         "--grid-points", "4", "--box", "6",
                         "--diffusion-sign", sign])
            assert code == 0
            out = capsys.readouterr().out
            assert out.count("PASS") == 5

    def test_explicit_box_is_respected(self, verhulst_file, verhulst_rates,
                                       capsys):
        code = run_check(verhulst_file, verhulst_rates,
                         extra=("--diffusion-sign", "sum", "--box", "6"))
        assert code == 0
        assert "7 states" in capsys.readouterr().out

    def test_without_initial_the_engine_check_fails(self, verhulst_file,
                                                    verhulst_rates, capsys):
        code = main(["check", str(verhulst_file),
                     "--rates", str(verhulst_rates),
                     "--diffusion-sign", "sum", "--box", "6"])
        assert code == 1
        assert "FAIL engine-consistency" in capsys.readouterr().out


RING3 = """\
2 x1 <-> 2 x2 @ a_1, b_1
2 x2 <-> 2 x3 @ a_2, b_2
2 x3 <-> 2 x1 @ a_3, b_3
"""

RING3_RATES_TEXT = """\
a_1 = 1/3
b_1 = 1/7
a_2 = 2/5
b_2 = 1/11
a_3 = 3/4
b_3 = 1/13
"""

_ENGINE_LINE = ("PASS engine-consistency: max |z| = 0.404 vs threshold 4.0 "
                "over 6 grid times, 60 trajectories per engine\n")

# check's whole stdout for fixed inputs, byte for byte: it pins the state
# and entry of each moment mismatch, and the first state, in state order,
# at which the noise factor of B fails, with the factor's own message (the
# pivot B(25) = -5/4 for Verhulst); the psd-sampling lines were re-recorded
# when this factor replaced a scan of eigenvalues, which failed at the same
# states.  The engine-consistency line and ring3-sampled's states were
# re-recorded in 0.3.0, whose random streams are keyed by (seed,
# trajectory) and a domain per consumer of draws
CHECK_GOLDEN = {
    "verhulst-sum": (
        "PASS first-jump-moment: drift equals the enumerated first moment "
        "exactly on 65 states\n"
        "PASS second-jump-moment: diffusion (sum form) equals the enumerated "
        "second moment exactly on 65 states\n"
        "PASS diffusion-symmetry: B is symmetric as polynomials\n"
        "PASS psd-sampling: B has a semidefinite factor at all 65 states\n"
        + _ENGINE_LINE),
    "verhulst-difference": (
        "PASS first-jump-moment: drift equals the enumerated first moment "
        "exactly on 65 states\n"
        "FAIL second-jump-moment: diffusion (difference form) differs from "
        "the enumerated second moment at state (2,), entry (0,0)\n"
        "PASS diffusion-symmetry: B is symmetric as polynomials\n"
        "FAIL psd-sampling: B((25,)) is not positive semidefinite under the "
        "difference convention: pivot 0 is -1.250000e+00, negative beyond "
        "tolerance 2.250e-09\n"
        + _ENGINE_LINE),
    "verhulst-difference-allowed": (
        "PASS first-jump-moment: drift equals the enumerated first moment "
        "exactly on 65 states\n"
        "ADVISORY second-jump-moment: diffusion (difference form) differs "
        "from the enumerated second moment at state (2,), entry (0,0); "
        "expected for the difference convention with reversible "
        "interactions\n"
        "PASS diffusion-symmetry: B is symmetric as polynomials\n"
        "ADVISORY psd-sampling: B((25,)) is not positive semidefinite under "
        "the difference convention: pivot 0 is -1.250000e+00, negative "
        "beyond tolerance 2.250e-09\n"
        + _ENGINE_LINE),
    # a 17^3 box exceeds the 4096-state cap, so 512 states are sampled
    "ring3-sampled": (
        "PASS first-jump-moment: drift equals the enumerated first moment "
        "exactly on 512 states\n"
        "FAIL second-jump-moment: diffusion (difference form) differs from "
        "the enumerated second moment at state (0, 0, 4), entry (1,1)\n"
        "PASS diffusion-symmetry: B is symmetric as polynomials\n"
        "FAIL psd-sampling: B((0, 0, 4)) is not positive semidefinite under "
        "the difference convention: pivot 1 is -5.818182e+00, negative "
        "beyond tolerance 4.900e-08\n"
        "FAIL engine-consistency: needs --initial to start the "
        "trajectories\n"),
}


@pytest.fixture
def ring3_files(tmp_path):
    scheme = tmp_path / "ring3.scheme"
    scheme.write_text(RING3)
    rates = tmp_path / "ring3.rates"
    rates.write_text(RING3_RATES_TEXT)
    return str(scheme), str(rates)


class TestCheckGolden:
    @pytest.mark.parametrize("case, extra, code", [
        ("verhulst-sum", ("--diffusion-sign", "sum"), 0),
        ("verhulst-difference", (), 1),
        ("verhulst-difference-allowed", ("--allow-sign-mismatch",), 0),
    ])
    def test_verhulst(self, case, extra, code, verhulst_file, verhulst_rates,
                      capsys):
        assert run_check(verhulst_file, verhulst_rates, extra=extra) == code
        assert capsys.readouterr().out == CHECK_GOLDEN[case]

    def test_sampled_ring(self, ring3_files, capsys):
        scheme, rates = ring3_files
        code = main(["check", scheme, "--rates", rates, "--box", "16"])
        assert code == 1
        assert capsys.readouterr().out == CHECK_GOLDEN["ring3-sampled"]

    def test_first_moment_mismatch_is_named_by_state_then_component(
            self, ring3_files, capsys, monkeypatch):
        # x1*x3 added to component 2 of the exact drift first shows at
        # (1, 0, 1); state order comes before component order
        def skewed_model(scheme, *args):
            model = build_sde_model(scheme, *args)
            x1, _, x3 = (Polynomial.symbol(s) for s in scheme.species)
            drift = list(model.drift)
            drift[2] = drift[2] + x1 * x3
            return replace(model, drift=tuple(drift))
        monkeypatch.setattr("onestep.cli.build_sde_model", skewed_model)
        scheme, rates = ring3_files
        code = main(["check", scheme, "--rates", rates, "--box", "2",
                     "--diffusion-sign", "sum"])
        assert code == 1
        assert ("FAIL first-jump-moment: mismatch at state (1, 0, 1), "
                "component 2\n") in capsys.readouterr().out


class TestIntegerComparison:
    """check compares the enumerated jump moments with the drift and B as
    integers over one denominator, by cross-multiplication; it must flag
    exactly the (state, entry) pairs that a comparison of Fractions,
    state by state, flags."""

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10 ** 9))
    def test_flags_what_fractions_flag(self, seed, tmp_path_factory):
        rng = random.Random(seed)
        text = random_scheme_text(rng)
        scheme = parse_scheme(text)
        n = len(scheme.species)
        # rates and states beyond int64, whose products int64 would wrap
        values = {sym: rng.choice([rng.randint(1, 9), 2 ** 62 + 1,
                                   Fraction(rng.randint(1, 9),
                                            rng.randint(2, 7))])
                  for sym in scheme.rate_symbols}
        box = StateBox(tuple(rng.choice([1, 3, 2 ** 40]) for _ in range(n)))
        # one drift component or one entry of B (and its mirror, as B
        # stays symmetric) plus a monomial, which is zero at the states
        # where one of its species is
        powers = {sym: rng.randint(0, 2) for sym in scheme.species}
        powers[rng.choice(scheme.rate_symbols)] = rng.randint(0, 1)
        extra = monomial(Fraction(rng.choice([-3, -1, 1, 2]),
                                  rng.randint(1, 3)), powers)
        target = (rng.randrange(n), rng.randrange(n),
                  rng.random() < 0.5)       # (i, j, in B), j only for B

        def skewed_model(scheme, *args):
            model = build_sde_model(scheme, *args)
            i, j, in_b = target
            if in_b:
                b = [list(row) for row in model.diffusion]
                b[i][j] = b[j][i] = b[i][j] + extra
                return replace(model, diffusion=tuple(map(tuple, b)))
            drift = list(model.drift)
            drift[i] = drift[i] + extra
            return replace(model, drift=tuple(drift))

        # the Fraction reference, state by state
        model = skewed_model(scheme, RateMode.EXACT, DiffusionSign.SUM)
        states = _sample_states(box, 0)
        entries = _compared_entries(scheme, model.diffusion)
        want_first, want_second = [], []
        for s, (first, second) in enumerate(per_state_moments(
                jump_moments(scheme, values, states))):
            point = {**values, **dict(zip(scheme.species, states[s]))}
            want_first += [(s, i) for i in range(n)
                           if model.drift[i].evaluate(point) != first[i]]
            want_second += [
                (s, e) for e, (i, j) in enumerate(entries)
                if model.diffusion[i][j].evaluate(point) != second[i][j]]

        columns = np.array(states, dtype=np.int64).T
        first_wrong, second_wrong = _moment_mismatches(
            jump_moments(scheme, values, states), model.drift,
            model.diffusion, entries,
            {**values, **dict(zip(scheme.species, columns))})
        assert np.argwhere(first_wrong).tolist() == [list(f)
                                                     for f in want_first]
        assert np.argwhere(second_wrong).tolist() == [list(f)
                                                      for f in want_second]

        # and check's FAIL lines name the first of them
        directory = tmp_path_factory.mktemp("skewed")
        (directory / "s.scheme").write_text(text)
        (directory / "s.rates").write_text("".join(
            f"{sym.name} = {value}\n" for sym, value in values.items()))
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as patch, \
                contextlib.redirect_stdout(out):
            patch.setattr("onestep.cli.build_sde_model", skewed_model)
            code = main(["check", str(directory / "s.scheme"),
                         "--rates", str(directory / "s.rates"),
                         "--box", ",".join(map(str, box.bounds)),
                         "--rate-mode", "exact", "--diffusion-sign", "sum"])
        assert code == 1
        lines = out.getvalue()
        if want_first:
            s, i = want_first[0]
            assert (f"FAIL first-jump-moment: mismatch at state "
                    f"{states[s]}, component {i}\n") in lines
        else:
            assert "PASS first-jump-moment" in lines
        if want_second:
            s, e = want_second[0]
            assert (f"FAIL second-jump-moment: diffusion (sum form) differs "
                    f"from the enumerated second moment at state "
                    f"{states[s]}, entry ({entries[e][0]},{entries[e][1]})"
                    f"\n") in lines
        else:
            assert "PASS second-jump-moment" in lines

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 9))
    def test_flags_what_the_object_arrays_flag(self, seed):
        # rates and states where the moments, the evaluated numerators and
        # their cross products fall on either side of int64's bounds
        rng = random.Random(seed)
        scheme = parse_scheme(random_scheme_text(rng))
        n = len(scheme.species)
        values = {sym: rng.choice([0, rng.randint(1, 9), 2 ** 20,
                                   Fraction(rng.randint(1, 9),
                                            rng.randint(2, 7)),
                                   Fraction(1, 2 ** 30)])
                  for sym in scheme.rate_symbols}
        model = build_sde_model(scheme, RateMode.EXACT, DiffusionSign.SUM)
        i, j = rng.randrange(n), rng.randrange(n)
        extra = monomial(Fraction(rng.choice([-3, 1, 2]), rng.randint(1, 3)),
                         {scheme.species[i]: rng.randint(0, 2)})
        drift = list(model.drift)
        drift[i] = drift[i] + extra
        diffusion = [list(row) for row in model.diffusion]
        diffusion[i][j] = diffusion[j][i] = diffusion[i][j] + extra
        box = StateBox(tuple(rng.choice([1, 3, 2 ** 12, 2 ** 17])
                             for _ in range(n)))
        states = _sample_states(box, rng.randrange(100))
        entries = _compared_entries(scheme, diffusion)
        point = {**values, **dict(zip(scheme.species,
                                      np.array(states, dtype=np.int64).T))}
        got = _moment_mismatches(jump_moments(scheme, values, states), drift,
                                 diffusion, entries, point)
        want = object_moment_mismatches(
            object_jump_moments(scheme, values, states), drift, diffusion,
            entries, point)
        assert [w.tolist() for w in got] == [w.tolist() for w in want]


class TestComparedEntries:
    CHAIN = "2 x1 <-> 2 x2 @ a_1, b_1\n2 x2 <-> 2 x3 @ a_2, b_2\n"
    CHAIN_RATES = "a_1 = 1/3\nb_1 = 1/7\na_2 = 2/5\nb_2 = 1/11\n"

    def test_entries_are_those_of_b_or_moved_together(self):
        scheme = parse_scheme(self.CHAIN)
        b = build_sde_model(scheme, RateMode.EXACT,
                            DiffusionSign.SUM).diffusion
        # no channel moves x1 and x3 together, and B_13 is zero; of each
        # mirror pair only the upper entry is compared
        moved = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]
        assert _compared_entries(scheme, b) == moved
        x1, _, x3 = (Polynomial.symbol(s) for s in scheme.species)
        skewed = [list(row) for row in b]
        skewed[0][2] = skewed[2][0] = x1 * x3
        assert _compared_entries(scheme, skewed) == sorted(moved + [(0, 2)])

    def test_a_nonzero_entry_no_channel_reaches_is_compared(
            self, tmp_path, capsys, monkeypatch):
        # x1*x3 at B_13, which no channel moves: the first state where it
        # is nonzero is (1, 0, 1)
        def skewed_model(scheme, *args):
            model = build_sde_model(scheme, *args)
            x1, _, x3 = (Polynomial.symbol(s) for s in scheme.species)
            b = [list(row) for row in model.diffusion]
            b[0][2] = b[2][0] = x1 * x3
            return replace(model, diffusion=tuple(map(tuple, b)))
        monkeypatch.setattr("onestep.cli.build_sde_model", skewed_model)
        scheme = tmp_path / "chain.scheme"
        scheme.write_text(self.CHAIN)
        rates = tmp_path / "chain.rates"
        rates.write_text(self.CHAIN_RATES)
        code = main(["check", str(scheme), "--rates", str(rates), "--box",
                     "2", "--diffusion-sign", "sum"])
        assert code == 1
        assert ("FAIL second-jump-moment: diffusion (sum form) differs "
                "from the enumerated second moment at state (1, 0, 1), "
                "entry (0,2)\n") in capsys.readouterr().out


class TestCheckPsd:
    """psd-sampling asks the engines' own noise factor whether B has a
    factor at every checked state: _semidefinite_factor on B's pattern and
    its fill, as the Euler-Maruyama step runs it.  The dense
    matrix_sqrt_psd is the reference."""

    def test_no_eigenvalues_are_computed(self, ring3_files, capsys,
                                         monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("check computed eigenvalues")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        scheme, rates = ring3_files
        assert main(["check", scheme, "--rates", rates, "--box", "16"]) == 1
        assert capsys.readouterr().out == CHECK_GOLDEN["ring3-sampled"]

    @pytest.fixture
    def batches(self, monkeypatch):
        """Every (slots, S) array check hands to the noise factor, as it
        was handed over (the factor overwrites it), with its pattern."""
        seen = []

        def recorded(a, pattern, batch):
            seen.append((a.copy(), pattern))
            return _semidefinite_factor(a, pattern, batch)
        monkeypatch.setattr("onestep.cli._semidefinite_factor", recorded)
        return seen

    @pytest.mark.parametrize("box, count", [("2", 27), ("16", 512)],
                             ids=["whole-box", "sampled"])
    def test_the_factor_sees_every_state_in_one_batch(
            self, box, count, ring3_files, capsys, batches):
        scheme, rates = ring3_files
        main(["check", scheme, "--rates", rates, "--box", box])
        # ring3's B is dense: six slots on and below the diagonal
        assert [b.shape for b, _ in batches] == [(6, count)]
        assert f"on {count} states" in capsys.readouterr().out

    def test_the_named_state_is_the_first_that_fails(
            self, ring3_files, capsys, batches):
        scheme, rates = ring3_files
        main(["check", scheme, "--rates", rates, "--box", "16"])
        assert "FAIL psd-sampling: B((0, 0, 4))" in capsys.readouterr().out
        [(stack, pattern)] = batches
        batch = _dense_stack(stack, pattern)
        with pytest.raises(NotPsdError) as failure:
            matrix_sqrt_psd(batch)
        [i] = failure.value.index
        # B(0, 0, 4) from the exact polynomials, fp rates and difference
        # convention, fails on its own; every state before it factors
        ring = parse_scheme(RING3)
        bound = {sym: parse_rates_file(RING3_RATES_TEXT)[sym.name]
                 for sym in ring.rate_symbols}
        point = {**bound, **dict(zip(ring.species, (0, 0, 4)))}
        own = np.array([[[float(p.evaluate(point)) for p in row]
                         for row in diffusion_matrix(
                             ring, RateMode.FOKKER_PLANCK,
                             DiffusionSign.DIFFERENCE)]])
        assert np.array_equal(batch[i:i + 1], own)
        with pytest.raises(NotPsdError):
            matrix_sqrt_psd(own)
        matrix_sqrt_psd(batch[:i])

    @pytest.mark.parametrize("flags, passes", [
        (("--diffusion-sign", "sum"), True), ((), False)],
        ids=["sum", "difference"])
    def test_a_filling_ring_gets_the_dense_loops_line(
            self, flags, passes, tmp_path, capsys, batches, monkeypatch):
        # a ring of ten species fills the last row of the factor: 17
        # entries below L's diagonal where B has 10.  check compiles and
        # factors B on L's 27 slots, 20 of them B's nonzero entries on and
        # below the diagonal and 7 the zero polynomial on the fill; the
        # dense loop takes all 55 entries and names the same state and
        # pivot
        compiled = []

        def counted(polys, args):
            compiled.append((len(polys), sum(map(bool, polys))))
            return _row_program(polys, args)
        monkeypatch.setattr("onestep.cli._row_program", counted)
        scheme, rates = tmp_path / "ring10.scheme", tmp_path / "ring10.rates"
        scheme.write_text(RING10)
        rates.write_text(RING10_RATES_TEXT)
        assert main(["check", str(scheme), "--rates", str(rates),
                     "--box", "4", *flags]) == 1
        [line] = [line for line in capsys.readouterr().out.splitlines()
                  if "psd-sampling" in line]

        ring = parse_scheme(RING10)
        sign = DiffusionSign.SUM if passes else DiffusionSign.DIFFERENCE
        diffusion = diffusion_matrix(ring, RateMode.FOKKER_PLANCK, sign)
        pattern = _diffusion_pattern(diffusion)
        assert sum(map(len, pattern.columns)) == 17
        assert compiled == [(len(pattern.slots), 20)] == [(27, 20)]
        states = _sample_states(StateBox((4,) * 10), 0)
        bound = {sym: parse_rates_file(RING10_RATES_TEXT)[sym.name]
                 for sym in ring.rate_symbols}
        upper = as_function([bind_values(diffusion[i][j], bound)
                             for i in range(10) for j in range(i, 10)],
                            ring.species)(*np.array(states, dtype=float).T)
        dense = np.empty((len(states), 10, 10))
        values = iter(upper)
        for i in range(10):
            for j in range(i, 10):
                dense[:, i, j] = dense[:, j, i] = next(values)
        [(stack, seen)] = batches
        assert seen.slots == pattern.slots
        assert np.array_equal(_dense_stack(stack, pattern), dense)
        try:
            factor = matrix_sqrt_psd(dense)
        except NotPsdError as exc:
            want = (f"FAIL psd-sampling: B({states[exc.index[0]]}) is not "
                    f"positive semidefinite under the difference "
                    f"convention: {exc}")
        else:
            want = ("PASS psd-sampling: B has a semidefinite factor at all "
                    "512 states")
            # equal up to the sign of zeros, and zero outside L's pattern
            assert np.array_equal(lower_stack(_semidefinite_factor(
                stack, pattern, (len(states),)), pattern), factor)
        assert line == want
        assert line.startswith("PASS") == passes

    def test_check_factors_the_euler_maruyama_steps_rows(
            self, tmp_path, batches, monkeypatch):
        # ring8 with the benchmark's rates, exact rates and sum
        # convention, on 512 states of a 401^8 box: check hands the factor
        # the rows that the step's row program gives from row n on at the
        # same states, which the step hands to the same factor, and they
        # are as_function's values of B's polynomials on L's slots
        scheme, rates = tmp_path / "ring8.scheme", tmp_path / "ring8.rates"
        scheme.write_text(RING8)
        rates.write_text(RING8_RATES_TEXT)
        main(["check", str(scheme), "--rates", str(rates), "--box", "400",
              "--rate-mode", "exact", "--diffusion-sign", "sum"])
        [(stack, pattern)] = batches

        ring = parse_scheme(RING8)
        bound = {sym: parse_rates_file(RING8_RATES_TEXT)[sym.name]
                 for sym in ring.rate_symbols}
        model = build_sde_model(ring, RateMode.EXACT, DiffusionSign.SUM,
                                NoiseStrategy.MATRIX_SQRT)
        states = np.array(_sample_states(StateBox((400,) * 8), 0),
                          dtype=np.float64).T
        stepped = []

        def recorded(a, pattern, batch):
            stepped.append(a.copy())
            return _semidefinite_factor(a, pattern, batch)
        monkeypatch.setattr("onestep.sim._semidefinite_factor", recorded)
        config = SimConfig(rates=bound, initial_state=(100,) * 8,
                           t_final=0.1)
        _EmStepper(model, config).step(states, np.zeros(states.shape))
        assert stack.shape == (3 * 8 - 3, 512)
        assert [a.tobytes() for a in stepped] == [stack.tobytes()]
        values = as_function([bind_values(model.diffusion[k][i], bound)
                              for i, k in pattern.slots], ring.species)
        assert np.array([np.broadcast_to(v, 512) for v in values(*states)]
                        ).tobytes() == stack.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_b_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        # B_xx = a x y + b overflows at every state with x, y >= 1
        scheme = tmp_path / "s.scheme"
        scheme.write_text("x + y <-> 0 @ a, b\n")
        rates = tmp_path / "s.rates"
        rates.write_text("a = 1e308\nb = 1e308\n")
        assert main(["check", str(scheme), "--rates", str(rates),
                     "--box", "3000", "--diffusion-sign", "sum"]) == 2
        _assert_usage_error(capsys, "B((1, 1722)) is beyond the float "
                                    "range; rescale the rate values")


def _dense_stack(stack, pattern):
    """The (S, n, n) symmetric matrices of a (slots, S) array in pattern's
    slot layout that holds B on and below the diagonal."""
    lower = lower_stack(stack, pattern)
    return lower + np.tril(lower, -1).transpose(0, 2, 1)


RING8 = "".join(f"3 x{i} <-> 3 x{i % 8 + 1} @ a_{i}, b_{i}\n"
                for i in range(1, 9))
RING8_RATES_TEXT = "".join(f"a_{i} = 1/10000\nb_{i} = 1/20000\n"
                           for i in range(1, 9))
RING10 = "".join(f"3 x{i} <-> 3 x{i % 10 + 1} @ a_{i}, b_{i}\n"
                 for i in range(1, 11))
RING10_RATES_TEXT = "".join(f"a_{i} = 1/{i + 2}\nb_{i} = 1/{2 * i + 5}\n"
                            for i in range(1, 11))


def _scalar_sample(box, seed, domain=CHECK_STATES):
    """_sample_states' draws as one scalar integers call per coordinate,
    from the stream of index 0 and the given domain."""
    rng = reference_stream(seed, 0, domain)
    states = set()
    while len(states) < _SAMPLED:
        states.add(tuple(int(rng.integers(0, b + 1)) for b in box.bounds))
    return sorted(states)


class TestSampledStates:
    # each batch of states is one integers call with endpoint=True, which
    # draws what one scalar call per coordinate draws, in the same order
    @pytest.mark.parametrize("bounds", [
        (400,) * 8, (80, 80), (2 ** 32, 2 ** 32), (2 ** 32 - 1, 3),
        (2 ** 63 - 1,), (7, 2 ** 63 - 1, 2 ** 31),
        # 8,192 states: duplicates take several batches
        (1,) * 13])
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
    def test_batches_draw_the_scalar_loops_states(self, bounds, seed):
        box = StateBox(bounds)
        assert _sample_states(box, seed) == _scalar_sample(box, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
    def test_states_are_not_euler_maruyamas_draws(self, seed):
        # a stream of their own, not trajectory 0's noise
        box = StateBox((400,) * 8)
        assert _sample_states(box, seed) != \
            _scalar_sample(box, seed, EM_NORMALS)

    def test_a_small_box_is_taken_whole(self):
        box = StateBox((63, 63))
        assert _sample_states(box, 5) == list(box.states())


class TestCheckSeed:
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_64_bits_exits_2_before_any_work(
            self, seed, ring3_files, capsys, monkeypatch):
        # a 21^3 box exceeds the sampling cap, so the seed draws the states
        _refuse_work(monkeypatch)
        scheme, rates = ring3_files
        code = main(["check", scheme, "--rates", rates, "--box", "20",
                     "--seed", seed])
        assert code == 2
        _assert_usage_error(capsys, "base_seed must fit in 64 bits")


class TestCheckThreshold:
    # NaN and negative limits used to fail every run with exit 1, and inf
    # passed every run
    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "-inf"])
    @pytest.mark.parametrize("initial", [True, False])
    def test_non_positive_or_non_finite_exits_2_before_any_work(
            self, value, initial, verhulst_file, verhulst_rates, capsys,
            monkeypatch):
        _refuse_work(monkeypatch)
        argv = ["check", str(verhulst_file), "--rates", str(verhulst_rates),
                f"--threshold={value}"]
        if initial:
            argv += ["--initial", "phi=10"]
        assert main(argv) == 2
        _assert_usage_error(capsys, "--threshold", "positive and finite",
                            value)


PURE_DEATH = "phi -> 0 @ beta\n"

# (scheme, rates file, extra simulate flags) per case; every case runs
# 4 paths from t = 0 to 0.5 in steps of 0.01 unless its flags say otherwise
SIMULATE_CASES = {
    "verhulst-em": (VERHULST, VERHULST_RATES_TEXT, ("--initial", "phi=10")),
    "ring3-em": (RING3, RING3_RATES_TEXT,
                 ("--initial", "x1=6,x2=4,x3=2", "--rate-mode", "exact",
                  "--diffusion-sign", "sum")),
    "lv-per-reaction": (LOTKA_VOLTERRA, LV_RATES_TEXT,
                        ("--initial", "x=20,y=20", "--noise",
                         "per-reaction")),
    # both reject cases redraw: clamping gives different paths
    "ring3-reject": (RING3, RING3_RATES_TEXT,
                     ("--initial", "x1=1,x2=0,x3=1", "--diffusion-sign",
                      "sum", "--dt", "0.05", "--negative-policy", "reject")),
    "death-reject": (PURE_DEATH, "beta = 2\n",
                     ("--initial", "phi=1", "--dt", "0.1", "--t-final", "2",
                      "--negative-policy", "reject")),
    "lv-ssa": (LOTKA_VOLTERRA, LV_RATES_TEXT,
               ("--initial", "x=20,y=20", "--engine", "ssa")),
}

# SHA-256 of (.trajectories.csv, .moments.csv, .mean.svg) per case,
# re-recorded in 0.3.0, whose random streams are keyed by (seed,
# trajectory) and a domain per consumer of draws
SIMULATE_GOLDEN = {
    "death-reject": (
        "902c47e65de6bef11093c327add9e838cfbc87db9a1927a69925a489abe091fc",
        "fdb16cf32b0653ddc5275f03083f7cc365e614bb90b8c5557165f841372d7b89",
        "1fcdc9fae3b78c6b13286520dc627002ba212c41905880a665a83cefc80859ce"),
    "lv-per-reaction": (
        "14b7a8db1ce8e4f481e23f30878ddf68b562fdf77b076a26ddcfa6386569fc31",
        "5b38274e412944afb83435902a325852d4ed6c3961ac03789e9020776c168dc8",
        "382d15098c1824405ab1052f906dff41ad9a089e9fca8aececcc661facb55030"),
    "lv-ssa": (
        "d19a30141a5c1a9aae42c8428a943b4141b639bb89f56d9888c516875c34d04b",
        "9483f95472e11c3723e49dcd29b6b86a532130647b2150e0053eb81788c07887",
        "03bfe897258d2df954e9c842e31599e62dd9e6df3f07c7fff8ccf30c8156c527"),
    "ring3-em": (
        "12639602e8d78fa1d394c6f46ec4a51b676e5aa9eb69938417ffaff09abf322f",
        "b68b05f739441eaed7f321ca01409742699d7eefb162de7640b187d5b36fa85f",
        "ddc3921153659d0a518b29d12ed58f47b0a49c194eef955ed3a3f2fabe708a4b"),
    "ring3-reject": (
        "6afd037c09cbe82bb71f3e881410c9a9d6cd640dba92f887fda24bc200a00b30",
        "667d8b97b7c51addc06992f876d04d1602c178ad98dcba0446d2477ad0e8c487",
        "d9fe2abbd19d09ec6499c9cc2f522cd0299e7203ec47ab2c418cc15b0976d34b"),
    "verhulst-em": (
        "fdebdc507551f12970da0c49eb300ff9e51782593608497df1baf00cb326a4a6",
        "ae75d455a1a8d988f65f42804e3f2e5303b887a543b9aabceb156b331eacee44",
        "e88e743d616f4a9c9e6f566c3322420c39915da35207a043b3af5948220f561e"),
}


class TestSimulateGolden:
    @pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
    def test_outputs_and_replay_are_unchanged(self, case, tmp_path, capsys):
        text, rates_text, flags = SIMULATE_CASES[case]
        scheme = tmp_path / "s.scheme"
        scheme.write_text(text)
        rates = tmp_path / "s.rates"
        rates.write_text(rates_text)
        names = ("s.trajectories.csv", "s.moments.csv", "s.mean.svg")
        argv = ["simulate", str(scheme), "--rates", str(rates),
                "--t-final", "0.5", "--dt", "0.01", "--trajectories", "4",
                "--grid-points", "6", "--out", str(tmp_path / "run"), *flags]
        replay = ["simulate", "--from-manifest",
                  str(tmp_path / "run" / "s.manifest.json"),
                  "--out", str(tmp_path / "replay")]
        for out, command in (("run", argv), ("replay", replay)):
            assert main(command) == 0
            digests = tuple(
                hashlib.sha256((tmp_path / out / name).read_bytes())
                .hexdigest() for name in names)
            assert digests == SIMULATE_GOLDEN[case], out


def _assert_usage_error(capsys, *needles):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for needle in needles:
        assert needle in lines[0]


class TestCheckBox:
    def test_non_integer_bound_exits_2(self, verhulst_file, verhulst_rates,
                                       capsys):
        assert run_check(verhulst_file, verhulst_rates,
                         extra=("--box", "a")) == 2
        _assert_usage_error(capsys, "--box", "'a'")

    def test_negative_bound_exits_2(self, verhulst_file, verhulst_rates,
                                    capsys):
        assert run_check(verhulst_file, verhulst_rates,
                         extra=("--box", "-1")) == 2
        _assert_usage_error(capsys, "--box", "nonnegative")

    def test_bound_count_must_match_the_species(self, verhulst_file,
                                                verhulst_rates, capsys):
        assert run_check(verhulst_file, verhulst_rates,
                         extra=("--box", "3,4")) == 2
        _assert_usage_error(capsys, "2 bounds for 1 species")

    def test_one_bound_per_species_is_accepted(self, lv_file, lv_rates,
                                               capsys):
        code = main(["check", str(lv_file), "--rates", str(lv_rates),
                     "--box", "2,3"])
        assert code == 1    # only the engine check fails, for --initial
        assert "on 12 states" in capsys.readouterr().out

    # the sampled states are int64 draws, which reach 2**63 - 1 at most
    def test_bound_beyond_int64_exits_2_before_any_work(
            self, lv_file, lv_rates, capsys, monkeypatch):
        _refuse_work(monkeypatch)
        code = main(["check", str(lv_file), "--rates", str(lv_rates),
                     "--box", f"3,{2 ** 63}"])
        assert code == 2
        _assert_usage_error(capsys, f"box bound {2 ** 63}", "species 'y'")

    def test_initial_state_beyond_int64_exits_2(
            self, verhulst_file, verhulst_rates, capsys, monkeypatch):
        # the default box keeps the initial state, so its bound is 10**19
        _refuse_work(monkeypatch)
        monkeypatch.setattr("onestep.cli.default_box", default_box)
        code = main(["check", str(verhulst_file), "--rates",
                     str(verhulst_rates), "--initial", "phi=1e19"])
        assert code == 2
        _assert_usage_error(capsys, f"box bound {10 ** 19}",
                            "species 'phi'")

    def test_the_largest_int64_bound_is_sampled(self, verhulst_file,
                                                verhulst_rates, capsys):
        code = main(["check", str(verhulst_file), "--rates",
                     str(verhulst_rates), "--box", str(2 ** 63 - 1)])
        assert code == 1
        out = capsys.readouterr().out
        assert "on 512 states" in out
        assert "FAIL engine-consistency: needs --initial" in out


def _run_command(command, tmp_path, scheme_path, rates_path, extra):
    argv = [command, str(scheme_path), "--rates", str(rates_path),
            "--initial", "phi=10", "--t-final", "0.5", "--dt", "0.01",
            "--trajectories", "5", "--grid-points", "6", *extra]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "o")]
    else:
        argv += ["--box", "6"]
    return main(argv)


@pytest.mark.parametrize("command", ["check", "simulate"])
class TestSimulationSettings:
    def test_one_trajectory_exits_2(self, command, tmp_path, verhulst_file,
                                    verhulst_rates, capsys):
        code = _run_command(command, tmp_path, verhulst_file, verhulst_rates,
                            ("--trajectories", "1"))
        assert code == 2
        _assert_usage_error(capsys, "two trajectories")

    def test_step_longer_than_the_run_exits_2(self, command, tmp_path,
                                              verhulst_file, verhulst_rates,
                                              capsys):
        code = _run_command(command, tmp_path, verhulst_file, verhulst_rates,
                            ("--dt", "2"))
        assert code == 2
        _assert_usage_error(capsys, "dt")

    def test_negative_seed_exits_2(self, command, tmp_path, verhulst_file,
                                   verhulst_rates, capsys):
        code = _run_command(command, tmp_path, verhulst_file, verhulst_rates,
                            ("--seed", "-1"))
        assert code == 2
        _assert_usage_error(capsys, "seed")

    @pytest.mark.parametrize("flags, needles", [
        (("--initial", "phi=nan"), ("initial state", "finite", "nan")),
        (("--initial", "phi=inf"), ("initial state", "finite", "inf")),
        (("--t-final", "nan"), ("t_final", "finite", "nan")),
        (("--t-final", "inf"), ("t_final", "finite", "inf")),
        (("--dt", "nan"), ("dt must lie in", "nan")),
    ])
    def test_non_finite_setting_exits_2_before_any_work(
            self, command, flags, needles, tmp_path, verhulst_file,
            verhulst_rates, capsys, monkeypatch):
        _refuse_work(monkeypatch)
        argv = [command, str(verhulst_file), "--rates", str(verhulst_rates),
                "--initial", "phi=10", "--trajectories", "5", *flags]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        _assert_usage_error(capsys, *needles)

    def test_one_trajectory_is_refused_before_any_work(
            self, command, tmp_path, verhulst_file, verhulst_rates, capsys,
            monkeypatch):
        _refuse_work(monkeypatch)
        code = _run_command(command, tmp_path, verhulst_file, verhulst_rates,
                            ("--trajectories", "1"))
        assert code == 2
        _assert_usage_error(capsys, "two trajectories")

    def test_step_count_beyond_int64_exits_2_before_any_work(
            self, command, tmp_path, verhulst_file, verhulst_rates, capsys,
            monkeypatch):
        # 1e300 / 0.01 steps; simulate refuses it for either engine
        _refuse_work(monkeypatch)
        engines = ("em", "ssa") if command == "simulate" else (None,)
        for engine in engines:
            flags = ("--t-final", "1e300")
            if engine:
                flags += ("--engine", engine)
            code = _run_command(command, tmp_path, verhulst_file,
                                verhulst_rates, flags)
            assert code == 2
            _assert_usage_error(capsys, "1e+302 steps", "2**63 - 1")
            assert not (tmp_path / "o").exists()

    def test_euler_maruyama_step_budget_exits_2_before_any_work(
            self, command, tmp_path, verhulst_file, verhulst_rates, capsys,
            monkeypatch):
        # 1e9 / 1e-3 = 10**12 steps per path, which would run for months:
        # check refuses before its exact checks, simulate before the
        # engine compiles its step
        def refuse(*args, **kwargs):
            raise AssertionError("work ran although the run was refused")
        if command == "check":
            _refuse_work(monkeypatch)
        else:
            monkeypatch.setattr("onestep.sim._EmStepper", refuse)
        code = _run_command(command, tmp_path, verhulst_file, verhulst_rates,
                            ("--t-final", "1e9", "--dt", "1e-3"))
        assert code == 2
        _assert_usage_error(capsys,
                            "1000000000000 Euler-Maruyama steps per path",
                            "budget of 2097152")
        assert not (tmp_path / "o").exists()

    def test_euler_maruyama_step_budget_is_inclusive(
            self, command, tmp_path, verhulst_file, verhulst_rates, capsys,
            monkeypatch):
        # 0.5 / 0.01 is 50 steps and 0.51 / 0.01 is 51; the jump sampler
        # has no step budget
        monkeypatch.setattr("onestep.sim._EM_STEP_BUDGET", 50)
        assert _run_command(command, tmp_path, verhulst_file, verhulst_rates,
                            ("--t-final", "0.5")) in (0, 1)
        capsys.readouterr()
        assert _run_command(command, tmp_path, verhulst_file, verhulst_rates,
                            ("--t-final", "0.51")) == 2
        _assert_usage_error(capsys, "51 Euler-Maruyama steps per path",
                            "budget of 50")
        if command == "simulate":
            assert _run_command(command, tmp_path, verhulst_file,
                                verhulst_rates,
                                ("--t-final", "0.51", "--engine", "ssa")) == 0

    def test_array_beyond_memory_exits_2(self, command, tmp_path,
                                         verhulst_file, verhulst_rates,
                                         capsys):
        # the first array of 10**14 trajectories takes over 700 TiB, more
        # than any 64-bit process can map
        engines = ("em", "ssa") if command == "simulate" else (None,)
        for engine in engines:
            flags = ("--trajectories", str(10 ** 14))
            if engine:
                flags += ("--engine", engine)
            code = _run_command(command, tmp_path, verhulst_file,
                                verhulst_rates, flags)
            captured = capsys.readouterr()
            assert code == 2
            lines = captured.err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("error: out of memory")
            assert not (tmp_path / "o").exists()

    def test_memory_error_without_a_message_exits_2(
            self, command, tmp_path, verhulst_file, verhulst_rates, capsys,
            monkeypatch):
        def exhaust(*args, **kwargs):
            raise MemoryError()
        monkeypatch.setattr("onestep.cli.euler_maruyama", exhaust)
        monkeypatch.setattr("onestep.cli.compare_engines", exhaust)
        code = _run_command(command, tmp_path, verhulst_file, verhulst_rates,
                            ())
        assert code == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_fractional_initial_state_for_the_jump_sampler_exits_2(
            self, command, tmp_path, verhulst_file, verhulst_rates, capsys,
            monkeypatch):
        # check always runs the jump sampler and refuses before any work;
        # simulate refuses when its engine is the jump sampler
        if command == "check":
            _refuse_work(monkeypatch)
            flags = ("--initial", "phi=2.5")
        else:
            flags = ("--initial", "phi=2.5", "--engine", "ssa")
        code = _run_command(command, tmp_path, verhulst_file, verhulst_rates,
                            flags)
        assert code == 2
        _assert_usage_error(capsys, "integer initial state, got 2.5")
        assert not (tmp_path / "o").exists()

    def test_repeated_initial_species_exits_3_before_any_work(
            self, command, tmp_path, verhulst_file, verhulst_rates, capsys,
            monkeypatch):
        _refuse_work(monkeypatch)
        code = _run_command(command, tmp_path, verhulst_file, verhulst_rates,
                            ("--initial", "phi=3,phi=10"))
        assert code == 3
        _assert_usage_error(capsys, "duplicate", "'phi'")
        assert not (tmp_path / "o").exists()


def _refuse_work(monkeypatch):
    """Make every engine and exact check fail the test if it is called."""
    def refuse(*args, **kwargs):
        raise AssertionError("work ran although the run was refused")
    for name in ("euler_maruyama", "gillespie_ssa", "compare_engines",
                 "jump_moments", "default_box"):
        monkeypatch.setattr(f"onestep.cli.{name}", refuse)


def _edited_manifest(tmp_path, verhulst_file, verhulst_rates, capsys, edit):
    """A recorded Verhulst manifest with edit(data) applied to it."""
    _, out = run_simulate(tmp_path, verhulst_file, verhulst_rates, "first")
    path = out / "verhulst.manifest.json"
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    return path


class TestManifestReplay:
    @pytest.mark.parametrize("value, needle", [
        ("1/0", "'1/0'"), ("abc", "'abc'"), ("-1", "negative"),
        (5, "bad value 5")])
    def test_bad_rate_value_exits_3(self, value, needle, tmp_path,
                                    verhulst_file, verhulst_rates, capsys):
        path = _edited_manifest(tmp_path, verhulst_file, verhulst_rates,
                                capsys,
                                lambda data: data["rates"].update(beta=value))
        code = main(["simulate", "--from-manifest", str(path),
                     "--out", str(tmp_path / "rerun")])
        assert code == 3
        _assert_usage_error(capsys, "manifest rate 'beta'", needle)

    @pytest.mark.parametrize("field, value, needle", [
        ("rates", ["beta"], "'rates' must be an object"),
        ("trajectories", "3", "'trajectories' must be an integer"),
        ("seed", True, "'seed' must be an integer"),
        ("t_final", "0.5", "'t_final' must be a number"),
        ("allow_shared_rates", 1, "'allow_shared_rates' must be true"),
        ("initial", {"phi": "10"}, "initial value of 'phi'"),
        ("rate_mode", "nope", "rate_mode 'nope' is not one of exact, fp"),
        ("engine", "nope", "engine 'nope' is not one of em, ssa"),
        ("input_kind", "nope", "input_kind 'nope' is not one of scheme"),
        ("diffusion_sign", "nope", "diffusion_sign 'nope'"),
        ("noise_strategy", "nope", "noise_strategy 'nope'"),
        ("negative_policy", "nope", "negative_policy 'nope'"),
        ("prefix", "../v", "prefix '../v' must be a plain file name"),
        ("prefix", "", "prefix '' must be a plain file name"),
    ])
    def test_bad_field_exits_2_before_any_work(
            self, field, value, needle, tmp_path, verhulst_file,
            verhulst_rates, capsys, monkeypatch):
        path = _edited_manifest(tmp_path, verhulst_file, verhulst_rates,
                                capsys, lambda data: data.update({field: value}))
        _refuse_work(monkeypatch)
        code = main(["simulate", "--from-manifest", str(path),
                     "--out", str(tmp_path / "rerun")])
        assert code == 2
        _assert_usage_error(capsys, "malformed manifest", needle)
        assert not (tmp_path / "rerun").exists()

    @pytest.mark.parametrize("edit, needle", [
        # a manifest of 0.1.0, which drew other matrix-noise bits
        (lambda data: (data.update(tool_version="0.1.0"),
                       data.pop("format_version")),
         f"manifest tool_version '0.1.0' is not this onestep's "
         f"'{__version__}'"),
        # a manifest of 0.3.0, whose per-reaction noise a BLAS kernel summed
        (lambda data: data.update(tool_version="0.3.0"),
         f"manifest tool_version '0.3.0' is not this onestep's "
         f"'{__version__}'"),
        (lambda data: data.update(format_version=MANIFEST_FORMAT + 1),
         f"manifest format_version {MANIFEST_FORMAT + 1} is not this "
         f"onestep's {MANIFEST_FORMAT}"),
        (lambda data: data.update(format_version=str(MANIFEST_FORMAT)),
         f"manifest format_version '{MANIFEST_FORMAT}' is not"),
        (lambda data: data.pop("format_version"),
         "manifest has no format_version"),
        (lambda data: data.pop("tool_version"),
         "manifest has no tool_version"),
    ])
    def test_manifest_of_another_version_exits_2_before_any_work(
            self, edit, needle, tmp_path, verhulst_file, verhulst_rates,
            capsys, monkeypatch):
        path = _edited_manifest(tmp_path, verhulst_file, verhulst_rates,
                                capsys, edit)
        _refuse_work(monkeypatch)
        code = main(["simulate", "--from-manifest", str(path),
                     "--out", str(tmp_path / "rerun")])
        assert code == 2
        _assert_usage_error(capsys, needle)
        assert not (tmp_path / "rerun").exists()

    def test_manifest_records_both_versions(self, tmp_path, verhulst_file,
                                            verhulst_rates, capsys):
        _, out = run_simulate(tmp_path, verhulst_file, verhulst_rates,
                              "first")
        data = json.loads((out / "verhulst.manifest.json").read_text())
        assert (data["tool_version"], data["format_version"]) == \
            (__version__, MANIFEST_FORMAT)

    def test_manifest_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[]")
        code = main(["simulate", "--from-manifest", str(path),
                     "--out", str(tmp_path / "rerun")])
        assert code == 2
        _assert_usage_error(capsys, "malformed manifest: expected a JSON "
                            "object")

    def test_one_trajectory_is_refused_before_any_work(
            self, tmp_path, verhulst_file, verhulst_rates, capsys,
            monkeypatch):
        path = _edited_manifest(tmp_path, verhulst_file, verhulst_rates,
                                capsys,
                                lambda data: data.update(trajectories=1))
        _refuse_work(monkeypatch)
        code = main(["simulate", "--from-manifest", str(path),
                     "--out", str(tmp_path / "rerun")])
        assert code == 2
        _assert_usage_error(capsys, "two trajectories")


class TestSimulationFailures:
    """A simulation the settings cannot carry out exits 2 with one line."""

    @staticmethod
    def _files(tmp_path, scheme, rates):
        scheme_path = tmp_path / "s.scheme"
        scheme_path.write_text(scheme)
        rates_path = tmp_path / "s.rates"
        rates_path.write_text(rates)
        return scheme_path, rates_path

    def _simulate(self, tmp_path, scheme, rates, *flags):
        scheme_path, rates_path = self._files(tmp_path, scheme, rates)
        return main(["simulate", str(scheme_path), "--rates", str(rates_path),
                     "--trajectories", "5", "--grid-points", "2",
                     "--out", str(tmp_path / "o"), *flags])

    def test_diffusion_that_is_not_psd_exits_2(self, tmp_path, capsys):
        # difference form: B(100) = 100 + 20 - 500 < 0
        code = self._simulate(tmp_path, VERHULST, VERHULST_RATES_TEXT,
                              "--initial", "phi=100")
        assert code == 2
        _assert_usage_error(capsys, "diffusion value B at state (100.0,)",
                            "negative")

    def test_negative_per_reaction_rate_exits_2(self, tmp_path, capsys):
        # exact rate k x (x - 1) is -1/4 at x = 1/2
        code = self._simulate(tmp_path, "2 x -> 0 @ k\n", "k = 1\n",
                              "--rate-mode", "exact", "--noise",
                              "per-reaction", "--diffusion-sign", "sum",
                              "--initial", "x=0.5")
        assert code == 2
        _assert_usage_error(capsys, "per-reaction rate", "negative")

    def test_no_nonnegative_step_exits_2(self, tmp_path, capsys):
        code = self._simulate(tmp_path, "phi -> 0 @ beta\n", "beta = 5\n",
                              "--initial", "phi=100", "--negative-policy",
                              "reject", "--dt", "1", "--t-final", "1")
        assert code == 2
        _assert_usage_error(capsys, "no nonnegative step")

    @pytest.mark.parametrize("policy", ["clamp", "reject"])
    def test_overflow_to_minus_inf_exits_2(self, policy, tmp_path, capsys):
        # -gamma phi^2 overflows to -inf in the first step: clamped, it
        # went extinct and exited 0; redrawn, it ran out of redraws
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = self._simulate(tmp_path, VERHULST, VERHULST_RATES_TEXT,
                                  "--initial", "phi=1e200",
                                  "--negative-policy", policy)
        assert code == 2
        _assert_usage_error(capsys, "trajectory 0 is not finite at t = 1.0",
                            "the state overflowed")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["em", "ssa", "check"])
    def test_moments_beyond_the_float_range_exit_2(self, command, tmp_path,
                                                   capsys):
        # every path holds 1e308, whose mean over two or more overflows
        scheme, rates = "phi -> 0 @ beta\n", "beta = 0\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if command == "check":
                paths = self._files(tmp_path, scheme, rates)
                code = main(["check", str(paths[0]), "--rates",
                             str(paths[1]), "--box", "3",
                             "--initial", "phi=1e308"])
            else:
                code = self._simulate(tmp_path, scheme, rates, "--engine",
                                      command, "--initial", "phi=1e308")
        assert code == 2
        _assert_usage_error(capsys,
                            "moments beyond the float range at t = 0.0")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_state_that_blows_up_exits_2(self, command, tmp_path, capsys):
        # dx/dt grows like x^2 from x = 5: every path overflows long
        # before t = 2, and the first grid time after that stops the run
        scheme_path = tmp_path / "s.scheme"
        scheme_path.write_text("x -> 2 x @ k_1\n2 x -> 3 x @ k_2\n")
        rates_path = tmp_path / "s.rates"
        rates_path.write_text("k_1 = 1\nk_2 = 1\n")
        argv = [command, str(scheme_path), "--rates", str(rates_path),
                "--initial", "x=5", "--trajectories", "3", "--t-final", "2",
                "--grid-points", "4"]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        _assert_usage_error(capsys, "trajectory 0 is not finite",
                            "t = 0.6666666666666666")
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["s.rates", "s.scheme"]

    def test_jump_sampler_that_blows_up_exits_2(self, tmp_path, capsys):
        # the jump rates grow like x^2 from x = 5: a path takes ever more
        # events and never reaches t = 2
        code = self._simulate(tmp_path, "x -> 2 x @ k_1\n2 x -> 3 x @ k_2\n",
                              "k_1 = 1\nk_2 = 1\n", "--engine", "ssa",
                              "--initial", "x=5", "--t-final", "2")
        assert code == 2
        _assert_usage_error(capsys, "trajectory 0 used up its budget",
                            "jump events at t = 0.")
        assert not (tmp_path / "o").exists()

    def test_check_stops_at_the_event_budget(self, tmp_path, capsys,
                                             monkeypatch):
        # about 2,000 jumps per unit time near x = 1000: the path needs
        # more events than this budget allows
        monkeypatch.setattr("onestep.sim._SSA_EVENT_BUDGET", 1024)
        scheme_path = tmp_path / "s.scheme"
        scheme_path.write_text("0 <-> x @ a, b\n")
        rates_path = tmp_path / "s.rates"
        rates_path.write_text("a = 1000\nb = 1\n")
        assert main(["check", str(scheme_path), "--rates", str(rates_path),
                     "--initial", "x=1000", "--trajectories", "3",
                     "--t-final", "1", "--dt", "0.01", "--box", "4",
                     "--grid-points", "4"]) == 2
        _assert_usage_error(capsys, "trajectory 0 used up its budget of "
                            "1024 jump events")


class TestEntryPoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "onestep" in capsys.readouterr().out

    def test_installed_script_runs(self, tmp_path):
        """The ``onestep`` command declared in ``pyproject.toml`` runs as
        its own process and turns ``main``'s return value into the exit
        code.

        The declared entry point is started in a child interpreter the way
        pip's console-script wrapper starts it, so the test needs no
        install; where an installed ``onestep`` script is on ``PATH``, that
        script is run as well.
        """
        import os
        import shutil
        import subprocess
        import sys
        from pathlib import Path

        import onestep

        try:
            import tomllib
        except ModuleNotFoundError:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["onestep"]
        module, _, function = entry.partition(":")
        wrapper = (f"import sys; from {module} import {function} as main; "
                   "sys.exit(main())")

        package_root = str(Path(onestep.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))

        scheme = tmp_path / "verhulst.scheme"
        scheme.write_text(VERHULST)
        args = ["codegen", str(scheme), "--target", "latex"]
        commands = [[sys.executable, "-c", wrapper, *args]]
        installed = shutil.which("onestep")
        if installed is not None:
            commands.append([installed, *args])
        for command in commands:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  env=env, cwd=tmp_path)
            assert proc.returncode == 0
            assert r"\varphi" in proc.stdout


def unread_options(parser) -> list[tuple[str, str]]:
    """(subcommand, dest) of every option a subcommand parses but its
    func never reads as args.<dest>."""
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, sub in action.choices.items():
        source = textwrap.dedent(inspect.getsource(sub.get_default("func")))
        read = {n.attr for n in ast.walk(ast.parse(source))
                if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "args"}
        unread += [(name, a.dest) for a in sub._actions
                   if a.dest != "help" and a.dest not in read]
    return unread


class TestEveryOptionIsRead:
    """The options' counterpart of test_imports' "every import is used":
    an option its command never reads is a setting with no effect."""

    def test_every_parsed_option_is_read_by_its_command(self):
        assert unread_options(build_parser()) == []

    def test_the_scan_finds_an_unread_option(self):
        def command(args):
            return args.used

        parser = argparse.ArgumentParser()
        sub = parser.add_subparsers().add_parser("run")
        sub.add_argument("--used")
        sub.add_argument("--unused")
        sub.set_defaults(func=command)
        assert unread_options(parser) == [("run", "unused")]

    def test_check_takes_no_noise_option(self, verhulst_file, verhulst_rates,
                                         capsys, monkeypatch):
        _refuse_work(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(["check", str(verhulst_file), "--rates", str(verhulst_rates),
                  "--initial", "phi=10", "--noise", "sqrt"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --noise sqrt" in \
            capsys.readouterr().err


class TestFloatRange:
    """Rate values and compiled coefficients beyond the float range."""

    HUGE_RATES = VERHULST_RATES_TEXT.replace("lambda = 1\n",
                                             "lambda = 1e400\n")

    @pytest.mark.parametrize("command", [
        ("simulate", "--engine", "em"), ("simulate", "--engine", "ssa"),
        ("check",)], ids=["em", "ssa", "check"])
    def test_rate_above_the_largest_float_exits_3(
            self, command, tmp_path, verhulst_file, capsys, monkeypatch):
        _refuse_work(monkeypatch)
        rates = tmp_path / "huge.rates"
        rates.write_text(self.HUGE_RATES)
        argv = [command[0], str(verhulst_file), "--rates", str(rates),
                "--initial", "phi=10", *command[1:]]
        if command[0] == "simulate":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 3
        _assert_usage_error(capsys, "rate 'lambda'", "'1e400'",
                            "above the largest float")
        assert not (tmp_path / "o").exists()

    def test_replayed_rate_above_the_largest_float_exits_3(
            self, tmp_path, verhulst_file, verhulst_rates, capsys):
        path = _edited_manifest(tmp_path, verhulst_file, verhulst_rates,
                                capsys, lambda data: data["rates"].update(
                                    {"lambda": "1e400"}))
        code = main(["simulate", "--from-manifest", str(path),
                     "--out", str(tmp_path / "rerun")])
        assert code == 3
        _assert_usage_error(capsys, "manifest rate 'lambda'",
                            "above the largest float")
        assert not (tmp_path / "rerun").exists()

    def test_the_largest_float_itself_is_a_rate(self):
        largest = int(sys.float_info.max)
        assert parse_rates_file(f"k = {largest}\n") == {"k": largest}
        for above in (f"{largest + 1}", f"{2 * largest + 1}/2", "1e309"):
            with pytest.raises(RatesFileError,
                               match="above the largest float"):
                parse_rates_file(f"k = {above}\n")

    @pytest.mark.parametrize("value, needle", [
        ("1e10000000", "above the largest float"),
        ("-1e10000000", "negative"),
        ("1e-10000000", "rounds to 0.0 as a float")])
    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_huge_exponent_exits_3_at_once(self, value, needle, command,
                                           tmp_path, verhulst_file, capsys,
                                           monkeypatch):
        # Fraction(value) would build a ten-million-digit power of ten
        _refuse_work(monkeypatch)
        rates = tmp_path / "far.rates"
        rates.write_text(VERHULST_RATES_TEXT.replace("lambda = 1\n",
                                                     f"lambda = {value}\n"))
        argv = [command, str(verhulst_file), "--rates", str(rates),
                "--initial", "phi=10"]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "o")]
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1.0
        _assert_usage_error(capsys, "rate 'lambda'", repr(value), needle)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["1e-400", "2.4e-324",
                                       "1/1" + "0" * 400],
                             ids=["1e-400", "2.4e-324", "1/10**400"])
    def test_rate_that_rounds_to_zero_exits_3(self, value, tmp_path,
                                              verhulst_file, capsys,
                                              monkeypatch):
        # the oracles would see a positive rate, both engines 0.0
        _refuse_work(monkeypatch)
        rates = tmp_path / "tiny.rates"
        rates.write_text(VERHULST_RATES_TEXT.replace("lambda = 1\n",
                                                     f"lambda = {value}\n"))
        assert main(["check", str(verhulst_file), "--rates", str(rates),
                     "--initial", "phi=10"]) == 3
        _assert_usage_error(capsys, "rate 'lambda'", repr(value),
                            "is positive but rounds to 0.0 as a float")

    def test_rate_values_at_the_float_range_edges(self):
        # 2.5e-324 rounds up to the smallest float, 5e-324; a zero
        # mantissa is 0 whatever its exponent
        table = parse_rates_file("a = 2.5e-324\nb = 0e1000000\n"
                                 "c = -0.0e-1000000\nd = 1_0.5e+2\n")
        assert table == {"a": Fraction(1, 4 * 10 ** 323), "b": 0, "c": 0,
                         "d": 1050}
        for bad, needle in (("1__0e5", "bad value"), ("e5", "bad value"),
                            ("1 e5", "bad value"), ("2e308", "above"),
                            ("0.1e310", "above"), ("1e-325", "rounds")):
            with pytest.raises(RatesFileError, match=needle):
                parse_rates_file(f"k = {bad}\n")

    def test_zero_mantissa_with_a_huge_exponent_is_a_zero_rate(
            self, tmp_path, verhulst_file, capsys):
        rates = tmp_path / "zero.rates"
        rates.write_text(VERHULST_RATES_TEXT.replace("gamma = 1/20\n",
                                                     "gamma = 0e1000000\n"))
        assert main(["simulate", str(verhulst_file), "--rates", str(rates),
                     "--initial", "phi=3", "--engine", "ssa",
                     "--t-final", "0.1", "--trajectories", "2",
                     "--out", str(tmp_path / "o")]) == 0
        manifest = json.loads(
            (tmp_path / "o" / "verhulst.manifest.json").read_text())
        assert manifest["rates"]["gamma"] == "0"

    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_compiled_coefficient_beyond_the_float_range_exits_2(
            self, command, tmp_path, capsys):
        # the drift of x is (3 - 1) k x - d x, and 2k overflows a float
        scheme = tmp_path / "s.scheme"
        scheme.write_text("x -> 3 x @ k\nx -> 0 @ d\n")
        rates = tmp_path / "s.rates"
        rates.write_text("k = 1e308\nd = 1\n")
        argv = [command, str(scheme), "--rates", str(rates),
                "--initial", "x=1", "--trajectories", "3"]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        _assert_usage_error(capsys, "compiled coefficient",
                            "beyond the float range")
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["s.rates", "s.scheme"]


def _pad_species(scheme):
    scheme["species"] = ["phi", "psi"]
    for ia in scheme["interactions"]:
        ia["initial"].append(0)
        ia["final"].append(0)


class TestModelSchemeAgreement:
    """A model JSON whose embedded scheme is not the model's is malformed
    (exit 2), whichever engine would run it."""

    @pytest.mark.parametrize("engine", ["em", "ssa"])
    @pytest.mark.parametrize("edit, needle", [
        (_pad_species, "species"),
        (lambda scheme: scheme.update(species=["psi"]), "species"),
        (lambda scheme: scheme["interactions"][1].update(forward_rate="mu"),
         "rate symbols"),
    ], ids=["two-species", "renamed-species", "renamed-rate"])
    def test_disagreeing_scheme_exits_2_and_writes_nothing(
            self, edit, needle, engine, tmp_path, verhulst_file, capsys):
        assert main(["derive", str(verhulst_file), "--out",
                     str(tmp_path / "d")]) == 0
        path = tmp_path / "d" / "verhulst.model.json"
        data = json.loads(path.read_text())
        edit(data["scheme"])
        path.write_text(json.dumps(data))
        # every rate either scheme names is bound
        rates = tmp_path / "v.rates"
        rates.write_text(VERHULST_RATES_TEXT + "mu = 1\n")
        capsys.readouterr()
        code = main(["simulate", str(path), "--rates", str(rates),
                     "--initial", "phi=10", "--engine", engine,
                     "--trajectories", "3", "--out", str(tmp_path / "o")])
        assert code == 2
        _assert_usage_error(capsys, "malformed model object",
                            f"scheme's {needle} differ from the model's")
        assert not (tmp_path / "o").exists()


class TestReplayedInitialState:
    """A replay checks the manifest's initial values as they are: they
    are never written out as text and parsed again."""

    @pytest.mark.parametrize("initial, needle", [
        ({}, "initial state missing species: phi"),
        ({"phi": 10, "psi": 1}, "unknown species 'psi' in initial state"),
    ])
    def test_bad_initial_exits_3(self, initial, needle, tmp_path,
                                 verhulst_file, verhulst_rates, capsys,
                                 monkeypatch):
        path = _edited_manifest(tmp_path, verhulst_file, verhulst_rates,
                                capsys,
                                lambda data: data.update(initial=initial))
        _refuse_work(monkeypatch)
        monkeypatch.setattr("onestep.cli.parse_initial", None)
        code = main(["simulate", "--from-manifest", str(path),
                     "--out", str(tmp_path / "rerun")])
        assert code == 3
        _assert_usage_error(capsys, needle)

    def test_int_beyond_the_float_range_exits_2_before_any_work(
            self, tmp_path, verhulst_file, verhulst_rates, capsys,
            monkeypatch):
        path = _edited_manifest(tmp_path, verhulst_file, verhulst_rates,
                                capsys, lambda data: data["initial"].update(
                                    phi=10 ** 400))
        _refuse_work(monkeypatch)
        code = main(["simulate", "--from-manifest", str(path),
                     "--out", str(tmp_path / "rerun")])
        assert code == 2
        _assert_usage_error(capsys, "initial value of 'phi' is beyond the "
                                    "float range")

    def test_replay_parses_no_text(self, tmp_path, verhulst_file,
                                   verhulst_rates, capsys, monkeypatch):
        _, out = run_simulate(tmp_path, verhulst_file, verhulst_rates, "run")
        monkeypatch.setattr("onestep.cli.parse_initial", None)
        assert main(["simulate", "--from-manifest",
                     str(out / "verhulst.manifest.json"),
                     "--out", str(tmp_path / "replay")]) == 0
        for path in sorted(out.iterdir()):
            assert (tmp_path / "replay" / path.name).read_bytes() == \
                path.read_bytes()
