"""Exporters: LaTeX, the restricted C dialect, and the JSON model form."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import onestep
from onestep import (DiffusionSign, ModelFormatError, NoiseStrategy,
                     RateMode, SymbolId, build_sde_model, c_expression,
                     emit_c_source, emit_latex, emit_model_json,
                     latex_expression, latex_symbol, model_from_json,
                     parse_expression, parse_scheme, rate, species)
from onestep.cli import main, model_report
from onestep.codegen import _c_number
from onestep.poly import Polynomial
from helpers import LOTKA_VOLTERRA, RING3, VERHULST, random_scheme_text


def verhulst_model(**kwargs):
    return build_sde_model(parse_scheme(VERHULST), **kwargs)


def predator_prey_model(**kwargs):
    return build_sde_model(parse_scheme(LOTKA_VOLTERRA), **kwargs)


class TestLatexSymbols:
    def test_greek_names_translate(self):
        assert latex_symbol("phi") == r"\varphi"
        assert latex_symbol("lambda") == r"\lambda"
        assert latex_symbol("beta") == r"\beta"

    def test_underscore_becomes_subscript(self):
        assert latex_symbol("k_1") == "k_{1}"
        assert latex_symbol("sigma_xy") == r"\sigma_{xy}"

    def test_plain_names_pass_through(self):
        assert latex_symbol("x") == "x"


class TestLatexExpressions:
    def test_logistic_drift(self):
        model = verhulst_model()
        tex = latex_expression(model.drift[0], model.display_order)
        assert tex == r"\lambda \varphi - \beta \varphi - \gamma \varphi^{2}"

    def test_logistic_diffusion_difference(self):
        model = verhulst_model()
        tex = latex_expression(model.diffusion[0][0], model.display_order)
        assert tex == r"\lambda \varphi + \beta \varphi - \gamma \varphi^{2}"

    def test_zero_renders_as_zero(self):
        assert latex_expression(Polynomial.zero()) == "0"

    def test_leading_negative_cross_term(self):
        model = predator_prey_model()
        tex = latex_expression(model.diffusion[0][1], model.display_order)
        assert tex == "- k_{2} x y"

    def test_fraction_coefficients_use_frac(self):
        p = parse_expression("1/20*phi^2")
        assert latex_expression(p) == r"\frac{1}{20} \varphi^{2}"

    def test_integer_coefficients_stay_plain(self):
        assert latex_expression(parse_expression("3*x")) == "3 x"


class TestLatexDocuments:
    def test_single_species_layout(self):
        text = emit_latex(verhulst_model())
        lines = text.splitlines()
        assert lines[0] == (r"\[ A(\varphi) = \lambda \varphi - \beta \varphi"
                            r" - \gamma \varphi^{2} \]")
        assert lines[1].startswith(r"\[ B(\varphi) = ")
        assert r"\sqrt" in lines[2] and r"dW" in lines[2]
        assert text.endswith("\n")

    def test_multi_species_layout(self):
        text = emit_latex(predator_prey_model())
        assert r"\begin{pmatrix}" in text
        assert r"dW^{1}" in text and r"dW^{2}" in text
        assert r"b \, b^{\mathsf{T}} = B" in text

    def test_no_bare_greek_names_survive(self):
        for model in (verhulst_model(), predator_prey_model()):
            text = emit_latex(model)
            for name in ("lambda", "beta", "gamma", "phi"):
                assert not re.search(rf"(?<![\\a-z]){name}", text)


class TestCSource:
    def test_logistic_bodies(self):
        text = emit_c_source(verhulst_model())
        assert "out[0] = k[0]*x[0] - k[1]*x[0] - k[2]*x[0]*x[0];" in text
        assert "out[0] = k[0]*x[0] + k[1]*x[0] - k[2]*x[0]*x[0];" in text

    def test_header_maps_symbols_to_slots(self):
        text = emit_c_source(verhulst_model())
        assert " *   x[0] = phi" in text
        assert " *   k[0] = lambda" in text
        assert " *   k[1] = beta" in text
        assert " *   k[2] = gamma" in text

    def test_predator_prey_bodies(self):
        text = emit_c_source(predator_prey_model())
        assert "out[1] = k[1]*x[0]*x[1] - k[2]*x[1];" in text
        assert "out[1] = -k[1]*x[0]*x[1];" in text
        assert "out[2] = -k[1]*x[0]*x[1];" in text

    def test_function_names_follow_the_argument(self):
        text = emit_c_source(verhulst_model(), function_name="logistic")
        assert "void logistic_drift(const double x[]" in text
        assert "void logistic_diffusion(const double x[]" in text
        assert "/* one-step model: logistic" in text

    def test_zero_entry_renders_as_float_zero(self):
        x = species("x")
        assert c_expression(Polynomial.zero(), {x: "x[0]"}) == "0.0"

    def test_dialect_is_restricted(self):
        # only indexing, +, -, *, decimal numbers; no '^', '/', or calls
        for model in (verhulst_model(), predator_prey_model()):
            text = emit_c_source(model)
            for line in text.splitlines():
                body = re.match(r"\s+out\[\d+\] = (.*);$", line)
                if body:
                    assert re.fullmatch(r"[kx\[\]0-9*+\-. ]+", body.group(1))
            assert "^" not in text
            assert "/" not in text.split("*/")[-1]

    def test_decimal_coefficients_are_positional(self):
        phi = species("phi")
        p = parse_expression("1/1024*phi^2 + 1/3*phi")
        body = c_expression(p, {phi: "x[0]"})
        assert "0.0009765625*x[0]*x[0]" in body
        assert "e-" not in body and "E-" not in body


# a non-integer rational: num / den times 2**shift, which spans the
# subnormals, the floats below them that round to 0.0, and the huge ones,
# where a double holds only integers
@st.composite
def non_integer_fractions(draw):
    c = (Fraction(draw(st.integers(-2 ** 64, 2 ** 64)),
                  draw(st.integers(1, 2 ** 64)))
         * Fraction(2) ** draw(st.integers(-1200, 1000)))
    assume(c.denominator > 1 and abs(c) <= sys.float_info.max)
    return c


class TestDecimalText:
    """_c_number writes a non-integer coefficient as numpy's
    format_float_positional(unique=True, trim="0") wrote it, without
    importing numpy."""

    @settings(max_examples=1000)
    @given(non_integer_fractions())
    @example(Fraction(1, 3))
    @example(Fraction(1, 1024))
    @example(Fraction(1, 2 ** 1074))                # the least subnormal
    @example(Fraction(-3, 2 ** 1075))               # rounds to -5e-324
    @example(Fraction(1, 10 ** 400))                # rounds to 0.0
    @example(Fraction(-1, 10 ** 400))               # rounds to -0.0
    @example(Fraction(2 ** 60 + 1, 2))              # an integer-valued float
    @example(Fraction(10 ** 308 + 1, 3))            # 3.33e307
    @example(Fraction(2 ** 1025 - 2 ** 972 - 1, 2))  # the largest float
    @example(Fraction(12345, 10 ** 20))
    def test_matches_numpy(self, c):
        import numpy as np
        assert _c_number(c) == np.format_float_positional(
            float(c), unique=True, trim="0")

    def test_integers_are_their_digits(self):
        assert _c_number(3) == "3"
        assert _c_number(-2 ** 80) == str(-2 ** 80)


def _c_bodies(text):
    out = []
    for line in text.splitlines():
        m = re.match(r"\s+out\[(\d+)\] = (.*);$", line)
        if m:
            out.append(m.group(2))
    return out


def _parse_back(body, model):
    table = {s.name: s for s in model.species}
    table.update({r.name: r for r in model.rate_symbols})
    text = re.sub(r"x\[(\d+)\]",
                  lambda m: model.species[int(m.group(1))].name, body)
    text = re.sub(r"k\[(\d+)\]",
                  lambda m: model.rate_symbols[int(m.group(1))].name, text)
    return parse_expression(text, table)


class TestCSourceRoundTrip:
    def test_bodies_evaluate_like_the_polynomials(self):
        rng = random.Random(99)
        for trial in range(10):
            scheme = parse_scheme(random_scheme_text(rng))
            model = build_sde_model(
                scheme,
                rate_mode=rng.choice(list(RateMode)),
                diffusion_sign=rng.choice(list(DiffusionSign)))
            n = len(model.species)
            polys = list(model.drift) + [q for row in model.diffusion
                                         for q in row]
            bodies = _c_bodies(emit_c_source(model))
            assert len(bodies) == n + n * n
            symbols = model.species + model.rate_symbols
            for p, body in zip(polys, bodies):
                back = _parse_back(body, model)
                for _ in range(5):
                    env = {s: rng.uniform(0.1, 3.0) for s in symbols}
                    want = p.evaluate(env)
                    got = back.evaluate(env)
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestJsonModelForm:
    def test_version_and_canonical_strings(self):
        data = json.loads(emit_model_json(verhulst_model()))
        assert data["version"] == "1"
        assert data["species"] == ["phi"]
        assert data["rates"] == ["lambda", "beta", "gamma"]
        assert data["drift"] == ["lambda*phi - beta*phi - gamma*phi^2"]
        assert data["diffusion"] == [["lambda*phi + beta*phi - gamma*phi^2"]]
        assert data["rate_mode"] == "fp"
        assert data["diffusion_sign"] == "difference"
        assert data["scheme"] is not None

    def test_round_trip_preserves_the_model(self):
        for model in (verhulst_model(),
                      predator_prey_model(rate_mode=RateMode.EXACT,
                                          diffusion_sign=DiffusionSign.SUM,
                                          noise_strategy=NoiseStrategy.PER_REACTION)):
            restored = model_from_json(emit_model_json(model))
            assert restored == model
            assert restored.scheme == model.scheme

    def test_round_trip_without_a_scheme(self):
        x = species("x")
        from onestep import SdeModel
        model = SdeModel(species=(x,), rate_symbols=(rate("a"),),
                         drift=(Polynomial.symbol(rate("a")),),
                         diffusion=((Polynomial.one(),),),
                         rate_mode=RateMode.FOKKER_PLANCK,
                         diffusion_sign=DiffusionSign.SUM,
                         noise_strategy=NoiseStrategy.MATRIX_SQRT)
        restored = model_from_json(emit_model_json(model))
        assert restored == model
        assert restored.scheme is None

    def test_malformed_json_is_reported(self):
        with pytest.raises(ModelFormatError):
            model_from_json("{not json")

    def test_unsupported_version_is_rejected(self):
        data = json.loads(emit_model_json(verhulst_model()))
        data["version"] = "999"
        with pytest.raises(ModelFormatError):
            model_from_json(json.dumps(data))

    def test_missing_field_is_rejected(self):
        data = json.loads(emit_model_json(verhulst_model()))
        del data["drift"]
        with pytest.raises(ModelFormatError):
            model_from_json(json.dumps(data))

    def test_bad_expression_is_rejected(self):
        data = json.loads(emit_model_json(verhulst_model()))
        data["drift"] = ["lambda*(phi"]
        with pytest.raises(ModelFormatError):
            model_from_json(json.dumps(data))

    def test_asymmetric_diffusion_is_rejected(self):
        data = json.loads(emit_model_json(predator_prey_model()))
        data["diffusion"][0][1] = "0"
        with pytest.raises(ModelFormatError):
            model_from_json(json.dumps(data))


class TestCodegenTargets:
    def test_targets_match_the_direct_calls(self, tmp_path, capsys):
        scheme = tmp_path / "v.scheme"
        scheme.write_text(VERHULST)
        model = verhulst_model()
        for target, expected in (("latex", emit_latex(model)),
                                 ("json", emit_model_json(model)),
                                 ("c", emit_c_source(model,
                                                     function_name="f"))):
            assert main(["codegen", str(scheme), "--target", target,
                         "--function-name", "f"]) == 0
            assert capsys.readouterr().out == expected, target


GOLDEN = Path(__file__).parent / "golden" / "derive"


def ring(n: int) -> str:
    """The cyclic ring of perfbench's ring8 workload, on n species."""
    return "".join(f"3 x{i} <-> 3 x{i % n + 1} @ a_{i}, b_{i}\n"
                   for i in range(1, n + 1))


# derive's four files on the 50-species ring under the benchmark's flags,
# recorded before the coefficients became ints; its multi-digit names
# (x1, x10, x2, ...) make the rank order of the display matter
RING50_SHA256 = {
    "ring50.tex":
        "219bdf152198fb8e2014446991383ce8cc1a5bc75fadcbabf708d68e5161bb5e",
    "ring50_model.c":
        "0bbb1d86cad19b07c5437bd0b42154afa3c15a5f5e9ef4c8583a2a496a96781f",
    "ring50.model.json":
        "886f7c0e38511974357ee97d27c806b11f3908f3d31d60f303e98ab4e23e3f89",
    "ring50.report.txt":
        "4a5751f73dc37b8dc07ee6b1fb2389cca2bd74573936b19bdbf16105e298e5bb",
}

DERIVE_FILES = ("{}.tex", "{}_model.c", "{}.model.json", "{}.report.txt")


class TestDeriveGolden:
    """derive's four files, byte for byte: the three exports as recorded
    before the term renderer was shared between the text forms and the
    compiler, and the report as recorded before the coefficients became
    ints."""

    @pytest.mark.parametrize("variant, flags", [
        ("default", ()),
        ("exact-sum", ("--rate-mode", "exact", "--diffusion-sign", "sum")),
    ])
    @pytest.mark.parametrize("stem, text", [
        ("verhulst", VERHULST),
        ("lotka_volterra", LOTKA_VOLTERRA),
        ("ring3", RING3),
    ])
    def test_exports_are_unchanged(self, variant, flags, stem, text,
                                   tmp_path, capsys):
        scheme = tmp_path / f"{stem}.scheme"
        scheme.write_text(text)
        out = tmp_path / "out"
        assert main(["derive", str(scheme), *flags, "--out", str(out)]) == 0
        for name in (form.format(stem) for form in DERIVE_FILES):
            expected = (GOLDEN / variant / name).read_bytes()
            assert (out / name).read_bytes() == expected, name

    def test_ring_of_50_species(self, tmp_path, capsys):
        scheme = tmp_path / "ring50.scheme"
        scheme.write_text(ring(50))
        out = tmp_path / "out"
        assert main(["derive", str(scheme), "--rate-mode", "exact",
                     "--diffusion-sign", "sum", "--out", str(out)]) == 0
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in RING50_SHA256} == RING50_SHA256

    def test_same_bytes_under_any_hash_seed(self, tmp_path):
        # symbols hash by name, so dict and set order may follow the
        # interpreter's string hash seed; no output may
        scheme = tmp_path / "ring3.scheme"
        scheme.write_text(RING3)
        src = Path(onestep.__file__).parent.parent
        files = {}
        for seed in ("0", "1"):
            out = tmp_path / seed
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from onestep.cli import main; "
                 "sys.exit(main(sys.argv[1:]))",
                 "derive", str(scheme), "--out", str(out)],
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": str(src)},
                check=True, capture_output=True)
            files[seed] = {form.format("ring3"):
                           (out / form.format("ring3")).read_bytes()
                           for form in DERIVE_FILES}
        assert files["0"] == files["1"]


class TestRenderingScales:
    @pytest.mark.parametrize("render", [
        model_report, emit_latex, emit_c_source, emit_model_json])
    def test_linear_in_the_species_count(self, render, monkeypatch):
        # a ring of n species has O(n) nonzero terms; scanning the whole
        # display order for each polynomial made rendering grow as n^2
        # (symbol hashes from 16 to 32 species: 2.6 to 3.1 times)
        models = [build_sde_model(parse_scheme(ring(n))) for n in (16, 32)]
        plain = SymbolId.__hash__
        hashes = []

        def counting(sym):
            hashes[-1] += 1
            return plain(sym)

        monkeypatch.setattr(SymbolId, "__hash__", counting)
        for model in models:
            hashes.append(0)
            render(model)
        small, large = hashes
        assert large <= 2.5 * small
