"""Every name an onestep module imports at top level is used there, and
the symbolic layer and the commands built on it import no numpy.

__init__.py is left out of the first: it imports to re-export.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import onestep
from helpers import LOTKA_VOLTERRA, RING3, VERHULST

SRC = Path(onestep.__file__).parent

# (module, name) -> why the module imports a name it does not use
KEPT = {
    ("cli", "drift_vector"):
        "perfbench's layer hooks wrap onestep.cli.drift_vector, and a "
        "missing hook target is reported as absent",
    ("sim", "as_function"):
        "perfbench's layer hooks wrap onestep.sim.as_function, which the "
        "Euler-Maruyama step no longer calls",
}


def unused_imports(path: Path) -> list[str]:
    """Names bound by the module's top-level imports that no Name node
    of the module reads, annotations included."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("module", sorted(
    p.stem for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_top_level_import_is_used(module):
    unused = unused_imports(SRC / f"{module}.py")
    assert [name for name in unused if (module, name) not in KEPT] == []


def test_each_kept_import_is_still_imported_and_unused():
    for module, name in KEPT:
        assert name in unused_imports(SRC / f"{module}.py")


def test_the_scan_finds_an_unused_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\nimport re\n"
                    "from typing import Mapping, Sequence\n\n"
                    "def f(x: Mapping) -> None:\n    return os.sep\n")
    assert unused_imports(path) == ["Sequence", "re"]


# ---------------------------------------------------------------------------
# the lazy numeric layer: each check runs in a fresh interpreter, since this
# one has long imported numpy

GOLDEN = Path(__file__).parent / "golden" / "derive" / "default"

# onestep.__all__ as it read while the package imported cme and sim eagerly
PUBLIC_NAMES = [
    "ChannelTable", "ComparisonReport", "DegenerateDistributionError",
    "DiffusionSign", "Distribution", "DuplicateRateSymbolError",
    "EmptySchemeError", "Engine", "ExpressionSyntaxError",
    "IncompatibleNoiseError", "Interaction", "InteractionScheme",
    "JumpMoments", "MissingSymbolError", "ModelFormatError", "MomentReport",
    "Monomial", "NegativePolicy", "NegativeRateError", "NoOpInteractionError",
    "NoiseStrategy", "NotPsdError", "NotSymmetricError", "Polynomial",
    "RateMode", "SchemeError", "SchemeSyntaxError", "SdeModel", "SimConfig",
    "SimConfigError", "SimulationError", "StateBox", "Stream", "SymbolId",
    "SymbolKind", "TooFewTrajectoriesError", "TrajectoryEnsemble",
    "TransitionRates", "TruncatedGenerator", "UnboundRateError",
    "UnstableStepError", "as_function", "bind_values", "build_generator",
    "build_sde_model", "c_expression", "canonical_string", "cme", "codegen",
    "compare_engines", "compare_reports", "default_box", "derive",
    "diffusion_matrix", "distribution_moments", "distribution_to_csv",
    "drift_vector", "emit_c_source", "emit_latex", "emit_model_json",
    "ensemble_moments", "euler_maruyama", "evolve_distribution",
    "falling_factorial", "format_scheme", "gillespie_ssa", "jump_moments",
    "latex_expression", "latex_symbol", "matrix_sqrt_psd", "mean_band_svg",
    "model_from_json", "moments_to_csv", "monomial", "parse_expression",
    "parse_scheme", "point_mass", "poly", "power", "rate",
    "reaction_channels", "scheme", "sim", "sorted_terms", "species",
    "trajectories_to_csv", "trajectory_rng", "transition_rates",
]

# runs main on its arguments and reports the exit code and whether numpy
# was imported, on the last line of stdout
_MAIN = """
import sys
from onestep.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:       # argparse's exits: --version
    code = exc.code
print(f"exit={code} numpy={'numpy' in sys.modules}")
"""


def fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """code run by a new interpreter that imports this onestep."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def fresh_main(*args: str) -> tuple[str, str]:
    """(the report line of _MAIN, stderr) for main(args) in a new
    interpreter."""
    done = fresh(_MAIN, *args)
    return done.stdout.splitlines()[-1], done.stderr


def test_import_onestep_loads_no_numpy():
    done = fresh("import sys, onestep; print('numpy' in sys.modules)")
    assert done.stdout == "False\n"


@pytest.fixture(scope="module")
def schemes(tmp_path_factory):
    directory = tmp_path_factory.mktemp("schemes")
    paths = {}
    for stem, text in (("verhulst", VERHULST),
                       ("lotka_volterra", LOTKA_VOLTERRA), ("ring3", RING3)):
        paths[stem] = directory / f"{stem}.scheme"
        paths[stem].write_text(text)
    return paths


@pytest.mark.parametrize("stem", ["verhulst", "lotka_volterra", "ring3"])
def test_derive_loads_no_numpy(stem, schemes, tmp_path):
    line, _ = fresh_main("derive", str(schemes[stem]),
                         "--out", str(tmp_path))
    assert line == "exit=0 numpy=False"
    # the files the numpy-free run wrote are the golden ones
    for name in (f"{stem}.tex", f"{stem}_model.c", f"{stem}.model.json",
                 f"{stem}.report.txt"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("target", ["latex", "c", "json"])
@pytest.mark.parametrize("kind", ["scheme", "model"])
def test_codegen_loads_no_numpy(target, kind, schemes, tmp_path):
    source = (schemes["lotka_volterra"] if kind == "scheme"
              else GOLDEN / "lotka_volterra.model.json")
    line, _ = fresh_main("codegen", str(source), "--target", target,
                         "--out", str(tmp_path / "out"))
    assert line == "exit=0 numpy=False"


def test_codegen_c_of_a_fractional_coefficient_loads_no_numpy(tmp_path):
    # a hand-written model JSON: derived models have integer coefficients
    model = json.loads((GOLDEN / "verhulst.model.json").read_text())
    model["drift"] = ["1/3*lambda*phi - 1/1024*gamma*phi^2"]
    source = tmp_path / "thirds.model.json"
    source.write_text(json.dumps(model))
    line, _ = fresh_main("codegen", str(source), "--target", "c",
                         "--out", str(tmp_path / "out.c"))
    assert line == "exit=0 numpy=False"
    text = (tmp_path / "out.c").read_text()
    assert "0.3333333333333333*k[0]*x[0]" in text
    assert "0.0009765625*k[2]*x[0]*x[0]" in text


def test_version_loads_no_numpy():
    done = fresh(_MAIN, "--version")
    assert done.stdout.splitlines() == ["onestep 0.3.0",
                                        "exit=0 numpy=False"]


@pytest.mark.parametrize("case", ["parse-error", "missing-file",
                                  "bad-function-name"])
def test_refused_input_exits_2_without_numpy(case, schemes, tmp_path):
    bad = tmp_path / "bad.scheme"
    bad.write_text("x -> @ k\n")
    argv = {
        "parse-error": ("derive", str(bad), "--out", str(tmp_path / "o")),
        "missing-file": ("derive", str(tmp_path / "none.scheme"),
                         "--out", str(tmp_path / "o")),
        "bad-function-name": ("codegen", str(schemes["verhulst"]),
                              "--target", "c", "--function-name", "1f"),
    }[case]
    line, err = fresh_main(*argv)
    assert line == "exit=2 numpy=False"
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_public_names_are_unchanged():
    assert onestep.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(onestep))


def test_lazy_names_are_the_defining_module_objects():
    # every public name resolved first, then compared with the objects of
    # the numeric modules, for each name that either of them binds: this
    # also covers the classes sim and cme re-import from derive and poly
    done = fresh("""
import onestep
values = {name: getattr(onestep, name) for name in onestep.__all__}
from onestep import cme, sim
print(sorted(name for name, value in values.items() for module in (cme, sim)
             if hasattr(module, name) and getattr(module, name) is not value))
""")
    assert done.stdout == "[]\n"


def test_a_numeric_cli_name_resolves_before_any_command():
    done = fresh("""
import onestep.cli, onestep.sim
print(getattr(onestep.cli, "euler_maruyama") is onestep.sim.euler_maruyama)
""")
    assert done.stdout == "True\n"


@pytest.mark.parametrize("how", ["monkeypatch", "assignment"])
def test_a_patched_cli_name_is_the_one_simulate_calls(how, schemes, tmp_path):
    # set before any command has run: through pytest's monkeypatch, which
    # reads the name first, or by plain assignment, which does not
    rates = tmp_path / "verhulst.rates"
    rates.write_text("lambda = 1\nbeta = 1/5\ngamma = 1/20\n")
    done = fresh("""
import sys
import pytest
import onestep.cli, onestep.sim
calls = []


def counted(*args, **kwargs):
    calls.append(1)
    return onestep.sim.euler_maruyama(*args, **kwargs)


with pytest.MonkeyPatch.context() as patch:
    if sys.argv[1] == "monkeypatch":
        patch.setattr("onestep.cli.euler_maruyama", counted)
    else:
        onestep.cli.euler_maruyama = counted
    code = onestep.cli.main(sys.argv[2:])
print(code, len(calls))
""", how, "simulate", str(schemes["verhulst"]), "--rates", str(rates),
         "--initial", "phi=10", "--t-final", "0.1", "--dt", "0.01",
         "--trajectories", "3", "--grid-points", "3",
         "--out", str(tmp_path / "o"))
    assert done.stdout.splitlines()[-1] == "0 1"


def test_float_text_tables_wait_for_a_csv_writer(schemes, tmp_path):
    """Neither importing sim nor check, which writes no CSV, builds the
    float-text kernel's tables; simulate's first writer call does."""
    rates = tmp_path / "verhulst.rates"
    rates.write_text("lambda = 1\nbeta = 1/5\ngamma = 1/20\n")
    done = fresh("""
import sys
import onestep.floattext, onestep.sim
from onestep.cli import main
built = onestep.floattext._tables.cache_info
print("tables", built().currsize)
main(["check", *sys.argv[2:]])
print("tables", built().currsize)
main(["simulate", *sys.argv[2:], "--out", sys.argv[1]])
print("tables", built().currsize)
""", str(tmp_path / "out"), str(schemes["verhulst"]), "--rates", str(rates),
         "--initial", "phi=10", "--t-final", "0.1", "--trajectories", "20",
         "--grid-points", "3")
    assert [line for line in done.stdout.splitlines()
            if line.startswith("tables")] == ["tables 0"] * 2 + ["tables 1"]
