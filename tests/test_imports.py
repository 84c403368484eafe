"""Every name an onestep module imports at top level is used there.

__init__.py is left out: it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

import onestep

SRC = Path(onestep.__file__).parent

# (module, name) -> why the module imports a name it does not use
KEPT = {
    ("cli", "drift_vector"):
        "perfbench's layer hooks wrap onestep.cli.drift_vector, and a "
        "missing hook target is reported as absent",
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
