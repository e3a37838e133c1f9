import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genus2pairs

MODULES = sorted(Path(genus2pairs.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Invariants are explicit raises, which ``python -O`` keeps."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements on lines {lines}"


def test_oracle_shares_nothing_with_primitivity():
    """The referees in ``oracle`` must not reuse the decision procedures."""
    path = Path(genus2pairs.__file__).parent / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {m for m in imported if m.endswith("primitivity")}, imported


def _imported_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_click(path):
    """The package has no runtime dependencies."""
    roots = {name.split(".")[0] for name in _imported_modules(path)}
    assert "click" not in roots


def test_cli_imports_no_command_modules():
    """Importing the command line loads none of the modules its commands run."""
    src = str(Path(genus2pairs.__file__).resolve().parents[1])
    script = "import sys, genus2pairs.cli; print(' '.join(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    loaded = set(result.stdout.split())
    assert "genus2pairs.cli" in loaded
    heavy = {"click"} | {f"genus2pairs.{m}" for m in (
        "rr_diagram", "classifier", "heegaard", "oracle", "automorphisms")}
    assert not loaded & heavy


def test_star_import_binds_all():
    namespace = {}
    exec("from genus2pairs import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(genus2pairs.__all__)
    assert set(genus2pairs.__all__) <= set(dir(genus2pairs))
    assert genus2pairs.__version__ == "0.1.0"


def test_unknown_attribute():
    with pytest.raises(AttributeError):
        genus2pairs.no_such_name
    assert not hasattr(genus2pairs, "_no_such_private_name")
