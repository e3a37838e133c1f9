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


def test_one_exact_integer_check():
    """``errors.check_int`` is the one exact-integer check; ``HGraph`` calls
    it too, and its InvalidParamsError is a ValueError."""
    counts = {path.name: path.read_text().count("is not int") for path in MODULES}
    assert {name: n for name, n in counts.items() if n} == {"errors.py": 1}


def test_one_word_coercion():
    """Word arguments are read by ``words._reduced_letters`` or
    ``words._core_letters``; the decision, automorphism, classifier and
    referee modules dispatch on no argument type of their own."""
    names = ("primitivity.py", "automorphisms.py", "classifier.py", "oracle.py")
    counts = {path.name: path.read_text().count("isinstance(") for path in MODULES}
    assert {name: counts[name] for name in names} == dict.fromkeys(names, 0)


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


def test_no_imports_inside_functions():
    """The word kernel, the decisions, the automorphisms and the referees
    import at module level only, as an import in a function body runs on
    every call.  ``cli`` keeps its lazy imports on purpose and is not listed."""
    nested = []
    for name in ("words.py", "primitivity.py", "automorphisms.py", "oracle.py"):
        path = Path(genus2pairs.__file__).parent / name
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.extend(f"{name}:{node.lineno}" for node in ast.walk(func)
                              if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not nested


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    """Records derive from ``_record._Record``; ``dataclasses`` would load
    ``inspect`` into every command."""
    assert "dataclasses" not in set(_imported_modules(path))


def _plain_record_inits(path):
    """Records whose ``__init__`` only copies each parameter to the field
    of the same name, the one ``_Record`` writes for a class without one."""
    for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(cls, ast.ClassDef) and "_Record" in map(ast.unparse, cls.bases)):
            continue
        for node in cls.body:
            if not (isinstance(node, ast.FunctionDef) and node.name == "__init__"):
                continue
            params = [arg.arg for arg in node.args.args[1:]]
            copies = {f"_set_field(self, {p!r}, {p})" for p in params}
            copies |= {f"self.{p} = {p}" for p in params}
            body = [stmt for stmt in node.body if not (
                isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))]
            if all(ast.unparse(stmt) in copies for stmt in body):
                yield cls.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_records_leave_plain_inits_to_the_base(path):
    assert not list(_plain_record_inits(path))


def _loaded_after_import(*modules):
    """The names in ``sys.modules`` of a fresh interpreter after importing
    ``modules``."""
    src = str(Path(genus2pairs.__file__).resolve().parents[1])
    script = f"import sys, {', '.join(modules)}; print(' '.join(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    return set(result.stdout.split())


def test_cli_imports_no_command_modules():
    """Importing the command line loads none of the modules its commands run."""
    loaded = _loaded_after_import("genus2pairs.cli")
    assert "genus2pairs.cli" in loaded
    heavy = {"click"} | {f"genus2pairs.{m}" for m in (
        "rr_diagram", "classifier", "heegaard", "oracle", "automorphisms")}
    assert not loaded & heavy


def test_graph_layer_loads_no_word_kernel():
    """``heegaard`` takes its integer check from ``errors``; loading the word
    kernel would add to every ``graph`` call's start-up."""
    loaded = _loaded_after_import("genus2pairs.heegaard")
    assert "genus2pairs.heegaard" in loaded
    assert "genus2pairs.words" not in loaded


def test_diagrams_import_no_decisions():
    """``rr_diagram`` builds its balanced words from the word kernel alone."""
    loaded = _loaded_after_import("genus2pairs.rr_diagram")
    assert "genus2pairs.rr_diagram" in loaded
    assert not loaded & {"genus2pairs.primitivity", "genus2pairs.automorphisms"}


def test_classifier_imports_no_primitivity():
    """``classify_power_pair`` decides on cyclic cores, with no decision module."""
    loaded = _loaded_after_import("genus2pairs.classifier")
    assert "genus2pairs.classifier" in loaded
    assert "genus2pairs.primitivity" not in loaded


@pytest.mark.parametrize("modules", [
    ("primitivity",), ("rr_diagram",), ("classifier",),
    ("oracle", "automorphisms"), ("heegaard",),
], ids="-".join)
def test_commands_load_no_inspect(modules):
    """The modules behind the README's calls stay clear of ``inspect``."""
    loaded = _loaded_after_import(
        "genus2pairs.cli", *(f"genus2pairs.{m}" for m in modules))
    assert {f"genus2pairs.{m}" for m in modules} <= loaded
    assert not loaded & {"inspect", "dataclasses"}


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


def _private_definitions(tree):
    """Module-level ``_private`` names with the node that defines each."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_no_dead_private_names():
    """Every module-level private name is used outside its own definition."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    uses = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                uses.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path, node.lineno))
            elif isinstance(node, ast.alias):
                uses.append((node.name, path, node.lineno))
    dead = [
        f"{path.name}:{name}"
        for path, tree in trees.items()
        for name, node in _private_definitions(tree)
        if not any(
            used == name and not (where == path and node.lineno <= line <= node.end_lineno)
            for used, where, line in uses
        )
    ]
    assert not dead
