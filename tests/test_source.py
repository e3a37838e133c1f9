import ast
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
