"""One interpreter mode: no check in the library may depend on ``-O``.

``python -O`` strips ``assert`` statements and makes ``__debug__`` false,
so either would give the library a second behaviour under ``-O``.  A check
that guards a returned value raises InvariantViolation instead; a second
derivation of an identity that holds by construction belongs in the tests.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cp_calculus"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_mode_dependent_code(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == []
