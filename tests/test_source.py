"""The package's source stays within what its oldest supported Python parses."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ldlkit"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_parses_as_python_3_10(path):
    # pyproject.toml's requires-python floor; feature_version rejects later syntax.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
