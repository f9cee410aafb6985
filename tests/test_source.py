"""Tests over the source text of the package."""

import ast
from pathlib import Path

import hyperfactor


def test_no_assert_statements_in_src():
    """Checks must survive `python -O`, so they are explicit raises."""
    package = Path(hyperfactor.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
