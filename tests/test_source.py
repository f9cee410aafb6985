"""Tests over the source text of the package."""

import ast
import sys
from pathlib import Path

import hyperfactor


def _src_nodes():
    """(file name, node) for every syntax node of the package's modules."""
    package = Path(hyperfactor.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_assert_statements_in_src():
    """Checks must survive `python -O`, so they are explicit raises."""
    found = [f"{name}:{node.lineno}" for name, node in _src_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def _is_floating_point(node):
    return (
        isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
        or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        or isinstance(node, ast.Name) and node.id == "float"
    )


def test_no_floating_point_in_src():
    """Everything is exact: no float constant, no true division, no float()."""
    found = [f"{name}:{node.lineno}" for name, node in _src_nodes() if _is_floating_point(node)]
    assert found == []


def test_package_root_binds_no_names():
    """Each name has one import path, its submodule: the root is only a docstring."""
    root = ast.parse(Path(hyperfactor.__file__).read_text(encoding="utf-8"))
    assert len(root.body) == 1 and ast.get_docstring(root)


def test_a_submodule_path_binds_the_submodule():
    """No root name hides a submodule of the same name, such as the function decide."""
    import hyperfactor.decide as m

    assert m is sys.modules["hyperfactor.decide"]


def _imports_fractions(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "fractions" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions"


def test_no_module_imports_fractions():
    """The Farkas path runs on ints over one denominator, and a certificate
    is spelled and read as those ints: no module builds a Fraction."""
    found = {name for name, node in _src_nodes() if _imports_fractions(node)}
    assert found == set()
