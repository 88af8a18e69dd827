"""Static checks on the package source."""

import ast
import pathlib

import pytest

import schwarz_atlas

MODULES = sorted(pathlib.Path(schwarz_atlas.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Module-level import names that the module never uses: not as a name,
    an attribute base nor an entry of __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_finder():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "import numpy as np\n"
        "from .roots import build, coxeter_number as h\n"
        "from .exact import format_rational\n"
        "__all__ = ['format_rational']\n"
        "def f():\n"
        "    return np.pi + build()\n"
    )
    assert unused_imports(source) == [(2, "math"), (2, "os"), (4, "h")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
