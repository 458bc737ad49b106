"""Source hygiene: every package module uses every name it imports.

__init__.py is exempt, because its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import quasibraid

PACKAGE = Path(quasibraid.__file__).resolve().parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detector_finds_unused_names():
    source = "import os.path\nfrom x import a, b as c\nfrom . import d\nc(d.e)\n"
    assert unused_imports(source) == ["a", "os"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_are_used(name):
    assert unused_imports((PACKAGE / name).read_text(encoding="utf-8")) == []
