"""Source hygiene, checked on the package's syntax trees:

- every package module uses every name it imports (__init__.py is exempt,
  because its imports are the package's re-exports);
- composites are stated one way: no package module but exactlin.py (and
  __init__.py, for its re-exports) names the whole-matrix toolkit or
  multiplies matrices with @;
- every private top-level function or class is referenced somewhere in
  the package;
- the runtime is stdlib-only: every module the package imports is in the
  standard library or is quasibraid itself;
- no two package functions or methods have the same body once their
  docstrings are dropped: shared code lives in one place.
"""

import ast
import sys
from pathlib import Path

import pytest

import quasibraid

PACKAGE = Path(quasibraid.__file__).resolve().parent
ALL_MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))
MODULES = [name for name in ALL_MODULES if name != "__init__.py"]

#: exactlin's whole-matrix builders: public API and the tests' reference,
#: but not how the library states a composite (that is Chain)
MATRIX_TOOLKIT = {"kron", "kron_all", "leg_perm", "swap_map", "compose"}
TOOLKIT_HOMES = {"exactlin.py", "__init__.py"}


def non_stdlib_imports(source):
    """Top-level names of the absolute imports in source that are neither
    in the standard library nor quasibraid; relative imports are the
    package's own."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found - set(sys.stdlib_module_names) - {"quasibraid", "__future__"})


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


def matrix_toolkit_uses(source):
    """The toolkit names that source imports, reads or looks up as an
    attribute, and "@" if it multiplies with @."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.MatMult):
            found.add("@")
    return sorted(found & (MATRIX_TOOLKIT | {"@"}))


def unreferenced_private_definitions(sources):
    """module:name for each private top-level function or class (one
    leading underscore) in sources, {module: source}, that no module
    reads, looks up as an attribute or imports."""
    defined, referenced = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                defined.append((module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return sorted(f"{module}:{name}" for module, name in defined if name not in referenced)


def _functions(body, prefix=""):
    """(qualified name, node) of every function and method in body, nested
    ones included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")


def duplicate_bodies(sources):
    """Groups of module:qualname, over sources {module: source}, of the
    functions whose bodies are identical by ast.dump, docstrings ignored."""
    seen = {}
    for module, source in sources.items():
        for name, node in _functions(ast.parse(source).body):
            body = node.body
            if ast.get_docstring(node, clean=False) is not None:
                body = body[1:]
            key = "\n".join(ast.dump(stmt) for stmt in body)
            seen.setdefault(key, []).append(f"{module}:{name}")
    return sorted(names for names in seen.values() if len(names) > 1)


def test_detector_finds_unused_names():
    source = "import os.path\nfrom x import a, b as c\nfrom . import d\nc(d.e)\n"
    assert unused_imports(source) == ["a", "os"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_detector_finds_the_matrix_toolkit():
    source = (
        "from .exactlin import kron as k\n"
        "from . import exactlin\n"
        "x = exactlin.leg_perm(a, b) @ c\n"
        "x @= compose\n"
    )
    assert matrix_toolkit_uses(source) == ["@", "compose", "kron", "leg_perm"]
    # a Chain, and the names only as text, are fine
    assert matrix_toolkit_uses("m = chain.then(f).matrix()\nnote = 'kron @ compose'\n") == []


def test_detector_finds_non_stdlib_imports():
    source = (
        "import os.path, numpy as np\n"
        "from sympy.core import Rational\n"
        "from . import exactlin\n"
        "from .yd import braiding\n"
        "from quasibraid.report import Report\n"
        "from __future__ import annotations\n"
        "def f():\n"
        "    import hypothesis\n"
    )
    assert non_stdlib_imports(source) == ["hypothesis", "numpy", "sympy"]
    assert non_stdlib_imports("from itertools import repeat\nimport operator\n") == []


def test_detector_finds_unreferenced_private_definitions():
    sources = {
        "a.py": (
            "def _used(): pass\n"
            "def _unused(): pass\n"
            "class _Dead: pass\n"
            "def __getattr__(name): pass\n"
            "def public(): return _local()\n"
            "def _local(): pass\n"
        ),
        "b.py": "from .a import _used\n",
    }
    assert unreferenced_private_definitions(sources) == ["a.py:_Dead", "a.py:_unused"]


def test_detector_finds_duplicate_bodies():
    sources = {
        "a.py": (
            "class A:\n"
            "    def mul(self, x, y):\n"
            "        \"\"\"Product.\"\"\"\n"
            "        return self.table[x][y]\n"
            "    def inv(self, x):\n"
            "        return self.inverse[x]\n"
            "def f(t):\n"
            "    def g(x, y):\n"
            "        return self.table[x][y]\n"
            "    return g\n"
        ),
        "b.py": (
            "class B:\n"
            "    def mul(self, x, y):\n"
            "        return self.table[x][y]\n"
            "    def inv(self, x):\n"
            "        return self.inverse[x] # same text, other name below\n"
            "def h(x):\n"
            "    return self.inverse[y]\n"
        ),
    }
    assert duplicate_bodies(sources) == [
        ["a.py:A.inv", "b.py:B.inv"],
        ["a.py:A.mul", "a.py:f.g", "b.py:B.mul"],
    ]


def test_no_two_functions_share_a_body():
    sources = {name: (PACKAGE / name).read_text(encoding="utf-8") for name in ALL_MODULES}
    assert duplicate_bodies(sources) == []


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_are_used(name):
    assert unused_imports((PACKAGE / name).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", sorted(set(ALL_MODULES) - TOOLKIT_HOMES))
def test_module_states_composites_as_chains(name):
    assert matrix_toolkit_uses((PACKAGE / name).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_imports_only_the_standard_library(name):
    assert non_stdlib_imports((PACKAGE / name).read_text(encoding="utf-8")) == []


def test_every_private_definition_is_referenced():
    sources = {name: (PACKAGE / name).read_text(encoding="utf-8") for name in ALL_MODULES}
    assert unreferenced_private_definitions(sources) == []
