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
  docstrings are dropped: shared code lives in one place;
- no package module imports a private name (one leading underscore) from
  another, or reads one as an attribute of a package module it imported;
- the package's relative imports form no cycle: a special case depends on
  the general one, never both ways;
- no line of a package module is wider than 100 columns;
- importing the command-line module loads only what every command runs,
  and validating a Hopf quasigroup over integral constants loads neither
  the Yetter-Drinfeld layer nor fractions.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasibraid
from quasibraid import fixtures, serialize

PACKAGE = Path(quasibraid.__file__).resolve().parent
ALL_MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))
MODULES = [name for name in ALL_MODULES if name != "__init__.py"]

#: exactlin's whole-matrix builders: public API and the tests' reference,
#: but not how the library states a composite (that is Chain)
MATRIX_TOOLKIT = {"kron", "kron_all", "leg_perm", "swap_map", "compose"}
TOOLKIT_HOMES = {"exactlin.py", "__init__.py"}

MAX_COLUMNS = 100


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


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _relative_imports(tree):
    """(module file, imported names) of each relative import in the syntax
    tree, function-local ones included; `from . import x` imports module x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:
                for alias in node.names:
                    yield f"{alias.name}.py", ()
            else:
                yield f"{node.module}.py", [alias.name for alias in node.names]


def private_imports(sources):
    """module:target.name for each private name that a module in sources,
    {module: source}, imports from another package module, or reads as an
    attribute of a package module it bound with `from . import`."""
    found = set()
    for module, source in sources.items():
        tree, modules = ast.parse(source), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module is None:
                modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        for target, names in _relative_imports(tree):
            found.update(f"{module}:{target[:-3]}.{name}" for name in names if _is_private(name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and _is_private(node.attr)
            ):
                found.add(f"{module}:{modules[node.value.id]}.{node.attr}")
    return sorted(found)


def import_cycles(sources):
    """Each cycle of the relative-import graph over sources, {module:
    source}, as the sorted modules of its strongly connected component."""
    graph = {
        module: {target for target, _ in _relative_imports(ast.parse(source))}
        for module, source in sources.items()
    }

    def reach(start):
        seen, todo = set(), [start]
        while todo:
            for nxt in graph.get(todo.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    reached = {module: reach(module) for module in graph}
    cycles = {
        tuple(sorted(m for m in graph if module in reached[m] and m in reached[module]))
        for module in graph
        if module in reached[module]
    }
    return sorted(list(cycle) for cycle in cycles)


def long_lines(source, limit=MAX_COLUMNS):
    """1-based numbers of the lines of source wider than limit columns."""
    return [n for n, line in enumerate(source.splitlines(), 1) if len(line) > limit]


def test_detector_finds_private_imports():
    sources = {
        "a.py": "from .b import _legs, public\nfrom .c import __version__\n",
        "b.py": "from . import c\nfrom . import d as dd\nx = c._table + c.public + dd._y\n",
        "c.py": "def f():\n    from .d import _z\n    return self._own\n",
        "d.py": "from os import _exit\nfrom quasibraid import x\n",
    }
    assert private_imports(sources) == ["a.py:b._legs", "b.py:c._table", "b.py:d._y", "c.py:d._z"]


def test_detector_finds_import_cycles():
    sources = {
        "a.py": "from .b import f\n",
        "b.py": "def g():\n    from .c import h\n",
        "c.py": "from . import a\n",
        "d.py": "from .d import x\nfrom .a import y\n",
        "e.py": "from .a import z\nimport os\n",
    }
    assert import_cycles(sources) == [["a.py", "b.py", "c.py"], ["d.py"]]
    assert import_cycles({"hq.py": "from .gchq import hq_laws\n", "gchq.py": ""}) == []


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


def test_detector_finds_long_lines():
    fits = "x = " + "1" * (MAX_COLUMNS - 4)
    source = f"{fits}\n{fits}2\n\n    # {'-' * MAX_COLUMNS}\n"
    assert len(fits) == MAX_COLUMNS
    assert long_lines(source) == [2, 4]
    assert long_lines("def f():\n    return 1\n") == []


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


def test_no_module_imports_a_private_name_of_another():
    sources = {name: (PACKAGE / name).read_text(encoding="utf-8") for name in ALL_MODULES}
    assert private_imports(sources) == []


def test_relative_imports_form_no_cycle():
    sources = {name: (PACKAGE / name).read_text(encoding="utf-8") for name in ALL_MODULES}
    assert import_cycles(sources) == []


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_lines_fit_in_100_columns(name):
    assert long_lines((PACKAGE / name).read_text(encoding="utf-8")) == []


#: what `import quasibraid.cli` must leave unloaded: dataclasses pulls in
#: inspect (and with it ast, dis and tokenize), fractions pulls in decimal,
#: and no hq or gchq command runs random, yd or fixtures
NOT_LOADED_BY_CLI = (
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "random",
    "quasibraid.yd",
    "quasibraid.fixtures",
)

#: run as `python -S - <hq file>`: the modules loaded after importing the
#: cli, after validating the file through cli.main, and after one
#: non-integral Q scalar, as one JSON line
FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
import quasibraid.cli
stages = {"import": sorted(sys.modules)}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    stages["exit"] = quasibraid.cli.main(["validate", sys.argv[1], "--kind", "hq"])
stages["validate"] = sorted(sys.modules)
from quasibraid.exactlin import QQ
half = QQ.div(1, 2)
stages["half"] = [type(half).__module__, type(half).__name__, str(half)]
stages["fraction"] = sorted(sys.modules)
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def footprint(tmp_path_factory):
    """FOOTPRINT_SCRIPT's stages on the k[S3] fixture, in a fresh
    interpreter that imports quasibraid from this source tree.  -S keeps
    site-packages' .pth files, which import modules of their own, out of
    the count."""
    path = tmp_path_factory.mktemp("footprint") / "hq-s3.json"
    serialize.save("hq", fixtures.hq_s3(), path)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-", str(path)],
        input=FOOTPRINT_SCRIPT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(out.stdout)


def test_cli_import_leaves_out_what_no_hq_command_runs(footprint):
    loaded = set(footprint["import"])
    assert "quasibraid.cli" in loaded
    assert sorted(loaded.intersection(NOT_LOADED_BY_CLI)) == []


def test_hq_validate_loads_no_yd_and_no_fractions(footprint):
    assert footprint["exit"] == 0
    assert sorted({"quasibraid.yd", "fractions"}.intersection(footprint["validate"])) == []


def test_non_integral_rational_loads_fractions_on_first_use(footprint):
    assert footprint["half"] == ["fractions", "Fraction", "1/2"]
    assert "fractions" in footprint["fraction"]
