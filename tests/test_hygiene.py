"""Source hygiene, checked on the package's syntax trees:

- every package module uses every name it imports (__init__.py is exempt,
  because its imports are the package's re-exports);
- composites are stated one way: no package module but exactlin.py (and
  __init__.py, for its re-exports) names the whole-matrix toolkit or
  multiplies matrices with @;
- laws are decided one way: no package module but report.py names the
  matrix comparator (map_witness, Report.add_map_equality), so every law
  is decided on Chains;
- blocks are evaluated one way: no package module defines a stage kernel
  or witness search that the frontier kernel and its one search replaced
  (RETIRED_EVALUATORS), and report.py reads no LegMap dest or images, so
  the witness search sees frontiers, never how a map is stored;
- a structure map enters a chain one way, as a LegMap (its own factor
  on one segment) or a Stack (Table.stack): no package module defines a
  wrapper that once stood beside them (RETIRED_ENTRIES), and a LegMap
  keeps no columns copy of its entries;
- files are written one way: no package module but serialize.py names
  json.dumps, json.dump or JSONEncoder, and serialize.save writes a
  structure from its maps, not through its *_to_jobj or a parse of JSON;
- every private top-level function or class is referenced somewhere in
  the package;
- every error class that errors.py defines is raised by some package
  module and named by some test module;
- the runtime is stdlib-only: every module the package imports is in the
  standard library or is quasibraid itself;
- a verdict reads every input it is given, never a sample: no package
  module imports random, at any level (sampled cross-checks live in
  tests/crosschecks.py);
- no two package functions or methods have the same body once their
  docstrings are dropped: shared code lives in one place;
- no package module imports a private name (one leading underscore) from
  another, or reads one as an attribute of a package module it imported;
- the package's relative imports form no cycle: a special case depends on
  the general one, never both ways;
- no package function or method takes a parameter whose name starts with
  an underscore: a structure builds what it checks, and a caller does not
  hand it a private shortcut;
- no line of a package module is wider than 100 columns;
- every package module parses at the oldest Python that pyproject's
  requires-python admits, and, when that Python is on PATH or built by
  pyenv, the CLI runs on it (parsing cannot see a name the floor lacks,
  such as the 3.11 operator.call);
- importing the command-line module loads only what every command runs,
  and validating a Hopf quasigroup over integral constants loads neither
  the Yetter-Drinfeld layer nor fractions.
"""

import ast
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import quasibraid
from quasibraid import fixtures, serialize
from quasibraid.exactlin import LegMap

PACKAGE = Path(quasibraid.__file__).resolve().parent
ALL_MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))
MODULES = [name for name in ALL_MODULES if name != "__init__.py"]

#: exactlin's whole-matrix builders: public API and the tests' reference,
#: but not how the library states a composite (that is Chain)
MATRIX_TOOLKIT = {"kron", "kron_all", "leg_perm", "swap_map", "compose"}
TOOLKIT_HOMES = {"exactlin.py", "__init__.py"}

#: report's comparator of built matrices: the tests' reference for a law,
#: but not how the library decides one (that is report.family_witnesses)
MATRIX_COMPARATOR = {"map_witness", "add_map_equality"}
COMPARATOR_HOME = "report.py"

#: the monomial and sparse stage kernels and their two witness searches,
#: which Chain.block's one kernel over frontiers and report's one search replaced
RETIRED_EVALUATORS = {
    "_flat_stage", "_sparse_stage", "_apply_kron", "_segment_term", "_first_difference",
    "_landing_below", "_pick", "_sparse_difference", "_as_dicts",
}

#: how a LegMap stores its images, which only exactlin's kernel reads
LEGMAP_STORAGE = {"dest", "images"}
FRONTIER_READER = "report.py"

#: gchq.at, Stack.drawn and LegMap.stacks: the wrappers through which a
#: structure map once reached a chain beside a LegMap and Table.stack
RETIRED_ENTRIES = {"at", "drawn", "stacks"}

#: json's encoders: the structure writer's, and dump_bytes' for plain values
JSON_WRITERS = {"dumps", "dump", "JSONEncoder"}
WRITER_HOME = "serialize.py"

MAX_COLUMNS = 100

PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
TESTS = Path(__file__).resolve().parent


def absolute_imports(source):
    """Top-level names of the absolute imports in source, function-level
    ones included; relative imports are the package's own."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def non_stdlib_imports(source):
    """The absolute imports in source that are neither in the standard
    library nor quasibraid."""
    known = set(sys.stdlib_module_names) | {"quasibraid", "__future__"}
    return sorted(absolute_imports(source) - known)


def unused_imports(source):
    """Names bound by import statements that no expression reads; a
    __future__ feature counts as a name, and `annotations` is read only by
    a source that annotates something."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if any(getattr(node, "annotation", None) or getattr(node, "returns", None)
           for node in ast.walk(tree)):
        used.add("annotations")
    return sorted(imported - used)


def matrix_toolkit_uses(source):
    """The toolkit names that source uses (names_used), and "@" if it
    multiplies with @."""
    return names_used(source, MATRIX_TOOLKIT | {"@"})


def names_used(source, names):
    """The names among `names` that source imports, reads or looks up as an
    attribute, and "@" if it is among them and source multiplies with @."""
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
    return sorted(found & names)


def definitions(source):
    """The names of the functions and classes that source defines, at any depth."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted({node.name for node in ast.walk(ast.parse(source)) if isinstance(node, kinds)})


def attributes_read(source, names):
    """The names among `names` that source looks up as an attribute."""
    found = {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}
    return sorted(found & names)


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


def raised_names(source):
    """The names that source's raise statements raise, `raise E` and
    `raise E(...)` alike, E a name or an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    return found - {None}


def untried_errors(errors, raisers, tests):
    """For each class that the source errors defines at top level,
    "<name>: not raised" if no source among raisers raises it, and
    "<name>: not tested" if no source among tests names it (names_used)."""
    classes = [node.name for node in ast.parse(errors).body if isinstance(node, ast.ClassDef)]
    raised = set().union(*map(raised_names, raisers))
    tested = set().union(*(names_used(source, set(classes)) for source in tests))
    return [
        f"{name}: not {what}"
        for name in classes
        for what, seen in (("raised", raised), ("tested", tested))
        if name not in seen
    ]


def underscore_parameters(source):
    """function:parameter for each parameter of a function, method or
    lambda in source, at any depth, whose name starts with "_"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            name = getattr(node, "name", "<lambda>")
            found += [f"{name}:{arg.arg}" for arg in params if arg.arg.startswith("_")]
    return sorted(found)


def long_lines(source, limit=MAX_COLUMNS):
    """1-based numbers of the lines of source wider than limit columns."""
    return [n for n, line in enumerate(source.splitlines(), 1) if len(line) > limit]


def python_floor(pyproject):
    """(major, minor) of the `requires-python = ">=X.Y"` line in the text
    of a pyproject.toml."""
    match = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    return int(match[1]), int(match[2])


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
    assert unused_imports("from __future__ import annotations\n") == ["annotations"]
    assert unused_imports("from __future__ import annotations\ndef f(x: int): pass\n") == []
    assert unused_imports("from __future__ import annotations\ndef f() -> int: pass\n") == []
    assert unused_imports("from __future__ import annotations\nx: int = 1\n") == []


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


def test_detector_finds_the_matrix_comparator():
    source = (
        "from .report import Report, map_witness as mw\n"
        "rep.add_map_equality('ID', f, g)\n"
    )
    assert names_used(source, MATRIX_COMPARATOR) == ["add_map_equality", "map_witness"]
    assert names_used("rep.add_family('ID', ('',), lhs, rhs)\n", MATRIX_COMPARATOR) == []


def test_detector_finds_definitions_and_attributes():
    source = (
        "def _pick(x):\n"
        "    def _as_dicts():\n"
        "        return f.dest\n"
        "class Chain:\n"
        "    def block(self):\n"
        "        dest = columns = 1\n"
    )
    assert definitions(source) == ["Chain", "_as_dicts", "_pick", "block"]
    assert attributes_read(source, LEGMAP_STORAGE) == ["dest"]


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
    assert "random" in absolute_imports("def f(seed):\n    import random\n")
    assert "random" in absolute_imports("from random import Random\n")


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


def test_detector_finds_untried_errors():
    errors = "class A(Exception):\n    pass\nclass B(A): pass\nclass C(A): pass\nclass D(A): pass\n"
    raisers = [
        "raise A('x')\n",
        "from . import errors\ndef f():\n    raise errors.B\n",
        "try:\n    pass\nexcept C:\n    raise\n",
    ]
    tests = ["from errors import A\n", "with raises(errors.C):\n    pass\n"]
    assert untried_errors(errors, raisers, tests) == [
        "B: not tested", "C: not raised", "D: not raised", "D: not tested"
    ]


def test_detector_finds_underscore_parameters():
    source = (
        "class A:\n"
        "    def __init__(self, x, *, _signature=None):\n"
        "        self._x = x\n"
        "def f(a, _b, /, c, *_rest, _d=1, **_more):\n"
        "    def g(__x):\n"
        "        return lambda _y, z: z\n"
        "    return g\n"
        "async def h(self, __init__=None): pass\n"
    )
    assert underscore_parameters(source) == [
        "<lambda>:_y", "__init__:_signature", "f:_b", "f:_d", "f:_more", "f:_rest", "g:__x",
        "h:__init__",
    ]
    assert underscore_parameters("def _f(a, b=_x, *c, d, **e):\n    _g = a\n") == []


def test_detector_finds_long_lines():
    fits = "x = " + "1" * (MAX_COLUMNS - 4)
    source = f"{fits}\n{fits}2\n\n    # {'-' * MAX_COLUMNS}\n"
    assert len(fits) == MAX_COLUMNS
    assert long_lines(source) == [2, 4]
    assert long_lines("def f():\n    return 1\n") == []


def test_detector_reads_the_python_floor():
    assert python_floor('name = "x"\nrequires-python = ">=3.10"\n') == (3, 10)
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=(3, 10))


def test_no_two_functions_share_a_body():
    sources = {name: (PACKAGE / name).read_text(encoding="utf-8") for name in ALL_MODULES}
    assert duplicate_bodies(sources) == []


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_are_used(name):
    assert unused_imports((PACKAGE / name).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", sorted(set(ALL_MODULES) - TOOLKIT_HOMES))
def test_module_states_composites_as_chains(name):
    assert matrix_toolkit_uses((PACKAGE / name).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", sorted(set(ALL_MODULES) - {COMPARATOR_HOME}))
def test_module_decides_laws_on_chains(name):
    assert names_used((PACKAGE / name).read_text(encoding="utf-8"), MATRIX_COMPARATOR) == []


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_defines_no_retired_evaluator(name):
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert sorted(set(definitions(source)) & RETIRED_EVALUATORS) == []


def test_witness_search_reads_frontiers_not_leg_maps():
    source = (PACKAGE / FRONTIER_READER).read_text(encoding="utf-8")
    assert attributes_read(source, LEGMAP_STORAGE) == []


def test_a_structure_map_enters_a_chain_one_way():
    """No module defines a retired wrapper, and a LegMap holds its map,
    its legs and dest, with no columns copy of the map's entries."""
    sources = {name: (PACKAGE / name).read_text(encoding="utf-8") for name in ALL_MODULES}
    found = {name: sorted(set(definitions(source)) & RETIRED_ENTRIES)
             for name, source in sources.items()}
    assert {name: names for name, names in found.items() if names} == {}
    assert "columns" not in LegMap.__slots__


@pytest.mark.parametrize("name", sorted(set(ALL_MODULES) - {WRITER_HOME}))
def test_module_leaves_json_writing_to_serialize(name):
    assert names_used((PACKAGE / name).read_text(encoding="utf-8"), JSON_WRITERS) == []


def test_save_writes_structures_without_their_jobj(tmp_path, monkeypatch):
    """save gives the same bytes with hq_to_jobj, gchq_to_jobj, yd_to_jobj
    and json.loads all refusing to run: a structure's file is written
    once, from its maps, and never parsed back on the way."""
    built = [fixtures.build(name) for name in sorted(fixtures.REGISTRY)]
    for n, (kind, obj) in enumerate(built):
        serialize.save(kind, obj, tmp_path / f"{n}.json")

    def refuse(*args, **kwargs):
        raise AssertionError("save went through a plain JSON value")

    for name in ("hq_to_jobj", "gchq_to_jobj", "yd_to_jobj"):
        monkeypatch.setattr(serialize, name, refuse)
    monkeypatch.setattr(serialize.json, "loads", refuse)
    for n, (kind, obj) in enumerate(built):
        serialize.save(kind, obj, tmp_path / f"{n}.again.json")
        assert (tmp_path / f"{n}.again.json").read_bytes() == (tmp_path / f"{n}.json").read_bytes()


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_imports_only_the_standard_library(name):
    assert non_stdlib_imports((PACKAGE / name).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_draws_no_random_sample(name):
    assert "random" not in absolute_imports((PACKAGE / name).read_text(encoding="utf-8"))


def test_every_private_definition_is_referenced():
    sources = {name: (PACKAGE / name).read_text(encoding="utf-8") for name in ALL_MODULES}
    assert unreferenced_private_definitions(sources) == []


def test_every_error_class_is_raised_and_tested():
    sources = [(PACKAGE / name).read_text(encoding="utf-8") for name in ALL_MODULES]
    tests = [path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("*.py"))]
    errors = (PACKAGE / "errors.py").read_text(encoding="utf-8")
    assert untried_errors(errors, sources, tests) == []


def test_no_module_imports_a_private_name_of_another():
    sources = {name: (PACKAGE / name).read_text(encoding="utf-8") for name in ALL_MODULES}
    assert private_imports(sources) == []


def test_every_name_the_benchmark_tracer_wraps_resolves():
    """bench/tracing.py binds package names by text (SPECS); each must
    still name a function in its module, or a method defined on its
    class, where Tracer.install looks it up."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", PACKAGE.parents[1] / "bench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPECS
    for mod_name, qualname, _, _ in tracing.SPECS:
        module = importlib.import_module(f"quasibraid.{mod_name}")
        cls_name, _, attr = qualname.rpartition(".")
        owner = vars(getattr(module, cls_name)) if cls_name else vars(module)
        assert callable(owner.get(attr)), f"{mod_name}.{qualname}"


def test_relative_imports_form_no_cycle():
    sources = {name: (PACKAGE / name).read_text(encoding="utf-8") for name in ALL_MODULES}
    assert import_cycles(sources) == []


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_takes_no_underscore_parameter(name):
    assert underscore_parameters((PACKAGE / name).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_lines_fit_in_100_columns(name):
    assert long_lines((PACKAGE / name).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_parses_at_the_python_floor(name):
    floor = python_floor(PYPROJECT.read_text(encoding="utf-8"))
    ast.parse((PACKAGE / name).read_text(encoding="utf-8"), feature_version=floor)


def floor_interpreter():
    """A python<major>.<minor> for pyproject's requires-python floor that
    runs as that version: the one on PATH, else the newest pyenv build of
    it under $PYENV_ROOT (~/.pyenv by default), as a PATH entry may be a
    pyenv shim that runs some other version; None if there is none."""
    floor = python_floor(PYPROJECT.read_text(encoding="utf-8"))
    name = "python{}.{}".format(*floor)
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    builds = sorted(
        map(str, root.glob("versions/{}.{}.*/bin/{}".format(*floor, name))),
        key=lambda path: [int(n) for n in re.findall(r"\d+", Path(path).parts[-3])],
        reverse=True,
    )
    for exe in [shutil.which(name), *builds]:
        if exe is None:
            continue
        probe = subprocess.run(
            [exe, "-c", "import sys; print(*sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60,
        )
        if probe.returncode == 0 and probe.stdout.split() == list(map(str, floor)):
            return exe
    return None


def test_cli_runs_at_the_python_floor(tmp_path):
    """Write the fixtures, validate a loop algebra (octonion units) and a
    C2-graded structure (validate_group), and build a loop algebra from a
    table (validate_ip_loop), all at the floor, without pytest."""
    exe = floor_interpreter()
    if exe is None:
        pytest.skip("no runnable python at the requires-python floor on PATH or under pyenv")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1")
    commands = [
        ["fixtures", "--out", str(tmp_path)],
        ["validate", str(tmp_path / "hq-o16.json"), "--kind", "hq"],
        ["validate", str(tmp_path / "gchq-power.json"), "--kind", "gchq"],
        ["construct", "--op", "loop-algebra", str(tmp_path / "table-o16.json"),
         "--out", str(tmp_path / "hq-o16-built.json")],
    ]
    for argv in commands:
        done = subprocess.run(
            [exe, "-m", "quasibraid", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, (argv, done.stderr)


#: what `import quasibraid.cli` must leave unloaded: dataclasses pulls in
#: inspect (and with it ast, dis and tokenize), fractions pulls in decimal,
#: and no hq or gchq command runs random, yd or fixtures
NOT_LOADED_BY_CLI = (
    "pathlib",
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
