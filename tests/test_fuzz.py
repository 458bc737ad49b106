"""Hostile input: each bundled hq, gchq and yd fixture with one node of
its JSON mutated, validated in process through cli.main.

A mutant drops a key or a list element, duplicates a list element, or
replaces a leaf with one of HOSTILE.  Validating it ends in exit 0, 1 or
2, and no exception escapes.  A mutant that loads is saved, loaded and
saved again: the two saves are the same bytes, and validating the saved
file prints what validating the mutant printed.  Saving sorts mult and
drops zero entries, so the mutant's own bytes are not compared with
either.  Many mutants hold a scaled map or a zero column, so this also
runs maps that leave the monomial kernel end to end.
"""

import copy
import io
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibraid import cli, fixtures, serialize
from quasibraid.errors import QuasibraidError

#: the values a leaf is replaced with
HOSTILE = (None, True, -1, 0, 1000000, 0.5, "", "x", "0", "2", "1/2", [], {},
           "1e999999999", "-1e-999999999", "GF:18446744073709551557")

FIXTURES = sorted(
    (name, kind) for name, (kind, _) in fixtures.REGISTRY.items() if kind in ("hq", "gchq", "yd")
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    fixtures.write_all(directory)
    return directory


def nodes(jobj, path=()):
    """(path, node) of every node of a JSON tree below its root."""
    if isinstance(jobj, dict):
        children = jobj.items()
    elif isinstance(jobj, list):
        children = enumerate(jobj)
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from nodes(child, path + (key,))


@st.composite
def mutants(draw, jobj):
    """jobj with one node dropped, duplicated or replaced."""
    tree = list(nodes(jobj))
    way = draw(st.sampled_from(["drop", "duplicate", "replace"]))
    if way == "duplicate":
        tree = [(path, node) for path, node in tree if type(path[-1]) is int]
    elif way == "replace":
        tree = [(path, node) for path, node in tree if not isinstance(node, (dict, list))]
    path, node = draw(st.sampled_from(tree))
    out = copy.deepcopy(jobj)
    parent = reduce(getitem, path[:-1], out)
    if way == "drop":
        del parent[path[-1]]
    elif way == "duplicate":
        parent.insert(path[-1], copy.deepcopy(node))
    else:
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(HOSTILE)))
    return out


def validate(path, kind):
    """(exit code, stdout) of validating the file at path in process."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(["validate", str(path), "--kind", kind])
    return code, out.getvalue()


@pytest.mark.parametrize("name, kind", FIXTURES)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_fixture_is_judged_or_refused(name, kind, workdir, data):
    source = workdir / f"{name}.json"
    jobj = data.draw(mutants(serialize.read_file(source)))
    mutant, saved, again = (workdir / f"{name}-{n}.json" for n in ("mutant", "saved", "again"))
    serialize.write_file(mutant, jobj)
    verdict = validate(mutant, kind)
    assert verdict[0] in (0, 1, 2)
    try:
        obj = serialize.load(kind, mutant)
    except QuasibraidError:
        return
    serialize.save(kind, obj, saved)
    serialize.save(kind, serialize.load(kind, saved), again)
    assert saved.read_bytes() == again.read_bytes()
    assert validate(saved, kind) == verdict
