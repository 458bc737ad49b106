"""Structure files written and read a row at a time.

The writer is held to the dense writer it replaced, copied below as the
reference: every cell of every matrix built as its own string, and the
whole object encoded by json.dumps.  save must give the same bytes on
every fixture over Q and GF(7), on the V4 x S3 power construction, its
mirror and its diagonal module, and on drawn structures whose maps have
zero rows and columns, no rows or no columns, fractions, and labels that
JSON must escape.

The reader must give the messages the dense reader gave on malformed
files (recorded from it below) and the same entries on every fixture,
including files that write zero in another form.
"""

import json
import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quasibraid import fixtures, serialize
from quasibraid.errors import ParseError
from quasibraid.exactlin import QQ, PrimeField
from quasibraid.gchq import CrossedGCHQ, legs_labels, legs_map, map_legs, mirror, power_construction
from quasibraid.hq import HopfQuasigroup, UnitalAlgebra, group_algebra
from quasibraid.tables import GroupAction, GroupTable
from quasibraid.yd import YDModule, diagonal_module, module_legs

GF7 = PrimeField(7)


# -- the dense reference writer ------------------------------------------------


def dense_rows(m):
    fmt = m.field.fmt
    zero = fmt(m.field.zero)
    rows = [[zero] * m.cols for _ in range(m.rows)]
    for (i, j), value in m.entries.items():
        rows[i][j] = fmt(value)
    return rows


def dense_algebra(algebra):
    fmt = algebra.field.fmt
    return {
        "dim": algebra.dim,
        "labels": [atom for (atom,) in algebra.labels],
        "mult": sorted([i, j, k, fmt(v)] for (i, j, k), v in algebra.mult.items()),
        "unit": [fmt(v) for v in algebra.unit],
    }


KEY_TEXT = {
    "components": str,
    "comult": "{0[0]},{0[1]}".format,
    "antipode": str,
    "crossing": "{0[0]}|{0[1]}".format,
    "coaction": str,
}


def dense_keyed(family, items, write):
    return {KEY_TEXT[family](key): write(value) for key, value in items}


def dense_hq(h):
    return {
        "field": h.field.name,
        **dense_algebra(h.algebra),
        "comult": dense_rows(h.comult),
        "counit": dense_rows(h.counit),
        "antipode": dense_rows(h.antipode),
    }


def dense_gchq(h):
    return {
        "field": h.field.name,
        "group": serialize.table_to_jobj(h.grading),
        "components": dense_keyed("components", enumerate(h.components), dense_algebra),
        **{
            family: dense_keyed(family, sorted(h.maps()[family].items()), dense_rows)
            for family in ("comult", "antipode", "crossing")
        },
        "counit": dense_rows(h.counit)[0],
    }


def dense_yd(m):
    return {
        "base": dense_gchq(m.base),
        "grade": m.grade,
        "dim": m.dim,
        "labels": [list(label) for label in m.labels],
        "action": dense_rows(m.action),
        "coaction": dense_keyed("coaction", sorted(m.coaction.items()), dense_rows),
        "strict": m.strict,
    }


DENSE = {
    "table": serialize.table_to_jobj,
    "action": serialize.action_to_jobj,
    "hq": dense_hq,
    "gchq": dense_gchq,
    "yd": dense_yd,
}


def reference_bytes(kind, obj):
    text = json.dumps(DENSE[kind](obj), sort_keys=True, separators=(",", ":")) + "\n"
    return text.encode("utf-8")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("rows")


def saved(directory, kind, obj):
    path = directory / f"{kind}.json"
    serialize.save(kind, obj, path)
    return path.read_bytes()


def is_plain(jobj):
    """Whether jobj is built of plain dicts, lists, str, int and bool only."""
    if type(jobj) is dict:
        return all(type(key) is str and is_plain(value) for key, value in jobj.items())
    if type(jobj) is list:
        return all(map(is_plain, jobj))
    return type(jobj) in (str, int, bool)


TO_JOBJ = {"hq": serialize.hq_to_jobj, "gchq": serialize.gchq_to_jobj, "yd": serialize.yd_to_jobj}


def check_writer(directory, kind, obj):
    data = saved(directory, kind, obj)
    assert data == reference_bytes(kind, obj)
    if kind in TO_JOBJ:
        jobj = TO_JOBJ[kind](obj)
        assert is_plain(jobj)
        assert jobj == DENSE[kind](obj)


# -- fixtures and the V4 x S3 structures ------------------------------------------


def v4_power(field):
    """k[V4] crossed by S3 permuting the three involutions of V4."""
    v4 = GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2))
    maps = [[0] + [p[k] + 1 for k in range(3)] for p in sorted(permutations(range(3)))]
    action = GroupAction(GroupTable.symmetric(3), v4, maps)
    return power_construction(group_algebra(v4, field), action)


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
@pytest.mark.parametrize("name", sorted(fixtures.REGISTRY))
def test_save_matches_the_dense_writer_on_fixtures(workdir, name, field):
    check_writer(workdir, *fixtures.build(name, field))


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
def test_save_matches_the_dense_writer_on_v4_s3(workdir, field):
    power = v4_power(field)
    for kind, obj in (("gchq", power), ("gchq", mirror(power)), ("yd", diagonal_module(power))):
        check_writer(workdir, kind, obj)


# -- drawn structures --------------------------------------------------------------

#: text JSON must escape or write as \u escapes
ODD = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", " ", "\U0001f600", "a,b", "0|1"]

atoms = st.one_of(st.sampled_from(ODD), st.text(max_size=3))


def scalars(field):
    if field == QQ:
        return st.one_of(
            st.sampled_from([0, 1, -1, 2, Fraction(-3, 4), Fraction(1, 2), Fraction(7, 3)]),
            st.integers(-10**20, 10**20),
        )
    return st.integers(-20, 20)


@st.composite
def algebras(draw, field, dim):
    labels = draw(st.lists(atoms, min_size=dim, max_size=dim, unique=True))
    index = st.integers(0, max(dim - 1, 0))
    mult = draw(st.dictionaries(st.tuples(index, index, index), scalars(field), max_size=6))
    unit = draw(st.lists(scalars(field), min_size=dim, max_size=dim))
    return UnitalAlgebra(field, dim, [(atom,) for atom in labels], mult if dim else {}, unit)


@st.composite
def maps_on(draw, field, legs):
    """A map between the spaces of legs, a signature's entry, with a few
    nonzero entries, so most rows and columns are zero."""
    dom, cod = legs_labels(legs)
    if not dom or not cod:
        return legs_map(field, {}, legs)
    cells = st.tuples(st.integers(0, len(cod) - 1), st.integers(0, len(dom) - 1))
    return legs_map(field, draw(st.dictionaries(cells, scalars(field), max_size=5)), legs)


@st.composite
def family_maps(draw, field, signature):
    return {
        family: {key: draw(maps_on(field, legs)) for key, legs in spaces.items()}
        for family, spaces in signature.items()
    }


@st.composite
def hopf_quasigroups(draw, field):
    algebra = draw(algebras(field, draw(st.integers(0, 3))))
    maps = draw(family_maps(field, map_legs(GroupTable.trivial(), [algebra])))
    return HopfQuasigroup(
        field, algebra, maps["comult"][(0, 0)], maps["counit"][None], maps["antipode"][0]
    )


@st.composite
def crossed(draw, field):
    """Over C2 with drawn labels; components of dimension 0 to 2 give maps
    with no rows or no columns."""
    labels = draw(st.lists(atoms, min_size=2, max_size=2, unique=True))
    grading = GroupTable(labels, [[0, 1], [1, 0]])
    components = [draw(algebras(field, draw(st.integers(0, 2)))) for _ in range(2)]
    maps = draw(family_maps(field, map_legs(grading, components)))
    return CrossedGCHQ(
        field, grading, components, maps["comult"], maps["counit"][None], maps["antipode"],
        maps["crossing"],
    )


@st.composite
def modules(draw, field):
    base = draw(crossed(field))
    grade = draw(st.integers(0, 1))
    labels = draw(st.lists(st.lists(atoms, min_size=1, max_size=2).map(tuple), max_size=2))
    maps = draw(family_maps(field, module_legs(base, grade, labels)))
    strict = draw(st.booleans())
    return YDModule(base, grade, labels, maps["action"][None], maps["coaction"], strict)


STRUCTURES = {"hq": hopf_quasigroups, "gchq": crossed, "yd": modules}


def family_maps_of(obj):
    return obj.graded.maps() if isinstance(obj, HopfQuasigroup) else obj.maps()


def all_maps(obj):
    maps = [m for family in family_maps_of(obj).values() for m in family.values()]
    return maps + (all_maps(obj.base) if isinstance(obj, YDModule) else [])


def entries_of(obj):
    """Every map's entries with each scalar's type, by family and key."""
    return {
        family: {key: {at: (type(v), v) for at, v in m.entries.items()} for key, m in fam.items()}
        for family, fam in family_maps_of(obj).items()
    }


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
@pytest.mark.parametrize("kind", sorted(STRUCTURES))
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_save_matches_the_dense_writer_on_drawn_structures(workdir, kind, field, data):
    obj = data.draw(STRUCTURES[kind](field))
    check_writer(workdir, kind, obj)
    back = serialize.load(kind, workdir / f"{kind}.json")
    assert entries_of(back) == entries_of(obj)


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
def test_a_zero_dimensional_component_loads_again(workdir, field):
    """Over C2 with component 1 of dimension 0, every map that lands in it
    has no rows and is written [] whatever its columns; the reader takes
    its columns from the signature, so the structure loads as it was
    saved, and a matrix written [] where rows are expected is refused."""
    one = field.one
    grading = GroupTable.cyclic(2)
    components = [UnitalAlgebra(field, 1, [("e",)], {(0, 0, 0): one}, [one]),
                  UnitalAlgebra(field, 0, [], {}, [])]
    maps = family_maps_from(field, map_legs(grading, components), {
        ("comult", (0, 0)): {(0, 0): one}, ("counit", None): {(0, 0): one},
        ("antipode", 0): {(0, 0): one}, ("crossing", (0, 0)): {(0, 0): one},
        ("crossing", (1, 0)): {(0, 0): one},
    })
    h = CrossedGCHQ(field, grading, components, maps["comult"], maps["counit"][None],
                    maps["antipode"], maps["crossing"])
    assert h.comult[(1, 1)].rows == 0 < h.comult[(1, 1)].cols
    path = workdir / "zero.json"
    serialize.save("gchq", h, path)
    assert serialize.load("gchq", path) == h
    jobj = json.loads(path.read_text())
    jobj["comult"]["0,0"] = []
    path.write_text(json.dumps(jobj))
    with pytest.raises(ParseError, match=re.escape(
            "comult 0,0: label lists (1, 1) do not match shape (0, 1)")):
        serialize.load("gchq", path)


def family_maps_from(field, signature, entries):
    """Each map of a signature, with the entries given by (family, key)."""
    return {
        family: {key: legs_map(field, entries.get((family, key), {}), legs)
                 for key, legs in spaces.items()}
        for family, spaces in signature.items()
    }


def test_drawn_maps_reach_the_edge_shapes():
    """The draws above include maps with no rows, with no columns, with
    zero rows and with fractions, and labels that JSON escapes."""
    seen = set()

    @settings(max_examples=60, derandomize=True, database=None)
    @given(crossed(QQ))
    def look(h):
        for m in all_maps(h):
            seen.add(("no rows", m.rows == 0 < m.cols))
            seen.add(("no columns", m.cols == 0 < m.rows))
            seen.add(("zero row", len({i for i, _ in m.entries}) < m.rows and m.cols > 0))
            seen.add(("fraction", any(type(v) is Fraction for v in m.entries.values())))
        text = serialize.dump_bytes(serialize.gchq_to_jobj(h))
        seen.add(("escape", b"\\u" in text or b'\\"' in text or b"\\\\" in text))

    look()
    assert {name for name, hit in seen if hit} == {
        "no rows", "no columns", "zero row", "fraction", "escape"
    }


# -- the reader --------------------------------------------------------------------


def set_at(*path, value):
    def edit(jobj):
        node = jobj
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return edit


def append_copy(*path, index):
    def edit(jobj):
        node = jobj
        for step in path:
            node = node[step]
        node.append(list(node[index]))
    return edit


def both(*edits):
    def edit(jobj):
        for one in edits:
            one(jobj)
    return edit


#: name -> (kind, edit of the k[S3] or power fixture's file, the message the
#: dense reader gave)
MALFORMED = {
    "ragged-row": ("hq", set_at("antipode", 1, value=["0"]), "antipode: ragged row data"),
    "row-not-a-list": (
        "hq", set_at("antipode", 1, value="0"),
        "antipode: a matrix is a list of rows, each a list",
    ),
    "cell-not-a-str": (
        "hq", set_at("antipode", 1, 1, value=1), "antipode: rational literal 1 is not a string"
    ),
    "cell-unhashable": (
        "hq", set_at("antipode", 1, 1, value=[]), "antipode: unhashable type: 'list'"
    ),
    "all-zero-matrix": (
        "hq", set_at("comult", value=[["0", "0"], ["0", "0"]]),
        "comult: label lists (36, 6) do not match shape (2, 2)",
    ),
    "matrix-not-a-list": (
        "hq", set_at("counit", value="1"), "counit: a matrix is a list of rows, each a list"
    ),
    "mult-duplicate": (
        "hq", append_copy("mult", index=3), "algebra mult: two entries for [0, 3, 3]"
    ),
    "mult-negative": (
        "hq", set_at("mult", 2, 1, value=-1), "algebra mult entry: index -1 outside [0, 6)"
    ),
    "mult-bool": (
        "hq", set_at("mult", 2, 2, value=True), "algebra mult entry: True is not an integer index"
    ),
    "mult-out-of-range": (
        "hq", set_at("mult", 2, 0, value=6), "algebra mult entry: index 6 outside [0, 6)"
    ),
    "mult-float": (
        "hq", set_at("mult", 2, 0, value=1.0), "algebra mult entry: 1.0 is not an integer index"
    ),
    "mult-short": (
        "hq", set_at("mult", 2, value=[0, 1, "1"]),
        "bad hopf quasigroup: not enough values to unpack (expected 4, got 3)",
    ),
    "mult-text-not-a-str": (
        "hq", set_at("mult", 4, 3, value=1),
        "bad hopf quasigroup: rational literal 1 is not a string",
    ),
    "mult-text-unhashable": (
        "hq", set_at("mult", 4, 3, value=[]),
        "bad hopf quasigroup: rational literal [] is not a string",
    ),
    "mult-bad-text-before-bad-index": (
        "hq", both(set_at("mult", 1, 3, value="x"), set_at("mult", 5, 0, value=-2)),
        "bad hopf quasigroup: bad rational literal 'x'",
    ),
    "mult-bad-index-before-bad-text": (
        "hq", both(set_at("mult", 1, 0, value=99), set_at("mult", 5, 3, value="x")),
        "algebra mult entry: index 99 outside [0, 6)",
    ),
    "mult-not-a-list": (
        "hq", set_at("mult", value=7), "bad hopf quasigroup: 'int' object is not iterable"
    ),
    "component-mult-bool": (
        "gchq", set_at("components", "1", "mult", 0, 1, value=False),
        "components 1 mult entry: False is not an integer index",
    ),
    "component-mult-duplicate": (
        "gchq", append_copy("components", "0", "mult", index=0),
        "components 0 mult: two entries for [0, 0, 0]",
    ),
    "counit-short": (
        "gchq", set_at("counit", value=["1"]),
        "counit: label lists (1, 3) do not match shape (1, 1)",
    ),
    "comult-cell-null": (
        "gchq", set_at("comult", "1,1", 0, 0, value=None),
        "comult 1,1: rational literal None is not a string",
    ),
}

SOURCES = {"hq": fixtures.hq_s3, "gchq": fixtures.gchq_power}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_files_keep_their_messages(workdir, name):
    kind, edit, message = MALFORMED[name]
    jobj = TO_JOBJ[kind](SOURCES[kind]())
    edit(jobj)
    path = workdir / f"malformed-{name}.json"
    serialize.write_file(path, jobj)
    with pytest.raises(ParseError) as caught:
        serialize.load(kind, path)
    assert str(caught.value) == message


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
@pytest.mark.parametrize(
    "name", sorted(name for name, (kind, _) in fixtures.REGISTRY.items() if kind in TO_JOBJ)
)
def test_load_gives_the_fixture_entries(workdir, name, field):
    """Also when every zero cell is written "00" or "-0", so that no row
    reads as the written zero row."""
    kind, obj = fixtures.build(name, field)
    path = workdir / f"{name}.json"
    serialize.save(kind, obj, path)
    assert entries_of(serialize.load(kind, path)) == entries_of(obj)
    canonical = path.read_bytes()
    for zero in (b'"00"', b'"-0"'):
        path.write_bytes(re.sub(rb'"0"(?!:)', zero, canonical))  # cells, not keys
        assert entries_of(serialize.load(kind, path)) == entries_of(obj)
