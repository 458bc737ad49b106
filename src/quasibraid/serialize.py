"""JSON serialization for every structure kind.

Files are UTF-8 JSON with canonical formatting (sorted keys, compact
separators, trailing newline) so that save/load round trips are
byte-identical.  Scalars are text: decimal integers or "a/b" fractions
over Q, canonical representatives in [0, p) over GF(p).  Each map is read
between the spaces of its kind's signature (gchq.map_legs, yd.module_legs),
and a keyed family must have exactly the signature's keys, in the text
_KEY_TEXT writes for its family.

A structure is written from its maps as JSON text, a matrix row at a time
(the all-zero row encoded once and shared), objects joined from encoded
parts in sorted key order; hq_to_jobj, gchq_to_jobj and yd_to_jobj parse
that text.  The reader skips each row written as the zero row in one
comparison, and parses each distinct scalar text once.
"""

import json
import os.path
from contextlib import contextmanager
from itertools import chain

from .errors import ParseError, QuasibraidError
from .exactlin import LinMap, field_from_name
from .gchq import CrossedGCHQ, legs_labels, map_legs
from .hq import HopfQuasigroup, UnitalAlgebra
from .tables import GroupAction, GroupTable, LoopTable


#: canonical JSON text of a plain value: sorted keys, compact separators
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _Text(str):
    """JSON text that a structure writer built, joined into its file as is."""


def dump_bytes(jobj):
    """The file bytes of jobj, a plain JSON value or a writer's _Text."""
    return ((jobj if type(jobj) is _Text else _encode(jobj)) + "\n").encode("utf-8")


def write_file(path, jobj):
    try:
        with open(path, "wb") as out:
            out.write(dump_bytes(jobj))
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def read_file(path):
    """The JSON value of the regular file at path, opened by that very name.
    Any other file is refused unopened, however the path spells it: a FIFO
    may block the reader and a device never end.  A spelling the system
    refuses, such as a trailing "/" after a file, fails as the open does."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise ParseError(f"cannot read {path}: not a regular file")
    try:
        with open(path, encoding="utf-8") as text:
            return json.loads(text.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


@contextmanager
def _reading(what):
    """Re-raise any failure while decoding `what` as a ParseError whose
    message starts with `what`; a ParseError raised inside passes as is."""
    try:
        yield
    except ParseError:
        raise
    except (QuasibraidError, TypeError, KeyError, ValueError, IndexError, AttributeError) as exc:
        raise ParseError(f"{what}: {exc}") from exc


def _object(parts):
    """The JSON object of parts in sorted key order, each _Text value as is."""
    return _Text("{" + ",".join(
        f"{_encode(key)}:{value if type(value) is _Text else _encode(value)}"
        for key, value in sorted(parts.items())
    ) + "}")


def _matrix(m):
    """The dense rows of m, a row at a time: the all-zero row is encoded once
    and shared, and a row with nonzero entries is joined from its cells."""
    fmt = m.field.fmt
    zero = _encode(fmt(m.field.zero))
    texts = {value: _encode(fmt(value)) for value in set(m.entries.values())}
    rows, nonzero = ["[" + ",".join([zero] * m.cols) + "]"] * m.rows, {}
    for (i, j), value in m.entries.items():
        (nonzero.get(i) or nonzero.setdefault(i, [zero] * m.cols))[j] = texts[value]
    for i, row in nonzero.items():
        rows[i] = "[" + ",".join(row) + "]"
    return _Text("[" + ",".join(rows) + "]")


def _matrix_from_jobj(field, data, legs, what):
    """A matrix written as a list of rows, between the spaces of legs, a
    signature's entry, labelled with the labels it carries."""
    with _reading(what):
        if type(data) is not list or any(type(row) is not list for row in data):
            raise ParseError(f"{what}: a matrix is a list of rows, each a list")
        # a matrix repeats few distinct texts, so each is parsed once, to its scalar
        values = {text: field.parse(text) for text in set(chain.from_iterable(data))}
        if len(set(map(len, data))) > 1:
            raise ParseError(f"{what}: ragged row data")
        nonzero = {text: value for text, value in values.items() if value != field.zero}
        zeros = [field.fmt(field.zero)] * (len(data[0]) if data else 0)  # a zero row as written
        entries = {(i, j): nonzero[text] for i, row in enumerate(data) if row != zeros
                   for j, text in enumerate(row) if text in nonzero}
        dom, cod = legs_labels(legs)  # a matrix of no rows is written [] whatever its columns
        return LinMap(field, len(data), len(data[0]) if data else len(dom), entries, dom, cod)


def _index(value, bound, what):
    """An index or a count: an int (not a bool) in [0, bound), or any int
    >= 0 when bound is None.

    Python would read a negative index from the end of a table, so an
    index outside the range is an error, never a lookup."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what}: {value!r} is not an integer index")
    if value < 0 or bound is not None and value >= bound:
        raise ParseError(f"{what}: index {value} outside [0, {bound})")
    return value


def _labels(data, what):
    """A list of str; a string would be read character by character."""
    if type(data) is not list or any(type(atom) is not str for atom in data):
        raise ParseError(f"{what}: labels must be a list of strings, not {data!r}")
    return data


def _index_rows(data, bound, what):
    """A list of rows, each a list of indices read by _index."""
    if type(data) is not list or any(type(row) is not list for row in data):
        raise ParseError(f"{what}: {data!r} is not a list of rows, each a list")
    return [[_index(v, bound, f"{what} entry") for v in row] for row in data]


def _algebra_to_jobj(algebra):
    """dim, labels, mult and unit of a unital algebra, as _algebra_from_jobj reads them;
    mult as text in key order, each scalar and index (a plain int below dim) encoded once."""
    fmt, mult, n = algebra.field.fmt, algebra.mult, list(map(str, range(algebra.dim)))
    texts = {value: _encode(fmt(value)) for value in set(mult.values())}
    return {
        "dim": algebra.dim,
        "labels": [atom for (atom,) in algebra.labels],
        "mult": _Text("[" + ",".join([f"[{n[i]},{n[j]},{n[k]},{texts[v]}]"
                                      for (i, j, k), v in sorted(mult.items())]) + "]"),
        "unit": [fmt(v) for v in algebra.unit],
    }


def _algebra_from_jobj(field, data, what):
    """A unital algebra from its dim, labels, mult and unit: dim and mult
    indices read by _index, no index triple twice, labels a list of str."""
    dim = _index(data["dim"], None, f"{what} dim")
    labels, unit = _labels(data["labels"], what), data["unit"]
    if type(unit) is not list:  # a string would be read digit by digit
        raise ParseError(f"{what}: unit {unit!r} is not a list")
    mult, scalars = {}, {}  # each distinct scalar text is parsed once
    for i, j, k, text in data["mult"]:
        key = (i, j, k)
        if not (type(i) is type(j) is type(k) is int
                and 0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            key = tuple(_index(n, dim, f"{what} mult entry") for n in key)
        if key in mult:
            raise ParseError(f"{what} mult: two entries for {list(key)}")
        if type(text) is not str or text not in scalars:
            scalars[text] = field.parse(text)  # raises for any text not a str
        mult[key] = scalars[text]
    unit = tuple(field.parse(text) for text in unit)
    return UnitalAlgebra(field, dim, tuple((atom,) for atom in labels), mult, unit)


#: how each keyed family writes the key of an entry as an object key
_KEY_TEXT = {
    "components": str,
    "comult": "{0[0]},{0[1]}".format,
    "antipode": str,
    "crossing": "{0[0]}|{0[1]}".format,
    "coaction": str,
}


def _keyed(family, items, write):
    return _object({_KEY_TEXT[family](key): write(value) for key, value in items})


def _keyed_from_jobj(family, data, keys):
    """(key, value, what) for each of keys, from an object whose keys are
    exactly those keys in the family's text; what names the entry."""
    if type(data) is not dict:
        raise ParseError(f"{family}: {data!r} is not an object")
    texts = {_KEY_TEXT[family](key): key for key in keys}
    for text in data:
        if text not in texts:
            raise ParseError(f"{family}: unexpected key {text!r}")
    for text in texts:
        if text not in data:
            raise ParseError(f"{family}: missing key {text!r}")
    return [(key, data[text], f"{family} {text}") for text, key in texts.items()]


def _maps_from_jobj(field, jobj, signature, family):
    """The maps of a keyed family, each read between its legs in signature."""
    legs = signature[family]
    return {
        key: _matrix_from_jobj(field, data, legs[key], what)
        for key, data, what in _keyed_from_jobj(family, jobj[family], legs)
    }


# -- Cayley tables ---------------------------------------------------------


def table_to_jobj(t):
    return {
        "order": t.order,
        "labels": list(t.labels),
        "table": [list(row) for row in t.table],
    }


def _table_from_jobj(cls, jobj):
    """A Cayley table: order read by _index, labels a list of str, and each
    entry an index below the order."""
    order = _index(jobj["order"], None, "order")
    labels = _labels(jobj["labels"], "table")
    if len(labels) != order:
        raise ParseError("declared order does not match table")
    return cls(labels, _index_rows(jobj["table"], order, "table"))


def group_from_jobj(jobj):
    with _reading("bad group table"):
        return _table_from_jobj(GroupTable, jobj)


def loop_from_jobj(jobj):
    with _reading("bad loop table"):
        return _table_from_jobj(LoopTable, jobj)


def action_to_jobj(a):
    return {
        "actor": table_to_jobj(a.actor),
        "carrier": table_to_jobj(a.carrier),
        "carrier_kind": "group" if isinstance(a.carrier, GroupTable) else "loop",
        "maps": [list(m) for m in a.maps],
    }


def action_from_jobj(jobj):
    with _reading("bad action"):
        actor = group_from_jobj(jobj["actor"])
        kind = jobj.get("carrier_kind", "group")
        if kind not in ("group", "loop"):
            raise ParseError(f'carrier_kind must be "group" or "loop", not {kind!r}')
        carrier = (group_from_jobj if kind == "group" else loop_from_jobj)(jobj["carrier"])
        return GroupAction(actor, carrier, _index_rows(jobj["maps"], carrier.order, "maps"))


# -- Hopf quasigroups -------------------------------------------------------


def _hq_text(h):
    return _object({
        "field": h.field.name,
        **_algebra_to_jobj(h.algebra),
        **{family: _matrix(getattr(h, family)) for family in ("comult", "counit", "antipode")},
    })


def hq_to_jobj(h):
    return json.loads(_hq_text(h))


def hq_from_jobj(jobj):
    with _reading("bad hopf quasigroup"):
        field = field_from_name(jobj["field"])
        algebra = _algebra_from_jobj(field, jobj, "algebra")
        signature = map_legs(GroupTable.trivial(), [algebra])
        comult, counit, antipode = (
            _matrix_from_jobj(field, jobj[family], signature[family][key], family)
            for family, key in (("comult", (0, 0)), ("counit", None), ("antipode", 0))
        )
        return HopfQuasigroup(field, algebra, comult, counit, antipode)


# -- crossed group-cograded structures --------------------------------------


def _gchq_text(h):
    return _object({
        "field": h.field.name,
        "group": table_to_jobj(h.grading),
        "components": _keyed("components", enumerate(h.components),
                             lambda algebra: _object(_algebra_to_jobj(algebra))),
        **{
            family: _keyed(family, h.maps()[family].items(), _matrix)
            for family in ("comult", "antipode", "crossing")
        },
        "counit": _Text(_matrix(h.counit)[1:-1]),  # its one row
    })


def gchq_to_jobj(h):
    return json.loads(_gchq_text(h))


def gchq_from_jobj(jobj):
    with _reading("bad crossed structure"):
        field = field_from_name(jobj["field"])
        grading = group_from_jobj(jobj["group"])
        keyed = _keyed_from_jobj("components", jobj["components"], grading.elements())
        components = [_algebra_from_jobj(field, data, what) for _, data, what in keyed]
        signature = map_legs(grading, components)
        comult, antipode, crossing = (
            _maps_from_jobj(field, jobj, signature, family)
            for family in ("comult", "antipode", "crossing")
        )
        counit = _matrix_from_jobj(field, [jobj["counit"]], signature["counit"][None], "counit")
        return CrossedGCHQ(field, grading, components, comult, counit, antipode, crossing)


# -- Yetter-Drinfeld modules -------------------------------------------------


def _yd_text(m):
    return _object({
        "base": _gchq_text(m.base),
        "grade": m.grade,
        "dim": m.dim,
        "labels": [list(label) for label in m.labels],
        "action": _matrix(m.action),
        "coaction": _keyed("coaction", m.coaction.items(), _matrix),
        "strict": m.strict,
    })


def yd_to_jobj(m):
    """m with its base written inline; yd_from_jobj also reads a base given
    as a path, relative to the module file."""
    return json.loads(_yd_text(m))


def yd_from_jobj(jobj, base_dir=None):
    from .yd import YDModule, module_legs

    with _reading("bad yd module"):
        base = jobj["base"]
        if isinstance(base, str):  # a path, read relative to base_dir unless absolute
            base = read_file(os.path.join(base_dir or "", base))
        base = gchq_from_jobj(base)
        field = base.field
        grade = _index(jobj["grade"], base.grading.order, "grade")
        labels = jobj["labels"]
        if type(labels) is not list:
            raise ParseError(f"labels must be a list of labels, not {labels!r}")
        labels = tuple(tuple(_labels(label, "label")) for label in labels)
        if _index(jobj["dim"], None, "dim") != len(labels):
            raise ParseError(f"dim {jobj['dim']} does not match {len(labels)} labels")
        strict = jobj["strict"]
        if type(strict) is not bool:
            raise ParseError(f"strict must be true or false, not {strict!r}")
        signature = module_legs(base, grade, labels)
        action = _matrix_from_jobj(field, jobj["action"], signature["action"][None], "action")
        coaction = _maps_from_jobj(field, jobj, signature, "coaction")
        return YDModule(base, grade, labels, action, coaction, strict)


# -- file-level helpers ------------------------------------------------------


#: what save writes: a table or action as its plain JSON value, a structure as its text
_WRITERS = {
    "table": table_to_jobj,
    "action": action_to_jobj,
    "hq": _hq_text,
    "gchq": _gchq_text,
    "yd": _yd_text,
}

#: what load reads each kind of file's JSON value with
_READERS = {"group": group_from_jobj, "loop": loop_from_jobj, "action": action_from_jobj,
            "hq": hq_from_jobj, "gchq": gchq_from_jobj, "yd": yd_from_jobj}


def save(kind, obj, path):
    write_file(path, _WRITERS[kind](obj))


def load(kind, path):
    if kind not in _READERS:
        raise ParseError(f"unknown structure kind {kind!r}")
    if kind == "yd":  # a base named by a relative path is read from the module's directory
        return yd_from_jobj(read_file(path), base_dir=os.path.dirname(path))
    return _READERS[kind](read_file(path))
