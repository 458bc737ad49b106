"""JSON serialization for every structure kind.

Files are UTF-8 JSON with canonical formatting (sorted keys, compact
separators, trailing newline) so that save/load round trips are
byte-identical.  Scalars are text: decimal integers or "a/b" fractions
over Q, canonical representatives in [0, p) over GF(p).  Each map is read
between the spaces of its kind's signature (gchq.map_legs, yd.module_legs),
and a keyed family must have exactly the signature's keys, in the text
_KEY_TEXT writes for its family.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

from .errors import ParseError, QuasibraidError
from .exactlin import LinMap, field_from_name
from .gchq import CrossedGCHQ, legs_labels, map_legs
from .hq import HopfQuasigroup, UnitalAlgebra
from .tables import GroupAction, GroupTable, LoopTable


def dump_bytes(jobj):
    return (json.dumps(jobj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def write_file(path, jobj):
    Path(path).write_bytes(dump_bytes(jobj))


def read_file(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
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


def _matrix_to_jobj(m):
    fmt = m.field.fmt
    return [[fmt(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def _matrix_from_jobj(field, data, legs, what):
    """A matrix written as a list of rows, between the spaces of legs, a
    (dom_legs, cod_legs) pair."""
    with _reading(what):
        if type(data) is not list or any(type(row) is not list for row in data):
            raise ParseError(f"{what}: a matrix is a list of rows, each a list")
        # a matrix repeats few distinct texts, so each is parsed once
        values = {text: field.parse(text) for text in set(chain.from_iterable(data))}
        rows = [list(map(values.__getitem__, row)) for row in data]
        return LinMap.from_rows(field, rows, *legs_labels(legs))


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
    """dim, labels, mult and unit of a unital algebra, as _algebra_from_jobj reads them."""
    fmt = algebra.field.fmt
    return {
        "dim": algebra.dim,
        "labels": [atom for (atom,) in algebra.labels],
        "mult": sorted([i, j, k, fmt(v)] for (i, j, k), v in algebra.mult.items()),
        "unit": [fmt(v) for v in algebra.unit],
    }


def _algebra_from_jobj(field, data, what):
    """A unital algebra from its dim, labels, mult and unit: dim and mult
    indices read by _index, no index triple twice, labels a list of str."""
    dim = _index(data["dim"], None, f"{what} dim")
    labels, unit = _labels(data["labels"], what), data["unit"]
    if type(unit) is not list:  # a string would be read digit by digit
        raise ParseError(f"{what}: unit {unit!r} is not a list")
    mult = {}
    for i, j, k, text in data["mult"]:
        key = tuple(_index(n, dim, f"{what} mult entry") for n in (i, j, k))
        if key in mult:
            raise ParseError(f"{what} mult: two entries for {list(key)}")
        mult[key] = field.parse(text)
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


def _keyed_to_jobj(family, items, write):
    return {_KEY_TEXT[family](key): write(value) for key, value in items}


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


def hq_to_jobj(h):
    return {
        "field": h.field.name,
        **_algebra_to_jobj(h.algebra),
        "comult": _matrix_to_jobj(h.comult),
        "counit": _matrix_to_jobj(h.counit),
        "antipode": _matrix_to_jobj(h.antipode),
    }


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


def gchq_to_jobj(h):
    return {
        "field": h.field.name,
        "group": table_to_jobj(h.grading),
        "components": _keyed_to_jobj("components", enumerate(h.components), _algebra_to_jobj),
        **{
            family: _keyed_to_jobj(family, sorted(h.maps()[family].items()), _matrix_to_jobj)
            for family in ("comult", "antipode", "crossing")
        },
        "counit": _matrix_to_jobj(h.counit)[0],
    }


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


def yd_to_jobj(m, base_ref=None):
    """base_ref, when given, is stored instead of the inline base (a path
    interpreted relative to the module file)."""
    return {
        "base": base_ref if base_ref is not None else gchq_to_jobj(m.base),
        "grade": m.grade,
        "dim": m.dim,
        "labels": [list(label) for label in m.labels],
        "action": _matrix_to_jobj(m.action),
        "coaction": _keyed_to_jobj("coaction", sorted(m.coaction.items()), _matrix_to_jobj),
        "strict": m.strict,
    }


def yd_from_jobj(jobj, base_dir=None):
    from .yd import YDModule, module_legs

    with _reading("bad yd module"):
        base_field = jobj["base"]
        if isinstance(base_field, str):
            path = Path(base_field)
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            base = gchq_from_jobj(read_file(path))
        else:
            base = gchq_from_jobj(base_field)
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


_TO_JOBJ = {
    "table": table_to_jobj,
    "action": action_to_jobj,
    "hq": hq_to_jobj,
    "gchq": gchq_to_jobj,
    "yd": yd_to_jobj,
}


def save(kind, obj, path, **kwargs):
    write_file(path, _TO_JOBJ[kind](obj, **kwargs))


def load(kind, path):
    jobj = read_file(path)
    if kind == "group":
        return group_from_jobj(jobj)
    if kind == "loop":
        return loop_from_jobj(jobj)
    if kind == "action":
        return action_from_jobj(jobj)
    if kind == "hq":
        return hq_from_jobj(jobj)
    if kind == "gchq":
        return gchq_from_jobj(jobj)
    if kind == "yd":
        return yd_from_jobj(jobj, base_dir=Path(path).parent)
    raise ParseError(f"unknown structure kind {kind!r}")
