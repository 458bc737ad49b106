"""JSON serialization for every structure kind.

Files are UTF-8 JSON with canonical formatting (sorted keys, compact
separators, trailing newline) so that save/load round trips are
byte-identical.  Scalars are text: decimal integers or "a/b" fractions
over Q, canonical representatives in [0, p) over GF(p).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from .errors import ParseError, QuasibraidError
from .exactlin import K_LABELS, LinMap, field_from_name, product_labels
from .gchq import CrossedGCHQ
from .hq import HopfQuasigroup, UnitalAlgebra
from .tables import GroupAction, GroupTable, LoopTable
from .yd import YDModule


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


def _matrix_from_jobj(field, data, dom, cod, what):
    with _reading(what):
        if type(data) is not list or any(type(row) is not list for row in data):
            raise ParseError(f"{what}: a matrix is a list of rows, each a list")
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ParseError(f"{what}: ragged matrix")
            for j, text in enumerate(row):
                value = field.parse(text)
                if value != field.zero:
                    entries[(i, j)] = value
        return LinMap(field, rows, cols, entries, dom, cod)


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


def _key_index(text, bound, what):
    """A grade written as an object key, in canonical decimal text."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise ParseError(f"{what}: {text!r} is not a decimal index")
    return _index(value, bound, what)


def _key_pair(key, sep, bound, what):
    parts = key.split(sep)
    if len(parts) != 2:
        raise ParseError(f"{what}: key {key!r} is not two indices joined by {sep!r}")
    return tuple(_key_index(part, bound, f"{what} {key}") for part in parts)


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
        labels = algebra.labels
        comult = _matrix_from_jobj(
            field, jobj["comult"], labels, product_labels((labels, labels)), "comult"
        )
        counit = _matrix_from_jobj(field, jobj["counit"], labels, K_LABELS, "counit")
        antipode = _matrix_from_jobj(field, jobj["antipode"], labels, labels, "antipode")
        return HopfQuasigroup(field, algebra, comult, counit, antipode)


# -- crossed group-cograded structures --------------------------------------


def gchq_to_jobj(h):
    fmt = h.field.fmt
    return {
        "field": h.field.name,
        "group": table_to_jobj(h.grading),
        "components": {str(p): _algebra_to_jobj(h.comp(p)) for p in h.grades()},
        "comult": {
            f"{p},{q}": _matrix_to_jobj(m) for (p, q), m in sorted(h.comult.items())
        },
        "counit": [fmt(h.counit.entry(0, j)) for j in range(h.counit.cols)],
        "antipode": {str(p): _matrix_to_jobj(m) for p, m in sorted(h.antipode.items())},
        "crossing": {
            f"{p}|{q}": _matrix_to_jobj(m) for (p, q), m in sorted(h.crossing.items())
        },
    }


def gchq_from_jobj(jobj):
    with _reading("bad crossed structure"):
        field = field_from_name(jobj["field"])
        grading = group_from_jobj(jobj["group"])
        order = grading.order
        for key in jobj["components"]:
            _key_index(key, order, "component key")
        components = []
        for p in range(order):
            data = jobj["components"][str(p)]
            components.append(_algebra_from_jobj(field, data, f"component {p}"))

        comult = {}
        for key, data in jobj["comult"].items():
            p, q = _key_pair(key, ",", order, "comult")
            pq = grading.mul(p, q)
            comult[(p, q)] = _matrix_from_jobj(
                field,
                data,
                components[pq].labels,
                product_labels((components[p].labels, components[q].labels)),
                f"comult {key}",
            )
        counit = _matrix_from_jobj(
            field, [jobj["counit"]], components[0].labels, K_LABELS, "counit"
        )
        antipode = {}
        for key, data in jobj["antipode"].items():
            p = _key_index(key, order, "antipode key")
            antipode[p] = _matrix_from_jobj(
                field,
                data,
                components[p].labels,
                components[grading.inv(p)].labels,
                f"antipode {key}",
            )
        crossing = {}
        for key, data in jobj["crossing"].items():
            p, q = _key_pair(key, "|", order, "crossing")
            target = grading.mul(grading.mul(p, q), grading.inv(p))
            crossing[(p, q)] = _matrix_from_jobj(
                field,
                data,
                components[q].labels,
                components[target].labels,
                f"crossing {key}",
            )
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
        "coaction": {str(r): _matrix_to_jobj(rho) for r, rho in sorted(m.coaction.items())},
        "strict": m.strict,
    }


def yd_from_jobj(jobj, base_dir=None):
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
        order = base.grading.order
        grade = _index(jobj["grade"], order, "grade")
        labels = jobj["labels"]
        if type(labels) is not list:
            raise ParseError(f"labels must be a list of labels, not {labels!r}")
        labels = tuple(tuple(_labels(label, "label")) for label in labels)
        if _index(jobj["dim"], None, "dim") != len(labels):
            raise ParseError(f"dim {jobj['dim']} does not match {len(labels)} labels")
        strict = jobj["strict"]
        if type(strict) is not bool:
            raise ParseError(f"strict must be true or false, not {strict!r}")
        comp = base.comp(grade)
        action = _matrix_from_jobj(
            field, jobj["action"], product_labels((comp.labels, labels)), labels, "action"
        )
        coaction = {}
        for key, data in jobj["coaction"].items():
            r = _key_index(key, order, "coaction key")
            coaction[r] = _matrix_from_jobj(
                field,
                data,
                labels,
                product_labels((labels, base.comp(r).labels)),
                f"coaction {key}",
            )
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
