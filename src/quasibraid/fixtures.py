"""Deterministic example structures used by the CLI and the test suite.

Everything is generated from Cayley tables, so fixtures can be
materialized into files on demand and byte-compared across runs.
"""

from pathlib import Path

from . import serialize
from .errors import ParseError
from .exactlin import QQ
from .gchq import mirror, power_construction
from .hq import from_hopf_quasigroup, group_algebra, loop_algebra
from .tables import GroupAction, GroupTable, LoopTable
from .yd import YDModule, crossed_set_module, diagonal_module, trivial_module


def c2():
    return GroupTable.cyclic(2)


def c3():
    return GroupTable.cyclic(3)


def c4():
    return GroupTable.cyclic(4)


def s3():
    return GroupTable.symmetric(3)


def o16():
    return LoopTable.octonion_units()


def inversion_on_c3():
    return GroupAction.by_inversion(c3())


def hq_c2(field=QQ):
    return group_algebra(c2(), field)


def hq_c3(field=QQ):
    return group_algebra(c3(), field)


def hq_s3(field=QQ):
    return group_algebra(s3(), field)


def hq_o16(field=QQ):
    return loop_algebra(o16(), field)


def gchq_trivial_c2(field=QQ):
    return from_hopf_quasigroup(hq_c2(field))


def gchq_s3(field=QQ):
    return from_hopf_quasigroup(hq_s3(field))


def gchq_power(field=QQ):
    """Two copies of the 3-element group algebra crossed by inversion."""
    return power_construction(hq_c3(field), inversion_on_c3())


def gchq_power_mirror(field=QQ):
    return mirror(gchq_power(field))


def yd_trivial(field=QQ):
    return trivial_module(gchq_power(field))


def yd_crossed_s3(field=QQ):
    return crossed_set_module(gchq_s3(field))


def yd_diagonal_power(field=QQ):
    return diagonal_module(gchq_power(field))


def yd_crossed_s3_quasi(field=QQ):
    """The conjugation module with its strict flag cleared; used to
    exercise the quasimodule gates."""
    m = yd_crossed_s3(field)
    return YDModule(m.base, m.grade, m.labels, m.action, m.coaction, strict=False)


#: name -> (file kind, builder)
REGISTRY = {
    "table-c2": ("table", c2),
    "table-c3": ("table", c3),
    "table-c4": ("table", c4),
    "table-s3": ("table", s3),
    "table-o16": ("table", o16),
    "action-c2-on-c3": ("action", inversion_on_c3),
    "hq-c2": ("hq", hq_c2),
    "hq-c3": ("hq", hq_c3),
    "hq-s3": ("hq", hq_s3),
    "hq-o16": ("hq", hq_o16),
    "gchq-trivial-c2": ("gchq", gchq_trivial_c2),
    "gchq-s3": ("gchq", gchq_s3),
    "gchq-power": ("gchq", gchq_power),
    "gchq-power-mirror": ("gchq", gchq_power_mirror),
    "yd-trivial": ("yd", yd_trivial),
    "yd-crossed-s3": ("yd", yd_crossed_s3),
    "yd-crossed-s3-quasi": ("yd", yd_crossed_s3_quasi),
    "yd-diagonal-power": ("yd", yd_diagonal_power),
}


def build(name, field=QQ):
    kind, builder = REGISTRY[name]
    if kind in ("table", "action"):
        return kind, builder()
    return kind, builder(field)


def write_all(directory, field=QQ):
    """Materialize every fixture as <name>.json; returns the paths."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot write {directory}: {exc}") from exc
    paths = []
    for name in sorted(REGISTRY):
        kind, obj = build(name, field)
        path = directory / f"{name}.json"
        serialize.save(kind, obj, path)
        paths.append(path)
    return paths
