"""Each structure kind states the spaces of its maps once: gchq.map_legs
for a crossed structure and yd.module_legs for a Yetter-Drinfeld module.
The constructors check every map against them, so a map with the wrong
labels, a missing key or a key outside the group raises MalformedStructure
naming the map's family and key.  A Hopf quasigroup is checked through its
one-component embedding.
"""

import re

import pytest

from quasibraid import fixtures, gchq
from quasibraid.errors import MalformedStructure
from quasibraid.exactlin import K_LABELS, LinMap, PrimeField, QQ
from quasibraid.gchq import CrossedGCHQ, validate_crossed
from quasibraid.hq import HopfQuasigroup, UnitalAlgebra, from_hopf_quasigroup
from quasibraid.yd import YDModule

GF7 = PrimeField(7)


def rebuilt_gchq(h, family, edit):
    """h with edit applied to a copy of one family of its maps."""
    maps = {name: dict(keyed) for name, keyed in h.maps().items()}
    edit(maps[family], h)
    return CrossedGCHQ(
        h.field, h.grading, h.components, maps["comult"], maps["counit"][None],
        maps["antipode"], maps["crossing"],
    )


def rebuilt_yd(v, family, edit):
    """v with edit applied to a copy of one family of its maps."""
    maps = {name: dict(keyed) for name, keyed in v.maps().items()}
    edit(maps[family], v)
    return YDModule(v.base, v.grade, v.labels, maps["action"][None], maps["coaction"], v.strict)


def _set(key, value):
    def edit(maps, s):
        maps[key] = value(maps, s)
    return edit


def _drop(key):
    return lambda maps, s: maps.pop(key)


def _over(field, f):
    return LinMap(field, f.rows, f.cols, f.entries, f.dom, f.cod)


# gchq-power is graded by C2 with components labelled "e:..." and "g:...",
# so any map moved to another key has the wrong labels there.
GCHQ_FAULTS = {
    "comult-labels": ("comult", _set((0, 1), lambda m, h: m[(1, 0)])),
    "antipode-labels": ("antipode", _set(1, lambda m, h: m[0])),
    "crossing-labels": ("crossing", _set((1, 0), lambda m, h: m[(1, 1)])),
    "counit-labels": (
        "counit", _set(None, lambda m, h: m[None].relabeled(dom=h.comp(1).labels))
    ),
    "comult-field": ("comult", _set((0, 0), lambda m, h: _over(GF7, m[(0, 0)]))),
    "comult-missing": ("comult", _drop((1, 1))),
    "antipode-missing": ("antipode", _drop(0)),
    "crossing-missing": ("crossing", _drop((0, 1))),
    "comult-extra": ("comult", _set((5, 0), lambda m, h: m[(0, 0)])),
    "antipode-extra": ("antipode", _set(5, lambda m, h: m[0])),
    "crossing-extra": ("crossing", _set((5, 0), lambda m, h: m[(0, 0)])),
}

YD_FAULTS = {
    "action-labels": ("action", _set(None, lambda m, v: v.ident())),
    "coaction-labels": ("coaction", _set(1, lambda m, v: m[0])),
    "coaction-missing": ("coaction", _drop(1)),
    "coaction-extra": ("coaction", _set(7, lambda m, v: m[0])),
}


@pytest.mark.parametrize("fault", sorted(GCHQ_FAULTS))
def test_crossed_structure_rejects_each_shape_fault(fault):
    family, edit = GCHQ_FAULTS[fault]
    with pytest.raises(MalformedStructure, match=rf"^{family}\b"):
        rebuilt_gchq(fixtures.gchq_power(), family, edit)


@pytest.mark.parametrize("fault", sorted(YD_FAULTS))
def test_module_rejects_each_shape_fault(fault):
    family, edit = YD_FAULTS[fault]
    with pytest.raises(MalformedStructure, match=rf"^{family}\b"):
        rebuilt_yd(fixtures.yd_diagonal_power(), family, edit)


# -- regressions: each passed silently or raised IndexError before the shape
# -- check read the signature


def test_module_rejects_a_coaction_key_outside_the_group():
    """An extra coaction key 7 over |G| = 2 was kept, written by yd_to_jobj,
    and the saved file then failed to load."""
    v = fixtures.yd_diagonal_power()
    coaction = {**v.coaction, 7: v.coaction[0]}
    with pytest.raises(MalformedStructure, match=r"^coaction 7: unexpected key$"):
        YDModule(v.base, v.grade, v.labels, v.action, coaction, v.strict)


@pytest.mark.parametrize(
    "family, key", [("comult", (5, 0)), ("antipode", 5), ("crossing", (5, 0))]
)
def test_crossed_structure_rejects_a_key_outside_the_group(family, key):
    """These raised IndexError, not MalformedStructure."""
    h = fixtures.gchq_power()
    edit = _set(key, lambda m, h: next(iter(m.values())))
    message = re.escape(f"{family} {key}: unexpected key")
    with pytest.raises(MalformedStructure, match=f"^{message}$"):
        rebuilt_gchq(h, family, edit)


def test_hopf_quasigroup_rejects_maps_over_another_field():
    """An algebra over GF(7) with its maps over Q was accepted."""
    h = fixtures.hq_c2(QQ)
    algebra = UnitalAlgebra(GF7, h.dim, h.labels, h.algebra.mult, h.algebra.unit)
    with pytest.raises(MalformedStructure, match=r"^comult \(0, 0\) is over Q, not GF:7$"):
        HopfQuasigroup(GF7, algebra, h.comult, h.counit, h.antipode)


def test_hopf_quasigroup_is_checked_through_its_embedding():
    h = fixtures.hq_c2()
    wrong = LinMap(QQ, 1, 2, {}, h.labels, K_LABELS)
    with pytest.raises(MalformedStructure, match=r"^antipode 0\b"):
        HopfQuasigroup(QQ, h.algebra, h.comult, h.counit, wrong)
    with pytest.raises(MalformedStructure, match=r"^counit\b"):
        HopfQuasigroup(QQ, h.algebra, h.comult, h.antipode, h.antipode)


def test_checked_embedding_builds_its_legs_once(monkeypatch):
    """from_hopf_quasigroup validated h through h.graded and then returned a
    second embedding, whose legs the crossed validators built again."""
    built = []
    init = gchq.GradedLegs.__init__

    def counted(self, h):
        built.append(h)
        init(self, h)

    monkeypatch.setattr(gchq.GradedLegs, "__init__", counted)
    h = fixtures.hq_s3()
    embedded = from_hopf_quasigroup(h)
    assert validate_crossed(embedded).passed
    assert embedded is h.graded and built == [h.graded]


def test_equality_reads_every_structure_map():
    """A Hopf quasigroup compares through its embedding, and a crossed
    structure or module through maps(): a change to any one map tells
    two structures apart."""
    h = fixtures.hq_c2()
    maps = {"comult": h.comult, "counit": h.counit, "antipode": h.antipode}
    assert HopfQuasigroup(QQ, h.algebra, **maps) == h
    for name, m in maps.items():
        assert HopfQuasigroup(QQ, h.algebra, **{**maps, name: m.scale(2)}) != h, name
    g = fixtures.gchq_power()
    for family, keyed in g.maps().items():
        key = next(iter(keyed))
        assert rebuilt_gchq(g, family, _set(key, lambda m, h: m[key].scale(2))) != g, family
    v = fixtures.yd_diagonal_power()
    for family, keyed in v.maps().items():
        key = next(iter(keyed))
        assert rebuilt_yd(v, family, _set(key, lambda m, v: m[key].scale(2))) != v, family
