"""Round trips and canonical bytes for every structure kind."""

import re

import pytest

from quasibraid import fixtures, serialize
from quasibraid.errors import ParseError
from quasibraid.exactlin import QQ, LinMap, PrimeField, Rationals
from quasibraid.hq import HopfQuasigroup
from quasibraid.yd import YDModule


def load_kind(name, kind):
    if kind == "table":
        return "loop" if name == "table-o16" else "group"
    return kind


@pytest.mark.parametrize("name", sorted(fixtures.REGISTRY))
def test_fixture_round_trip_structural_and_bytes(tmp_path, name):
    kind, obj = fixtures.build(name)
    path = tmp_path / f"{name}.json"
    serialize.save(kind, obj, path)
    back = serialize.load(load_kind(name, kind), path)
    assert back == obj
    path2 = tmp_path / f"{name}.resaved.json"
    serialize.save(kind, back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_round_trip_over_prime_field(tmp_path):
    kind, obj = fixtures.build("gchq-power", PrimeField(5))
    path = tmp_path / "gf5.json"
    serialize.save(kind, obj, path)
    assert serialize.load("gchq", path) == obj


def test_yd_file_with_base_reference(tmp_path):
    v = fixtures.yd_crossed_s3()
    serialize.save("gchq", v.base, tmp_path / "base.json")
    serialize.write_file(tmp_path / "module.json", {**serialize.yd_to_jobj(v), "base": "base.json"})
    back = serialize.load("yd", tmp_path / "module.json")
    assert back == v


def test_corrupt_file_raises_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        serialize.load("hq", path)
    path.write_text('{"dim": 2}', encoding="utf-8")
    with pytest.raises(ParseError):
        serialize.load("hq", path)


def test_missing_file_raises_parse_error(tmp_path):
    with pytest.raises(ParseError):
        serialize.load("gchq", tmp_path / "nowhere.json")


def test_scalar_text_forms(tmp_path):
    h = fixtures.hq_c2()
    jobj = serialize.hq_to_jobj(h)
    assert jobj["unit"] == ["1", "0"]
    assert all(isinstance(row, list) for row in jobj["antipode"])
    # fraction text survives a round trip
    jobj["unit"] = ["1/2", "0"]
    path = tmp_path / "frac.json"
    serialize.write_file(path, jobj)
    back = serialize.load("hq", path)
    assert serialize.hq_to_jobj(back)["unit"] == ["1/2", "0"]


def test_gf_scalars_reject_out_of_range(tmp_path):
    kind, obj = fixtures.build("hq-c2", PrimeField(3))
    jobj = serialize.hq_to_jobj(obj)
    jobj["unit"] = ["4", "0"]  # not a canonical representative in [0, 3)
    path = tmp_path / "bad-gf.json"
    serialize.write_file(path, jobj)
    with pytest.raises(ParseError):
        serialize.load("hq", path)


def test_dump_bytes_is_canonical():
    a = serialize.dump_bytes({"b": 1, "a": [2, 3]})
    b = serialize.dump_bytes({"a": [2, 3], "b": 1})
    assert a == b == b'{"a":[2,3],"b":1}\n'


def _gchq_jobj():
    return serialize.gchq_to_jobj(fixtures.gchq_power())


def _yd_jobj():
    return serialize.yd_to_jobj(fixtures.yd_diagonal_power())


def _copy_key(table, old, new):
    table[new] = table[old]


@pytest.mark.parametrize(
    "edit",
    [
        lambda j: _copy_key(j["comult"], "1,1", "-1,1"),
        lambda j: _copy_key(j["comult"], "1,1", "1,2"),
        lambda j: _copy_key(j["comult"], "1,1", "01,1"),
        lambda j: _copy_key(j["comult"], "1,1", "1,1,0"),
        lambda j: _copy_key(j["antipode"], "1", "-1"),
        lambda j: _copy_key(j["antipode"], "1", "2"),
        lambda j: _copy_key(j["crossing"], "1|1", "1|-1"),
        lambda j: _copy_key(j["crossing"], "1|1", "2|1"),
        lambda j: _copy_key(j["components"], "1", "2"),
        lambda j: _copy_key(j["components"], "1", "-1"),
        lambda j: j["comult"].pop("1,1"),
        lambda j: j["antipode"].pop("1"),
        lambda j: j["crossing"].pop("1|0"),
        lambda j: j["components"].pop("1"),
    ],
    ids=[
        "comult-negative", "comult-too-large", "comult-not-canonical", "comult-three-parts",
        "antipode-negative", "antipode-too-large", "crossing-negative", "crossing-too-large",
        "component-extra", "component-negative", "comult-missing", "antipode-missing",
        "crossing-missing", "component-missing",
    ],
)
def test_gchq_keys_are_range_checked(tmp_path, edit):
    jobj = _gchq_jobj()
    edit(jobj)
    path = tmp_path / "bad-gchq.json"
    serialize.write_file(path, jobj)
    with pytest.raises(ParseError):
        serialize.load("gchq", path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda j: j.update(grade=-1),
        lambda j: j.update(grade=2),
        lambda j: j.update(grade="1"),
        lambda j: j.update(grade=True),
        lambda j: _copy_key(j["coaction"], "1", "-1"),
        lambda j: _copy_key(j["coaction"], "1", "7"),
        lambda j: j["coaction"].pop("1"),
    ],
    ids=["grade-negative", "grade-too-large", "grade-text", "grade-bool",
         "coaction-negative", "coaction-too-large", "coaction-missing"],
)
def test_yd_grades_are_range_checked(tmp_path, edit):
    jobj = _yd_jobj()
    edit(jobj)
    path = tmp_path / "bad-yd.json"
    serialize.write_file(path, jobj)
    with pytest.raises(ParseError):
        serialize.load("yd", path)


@pytest.mark.parametrize(
    "family, edit, message",
    [
        ("comult", lambda t: t.pop("1,1"), "missing key '1,1'"),
        ("crossing", lambda t: t.pop("1|0"), "missing key '1|0'"),
        ("components", lambda t: t.pop("1"), "missing key '1'"),
        ("comult", lambda t: _copy_key(t, "1,1", "5,0"), "unexpected key '5,0'"),
        ("antipode", lambda t: _copy_key(t, "1", "01"), "unexpected key '01'"),
    ],
)
def test_gchq_loader_names_the_family_and_key(tmp_path, family, edit, message):
    jobj = _gchq_jobj()
    edit(jobj[family])
    path = tmp_path / "bad-gchq.json"
    serialize.write_file(path, jobj)
    with pytest.raises(ParseError, match=f"^{re.escape(f'{family}: {message}')}$"):
        serialize.load("gchq", path)


# -- matrices built from their parsed texts -------------------------------------------


def _linmaps(obj):
    """Every LinMap a loaded structure or module holds, by where it sits."""
    if isinstance(obj, HopfQuasigroup):
        return {"comult": obj.comult, "counit": obj.counit, "antipode": obj.antipode}
    base = obj.base.maps() if isinstance(obj, YDModule) else {}
    return {
        (part, family, key): m
        for part, maps in (("base", base), ("self", obj.maps()))
        for family, keyed in maps.items() for key, m in keyed.items()
    }


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize(
    "name", sorted(n for n, (kind, _) in fixtures.REGISTRY.items() if kind in ("hq", "gchq", "yd"))
)
def test_loading_calls_field_scalar_on_no_cell(tmp_path, monkeypatch, name, field):
    """Each matrix is built from the scalars its distinct texts parse to,
    with no field.scalar call per cell, and equals the LinMap that
    LinMap.from_rows builds from the same rows of parsed scalars."""
    kind, obj = fixtures.build(name, field)
    path = tmp_path / f"{name}.json"
    serialize.save(kind, obj, path)
    calls = []

    def counted(scalar):
        return lambda self, value: calls.append(value) or scalar(self, value)

    for cls in (Rationals, PrimeField):
        monkeypatch.setattr(cls, "scalar", counted(cls.scalar))
    back = serialize.load(kind, path)
    monkeypatch.undo()
    assert calls == []
    assert back == obj
    for where, m in _linmaps(back).items():
        rows = [[field.scalar(v) for v in row] for row in m.to_dense()]
        assert m == LinMap.from_rows(field, rows, m.dom, m.cod), where


def test_a_ragged_matrix_is_a_parse_error(tmp_path):
    jobj = _gchq_jobj()
    jobj["comult"]["1,1"][0].append("0")
    path = tmp_path / "ragged.json"
    serialize.write_file(path, jobj)
    with pytest.raises(ParseError, match=r"^comult 1,1: ragged row data$"):
        serialize.load("gchq", path)


def test_load_refuses_an_unknown_kind_before_it_reads(tmp_path):
    """load once read the whole file before it looked at the kind."""
    with pytest.raises(ParseError, match=r"^unknown structure kind 'bogus'$"):
        serialize.load("bogus", tmp_path / "no-such-file.json")
