"""CLI behavior: exit codes, reports, constructions, determinism."""

import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

import quasibraid
from quasibraid import cli, fixtures, serialize
from quasibraid.exactlin import QQ, PrimeField


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixtures")
    fixtures.write_all(directory)
    return directory


#: a 5-element loop with two-sided inverses that is not associative
NON_GROUP_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_hq_pass(fixture_dir, capsys):
    code, out, _ = run(capsys, "validate", str(fixture_dir / "hq-c2.json"), "--kind", "hq")
    assert code == 0
    assert "result: PASS" in out


def test_validate_o16_informational_assoc(fixture_dir, capsys):
    code, out, _ = run(capsys, "validate", str(fixture_dir / "hq-o16.json"), "--kind", "hq")
    assert code == 0
    assert "FAIL [info] HQ-assoc" in out


def test_validate_gchq_and_yd(fixture_dir, capsys):
    for name, kind in [
        ("gchq-power.json", "gchq"),
        ("gchq-power-mirror.json", "gchq"),
        ("yd-crossed-s3.json", "yd"),
        ("yd-trivial.json", "yd"),
        ("yd-diagonal-power.json", "yd"),
    ]:
        code, out, _ = run(capsys, "validate", str(fixture_dir / name), "--kind", kind)
        assert code == 0, name


def test_validate_corrupt_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad), "--kind", "hq")
    assert code == 2
    assert "error" in err


def test_validate_gchq_over_a_non_group_grading_reports_only_the_grading(tmp_path, capsys):
    """A crossed structure with dim-1 components graded by a 5-element
    loop that is not a group (not associative): validation stops after
    the group axioms."""
    n = 5
    one = [["1"]]
    jobj = {
        "field": "Q",
        "group": {"labels": [f"x{i}" for i in range(n)], "order": n, "table": NON_GROUP_LOOP},
        "components": {
            str(p): {"dim": 1, "labels": ["1"], "mult": [[0, 0, 0, "1"]], "unit": ["1"]}
            for p in range(n)
        },
        "comult": {f"{p},{q}": one for p in range(n) for q in range(n)},
        "counit": ["1"],
        "antipode": {str(p): one for p in range(n)},
        "crossing": {f"{a}|{p}": one for a in range(n) for p in range(n)},
    }
    target = tmp_path / "non-group-grading.json"
    serialize.write_file(target, jobj)
    code, out, _ = run(capsys, "validate", str(target), "--kind", "gchq")
    assert code == 1
    assert out == (
        "subject: crossed structure (|G|=5, Q)\n"
        "PASS GRP-closure\n"
        "PASS GRP-identity\n"
        "PASS GRP-inverse\n"
        "FAIL GRP-assoc  at (x1,x1,x2) -> (): x2 != x4\n"
        "result: FAIL\n"
    )


def test_validate_failing_structure_exits_1(fixture_dir, tmp_path, capsys):
    jobj = serialize.read_file(fixture_dir / "hq-c2.json")
    jobj["antipode"] = [["0", "0"], ["0", "0"]]
    target = tmp_path / "broken-hq.json"
    serialize.write_file(target, jobj)
    code, out, _ = run(capsys, "validate", str(target), "--kind", "hq")
    assert code == 1
    assert "FAIL HQ-2.5-left" in out


def test_validate_json_report(fixture_dir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "validate",
        str(fixture_dir / "hq-c3.json"),
        "--kind",
        "hq",
        "--json",
        str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert any(c["id"] == "HQ-2.5-left" for c in report["checks"])
    assert "elapsed" not in report  # timing is kept out of canonical reports


def test_construct_loop_algebra(fixture_dir, tmp_path, capsys):
    out_path = tmp_path / "o16-hq.json"
    code, out, _ = run(
        capsys,
        "construct",
        "--op",
        "loop-algebra",
        str(fixture_dir / "table-o16.json"),
        "--out",
        str(out_path),
    )
    assert code == 0
    assert serialize.load("hq", out_path) == fixtures.hq_o16()


def test_construct_power_then_mirror_pipeline(fixture_dir, tmp_path, capsys):
    power_path = tmp_path / "power.json"
    code, _, _ = run(
        capsys,
        "construct",
        "--op",
        "power",
        str(fixture_dir / "hq-c3.json"),
        str(fixture_dir / "action-c2-on-c3.json"),
        "--out",
        str(power_path),
    )
    assert code == 0
    mirror_path = tmp_path / "mirror.json"
    code, _, _ = run(capsys, "construct", "--op", "mirror", str(power_path), "--out", str(mirror_path))
    assert code == 0
    code, _, _ = run(capsys, "validate", str(mirror_path), "--kind", "gchq")
    assert code == 0
    assert mirror_path.read_bytes() == (fixture_dir / "gchq-power-mirror.json").read_bytes()


def test_construct_power_with_bad_action_exits_1(fixture_dir, tmp_path, capsys):
    action = serialize.read_file(fixture_dir / "action-c2-on-c3.json")
    action["maps"] = [[0, 1, 2], [1, 0, 2]]  # does not fix the identity
    bad_path = tmp_path / "bad-action.json"
    serialize.write_file(bad_path, action)
    code, _, err = run(
        capsys,
        "construct",
        "--op",
        "power",
        str(fixture_dir / "hq-c3.json"),
        str(bad_path),
        "--out",
        str(tmp_path / "never.json"),
    )
    assert code == 1
    assert "preserve" in err
    assert not (tmp_path / "never.json").exists()


def test_construct_yd_tensor_of_trivials(fixture_dir, tmp_path, capsys):
    out_path = tmp_path / "tensor.json"
    code, _, _ = run(
        capsys,
        "construct",
        "--op",
        "yd-tensor",
        str(fixture_dir / "yd-trivial.json"),
        str(fixture_dir / "yd-trivial.json"),
        "--out",
        str(out_path),
    )
    assert code == 0
    assert serialize.load("yd", out_path).dim == 1


def test_construct_yd_conjugate_with_grade_label(fixture_dir, tmp_path, capsys):
    out_path = tmp_path / "conj.json"
    code, _, _ = run(
        capsys,
        "construct",
        "--op",
        "yd-conjugate",
        str(fixture_dir / "yd-diagonal-power.json"),
        "--grade",
        "g",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert serialize.load("yd", out_path).grade == 0


def test_construct_direct_sum(fixture_dir, tmp_path, capsys):
    out_path = tmp_path / "sum.json"
    code, _, _ = run(
        capsys,
        "construct",
        "--op",
        "direct-sum",
        str(fixture_dir / "yd-crossed-s3.json"),
        str(fixture_dir / "yd-crossed-s3.json"),
        "--out",
        str(out_path),
    )
    assert code == 0
    assert serialize.load("yd", out_path).dim == 12


def test_braid_report_pair_and_triple(fixture_dir, tmp_path, capsys):
    module = str(fixture_dir / "yd-crossed-s3.json")
    code, out, _ = run(capsys, "braid-report", module, module)
    assert code == 0
    report_path = tmp_path / "braid.json"
    code, out, _ = run(capsys, "braid-report", module, module, module, "--json", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    ids = {c["id"] for c in report["checks"]}
    assert "BRAID-comp-tensor-first" in ids
    assert "BRAID-yang-baxter" in ids
    assert "CONJ-4.6-tensor" in ids


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that its calls are counted; returns the counter."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_braid_report_loads_each_distinct_path_once(fixture_dir, monkeypatch, capsys):
    loads = _count_calls(monkeypatch, serialize, "load")
    diag = str(fixture_dir / "yd-diagonal-power.json")
    trivial = str(fixture_dir / "yd-trivial.json")
    code, out_same, _ = run(capsys, "braid-report", diag, diag, diag)
    assert code == 0
    assert [args[1] for args in loads] == [diag]
    loads.clear()
    code, out_mixed, _ = run(capsys, "braid-report", diag, trivial, diag)
    assert code == 0
    assert [args[1] for args in loads] == [diag, trivial]
    assert out_same == out_mixed  # every check passes on both triples


def test_construct_mirror_validates_its_output_once(fixture_dir, tmp_path, monkeypatch, capsys):
    from quasibraid import gchq

    in_mirror = _count_calls(monkeypatch, gchq, "validate_gchq")
    in_cli = _count_calls(monkeypatch, cli, "validate_crossed")
    out_path = tmp_path / "mirror.json"
    code, out, _ = run(
        capsys, "construct", "--op", "mirror", str(fixture_dir / "gchq-power.json"),
        "--out", str(out_path),
    )
    assert code == 0
    assert out == f"wrote gchq structure to {out_path}\n"
    assert (len(in_mirror), len(in_cli)) == (2, 1)  # the input, then the output
    assert out_path.read_bytes() == (fixture_dir / "gchq-power-mirror.json").read_bytes()


def test_each_base_builds_its_legs_once(fixture_dir, tmp_path, monkeypatch, capsys):
    from quasibraid import gchq

    built = []
    init = gchq.GradedLegs.__init__

    def counted(self, h):
        built.append(h)
        init(self, h)

    monkeypatch.setattr(gchq.GradedLegs, "__init__", counted)
    module = str(fixture_dir / "yd-diagonal-power.json")
    code, _, _ = run(capsys, "validate", module, "--kind", "yd")
    assert code == 0 and len(built) == 1  # the base, for all three validators
    built.clear()
    code, _, _ = run(
        capsys, "construct", "--op", "mirror", str(fixture_dir / "gchq-power.json"),
        "--out", str(tmp_path / "mirror.json"),
    )
    assert code == 0 and len(built) == 2  # the input, then the output


def test_braid_report_builds_each_construction_once(fixture_dir, monkeypatch, capsys):
    """The braiding laws and conjugation coherence share V (x) W and the
    regradings of V and W, the only modules coherence reads (it compares
    the regradings of V (x) W, of the V^t and the tensors of regradings as
    families, without building them); with a third module equal to the
    others, its regrading and W (x) X are shared as well.  A module whose
    regradings by every grade are read is regraded by them in one call of
    yd._conjugates, once; a third module of its own only by the one grade
    its laws read."""
    from quasibraid import yd

    tensors = _count_calls(monkeypatch, yd, "yd_tensor")
    conjugates = _count_calls(monkeypatch, yd, "_conjugates")
    module = str(fixture_dir / "yd-diagonal-power.json")
    trivial = str(fixture_dir / "yd-trivial.json")
    for modules, counts in (([module] * 2, (2, 2)), ([module] * 3, (2, 2)),
                            ([module] * 2 + [trivial], (3, 3))):
        tensors.clear()
        conjugates.clear()
        code, _, _ = run(capsys, "braid-report", *modules)
        assert code == 0
        regraded = [m for m, _ in conjugates]
        assert len({id(m) for m in regraded}) == len(regraded)
        # 4 and 8 (5 and 9 with the trivial module) when coherence built the
        # modules it compares; 5 and 13, 6 and 14 when each suite built its own
        assert (len(tensors), sum(len(grades) for _, grades in conjugates)) == counts
    # the trivial module, regraded by w's grade alone for BRAID-comp-tensor-first
    assert [grades for m, grades in conjugates if m.labels == (("1",),)] == [[0]]


def test_construct_mirror_of_invalid_input_exits_1(fixture_dir, tmp_path, capsys):
    jobj = serialize.read_file(fixture_dir / "gchq-power.json")
    jobj["antipode"]["1"] = [["0"] * 3] * 3
    target = tmp_path / "bad-antipode.json"
    serialize.write_file(target, jobj)
    out_path = tmp_path / "mirror.json"
    code, out, err = run(capsys, "construct", "--op", "mirror", str(target), "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err == (
        "error: mirror input is not a valid crossed structure: GHQ-3.3-left, "
        "GHQ-3.3-right, GHQ-3.4-left, GHQ-3.4-right, GHQ-antipode-unit, "
        "GHQ-antipode-bijective\n"
    )
    assert not out_path.exists()


def test_braid_report_quasimodule_exits_3(fixture_dir, capsys):
    code, _, err = run(
        capsys,
        "braid-report",
        str(fixture_dir / "yd-crossed-s3-quasi.json"),
        str(fixture_dir / "yd-crossed-s3.json"),
    )
    assert code == 3
    assert "quasimodule" in err


def test_reports_are_deterministic(fixture_dir, capsys):
    args = ("validate", str(fixture_dir / "gchq-power.json"), "--kind", "gchq")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_fixtures_command(tmp_path, capsys):
    code, out, _ = run(capsys, "fixtures", "--out", str(tmp_path / "fx"))
    assert code == 0
    assert (tmp_path / "fx" / "yd-crossed-s3.json").exists()
    assert len(out.strip().splitlines()) == len(fixtures.REGISTRY)


def test_fixtures_field_option_writes_the_library_fixtures(tmp_path, capsys):
    code, _, _ = run(capsys, "fixtures", "--out", str(tmp_path / "cli"), "--field", "GF:7")
    assert code == 0
    paths = fixtures.write_all(tmp_path / "lib", PrimeField(7))
    for path in paths:
        assert (tmp_path / "cli" / path.name).read_bytes() == path.read_bytes()
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == sorted(p.name for p in paths)


def test_qb_field_sets_the_loop_algebra_field(fixture_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QB_FIELD", "GF:7")
    out_path = tmp_path / "c3-gf7.json"
    table = str(fixture_dir / "table-c3.json")
    code, _, _ = run(capsys, "construct", "--op", "loop-algebra", table, "--out", str(out_path))
    assert code == 0
    assert serialize.read_file(out_path)["field"] == "GF:7"
    assert serialize.load("hq", out_path) == fixtures.hq_c3(PrimeField(7))


# -- invocation errors: exit 2, "error: " first, nothing written --------------

#: a bundled fixture of each input kind a construct op reads
FIXTURE_OF_KIND = {
    "loop": "table-c3",
    "hq": "hq-c3",
    "action": "action-c2-on-c3",
    "gchq": "gchq-power",
    "yd": "yd-diagonal-power",
}


def _invocation_errors():
    """name -> (argv with fixtures as <name>.json, QB_FIELD or None, stderr)"""
    for op, (kinds, _) in cli.OPS.items():
        grade = ["--grade", "g"] if op == "yd-conjugate" else []
        for n in (len(kinds) - 1, len(kinds) + 1):
            names = [f"{FIXTURE_OF_KIND[kind]}.json" for kind in (kinds + kinds)[:n]]
            message = f"error: --op {op} needs exactly {len(kinds)} input file(s)\n"
            yield f"{op}-{n}-inputs", (["construct", "--op", op, *names, *grade], None, message)
    conjugate = ["construct", "--op", "yd-conjugate", "yd-diagonal-power.json"]
    yield "conjugate-no-grade", (conjugate, None, "error: yd-conjugate needs --grade\n")
    for op, (kinds, _) in cli.OPS.items():
        if op != "yd-conjugate":
            names = [f"{FIXTURE_OF_KIND[kind]}.json" for kind in kinds]
            message = f"error: --grade is only for yd-conjugate, not --op {op}\n"
            yield f"{op}-grade", (["construct", "--op", op, *names, "--grade", "g"], None, message)
    # --grade is checked before any input is read
    yield "mirror-grade-missing-input", (
        ["construct", "--op", "mirror", "no-such-file.json", "--grade", "g"],
        None,
        "error: --grade is only for yd-conjugate, not --op mirror\n",
    )
    yield "conjugate-unknown-grade", (
        conjugate + ["--grade", "h"], None, "error: unknown grade 'h'; choices: e, g\n"
    )
    yield "fixtures-gf4", (
        ["fixtures", "--field", "GF:4"], None, "error: GF modulus must be prime, got 4\n"
    )
    yield "qb-field-bogus", (
        ["construct", "--op", "loop-algebra", "table-c3.json"],
        "bogus",
        "error: unknown field tag 'bogus'\n",
    )
    message = "error: braid-report needs two or three module files\n"
    for n in (1, 4):
        argv = ["braid-report"] + ["yd-trivial.json"] * n
        yield f"braid-report-{n}-modules", (argv, None, message)


INVOCATION_ERRORS = dict(_invocation_errors())


@pytest.mark.parametrize("case", list(INVOCATION_ERRORS))
def test_invocation_error_exits_2_and_writes_nothing(
    case, fixture_dir, tmp_path, monkeypatch, capsys
):
    argv, qb_field, message = INVOCATION_ERRORS[case]
    if qb_field is not None:
        monkeypatch.setenv("QB_FIELD", qb_field)
    argv = [str(fixture_dir / a) if a.endswith(".json") else a for a in argv]
    target = tmp_path / "target"
    flag = "--json" if argv[0] == "braid-report" else "--out"
    code, out, err = run(capsys, *argv, flag, str(target))
    assert (code, out, err) == (2, "", message)
    assert not target.exists()


# -- hostile input: out-of-range indices end in exit 2, never a traceback ------


def test_gchq_comult_key_outside_grading_exits_2(fixture_dir, tmp_path, capsys):
    jobj = serialize.read_file(fixture_dir / "gchq-power.json")
    assert jobj["group"]["order"] == 2
    jobj["comult"]["5,0"] = jobj["comult"]["0,0"]
    target = tmp_path / "comult-key.json"
    serialize.write_file(target, jobj)
    code, _, err = run(capsys, "validate", str(target), "--kind", "gchq")
    assert code == 2
    assert "error:" in err and "5,0" in err


def test_yd_negative_grade_exits_2(fixture_dir, tmp_path, capsys):
    jobj = serialize.read_file(fixture_dir / "yd-diagonal-power.json")
    jobj["grade"] = -1
    target = tmp_path / "negative-grade.json"
    serialize.write_file(target, jobj)
    code, _, err = run(capsys, "validate", str(target), "--kind", "yd")
    assert code == 2
    assert "error:" in err and "-1" in err


def _set(key, value):
    def edit(jobj):
        jobj[key] = value

    return edit


def _set_group_table(table):
    def edit(jobj):
        jobj["group"]["table"] = table

    return edit


def _set_entry(key, i, j, value):
    def edit(jobj):
        jobj[key][i][j] = value

    return edit


def _set_mult(n, entry):
    def edit(jobj):
        jobj["mult"][n] = entry

    return edit


def _gchq_counit(edit_list):
    def edit(jobj):
        jobj["counit"] = edit_list(jobj["counit"])

    return edit


def _as_list(key):
    """The keyed family at key as the list of its values, in key order."""
    def edit(jobj):
        jobj[key] = [jobj[key][text] for text in sorted(jobj[key])]

    return edit


#: a Cayley table with no elements, so no element 0 to be the identity
EMPTY_TABLE = {"order": 0, "labels": [], "table": []}


#: name -> (fixture, field, edit); each edit once loaded, and then passed or
#: failed checks, where the input was not what it claimed to be, or was
#: refused by a reader line that no other test reached
MISREAD = {
    "scalar-float": ("hq-c2", QQ, _set_entry("antipode", 0, 0, 1.0)),
    "scalar-true": ("hq-c2", QQ, _set_entry("antipode", 1, 1, True)),
    "scalar-int": ("hq-c2", QQ, _set_entry("antipode", 0, 0, 1)),
    "scalar-half-over-gf7": ("hq-c2", PrimeField(7), _set_entry("antipode", 0, 1, 0.5)),
    "matrix-rows-as-text": ("hq-c2", QQ, _set("antipode", ["10", "01"])),
    "counit-truncated": ("gchq-power", QQ, _gchq_counit(lambda c: c[:1])),
    "counit-overlong": ("gchq-power", QQ, _gchq_counit(lambda c: c + ["0"])),
    "mult-index-float": ("hq-c2", QQ, _set_mult(1, [0, 1.9, 1, "1"])),
    "mult-index-text": ("hq-c2", QQ, _set_mult(0, ["0", 0, 0, "1"])),
    "mult-index-true": ("hq-c2", QQ, _set_mult(0, [True, 0, 1, "1"])),
    "dim-float": ("hq-c2", QQ, _set("dim", 2.7)),
    "labels-as-text": ("hq-c2", QQ, _set("labels", "ab")),
    "label-null": ("hq-c2", QQ, _set("labels", [None, "g"])),
    "unit-as-text": ("hq-c2", QQ, _set("unit", "10")),
    "mult-entry-twice": ("hq-c2", QQ, lambda jobj: jobj["mult"].append(jobj["mult"][0])),
    "yd-strict-as-text": ("yd-trivial", QQ, _set("strict", "false")),
    "yd-label-atom-null": ("yd-trivial", QQ, _set("labels", [[None]])),
    "yd-dim-too-large": ("yd-trivial", QQ, _set("dim", 99)),
    "yd-dim-as-text": ("yd-trivial", QQ, _set("dim", "x")),
    "field-leading-zeros": ("hq-c2", QQ, _set("field", "GF:007")),
    "field-inner-space": ("hq-c2", QQ, _set("field", "GF: 7")),
    "field-plus-sign": ("hq-c2", QQ, _set("field", "GF:+7")),
    "field-gf1": ("hq-c2", QQ, _set("field", "GF:1")),
    "scalar-fraction-over-gf7": ("hq-c2", PrimeField(7), _set_entry("antipode", 0, 1, "1/2")),
    "yd-labels-as-text": ("yd-trivial", QQ, _set("labels", "x")),
    "gchq-group-empty": ("gchq-power", QQ, _set("group", EMPTY_TABLE)),
    "gchq-comult-as-list": ("gchq-power", QQ, _as_list("comult")),
    "gchq-components-as-list": ("gchq-power", QQ, _as_list("components")),
    "gchq-crossing-as-list": ("gchq-power", QQ, _as_list("crossing")),
    "yd-coaction-as-text": ("yd-trivial", QQ, _set("coaction", "0")),
}


@pytest.mark.parametrize("case", list(MISREAD))
def test_misread_input_exits_2(case, tmp_path, capsys):
    name, field, edit = MISREAD[case]
    kind, obj = fixtures.build(name, field)
    target = tmp_path / f"{case}.json"
    serialize.save(kind, obj, target)
    jobj = serialize.read_file(target)
    edit(jobj)
    serialize.write_file(target, jobj)
    code, out, err = run(capsys, "validate", str(target), "--kind", kind)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def _set_map_entry(g, x, value):
    def edit(jobj):
        jobj["maps"][g][x] = value

    return edit


#: name -> (construct op, inputs, the input edited, edit); each edit once
#: loaded as a valid table or action, so the construction wrote its output
#: and exited 0, or ran it to a later failure and exit 1 (an empty table),
#: or was refused by a reader line that no other test reached
TABLE_MISREAD = {
    "table-bools": ("loop-algebra", ["table-c2"], 0, _set("table", [[0, True], [1, False]])),
    "table-entry-float": ("loop-algebra", ["table-c2"], 0, _set_entry("table", 0, 1, 1.7)),
    "table-labels-as-text": ("loop-algebra", ["table-c2"], 0, _set("labels", "ab")),
    "table-order-float": ("loop-algebra", ["table-c2"], 0, _set("order", 2.0)),
    "action-map-entry-true": ("power", ["hq-c3", "action-c2-on-c3"], 1, _set_map_entry(0, 1, True)),
    "action-map-entry-float": ("power", ["hq-c3", "action-c2-on-c3"], 1, _set_map_entry(1, 2, 1.2)),
    "action-carrier-kind-unknown": (
        "power", ["hq-c3", "action-c2-on-c3"], 1, _set("carrier_kind", "grp")
    ),
    "action-carrier-kind-number": (
        "power", ["hq-c3", "action-c2-on-c3"], 1, _set("carrier_kind", 5)
    ),
    "table-empty": ("loop-algebra", ["table-c2"], 0, lambda jobj: jobj.update(EMPTY_TABLE)),
    "table-rows-as-text": ("loop-algebra", ["table-c2"], 0, _set("table", "0110")),
    "table-order-not-the-label-count": ("loop-algebra", ["table-c2"], 0, _set("order", 3)),
    "action-actor-empty": (
        "power", ["hq-c3", "action-c2-on-c3"], 1,
        lambda jobj: jobj.update(actor=EMPTY_TABLE, maps=[]),
    ),
    "action-maps-fewer-than-actors": (
        "power", ["hq-c3", "action-c2-on-c3"], 1, lambda jobj: jobj.update(maps=jobj["maps"][:1])
    ),
}


@pytest.mark.parametrize("case", list(TABLE_MISREAD))
def test_misread_table_or_action_exits_2(case, fixture_dir, tmp_path, capsys):
    op, names, edited, edit = TABLE_MISREAD[case]
    paths = [str(fixture_dir / f"{name}.json") for name in names]
    jobj = serialize.read_file(paths[edited])
    edit(jobj)
    paths[edited] = str(tmp_path / f"{case}.json")
    serialize.write_file(paths[edited], jobj)
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, "construct", "--op", op, *paths, "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("error: ") and "Traceback" not in err


def test_field_tag_not_text_is_a_field_error(fixture_dir, tmp_path, capsys):
    jobj = serialize.read_file(fixture_dir / "hq-c2.json")
    jobj["field"] = 7
    target = tmp_path / "field-int.json"
    serialize.write_file(target, jobj)
    code, out, err = run(capsys, "validate", str(target), "--kind", "hq")
    assert code == 2 and out == ""
    assert err.startswith("error: bad hopf quasigroup: field tag 7 is not a string")


#: name -> (fixture, kind, edit); each edit once ended in an AttributeError
#: or IndexError traceback with exit 1
WRONGLY_TYPED = {
    "hq-field-not-text": ("hq-c2", "hq", _set("field", True)),
    "gchq-comult-not-an-object": ("gchq-power", "gchq", _set("comult", [])),
    "gchq-group-product-out-of-range": ("gchq-power", "gchq", _set_group_table([[0, 5], [1, 0]])),
    "yd-coaction-not-an-object": ("yd-trivial", "yd", _set("coaction", True)),
}


@pytest.mark.parametrize("case", list(WRONGLY_TYPED))
def test_wrongly_typed_input_exits_2_without_traceback(case, fixture_dir, tmp_path):
    name, kind, edit = WRONGLY_TYPED[case]
    jobj = serialize.read_file(fixture_dir / f"{name}.json")
    edit(jobj)
    target = tmp_path / f"{case}.json"
    serialize.write_file(target, jobj)
    src = str(Path(quasibraid.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-m", "quasibraid", "validate", str(target), "--kind", kind],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


# -- a closed stdout: the command's own exit code, no traceback ----------------

#: name -> (argv with inputs as <name>.json, exit code); identity-antipode
#: is hq-c3 with its antipode replaced by the identity, which fails
CLOSED_STDOUT = {
    "validate-pass": (["validate", "hq-o16.json", "--kind", "hq"], 0),
    "validate-fail": (["validate", "identity-antipode.json", "--kind", "hq"], 1),
    "braid-report": (["braid-report", "yd-crossed-s3.json", "yd-crossed-s3.json"], 0),
    "construct": (["construct", "--op", "mirror", "gchq-power.json", "--out", "mirror.json"], 0),
}


@pytest.mark.parametrize("case", list(CLOSED_STDOUT))
def test_closed_stdout_keeps_the_exit_code_without_traceback(case, fixture_dir, tmp_path):
    """A child whose stdout is a pipe with its read end already closed, as
    when a pipe into head has read its line: it ends with the exit code
    of the command, and stderr holds only the timing line."""
    jobj = serialize.read_file(fixture_dir / "hq-c3.json")
    jobj["antipode"] = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    serialize.write_file(tmp_path / "identity-antipode.json", jobj)
    argv, code = CLOSED_STDOUT[case]
    local = ("identity-antipode.json", "mirror.json")
    argv = [str((tmp_path if a in local else fixture_dir) / a) if a.endswith(".json") else a
            for a in argv]
    src = str(Path(quasibraid.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "quasibraid", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == code
    assert [line.split(" ")[0] for line in done.stderr.splitlines()] == ["elapsed:"]


def _set_labels(*path):
    def edit(jobj):
        for key in path[:-1]:
            jobj = jobj[key]
        jobj[path[-1]] = ["g", "g"]

    return edit


#: name -> (construct op, inputs, the input edited, edit, --grade); each
#: edit gives one group or loop two elements labelled g
DUPLICATE_LABELS = {
    "table": ("loop-algebra", ["table-c2"], 0, _set_labels("labels"), None),
    "action-actor": (
        "power", ["hq-c3", "action-c2-on-c3"], 1, _set_labels("actor", "labels"), None
    ),
    "yd-grading": (
        "yd-conjugate", ["yd-diagonal-power"], 0, _set_labels("base", "group", "labels"), "g"
    ),
}


@pytest.mark.parametrize("case", list(DUPLICATE_LABELS))
def test_duplicate_element_labels_exit_2(case, fixture_dir, tmp_path, capsys):
    """yd-conjugate --grade g once took the first of two elements labelled g."""
    op, names, edited, edit, grade = DUPLICATE_LABELS[case]
    paths = [str(fixture_dir / f"{name}.json") for name in names]
    jobj = serialize.read_file(paths[edited])
    edit(jobj)
    paths[edited] = str(tmp_path / f"{case}.json")
    serialize.write_file(paths[edited], jobj)
    out_path = tmp_path / "out.json"
    argv = ["construct", "--op", op, *paths, "--out", str(out_path)]
    code, out, err = run(capsys, *argv, *(["--grade", grade] if grade else []))
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("error: ") and "duplicate element label 'g'" in err


# -- JSON nested past the interpreter's recursion limit: exit 2, no traceback ----

#: how deep a file nests; json.loads raises RecursionError well before
DEPTH = 100_000

#: nesting kind -> file text
NESTED = {
    "objects": '{"a":' * DEPTH + "1" + "}" * DEPTH,
    "arrays": "[" * DEPTH + "]" * DEPTH,
}

#: reader -> argv with the nested file as deep.json
DEEP_READERS = {
    "validate": ["validate", "deep.json", "--kind", "hq"],
    "construct": ["construct", "--op", "loop-algebra", "deep.json", "--out", "out.json"],
    "braid-report": ["braid-report", "deep.json", "deep.json"],
    "yd-base": ["validate", "module.json", "--kind", "yd"],
}


@pytest.mark.parametrize("nesting", list(NESTED))
@pytest.mark.parametrize("reader", list(DEEP_READERS))
def test_deeply_nested_json_exits_2(reader, nesting, fixture_dir, tmp_path, capsys):
    """A file nested too deeply for json.loads once ended in a
    RecursionError traceback and exit 1."""
    deep = tmp_path / "deep.json"
    deep.write_text(NESTED[nesting], encoding="utf-8")
    module = serialize.read_file(fixture_dir / "yd-trivial.json")
    module["base"] = "deep.json"  # read from the module's own directory
    serialize.write_file(tmp_path / "module.json", module)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in DEEP_READERS[reader]]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and not (tmp_path / "out.json").exists()
    assert err.startswith(f"error: cannot read {deep}: ") and err.count("\n") == 1


# -- an input path that names no regular file: exit 2, nothing read ----------

def _child(argv):
    """A quasibraid child on argv, killed after 30 s."""
    src = str(Path(quasibraid.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, "-m", "quasibraid", *argv],
                          capture_output=True, text=True, env=env, timeout=30)


def _fifo(directory):
    os.mkfifo(directory / "base.fifo")
    return "base.fifo"


#: special file kind -> how the module file names it, made in the module's directory
SPECIAL_BASES = {"fifo": _fifo, "dev-null": lambda directory: os.devnull}

#: id suffix -> what a path spelling the special file ends in; a trailing
#: "/" or "/." once named the file itself
SPELLINGS = {"": "", "-slash": "/", "-slash-dot": "/."}

#: special file kind and spelling -> (how the module names it, its ending)
SPECIAL_NAMES = {
    kind + suffix: (make, ending)
    for kind, make in SPECIAL_BASES.items() for suffix, ending in SPELLINGS.items()
}

#: reader -> argv that reads the special file, named SPECIAL, as its main
#: input, or (yd-base) through the base path of module.json
SPECIAL_READERS = {
    "yd-base": ["validate", "module.json", "--kind", "yd"],
    "validate": ["validate", "SPECIAL", "--kind", "gchq"],
    "construct": ["construct", "--op", "mirror", "SPECIAL", "--out", "out.json"],
    "braid-report": ["braid-report", "SPECIAL", "SPECIAL"],
}


@pytest.mark.parametrize("reader", list(SPECIAL_READERS))
@pytest.mark.parametrize("kind", list(SPECIAL_NAMES))
def test_yd_base_that_is_not_a_regular_file_exits_2(kind, reader, fixture_dir, tmp_path):
    """A base named by a FIFO once blocked the reader until it was killed,
    and one named by a device was read to its end, which /dev/zero has
    not; a FIFO given as a command's own input blocked it alike, and
    still did when spelled with a trailing "/" or "/.".  Each
    child runs under a timeout, so a reader that still opens the FIFO
    fails this test instead of hanging the suite."""
    make, ending = SPECIAL_NAMES[kind]
    module = serialize.read_file(fixture_dir / "yd-trivial.json")
    module["base"] = make(tmp_path) + ending
    serialize.write_file(tmp_path / "module.json", module)
    base = os.path.join(tmp_path, module["base"])
    argv = [base if a == "SPECIAL" else a for a in SPECIAL_READERS[reader]]
    done = _child([str(tmp_path / a) if a.endswith(".json") else a for a in argv])
    assert (done.returncode, done.stdout) == (2, "")
    if ending:  # the system refuses the spelling when the reader opens it
        assert done.stderr.startswith(f"error: cannot read {base}: ")
        assert done.stderr.count("\n") == 1
    else:
        assert done.stderr == f"error: cannot read {base}: not a regular file\n"
    assert not (tmp_path / "out.json").exists()


#: reader -> argv that reads PATH, a regular file spelled as a directory
DIRECTORY_SPELLINGS = {
    "validate": ["validate", "PATH", "--kind", "gchq"],
    "construct": ["construct", "--op", "mirror", "PATH", "--out", "out.json"],
}


@pytest.mark.parametrize("ending", ["/", "/."], ids=["slash", "slash-dot"])
@pytest.mark.parametrize("reader", list(DIRECTORY_SPELLINGS))
def test_regular_file_spelled_as_a_directory_exits_2(reader, ending, fixture_dir, tmp_path,
                                                     capsys):
    """gchq-power.json/ names no file, but was once read as gchq-power.json
    and passed."""
    path = str(fixture_dir / "gchq-power.json") + ending
    argv = [path if a == "PATH" else a for a in DIRECTORY_SPELLINGS[reader]]
    code, out, err = run(capsys, *[str(tmp_path / a) if a == "out.json" else a for a in argv])
    assert (code, out) == (2, "") and not (tmp_path / "out.json").exists()
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


# -- an output path that cannot be written: exit 2, no traceback ---------------

#: command -> argv with fixtures as <name>.json and the output path as OUT
UNWRITABLE = {
    "validate-json": ["validate", "hq-c2.json", "--kind", "hq", "--json", "OUT"],
    "braid-report-json": ["braid-report", "yd-trivial.json", "yd-trivial.json", "--json", "OUT"],
    "construct-out": ["construct", "--op", "mirror", "gchq-power.json", "--out", "OUT"],
    "fixtures-out": ["fixtures", "--out", "OUT"],
}


@pytest.mark.parametrize("case", list(UNWRITABLE))
def test_output_path_that_cannot_be_written_exits_2(case, fixture_dir, tmp_path, capsys):
    """An output path under a regular file once ended in an OSError
    traceback and exit 1, and a --json path that cannot be written once
    came after the whole report on stdout: nothing is printed now."""
    blocker = tmp_path / "file"
    blocker.write_text("a regular file, not a directory\n", encoding="utf-8")
    target = blocker / "sub" if case == "fixtures-out" else blocker / "x.json"
    argv = [str(fixture_dir / a) if a.endswith(".json") else a for a in UNWRITABLE[case]]
    code, out, err = run(capsys, *[str(target) if a == "OUT" else a for a in argv])
    assert code == 2 and blocker.read_text(encoding="utf-8").startswith("a regular file")
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", [case for case in UNWRITABLE if case != "fixtures-out"])
def test_output_path_spelled_as_a_directory_exits_2(case, fixture_dir, tmp_path, capsys):
    """--out new.json/ and --json new.json/ once wrote the file new.json.
    (fixtures --out takes a directory, which new.json/ may name.)"""
    target = str(tmp_path / "new.json") + "/"
    argv = [str(fixture_dir / a) if a.endswith(".json") else a for a in UNWRITABLE[case]]
    code, out, err = run(capsys, *[target if a == "OUT" else a for a in argv])
    assert (code, out) == (2, "") and os.listdir(tmp_path) == []
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


# -- scalars and moduli too large to read in time: exit 2, quickly -------------

@pytest.mark.parametrize("literal", ["1e999999999", "1e-999999999"])
def test_q_scalar_with_a_huge_exponent_exits_2(literal, fixture_dir, tmp_path):
    """Fraction(literal) computes 10**999999999, so this 13-byte unit cell
    once stalled the loader until it was killed."""
    jobj = serialize.read_file(fixture_dir / "hq-c2.json")
    jobj["unit"][0] = literal
    target = tmp_path / "huge-exponent.json"
    serialize.write_file(target, jobj)
    done = _child(["validate", str(target), "--kind", "hq"])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_field_tag_of_5000_digits_exits_2(tmp_path, capsys):
    """int() of it once raised ValueError, a traceback and exit 1."""
    code, out, err = run(capsys, "fixtures", "--out", str(tmp_path / "lib"),
                         "--field", "GF:" + "7" * 5000)
    assert (code, out) == (2, "") and not (tmp_path / "lib").exists()
    assert err == "error: a GF modulus has at most 20 digits, not 5000\n"


def test_largest_64_bit_prime_field_validates(fixture_dir, tmp_path):
    """Trial division of 2^64 - 59 would take minutes; Miller-Rabin takes
    well under a millisecond."""
    kind, obj = fixtures.build("gchq-power", PrimeField(18446744073709551557))
    target = tmp_path / "gf-2-64-59.json"
    serialize.save(kind, obj, target)
    assert serialize.read_file(target)["field"] == "GF:18446744073709551557"
    done = _child(["validate", str(target), "--kind", kind])
    assert done.returncode == 0 and "result: PASS" in done.stdout
