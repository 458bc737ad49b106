"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every comparison is
exact (tolerance zero); the only tolerances here are wall-clock budgets.
"""

import subprocess
import sys
import time

import pytest

from quasibraid import fixtures, serialize
from quasibraid.errors import QuasibraidError
from quasibraid.exactlin import LinMap, QQ, invert
from quasibraid.gchq import (
    CrossedGCHQ,
    mirror,
    validate_crossing,
    validate_gchq,
)
from quasibraid.hq import HopfQuasigroup, antipode_inverse_laws, validate_hopf_quasigroup
from quasibraid.tables import LoopTable, validate_ip_loop
from quasibraid.yd import (
    YDModule,
    braiding,
    braiding_inverse,
    check_braiding_inverse,
    check_braiding_laws,
    check_conjugation_coherence,
    crossed_set_module,
    diagonal_module,
    trivial_module,
    validate_yd,
    yd_conjugate,
    yd_direct_sum,
    yd_tensor,
)

from test_graded_legwise import reference_crossed_equivalence
from test_yd import redirect_coaction_entry


def conclude(number, description, ok):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_hopf_quasigroup_suite():
    start = time.monotonic()
    ok = True
    for builder in (fixtures.hq_c2, fixtures.hq_c3, fixtures.hq_s3):
        rep = validate_hopf_quasigroup(builder())
        ok = ok and rep.passed and rep.find("HQ-assoc").passed

    h = fixtures.hq_o16()
    rep = validate_hopf_quasigroup(h)
    ok = ok and rep.passed
    for check_id in ("HQ-2.5-left", "HQ-2.5-right", "HQ-2.6-left", "HQ-2.6-right"):
        ok = ok and rep.find(check_id).passed
    assoc = rep.find("HQ-assoc")
    ok = ok and not assoc.passed
    ok = ok and assoc.witness is not None and len(assoc.witness.domain) == 3
    inv_rep = antipode_inverse_laws(h)
    ok = ok and inv_rep.passed

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    conclude(1, f"hopf quasigroup suite incl. k[O16] ({elapsed:.2f}s < 5s)", ok)


def test_criterion_2_power_construction_suite():
    start = time.monotonic()
    h = fixtures.gchq_power()
    ok = validate_gchq(h).passed and validate_crossing(h).passed
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    conclude(2, f"power construction passes both validators ({elapsed:.2f}s < 5s)", ok)


def test_criterion_3_mirror_executable():
    power = fixtures.gchq_power()
    mirrored = mirror(power)
    ok = validate_gchq(mirrored).passed and validate_crossing(mirrored).passed
    trivially_graded = fixtures.gchq_trivial_c2()
    ok = ok and mirror(trivially_graded) == trivially_graded
    conclude(3, "mirror validates and degenerates to the identity on trivial grading", ok)


def test_criterion_4_yd_suite_and_crossed_equivalence():
    power = fixtures.gchq_power()
    crossed = fixtures.yd_crossed_s3()
    ok = validate_yd(trivial_module(power)).passed
    ok = ok and validate_yd(crossed).passed

    for module in (crossed, trivial_module(power), diagonal_module(power)):
        rep = reference_crossed_equivalence(module)
        ok = ok and rep.passed and rep.find("YD-4.8-equivalence").passed

    s3 = fixtures.s3()
    idx = {label: i for i, label in enumerate(s3.labels)}
    mutation_fixtures = [
        redirect_coaction_entry(crossed, idx["(0 1)"], idx["(0 2)"]),
        redirect_coaction_entry(crossed, idx["(0 1 2)"], idx["e"]),
        redirect_coaction_entry(crossed, idx["(1 2)"], idx["(0 1 2)"]),
    ]
    for mutant in mutation_fixtures:
        rep = reference_crossed_equivalence(mutant)
        failing = set(rep.failed_ids())
        ok = ok and {"YD-4.5-crossed", "YD-4.8-crossed", "YD-4.9-crossed"} <= failing
        ok = ok and rep.find("YD-4.8-equivalence").passed  # co-failure, not divergence
    conclude(4, "yd validators pass; crossed forms co-hold and co-fail", ok)


def test_criterion_5_tensor_and_conjugation():
    ok = True
    crossed = fixtures.yd_crossed_s3()
    s3_modules = [crossed, trivial_module(crossed.base)]
    for v in s3_modules:
        for w in s3_modules:
            ok = ok and validate_yd(yd_tensor(v, w)).passed

    power = fixtures.gchq_power()
    power_modules = [trivial_module(power), diagonal_module(power)]
    for v in power_modules:
        for w in power_modules:
            ok = ok and validate_yd(yd_tensor(v, w)).passed
        for q in power.grades():
            ok = ok and validate_yd(yd_conjugate(v, q)).passed
    for v in s3_modules:
        ok = ok and validate_yd(yd_conjugate(v, 0)).passed

    for v in power_modules:
        for w in power_modules:
            for s in power.grades():
                for t in power.grades():
                    ok = ok and check_conjugation_coherence(v, w, s, t).passed
    ok = ok and check_conjugation_coherence(crossed, crossed, 0, 0).passed
    conclude(5, "tensor/conjugation outputs validate; coherence equalities exact", ok)


def test_criterion_6_braiding_laws_on_s3():
    start = time.monotonic()
    v = fixtures.yd_crossed_s3()
    s3 = fixtures.s3()
    n = s3.order

    _, incl_f, _ = yd_direct_sum(v, v)
    _, incl_g, _ = yd_direct_sum(v, v)
    rep = check_braiding_laws(v, v, v, incl_f, incl_g)
    ok = rep.passed
    required_ids = {
        "BRAID-H-linear",
        "BRAID-H-colinear",
        "BRAID-comp-tensor-first",
        "BRAID-comp-tensor-second",
        "BRAID-yang-baxter",
        "BRAID-2.4-conjugation",
        "BRAID-2.1-naturality",
    }
    ok = ok and required_ids <= {c.check_id for c in rep.checks}

    ok = ok and check_braiding_inverse(v, v).passed
    c = braiding(v, v)
    ok = ok and invert(c) == braiding_inverse(v, v)
    expected = {
        (s3.mul(s3.mul(s3.inv(x), y), x) * n + x, x * n + y): QQ.one
        for x in range(n)
        for y in range(n)
    }
    ok = ok and c.entries == expected

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    conclude(6, f"braiding law suite on crossed set of S3 ({elapsed:.2f}s < 30s)", ok)


def _mutations():
    """Ten single-structure-constant mutations with the axiom families
    their mutated datum participates in."""
    field = QQ
    muts = []

    def hq_validators(h):
        rep = validate_hopf_quasigroup(h)
        rep.merge(antipode_inverse_laws(h))
        return rep

    def gchq_validators(h):
        rep = validate_gchq(h)
        rep.merge(validate_crossing(h))
        return rep

    h = fixtures.hq_c2()

    def altered_hq(**kwargs):
        parts = {
            "algebra": h.algebra,
            "comult": h.comult,
            "counit": h.counit,
            "antipode": h.antipode,
        }
        parts.update(kwargs)
        return HopfQuasigroup(field, **parts)

    def edited(linmap, key, value):
        entries = dict(linmap.entries)
        if value == field.zero:
            entries.pop(key, None)
        else:
            entries[key] = value
        return LinMap(field, linmap.rows, linmap.cols, entries, linmap.dom, linmap.cod)

    muts.append((
        "zero one antipode entry of k[C2]",
        altered_hq(antipode=edited(h.antipode, (0, 0), field.zero)),
        hq_validators,
        ("HQ-2.5", "HQ-2.6"),
    ))

    from quasibraid.hq import UnitalAlgebra

    bad_mult = dict(h.algebra.mult)
    del bad_mult[(1, 1, 0)]
    bad_mult[(1, 1, 1)] = field.one
    muts.append((
        "redirect the product g*g in k[C2]",
        altered_hq(algebra=UnitalAlgebra(field, 2, h.labels, bad_mult, h.algebra.unit)),
        hq_validators,
        ("HQ-2.5", "HQ-2.6"),
    ))

    muts.append((
        "zero the counit on the non-identity basis element of k[C2]",
        altered_hq(counit=edited(h.counit, (0, 1), field.zero)),
        hq_validators,
        ("HQ-counit",),
    ))

    moved = edited(edited(h.comult, (3, 1), field.zero), (1, 1), field.one)
    muts.append((
        "move one comultiplication entry of k[C2]",
        altered_hq(comult=moved),
        hq_validators,
        ("HQ-counit",),
    ))

    o16 = fixtures.o16()
    table = [list(row) for row in o16.table]
    table[1][2], table[1][3] = table[1][3], table[1][2]
    muts.append((
        "swap two entries in one row of the octonion unit loop table",
        LoopTable(o16.labels, table),
        validate_ip_loop,
        ("LOOP-",),
    ))

    g = fixtures.gchq_power()

    def altered_gchq(**kwargs):
        parts = {
            "grading": g.grading,
            "components": g.components,
            "comult": g.comult,
            "counit": g.counit,
            "antipode": g.antipode,
            "crossing": g.crossing,
        }
        parts.update(kwargs)
        return CrossedGCHQ(field, **parts)

    dropped = dict(g.comult)
    dropped[(0, 1)] = edited(g.comult[(0, 1)], (1 * 3 + 1, 1), field.zero)
    muts.append((
        "zero one structure constant of a comultiplication in the power construction",
        altered_gchq(comult=dropped),
        gchq_validators,
        ("GHQ-3.1", "GHQ-3.2"),
    ))

    bent = dict(g.antipode)
    bent[1] = edited(edited(g.antipode[1], (2, 1), field.zero), (1, 1), field.one)
    muts.append((
        "redirect one antipode entry in the power construction",
        altered_gchq(antipode=bent),
        gchq_validators,
        ("GHQ-3.3", "GHQ-3.4", "GHQ-antipode"),
    ))

    twisted = dict(g.crossing)
    twisted[(1, 0)] = edited(g.crossing[(1, 0)], (2, 1), field.scalar(2))
    muts.append((
        "scale one crossing entry in the power construction",
        altered_gchq(crossing=twisted),
        gchq_validators,
        ("CROSS-",),
    ))

    v = fixtures.yd_crossed_s3()
    s3 = fixtures.s3()
    idx = {label: i for i, label in enumerate(s3.labels)}
    hstar, xstar = idx["(0 1)"], idx["(0 1 2)"]
    col = hstar * 6 + xstar
    correct_row = s3.mul(s3.mul(hstar, xstar), s3.inv(hstar))
    bad_action = edited(
        edited(v.action, (correct_row, col), field.zero),
        ((correct_row + 1) % 6, col),
        field.one,
    )
    muts.append((
        "redirect one action entry of the crossed-set module",
        YDModule(v.base, v.grade, v.labels, bad_action, v.coaction, v.strict),
        validate_yd,
        ("YD-4.1", "YD-4.4", "YD-4.5"),
    ))

    muts.append((
        "redirect one coaction entry of the crossed-set module",
        redirect_coaction_entry(v, idx["(0 1)"], idx["(0 2)"]),
        validate_yd,
        ("YD-4.5",),
    ))
    return muts


def test_criterion_7_mutation_sensitivity():
    ok = True
    for description, mutant, validator, expected_prefixes in _mutations():
        rep = validator(mutant)
        caught = not rep.passed
        matched = any(
            check_id.startswith(expected_prefixes) for check_id in rep.failed_ids()
        )
        if not (caught and matched):
            print(f"  undetected mutation: {description}; failing={rep.failed_ids()}")
        ok = ok and caught and matched
    conclude(7, "all 10 single-constant mutations are caught with matching tags", ok)


def test_criterion_8_determinism_and_round_trip(tmp_path):
    ok = True

    # structural and byte round trips for every fixture
    for name in sorted(fixtures.REGISTRY):
        kind, obj = fixtures.build(name)
        path = tmp_path / f"{name}.json"
        serialize.save(kind, obj, path)
        load_kind = {"table": "loop" if name == "table-o16" else "group"}.get(kind, kind)
        back = serialize.load(load_kind, path)
        ok = ok and back == obj
        path2 = tmp_path / f"{name}.again.json"
        serialize.save(kind, back, path2)
        ok = ok and path.read_bytes() == path2.read_bytes()

    # in-process report determinism
    h = fixtures.gchq_power()
    rep_a = validate_gchq(h)
    rep_b = validate_gchq(h)
    ok = ok and rep_a.render() == rep_b.render()
    ok = ok and serialize.dump_bytes(rep_a.to_jobj()) == serialize.dump_bytes(rep_b.to_jobj())

    # subprocess-level byte determinism of the CLI
    module_path = tmp_path / "yd-crossed-s3.json"
    serialize.save("yd", fixtures.yd_crossed_s3(), module_path)
    cmd = [
        sys.executable,
        "-m",
        "quasibraid",
        "validate",
        str(module_path),
        "--kind",
        "yd",
    ]
    run_a = subprocess.run(cmd, capture_output=True, check=True)
    run_b = subprocess.run(cmd, capture_output=True, check=True)
    ok = ok and run_a.stdout == run_b.stdout
    conclude(8, "byte-identical reports and identity round trips", ok)
