"""Chain-built YD constructions and braiding laws against a matrix reference.

The reference below is the composed-matrix pipeline that yd_tensor,
yd_conjugate, braiding, braiding_inverse, trivial_module, mirror,
check_braiding_laws, check_braiding_inverse and validate_morphism used
before they were restated as Chains: every map is a LinMap built with
kron, compose, leg_perm and swap_map, and every law is compared with
map_witness.  It lives only here, as an independent cross-check; the
library has one path.  Constructions must agree as LinMaps (entries and
labels), and reports in render() and to_jobj(), so failing witnesses are
compared, not just verdicts.  A mutant changes one entry of a module map,
or of a base map for a law that only a base map breaks (BASE_MUTANTS).
"""

import random

import pytest

from quasibraid import fixtures
from quasibraid.errors import NotInvertible, NotStrict
from quasibraid.exactlin import LinMap, PrimeField, QQ, kron, kron_all, leg_perm, swap_map
from quasibraid.gchq import CrossedGCHQ, mirror
from quasibraid.hq import UnitalAlgebra
from quasibraid.report import Report
from quasibraid.yd import (
    YDModule,
    braiding,
    braiding_inverse,
    check_braiding_inverse,
    check_braiding_laws,
    trivial_module,
    validate_morphism,
    yd_conjugate,
    yd_direct_sum,
    yd_tensor,
)

GF7 = PrimeField(7)


# -- matrix reference -----------------------------------------------------------


def ref_require_strict(*modules):
    for m in modules:
        if not m.strict:
            raise NotStrict("braiding is defined on modules, not quasimodules")


def ref_trivial_module(base):
    field = base.field
    labels = (("1",),)
    i_v = LinMap.identity(field, labels)
    action = kron(base.counit, i_v)
    coaction = {r: kron(i_v, base.comp(r).unit_map()) for r in base.grades()}
    return YDModule(base, 0, labels, action, coaction, strict=True)


def ref_yd_tensor(v, w):
    base = v.base
    field = base.field
    p, q = v.grade, w.grade
    pq = base.mul(p, q)
    comp_p, comp_q = base.comp(p), base.comp(q)
    labels = tuple(a + b for a in v.labels for b in w.labels)
    i_v, i_w = v.ident(), w.ident()
    action = (
        kron(v.action, w.action)
        @ leg_perm(field, [comp_p.labels, comp_q.labels, v.labels, w.labels], (0, 2, 1, 3))
        @ kron_all(base.comult[(p, q)], i_v, i_w)
    )
    coaction = {}
    qi = base.inv(q)
    for r in base.grades():
        g = base.conj(q, r)
        comp_r, comp_g = base.comp(r), base.comp(g)
        i_r = LinMap.identity(field, comp_r.labels)
        twist = base.crossing[(qi, g)]
        coaction[r] = (
            kron_all(i_v, i_w, comp_r.mult_map() @ kron(i_r, twist))
            @ leg_perm(field, [v.labels, comp_g.labels, w.labels, comp_r.labels], (0, 2, 3, 1))
            @ kron(v.coaction[g], w.coaction[r])
        )
    strict = v.strict and w.strict
    if strict:
        comp_pq = base.comp(pq)
        i_t = LinMap.identity(field, labels)
        i_pq = LinMap.identity(field, comp_pq.labels)
        strict = action @ kron(i_pq, action) == action @ kron(comp_pq.mult_map(), i_t)
    return YDModule(base, pq, labels, action, coaction, strict)


def ref_yd_conjugate(v, q):
    base = v.base
    newgrade = base.conj(q, v.grade)
    qi = base.inv(q)
    i_v = v.ident()
    action = v.action @ kron(base.crossing[(qi, newgrade)], i_v)
    coaction = {}
    for r in base.grades():
        g = base.conj(qi, r)
        coaction[r] = kron(i_v, base.crossing[(q, g)]) @ v.coaction[g]
    return YDModule(base, newgrade, v.labels, action, coaction, v.strict)


def ref_braiding(v, w):
    ref_require_strict(v, w)
    base = v.base
    field = base.field
    qi = base.inv(w.grade)
    i_v, i_w = v.ident(), w.ident()
    return (
        swap_map(field, v.labels, w.labels)
        @ kron(i_v, w.action)
        @ kron_all(i_v, base.antipode[qi], i_w)
        @ kron(v.coaction[qi], i_w)
    )


def ref_braiding_inverse(v, w):
    ref_require_strict(v, w)
    field = v.base.field
    i_v, i_w = v.ident(), w.ident()
    return (
        kron(i_v, w.action)
        @ kron(v.coaction[w.grade], i_w)
        @ swap_map(field, w.labels, v.labels)
    )


def ref_check_braiding_inverse(v, w):
    field = v.base.field
    c = ref_braiding(v, w)
    ci = ref_braiding_inverse(v, w)
    rep = Report("braiding invertibility")
    rep.add_map_equality("BRAID-inverse-left", ci @ c, LinMap.identity(field, c.dom))
    rep.add_map_equality("BRAID-inverse-right", c @ ci, LinMap.identity(field, c.cod))
    try:
        rep.add_map_equality("BRAID-inverse-matrix", c.invert(), ci)
    except NotInvertible as exc:
        rep.add("BRAID-inverse-matrix", False, detail=f"braiding singular, rank {exc.rank}")
    return rep


def ref_check_braiding_laws(v, w, x=None, f=None, g=None):
    ref_require_strict(v, w)
    base = v.base
    field = base.field
    p, q = v.grade, w.grade
    pq = base.mul(p, q)
    rep = Report(f"braiding laws (grades {base.grade_label(p)},{base.grade_label(q)})")

    c = ref_braiding(v, w)
    source = ref_yd_tensor(v, w)
    target = ref_yd_tensor(ref_yd_conjugate(w, p), v)
    i_pq = LinMap.identity(field, base.comp(pq).labels)
    rep.add_map_equality("BRAID-H-linear", c @ source.action, target.action @ kron(i_pq, c))
    for r in base.grades():
        i_r = LinMap.identity(field, base.comp(r).labels)
        rep.add_map_equality(
            "BRAID-H-colinear",
            target.coaction[r] @ c,
            kron(c, i_r) @ source.coaction[r],
            detail=f"grade {base.grade_label(r)}",
        )
    for s in base.grades():
        rep.add_map_equality(
            "BRAID-2.4-conjugation",
            ref_braiding(ref_yd_conjugate(v, s), ref_yd_conjugate(w, s)),
            c,
            detail=f"conjugated by {base.grade_label(s)}",
        )
    if x is not None:
        ref_require_strict(x)
        i_v, i_w, i_x = v.ident(), w.ident(), x.ident()
        c_wx = ref_braiding(w, x)
        c_v_qx = ref_braiding(v, ref_yd_conjugate(x, q))
        rep.add_map_equality(
            "BRAID-comp-tensor-first",
            ref_braiding(source, x),
            kron(c_v_qx, i_w) @ kron(i_v, c_wx),
        )
        rep.add_map_equality(
            "BRAID-comp-tensor-second",
            ref_braiding(v, ref_yd_tensor(w, x)),
            kron(i_w, ref_braiding(v, x)) @ kron(c, i_x),
        )
        rep.add_map_equality(
            "BRAID-yang-baxter",
            ref_braiding(target, x) @ kron(c, i_x),
            kron(i_x, c) @ kron(c_v_qx, i_w) @ kron(i_v, c_wx),
        )
    if f is not None and g is not None:
        rep.add_map_equality(
            "BRAID-2.1-naturality",
            kron(g.map, f.map) @ c,
            ref_braiding(f.target, g.target) @ kron(f.map, g.map),
        )
    return rep


def ref_validate_morphism(m):
    base = m.source.base
    field = base.field
    rep = Report("yd morphism")
    i_p = LinMap.identity(field, base.comp(m.source.grade).labels)
    rep.add_map_equality(
        "YDM-linear", m.map @ m.source.action, m.target.action @ kron(i_p, m.map)
    )
    for r in base.grades():
        i_r = LinMap.identity(field, base.comp(r).labels)
        rep.add_map_equality(
            "YDM-colinear",
            m.target.coaction[r] @ m.map,
            kron(m.map, i_r) @ m.source.coaction[r],
            detail=f"grade {base.grade_label(r)}",
        )
    return rep


def ref_mirror(h):
    """The mirror's maps, without the validation of input and output."""
    field = h.field
    components = []
    for p in h.grades():
        src = h.comp(h.inv(p))
        components.append(UnitalAlgebra(field, src.dim, src.labels, dict(src.mult), src.unit))
    comult = {}
    for p in h.grades():
        for q in h.grades():
            qi = h.inv(q)
            twisted = h.conj(qi, h.inv(p))
            ident_qi = LinMap.identity(field, h.comp(qi).labels)
            comult[(p, q)] = kron(h.crossing[(q, twisted)], ident_qi) @ h.comult[(twisted, qi)]
    antipode = {p: h.crossing[(p, p)] @ h.antipode[h.inv(p)] for p in h.grades()}
    crossing = {(p, q): h.crossing[(p, h.inv(q))] for p in h.grades() for q in h.grades()}
    return CrossedGCHQ(field, h.grading, components, comult, h.counit, antipode, crossing)


# -- comparison -------------------------------------------------------------------


def assert_same(got, want):
    assert got.render() == want.render()
    assert got.to_jobj() == want.to_jobj()


def assert_same_module(got, want):
    """Equal as modules, which compares every map as a LinMap: entries and
    labels."""
    assert got.grade == want.grade and got.labels == want.labels
    assert got.action == want.action
    assert got.coaction == want.coaction
    assert got.strict == want.strict


def outcome(fn, *args):
    """fn(*args), or the NotStrict it raised."""
    try:
        return fn(*args)
    except NotStrict as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, NotStrict):
        assert isinstance(got, NotStrict) and str(got) == str(want)
    else:
        assert not isinstance(got, NotStrict)
        assert_same(got, want)


def law_suite(v, w, x, laws, inverse, morphism):
    """The braid-report suite on (v, w, x), with direct-sum inclusions as
    the naturality morphisms; each report, or the NotStrict it raised."""
    _, incl_v, _ = yd_direct_sum(v, v)
    _, incl_w, _ = yd_direct_sum(w, w)
    return [
        outcome(laws, v, w, x, incl_v, incl_w),
        outcome(inverse, v, w),
        outcome(inverse, w, x),
        outcome(morphism, incl_v),
        outcome(morphism, incl_w),
    ]


def assert_same_law_suite(v, w, x):
    got = law_suite(v, w, x, check_braiding_laws, check_braiding_inverse, validate_morphism)
    want = law_suite(
        v, w, x, ref_check_braiding_laws, ref_check_braiding_inverse, ref_validate_morphism
    )
    for g, wnt in zip(got, want):
        assert_same_outcome(g, wnt)
    return got


def assert_same_constructions(v, w):
    assert_same_module(yd_tensor(v, w), ref_yd_tensor(v, w))
    for q in v.base.grades():
        assert_same_module(yd_conjugate(v, q), ref_yd_conjugate(v, q))
    for build, ref in ((braiding, ref_braiding), (braiding_inverse, ref_braiding_inverse)):
        got, want = outcome(build, v, w), outcome(ref, v, w)
        if isinstance(want, NotStrict):
            assert isinstance(got, NotStrict)
        else:
            assert got == want  # entries and labels


# -- inputs -----------------------------------------------------------------------

FIELDS = pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
GCHQ_FIXTURES = ["gchq-trivial-c2", "gchq-s3", "gchq-power", "gchq-power-mirror"]
#: pairs of yd fixtures over the same base
YD_PAIRS = [
    ("yd-crossed-s3", "yd-crossed-s3"),
    ("yd-crossed-s3", "yd-crossed-s3-quasi"),
    ("yd-crossed-s3-quasi", "yd-crossed-s3"),
    ("yd-diagonal-power", "yd-diagonal-power"),
    ("yd-diagonal-power", "yd-trivial"),
    ("yd-trivial", "yd-diagonal-power"),
    ("yd-trivial", "yd-trivial"),
]


def half(field):
    """1/2 over Q (a non-integral witness value), 4 over GF(7)."""
    return field.div(field.one, field.scalar(2))


def perturbed(m, key, value):
    entries = dict(m.entries)
    entries[key] = value
    return LinMap(m.field, m.rows, m.cols, entries, m.dom, m.cod)


def mutant(v, part, key, value):
    """v with one entry of its action (part "action") or of its coaction at
    a grade (part r) set to value; not validated."""
    action, coaction = v.action, dict(v.coaction)
    if part == "action":
        action = perturbed(action, key, value)
    else:
        coaction[part] = perturbed(coaction[part], key, value)
    return YDModule(v.base, v.grade, v.labels, action, coaction, v.strict)


def sampled_mutants(name, count, seed):
    """count one-entry mutants of the fixture, spread over the action and
    every coaction: a random entry set to 1/2 (4 over GF(7)), or a nonzero
    entry dropped.  Named "<fixture>/<part>/<row>,<col>=<value>"."""
    v = fixtures.build(name)[1]
    rng = random.Random(seed)
    parts = ["action"] + list(v.base.grades())
    out = []
    for n in range(count):
        part = parts[n % len(parts)]
        m = v.action if part == "action" else v.coaction[part]
        if n % 3 == 2 and m.entries:
            key, value = rng.choice(sorted(m.entries)), "0"
        else:
            key, value = (rng.randrange(m.rows), rng.randrange(m.cols)), "1/2"
        out.append(f"{name}/{part}/{key[0]},{key[1]}={value}")
    return out


def base_mutant(v, family, key, entry, value):
    """v over a copy of its base in which one entry of the base map
    family[key] (comult, antipode or crossing) is set to value; neither
    is validated."""
    h = v.base
    maps = {name: dict(getattr(h, name)) for name in ("comult", "antipode", "crossing")}
    maps[family][key] = perturbed(maps[family][key], entry, value)
    base = CrossedGCHQ(h.field, h.grading, h.components, maps["comult"], h.counit,
                       maps["antipode"], maps["crossing"])
    return YDModule(base, v.grade, v.labels, v.action, v.coaction, v.strict)


def build_mutant(spec, field):
    """The mutant named spec (see sampled_mutants) over field.  A part
    "<family>:<key>" names a map of the base instead of the module, such
    as "crossing:1,0" for the crossing of the grade pair (1, 0) or
    "antipode:0" for the antipode of grade 0 (base_mutant)."""
    name, part, rest = spec.split("/", 2)
    where, value = rest.split("=")
    row, col = (int(n) for n in where.split(","))
    v = fixtures.build(name, field)[1]
    scalar = half(field) if value == "1/2" else field.parse(value)
    if ":" in part:
        family, key = part.split(":")
        key = tuple(map(int, key.split(","))) if "," in key else int(key)
        return base_mutant(v, family, key, (row, col), scalar)
    return mutant(v, part if part == "action" else int(part), (row, col), scalar)


MUTANTS = sampled_mutants("yd-crossed-s3", 22, 1) + sampled_mutants("yd-diagonal-power", 22, 2)
#: mutants of one entry of a base map, the module's own maps kept: the kill
#: of BRAID-2.4-conjugation below, and that of YD-4.8-equivalence (test_yd.py)
CROSSING_MUTANT = "yd-diagonal-power/crossing:1,0/0,0=0"
ANTIPODE_MUTANT = "yd-diagonal-power/antipode:0/0,0=2"
BASE_MUTANTS = [CROSSING_MUTANT, ANTIPODE_MUTANT]

#: check ID -> a mutant that makes it fail when fed to the law suite as
#: (v, v, v); before this table no test drove these IDs to fail
KILLS = {
    "BRAID-H-linear": "yd-crossed-s3/0/21,3=0",
    "BRAID-H-colinear": "yd-diagonal-power/0/1,1=1/2",
    "BRAID-comp-tensor-second": "yd-diagonal-power/0/0,0=1/2",
    "BRAID-yang-baxter": "yd-crossed-s3/0/7,1=0",
    # the unit of H_e acts on the trivial module by -1, so (1 1).x = -x but
    # 1.(1.x) = x: the braiding of V (x) V with X acts on x once, the two
    # braidings it factors through act twice
    "BRAID-comp-tensor-first": "yd-trivial/action/0,0=-1",
    # pi_g on H_e no longer fixes the unit, and the action and coaction of
    # a regrading by g read through it: the braiding of (V_g, W_g) differs
    # from that of (V, W), while the other laws read regradings by e only
    "BRAID-2.4-conjugation": CROSSING_MUTANT,
}


# -- differential tests ---------------------------------------------------------------


@FIELDS
@pytest.mark.parametrize("name", GCHQ_FIXTURES)
def test_trivial_module_and_mirror_match_matrix_reference(name, field):
    _, h = fixtures.build(name, field)
    assert_same_module(trivial_module(h), ref_trivial_module(h))
    got, want = mirror(h), ref_mirror(h)
    assert got == want  # every map as a LinMap, labels included


@FIELDS
@pytest.mark.parametrize("pair", YD_PAIRS, ids="-".join)
def test_constructions_match_matrix_reference(pair, field):
    v, w = (fixtures.build(name, field)[1] for name in pair)
    assert_same_constructions(v, w)


@FIELDS
@pytest.mark.parametrize("pair", YD_PAIRS, ids="-".join)
def test_law_suite_matches_matrix_reference(pair, field):
    v, w = (fixtures.build(name, field)[1] for name in pair)
    reports = assert_same_law_suite(v, w, w)
    if v.strict and w.strict:
        assert all(rep.passed for rep in reports)


@FIELDS
@pytest.mark.parametrize("spec", MUTANTS + BASE_MUTANTS)
def test_mutants_match_matrix_reference(spec, field):
    v = build_mutant(spec, field)
    assert_same_constructions(v, v)
    assert_same_law_suite(v, v, v)


def test_sample_raises_not_strict_on_some_mutants():
    """The tensor square of a mutant can fail YD-4.1, and the law suite
    then raises NotStrict; the sample holds both kinds."""
    strict = [yd_tensor(v, v).strict for v in (build_mutant(spec, QQ) for spec in MUTANTS)]
    assert 0 < strict.count(False) < len(strict)


@pytest.mark.parametrize("check_id", list(KILLS))
def test_kill_table(check_id):
    v = build_mutant(KILLS[check_id], QQ)
    rep = check_braiding_laws(v, v, v)
    assert check_id in rep.failed_ids()
    assert_same(rep, ref_check_braiding_laws(v, v, v))
