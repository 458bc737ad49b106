"""Yetter-Drinfeld modules: validation, constructions, conjugation, sums."""

import pytest

from quasibraid.errors import (
    BaseMismatch,
    GradeMismatch,
    InvalidInput,
    MalformedStructure,
    NotAGroupAlgebra,
)
from quasibraid.exactlin import K_LABELS, LinMap, PrimeField, QQ
from quasibraid.fixtures import (
    REGISTRY, build, gchq_power, yd_crossed_s3, yd_diagonal_power, yd_trivial,
)
from quasibraid.report import Report, Witness, map_witness
from quasibraid.gchq import CrossedGCHQ, legs_map, map_legs
from quasibraid.hq import HopfQuasigroup, UnitalAlgebra, from_hopf_quasigroup, group_algebra
from quasibraid.tables import GroupTable
from quasibraid.yd import (
    YDModule,
    YDMorphism,
    check_conjugation_coherence,
    conjugation_coherence,
    crossed_set_module,
    diagonal_module,
    module_legs,
    trivial_module,
    validate_morphism,
    validate_yd,
    yd_conjugate,
    yd_direct_sum,
    yd_tensor,
)
from crosschecks import search_dim1_modules
from test_braid_legwise import ANTIPODE_MUTANT, build_mutant, ref_yd_conjugate, ref_yd_tensor
from test_graded_legwise import AntipodeNotInvertible, reference_crossed_equivalence
from test_hq_legwise import chein_loop


@pytest.fixture(scope="module")
def power_base():
    return gchq_power()


@pytest.fixture(scope="module")
def diag_power(power_base):
    return diagonal_module(power_base)


def replace_coaction(v, coaction):
    return YDModule(v.base, v.grade, v.labels, v.action, coaction, v.strict)


def redirect_coaction_entry(v, x_star, y):
    """Move the diagonal coaction output of basis x_star to basis y; a
    single-structure-constant mutation of the crossed-set module."""
    rho = v.coaction[0]
    n = v.dim
    entries = {k: val for k, val in rho.entries.items() if k != (x_star * n + x_star, x_star)}
    entries[(x_star * n + y, x_star)] = v.base.field.one
    mutated = LinMap(v.base.field, rho.rows, rho.cols, entries, rho.dom, rho.cod)
    return replace_coaction(v, {0: mutated})


# -- validation -------------------------------------------------------------


def test_trivial_module_passes(gchq_trivial_c2, power_base):
    for base in (gchq_trivial_c2, power_base):
        t = trivial_module(base)
        assert t.dim == 1 and t.grade == 0 and t.strict
        assert validate_yd(t).passed


def test_crossed_set_modules_pass():
    for group in (GroupTable.cyclic(2), GroupTable.cyclic(4), GroupTable.symmetric(3)):
        base = from_hopf_quasigroup(group_algebra(group, QQ))
        v = crossed_set_module(base)
        assert v.strict and v.dim == group.order
        assert validate_yd(v).passed


def test_crossed_set_action_is_conjugation(yd_crossed_s3, s3):
    n = s3.order
    for g in range(n):
        for x in range(n):
            target = s3.mul(s3.mul(g, x), s3.inv(g))
            assert yd_crossed_s3.action.column(g * n + x) == {target: QQ.one}


def test_crossed_condition_instance_on_group_likes(yd_crossed_s3, s3):
    """Table-level evaluation of the crossed law: both sides send h (x) x
    to h x h^-1 (x) h x on group-like basis vectors."""
    from quasibraid.yd import _crossed_condition_sides

    lhs, rhs = _crossed_condition_sides(yd_crossed_s3, [0])
    n = s3.order
    for h in range(n):
        for x in range(n):
            conj = s3.mul(s3.mul(h, x), s3.inv(h))
            expected = {conj * n + s3.mul(h, x): QQ.one}
            col = h * n + x
            assert lhs.column(col) == expected
            assert rhs.column(col) == expected


def test_trivial_coaction_is_still_a_module(yd_crossed_s3):
    """Replacing the diagonal coaction by v -> v (x) 1 yields the module
    with trivial coaction, which satisfies every law (the crossed
    condition degenerates to unitality)."""
    base = yd_crossed_s3.base
    n = yd_crossed_s3.dim
    cod = yd_crossed_s3.coaction[0].cod
    trivial_coaction = LinMap(
        QQ, n * n, n, {(x * n, x): QQ.one for x in range(n)}, yd_crossed_s3.labels, cod
    )
    mutant = replace_coaction(yd_crossed_s3, {0: trivial_coaction})
    assert validate_yd(mutant).passed


def test_redirected_coaction_fails_crossed_condition(yd_crossed_s3, s3):
    idx = {label: i for i, label in enumerate(s3.labels)}
    mutant = redirect_coaction_entry(yd_crossed_s3, idx["(0 1)"], idx["(0 2)"])
    rep = validate_yd(mutant)
    assert not rep.passed
    assert "YD-4.5-crossed" in rep.failed_ids()
    check = rep.find("YD-4.5-crossed")
    assert check.witness is not None


def test_crossed_set_requires_group_algebra(hq_o16, power_base):
    with pytest.raises(NotAGroupAlgebra):
        crossed_set_module(from_hopf_quasigroup(hq_o16))
    with pytest.raises(NotAGroupAlgebra):
        crossed_set_module(power_base)


def test_crossed_set_module_needs_the_identity_as_unit():
    """k[C2] with unit e_a in place of e_e: the product is still the group
    table, but the unit vector is not the group identity."""
    h = group_algebra(GroupTable.cyclic(2), QQ)
    algebra = UnitalAlgebra(QQ, 2, h.labels, h.algebra.mult, (0, 1))
    h = HopfQuasigroup(QQ, algebra, h.comult, h.counit, h.antipode)
    with pytest.raises(NotAGroupAlgebra, match="unit vector is not the group identity"):
        crossed_set_module(h.graded)


def monoid_base():
    """k[M] for the monoid M = {e, a} with a a = a, embedded unchecked:
    associative with identity, but a has no inverse."""
    labels = (("e",), ("a",))
    mult = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 1): 1}
    algebra = UnitalAlgebra(QQ, 2, labels, mult, (1, 0))
    pairs = tuple(x + y for x in labels for y in labels)
    comult = LinMap(QQ, 4, 2, {(0, 0): 1, (3, 1): 1}, labels, pairs)
    counit = LinMap(QQ, 1, 2, {(0, 0): 1, (0, 1): 1}, labels, K_LABELS)
    h = HopfQuasigroup(QQ, algebra, comult, counit, LinMap.identity(QQ, labels))
    return h.graded


def test_monoid_algebra_is_not_a_group_algebra():
    base = monoid_base()
    with pytest.raises(NotAGroupAlgebra):
        crossed_set_module(base)
    with pytest.raises(InvalidInput):
        diagonal_module(base)


def test_diagonal_module_over_power_base(diag_power):
    assert diag_power.grade == 0 and diag_power.dim == 3
    assert validate_yd(diag_power).passed


def test_malformed_module_rejected(yd_crossed_s3):
    with pytest.raises(MalformedStructure):
        YDModule(
            yd_crossed_s3.base,
            yd_crossed_s3.grade,
            yd_crossed_s3.labels,
            LinMap.identity(QQ, yd_crossed_s3.labels),  # wrong action shape
            yd_crossed_s3.coaction,
            True,
        )


@pytest.mark.parametrize("grade", [-2, 5], ids=["negative", "past-the-end"])
def test_grade_outside_the_base_grading_rejected(grade):
    """A grade is an element index of the base grading: -2 is not read
    from the end of the group, and 5 on |G| = 2 is not an IndexError."""
    v = yd_diagonal_power()
    with pytest.raises(MalformedStructure, match=rf"^grade {grade} outside \[0, 2\)$"):
        YDModule(v.base, grade, v.labels, v.action, v.coaction, True)


# -- tensor product ----------------------------------------------------------


def test_tensor_of_trivial_modules_is_trivial(power_base):
    t = trivial_module(power_base)
    tt = yd_tensor(t, t)
    assert tt.dim == 1 and tt.grade == 0 and tt.strict
    assert validate_yd(tt).passed
    assert tt.action.same_entries(t.action)
    for r in power_base.grades():
        assert tt.coaction[r].same_entries(t.coaction[r])


def test_tensor_coaction_formula_on_group_likes(yd_crossed_s3, s3):
    vw = yd_tensor(yd_crossed_s3, yd_crossed_s3)
    assert validate_yd(vw).passed
    n = s3.order
    rho = vw.coaction[0]
    for x in range(n):
        for y in range(n):
            col = x * n + y
            expected_row = (x * n + y) * n + s3.mul(y, x)  # x (x) y (x) yx
            assert rho.column(col) == {expected_row: QQ.one}


def test_tensor_with_trivial_keeps_structure_data(yd_crossed_s3):
    base = yd_crossed_s3.base
    t = trivial_module(base)
    right = yd_tensor(yd_crossed_s3, t)
    left = yd_tensor(t, yd_crossed_s3)
    for tensored in (right, left):
        assert tensored.dim == yd_crossed_s3.dim
        assert tensored.action.same_entries(yd_crossed_s3.action)
        assert tensored.coaction[0].same_entries(yd_crossed_s3.coaction[0])


def test_tensor_grade_multiplies(power_base, diag_power):
    t = trivial_module(power_base)
    assert yd_tensor(diag_power, t).grade == power_base.mul(diag_power.grade, t.grade)


def test_tensor_requires_same_base(yd_crossed_s3, power_base):
    with pytest.raises(BaseMismatch):
        yd_tensor(yd_crossed_s3, trivial_module(power_base))


def test_tensor_over_power_base_validates(power_base, diag_power):
    vw = yd_tensor(diag_power, diag_power)
    assert vw.strict
    assert validate_yd(vw).passed


# -- conjugation ------------------------------------------------------------


def test_conjugate_by_identity_is_identity(yd_crossed_s3):
    assert yd_conjugate(yd_crossed_s3, 0) == yd_crossed_s3


def test_conjugate_over_trivial_grading_is_identity(yd_crossed_s3):
    assert yd_conjugate(yd_crossed_s3, 0) == yd_crossed_s3


def test_conjugate_trivial_module_stays_trivial(power_base):
    t = trivial_module(power_base)
    for q in power_base.grades():
        assert yd_conjugate(t, q) == t  # counit absorbs the crossing


def test_conjugate_diag_module_validates_each_grade(power_base, diag_power):
    for q in power_base.grades():
        c = yd_conjugate(diag_power, q)
        assert c.grade == power_base.conj(q, diag_power.grade)
        assert validate_yd(c).passed


def test_conjugation_coherence_exhaustive(power_base, diag_power):
    t = trivial_module(power_base)
    for s in power_base.grades():
        for tt in power_base.grades():
            rep = check_conjugation_coherence(diag_power, t, s, tt)
            assert rep.passed
            rep = check_conjugation_coherence(diag_power, diag_power, s, tt)
            assert rep.passed


def _doubled_crossing(v):
    """v over a copy of its base whose crossing pi_g is doubled on every
    component for g != e, so that pi_g pi_g != pi_e and coherence fails."""
    b = v.base
    two = b.field.scalar(2)
    crossing = {(g, q): m.scale(two) if g else m for (g, q), m in b.crossing.items()}
    base = CrossedGCHQ(
        b.field, b.grading, b.components, b.comult, b.counit, b.antipode, crossing
    )
    return YDModule(base, v.grade, v.labels, v.action, v.coaction, v.strict)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize(
    "pair", ["crossed-s3", "diagonal-power", "diagonal-trivial", "doubled-crossing"]
)
def test_conjugation_coherence_suite_matches_per_pair_loop(field, pair):
    if pair == "crossed-s3":
        v = w = yd_crossed_s3(field)
    elif pair == "diagonal-power":
        v = w = yd_diagonal_power(field)
    elif pair == "diagonal-trivial":
        v = yd_diagonal_power(field)
        w = yd_trivial(field)
    else:
        v = _doubled_crossing(yd_diagonal_power(field))
        w = trivial_module(v.base)
    loop = Report("conjugation coherence")
    for s in v.base.grades():
        for t in v.base.grades():
            loop.merge(check_conjugation_coherence(v, w, s, t))
    suite = conjugation_coherence(v, w)
    assert suite.render() == loop.render()
    assert suite.to_jobj() == loop.to_jobj()
    if pair == "doubled-crossing":
        assert not suite.passed


def test_conjugation_coherence_trivial_cases(yd_crossed_s3):
    rep = check_conjugation_coherence(yd_crossed_s3, yd_crossed_s3, 0, 0)
    assert rep.passed


# -- conjugation coherence against the structure-data comparator --------------


def structure_data_witness(a, b):
    """First discrepancy between the structure data of two built modules:
    the grade, the labels, the action, then the coaction of each grade,
    each map compared with map_witness.  Conjugation coherence compared
    built modules this way before it compared families of Chains; it
    lives only here."""
    if a.grade != b.grade:
        return Witness(
            ("grade",),
            (),
            a.base.grade_label(a.grade),
            b.base.grade_label(b.grade),
        )
    if a.labels != b.labels:
        return Witness(("labels",), (), str(a.dim), str(b.dim))
    w = map_witness(a.action, b.action)
    if w is not None:
        return Witness(("action",) + w.domain, w.codomain, w.lhs, w.rhs)
    for r in a.base.grades():
        w = map_witness(a.coaction[r], b.coaction[r])
        if w is not None:
            return Witness(
                (f"coaction@{a.base.grade_label(r)}",) + w.domain, w.codomain, w.lhs, w.rhs
            )
    return None


def reference_coherence(rep, v, w, pairs):
    """The per-pair loop over pairs [(s, [t, ...]), ...]: every module
    compared is built, by the composed-matrix reference of
    test_braid_legwise, and compared with structure_data_witness."""
    for s, ts in pairs:
        tensor = structure_data_witness(
            ref_yd_conjugate(ref_yd_tensor(v, w), s),
            ref_yd_tensor(ref_yd_conjugate(v, s), ref_yd_conjugate(w, s)),
        )
        for t in ts:
            witness = structure_data_witness(
                ref_yd_conjugate(v, v.base.mul(s, t)), ref_yd_conjugate(ref_yd_conjugate(v, t), s)
            )
            rep.add("CONJ-4.6-iterated", witness is None, witness=witness)
            rep.add("CONJ-4.6-tensor", tensor is None, witness=tensor)
    return rep


def chein_graded_base(field):
    """A base graded by Chein's Moufang loop M(S3,2) read as a GroupTable,
    which is not associative: 12 one-dimensional components labelled
    ("1",), and every map 1.  Regrading by st and by t then s can land in
    different grades over it."""
    loop = chein_loop(GroupTable.symmetric(3))
    grading = GroupTable(loop.labels, loop.table)
    one = field.one
    comps = [UnitalAlgebra(field, 1, [("1",)], {(0, 0, 0): one}, [one]) for _ in loop.labels]
    maps = {
        family: {key: legs_map(field, {(0, 0): one}, legs) for key, legs in keyed.items()}
        for family, keyed in map_legs(grading, comps).items()
    }
    return CrossedGCHQ(
        field, grading, comps, maps["comult"], maps["counit"][None], maps["antipode"],
        maps["crossing"],
    )


def one_dimensional(base, grade):
    """The strict module on one basis vector at grade, every map 1."""
    field, labels, one = base.field, (("1",),), {(0, 0): base.field.one}
    legs = module_legs(base, grade, labels)
    action = legs_map(field, one, legs["action"][None])
    coaction = {r: legs_map(field, one, pair) for r, pair in legs["coaction"].items()}
    return YDModule(base, grade, labels, action, coaction, True)


YD_NAMES = sorted(name for name, (kind, _) in REGISTRY.items() if kind == "yd")

#: every pair of yd fixtures over one base, and pairs whose coherence fails:
#: over a base with a doubled crossing, and over the Chein-graded base
#: (grade witnesses in the iterated check, and in the tensor check too for
#: modules of grades 1 and 7)
COHERENCE_PAIRS = [
    f"{a}/{b}" for a in YD_NAMES for b in YD_NAMES
    if build(a)[1].base == build(b)[1].base
] + ["doubled/trivial", "doubled/doubled", "chein/1,1", "chein/1,7"]


def coherence_pair(name, field):
    a, b = name.split("/")
    if a == "doubled":
        v = _doubled_crossing(yd_diagonal_power(field))
        return v, trivial_module(v.base) if b == "trivial" else v
    if a == "chein":
        base = chein_graded_base(field)
        return tuple(one_dimensional(base, int(g)) for g in b.split(","))
    return build(a, field)[1], build(b, field)[1]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("pair", COHERENCE_PAIRS)
def test_coherence_matches_the_structure_data_comparator(field, pair):
    """conjugation_coherence and check_conjugation_coherence, which compare
    families of Chains without building the modules compared, give the
    bytes of the per-pair loop that builds them all and compares their
    structure data."""
    v, w = coherence_pair(pair, field)
    grades, label = list(v.base.grades()), v.base.grade_label
    suite = conjugation_coherence(v, w)
    want = reference_coherence(Report("conjugation coherence"), v, w, [(s, grades) for s in grades])
    assert suite.render() == want.render()
    assert suite.to_jobj() == want.to_jobj()
    assert suite.passed == (pair.split("/")[0] not in ("doubled", "chein"))
    for s in grades:
        for t in grades:
            rep = check_conjugation_coherence(v, w, s, t)
            subject = f"conjugation coherence (s={label(s)}, t={label(t)})"
            want = reference_coherence(Report(subject), v, w, [(s, [t])])
            assert rep.render() == want.render()
            assert rep.to_jobj() == want.to_jobj()


def test_coherence_reports_a_grade_witness_over_a_non_group_grading():
    """braid-report does not validate a base's grading, so it need not be a
    group.  Over the Chein-graded base, regrading the module of grade 1 by
    st and by t then s lands in different grades for 72 of the 144 pairs:
    those iterated checks fail with a grade witness, and no family is built
    for them."""
    v = one_dimensional(chein_graded_base(QQ), 1)
    rep = conjugation_coherence(v, v)
    failed = [c for c in rep.checks if not c.passed]
    assert len(rep.checks) == 288 and len(failed) == 72
    assert {c.check_id for c in failed} == {"CONJ-4.6-iterated"}
    assert {c.witness.domain for c in failed} == {("grade",)}
    assert failed[0].witness.describe() == "at (grade) -> (): (1 2) != (0 2)"


# -- crossed-condition equivalence -------------------------------------------


def test_crossed_equivalence_on_fixtures(yd_crossed_s3, power_base, diag_power):
    for module in (yd_crossed_s3, trivial_module(power_base), diag_power):
        rep = reference_crossed_equivalence(module)
        assert rep.passed
        assert rep.find("YD-4.8-equivalence").passed


def test_crossed_equivalence_co_fails_on_mutants(yd_crossed_s3, s3):
    idx = {label: i for i, label in enumerate(s3.labels)}
    mutants = [
        redirect_coaction_entry(yd_crossed_s3, idx["(0 1)"], idx["(0 2)"]),
        redirect_coaction_entry(yd_crossed_s3, idx["(0 1 2)"], idx["e"]),
        redirect_coaction_entry(yd_crossed_s3, idx["(1 2)"], idx["(0 1 2)"]),
    ]
    for mutant in mutants:
        rep = reference_crossed_equivalence(mutant)
        failing = set(rep.failed_ids())
        assert "YD-4.5-crossed" in failing
        assert "YD-4.8-crossed" in failing
        assert "YD-4.9-crossed" in failing
        # all three forms co-fail, so the equivalence itself stands
        assert rep.find("YD-4.8-equivalence").passed


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_an_antipode_mutant_kills_the_crossed_equivalence(field):
    """S_e doubled on the unit of H_e: the plain crossed law YD-4.5 reads
    no antipode and still holds, while the two forms through S^-1 fail at
    coaction grade e, so the forms diverge and YD-4.8-equivalence fails."""
    rep = reference_crossed_equivalence(build_mutant(ANTIPODE_MUTANT, field))
    assert rep.failed_ids() == ["YD-4.8-crossed", "YD-4.9-crossed", "YD-4.8-equivalence"]
    for form in ("YD-4.8-crossed", "YD-4.9-crossed"):
        assert rep.find(form).detail == "coaction grade e"
    assert rep.find("YD-4.8-equivalence").detail == (
        "EQUIVALENCE VIOLATED: YD-4.5-crossed=pass, YD-4.8-crossed=fail, YD-4.9-crossed=fail"
    )


def test_crossed_equivalence_needs_an_invertible_antipode():
    """S_e with its unit entry zeroed is singular, and two of the three
    forms read S_e^-1, so the check refuses to run."""
    v = build_mutant("yd-diagonal-power/antipode:0/0,0=0", QQ)
    with pytest.raises(AntipodeNotInvertible, match="antipode at grade e has rank 2"):
        reference_crossed_equivalence(v)


# -- direct sums and morphisms ------------------------------------------------


def test_direct_sum_of_trivials(power_base):
    t = trivial_module(power_base)
    total, incl_a, incl_b = yd_direct_sum(t, t)
    assert total.dim == 2
    assert validate_yd(total).passed
    assert incl_a.map.column(0) == {0: QQ.one}
    assert incl_b.map.column(0) == {1: QQ.one}


def test_direct_sum_crossed_with_trivial(yd_crossed_s3):
    t = trivial_module(yd_crossed_s3.base)
    total, incl_v, incl_t = yd_direct_sum(yd_crossed_s3, t)
    assert total.dim == 7 and total.strict
    assert validate_yd(total).passed
    assert validate_morphism(incl_v).passed
    assert validate_morphism(incl_t).passed


def test_projection_after_inclusion_is_identity(yd_crossed_s3):
    total, incl, _ = yd_direct_sum(yd_crossed_s3, yd_crossed_s3)
    n = yd_crossed_s3.dim
    proj = YDMorphism(
        total,
        yd_crossed_s3,
        LinMap(
            QQ, n, 2 * n, {(i, i): QQ.one for i in range(n)}, total.labels, yd_crossed_s3.labels
        ),
    )
    assert validate_morphism(proj).passed
    assert (proj.map @ incl.map) == yd_crossed_s3.ident()


def test_direct_sum_grade_mismatch(power_base, diag_power):
    t = trivial_module(power_base)
    conj = yd_conjugate(diag_power, 1)
    assert conj.grade == 0  # conjugating an identity-grade module stays at e
    with pytest.raises(GradeMismatch):
        yd_direct_sum(t, grade_one_module(power_base, t.labels))


def grade_one_module(base, labels):
    """A module at grade 1 on labels: the trivial character action and
    the coaction v -> v (x) 1."""
    return YDModule(
        base, 1, labels,
        kron_action_for_grade(base, 1, labels),
        grade_one_coaction(base, labels),
        True,
    )


def kron_action_for_grade(base, grade, labels):
    from quasibraid.exactlin import kron

    i_v = LinMap.identity(base.field, labels)
    comp = base.comp(grade)
    # the trivial character action: every basis element of H_p acts as 1
    dom = tuple(a + b for a in comp.labels for b in labels)
    return LinMap(
        base.field, 1, comp.dim, {(0, h): base.field.one for h in range(comp.dim)}, dom, labels
    )


def grade_one_coaction(base, labels):
    coaction = {}
    for r in base.grades():
        comp = base.comp(r)
        cod = tuple(a + b for a in labels for b in comp.labels)
        coaction[r] = LinMap(base.field, comp.dim, 1, {(0, 0): base.field.one}, labels, cod)
    return coaction


def test_morphism_endpoint_checks(yd_crossed_s3, power_base):
    t = trivial_module(power_base)
    with pytest.raises(BaseMismatch):
        YDMorphism(yd_crossed_s3, t, yd_crossed_s3.ident())
    with pytest.raises(MalformedStructure):
        YDMorphism(yd_crossed_s3, yd_crossed_s3, LinMap.identity(QQ, (("x",),)))
    with pytest.raises(GradeMismatch, match="morphism endpoints have different grades"):
        YDMorphism(t, grade_one_module(power_base, t.labels), t.ident())


def test_non_colinear_map_fails_morphism_laws(yd_crossed_s3, s3):
    # multiplication by a fixed non-central element is linear for the
    # trivial part but not colinear
    n = s3.order
    perm = [s3.mul(1, x) for x in range(n)]
    bogus = YDMorphism(
        yd_crossed_s3,
        yd_crossed_s3,
        LinMap.from_permutation(QQ, perm, yd_crossed_s3.labels),
    )
    rep = validate_morphism(bogus)
    assert not rep.passed


# -- diagnostics --------------------------------------------------------------


def test_dim1_search_reports_empty_for_power_base(power_base):
    rep = search_dim1_modules(power_base)
    summary = rep.find("YD-grade-search-summary")
    assert summary is not None
    assert "0 candidate(s)" in summary.detail


def test_dim1_search_inapplicable_for_nonassociative(hq_o16):
    rep = search_dim1_modules(from_hopf_quasigroup(hq_o16))
    assert any("inapplicable" in c.detail for c in rep.checks)


def not_copies_base(h):
    """h with one multiplication constant of its grade-1 component doubled,
    unchecked: H_e is still a group algebra, but the components are no
    longer copies of it."""
    comp = h.comp(1)
    mult = dict(comp.mult)
    mult[min(mult)] = 2
    components = [h.comp(0), UnitalAlgebra(h.field, comp.dim, comp.labels, mult, comp.unit)]
    return CrossedGCHQ(h.field, h.grading, components, h.comult, h.counit, h.antipode, h.crossing)


def test_diagonal_module_and_search_name_the_same_unfit_shape(hq_o16, power_base):
    cases = [
        (from_hopf_quasigroup(hq_o16), "identity component is not a group algebra"),
        (not_copies_base(power_base), "components are not index-identical copies"),
    ]
    for base, reason in cases:
        with pytest.raises(InvalidInput, match=f"^{reason}$"):
            diagonal_module(base)
        assert search_dim1_modules(base).find("YD-grade-search").detail == f"inapplicable: {reason}"


def test_grade_search_checks_never_fail(hq_o16, power_base):
    """Why YD-grade-search and YD-grade-search-summary have no kill: no
    input can make them fail.  search_dim1_modules reports what exists for
    a base and asserts nothing; an unfit base is reported as inapplicable,
    a candidate that fails validate_yd as "not a module", and the summary
    counts the candidates that pass.  None of these outcomes is a fault,
    so both IDs are recorded informational with passed=True on every
    path: here over bases with and without a dim-1 module at a
    non-identity grade, unfit ones, and a mutated base that fails its own
    laws."""
    names = ["gchq-power", "gchq-power-mirror", "gchq-s3", "gchq-trivial-c2"]
    bases = [build(name)[1] for name in names] + [
        from_hopf_quasigroup(hq_o16),
        not_copies_base(power_base),
        build_mutant(ANTIPODE_MUTANT, QQ).base,
    ]
    details = []
    for base in bases:
        rep = search_dim1_modules(base)
        checks = rep.checks
        assert {c.check_id for c in checks} <= {"YD-grade-search", "YD-grade-search-summary"}
        assert all(c.passed and not c.required for c in checks)
        assert rep.all_passed and rep.failed_ids(include_informational=True) == []
        details += [c.detail for c in checks]
    paths = ["module found", "not a module", "inapplicable: identity", "inapplicable: components",
             "0 candidate(s)", "1 candidate(s)"]
    assert all(any(path in detail for detail in details) for path in paths)
