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
from quasibraid.fixtures import gchq_power, yd_crossed_s3, yd_diagonal_power, yd_trivial
from quasibraid.report import Report
from quasibraid.gchq import CrossedGCHQ
from quasibraid.hq import HopfQuasigroup, UnitalAlgebra, from_hopf_quasigroup, group_algebra
from quasibraid.tables import GroupTable
from quasibraid.yd import (
    YDModule,
    YDMorphism,
    check_conjugation_coherence,
    check_crossed_equivalence,
    conjugation_coherence,
    crossed_set_module,
    diagonal_module,
    search_dim1_modules,
    trivial_module,
    validate_morphism,
    validate_yd,
    yd_conjugate,
    yd_direct_sum,
    yd_tensor,
)


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

    lhs, rhs = _crossed_condition_sides(yd_crossed_s3, 0)
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
    return from_hopf_quasigroup(h, check=False)


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


# -- crossed-condition equivalence -------------------------------------------


def test_crossed_equivalence_on_fixtures(yd_crossed_s3, power_base, diag_power):
    for module in (yd_crossed_s3, trivial_module(power_base), diag_power):
        rep = check_crossed_equivalence(module)
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
        rep = check_crossed_equivalence(mutant)
        failing = set(rep.failed_ids())
        assert "YD-4.5-crossed" in failing
        assert "YD-4.8-crossed" in failing
        assert "YD-4.9-crossed" in failing
        # all three forms co-fail, so the equivalence itself stands
        assert rep.find("YD-4.8-equivalence").passed


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
    other = YDModule(
        power_base, 1, t.labels,
        kron_action_for_grade(power_base, 1, t.labels),
        grade_one_coaction(power_base, t.labels),
        True,
    )
    with pytest.raises(GradeMismatch):
        yd_direct_sum(t, other)


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
