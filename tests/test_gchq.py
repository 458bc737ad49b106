"""Crossed group-cograded structures: validators, power construction, mirror."""

import pytest

from quasibraid.errors import (
    ActionNotHopfAutomorphism,
    InvalidInput,
    MalformedStructure,
)
from quasibraid.exactlin import LinMap, PrimeField, QQ
from quasibraid.fixtures import gchq_power as build_gchq_power
from quasibraid.gchq import (
    CrossedGCHQ,
    mirror,
    power_construction,
    sweedler_spot_check,
    validate_crossing,
    validate_gchq,
)
from quasibraid.hq import from_hopf_quasigroup, group_algebra, validate_hopf_quasigroup
from quasibraid.tables import GroupAction, GroupTable


def both_validators_pass(h):
    rep = validate_gchq(h)
    if not rep.passed:
        return False, rep
    rep2 = validate_crossing(h)
    return rep2.passed, rep2


def test_trivial_embedding_passes(gchq_trivial_c2):
    ok, _ = both_validators_pass(gchq_trivial_c2)
    assert ok


def test_trivial_embedding_of_nonassociative(hq_o16):
    h = from_hopf_quasigroup(hq_o16)
    assert validate_gchq(h).passed
    assert validate_crossing(h).passed


def test_from_hopf_quasigroup_rejects_invalid(hq_c2):
    zero = LinMap.zero_map(QQ, hq_c2.labels, hq_c2.labels)
    from quasibraid.hq import HopfQuasigroup

    broken = HopfQuasigroup(QQ, hq_c2.algebra, hq_c2.comult, hq_c2.counit, zero)
    with pytest.raises(InvalidInput):
        from_hopf_quasigroup(broken)


def test_power_construction_passes_both_validators(gchq_power):
    assert validate_gchq(gchq_power).passed
    assert validate_crossing(gchq_power).passed


def test_power_comultiplication_is_diagonal_on_group_likes(hq_c2):
    # trivial action of C2 on k[C2]: the copied comultiplication stays group-like
    action = GroupAction.trivial(GroupTable.cyclic(2), GroupTable.cyclic(2))
    h = power_construction(hq_c2, action)
    n = 2
    for p in h.grades():
        for q in h.grades():
            delta = h.comult[(p, q)]
            assert delta.entries == {(g * n + g, g): QQ.one for g in range(n)}
    assert validate_gchq(h).passed and validate_crossing(h).passed


def test_power_crossing_is_the_action_permutation(gchq_power):
    flip = 1
    for q in gchq_power.grades():
        pi = gchq_power.crossing[(flip, q)]
        assert pi.entries == {(0, 0): QQ.one, (2, 1): QQ.one, (1, 2): QQ.one}


def test_power_rejects_non_automorphism(hq_c3):
    c2 = GroupTable.cyclic(2)
    c3 = GroupTable.cyclic(3)
    # the flip map does not fix the identity element, so it cannot commute
    # with the structure maps
    bad = GroupAction(c2, c3, [(0, 1, 2), (1, 0, 2)])
    with pytest.raises(ActionNotHopfAutomorphism) as err:
        power_construction(hq_c3, bad)
    assert "preserve" in str(err.value)


def test_power_rejects_wrong_dimension(hq_c2):
    action = GroupAction.trivial(GroupTable.cyclic(2), GroupTable.cyclic(3))
    with pytest.raises(ActionNotHopfAutomorphism):
        power_construction(hq_c2, action)


def test_mirror_of_trivially_graded_equals_input(gchq_trivial_c2):
    assert mirror(gchq_trivial_c2) == gchq_trivial_c2


def test_mirror_of_power_passes_both_validators(gchq_power):
    m = mirror(gchq_power)  # mirror itself asserts validity of its output
    assert validate_gchq(m).passed
    assert validate_crossing(m).passed
    assert m != gchq_power  # the twist is visible in the comultiplications


def test_mirror_antipode_formula_on_power(gchq_power):
    """On a power construction the mirrored antipode is the action applied
    after the original antipode: S~_p(x) = p(S(x)) as a basis map."""
    from quasibraid.fixtures import inversion_on_c3

    action = inversion_on_c3()
    m = mirror(gchq_power)
    n = 3
    s_perm = [0, 2, 1]  # inversion on C3: x -> x^-1
    for p in m.grades():
        expected = {
            (action.maps[p][s_perm[x]], x): QQ.one for x in range(n)
        }
        assert m.antipode[p].entries == expected


def test_mirror_with_trivial_crossing_reindexes_comult(hq_c2):
    # abelian grading and identity crossing: the mirror comultiplication is
    # the original one at inverted grades
    action = GroupAction.trivial(GroupTable.cyclic(2), GroupTable.cyclic(2))
    h = power_construction(hq_c2, action)
    m = mirror(h)
    for p in h.grades():
        for q in h.grades():
            assert m.comult[(p, q)].same_entries(
                h.comult[(h.inv(p), h.inv(q))]
            )


def test_mirror_rejects_invalid_input(gchq_power):
    broken = CrossedGCHQ(
        gchq_power.field,
        gchq_power.grading,
        gchq_power.components,
        gchq_power.comult,
        gchq_power.counit,
        {p: LinMap.zero_map(QQ, m.cod, m.dom) for p, m in gchq_power.antipode.items()},
        gchq_power.crossing,
    )
    with pytest.raises(InvalidInput):
        mirror(broken)


def test_zeroed_comult_fails_counit_axiom(gchq_power):
    target = (0, 1)
    mutated = {
        key: (LinMap.zero_map(QQ, m.cod, m.dom) if key == target else m)
        for key, m in gchq_power.comult.items()
    }
    mutant = CrossedGCHQ(
        gchq_power.field,
        gchq_power.grading,
        gchq_power.components,
        mutated,
        gchq_power.counit,
        gchq_power.antipode,
        gchq_power.crossing,
    )
    rep = validate_gchq(mutant)
    assert not rep.passed
    assert "GHQ-3.2-counit-left" in rep.failed_ids()
    check = rep.find("GHQ-3.2-counit-left")
    assert check is not None


def test_scaled_crossing_fails_morphism_check(gchq_power):
    pi = gchq_power.crossing[(1, 0)]
    scaled = pi.scale(2)
    mutated = dict(gchq_power.crossing)
    mutated[(1, 0)] = scaled
    mutant = CrossedGCHQ(
        gchq_power.field,
        gchq_power.grading,
        gchq_power.components,
        gchq_power.comult,
        gchq_power.counit,
        gchq_power.antipode,
        mutated,
    )
    assert validate_gchq(mutant).passed  # crossing untouched by the base axioms
    rep = validate_crossing(mutant)
    assert not rep.passed
    assert "CROSS-pi-multiplicative" in rep.failed_ids() or "CROSS-pi-unit" in rep.failed_ids()


@pytest.mark.parametrize(
    "table", [[[0, 5], [1, 0]], [[0, -1], [1, 0]]], ids=["past-the-end", "negative"]
)
def test_grading_entries_outside_the_group_rejected(gchq_power, table):
    """A grading table entry outside [0, |G|) is not read as an index:
    5 is not an IndexError and -1 is not H_1 read from the end."""
    grading = GroupTable(gchq_power.grading.labels, table)
    with pytest.raises(MalformedStructure, match=r"^grading table entry outside \[0, 2\)$"):
        CrossedGCHQ(
            gchq_power.field,
            grading,
            gchq_power.components,
            gchq_power.comult,
            gchq_power.counit,
            gchq_power.antipode,
            gchq_power.crossing,
        )


def test_malformed_shapes_rejected(gchq_power):
    bad_comult = dict(gchq_power.comult)
    bad_comult[(0, 1)] = LinMap.identity(QQ, gchq_power.comp(0).labels)
    with pytest.raises(MalformedStructure):
        CrossedGCHQ(
            gchq_power.field,
            gchq_power.grading,
            gchq_power.components,
            bad_comult,
            gchq_power.counit,
            gchq_power.antipode,
            gchq_power.crossing,
        )


def test_sweedler_spot_check_agrees(gchq_trivial_c2, gchq_power):
    assert sweedler_spot_check(gchq_trivial_c2).passed
    rep = sweedler_spot_check(gchq_power)
    assert rep.passed
    assert len(rep.checks) == 18  # every (grade, basis pair) fits in the sample budget


def test_validators_on_s3_base(gchq_s3):
    assert validate_gchq(gchq_s3).passed
    assert validate_crossing(gchq_s3).passed


def test_antipode_invertibility_flag(gchq_power):
    rep = validate_gchq(gchq_power, require_invertible_antipode=False)
    bijective = [c for c in rep.checks if c.check_id == "GHQ-antipode-bijective"]
    assert bijective and all(not c.required for c in bijective)


def test_unreduced_gf_entries_give_the_reduced_verdict():
    """A crossing whose GF(7) entries are written as v + 7 is the same
    crossing: LinMap reduces them, so CROSS-identity and every other
    check read it as the reduced one."""
    gf7 = PrimeField(7)
    h = build_gchq_power(gf7)
    shifted = {
        key: LinMap(gf7, m.rows, m.cols, {k: v + 7 for k, v in m.entries.items()}, m.dom, m.cod)
        for key, m in h.crossing.items()
    }
    moved = CrossedGCHQ(
        gf7, h.grading, h.components, h.comult, h.counit, h.antipode, shifted
    )
    assert moved == h
    assert validate_crossing(moved).render() == validate_crossing(h).render()
