"""Hopf quasigroup validation, loop algebras, antipode inverse laws."""

import re
from itertools import product

import pytest

from quasibraid.errors import InvalidLoop, MalformedStructure
from quasibraid.exactlin import LinMap, PrimeField, QQ
from quasibraid.hq import (
    HopfQuasigroup,
    UnitalAlgebra,
    antipode_inverse_laws,
    group_algebra,
    loop_algebra,
    validate_hopf_quasigroup,
)
from quasibraid.tables import GroupTable, LoopTable

from test_tables import NON_IP_LOOP


def zero_antipode_variant(h):
    zero = LinMap.zero_map(h.field, h.labels, h.labels)
    return HopfQuasigroup(h.field, h.algebra, h.comult, h.counit, zero)


def test_group_algebra_c2_structure(hq_c2):
    assert hq_c2.dim == 2
    assert hq_c2.algebra.mult == {
        (0, 0, 0): QQ.one,
        (0, 1, 1): QQ.one,
        (1, 0, 1): QQ.one,
        (1, 1, 0): QQ.one,
    }
    assert hq_c2.comult.entries == {(0, 0): QQ.one, (3, 1): QQ.one}
    assert hq_c2.antipode.entries == {(0, 0): QQ.one, (1, 1): QQ.one}


def test_group_algebras_validate(hq_c2, hq_c3, hq_s3):
    for h in (hq_c2, hq_c3, hq_s3):
        rep = validate_hopf_quasigroup(h)
        assert rep.passed
        assert rep.find("HQ-assoc").passed
        assert rep.find("HQ-hopf-antipode").passed


def test_group_algebra_over_prime_field():
    rep = validate_hopf_quasigroup(group_algebra(GroupTable.cyclic(3), PrimeField(2)))
    assert rep.passed


def elementwise_compensation_holds(t):
    """Direct table-level evaluation of the four compensation identities
    on all basis pairs of a loop algebra (independent of the chain evaluator)."""
    n = t.order
    li, ri = t.left_inverse, t.right_inverse
    if any(v is None for v in li) or any(v is None for v in ri):
        return False
    for x, g in product(range(n), repeat=2):
        if t.table[ri[x]][t.table[x][g]] != g:  # S(x1)(x2 g) = g
            return False
        if t.table[x][t.table[ri[x]][g]] != g:  # x1 (S(x2) g) = g
            return False
        if t.table[t.table[g][x]][ri[x]] != g:  # (g x1) S(x2) = g
            return False
        if t.table[t.table[g][ri[x]]][x] != g:  # (g S(x1)) x2 = g
            return False
    return True


def test_o16_passes_compensation_fails_associativity(hq_o16, o16):
    rep = validate_hopf_quasigroup(hq_o16)
    assert rep.passed
    for check_id in ("HQ-2.5-left", "HQ-2.5-right", "HQ-2.6-left", "HQ-2.6-right"):
        assert rep.find(check_id).passed
    assoc = rep.find("HQ-assoc")
    assert not assoc.passed
    assert assoc.witness is not None
    assert len(assoc.witness.domain) == 3  # witness names a basis triple
    assert rep.find("HQ-hopf-antipode") is None  # consequence only when associative
    assert elementwise_compensation_holds(o16)


def test_o16_witness_triple_is_a_real_counterexample(hq_o16, o16):
    witness = validate_hopf_quasigroup(hq_o16).find("HQ-assoc").witness
    idx = {label: i for i, label in enumerate(o16.labels)}
    x, y, z = (idx[atom] for atom in witness.domain)
    assert o16.table[o16.table[x][y]][z] != o16.table[x][o16.table[y][z]]


def test_zero_antipode_fails_compensation(hq_c2):
    rep = validate_hopf_quasigroup(zero_antipode_variant(hq_c2))
    assert not rep.passed
    failed = rep.failed_ids()
    assert "HQ-2.5-left" in failed
    check = rep.find("HQ-2.5-left")
    assert check.witness is not None and check.witness.lhs != check.witness.rhs


def test_antipode_inverse_laws(hq_c2, hq_o16):
    rep = antipode_inverse_laws(hq_c2)
    assert rep.passed
    for check_id in ("HQ-2.9-left", "HQ-2.9-right", "HQ-2.10-left", "HQ-2.10-right"):
        assert rep.find(check_id).passed
    assert antipode_inverse_laws(hq_o16).passed


def test_antipode_inverse_laws_reject_singular(hq_c2):
    rep = antipode_inverse_laws(zero_antipode_variant(hq_c2))
    assert not rep.passed
    assert not rep.find("HQ-antipode-bijective").passed
    assert rep.find("HQ-2.9-left") is None


def test_loop_algebra_requires_ip_loop():
    with pytest.raises(InvalidLoop):
        loop_algebra(LoopTable(list("eabcd"), NON_IP_LOOP), QQ)


def test_loop_algebra_validator_agrees_with_ip_property(o16):
    """The HQ validator and the loop-level property must coincide on
    loop algebras: small groups and group products pass, the broken
    table fails."""
    from quasibraid.tables import validate_ip_loop

    loops = [LoopTable.from_group(GroupTable.cyclic(n)) for n in range(1, 9)]
    loops += [
        LoopTable.from_group(
            GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2))
        ),
        LoopTable.from_group(
            GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(4))
        ),
        LoopTable.from_group(GroupTable.symmetric(3)),
        LoopTable(list("eabcd"), NON_IP_LOOP),
    ]
    for loop in loops:
        ip_rep = validate_ip_loop(loop)
        if any(v is None for v in loop.right_inverse):
            with pytest.raises(InvalidLoop):
                loop_algebra(loop, QQ, check=False)
            assert not ip_rep.passed
            continue
        hq_rep = validate_hopf_quasigroup(loop_algebra(loop, QQ, check=False))
        assert hq_rep.passed == ip_rep.passed
        assert hq_rep.passed == elementwise_compensation_holds(loop)


def test_malformed_structure_rejected(hq_c2):
    wrong = LinMap.identity(QQ, hq_c2.labels)
    with pytest.raises(MalformedStructure):
        HopfQuasigroup(QQ, hq_c2.algebra, wrong, hq_c2.counit, hq_c2.antipode)


def test_unital_algebra_rejects_inconsistent_data():
    labels, mult = (("e",), ("a",)), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1}
    with pytest.raises(MalformedStructure, match="label count does not match dimension"):
        UnitalAlgebra(QQ, 3, labels, mult, (1, 0))
    with pytest.raises(MalformedStructure, match=r"mult index \(1, 2, 0\) outside dimension 2"):
        UnitalAlgebra(QQ, 2, labels, {**mult, (1, 2, 0): 1}, (1, 0))
    with pytest.raises(MalformedStructure, match="unit vector length does not match dimension"):
        UnitalAlgebra(QQ, 2, labels, mult, (1, 0, 0))


@pytest.mark.parametrize("index", [True, False, 1.0, "1", 2**70])
def test_unital_algebra_refuses_an_index_that_is_not_a_plain_int(index):
    """A bool or float index was once taken, and saved as true or 1.0,
    which no loader reads as an index.  2**70 is an int, but out of range."""
    mult = {(0, 0, 0): 1, (index, 0, 1): 1}
    message = "outside dimension 2" if type(index) is int else "is not three ints"
    with pytest.raises(MalformedStructure, match=re.escape(f"mult index {(index, 0, 1)} {message}")):
        UnitalAlgebra(QQ, 2, (("e",), ("a",)), mult, (1, 0))


def test_unchecked_loop_algebra_needs_right_inverses():
    """a a = a: the monoid {e, a} is no loop, and a has no right inverse,
    so even the unchecked construction has no antipode to build."""
    monoid = LoopTable(["e", "a"], [[0, 1], [1, 1]])
    assert monoid.right_inverse == (0, None)
    with pytest.raises(InvalidLoop, match="some element has no right inverse"):
        loop_algebra(monoid, QQ, check=False)


def test_mutated_counit_fails_coalgebra(hq_c2):
    bad_counit = LinMap(QQ, 1, 2, {(0, 0): QQ.one}, hq_c2.labels, ((),))
    mutant = HopfQuasigroup(QQ, hq_c2.algebra, hq_c2.comult, bad_counit, hq_c2.antipode)
    rep = validate_hopf_quasigroup(mutant)
    assert not rep.passed
    assert "HQ-counit-left" in rep.failed_ids()
