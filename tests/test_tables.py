"""Cayley table validators, the octonion unit loop, and group actions."""

from itertools import product

import pytest

from quasibraid.errors import QuasibraidError
from quasibraid.tables import (
    GroupAction,
    GroupTable,
    LoopTable,
    conjugate,
    validate_action,
    validate_group,
    validate_ip_loop,
)

# order-5 Latin square with identity but no two-sided inverses (2*3=e but 4*2=e)
NON_IP_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]

# order-5 Latin square with no identity element (shifted cyclic table)
NO_IDENTITY_SQUARE = [[(i + j + 1) % 5 for j in range(5)] for i in range(5)]


def brute_force_is_group(table):
    n = len(table)
    elems = range(n)
    if any(not 0 <= table[x][y] < n for x in elems for y in elems):
        return False
    identity = next(
        (e for e in elems if all(table[e][x] == x == table[x][e] for x in elems)), None
    )
    if identity is None:
        return False
    for x in elems:
        if not any(table[x][y] == identity == table[y][x] for y in elems):
            return False
    return all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x in elems
        for y in elems
        for z in elems
    )


def test_c2_passes():
    rep = validate_group(GroupTable.cyclic(2))
    assert rep.passed
    assert [c.check_id for c in rep.checks] == [
        "GRP-closure",
        "GRP-identity",
        "GRP-inverse",
        "GRP-assoc",
    ]


def test_s3_passes_and_agrees_with_brute_force():
    g = GroupTable.symmetric(3)
    assert g.order == 6
    assert brute_force_is_group(g.table)
    assert validate_group(g).passed


def test_symmetric_labels_are_cycles():
    g = GroupTable.symmetric(3)
    assert g.labels[0] == "e"
    assert set(g.labels) == {"e", "(0 1)", "(0 2)", "(1 2)", "(0 1 2)", "(0 2 1)"}


def test_mutated_c2_fails_with_witness():
    # swapping one entry kills the identity row
    bad = GroupTable(["e", "g"], [[0, 0], [1, 0]])
    rep = validate_group(bad)
    assert not rep.passed
    failed = [c for c in rep.checks if not c.passed]
    assert failed[0].witness is not None
    assert not brute_force_is_group(bad.table)


def test_direct_product_group():
    g = GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2))
    assert g.order == 4
    assert validate_group(g).passed
    assert all(g.mul(x, x) == 0 for x in g.elements())  # Klein four-group


def test_group_as_loop_passes_all_checks():
    for g in [GroupTable.cyclic(4), GroupTable.symmetric(3)]:
        rep = validate_ip_loop(LoopTable.from_group(g))
        assert rep.all_passed  # associativity and Moufang hold too


def test_octonion_units_ip_but_not_associative(o16):
    rep = validate_ip_loop(o16)
    assert rep.passed
    assert rep.find("LOOP-IP-left").passed
    assert rep.find("LOOP-IP-right").passed
    assert rep.find("LOOP-moufang").passed
    assoc = rep.find("LOOP-assoc")
    assert not assoc.passed and assoc.witness is not None

    # independent brute force over all 16^3 triples
    t = o16.table
    n = o16.order
    assoc_holds = all(
        t[t[x][y]][z] == t[x][t[y][z]]
        for x, y, z in product(range(n), repeat=3)
    )
    assert not assoc_holds
    inv = o16.left_inverse
    assert all(
        t[inv[x]][t[x][y]] == y and t[t[y][x]][inv[x]] == y
        for x, y in product(range(n), repeat=2)
    )


def test_octonion_multiplication_spot_values(o16):
    idx = {label: i for i, label in enumerate(o16.labels)}
    assert o16.mul(idx["e1"], idx["e1"]) == idx["-1"]
    assert o16.mul(idx["e1"], idx["e2"]) == idx["e4"]
    assert o16.mul(idx["e2"], idx["e1"]) == idx["-e4"]
    assert o16.mul(idx["-1"], idx["-1"]) == idx["1"]


def test_latin_square_without_identity_fails():
    rep = validate_ip_loop(LoopTable(list("abcde"), NO_IDENTITY_SQUARE))
    assert not rep.passed
    assert not rep.find("LOOP-identity").passed
    assert rep.find("LOOP-latin-rows").passed


def test_non_ip_loop_fails_inverse_checks():
    t = LoopTable(list("eabcd"), NON_IP_LOOP)
    rep = validate_ip_loop(t)
    assert rep.find("LOOP-latin-rows").passed
    assert rep.find("LOOP-latin-cols").passed
    assert rep.find("LOOP-identity").passed
    assert not rep.find("LOOP-inverse-two-sided").passed
    assert not rep.passed


def test_loop_group_direct_product(o16):
    small = LoopTable.direct_product(o16, LoopTable.from_group(GroupTable.cyclic(2)))
    assert small.order == 32
    rep = validate_ip_loop(small)
    assert rep.passed
    assert not rep.find("LOOP-assoc").passed


def test_conjugate():
    c4 = GroupTable.cyclic(4)
    for p in c4.elements():
        for q in c4.elements():
            assert conjugate(c4, p, q) == q  # abelian
    s3 = GroupTable.symmetric(3)
    idx = {label: i for i, label in enumerate(s3.labels)}
    got = conjugate(s3, idx["(0 1)"], idx["(0 1 2)"])
    assert got == idx["(0 2 1)"]  # transposition flips the 3-cycle
    for q in s3.elements():
        assert conjugate(s3, 0, q) == q


def test_trivial_action():
    a = GroupAction.trivial(GroupTable.cyclic(2), GroupTable.cyclic(3))
    assert validate_action(a).passed
    assert all(a.act(g, x) == x for g in range(2) for x in range(3))


def test_inversion_action_on_c3():
    a = GroupAction.by_inversion(GroupTable.cyclic(3))
    assert validate_action(a).passed
    assert a.act(1, 1) == 2
    assert a.act(1, 2) == 1
    assert a.act(0, 1) == 1
    # action axiom: acting by g*h equals acting by h then g
    for g, h in product(range(2), repeat=2):
        gh = a.actor.mul(g, h)
        for x in range(3):
            assert a.act(gh, x) == a.act(g, a.act(h, x))


def test_action_index_errors():
    a = GroupAction.by_inversion(GroupTable.cyclic(3))
    with pytest.raises(IndexError):
        a.act(2, 0)
    with pytest.raises(IndexError):
        a.act(0, 3)


def test_non_automorphism_action_fails():
    c3 = GroupTable.cyclic(3)
    bad = GroupAction(GroupTable.cyclic(2), c3, [(0, 1, 2), (1, 0, 2)])
    rep = validate_action(bad)
    assert not rep.find("ACT-automorphism").passed


def test_action_composition_failure_detected():
    # maps are each automorphisms but do not compose along C4
    c4 = GroupTable.cyclic(4)
    c3 = GroupTable.cyclic(3)
    ident = (0, 1, 2)
    inv = (0, 2, 1)
    bad = GroupAction(c4, c3, [ident, inv, inv, ident])
    rep = validate_action(bad)
    assert rep.find("ACT-automorphism").passed
    assert not rep.find("ACT-composition").passed


@pytest.mark.parametrize(
    "rows", [[[0, 2], [1, 0]], [[0, -1], [1, 0]]], ids=["past-end", "negative"]
)
def test_loop_table_refuses_an_entry_outside_its_elements(rows):
    """Read as is, 2 ended LOOP-identity in an IndexError and -1 was read as
    the last element, so LOOP-identity failed with a != a."""
    with pytest.raises(QuasibraidError, match=r"^loop table entry outside \[0, 2\)$"):
        LoopTable(["e", "a"], rows)


def test_group_table_keeps_an_entry_outside_its_elements_for_grp_closure():
    rep = validate_group(GroupTable(["e", "a"], [[0, 2], [1, 0]]))
    assert rep.failed_ids() == ["GRP-closure"]


def test_action_refuses_a_map_entry_outside_the_carrier():
    """Read as is, ACT-composition ended in an IndexError."""
    c2 = GroupTable.cyclic(2)
    with pytest.raises(QuasibraidError, match=r"^action map entry outside \[0, 2\)$"):
        GroupAction(c2, c2, [(0, 1), (0, 5)])


@pytest.mark.parametrize(
    "side, actor, carrier",
    [
        ("carrier", GroupTable.cyclic(2), GroupTable(["e", "a"], [[0, 5], [1, 0]])),
        ("actor", GroupTable(["e", "a"], [[0, 7], [1, 0]]), GroupTable.cyclic(2)),
    ],
    ids=["carrier", "actor"],
)
def test_action_refuses_a_table_entry_outside_its_group(side, actor, carrier):
    """Read as is, ACT-automorphism or ACT-composition ended in an
    IndexError; the GroupTable itself still loads, for GRP-closure."""
    assert validate_group(actor if side == "actor" else carrier).failed_ids() == ["GRP-closure"]
    with pytest.raises(QuasibraidError, match=rf"^{side} table entry outside \[0, 2\)$"):
        validate_action(GroupAction(actor, carrier, [(0, 1), (1, 0)]))


@pytest.mark.parametrize("cls", [GroupTable, LoopTable])
@pytest.mark.parametrize("entry", [1.7, True, "1", 1.0], ids=["float", "bool", "text", "whole"])
def test_table_refuses_an_entry_that_is_not_an_int(cls, entry):
    """Read with int(), 1.7, True and "1" all became 1, so each of these
    tables was C2."""
    with pytest.raises(QuasibraidError, match=rf"^Cayley table entry {entry!r} is not an int$"):
        cls(["e", "g"], [[0, entry], [1, 0]])


def test_table_refusing_a_float_and_a_bool_names_the_first():
    """Once read as C2: int(1.7) == 1, int(True) == 1, int("0") == 0."""
    with pytest.raises(QuasibraidError, match=r"^Cayley table entry 1\.7 is not an int$"):
        GroupTable(["e", "g"], [[0, 1.7], [True, "0"]])


def test_action_refuses_a_map_entry_that_is_not_an_int():
    """Read with int(), 2.9 became 2, so this was C2 acting on C3 by inversion."""
    c3 = GroupTable.cyclic(3)
    with pytest.raises(QuasibraidError, match=r"^action map entry 2\.9 is not an int$"):
        GroupAction(GroupTable.cyclic(2), c3, [(0, 1, 2), (0, 2.9, 1)])


@pytest.mark.parametrize("cls", [GroupTable, LoopTable])
@pytest.mark.parametrize(
    "labels, label", [(["e", "e"], "e"), ([1, "1"], "1")], ids=["same", "same-as-text"]
)
def test_table_refuses_a_duplicate_element_label(cls, labels, label):
    """A label names one element: yd-conjugate --grade took the first of two."""
    with pytest.raises(QuasibraidError, match=rf"^duplicate element label {label!r}$"):
        cls(labels, [[0, 1], [1, 0]])


@pytest.mark.parametrize("cls", [GroupTable, LoopTable])
def test_table_refuses_no_elements(cls):
    """With no element 0 to be the identity, validate_group and
    validate_ip_loop once passed every law on the empty table."""
    with pytest.raises(QuasibraidError, match=r"^a Cayley table needs element 0, the identity$"):
        cls([], [])
