"""Braiding construction, inverse, and the crossed-category law suite."""

import pytest

from quasibraid.errors import BaseMismatch, NotStrict
from quasibraid.exactlin import LinMap, QQ, invert
from quasibraid.fixtures import gchq_power, yd_crossed_s3_quasi
from quasibraid.hq import from_hopf_quasigroup, group_algebra
from quasibraid.tables import GroupTable
from quasibraid.yd import (
    YDModule,
    YDMorphism,
    braiding,
    braiding_inverse,
    check_braiding_inverse,
    check_braiding_laws,
    crossed_set_module,
    diagonal_module,
    trivial_module,
    yd_conjugate,
    yd_direct_sum,
    yd_tensor,
)


@pytest.fixture(scope="module")
def power_base():
    return gchq_power()


def test_braiding_of_trivial_modules_is_identity(power_base):
    t = trivial_module(power_base)
    c = braiding(t, t)
    assert c == LinMap.identity(QQ, c.dom)


def test_braiding_on_abelian_crossed_set_is_flip():
    base = from_hopf_quasigroup(group_algebra(GroupTable.cyclic(2), QQ))
    v = crossed_set_module(base)
    c = braiding(v, v)
    n = 2
    flip = {(y * n + x, x * n + y): QQ.one for x in range(n) for y in range(n)}
    assert c.entries == flip


def test_braiding_formula_on_s3(yd_crossed_s3, s3):
    # frozen oracle: x (x) y -> x^-1 y x (x) x on group-like basis vectors
    c = braiding(yd_crossed_s3, yd_crossed_s3)
    n = s3.order
    expected = {
        (s3.mul(s3.mul(s3.inv(x), y), x) * n + x, x * n + y): QQ.one
        for x in range(n)
        for y in range(n)
    }
    assert c.entries == expected


def test_braiding_inverse_formula_on_s3(yd_crossed_s3, s3):
    # C^-1 sends w (x) v to v (x) v w v^-1 on group-likes
    ci = braiding_inverse(yd_crossed_s3, yd_crossed_s3)
    n = s3.order
    expected = {
        (v * n + s3.mul(s3.mul(v, w), s3.inv(v)), w * n + v): QQ.one
        for w in range(n)
        for v in range(n)
    }
    assert ci.entries == expected


def test_braiding_round_trips(yd_crossed_s3, power_base):
    diag = diagonal_module(power_base)
    pairs = [
        (yd_crossed_s3, yd_crossed_s3),
        (trivial_module(power_base), diag),
        (diag, diag),
    ]
    for v, w in pairs:
        rep = check_braiding_inverse(v, w)
        assert rep.passed, rep.render()


def test_invert_braiding_equals_braiding_inverse(yd_crossed_s3):
    c = braiding(yd_crossed_s3, yd_crossed_s3)
    assert invert(c) == braiding_inverse(yd_crossed_s3, yd_crossed_s3)


def test_braiding_grade_bookkeeping(power_base):
    diag = diagonal_module(power_base)
    t = trivial_module(power_base)
    c = braiding(diag, t)
    assert c.rows == c.cols == diag.dim * t.dim
    target = yd_tensor(yd_conjugate(t, diag.grade), diag)
    source = yd_tensor(diag, t)
    assert target.grade == source.grade == power_base.mul(diag.grade, t.grade)
    assert c.cod == tuple(a + b for a in t.labels for b in diag.labels)


def test_braiding_refuses_quasimodules():
    quasi = yd_crossed_s3_quasi()
    with pytest.raises(NotStrict):
        braiding(quasi, quasi)
    with pytest.raises(NotStrict):
        braiding_inverse(quasi, quasi)
    with pytest.raises(NotStrict):
        check_braiding_laws(quasi, quasi)


def test_braiding_requires_shared_base(yd_crossed_s3, power_base):
    with pytest.raises(BaseMismatch):
        braiding(yd_crossed_s3, trivial_module(power_base))


def test_braiding_laws_trivial_case(power_base):
    t = trivial_module(power_base)
    rep = check_braiding_laws(t, t, t)
    assert rep.passed
    for check in rep.checks:
        assert check.passed


def test_braiding_laws_full_suite_on_s3(yd_crossed_s3):
    v = yd_crossed_s3
    total_v, incl_v, _ = yd_direct_sum(v, v)
    total_w, incl_w, _ = yd_direct_sum(v, v)
    rep = check_braiding_laws(v, v, v, incl_v, incl_w)
    assert rep.passed, rep.render()
    ids = {c.check_id for c in rep.checks}
    assert {
        "BRAID-H-linear",
        "BRAID-H-colinear",
        "BRAID-2.4-conjugation",
        "BRAID-comp-tensor-first",
        "BRAID-comp-tensor-second",
        "BRAID-yang-baxter",
        "BRAID-2.1-naturality",
    } <= ids


def test_braiding_laws_over_graded_base(power_base):
    diag = diagonal_module(power_base)
    t = trivial_module(power_base)
    rep = check_braiding_laws(diag, diag, t)
    assert rep.passed, rep.render()
    rep = check_braiding_laws(diag, t, diag)
    assert rep.passed, rep.render()


def test_naturality_fails_for_non_morphism(yd_crossed_s3, s3):
    v = yd_crossed_s3
    total, incl, _ = yd_direct_sum(v, v)
    n = s3.order
    perm = [s3.mul(1, x) for x in range(n)]  # left translation: not colinear
    bogus = YDMorphism(v, v, LinMap.from_permutation(QQ, perm, v.labels))
    rep = check_braiding_laws(v, v, None, incl, bogus)
    assert not rep.passed
    assert "BRAID-2.1-naturality" in rep.failed_ids()


def scaled_identity_morphism(v, scalar):
    """v -> v given by a scalar multiple of the identity."""
    return YDMorphism(v, v, v.ident().scale(scalar))


def test_scaled_identity_is_natural(yd_crossed_s3):
    f = scaled_identity_morphism(yd_crossed_s3, 2)
    g = scaled_identity_morphism(yd_crossed_s3, -1)
    rep = check_braiding_laws(yd_crossed_s3, yd_crossed_s3, None, f, g)
    assert rep.passed
