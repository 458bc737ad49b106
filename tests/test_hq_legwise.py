"""Leg-wise HQ validators against a matrix reference, and Chein's loops.

The reference below is the composed-matrix pipeline the HQ validators
used before they were restated as Chains: every side is a LinMap built
with kron, compose and leg_perm over all basis tuples and compared with
map_witness.  It lives only here, as an independent cross-check; the
library has one HQ path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from quasibraid import fixtures
from quasibraid.exactlin import K_LABELS, LinMap, PrimeField, QQ, kron, kron_all, leg_perm
from quasibraid.errors import NotInvertible
from quasibraid.hq import (
    HopfQuasigroup,
    UnitalAlgebra,
    antipode_inverse_laws,
    loop_algebra,
    validate_hopf_quasigroup,
)
from quasibraid.report import Report
from quasibraid.tables import GroupTable, LoopTable

GF7 = PrimeField(7)


# -- matrix reference -----------------------------------------------------------


def reference_validate(h):
    field = h.field
    rep = Report(f"hopf quasigroup (dim {h.dim}, {field.name})")
    alg = h.algebra
    mu = alg.mult_map()
    eta = alg.unit_map()
    delta = h.comult
    eps = h.counit
    s = h.antipode
    ident = LinMap.identity(field, alg.labels)
    one_k = LinMap.identity(field, K_LABELS)

    rep.add_map_equality("HQ-unit-left", mu @ kron(eta, ident), ident)
    rep.add_map_equality("HQ-unit-right", mu @ kron(ident, eta), ident)
    rep.add_map_equality("HQ-coassoc", kron(delta, ident) @ delta, kron(ident, delta) @ delta)
    rep.add_map_equality("HQ-counit-left", kron(eps, ident) @ delta, ident)
    rep.add_map_equality("HQ-counit-right", kron(ident, eps) @ delta, ident)
    mu_hh = kron(mu, mu) @ leg_perm(field, [alg.labels] * 4, (0, 2, 1, 3))
    rep.add_map_equality("HQ-delta-multiplicative", delta @ mu, mu_hh @ kron(delta, delta))
    rep.add_map_equality("HQ-delta-unit", delta @ eta, kron(eta, eta))
    rep.add_map_equality("HQ-epsilon-multiplicative", eps @ mu, kron(eps, eps))
    rep.add_map_equality("HQ-epsilon-unit", eps @ eta, one_k)

    d_i = kron(delta, ident)
    i_d = kron(ident, delta)
    left_shape = mu @ kron(ident, mu)
    right_shape = mu @ kron(mu, ident)
    eps_i = kron(eps, ident)
    i_eps = kron(ident, eps)
    rep.add_map_equality("HQ-2.5-left", left_shape @ kron_all(s, ident, ident) @ d_i, eps_i)
    rep.add_map_equality("HQ-2.5-right", left_shape @ kron_all(ident, s, ident) @ d_i, eps_i)
    rep.add_map_equality("HQ-2.6-left", right_shape @ kron_all(ident, ident, s) @ i_d, i_eps)
    rep.add_map_equality("HQ-2.6-right", right_shape @ kron_all(ident, s, ident) @ i_d, i_eps)

    assoc = rep.add_map_equality(
        "HQ-assoc", mu @ kron(mu, ident), mu @ kron(ident, mu), required=False
    )
    if assoc.passed:
        rep.add_map_equality(
            "HQ-hopf-antipode", mu @ kron(s, ident) @ delta, eta @ eps, required=False
        )
    return rep


def reference_inverse_laws(h):
    field = h.field
    rep = Report(f"antipode inverse laws (dim {h.dim}, {field.name})")
    try:
        s_inv = h.antipode.invert()
    except NotInvertible as exc:
        rep.add("HQ-antipode-bijective", False, detail=f"antipode not bijective (rank {exc.rank})")
        return rep
    rep.add("HQ-antipode-bijective", True)

    alg = h.algebra
    mu = alg.mult_map()
    delta = h.comult
    eps = h.counit
    ident = LinMap.identity(field, alg.labels)
    flip_first = leg_perm(field, [alg.labels] * 3, (1, 0, 2))
    flip_last = leg_perm(field, [alg.labels] * 3, (0, 2, 1))
    left_shape = mu @ kron(ident, mu)
    right_shape = mu @ kron(mu, ident)
    eps_i = kron(eps, ident)
    i_eps = kron(ident, eps)
    d_first = flip_first @ kron(delta, ident)
    d_last = flip_last @ kron(ident, delta)
    rep.add_map_equality(
        "HQ-2.9-left", left_shape @ kron_all(s_inv, ident, ident) @ d_first, eps_i
    )
    rep.add_map_equality(
        "HQ-2.9-right", left_shape @ kron_all(ident, s_inv, ident) @ d_first, eps_i
    )
    rep.add_map_equality(
        "HQ-2.10-left", right_shape @ kron_all(ident, s_inv, ident) @ d_last, i_eps
    )
    rep.add_map_equality(
        "HQ-2.10-right", left_shape @ kron_all(ident, ident, s_inv) @ d_last, i_eps
    )
    return rep


def assert_same_reports(h):
    for legwise, reference in (
        (validate_hopf_quasigroup, reference_validate),
        (antipode_inverse_laws, reference_inverse_laws),
    ):
        got, want = legwise(h), reference(h)
        assert got.render() == want.render()
        assert got.to_jobj() == want.to_jobj()


# -- inputs -----------------------------------------------------------------------


def chein_loop(g):
    """Chein's Moufang loop M(G,2) on G u Gu (O. Chein, Trans. AMS 188, 1974):
    (g)(h) = gh, (g)(hu) = (hg)u, (gu)(h) = (gh^-1)u, (gu)(hu) = h^-1 g.
    Element i of G is index i, element iu is index |G| + i."""
    n = g.order
    labels = list(g.labels) + [f"{label}u" for label in g.labels]
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        for b in range(n):
            table[a][b] = g.mul(a, b)
            table[a][n + b] = n + g.mul(b, a)
            table[n + a][b] = n + g.mul(a, g.inv(b))
            table[n + a][n + b] = g.mul(g.inv(b), a)
    return LoopTable(labels, table)


BASES = {
    "C2": fixtures.hq_c2,
    "C3": fixtures.hq_c3,
    "S3": fixtures.hq_s3,
    "O16": fixtures.hq_o16,
    "M(S3,2)": lambda field: loop_algebra(chein_loop(GroupTable.symmetric(3)), field),
}


def with_antipode(h, antipode):
    return HopfQuasigroup(h.field, h.algebra, h.comult, h.counit, antipode)


def perturbed(m, key, value):
    entries = dict(m.entries)
    entries[key] = value
    return LinMap(m.field, m.rows, m.cols, entries, m.dom, m.cod)


MUTANTS = {
    "identity-antipode": lambda h: with_antipode(h, LinMap.identity(h.field, h.labels)),
    "zero-antipode": lambda h: with_antipode(h, LinMap.zero_map(h.field, h.labels, h.labels)),
    "antipode-times-2": lambda h: with_antipode(h, h.antipode.scale(2)),
    "counit-entry": lambda h: HopfQuasigroup(
        h.field, h.algebra, h.comult, perturbed(h.counit, (0, 1), h.field.scalar(2)), h.antipode
    ),
    "comult-entry": lambda h: HopfQuasigroup(
        h.field,
        h.algebra,
        perturbed(h.comult, (1, 1), h.field.scalar(3)),
        h.counit,
        h.antipode,
    ),
}


# -- differential tests --------------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
@pytest.mark.parametrize("base", list(BASES))
def test_legwise_matches_matrix_reference(base, field):
    assert_same_reports(BASES[base](field))


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
@pytest.mark.parametrize("base", ["C3", "S3", "M(S3,2)"])
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_legwise_matches_matrix_reference_on_mutants(mutant, base, field):
    h = MUTANTS[mutant](BASES[base](field))
    rep = validate_hopf_quasigroup(h).merge(antipode_inverse_laws(h))
    assert not rep.passed
    assert_same_reports(h)


def test_zero_antipode_takes_the_bijective_early_exit():
    rep = antipode_inverse_laws(MUTANTS["zero-antipode"](BASES["S3"](QQ)))
    assert [c.check_id for c in rep.checks] == ["HQ-antipode-bijective"]


#: small loops: groups of order <= 6, and a 5-loop with two-sided inverses
#: that is not IP
SMALL_LOOPS = [LoopTable.from_group(GroupTable.cyclic(n)) for n in range(1, 7)] + [
    LoopTable.from_group(GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2))),
    LoopTable.from_group(GroupTable.symmetric(3)),
    LoopTable(
        [f"x{i}" for i in range(5)],
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ],
    ),
]


@st.composite
def perturbed_loop_algebras(draw):
    """A loop algebra of dim <= 6 with one structure constant changed."""
    field = draw(st.sampled_from([QQ, GF7]))
    h = loop_algebra(draw(st.sampled_from(SMALL_LOOPS)), field, check=False)
    n = h.dim
    value = field.scalar(draw(st.integers(min_value=-2, max_value=3)))
    part = draw(st.sampled_from(["mult", "unit", "comult", "counit", "antipode"]))
    index = st.integers(min_value=0, max_value=n - 1)
    alg, comult, counit, antipode = h.algebra, h.comult, h.counit, h.antipode
    if part == "mult":
        mult = dict(alg.mult)
        mult[(draw(index), draw(index), draw(index))] = value
        alg = UnitalAlgebra(field, n, alg.labels, mult, alg.unit)
    elif part == "unit":
        unit = list(alg.unit)
        unit[draw(index)] = value
        alg = UnitalAlgebra(field, n, alg.labels, alg.mult, unit)
    elif part == "comult":
        comult = perturbed(comult, (draw(index) * n + draw(index), draw(index)), value)
    elif part == "counit":
        counit = perturbed(counit, (0, draw(index)), value)
    else:
        antipode = perturbed(antipode, (draw(index), draw(index)), value)
    return HopfQuasigroup(field, alg, comult, counit, antipode)


@settings(max_examples=60, deadline=None)
@given(perturbed_loop_algebras())
def test_legwise_matches_matrix_reference_on_perturbed_loops(h):
    assert_same_reports(h)


# -- larger loops ----------------------------------------------------------------------


def test_chein_s4_validates_with_assoc_the_only_failure():
    """k[M(S4,2)], dim 48: out of reach for the matrix pipeline."""
    h = loop_algebra(chein_loop(GroupTable.symmetric(4)), QQ)
    rep = validate_hopf_quasigroup(h).merge(antipode_inverse_laws(h))
    lines = rep.render().splitlines()
    assert lines[-1] == "result: PASS"
    failing = [line for line in lines if line.startswith("FAIL")]
    assert len(failing) == 1 and failing[0].startswith("FAIL [info] HQ-assoc  at ")
    assert rep.failed_ids(include_informational=True) == ["HQ-assoc"]
