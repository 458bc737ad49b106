"""Exact linear algebra kernel: fields, composition, Kronecker, inversion,
and leg-wise chains."""

import gc
from decimal import Decimal
from fractions import Fraction
from itertools import permutations, product
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibraid import exactlin
from quasibraid.errors import DomainMismatch, FieldError, NotInvertible
from quasibraid.report import Witness, family_witnesses, map_witness
from quasibraid.exactlin import (
    BLOCK,
    K_LABELS,
    Chain,
    LegMap,
    LinMap,
    PrimeField,
    QQ,
    _rational,
    compose,
    default_labels,
    field_from_name,
    invert,
    kron,
    kron_all,
    leg_perm,
    product_labels,
    swap_map,
)

GF2 = PrimeField(2)
GF5 = PrimeField(5)
GF7 = PrimeField(7)


# -- fields -----------------------------------------------------------------


def test_rational_scalars_exact():
    third = QQ.div(QQ.one, QQ.scalar(3))
    assert QQ.mul(third, QQ.scalar(3)) == QQ.one
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    assert QQ.fmt(Fraction(5, 2)) == "5/2"


def _assert_canonical(x):
    """A Q scalar is an int exactly when integral, else a Fraction."""
    assert type(x) in (int, Fraction)  # never a float or a bool
    assert (type(x) is int) == (Fraction(x).denominator == 1)


def test_rational_scalars_canonical_form():
    for x in (QQ.zero, QQ.one, QQ.scalar(True), QQ.scalar(Fraction(6, 3)), QQ.scalar("4/2")):
        _assert_canonical(x)
    assert QQ.parse("4/2") == 2 and type(QQ.parse("4/2")) is int
    assert QQ.fmt(QQ.parse("4/2")) == "2"
    assert QQ.fmt(QQ.parse("-6/4")) == "-3/2"
    assert QQ.div(1, 2) == Fraction(1, 2) and type(QQ.div(1, 2)) is Fraction
    assert QQ.div(4, 2) == 2 and type(QQ.div(4, 2)) is int
    assert QQ.parse("3/6") == Fraction(1, 2) and type(QQ.parse("3/6")) is Fraction
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(Fraction(1, 2))) is int
    assert [QQ.inv(1), QQ.inv(-1)] == [1, -1] and type(QQ.inv(-1)) is int
    assert type(QQ.inv(Fraction(-1))) is int
    assert type(QQ.mul(Fraction(1, 2), 2)) is int
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.neg(Fraction(3))) is int


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(max_examples=300, deadline=None)
@given(rationals, rationals, st.booleans())
def test_rational_ops_agree_with_fraction_arithmetic(a, b, canonical_inputs):
    x, y = (QQ.scalar(a), QQ.scalar(b)) if canonical_inputs else (a, b)
    results = [
        (QQ.add(x, y), a + b),
        (QQ.sub(x, y), a - b),
        (QQ.mul(x, y), a * b),
        (QQ.neg(x), -a),
        (QQ.scalar(x), a),
    ]
    if b:
        results += [(QQ.div(x, y), a / b), (QQ.inv(y), 1 / b)]
    else:
        with pytest.raises(FieldError):
            QQ.div(x, y)
    for got, expected in results:
        assert got == expected
        _assert_canonical(got)


@settings(max_examples=200, deadline=None)
@given(rationals)
def test_rational_fmt_parse_round_trip(a):
    text = QQ.fmt(a)
    assert text == str(a)
    x = QQ.parse(text)
    assert x == a
    _assert_canonical(x)
    assert QQ.fmt(x) == text
    unreduced = QQ.parse(f"{a.numerator * 3}/{a.denominator * 3}")
    assert unreduced == a and QQ.fmt(unreduced) == text
    _assert_canonical(unreduced)


def test_gf_arithmetic():
    assert GF5.add(3, 4) == 2
    assert GF5.inv(2) == 3
    assert GF5.mul(GF5.inv(4), 4) == 1
    assert GF5.parse("4") == 4
    with pytest.raises(FieldError):
        GF5.parse("7")  # outside canonical range
    with pytest.raises(FieldError):
        GF5.inv(0)
    with pytest.raises(FieldError):
        QQ.div(QQ.one, QQ.zero)


@pytest.mark.parametrize("field", [QQ, GF5], ids=["Q", "GF5"])
@pytest.mark.parametrize("value", [1, 0, 1.0, 0.5, 0.1, True, False, None, [1]])
def test_parse_accepts_only_text(field, value):
    """A JSON number or boolean is not a scalar literal: 0.5 would load as
    0 over GF(p), 0.1 as a 55-bit binary fraction over Q, true as 1."""
    with pytest.raises(FieldError):
        field.parse(value)


@pytest.mark.parametrize(
    "field, value",
    [
        (GF7, 1.7), (GF7, 2.0), (QQ, 0.1), (QQ, 1.0), (QQ, float("inf")),
        (GF7, Fraction(1, 2)), (GF7, Decimal("1.7")),
        (GF7, "1/2"), (GF7, "x"), (QQ, "x"), (QQ, "1/0"), (QQ, ""),
        (GF7, None), (QQ, None), (QQ, 1j), (QQ, Decimal("Infinity")),
    ],
)
def test_scalar_refuses_what_is_not_an_exact_scalar(field, value):
    """A float, text that is no literal of the field and, over GF(p), a
    non-integral rational are refused: none is silently truncated."""
    with pytest.raises(FieldError):
        field.scalar(value)


def test_scalar_reads_exact_values():
    assert [GF7.scalar(x) for x in (9, -1, True, Fraction(9, 1), "9", "-1")] == [2, 6, 1, 2, 2, 6]
    assert all(type(GF7.scalar(x)) is int for x in (True, Fraction(9, 1), "9"))
    assert QQ.scalar(True) == 1 and QQ.scalar("1/2") == Fraction(1, 2)
    assert QQ.scalar(Decimal("0.1")) == Fraction(1, 10)


@pytest.mark.parametrize(
    "field, entry",
    [
        (GF7, 1.5), (GF7, 1.0), (GF7, Fraction(1, 2)), (GF7, Fraction(2, 1)), (GF7, "1"),
        (GF7, True), (QQ, 0.1), (QQ, 1.0), (QQ, "1/2"), (QQ, Decimal("0.1")), (QQ, None),
        (QQ, True),
    ],
)
def test_linmap_refuses_an_inexact_entry(field, entry):
    """An entry is stored as given, so it must already be an exact
    scalar of the field: an int over GF(p), an int or a Fraction over Q;
    a bool is no scalar (Q.scalar reads True as 1, but a stored True would
    print as "True")."""
    with pytest.raises(FieldError):
        LinMap(field, 1, 2, {(0, 1): 1, (0, 0): entry})


def test_from_rows_and_scale_refuse_floats():
    with pytest.raises(FieldError):
        LinMap.from_rows(GF7, [[0.5, 1.5]])
    with pytest.raises(FieldError):
        LinMap.from_rows(QQ, [[1, 0.5]])
    with pytest.raises(FieldError):
        LinMap.identity(QQ, ("a", "b")).scale(0.5)
    assert LinMap(GF7, 1, 2, {(0, 0): 9, (0, 1): -1}).entries == {(0, 0): 2, (0, 1): 6}
    assert LinMap(QQ, 1, 1, {(0, 0): Fraction(1, 2)}).entries == {(0, 0): Fraction(1, 2)}
    assert LinMap.from_rows(GF7, [[Fraction(9, 1), "1"]]).entries == {(0, 0): 2, (0, 1): 1}


def test_rational_parse_int_path():
    for text, value in (("12", 12), ("-3", -3), ("007", 7), ("-0", 0)):
        assert QQ.parse(text) == value and type(QQ.parse(text)) is int
    for text in ("-", "", "--1", "1/0", "1.2.3"):
        with pytest.raises(FieldError):
            QQ.parse(text)


def _fraction_parse(text):
    """What Rationals.parse read before its int path: any Fraction literal."""
    try:
        return True, _rational(Fraction(text))
    except (ValueError, ZeroDivisionError):
        return False, None


# no exponent letter: "1e99999999" is a valid literal whose value has a
# hundred million digits
literal_text = st.one_of(
    st.text(max_size=10).filter(lambda t: "e" not in t.lower()),
    st.text(alphabet="0123456789-+/._ ", max_size=12),
    st.from_regex(r"-?[0-9]{1,40}", fullmatch=True),
    st.integers().map(str),
)


@settings(max_examples=500, deadline=None)
@given(literal_text)
def test_rational_parse_agrees_with_fraction(text):
    ok, expected = _fraction_parse(text)
    if not ok:
        with pytest.raises(FieldError):
            QQ.parse(text)
        return
    got = QQ.parse(text)
    assert got == expected and type(got) is type(expected)


def test_gf_map_entries_are_canonical():
    """Entries over GF(p) are reduced to [0, p) on construction, so an
    entry p is no stored zero and equality is that of GF(p)."""
    assert LinMap(GF5, 1, 1, {(0, 0): 5}).entries == {}
    assert LinMap(GF5, 1, 1, {(0, 0): 7}) == LinMap(GF5, 1, 1, {(0, 0): 2})
    assert LinMap(GF5, 1, 2, {(0, 0): -1, (0, 1): 12}).entries == {(0, 0): 4, (0, 1): 2}
    assert LinMap(QQ, 1, 1, {(0, 0): 7}).entries == {(0, 0): 7}


def test_gf_requires_prime():
    with pytest.raises(FieldError):
        PrimeField(6)
    with pytest.raises(FieldError):
        PrimeField(1)
    PrimeField(2)
    PrimeField(97)


def test_field_tags():
    assert field_from_name("Q") == QQ
    assert field_from_name("GF:7") == PrimeField(7)
    with pytest.raises(FieldError):
        field_from_name("R")


def test_is_prime_agrees_with_trial_division_below_10_to_the_5():
    def trial_division(n):
        return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))

    assert [n for n in range(10**5) if exactlin._is_prime(n)] == [
        n for n in range(10**5) if trial_division(n)
    ]


#: the least strong pseudoprime to the first k primes, for k = 1 to 8, and
#: the least Carmichael number
PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                341550071728321, 3825123056546413051, 561)


@pytest.mark.parametrize("n", PSEUDOPRIMES)
def test_is_prime_refuses_strong_pseudoprimes(n):
    assert not exactlin._is_prime(n)


def test_gf_modulus_is_a_prime_below_2_to_the_64():
    """Miller-Rabin over the primes to 37 is exact there; trial division
    took minutes on the largest 64-bit prime."""
    largest = 18446744073709551557  # 2^64 - 59
    assert exactlin._is_prime(largest)
    assert field_from_name(f"GF:{largest}") == PrimeField(largest)
    with pytest.raises(FieldError, match=r"^GF modulus must be below 2\^64"):
        PrimeField(2**64 + 13)
    with pytest.raises(FieldError, match="at most 20 digits"):
        field_from_name("GF:" + "7" * 5000)  # int() of it would raise ValueError


@pytest.mark.parametrize("text", ["1e4301", "-2E-4301", "1.5e+99999", "1_0e1_0_000"])
def test_rational_parse_refuses_a_huge_exponent(text):
    """Fraction("1e999999999") computes 10**999999999; the bound is 4300.
    (Exponents that large run in a child under a timeout, in test_cli.)"""
    with pytest.raises(FieldError, match="exponent beyond 4300"):
        QQ.parse(text)


def test_rational_parse_reads_an_exponent_within_the_bound():
    assert QQ.parse("1e4300") == 10**4300 and QQ.parse("-3E-2") == Fraction(-3, 100)


# -- frozen examples ---------------------------------------------------------


def test_compose_identity():
    i3 = LinMap.identity(QQ, default_labels(3))
    assert compose(i3, i3) == i3


def test_compose_with_inverse_gives_identity():
    f = LinMap.from_rows(QQ, [[2, 1], [1, 1]])
    assert compose(f, invert(f)) == LinMap.identity(QQ, default_labels(2))


def test_compose_swap_squared_over_gf2():
    # by hand: [[0,1],[1,0]]^2 = [[1,0],[0,1]]
    swap = LinMap.from_rows(GF2, [[0, 1], [1, 0]])
    assert compose(swap, swap) == LinMap.identity(GF2, default_labels(2))


def test_kron_identities():
    i2 = LinMap.identity(QQ, default_labels(2, "a"))
    i3 = LinMap.identity(QQ, default_labels(3, "b"))
    i6 = kron(i2, i3)
    assert i6.rows == i6.cols == 6
    assert i6.entries == {(i, i): QQ.one for i in range(6)}


def test_kron_scalar_case():
    # by hand: [[2]] (x) [[3]] = [[6]]
    assert kron(
        LinMap.from_rows(QQ, [[2]]), LinMap.from_rows(QQ, [[3]])
    ).entries == {(0, 0): Fraction(6)}


def test_kron_defining_property_on_basis():
    f = LinMap.from_rows(QQ, [[1, 2], [0, 1], [3, 0]])
    g = LinMap.from_rows(QQ, [[0, 1], [1, 1]])
    fg = kron(f, g)
    for i in range(2):
        for j in range(2):
            col_f = f.column(i)
            col_g = g.column(j)
            expected = {
                (a * 2 + b): QQ.mul(u, v)
                for a, u in col_f.items()
                for b, v in col_g.items()
            }
            assert fg.column(i * 2 + j) == expected


def test_kron_label_concatenation():
    f = LinMap.identity(QQ, (("x",),))
    g = LinMap.identity(QQ, (("y", "z"),))
    assert kron(f, g).dom == (("x", "y", "z"),)
    # the ground field has the empty label, so k is a tensor unit on labels
    eps_like = LinMap.from_rows(QQ, [[1, 1]], dom=default_labels(2), cod=K_LABELS)
    i2 = LinMap.identity(QQ, default_labels(2))
    assert kron(eps_like, i2).cod == i2.cod


def test_invert_identity_and_permutation():
    i4 = LinMap.identity(QQ, default_labels(4))
    assert invert(i4) == i4
    perm = LinMap.from_permutation(QQ, [2, 0, 1], default_labels(3))
    assert invert(perm) == perm.transpose()


def test_invert_two_by_two_by_hand():
    # elimination by hand: [[1,1],[0,1]]^-1 = [[1,-1],[0,1]]
    f = LinMap.from_rows(QQ, [[1, 1], [0, 1]])
    assert invert(f) == LinMap.from_rows(QQ, [[1, -1], [0, 1]])


def test_invert_singular_reports_rank():
    f = LinMap.from_rows(QQ, [[1, 2], [2, 4]])
    with pytest.raises(NotInvertible) as err:
        invert(f)
    assert err.value.rank == 1


def test_compose_rejects_label_mismatch():
    f = LinMap.identity(QQ, default_labels(2, "a"))
    g = LinMap.identity(QQ, default_labels(2, "b"))
    with pytest.raises(DomainMismatch):
        compose(f, g)
    with pytest.raises(DomainMismatch):
        compose(f, LinMap.identity(QQ, default_labels(3, "a")))


def test_swap_map_is_self_inverse_after_flip():
    a = default_labels(2, "a")
    b = default_labels(3, "b")
    s = swap_map(QQ, a, b)
    s_back = swap_map(QQ, b, a)
    assert compose(s_back, s) == LinMap.identity(QQ, s.dom)


def test_swap_map_by_hand():
    """a_i (x) b_j -> b_j (x) a_i, flat (i * 3 + j) -> (j * 2 + i)."""
    a = default_labels(2, "a")
    b = default_labels(3, "b")
    s = swap_map(QQ, a, b)
    assert s.entries == {(j * 2 + i, i * 3 + j): QQ.one for i in range(2) for j in range(3)}
    assert s.dom[1 * 3 + 2] == ("a1", "b2")
    assert s.cod[2 * 2 + 1] == ("b2", "a1")


def test_leg_perm_matches_swap():
    a = default_labels(2, "a")
    b = default_labels(3, "b")
    assert leg_perm(QQ, [a, b], (1, 0)) == swap_map(QQ, a, b)
    ident = leg_perm(QQ, [a, b], (0, 1))
    assert ident == LinMap.identity(QQ, ident.dom)


def test_leg_perm_three_cycle():
    legs = [default_labels(2, "a"), default_labels(2, "b"), default_labels(2, "c")]
    rot = leg_perm(QQ, legs, (1, 2, 0))
    # multi-index (0,1,1) rotates to (1,1,0)
    assert rot.column(0b011) == {0b110: QQ.one}
    assert rot.dom[0b011] == ("a0", "b1", "c1")
    assert rot.cod[0b110] == ("b1", "c1", "a0")


# -- algebraic properties (hypothesis) ---------------------------------------

small_scalar = st.integers(min_value=-3, max_value=3)


def matrices(field, rows, cols):
    return st.lists(
        st.lists(small_scalar, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda data: LinMap.from_rows(field, data))


dims = st.integers(min_value=1, max_value=3)
fields = st.sampled_from([QQ, GF5])


@st.composite
def compose_triples(draw):
    field = draw(fields)
    a, b, c, d = (draw(dims) for _ in range(4))
    f = draw(matrices(field, a, b))
    g = draw(matrices(field, b, c))
    h = draw(matrices(field, c, d))
    return f, g, h


@settings(max_examples=60, deadline=None)
@given(compose_triples())
def test_compose_associative(fgh):
    f, g, h = fgh
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@st.composite
def interchange_quads(draw):
    field = draw(fields)
    a, b, c = draw(dims), draw(dims), draw(dims)
    d, e, f_ = draw(dims), draw(dims), draw(dims)
    return (
        draw(matrices(field, a, b)),
        draw(matrices(field, b, c)),
        draw(matrices(field, d, e)),
        draw(matrices(field, e, f_)),
    )


@settings(max_examples=60, deadline=None)
@given(interchange_quads())
def test_kron_interchange_law(quad):
    f, g, fp, gp = quad
    lhs = kron(compose(f, g), compose(fp, gp))
    rhs = compose(kron(f, fp), kron(g, gp))
    assert lhs.same_entries(rhs)


@st.composite
def square_matrices(draw):
    field = draw(fields)
    n = draw(dims)
    return draw(matrices(field, n, n))


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_invert_round_trip(f):
    try:
        g = invert(f)
    except NotInvertible:
        return
    ident = LinMap.identity(f.field, f.dom)
    assert compose(f, g).same_entries(ident)
    assert compose(g, f).same_entries(ident)


@st.composite
def square_triples(draw):
    field = draw(fields)
    return tuple(draw(matrices(field, n, n)) for n in (draw(dims), draw(dims), draw(dims)))


@settings(max_examples=40, deadline=None)
@given(square_triples())
def test_kron_associative_on_entries(triple):
    a, b, c = triple
    assert kron(kron(a, b), c).same_entries(kron(a, kron(b, c)))


def test_kron_all_folds_left():
    a = LinMap.from_rows(QQ, [[2]])
    b = LinMap.from_rows(QQ, [[3]])
    c = LinMap.from_rows(QQ, [[5]])
    assert kron_all(a, b, c).entries == {(0, 0): Fraction(30)}


# -- leg-wise chains -----------------------------------------------------------

A = default_labels(2, "a")
B = default_labels(3, "b")


def pair(x, y):
    return tuple(a + b for a in x for b in y)


def test_chain_identity_and_labels():
    chain = Chain(QQ, (A, B))
    assert chain.matrix() == LinMap.identity(QQ, pair(A, B))
    assert chain.matrix().dom[4] == ("a1", "b1")
    empty = Chain(QQ, ())
    assert empty.cols == empty.rows == 1
    assert empty.column(0) == {0: QQ.one} and empty.matrix().cod == ((),)


def test_chain_permute_matches_leg_perm():
    chain = Chain(GF5, (A, B, A)).permute(2, 0, 1)
    assert chain.matrix() == leg_perm(GF5, [A, B, A], (2, 0, 1))


def monomial_matrices(field, rows, cols):
    """Matrices with at most one nonzero entry per column."""
    column = st.tuples(st.integers(0, rows - 1), small_scalar)
    return st.lists(column, min_size=cols, max_size=cols).map(
        lambda picks: LinMap(field, rows, cols, {(i, j): v for j, (i, v) in enumerate(picks)})
    )


@st.composite
def chain_factors(draw):
    """f: A (x) B -> B, g: B -> A (x) A, h: A -> k, with random entries;
    either all three monomial or dense."""
    field = draw(fields)
    build = monomial_matrices if draw(st.booleans()) else matrices
    f = draw(build(field, 3, 6)).relabeled(dom=pair(A, B), cod=B)
    g = draw(build(field, 4, 3)).relabeled(dom=B, cod=pair(A, A))
    h = draw(build(field, 1, 2)).relabeled(dom=A, cod=K_LABELS)
    return f, g, h


@settings(max_examples=60, deadline=None)
@given(chain_factors())
def test_chain_matches_matrix_composite(fgh):
    """Chain.matrix() against the kron/leg_perm/compose reference, on
    monomial stages (the kernel without dicts) and dense ones (the sparse
    fallback)."""
    f, g, h = fgh
    field = f.field
    ident_a = LinMap.identity(field, A)
    lf, lg, lh = LegMap(f, (A, B), (B,)), LegMap(g, (B,), (A, A)), LegMap(h, (A,), ())
    la = LegMap(ident_a, (A,), (A,))
    head = Chain(field, (A, A, B)).then(la, lf).then(la, lg)
    chain = head.permute(1, 0, 2).then(lh, la, la)
    matrix = (
        kron_all(h, ident_a, ident_a)
        @ leg_perm(field, [A, A, A], (1, 0, 2))
        @ kron(ident_a, g)
        @ kron(ident_a, f)
    )
    assert chain.matrix() == matrix
    # monomial factors keep every block a frontier with no column list
    monomial = all(m.dest is not None for m in (lf, lg, lh))
    assert (chain.block([0])[0] is None) == monomial
    # the witness rule: same pick as map_witness on the built matrices
    other = head.then(lh, la, la)
    assert family_witnesses(chain, other) == [map_witness(matrix, other.matrix())]


@pytest.mark.parametrize("field", [QQ, GF5], ids=["Q", "GF5"])
def test_chain_out_of_k_matrix(field):
    """A chain on no legs is k; its matrix has the one column () and
    carries the labels kron gives a map out of k."""
    assert Chain(field, ()).matrix() == LinMap.identity(field, K_LABELS)
    u = LinMap(field, 6, 1, {(1, 0): 2, (5, 0): 3}, K_LABELS, pair(A, B))
    unit = LegMap(u, (), (A, B))
    assert Chain(field, ()).then(unit).matrix() == u
    # and into k, through two legs out of k
    eps = LinMap(field, 1, 6, {(0, 1): 1, (0, 4): 4}, pair(A, B), K_LABELS)
    counit = LegMap(eps, (A, B), ())
    assert Chain(field, ()).then(unit).then(counit).matrix() == compose(eps, u)


def test_chain_rejects_mismatched_boundary_labels():
    f = LegMap(LinMap.identity(QQ, A).scale(2), (A,), (A,))
    relabeled = tuple((f"z{i}",) for i in range(2))
    with pytest.raises(DomainMismatch):
        Chain(QQ, (relabeled, B)).then(f, LegMap(LinMap.identity(QQ, B), (B,), (B,)))
    with pytest.raises(DomainMismatch):
        Chain(QQ, (A, B)).then(f)  # factors leave a leg uncovered
    with pytest.raises(DomainMismatch):
        Chain(QQ, (A, B)).then(f, f)  # second leg has the wrong dimension
    with pytest.raises(DomainMismatch):
        Chain(QQ, (A, B)).permute(0, 0)
    with pytest.raises(DomainMismatch):
        Chain(GF5, (A,)).then(f)  # maps over different fields


def test_legmap_checks_labels_against_its_legs():
    with pytest.raises(DomainMismatch):
        LegMap(LinMap.identity(QQ, A), (B,), (B,))
    with pytest.raises(DomainMismatch):
        LegMap(LinMap.identity(QQ, pair(B, A)), (A, B), (A, B))


# -- the block evaluator against the per-column one ----------------------------


def product_labels(legs):
    return tuple(sum(multi, ()) for multi in product(*legs))


def _multi(flat, dims):
    out = []
    for d in reversed(dims):
        flat, idx = divmod(flat, d)
        out.append(idx)
    return tuple(reversed(out))


def image(chain, multi):
    """Chain.column of the basis vector with index tuple multi, keyed by
    codomain index tuples like reference_image."""
    dom_legs, cod_legs = chain.segment_legs(0)
    dom_dims = [len(leg) for leg in dom_legs]
    cod_dims = [len(leg) for leg in cod_legs]
    flat = 0
    for d, idx in zip(dom_dims, multi):
        flat = flat * d + idx
    return {_multi(row, cod_dims): v for row, v in chain.column(flat).items()}


def reference_columns(f):
    """A LegMap's columns {input index tuple: [(output index tuple, scalar)]},
    read off its LinMap."""
    dom_dims = [len(leg) for leg in f.dom_legs]
    cod_dims = [len(leg) for leg in f.cod_legs]
    columns = {}
    for (i, j), value in f.map.entries.items():
        columns.setdefault(_multi(j, dom_dims), []).append((_multi(i, cod_dims), value))
    return columns


def reference_image(field, program, multi):
    """The per-column evaluator: one sparse dict {index tuple: scalar}
    pushed through every stage, exact zeros dropped at each boundary."""
    vec = {multi: field.one}
    for kind, data in program:
        if kind == "perm":
            vec = {tuple(idx[i] for i in data): v for idx, v in vec.items()}
            continue
        out = {}
        for idx, coeff in vec.items():
            terms = [((), coeff)]
            pos = 0
            for f in data:
                stop = pos + len(f.dom_legs)
                images = reference_columns(f).get(idx[pos:stop], [])
                terms = [(key + o, field.mul(v, w)) for key, v in terms for o, w in images]
                pos = stop
            for key, v in terms:
                out[key] = field.add(out.get(key, field.zero), v)
        vec = {key: v for key, v in out.items() if v != field.zero}
    return vec


def reference_witness(field, dom_legs, cod_legs, lhs, rhs):
    """The per-column witness rule: the smallest differing row over all
    columns, the earliest column winning a tie on row."""
    best = None
    for col in product(*[range(len(leg)) for leg in dom_legs]):
        a, b = reference_image(field, lhs, col), reference_image(field, rhs, col)
        for row in a.keys() | b.keys():
            x, y = a.get(row, field.zero), b.get(row, field.zero)
            if x != y and (best is None or row < best[0]):
                best = (row, col, x, y)
    if best is None:
        return None
    row, col, x, y = best
    return Witness(
        domain=sum((dom_legs[k][i] for k, i in enumerate(col)), ()),
        codomain=sum((cod_legs[k][i] for k, i in enumerate(row)), ()),
        lhs=field.fmt(x),
        rhs=field.fmt(y),
    )


def build_chain(field, dom_legs, program):
    chain = Chain(field, dom_legs)
    for kind, data in program:
        chain = chain.permute(*data) if kind == "perm" else chain.then(*data)
    return chain


LEG_SPACES = (A, B)  # dims 2 and 3
MAX_LEGS = 4  # keeps every space of a random chain at most 81-dimensional


def entry_values(field):
    """Values that cancel in sums (1 + 4 = 0 over GF(5), 1 + -1 = 0 over Q),
    reduce to zero over GF(2) (2 and 4), or keep Q on Fractions (1/2)."""
    return st.sampled_from([1, -1, 2, 4] + ([Fraction(1, 2)] if field == QQ else []))


@st.composite
def leg_maps(draw, field, dom_legs, max_cod_legs):
    """A random LegMap out of dom_legs: the identity, a permutation matrix,
    a monomial map with unit scalars or with others (either with or
    without zero columns), or a map with several entries per column."""
    kind = draw(st.sampled_from(["identity", "permutation", "unit", "scaled", "general"]))
    labels = product_labels(dom_legs)
    cols = len(labels)
    if kind == "identity":
        return LegMap(LinMap.identity(field, labels), dom_legs, dom_legs)
    if kind == "permutation":
        perm = draw(st.permutations(range(cols)))
        return LegMap(LinMap.from_permutation(field, perm, labels), dom_legs, dom_legs)
    cod_legs = tuple(draw(st.lists(st.sampled_from(LEG_SPACES), max_size=max_cod_legs)))
    rows = prod(len(l) for l in cod_legs)
    fewest = 0 if draw(st.booleans()) else 1
    entries = {}
    for j in range(cols):
        hits = draw(st.integers(fewest, min(rows, 3) if kind == "general" else 1))
        for i in draw(st.permutations(range(rows)))[:hits]:
            entries[(i, j)] = 1 if kind == "unit" else draw(entry_values(field))
    f = LinMap(field, rows, cols, entries, labels, product_labels(cod_legs))
    return LegMap(f, dom_legs, cod_legs)


@st.composite
def programs(draw, field, legs, steps):
    """Stages from legs: permutations, and Kronecker stages whose factors
    cover consecutive runs of legs, empty runs (maps out of k) included."""
    program = []
    for _ in range(steps):
        if len(legs) > 1 and draw(st.booleans()):
            order = tuple(draw(st.permutations(range(len(legs)))))
            program.append(("perm", order))
            legs = tuple(legs[i] for i in order)
            continue
        cuts = sorted(draw(st.lists(st.integers(0, len(legs)), max_size=3)))
        bounds = [0] + cuts + [len(legs)]
        factors = []
        spare = MAX_LEGS - len(legs)
        for a, b in zip(bounds, bounds[1:]):
            factors.append(draw(leg_maps(field, legs[a:b], min(2, b - a + spare))))
            spare -= len(factors[-1].cod_legs) - (b - a)
        program.append(("then", tuple(factors)))
        legs = tuple(leg for f in factors for leg in f.cod_legs)
    return program, legs


def perturb(draw, field, program):
    """The program with one entry of one non-identity factor changed."""
    spots = [
        (s, k) for s, (kind, data) in enumerate(program) if kind == "then"
        for k, f in enumerate(data) if f.map.rows * f.map.cols
    ]
    if not spots:
        return program
    s, k = draw(st.sampled_from(spots))
    f = program[s][1][k]
    key = (draw(st.integers(0, f.map.rows - 1)), draw(st.integers(0, f.map.cols - 1)))
    entries = dict(f.map.entries)
    entries[key] = draw(st.sampled_from([0, 1, 3]))
    g = LegMap(LinMap(field, f.map.rows, f.map.cols, entries, f.map.dom, f.map.cod),
               f.dom_legs, f.cod_legs)
    factors = program[s][1][:k] + (g,) + program[s][1][k + 1:]
    return program[:s] + [("then", factors)] + program[s + 1:]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_block_evaluator_matches_per_column_reference(data):
    field = data.draw(st.sampled_from([QQ, GF5, PrimeField(2)]))
    dom_legs = tuple(data.draw(st.lists(st.sampled_from(LEG_SPACES), max_size=3)))
    program, cod_legs = data.draw(programs(field, dom_legs, data.draw(st.integers(1, 4))))
    other = perturb(data.draw, field, program) if data.draw(st.booleans()) else program
    lhs, rhs = build_chain(field, dom_legs, program), build_chain(field, dom_legs, other)
    saved = exactlin.BLOCK
    exactlin.BLOCK = data.draw(st.sampled_from([1, 2, 5, saved]))
    try:
        for col in product(*[range(len(leg)) for leg in dom_legs]):
            assert image(lhs, col) == reference_image(field, program, col)
        assert family_witnesses(lhs, rhs) == [
            reference_witness(field, dom_legs, cod_legs, program, other)
        ]
    finally:
        exactlin.BLOCK = saved


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_frontier_without_columns_has_no_scalars(data):
    """Every stage of a block sets a column list whenever it sets scalars, so
    report._smallest_difference reads no scalars on a frontier whose column
    list is None."""
    field = data.draw(st.sampled_from([QQ, GF5, PrimeField(2)]))
    dom_legs = tuple(data.draw(st.lists(st.sampled_from(LEG_SPACES), max_size=3)))
    program, _ = data.draw(programs(field, dom_legs, data.draw(st.integers(1, 4))))
    chain, stage, frontiers = build_chain(field, dom_legs, program), exactlin._stage, []
    exactlin._stage = lambda *args: frontiers.append(stage(*args)) or frontiers[-1]
    try:
        frontiers.append(chain.block(range(chain.dom_size)))
    finally:
        exactlin._stage = stage
    assert all(scalars is None for cols, _, scalars in frontiers if cols is None)


@pytest.mark.parametrize("field", [QQ, GF5], ids=["Q", "GF5"])
def test_entries_that_cancel_leave_no_zero(field):
    """a0 -> a0 + a1 -> a0 - a0: the image is empty, not {a0: 0}, and the
    chain equals the zero map."""
    split = LegMap(LinMap(field, 2, 2, {(0, 0): 1, (1, 0): 1}, A, A), (A,), (A,))
    fold = LegMap(LinMap(field, 2, 2, {(0, 0): 1, (0, 1): -1}, A, A), (A,), (A,))
    chain = Chain(field, (A,)).then(split).then(fold)
    zero = Chain(field, (A,)).then(LegMap(LinMap.zero_map(field, A, A), (A,), (A,)))
    assert image(chain, (0,)) == {} and chain.column(0) == {}
    assert family_witnesses(chain, zero) == [None]


X = default_labels(2 * BLOCK + 50, "x")
Y = default_labels(12, "y")


def one_leg_chain(columns, extra=None):
    """X -> Y sending column j to row columns[j] with scalar 1 (a monomial
    map), plus the entries extra (making it non-monomial)."""
    entries = {(row, j): 1 for j, row in enumerate(columns)}
    entries.update(extra or {})
    f = LinMap(QQ, len(Y), len(X), entries, X, Y)
    return Chain(QQ, (X,)).then(LegMap(f, (X,), (Y,)))


@pytest.mark.parametrize("monomial", [True, False], ids=["monomial", "fallback"])
def test_witness_is_carried_across_blocks(monomial):
    base = [j % 7 + 5 for j in range(len(X))]  # rows 5..11
    extra = None if monomial else {(11, len(X) - 1): 2}
    lhs = one_leg_chain(base, extra)
    first, second, third = 3, BLOCK + 10, 2 * BLOCK + 20

    def differing(changes):
        columns = list(base)
        for j, row in changes.items():
            columns[j] = row
        return one_leg_chain(columns, extra)

    def witness_at(j, row, lhs_value, rhs_value):
        return Witness(domain=X[j], codomain=Y[row], lhs=lhs_value, rhs=rhs_value)

    # block 0 differs at a larger row, block 1 at a smaller one: block 1 wins,
    # with zero on the side that misses the smaller row
    rhs = differing({first: 4, second: 1})
    assert family_witnesses(lhs, rhs) == [witness_at(second, 1, "0", "1")]
    # a tie on row keeps the earlier column, across blocks and within one
    rhs = differing({first: 2, second: 2, second + 1: 2, third: 2})
    assert family_witnesses(lhs, rhs) == [witness_at(first, 2, "0", "1")]
    # sides landing in the same row with different values
    doubled = lhs.then(LegMap(LinMap.identity(QQ, Y).scale(2), (Y,), (Y,)))
    assert family_witnesses(doubled, lhs) == [witness_at(0, base[0], "2", "1")]
    assert family_witnesses(lhs, lhs) == [None]


# -- kernel engagement -----------------------------------------------------------


def v4_crossed_by_s3():
    """k[V4] with S3 permuting its three involutions, through the power
    construction."""
    from quasibraid.gchq import power_construction
    from quasibraid.hq import group_algebra
    from quasibraid.tables import GroupAction, GroupTable

    v4 = GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2))
    maps = [[0] + [p[k] + 1 for k in range(3)] for p in sorted(permutations(range(3)))]
    action = GroupAction(GroupTable.symmetric(3), v4, maps)
    return power_construction(group_algebra(v4, QQ), action)


def test_benchmark_structures_run_on_the_monomial_kernel(monkeypatch):
    """Every chain identity the validators, the braiding-law suite and the
    constructions compare on these structures (each through
    family_witnesses, wherever it is bound) has only monomial factors;
    every block, of a law or of a construction's Chain.matrix(), comes
    out a frontier with neither a column list nor a scalar list, and no
    stage expands a column into its images."""
    from test_hq_legwise import chein_loop
    from quasibraid import fixtures, gchq, report, yd
    from quasibraid.gchq import mirror, validate_crossing, validate_gchq
    from quasibraid.hq import antipode_inverse_laws, loop_algebra, validate_hopf_quasigroup
    from quasibraid.tables import GroupTable
    from quasibraid.yd import (
        check_braiding_inverse,
        check_braiding_laws,
        conjugation_coherence,
        diagonal_module,
        validate_yd,
        yd_direct_sum,
    )

    calls = {"checks": 0, "stages": 0, "blocked": 0, "expanded": 0}
    family_witnesses = report.family_witnesses
    block, images = Chain.block, exactlin._images

    def counted_check(lhs, rhs):
        calls["checks"] += lhs.segments
        for chain in (lhs, rhs):
            factors = [f for _, terms in chain.stages for *_, f in terms if f is not None]
            assert all(f.dest is not None for f in factors), "a factor without a dest"
            calls["stages"] += len(chain.stages)
        return family_witnesses(lhs, rhs)

    def counted_block(self, cols, *located):
        frontier = block(self, cols, *located)
        assert frontier[0] is None and frontier[2] is None, "a column list or a scalar list"
        calls["blocked"] += len(self.stages)
        return frontier

    def counted_images(*args):
        calls["expanded"] += 1
        return images(*args)

    for module in (report, gchq, yd):
        monkeypatch.setattr(module, "family_witnesses", counted_check)
    monkeypatch.setattr(Chain, "block", counted_block)
    monkeypatch.setattr(exactlin, "_images", counted_images)

    for h in (fixtures.hq_o16(), loop_algebra(chein_loop(GroupTable.symmetric(3)), QQ)):
        validate_hopf_quasigroup(h)
        antipode_inverse_laws(h)
    power = v4_crossed_by_s3()
    for base in (power, mirror(power)):
        validate_gchq(base)
        validate_crossing(base)
    module = diagonal_module(power)
    validate_yd(module)
    _, incl, _ = yd_direct_sum(module, module)
    for rep in (
        check_braiding_laws(module, module, module, incl, incl),
        check_braiding_inverse(module, module),
        conjugation_coherence(module, module),
    ):
        assert rep.passed
    assert calls["checks"] > 0 and calls["stages"] > 0
    assert calls["blocked"] > 0
    assert calls["expanded"] == 0


#: CLI runs on the bundled fixtures, each ending in exit 0
CLI_TRAFFIC = (
    ["construct", "--op", "power", "hq-c3.json", "action-c2-on-c3.json"],
    ["construct", "--op", "mirror", "gchq-power.json"],
    ["construct", "--op", "yd-tensor", "yd-crossed-s3.json", "yd-crossed-s3.json"],
    ["construct", "--op", "yd-conjugate", "yd-diagonal-power.json", "--grade", "g"],
    ["construct", "--op", "direct-sum", "yd-diagonal-power.json", "yd-trivial.json"],
    ["braid-report", "yd-crossed-s3.json", "yd-crossed-s3.json", "yd-crossed-s3.json"],
    ["braid-report", "yd-diagonal-power.json", "yd-trivial.json", "yd-diagonal-power.json"],
)


@pytest.mark.parametrize("argv", CLI_TRAFFIC, ids=lambda argv: " ".join(argv[:3]))
def test_cli_traffic_is_unit_monomial(argv, tmp_path, monkeypatch, capsys):
    """The premise of the frontier with no lists: every structure map the
    constructions and the braiding suite build on group-like inputs is an
    identity or monomial (one entry, field.one, in each column), so no
    block creates a scalar list or expands a column.  A change that made
    these maps scaled fails here instead of quietly slowing every run."""
    from quasibraid import cli, fixtures

    fixtures.write_all(tmp_path)
    built, expansions = [], []
    init, images = LegMap.__init__, exactlin._images

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def counted_images(*args):
        expansions.append(args)
        return images(*args)

    monkeypatch.setattr(LegMap, "__init__", recorded_init)
    monkeypatch.setattr(exactlin, "_images", counted_images)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    out = ["--out", str(tmp_path / "out.json")] if argv[0] == "construct" else []
    assert cli.main(argv + out) == 0, capsys.readouterr()
    assert built and all(f.dest is not None for f in built)
    assert not expansions


# -- LegMap facts, read in one pass ---------------------------------------------------


def reference_leg_facts(f, dom_legs, cod_legs):
    """(columns, dest) of a LegMap, from a sorted copy of f.entries and an
    identity dict to compare against: columns {input position: [(output
    position, scalar), ...]} sorted by output, no key for a zero column;
    dest range(cols) for an identity, else only when every column holds
    exactly one entry, field.one."""
    one = f.field.one
    columns = {}
    for (i, j), value in sorted(f.entries.items()):
        columns.setdefault(j, []).append((i, value))
    if dom_legs == cod_legs and f.entries == {(i, i): one for i in range(f.rows)}:
        return columns, range(f.cols)
    if len(columns) == f.cols and all(
        len(images) == 1 and images[0][1] == one for images in columns.values()
    ):
        return columns, [columns[j][0][0] for j in range(f.cols)]
    return columns, None


@st.composite
def leg_map_cases(draw):
    """A map between products of one or two legs over Q or GF(5): an
    identity, a permutation, a rescaled one (column 0 scaled by 2), one
    with zero columns (column 0 among them), or a dense one, its entries
    inserted in a drawn order."""
    field = draw(st.sampled_from([QQ, GF5]))
    kind = draw(st.sampled_from(["identity", "monomial", "scaled", "holes", "dense"]))
    leg_sizes = draw(st.sampled_from([(1,), (3,), (2, 2), (2, 3)]))
    dom_legs = [default_labels(n, f"x{k}") for k, n in enumerate(leg_sizes)]
    n = prod(leg_sizes)
    cod_legs = dom_legs if kind == "identity" else [default_labels(draw(st.integers(1, 4)), "y")]
    rows = prod(map(len, cod_legs))
    scalar = st.sampled_from([1, 2, -1, Fraction(1, 3)] if field == QQ else [1, 2, 4])
    if kind == "identity":
        entries = {(j, j): field.one for j in range(n)}
    elif kind == "dense":
        entries = {
            (i, j): field.scalar(draw(scalar))
            for i in range(rows) for j in range(n) if draw(st.booleans())
        }
    else:
        entries = {}
        for j in range(n):
            if kind != "holes" or (j and draw(st.booleans())):
                value = draw(scalar) if kind in ("scaled", "holes") else 1
                value = 2 if kind == "scaled" and j == 0 else value
                entries[(draw(st.integers(0, rows - 1)), j)] = field.scalar(value)
    order = draw(st.permutations(sorted(entries)))
    f = LinMap(field, rows, n, {key: entries[key] for key in order},
               product_labels(dom_legs), product_labels(cod_legs))
    return kind, f, dom_legs, cod_legs


@settings(max_examples=300, deadline=None)
@given(leg_map_cases())
def test_leg_map_facts_match_the_sorted_reading(case):
    kind, f, dom_legs, cod_legs = case
    g = LegMap(f, dom_legs, cod_legs)
    columns, dest = reference_leg_facts(f, g.dom_legs, g.cod_legs)
    assert type(g.dest) is type(dest) and g.dest == dest
    positions, scalars, unit, most = g.images()
    assert [list(zip(*images)) for images in zip(positions, scalars)] == [
        columns.get(j, []) for j in range(f.cols)]  # a zero column has no images
    assert unit == all(value == f.field.one for value in f.entries.values())
    assert most == max(map(len, columns.values()), default=0)
    if kind in ("scaled", "holes"):
        assert g.dest is None


def test_a_leg_map_that_entered_a_chain_is_freed_by_reference_counting():
    """A LegMap is its own one-segment factor and keeps no factor that
    points back at it, so once a chain has read it, deleting the last
    reference frees it: no cycle is left for the collector."""
    labels = default_labels(3, "x")
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            m = LegMap(LinMap.identity(QQ, labels), (labels,), (labels,))
            Chain(QQ, (labels,)).then(m)
            del m
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0
