"""Exact linear algebra kernel: fields, composition, Kronecker, inversion,
and leg-wise chains."""

from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibraid import exactlin
from quasibraid.errors import DomainMismatch, FieldError, NotInvertible
from quasibraid.report import Witness, chain_witness, map_witness
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
    swap_map,
)

GF2 = PrimeField(2)
GF5 = PrimeField(5)


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
    # monomial factors keep every column on the monomial kernel
    monomial = all(m.dest is not None for m in (lf, lg, lh))
    assert chain.block([0])[0] == monomial
    # the witness rule: same pick as map_witness on the built matrices
    other = head.then(lh, la, la)
    assert chain_witness(chain, other) == map_witness(matrix, other.matrix())


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
    dom_dims = [len(leg) for leg in chain.dom_legs]
    cod_dims = [len(leg) for leg in chain.cod_legs]
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
        assert chain_witness(lhs, rhs) == reference_witness(
            field, dom_legs, cod_legs, program, other
        )
    finally:
        exactlin.BLOCK = saved


@pytest.mark.parametrize("field", [QQ, GF5], ids=["Q", "GF5"])
def test_entries_that_cancel_leave_no_zero(field):
    """a0 -> a0 + a1 -> a0 - a0: the image is empty, not {a0: 0}, and the
    chain equals the zero map."""
    split = LegMap(LinMap(field, 2, 2, {(0, 0): 1, (1, 0): 1}, A, A), (A,), (A,))
    fold = LegMap(LinMap(field, 2, 2, {(0, 0): 1, (0, 1): -1}, A, A), (A,), (A,))
    chain = Chain(field, (A,)).then(split).then(fold)
    zero = Chain(field, (A,)).then(LegMap(LinMap.zero_map(field, A, A), (A,), (A,)))
    assert image(chain, (0,)) == {} and chain.column(0) == {}
    assert chain_witness(chain, zero) is None


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
    assert chain_witness(lhs, rhs) == witness_at(second, 1, "0", "1")
    # a tie on row keeps the earlier column, across blocks and within one
    rhs = differing({first: 2, second: 2, second + 1: 2, third: 2})
    assert chain_witness(lhs, rhs) == witness_at(first, 2, "0", "1")
    # sides landing in the same row with different values
    assert chain_witness(lhs.then(LegMap(LinMap.identity(QQ, Y).scale(2), (Y,), (Y,))), lhs) \
        == witness_at(0, base[0], "2", "1")
    assert chain_witness(lhs, lhs) is None


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
    """Every chain identity the validators and the braiding-law suite state
    on these structures has only monomial stages; every stage that any
    block, of a law or of a construction's Chain.matrix(), pushes through
    runs on the flat stage function, and none takes the sparse
    fallback."""
    from test_hq_legwise import chein_loop
    from quasibraid import fixtures
    from quasibraid.gchq import mirror, validate_crossing, validate_gchq
    from quasibraid.hq import antipode_inverse_laws, loop_algebra, validate_hopf_quasigroup
    from quasibraid.report import Report
    from quasibraid.tables import GroupTable
    from quasibraid.yd import (
        check_braiding_inverse,
        check_braiding_laws,
        check_crossed_equivalence,
        conjugation_coherence,
        diagonal_module,
        validate_yd,
        yd_direct_sum,
    )

    calls = {"checks": 0, "stages": 0, "blocked": 0, "flat": 0, "fallback": 0}
    add_chain_equality = Report.add_chain_equality
    block, flat_stage, apply_kron = Chain.block, exactlin._flat_stage, exactlin._apply_kron

    def counted_check(self, check_id, lhs, rhs, *args, **kwargs):
        calls["checks"] += 1
        for chain in (lhs, rhs):
            assert all(monomial for monomial, _ in chain.stages), (
                f"{check_id}: a non-monomial stage"
            )
            calls["stages"] += len(chain.stages)
        return add_chain_equality(self, check_id, lhs, rhs, *args, **kwargs)

    def counted_block(self, cols):
        calls["blocked"] += len(self.stages)
        return block(self, cols)

    def counted_flat(*args):
        calls["flat"] += 1
        return flat_stage(*args)

    def counted_fallback(*args):
        calls["fallback"] += 1
        return apply_kron(*args)

    monkeypatch.setattr(Report, "add_chain_equality", counted_check)
    monkeypatch.setattr(Chain, "block", counted_block)
    monkeypatch.setattr(exactlin, "_flat_stage", counted_flat)
    monkeypatch.setattr(exactlin, "_apply_kron", counted_fallback)

    for h in (fixtures.hq_o16(), loop_algebra(chein_loop(GroupTable.symmetric(3)), QQ)):
        validate_hopf_quasigroup(h)
        antipode_inverse_laws(h)
    power = v4_crossed_by_s3()
    for base in (power, mirror(power)):
        validate_gchq(base)
        validate_crossing(base)
    module = diagonal_module(power)
    validate_yd(module)
    check_crossed_equivalence(module)
    _, incl, _ = yd_direct_sum(module, module)
    for rep in (
        check_braiding_laws(module, module, module, incl, incl),
        check_braiding_inverse(module, module),
        conjugation_coherence(module, module),
    ):
        assert rep.passed
    assert calls["checks"] > 0 and calls["stages"] > 0
    assert calls["flat"] == calls["blocked"] > 0
    assert calls["fallback"] == 0
