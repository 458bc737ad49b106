"""Valid Hopf quasigroups outside a group-like basis, whose structure maps
are not monomial (a column with several entries, a scalar other than one,
or a zero column), so that every stage of a law reads scalars.

- function_algebra(G, field): the function algebra k^G, dual to k[G];
- transport(h, moves): h conjugated by the tensor powers of a unitriangular
  integer matrix T, an isomorphic structure with the same verdicts;
- one_entry_mutant(h, part, entry, value): h with one entry of one map set.
"""

from quasibraid.exactlin import K_LABELS, LinMap, compose, kron, product_labels
from quasibraid.hq import HopfQuasigroup, UnitalAlgebra

#: elementary moves (i, j, c), i < j: T adds c times basis vector i to vector j
ONE_MOVE = ((0, 1, 1),)
FOUR_MOVES = ((0, 1, 1), (1, 2, -1), (2, 5, 2), (3, 4, 1))


def function_algebra(g, field):
    """k^G on the delta functions e_g: e_g e_h = delta_{g,h} e_g, unit the
    sum of every e_g, Delta(e_g) = sum_h e_h (x) e_{h^-1 g}, eps(e_g) =
    delta_{g,1} and S(e_g) = e_{g^-1}."""
    n, one = g.order, field.one
    labels = tuple((f"d{label}",) for label in g.labels)
    algebra = UnitalAlgebra(field, n, labels, {(x, x, x): one for x in range(n)}, [one] * n)
    comult = LinMap(
        field, n * n, n,
        {(h * n + g.mul(g.inv(h), x), x): one for x in range(n) for h in range(n)},
        labels, product_labels((labels, labels)),
    )
    counit = LinMap(field, 1, n, {(0, 0): one}, labels, K_LABELS)
    antipode = LinMap.from_permutation(field, [g.inv(x) for x in range(n)], labels)
    return HopfQuasigroup(field, algebra, comult, counit, antipode)


def _unitriangular(field, labels, moves):
    n = len(labels)
    t = LinMap.identity(field, labels)
    for i, j, c in moves:
        move = {(k, k): field.one for k in range(n)}
        move[(i, j)] = field.scalar(c)
        t = compose(t, LinMap(field, n, n, move, labels, labels))
    return t


def transport(h, moves):
    """h carried along T, the product of the moves: m' = T^-1 m (T (x) T),
    1' = T^-1 1, Delta' = (T^-1 (x) T^-1) Delta T, eps' = eps T and S' =
    T^-1 S T, on the same labels."""
    field, labels, n = h.field, h.labels, h.dim
    t = _unitriangular(field, labels, moves)
    t_inv = t.invert()
    mult = compose(t_inv, compose(h.algebra.mult_map(), kron(t, t)))
    unit = compose(t_inv, h.algebra.unit_map())
    algebra = UnitalAlgebra(
        field, n, labels,
        {(j // n, j % n, k): v for (k, j), v in mult.entries.items()},
        [unit.entry(k, 0) for k in range(n)],
    )
    comult = compose(kron(t_inv, t_inv), compose(h.comult, t))
    return HopfQuasigroup(
        field, algebra, comult, compose(h.counit, t), compose(t_inv, compose(h.antipode, t))
    )


def one_entry_mutant(h, part, entry, value):
    """h with entry (row, col) of its comult, counit or antipode set to value."""
    maps = {"comult": h.comult, "counit": h.counit, "antipode": h.antipode}
    m = maps[part]
    entries = dict(m.entries)
    entries[entry] = h.field.scalar(value)
    maps[part] = LinMap(h.field, m.rows, m.cols, entries, m.dom, m.cod)
    return HopfQuasigroup(h.field, h.algebra, maps["comult"], maps["counit"], maps["antipode"])
