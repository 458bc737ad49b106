"""Single (ungraded) Hopf quasigroups as structure constants.

A HopfQuasigroup packs a unital, not necessarily associative algebra
(multiplication tensor + unit vector) with a coassociative coalgebra and
an antipode.  It is the |G| = 1 crossed structure: h.graded, the one
component over the trivial group, is built with h as its shape check, so
this module builds on gchq.  The validator decides every axiom as an identity between two Chains
of leg-wise stages (exactlin), evaluated in blocks of basis vectors, so its
cost grows with the number of basis tuples and not with the size of a
matrix on H^{(x)3} or H^{(x)4}; associativity is reported but never
required, which is the whole point of the structure.
"""

from .errors import InvalidInput, InvalidLoop, MalformedStructure, NotInvertible
from .exactlin import K_LABELS, LegMap, LinMap, product_labels
from .gchq import CrossedGCHQ, hq_laws, legs_map, map_legs
from .report import Report
from . import tables


class UnitalAlgebra:
    """dim-dimensional algebra: mult[(i,j,k)] is the e_k coefficient of e_i e_j."""

    __slots__ = ("field", "dim", "labels", "mult", "unit")

    def __init__(self, field, dim, labels, mult, unit):
        self.field = field
        self.dim = dim
        self.labels = tuple(labels)
        if len(self.labels) != dim:
            raise MalformedStructure("label count does not match dimension")
        self.mult = dict(mult)  # filtered only when some value is zero
        if field.zero in mult.values():
            self.mult = {key: value for key, value in mult.items() if value != field.zero}
        for i, j, k in self.mult:  # three plain ints: a bool or float index is saved unreadable
            if not (type(i) is type(j) is type(k) is int):
                raise MalformedStructure(f"mult index {(i, j, k)} is not three ints")
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise MalformedStructure(f"mult index {(i, j, k)} outside dimension {dim}")
        self.unit = tuple(unit)
        if len(self.unit) != dim:
            raise MalformedStructure("unit vector length does not match dimension")

    def mult_map(self):
        """Multiplication as a LinMap H (x) H -> H."""
        entries = {
            (k, i * self.dim + j): value for (i, j, k), value in self.mult.items()
        }
        dom = product_labels((self.labels, self.labels))
        return LinMap(self.field, self.dim, self.dim * self.dim, entries, dom, self.labels)

    def unit_map(self):
        """Unit as a LinMap k -> H."""
        entries = {
            (i, 0): value for i, value in enumerate(self.unit) if value != self.field.zero
        }
        return LinMap(self.field, self.dim, 1, entries, K_LABELS, self.labels)

    def relabeled(self, labels):
        return UnitalAlgebra(self.field, self.dim, labels, self.mult, self.unit)

    def __eq__(self, other):
        if not isinstance(other, UnitalAlgebra):
            return NotImplemented
        return (
            self.field == other.field
            and self.dim == other.dim
            and self.labels == other.labels
            and self.mult == other.mult
            and self.unit == other.unit
        )

    __hash__ = None

    def __repr__(self):
        return f"UnitalAlgebra(dim={self.dim}, {self.field.name})"


class HopfQuasigroup:
    """Algebra + coalgebra + antipode over one based space; immutable once built.

    graded is h as the one component over the trivial group.  Building it
    is h's shape check, and its legs are the structure maps as LegMaps."""

    __slots__ = ("field", "algebra", "comult", "counit", "antipode", "graded")

    def __init__(self, field, algebra, comult, counit, antipode):
        self.field = field
        self.algebra = algebra
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self.graded = CrossedGCHQ(
            field, tables.GroupTable.trivial(), [algebra], {(0, 0): comult}, counit, {0: antipode},
            {(0, 0): LinMap.identity(field, algebra.labels)},
        )

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def labels(self):
        return self.algebra.labels

    def __eq__(self, other):
        if not isinstance(other, HopfQuasigroup):
            return NotImplemented
        return self.graded == other.graded

    __hash__ = None

    def __repr__(self):
        return f"HopfQuasigroup(dim={self.dim}, {self.field.name})"


def loop_algebra(t, field, check=True):
    """Group-like structure on the basis of a loop: Dx = x(x)x, eps(x) = 1,
    S(x) = x^-1.  The loop must pass tables.required_loop_laws, not Moufang
    or associativity (k[L] is a Hopf quasigroup exactly when L is an IP
    loop), unless check is disabled (to probe deliberately broken tables)."""
    if check:
        rep = tables.required_loop_laws(t)
        if not rep.passed:
            raise InvalidLoop(
                "table is not an inverse-property loop: "
                + ", ".join(rep.failed_ids())
            )
    n, one, elements = t.order, field.one, range(t.order)
    labels = tuple((s,) for s in t.labels)
    mult = {(i, j, k): one for i, row in enumerate(t.table) for j, k in enumerate(row)}
    unit = tuple(one if i == 0 else field.zero for i in elements)
    algebra = UnitalAlgebra(field, n, labels, mult, unit)
    signature = map_legs(tables.GroupTable.trivial(), [algebra])
    comult = legs_map(field, {(i * n + i, i): one for i in elements}, signature["comult"][(0, 0)])
    counit = legs_map(field, {(0, i): one for i in elements}, signature["counit"][None])
    inv = [t.right_inverse[i] for i in elements]
    if any(v is None for v in inv):
        raise InvalidLoop("some element has no right inverse; cannot build antipode")
    antipode = LinMap.from_permutation(field, inv, labels)
    return HopfQuasigroup(field, algebra, comult, counit, antipode)


def group_algebra(g, field):
    """Loop algebra of a group table (always a Hopf algebra)."""
    return loop_algebra(tables.LoopTable.from_group(g), field)


#: (HQ ID, the gchq.hq_laws ID of the same law at |G| = 1), in HQ report order
_SHARED_LAWS = (
    ("HQ-unit-left", "GHQ-component-unit-left"),
    ("HQ-unit-right", "GHQ-component-unit-right"),
    ("HQ-coassoc", "GHQ-3.1-coassoc"),
    ("HQ-counit-left", "GHQ-3.2-counit-left"),
    ("HQ-counit-right", "GHQ-3.2-counit-right"),
    ("HQ-delta-multiplicative", "GHQ-delta-multiplicative"),
    ("HQ-delta-unit", "GHQ-delta-unit"),
    ("HQ-epsilon-multiplicative", "GHQ-epsilon-multiplicative"),
    ("HQ-epsilon-unit", "GHQ-epsilon-unit"),
    ("HQ-2.5-left", "GHQ-3.3-left"),
    ("HQ-2.5-right", "GHQ-3.3-right"),
    ("HQ-2.6-left", "GHQ-3.4-left"),
    ("HQ-2.6-right", "GHQ-3.4-right"),
)


def validate_hopf_quasigroup(h):
    """All axioms as exact identities between two Chains, with witnesses.

    Each side is a chain of leg-wise stages read left to right (the first
    stage is applied first) and is evaluated in blocks of basis vectors of
    H, H (x) H or H (x) H (x) H, so no map on H^{(x)3} or H^{(x)4} is built.
    All but HQ-assoc are gchq.hq_laws on h.graded, under _SHARED_LAWS IDs.
    Associativity (HQ-assoc) is informational; the compensation laws
    HQ-2.5-*/HQ-2.6-* are what the antipode must satisfy instead.
    """
    rep = Report(f"hopf quasigroup (dim {h.dim}, {h.field.name})")
    sides = {law[0]: law[2:] for laws in hq_laws(h.graded) for law in laws}
    for check_id, law in _SHARED_LAWS:
        rep.add_family(check_id, ("",), *sides[law])

    L = h.graded.legs
    mu, eta, delta, eps, s, i = L.mu[0], L.eta[0], L.delta[(0, 0)], L.eps, L.s[0], L.ident[0]
    h1, h3 = L.chain(0), L.chain(0, 0, 0)
    # associativity, reported but not required
    if rep.add_family(
        "HQ-assoc", ("",), h3.then(mu, i).then(mu), h3.then(i, mu).then(mu), required=False
    ):
        # associative case degenerates to the usual Hopf antipode law
        rep.add_family(
            "HQ-hopf-antipode",
            ("",),
            h1.then(delta).then(s, i).then(mu),
            h1.then(eps).then(eta),
            required=False,
        )
    return rep


def antipode_inverse_laws(h):
    """The compensation identities for the inverse antipode, as Chain
    identities like validate_hopf_quasigroup; reports
    HQ-antipode-bijective failed instead of raising when S is singular."""
    field = h.field
    rep = Report(f"antipode inverse laws (dim {h.dim}, {field.name})")
    try:
        s_inv = h.antipode.invert()
    except NotInvertible as exc:
        rep.add(
            "HQ-antipode-bijective",
            False,
            detail=f"antipode not bijective (rank {exc.rank})",
        )
        return rep
    rep.add("HQ-antipode-bijective", True)

    L = h.graded.legs
    mu, delta, eps, i = L.mu[0], L.delta[(0, 0)], L.eps, L.ident[0]
    s_inv = LegMap(s_inv, L.H[0], L.H[0])
    h2 = L.chain(0, 0)
    # h (x) g -> h2 (x) h1 (x) g and h (x) g -> h (x) g2 (x) g1
    flip_first = h2.then(delta, i).permute(1, 0, 2)
    flip_last = h2.then(i, delta).permute(0, 2, 1)
    eps_i = h2.then(eps, i)
    i_eps = h2.then(i, eps)
    for check_id, lhs, rhs in (
        ("HQ-2.9-left", flip_first.then(s_inv, i, i).then(i, mu), eps_i),
        ("HQ-2.9-right", flip_first.then(i, s_inv, i).then(i, mu), eps_i),
        ("HQ-2.10-left", flip_last.then(i, s_inv, i).then(mu, i), i_eps),
        ("HQ-2.10-right", flip_last.then(i, i, s_inv).then(i, mu), i_eps),
    ):
        rep.add_family(check_id, ("",), lhs.then(mu), rhs)
    return rep


def from_hopf_quasigroup(h):
    """h as the single component over the trivial group (h.graded); raises
    InvalidInput unless validate_hopf_quasigroup passes on h."""
    rep = validate_hopf_quasigroup(h)
    if not rep.passed:
        raise InvalidInput("not a valid Hopf quasigroup: " + ", ".join(rep.failed_ids()))
    return h.graded
