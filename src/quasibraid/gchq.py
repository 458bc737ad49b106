"""Crossed group-cograded Hopf quasigroups.

The total object is a family of unital algebras H_p indexed by a finite
group G, with comultiplications, a counit, antipodes and a crossing.
map_legs states the spaces of each map once, with the labels of their
products: the loaders label the maps with them, and a structure keeps its
own (h.signature), checks its maps against it and reads them as LegMaps
through it (h.legs).  Products across different grades are not
representable in this encoding, which makes the vanishing condition
structural.

Everything here is a Chain over those legs.  The validators state every
axiom once for all its grade tuples, as an identity between two families
of Chains with one segment per tuple (Table.stack draws each tuple's
structure map), decided once per class of segments that act alike and
recorded with one check per tuple, in tuple order.  A plain Hopf
quasigroup is the |G| = 1 case: hq builds on this module, and nothing
here imports hq.  The constructions are the power construction (one copy
of a Hopf quasigroup per group element, crossed by an automorphic action)
and the mirror, which rebuilds the structure on the inverse-indexed
components with a twisted comultiplication and antipode, each a family
materialized with Chain.matrices().  Both check only their input; the
caller validates the result (CLI construct runs validate_crossed on it).
"""

from itertools import chain as concat, repeat
from operator import getitem

from .errors import (
    ActionNotHopfAutomorphism,
    InvalidInput,
    MalformedStructure,
    NotInvertible,
)
from .exactlin import Chain, LegMap, LinMap, Stack, Table, product_labels
from .report import Details, Report, Row, family_witnesses, law_checks
from . import tables


def map_legs(grading, components):
    """The spaces of every structure map, {family: {key: space}}, for the
    components of a crossed structure graded by grading: comult[(p, q)]
    H_{pq} -> H_p (x) H_q, antipode[p] H_p -> H_{p^-1}, crossing[(p, q)]
    H_q -> H_{pqp^-1}, and the counit H_e -> k under the one key None.  H_p
    is the one leg of component p; k has none.  A space is (dom_legs,
    cod_legs, dom, cod) (space()), so LegMap(f, *space) reads f on it.
    The constructor, legs and loaders all read their shapes from here."""
    H = [(c.labels,) for c in components]
    G, table, conj = grading.elements(), grading.table, grading.conjugates()
    return {
        "comult": {(p, q): space(H[table[p][q]], H[p] + H[q]) for p in G for q in G},
        "counit": {None: space(H[0], ())},
        "antipode": {p: space(H[p], H[grading.inv(p)]) for p in G},
        "crossing": {(p, q): space(H[q], H[conj[p][q]]) for p in G for q in G},
    }


def space(dom_legs, cod_legs):
    """A signature's entry for one map: (dom_legs, cod_legs, dom, cod),
    dom and cod the labels of the two products, built here once."""
    return dom_legs, cod_legs, product_labels(dom_legs), product_labels(cod_legs)


def legs_labels(space):
    """The domain and codomain labels a signature's entry carries."""
    return space[2:]


def legs_map(field, entries, legs):
    """The LinMap with the given entries between the spaces of legs."""
    dom, cod = legs_labels(legs)
    return LinMap(field, len(cod), len(dom), entries, dom, cod)


def require_legs(field, maps, signature):
    """Raise MalformedStructure, naming the family and key, unless maps,
    {family: {key: LinMap}}, has exactly the keys of signature in every
    family and each map is over field with the labels of its legs (the
    labels the signature carries; none is rebuilt)."""
    for family, legs in signature.items():
        given = maps[family]
        for key in legs:
            if key not in given:
                raise MalformedStructure(f"{family} {key}: missing")
        for key, m in given.items():
            if key not in legs:
                fault = ": unexpected key"
            elif m.field is not field and m.field != field:
                fault = f" is over {m.field.name}, not {field.name}"
            elif (m.dom, m.cod) != legs_labels(legs[key]):
                fault = ": labels are not the products of its legs"
            else:
                continue
            raise MalformedStructure((family if key is None else f"{family} {key}") + fault)


class CrossedGCHQ:
    """G-graded family of algebras with comultiplication, counit, antipode
    and crossing, all stored as exact structure constants.  The maps are
    keyed, and checked when built, by the spaces map_legs gives them,
    kept as signature.

    A structure is treated as immutable once built, so legs can read its
    maps as GradedLegs once, on first use, for every validator and
    construction to share.  Maps labelled through map_legs carry the very
    tuples the signature does (product_labels keeps its products)."""

    __slots__ = (
        "field", "grading", "components", "comult", "counit", "antipode", "crossing",
        "signature", "_legs",
    )

    def __init__(self, field, grading, components, comult, counit, antipode, crossing):
        self.field = field
        self.grading = grading
        self.components = tuple(components)
        self.comult = dict(comult)
        self.counit = counit
        self.antipode = dict(antipode)
        self.crossing = dict(crossing)
        self._legs = None
        if len(self.components) != grading.order:
            raise MalformedStructure("one component per group element required")
        if any(not 0 <= v < grading.order for row in grading.table for v in row):
            raise MalformedStructure(f"grading table entry outside [0, {grading.order})")
        if any(c.field != field for c in self.components):
            raise MalformedStructure("component field mismatch")
        self.signature = map_legs(grading, self.components)
        require_legs(field, self.maps(), self.signature)

    def maps(self):
        """The structure maps by family and key, as map_legs keys them."""
        return {
            "comult": self.comult,
            "counit": {None: self.counit},
            "antipode": self.antipode,
            "crossing": self.crossing,
        }

    @property
    def legs(self):
        """The structure maps as LegMaps (GradedLegs), built on first use."""
        if self._legs is None:
            self._legs = GradedLegs(self)
        return self._legs

    # -- grade bookkeeping ---------------------------------------------

    def grades(self):
        return range(self.grading.order)

    def mul(self, p, q):
        return self.grading.mul(p, q)

    def inv(self, p):
        return self.grading.inv(p)

    def conj(self, p, q):
        return self.grading.conjugates()[p][q]

    def comp(self, p):
        return self.components[p]

    def grade_label(self, p):
        return self.grading.labels[p]

    def __eq__(self, other):
        if not isinstance(other, CrossedGCHQ):
            return NotImplemented
        return (
            self.field == other.field
            and self.grading == other.grading
            and self.components == other.components
            and self.maps() == other.maps()
        )

    __hash__ = None

    def __repr__(self):
        dims = ",".join(str(c.dim) for c in self.components)
        return f"CrossedGCHQ(|G|={self.grading.order}, dims=[{dims}], {self.field.name})"


class GradedLegs:
    """The structure maps of a crossed structure as LegMaps; a structure
    builds them once and keeps them as h.legs.

    H[p] is the legs of component p (one leg, its labels labels[p]), and
    chain(p, q, ...) is the identity Chain on H_p (x) H_q (x) ...; k has
    no legs.  mu[p], eta[p] and ident[p] are the algebra maps of component
    p.  The structure maps sit on the spaces of h.signature, read through
    its labels: s[p] the antipode of grade p, delta[(p, q)] and pi[(p, q)]
    the comultiplication and crossing of a grade pair, and eps the counit.
    Each of these is a Table on the legs by grade, whose stack() draws
    them for a law's grade tuples.
    """

    __slots__ = ("field", "labels", "H", "mu", "eta", "ident", "s", "delta", "pi", "eps")

    def __init__(self, h):
        self.field = h.field
        self.labels = [c.labels for c in h.components]
        self.H = H = [(labels,) for labels in self.labels]
        comps, legs, labels = list(enumerate(h.components)), h.signature, self.labels
        self.mu, self.eta, self.ident, self.s = (Table(enumerate(maps), labels) for maps in (
            [LegMap(c.mult_map(), H[p] * 2, H[p]) for p, c in comps],
            [LegMap(c.unit_map(), (), H[p]) for p, c in comps],
            [LegMap(LinMap.identity(h.field, c.labels), H[p], H[p]) for p, c in comps],
            [LegMap(h.antipode[p], *legs["antipode"][p]) for p, _ in comps],
        ))
        self.delta, self.pi = (  # keyed in product order, as map_legs keys them
            Table(((key, LegMap(maps[key], *space)) for key, space in legs[name].items()), labels)
            for name, maps in (("comult", h.comult), ("crossing", h.crossing))
        )
        self.eps = LegMap(h.counit, *legs["counit"][None])

    def chain(self, *legs):
        """The identity Chain on a tensor product of legs, one per argument:
        a grade p for the leg of H_p, or the labels of a leg of its own (a
        tuple, such as a module's basis); k has no legs.  Where some
        arguments are lists of grades, one grade for each grade tuple of a
        law, it is the identity family with one segment per tuple, on the
        legs of that tuple's grades; a grade or labels serve every
        segment."""
        return Chain.indexed(self.field, [
            (self.labels, g) if type(g) is list else ((self._leg(g),), None) for g in legs
        ])

    def _leg(self, leg):
        return self.labels[leg] if type(leg) is int else leg


def grade_tuples(h, n):
    """The grade n-tuples of h in product order, as n lists: the grades at
    each position of the tuples."""
    order = h.grading.order
    runs = [repeat(order ** (n - 1 - j)) for j in range(n)]  # each grade's run at position j
    return [list(concat.from_iterable(map(repeat, h.grades(), run))) * order ** j
            for j, run in enumerate(runs)]


def mul(h, p, q):
    """The product p[j] q[j] of the grades at each position j of two lists."""
    return list(map(getitem, map(h.grading.table.__getitem__, p), q))


def inv(h, p):
    """The inverse of each grade of a list."""
    return list(map(h.grading.inverse.__getitem__, p))


def conj(h, p, q):
    """p[j] q[j] p[j]^-1 at each position j of two lists of grades, read
    from the grading's table of conjugates."""
    return list(map(getitem, map(h.grading.conjugates().__getitem__, p), q))


def grade_details(h, *grades, form=None):
    """The detail of each grade tuple, formatted when read (Details): form
    with the labels of its grades, by default "grade p" or "grades (p,q,...)"."""
    default = "grade {}" if len(grades) == 1 else f"grades ({','.join(['{}'] * len(grades))})"
    return Details(form or default, h.grading.labels, grades)


def _left_compensation(h, p):
    """The left side of GHQ-3.3-left, H_e (x) H_p -> H_p:
    x (x) g -> S_{p^-1}(x_(1,p^-1)) (x_(2,p) g), as a family over the
    list of grades p."""
    L = h.legs
    p_inv, mu, i = inv(h, p), L.mu.stack(p), L.ident.stack(p)
    start = L.chain([0] * len(p), p).then(L.delta.stack(p_inv, p), i)
    return start.then(L.s.stack(p_inv), i, i).then(i, mu).then(mu)


def _bijective(check_id, stack, details):
    """The Row of the law that the map of each segment of a Stack is
    invertible, decided once per distinct map, a singular one's detail
    with its rank appended.  A square monomial map is invertible when its
    columns land on distinct rows."""
    ranks = []
    for f in stack.maps:
        m, rank = f.map, None
        if f.dest is None or not m.rows == m.cols == len(set(f.dest)):
            try:
                m.invert()
            except NotInvertible as exc:
                rank = exc.rank
        ranks.append(rank)
    ranks = list(map(ranks.__getitem__, stack.index))
    verdicts = [rank is None for rank in ranks]
    if not all(verdicts):
        details = [d if r is None else f"{d}: rank {r}" for d, r in zip(details, ranks)]
    return Row(check_id, True, details, [None] * len(ranks), verdicts)


def hq_laws(h):
    """Every algebra, coalgebra and antipode law of h over all grade tuples,
    in report order.

    A law is (check ID, details, lhs, rhs): lhs and rhs are families of
    Chains over h.legs with one segment per grade tuple, the tuples in
    product order, and details holds the detail of each tuple.  Laws come
    in groups over the same tuples, recorded interleaved tuple by tuple
    (Report.add_rows).  At |G| = 1 every family is one chain, and the laws
    include those hq.validate_hopf_quasigroup decides."""
    L = h.legs
    chain, mu, eta, i, s, delta, eps = L.chain, L.mu, L.eta, L.ident, L.s, L.delta, L.eps
    k, e = L.chain(), 0

    p = list(h.grades())
    E, p_inv, ip, mp = [e] * len(p), inv(h, p), i.stack(p), mu.stack(p)
    hp, details = chain(p), grade_details(h, p)
    yield (
        ("GHQ-component-unit-left", details, hp.then(eta.stack(p), ip).then(mp), hp),
        ("GHQ-component-unit-right", details, hp.then(ip, eta.stack(p)).then(mp), hp),
    )

    p2, q2 = grade_tuples(h, 2)
    pq, d = mul(h, p2, q2), delta.stack(p2, q2)
    pq_pq, pair_details = chain(pq, pq), grade_details(h, p2, q2)
    rhs = pq_pq.then(d, d).permute(0, 2, 1, 3).then(mu.stack(p2), mu.stack(q2))
    yield (
        ("GHQ-delta-multiplicative", pair_details, pq_pq.then(mu.stack(pq)).then(d), rhs),
        ("GHQ-delta-unit", pair_details, k.then(eta.stack(pq)).then(d),
         k.then(eta.stack(p2), eta.stack(q2))),
    )

    ee = chain(e, e)
    yield ("GHQ-epsilon-multiplicative", [""], ee.then(mu[e]).then(eps), ee.then(eps, eps)),
    yield ("GHQ-epsilon-unit", [""], k.then(eta[e]).then(eps), k),

    p3, q3, r3 = grade_tuples(h, 3)
    pq, qr = mul(h, p3, q3), mul(h, q3, r3)
    lhs = chain(mul(h, pq, r3)).then(delta.stack(pq, r3)).then(delta.stack(p3, q3), i.stack(r3))
    rhs = chain(mul(h, p3, qr)).then(delta.stack(p3, qr)).then(i.stack(p3), delta.stack(q3, r3))
    yield ("GHQ-3.1-coassoc", grade_details(h, p3, q3, r3), lhs, rhs),

    yield (
        ("GHQ-3.2-counit-right", details, hp.then(delta.stack(p, E)).then(ip, eps), hp),
        ("GHQ-3.2-counit-left", details, hp.then(delta.stack(E, p)).then(eps, ip), hp),
    )

    sp = s.stack(p_inv)
    eps_i, i_eps = chain(E, p).then(eps, ip), chain(p, E).then(ip, eps)
    right = chain(E, p).then(delta.stack(p, p_inv), ip).then(ip, sp, ip).then(ip, mp).then(mp)
    left4 = chain(p, E).then(ip, delta.stack(p, p_inv)).then(ip, ip, sp).then(mp, ip).then(mp)
    right4 = chain(p, E).then(ip, delta.stack(p_inv, p)).then(ip, sp, ip).then(mp, ip).then(mp)
    yield (
        ("GHQ-3.3-left", details, _left_compensation(h, p), eps_i),
        ("GHQ-3.3-right", details, right, eps_i),
        ("GHQ-3.4-left", details, left4, i_eps),
        ("GHQ-3.4-right", details, right4, i_eps),
    )

    pp, sp = chain(p, p), s.stack(p)
    rhs = pp.permute(1, 0).then(sp, sp).then(mu.stack(p_inv))
    yield (
        ("GHQ-antipode-antimultiplicative", details, pp.then(mp).then(sp), rhs),
        ("GHQ-antipode-unit", details, k.then(eta.stack(p)).then(sp), k.then(eta.stack(p_inv))),
    )


def validate_gchq(h):
    """Grading, algebra, coalgebra and antipode axioms over all grade tuples.

    The group table is checked first.  Each law of hq_laws is then decided
    for all its grade tuples at once, as an identity between two families
    of Chains over the GradedLegs of h, read left to right and evaluated
    in blocks of basis vectors; one check per tuple is recorded.  Antipode
    bijectivity, which the module theory downstream demands, is a
    required check like the rest.
    """
    rep = Report(f"crossed structure (|G|={h.grading.order}, {h.field.name})")
    rep.merge(tables.validate_group(h.grading))
    if not rep.passed:
        return rep
    for laws in hq_laws(h):
        rep.add_rows(*(law_checks(*law) for law in laws))
    grades = list(h.grades())
    s, details = h.legs.s.stack(grades), grade_details(h, grades)
    rep.add_rows(_bijective("GHQ-antipode-bijective", s, details))
    return rep


def validate_crossing(h):
    """Crossing axioms: isomorphism of algebras landing in the conjugated
    grade, counit/antipode/comultiplication preservation, multiplicativity
    and identity, each law a family over its grade tuples like
    validate_gchq.  Assumes validate_gchq already passed."""
    rep = Report(f"crossing (|G|={h.grading.order}, {h.field.name})")
    L = h.legs
    chain, mu, eta, s, delta, pi, eps = L.chain, L.mu, L.eta, L.s, L.delta, L.pi, L.eps
    k, e = L.chain(), 0

    p, q = grade_tuples(h, 2)
    t, x = conj(h, p, q), pi.stack(p, q)
    details = grade_details(h, p, q, form="pi_{} on grade {}")
    qq = chain(q, q)
    rep.add_rows(
        _bijective("CROSS-pi-bijective", x, details),
        law_checks("CROSS-pi-multiplicative", details, qq.then(mu.stack(q)).then(x),
                   qq.then(x, x).then(mu.stack(t))),
        law_checks("CROSS-pi-unit", details, k.then(eta.stack(q)).then(x), k.then(eta.stack(t))),
    )

    grades = list(h.grades())
    E = [e] * len(grades)
    he = chain(E)
    rep.add_family(
        "CROSS-3.7-counit", grade_details(h, grades, form="pi_{}"),
        he.then(pi.stack(grades, E)).then(eps), he.then(eps),
    )

    lhs = chain(q).then(s.stack(q)).then(pi.stack(p, inv(h, q)))
    rep.add_family("CROSS-3.8-antipode", details, lhs, chain(q).then(x).then(s.stack(t)))

    p3, q3, r3 = grade_tuples(h, 3)
    qr = mul(h, q3, r3)
    lhs = chain(qr).then(delta.stack(q3, r3)).then(pi.stack(p3, q3), pi.stack(p3, r3))
    rhs = chain(qr).then(pi.stack(p3, qr))
    rhs = rhs.then(delta.stack(conj(h, p3, q3), conj(h, p3, r3)))
    details = grade_details(h, p3, q3, r3, form="pi_{} on grades ({},{})")
    rep.add_family("CROSS-3.9-comult", details, lhs, rhs)

    lhs = chain(r3).then(pi.stack(mul(h, p3, q3), r3))
    rhs = chain(r3).then(pi.stack(q3, r3)).then(pi.stack(p3, conj(h, q3, r3)))
    details = grade_details(h, p3, q3, r3, form="pi_{}pi_{} on grade {}")
    rep.add_family("CROSS-multiplicative", details, lhs, rhs)

    hq = chain(grades)
    rep.add_family("CROSS-identity", grade_details(h, grades), hq.then(pi.stack(E, grades)), hq)
    return rep


def validate_crossed(h):
    """validate_gchq, then validate_crossing if it passed, in one report."""
    rep = validate_gchq(h)
    if rep.passed:
        rep.merge(validate_crossing(h))
    return rep


def power_construction(h, action):
    """One copy of h per element of the acting group, comultiplied
    diagonally and crossed by the action.

    Every actor element must act as an automorphism of the whole
    structure: the induced basis permutation has to commute with
    multiplication, unit, comultiplication, counit and antipode, each an
    identity between two families of Chains over h.graded.legs (the legs
    of h as the one component over the trivial group), a segment per
    actor.  The first failing equation, actor by actor, is reported
    otherwise.
    """
    field = h.field
    G = action.actor
    if action.carrier.order != h.dim:
        raise ActionNotHopfAutomorphism(
            f"action permutes {action.carrier.order} elements"
            f" but the structure has dimension {h.dim}"
        )
    L = h.graded.legs
    H, mu, eta, delta, eps, s = L.H[0], L.mu[0], L.eta[0], L.delta[(0, 0)], L.eps, L.s[0]
    E = [0] * G.order  # each law is one family, a segment per actor
    actors = [LinMap.from_permutation(field, p, h.labels) for p in action.maps]
    t = Stack([LegMap(m, H, H) for m in actors])
    k, h1, h2 = L.chain(), L.chain(E), L.chain(E, E)
    laws = [
        ("multiplication", h2.then(mu).then(t), h2.then(t, t).then(mu)),
        ("unit", k.then(eta).then(t), k.then([eta] * G.order)),
        ("comultiplication", h1.then(t).then(delta), h1.then(delta).then(t, t)),
        ("counit", h1.then(t).then(eps), h1.then(eps)),
        ("antipode", h1.then(t).then(s), h1.then(s).then(t)),
    ]
    found = [family_witnesses(lhs, rhs) for _, lhs, rhs in laws]
    for g in G.elements():
        for (name, _, _), witnesses in zip(laws, found):
            if witnesses[g] is not None:
                raise ActionNotHopfAutomorphism(f"actor {G.labels[g]} does not preserve the {name}")

    components = [
        h.algebra.relabeled(tuple((f"{G.labels[p]}:{atom}",) for (atom,) in h.labels))
        for p in G.elements()
    ]
    signature = map_legs(G, components)
    comult, antipode = (
        {key: m.relabeled(*legs_labels(pair)) for key, pair in signature[family].items()}
        for family, m in (("comult", h.comult), ("antipode", h.antipode))
    )
    counit = h.counit.relabeled(*legs_labels(signature["counit"][None]))
    crossing = {
        (p, q): actors[p].relabeled(*legs_labels(legs))
        for (p, q), legs in signature["crossing"].items()
    }
    return CrossedGCHQ(field, G, components, comult, counit, antipode, crossing)


def mirror(h):
    """The reflected structure: component p of the output is component
    p^-1 of the input, the comultiplication gains a crossing twist on its
    first leg and the antipode becomes pi_p S_{p^-1}.  validate_crossed
    runs on the input only (InvalidInput if it fails); a caller validates
    the result with validate_crossed, as for every other construction.
    The output shares the input's components, counit and crossing maps."""
    rep = validate_crossed(h)
    if not rep.passed:
        raise InvalidInput(
            "mirror input is not a valid crossed structure: " + ", ".join(rep.failed_ids())
        )
    L = h.legs
    components = [h.comp(h.inv(p)) for p in h.grades()]

    p, q = grade_tuples(h, 2)
    qi = inv(h, q)
    twisted = conj(h, qi, inv(h, p))  # q^-1 p^-1 q
    split = L.chain(mul(h, twisted, qi)).then(L.delta.stack(twisted, qi))
    comult = dict(zip(zip(p, q), split.then(L.pi.stack(q, twisted), L.ident.stack(qi)).matrices()))

    p = list(h.grades())
    antipode = L.chain(inv(h, p)).then(L.s.stack(inv(h, p))).then(L.pi.stack(p, p)).matrices()
    antipode = dict(zip(p, antipode))
    crossing = {(p, q): h.crossing[(p, h.inv(q))] for p in h.grades() for q in h.grades()}
    return CrossedGCHQ(h.field, h.grading, components, comult, h.counit, antipode, crossing)

