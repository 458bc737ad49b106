"""Crossed group-cograded Hopf quasigroups.

The total object is a family of unital algebras H_p indexed by a finite
group G, with comultiplications, a counit, antipodes and a crossing.
map_legs states the spaces of each map once, for the constructor, h.legs
and the loaders.  Products across different grades are not representable
in this encoding, which makes the vanishing condition structural.

A structure reads its maps as LegMaps on per-grade legs once (h.legs),
and everything here is a Chain over those legs.  The validators state
every axiom as an identity between two Chains, evaluated in blocks of
basis vectors; validate_crossed runs both in one report.  A plain Hopf
quasigroup is the |G| = 1 case: hq builds on this module, checking its
shape and deciding its shared laws on the embedding, and nothing here
imports hq.  The constructions are the power construction (one copy of a
Hopf quasigroup per group element, crossed by an automorphic action,
checked as Chain identities) and the mirror, which rebuilds the structure
on the inverse-indexed components with a twisted comultiplication and
antipode, each one Chain materialized with Chain.matrix().  The mirror
validates its own output: that the result is again a valid crossed
structure is an asserted theorem, not a hope.
"""

from __future__ import annotations

from itertools import product

from .errors import (
    ActionNotHopfAutomorphism,
    ConstructionCheckFailed,
    InvalidInput,
    MalformedStructure,
    NotInvertible,
)
from .exactlin import Chain, LegMap, LinMap, product_labels
from .report import Report, chain_witness
from . import tables


def map_legs(grading, components):
    """The spaces of every structure map, {family: {key: (dom_legs,
    cod_legs)}}, for the components of a crossed structure graded by
    grading: comult[(p, q)] H_{pq} -> H_p (x) H_q, antipode[p] H_p ->
    H_{p^-1}, crossing[(p, q)] H_q -> H_{pqp^-1}, and the counit H_e -> k
    under the one key None.  H_p is the one leg of component p; k has none.
    The constructor, legs and loaders all read their shapes from here."""
    H = [(c.labels,) for c in components]
    pairs = list(product(grading.elements(), repeat=2))
    return {
        "comult": {(p, q): (H[grading.mul(p, q)], H[p] + H[q]) for p, q in pairs},
        "counit": {None: (H[0], ())},
        "antipode": {p: (H[p], H[grading.inv(p)]) for p in grading.elements()},
        "crossing": {(p, q): (H[q], H[tables.conjugate(grading, p, q)]) for p, q in pairs},
    }


def legs_labels(legs):
    """The domain and codomain labels of a (dom_legs, cod_legs) pair."""
    return tuple(product_labels(side) for side in legs)


def legs_map(field, entries, legs):
    """The LinMap with the given entries between the spaces of legs."""
    dom, cod = legs_labels(legs)
    return LinMap(field, len(cod), len(dom), entries, dom, cod)


def require_legs(field, maps, signature):
    """Raise MalformedStructure, naming the family and key, unless maps,
    {family: {key: LinMap}}, has exactly the keys of signature in every
    family and each map is over field with the labels of its legs."""
    for family, legs in signature.items():
        given = maps[family]
        for key in legs:
            if key not in given:
                raise MalformedStructure(f"{family} {key}: missing")
        for key, m in given.items():
            name = family if key is None else f"{family} {key}"
            if key not in legs:
                raise MalformedStructure(f"{name}: unexpected key")
            if m.field != field:
                raise MalformedStructure(f"{name} is over {m.field.name}, not {field.name}")
            if (m.dom, m.cod) != legs_labels(legs[key]):
                raise MalformedStructure(f"{name}: labels are not the products of its legs")


class CrossedGCHQ:
    """G-graded family of algebras with comultiplication, counit, antipode
    and crossing, all stored as exact structure constants.  The maps are
    keyed, and checked when built, by the spaces map_legs gives them.

    A structure is treated as immutable once built, so legs can read its
    maps as GradedLegs once, on first use, for every validator and
    construction to share."""

    __slots__ = (
        "field", "grading", "components", "comult", "counit", "antipode", "crossing", "_legs"
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
        require_legs(field, self.maps(), map_legs(grading, self.components))

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
        return tables.conjugate(self.grading, p, q)

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

    H[p] is the legs of component p (one leg), and chain(p, q, ...) is the
    identity Chain on H_p (x) H_q (x) ...; k has no legs.  mu[p], eta[p]
    and ident[p] are the algebra maps of component p.  The structure maps
    sit on the legs map_legs gives them: s[p] the antipode of grade p,
    delta[(p, q)] and pi[(p, q)] the comultiplication and crossing of a
    grade pair, and eps the counit.
    """

    __slots__ = ("field", "H", "mu", "eta", "ident", "s", "delta", "pi", "eps")

    def __init__(self, h):
        self.field = h.field
        self.H = H = [(c.labels,) for c in h.components]
        comps = list(enumerate(h.components))
        self.mu = [LegMap(c.mult_map(), H[p] * 2, H[p]) for p, c in comps]
        self.eta = [LegMap(c.unit_map(), (), H[p]) for p, c in comps]
        self.ident = [LegMap(LinMap.identity(h.field, c.labels), H[p], H[p]) for p, c in comps]
        legs = map_legs(h.grading, h.components)
        self.s = [LegMap(h.antipode[p], *legs["antipode"][p]) for p, _ in comps]
        self.delta = {key: LegMap(h.comult[key], *pair) for key, pair in legs["comult"].items()}
        self.pi = {key: LegMap(h.crossing[key], *pair) for key, pair in legs["crossing"].items()}
        self.eps = LegMap(h.counit, *legs["counit"][None])

    def chain(self, *grades):
        return Chain(self.field, sum((self.H[p] for p in grades), ()))


def _left_compensation(h, p):
    """The left side of GHQ-3.3-left, H_e (x) H_p -> H_p:
    x (x) g -> S_{p^-1}(x_(1,p^-1)) (x_(2,p) g)."""
    legs = h.legs
    mu, i = legs.mu[p], legs.ident[p]
    start = legs.chain(0, p).then(legs.delta[(h.inv(p), p)], i)
    return start.then(legs.s[h.inv(p)], i, i).then(i, mu).then(mu)


def _bijectivity(m, detail):
    """Whether m is invertible, and detail with the rank appended if not."""
    try:
        m.invert()
        return True, detail
    except NotInvertible as exc:
        return False, f"{detail}: rank {exc.rank}"


def hq_laws(h):
    """Every algebra, coalgebra and antipode law of h over all grade tuples,
    in report order, as (check ID, detail, lhs, rhs) with Chains over h.legs.
    At |G| = 1 they include the laws hq.validate_hopf_quasigroup decides."""
    L = h.legs
    chain, mu, eta, i, s, delta, eps = L.chain, L.mu, L.eta, L.ident, L.s, L.delta, L.eps
    tag, k, e = h.grade_label, L.chain(), 0

    for p in h.grades():
        hp, detail = chain(p), f"grade {tag(p)}"
        yield "GHQ-component-unit-left", detail, hp.then(eta[p], i[p]).then(mu[p]), hp
        yield "GHQ-component-unit-right", detail, hp.then(i[p], eta[p]).then(mu[p]), hp

    for p, q in product(h.grades(), repeat=2):
        pq, d, detail = h.mul(p, q), delta[(p, q)], f"grades ({tag(p)},{tag(q)})"
        lhs = chain(pq, pq).then(mu[pq]).then(d)
        rhs = chain(pq, pq).then(d, d).permute(0, 2, 1, 3).then(mu[p], mu[q])
        yield "GHQ-delta-multiplicative", detail, lhs, rhs
        yield "GHQ-delta-unit", detail, k.then(eta[pq]).then(d), k.then(eta[p], eta[q])

    ee = chain(e, e)
    yield "GHQ-epsilon-multiplicative", "", ee.then(mu[e]).then(eps), ee.then(eps, eps)
    yield "GHQ-epsilon-unit", "", k.then(eta[e]).then(eps), k

    for p, q, r in product(h.grades(), repeat=3):
        pq, qr = h.mul(p, q), h.mul(q, r)
        lhs = chain(h.mul(pq, r)).then(delta[(pq, r)]).then(delta[(p, q)], i[r])
        rhs = chain(h.mul(p, qr)).then(delta[(p, qr)]).then(i[p], delta[(q, r)])
        yield "GHQ-3.1-coassoc", f"grades ({tag(p)},{tag(q)},{tag(r)})", lhs, rhs

    for p in h.grades():
        hp, detail = chain(p), f"grade {tag(p)}"
        yield "GHQ-3.2-counit-right", detail, hp.then(delta[(p, e)]).then(i[p], eps), hp
        yield "GHQ-3.2-counit-left", detail, hp.then(delta[(e, p)]).then(eps, i[p]), hp

    for p in h.grades():
        pi_, m, ip, detail = h.inv(p), mu[p], i[p], f"grade {tag(p)}"
        sp = s[pi_]
        eps_i, i_eps = chain(e, p).then(eps, ip), chain(p, e).then(ip, eps)
        right = chain(e, p).then(delta[(p, pi_)], ip).then(ip, sp, ip).then(ip, m).then(m)
        yield "GHQ-3.3-left", detail, _left_compensation(h, p), eps_i
        yield "GHQ-3.3-right", detail, right, eps_i
        left = chain(p, e).then(ip, delta[(p, pi_)]).then(ip, ip, sp).then(m, ip).then(m)
        right = chain(p, e).then(ip, delta[(pi_, p)]).then(ip, sp, ip).then(m, ip).then(m)
        yield "GHQ-3.4-left", detail, left, i_eps
        yield "GHQ-3.4-right", detail, right, i_eps

    for p in h.grades():
        pp, detail = chain(p, p), f"grade {tag(p)}"
        rhs = pp.permute(1, 0).then(s[p], s[p]).then(mu[h.inv(p)])
        yield "GHQ-antipode-antimultiplicative", detail, pp.then(mu[p]).then(s[p]), rhs
        yield "GHQ-antipode-unit", detail, k.then(eta[p]).then(s[p]), k.then(eta[h.inv(p)])


def validate_gchq(h, require_invertible_antipode=True):
    """Grading, algebra, coalgebra and antipode axioms over all grade tuples.

    The group table is checked first.  Each axiom of hq_laws is then an
    identity between two Chains over the GradedLegs of h, read left to right
    and evaluated in blocks of basis vectors.  Antipode bijectivity is
    demanded by the module theory downstream; pass
    require_invertible_antipode=False to downgrade it to a warning.
    """
    rep = Report(f"crossed structure (|G|={h.grading.order}, {h.field.name})")
    rep.merge(tables.validate_group(h.grading))
    if not rep.passed:
        return rep
    for check_id, detail, lhs, rhs in hq_laws(h):
        rep.add_chain_equality(check_id, lhs, rhs, detail=detail)
    for p in h.grades():
        ok, detail = _bijectivity(h.antipode[p], f"grade {h.grade_label(p)}")
        rep.add("GHQ-antipode-bijective", ok, required=require_invertible_antipode, detail=detail)
    return rep


def validate_crossing(h):
    """Crossing axioms: isomorphism of algebras landing in the conjugated
    grade, counit/antipode/comultiplication preservation, multiplicativity
    and identity, as Chain identities like validate_gchq.  Assumes
    validate_gchq already passed."""
    rep = Report(f"crossing (|G|={h.grading.order}, {h.field.name})")
    L = h.legs
    chain, mu, eta, s, delta, pi, eps = L.chain, L.mu, L.eta, L.s, L.delta, L.pi, L.eps
    eq, tag, k, e = rep.add_chain_equality, h.grade_label, L.chain(), 0

    for p, q in product(h.grades(), repeat=2):
        t, x, detail = h.conj(p, q), pi[(p, q)], f"pi_{tag(p)} on grade {tag(q)}"
        ok, noted = _bijectivity(h.crossing[(p, q)], detail)
        rep.add("CROSS-pi-bijective", ok, detail=noted)
        rhs = chain(q, q).then(x, x).then(mu[t])
        eq("CROSS-pi-multiplicative", chain(q, q).then(mu[q]).then(x), rhs, detail=detail)
        eq("CROSS-pi-unit", k.then(eta[q]).then(x), k.then(eta[t]), detail=detail)

    for p in h.grades():
        he = chain(e)
        eq("CROSS-3.7-counit", he.then(pi[(p, e)]).then(eps), he.then(eps), detail=f"pi_{tag(p)}")

    for p, q in product(h.grades(), repeat=2):
        lhs = chain(q).then(s[q]).then(pi[(p, h.inv(q))])
        rhs = chain(q).then(pi[(p, q)]).then(s[h.conj(p, q)])
        eq("CROSS-3.8-antipode", lhs, rhs, detail=f"pi_{tag(p)} on grade {tag(q)}")

    for p, q, r in product(h.grades(), repeat=3):
        qr = h.mul(q, r)
        x = chain(qr)
        lhs = x.then(delta[(q, r)]).then(pi[(p, q)], pi[(p, r)])
        rhs = x.then(pi[(p, qr)]).then(delta[(h.conj(p, q), h.conj(p, r))])
        detail = f"pi_{tag(p)} on grades ({tag(q)},{tag(r)})"
        eq("CROSS-3.9-comult", lhs, rhs, detail=detail)

    for p, q, r in product(h.grades(), repeat=3):
        lhs = chain(r).then(pi[(h.mul(p, q), r)])
        rhs = chain(r).then(pi[(q, r)]).then(pi[(p, h.conj(q, r))])
        detail = f"pi_{tag(p)}pi_{tag(q)} on grade {tag(r)}"
        eq("CROSS-multiplicative", lhs, rhs, detail=detail)

    for q in h.grades():
        eq("CROSS-identity", chain(q).then(pi[(e, q)]), chain(q), detail=f"grade {tag(q)}")
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
    identity between two Chains over h.graded.legs, the legs of h as the
    one component over the trivial group.  The first failing equation is
    reported otherwise.
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
    k, h1, h2 = L.chain(), L.chain(0), L.chain(0, 0)
    for g in G.elements():
        t = LegMap(LinMap.from_permutation(field, action.maps[g], h.labels), H, H)
        checks = [
            ("multiplication", h2.then(mu).then(t), h2.then(t, t).then(mu)),
            ("unit", k.then(eta).then(t), k.then(eta)),
            ("comultiplication", h1.then(t).then(delta), h1.then(delta).then(t, t)),
            ("counit", h1.then(t).then(eps), h1.then(eps)),
            ("antipode", h1.then(t).then(s), h1.then(s).then(t)),
        ]
        for name, lhs, rhs in checks:
            if chain_witness(lhs, rhs) is not None:
                raise ActionNotHopfAutomorphism(
                    f"actor {G.labels[g]} does not preserve the {name}"
                )

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
        (p, q): LinMap.from_permutation(field, action.maps[p], *legs_labels(legs))
        for (p, q), legs in signature["crossing"].items()
    }
    return CrossedGCHQ(field, G, components, comult, counit, antipode, crossing)


def mirror(h, check=True):
    """The reflected structure: component p of the output is component
    p^-1 of the input, the comultiplication gains a crossing twist on its
    first leg and the antipode becomes pi_p S_{p^-1}.  Output validity is
    asserted: both validators run on the result."""
    if check:
        rep = validate_crossed(h)
        if not rep.passed:
            raise InvalidInput(
                "mirror input is not a valid crossed structure: "
                + ", ".join(rep.failed_ids())
            )
    field = h.field
    G = h.grading
    L = h.legs
    # relabeled builds fresh dicts, so input and output share no mutable state
    components = [c.relabeled(c.labels) for c in (h.comp(h.inv(p)) for p in h.grades())]

    comult = {}
    for p in h.grades():
        for q in h.grades():
            qi = h.inv(q)
            twisted = h.conj(qi, h.inv(p))  # q^-1 p^-1 q
            split = L.chain(h.mul(twisted, qi)).then(L.delta[(twisted, qi)])
            comult[(p, q)] = split.then(L.pi[(q, twisted)], L.ident[qi]).matrix()

    antipode = {
        p: L.chain(h.inv(p)).then(L.s[h.inv(p)]).then(L.pi[(p, p)]).matrix() for p in h.grades()
    }
    crossing = {(p, q): h.crossing[(p, h.inv(q))] for p in h.grades() for q in h.grades()}

    out = CrossedGCHQ(field, G, components, comult, h.counit, antipode, crossing)
    if check:
        rep = validate_crossed(out)
        if not rep.passed:
            raise ConstructionCheckFailed(
                "mirror output failed validation: " + ", ".join(rep.failed_ids())
            )
    return out


def _component_product(comp, u, v):
    """Product of two sparse vectors in one component, via the mult tensor."""
    field = comp.field
    out = {}
    for (i, j, k), coeff in comp.mult.items():
        a = u.get(i)
        b = v.get(j)
        if a is None or b is None:
            continue
        acc = field.add(out.get(k, field.zero), field.mul(coeff, field.mul(a, b)))
        if acc == field.zero:
            out.pop(k, None)
        else:
            out[k] = acc
    return out


def sweedler_spot_check(h, samples=20, seed=0):
    """Element-wise evaluation of the left antipode law against the Chain
    that decides GHQ-3.3-left, on randomly chosen basis pairs.

    For basis vectors x in H_e and g in H_p the element form
    S_{p^-1}(x_(1,p^-1)) (x_(2,p) g) = eps(x) g is computed from the raw
    structure constants and compared with the column the GHQ-3.3-left
    chain produces for the same pair.
    """
    import random

    field = h.field
    rep = Report("sweedler spot check")
    rng = random.Random(seed)
    e = 0
    d_e = h.comp(e).dim

    pool = [
        (p, i, j)
        for p in h.grades()
        for i in range(d_e)
        for j in range(h.comp(p).dim)
    ]
    chosen = pool if len(pool) <= samples else rng.sample(pool, samples)

    for p, i, j in sorted(chosen):
        pi_ = h.inv(p)
        comp_p = h.comp(p)
        d_p = comp_p.dim
        s = h.antipode[pi_]

        # element-wise: Delta legs of e_i, antipode on the first, then two products
        elementwise = {}
        delta_col = h.comult[(pi_, p)].column(i)
        for pair_idx, coeff in delta_col.items():
            a, b = divmod(pair_idx, d_p)
            s_a = s.column(a)  # vector in H_p
            inner = _component_product(comp_p, {b: field.one}, {j: field.one})
            outer = _component_product(comp_p, s_a, inner)
            for k, v in outer.items():
                acc = field.add(elementwise.get(k, field.zero), field.mul(coeff, v))
                if acc == field.zero:
                    elementwise.pop(k, None)
                else:
                    elementwise[k] = acc

        eps_i = h.counit.column(i).get(0, field.zero)
        expected = {j: eps_i} if eps_i != field.zero else {}
        composed = _left_compensation(h, p).column(i * d_p + j)

        ok = elementwise == composed == expected
        rep.add(
            "GHQ-3.5-sweedler-agreement",
            ok,
            detail=f"grade {h.grade_label(p)}, basis ({i},{j})",
        )
    return rep
