"""Yetter-Drinfeld (quasi)modules over a crossed group-cograded structure.

A module of grade p is a based space V with one action matrix and a
coaction matrix per group element r; module_legs states their spaces
once, for the constructor, v.legs and the loader.  The strict flag
distinguishes genuine modules (action associative) from quasimodules,
which only satisfy the antipode compensation laws; the braiding is
defined for strict modules only.

A module reads its maps as LegMaps once, through v.legs: one leg V of its
own beside the base's h.legs.  Every law and construction is a Chain over
those legs (iterated comultiplications are successive Delta stages, leg
shuffles are permute stages).  The module laws, the braiding-law suite and
validate_morphism are identities between two Chains; the tensor product,
conjugation, trivial module and braiding are each one Chain materialized
with Chain.matrix().  A map built on a tensor module enters a Chain as a
LegMap over the factor legs: braiding(V (x) W, X) is read on (V, W, X).
"""

from __future__ import annotations

from .errors import (
    AntipodeNotInvertible,
    BaseMismatch,
    GradeMismatch,
    InvalidInput,
    MalformedStructure,
    NotAGroupAlgebra,
    NotInvertible,
    NotStrict,
)
from .exactlin import Chain, LegMap, LinMap, product_labels
from .gchq import legs_map, require_legs
from .report import Report, Witness, chain_witness, map_witness
from .tables import GroupTable, conjugate, validate_group


def module_legs(base, grade, labels):
    """The spaces of the maps of a module over base of grade p = grade on
    basis labels V, keyed as gchq.map_legs keys a crossed structure's: the
    action H_p (x) V -> V under the one key None, and coaction[r] V -> V (x)
    H_r."""
    V = (tuple(labels),)
    H = [(c.labels,) for c in base.components]
    return {
        "action": {None: (H[grade] + V, V)},
        "coaction": {r: (V, V + H[r]) for r in base.grades()},
    }


class YDModule:
    """Graded module/quasimodule data over a CrossedGCHQ base.

    Like its base, a module is treated as immutable once built, and legs
    keeps its maps as LegMaps from first use on.
    """

    __slots__ = ("base", "grade", "dim", "labels", "action", "coaction", "strict", "_legs")

    def __init__(self, base, grade, labels, action, coaction, strict):
        if not 0 <= grade < base.grading.order:
            raise MalformedStructure(f"grade {grade} outside [0, {base.grading.order})")
        self.base = base
        self.grade = grade
        self.dim = len(labels)
        self.labels = tuple(labels)
        self.action = action
        self.coaction = dict(coaction)
        self.strict = bool(strict)
        self._legs = None
        require_legs(base.field, self.maps(), module_legs(base, grade, self.labels))

    def maps(self):
        """The action and coaction by key, as module_legs keys them."""
        return {"action": {None: self.action}, "coaction": self.coaction}

    def ident(self):
        return LinMap.identity(self.base.field, self.labels)

    @property
    def legs(self):
        """(h.legs of the base, the module's leg V, and as LegMaps its action,
        coactions by grade and identity), built on first use."""
        if self._legs is None:
            V, legs = (self.labels,), module_legs(self.base, self.grade, self.labels)
            action = LegMap(self.action, *legs["action"][None])
            coaction = [LegMap(self.coaction[r], *legs["coaction"][r]) for r in self.base.grades()]
            self._legs = self.base.legs, V, action, coaction, LegMap(self.ident(), V, V)
        return self._legs

    def __eq__(self, other):
        if not isinstance(other, YDModule):
            return NotImplemented
        return (
            _bases_match(self.base, other.base)
            and self.grade == other.grade
            and self.labels == other.labels
            and self.maps() == other.maps()
            and self.strict == other.strict
        )

    __hash__ = None

    def __repr__(self):
        kind = "module" if self.strict else "quasimodule"
        return f"YDModule(grade={self.base.grade_label(self.grade)}, dim={self.dim}, {kind})"


class YDMorphism:
    """Linear map between two modules of the same grade over the same base."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source, target, linmap):
        if not _bases_match(source.base, target.base):
            raise BaseMismatch("morphism endpoints live over different bases")
        if source.grade != target.grade:
            raise GradeMismatch("morphism endpoints have different grades")
        if linmap.dom != source.labels or linmap.cod != target.labels:
            raise MalformedStructure("morphism matrix does not match endpoint bases")
        self.source = source
        self.target = target
        self.map = linmap


def _bases_match(a, b):
    return a is b or a == b


def _require_same_base(v, w):
    if not _bases_match(v.base, w.base):
        raise BaseMismatch("modules live over different bases")


def validate_morphism(m):
    """Action-linearity and colinearity of a module morphism, as Chain
    identities over the legs of its endpoints."""
    base, p = m.source.base, m.source.grade
    rep = Report("yd morphism")
    L, V, act, rho, _ = m.source.legs
    _, W, act_t, rho_t, _ = m.target.legs
    f = LegMap(m.map, V, W)
    pv, hv = Chain(base.field, L.H[p] + V), Chain(base.field, V)
    rep.add_chain_equality("YDM-linear", pv.then(act).then(f), pv.then(L.ident[p], f).then(act_t))
    for r in base.grades():
        rep.add_chain_equality(
            "YDM-colinear",
            hv.then(f).then(rho_t[r]),
            hv.then(rho[r]).then(f, L.ident[r]),
            detail=f"grade {base.grade_label(r)}",
        )
    return rep


# -- validation ----------------------------------------------------------


def _module_assoc_sides(v):
    """Both sides of action associativity (YD-4.1), as Chains
    H_p (x) H_p (x) V -> V."""
    L, V, act, _, i_v = v.legs
    p = v.grade
    ppv = Chain(v.base.field, L.H[p] * 2 + V)
    return ppv.then(L.ident[p], act).then(act), ppv.then(L.mu[p], i_v).then(act)


def _crossed_condition_sides(v, r):
    """Both sides of the crossed compatibility law at coaction grade r,
    as Chains H_{pr} (x) V -> V (x) H_r."""
    base, p = v.base, v.grade
    L, V, act, rho, i_v = v.legs
    g1 = base.conj(p, r)  # p r p^-1
    start = Chain(base.field, L.H[base.mul(p, r)] + V)
    lhs = start.then(L.delta[(p, r)], rho[r]).permute(0, 2, 1, 3).then(act, L.mu[r])
    twisted = start.then(L.delta[(g1, p)], i_v).then(L.ident[g1], act).then(L.ident[g1], rho[r])
    # (h1, v0, v1) -> (v0, v1, pi_{p^-1}(h1)), the twist landing in H_r
    twisted = twisted.permute(1, 2, 0).then(i_v, L.ident[r], L.pi[(base.inv(p), g1)])
    return lhs, twisted.then(i_v, L.mu[r])


def validate_yd(v):
    """All module/quasimodule laws over every grade tuple, as Chain
    identities.

    The action-associativity check is required when the module claims to
    be strict and informational otherwise.  Assumes the base already
    passed both of its own validators.
    """
    base, p = v.base, v.grade
    rep = Report(
        f"yd {'module' if v.strict else 'quasimodule'} "
        f"(grade {base.grade_label(p)}, dim {v.dim})"
    )
    L, V, act, rho, i_v = v.legs
    H, mu, i, s, delta, eps = L.H, L.mu, L.ident, L.s, L.delta, L.eps
    eq, tag, pi_, e = rep.add_chain_equality, base.grade_label, base.inv(p), 0
    hv, ev = Chain(base.field, V), Chain(base.field, H[e] + V)

    eq("YD-4.3-unital", hv.then(L.eta[p], i_v).then(act), hv)
    eps_i = ev.then(eps, i_v)
    left = ev.then(delta[(pi_, p)], i_v).then(s[pi_], i[p], i_v)
    right = ev.then(delta[(p, pi_)], i_v).then(i[p], s[pi_], i_v)
    eq("YD-4.4-left", left.then(i[p], act).then(act), eps_i)
    eq("YD-4.4-right", right.then(i[p], act).then(act), eps_i)
    lhs, rhs = _module_assoc_sides(v)
    eq("YD-4.1-module-assoc", lhs, rhs, required=v.strict, detail="required for strict modules")

    for r1 in base.grades():
        for r2 in base.grades():
            lhs = hv.then(rho[r2]).then(rho[r1], i[r2])
            rhs = hv.then(rho[base.mul(r1, r2)]).then(i_v, delta[(r1, r2)])
            eq("YD-coassoc", lhs, rhs, detail=f"grades ({tag(r1)},{tag(r2)})")

    eq("YD-counit", hv.then(rho[e]).then(i_v, eps), hv)

    for r in base.grades():
        lhs, rhs = _crossed_condition_sides(v, r)
        eq("YD-4.5-crossed", lhs, rhs, detail=f"coaction grade {tag(r)}")

    for r in base.grades():
        m, ir, detail = mu[r], i[r], f"grade {tag(r)}"
        spread = Chain(base.field, V + H[r] * 2).then(rho[r], ir, ir)  # (v,h,g) -> (v0,v1,h,g)
        lhs, rhs = spread.then(i_v, ir, m).then(i_v, m), spread.then(i_v, m, ir).then(i_v, m)
        eq("YD-4.6-coassoc-right", lhs, rhs, detail=detail)
        shuffled = spread.permute(0, 2, 1, 3)  # (v0, h, v1, g)
        lhs, rhs = shuffled.then(i_v, m, ir).then(i_v, m), shuffled.then(i_v, ir, m).then(i_v, m)
        eq("YD-4.7-coassoc-mixed", lhs, rhs, detail=detail)
    return rep


# -- constructions -------------------------------------------------------


def trivial_module(base):
    """Dimension-1 module at the identity grade: the counit acts, the
    coaction tensors with the component units."""
    field = base.field
    labels = (("1",),)
    L, V = base.legs, (labels,)
    i_v = LegMap(LinMap.identity(field, labels), V, V)
    action = Chain(field, L.H[0] + V).then(L.eps, i_v).matrix()
    coaction = {r: Chain(field, V).then(i_v, L.eta[r]).matrix() for r in base.grades()}
    return YDModule(base, 0, labels, action, coaction, strict=True)


def _group_table(comp):
    """The GroupTable of a component whose multiplication tensor is the 0/1
    table of a group with identity at index 0, that is whose table passes
    tables.validate_group; None if it is not of that shape."""
    field = comp.field
    n = comp.dim
    table = [[None] * n for _ in range(n)]
    for (i, j, k), value in comp.mult.items():
        if value != field.one or table[i][j] is not None:
            return None
        table[i][j] = k
    if any(cell is None for row in table for cell in row):
        return None
    group = GroupTable(range(n), table)
    return group if validate_group(group).passed else None


def _copies_of_identity_component(base):
    """Whether every component is an index-identical copy of H_e (the
    shape the power construction produces)."""
    comp_e = base.comp(0)
    return all(
        comp.dim == comp_e.dim and comp.mult == comp_e.mult and comp.unit == comp_e.unit
        for comp in base.components
    )


def _conjugation_module(base, group):
    """The GroupTable `group` acting on the basis of H_e by conjugation,
    with the diagonal coaction x -> x (x) x at every grade."""
    field = base.field
    labels = base.comp(0).labels
    n = len(labels)
    signature = module_legs(base, 0, labels)
    conjugation = {
        (conjugate(group, g, x), g * n + x): field.one for g in range(n) for x in range(n)
    }
    action = legs_map(field, conjugation, signature["action"][None])
    diagonal = {(x * n + x, x): field.one for x in range(n)}
    coaction = {r: legs_map(field, diagonal, legs) for r, legs in signature["coaction"].items()}
    return YDModule(base, 0, labels, action, coaction, strict=True)


def crossed_set_module(base):
    """The conjugation module of a group algebra over the trivial grading:
    the group acts on itself by conjugation, the coaction is diagonal."""
    field = base.field
    if base.grading.order != 1:
        raise NotAGroupAlgebra("crossed-set module needs a trivially graded base")
    comp = base.comp(0)
    group = _group_table(comp)
    if group is None:
        raise NotAGroupAlgebra("base component is not a group algebra")
    if comp.unit != tuple(field.one if i == 0 else field.zero for i in range(comp.dim)):
        raise NotAGroupAlgebra("unit vector is not the group identity")
    return _conjugation_module(base, group)


def diagonal_module(base):
    """Conjugation action with grade-wise diagonal coaction over a base
    whose components are index-identical copies of one group algebra
    (the shape the power construction produces)."""
    group = _group_table(base.comp(0))
    if group is None:
        raise InvalidInput("identity component is not a group algebra")
    if not _copies_of_identity_component(base):
        raise InvalidInput("components are not index-identical copies")
    return _conjugation_module(base, group)


def yd_tensor(v, w):
    """Tensor product module at the product grade: diagonal action through
    the comultiplication, coaction with a crossing twist on the left leg;
    strict when both factors are and its action passes YD-4.1."""
    _require_same_base(v, w)
    base = v.base
    field = base.field
    p, q = v.grade, w.grade
    pq, qi = base.mul(p, q), base.inv(q)
    L, V, act_v, rho_v, i_v = v.legs
    _, W, act_w, rho_w, i_w = w.legs

    start = Chain(field, L.H[pq] + V + W).then(L.delta[(p, q)], i_v, i_w)
    action = start.permute(0, 2, 1, 3).then(act_v, act_w).matrix()
    coaction = {}
    for r in base.grades():
        g = base.conj(q, r)  # q r q^-1
        # (v0, g, w0, r) -> (v0, w0, r, g), then r times pi_{q^-1}(g) in H_r
        spread = Chain(field, V + W).then(rho_v[g], rho_w[r]).permute(0, 2, 3, 1)
        twisted = spread.then(i_v, i_w, L.ident[r], L.pi[(qi, g)])
        coaction[r] = twisted.then(i_v, i_w, L.mu[r]).matrix()

    labels = product_labels((v.labels, w.labels))
    out = YDModule(base, pq, labels, action, coaction, v.strict and w.strict)
    if out.strict and chain_witness(*_module_assoc_sides(out)) is not None:
        out.strict = False  # settled before the module is handed out
    return out


def yd_conjugate(v, q):
    """Regrade a module by a group element: action twisted by the inverse
    crossing, coactions reindexed through the crossing."""
    base = v.base
    L, V, act, rho, i_v = v.legs
    newgrade = base.conj(q, v.grade)
    qi = base.inv(q)
    action = Chain(base.field, L.H[newgrade] + V).then(L.pi[(qi, newgrade)], i_v).then(act)
    coaction = {}
    for r in base.grades():
        g = base.conj(qi, r)  # q^-1 r q
        coaction[r] = Chain(base.field, V).then(rho[g]).then(i_v, L.pi[(q, g)]).matrix()
    return YDModule(base, newgrade, v.labels, action.matrix(), coaction, v.strict)


def _structure_data_witness(a, b):
    """First discrepancy between the structure data of two modules."""
    if a.grade != b.grade:
        return Witness(
            ("grade",),
            (),
            a.base.grade_label(a.grade),
            b.base.grade_label(b.grade),
        )
    if a.labels != b.labels:
        return Witness(("labels",), (), str(a.dim), str(b.dim))
    w = map_witness(a.action, b.action)
    if w is not None:
        return Witness(("action",) + w.domain, w.codomain, w.lhs, w.rhs)
    for r in a.base.grades():
        w = map_witness(a.coaction[r], b.coaction[r])
        if w is not None:
            return Witness(
                (f"coaction@{a.base.grade_label(r)}",) + w.domain, w.codomain, w.lhs, w.rhs
            )
    return None


class Constructions:
    """yd_tensor and yd_conjugate kept by their arguments, so that the law
    suites of one braid report build each module once.  A module argument
    is keyed by identity and held with the result, so its id stays its
    own; modules are immutable once built, so a kept result stays right."""

    def __init__(self):
        self._built = {}

    def tensor(self, v, w):
        return self._get(("tensor", id(v), id(w)), yd_tensor, v, w)

    def conjugate(self, v, q):
        return self._get(("conjugate", id(v), q), yd_conjugate, v, q)

    def _get(self, key, build, v, arg):
        if key not in self._built:
            self._built[key] = (build(v, arg), v, arg)
        return self._built[key][0]


def check_conjugation_coherence(v, w, s, t):
    """Conjugation is functorial for composition and tensor: regrading by
    st equals regrading by t then s, and regrading a tensor equals the
    tensor of the regradings.  Exact structure-data equalities; the
    one-pair case of conjugation_coherence."""
    _require_same_base(v, w)
    label = v.base.grade_label
    rep = Report(f"conjugation coherence (s={label(s)}, t={label(t)})")
    return _coherence(rep, v, w, [(s, [t])], Constructions())


def conjugation_coherence(v, w, built=None):
    """The checks of check_conjugation_coherence for every pair (s, t), s
    slowest.  built (Constructions) shares the constructions with
    check_braiding_laws on the same pair."""
    _require_same_base(v, w)
    built = Constructions() if built is None else built
    grades = list(v.base.grades())
    return _coherence(Report("conjugation coherence"), v, w, [(s, grades) for s in grades], built)


def _coherence(rep, v, w, pairs, built):
    """Add to rep the two coherence checks of each (s, t), for pairs given
    as [(s, [t, ...]), ...].  Each construction is built once through
    built: V (x) W, the regradings of V and W, and the tensor check of
    each s, which does not depend on t."""
    base = v.base
    conj, vw = built.conjugate, built.tensor(v, w)
    for s, ts in pairs:
        tensor = _structure_data_witness(conj(vw, s), built.tensor(conj(v, s), conj(w, s)))
        for t in ts:
            witness = _structure_data_witness(conj(v, base.mul(s, t)), conj(conj(v, t), s))
            rep.add("CONJ-4.6-iterated", witness is None, witness=witness)
            rep.add("CONJ-4.6-tensor", tensor is None, witness=tensor)
    return rep


# -- braiding --------------------------------------------------------------


def _require_strict(*modules):
    for m in modules:
        if not m.strict:
            raise NotStrict("braiding is defined on modules, not quasimodules")


def braiding(v, w):
    """The braiding V (x) W -> (regraded W) (x) V: antipode applied to the
    left coaction leg, acted on W, then the flip.  The codomain object is
    yd_tensor(yd_conjugate(w, v.grade), v)."""
    _require_same_base(v, w)
    _require_strict(v, w)
    L, V, _, rho_v, i_v = v.legs
    _, W, act_w, _, i_w = w.legs
    qi = v.base.inv(w.grade)
    coacted = Chain(v.base.field, V + W).then(rho_v[qi], i_w).then(i_v, L.s[qi], i_w)
    return coacted.then(i_v, act_w).permute(1, 0).matrix()


def braiding_inverse(v, w):
    """Inverse braiding (regraded W) (x) V -> V (x) W: coact on the V leg
    and act the coaction leg back on W."""
    _require_same_base(v, w)
    _require_strict(v, w)
    _, V, _, rho_v, i_v = v.legs
    _, W, act_w, _, i_w = w.legs
    flipped = Chain(v.base.field, W + V).permute(1, 0)
    return flipped.then(rho_v[w.grade], i_w).then(i_v, act_w).matrix()


def check_braiding_inverse(v, w):
    """Both round trips, as Chain identities, and agreement with
    linear-algebra inversion."""
    field = v.base.field
    V, W = (v.labels,), (w.labels,)
    c = braiding(v, w)
    ci = braiding_inverse(v, w)
    lc, lci = LegMap(c, V + W, W + V), LegMap(ci, W + V, V + W)
    vw, wv = Chain(field, V + W), Chain(field, W + V)
    rep = Report("braiding invertibility")
    rep.add_chain_equality("BRAID-inverse-left", vw.then(lc).then(lci), vw)
    rep.add_chain_equality("BRAID-inverse-right", wv.then(lci).then(lc), wv)
    try:
        rep.add_map_equality("BRAID-inverse-matrix", c.invert(), ci)
    except NotInvertible as exc:
        rep.add("BRAID-inverse-matrix", False, detail=f"braiding singular, rank {exc.rank}")
    return rep


def check_braiding_laws(v, w, x=None, f=None, g=None, built=None):
    """The braided-crossed-category law suite for the pair (v, w):
    action linearity, coaction colinearity, conjugation compatibility,
    and, when x / morphisms are supplied, both tensor-composition laws
    with their Yang-Baxter consequence and naturality.

    Each law but the conjugation check is a Chain identity on the factor
    legs V, W, X, which a map built on a tensor product enters as a LegMap.
    built (Constructions) shares the tensor products and regradings with
    conjugation_coherence on the same pair."""
    _require_same_base(v, w)
    _require_strict(v, w)
    built = Constructions() if built is None else built
    base = v.base
    field = base.field
    p, q = v.grade, w.grade
    pq = base.mul(p, q)
    rep = Report(
        f"braiding laws (grades {base.grade_label(p)},{base.grade_label(q)})"
    )
    L, V, _, _, i_v = v.legs
    W, i_w = w.legs[1], w.legs[4]

    c = braiding(v, w)
    source = built.tensor(v, w)
    target = built.tensor(built.conjugate(w, p), v)
    lc = LegMap(c, V + W, W + V)
    hvw, vw = Chain(field, L.H[pq] + V + W), Chain(field, V + W)
    rep.add_chain_equality(
        "BRAID-H-linear",
        hvw.then(LegMap(source.action, L.H[pq] + V + W, V + W)).then(lc),
        hvw.then(L.ident[pq], lc).then(LegMap(target.action, L.H[pq] + W + V, W + V)),
    )
    for r in base.grades():
        H = L.H[r]
        rep.add_chain_equality(
            "BRAID-H-colinear",
            vw.then(lc).then(LegMap(target.coaction[r], W + V, W + V + H)),
            vw.then(LegMap(source.coaction[r], V + W, V + W + H)).then(lc, L.ident[r]),
            detail=f"grade {base.grade_label(r)}",
        )

    for s in base.grades():
        rep.add_map_equality(
            "BRAID-2.4-conjugation",
            braiding(built.conjugate(v, s), built.conjugate(w, s)),
            c,
            detail=f"conjugated by {base.grade_label(s)}",
        )

    if x is not None:
        _require_same_base(v, x)
        _require_strict(x)
        X, i_x = (x.labels,), x.legs[4]
        c_wx = LegMap(braiding(w, x), W + X, X + W)
        c_v_qx = LegMap(braiding(v, built.conjugate(x, q)), V + X, X + V)
        vwx = Chain(field, V + W + X)
        through = vwx.then(i_v, c_wx).then(c_v_qx, i_w)  # (x', v, w)
        rep.add_chain_equality(
            "BRAID-comp-tensor-first",
            vwx.then(LegMap(braiding(source, x), V + W + X, X + V + W)),
            through,
        )
        rep.add_chain_equality(
            "BRAID-comp-tensor-second",
            vwx.then(LegMap(braiding(v, built.tensor(w, x)), V + W + X, W + X + V)),
            vwx.then(lc, i_x).then(i_w, LegMap(braiding(v, x), V + X, X + V)),
        )
        rep.add_chain_equality(
            "BRAID-yang-baxter",
            vwx.then(lc, i_x).then(LegMap(braiding(target, x), W + V + X, X + W + V)),
            through.then(i_x, lc),
        )

    if f is not None and g is not None:
        F, G = (f.target.labels,), (g.target.labels,)
        lf, lg = LegMap(f.map, V, F), LegMap(g.map, W, G)
        rep.add_chain_equality(
            "BRAID-2.1-naturality",
            vw.then(lc).then(lg, lf),
            vw.then(lf, lg).then(LegMap(braiding(f.target, g.target), F + G, G + F)),
        )
    return rep


# -- crossed-condition equivalence ----------------------------------------


def check_crossed_equivalence(v):
    """Evaluate the three equivalent forms of the crossed condition
    independently and confirm they agree in verdict.

    The first form constrains the coaction of an acted vector against
    the plain crossed law; the other two rewrite it through the inverse
    antipode with the two bracketings of the right factor.  Each form is
    a Chain identity, as in validate_yd.  On any one structure all three
    must pass or all three must fail; divergence is reported as a loud
    failure of the equivalence check itself.
    """
    base, p = v.base, v.grade
    L, V, act, rho, i_v = v.legs
    H, mu, i, tag = L.H, L.mu, L.ident, base.grade_label
    s_inv = {}
    for r in base.grades():
        try:
            s_inv[r] = LegMap(base.antipode[r].invert(), H[base.inv(r)], H[r])
        except NotInvertible as exc:
            raise AntipodeNotInvertible(f"antipode at grade {tag(r)} has rank {exc.rank}") from exc
    pv = Chain(base.field, H[p] + V)

    def spread(r):
        """(h, v) -> (h2, v0, h3, v1, pi_{p^-1}(h1)), the h legs of grades
        (p r^-1 p^-1, p, r) split out of H_p."""
        ri, ir = base.inv(r), i[r]
        g2 = base.conj(p, ri)
        return (
            pv.then(L.delta[(base.mul(p, ri), r)], i_v)
            .then(L.delta[(g2, p)], ir, i_v)
            .then(i[g2], i[p], ir, rho[r])
            .permute(1, 3, 2, 4, 0)
            .then(i[p], i_v, ir, ir, L.pi[(base.inv(p), g2)])
        )

    rep = Report(f"crossed condition equivalence (grade {tag(p)})")
    verdicts = {}
    for form in ("YD-4.5-crossed", "YD-4.8-crossed", "YD-4.9-crossed"):
        ok = True
        for r in base.grades():
            m, ir = mu[r], i[r]
            if form == "YD-4.5-crossed":
                lhs, rhs = _crossed_condition_sides(v, r)
            elif form == "YD-4.8-crossed":  # (h2.v0) (x) (h3 v1) S^-1 pi(h1)
                lhs = pv.then(act).then(rho[r])
                rhs = spread(r).then(act, m, s_inv[r]).then(i_v, m)
            else:  # (h2.v0) (x) h3 (v1 S^-1 pi(h1))
                lhs = pv.then(act).then(rho[r])
                rhs = spread(r).then(act, ir, ir, s_inv[r]).then(i_v, ir, m).then(i_v, m)
            check = rep.add_chain_equality(form, lhs, rhs, detail=f"coaction grade {tag(r)}")
            ok = ok and check.passed
        verdicts[form] = ok

    values = set(verdicts.values())
    rep.add(
        "YD-4.8-equivalence",
        len(values) == 1,
        detail=(
            "all three crossed forms agree"
            if len(values) == 1
            else "EQUIVALENCE VIOLATED: "
            + ", ".join(f"{k}={'pass' if ok else 'fail'}" for k, ok in verdicts.items())
        ),
    )
    return rep


# -- direct sums -----------------------------------------------------------


def yd_direct_sum(v, w):
    """Block-diagonal sum of two modules of the same grade; returns the sum
    and the two inclusion morphisms."""
    _require_same_base(v, w)
    if v.grade != w.grade:
        raise GradeMismatch("direct sum needs modules of equal grade")
    base = v.base
    field = base.field
    p = v.grade
    n = v.dim + w.dim
    labels = tuple(("+0",) + l for l in v.labels) + tuple(("+1",) + l for l in w.labels)
    signature = module_legs(base, p, labels)
    blocks = ((v, 0), (w, v.dim))  # each summand with the offset of its basis

    action_entries = {}
    for m, off in blocks:
        for (i, c), value in m.action.entries.items():
            h, j = divmod(c, m.dim)
            action_entries[(off + i, h * n + off + j)] = value
    action = legs_map(field, action_entries, signature["action"][None])

    coaction = {}
    for r, legs in signature["coaction"].items():
        d_r = base.comp(r).dim
        entries = {}
        for m, off in blocks:
            for (row, col), value in m.coaction[r].entries.items():
                i, a = divmod(row, d_r)
                entries[((off + i) * d_r + a, off + col)] = value
        coaction[r] = legs_map(field, entries, legs)

    total = YDModule(base, p, labels, action, coaction, v.strict and w.strict)

    def inclusion(m, off):
        entries = {(off + i, i): field.one for i in range(m.dim)}
        return YDMorphism(m, total, LinMap(field, n, m.dim, entries, m.labels, labels))

    return (total,) + tuple(inclusion(m, off) for m, off in blocks)


def scaled_identity_morphism(v, scalar):
    """v -> v given by a scalar multiple of the identity."""
    return YDMorphism(v, v, v.ident().scale(scalar))


# -- diagnostics -----------------------------------------------------------


def search_dim1_modules(base):
    """Empirical search for one-dimensional modules at non-identity grades.

    Candidates pair the trivial character action on H_p with a diagonal
    group-like coaction family picked from the carrier basis; each is run
    through the full validator.  Results are informational only: the
    search reports what exists for this base, it asserts nothing.
    """
    rep = Report("dim-1 module search at non-identity grades")
    field = base.field
    if _group_table(base.comp(0)) is None:
        unfit = "identity component is not a group algebra"
    elif not _copies_of_identity_component(base):
        unfit = "components are not index-identical copies"
    else:
        unfit = None
    if unfit is not None:
        rep.add("YD-grade-search", True, required=False, detail=f"inapplicable: {unfit}")
        return rep
    n = base.comp(0).dim

    found = 0
    for p in base.grades():
        if p == 0:
            continue
        labels = (("cand",),)
        signature = module_legs(base, p, labels)
        trivial = {(0, h): field.one for h in range(base.comp(p).dim)}
        action = legs_map(field, trivial, signature["action"][None])
        coaction_legs = signature["coaction"].items()
        for gamma in range(n):
            through = {(gamma, 0): field.one}
            coaction = {r: legs_map(field, through, pair) for r, pair in coaction_legs}
            candidate = YDModule(base, p, labels, action, coaction, strict=True)
            passed = validate_yd(candidate).passed
            if passed:
                found += 1
            rep.add(
                "YD-grade-search",
                True,
                required=False,
                detail=(
                    f"grade {base.grade_label(p)}, coaction through basis {gamma}: "
                    + ("module found" if passed else "not a module")
                ),
            )
    rep.add(
        "YD-grade-search-summary",
        True,
        required=False,
        detail=f"{found} candidate(s) validate at non-identity grades",
    )
    return rep
