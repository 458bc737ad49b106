"""Yetter-Drinfeld (quasi)modules over a crossed group-cograded structure.

A module of grade p is a based space V with one action matrix and a
coaction matrix per group element r; module_legs states their spaces
once, with the labels of their products, as gchq.map_legs does, and a
module keeps its own (v.signature) and reads its maps as LegMaps through
it (v.legs: one leg V beside the base's h.legs).  The strict flag tells
genuine modules (action associative) from quasimodules, which only
satisfy the antipode compensation laws; the braiding is defined for
strict modules only.

Every law and construction is a Chain over those legs, and a law stated
over grades (coaction grades, or the grades a module is regraded by) is
one identity between two families of Chains, recorded as one row with a
check per tuple, as in gchq.  The tensor product, the regrading and the
braiding are each stated once, as families over lists of modules
(_tensors, _regradings, _braidings): yd_tensor, yd_conjugate and braiding
materialize them, conjugation coherence compares them without building
the modules, and BRAID-2.4 reads the braidings of every regrading.  A map
built on a tensor module enters a Chain as a LegMap over the factor legs:
braiding(V (x) W, X) is read on (V, W, X), the coactions of V (x) W on
(V, W).
"""

from .errors import (
    BaseMismatch,
    GradeMismatch,
    InvalidInput,
    MalformedStructure,
    NotAGroupAlgebra,
    NotInvertible,
    NotStrict,
)
from .exactlin import Chain, LegMap, LinMap, Table, product_labels
from .gchq import conj, grade_details, grade_tuples, inv, legs_map, mul, require_legs, space
from .report import Report, Row, Witness, family_witnesses, law_checks
from .tables import GroupTable, conjugate, validate_group


def module_legs(base, grade, labels):
    """The spaces of the maps of a module over base of grade p = grade on
    basis labels V, keyed as gchq.map_legs keys a crossed structure's: the
    action H_p (x) V -> V under the one key None, and coaction[r] V -> V (x)
    H_r.  Each space carries the labels of its products (gchq.space)."""
    V = (tuple(labels),)
    H = [(c.labels,) for c in base.components]
    return {
        "action": {None: space(H[grade] + V, V)},
        "coaction": {r: space(V, V + H[r]) for r in base.grades()},
    }


class YDModule:
    """Graded module/quasimodule data over a CrossedGCHQ base.

    Like its base, a module is treated as immutable once built: signature
    is the module_legs its maps were checked against, and legs keeps its
    maps as LegMaps on it from first use on.  Maps labelled on its legs,
    through module_legs or by Chain.matrices, carry the signature's tuples.
    """

    __slots__ = (
        "base", "grade", "dim", "labels", "action", "coaction", "strict", "signature", "_legs"
    )

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
        self.signature = module_legs(base, grade, self.labels)
        require_legs(base.field, self.maps(), self.signature)

    def maps(self):
        """The action and coaction by key, as module_legs keys them."""
        return {"action": {None: self.action}, "coaction": self.coaction}

    def ident(self):
        return LinMap.identity(self.base.field, self.labels)

    @property
    def legs(self):
        """(h.legs of the base, the module's leg V, and as LegMaps its action,
        coactions by grade (a Table) and identity), built on first use."""
        if self._legs is None:
            V, legs = (self.labels,), self.signature
            action = LegMap(self.action, *legs["action"][None])
            coaction = [LegMap(self.coaction[r], *legs["coaction"][r]) for r in self.base.grades()]
            coaction = Table(enumerate(coaction), self.base.legs.labels)
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
    identities over the legs of its endpoints; colinearity is one pair of
    families over the coaction grades."""
    base, p = m.source.base, m.source.grade
    rep = Report("yd morphism")
    L, V, act, rho, _ = m.source.legs
    _, W, act_t, rho_t, _ = m.target.legs
    f = LegMap(m.map, V, W)
    pv, hv, r = Chain(base.field, L.H[p] + V), Chain(base.field, V), list(base.grades())
    rep.add_family("YDM-linear", ("",), pv.then(act).then(f), pv.then(L.ident[p], f).then(act_t))
    lhs, rhs = hv.then(f).then(rho_t.stack(r)), hv.then(rho.stack(r)).then(f, L.ident.stack(r))
    rep.add_family("YDM-colinear", grade_details(base, r), lhs, rhs)
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
    """Both sides of the crossed compatibility law at the coaction grades
    in the list r, as families of Chains H_{pr} (x) V -> V (x) H_r with
    one segment per grade."""
    base, L, _, act, rho, i_v = v.base, *v.legs
    p = [v.grade] * len(r)
    g1 = conj(base, p, r)  # p r p^-1
    start = L.chain(mul(base, p, r), v.labels)
    lhs = start.then(L.delta.stack(p, r), rho.stack(r)).permute(0, 2, 1, 3).then(act, L.mu.stack(r))
    twisted = start.then(L.delta.stack(g1, p), i_v).then(L.ident.stack(g1), act)
    twisted = twisted.then(L.ident.stack(g1), rho.stack(r))
    # (h1, v0, v1) -> (v0, v1, pi_{p^-1}(h1)), the twist landing in H_r
    twisted = twisted.permute(1, 2, 0).then(i_v, L.ident.stack(r), L.pi.stack(inv(base, p), g1))
    return lhs, twisted.then(i_v, L.mu.stack(r))


def validate_yd(v):
    """All module/quasimodule laws over every grade tuple, as Chain
    identities; a law stated over the coaction grades is one pair of
    families for all its grade tuples, recorded one check per tuple.

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
    eq, pi_, e = rep.add_family, base.inv(p), 0
    hv, ev = Chain(base.field, V), Chain(base.field, H[e] + V)

    eq("YD-4.3-unital", ("",), hv.then(L.eta[p], i_v).then(act), hv)
    eps_i = ev.then(eps, i_v)
    left = ev.then(delta[(pi_, p)], i_v).then(s[pi_], i[p], i_v)
    right = ev.then(delta[(p, pi_)], i_v).then(i[p], s[pi_], i_v)
    eq("YD-4.4-left", ("",), left.then(i[p], act).then(act), eps_i)
    eq("YD-4.4-right", ("",), right.then(i[p], act).then(act), eps_i)
    lhs, rhs = _module_assoc_sides(v)
    eq("YD-4.1-module-assoc", ("required for strict modules",), lhs, rhs, required=v.strict)

    r1, r2 = grade_tuples(base, 2)
    lhs = hv.then(rho.stack(r2)).then(rho.stack(r1), i.stack(r2))
    rhs = hv.then(rho.stack(mul(base, r1, r2))).then(i_v, delta.stack(r1, r2))
    eq("YD-coassoc", grade_details(base, r1, r2), lhs, rhs)

    eq("YD-counit", ("",), hv.then(rho[e]).then(i_v, eps), hv)

    r = list(base.grades())
    lhs, rhs = _crossed_condition_sides(v, r)
    eq("YD-4.5-crossed", grade_details(base, r, form="coaction grade {}"), lhs, rhs)

    m, ir, details = mu.stack(r), i.stack(r), grade_details(base, r)
    spread = L.chain(v.labels, r, r).then(rho.stack(r), ir, ir)  # (v,h,g) -> (v0,v1,h,g)
    lhs6, rhs6 = spread.then(i_v, ir, m).then(i_v, m), spread.then(i_v, m, ir).then(i_v, m)
    shuffled = spread.permute(0, 2, 1, 3)  # (v0, h, v1, g)
    lhs7 = shuffled.then(i_v, m, ir).then(i_v, m)
    rhs7 = shuffled.then(i_v, ir, m).then(i_v, m)
    rep.add_rows(
        law_checks("YD-4.6-coassoc-right", details, lhs6, rhs6),
        law_checks("YD-4.7-coassoc-mixed", details, lhs7, rhs7),
    )
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
    r = list(base.grades())
    coaction = dict(zip(r, Chain(field, V).then(i_v, L.eta.stack(r)).matrices()))
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


def _diagonal_group(base):
    """The GroupTable of H_e when the components of base are index-identical
    copies of one group algebra (the shape the power construction
    produces), else the reason they are not, as a str."""
    comp_e = base.comp(0)
    group = _group_table(comp_e)
    if group is None:
        return "identity component is not a group algebra"
    if any(
        (comp.dim, comp.mult, comp.unit) != (comp_e.dim, comp_e.mult, comp_e.unit)
        for comp in base.components
    ):
        return "components are not index-identical copies"
    return group


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
    group = _diagonal_group(base)
    if type(group) is str:
        raise InvalidInput(group)
    return _conjugation_module(base, group)


def yd_tensor(v, w):
    """Tensor product module at the product grade (_tensors): diagonal
    action through the comultiplication, coaction with a crossing twist on
    the left leg; strict when both factors are and its action passes YD-4.1."""
    _require_same_base(v, w)
    base = v.base
    actions, coactions = _tensors([v], [w])
    labels, pq = product_labels((v.labels, w.labels)), base.mul(v.grade, w.grade)
    coaction = dict(zip(base.grades(), coactions.matrices()))
    out = YDModule(base, pq, labels, actions.matrix(), coaction, v.strict and w.strict)
    if out.strict and family_witnesses(*_module_assoc_sides(out))[0] is not None:
        out.strict = False  # settled before the module is handed out
    return out


def _tensors(vs, ws):
    """The tensor product of each pair (vs[k], ws[k]) of modules, as two
    families of Chains on the factor legs: the actions, a segment per k,
    and the coactions, a segment per (k, r), k slowest."""
    base, L, grades = vs[0].base, vs[0].base.legs, list(vs[0].base.grades())
    p, q = [v.grade for v in vs], [w.grade for w in ws]
    V, W = [v.labels for v in vs], [w.labels for w in ws]
    start = Chain.family(base.field, [map(L.labels.__getitem__, mul(base, p, q)), V, W])
    start = start.then(L.delta.stack(p, q), [v.legs[4] for v in vs], [w.legs[4] for w in ws])
    actions = start.permute(0, 2, 1, 3).then([v.legs[2] for v in vs], [w.legs[2] for w in ws])
    r = grades * len(vs)  # a segment per (k, r)
    vs, ws = [v for v in vs for _ in grades], [w for w in ws for _ in grades]
    q, i_v, i_w = [w.grade for w in ws], [v.legs[4] for v in vs], [w.legs[4] for w in ws]
    g = conj(base, q, r)  # q r q^-1
    rho_v, rho_w = [v.legs[3][x] for v, x in zip(vs, g)], [w.legs[3][x] for w, x in zip(ws, r)]
    # (v0, g, w0, r) -> (v0, w0, r, g), then r times pi_{q^-1}(g) in H_r
    spread = Chain.family(base.field, [[v.labels for v in vs], [w.labels for w in ws]])
    twisted = spread.then(rho_v, rho_w).permute(0, 2, 3, 1)
    twisted = twisted.then(i_v, i_w, L.ident.stack(r), L.pi.stack(inv(base, q), g))
    return actions, twisted.then(i_v, i_w, L.mu.stack(r))


def yd_conjugate(v, q):
    """Regrade a module by a group element: action twisted by the inverse
    crossing, coactions reindexed through the crossing."""
    return _conjugates(v, [q])[0]


def _conjugates(v, qs):
    """yd_conjugate(v, q) for each q of the list qs, materialized from
    _regradings of v by qs."""
    base, grades = v.base, list(v.base.grades())
    actions, coactions = (family.matrices() for family in _regradings([v] * len(qs), qs))
    newgrades, n = conj(base, qs, [v.grade] * len(qs)), len(grades)
    return [YDModule(base, g, v.labels, action, dict(zip(grades, coactions[k * n:])), v.strict)
            for k, (g, action) in enumerate(zip(newgrades, actions))]


def _regradings(vs, qs):
    """The regrading of each module vs[k] by the grade qs[k], as two
    families of Chains: the actions, a segment per k, and the coactions, a
    segment per (k, r), k slowest."""
    base, L, grades = vs[0].base, vs[0].base.legs, list(vs[0].base.grades())
    newgrades = conj(base, qs, [v.grade for v in vs])
    start = Chain.family(base.field, [map(L.labels.__getitem__, newgrades), [v.labels for v in vs]])
    start = start.then(L.pi.stack(inv(base, qs), newgrades), [v.legs[4] for v in vs])
    actions = start.then([v.legs[2] for v in vs])
    vs, q = [v for v in vs for _ in grades], [x for x in qs for _ in grades]  # per (k, r)
    g = conj(base, inv(base, q), grades * len(qs))  # q^-1 r q
    coacted = Chain.family(base.field, [[v.labels for v in vs]])
    coacted = coacted.then([v.legs[3][x] for v, x in zip(vs, g)])
    return actions, coacted.then([v.legs[4] for v in vs], L.pi.stack(q, g))


def _regrading_witnesses(m, qs, grades, build, *args):
    """The witness of each tuple k of the law that m regraded by qs[k] is
    the module of grade grades[k] that build (_regradings or _tensors)
    makes of the k-th entries of args: ("grade",) where the grades differ,
    else the first difference of the actions, then of the coactions by
    grade.  Only the tuples whose grades agree enter the families."""
    labels = m.base.grading.labels
    tags, n = ["action"] + [f"coaction@{r}" for r in labels], len(labels)
    mine = zip(conj(m.base, qs, [m.grade] * len(qs)), grades)
    out = [None if a == b else Witness(("grade",), (), labels[a], labels[b]) for a, b in mine]
    keep = [k for k, found in enumerate(out) if found is None]
    if not keep:
        return out
    picked = [[x[k] for k in keep] for x in (qs, *args)]
    sides = zip(_regradings([m] * len(keep), picked[0]), build(*picked[1:]))
    actions, coactions = (family_witnesses(lhs, rhs) for lhs, rhs in sides)
    for j, k in enumerate(keep):
        for tag, w in zip(tags, [actions[j], *coactions[j * n:(j + 1) * n]]):
            if w is not None:
                out[k] = Witness((tag, *w.domain), w.codomain, w.lhs, w.rhs)
                break
    return out


class Constructions:
    """yd_tensor and yd_conjugate kept by their arguments, so that the law
    suites of one braid report build each module once.  A module argument
    is keyed by identity and held with the result, so its id stays its
    own; modules are immutable once built, so a kept result stays right.
    A law that reads a module's regradings by every grade asks for them
    together (regradings), and those not kept yet are built as one family.
    Conjugation coherence builds only V (x) W and regradings of V and W."""

    def __init__(self):
        self._built = {}

    def tensor(self, v, w):
        return self._get(("tensor", id(v), id(w)), yd_tensor, v, w)

    def conjugate(self, v, q):
        return self._get(("conjugate", id(v), q), yd_conjugate, v, q)

    def regradings(self, v):
        """[conjugate(v, q) for every grade q]."""
        grades = list(v.base.grades())
        missing = [q for q in grades if ("conjugate", id(v), q) not in self._built]
        if missing:
            for q, out in zip(missing, _conjugates(v, missing)):
                self._built[("conjugate", id(v), q)] = (out, v, q)
        return [self.conjugate(v, q) for q in grades]

    def _get(self, key, build, v, arg):
        if key not in self._built:
            self._built[key] = (build(v, arg), v, arg)
        return self._built[key][0]


def check_conjugation_coherence(v, w, s, t):
    """Conjugation is functorial for composition and tensor: regrading by
    st equals regrading by t then s, and regrading a tensor equals the
    tensor of the regradings.  Exact structure-data equalities, decided
    on families of Chains; the one-pair case of conjugation_coherence."""
    _require_same_base(v, w)
    label = v.base.grade_label
    rep = Report(f"conjugation coherence (s={label(s)}, t={label(t)})")
    return _coherence(rep, v, w, [s], [t], Constructions())


def conjugation_coherence(v, w, built=None):
    """The checks of check_conjugation_coherence for every pair (s, t), s
    slowest.  built (Constructions) shares V (x) W and the regradings of V
    and W with check_braiding_laws on the same pair."""
    _require_same_base(v, w)
    built = Constructions() if built is None else built
    for m in (v, w):
        built.regradings(m)  # every regrading is read, so each module's are one family
    return _coherence(Report("conjugation coherence"), v, w, *grade_tuples(v.base, 2), built)


def _coherence(rep, v, w, s, t, built):
    """Add to rep the two coherence checks of each pair (s[k], t[k]), as
    two rows read interleaved; the tensor check does not depend on t, so
    the pairs with one s form one class of its family."""
    base, conjugate = v.base, built.conjugate
    vt = [conjugate(v, x) for x in t]
    grades = conj(base, s, [m.grade for m in vt])
    iterated = _regrading_witnesses(v, mul(base, s, t), grades, _regradings, vt, s)
    vs, ws = [conjugate(v, x) for x in s], [conjugate(w, x) for x in s]
    grades = mul(base, [m.grade for m in vs], [m.grade for m in ws])
    tensor = _regrading_witnesses(built.tensor(v, w), s, grades, _tensors, vs, ws)
    rep.add_rows(*[
        Row(check_id, True, ("",) * len(s), found, [x is None for x in found])
        for check_id, found in (("CONJ-4.6-iterated", iterated), ("CONJ-4.6-tensor", tensor))
    ])
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
    return _braidings([v], [w]).matrix()


def _braidings(vs, ws):
    """The braiding of each pair (vs[k], ws[k]) of modules over one base,
    as one family of Chains with a segment per pair: antipode of grade
    q^-1 (q the grade of ws[k]) on the coaction leg of V, acted on W,
    then the flip to W (x) V."""
    base = vs[0].base
    qi = inv(base, [w.grade for w in ws])
    i_v, i_w = [v.legs[4] for v in vs], [w.legs[4] for w in ws]
    start = Chain.family(base.field, [[v.labels for v in vs], [w.labels for w in ws]])
    coacted = start.then([v.legs[3][q] for v, q in zip(vs, qi)], i_w)
    coacted = coacted.then(i_v, base.legs.s.stack(qi), i_w)
    return coacted.then(i_v, [w.legs[2] for w in ws]).permute(1, 0)


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
    """Both round trips, and agreement with linear-algebra inversion, as
    Chain identities."""
    field = v.base.field
    V, W = (v.labels,), (w.labels,)
    c = braiding(v, w)
    ci = braiding_inverse(v, w)
    lc, lci = LegMap(c, V + W, W + V), LegMap(ci, W + V, V + W)
    vw, wv = Chain(field, V + W), Chain(field, W + V)
    rep = Report("braiding invertibility")
    rep.add_family("BRAID-inverse-left", ("",), vw.then(lc).then(lci), vw)
    rep.add_family("BRAID-inverse-right", ("",), wv.then(lci).then(lc), wv)
    try:
        inverse = LegMap(c.invert(), W + V, V + W)
    except NotInvertible as exc:
        rep.add("BRAID-inverse-matrix", False, detail=f"braiding singular, rank {exc.rank}")
    else:
        rep.add_family("BRAID-inverse-matrix", ("",), wv.then(inverse), wv.then(lci))
    return rep


def check_braiding_laws(v, w, x=None, f=None, g=None, built=None):
    """The braided-crossed-category law suite for the pair (v, w):
    action linearity, coaction colinearity, conjugation compatibility,
    and, when x / morphisms are supplied, both tensor-composition laws
    with their Yang-Baxter consequence and naturality.

    Each law is a Chain identity on the factor legs V, W, X, which a map
    built on a tensor product enters as a LegMap.  Colinearity is one pair
    of families over the coaction grades r; conjugation compatibility is
    one over the grades s, the braidings of the regradings (V_s, W_s)
    built as one family against the braiding c of (V, W) on every
    segment.  built (Constructions) shares the tensor products and
    regradings with conjugation_coherence on the same pair."""
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
    regradings = built.regradings(v), built.regradings(w)  # BRAID-2.4 reads them all
    source = built.tensor(v, w)
    target = built.tensor(built.conjugate(w, p), v)
    lc = LegMap(c, V + W, W + V)
    hvw, vw = Chain(field, L.H[pq] + V + W), Chain(field, V + W)
    rep.add_family(
        "BRAID-H-linear",
        ("",),
        hvw.then(LegMap(source.action, L.H[pq] + V + W, V + W)).then(lc),
        hvw.then(L.ident[pq], lc).then(LegMap(target.action, L.H[pq] + W + V, W + V)),
    )
    r = list(base.grades())
    rho_t = [LegMap(target.coaction[g], W + V, W + V + L.H[g]) for g in r]
    rho_s = [LegMap(source.coaction[g], V + W, V + W + L.H[g]) for g in r]
    lhs, rhs = vw.then(lc).then(rho_t), vw.then(rho_s).then(lc, L.ident.stack(r))
    rep.add_family("BRAID-H-colinear", grade_details(base, r), lhs, rhs)

    lhs = _braidings(*regradings)
    details = grade_details(base, r, form="conjugated by {}")
    rep.add_family("BRAID-2.4-conjugation", details, lhs, vw.then([lc] * len(r)))

    if x is not None:
        _require_same_base(v, x)
        _require_strict(x)
        X, i_x = (x.labels,), x.legs[4]
        c_wx = LegMap(braiding(w, x), W + X, X + W)
        c_v_qx = LegMap(braiding(v, built.conjugate(x, q)), V + X, X + V)
        vwx = Chain(field, V + W + X)
        through = vwx.then(i_v, c_wx).then(c_v_qx, i_w)  # (x', v, w)
        rep.add_family(
            "BRAID-comp-tensor-first",
            ("",),
            vwx.then(LegMap(braiding(source, x), V + W + X, X + V + W)),
            through,
        )
        rep.add_family(
            "BRAID-comp-tensor-second",
            ("",),
            vwx.then(LegMap(braiding(v, built.tensor(w, x)), V + W + X, W + X + V)),
            vwx.then(lc, i_x).then(i_w, LegMap(braiding(v, x), V + X, X + V)),
        )
        rep.add_family(
            "BRAID-yang-baxter",
            ("",),
            vwx.then(lc, i_x).then(LegMap(braiding(target, x), W + V + X, X + W + V)),
            through.then(i_x, lc),
        )

    if f is not None and g is not None:
        F, G = (f.target.labels,), (g.target.labels,)
        lf, lg = LegMap(f.map, V, F), LegMap(g.map, W, G)
        rep.add_family(
            "BRAID-2.1-naturality",
            ("",),
            vw.then(lc).then(lg, lf),
            vw.then(lf, lg).then(LegMap(braiding(f.target, g.target), F + G, G + F)),
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

