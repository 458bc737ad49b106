"""Cross-checks that no verdict needs, kept for the tests.

sweedler_spot_check evaluates the left antipode law element by element
from the raw structure constants and compares it with the Chain that
decides GHQ-3.3-left; search_dim1_modules runs one-dimensional candidate
modules through validate_yd and reports what it finds.  Both emit check
IDs of report.AXIOM_LEGEND.
"""

import random

from quasibraid.gchq import _left_compensation, legs_map
from quasibraid.report import Report
from quasibraid.yd import YDModule, _diagonal_group, module_legs, validate_yd


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
        composed = _left_compensation(h, [p]).column(i * d_p + j)

        ok = elementwise == composed == expected
        rep.add(
            "GHQ-3.5-sweedler-agreement",
            ok,
            detail=f"grade {h.grade_label(p)}, basis ({i},{j})",
        )
    return rep


def search_dim1_modules(base):
    """Empirical search for one-dimensional modules at non-identity grades.

    Candidates pair the trivial character action on H_p with a diagonal
    group-like coaction family picked from the carrier basis; each is run
    through the full validator.  Results are informational only: the
    search reports what exists for this base, it asserts nothing.
    """
    rep = Report("dim-1 module search at non-identity grades")
    field = base.field
    unfit = _diagonal_group(base)
    if type(unfit) is str:
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
