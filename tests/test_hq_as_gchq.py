"""A Hopf quasigroup is the |G| = 1 crossed structure.

validate_hopf_quasigroup decides its unit, counit, coassociativity and
compensation laws as the GHQ laws of its one-component embedding over the
trivial group.  This pins that equivalence from outside: on every HQ
fixture and every mutant of tests/test_hq_legwise.py, over Q and GF(7),
each HQ check must carry the same verdict and the same Witness as its GHQ
law in validate_gchq(h.graded).  The table below is written out here, not
read from the library.
"""

import pytest

from quasibraid import fixtures, gchq
from quasibraid.exactlin import PrimeField, QQ
from quasibraid.gchq import CrossedGCHQ, validate_gchq
from quasibraid.hq import antipode_inverse_laws, validate_hopf_quasigroup
from crosschecks import sweedler_spot_check
from test_hq_legwise import MUTANTS

GF7 = PrimeField(7)

#: HQ ID -> the GHQ law it is over the trivial group, in HQ report order
SHARED = {
    "HQ-unit-left": "GHQ-component-unit-left",
    "HQ-unit-right": "GHQ-component-unit-right",
    "HQ-coassoc": "GHQ-3.1-coassoc",
    "HQ-counit-left": "GHQ-3.2-counit-left",
    "HQ-counit-right": "GHQ-3.2-counit-right",
    "HQ-delta-multiplicative": "GHQ-delta-multiplicative",
    "HQ-delta-unit": "GHQ-delta-unit",
    "HQ-epsilon-multiplicative": "GHQ-epsilon-multiplicative",
    "HQ-epsilon-unit": "GHQ-epsilon-unit",
    "HQ-2.5-left": "GHQ-3.3-left",
    "HQ-2.5-right": "GHQ-3.3-right",
    "HQ-2.6-left": "GHQ-3.4-left",
    "HQ-2.6-right": "GHQ-3.4-right",
}

HQ_FIXTURES = sorted(name for name, (kind, _) in fixtures.REGISTRY.items() if kind == "hq")


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
@pytest.mark.parametrize("mutant", [None] + list(MUTANTS))
@pytest.mark.parametrize("name", HQ_FIXTURES)
def test_each_shared_hq_law_is_its_ghq_law(name, mutant, field):
    h = fixtures.build(name, field)[1]
    if mutant is not None:
        h = MUTANTS[mutant](h)
    hq = validate_hopf_quasigroup(h)
    ghq = validate_gchq(h.graded)
    assert [c.check_id for c in hq.checks][: len(SHARED)] == list(SHARED)
    for hq_id, ghq_id in SHARED.items():
        got, want = hq.find(hq_id), ghq.find(ghq_id)
        assert (got.passed, got.witness) == (want.passed, want.witness), hq_id
        assert (got.required, got.detail) == (True, "")


def test_sweedler_agreement_fails_on_a_doubled_antipode():
    """The element-wise left antipode law and its Chain both see 2S, and
    neither gives eps(x) g, so every sampled basis pair fails."""
    h = fixtures.gchq_power()
    doubled = {p: m.scale(2) for p, m in h.antipode.items()}
    bad = CrossedGCHQ(h.field, h.grading, h.components, h.comult, h.counit, doubled, h.crossing)
    rep = sweedler_spot_check(bad)
    assert rep.failed_ids() == ["GHQ-3.5-sweedler-agreement"] * 18
    assert rep.checks[0].detail == "grade e, basis (0,0)"


def test_both_hq_validators_share_one_set_of_legs(monkeypatch):
    built = []
    init = gchq.GradedLegs.__init__

    def counted(self, h):
        built.append(h)
        init(self, h)

    monkeypatch.setattr(gchq.GradedLegs, "__init__", counted)
    h = fixtures.hq_o16()
    assert validate_hopf_quasigroup(h).passed and antipode_inverse_laws(h).passed
    assert built == [h.graded]
