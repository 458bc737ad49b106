"""Verdicts that must not move when the input is re-expressed.

Q to GF(p): a structure with integer structure constants that passes a
required check over Q passes it over GF(7) too, since reducing mod 7
preserves every identity between integer matrices.  Checks are matched
by (check ID, detail); witnesses depend on the field and are not
compared.  Invertibility is not preserved by the reduction, so the rank
checks are left out, and so is every YD check on a base whose antipode
is singular mod 7.  No fixture map has an entry other than 1, so two
Hopf quasigroups from tests/sparse_inputs.py whose maps are not monomial,
one with entries from -6 to 6, make the laws compute with scalars.
"""

from collections import Counter

import pytest

from quasibraid import fixtures
from quasibraid.cli import _validate_object
from quasibraid.exactlin import QQ, PrimeField
from quasibraid.tables import GroupTable
from sparse_inputs import FOUR_MOVES, function_algebra, transport

GF7 = PrimeField(7)

#: the checks that decide a rank, which reducing mod p can lower
RANK_CHECKS = {
    "HQ-antipode-bijective", "GHQ-antipode-bijective", "CROSS-pi-bijective",
    "BRAID-inverse-matrix",
}

#: the structure of each name over a field, as (kind, structure)
STRUCTURES = {
    name: lambda field, name=name: fixtures.build(name, field)
    for name, (kind, _) in fixtures.REGISTRY.items() if kind in ("hq", "gchq", "yd")
}
STRUCTURES["hq-s3-four-moves"] = lambda field: ("hq", transport(fixtures.hq_s3(field), FOUR_MOVES))
STRUCTURES["k^S3"] = lambda field: ("hq", function_algebra(GroupTable.symmetric(3), field))


def checks(name, field):
    """The checks the CLI's validate runs on the structure over field."""
    return _validate_object(*STRUCTURES[name](field)).checks


def passing(checks, singular):
    """(check ID, detail) of each required passing check outside the
    relation's exclusions, with multiplicity."""
    return Counter(
        (c.check_id, c.detail) for c in checks
        if c.required and c.passed and c.check_id not in RANK_CHECKS
        and not (singular and c.check_id.startswith("YD-"))
    )


@pytest.mark.parametrize("name", STRUCTURES)
def test_a_check_passing_over_q_passes_over_gf7(name):
    over_q, over_gf7 = checks(name, QQ), checks(name, GF7)
    singular = any(c.check_id == "GHQ-antipode-bijective" and not c.passed for c in over_gf7)
    kept = passing(over_q, singular)
    assert kept, "the relation compares no check"
    assert kept - passing(over_gf7, singular) == Counter()
