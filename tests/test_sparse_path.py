"""Valid input outside a group-like basis, on the one block evaluator.

Every structure map of k^G, and of a loop algebra carried along a
unitriangular basis change (sparse_inputs), is not monomial, so each
block of each law carries a column list and a scalar list through the
stages.  Here:

- k^{S3} and k^{S4} pass every check, over Q and GF(7);
- a transported O16 or chein12, by one elementary move or four, keeps
  the checks, details and verdicts of the untransported input;
- a kernel-level case whose merged duplicates cancel to zero;
- byte pins: the digests of the reports on these inputs and on one-entry
  mutants of k^{S3} and of transported chein12, whose witnesses come from
  the search over frontiers with scalars, recorded before the monomial
  and sparse stage kernels became one.
"""

import hashlib
import json
from functools import lru_cache

import pytest

from quasibraid import fixtures
from quasibraid.exactlin import QQ, Chain, LegMap, LinMap, PrimeField, default_labels
from quasibraid.hq import antipode_inverse_laws, loop_algebra, validate_hopf_quasigroup
from quasibraid.report import family_witnesses
from quasibraid.tables import GroupTable
from sparse_inputs import FOUR_MOVES, ONE_MOVE, function_algebra, one_entry_mutant, transport
from test_hq_legwise import assert_same_reports, chein_loop

GF7 = PrimeField(7)
FIELDS = {"Q": QQ, "GF7": GF7}
MOVES = {"x1": ONE_MOVE, "x4": FOUR_MOVES}


def loops(field):
    return {"O16": fixtures.hq_o16(field),
            "chein12": loop_algebra(chein_loop(GroupTable.symmetric(3)), field)}


@lru_cache(maxsize=None)
def structure(name, field_name):
    """The input of each pin, by name: "k^S3", "O16 x4", "k^S3 mutant"..."""
    field = FIELDS[field_name]
    if name.startswith("k^S"):
        h = function_algebra(GroupTable.symmetric(int(name[3])), field)
    else:
        loop, moves = name.split()[:2]
        h = transport(loops(field)[loop], MOVES[moves])
    if name.endswith("mutant"):
        part, entry, value = ("comult", (0, 0), 2) if name.startswith("k^S") else (
            "antipode", (0, 1), 3)
        h = one_entry_mutant(h, part, entry, value)
    return h


@lru_cache(maxsize=None)
def reports(name, field_name):
    h = structure(name, field_name)
    return validate_hopf_quasigroup(h), antipode_inverse_laws(h)


def verdicts(reps):
    return [(c.check_id, c.detail, c.passed) for rep in reps for c in rep.checks]


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("name", ["k^S3", "k^S4"])
def test_function_algebras_pass_every_check(name, field_name):
    for rep in reports(name, field_name):
        assert rep.failed_ids(include_informational=True) == []


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("moves", MOVES)
@pytest.mark.parametrize("loop", ["O16", "chein12"])
def test_a_basis_change_keeps_every_verdict(loop, moves, field_name):
    h = loops(FIELDS[field_name])[loop]
    assert verdicts(reports(f"{loop} {moves}", field_name)) == verdicts(
        (validate_hopf_quasigroup(h), antipode_inverse_laws(h)))


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
def test_merged_duplicates_that_cancel_leave_no_entry(field):
    """f sends b0 to b0 + b1, and g sends b0 to b0 and b1 to -b0: g f b0
    has two entries at b0, one each way, which merge to zero and go; the
    other columns keep their one image."""
    legs = (default_labels(2, "b"),)
    one, minus = field.one, field.neg(field.one)

    def leg_map(entries):
        return LegMap(LinMap(field, 2, 2, entries, legs[0], legs[0]), legs, legs)

    f = leg_map({(0, 0): one, (1, 0): one, (1, 1): one})
    g = leg_map({(0, 0): one, (0, 1): minus})
    chain = Chain(field, legs).then(f).then(g)
    assert chain.block(range(2)) == ([1], [0], [minus])
    assert chain.column(0) == {}
    assert chain.matrix() == LinMap(field, 2, 2, {(0, 1): minus}, legs[0], legs[0])
    zero = Chain(field, legs).then(leg_map({(0, 1): minus}))
    assert family_witnesses(chain, zero) == [None]


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("name", ["k^S3 mutant", "chein12 x1 mutant"])
def test_a_mutant_fails_with_the_whole_matrix_witnesses(name, field_name):
    """The search over frontiers with scalars gives the witnesses of the
    comparison of built matrices."""
    assert not reports(name, field_name)[0].passed
    assert_same_reports(structure(name, field_name))


#: sha256 of the two reports' render() joined by a newline, and of their
#: to_jobj() as a sorted JSON list, by input and field
SPARSE_DIGESTS = {
    ("k^S3", "Q"): (
        "312907361d0195f8ef23a1b4468691453ce710cb161049384c2b53c93683a60a",
        "0b7e46ce15dc968e0fa64b2761a782eafaedc5f55f03c977a2560edaf6e4a954",
    ),
    ("k^S4", "Q"): (
        "0789a247428c7850c2181b3c0aca04beff4a6a3edd9d98dac683eedc66119543",
        "336727f75f0c184aa43b5d2686b73b73f9197cd9f337aa386e1cc83800698651",
    ),
    ("O16 x1", "Q"): (
        "56c13979236afe22da67911463d8798d3ded94db9d4f8bf7239a435403246759",
        "8e6930eeae0970074b6edc57b0ba715e61687ac9d2b36c0fcf085504ec03287d",
    ),
    ("O16 x4", "Q"): (
        "56c13979236afe22da67911463d8798d3ded94db9d4f8bf7239a435403246759",
        "8e6930eeae0970074b6edc57b0ba715e61687ac9d2b36c0fcf085504ec03287d",
    ),
    ("chein12 x1", "Q"): (
        "5f0116637eca62d7a3c0f0288e9c9dac2a9320fa3f687daa52b550a21bd6504a",
        "98c9c86ea2bd76f31c264125641824fbbad784cc20c32831c4a0501299aad79c",
    ),
    ("chein12 x4", "Q"): (
        "5f0116637eca62d7a3c0f0288e9c9dac2a9320fa3f687daa52b550a21bd6504a",
        "98c9c86ea2bd76f31c264125641824fbbad784cc20c32831c4a0501299aad79c",
    ),
    ("k^S3 mutant", "Q"): (
        "0c10866cc29b8333722e561bd28b618e7826b89e9c30e85875133446df9e2c17",
        "1aeaf643d0c72b80aa65a285197d01098b4f6a8d6aad7f1db832c23a1e97f730",
    ),
    ("chein12 x1 mutant", "Q"): (
        "9e137b619654cf4632b30b123c411c8726c51dfb4447a609ff437862aae0ade0",
        "f892b84022ed3bb9f1d9e68e0c1df16cd10c3f60657cc9952dcaa03cfc26dfd1",
    ),
    ("k^S3", "GF7"): (
        "0a68d92b3fcf947f12b2698c9f882000669d0497f580b73985da452f4b2ae56c",
        "55520974d38f26457091ebf5cd0512e0bac432a4dfeed9a7bda49abd66e39b70",
    ),
    ("k^S4", "GF7"): (
        "49213816f7abec3cbfee5d9a92c4c47098a2f752120e3b28093ab04cbcc869de",
        "ef266109bc9b1b6c02742d2d094724726aadbda8a4afcbb5f53cb1409927e136",
    ),
    ("O16 x1", "GF7"): (
        "19ed04613eb78dbe0627c675d316e125f173af65ae0a2d956e6c372ae044f9f7",
        "9b3f9a730e188646716a7babe622e6fb6df6a3f9f08a4828c22b01c62c8fb546",
    ),
    ("O16 x4", "GF7"): (
        "19ed04613eb78dbe0627c675d316e125f173af65ae0a2d956e6c372ae044f9f7",
        "9b3f9a730e188646716a7babe622e6fb6df6a3f9f08a4828c22b01c62c8fb546",
    ),
    ("chein12 x1", "GF7"): (
        "3aad5b33536957203bc2311d3a125610db71d3eb95d4c91504e103ca0d6a2a6b",
        "2fc595b47f8b8df3ee1265a4c88edb256c39dd6ca0f0705a93856dfc3550a140",
    ),
    ("chein12 x4", "GF7"): (
        "3aad5b33536957203bc2311d3a125610db71d3eb95d4c91504e103ca0d6a2a6b",
        "2fc595b47f8b8df3ee1265a4c88edb256c39dd6ca0f0705a93856dfc3550a140",
    ),
    ("k^S3 mutant", "GF7"): (
        "52f4111a0d3443960ca14b939b67adbbaa0c93354f677865c7b80b8914f65f22",
        "3d585faa4886cf0cd81281d4cc08d8ba60e0edebce45d508b4332da635df2423",
    ),
    ("chein12 x1 mutant", "GF7"): (
        "2a7bd94f992b8a3efd347ca01bb6517aebfe6644468671744cb1e55c0140d294",
        "7deb79ef6312c02d747f54a987ff6bdd57b251ddceac19e168974eff36dfe5c8",
    ),
}


def digests(reps):
    text = "\n".join(rep.render() for rep in reps)
    jobj = json.dumps([rep.to_jobj() for rep in reps], sort_keys=True)
    return tuple(hashlib.sha256(t.encode()).hexdigest() for t in (text, jobj))


@pytest.mark.parametrize("case", SPARSE_DIGESTS, ids=" ".join)
def test_sparse_reports_keep_their_digests(case):
    assert digests(reports(*case)) == SPARSE_DIGESTS[case]
