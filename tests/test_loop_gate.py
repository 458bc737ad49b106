"""The loop algebra's gate: the required inverse-property loop laws.

k[L] is a Hopf quasigroup exactly when L is an IP loop, so loop_algebra
and group_algebra check tables.required_loop_laws and never scan for
Moufang or associativity.  validate_ip_loop still reports those two,
informationally, after the required rows.  Its rendered report and its
JSON are pinned below by sha256 on fixture tables, Chein loops and tables
that fail each kind of required check, as are the InvalidLoop messages.
"""

import hashlib
import json

import pytest

from quasibraid import fixtures, tables
from quasibraid.errors import InvalidLoop
from quasibraid.exactlin import QQ, PrimeField
from quasibraid.hq import group_algebra, loop_algebra
from quasibraid.tables import GroupTable, LoopTable


def chein_loop(g):
    """Chein's Moufang loop M(G, 2) on G u Gu: an IP loop, nonassociative
    when G is nonabelian."""
    n = g.order
    labels = list(g.labels) + [f"{label}u" for label in g.labels]
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        for b in range(n):
            table[a][b] = g.mul(a, b)
            table[a][n + b] = n + g.mul(b, a)
            table[n + a][b] = n + g.mul(a, g.inv(b))
            table[n + a][n + b] = g.mul(g.inv(b), a)
    return LoopTable(labels, table)


def named(table, prefix="x"):
    return LoopTable([f"{prefix}{i}" for i in range(len(table))], table)


LOOPS = {
    "c2": lambda: LoopTable.from_group(fixtures.c2()),
    "c3": lambda: LoopTable.from_group(fixtures.c3()),
    "c4": lambda: LoopTable.from_group(fixtures.c4()),
    "s3": lambda: LoopTable.from_group(fixtures.s3()),
    "o16": fixtures.o16,
    "chein12": lambda: chein_loop(GroupTable.symmetric(3)),
    "chein24": lambda: chein_loop(
        GroupTable.direct_product(GroupTable.symmetric(3), GroupTable.cyclic(2))
    ),
    # two-sided inverses, but neither inverse property
    "not-ip5": lambda: named([
        [0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0],
    ]),
    # latin with an identity, but x2's left inverse x4 is not its right inverse x3
    "one-sided5": lambda: named([
        [0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3],
    ]),
    "not-latin3": lambda: named([[0, 1, 2], [1, 1, 0], [2, 0, 1]]),
    "no-identity2": lambda: named([[1, 0], [0, 1]]),
}

#: sha256 of validate_ip_loop's render() and of its to_jobj() as canonical
#: JSON, recorded before the gate was split from the full validator
PINS = {
    "c2": (
        "9eec8de24ed267dc951cbe34a999950ab123bf8524401b8c0c6c1a8d7924f407",
        "e8c360ecb785b03c6be47b626553eb3fce6c975f27bca0f17411523b257d7d38",
    ),
    "c3": (
        "da9e988bb733a82a49cc3d0c1f1bed1fcf89205c990268045c772d0b72f4d30a",
        "7b9f1bbd477a617d827f49e731f54881b65c9713eb41f709da49e60beac75c64",
    ),
    "c4": (
        "9bc24ed4cf9ad2022d0d072f7fe523c0b0d1e502a532d5e1897667a064ff7e38",
        "0605997b60d78193719cda766905089ae8a10b0dcd3d703460a2cdbd6dbd0ccb",
    ),
    "chein12": (
        "1d75a6f498c78e55e8918bf4d01b1e1363b2087e9da2608db59102bae8da11f5",
        "a54125fd2a1624f1b0d13517e93fcd5c0215475d84a5b461358a3055dd78f64e",
    ),
    "chein24": (
        "b7166c5e502efdf47b7e9accb74f041773d12ede6ad48a0f12905cf6c45493ff",
        "e88365f7640938988b9a14056493aba51781504ffb452e882e31c4b4af8326cc",
    ),
    "no-identity2": (
        "9e5664b9588ed54fa8230a601deeb27c4fedcac20516403444804854183e2bcb",
        "b2a58a0a5dd22e00aa02bf80eb4e21614566d9c03020629ce8e575f153b396d0",
    ),
    "not-ip5": (
        "7086b03bc9d952caddefb631ce07ba949a40ff482983ed59eae287e50855bc42",
        "045e3414049bd925123be6cd72b1ea3c562231bfd40e5652449eda3f12f80860",
    ),
    "not-latin3": (
        "79b0654464e9661352a0d7f58cb8691358dbaadc4ab2cdcb2448d6330b7c601c",
        "f8e7eb4505ebcce5e45bf1071f19430e13bd6dc502eef96b8bd73010ca3c4599",
    ),
    "o16": (
        "ce6cb1d3726e5f8d98ad2754250d89e485b908c75b1829358d7dd2824dfd50b0",
        "b864ed0e2b96b0704f0d3e8d1f1a56bd0d33d7a3795cf234625a0e5215411306",
    ),
    "one-sided5": (
        "304b54440ebf52e585ee53b00619eeeee47b036c289b391af8cdcc845bebbc50",
        "6ccb8866ba50192ff96683c5d69e367af4328aaff10bbd2da93507af8372c2a8",
    ),
    "s3": (
        "521f254b1aa149f4015f55fd1131ec57ec9f4acc31830a2a00c3154a3e8ce52a",
        "500906675fa55554d209d501368bfb589664f4997f8dc8ebefcbcee7d4446439",
    ),
}

#: what loop_algebra raises on each table that is not an IP loop
REFUSED = {
    "not-ip5": "table is not an inverse-property loop: LOOP-IP-left, LOOP-IP-right",
    "one-sided5": "table is not an inverse-property loop: LOOP-inverse-two-sided, "
                  "LOOP-IP-left, LOOP-IP-right",
    "not-latin3": "table is not an inverse-property loop: LOOP-latin-rows, LOOP-latin-cols",
    "no-identity2": "table is not an inverse-property loop: LOOP-identity",
}


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(rep):
    jobj = json.dumps(rep.to_jobj(), sort_keys=True, separators=(",", ":"))
    return sha(rep.render()), sha(jobj)


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_full_report_is_pinned(name):
    assert digests(tables.validate_ip_loop(LOOPS[name]())) == PINS[name]


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_gate_is_the_required_rows_of_the_full_report(name):
    loop = LOOPS[name]()
    gate, full = tables.required_loop_laws(loop).checks, tables.validate_ip_loop(loop).checks
    assert gate == [check for check in full if check.required]
    assert full[:len(gate)] == gate
    informational = [check.check_id for check in full[len(gate):]]
    assert informational == (["LOOP-moufang", "LOOP-assoc"] if len(gate) == 6 else [])


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_loop_algebra_refuses_with_the_same_text(name):
    loop = LOOPS[name]()
    if name not in REFUSED:
        assert loop_algebra(loop, QQ).dim == loop.order
        return
    with pytest.raises(InvalidLoop) as caught:
        loop_algebra(loop, QQ)
    assert str(caught.value) == REFUSED[name]


def test_constructions_never_scan_for_moufang_or_associativity(monkeypatch):
    calls = []

    def spy(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for name in ("_moufang_witnesses", "_assoc_witnesses"):
        monkeypatch.setattr(tables, name, spy(name, getattr(tables, name)))
    for field in (QQ, PrimeField(7)):
        loop_algebra(LOOPS["chein24"](), field)
        loop_algebra(fixtures.o16(), field)
        group_algebra(fixtures.s3(), field)
        group_algebra(fixtures.c4(), field)
    assert calls == []
    tables.validate_ip_loop(LOOPS["chein12"]())  # the spies are live
    assert calls == ["_moufang_witnesses", "_assoc_witnesses"]
