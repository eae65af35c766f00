"""Golden certificate bytes: one small certificate of each kind, a
deficiency found by the matching rather than the counting bound, a bs12 slab
match and a bs12 `embed-f2` report, pinned by sha256 and regenerated in fresh
processes under two hash seeds.  The slab match and the lattice deficiency are
also written by `check --out`, and pinned to the same hashes.  A refactor that
changes a single written byte fails here."""

import hashlib
import os
import subprocess
import sys

import pytest

import paradox

SRC = os.path.dirname(os.path.dirname(os.path.abspath(paradox.__file__)))

# The inputs of the `cert_pool` fixture in conftest.py.
GENERATE = r"""
import os, sys
from paradox.certificates import (
    pi_witness_fields, seal, transport_fields, witness_fields, write_text,
)
from paradox.cli import main
from paradox.crossed import pi_witness
from paradox.engine import doubling_matching, type_order, witness_from_matching
from paradox.groups import IntVec, ball, group_from_string
from paradox.sets import AllSet, SemigroupSet, parse_setexpr
from paradox.witness import semigroup_window

Z1, BS = group_from_string("zn:1"), group_from_string("bs12")
F2 = group_from_string("free:2")
s, t = BS.parse("(2,0)"), BS.parse("(2,1)")
z1_ball1 = [IntVec((-1,)), IntVec((0,)), IntVec((1,))]
window = semigroup_window(BS, s, t, 3)
z1_window, f2_window = ball(Z1, 3), ball(F2, 2)
match = doubling_matching(SemigroupSet((s, t), True), [s, t], window)
witness = witness_from_matching(match)
fields = {
    "match": transport_fields("match", match),
    "deficiency": transport_fields("deficiency",
        doubling_matching(AllSet(), z1_ball1, z1_window)),
    "witness": witness_fields(witness, window),
    "flow": transport_fields("flow",
        type_order(1, AllSet(), 2, AllSet(), [Z1.identity()], z1_window)),
    "flow-deficiency": transport_fields("flow-deficiency",
        type_order(2, AllSet(), 1, AllSet(), z1_ball1, z1_window)),
    "cp-witness": pi_witness_fields(pi_witness(witness, BS), window),
    # 15 points with 33 images pass the counting bound, so this violator
    # comes from the matching's alternating-reachability cut
    "deficiency-hall": transport_fields("deficiency", doubling_matching(
        parse_setexpr(r"all\finite{a a b,b^-1 b^-1,a b^-1 a,b^-1,a b^-1 b^-1,"
                      r"a b^-1 a^-1}", F2),
        [F2.parse(w) for w in ("a", "a^-1", "b")], f2_window)),
    # offsets with denominators and signs, in window order
    "slab-match": transport_fields("match", doubling_matching(
        parse_setexpr("slab(0,1,0)", BS), BS.ball_elements(3), ball(BS, 3))),
}


def path(name):
    return os.path.join(sys.argv[1], name + ".json")


for name, cert in fields.items():
    kind = {"deficiency-hall": "deficiency", "slab-match": "match"}.get(name, name)
    assert cert["kind"] == kind, (name, cert["kind"])
    write_text(seal(cert), path(name))
# the displacement set of the report is ordered by the group's sort_key
assert main(["embed-f2", "--from-cert", path("match"), "--depth", "4", "--out",
             path("embed-f2"), "--quiet"]) == 0
# what `check --out` writes for two of the certificates above
assert main(["check", "--group", "bs12", "--set", "slab(0,1,0)", "--translators",
             "ball:3", "--window", "3", "--out", path("check-slab-match"),
             "--quiet"]) == 0
assert main(["check", "--group", "zn:1", "--set", "all", "--translators",
             "(-1),(0),(1)", "--window", "3", "--out", path("check-deficiency"),
             "--quiet"]) == 2
"""

GOLDEN = {
    "match": "bfd6d7ef84a6fb2c48b266a2dd44bea82e0cad8d6cdf115d14d6f9c8c160bd73",
    "deficiency": "d5dd1c05e985959aa4c38f6f56987112c1681d6a99011d342876214fa59af64e",
    "witness": "9fd7e54e1170e5f8debb56258665b24ef8044ed3d7248ef009979e8396a76637",
    "flow": "294d49d0b37be2f3c6342e94b63335bcdec43d2bb7922615e8e081d3f29b888b",
    "flow-deficiency": "9e3567ad3425458e96ac8d53a6e46e299da0d5f01e069adde75f0f468d6ac4e7",
    "cp-witness": "5fedc247c5151c00c6ec0cad239fcc5de41bbab7bdcf8205c4e31d57fc9386d4",
    "deficiency-hall": "802dd6508af4801e3fc5c96e7e644a95aad99e301abf19dc395e25159df24016",
    "slab-match": "105b452a318b3ae4fe56cd8f8d13a12f8846c0a3ddcc1afa03738b8bedc5b196",
    "embed-f2": "be1cc34b489a2f86fc1a6602173e41913f5ada5d306c6f42d35d8f7ac1409bc8",
}
GOLDEN["check-slab-match"] = GOLDEN["slab-match"]
GOLDEN["check-deficiency"] = GOLDEN["deficiency"]


def _generate(out_dir, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", GENERATE, str(out_dir)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return {kind: (out_dir / f"{kind}.json").read_bytes() for kind in GOLDEN}


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    return {
        seed: _generate(tmp_path_factory.mktemp(f"seed{seed}"), seed)
        for seed in (0, 1)
    }


@pytest.mark.parametrize("kind", list(GOLDEN))
def test_bytes_match_golden_under_two_hash_seeds(generated, kind):
    assert generated[0][kind] == generated[1][kind]
    assert hashlib.sha256(generated[0][kind]).hexdigest() == GOLDEN[kind]
