"""Golden certificate bytes: one small certificate of each kind, and a
deficiency found by the matching rather than the counting bound, pinned by
sha256 and regenerated in fresh processes under two hash seeds.  A refactor
that changes a single written byte fails here."""

import hashlib
import os
import subprocess
import sys

import pytest

import paradox

SRC = os.path.dirname(os.path.dirname(os.path.abspath(paradox.__file__)))

# The inputs of the `cert_pool` fixture in test_certificates.py.
GENERATE = r"""
import os, sys
from paradox.certificates import (
    cert_from_deficiency, cert_from_flow, cert_from_flow_deficiency,
    cert_from_match, cert_from_pi_witness, cert_from_witness, write_certificate,
)
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
match = doubling_matching(SemigroupSet((s, t), True), [s, t], window)
witness = witness_from_matching(match)
certs = {
    "match": cert_from_match(match),
    "deficiency": cert_from_deficiency(
        doubling_matching(AllSet(), z1_ball1, ball(Z1, 3))),
    "witness": cert_from_witness(witness, BS, window),
    "flow": cert_from_flow(
        type_order(1, AllSet(), 2, AllSet(), [Z1.identity()], ball(Z1, 3))),
    "flow-deficiency": cert_from_flow_deficiency(
        type_order(2, AllSet(), 1, AllSet(), z1_ball1, ball(Z1, 3))),
    "cp-witness": cert_from_pi_witness(pi_witness(witness, BS), window),
    # 15 points with 33 images pass the counting bound, so this violator
    # comes from the matching's alternating-reachability cut
    "deficiency-hall": cert_from_deficiency(doubling_matching(
        parse_setexpr(r"all\finite{a a b,b^-1 b^-1,a b^-1 a,b^-1,a b^-1 b^-1,"
                      r"a b^-1 a^-1}", F2),
        [F2.parse(w) for w in ("a", "a^-1", "b")], ball(F2, 2))),
}
for name, cert in certs.items():
    kind = {"deficiency-hall": "deficiency"}.get(name, name)
    assert cert["kind"] == kind, (name, cert["kind"])
    write_certificate(cert, os.path.join(sys.argv[1], name + ".json"))
"""

GOLDEN = {
    "match": "bfd6d7ef84a6fb2c48b266a2dd44bea82e0cad8d6cdf115d14d6f9c8c160bd73",
    "deficiency": "d5dd1c05e985959aa4c38f6f56987112c1681d6a99011d342876214fa59af64e",
    "witness": "9fd7e54e1170e5f8debb56258665b24ef8044ed3d7248ef009979e8396a76637",
    "flow": "294d49d0b37be2f3c6342e94b63335bcdec43d2bb7922615e8e081d3f29b888b",
    "flow-deficiency": "9e3567ad3425458e96ac8d53a6e46e299da0d5f01e069adde75f0f468d6ac4e7",
    "cp-witness": "5fedc247c5151c00c6ec0cad239fcc5de41bbab7bdcf8205c4e31d57fc9386d4",
    "deficiency-hall": "802dd6508af4801e3fc5c96e7e644a95aad99e301abf19dc395e25159df24016",
}


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
