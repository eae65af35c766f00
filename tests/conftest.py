import os
import sys

import pytest

from paradox.certificates import pi_witness_fields, transport_fields, witness_fields
from paradox.crossed import pi_witness
from paradox.engine import (
    TransportCert,
    ViolatorCert,
    doubling_matching,
    type_order,
    witness_from_matching,
)
from paradox.groups import IntVec, ball, group_from_string
from paradox.sets import AllSet, SemigroupSet
from paradox.witness import free_semigroup_witness, semigroup_window

sys.path.insert(0, os.path.dirname(__file__))

from helpers import sealed  # noqa: E402

Z1 = group_from_string("zn:1")
F2 = group_from_string("free:2")
BS = group_from_string("bs12")

S_GEN = BS.parse("(2,0)")
T_GEN = BS.parse("(2,1)")
SEMI = SemigroupSet((S_GEN, T_GEN), True)


@pytest.fixture(scope="module")
def transport_pool():
    """A decider's result of every transport kind, with the kind it is
    written as."""
    pool = {}

    window = semigroup_window(BS, S_GEN, T_GEN, 3)
    match = doubling_matching(SEMI, [S_GEN, T_GEN], window)
    assert isinstance(match, TransportCert)
    pool["match"] = "match", match

    f2_window = ball(F2, 2)
    free_match = doubling_matching(
        AllSet(), F2.ball_elements(1), f2_window
    )
    pool["match-free"] = "match", free_match

    z1_window = ball(Z1, 3)
    deficiency = doubling_matching(
        AllSet(), [IntVec((-1,)), IntVec((0,)), IntVec((1,))], z1_window
    )
    assert isinstance(deficiency, ViolatorCert)
    pool["deficiency"] = "deficiency", deficiency

    flow = type_order(1, AllSet(), 2, AllSet(), [Z1.identity()], z1_window)
    assert isinstance(flow, TransportCert)
    pool["flow"] = "flow", flow

    flow_def = type_order(
        2, AllSet(), 1, AllSet(), [IntVec((-1,)), IntVec((0,)), IntVec((1,))],
        z1_window,
    )
    assert isinstance(flow_def, ViolatorCert)
    pool["flow-deficiency"] = "flow-deficiency", flow_def
    return pool


@pytest.fixture(scope="module")
def cert_pool(transport_pool):
    """One valid certificate of every kind, in a fixed order that the seeded
    mutation tests walk."""
    def written(name):
        kind, result = transport_pool[name]
        return sealed(transport_fields(kind, result))

    pool = {name: written(name) for name in ("match", "match-free", "deficiency")}
    _, match = transport_pool["match"]
    witness = witness_from_matching(match)
    pool["witness"] = sealed(witness_fields(witness, match.window))

    symbolic = free_semigroup_witness(BS, S_GEN, T_GEN, 5)
    symbolic_window = semigroup_window(BS, S_GEN, T_GEN, 4)
    pool["witness-symbolic"] = sealed(witness_fields(symbolic, symbolic_window))
    pool["flow"] = written("flow")
    pool["flow-deficiency"] = written("flow-deficiency")

    pw = pi_witness(witness, BS)
    pool["cp-witness"] = sealed(pi_witness_fields(pw, match.window))
    return pool
