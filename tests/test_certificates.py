import copy
import json
import random

import pytest

from paradox.certificates import (
    canonical_json,
    content_digest,
    load_certificate,
    seal,
    transport_fields,
    transport_from_cert,
    window_from_descriptor,
    write_text,
)
from paradox.engine import (
    TransportCert,
    ViolatorCert,
    doubling_matching,
    type_order,
)
from paradox.groups import ball, group_from_string
from paradox.sets import AllSet, SemigroupSet, parse_setexpr, show_setexpr
from paradox.verifier import CertificateFormatError, verify_certificate
from paradox.witness import semigroup_window
from helpers import mutate_certificate, mutation_operators, sealed

Z1 = group_from_string("zn:1")
F2 = group_from_string("free:2")
BS = group_from_string("bs12")

S_GEN = BS.parse("(2,0)")
T_GEN = BS.parse("(2,1)")
SEMI = SemigroupSet((S_GEN, T_GEN), True)


class TestRoundTrip:
    def test_every_kind_verifies(self, cert_pool):
        for name, cert in cert_pool.items():
            outcome = verify_certificate(cert)
            assert outcome.ok, f"{name}: {outcome.message}"

    def test_file_round_trip(self, cert_pool, tmp_path):
        path = tmp_path / "cert.json"
        # sealing a sealed certificate again gives its canonical text
        text = seal(copy.deepcopy(cert_pool["match"]))
        assert text == canonical_json(cert_pool["match"])
        write_text(text, str(path))
        again = load_certificate(str(path))
        assert again == cert_pool["match"]
        assert verify_certificate(again).ok

    def test_serialisation_is_deterministic(self):
        window = semigroup_window(BS, S_GEN, T_GEN, 3)
        a = seal(transport_fields(
            "match", doubling_matching(SEMI, [S_GEN, T_GEN], window)))
        b = seal(transport_fields(
            "match", doubling_matching(SEMI, [T_GEN, S_GEN], window)))
        assert a == b

    def test_writes_the_schema_budget_slack(self):
        # schema v1 keeps budgetSlack; every writer gives it as 4, and no
        # answer depends on it
        window = semigroup_window(BS, S_GEN, T_GEN, 3)
        match = doubling_matching(SEMI, [S_GEN, T_GEN], window)
        cert = sealed(transport_fields("match", match))
        assert cert["budgetSlack"] == 4
        assert verify_certificate(cert).ok
        # the context rides on the result but is not part of its value
        assert match == doubling_matching(
            SEMI, [S_GEN, T_GEN], window
        )
        assert "ctx" not in repr(match)

    def test_digest_covers_semantic_fields(self, cert_pool):
        cert = dict(cert_pool["match"])
        cert["set"] = "all"
        assert content_digest(cert) != cert["digest"]

    def test_window_descriptor_roundtrip(self, cert_pool):
        desc = cert_pool["witness"]["window"]
        window = window_from_descriptor(BS, desc)
        assert len(window.elements) == len(desc["elements"])
        ball_desc = cert_pool["deficiency"]["window"]
        assert "elements" not in ball_desc
        assert len(window_from_descriptor(Z1, ball_desc)) == 7


class TestVerifierRejections:
    def test_unknown_schema(self):
        with pytest.raises(CertificateFormatError):
            verify_certificate({"schema": "nope", "kind": "match"})

    def test_unknown_kind(self, cert_pool):
        broken = dict(cert_pool["match"])
        broken["kind"] = "sideways"
        with pytest.raises(CertificateFormatError):
            verify_certificate(broken)

    def test_every_operator_rejects(self, cert_pool):
        rng = random.Random(2024)
        for name, cert in cert_pool.items():
            for op_name, fn in mutation_operators(cert):
                mutated = fn(copy.deepcopy(cert), rng)
                outcome = verify_certificate(mutated)
                assert not outcome.ok, f"{name}/{op_name} was accepted"

    def test_two_hundred_random_mutations(self, cert_pool):
        rng = random.Random(7)
        pool = list(cert_pool.values())
        for trial in range(200):
            cert = pool[trial % len(pool)]
            op_name, mutated = mutate_certificate(cert, rng)
            outcome = verify_certificate(mutated)
            assert not outcome.ok, f"mutation {op_name} on trial {trial} accepted"


def _as_flow(cert):
    """The same fact stated as a flow: copies 2, capacity 1, setA = setB."""
    flow = {k: v for k, v in cert.items() if k not in ("set", "assignment")}
    flow.update(copies=2, capacity=1, setA=cert["set"], setB=cert["set"])
    if cert["kind"] == "match":
        flow["kind"] = "flow"
        flow["assignment"] = [[x, [s1, s2]] for x, s1, s2 in cert["assignment"]]
    else:
        flow["kind"] = "flow-deficiency"
    flow["digest"] = content_digest(flow)
    return flow


def _verdicts(*certs):
    for cert in certs:
        cert["digest"] = content_digest(cert)
    return [verify_certificate(cert) for cert in certs]


class TestDoublingIsFlow:
    """match/deficiency are the m = 2, n = 1, A = B case of
    flow/flow-deficiency and replay through the same checks."""

    @pytest.mark.parametrize("name", ["match", "match-free"])
    def test_match_and_its_flow_form(self, cert_pool, name):
        match = copy.deepcopy(cert_pool[name])
        flow = _as_flow(match)
        assert all(v.ok for v in _verdicts(match, flow))
        # s1 := s2 on one row: the two images of that point collide
        match["assignment"][0][1] = match["assignment"][0][2]
        flow["assignment"][0][1][0] = flow["assignment"][0][1][1]
        as_match, as_flow = _verdicts(match, flow)
        assert not as_match.ok and not as_flow.ok
        assert as_match.message == as_flow.message

    def test_deficiency_and_its_flow_form(self, cert_pool):
        deficiency = copy.deepcopy(cert_pool["deficiency"])
        flow = _as_flow(deficiency)
        assert all(v.ok for v in _verdicts(deficiency, flow))
        # one point has three targets, not fewer than 2 * 1
        for cert in (deficiency, flow):
            cert["violator"] = cert["violator"][:1]
        as_def, as_flow = _verdicts(deficiency, flow)
        assert not as_def.ok and not as_flow.ok
        assert as_def.message == as_flow.message

    @pytest.mark.parametrize("group, radius", [(Z1, 2), (F2, 2)], ids=["zn1", "free2"])
    def test_either_decider_writes_either_layout(self, group, radius):
        """Both deciders return one record per outcome, and a result of
        either is written as a doubling or as a flow."""
        window = ball(group, radius)
        translators = group.ball_elements(1)
        results = (doubling_matching(AllSet(), translators, window),
                   type_order(2, AllSet(), 1, AllSet(), translators, window))
        assert type(results[0]) is type(results[1])
        kinds = (("match", "flow") if isinstance(results[0], TransportCert)
                 else ("deficiency", "flow-deficiency"))
        for result in results:
            for kind in kinds:
                cert = sealed(transport_fields(kind, result))
                assert cert["kind"] == kind
                outcome = verify_certificate(cert)
                assert outcome.ok, f"{kind}: {outcome.message}"


class TestReader:
    """`transport_from_cert` reads a certificate back into the record its
    decider returned, and `transport_fields` writes no fact the record does
    not state."""

    def test_reader_inverts_the_writer(self, transport_pool):
        window = ball(F2, 2)
        flow = type_order(3, AllSet(), 2, AllSet(), F2.ball_elements(1), window)
        assert isinstance(flow, TransportCert) and flow.capacity == 2
        for kind, result in [*transport_pool.values(), ("flow", flow)]:
            group = result.window.group
            read = transport_from_cert(
                json.loads(seal(transport_fields(kind, result))), result.window)
            assert type(read) is type(result), kind
            for name in type(result)._fields:
                if name in ("set_a", "set_b"):
                    assert (show_setexpr(getattr(read, name), group)
                            == show_setexpr(getattr(result, name), group)), kind
                else:
                    assert getattr(read, name) == getattr(result, name), kind

    @pytest.mark.parametrize("copies, capacity, kind, record", [
        (3, 1, "deficiency", "ViolatorCert"),
        (1, 1, "match", "TransportCert"),
        (1, 1, "bogus", "TransportCert"),
        (1, 1, "flow-deficiency", "TransportCert"),
        (3, 1, "flow", "ViolatorCert"),
    ], ids=["not-a-doubling", "match-not-a-doubling", "unknown-kind",
            "assignment-as-violator", "violator-as-assignment"])
    def test_writer_refuses_a_kind_the_record_does_not_state(
            self, copies, capacity, kind, record):
        window = ball(Z1, 2)
        result = type_order(copies, AllSet(), capacity, AllSet(),
                            Z1.ball_elements(1), window)
        assert type(result).__name__ == record
        with pytest.raises(ValueError, match=f"^a {record} of {copies}\\[A\\] <= "
                                             f"{capacity}\\[B\\] is not written "
                                             f"as '{kind}'$"):
            transport_fields(kind, result)

    def test_a_doubling_needs_b_equal_to_a(self):
        window = ball(Z1, 2)
        wider = parse_setexpr("ball(9)", Z1)
        result = type_order(2, AllSet(), 1, wider, Z1.ball_elements(1), window)
        kind = "match" if isinstance(result, TransportCert) else "deficiency"
        with pytest.raises(ValueError, match="is not written as"):
            transport_fields(kind, result)
