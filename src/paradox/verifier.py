"""Independent certificate verifier: pure replay of the recorded facts using
only the data model and group arithmetic.  No matching or flow solver is
imported here, so a verifier pass is evidence independent of the producer.
A transport certificate is checked as the record its decider returned.  The
witness and crossed-product checkers are imported by the checkers of those
kinds alone, so a transport certificate's replay loads neither."""

from __future__ import annotations

from .certificates import (
    SCHEMA,
    TransportCert,
    ViolatorCert,
    content_digest,
    json_int,
    pi_witness_from_cert,
    transport_from_cert,
    window_digest,
    window_from_descriptor,
    witness_from_cert,
)
from .groups import PRODUCT_CAP, Record, Window, group_from_string
from .sets import BudgetError, materialize, predicate


class CertificateFormatError(ValueError):
    """The file is not a readable certificate of a known schema."""


class VerifyOutcome(Record, fields="ok message"):
    __slots__ = ()

    @staticmethod
    def passed() -> "VerifyOutcome":
        return VerifyOutcome(True, "all facts re-check")

    @staticmethod
    def failed(message: str) -> "VerifyOutcome":
        return VerifyOutcome(False, message)


def read_envelope(cert) -> tuple[str, Window]:
    """The kind a certificate declares and its window, in the declared group;
    CertificateFormatError when any of them, or an envelope field that must
    be an integer or a string, is malformed."""
    if not isinstance(cert, dict):
        raise CertificateFormatError("certificate is not a JSON object")
    if cert.get("schema") != SCHEMA:
        raise CertificateFormatError(f"unknown schema {cert.get('schema')!r}")
    kind = cert.get("kind")
    if not isinstance(kind, str) or kind not in _CHECKERS:
        raise CertificateFormatError(f"unknown certificate kind {kind!r}")
    try:
        group = group_from_string(cert["group"])
        window = window_from_descriptor(group, cert["window"])
        json_int(cert.get("budgetSlack", 0), "budgetSlack")  # its value drives nothing
        producer = cert.get("producer", "")  # left out of the digest
        if type(producer) is not str:
            raise ValueError(f"producer must be a string, "
                             f"got {type(producer).__name__}")
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise CertificateFormatError(f"malformed certificate envelope: {exc}") from exc
    return kind, window


def verify_certificate(cert: dict) -> VerifyOutcome:
    """Re-check every semantic fact of a certificate; the first violated fact,
    or the first membership a search cap leaves undecided, is named in the
    outcome message."""
    kind, window = read_envelope(cert)
    if window_digest(window) != cert.get("checkedOn"):
        return VerifyOutcome.failed("window digest does not match checkedOn")
    # a BudgetError is a ValueError caught first, so its message gets no prefix
    try:
        outcome = _CHECKERS[kind](cert, window)
    except BudgetError as exc:
        return VerifyOutcome.failed(str(exc))
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        return VerifyOutcome.failed(f"payload does not parse or replay: {exc}")
    if not outcome.ok:
        return outcome
    if content_digest(cert) != cert.get("digest"):
        return VerifyOutcome.failed("content digest mismatch")
    return outcome


def _verify_transport(data: dict, window) -> VerifyOutcome:
    fact = transport_from_cert(data, window)
    check = _verify_violator if isinstance(fact, ViolatorCert) else _verify_assignment
    return check(fact)


def _verify_assignment(cert: TransportCert) -> VerifyOutcome:
    group = cert.window.group
    points = materialize(cert.set_a, cert.window)
    # The slice lists each point once, so equal sizes and equal sets also
    # rule out a point assigned twice.
    copies, capacity, assignment = cert.copies, cert.capacity, cert.assignment
    if len(assignment) != len(points) or {x for x, _ in assignment} != set(points):
        return VerifyOutcome.failed(
            "assignment domain differs from the set's window slice"
        )
    declared = set(cert.translators)
    arrivals: dict = {}
    in_b = predicate(cert.set_b, cert.window)
    for x, used in assignment:
        if len(used) != copies:
            return VerifyOutcome.failed(
                f"{group.show(x)} sends {len(used)} copies, expected {copies}"
            )
        for s in used:
            if s not in declared:
                return VerifyOutcome.failed(
                    f"translator {group.show(s)} for {group.show(x)} is not declared"
                )
            img = group._mul(s, x)  # both parsed or window points, hence checked
            if not in_b(img):
                return VerifyOutcome.failed(
                    f"image {group.show(img)} of {group.show(x)} leaves the target set"
                )
            count = arrivals.get(img, 0) + 1
            if count > capacity:
                return VerifyOutcome.failed(
                    f"target {group.show(img)} (from {group.show(x)}) "
                    f"exceeds capacity {capacity}"
                )
            arrivals[img] = count
    return VerifyOutcome.passed()


def _verify_violator(cert: ViolatorCert) -> VerifyOutcome:
    group = cert.window.group
    point_set = set(materialize(cert.set_a, cert.window))
    violator, translators = cert.violator, cert.translators
    if not violator:
        return VerifyOutcome.failed("empty violator certifies nothing")
    if len(set(violator)) != len(violator):
        return VerifyOutcome.failed("violator lists a point twice")
    for x in violator:
        if x not in point_set:
            return VerifyOutcome.failed(
                f"violator point {group.show(x)} is outside the window slice"
            )
    if len(violator) * len(translators) > PRODUCT_CAP:
        return VerifyOutcome.failed(
            f"{len(violator)} violator points times {len(translators)} translators "
            f"make more than the cap of {PRODUCT_CAP} products"
        )
    in_b = predicate(cert.set_b, cert.window)
    targets = set()
    for x in violator:
        for s in translators:
            img = group._mul(s, x)  # both parsed or window points, hence checked
            if in_b(img):
                targets.add(img)
    if not cert.copies * len(violator) > cert.capacity * len(targets):
        return VerifyOutcome.failed(
            f"m|D| = {cert.copies * len(violator)} does not exceed "
            f"n|targets| = {cert.capacity * len(targets)}"
        )
    return VerifyOutcome.passed()


def _verify_witness(cert: dict, window) -> VerifyOutcome:
    from .witness import witness_check

    return _outcome(witness_check(witness_from_cert(cert, window.group), window))


def _verify_cp_witness(cert: dict, window) -> VerifyOutcome:
    from .crossed import verify_pi_witness

    return _outcome(verify_pi_witness(pi_witness_from_cert(cert, window.group), window))


def _outcome(report) -> VerifyOutcome:
    """Name the first failed check of a window report."""
    if not report.passed:
        name, msg = report.failures()[0]
        return VerifyOutcome.failed(f"{name}: {msg}")
    return VerifyOutcome.passed()


_CHECKERS = {
    "match": _verify_transport,
    "deficiency": _verify_transport,
    "witness": _verify_witness,
    "flow": _verify_transport,
    "flow-deficiency": _verify_transport,
    "cp-witness": _verify_cp_witness,
}
