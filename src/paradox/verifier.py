"""Independent certificate verifier: pure replay of the recorded facts using
only the data model and group arithmetic.  No matching or flow solver is
imported here, so a verifier pass is evidence independent of the producer.
The witness and crossed-product checkers are imported by the checkers of
those kinds alone, so a transport certificate's replay loads neither."""

from __future__ import annotations

from .certificates import (
    SCHEMA,
    assignment_rows,
    content_digest,
    json_int,
    json_list,
    pi_witness_from_cert,
    point_reader,
    transport_sets,
    window_digest,
    window_from_descriptor,
    witness_from_cert,
)
from .groups import PRODUCT_CAP, Record, Window, group_from_string
from .sets import BudgetError, SetContext, materialize, predicate


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
    be an integer, is malformed."""
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
    ctx = SetContext(window.group)
    try:
        outcome = _CHECKERS[kind](cert, window, ctx)
    except BudgetError as exc:
        return VerifyOutcome.failed(str(exc))
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        return VerifyOutcome.failed(f"payload does not parse or replay: {exc}")
    if not outcome.ok:
        return outcome
    if content_digest(cert) != cert.get("digest"):
        return VerifyOutcome.failed("content digest mismatch")
    return outcome


def _verify_assignment(cert: dict, window, ctx) -> VerifyOutcome:
    group = window.group
    copies, set_a, capacity, set_b = transport_sets(cert, group)
    points = materialize(set_a, window, ctx)
    # Each declared text is parsed once; a row's text is looked up here first
    # and parsed only when it is spelled differently.
    declared = {
        t: group.parse(t) for t in json_list(cert["translators"], "translators")
    }
    translators = set(declared.values())
    # Translators stay text until their row is replayed, and a point is the
    # window's own element, so the rows parse no element of a canonical
    # certificate and hold no copy of one.
    point = point_reader(window)
    assignment = [(point(x), used) for x, used in assignment_rows(cert)]
    # The slice lists each point once, so equal sizes and equal sets also
    # rule out a point assigned twice.
    if len(assignment) != len(points) or {x for x, _ in assignment} != set(points):
        return VerifyOutcome.failed(
            "assignment domain differs from the set's window slice"
        )
    arrivals: dict = {}
    in_b = predicate(set_b, ctx)
    for x, used in assignment:
        if len(used) != copies:
            return VerifyOutcome.failed(
                f"{group.show(x)} sends {len(used)} copies, expected {copies}"
            )
        for text in used:
            s = declared.get(text)
            if s is None:
                s = group.parse(text)
            if s not in translators:
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


def _verify_violator(cert: dict, window, ctx) -> VerifyOutcome:
    group = window.group
    copies, set_a, capacity, set_b = transport_sets(cert, group)
    point_set = set(materialize(set_a, window, ctx))
    point = point_reader(window)
    violator = [point(x) for x in json_list(cert["violator"], "violator")]
    if not violator:
        return VerifyOutcome.failed("empty violator certifies nothing")
    if len(set(violator)) != len(violator):
        return VerifyOutcome.failed("violator lists a point twice")
    for x in violator:
        if x not in point_set:
            return VerifyOutcome.failed(
                f"violator point {group.show(x)} is outside the window slice"
            )
    translators = [
        group.parse(t) for t in json_list(cert["translators"], "translators")
    ]
    if len(violator) * len(translators) > PRODUCT_CAP:
        return VerifyOutcome.failed(
            f"{len(violator)} violator points times {len(translators)} translators "
            f"make more than the cap of {PRODUCT_CAP} products"
        )
    in_b = predicate(set_b, ctx)
    targets = set()
    for x in violator:
        for s in translators:
            img = group._mul(s, x)  # both parsed or window points, hence checked
            if in_b(img):
                targets.add(img)
    if not copies * len(violator) > capacity * len(targets):
        return VerifyOutcome.failed(
            f"m|D| = {copies * len(violator)} does not exceed "
            f"n|targets| = {capacity * len(targets)}"
        )
    return VerifyOutcome.passed()


def _verify_witness(cert: dict, window, ctx) -> VerifyOutcome:
    from .witness import witness_check

    return _outcome(witness_check(witness_from_cert(cert, window.group), window, ctx))


def _verify_cp_witness(cert: dict, window, ctx) -> VerifyOutcome:
    from .crossed import verify_pi_witness

    return _outcome(
        verify_pi_witness(pi_witness_from_cert(cert, window.group), window, ctx)
    )


def _outcome(report) -> VerifyOutcome:
    """Name the first failed check of a window report."""
    if not report.passed:
        name, msg = report.failures()[0]
        return VerifyOutcome.failed(f"{name}: {msg}")
    return VerifyOutcome.passed()


_CHECKERS = {
    "match": _verify_assignment,
    "deficiency": _verify_violator,
    "witness": _verify_witness,
    "flow": _verify_assignment,
    "flow-deficiency": _verify_violator,
    "cp-witness": _verify_cp_witness,
}
