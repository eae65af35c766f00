"""Self-contained JSON certificates: deterministic serialisation, content
digests, and window descriptors.  A certificate carries everything an
independent verifier needs to replay its facts exactly; a transport fact is
written from its record and read back into the same record."""

from __future__ import annotations

import hashlib
import json
import os
from typing import TYPE_CHECKING, Any

from .groups import Group, Record, Window, ball, explicit_window
from .sets import parse_setexpr, read_rational, show_setexpr

if TYPE_CHECKING:
    # annotations only: the verifier loads the witness and crossed-product
    # modules only for certificates of those kinds
    from .crossed import CPElem, PIWitness
    from .witness import ParadoxWitness

SCHEMA = "paradox-cert/v1"
PRODUCER = "paradox 0.1.0"
_DOUBLING = ("match", "deficiency")
CERT_BYTES_CAP = 16 * 2**20


class CertificateTooLarge(ValueError):
    """A certificate file of more than CERT_BYTES_CAP bytes, refused before it
    is parsed: `check` writes 9.14 MB for free:2 window 10 with `ball:1`."""


class TransportCert(Record, fields="copies set_a capacity set_b translators window "
                    "assignment"):
    """Integral assignment sending m = copies copies of every window point
    of set_a into set_b with at most n = capacity arrivals per target: the
    assignment holds (x, its m translators)."""


class ViolatorCert(Record, fields="copies set_a capacity set_b translators window "
                   "violator"):
    """A finite D inside the window with m|D| > n|S.D intersect B|: no
    assignment can exist for this translator set."""


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _entries(cert: dict) -> dict[str, str]:
    """Each top-level entry of cert as a line group of `canonical_json(cert)`.
    A value's own text only gains the indent of its level: the encoder
    writes no raw newline inside a string."""
    return {
        key: f"  {json.dumps(key)}: "
        + canonical_json(value).replace("\n", "\n  ")
        for key, value in cert.items()
    }


def _assemble(entries: dict[str, str]) -> str:
    """`canonical_json` of a dict from its `_entries`."""
    if not entries:
        return "{}"
    return "{\n" + ",\n".join(entries[key] for key in sorted(entries)) + "\n}"


def _digest(entries: dict[str, str]) -> str:
    semantic = {k: v for k, v in entries.items() if k not in ("digest", "producer")}
    return "sha256:" + hashlib.sha256(_assemble(semantic).encode("utf-8")).hexdigest()


def window_digest(window: Window) -> str:
    payload = f"r{window.radius}\n" + "\n".join(window.texts())
    return "sha256:" + hashlib.sha256(payload.encode("utf-8")).hexdigest()


def window_descriptor(window: Window) -> dict:
    if window.kind == "ball":
        return {"radius": window.radius}
    return {
        "radius": window.radius,
        "elements": list(window.texts()),
    }


def json_int(value: Any, name: str) -> int:
    """An integer field of a certificate, which must be a JSON integer: a
    string, a float or a bool is a ValueError, not read as a number."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    return value


def json_list(value: Any, name: str) -> list:
    """A list field of a certificate, which must be a JSON array: a string
    or an object is a ValueError, not iterated."""
    if type(value) is not list:
        raise ValueError(f"{name} must be an array, got {type(value).__name__}")
    return value


def window_from_descriptor(group: Group, desc: dict) -> Window:
    radius = json_int(desc["radius"], "window radius")
    if "elements" in desc:
        texts = json_list(desc["elements"], "window elements")
        elems = tuple(map(group.parse, texts))
        return explicit_window(group, elems, radius)
    return ball(group, radius)


def content_digest(cert: dict) -> str:
    return _digest(
        _entries({k: v for k, v in cert.items() if k not in ("digest", "producer")})
    )


def seal(fields: dict) -> str:
    """Add the producer and the content digest to a certificate's fields and
    return its canonical text; each field is encoded once, for both."""
    fields["producer"] = PRODUCER
    entries = _entries(fields)
    fields["digest"] = _digest(entries)
    entries.update(_entries({"digest": fields["digest"]}))
    return _assemble(entries)


def _base(kind: str, window: Window) -> dict:
    """The envelope."""
    return {
        "schema": SCHEMA,
        "kind": kind,
        "group": window.group.key,
        "window": window_descriptor(window),
        "checkedOn": window_digest(window),
        "budgetSlack": 4,  # a schema v1 field; no reader acts on its value
    }


def transport_fields(kind: str, cert: TransportCert | ViolatorCert) -> dict:
    """The fields of a transport certificate of the given kind.  A `match` or
    a `deficiency` states a doubling, m = 2, n = 1 and B = A, by its one
    `set`, with `[x, s1, s2]` rows; a `flow` or a `flow-deficiency` states
    m, A, n and B, with `[x, [its m translators]]` rows.  ValueError when
    the kind is unknown, its outcome is not the record's, or it states a
    doubling that the record does not."""
    if (kind not in (*_DOUBLING, "flow", "flow-deficiency")
            or kind.endswith("deficiency") != isinstance(cert, ViolatorCert)
            or kind in _DOUBLING
            and (cert.copies, cert.capacity, cert.set_b) != (2, 1, cert.set_a)):
        raise ValueError(f"a {type(cert).__name__} of {cert.copies}[A] <= "
                         f"{cert.capacity}[B] is not written as {kind!r}")
    window = cert.window
    group = window.group
    out = _base(kind, window)
    if kind in _DOUBLING:
        out["set"] = show_setexpr(cert.set_a, group)
    else:
        out["copies"] = cert.copies
        out["capacity"] = cert.capacity
        out["setA"] = show_setexpr(cert.set_a, group)
        out["setB"] = show_setexpr(cert.set_b, group)
    names = {s: group.show(s) for s in cert.translators}
    out["translators"] = [names[s] for s in cert.translators]
    shown = dict(zip(window.elements, window.texts()))  # the window's own texts
    if kind.endswith("deficiency"):
        out["violator"] = [shown[x] for x in cert.violator]
    elif kind == "match":
        out["assignment"] = [
            [shown[x], names[s1], names[s2]] for x, (s1, s2) in cert.assignment
        ]
    else:
        out["assignment"] = [
            [shown[x], [names[s] for s in used]] for x, used in cert.assignment
        ]
    return out


def transport_from_cert(data: dict, window: Window) -> TransportCert | ViolatorCert:
    """The record that `transport_fields(data["kind"], record)` wrote.  Its
    texts are read with `group.parse` once the window has shown its points,
    so a window point's text reads as the window's own element.  ValueError
    when m or n is below 1, the translator set is empty, or a match row is
    not three strings or a flow row not a string and an array of strings."""
    group = window.group
    kind = data["kind"]
    if kind in _DOUBLING:
        set_a = set_b = parse_setexpr(data["set"], group)
        copies, capacity = 2, 1
    else:
        copies = json_int(data["copies"], "copies")
        capacity = json_int(data["capacity"], "capacity")
        if copies < 1 or capacity < 1:
            raise ValueError("copies and capacity must be >= 1")
        set_a = parse_setexpr(data["setA"], group)
        set_b = parse_setexpr(data["setB"], group)
    texts = json_list(data["translators"], "translators")
    if not texts:
        raise ValueError("translator set must be nonempty")
    window.texts()  # enters the window's texts in the table `group.parse` reads
    parse = group.parse
    head = (copies, set_a, capacity, set_b, tuple(map(parse, texts)), window)
    if kind.endswith("deficiency"):
        violator = json_list(data["violator"], "violator")
        return ViolatorCert(*head, tuple(map(parse, violator)))
    rows = json_list(data["assignment"], "assignment")
    if kind == "match":
        for i, row in enumerate(rows):
            if (type(row) is not list or len(row) != 3
                    or not type(row[0]) is type(row[1]) is type(row[2]) is str):
                raise ValueError(f"match row {i} must be an array of three strings")
        return TransportCert(*head, tuple(
            (parse(x), (parse(s1), parse(s2))) for x, s1, s2 in rows))
    for i, row in enumerate(rows):
        if (type(row) is not list or len(row) != 2 or type(row[0]) is not str
                or type(row[1]) is not list
                or not all(type(text) is str for text in row[1])):
            raise ValueError(f"flow row {i} must be a string and an array of strings")
    return TransportCert(*head, tuple(
        (parse(x), tuple(map(parse, used))) for x, used in rows))


def witness_fields(w: ParadoxWitness, window: Window) -> dict:
    group = window.group
    out = _base("witness", window)
    out["set"] = show_setexpr(w.set_expr, group)
    out["parts"] = [
        {"piece": show_setexpr(piece, group), "translator": group.show(t)}
        for piece, t in w.parts
    ]
    out["split"] = w.split
    return out


def witness_from_cert(data: dict, group: Group) -> ParadoxWitness:
    from .witness import ParadoxWitness

    parts = tuple(
        (parse_setexpr(item["piece"], group), group.parse(item["translator"]))
        for item in data["parts"]
    )
    split = json_int(data["split"], "split")
    return ParadoxWitness(parse_setexpr(data["set"], group), parts, split)


def _cp_to_json(x: CPElem) -> list:
    group = x.group
    return [
        [group.show(t), [[str(q), show_setexpr(e, group)] for q, e in coeff]]
        for t, coeff in x.terms
    ]


def cp_from_json(data: list, group: Group) -> CPElem:
    from .crossed import CPElem

    terms = []
    for t_text, coeff in data:
        parsed = tuple(
            (read_rational(q_text), parse_setexpr(e_text, group))
            for q_text, e_text in coeff
        )
        terms.append((group.parse(t_text), parsed))
    return CPElem(group, tuple(terms))


def pi_witness_fields(pw: PIWitness, window: Window) -> dict:
    group = pw.group
    out = _base("cp-witness", window)
    out["set"] = show_setexpr(pw.set_expr, group)
    out["v"] = _cp_to_json(pw.v)
    out["w"] = _cp_to_json(pw.w)
    return out


def pi_witness_from_cert(data: dict, group: Group) -> PIWitness:
    from .crossed import PIWitness

    return PIWitness(
        group,
        parse_setexpr(data["set"], group),
        cp_from_json(data["v"], group),
        cp_from_json(data["w"], group),
    )


def write_text(text: str, path: str) -> None:
    """Write a certificate's canonical text as its file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_certificate(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        if (size := os.fstat(fh.fileno()).st_size) > CERT_BYTES_CAP:
            raise CertificateTooLarge(f"{size} bytes are more than the cap of "
                                      f"{CERT_BYTES_CAP} bytes for a certificate")
        return json.load(fh)
