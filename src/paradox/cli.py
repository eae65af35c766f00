"""Command-line front end.

Exit codes: 0 when the requested object was found (or a verification passed),
2 when the dual certificate was produced instead (deficiency), 1 on usage or
configuration errors, 3 when a verification fails semantically.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

# Each command imports the modules it runs, so that `verify` loads no solver.
from .groups import ball, group_from_string
from .sets import parse_setexpr

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DUAL = 2
EXIT_SEMANTIC = 3


class _CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 1 for usage problems
        raise _CliError(message)


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="output path for the produced JSON")
    sub.add_argument("--quiet", action="store_true", help="suppress stdout reporting")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _emit(args, fields: dict) -> None:
    """Seal a certificate's fields, then write it to --out or print it."""
    from . import certificates as certs

    text = certs.seal(fields)
    if args.out:
        certs.write_text(text, args.out)
        _say(args, f"wrote {args.out}")
    elif not args.quiet:
        print(text)


def _report(args, payload: dict) -> None:
    """Write a JSON report to --out (no trailing newline) and echo it."""
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    _say(args, text)


@contextlib.contextmanager
def _parsing(what: str):
    """Report input that lacks the expected fields or shapes as a usage error."""
    try:
        yield
    except (KeyError, TypeError, AttributeError) as exc:
        raise _CliError(f"{what} does not parse: {exc}") from exc


def _parse_translators(group, text: str):
    text = text.strip()
    if text.startswith("ball:"):
        return group.ball_elements(int(text[len("ball:"):]))
    from .groups import _split_top

    return [group.parse(part) for part in _split_top(text, ",") if part.strip()]


def build_parser() -> _Parser:
    parser = _Parser(prog="paradox")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", parents=[], help="decide window doubling")
    p.add_argument("--group", required=True)
    p.add_argument("--set", required=True, dest="set_expr")
    p.add_argument("--translators", required=True,
                   help="comma-joined elements or ball:r")
    p.add_argument("--window", required=True, type=int, help="ball window radius")
    p.add_argument("--witness-out",
                   help="also write the derived witness certificate here")
    _common(p)

    p = subs.add_parser("verify", help="re-check a certificate with no solver")
    p.add_argument("path")
    p.add_argument("--quiet", action="store_true")

    p = subs.add_parser("embed-f2", help="build and test the free-group embedding")
    p.add_argument("--from-cert", required=True, dest="from_cert",
                   help="match or witness certificate")
    p.add_argument("--depth", type=int, default=6)
    _common(p)

    p = subs.add_parser("small-set", help="greedy small set and pair intersections")
    p.add_argument("--group", required=True)
    p.add_argument("--count", required=True, type=int)
    p.add_argument("--check-radius", type=int, default=5)
    _common(p)

    p = subs.add_parser("cp-witness", help="crossed-product witness identities")
    p.add_argument("--from-cert", required=True, dest="from_cert",
                   help="match or witness certificate")
    _common(p)

    p = subs.add_parser("type-order", help="decide m[A] <= n[B] on a window")
    p.add_argument("--group", required=True)
    p.add_argument("--m", required=True, type=int, dest="copies")
    p.add_argument("--set-a", required=True)
    p.add_argument("--n", required=True, type=int, dest="capacity")
    p.add_argument("--set-b", required=True)
    p.add_argument("--translators", required=True)
    p.add_argument("--window", required=True, type=int)
    _common(p)

    p = subs.add_parser("induce", help="transport a token witness to the ambient group")
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", required=True,
                   help="cyclic:<word>, coords:<i,j,...>, or akernel")
    p.add_argument("--input", required=True, help="token witness JSON")
    p.add_argument("--t", required=True, dest="anchor", help="fibre element")
    _common(p)

    return parser


def cmd_check(args) -> int:
    from . import certificates as certs
    from .engine import TransportCert, doubling_matching, witness_from_matching

    group = group_from_string(args.group)
    expr = parse_setexpr(args.set_expr, group)
    translators = _parse_translators(group, args.translators)
    window = ball(group, args.window)
    result = doubling_matching(expr, translators, window)
    if isinstance(result, TransportCert):
        _emit(args, certs.transport_fields("match", result))
        if args.witness_out:
            w = witness_from_matching(result)
            certs.write_text(
                certs.seal(certs.witness_fields(w, window)), args.witness_out
            )
            _say(args, f"wrote {args.witness_out}")
        _say(args, f"match: doubled {len(result.assignment)} window points")
        return EXIT_OK
    _emit(args, certs.transport_fields("deficiency", result))
    _say(args, f"deficiency: violator of size {len(result.violator)}")
    return EXIT_DUAL


def cmd_verify(args) -> int:
    from . import certificates as certs
    from .verifier import verify_certificate

    try:
        cert = certs.load_certificate(args.path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read certificate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except certs.CertificateTooLarge as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    outcome = verify_certificate(cert)
    if outcome.ok:
        if not args.quiet:
            print("certificate verifies")
        return EXIT_OK
    print(f"verification failed: {outcome.message}", file=sys.stderr)
    return EXIT_SEMANTIC


def _witness_from_any_cert(path: str):
    """The witness a match or witness certificate gives, with the window it
    was checked in, and whether it has passed `witness_check` there already."""
    from . import certificates as certs
    from .engine import symbolic_witness_from_matching, witness_from_matching
    from .verifier import read_envelope
    from .witness import witness_check

    data = certs.load_certificate(path)
    kind, window = read_envelope(data)
    if kind not in ("match", "witness"):
        raise _CliError(f"need a match or witness certificate, got {kind}")
    with _parsing("certificate payload"):
        if kind == "witness":
            return certs.witness_from_cert(data, window.group), window, False
        match = certs.transport_from_cert(data, window)
    lifted = symbolic_witness_from_matching(match)
    if lifted is not None and witness_check(lifted, window).passed:
        return lifted, window, True
    return witness_from_matching(match), window, False


def cmd_embed_f2(args) -> int:
    from .embedding import (
        build_embedding,
        check_injective_lipschitz,
        embedding_from_checked,
    )

    witness, window, checked = _witness_from_any_cert(args.from_cert)
    group = window.group
    build = embedding_from_checked if checked else build_embedding
    embedding = build(witness, window)
    report = check_injective_lipschitz(embedding, args.depth)
    payload = {
        "injective": report.injective,
        "L": report.radius,
        "T_size": len(report.displacement_set),
        "T": [group.show(d) for d in report.displacement_set],
        "violations": [
            {"x": list(x), "y": list(y)} for x, y in report.violations
        ],
        "values": report.value_count,
    }
    _report(args, payload)
    return EXIT_OK if report.injective and not report.violations else EXIT_SEMANTIC


def cmd_small_set(args) -> int:
    from .smallsets import check_pair_intersections, greedy_small_set

    group = group_from_string(args.group)
    elems = greedy_small_set(group, args.count)
    pair = check_pair_intersections(group, elems, args.check_radius)
    payload = {
        "group": group.key,
        "count": args.count,
        "elements": [group.show(g) for g in elems],
        "maxPairIntersection": pair.maximum,
        "attainedAt": group.show(pair.attained_at),
        "checkRadius": args.check_radius,
    }
    _report(args, payload)
    return EXIT_OK


def cmd_cp_witness(args) -> int:
    from . import certificates as certs
    from .crossed import pi_witness, verify_pi_witness

    witness, window, _ = _witness_from_any_cert(args.from_cert)
    pw = pi_witness(witness, window.group)
    report = verify_pi_witness(pw, window)
    for name, ok, msg in report.checks:
        _say(args, f"{name}: {'PASS' if ok else 'FAIL ' + msg}")
    # a certificate is written only for identities that all hold
    if args.out and report.passed:
        certs.write_text(certs.seal(certs.pi_witness_fields(pw, window)), args.out)
        _say(args, f"wrote {args.out}")
    return EXIT_OK if report.passed else EXIT_SEMANTIC


def cmd_type_order(args) -> int:
    from . import certificates as certs
    from .engine import TransportCert, type_order

    group = group_from_string(args.group)
    set_a = parse_setexpr(args.set_a, group)
    set_b = parse_setexpr(args.set_b, group)
    translators = _parse_translators(group, args.translators)
    window = ball(group, args.window)
    result = type_order(args.copies, set_a, args.capacity, set_b, translators, window)
    if isinstance(result, TransportCert):
        _emit(args, certs.transport_fields("flow", result))
        _say(args, "flow: comparison holds on this window")
        return EXIT_OK
    _emit(args, certs.transport_fields("flow-deficiency", result))
    _say(args, f"flow deficiency: violator of size {len(result.violator)}")
    return EXIT_DUAL


def cmd_induce(args) -> int:
    from .certificates import json_int
    from .induced import (
        TokenWitness,
        check_induced_witness,
        induce_witness,
        subgroup_from_string,
    )

    group = group_from_string(args.group)
    sub = subgroup_from_string(group, args.subgroup)
    with open(args.input, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise _CliError("token witness is not a JSON object")
    facts = data.get("eqEFacts", {})
    with _parsing("token witness"):
        tw = TokenWitness(
            data["set"],
            tuple(data["pieces"]),
            tuple(group.parse(t) for t in data["gamma0Elems"]),
            json_int(data["split"], "split"),
        )
    if not all(isinstance(token, str) for token in (tw.whole, *tw.pieces)):
        raise _CliError("token witness pieces and set must be token strings")
    anchor = group.parse(args.anchor)
    out = induce_witness(sub, tw, anchor)
    report = check_induced_witness(sub, tw, out)
    payload = {
        "xTokens": data.get("xTokens", list(dict.fromkeys((tw.whole,) + tw.pieces))),
        "set": tw.whole,
        "pieces": list(tw.pieces),
        "gamma0Elems": [group.show(t) for t in tw.movers],
        "split": tw.split,
        "eqEFacts": facts,
        "t": group.show(anchor),
        "output": {
            "sj": [group.show(s) for s in out.translators],
            "fj": [[group.show(fib), token] for fib, token in out.pieces],
        },
        "checks": [
            {"name": name, "ok": ok, "detail": msg} for name, ok, msg in report.checks
        ],
    }
    _report(args, payload)
    return EXIT_OK if report.passed else EXIT_SEMANTIC


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "check": cmd_check,
        "verify": cmd_verify,
        "embed-f2": cmd_embed_f2,
        "small-set": cmd_small_set,
        "cp-witness": cmd_cp_witness,
        "type-order": cmd_type_order,
        "induce": cmd_induce,
    }
    # every error class of the package is a ValueError
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
