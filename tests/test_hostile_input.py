"""Hostile certificates: every one-key edit of a valid certificate, and every
edit below its top level, resealed so that only replay can reject it, ends
in exit 0, 1 or 3 with at most one line on stderr, and only the edits that
still state a true fact verify.  An input text of any length is quoted in
that line by at most 60 of its characters."""

import json

import pytest

from paradox import cli
from paradox.certificates import content_digest
from helpers import nested_edits, one_key_edits

# neither is covered by a check that replays a fact, and every writer writes
# both, so a certificate without one of them states the same facts
DROPS_THAT_VERIFY = ("drop producer", "drop budgetSlack")


def test_every_edit_ends_in_one_line(cert_pool, tmp_path, capsys):
    path = tmp_path / "edited.json"
    outcomes = {}
    for cert_name, cert in cert_pool.items():
        for label, edited in one_key_edits(cert):
            edited["digest"] = content_digest(edited)
            path.write_text(json.dumps(edited))
            try:
                code = cli.main(["verify", str(path), "--quiet"])
            except Exception as exc:  # any escape is the finding
                code = f"raised {type(exc).__name__}: {exc}"
            outcomes[cert_name, label] = code, capsys.readouterr().err.splitlines()

    assert len(outcomes) > 500
    odd_exit = {edit: code for edit, (code, _) in outcomes.items() if code not in (0, 1, 3)}
    assert not odd_exit
    long_stderr = {edit: lines for edit, (_, lines) in outcomes.items() if len(lines) > 1}
    assert not long_stderr
    verified = {edit for edit, (code, _) in outcomes.items() if code == 0}
    assert verified == {(name, label) for name in cert_pool for label in DROPS_THAT_VERIFY}


def _verify_each(cert_pool, edits, path, capsys):
    """(certificate name, edit label) -> (exit code or escaped exception,
    stderr lines) of `verify` on each edit, resealed."""
    outcomes = {}
    for cert_name, cert in cert_pool.items():
        for label, edited in edits(cert):
            edited["digest"] = content_digest(edited)
            path.write_text(json.dumps(edited))
            try:
                code = cli.main(["verify", str(path), "--quiet"])
            except Exception as exc:  # any escape is the finding
                code = f"raised {type(exc).__name__}: {exc}"
            outcomes[cert_name, label] = code, capsys.readouterr().err.splitlines()
    return outcomes


# Each still states a true fact, so each verifies.
NESTED_EDITS_THAT_VERIFY = {
    # fewer translators reach fewer targets, so the violator still violates
    ("deficiency", "drop translators[0]"),
    ("deficiency", "drop translators[2]"),
    ("flow-deficiency", "drop translators[0]"),
    ("flow-deficiency", "drop translators[2]"),
    # a subset of a violator of the whole window slice still violates
    ("deficiency", "drop violator[0]"),
    ("deficiency", "drop violator[6]"),
    ("flow-deficiency", "drop violator[0]"),
    ("flow-deficiency", "drop violator[6]"),
    # no assignment row uses the last declared translator
    ("match-free", "drop translators[4]"),
    # a smaller target set B reaches fewer targets
    ("flow-deficiency", "setB as semigroup((1))"),
}


def test_every_nested_edit_ends_in_one_line(cert_pool, tmp_path, capsys):
    outcomes = _verify_each(cert_pool, nested_edits, tmp_path / "edited.json", capsys)

    assert len(outcomes) == 549
    odd_exit = {edit: code for edit, (code, _) in outcomes.items() if code not in (0, 1, 3)}
    assert not odd_exit
    long_stderr = {edit: lines for edit, (_, lines) in outcomes.items() if len(lines) > 1}
    assert not long_stderr
    verified = {edit for edit, (code, _) in outcomes.items() if code == 0}
    assert verified == NESTED_EDITS_THAT_VERIFY


def _check(group, set_text, translators):
    return ["check", "--group", group, "--set", set_text, "--translators", translators,
            "--window", "1", "--quiet"]


@pytest.mark.parametrize("argv", [
    _check("zn:1", "all", "(" + "1" * 5000 + ")"),
    _check("zn:2", "all", "(" + ",".join(["1"] * 3000) + ")"),
    _check("free:2", "all" + " x" * 3000, "a"),
    _check("free:2", "all", "x" * 5000),
    _check("bs12", "all", "(1," + "1" * 5000 + ")"),
    _check("bs12", "slab(0,1." + "1" * 5000 + ",0)", "(2,0)"),
    _check("bs12", "slab(" + "1," * 3000 + ")", "(2,0)"),
], ids=["zn1-digits", "zn2-coordinates", "trailing-set", "free-generator",
        "bs12-digits", "rational", "slab"])
def test_a_long_input_text_is_quoted_short(argv, capsys):
    """An error quotes at most 60 characters of an input text and its length:
    each of these echoed all 5,000-6,000 characters on its one line."""
    assert cli.main(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "… (" in line and len(line.encode()) < 200


def test_a_long_translator_is_quoted_short_by_verify(tmp_path, capsys):
    """A resealed deficiency whose translator has a 5,000-digit coordinate
    fails `verify` with one short line."""
    path = tmp_path / "deficiency.json"
    assert cli.main(["check", "--group", "zn:2", "--set", "all", "--translators",
                     "(1,0),(0,1)", "--window", "2", "--out", str(path),
                     "--quiet"]) == 2
    cert = json.loads(path.read_text())
    cert["translators"][0] = "(" + "1" * 5000 + ",0)"
    cert["digest"] = content_digest(cert)
    path.write_text(json.dumps(cert))
    assert cli.main(["verify", str(path), "--quiet"]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("verification failed: ") and len(line.encode()) < 200
