"""Hostile certificates: every one-key edit of a valid certificate, resealed
so that only replay can reject it, ends in exit 0, 1 or 3 with at most one
line on stderr, and only the drop of an envelope field that no fact reads
still verifies."""

import json

from paradox import cli
from paradox.certificates import content_digest
from helpers import one_key_edits

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
