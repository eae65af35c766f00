import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import paradox
from paradox import witness
from paradox.certificates import load_certificate
from paradox.groups import BALL_SIZE_CAP
from paradox.cli import main
from helpers import _redigest, balanced_union, run_cli_limited

EX28_ARGS = [
    "check",
    "--group", "bs12",
    "--set", "semigroup((2,0),(2,1);e)",
    "--translators", "(2,0),(2,1)",
    "--window", "4",
]


def run(argv):
    return main(argv)


class TestCheck:
    def test_free_semigroup_pipeline(self, tmp_path, capsys):
        out = tmp_path / "match.json"
        assert run(EX28_ARGS + ["--out", str(out), "--quiet"]) == 0
        cert = load_certificate(str(out))
        assert cert["kind"] == "match"
        assert run(["verify", str(out), "--quiet"]) == 0

    def test_lattice_deficiency(self, tmp_path):
        out = tmp_path / "def.json"
        code = run(
            ["check", "--group", "zn:1", "--set", "all", "--translators",
             "ball:1", "--window", "3", "--out", str(out), "--quiet"]
        )
        assert code == 2
        assert load_certificate(str(out))["kind"] == "deficiency"
        assert run(["verify", str(out), "--quiet"]) == 0

    def test_deep_affine_translator(self, tmp_path):
        # the image (2^1500,0) = s^1500 is decided however deep its word
        out = tmp_path / "match.json"
        code = run(
            ["check", "--group", "bs12", "--set", "semigroup((2,0),(2,1);e)",
             "--translators", f"(2,0),({2 ** 1500},0)", "--window", "0",
             "--out", str(out), "--quiet"]
        )
        assert code == 0
        assert run(["verify", str(out), "--quiet"]) == 0

    def test_far_lattice_translator_is_sorted_in_linear_space(self):
        # the sort key of (1000000000) once spelled its word letter by letter
        started = time.perf_counter()
        assert run(["check", "--group", "zn:1", "--set", "all", "--translators",
                    "(1000000000),(1)", "--window", "1", "--quiet"]) == 0
        assert time.perf_counter() - started < 2.0

    def test_many_generator_semigroup_stays_under_the_cap(self):
        # the 36 reduced three-letter words: every window point and image
        # turns up within three layers, and growth stops there rather than
        # running on to a fixed length of about 36^5 words
        letters = ["a", "a^-1", "b", "b^-1"]
        words = [" ".join((x, y, z)) for x in letters for y in letters
                 for z in letters
                 if letters.index(y) ^ 1 != letters.index(x)
                 and letters.index(z) ^ 1 != letters.index(y)]
        assert len(words) == 36
        started = time.perf_counter()
        assert run(["check", "--group", "free:2", "--set",
                    f"semigroup({','.join(words)})", "--translators", "a,b",
                    "--window", "1", "--quiet"]) == 2
        assert time.perf_counter() - started < 5.0

    def test_malformed_set_expression(self, capsys):
        assert run(
            ["check", "--group", "zn:1", "--set", "frob((", "--translators",
             "ball:1", "--window", "2"]
        ) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_arguments(self, capsys):
        assert run(["check", "--group", "zn:1"]) == 1

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(EX28_ARGS + ["--out", str(a), "--quiet"])
        run(EX28_ARGS + ["--out", str(b), "--quiet"])
        assert a.read_bytes() == b.read_bytes()

    def test_witness_out(self, tmp_path):
        out = tmp_path / "match.json"
        wout = tmp_path / "witness.json"
        run(EX28_ARGS + ["--out", str(out), "--witness-out", str(wout), "--quiet"])
        assert load_certificate(str(wout))["kind"] == "witness"
        assert run(["verify", str(wout), "--quiet"]) == 0


class TestVerify:
    def test_tampered_assignment_rejected(self, tmp_path):
        out = tmp_path / "match.json"
        run(EX28_ARGS + ["--out", str(out), "--quiet"])
        cert = load_certificate(str(out))
        cert["assignment"][0][1] = cert["assignment"][0][2]
        from paradox.certificates import seal, write_text

        write_text(seal(cert), str(out))
        assert run(["verify", str(out), "--quiet"]) == 3

    def test_long_translator_word_fails_fast(self, tmp_path, capsys):
        from paradox.certificates import seal, write_text

        out = tmp_path / "match.json"
        assert run(
            ["check", "--group", "free:2", "--set", "all", "--translators",
             "ball:1", "--window", "2", "--out", str(out), "--quiet"]
        ) == 0
        cert = load_certificate(str(out))
        cert["translators"][0] = "a " * 200_000
        write_text(seal(cert), str(out))
        capsys.readouterr()
        started = time.perf_counter()
        assert run(["verify", str(out), "--quiet"]) == 3
        assert time.perf_counter() - started < 5.0
        err = capsys.readouterr().err
        assert err.startswith("verification failed: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, verdict",
        [("a a^-1 {}", ""), ("a a", "translator a a for e is not declared\n")],
        ids=["declared", "undeclared"],
    )
    def test_row_translators_spelled_differently(self, tmp_path, capsys, text,
                                                 verdict):
        # a text that is not a declared one is parsed, then checked
        from paradox.certificates import seal, write_text

        out = tmp_path / "match.json"
        assert run(
            ["check", "--group", "free:2", "--set", "all", "--translators",
             "ball:1", "--window", "2", "--out", str(out), "--quiet"]
        ) == 0
        cert = load_certificate(str(out))
        row = cert["assignment"][0]
        assert row[0] == "e"
        row[1] = text.format(row[1])
        write_text(seal(cert), str(out))
        capsys.readouterr()
        assert run(["verify", str(out), "--quiet"]) == (3 if verdict else 0)
        assert capsys.readouterr().err == (
            "verification failed: " + verdict if verdict else ""
        )

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert run(["verify", str(path), "--quiet"]) == 1

    def test_missing_file(self, tmp_path):
        assert run(["verify", str(tmp_path / "absent.json"), "--quiet"]) == 1

    @pytest.mark.parametrize("payload", ["[]", '"x"', "null"])
    def test_json_that_is_not_an_object(self, tmp_path, capsys, payload):
        path = tmp_path / "cert.json"
        path.write_text(payload)
        assert run(["verify", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == "error: certificate is not a JSON object\n"

    @pytest.fixture(scope="class")
    def integer_field_certs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("int-fields")
        assert run(
            ["check", "--group", "zn:1", "--set", "all", "--translators",
             "ball:1", "--window", "3", "--out", str(root / "deficiency.json"),
             "--quiet"]
        ) == 2
        assert run(
            ["type-order", "--group", "zn:1", "--m", "2", "--set-a", "all",
             "--n", "1", "--set-b", "all", "--translators", "ball:1",
             "--window", "3", "--out", str(root / "flow.json"), "--quiet"]
        ) == 2
        assert run(EX28_ARGS + ["--out", str(root / "match.json"), "--witness-out",
                                str(root / "witness.json"), "--quiet"]) == 0
        return root

    @pytest.mark.parametrize("spell", [str, float, bool], ids=["string", "float", "bool"])
    @pytest.mark.parametrize("field, base, code, prefix", [
        ("radius", "deficiency.json", 1, "error: malformed certificate envelope: "),
        ("budgetSlack", "deficiency.json", 1,
         "error: malformed certificate envelope: "),
        ("copies", "flow.json", 3,
         "verification failed: payload does not parse or replay: "),
        ("capacity", "flow.json", 3,
         "verification failed: payload does not parse or replay: "),
        ("split", "witness.json", 3,
         "verification failed: payload does not parse or replay: "),
    ], ids=["radius", "budgetSlack", "copies", "capacity", "split"])
    def test_integer_field_must_be_a_json_integer(
        self, integer_field_certs, tmp_path, capsys, field, base, code, prefix, spell
    ):
        # the recorded value respelled: `int()` would read it back unchanged,
        # or as 1 from `true`
        from paradox.certificates import seal, write_text

        cert = load_certificate(str(integer_field_certs / base))
        holder = cert["window"] if field == "radius" else cert
        value = holder[field] = spell(holder[field])
        path = tmp_path / "edited.json"
        write_text(seal(cert), str(path))
        capsys.readouterr()
        assert run(["verify", str(path), "--quiet"]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert f"must be an integer, got {type(value).__name__}" in err

    def test_window_elements_must_be_a_json_array(self, tmp_path, capsys):
        # "eab" iterated letter by letter reads as the window e, a, b again
        from paradox.certificates import seal, transport_fields, write_text
        from paradox.engine import doubling_matching
        from paradox.groups import explicit_window, group_from_string
        from paradox.sets import AllSet

        f2 = group_from_string("free:2")
        window = explicit_window(f2, [f2.parse(t) for t in ("e", "a", "b")], 1)
        result = doubling_matching(AllSet(), [f2.parse("a")], window)
        base = tmp_path / "deficiency.json"
        write_text(seal(transport_fields("deficiency", result)), str(base))
        assert run(["verify", str(base), "--quiet"]) == 0
        path = _edited(base, lambda c: c["window"].update(elements="eab"),
                       tmp_path / "edited.json")
        capsys.readouterr()
        assert run(["verify", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "error: malformed certificate envelope: window elements must be an "
            "array, got str\n"
        )

    def test_targets_outside_the_window_count(self, tmp_path, capsys):
        # the violator {(2)} reaches (2) and (4); (4) lies outside the window,
        # and without it the inequality 2 > 1 would hold
        base = tmp_path / "deficiency.json"
        assert run(["check", "--group", "zn:1", "--set", "all", "--translators",
                    "(0),(2)", "--window", "2", "--out", str(base), "--quiet"]) == 2
        path = _edited(base, lambda c: c.update(violator=["(2)"]),
                       tmp_path / "edited.json")
        capsys.readouterr()
        assert run(["verify", str(path), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "verification failed: m|D| = 2 does not exceed n|targets| = 2\n"
        )


def _edited(base, edit, path):
    """A copy of the certificate at base, changed by edit, with its content
    digest recomputed so that only the replay can reject it."""
    from paradox.certificates import seal, write_text

    cert = load_certificate(str(base))
    edit(cert)
    write_text(seal(cert), str(path))
    return path


class TestTargetSet:
    """Replay checks each image, and each piece, against the recorded set.
    Removing a a a, which lies outside the window, from the set leaves its
    window slice as it was, so only that check can reject the edit."""

    @pytest.fixture(scope="class")
    def certs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("target")
        assert run(["check", "--group", "free:2", "--set", "all", "--translators",
                    "ball:1", "--window", "2", "--out", str(root / "match.json"),
                    "--witness-out", str(root / "witness.json"), "--quiet"]) == 0
        return root

    def test_image_leaves_the_target_set(self, certs, tmp_path, capsys):
        path = _edited(certs / "match.json",
                       lambda c: c.update(set=r"all\finite{a a a}"),
                       tmp_path / "edited.json")
        capsys.readouterr()
        assert run(["verify", str(path), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "verification failed: image a a a of a a leaves the target set\n"
        )

    @pytest.mark.parametrize("piece", [
        "finite{a a,a a a,a a b,a a b^-1,a b a}",
        # the same points, as a translate of a finite set
        "a*finite{a,a a,a b,a b^-1,b a}",
    ], ids=["finite", "translated-finite"])
    def test_witness_piece_leaves_the_set(self, certs, tmp_path, capsys, piece):
        def respell(cert):
            assert cert["parts"][1]["piece"] == (
                "finite{a a,a a a,a a b,a a b^-1,a b a}"
            )
            cert["parts"][1]["piece"] = piece

        def respell_and_shrink(cert):
            respell(cert)
            cert["set"] = r"all\finite{a a a}"

        path = _edited(certs / "witness.json", respell, tmp_path / "spelled.json")
        assert run(["verify", str(path), "--quiet"]) == 0
        path = _edited(certs / "witness.json", respell_and_shrink,
                       tmp_path / "edited.json")
        capsys.readouterr()
        assert run(["verify", str(path), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "verification failed: pieces-inside-set: piece 1 contains a a a "
            "outside the set\n"
        )


class TestReplayPoints:
    """`verify` takes a point text as the window's own point when the window
    shows it that way, parses any other spelling, and compares the
    assignment's domain with the window slice as a set."""

    @pytest.fixture(scope="class")
    def certs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("replay")
        translators = {"free2": "ball:1", "zn1": "(0),(10)"}
        for name, group in (("free2", "free:2"), ("zn1", "zn:1")):
            assert run(
                ["check", "--group", group, "--set", "all", "--translators",
                 translators[name], "--window", "3",
                 "--out", str(root / f"{name}.json"), "--quiet"]
            ) == 0
        return root

    @pytest.mark.parametrize("name, canonical, spelling", [
        ("free2", "b", "b a a^-1"), ("zn1", "(3)", "3"),
    ], ids=["free2", "zn1"])
    def test_non_canonical_point_verifies(self, certs, tmp_path, capsys, name,
                                          canonical, spelling):
        def respell(cert):
            (row,) = [row for row in cert["assignment"] if row[0] == canonical]
            row[0] = spelling

        path = _edited(certs / f"{name}.json", respell, tmp_path / "spelled.json")
        capsys.readouterr()
        assert run(["verify", str(path), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_identity_is_the_window_point(self):
        # the free-group identity is the empty word, which is falsy; declared
        # as a translator too, its text still reads as the window's point
        from paradox.groups import ball, group_from_string
        from paradox.certificates import transport_from_cert

        for spec in ("free:2", "zn:1", "bs12"):
            group = group_from_string(spec)
            window = ball(group, 2)
            identity = group.show(group.identity())
            fact = transport_from_cert(
                {"kind": "deficiency", "set": "all", "translators": [identity],
                 "violator": [identity, "e"]}, window)
            assert fact.violator[0] is window.elements[0]
            assert fact.violator[1] == group.identity()

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[1].__setitem__(0, rows[0][0]),
        lambda rows: rows.append(list(rows[0])),
        lambda rows: rows[0].__setitem__(0, "a a a a"),
    ], ids=["twice-and-dropped", "twice", "outside-window"])
    def test_domain_differs(self, certs, tmp_path, capsys, edit):
        path = _edited(certs / "free2.json", lambda c: edit(c["assignment"]),
                       tmp_path / "domain.json")
        capsys.readouterr()
        assert run(["verify", str(path), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "verification failed: assignment domain differs from the set's "
            "window slice\n"
        )


class TestPayloadShape:
    """The lists of a transport certificate are read as the JSON arrays and
    strings they must be; a string is not iterated as a list of letters."""

    @pytest.fixture(scope="class")
    def certs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("shapes")
        assert run(
            ["check", "--group", "free:2", "--set", "all", "--translators",
             "ball:1", "--window", "4", "--out", str(root / "match.json"),
             "--quiet"]
        ) == 0
        assert run(
            ["type-order", "--group", "free:2", "--m", "2", "--set-a", "all",
             "--n", "1", "--set-b", "all", "--translators", "ball:1",
             "--window", "3", "--out", str(root / "flow.json"), "--quiet"]
        ) == 0
        assert run(
            ["check", "--group", "zn:1", "--set", "all", "--translators",
             "ball:1", "--window", "3", "--out", str(root / "deficiency.json"),
             "--quiet"]
        ) == 2
        return root

    @staticmethod
    def _join_first_row(cert):
        assert cert["assignment"][0] == ["e", "e", "a"]
        cert["assignment"][0] = "eea"

    @staticmethod
    def _join_first_translators(cert):
        assert cert["assignment"][0] == ["e", ["e", "a"]]
        cert["assignment"][0][1] = "ea"

    @pytest.mark.parametrize("argv, code, prefix", [
        (["verify"], 3, "verification failed: payload does not parse or replay: "),
        (["embed-f2", "--depth", "2", "--from-cert"], 1, "error: "),
        (["cp-witness", "--from-cert"], 1, "error: "),
    ], ids=["verify", "embed-f2", "cp-witness"])
    def test_match_rows_read_alike(self, certs, tmp_path, capsys, argv, code,
                                   prefix):
        # an object iterated as a row would give its keys, a, b and e
        path = _edited(
            certs / "match.json",
            lambda c: c["assignment"].__setitem__(3, {"a": 0, "b": 0, "e": 0}),
            tmp_path / "object-row.json",
        )
        capsys.readouterr()
        assert run(argv + [str(path)]) == code
        assert capsys.readouterr() == (
            "", prefix + "match row 3 must be an array of three strings\n"
        )

    @pytest.mark.parametrize("base, edit, message", [
        ("match.json", _join_first_row,
         "match row 0 must be an array of three strings"),
        ("flow.json", _join_first_translators,
         "flow row 0 must be a string and an array of strings"),
        ("match.json", lambda c: c["assignment"][2].pop(),
         "match row 2 must be an array of three strings"),
        ("flow.json", lambda c: c["assignment"][1][1].__setitem__(0, 5),
         "flow row 1 must be a string and an array of strings"),
        ("match.json", lambda c: c.update(translators="e"),
         "translators must be an array, got str"),
        ("flow.json", lambda c: c.update(assignment={}),
         "assignment must be an array, got dict"),
        ("deficiency.json", lambda c: c.update(violator="".join(c["violator"])),
         "violator must be an array, got str"),
    ], ids=["match-row-string", "flow-translators-string", "match-row-short",
            "flow-translator-int", "translators-string", "assignment-object",
            "violator-string"])
    def test_other_shapes_fail(self, certs, tmp_path, capsys, base, edit, message):
        path = _edited(certs / base, edit, tmp_path / "shape.json")
        capsys.readouterr()
        assert run(["verify", str(path), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "verification failed: payload does not parse or replay: "
            f"{message}\n"
        )


def _edited_match(tmp_path, set_text):
    """A free:2 window-2 match certificate with its set replaced, resealed."""
    from paradox.certificates import seal, write_text

    path = tmp_path / "match.json"
    assert run(["check", "--group", "free:2", "--set", "all", "--translators",
                "ball:1", "--window", "2", "--out", str(path), "--quiet"]) == 0
    cert = load_certificate(str(path))
    cert["set"] = set_text
    write_text(seal(cert), str(path))
    return path


# The two hostile set texts: 3000 nested parentheses, and a chain of 5000
# unions.  Each used to end in a RecursionError traceback.
DEEP_SETS = {
    "parentheses": "(" * 3000 + "all" + ")" * 3000,
    "unions": "|".join(["all"] * 5000),
}


class TestNestingCap:
    """A set expression nested past `sets.MAX_DEPTH` ends in one line."""

    @pytest.mark.parametrize("text", DEEP_SETS.values(), ids=DEEP_SETS)
    def test_check_exits_1(self, capsys, text):
        assert run(["check", "--group", "zn:1", "--set", text, "--translators",
                    "ball:1", "--window", "2", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: set expression nests more than ")
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("text", DEEP_SETS.values(), ids=DEEP_SETS)
    def test_verify_exits_3(self, tmp_path, capsys, text):
        path = _edited_match(tmp_path, text)
        capsys.readouterr()
        assert run(["verify", str(path), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("verification failed: payload does not parse or "
                              "replay: set expression nests more than ")
        assert err.count("\n") == 1, err


# A balanced union of 16,000 empties, 127,997 characters: before the node cap
# `check --group free:2 --translators a,b` took 3.1 s on it at window 6 and
# 22 s at window 8, and a certificate can carry a longer one.
WIDE_SET = balanced_union(["empty"] * 16000)


class TestNodeCap:
    """A set expression past `sets.MAX_NODES` ends in one line, fast."""

    @pytest.mark.parametrize("argv", [
        ["check", "--set", WIDE_SET],
        ["type-order", "--m", "2", "--set-a", "all", "--n", "1", "--set-b", WIDE_SET],
    ], ids=["check", "type-order"])
    def test_producer_exits_1(self, capsys, argv):
        started = time.perf_counter()
        assert run(argv + ["--group", "free:2", "--translators", "a,b", "--window",
                           "8", "--quiet"]) == 1
        assert time.perf_counter() - started < 2.0
        err = capsys.readouterr().err
        assert err.startswith("error: set expression has more than 256 nodes")
        assert err.count("\n") == 1, err

    def test_verify_exits_3(self, tmp_path, capsys):
        path = _edited_match(tmp_path, WIDE_SET)
        capsys.readouterr()
        started = time.perf_counter()
        assert run(["verify", str(path), "--quiet"]) == 3
        assert time.perf_counter() - started < 2.0
        err = capsys.readouterr().err
        assert err.startswith("verification failed: payload does not parse or "
                              "replay: set expression has more than 256 nodes")
        assert err.count("\n") == 1, err


# Two short bs12 translators whose numbers are huge: the first took 13 s to
# print, the second made printing exceed CPython's integer-to-text limit.
HUGE_AFFINE = ["(1/2^1000000000,1)", "(1,1/2^20000)"]


class TestAffineSizeCap:
    """A bs12 element past `groups.AFFINE_SIZE_CAP` ends in one line, fast."""

    @pytest.mark.parametrize("text", HUGE_AFFINE)
    def test_check_exits_1(self, capsys, text):
        started = time.perf_counter()
        assert run(["check", "--group", "bs12", "--set", "all", "--translators",
                    f"{text},(2,0)", "--window", "2", "--quiet"]) == 1
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: element '{text}' is out of range")
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("text", HUGE_AFFINE)
    def test_verify_exits_3(self, tmp_path, capsys, text):
        from paradox.certificates import seal, write_text

        path = tmp_path / "match.json"
        assert run(EX28_ARGS[:-1] + ["2", "--out", str(path), "--quiet"]) == 0
        cert = load_certificate(str(path))
        cert["translators"][0] = text
        write_text(seal(cert), str(path))
        capsys.readouterr()
        started = time.perf_counter()
        assert run(["verify", str(path), "--quiet"]) == 3
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("verification failed: ") and err.count("\n") == 1, err
        assert f"element '{text}' is out of range" in err


class TestBallSizeCap:
    """A ball past `groups.BALL_SIZE_CAP` is refused: one line, fast,
    whichever command asks for it.  Each of these used to be killed at a
    timeout."""

    @pytest.fixture(scope="class")
    def f2w4(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("balls") / "f2w4.json"
        assert run(["check", "--group", "free:2", "--set", "all", "--translators",
                    "ball:1", "--window", "4", "--out", str(path), "--quiet"]) == 0
        return path

    @pytest.mark.parametrize("argv, ball", [
        (["check", "--group", "zn:9", "--set", "all", "--translators", "ball:1",
          "--window", "9"], "radius 9 in zn:9"),
        (["embed-f2", "--from-cert", "F2W4", "--depth", "40"], "radius 40 in free:2"),
        (["check", "--group", "bs12", "--set", "ball(30)", "--translators",
          "(2,0)", "--window", "1"], "radius 30 in bs12"),
        (["check", "--group", "zn:1", "--set", "all", "--translators",
          "ball:100000000", "--window", "1"], "radius 100000000 in zn:1"),
        (["small-set", "--group", "free:2", "--count", "3", "--check-radius",
          "40"], "radius 40 in free:2"),
    ], ids=["window", "embed-depth", "ball-set", "translators", "check-radius"])
    def test_command_exits_1(self, f2w4, capsys, argv, ball):
        argv = [str(f2w4) if arg == "F2W4" else arg for arg in argv]
        capsys.readouterr()
        started = time.perf_counter()
        assert run(argv + ["--quiet"]) == 1
        assert time.perf_counter() - started < 2.0
        assert capsys.readouterr().err == (
            f"error: enumerating the ball of {ball} passed its cap (120000 values, "
            "4000000 letters or bits)\n"
        )

    def test_verify_reports_an_envelope_error(self, f2w4, tmp_path, capsys):
        path = _edited(f2w4, lambda cert: cert.update(window={"radius": 40}),
                       tmp_path / "f2w40.json")
        capsys.readouterr()
        started = time.perf_counter()
        assert run(["verify", str(path), "--quiet"]) == 1
        assert time.perf_counter() - started < 2.0
        assert capsys.readouterr().err == (
            "error: malformed certificate envelope: enumerating the ball of "
            "radius 40 in free:2 passed its cap (120000 values, 4000000 letters "
            "or bits)\n"
        )


class TestEnumerationSizeCap:
    """An enumeration stops once its values' sizes add up past
    `groups.SIZE_CAP` (letters of a free word, bits of a lattice point or a
    bs12 element), however few the values: a one-generator semigroup, a
    free:1 ball and the free:1 greedy walk hold few values of growing size.
    Each of these ran to a MemoryError traceback or near 1 GB; each now runs
    in a subprocess under a 1 GB address-space limit and ends in one line."""

    @pytest.fixture(scope="class")
    def certs(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("sizes")
        match = folder / "f1w2.json"
        assert run(["check", "--group", "free:1", "--set", "all", "--translators",
                    "ball:3", "--window", "2", "--out", str(match), "--quiet"]) == 0
        deficiency = folder / "f2def.json"
        assert run(["check", "--group", "free:2", "--set", "ball(1)", "--translators",
                    "a", "--window", "1", "--out", str(deficiency), "--quiet"]) == 2
        return {
            "F1W59999": _edited(match, lambda cert: cert.update(window={"radius": 59999}),
                                folder / "f1w59999.json"),
            "F2SEMI": _edited(deficiency, lambda cert: cert.update(set="semigroup(a b)"),
                              folder / "f2semi.json"),
        }

    @pytest.mark.parametrize("argv, code", [
        (["check", "--group", "free:1", "--set", "all", "--translators", "ball:1",
          "--window", "59999"], 1),
        (["check", "--group", "free:2", "--set", "semigroup(a;e)", "--translators",
          "a,b", "--window", "1"], 1),
        (["check", "--group", "free:2", "--set", "semigroup(a b)", "--translators",
          "a,b", "--window", "1"], 1),
        (["check", "--group", "bs12", "--set", "semigroup((1/2,1))", "--translators",
          "(2,0),(1,1)", "--window", "1"], 1),
        (["verify", "F1W59999"], 1),
        (["verify", "F2SEMI"], 3),
        (["small-set", "--group", "free:1", "--count", "200"], 1),
    ], ids=["free1-window", "free2-power", "free2-word-power", "bs12-halving",
            "verify-window", "verify-set", "free1-greedy"])
    def test_ends_in_one_line(self, certs, argv, code):
        exit_code, err, seconds = run_cli_limited(
            [certs.get(arg, arg) for arg in argv] + ["--quiet"])
        assert (exit_code, err.count("\n")) == (code, 1), err
        assert "4000000 letters or bits" in err
        assert seconds < 2.0


class TestProductCap:
    """Window points times translators is capped by `groups.PRODUCT_CAP`,
    checked before the transport graph or a violator's replay starts.  At
    radius 1000 in zn:1 (2,001 × 2,001 products) `check` took 6.7 s and
    `verify` of its deficiency 4.8 s."""

    def test_check_exits_1(self, capsys):
        started = time.perf_counter()
        assert run(["check", "--group", "zn:1", "--set", "all", "--translators",
                    "ball:1000", "--window", "1000", "--quiet"]) == 1
        assert time.perf_counter() - started < 2.0
        assert capsys.readouterr().err == (
            "error: 2001 window points times 2001 translators make more than "
            "the cap of 600000 products\n"
        )

    def test_verify_of_a_resealed_deficiency_exits_3(self, tmp_path, capsys):
        from paradox.certificates import window_digest
        from paradox.groups import ball, group_from_string

        small = tmp_path / "z1w3.json"
        assert run(["check", "--group", "zn:1", "--set", "all", "--translators",
                    "ball:1", "--window", "3", "--out", str(small), "--quiet"]) == 2
        window = ball(group_from_string("zn:1"), 1000)
        points = list(window.texts())
        # a true deficiency: 4,001 targets are fewer than 2 · 2,001
        cert = load_certificate(str(small))
        cert.update(window={"radius": 1000}, checkedOn=window_digest(window),
                    translators=points, violator=points)
        path = tmp_path / "z1w1000.json"
        path.write_text(json.dumps(_redigest(cert)))
        capsys.readouterr()
        started = time.perf_counter()
        assert run(["verify", str(path), "--quiet"]) == 3
        assert time.perf_counter() - started < 2.0
        assert capsys.readouterr().err == (
            "verification failed: 2001 violator points times 2001 translators "
            "make more than the cap of 600000 products\n"
        )


class TestReplayCaps:
    """Three caps refuse a certificate before the work its size would buy:
    a witness's symbolic parts times window points (`groups.PRODUCT_CAP`),
    the coefficient entries of a cp-witness's products times window points
    (`crossed.EVALUATION_CAP`), and a certificate file's bytes
    (`certificates.CERT_BYTES_CAP`).  `verify` exits 3 and a producing
    command 1, each with one line, in under 0.5 s."""

    @pytest.fixture(scope="class")
    def certs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("replay-caps")
        for radius in (4, 7):
            assert run(["check", "--group", "free:2", "--set", "all", "--translators",
                        "ball:1", "--window", str(radius), "--witness-out",
                        str(root / f"f2w{radius}wit.json"), "--quiet"]) == 0
        assert run(["check", "--group", "free:2", "--set", "all", "--translators",
                    "ball:1", "--window", "4", "--out", str(root / "f2w4.json"),
                    "--quiet"]) == 0
        assert run(["cp-witness", "--from-cert", str(root / "f2w4.json"),
                    "--out", str(root / "cpw4.json"), "--quiet"]) == 0
        return root

    def _timed(self, argv):
        started = time.perf_counter()
        code = run(argv + ["--quiet"])
        assert time.perf_counter() - started < 0.5
        return code

    def _witness_with_symbolic_parts(self, certs, path, extra):
        """The free:2 window-7 witness plus `extra` parts `all\\all`: with
        4,373 window points, 137 make 599,101 products and 138 make 603,474."""
        cert = load_certificate(str(certs / "f2w7wit.json"))
        cert["parts"] += [{"piece": "all\\all", "translator": "e"}] * extra
        path.write_text(json.dumps(_redigest(cert)))
        return str(path)

    def test_137_symbolic_witness_parts_verify(self, certs, tmp_path):
        path = self._witness_with_symbolic_parts(certs, tmp_path / "wit.json", 137)
        assert run(["verify", path, "--quiet"]) == 0

    def test_138_symbolic_witness_parts_are_refused(self, certs, tmp_path, capsys):
        path = self._witness_with_symbolic_parts(certs, tmp_path / "wit.json", 138)
        message = ("138 symbolic parts times 4373 window points make more than "
                   "the cap of 600000 products\n")
        assert self._timed(["verify", path]) == 3
        assert capsys.readouterr().err == (
            "verification failed: payload does not parse or replay: " + message)
        assert self._timed(["embed-f2", "--from-cert", path]) == 1
        assert capsys.readouterr().err == "error: " + message

    def test_cp_witness_terms(self, certs, tmp_path, capsys):
        """v and w of 30 one-entry terms over 60 distinct translators make
        30^4 entries in vv*.ww*; the replay took 11.4 s."""
        from paradox.groups import group_from_string

        f2 = group_from_string("free:2")
        ts = [f2.show(g) for g in f2.ball_elements(4)[1:61]]
        cert = load_certificate(str(certs / "cpw4.json"))
        cert["v"] = [[t, [["1", "all"]]] for t in ts[:30]]
        cert["w"] = [[t, [["1", "all"]]] for t in ts[30:]]
        path = tmp_path / "cpw.json"
        path.write_text(json.dumps(_redigest(cert)))
        capsys.readouterr()
        assert self._timed(["verify", str(path)]) == 3
        assert capsys.readouterr().err == (
            "verification failed: payload does not parse or replay: v and w form "
            "810000 coefficient entries on 161 window points, past the cap of "
            "2000000 evaluations\n")

    def test_cp_witness_of_one_point_parts(self, certs, tmp_path, capsys):
        """The free:2 window-4 witness cut into one-point parts passes its
        own check, but its v and w have 161 entries each."""
        cert = load_certificate(str(certs / "f2w4wit.json"))
        split = cert["split"]
        cut = [[{"piece": f"finite{{{x}}}", "translator": part["translator"]}
                for part in parts for x in part["piece"][7:-1].split(",")]
               for parts in (cert["parts"][:split], cert["parts"][split:])]
        cert.update(parts=cut[0] + cut[1], split=len(cut[0]))
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(_redigest(cert)))
        assert run(["verify", str(path), "--quiet"]) == 0
        capsys.readouterr()
        assert self._timed(["cp-witness", "--from-cert", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: v and w form 671898241 coefficient entries on 161 window "
            "points, past the cap of 2000000 evaluations\n")

    def test_certificate_bytes(self, tmp_path, capsys, monkeypatch):
        from paradox.certificates import CERT_BYTES_CAP

        def unread(*args, **kwargs):
            raise AssertionError("json.load ran on a file over the cap")

        monkeypatch.setattr(json, "load", unread)
        path = tmp_path / "big.json"
        with open(path, "wb") as fh:
            fh.truncate(CERT_BYTES_CAP + 1)
        message = "16777217 bytes are more than the cap of 16777216 bytes for a certificate\n"
        assert self._timed(["verify", str(path)]) == 3
        assert capsys.readouterr().err == "verification failed: " + message
        for command in ("embed-f2", "cp-witness"):
            assert self._timed([command, "--from-cert", str(path)]) == 1
            assert capsys.readouterr().err == "error: " + message


class TestLatticeDimensionCap:
    """zn:d takes d in 1..26, as free:k takes its rank: building zn:d makes
    2d generators of d coordinates, so a group string alone once cost d²."""

    def test_check_exits_1(self, capsys):
        started = time.perf_counter()
        assert run(["check", "--group", "zn:100000", "--set", "all",
                    "--translators", "ball:1", "--window", "1", "--quiet"]) == 1
        assert time.perf_counter() - started < 2.0
        assert capsys.readouterr().err == (
            "error: lattice dimension must be in 1..26, got 100000\n"
        )


def _unit(d, i, sign=1):
    """The text of sign * e_i in zn:d."""
    return "(" + ",".join(str(sign) if j == i else "0" for j in range(d)) + ")"


class TestHalfSpaceSearch:
    """A lattice semigroup's half-space bound is searched over the coordinates
    its generators use, and not at all past BALL_SIZE_CAP functionals.  Over
    all of {-1,0,1}^d, ±e1 in zn:14 took 13.6 s and zn:26 did not end."""

    @pytest.mark.parametrize("gens", [
        [_unit(26, 0), _unit(26, 0, -1)],
        [_unit(26, i) for i in range(26)] + ["(" + ",".join(["-1"] * 26) + ")"],
    ], ids=["plus-minus-e1", "units-and-minus-ones"])
    def test_zn26_exits_1(self, capsys, gens):
        started = time.perf_counter()
        assert run(["check", "--group", "zn:26", "--set",
                    f"semigroup({','.join(gens)})", "--translators", _unit(26, 0),
                    "--window", "2", "--quiet"]) == 1
        assert time.perf_counter() - started < 5.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and UNDECIDED_AT_CAP in err


class TestGreedyCap:
    """`greedy(N)` and `small-set --count` take at most 200 elements, so that
    neither a flag nor a certificate field asks for unbounded greedy work."""

    MESSAGE = "count 201 is over the cap of 200\n"

    @pytest.mark.parametrize("argv", [
        ["check", "--group", "zn:1", "--set", "greedy(201)", "--translators",
         "ball:1", "--window", "3"],
        ["small-set", "--group", "zn:1", "--count", "201"],
    ], ids=["check", "small-set"])
    def test_command_exits_1(self, capsys, argv):
        started = time.perf_counter()
        assert run(argv + ["--quiet"]) == 1
        assert time.perf_counter() - started < 2.0
        assert capsys.readouterr().err == "error: " + self.MESSAGE

    def test_largest_count_enumerates_past_the_ball_cap(self, tmp_path):
        # zn:1 greedy(200) reaches |g| = 116,426: the enumeration passes
        # BALL_SIZE_CAP points, which caps balls but not the greedy search
        out = tmp_path / "small.json"
        assert run(["small-set", "--group", "zn:1", "--count", "200",
                    "--out", str(out), "--quiet"]) == 0
        elements = json.loads(out.read_text())["elements"]
        assert len(elements) == 200
        assert 2 * max(abs(int(g.strip("()"))) for g in elements) > BALL_SIZE_CAP

    def test_verify_exits_3(self, tmp_path, capsys):
        base = tmp_path / "deficiency.json"
        assert run(["check", "--group", "zn:1", "--set", "greedy(6)", "--translators",
                    "ball:1", "--window", "3", "--out", str(base), "--quiet"]) == 2
        path = _edited(base, lambda cert: cert.update(set="greedy(201)"),
                       tmp_path / "greedy201.json")
        capsys.readouterr()
        started = time.perf_counter()
        assert run(["verify", str(path), "--quiet"]) == 3
        assert time.perf_counter() - started < 2.0
        assert capsys.readouterr().err == (
            "verification failed: payload does not parse or replay: " + self.MESSAGE
        )


class TestRationalText:
    """A rational that is not `p/q` or `p`, or has a zero denominator, in a
    slab or a cp-witness coefficient, ends in one line naming its text, not a
    ZeroDivisionError, a float read as a ratio or an unbounded power of ten."""

    @pytest.fixture(scope="class")
    def certs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("rationals")
        assert run(["check", "--group", "bs12", "--set", "slab(0,1,1/2)",
                    "--translators", "(2,0),(2,1)", "--window", "2",
                    "--out", str(root / "deficiency.json"), "--quiet"]) == 2
        assert run(["check", "--group", "free:2", "--set", "all", "--translators",
                    "ball:1", "--window", "2", "--out", str(root / "match.json"),
                    "--quiet"]) == 0
        assert run(["cp-witness", "--from-cert", str(root / "match.json"),
                    "--out", str(root / "cp-witness.json"), "--quiet"]) == 0
        return root

    def test_check_exits_1(self, capsys):
        assert run(["check", "--group", "bs12", "--set", "slab(1/0,1,0)",
                    "--translators", "(2,0)", "--window", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: zero denominator in rational '1/0'\n"
        )

    # `Fraction` reads the first two as 10^1000000 and 10^10000000
    @pytest.mark.parametrize("text", ["1e1000000", "1e10000000", "1.5"],
                             ids=["exponent", "huge-exponent", "decimal"])
    def test_check_reads_only_p_over_q(self, capsys, text):
        started = time.perf_counter()
        assert run(["check", "--group", "bs12", "--set", f"slab(0,{text},0)",
                    "--translators", "(2,0)", "--window", "1"]) == 1
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr().err == (
            f"error: rational '{text}' is not p/q or p\n"
        )

    @staticmethod
    def _first_coefficient(value):
        def edit(cert):
            assert cert["v"][0][1][0][0] == "1"
            cert["v"][0][1][0][0] = value
        return edit

    @pytest.mark.parametrize("base, edit, message", [
        ("deficiency.json", lambda c: c.update(set="slab(0,1/0,1/2)"),
         "zero denominator in rational '1/0'"),
        ("deficiency.json", lambda c: c.update(set="slab(0,1.5,1/2)"),
         "rational '1.5' is not p/q or p"),
        ("cp-witness.json", _first_coefficient("1/0"),
         "zero denominator in rational '1/0'"),
        ("cp-witness.json", _first_coefficient("1e1000000"),
         "rational '1e1000000' is not p/q or p"),
        # json reads `Infinity` as a float, which has no ratio
        ("cp-witness.json", _first_coefficient(float("inf")),
         "a rational must be a string, got inf"),
    ], ids=["slab", "slab-decimal", "cp-coefficient", "cp-coefficient-exponent",
            "cp-coefficient-infinity"])
    def test_verify_exits_3(self, certs, tmp_path, capsys, base, edit, message):
        path = _edited(certs / base, edit, tmp_path / "edited.json")
        capsys.readouterr()
        assert run(["verify", str(path), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            f"verification failed: payload does not parse or replay: {message}\n"
        )


class TestMalformedInput:
    """An input file of the wrong shape ends in exit 1 and one `error:` line."""

    @pytest.fixture(scope="class")
    def certs_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("certs")
        run(EX28_ARGS + ["--out", str(root / "match.json"),
                         "--witness-out", str(root / "witness.json"), "--quiet"])
        return root

    COMMANDS = {
        "verify": lambda path: ["verify", path],
        "embed-f2": lambda path: ["embed-f2", "--from-cert", path, "--depth", "2"],
        "cp-witness": lambda path: ["cp-witness", "--from-cert", path],
        "induce": lambda path: ["induce", "--group", "free:2", "--subgroup",
                                "cyclic:a", "--input", path, "--t", "b"],
    }

    @pytest.mark.parametrize("command, base, edit", [
        ("embed-f2", None, []),
        ("embed-f2", None, "x"),
        ("cp-witness", None, []),
        ("cp-witness", None, "x"),
        ("induce", None, []),
        ("induce", None, {"set": "E", "pieces": [["E1"]], "gamma0Elems": ["a"],
                          "split": 1}),
        ("embed-f2", "witness.json", {"parts": 5}),
        ("cp-witness", "witness.json", {"parts": 5}),
        ("embed-f2", "match.json", {"translators": [5]}),
        ("verify", "match.json", {"group": 5}),
        ("verify", "match.json", {"kind": ["match"]}),
    ], ids=["embed-f2-list", "embed-f2-string", "cp-witness-list",
            "cp-witness-string", "induce-list", "induce-token-list",
            "embed-f2-parts-int", "cp-witness-parts-int",
            "embed-f2-translator-int", "verify-group-int", "verify-kind-list"])
    def test_one_line_error(self, certs_dir, tmp_path, capsys, command, base, edit):
        payload = edit
        if base is not None:
            payload = json.loads((certs_dir / base).read_text())
            payload.update(edit)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(self.COMMANDS[command](str(path))) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_verify_fails_a_payload_of_the_wrong_type(self, certs_dir, tmp_path,
                                                      capsys):
        payload = json.loads((certs_dir / "match.json").read_text())
        payload["translators"] = [5]
        path = tmp_path / "bad-translators.json"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["verify", str(path)]) == 3
        assert capsys.readouterr().err.startswith(
            "verification failed: payload does not parse or replay: "
        )


class TestEmptyFreeWord:
    """A free-group element's text must hold a token: "" once read as e, so a
    match resealed with "" in place of e passed `verify`."""

    def test_verify_of_a_resealed_match_exits_3(self, tmp_path, capsys):
        base = tmp_path / "match.json"
        assert run(["check", "--group", "free:2", "--set", "all", "--translators",
                    "ball:1", "--window", "1", "--out", str(base), "--quiet"]) == 0

        def blank_e(cert):
            blank = lambda t: "" if t == "e" else t
            cert["translators"] = list(map(blank, cert["translators"]))
            cert["assignment"] = [[p, *map(blank, rest)]
                                  for p, *rest in cert["assignment"]]

        path = _edited(base, blank_e, tmp_path / "blank.json")
        capsys.readouterr()
        assert run(["verify", str(path), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "verification failed: payload does not parse or replay: "
            "expected a word or 'e', got ''\n"
        )


class TestCopiesAndCapacity:
    """`verify` refuses a transport fact with m or n below 1, as `type-order`
    does: a flow with no copies and no capacity, and a deficiency whose
    negative capacity makes m|D| > n|targets| hold for any violator, once
    passed."""

    @pytest.mark.parametrize("m, n, code, copies, capacity", [
        ("1", "1", 0, 0, 0),
        ("2", "1", 2, 1, -1),
    ], ids=["flow", "flow-deficiency"])
    def test_verify_exits_3(self, tmp_path, capsys, m, n, code, copies, capacity):
        base = tmp_path / "flow.json"
        assert run(["type-order", "--group", "zn:1", "--m", m, "--set-a", "all",
                    "--n", n, "--set-b", "all", "--translators", "ball:1",
                    "--window", "2", "--out", str(base), "--quiet"]) == code

        def lower(cert):
            cert.update(copies=copies, capacity=capacity)
            if "assignment" in cert:
                cert["assignment"] = [[x, []] for x, _ in cert["assignment"]]

        path = _edited(base, lower, tmp_path / "lowered.json")
        capsys.readouterr()
        assert run(["verify", str(path), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "verification failed: payload does not parse or replay: "
            "copies and capacity must be >= 1\n"
        )


class TestEmptyTranslatorSet:
    """`verify` refuses a transport fact over no translators, as every
    producer does: such a violator reaches no target, so m|D| > n|targets|
    held for any violator, and the fact once passed."""

    @pytest.mark.parametrize("argv, code", [
        (["check", "--group", "zn:1", "--set", "all"], 2),
        (["type-order", "--group", "zn:1", "--m", "2", "--set-a", "all", "--n", "1",
          "--set-b", "all"], 2),
        (["check", "--group", "free:2", "--set", "all"], 0),
    ], ids=["deficiency", "flow-deficiency", "match"])
    def test_verify_exits_3(self, tmp_path, capsys, argv, code):
        base = tmp_path / "base.json"
        assert run(argv + ["--translators", "ball:1", "--window", "2",
                           "--out", str(base), "--quiet"]) == code
        path = _edited(base, lambda c: c.update(translators=[]),
                       tmp_path / "empty.json")
        capsys.readouterr()
        assert run(["verify", str(path), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "verification failed: payload does not parse or replay: "
            "translator set must be nonempty\n"
        )


class TestPipelines:
    @pytest.fixture()
    def match_cert(self, tmp_path):
        out = tmp_path / "match.json"
        run(EX28_ARGS + ["--out", str(out), "--quiet"])
        return str(out)

    def test_embed_f2(self, match_cert, tmp_path):
        report_path = tmp_path / "embed.json"
        code = run(
            ["embed-f2", "--from-cert", match_cert, "--depth", "6",
             "--out", str(report_path), "--quiet"]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["injective"] is True
        assert report["values"] == 1457
        assert report["T_size"] == 8
        assert report["violations"] == []

    def test_embed_f2_checks_the_witness_once(self, match_cert, monkeypatch):
        real = witness.witness_check
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("paradox.") and hasattr(module, "witness_check"):
                monkeypatch.setattr(module, "witness_check", counting)
        assert run(["embed-f2", "--from-cert", match_cert, "--depth", "2", "--quiet"]) == 0
        assert len(calls) == 1

    def test_embed_f2_reports_overlapping_branch_images(self, tmp_path, capsys):
        """A window-scoped witness can pass its check and still give branch
        maps whose images meet: one error line, not a traceback."""
        match = tmp_path / "m.json"
        assert run(["check", "--group", "zn:2", "--set", "semigroup((1,0),(0,1);e)",
                    "--translators", "(10,0),(0,10)", "--window", "3",
                    "--out", str(match), "--quiet"]) == 0
        capsys.readouterr()
        started = time.perf_counter()
        assert run(["embed-f2", "--from-cert", str(match), "--depth", "1",
                    "--quiet"]) == 1
        assert time.perf_counter() - started < 2.0
        assert capsys.readouterr().err == (
            "error: branch images 1 and 2 overlap at (20,10)\n"
        )

    def test_cp_witness(self, match_cert, tmp_path):
        out = tmp_path / "cp.json"
        code = run(
            ["cp-witness", "--from-cert", match_cert, "--out", str(out), "--quiet"]
        )
        assert code == 0
        assert run(["verify", str(out), "--quiet"]) == 0
        # written on the input's window, with the same envelope fields
        written, given = load_certificate(str(out)), load_certificate(match_cert)
        for key in ("window", "checkedOn", "budgetSlack"):
            assert written[key] == given[key]

    def test_cp_witness_checks_on_the_certificate_window(self, match_cert, capsys):
        assert run(["cp-witness", "--from-cert", match_cert, "--window", "3"]) == 1
        assert "unrecognized arguments: --window" in capsys.readouterr().err

    def test_small_set(self, tmp_path):
        out = tmp_path / "small.json"
        code = run(
            ["small-set", "--group", "zn:1", "--count", "4", "--out", str(out),
             "--quiet"]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["elements"] == ["(0)", "(1)", "(-2)", "(5)"]
        assert report["maxPairIntersection"] <= 2

    @pytest.mark.parametrize("group, count, sha", [
        ("zn:1", "90", "40897680d658c6e87cffb87daaf1513624e8631aaba6f556f0545ce64d16b0ba"),
        ("free:2", "60", "c6d360af5853a4bba1df6ca7ef54952f53e54ee0a8f12be32fee88868bc269d0"),
    ], ids=["zn:1-90", "free:2-60"])
    def test_small_set_bytes_are_pinned(self, tmp_path, group, count, sha):
        # the benchmark's small-set operations and their pinned output
        out = tmp_path / "small.json"
        assert run(["small-set", "--group", group, "--count", count,
                    "--out", str(out), "--quiet"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha

    def test_type_order(self, tmp_path):
        out = tmp_path / "flow.json"
        code = run(
            ["type-order", "--group", "zn:1", "--m", "2", "--set-a", "all",
             "--n", "1", "--set-b", "all", "--translators", "ball:1",
             "--window", "3", "--out", str(out), "--quiet"]
        )
        assert code == 2
        assert run(["verify", str(out), "--quiet"]) == 0

    def test_type_order_long_path(self, tmp_path):
        # a flow exists (shift every point by (-1)), found along augmenting
        # paths longer than the interpreter's recursion limit
        out = tmp_path / "flow.json"
        code = run(
            ["type-order", "--group", "zn:1", "--m", "1",
             "--set-a", r"ball(600)\finite{(-600)}", "--n", "1",
             "--set-b", r"ball(600)\finite{(600)}", "--translators", "(0),(-1)",
             "--window", "600", "--out", str(out), "--quiet"]
        )
        assert code == 0
        assert run(["verify", str(out), "--quiet"]) == 0

    def test_induce(self, tmp_path):
        tokens = tmp_path / "tokens.json"
        tokens.write_text(json.dumps({
            "xTokens": ["E", "E1", "E2"],
            "set": "E",
            "pieces": ["E1", "E2"],
            "gamma0Elems": ["a", "a a"],
            "split": 1,
            "eqEFacts": {"disjoint": [["E1", "E2"]], "covers": [["E1"], ["E2"]]},
        }))
        out = tmp_path / "induced.json"
        code = run(
            ["induce", "--group", "free:2", "--subgroup", "cyclic:a",
             "--input", str(tokens), "--t", "b", "--out", str(out), "--quiet"]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["output"]["sj"] == ["b a b^-1", "b a a b^-1"]
        assert all(check["ok"] for check in report["checks"])


    @pytest.mark.parametrize("split", ["1", 1.0, True], ids=["string", "float", "bool"])
    def test_induce_split_must_be_a_json_integer(self, tmp_path, capsys, split):
        tokens = tmp_path / "tokens.json"
        tokens.write_text(json.dumps({
            "set": "E", "pieces": ["E1", "E2"], "gamma0Elems": ["a", "a a"],
            "split": split,
        }))
        out = tmp_path / "induced.json"
        capsys.readouterr()
        assert run(["induce", "--group", "free:2", "--subgroup", "cyclic:a",
                    "--input", str(tokens), "--t", "b", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: split must be an integer, got {type(split).__name__}\n"
        assert not out.exists()


# The positive quadrant of Z^2, decided through its half-space length bound.
QUADRANT = "semigroup((1,0),(0,1);e)"
# The positive words in a and b never give e, never run out and have no
# half-space bound: e is undecided, at any window, once they pass the cap.
FREE_SEMI = "semigroup(a,b)"
UNDECIDED_AT_CAP = ("undecided: a semigroup search passed its cap (120000 "
                    "enumerated values, 4000000 letters or bits, 500000 affine "
                    "nodes)")
# budgetSlack values a certificate may carry; none changes what it decides
HOSTILE_SLACKS = [10**30, -1, 0]


def _witness_cert(path, group_name, set_text, movers, radius):
    """A witness on the set whose pieces are its translates by the movers,
    each moved back by its mover's inverse, written on the ball of radius."""
    from paradox.certificates import seal, witness_fields, write_text
    from paradox.groups import ball, group_from_string
    from paradox.sets import parse_setexpr, translate
    from paradox.witness import ParadoxWitness

    group = group_from_string(group_name)
    whole = parse_setexpr(set_text, group)
    pieces = tuple((translate(m, whole, group), group.inv(m))
                   for m in map(group.parse, movers))
    witness = ParadoxWitness(whole, pieces, 1)
    write_text(seal(witness_fields(witness, ball(group, radius))), str(path))
    return path


def _quadrant_witness_cert(path):
    """A zn:2 witness on the quadrant whose pieces are translates by (-10,0)
    and (0,-10), written on ball(3); its pieces leave the quadrant."""
    return _witness_cert(path, "zn:2", QUADRANT, ["(-10,0)", "(0,-10)"], 3)


def _free_witness_cert(path):
    """A free:2 witness on semigroup(a,b), pieces a S and b S, written on
    ball(1): its memberships at e are undecided at the cap."""
    return _witness_cert(path, "free:2", FREE_SEMI, ["a", "b"], 1)


def _with_slack(base, slack, path):
    """The certificate at base with budgetSlack set to slack and its digest
    recomputed, so that only the replay can tell them apart."""
    cert = load_certificate(str(base))
    cert["budgetSlack"] = slack
    path.write_text(json.dumps(_redigest(cert)))
    return path


class TestBudgetSlack:
    """There is no budget slack: semigroup searches stop at fixed caps.
    Certificates carry budgetSlack 4, and no command reads its value."""

    def test_embed_f2_validates_at_the_recorded_slack(self, tmp_path, capsys):
        # the quadrant witness validates whatever slack it records; the
        # window is then too small for the embedding itself
        wit = tmp_path / "witness.json"
        assert run(
            ["check", "--group", "zn:2", "--set", QUADRANT, "--translators",
             "(10,0),(0,10)", "--window", "3", "--witness-out", str(wit), "--quiet"]
        ) == 0
        capsys.readouterr()
        for slack in [4] + HOSTILE_SLACKS:
            path = _with_slack(wit, slack, tmp_path / f"witness{slack}.json")
            assert run(["embed-f2", "--from-cert", str(path), "--depth", "1",
                        "--quiet"]) == 1
            err = capsys.readouterr().err
            assert "left the validated window" in err and err.count("\n") == 1
        # a witness whose set the cap leaves undecided is an error at any slack
        _free_witness_cert(wit)
        for slack in [4] + HOSTILE_SLACKS:
            path = _with_slack(wit, slack, tmp_path / f"free{slack}.json")
            assert run(["embed-f2", "--from-cert", str(path), "--depth", "1",
                        "--quiet"]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and UNDECIDED_AT_CAP in err

    def test_cp_witness_checks_at_the_recorded_slack(self, tmp_path, capsys):
        wit, out = tmp_path / "witness.json", tmp_path / "cp.json"
        args = ["cp-witness", "--from-cert", str(wit), "--out", str(out)]
        _free_witness_cert(wit)
        assert run(args + ["--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: membership of e in ") and UNDECIDED_AT_CAP in err

        # the quadrant is not properly infinite, so no certificate is
        # written, and the verifier, replaying the same identities, names
        # the same failure; a resealed slack changes neither
        from paradox.certificates import (
            pi_witness_fields, seal, witness_from_cert, write_text,
        )
        from paradox.crossed import pi_witness
        from paradox.groups import ball, group_from_string

        _quadrant_witness_cert(wit)
        z2 = group_from_string("zn:2")
        pw = pi_witness(witness_from_cert(load_certificate(str(wit)), z2), z2)
        cp = tmp_path / "pi.json"
        write_text(seal(pi_witness_fields(pw, ball(z2, 3))), str(cp))
        for slack in [4] + HOSTILE_SLACKS:
            _with_slack(wit, slack, wit)
            assert run(args) == 3
            lines = capsys.readouterr().out.splitlines()
            first_fail = next(line for line in lines if ": FAIL " in line)
            assert not out.exists()
            assert run(["verify", str(_with_slack(cp, slack, cp)), "--quiet"]) == 3
            assert capsys.readouterr().err == (
                "verification failed: " + first_fail.replace(": FAIL ", ": ") + "\n"
            )

    def test_undecided_membership_names_the_set(self, capsys):
        assert run(
            ["check", "--group", "free:2", "--set", f"ball(1)&{FREE_SEMI}",
             "--translators", "a,b", "--window", "2", "--quiet"]
        ) == 1
        # e is in ball(1); the query that the cap leaves open is e in the
        # semigroup, named with the whole set
        assert capsys.readouterr().err == (
            f"error: membership of e in (ball(1)&{FREE_SEMI}) {UNDECIDED_AT_CAP}\n"
        )

    def test_verify_reports_an_undecided_image(self, tmp_path, capsys):
        # a match on all of free:2, its set edited to one that the cap leaves
        # undecided at e and resealed: replay stops at that point
        match = tmp_path / "match.json"
        assert run(
            ["check", "--group", "free:2", "--set", "all", "--translators",
             "ball:1", "--window", "1", "--out", str(match), "--quiet"]
        ) == 0
        path = _edited(match, lambda c: c.update(set=f"all\\{FREE_SEMI}"),
                       tmp_path / "edited.json")
        capsys.readouterr()
        assert run(["verify", str(path), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err == (f"verification failed: membership of e in (all\\{FREE_SEMI}) "
                       f"{UNDECIDED_AT_CAP}\n")

    def test_verify_reports_an_undecided_cp_witness(self, tmp_path, capsys):
        from paradox.certificates import (
            pi_witness_fields, seal, window_from_descriptor, witness_from_cert,
            write_text,
        )
        from paradox.crossed import pi_witness
        from paradox.groups import group_from_string

        wit, out = tmp_path / "witness.json", tmp_path / "cp.json"
        _free_witness_cert(wit)
        f2 = group_from_string("free:2")
        data = load_certificate(str(wit))
        window = window_from_descriptor(f2, data["window"])
        pw = pi_witness(witness_from_cert(data, f2), f2)
        write_text(seal(pi_witness_fields(pw, window)), str(out))
        for slack in [4] + HOSTILE_SLACKS:
            assert run(["verify", str(_with_slack(out, slack, out)), "--quiet"]) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and UNDECIDED_AT_CAP in err

    @pytest.mark.parametrize("argv", [
        ["embed-f2", "--from-cert", "witness.json"],
        ["cp-witness", "--from-cert", "witness.json"],
        ["small-set", "--group", "zn:1", "--count", "4"],
        ["induce", "--group", "free:2", "--subgroup", "cyclic:a",
         "--input", "tokens.json", "--t", "b"],
        ["check", "--group", "zn:1", "--set", "all", "--translators", "ball:1",
         "--window", "1"],
        ["type-order", "--group", "zn:1", "--m", "1", "--set-a", "all", "--n", "1",
         "--set-b", "all", "--translators", "ball:1", "--window", "1"],
        ["verify", "cert.json"],
    ])
    def test_taken_only_where_a_budget_is_chosen(self, argv, capsys):
        # no command chooses a budget, so every one refuses the flag
        assert run(argv + ["--budget-slack", "4"]) == 1
        assert "unrecognized arguments: --budget-slack" in capsys.readouterr().err

    @pytest.mark.parametrize("slack", HOSTILE_SLACKS, ids=["huge", "negative", "zero"])
    @pytest.mark.parametrize("group, set_text, translators, edited, code", [
        ("zn:2", QUADRANT, "(10,0),(0,10)", None, 0),
        ("free:2", "semigroup(a,b,a^-1,b^-1)", "ball:1", None, 0),
        ("free:2", "all", "ball:1", f"all\\{FREE_SEMI}", 3),
    ], ids=["quadrant", "free2-all-words", "free2-undecided"])
    def test_hostile_slack_changes_no_exit(self, tmp_path, slack, group, set_text,
                                           translators, edited, code):
        # a semigroup certificate resealed with any budgetSlack replays as at
        # 4, and as fast: the slack bounds no enumeration
        base = tmp_path / "match.json"
        assert run(
            ["check", "--group", group, "--set", set_text, "--translators",
             translators, "--window", "2", "--out", str(base), "--quiet"]
        ) == 0
        if edited is not None:
            base = _edited(base, lambda c: c.update(set=edited), base)
        assert run(["verify", str(base), "--quiet"]) == code
        path = _with_slack(base, slack, tmp_path / "edited.json")
        started = time.perf_counter()
        assert run(["verify", str(path), "--quiet"]) == code
        assert time.perf_counter() - started < 2.0


def test_console_entry_point(tmp_path):
    out = tmp_path / "cert.json"
    proc = subprocess.run(
        [sys.executable, "-m", "paradox.cli", "check", "--group", "zn:1",
         "--set", "all", "--translators", "ball:1", "--window", "2",
         "--out", str(out), "--quiet"],
        capture_output=True,
        text=True,
        # the package as imported here, also when it is not installed
        env=dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(paradox.__file__)))),
    )
    assert proc.returncode == 2
    assert out.exists()


def _check(group, set_text, translators):
    return ["check", "--group", group, "--set", set_text, "--translators", translators,
            "--window", "1"]


class TestRefusals:
    """Each refusal that no other test names ends in exit 1 and one line."""

    @pytest.fixture(scope="class")
    def certs(self, tmp_path_factory):
        """A zn:1 deficiency, a free:2 match, and its witness with part 0's
        translator changed to `a a`, resealed."""
        base = tmp_path_factory.mktemp("refusals")
        paths = {name: str(base / f"{name}.json")
                 for name in ("deficiency", "match", "witness", "bad-witness")}
        assert run(["check", "--group", "zn:1", "--set", "all", "--translators",
                    "(-1),(0),(1)", "--window", "3", "--out", paths["deficiency"],
                    "--quiet"]) == 2
        assert run(["check", "--group", "free:2", "--set", "all", "--translators",
                    "ball:1", "--window", "2", "--out", paths["match"],
                    "--witness-out", paths["witness"], "--quiet"]) == 0
        cert = load_certificate(paths["witness"])
        cert["parts"][0]["translator"] = "a a"
        with open(paths["bad-witness"], "w", encoding="utf-8") as fh:
            json.dump(_redigest(cert), fh)
        return paths

    @pytest.mark.parametrize("argv, message", [
        (_check("foo", "all", "a"), "unknown group spec 'foo'"),
        (_check("free:2", "all", "a^2"), "unsupported power in 'a^2'"),
        (_check("free:2", "ball(1) all", "a"), "trailing input in set expression"),
        (_check("free:2", "(ball(1)", "a"), "expected ')' in set expression"),
        (_check("free:2", "semigroup(a;b)", "a"), "expected 'gens' or 'gens;e'"),
        (_check("zn:2", "slab(0,1,0)", "(1,0)"),
         "slab sets are only defined for the dyadic affine group"),
        (["embed-f2", "--from-cert", "deficiency"],
         "need a match or witness certificate, got deficiency"),
        (["cp-witness", "--from-cert", "deficiency"],
         "need a match or witness certificate, got deficiency"),
        (["embed-f2", "--from-cert", "bad-witness"], "witness fails validation"),
        (["embed-f2", "--from-cert", "match", "--depth", "0"], "radius must be >= 1"),
        (["small-set", "--group", "zn:1", "--count", "3", "--check-radius", "0"],
         "check radius must be >= 1"),
    ], ids=["group", "power", "trailing-input", "open-paren", "semigroup-gens",
            "slab-group", "embed-f2-kind", "cp-witness-kind", "embed-f2-witness",
            "embed-f2-depth", "small-set-check-radius"])
    def test_exits_1_with_one_line(self, certs, capsys, argv, message):
        argv = [certs.get(a, a) for a in argv]
        capsys.readouterr()
        assert run(argv + ["--quiet"]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message in line
