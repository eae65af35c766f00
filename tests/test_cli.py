import json
import os
import subprocess
import sys

import pytest

import paradox
from paradox.certificates import load_certificate
from paradox.cli import main

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
        from paradox.certificates import content_digest, write_certificate

        cert["digest"] = content_digest(cert)
        write_certificate(cert, str(out))
        assert run(["verify", str(out), "--quiet"]) == 3

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

    def test_cp_witness(self, match_cert, tmp_path):
        out = tmp_path / "cp.json"
        code = run(
            ["cp-witness", "--from-cert", match_cert, "--out", str(out), "--quiet"]
        )
        assert code == 0
        assert run(["verify", str(out), "--quiet"]) == 0

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
