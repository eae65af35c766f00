"""The benchmark's three workloads: fixed lists of `paradox` CLI operations.

Every operation is one fresh `paradox.cli` process.  In an argument list,
`data:<file>` names an input prepared in the run directory (see `INPUTS`) and
`OUT` names the file the operation writes.  Each operation carries the exit
code that the mathematics demands and, where the seed commit produced it, the
sha256 of the bytes it writes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    exit: int
    out_sha: str | None = None  # pinned sha256 of OUT; None: no pin exists
    certificate: bool = False  # OUT is a certificate that `verify` must accept


# Stored inputs (data/<name>.gz), pinned so that every commit replays the
# same bytes.  They were produced by the seed commit under PYTHONHASHSEED=0.
INPUTS = {
    # check free:2 all ball:1 --window 8
    "f2w8.json": "6ab59cbb912d0b951a8cc6c787b9210be6977c32a6fbdd9f245becb134a5399e",
    # type-order free:2 --m 3 all --n 1 all ball:1 --window 7
    "f2flow.json": "f507298c83738048d2c0ddec7e5012e8d68501366a480bcbed9178d60aa1c245",
    # check free:2 all ball:1 --window 7 --witness-out
    "f2w7wit.json": "9d22240695335289e04c1ada6b116e122d943906d87fe410956d88bba2af7f6a",
    # cp-witness --from-cert f2w4.json
    "cpw4.json": "317f55d3fa8382fc83cf35024558ac3c1ea7894e1cd9fcb076fd1450549e47cc",
    # the two zn:2 deficiencies of the doubling workload
    "zn2def25.json": "936faa4272a5f12ee3f383fa125f06b869ed0f5c18e451832635e39283c2c5fc",
    "zn2def30.json": "52c8701cf97bb420b355d8f0e51d5cb548c67ead70645b98d0aab10b9d6f2470",
    # check free:2 all ball:1 --window 4
    "f2w4.json": "3ed2bc0252c440328e00bda45b683b707e1b59c9544b6dbe984d6a8fe960dfb2",
    # check bs12 "semigroup((2,0),(2,1);e)" "(2,0),(2,1)" --window 8
    "bs12w8.json": "85fe38797e9969bcd8f02d0e1f76287a7173d68fbc1f1bf9fa3387949e1b64ae",
    # the token witness of the CLI test suite's induce test
    "tokens.json": "32b054562586ecc44379d90e541cd437b897c8d99188af67515d2b64d499a464",
}

# sha256 of `tamper` applied to f2w8.json
TAMPERED_SHA = "33fafca6aa411fb7926a781b9cc53d3e79ad8f2ecdb7a3d84b44688dc55f96e0"


def tamper(match_bytes: bytes) -> bytes:
    """Copy the first assignment's second translator over its first one and
    recompute the content digest the way paradox does (sha256 of the
    sort_keys, indent=2 JSON without `digest` and `producer`), so that only a
    semantic replay can reject the result."""
    cert = json.loads(match_bytes)
    cert["assignment"][0][1] = cert["assignment"][0][2]
    semantic = {k: v for k, v in cert.items() if k not in ("digest", "producer")}
    canonical = json.dumps(semantic, sort_keys=True, indent=2).encode("utf-8")
    cert["digest"] = "sha256:" + hashlib.sha256(canonical).hexdigest()
    return (json.dumps(cert, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _out(*argv: str) -> tuple[str, ...]:
    return argv + ("--out", "OUT", "--quiet")


DOUBLING = (
    Op("check-free2-w8",
       _out("check", "--group", "free:2", "--set", "all",
            "--translators", "ball:1", "--window", "8"),
       0, INPUTS["f2w8.json"], True),
    Op("flow-free2-m3-w7",
       _out("type-order", "--group", "free:2", "--m", "3", "--set-a", "all",
            "--n", "1", "--set-b", "all", "--translators", "ball:1",
            "--window", "7"),
       0, INPUTS["f2flow.json"], True),
    Op("check-zn2-composite-w25",
       _out("check", "--group", "zn:2",
            "--set", r"(1,0)*(ball(25)|(0,1)*ball(20))&(all\finite{(0,0),(1,1)})",
            "--translators", "ball:2", "--window", "25"),
       2, INPUTS["zn2def25.json"], True),
    Op("check-zn2-all-w30",
       _out("check", "--group", "zn:2", "--set", "all",
            "--translators", "ball:1", "--window", "30"),
       2, INPUTS["zn2def30.json"], True),
    Op("check-bs12-slab-w5",
       _out("check", "--group", "bs12", "--set", "slab(0,1,0)",
            "--translators", "ball:3", "--window", "5"),
       0, "cd4124380bbe7d037f1876c4868bec7c11a9de62742f977ec53761862479f6e7", True),
    Op("check-bs12-semigroup-w8",
       _out("check", "--group", "bs12", "--set", "semigroup((2,0),(2,1);e)",
            "--translators", "(2,0),(2,1)", "--window", "8"),
       0, INPUTS["bs12w8.json"], True),
    # A flow exists (shift every point by (-1)); the seed commit dies here
    # with RecursionError in the recursive Dinic search, so no bytes are
    # pinned and the certificate is checked by `verify` alone.
    Op("flow-zn1-path-r600",
       _out("type-order", "--group", "zn:1", "--m", "1",
            "--set-a", r"ball(600)\finite{(-600)}", "--n", "1",
            "--set-b", r"ball(600)\finite{(600)}",
            "--translators", "(0),(-1)", "--window", "600"),
       0, None, True),
)

REPLAY = (
    Op("verify-match-free2-w8", ("verify", "data:f2w8.json", "--quiet"), 0),
    Op("verify-flow-free2-m3", ("verify", "data:f2flow.json", "--quiet"), 0),
    Op("verify-witness-free2-w7", ("verify", "data:f2w7wit.json", "--quiet"), 0),
    Op("verify-cp-witness-free2-w4", ("verify", "data:cpw4.json", "--quiet"), 0),
    Op("verify-deficiency-zn2-w25", ("verify", "data:zn2def25.json", "--quiet"), 0),
    Op("verify-deficiency-zn2-w30", ("verify", "data:zn2def30.json", "--quiet"), 0),
    Op("verify-tampered-match", ("verify", "data:tampered.json", "--quiet"), 3),
    # The seed commit raises AttributeError here instead of exiting 1.
    Op("verify-not-an-object", ("verify", "data:empty.json", "--quiet"), 1),
)

SYMBOLIC = (
    Op("small-set-zn1-90",
       _out("small-set", "--group", "zn:1", "--count", "90"),
       0, "40897680d658c6e87cffb87daaf1513624e8631aaba6f556f0545ce64d16b0ba"),
    Op("small-set-free2-60",
       _out("small-set", "--group", "free:2", "--count", "60"),
       0, "c6d360af5853a4bba1df6ca7ef54952f53e54ee0a8f12be32fee88868bc269d0"),
    Op("cp-witness-free2-w4",
       _out("cp-witness", "--from-cert", "data:f2w4.json"),
       0, INPUTS["cpw4.json"], True),
    Op("cp-witness-bs12-w8",
       _out("cp-witness", "--from-cert", "data:bs12w8.json"),
       0, "75f36de5327dcd0c0cd81836d7c8e72fd71536f468403d2ea37a22a7f43ec11b", True),
    Op("embed-f2-bs12-w8-d7",
       _out("embed-f2", "--from-cert", "data:bs12w8.json", "--depth", "7"),
       0, "38d94e504bc5680e320766d1b0a7216abbe1824c4c3d18c8fa8ede52dab01b2c"),
    Op("induce-free2-cyclic-a",
       _out("induce", "--group", "free:2", "--subgroup", "cyclic:a",
            "--input", "data:tokens.json", "--t", "b"),
       0, "b9c8482b1326fd692eacda218e16469c59e5d19ccdd9dcccc3f483cc30579e3d"),
)

WORKLOADS = {"doubling": DOUBLING, "replay": REPLAY, "symbolic": SYMBOLIC}
