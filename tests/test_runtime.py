import ast
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import paradox
import paradox.cli
from paradox.certificates import seal, window_digest, write_text
from paradox.groups import ball, explicit_window, group_from_string

Z1 = group_from_string("zn:1")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(paradox.__file__)))


def _run(args, cache_dir):
    """A fresh interpreter, with PARADOX_CACHE_DIR set only when cache_dir is."""
    env = {k: v for k, v in os.environ.items() if k != "PARADOX_CACHE_DIR"}
    env["PYTHONPATH"] = SRC
    if cache_dir is not None:
        env["PARADOX_CACHE_DIR"] = str(cache_dir)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


class TestBallsIgnoreStrayFiles:
    """Balls come from group arithmetic alone.  A layer file in the directory
    that PARADOX_CACHE_DIR once named as an on-disk ball cache must change
    neither what `check` writes nor what `verify` accepts."""

    @pytest.fixture()
    def forged_dir(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        (root / "zn_1.layer1.json").write_text(json.dumps(["(2)", "(-2)"]))
        return root

    def test_ball_ignores_forged_layer(self, forged_dir):
        script = (
            "from paradox.groups import group_from_string\n"
            "z = group_from_string('zn:1')\n"
            "print(','.join(map(z.show, z.ball_elements(1))))\n"
        )
        proc = _run(["-c", script], forged_dir)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "(0),(1),(-1)"

    def test_check_and_verify_ignore_forged_layer(self, forged_dir, tmp_path):
        written = {}
        for label, cache in (("plain", None), ("forged", forged_dir)):
            out = tmp_path / f"{label}.json"
            proc = _run(
                ["-m", "paradox.cli", "check", "--group", "zn:1", "--set", "all",
                 "--translators", "(1),(-1),(0)", "--window", "2",
                 "--out", str(out), "--quiet"],
                cache,
            )
            written[label] = (proc.returncode, out.read_bytes())
        assert written["forged"] == written["plain"]

        # The radius-2 ball that grows from the forged first layer.
        forged_ball = explicit_window(
            Z1, [Z1.parse(t) for t in "(0) (2) (-2) (3) (1) (-1) (-3)".split()], 2
        )
        cert = json.loads(written["plain"][1])
        cert["checkedOn"] = window_digest(forged_ball)
        path = tmp_path / "forged-window.json"
        write_text(seal(cert), str(path))
        for cache in (None, forged_dir):
            proc = _run(["-m", "paradox.cli", "verify", str(path), "--quiet"], cache)
            assert proc.returncode == 3, proc.stderr


def test_verifier_imports_no_solver(tmp_path):
    # a greedy set's membership builds the set in `smallsets`
    path = tmp_path / "greedy.json"
    argv = ["check", "--group", "zn:1", "--set", "greedy(6)", "--translators",
            "ball:1", "--window", "3", "--out", str(path), "--quiet"]
    assert paradox.cli.main(argv) == 2
    code = (
        "import sys, paradox.certificates as c, paradox.verifier as v; "
        f"assert v.verify_certificate(c.load_certificate({str(path)!r})).ok; "
        "print(*(m for m in ('paradox.engine', 'paradox.matching', 'paradox.flow') "
        "if m in sys.modules))"
    )
    proc = _run(["-c", code], None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_verify_command_loads_no_solver(tmp_path):
    path = tmp_path / "match.json"
    argv = ["check", "--group", "free:2", "--set", "all", "--translators",
            "ball:1", "--window", "2", "--out", str(path), "--quiet"]
    assert paradox.cli.main(argv) == 0
    code = (
        "import sys; from paradox.cli import main; "
        f"assert main(['verify', {str(path)!r}, '--quiet']) == 0; "
        "print(*(m for m in ('paradox.engine', 'paradox.matching', 'paradox.flow') "
        "if m in sys.modules))"
    )
    proc = _run(["-c", code], None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def _newly_loaded(code, watched):
    """The modules of `watched` that running `code` in a fresh interpreter
    loads, beyond what the interpreter loads at start-up."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        f"print(*sorted(set(sys.modules) - before & {set(watched)!r}))\n"
    )
    proc = _run(["-c", script], None)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_loads_no_heavy_standard_modules():
    watched = ("dataclasses", "inspect", "fractions", "decimal", "string")
    assert _newly_loaded("import paradox.cli", watched) == []


@pytest.mark.parametrize("kind, argv, code", [
    ("match", ["check", "--group", "free:2", "--set", "all"], 0),
    ("deficiency", ["check", "--group", "zn:1", "--set", "all"], 2),
    ("flow", ["type-order", "--group", "zn:1", "--m", "1", "--set-a", "all",
              "--n", "1", "--set-b", "all"], 0),
    # bs12 offsets are ordered and semigroups decided on integers
    ("deficiency", ["check", "--group", "bs12", "--set",
                    "semigroup((2,0),(2,1);e)"], 2),
    # a greedy set's membership builds the set in `smallsets`, and no more
    ("deficiency", ["check", "--group", "zn:1", "--set", "greedy(6)"], 2),
], ids=["match", "deficiency", "flow", "bs12-semigroup", "greedy"])
def test_verify_loads_only_what_its_kind_replays(tmp_path, kind, argv, code):
    """A transport certificate's replay needs no solver and neither the
    witness nor the crossed-product checkers."""
    path = tmp_path / f"{kind}.json"
    argv += ["--translators", "ball:1", "--window", "3", "--out", str(path), "--quiet"]
    assert paradox.cli.main(argv) == code
    assert json.loads(path.read_text())["kind"] == kind
    watched = ["fractions"] + [f"paradox.{m}" for m in (
        "crossed", "witness", "pwt", "engine", "matching", "flow")]
    verify = (f"from paradox.cli import main; "
              f"assert main(['verify', {str(path)!r}, '--quiet']) == 0")
    assert _newly_loaded(verify, watched) == []


def test_no_module_imports_dataclasses():
    found = []
    for filename, tree in _package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            found += [f"{filename}:{node.lineno}" for name in names
                      if name and name.split(".")[0] == "dataclasses"]
    assert found == []


def _names_read(tree):
    """Every name a module reads, including those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        # `ast.arg` and `ast.AnnAssign` carry `annotation`, functions `returns`
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _names_read(ast.parse(ann.value, mode="eval"))
    return names


def _package_modules():
    """(file name, syntax tree) of every module in src/paradox."""
    package = os.path.dirname(os.path.abspath(paradox.__file__))
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename), encoding="utf-8") as fh:
                yield filename, ast.parse(fh.read(), filename)


def test_no_unused_imports():
    unused = []
    for filename, tree in _package_modules():
        read = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{filename}:{node.lineno} {bound}")
    assert unused == []


def _names_used(trees):
    """Every name the syntax trees read, as a variable, an attribute or an
    imported name."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


# The checked, three-valued membership, kept for library users and the
# benchmark's per-layer probes.
CHECKED_ENTRY_POINTS = {("sets.py", "member")}


def _outside_callers():
    """Syntax trees of the acceptance suite and the golden generator, the
    callers outside the package that keep a public name alive."""
    from test_golden import GENERATE

    with open(os.path.join(os.path.dirname(__file__), "test_acceptance.py"),
              encoding="utf-8") as fh:
        return [ast.parse(fh.read()), ast.parse(GENERATE)]


def test_every_public_function_has_a_caller():
    """A public top-level function is named elsewhere in the package, by an
    acceptance criterion or by the golden generator, or is a checked entry
    point; so code that only its own tests call cannot build up unnoticed."""
    outside = _names_used(_outside_callers())
    modules = dict(_package_modules())
    uncalled = []
    for filename, tree in modules.items():
        named = outside | _names_used(
            other for name, other in modules.items() if name != filename
        )
        for node in tree.body:
            if (not isinstance(node, ast.FunctionDef) or node.name.startswith("_")
                    or (filename, node.name) in CHECKED_ENTRY_POINTS):
                continue
            if node.name not in named | _names_used(
                    other for other in tree.body if other is not node):
                uncalled.append(f"{filename}:{node.lineno} {node.name}")
    assert uncalled == []


# Called by argparse, which reports a bad argument through its parser's `error`.
LIBRARY_HOOKS = {("cli.py", "_Parser", "error")}


def test_every_public_method_has_a_caller():
    """A public method, property or static method of a package class is read
    as an attribute (`x.name`) in the package, by an acceptance criterion or
    by the golden generator, or is a library hook; so a member that only its
    own tests read cannot build up unnoticed."""
    modules = dict(_package_modules())
    read = {node.attr for tree in [*_outside_callers(), *modules.values()]
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    uncalled = []
    for filename, tree in modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and node.name not in read
                        and (filename, cls.name, node.name) not in LIBRARY_HOOKS):
                    uncalled.append(f"{filename}:{node.lineno} {cls.name}.{node.name}")
    assert uncalled == []


def test_three_valued_membership_stays_in_sets():
    """Outside `sets.py` membership is asked through `predicate` or
    `materialize`, so an undecided point always raises `undecided_error`."""
    found = []
    for filename, tree in _package_modules():
        if filename == "sets.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{filename}:{node.lineno} {name}" for name in names
                      if name in ("member", "BUDGET_EXCEEDED")]
    assert found == []


def test_assignment_rows_are_read_in_certificates():
    """Only `certificates.py` subscripts a transport certificate's
    "assignment", "violator" or "translators", or the keys of the flow
    layout, so `verify`, `embed-f2` and `cp-witness` read the fact through
    one reader, `transport_from_cert`, into the record its decider
    returned."""
    keys = ("assignment", "violator", "translators", "setA", "setB", "copies",
            "capacity")
    found = []
    for filename, tree in _package_modules():
        if filename == "certificates.py":
            continue
        found += [f"{filename}:{node.lineno} {node.slice.value}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript)
                  and isinstance(node.slice, ast.Constant)
                  and node.slice.value in keys]
    assert found == []


def test_no_budget_parameter_and_no_ctx_default():
    """Semigroup searches stop at fixed caps, so no function takes a slack or
    a budget, and none picks a context on its caller's behalf."""
    found = []
    for filename, tree in _package_modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            for param in positional + args.kwonlyargs:
                where = f"{filename}:{node.lineno} {node.name}({param.arg})"
                if "slack" in param.arg.lower() or "budget" in param.arg.lower():
                    found.append(where)
                if param.arg == "ctx" and param in defaulted:
                    found.append(where + " has a default")
    assert found == []
    # schema v1's budgetSlack is spelled only where it is written as 4 and
    # where its type is checked (as key and as the name in the error)
    spelled = []
    for filename, tree in _package_modules():
        for node in ast.walk(tree):
            text = (node.value if isinstance(node, ast.Constant)
                    else getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "arg", None))
            if isinstance(text, str) and "slack" in text.lower():
                spelled.append(filename)
    assert spelled == ["certificates.py", "verifier.py", "verifier.py"]


def test_certificate_writers_hold_no_context():
    """A writer reads the group from the window it records, and a decider's
    result is its fields alone, so certificates.py names no context."""
    tree = dict(_package_modules())["certificates.py"]
    found = []
    for node in ast.walk(tree):
        for text in (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "arg", None), getattr(node, "name", None)):
            if text in ("ctx", "SetContext"):
                found.append(f"{node.lineno}: {text}")
    assert found == []


def test_group_is_not_passed_beside_its_window_or_context():
    """A window and a context each carry their group, and a window is the
    context of its checks, so no function takes a group parameter beside a
    window or ctx parameter, nor a ctx parameter beside a window."""
    found = []
    for filename, tree in _package_modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if "group" in params and params & {"window", "ctx"}:
                    found.append(f"{filename}:{node.lineno} {node.name}")
                if {"window", "ctx"} <= params:
                    found.append(f"{filename}:{node.lineno} {node.name} (ctx)")
    assert found == []


def test_verify_reads_points_from_the_window(tmp_path, monkeypatch):
    """Replaying a canonical match takes each row's point and translator from
    the window it built: the group's own reader (`_parse`) reads no text and
    `check` runs on no row, so the per-row work cannot come back unnoticed."""
    path = tmp_path / "match.json"
    argv = ["check", "--group", "free:2", "--set", "all", "--translators",
            "ball:1", "--window", "3", "--out", str(path), "--quiet"]
    assert paradox.cli.main(argv) == 0
    cert = json.loads(path.read_text())
    assert len(cert["assignment"]) == 53
    group_class = type(group_from_string("free:2"))
    calls = {"_parse": 0, "check": 0}
    for name in calls:
        original = getattr(group_class, name)

        def counted(self, arg, name=name, original=original):
            calls[name] += 1
            return original(self, arg)

        monkeypatch.setattr(group_class, name, counted)
    assert paradox.cli.main(["verify", str(path), "--quiet"]) == 0
    # the translators lie in the window; the generators are checked at most once
    assert calls["_parse"] == 0
    assert calls["check"] <= 4


def test_witness_verify_reads_only_off_window_texts(tmp_path, monkeypatch):
    """`verify` of the free:2 window-7 witness runs the group's own reader
    only on the texts its window has not shown: 4,373 off-window piece
    elements and translators of its 8,752 texts, where it read them all."""
    from paradox.certificates import witness_from_cert

    path = tmp_path / "witness.json"
    assert paradox.cli.main(["check", "--group", "free:2", "--set", "all",
                             "--translators", "ball:1", "--window", "7",
                             "--witness-out", str(path), "--quiet"]) == 0
    f2 = group_from_string("free:2")  # it has shown no window: every text is read
    w = witness_from_cert(json.loads(path.read_text()), f2)
    texts = [g for piece, t in w.parts for g in (*piece.elems, t)]
    off_window = sum(len(g) > 7 for g in texts)
    assert (len(texts), off_window) == (8752, 4373)
    calls = []
    original = type(f2)._parse

    def counted(self, text):
        calls.append(text)
        return original(self, text)

    monkeypatch.setattr(type(f2), "_parse", counted)
    assert paradox.cli.main(["verify", str(path), "--quiet"]) == 0
    assert len(calls) <= off_window


@pytest.mark.parametrize("argv, code", [
    (["check", "--group", "free:2", "--set", "all"], 0),
    (["check", "--group", "zn:1", "--set", "all"], 2),
    (["type-order", "--group", "zn:1", "--m", "1", "--set-a", "all", "--n", "1",
      "--set-b", "all"], 0),
    (["type-order", "--group", "zn:1", "--m", "3", "--set-a", "all", "--n", "1",
      "--set-b", "all"], 2),
], ids=["match", "deficiency", "flow", "flow-deficiency"])
def test_writers_show_each_point_once(tmp_path, monkeypatch, argv, code):
    """A certificate's rows take their points' texts from the window's text
    table, so producing one shows each window point and each translator at
    most once."""
    group = group_from_string(argv[2])
    calls = {"show": 0}
    original = type(group).show

    def counted(self, g):
        calls["show"] += 1
        return original(self, g)

    monkeypatch.setattr(type(group), "show", counted)
    argv = argv + ["--translators", "ball:1", "--window", "3",
                   "--out", str(tmp_path / "cert.json"), "--quiet"]
    assert paradox.cli.main(argv) == code
    assert calls["show"] <= len(group.ball_elements(3)) + len(group.ball_elements(1))


def test_doubling_matching_memory():
    """The transport graph and the matching hold int lists, not a tuple per
    edge or dicts keyed by vertex: on free:2 window 7 (4,373 points, 21,865
    edges) the solver's allocation peak stays under 3.5 MB.  It reads about
    3.0 MB; a tuple per edge and dicts keyed by vertex read about 4.2 MB."""
    from paradox.engine import doubling_matching
    from paradox.sets import AllSet

    f2 = group_from_string("free:2")
    translators = f2.ball_elements(1)
    small = ball(f2, 1)
    doubling_matching(AllSet(), translators, small)
    window = ball(f2, 7)
    tracemalloc.start()
    try:
        doubling_matching(AllSet(), translators, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6


def test_witness_replay_is_linear_in_its_parts(tmp_path):
    """The witness of free:2 window 7, cut into one-point parts (8,746 of
    them), verifies in under 1 s (about 0.3 s): comparing every pair of parts
    for overlap, or asking every part of a family at every window point
    whether it covers the point, took about 19 s."""
    from paradox.certificates import witness_fields, witness_from_cert
    from paradox.sets import FiniteSet
    from paradox.witness import ParadoxWitness

    path, cut_path = tmp_path / "witness.json", tmp_path / "cut.json"
    assert paradox.cli.main(["check", "--group", "free:2", "--set", "all",
                             "--translators", "ball:1", "--window", "7",
                             "--witness-out", str(path), "--quiet"]) == 0
    f2 = group_from_string("free:2")
    w = witness_from_cert(json.loads(path.read_text()), f2)
    first, second = ([(FiniteSet((x,)), t) for piece, t in parts for x in piece.elems]
                     for parts in (w.parts[:w.split], w.parts[w.split:]))
    cut = ParadoxWitness(w.set_expr, tuple(first + second), len(first))
    assert len(cut.parts) == 8746
    write_text(seal(witness_fields(cut, ball(f2, 7))), str(cut_path))
    start = time.perf_counter()
    assert paradox.cli.main(["verify", str(cut_path), "--quiet"]) == 0
    assert time.perf_counter() - start < 1.0


def test_each_call_builds_a_new_group():
    """No group is shared between commands or library calls, so no ball one
    of them enumerated can reach another's replay."""
    assert group_from_string("free:2") is not group_from_string("free:2")


# Runs the commands of argv[1] through `main` in one fresh interpreter, so that
# no group an earlier test built is counted or hides a leak, and prints, for
# each, its exit code and stderr lines, then the bytes still traced.
_HELD_AFTER = """
import contextlib, gc, io, json, sys, tracemalloc
from paradox.cli import main
tracemalloc.start()
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        print(main(argv), len(err.getvalue().splitlines()))
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""
_FREE1_WINDOW = ["check", "--group", "free:1", "--set", "all", "--translators", "ball:1",
                 "--window", "2000"]
_FREE2_WINDOW = ["check", "--group", "free:2", "--set", "all", "--translators", "ball:1",
                 "--window", "11"]


@pytest.fixture(scope="module")
def bs12w8(tmp_path_factory):
    cert = tmp_path_factory.mktemp("bs12") / "bs12w8.json"
    assert paradox.cli.main(
        ["check", "--group", "bs12", "--set", "semigroup((2,0),(2,1);e)",
         "--translators", "(2,0),(2,1)", "--window", "8", "--out", str(cert),
         "--quiet"]) == 0
    return str(cert)


@pytest.mark.parametrize("commands", [
    [_FREE1_WINDOW],
    [_FREE1_WINDOW, _FREE2_WINDOW],
    [["embed-f2", "--from-cert", "BS12W8", "--depth", "11"]],
], ids=["free1-window", "free1-then-free2-window", "embed-f2-depth"])
def test_refused_enumerations_are_freed_with_their_command(commands, bs12w8):
    """Each command refuses a ball past its cap with one line, and what it
    enumerated goes with its group: under 2 MB stays traced once `main` has
    returned.  A process-wide group cache held 32.9, 54.1 and 21.7 MB here,
    the last in a module-level free:2 of the embedding check."""
    commands = [[bs12w8 if a == "BS12W8" else a for a in argv] for argv in commands]
    proc = _run(["-c", _HELD_AFTER, json.dumps(commands)], None)
    assert proc.returncode == 0, proc.stderr
    *outcomes, held = proc.stdout.split("\n")[:-1]
    assert outcomes == ["1 1"] * len(commands)
    assert int(held) < 2e6


def test_every_error_class_is_a_value_error():
    """`main` prints every refusal of the package through one `except`
    clause, so every exception class a module defines is a ValueError."""
    import importlib

    not_value_errors = []
    for filename, _ in _package_modules():
        dotted = "paradox" + ("" if filename == "__init__.py" else "." + filename[:-3])
        module = importlib.import_module(dotted)
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and issubclass(obj, BaseException)
                    and not issubclass(obj, ValueError)):
                not_value_errors.append(f"{filename} {name}")
    assert not_value_errors == []


def test_flow_edge_ids_are_consecutive_even_numbers():
    """`type_order` reads each middle edge's flow at the id it was given, so
    `add_edge` numbers edges 0, 2, 4, ... in the order they are added, and
    `flow_on(eid)` reads the reverse edge eid ^ 1."""
    from paradox.flow import FlowNetwork

    net = FlowNetwork(4)
    ids = [net.add_edge(0, 1, 2), net.add_edge(1, 2, 1), net.add_edge(0, 2, 1),
           net.add_edge(2, 3, 3)]
    assert ids == [0, 2, 4, 6]
    assert net.max_flow(0, 3) == 2
    assert [net.flow_on(eid) for eid in ids] == [1, 1, 1, 2]
    assert [net.flow_on(eid) for eid in ids] == [net.cap[eid ^ 1] for eid in ids]
