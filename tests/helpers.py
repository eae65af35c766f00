"""Independent oracles used to cross-check the package's algorithms.

These deliberately avoid the package's matching, flow, and enumeration code
paths: brute-force word enumeration, Kuhn's augmenting-path matching, and
subset-exhaustive Hall checks.
"""

from __future__ import annotations

import itertools


def brute_free_ball(rank: int, radius: int) -> set[tuple[int, ...]]:
    """All reduced words of length <= radius by filtering raw products."""
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    out = {()}
    for length in range(1, radius + 1):
        for combo in itertools.product(letters, repeat=length):
            if all(combo[i] != -combo[i + 1] for i in range(length - 1)):
                out.add(combo)
    return out


def brute_positive_words(group, gens, length):
    """Values of all positive words up to the given length, by direct product."""
    values = {group.identity()}
    for n in range(1, length + 1):
        for combo in itertools.product(gens, repeat=n):
            v = group.identity()
            for g in combo:
                v = group.mul(v, g)
            values.add(v)
    return values


def kuhn_matching(lefts, adjacency):
    """Classic augmenting-path maximum matching (no BFS layering), used as an
    oracle independent of the package's Hopcroft-Karp implementation."""
    pair_right: dict = {}

    def try_augment(u, seen) -> bool:
        for v in adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in pair_right or try_augment(pair_right[v], seen):
                pair_right[v] = u
                return True
        return False

    size = 0
    for u in lefts:
        if try_augment(u, set()):
            size += 1
    return size


def doubling_exists_oracle(group, points, s_list, member_fn) -> bool:
    """Does a two-fold matching exist?  Decided by Kuhn's algorithm on the
    doubled graph, fully independently of the engine."""
    lefts = [(x, i) for x in points for i in (0, 1)]
    adjacency = {}
    for x, i in lefts:
        adjacency[(x, i)] = [
            group.mul(s, x) for s in s_list if member_fn(group.mul(s, x))
        ]
    return kuhn_matching(lefts, adjacency) == len(lefts)


# ---- certificate mutations --------------------------------------------------
#
# Every operator below is invalidating by construction (see the comments), so
# a verifier that accepts a mutated certificate has a soundness hole.

import copy
import json

from paradox.certificates import content_digest, seal
from paradox.groups import group_from_string


def sealed(fields):
    """The certificate of a writer's fields as `verify` reads it: the JSON of
    the text `seal` gives, which is the text a command writes."""
    return json.loads(seal(fields))


def _redigest(cert):
    cert["digest"] = content_digest(cert)
    return cert


def _far_element(group):
    g = group.identity()
    for gen in (group.generators()[0],) * 9:
        g = group.mul(g, gen)
    return group.show(g)


def mutation_operators(cert):
    """Applicable (name, function) pairs for one certificate dict; each
    function returns a mutated copy that must fail verification."""
    group = group_from_string(cert["group"])
    kind = cert["kind"]
    ops = []

    def op(name):
        def register(fn):
            ops.append((name, fn))
            return fn

        return register

    if kind == "match" and cert["assignment"]:

        @op("match-equal-translators")
        def _(c, rng):
            # the two images of one point collide
            row = rng.randrange(len(c["assignment"]))
            c["assignment"][row][1] = c["assignment"][row][2]
            return _redigest(c)

        @op("match-drop-entry")
        def _(c, rng):
            # the assignment no longer covers the window slice
            c["assignment"].pop(rng.randrange(len(c["assignment"])))
            return _redigest(c)

        @op("match-undeclared-translator")
        def _(c, rng):
            row = rng.randrange(len(c["assignment"]))
            c["assignment"][row][1] = _far_element(group)
            return _redigest(c)

    if kind in ("deficiency", "flow-deficiency") and cert["violator"]:

        @op("violator-foreign-point")
        def _(c, rng):
            # the inserted point lies far outside every tested window
            c["violator"].append(_far_element(group))
            return _redigest(c)

        @op("violator-emptied")
        def _(c, rng):
            c["violator"] = []
            return _redigest(c)

        @op("violator-duplicate")
        def _(c, rng):
            c["violator"].append(c["violator"][0])
            return _redigest(c)

    if kind == "witness" and cert["parts"]:

        @op("witness-duplicate-piece")
        def _(c, rng):
            # nonempty duplicated piece breaks disjointness
            row = rng.randrange(len(c["parts"]))
            c["parts"].insert(row, copy.deepcopy(c["parts"][row]))
            return _redigest(c)

        @op("witness-drop-piece")
        def _(c, rng):
            # every emitted piece is nonempty, so a family loses coverage
            c["parts"].pop(rng.randrange(len(c["parts"])))
            return _redigest(c)

        @op("witness-shift-translator")
        def _(c, rng):
            # finite nonempty blocks are never translation invariant
            row = rng.randrange(len(c["parts"]))
            t = group.parse(c["parts"][row]["translator"])
            gen = group.generators()[rng.randrange(len(group.generators()))]
            c["parts"][row]["translator"] = group.show(group.mul(t, gen))
            return _redigest(c)

    if kind == "flow" and cert["assignment"]:

        @op("flow-drop-entry")
        def _(c, rng):
            c["assignment"].pop(rng.randrange(len(c["assignment"])))
            return _redigest(c)

        @op("flow-undeclared-translator")
        def _(c, rng):
            row = rng.randrange(len(c["assignment"]))
            c["assignment"][row][1][0] = _far_element(group)
            return _redigest(c)

        @op("flow-wrong-copy-count")
        def _(c, rng):
            row = rng.randrange(len(c["assignment"]))
            c["assignment"][row][1].append(c["assignment"][row][1][0])
            return _redigest(c)

    if kind == "cp-witness":

        @op("cp-retarget-unitary")
        def _(c, rng):
            # multiplying one unitary label breaks an isometry identity
            side = rng.choice(["v", "w"])
            row = rng.randrange(len(c[side]))
            t = group.parse(c[side][row][0])
            gen = group.generators()[rng.randrange(len(group.generators()))]
            c[side][row][0] = group.show(group.mul(t, gen))
            return _redigest(c)

        @op("cp-empty-coefficient")
        def _(c, rng):
            side = rng.choice(["v", "w"])
            row = rng.randrange(len(c[side]))
            c[side][row][1] = [["1", "empty"]]
            return _redigest(c)

    @op("stale-digest")
    def _(c, rng):
        # a digested field edited without recomputing the content digest
        c["budgetSlack"] = int(c.get("budgetSlack", 4)) + 1
        return c

    @op("window-retagged")
    def _(c, rng):
        # the recorded window digest no longer matches the descriptor
        c["window"] = dict(c["window"])
        c["window"]["radius"] = int(c["window"]["radius"]) + 1
        return _redigest(c)

    return ops


def mutate_certificate(cert, rng):
    """Pick one invalidating mutation at random; returns (name, mutated)."""
    ops = mutation_operators(cert)
    name, fn = ops[rng.randrange(len(ops))]
    return name, fn(copy.deepcopy(cert), rng)


# ---- one-key edits of a certificate ------------------------------------------

# one value of each JSON type: null, bool, int, float, string, array, object
_JSON_VALUES = (None, True, 1, 0.5, "x", [], {})


def one_key_edits(cert):
    """(label, edited copy) for each top-level key but `digest`: the key
    dropped, then its value swapped for each JSON type it is not.  The copies
    keep the old digest; reseal them to reach replay."""
    for key, value in cert.items():
        if key == "digest":
            continue
        yield f"drop {key}", {k: v for k, v in cert.items() if k != key}
        for other in _JSON_VALUES:
            if type(other) is not type(value):
                yield f"{key} as {json.dumps(other)}", dict(cert, **{key: other})


def _slots(node, path):
    """(path, value) of every key of every object and of the first and last
    element of every array inside node, each followed by the slots inside
    its value."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = sorted({0, len(node) - 1}) if node else []
    else:
        return
    for key in keys:
        yield path + (key,), node[key]
        yield from _slots(node[key], path + (key,))


def _edited_at(cert, path, *value):
    """A copy of cert with the slot at path set to value, or dropped when no
    value is given."""
    edited = copy.deepcopy(cert)
    parent = edited
    for key in path[:-1]:
        parent = parent[key]
    if value:
        parent[path[-1]] = value[0]
    else:
        del parent[path[-1]]
    return edited


def balanced_union(leaves):
    """The text of a union of the leaves, parenthesised as a balanced binary
    tree, so that it nests only about log2(len(leaves)) deep."""
    if len(leaves) == 1:
        return leaves[0]
    half = len(leaves) // 2
    return f"({balanced_union(leaves[:half])}|{balanced_union(leaves[half:])})"


def nested_edits(cert):
    """(label, edited copy) below the top level: every key of every object
    and the first and last element of every array dropped, then its value
    swapped for each JSON type it is not; and each set expression swapped
    for the semigroup of the group's first generator.  The copies keep the
    old digest; reseal them to reach replay."""
    for key, value in cert.items():
        for path, inner in _slots(value, (key,)):
            name = key + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                                 for k in path[1:])
            yield f"drop {name}", _edited_at(cert, path)
            for other in _JSON_VALUES:
                if type(other) is not type(inner):
                    yield f"{name} as {json.dumps(other)}", _edited_at(cert, path, other)
    group = group_from_string(cert["group"])
    semigroup = f"semigroup({group.show(group.generators()[0])})"
    for key in ("set", "setA", "setB"):
        if key in cert:
            yield f"{key} as {semigroup}", dict(cert, **{key: semigroup})


# ---- memory-limited command runs --------------------------------------------

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CLI_ADDRESS_SPACE = 1 << 30  # bytes: a runaway allocation fails here, not the host
CLI_TIMEOUT = 120  # seconds before the run is killed and the test fails


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CLI_ADDRESS_SPACE, CLI_ADDRESS_SPACE))


def run_cli_limited(argv):
    """Run `python -m paradox.cli *argv` in a subprocess, with PYTHONPATH=src
    and a 1 GB RLIMIT_AS set in the child only.  Returns (exit code, stderr,
    seconds)."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "paradox.cli", *map(str, argv)],
        capture_output=True, text=True, timeout=CLI_TIMEOUT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=_limit_address_space,
    )
    return proc.returncode, proc.stderr, time.perf_counter() - started
