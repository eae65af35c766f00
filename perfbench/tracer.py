"""Per-layer tracing of one `paradox` CLI process, and the per-layer metrics
derived from the traces of a workload.

`Tracer.install` wraps the public functions of each paradox module (and the
group and flow methods named in `METHODS`) from outside the package.  A call
to a function in `HOT` only adds to an aggregate (calls and self time); every
other call becomes a span [name, start, end, parent span, self time].  Self
time is a call's duration minus the durations of the wrapped calls made
inside it, hot or not.  `dump` writes everything out when the process ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from collections import Counter

MODULES = (
    "groups", "dyadic", "sets", "pwt", "matching", "flow", "witness", "engine",
    "crossed", "certificates", "verifier", "smallsets", "embedding", "induced",
)
# Methods wrapped on every class of the module that defines them, so each
# Group subclass is covered: method name -> span name.
METHODS = {
    "groups": {"mul": "groups.mul", "inv": "groups.inv", "parse": "groups.parse",
               "ball_elements": "groups.ball"},
    "flow": {"max_flow": "flow.max_flow"},
}
# Aggregated instead of recorded as spans: the group and membership calls,
# and the functions that run once per window point (thousands of calls).
HOT = {"groups.mul", "groups.inv", "groups.parse", "sets.member",
       "sets.member_strict", "groups.affine_fraction", "crossed.coeff_value",
       "pwt.pwt_apply", "embedding.eval_embedding"}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, child seconds, span index]
        self.spans: list[list] = []
        self.hot: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters: dict[str, float] = {}
        self.covered = [0.0]  # time inside top-level wrapped calls

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        modules = [importlib.import_module(f"paradox.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, modules):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapped[fn] = tracer._wrap(f"{short}.{attr}", fn)
            for method, name in METHODS.get(short, {}).items():
                for klass in vars(mod).values():
                    if (inspect.isclass(klass) and klass.__module__ == mod.__name__
                            and method in vars(klass)):
                        setattr(klass, method, tracer._wrap(name, vars(klass)[method]))
        # rebind every `from .x import f` copy as well
        for mod in modules + [importlib.import_module("paradox.cli")]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
        return tracer

    def _wrap(self, name, fn):
        stack, spans, covered = self.stack, self.spans, self.covered
        observe = _OBSERVERS.get(name)
        counters = self.counters
        clock = time.perf_counter
        agg = self.hot.setdefault(name, [0, 0.0]) if name in HOT else None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = None
            if agg is None:
                span = [name, 0.0, 0.0, parent[2] if parent else -1, 0.0]
                spans.append(span)
                frame = [name, 0.0, len(spans) - 1]
            else:
                frame = [name, 0.0, parent[2] if parent else -1]
            stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if span is None:
                    agg[0] += 1
                    agg[1] += dur - frame[1]
                else:
                    span[1], span[2], span[4] = t0, t1, dur - frame[1]
                if parent:
                    parent[1] += dur
                else:
                    covered[0] += dur
                if observe:
                    observe(counters, args, result, exc, parent[0] if parent else "")

        return wrapper

    def dump(self, path: str, op: str, main_s: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"op": op, "main_s": main_s, "covered_s": self.covered[0],
                       "hot": self.hot, "counters": self.counters,
                       "spans": self.spans}, fh)


def _bump(counters, key, by=1):
    counters[key] = counters.get(key, 0) + by


def _observe_member(counters, args, result, exc, parent):
    _bump(counters, "member.kind." + type(args[0]).__name__)
    if result is not None and result is not True and result is not False:
        _bump(counters, "member.undecided")  # BUDGET_EXCEEDED
    if parent.startswith("engine."):
        _bump(counters, "engine.member.calls")
        if result is True:
            _bump(counters, "engine.member.true")


def _observe_matching(counters, args, result, exc, parent):
    lefts, adjacency = args[0], args[1]
    _bump(counters, "matching.lefts", len(lefts))
    _bump(counters, "matching.edges", sum(len(adjacency[u]) for u in lefts))


def _observe_flow(counters, args, result, exc, parent):
    net = args[0]
    _bump(counters, "flow.nodes", net.n)
    _bump(counters, "flow.edges", len(net.to) // 2)


def _observe_write(counters, args, result, exc, parent):
    if exc is None:
        _bump(counters, "certificates.bytes_out", os.path.getsize(args[1]))


def _observe_verdict(counters, args, result, exc, parent):
    if exc is None:
        _bump(counters, "verdicts.ok" if result.ok else "verdicts.failed")
    elif type(exc).__name__ == "CertificateFormatError":
        _bump(counters, "verdicts.format_error")


_OBSERVERS = {
    "sets.member": _observe_member,
    "matching.max_matching": _observe_matching,
    "flow.max_flow": _observe_flow,
    "certificates.write_certificate": _observe_write,
    "verifier.verify_certificate": _observe_verdict,
}


# ---- per-layer metrics of a workload ---------------------------------------

KINDS = ("AllSet", "EmptySet", "FiniteSet", "BallSet", "Translate", "Union",
         "Intersect", "Diff", "SemigroupSet", "Slab", "GreedySet")
EMIT = {"certificates.cert_from_match", "certificates.cert_from_deficiency",
        "certificates.cert_from_witness", "certificates.cert_from_flow",
        "certificates.cert_from_flow_deficiency",
        "certificates.cert_from_pi_witness", "certificates.canonical_json",
        "certificates.write_certificate"}
DIGEST = {"certificates.content_digest", "certificates.window_digest"}

# name, unit, better, the end-to-end metric and workloads it should move
PER_LAYER = [
    ("groups.mul.calls", "count", "lower", "wall_s/cpu_s on symbolic, doubling"),
    ("groups.inv.calls", "count", "lower", "wall_s/cpu_s on symbolic, doubling"),
    ("groups.parse.calls", "count", "lower", "wall_s on replay"),
    ("groups.ball.self_s", "s", "lower", "wall_s/cpu_s on symbolic, doubling"),
    ("groups.self_s", "s", "lower", "wall_s/cpu_s on symbolic, doubling"),
    *[(f"sets.member.calls.{kind}", "count", "lower", "wall_s on replay, symbolic")
      for kind in KINDS],
    ("sets.member.undecided", "count", "lower", "wall_s on replay, symbolic"),
    ("sets.member.self_s", "s", "lower", "wall_s on replay, symbolic"),
    ("sets.materialize.self_s", "s", "lower", "wall_s on replay, symbolic"),
    ("sets.parse_setexpr.self_s", "s", "lower", "wall_s on replay, symbolic"),
    ("engine.doubling_matching.self_s", "s", "lower", "wall_s on doubling"),
    ("engine.type_order.self_s", "s", "lower", "wall_s on doubling"),
    ("engine.edge_hit_ratio", "ratio", "higher", "wall_s on doubling"),
    ("matching.max_matching.s", "s", "lower", "wall_s, peak_rss_mb on doubling"),
    ("matching.alternating_reachable.s", "s", "lower",
     "wall_s, peak_rss_mb on doubling"),
    ("matching.lefts", "count", "lower", "wall_s, peak_rss_mb on doubling"),
    ("matching.edges", "count", "lower", "wall_s, peak_rss_mb on doubling"),
    ("flow.max_flow.s", "s", "lower", "wall_s, peak_rss_mb on doubling"),
    ("flow.nodes", "count", "lower", "wall_s, peak_rss_mb on doubling"),
    ("flow.edges", "count", "lower", "wall_s, peak_rss_mb on doubling"),
    ("certificates.emit.s", "s", "lower", "wall_s on doubling"),
    ("certificates.bytes_out", "bytes", "lower", "wall_s on doubling"),
    ("certificates.load.s", "s", "lower", "wall_s on replay"),
    ("certificates.digest.s", "s", "lower", "wall_s on replay"),
    ("verifier.verify_certificate.self_s", "s", "lower", "wall_s on replay"),
    ("verifier.verdicts.ok", "count", "higher", "wall_s on replay"),
    ("verifier.verdicts.failed", "count", "lower", "wall_s on replay"),
    ("verifier.verdicts.format_error", "count", "higher", "wall_s on replay"),
    ("crossed.pi_witness.s", "s", "lower", "wall_s on symbolic, replay"),
    ("crossed.verify_pi_witness.self_s", "s", "lower", "wall_s on symbolic, replay"),
    ("crossed.cp_mul.calls", "count", "lower", "wall_s on symbolic, replay"),
    ("smallsets.greedy_small_set.self_s", "s", "lower", "wall_s on symbolic"),
    ("smallsets.check_pair_intersections.self_s", "s", "lower", "wall_s on symbolic"),
    ("witness.witness_check.self_s", "s", "lower", "wall_s on replay, symbolic"),
    ("embedding.build_embedding.s", "s", "lower", "wall_s on symbolic"),
    ("embedding.check_injective_lipschitz.self_s", "s", "lower", "wall_s on symbolic"),
    ("induced.induce_witness.s", "s", "lower", "wall_s on symbolic"),
    ("groups.mul_us.free2", "us", "lower", "wall_s on symbolic, replay"),
    ("groups.mul_us.zn2", "us", "lower", "wall_s on symbolic, replay"),
    ("groups.mul_us.bs12", "us", "lower", "wall_s on symbolic, replay"),
    ("sets.member_us.all", "us", "lower", "wall_s on symbolic, replay"),
    ("sets.member_us.composite", "us", "lower", "wall_s on symbolic, replay"),
    ("sets.member_us.ball_bs12", "us", "lower", "wall_s on symbolic, replay"),
    ("trace.overhead_ratio", "ratio", "lower", "nothing: traced over untraced wall_s"),
    ("trace.unattributed_share", "ratio", "lower",
     "nothing: share of main() time outside top-level spans"),
]


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one workload from the traces of its operations
    (all except the probe and overhead figures, which run.py measures)."""
    calls, own, incl, counters = Counter(), Counter(), Counter(), Counter()
    emit = digest = main = covered = 0.0
    for trace in traces:
        main += trace["main_s"]
        covered += trace["covered_s"]
        counters.update(trace["counters"])
        for name, (n, self_s) in trace["hot"].items():
            calls[name] += n
            own[name] += self_s
        spans = trace["spans"]
        for name, start, end, parent, self_s in spans:
            calls[name] += 1
            own[name] += self_s
            above = set()
            while parent >= 0:
                above.add(spans[parent][0])
                parent = spans[parent][3]
            if name not in above:  # outermost call of a recursion
                incl[name] += end - start
            if name in EMIT and not above & (EMIT | DIGEST):
                emit += end - start
            if name in DIGEST and not above & DIGEST:
                digest += end - start
    edge_calls = counters["engine.member.calls"]
    m = {
        "groups.mul.calls": calls["groups.mul"],
        "groups.inv.calls": calls["groups.inv"],
        "groups.parse.calls": calls["groups.parse"],
        "groups.ball.self_s": own["groups.ball"],
        "groups.self_s": sum(v for k, v in own.items() if k.startswith("groups.")),
        **{f"sets.member.calls.{k}": counters[f"member.kind.{k}"] for k in KINDS},
        "sets.member.undecided": counters["member.undecided"],
        "engine.edge_hit_ratio":
            counters["engine.member.true"] / edge_calls if edge_calls else 0.0,
        "matching.lefts": counters["matching.lefts"],
        "matching.edges": counters["matching.edges"],
        "flow.nodes": counters["flow.nodes"],
        "flow.edges": counters["flow.edges"],
        "certificates.emit.s": emit,
        "certificates.bytes_out": counters["certificates.bytes_out"],
        "certificates.load.s": incl["certificates.load_certificate"],
        "certificates.digest.s": digest,
        "crossed.cp_mul.calls": calls["crossed.cp_mul"],
        "trace.unattributed_share": (main - covered) / main if main else 0.0,
    }
    for verdict in ("ok", "failed", "format_error"):
        m[f"verifier.verdicts.{verdict}"] = counters[f"verdicts.{verdict}"]
    for name, _, _, _ in PER_LAYER:
        if name in m:
            continue
        func, _, what = name.rpartition(".")
        if what == "self_s":
            m[name] = own[func]
        elif what == "s":
            m[name] = incl[func]
    return m
