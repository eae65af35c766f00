"""Benchmark of the `paradox` command-line tool.

    python3 perfbench/run.py --workload doubling|replay|symbolic|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs only the standard
library.  Each operation of a workload (see workloads.py) is a fresh paradox
process, started one at a time: a closed loop with a single client.  A run

1. decompresses the stored inputs into .perfbench_work/<workload>/ and checks
   their sha256;
2. correctness pass: runs every operation once with a PYTHONHASHSEED derived
   from --seed (this also warms the file cache);
3. timed pass: repeats the whole operation list with PYTHONHASHSEED=0 until
   --seconds have passed, in an order drawn from --seed;
4. checks outputs: exit codes, tracebacks, pinned sha256 of written bytes,
   equal bytes under both hash seeds, and `paradox verify` on every
   certificate produced;
5. with --trace 1, runs the list once more with the tracer (tracer.py) and
   runs the layer probes (probes.py).

End-to-end metrics (sums and maxima over the operations of per-operation
medians across the timed repetitions):
  wall_s       spawn to exit of each process
  cpu_s        user + system CPU time of the child, from os.wait4
  setup_s      spawn until paradox.cli.main is entered (start-up + import)
  peak_rss_mb  largest max-RSS among the processes

The last line of standard output is one JSON object: `correct` is false when
some operation gave a wrong answer (wrong exit code, wrong bytes, output that
depends on the hash seed, a certificate `verify` rejects); `failed` counts the
operations that crashed or gave a wrong answer, out of `attempted`.  With
--trace 0 it carries the end-to-end metrics, with --trace 1 the per-layer
ones; every metric is printed by name and unit above it.  The environment
and every operation's outcome are written to .perfbench_work/<workload>/
result.json, the spans of the traced pass to trace.json beside it.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import PER_LAYER, layer_metrics
from workloads import INPUTS, TAMPERED_SHA, WORKLOADS, Op, tamper

HERE = Path(__file__).resolve().parent
TIMED_HASH_SEED = 0
OP_TIMEOUT_S = 60
TRACEBACK = b"Traceback (most recent call last)"
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


@dataclass
class Result:
    exit: int
    wall: float
    cpu: float
    setup: float
    rss_mb: float
    out_sha: str | None
    out_bytes: int
    stdout: bytes
    stderr: bytes

    def signature(self):
        return (self.exit, self.out_sha, self.stdout, self.stderr)


class Runner:
    """Starts paradox processes one at a time and measures each."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        base = {k: os.environ[k] for k in ("PATH", "HOME", "LANG") if k in os.environ}
        self.base_env = {**base, "PYTHONPATH": str(root / "src"),
                         "PYTHONIOENCODING": "utf-8"}

    def run(self, argv, hash_seed: int, tag: str, extra_env=None,
            script: Path = HERE / "child.py") -> Result:
        log = self.work / "log"
        out = self.work / "out" / f"{tag}.out"
        mark = log / f"{tag}.mark"
        for stale in (out, mark):
            stale.unlink(missing_ok=True)
        argv = [str(out) if a == "OUT" else
                str(self.work / "data" / a[5:]) if a.startswith("data:") else a
                for a in argv]
        env = {**self.base_env, "PYTHONHASHSEED": str(hash_seed), **(extra_env or {})}
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(log / f"{tag}.stdout"), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(log / f"{tag}.stderr"), flags, 0o644),
        ]
        cmd = [sys.executable, str(script)]
        if script.name == "child.py":
            cmd.append(str(mark))
        start = time.monotonic_ns()
        pid = os.posix_spawn(sys.executable, cmd + argv, env, file_actions=actions)
        status, usage = _wait(pid, argv)
        end = time.monotonic_ns()
        try:
            entered = int(mark.read_text().split()[0])
        except (OSError, ValueError, IndexError):
            entered = end  # died before main: all of it counts as set-up
        data = out.read_bytes() if out.exists() else None
        return Result(
            exit=os.waitstatus_to_exitcode(status),
            wall=(end - start) / 1e9,
            cpu=usage.ru_utime + usage.ru_stime,
            setup=(entered - start) / 1e9,
            rss_mb=usage.ru_maxrss / 1024,
            out_sha=hashlib.sha256(data).hexdigest() if data is not None else None,
            out_bytes=len(data) if data is not None else 0,
            stdout=(log / f"{tag}.stdout").read_bytes(),
            stderr=(log / f"{tag}.stderr").read_bytes(),
        )


def _wait(pid: int, argv):
    """wait4 for the child.  One that runs past OP_TIMEOUT_S is killed and
    ends the benchmark run, which could not finish in time otherwise."""
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BaseException as exc:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        if isinstance(exc, _Timeout):
            raise BenchError(f"`paradox {' '.join(argv)}` ran past {OP_TIMEOUT_S} s") from None
        raise
    return status, usage


def judge(op: Op, r: Result) -> tuple[str, str] | None:
    """None when the outcome is right, else ("crash" | "wrong", reason)."""
    if TRACEBACK in r.stderr or r.exit < 0:
        last = r.stderr.strip().splitlines()[-1:] or [b"killed by a signal"]
        return "crash", f"exit {r.exit}: {last[0].decode(errors='replace')}"
    if r.exit != op.exit:
        return "wrong", f"exit {r.exit}, expected {op.exit}"
    if op.out_sha is not None and r.out_sha != op.out_sha:
        return "wrong", "written bytes differ from the pinned sha256"
    if op.certificate and r.out_sha is None:
        return "wrong", "no certificate written"
    return None


def prepare_inputs(work: Path) -> None:
    data = work / "data"
    data.mkdir(parents=True)
    for name, sha in INPUTS.items():
        raw = gzip.decompress((HERE / "data" / f"{name}.gz").read_bytes())
        if hashlib.sha256(raw).hexdigest() != sha:
            raise BenchError(f"stored input {name} does not match its sha256")
        (data / name).write_bytes(raw)
    tampered = tamper((data / "f2w8.json").read_bytes())
    if hashlib.sha256(tampered).hexdigest() != TAMPERED_SHA:
        raise BenchError("tampered input does not match its sha256")
    (data / "tampered.json").write_bytes(tampered)
    (data / "empty.json").write_bytes(b"[]\n")


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, root: Path, seed: int, seconds: float, trace: bool):
    ops = WORKLOADS[name]
    work = root / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("log", "out", "trace"):
        (work / sub).mkdir(parents=True)
    prepare_inputs(work)
    runner = Runner(root, work)
    rng = random.Random(seed)
    order = list(ops)
    rng.shuffle(order)
    check_seed = rng.randrange(1, 2**32)  # never the timed hash seed 0
    problems: dict[str, tuple[str, str]] = {}

    def note(op, verdict):
        if verdict and op.name not in problems:
            problems[op.name] = verdict

    # correctness pass under the second hash seed; also warms the caches
    checked = {op.name: runner.run(op.argv, check_seed, f"{op.name}.check")
               for op in order}

    samples: dict[str, list[Result]] = {op.name: [] for op in ops}
    began = time.monotonic()
    while True:
        for op in order:
            r = runner.run(op.argv, TIMED_HASH_SEED, f"{op.name}.timed")
            note(op, judge(op, r))
            samples[op.name].append(r)
        if time.monotonic() - began >= seconds:
            break

    for op in order:
        first, other = samples[op.name][0], checked[op.name]
        note(op, judge(op, other))
        if first.signature() != other.signature():
            note(op, ("wrong", f"output differs between PYTHONHASHSEED="
                               f"{TIMED_HASH_SEED} and {check_seed}"))
        if op.certificate and other.exit == op.exit and other.out_sha:
            v = runner.run(["verify", str(work / "out" / f"{op.name}.check.out"),
                            "--quiet"], TIMED_HASH_SEED, f"{op.name}.verify")
            if v.exit != 0 or TRACEBACK in v.stderr:
                note(op, ("wrong", f"`paradox verify` rejects its certificate "
                                   f"(exit {v.exit})"))

    def median(op, field):
        return statistics.median(getattr(r, field) for r in samples[op.name])

    metrics = {
        "wall_s": sum(median(op, "wall") for op in ops),
        "cpu_s": sum(median(op, "cpu") for op in ops),
        "setup_s": sum(median(op, "setup") for op in ops),
        "peak_rss_mb": max(median(op, "rss_mb") for op in ops),
    }
    units = dict(END_TO_END)
    layers = {}
    if trace:
        traces, traced_wall = [], 0.0
        for op in order:
            path = work / "trace" / f"{op.name}.json"
            r = runner.run(op.argv, TIMED_HASH_SEED, f"{op.name}.traced",
                           {"PERFBENCH_TRACE": str(path), "PERFBENCH_OP": op.name})
            note(op, judge(op, r))
            traced_wall += r.wall
            if path.exists():
                traces.append(json.loads(path.read_text()))
        (work / "trace.json").write_text(json.dumps(traces))
        layers = layer_metrics(traces)
        layers["trace.overhead_ratio"] = traced_wall / metrics["wall_s"]
        probe = runner.run([str(seed)], TIMED_HASH_SEED, "probes",
                           script=HERE / "probes.py")
        if probe.exit != 0:
            raise BenchError("layer probes failed:\n" + probe.stderr.decode(errors="replace"))
        layers.update(json.loads(probe.stdout))
        layers = {m: layers[m] for m, _, _, _ in PER_LAYER}
        units.update((m, unit) for m, unit, _, _ in PER_LAYER)

    failed = len(problems)
    correct = not any(kind == "wrong" for kind, _ in problems.values())
    env = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": sys.version.split()[0], "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "hash_seed_timed": TIMED_HASH_SEED, "hash_seed_check": check_seed,
        "repetitions": len(samples[ops[0].name]),
    }
    print(f"== {name}: " + ", ".join(f"{k} {v}" for k, v in env.items() if k != "workload"))
    op_records = []
    for op in ops:
        last = samples[op.name][-1]
        record = {"name": op.name, "argv": list(op.argv), "expected_exit": op.exit,
                  "exit": last.exit, "out_bytes": last.out_bytes,
                  "wall_s": median(op, "wall"), "setup_s": median(op, "setup"),
                  "wall_s_each": [r.wall for r in samples[op.name]]}
        if op.name in problems:
            record["failure"] = "%s: %s" % problems[op.name]
        op_records.append(record)
        print(f"  {op.name}: exit {last.exit} (expected {op.exit}), "
              f"{last.out_bytes} bytes out, wall {record['wall_s']:.3f} s"
              + (f"  FAILED {record['failure']}" if op.name in problems else ""))
    print(f"{name} failed_ops {failed}/{len(ops)}")
    for metric, unit in END_TO_END:
        print(f"{name} {metric} {metrics[metric]:.4f} {unit}")
    for metric, unit, better, moves in PER_LAYER if trace else ():
        print(f"{name} {metric} {layers[metric]:.6g} {unit}  ({better} is better; "
              f"should move {moves})")
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": layers if trace else metrics}
    (work / "result.json").write_text(json.dumps(
        {**result, "end_to_end": metrics, "environment": env, "operations": op_records},
        indent=2))
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in result["metrics"].items()}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "paradox" / "cli.py").is_file():
        print("error: run from the root of a paradox checkout (no src/paradox/cli.py)",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, root, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
