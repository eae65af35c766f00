"""Layer probes: time direct calls to public paradox functions, outside the
workloads, in a fresh process.

    python perfbench/probes.py SEED

Prints one JSON object of microseconds per call: `groups.mul_us.<group>` for
`Group.mul` on random pairs from a ball, and `sets.member_us.<set>` for
`sets.member` on random points.  Each figure is the median of five passes.
"""

import json
import random
import statistics
import sys
import time

from paradox.groups import group_from_string
from paradox.sets import SetContext, member, parse_setexpr

PASSES = 5
MUL = {"free2": ("free:2", 4), "zn2": ("zn:2", 10), "bs12": ("bs12", 4)}
# set name -> (group, expression, radius of the ball the points come from,
#              number of points)
MEMBER = {
    "all": ("free:2", "all", 4, 20000),
    "composite": ("free:2", r"a*(ball(2)|b*ball(1))&(all\finite{a,b})", 4, 5000),
    "ball_bs12": ("bs12", "ball(5)", 6, 300),
}


def per_call_us(call, inputs) -> float:
    passes = []
    for _ in range(PASSES):
        start = time.perf_counter()
        for x, y in inputs:
            call(x, y)
        passes.append((time.perf_counter() - start) / len(inputs) * 1e6)
    return statistics.median(passes)


def main() -> int:
    rng = random.Random(int(sys.argv[1]))
    out = {}
    for name, (spec, radius) in MUL.items():
        group = group_from_string(spec)
        elems = group.ball_elements(radius)
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(20000)]
        out[f"groups.mul_us.{name}"] = per_call_us(group.mul, pairs)
    for name, (spec, text, radius, count) in MEMBER.items():
        group = group_from_string(spec)
        expr = parse_setexpr(text, group)
        ctx = SetContext(group)
        elems = group.ball_elements(radius)
        points = [(expr, rng.choice(elems)) for _ in range(count)]
        out[f"sets.member_us.{name}"] = per_call_us(
            lambda e, g: member(e, g, ctx), points)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
