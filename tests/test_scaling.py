"""Every reader whose input no cap bounds runs in time linear in its input.

Each reader runs at sizes n and 4n, best of 3 each, with n scaled up until
the small run takes at least 20 ms, so that timer noise stays small beside
it.  Linear work reads a ratio of about 4 and quadratic work about 16.  A
ratio above 8 is measured once more, so that a burst of load on a shared
host fails no linear reader, and fails if it reads above 8 again.  The
cyclic collector is off while a reader runs: a full collection walks every
object the test process holds, whatever n is."""

import gc
import time

import pytest

from paradox.certificates import (
    pi_witness_from_cert,
    transport_from_cert,
    window_from_descriptor,
)
from paradox.groups import ball, group_from_string
from paradox.sets import AllSet, FiniteSet, parse_setexpr
from paradox.witness import ParadoxWitness, witness_check


def _best(read, n):
    """The least of three timings of read(n)'s run; each run starts from no
    cache an earlier one filled, and the input is made outside the timing."""
    run, times = read(n), []
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return min(times)


def _ratio(read, n):
    """The time at 4n over the time at n, and n, scaled up on a fast host."""
    while (small := _best(read, n)) < 0.02:
        n = int(n * 0.025 / small) + 1
    return _best(read, 4 * n) / small, n


def _word_text(n):
    f2 = group_from_string("free:2")
    text = " ".join("ab"[i % 2] for i in range(n))
    return lambda: f2.parse(text)


def _translate_chains(n):
    """A chain of n prefixes on each of the three groups."""
    chains = [(group_from_string(key), prefix * n + "all")
              for key, prefix in (("free:2", "a*"), ("zn:2", "(1,0)*"), ("bs12", "(1,1)*"))]
    return lambda: [parse_setexpr(text, group) for group, text in chains]


def _zn1_texts(n):
    return ",".join(f"({k})" for k in range(1, n + 1))


def _finite_set(n):
    z1, text = group_from_string("zn:1"), f"finite{{{_zn1_texts(n)}}}"
    return lambda: parse_setexpr(text, z1)


def _semigroup(n):
    z1, text = group_from_string("zn:1"), f"semigroup({_zn1_texts(n)})"
    return lambda: parse_setexpr(text, z1)


def _transport_rows(n):
    """n match rows on a one-point window: all but one name off-window points,
    which the reader parses."""
    z1 = group_from_string("zn:1")
    data = {"kind": "match", "set": "all", "translators": ["(1)", "(-1)"],
            "assignment": [[f"({k})", "(1)", "(-1)"] for k in range(n)]}
    window = ball(z1, 0)
    return lambda: transport_from_cert(data, window)


def _witness_parts(n):
    """A witness of `all` on the zn:1 window of radius n in one-point parts:
    the first family's pieces are the window points, the second's lie
    10n + 1 to their right, and each part's translator moves it back."""
    z1 = group_from_string("zn:1")
    window = ball(z1, n)
    back, shift = z1.parse(f"({-10 * n - 1})"), z1.parse(f"({10 * n + 1})")
    parts = tuple((FiniteSet((g,)), z1.identity()) for g in window.elements)
    parts += tuple((FiniteSet((z1.mul(shift, g),)), back) for g in window.elements)
    w = ParadoxWitness(AllSet(), parts, len(window))

    def run():  # a new window, so that no compiled test is cached
        assert witness_check(w, ball(z1, n)).passed
    return run


def _cp_terms(n):
    """A cp-witness certificate whose v and w each have n single-entry terms,
    with distinct zn:1 translators and `finite{…}` pieces, all read with
    `group.parse` from a group that has shown no window."""
    z1 = group_from_string("zn:1")
    terms = [[f"({k})", [["1/2", f"finite{{({k}),({-k})}}"]]] for k in range(n)]
    data = {"set": "all", "v": terms, "w": terms}
    return lambda: pi_witness_from_cert(data, z1)


def _explicit_window(n):
    """n distinct free:2 words: the binary digits of k = 1..n as b and a."""
    texts = [" ".join("ab"[int(d)] for d in bin(k)[2:]) for k in range(1, n + 1)]
    return lambda: window_from_descriptor(group_from_string("free:2"),
                                          {"radius": 0, "elements": texts})


@pytest.mark.parametrize("read, n", [
    (_word_text, 130_000),
    (_translate_chains, 1_900),
    (_finite_set, 10_000),
    (_semigroup, 9_000),
    (_transport_rows, 9_500),
    (_witness_parts, 720),
    (_cp_terms, 700),
    (_explicit_window, 5_500),
], ids=["free2-word", "translate-chains", "finite", "semigroup", "transport-rows",
        "witness-parts", "cp-witness-terms", "explicit-window"])
def test_reader_is_linear(read, n):
    ratio, n = _ratio(read, n)
    if ratio > 8:
        ratio, n = _ratio(read, n)
    assert ratio <= 8, f"time at {4 * n} over time at {n}: {ratio:.1f}"
