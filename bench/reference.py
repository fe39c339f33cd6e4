"""Reference kernel: a fixed, benchmark-owned Python loop timed next to every
case, so that time measurements can be scaled to one host speed.

Other tenants of a shared host can slow this process's CPU by up to 2x for
tens of seconds; process CPU time does not exclude that.  Each case's time is
divided by the mean time of the kernel runs just before and after it and
multiplied by ``NOMINAL_S``, the kernel's CPU time on the quiet development
host (see README.md).  The kernel does the kind of work the engine does
(a slotted context, tuple reads and builds, one rule call per cell) but
imports nothing from ``gca``, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import NamedTuple

NOMINAL_S = 0.00045


class _Ctx:
    __slots__ = ("i", "cell", "nb")


class _Pair(NamedTuple):
    a: int
    b: int


def _rule(ctx) -> int:
    return (ctx.cell[0] + ctx.nb[0][0]) & 1


_CELLS = [(i & 1, (1,)) for i in range(400)]


def kernel() -> None:
    """One step of a one-arm automaton over 400 cells, then the same cells
    rebuilt through a named tuple, a dict and list copies: the engine's
    tight loop and the allocation-heavy work around it."""
    cells = _CELLS
    n = len(cells)
    ctx = _Ctx()
    new = tuple.__new__
    out = []
    for i, q in enumerate(cells):
        ctx.i = i
        ctx.cell = q
        ctx.nb = (cells[(i + q[1][0]) % n],)
        out.append(new(tuple, (_rule(ctx), q[1])))
    index = {}
    copies = []
    for i, q in enumerate(out):
        pair = _Pair(q[0], (i + q[1][0]) % n)
        index[pair.b] = pair
        copies.append([x for x in q[1]] + [pair.a])


def sample() -> tuple[float, float]:
    """CPU and wall seconds of one kernel run, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        w0 = time.perf_counter()
        c0 = time.process_time()
        kernel()
        c1 = time.process_time()
        w1 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return c1 - c0, w1 - w0


def steady() -> float:
    """Median CPU seconds of three kernel runs after a warm-up run, for
    measurements too rare to average out one noisy kernel sample."""
    sample()
    return statistics.median(sample()[0] for _ in range(3))


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the nominal host speed, given the kernel's times just
    before and after the measurement."""
    return seconds * 2 * NOMINAL_S / (before + after)
