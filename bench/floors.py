"""Bare phase-1 loops ("floors") for the engine's main shapes.

Each floor computes the next configuration from the same rules and the same
configurations as ``gca.core.step_sync``, with none of the engine's dispatch,
arity checks, error wrapping or edge recording.  Its result must equal the
engine's, so the floor skips no work the engine does; the engine's time over
the floor's is its overhead.
"""

from __future__ import annotations

import gc
import statistics
import time
from random import Random

import reference
from gca import algorithms, core

_new = tuple.__new__
_State = core.CellState


def _context(cfg, ruleset):
    ctx = core.RuleContext()
    ctx.t = cfg.time
    ctx.params = ruleset.params
    return ctx


def floor_1d_basic_1arm(cfg, ruleset) -> list:
    states = cfg.states
    n = cfg.n
    f = ruleset.data_rule
    g = ruleset.pointer_rule
    ctx = _context(cfg, ruleset)
    out = [None] * n
    for i, q in enumerate(states):
        ctx.i = i
        ctx.cell = q
        ctx.neighbors = (states[(i + q[1][0]) % n],)
        out[i] = _new(_State, (f(ctx), g(ctx)))
    return out


def _neighbors4(states, i, w, h, eff):
    x = i % w
    y = i // w
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = eff
    return (
        states[((y + ay) % h) * w + (x + ax) % w],
        states[((y + by) % h) * w + (x + bx) % w],
        states[((y + cy) % h) * w + (x + cx) % w],
        states[((y + dy) % h) * w + (x + dx) % w],
    )


def floor_2d_general_4arm(cfg, ruleset) -> list:
    states = cfg.states
    w, h = cfg.topology.width, cfg.topology.height
    f = ruleset.data_rule
    g = ruleset.pointer_rule
    modifier = ruleset.address_modifier
    ctx = _context(cfg, ruleset)
    out = [None] * cfg.n
    for i, q in enumerate(states):
        ctx.i = i
        ctx.cell = q
        ctx.neighbors = ()
        ctx.neighbors = _neighbors4(states, i, w, h, modifier(ctx))
        out[i] = _new(_State, (f(ctx), g(ctx)))
    return out


def floor_2d_plain_4arm(cfg, ruleset) -> list:
    states = cfg.states
    w, h = cfg.topology.width, cfg.topology.height
    f = ruleset.data_rule
    pf = ruleset.pointer_function
    ctx = _context(cfg, ruleset)
    out = [None] * cfg.n
    for i, q in enumerate(states):
        ctx.i = i
        ctx.cell = q
        ctx.neighbors = _neighbors4(states, i, w, h, pf(i, q))
        out[i] = _new(_State, (f(ctx), ()))
    return out


def _grid(rng: Random, side: int) -> list[list[int]]:
    return [[rng.randrange(2) for _ in range(side)] for _ in range(side)]


def _shapes(rng: Random):
    """(shape, floor, spec, steps): the rules and configurations to compare."""
    data = [rng.randrange(1 << 16) for _ in range(4096)]
    yield "1d-basic-1arm", floor_1d_basic_1arm, algorithms.CATALOG["reduce-sum"](4096, data=data), 12
    general = algorithms.CATALOG["xor2d-r2"](64, grid=_grid(rng, 64))
    yield "2d-general-4arm", floor_2d_general_4arm, general, 4
    a, b = rng.randint(1, 32), rng.randint(1, 32)
    plain = algorithms.CATALOG["xor-plain"](64, a=a, b=b, grid=_grid(rng, 64))
    yield "2d-plain-4arm", floor_2d_plain_4arm, plain, 4


def measure(seed: int, passes: int = 9) -> tuple[dict[str, tuple[float, float]], list[str]]:
    """Per shape, the floor's CPU µs per cell-step at the reference speed and
    ``step_sync``'s time over the floor's, each the median over ``passes``
    adjacent pairs on one trajectory; plus any floor/engine mismatch."""
    rng = Random(f"floors:{seed}")
    results = {}
    errors = []
    for shape, floor, spec, steps in _shapes(rng):
        ruleset = spec.ruleset
        cfgs = [spec.initial()]
        for _ in range(steps):
            cfgs.append(core.step_sync(cfgs[-1], ruleset))
        if any(floor(c, ruleset) != nxt.states for c, nxt in zip(cfgs, cfgs[1:])):
            errors.append(f"floor {shape} disagrees with step_sync")
        cells = sum(c.n for c in cfgs[:-1])
        floor_s, ratios = [], []
        for _ in range(passes):
            gc.collect()
            r0 = reference.sample()[0]
            t0 = time.process_time()
            for c in cfgs[:-1]:
                floor(c, ruleset)
            t1 = time.process_time()
            for c in cfgs[:-1]:
                core.step_sync(c, ruleset)
            t2 = time.process_time()
            r1 = reference.sample()[0]
            floor_s.append(reference.scale(t1 - t0, r0, r1))
            ratios.append((t2 - t1) / (t1 - t0))
        results[shape] = (statistics.median(floor_s) / cells * 1e6, statistics.median(ratios))
    return results, errors
