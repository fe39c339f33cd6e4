"""Algorithm catalog: rule sets, initial configurations and halt rules.

Each builder returns an :class:`AlgorithmSpec` bundling everything a driver
needs: the rule set, a fresh-initial-configuration factory, the natural stop
rule, scheduled external events (used by one firing algorithm), an optional
row annotator for text rendering, and a verification hook comparing an
executed run against the bundled brute-force references.

Catalog entries are registered in :data:`CATALOG` by name; the firing module
adds its own entries on import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, pi, sin
from typing import Any, Callable, Sequence

from . import oracles
from .core import (  # also re-exports step_sync and step_async
    CellState,
    Configuration,
    FixedPoint,
    PreconditionError,
    RuleSet,
    RunResult,
    Steps,
    StopRule,
    Topology,
    make_configuration,
    run,
    step_async,
    step_sync,
)


def trunc_mod(a: int, n: int) -> int:
    """Sign-of-dividend modulus (Pascal's ``mod``), so -32 mod 31 = -1.

    Pointer doubling rules rely on this to keep negative arms negative.
    """
    r = a % n
    if r and a < 0:
        return r - n
    return r


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class AlgorithmSpec:
    """A runnable algorithm instance.

    ``initial`` returns a fresh generation-0 configuration on every call.
    ``events`` lists ``(time, mutator)`` pairs applied in place when the run
    reaches that generation (external interventions, not rules).  ``verify``
    inspects a recorded run and returns an error message or None.
    """

    name: str
    ruleset: RuleSet
    topology: Topology
    initial: Callable[[], Configuration]
    stop: StopRule
    expected_steps: int | None = None
    params: dict = field(default_factory=dict)
    events: tuple[tuple[int, Callable[[Configuration], None]], ...] = ()
    annotate: Callable[[int, list[Configuration]], str] | None = None
    verify: Callable[["AlgorithmSpec", RunResult], str | None] | None = None
    xor_linear: bool = False


def execute(
    spec: AlgorithmSpec,
    stop: StopRule | None = None,
    *,
    mode: str = "sync",
    order: str = "ascending",
    seed: int | None = None,
    record_states: bool = False,
    record_edges: bool = False,
    step_limit: int | None = None,
) -> RunResult:
    """Run a catalog algorithm from a fresh initial configuration, honoring
    its scheduled events."""
    return run(
        spec.initial(),
        spec.ruleset,
        spec.stop if stop is None else stop,
        mode=mode,
        order=order,
        seed=seed,
        record_states=record_states,
        record_edges=record_edges,
        step_limit=step_limit,
        events=spec.events,
    )


def _need_trace(result: RunResult) -> list[Configuration]:
    if result.trace is None or not result.trace.snapshots:
        raise PreconditionError("verification needs a run with recorded states")
    return result.trace.snapshots


# ---------------------------------------------------------------------------
# global maximum

_MAX_VARIANTS = ("const", "inc", "double", "half", "random")


def alg_max(
    n: int,
    data: Sequence | None = None,
    pointer_variant: str = "const",
    seed: int | None = None,
) -> AlgorithmSpec:
    """Every cell converges to the global maximum.

    The plain variant keeps p=1 and needs exactly n-1 steps; the other
    pointer variants (increment, doubling, half-range, seeded random) change
    the propagation pattern, usually converging sooner.
    """
    if n < 2:
        raise PreconditionError(f"need at least 2 cells (one arm), got n={n}")
    if pointer_variant not in _MAX_VARIANTS:
        raise PreconditionError(f"unknown max pointer variant {pointer_variant!r}")
    if pointer_variant == "random" and seed is None:
        raise PreconditionError("max pointer variant 'random' requires a seed")
    init_data = (
        list(data) if data is not None else [(7 * i + 3) % (n + 5) for i in range(n)]
    )
    if len(init_data) != n:
        raise PreconditionError("data length mismatch")

    def data_rule(ctx):
        d = ctx.cell.data
        ds = ctx.neighbors[0].data
        return ds if ds > d else d

    if pointer_variant == "const":
        def pointer_rule(ctx):
            return ctx.cell.pointers
    elif pointer_variant == "inc":
        def pointer_rule(ctx):
            return ((ctx.cell.pointers[0] + 1) % n,)
    elif pointer_variant == "double":
        def pointer_rule(ctx):
            return ((2 * ctx.cell.pointers[0]) % n,)
    elif pointer_variant == "half":
        def pointer_rule(ctx):
            return (n // 2,)
    else:
        rng = __import__("random").Random(seed)

        def pointer_rule(ctx):
            return (rng.randrange(n),)

    ruleset = RuleSet(
        variant="basic", arms=1, data_rule=data_rule, pointer_rule=pointer_rule
    )
    topo = Topology.ring(n)

    def initial() -> Configuration:
        return make_configuration(list(init_data), (1,), topo)

    want = max(init_data)

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        final = result.config.data()
        if pointer_variant in ("const", "inc", "double"):
            if any(d != want for d in final):
                return f"expected all cells at max {want}, got {final}"
            return None
        # no convergence guarantee for the remaining variants: the maximum
        # must survive and no cell may exceed it or drop below its start
        if max(final) != want or any(
            f < d0 for f, d0 in zip(final, init_data)
        ):
            return f"max not preserved: {final}"
        return None

    return AlgorithmSpec(
        name="max",
        ruleset=ruleset,
        topology=topo,
        initial=initial,
        stop=Steps(n - 1),
        expected_steps=n - 1,
        params={"n": n, "pointer_variant": pointer_variant},
        verify=verify,
    )


# ---------------------------------------------------------------------------
# reduction

_REDUCE_FNS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "max": lambda a, b: a if a > b else b,
    "min": lambda a, b: a if a < b else b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
}


def alg_reduce(n: int, op: str = "sum", data: Sequence | None = None) -> AlgorithmSpec:
    """Pointer-doubling reduction: after log2(n) steps cell 0 (and every cell)
    holds the fold of all data values; pointers run through 1,2,4,...,n/2,0.

    ``avg`` runs the sum rule; the closing division happens only in the
    verification against the reference (the cells never divide).
    """
    if not is_power_of_two(n) or n < 2:
        raise PreconditionError(
            f"reduction requires n to be a power of two (n >= 2), got n={n}"
        )
    if op not in _REDUCE_FNS and op != "avg":
        raise PreconditionError(f"unknown reduction op {op!r}")
    fn = _REDUCE_FNS["sum" if op == "avg" else op]
    init_data = list(data) if data is not None else [1] * n
    if len(init_data) != n:
        raise PreconditionError("data length mismatch")

    def data_rule(ctx):
        q = ctx.cell
        if q.pointers[0]:
            return fn(q.data, ctx.neighbors[0].data)
        return q.data

    def pointer_rule(ctx):
        return ((2 * ctx.cell.pointers[0]) % n,)

    ruleset = RuleSet(
        variant="basic", arms=1, data_rule=data_rule, pointer_rule=pointer_rule
    )
    topo = Topology.ring(n)
    k = n.bit_length() - 1

    def initial() -> Configuration:
        return make_configuration(list(init_data), (1,), topo)

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        final = result.config.data()
        if op == "avg":
            want = oracles.oracle_reduce(init_data, "avg")
            if any(d / n != want for d in final):
                return f"average mismatch: {final[0] / n} vs {want}"
            return None
        want = oracles.oracle_reduce(init_data, op)
        if any(d != want for d in final):
            return f"expected fold {want!r} in every cell, got {final}"
        if any(q.pointers[0] != 0 for q in result.config.states):
            return "pointers did not close at 0"
        return None

    return AlgorithmSpec(
        name=f"reduce-{op}",
        ruleset=ruleset,
        topology=topo,
        initial=initial,
        stop=FixedPoint(),
        expected_steps=k,
        params={"n": n, "op": op},
        verify=verify,
    )


# ---------------------------------------------------------------------------
# prefix sums

def alg_prefix_sum_horn(n: int, data: Sequence | None = None) -> AlgorithmSpec:
    """Prefix sums with negative doubling arms: p runs -1,-2,-4,...,-n/2,0 and
    cell i adds its arm value while i >= -p.  After log2(n) steps cell i holds
    d_0 + ... + d_i.  The run must stop there: at p=0 the printed rule adds
    the cell's own value again.
    """
    if not is_power_of_two(n) or n < 2:
        raise PreconditionError(
            f"prefix sums require n to be a power of two (n >= 2), got n={n}"
        )
    init_data = list(data) if data is not None else [1] * n
    if len(init_data) != n:
        raise PreconditionError("data length mismatch")

    def data_rule(ctx):
        q = ctx.cell
        if ctx.i >= -q.pointers[0]:
            return q.data + ctx.neighbors[0].data
        return q.data

    def pointer_rule(ctx):
        return (trunc_mod(2 * ctx.cell.pointers[0], n),)

    ruleset = RuleSet(
        variant="basic", arms=1, data_rule=data_rule, pointer_rule=pointer_rule
    )
    topo = Topology.ring(n)
    k = n.bit_length() - 1

    def initial() -> Configuration:
        return make_configuration(list(init_data), (-1,), topo)

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        want = oracles.oracle_scan(init_data)
        final = result.config.data()
        if final != want:
            return f"prefix sums differ: {final} vs {want}"
        return None

    return AlgorithmSpec(
        name="horn",
        ruleset=ruleset,
        topology=topo,
        initial=initial,
        stop=Steps(k),
        expected_steps=k,
        params={"n": n},
        verify=verify,
    )


# ---------------------------------------------------------------------------
# bitonic merge

def _bitonic_default(n: int) -> list[int]:
    up = list(range(1, n, 2))
    down = list(range(n, 0, -2))
    return up + down


def alg_bitonic_merge(
    n: int, data: Sequence | None = None, model: str = "general"
) -> AlgorithmSpec:
    """Sort a bitonic sequence in log2(n) compare-exchange rounds.

    ``model='general'`` stores the positive half-width and signs it at access
    time: the arm points +p where (i and p)=0 and -p otherwise.  In
    ``model='basic'`` the signed target is precomputed by the pointer rule one
    step ahead (left half starts at +n/2, right half at -n/2); both runs
    commit identical data rows.
    """
    if not is_power_of_two(n) or n < 2:
        raise PreconditionError(
            f"bitonic merge requires n to be a power of two (n >= 2), got n={n}"
        )
    if model not in ("general", "basic"):
        raise PreconditionError(f"unknown bitonic model {model!r}")
    init_data = list(data) if data is not None else _bitonic_default(n)
    if len(init_data) != n:
        raise PreconditionError("data length mismatch")
    if not oracles.oracle_is_bitonic(init_data):
        raise PreconditionError(f"input sequence is not bitonic: {init_data}")
    half = n // 2
    topo = Topology.ring(n)
    k = n.bit_length() - 1

    if model == "general":
        def modifier(ctx):
            b = ctx.cell.pointers[0]
            return (b,) if (ctx.i & b) == 0 else (-b,)

        def data_rule(ctx):
            b = ctx.cell.pointers[0]
            d = ctx.cell.data
            if b == 0:
                return d
            ds = ctx.neighbors[0].data
            if (ctx.i & b) == 0:
                return ds if ds < d else d
            return ds if ds > d else d

        def pointer_rule(ctx):
            return (ctx.cell.pointers[0] >> 1,)

        ruleset = RuleSet(
            variant="general",
            arms=1,
            data_rule=data_rule,
            pointer_rule=pointer_rule,
            address_modifier=modifier,
        )

        def initial() -> Configuration:
            return make_configuration(list(init_data), (half,), topo)

    else:
        def data_rule(ctx):
            p = ctx.cell.pointers[0]
            d = ctx.cell.data
            if p == 0:
                return d
            ds = ctx.neighbors[0].data
            if p > 0:
                return ds if ds < d else d
            return ds if ds > d else d

        def pointer_rule(ctx):
            p = ctx.cell.pointers[0]
            b = (p if p >= 0 else -p) >> 1
            if b == 0:
                return (0,)
            return (b,) if (ctx.i & b) == 0 else (-b,)

        ruleset = RuleSet(
            variant="basic", arms=1, data_rule=data_rule, pointer_rule=pointer_rule
        )

        def initial() -> Configuration:
            pointers = [
                (half,) if (i & half) == 0 else (-half,) for i in range(n)
            ]
            return make_configuration(list(init_data), pointers, topo)

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        want = oracles.oracle_sort(init_data)
        final = result.config.data()
        if final != want:
            return f"not sorted: {final}"
        return None

    return AlgorithmSpec(
        name="bitonic" if model == "general" else "bitonic-basic",
        ruleset=ruleset,
        topology=topo,
        initial=initial,
        stop=Steps(k),
        expected_steps=k,
        params={"n": n, "model": model},
        verify=verify,
    )


# ---------------------------------------------------------------------------
# two-dimensional XOR family

def cross_grid(w: int, h: int) -> list[list[int]]:
    """All-zero grid with a five-cell cross in the middle."""
    g = [[0] * w for _ in range(h)]
    cx, cy = w // 2, h // 2
    for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
        g[(cy + dy) % h][(cx + dx) % w] = 1
    return g


def _grid_config(grid: Sequence[Sequence[int]], topo: Topology, pointers) -> Configuration:
    data = [v for row in grid for v in row]
    return make_configuration(data, pointers, topo)


def _xor4_data_rule(ctx):
    nb = ctx.neighbors
    return (nb[0].data + nb[1].data + nb[2].data + nb[3].data) & 1


def _nesw(p: int) -> tuple:
    return ((0, -p), (p, 0), (0, p), (-p, 0))


_XOR2D_RULES = ("r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r8r")


def xor2d_pointer_step(rule: str, p: int, n: int) -> int:
    """Scalar recurrence of the common arm length for rules r1..r8r."""
    if rule == "r1":
        return 1
    if rule in ("r2", "r3", "r4", "r5", "r6"):
        delta = int(rule[1]) - 1
        v = (p + delta) % n
        return v if v > 0 else 1
    if rule == "r7":
        return (2 * p) % n
    if rule == "r8":
        return (3 * p) % n
    if rule == "r8r":
        v = (3 * p) % n
        return v if v != 0 else 1
    raise PreconditionError(f"unknown xor2d rule {rule!r}")


def xor2d_pointer_sequence(rule: str, n: int, steps: int) -> list[int]:
    seq = [1]
    for _ in range(steps):
        seq.append(xor2d_pointer_step(rule, seq[-1], n))
    return seq


def alg_xor2d(
    n: int,
    rule: str = "r1",
    grid: Sequence[Sequence[int]] | None = None,
    steps: int = 16,
) -> AlgorithmSpec:
    """Binary XOR automaton on an n x n torus with one common arm length.

    Every cell reads north, east, south and west at distance p and keeps the
    parity; p itself evolves by one of the catalog rules (constant, cyclic
    increments by 1..5, doubling, tripling, or tripling re-seeded to 1).
    """
    if n < 2:
        raise PreconditionError(f"torus side must be at least 2, got {n}")
    if rule not in _XOR2D_RULES:
        raise PreconditionError(f"unknown xor2d rule {rule!r}")
    topo = Topology.torus(n, n)
    init_grid = (
        [list(r) for r in grid] if grid is not None else cross_grid(n, n)
    )

    def modifier(ctx):
        return _nesw(ctx.cell.pointers[0])

    if rule == "r1":
        def pointer_rule(ctx):
            return (1,)
    else:
        def pointer_rule(ctx):
            return (xor2d_pointer_step(rule, ctx.cell.pointers[0], n),)

    ruleset = RuleSet(
        variant="general",
        arms=4,
        data_rule=_xor4_data_rule,
        pointer_rule=pointer_rule,
        address_modifier=modifier,
    )

    def initial() -> Configuration:
        return _grid_config(init_grid, topo, (1,))

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        snaps = _need_trace(result)
        seq = xor2d_pointer_sequence(rule, n, result.steps)
        history = oracles.xor_evolution(
            n, n, init_grid, lambda t, x, y: _nesw(seq[t]), result.steps
        )
        for t, snap in enumerate(snaps):
            if snap.grid() != history[t]:
                return f"grid at t={t} differs from reference evolution"
        return None

    return AlgorithmSpec(
        name=f"xor2d-{rule}",
        ruleset=ruleset,
        topology=topo,
        initial=initial,
        stop=Steps(steps),
        expected_steps=steps,
        params={"n": n, "rule": rule},
        verify=verify,
        xor_linear=True,
    )


_TIMEDEP_RULES = ("tB", "tC", "tD", "tE")


def timedep_arm_lengths(rule: str, t: int) -> tuple[int, int]:
    """(px, py) arm lengths of the time-alternating rules at generation t."""
    if rule == "tB":
        p = 1 + t % 2
        return p, p
    if rule == "tC":
        p = 1 + 2 * (t % 2)
        return p, p
    if rule == "tD":
        p = 1 + 3 * (t % 2)
        return p, p
    if rule == "tE":
        return 1 + 2 * (t % 2), 1 + 2 * ((t + 1) % 2)
    raise PreconditionError(f"unknown time-dependent rule {rule!r}")


def alg_xor_timedep(
    n: int,
    rule: str = "tB",
    grid: Sequence[Sequence[int]] | None = None,
    steps: int = 16,
) -> AlgorithmSpec:
    """XOR torus automaton whose arm lengths alternate with the generation.

    Rules B/C/D alternate a single length (1,2), (1,3), (1,4); rule E swaps
    an asymmetric pair, (px,py) = (1,3) then (3,1).
    """
    if rule not in _TIMEDEP_RULES:
        raise PreconditionError(f"unknown time-dependent rule {rule!r}")
    if n < 2:
        raise PreconditionError(f"torus side must be at least 2, got {n}")
    topo = Topology.torus(n, n)
    init_grid = [list(r) for r in grid] if grid is not None else cross_grid(n, n)

    def modifier(ctx):
        px, py = timedep_arm_lengths(rule, ctx.t)
        return ((0, -py), (px, 0), (0, py), (-px, 0))

    def pointer_rule(ctx):
        return ctx.cell.pointers

    ruleset = RuleSet(
        variant="general",
        arms=4,
        data_rule=_xor4_data_rule,
        pointer_rule=pointer_rule,
        address_modifier=modifier,
    )

    def initial() -> Configuration:
        return _grid_config(init_grid, topo, (1,))

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        snaps = _need_trace(result)

        def offsets(t: int, x: int, y: int):
            px, py = timedep_arm_lengths(rule, t)
            return ((0, -py), (px, 0), (0, py), (-px, 0))

        history = oracles.xor_evolution(n, n, init_grid, offsets, result.steps)
        for t, snap in enumerate(snaps):
            if snap.grid() != history[t]:
                return f"grid at t={t} differs from reference evolution"
        return None

    return AlgorithmSpec(
        name=f"xor2d-{rule}",
        ruleset=ruleset,
        topology=topo,
        initial=initial,
        stop=Steps(steps),
        expected_steps=steps,
        params={"n": n, "rule": rule},
        verify=verify,
        xor_linear=True,
    )


_SPACEDEP_RULES = {"sF": 1, "sG": 2, "sH": 3}


def spacedep_offsets(rule: str, x: int, y: int) -> tuple:
    p = _SPACEDEP_RULES[rule]
    if ((x + y) & 1) == 0:
        return ((0, -p), (p, 0), (0, p), (-p, 0))
    return ((p, -p), (p, p), (-p, p), (-p, -p))


def alg_xor_spacedep(
    n: int,
    rule: str = "sF",
    grid: Sequence[Sequence[int]] | None = None,
    steps: int = 16,
) -> AlgorithmSpec:
    """Checkerboard XOR torus: cells with even x+y read orthogonally, the
    others diagonally, all at a fixed distance (1, 2 or 3)."""
    if rule not in _SPACEDEP_RULES:
        raise PreconditionError(f"unknown space-dependent rule {rule!r}")
    if n < 2:
        raise PreconditionError(f"torus side must be at least 2, got {n}")
    topo = Topology.torus(n, n)
    init_grid = [list(r) for r in grid] if grid is not None else cross_grid(n, n)

    def modifier(ctx):
        i = ctx.i
        return spacedep_offsets(rule, i % n, i // n)

    def pointer_rule(ctx):
        return ctx.cell.pointers

    ruleset = RuleSet(
        variant="general",
        arms=4,
        data_rule=_xor4_data_rule,
        pointer_rule=pointer_rule,
        address_modifier=modifier,
    )

    def initial() -> Configuration:
        return _grid_config(init_grid, topo, (_SPACEDEP_RULES[rule],))

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        snaps = _need_trace(result)
        history = oracles.xor_evolution(
            n, n, init_grid, lambda t, x, y: spacedep_offsets(rule, x, y), result.steps
        )
        for t, snap in enumerate(snaps):
            if snap.grid() != history[t]:
                return f"grid at t={t} differs from reference evolution"
        return None

    return AlgorithmSpec(
        name=f"xor2d-{rule}",
        ruleset=ruleset,
        topology=topo,
        initial=initial,
        stop=Steps(steps),
        expected_steps=steps,
        params={"n": n, "rule": rule},
        verify=verify,
        xor_linear=True,
    )


def alg_xor_plain(
    n: int,
    a: int = 9,
    b: int = 3,
    grid: Sequence[Sequence[int]] | None = None,
    steps: int = 60,
) -> AlgorithmSpec:
    """State-dependent XOR torus in the unstructured model: a cell holding 0
    reads its four orthogonal neighbors at distance ``a``, a cell holding 1 at
    distance ``b``; the new state is the parity of the four reads."""
    if n < 2:
        raise PreconditionError(f"torus side must be at least 2, got {n}")
    if not (1 <= a <= n // 2 and 1 <= b <= n // 2):
        raise PreconditionError(
            f"arm lengths must satisfy 1 <= A,B <= n/2, got A={a} B={b} n={n}"
        )
    topo = Topology.torus(n, n)
    init_grid = [list(r) for r in grid] if grid is not None else cross_grid(n, n)

    def pointer_function(i: int, q: CellState) -> tuple:
        p = a if q.data == 0 else b
        return ((0, -p), (p, 0), (0, p), (-p, 0))

    ruleset = RuleSet(
        variant="plain",
        arms=4,
        data_rule=_xor4_data_rule,
        pointer_function=pointer_function,
    )

    def initial() -> Configuration:
        return _grid_config(init_grid, topo, None)

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        snaps = _need_trace(result)
        history = oracles.plain_xor_evolution(n, init_grid, a, b, result.steps)
        for t, snap in enumerate(snaps):
            if snap.grid() != history[t]:
                return f"grid at t={t} differs from reference evolution"
        return None

    return AlgorithmSpec(
        name="xor-plain",
        ruleset=ruleset,
        topology=topo,
        initial=initial,
        stop=Steps(steps),
        expected_steps=steps,
        params={"n": n, "a": a, "b": b},
        verify=verify,
    )


# ---------------------------------------------------------------------------
# one-dimensional two-arm XOR (the twin demo programs)

def alg_xor1d(variant: str = "basic", n: int = 31, steps: int = 5) -> AlgorithmSpec:
    """Two-arm 1D XOR automaton whose arms double away from the center seed.

    ``basic`` stores the signed effective addresses themselves: arm one starts
    at +1, arm two at -1, both double with sign-preserving modulus and re-seed
    at zero.  ``general`` stores two positive bases starting at +1; arm two is
    negated only at access time, so the committed data rows are identical.
    """
    if variant not in ("basic", "general"):
        raise PreconditionError(f"unknown xor1d variant {variant!r}")
    if n < 3:
        raise PreconditionError(f"need at least 3 cells, got n={n}")
    topo = Topology.ring(n)
    mid = n // 2

    def data_rule(ctx):
        nb = ctx.neighbors
        return (nb[0].data + nb[1].data) & 1

    if variant == "basic":
        def pointer_rule(ctx):
            p1, p2 = ctx.cell.pointers
            a = trunc_mod(2 * p1, n)
            if a == 0:
                a = 1
            b = trunc_mod(2 * p2, n)
            if b == 0:
                b = -1
            return (a, b)

        ruleset = RuleSet(
            variant="basic", arms=2, data_rule=data_rule, pointer_rule=pointer_rule
        )
        init_pointers = (1, -1)
    else:
        def pointer_rule(ctx):
            p1, p2 = ctx.cell.pointers
            a = trunc_mod(2 * p1, n)
            if a == 0:
                a = 1
            b = trunc_mod(2 * p2, n)
            if b == 0:
                b = 1
            return (a, b)

        def modifier(ctx):
            p1, p2 = ctx.cell.pointers
            return (p1, -p2)

        ruleset = RuleSet(
            variant="general",
            arms=2,
            data_rule=data_rule,
            pointer_rule=pointer_rule,
            address_modifier=modifier,
        )
        init_pointers = (1, 1)

    def initial() -> Configuration:
        data = [0] * n
        data[mid] = 1
        return make_configuration(data, init_pointers, topo)

    def effective_arms(t: int, snaps: list[Configuration]) -> tuple[int, int]:
        # arms used by the step that produced row t (row 0: the coming step)
        src = snaps[t - 1] if t > 0 else snaps[0]
        p1, p2 = src.states[mid].pointers
        return (p1, -p2) if variant == "general" else (p1, p2)

    def annotate(t: int, snaps: list[Configuration]) -> str:
        p1, p2 = snaps[t].states[mid].pointers
        base = f" t={t:4d} at[mid]: p1={p1:4d} p2={p2:4d}"
        if variant == "basic":
            return base
        e1, e2 = effective_arms(t, snaps)
        return base + f" p1eff={e1:4d} p2eff={e2:4d}"

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        snaps = _need_trace(result)
        arms = [effective_arms(t + 1, snaps) for t in range(result.steps)]

        def offsets(t: int, x: int, y: int):
            a1, a2 = arms[t]
            return ((a1, 0), (a2, 0))

        init_row = [snaps[0].states[j].data for j in range(n)]
        history = oracles.xor_evolution(n, 1, [init_row], offsets, result.steps)
        for t, snap in enumerate(snaps):
            if history[t][0] != snap.data():
                return f"data row t={t} differs from reference evolution"
        if n == 31 and result.steps == 5:
            from .formats import render_rows

            golden = oracles.load_golden(f"out-c-{variant}")
            report = oracles.compare_golden(
                render_rows(snaps, annotate), golden
            )
            if report:
                return report
        return None

    return AlgorithmSpec(
        name=f"xor1d-{variant}",
        ruleset=ruleset,
        topology=topo,
        initial=initial,
        stop=Steps(steps),
        expected_steps=steps,
        params={"n": n, "variant": variant, "steps": steps},
        annotate=annotate,
        verify=verify,
        xor_linear=True,
    )


# ---------------------------------------------------------------------------
# Fourier transform

def alg_fft(k: int, values: Sequence[complex] | None = None) -> AlgorithmSpec:
    """In-place butterfly network on 2^k cells, one round per generation.

    Cell state is (re, im, step, position); the partner offset is
    ((position xor step) - position) and step doubles each round.  After k
    rounds the cells hold the spectrum of the bit-reverse-permuted input:
    feeding the input in bit-reversed order yields the transform in natural
    order.
    """
    if k < 1 or k > 20:
        raise PreconditionError(f"need 1 <= k <= 20, got k={k}")
    n = 1 << k
    vals = (
        [complex(v) for v in values]
        if values is not None
        else [complex(j, 0) for j in range(n)]
    )
    if len(vals) != n:
        raise PreconditionError(f"need {n} input values for k={k}")
    topo = Topology.ring(n)

    def pointer_function(i: int, q: CellState) -> tuple:
        _, _, step, pos = q.data
        return ((pos ^ step) - pos,)

    def data_rule(ctx):
        r, im, step, pos = ctx.cell.data
        orr, oii, _, _ = ctx.neighbors[0].data
        other = (pos ^ step) - pos
        a = -pi / step * (pos & (step - 1))
        wr = cos(a)
        wi = sin(a)
        if other > 0:
            nr = r + wr * orr - wi * oii
            ni = im + wr * oii + wi * orr
        else:
            nr = orr - (wr * r - wi * im)
            ni = oii - (wr * im + wi * r)
        return (nr, ni, 2 * step, pos)

    ruleset = RuleSet(
        variant="plain", arms=1, data_rule=data_rule, pointer_function=pointer_function
    )

    def initial() -> Configuration:
        states = [
            CellState((float(v.real), float(v.imag), 1, j), ())
            for j, v in enumerate(vals)
        ]
        return Configuration(states, topo)

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        got = fft_result(result.config)
        want = oracles.oracle_fft_recurrence(vals, k)
        if got != want:
            return "butterfly recurrence mismatch (expected bit-exact equality)"
        rev = oracles.bit_reversed_indices(k)
        reordered = [vals[j] for j in rev]
        spec2 = alg_fft(k, reordered)
        res2 = execute(spec2)
        spectrum = fft_result(res2.config)
        dft = oracles.oracle_dft(vals)
        for a, b in zip(spectrum, dft):
            if abs(a.real - b.real) > 1e-9 or abs(a.imag - b.imag) > 1e-9:
                return f"spectrum of bit-reversed input differs: {a} vs {b}"
        return None

    return AlgorithmSpec(
        name="fft",
        ruleset=ruleset,
        topology=topo,
        initial=initial,
        stop=Steps(k),
        expected_steps=k,
        params={"k": k, "n": n},
        verify=verify,
    )


def fft_result(cfg: Configuration) -> list[complex]:
    return [complex(q.data[0], q.data[1]) for q in cfg.states]


# ---------------------------------------------------------------------------
# catalog

CATALOG: dict[str, Callable[..., AlgorithmSpec]] = {
    "max": alg_max,
    "reduce-sum": lambda n, **kw: alg_reduce(n, "sum", **kw),
    "reduce-max": lambda n, **kw: alg_reduce(n, "max", **kw),
    "reduce-min": lambda n, **kw: alg_reduce(n, "min", **kw),
    "reduce-and": lambda n, **kw: alg_reduce(n, "and", **kw),
    "reduce-or": lambda n, **kw: alg_reduce(n, "or", **kw),
    "reduce-avg": lambda n, **kw: alg_reduce(n, "avg", **kw),
    "horn": alg_prefix_sum_horn,
    "bitonic": lambda n, **kw: alg_bitonic_merge(n, model="general", **kw),
    "bitonic-basic": lambda n, **kw: alg_bitonic_merge(n, model="basic", **kw),
    "xor-plain": alg_xor_plain,
    "xor1d-basic": lambda n=31, **kw: alg_xor1d("basic", n, **kw),
    "xor1d-general": lambda n=31, **kw: alg_xor1d("general", n, **kw),
    "fft": lambda n=None, k=3, **kw: alg_fft(k, **kw),
}

for _rule in _XOR2D_RULES:
    CATALOG[f"xor2d-{_rule}"] = (
        lambda n, _r=_rule, **kw: alg_xor2d(n, _r, **kw)
    )
for _rule in _TIMEDEP_RULES:
    CATALOG[f"xor2d-{_rule}"] = (
        lambda n, _r=_rule, **kw: alg_xor_timedep(n, _r, **kw)
    )
for _rule in _SPACEDEP_RULES:
    CATALOG[f"xor2d-{_rule}"] = (
        lambda n, _r=_rule, **kw: alg_xor_spacedep(n, _r, **kw)
    )


_DEFAULT_INSTANCES: dict[str, dict] = {
    "max": {"n": 16},
    "reduce-sum": {"n": 16},
    "reduce-max": {"n": 16},
    "reduce-min": {"n": 16},
    "reduce-and": {"n": 16},
    "reduce-or": {"n": 16},
    "reduce-avg": {"n": 16},
    "horn": {"n": 16},
    "bitonic": {"n": 16},
    "bitonic-basic": {"n": 16},
    "xor-plain": {"n": 7, "a": 2, "b": 3, "steps": 10},
    "xor1d-basic": {"n": 31},
    "xor1d-general": {"n": 31},
    "fft": {"k": 3},
}


def default_instance(name: str) -> AlgorithmSpec:
    """A small canonical instance of a catalog algorithm (n <= 64)."""
    builder = CATALOG.get(name)
    if builder is None:
        raise PreconditionError(f"unknown algorithm {name!r}")
    kwargs = dict(_DEFAULT_INSTANCES.get(name, {"n": 8, "steps": 8}))
    return builder(**kwargs)


def catalog_names() -> list[str]:
    return sorted(CATALOG)
