"""Algorithm catalog: rule sets, initial configurations and halt rules.

Each builder returns an :class:`AlgorithmSpec` bundling everything a driver
needs: the rule set, a fresh-initial-configuration factory, the natural stop
rule, scheduled external events (used by one firing algorithm), an optional
row annotator for text rendering, and a verification hook comparing an
executed run against the bundled brute-force references.  Every builder,
the firing ones too, makes its spec through ``_spec``: it checks that the
data fit the topology and builds generation 0 afresh on each ``initial()``
call.  ``_pow2_ring`` is the one check for entries that need n = 2^k cells.

Catalog entries are registered in :data:`CATALOG` by name; the firing module
adds its own entries on import.  An entry's parameters, with their defaults,
are the options it takes and its default instance.  A spec's
``expected_steps`` is its ``Steps`` stop's count; only reduce, which halts at
a fixed point one step after its k generations, states it.

Hot rules read states by index (``q[0]`` for ``.data``, ``q[1][0]`` for
``.pointers[0]``): max, reduce and Horn, every XOR rule (data, pointer and
address modifier, 1-D and torus) and xor-plain's pointer function.

A rule may memoise its result, sharing one tuple between cells, when the
result depends on the stored pointer, t's parity or the cell's colour alone;
never on an RNG.  :class:`gca.core.ByPointer` is the one memo by stored
pointer.  Shared tuples let phase 1 skip rule calls and read a whole
generation as rotations of its states (see :mod:`gca.core`);
``tests/test_plan.py`` names the entries that do.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import cos, pi, sin
from typing import Any, Callable, Sequence

from . import oracles
from .core import (  # also re-exports step_sync and step_async
    ByPointer,
    CellState,
    Configuration,
    FixedPoint,
    PreconditionError,
    RuleEvaluationError,
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


def _keep(p: int) -> tuple:
    """``make`` of a by-pointer rule whose one pointer never changes."""
    return (p,)


@dataclass(frozen=True)
class AlgorithmSpec:
    """A runnable algorithm instance.

    ``initial`` returns a fresh generation-0 configuration on every call.
    ``expected_steps`` is the number of generations the algorithm computes;
    it defaults to the count of a :class:`Steps` stop, so only a builder with
    an open-ended stop states it.  ``events`` lists ``(time, mutator)`` pairs
    applied in place when the run reaches that generation (external
    interventions, not rules).  ``verify`` inspects a recorded run and
    returns an error message or None.
    """

    name: str
    ruleset: RuleSet
    topology: Topology
    initial: Callable[[], Configuration]
    stop: StopRule
    verify: Callable[["AlgorithmSpec", RunResult], str | None]
    expected_steps: int | None = None
    events: tuple[tuple[int, Callable[[Configuration], None]], ...] = ()
    annotate: Callable[[int, list[Configuration]], str] | None = None

    def __post_init__(self) -> None:
        if self.expected_steps is None and isinstance(self.stop, Steps):
            object.__setattr__(self, "expected_steps", self.stop.count)


def execute(spec: AlgorithmSpec, stop: StopRule | None = None, **options) -> RunResult:
    """Run a catalog algorithm from a fresh initial configuration, honoring
    its scheduled events; ``options`` are :func:`gca.core.run`'s.  A rule
    failure names the algorithm."""
    try:
        return run(
            spec.initial(),
            spec.ruleset,
            spec.stop if stop is None else stop,
            events=spec.events,
            **options,
        )
    except RuleEvaluationError as exc:
        exc.algorithm = spec.name
        raise


def _spec(
    name: str,
    topology: Topology,
    ruleset: RuleSet,
    data: Sequence,
    pointers: Sequence[tuple] | tuple | None,
    stop: StopRule,
    verify: Callable[[AlgorithmSpec, RunResult], str | None],
    **fields,
) -> AlgorithmSpec:
    """The one constructor of catalog specs.  Generation 0 holds ``data`` and
    ``pointers`` (as :func:`gca.core.make_configuration` takes them) on
    ``topology``, built afresh by every ``initial()`` call; ``fields`` are
    the remaining :class:`AlgorithmSpec` fields."""
    if len(data) != topology.n:
        raise PreconditionError("data length mismatch")
    return AlgorithmSpec(
        name=name,
        ruleset=ruleset,
        topology=topology,
        initial=lambda: make_configuration(data, pointers, topology),
        stop=stop,
        verify=verify,
        **fields,
    )


def _pow2_ring(n: int, what: str) -> int:
    """log2(n) for an entry that needs a ring of n = 2^k >= 2 cells."""
    if not is_power_of_two(n) or n < 2:
        raise PreconditionError(
            f"{what} requires n to be a power of two (n >= 2), got n={n}"
        )
    return n.bit_length() - 1


def _need_trace(result: RunResult) -> list[Configuration]:
    if result.trace is None or not result.trace.snapshots:
        raise PreconditionError("verification needs a run with recorded states")
    return result.trace.snapshots


# ---------------------------------------------------------------------------
# global maximum

_MAX_VARIANTS = ("const", "inc", "double", "half", "random")


def alg_max(
    n: int = 16,
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

    def data_rule(ctx):
        d = ctx.cell[0]
        ds = ctx.neighbors[0][0]
        return ds if ds > d else d

    if pointer_variant == "random":
        rng = __import__("random").Random(seed)

        def pointer_rule(ctx):  # one draw per cell: never memoised
            return (rng.randrange(n),)
    else:
        pointer_rule = ByPointer({
            "const": _keep,
            "inc": lambda p: ((p + 1) % n,),
            "double": lambda p: ((2 * p) % n,),
            "half": lambda p: (n // 2,),
        }[pointer_variant])

    ruleset = RuleSet(
        variant="basic", arms=1, data_rule=data_rule, pointer_rule=pointer_rule
    )

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        final = result.config.data()
        want = max(init_data)
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

    return _spec(
        "max", Topology.ring(n), ruleset, init_data, (1,), Steps(n - 1), verify
    )


# ---------------------------------------------------------------------------
# reduction

_REDUCE_FNS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": operator.add,
    "max": lambda a, b: a if a > b else b,
    "min": lambda a, b: a if a < b else b,
    "and": operator.and_,
    "or": operator.or_,
}


def alg_reduce(n: int, op: str = "sum", data: Sequence | None = None) -> AlgorithmSpec:
    """Pointer-doubling reduction: after log2(n) steps cell 0 (and every cell)
    holds the fold of all data values; pointers run through 1,2,4,...,n/2,0.

    ``avg`` runs the sum rule; the closing division happens only in the
    verification against the reference (the cells never divide).
    """
    k = _pow2_ring(n, "reduction")
    if op not in _REDUCE_FNS and op != "avg":
        raise PreconditionError(f"unknown reduction op {op!r}")
    fn = _REDUCE_FNS["sum" if op == "avg" else op]
    init_data = list(data) if data is not None else [1] * n

    def data_rule(ctx):  # fn(own, neighbour): a tie keeps the neighbour's value
        q = ctx.cell
        if q[1][0]:
            return fn(q[0], ctx.neighbors[0][0])
        return q[0]

    pointer_rule = ByPointer(lambda p: ((2 * p) % n,))
    ruleset = RuleSet(
        variant="basic", arms=1, data_rule=data_rule, pointer_rule=pointer_rule
    )

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

    return _spec(
        f"reduce-{op}", Topology.ring(n), ruleset, init_data, (1,), FixedPoint(),
        verify, expected_steps=k,
    )


# ---------------------------------------------------------------------------
# prefix sums

def alg_prefix_sum_horn(n: int = 16, data: Sequence | None = None) -> AlgorithmSpec:
    """Prefix sums with negative doubling arms: p runs -1,-2,-4,...,-n/2,0 and
    cell i adds its arm value while i >= -p.  After log2(n) steps cell i holds
    d_0 + ... + d_i.  The run must stop there: at p=0 the printed rule adds
    the cell's own value again.
    """
    k = _pow2_ring(n, "prefix sums")
    init_data = list(data) if data is not None else [1] * n

    def data_rule(ctx):
        q = ctx.cell
        if ctx.i >= -q[1][0]:
            return q[0] + ctx.neighbors[0][0]
        return q[0]

    pointer_rule = ByPointer(lambda p: (trunc_mod(2 * p, n),))
    ruleset = RuleSet(
        variant="basic", arms=1, data_rule=data_rule, pointer_rule=pointer_rule
    )

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        want = oracles.oracle_scan(init_data)
        final = result.config.data()
        if final != want:
            return f"prefix sums differ: {final} vs {want}"
        return None

    return _spec("horn", Topology.ring(n), ruleset, init_data, (-1,), Steps(k), verify)


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
    k = _pow2_ring(n, "bitonic merge")
    if model not in ("general", "basic"):
        raise PreconditionError(f"unknown bitonic model {model!r}")
    init_data = list(data) if data is not None else _bitonic_default(n)
    if len(init_data) != n:
        raise PreconditionError("data length mismatch")
    if not oracles.oracle_is_bitonic(init_data):
        raise PreconditionError(f"input sequence is not bitonic: {init_data}")
    half = n // 2

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
        pointers = (half,)

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
        pointers = [(half,) if (i & half) == 0 else (-half,) for i in range(n)]

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        want = oracles.oracle_sort(init_data)
        final = result.config.data()
        if final != want:
            return f"not sorted: {final}"
        return None

    name = "bitonic" if model == "general" else "bitonic-basic"
    return _spec(name, Topology.ring(n), ruleset, init_data, pointers, Steps(k), verify)


# ---------------------------------------------------------------------------
# two-dimensional XOR family

def cross_grid(w: int, h: int) -> list[list[int]]:
    """All-zero grid with a five-cell cross in the middle."""
    g = [[0] * w for _ in range(h)]
    cx, cy = w // 2, h // 2
    for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
        g[(cy + dy) % h][(cx + dx) % w] = 1
    return g


def _xor4_data_rule(ctx):
    nb = ctx.neighbors
    return (nb[0][0] + nb[1][0] + nb[2][0] + nb[3][0]) & 1


def _nesw(px: int, py: int | None = None) -> tuple:
    """North, east, south and west offsets at distance ``px`` along x and
    ``py`` (default ``px``) along y."""
    if py is None:
        py = px
    return ((0, -py), (px, 0), (0, py), (-px, 0))


def _xor_torus(
    name: str,
    n: int,
    grid: Sequence[Sequence[int]] | None,
    steps: int,
    ruleset: RuleSet,
    pointers: tuple | None,
    reference: Callable[[list[list[int]], int], list[bytes]],
) -> AlgorithmSpec:
    """The scaffold every torus XOR entry shares: an n x n torus starting
    from ``grid`` of 0s and 1s (a centred cross by default), every cell
    holding ``pointers``, run for ``steps`` generations.  Verification compares
    each recorded generation, as ``bytes``, with ``reference(grid, steps)``."""
    if n < 2:
        raise PreconditionError(f"torus side must be at least 2, got {n}")
    init_grid = [list(r) for r in grid] if grid is not None else cross_grid(n, n)
    if len(init_grid) != n or any(len(row) != n for row in init_grid):
        raise PreconditionError(f"grid must be {n} rows of {n} cells")
    data = [v for row in init_grid for v in row]
    if not set(data) <= {0, 1}:
        raise PreconditionError("grid cells must be 0 or 1")

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        snaps = _need_trace(result)
        history = reference(init_grid, result.steps)
        for t, snap in enumerate(snaps):
            if bytes(snap.data()) != history[t]:
                return f"grid at t={t} differs from reference evolution"
        return None

    return _spec(
        name, Topology.torus(n, n), ruleset, data, pointers, Steps(steps), verify
    )


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


_SPACEDEP_RULES = {"sF": 1, "sG": 2, "sH": 3}


def spacedep_offsets(rule: str, x: int, y: int) -> tuple:
    p = _SPACEDEP_RULES[rule]
    if ((x + y) & 1) == 0:
        return ((0, -p), (p, 0), (0, p), (-p, 0))
    return ((p, -p), (p, p), (-p, p), (-p, -p))


_TORUS_RULES = _XOR2D_RULES + _TIMEDEP_RULES + tuple(_SPACEDEP_RULES)


def alg_xor2d(
    n: int,
    rule: str = "r1",
    grid: Sequence[Sequence[int]] | None = None,
    steps: int = 16,
) -> AlgorithmSpec:
    """Binary XOR automaton on an n x n torus: every cell reads four cells
    and keeps the parity of what it read.  The rule picks one of three
    families of arms:

    - common length, ``r1``..``r8r``: every cell reads north, east, south
      and west at one distance p, stored as its pointer.  p evolves by the
      pointer rule: constant, cyclic increments by 1..5, doubling, tripling,
      or tripling re-seeded to 1.
    - time-alternating, ``tB``..``tE``: the arm lengths depend on the
      generation.  B/C/D alternate one length between (1,2), (1,3) and
      (1,4); E swaps an asymmetric pair, (px,py) = (1,3) then (3,1).
    - checkerboard, ``sF``..``sH``: cells with even x+y read orthogonally,
      the others diagonally, all at a fixed distance 1, 2 or 3.
    """
    # The modifiers share one effective-address tuple per stored pointer, t
    # parity or cell colour.  Verify takes its arms from ``oracles.torus_arms``,
    # which states them apart from the helpers these rules call.
    if rule in _XOR2D_RULES:
        modifier = ByPointer(_nesw)
        pointer_rule = ByPointer(lambda p: (xor2d_pointer_step(rule, p, n),))
        pointers = (1,)
    elif rule in _TIMEDEP_RULES:
        even, odd = (_nesw(*timedep_arm_lengths(rule, t)) for t in (0, 1))

        def modifier(ctx):
            return odd if ctx.t & 1 else even

        pointer_rule = ByPointer(_keep)
        pointers = (1,)
    elif rule in _SPACEDEP_RULES:
        even, odd = spacedep_offsets(rule, 0, 0), spacedep_offsets(rule, 1, 0)

        def modifier(ctx):
            i = ctx.i
            return odd if (i % n + i // n) & 1 else even

        pointer_rule = ByPointer(_keep)
        pointers = (_SPACEDEP_RULES[rule],)
    else:
        raise PreconditionError(f"unknown xor2d rule {rule!r}")

    ruleset = RuleSet(
        variant="general",
        arms=4,
        data_rule=_xor4_data_rule,
        pointer_rule=pointer_rule,
        address_modifier=modifier,
    )

    def reference(g: list[list[int]], k: int) -> list[bytes]:
        table = oracles.torus_arms(rule, n, k)
        return oracles.xor_evolution(n, n, g, lambda t, colour, bit: table[t][colour], k)

    return _xor_torus(f"xor2d-{rule}", n, grid, steps, ruleset, pointers, reference)


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
    if not (1 <= a <= n // 2 and 1 <= b <= n // 2):
        raise PreconditionError(
            f"arm lengths must satisfy 1 <= A,B <= n/2, got A={a} B={b} n={n}"
        )

    arms_a, arms_b = _nesw(a), _nesw(b)

    def pointer_function(i: int, q: CellState) -> tuple:
        return arms_a if q[0] == 0 else arms_b

    ruleset = RuleSet(
        variant="plain",
        arms=4,
        data_rule=_xor4_data_rule,
        pointer_function=pointer_function,
    )
    reads = [((0, -p), (p, 0), (0, p), (-p, 0)) for p in (a, b)]  # not the rule's tuples
    return _xor_torus(
        "xor-plain", n, grid, steps, ruleset, None,
        lambda g, k: oracles.xor_evolution(n, n, g, lambda t, colour, bit: reads[bit], k),
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
    mid = n // 2

    def data_rule(ctx):
        nb = ctx.neighbors
        return (nb[0][0] + nb[1][0]) & 1

    # sign of the stored second arm: basic stores -a, general stores a and
    # negates it at access time
    sign = -1 if variant == "basic" else 1

    def pointer_rule(ctx):
        p1, p2 = ctx.cell[1]
        a = trunc_mod(2 * p1, n)
        if a == 0:
            a = 1
        b = trunc_mod(2 * p2, n)
        if b == 0:
            b = sign
        return (a, b)

    if variant == "basic":
        ruleset = RuleSet(
            variant="basic", arms=2, data_rule=data_rule, pointer_rule=pointer_rule
        )
    else:
        def modifier(ctx):
            p1, p2 = ctx.cell[1]
            return (p1, -p2)

        ruleset = RuleSet(
            variant="general",
            arms=2,
            data_rule=data_rule,
            pointer_rule=pointer_rule,
            address_modifier=modifier,
        )

    init_row = [0] * n
    init_row[mid] = 1

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
        # both variants read (a, -a), with a <- 2a mod n re-seeded at 1
        arms = [1]
        for _ in range(result.steps):
            arms.append((2 * arms[-1]) % n or 1)

        history = oracles.xor_evolution(
            n, 1, [init_row], lambda t, colour, bit: ((arms[t], 0), (-arms[t], 0)),
            result.steps,
        )
        for t, snap in enumerate(snaps):
            if history[t] != bytes(snap.data()):
                return f"data row t={t} differs from reference evolution"
            # the arm n/2 clears every cell, so only the stored pointers show
            # the re-seed that follows it
            if snap.states[mid].pointers != (arms[t], sign * arms[t]):
                return f"pointers at t={t} differ from the doubling recurrence"
        if n == 31 and result.steps == 5:
            from .formats import render_rows

            golden = oracles.load_golden(f"out-c-{variant}")
            report = oracles.compare_golden(
                render_rows(snaps, annotate), golden
            )
            if report:
                return report
        return None

    return _spec(
        f"xor1d-{variant}", Topology.ring(n), ruleset, init_row, (1, sign),
        Steps(steps), verify, annotate=annotate,
    )


# ---------------------------------------------------------------------------
# Fourier transform

def alg_fft(k: int = 3, values: Sequence[complex] | None = None) -> AlgorithmSpec:
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

    data = [(float(v.real), float(v.imag), 1, j) for j, v in enumerate(vals)]
    return _spec("fft", Topology.ring(n), ruleset, data, None, Steps(k), verify)


def fft_result(cfg: Configuration) -> list[complex]:
    return [complex(q.data[0], q.data[1]) for q in cfg.states]


# ---------------------------------------------------------------------------
# catalog

# Family entries look their builder up by name when called, so a wrapper
# installed on the module attribute sees every call.  The member of a family
# is fixed in the entry's body, so its parameters are only the options it takes.
def _reduce_entry(op: str) -> Callable[..., AlgorithmSpec]:
    return lambda n=16, data=None: alg_reduce(n, op, data)


def _xor2d_entry(rule: str) -> Callable[..., AlgorithmSpec]:
    return lambda n=8, grid=None, steps=8: alg_xor2d(n, rule, grid, steps)


CATALOG: dict[str, Callable[..., AlgorithmSpec]] = {
    "max": alg_max,
    "horn": alg_prefix_sum_horn,
    "fft": alg_fft,
    "xor-plain": lambda n=7, a=2, b=3, grid=None, steps=10: alg_xor_plain(
        n, a, b, grid, steps
    ),
    "bitonic": lambda n=16, data=None: alg_bitonic_merge(n, data, "general"),
    "bitonic-basic": lambda n=16, data=None: alg_bitonic_merge(n, data, "basic"),
    "xor1d-basic": lambda n=31, steps=5: alg_xor1d("basic", n, steps),
    "xor1d-general": lambda n=31, steps=5: alg_xor1d("general", n, steps),
}
for _op in ("sum", "max", "min", "and", "or", "avg"):
    CATALOG[f"reduce-{_op}"] = _reduce_entry(_op)
for _rule in _TORUS_RULES:
    CATALOG[f"xor2d-{_rule}"] = _xor2d_entry(_rule)


def default_instance(name: str) -> AlgorithmSpec:
    """A small canonical instance of a catalog algorithm (n <= 64)."""
    if name not in CATALOG:
        raise PreconditionError(f"unknown algorithm {name!r}")
    return CATALOG[name]()


def catalog_names() -> list[str]:
    return sorted(CATALOG)
