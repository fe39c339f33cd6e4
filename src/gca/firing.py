"""Synchronization ("firing squad") algorithms on rings of cells.

Four entries: a travelling-wave solution firing at t=n+1, the embedded-rings
variant synchronizing several disjoint subrings in parallel, and two
pointer-jumping solutions firing in logarithmic time.

All cells must reach the firing state in the same generation - no partial
firing ever - and afterwards the system returns to a quiescent regime.
"""

from __future__ import annotations

from typing import Sequence

from .algorithms import CATALOG, AlgorithmSpec, _need_trace, _pow2_ring, _spec
from .core import (
    CellState,
    Configuration,
    PreconditionError,
    RuleSet,
    RunResult,
    Steps,
    Topology,
    normalize_relative,
)


class FiringState:
    """Integer data coding shared by the firing algorithms: plain ints, so a
    state prints, hashes and round-trips through JSON as its number.

    ``A`` (attention) is used only by the second pointer-jumping solution;
    the first one codes its firing state as 2.
    """

    S, G, A, F = 0, 1, 2, 3


def _firing(snapshots, value, cells=None) -> tuple[list[int], int | None]:
    """The generations in which all of ``cells`` (default: every cell) hold
    ``value``, and the first generation in which only some of them do."""
    together: list[int] = []
    partial = None
    for t, cfg in enumerate(snapshots):
        idx = range(cfg.n) if cells is None else cells
        fired = sum(1 for i in idx if cfg.states[i].data == value)
        if fired == len(idx):
            together.append(t)
        elif fired and partial is None:
            partial = t
    return together, partial


def trace_rows(snapshots) -> list[str]:
    """Render generations as 'p0 .. pn-1 | d0 .. dn-1' rows (golden format)."""
    rows = []
    for cfg in snapshots:
        ps = " ".join(str(q.pointers[0]) for q in cfg.states)
        ds = " ".join(str(q.data) for q in cfg.states)
        rows.append(f"{ps} | {ds}")
    return rows


# ---------------------------------------------------------------------------
# wave solution

def firing_wave(
    n: int = 16, general_at: int = 0, steps: int | None = None
) -> AlgorithmSpec:
    """All n cells fire simultaneously at t = n+1 via a clockwise wave.

    Quiescent cells keep p=-1 (left neighbor).  The soldier left of the
    general starts a self-loop; every cell increments its pointer while its
    neighbor's pointer has moved on, so after one round trip all pointers
    rest on the general, which is the signal to fire.  Fired cells reset to
    the quiescent state one step later.
    """
    if n < 2:
        raise PreconditionError(f"need at least 2 cells, got n={n}")
    if not (0 <= general_at < n):
        raise PreconditionError(f"general position {general_at} outside 0..{n-1}")
    S, G, F = FiringState.S, FiringState.G, FiringState.F

    def pointer_rule(ctx):
        q = ctx.cell
        d = q[0]
        nb = ctx.neighbors[0]
        if (d == S or d == G) and (nb[0] == G or nb[1][0] != -1):
            return (normalize_relative(q[1][0] + 1, n),)
        if d == F:
            return (-1,)
        return q[1]

    def data_rule(ctx):
        q = ctx.cell
        nb = ctx.neighbors[0]
        if nb[0] == G and (q[1][0] != -1 or nb[1][0] == 0):
            return F
        if q[0] == F:
            return S
        return q[0]

    ruleset = RuleSet(
        variant="basic", arms=1, data_rule=data_rule, pointer_rule=pointer_rule
    )
    data = [S] * n
    data[general_at] = G

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        snaps = _need_trace(result)
        together, partial = _firing(snaps, F)
        fire = n + 1
        if together[:1] != [fire]:
            return f"expected simultaneous fire at t={fire}, got {together}"
        if partial is not None:
            return f"partial firing at t={partial}"
        if len(snaps) > fire + 1:
            after = snaps[fire + 1]
            if any(q != CellState(S, (-1,)) for q in after.states):
                return "no quiescent reset after firing"
        return None

    horizon = steps if steps is not None else n + 2
    return _spec(
        "fire-wave", Topology.ring(n), ruleset, data, (-1,), Steps(horizon), verify
    )


# ---------------------------------------------------------------------------
# embedded rings

def firing_rings(
    n: int = 9,
    rings: Sequence[Sequence[int]] = ((2, 4, 6), (1, 3, 5, 7)),
    generals: Sequence[int] = (6, 1),
    steps: int | None = None,
) -> AlgorithmSpec:
    """Several disjoint cell rings embedded in one array, each synchronizing
    independently: ring k fires all its cells at t = L(k)+1 and then every
    L(k) generations.

    Each active cell stores p1 (to its left ring neighbor, the wave marker)
    and the constant p2 (to its right ring neighbor).  Inactive cells carry
    p1=p2=0 and never change.  The printed rule set leaves fired cells stuck
    in F; to realize the stated periodic firing, fired soldiers revert to S
    and the single cell with p1 = p2 (mod n) - always the general, whose p1
    rests on the new wave head one step after firing - reverts to G.
    """
    if n < 2:
        raise PreconditionError(f"need at least 2 cells, got n={n}")
    seen: set[int] = set()
    for ring in rings:
        if len(ring) < 2:
            raise PreconditionError(f"ring {list(ring)} shorter than 2 cells")
        for c in ring:
            if not (0 <= c < n):
                raise PreconditionError(f"ring cell {c} outside 0..{n-1}")
            if c in seen:
                raise PreconditionError(f"cell {c} belongs to two rings")
            seen.add(c)
    if len(generals) != len(rings):
        raise PreconditionError("need exactly one general per ring")
    for g, ring in zip(generals, rings):
        if g not in ring:
            raise PreconditionError(f"general {g} not a member of its ring")
    S, G, F = FiringState.S, FiringState.G, FiringState.F

    def pointer_rule(ctx):
        q = ctx.cell
        p1, p2 = q.pointers
        if p1 == 0 and p2 == 0:
            return q.pointers
        nb = ctx.neighbors[0]
        if nb.data == G and p1 != 0 and nb.pointers[0] != 0:
            return (0, p2)
        if p1 == 0 or nb.pointers[0] == 0:
            return (normalize_relative(p1 + nb.pointers[1], n), p2)
        return q.pointers

    def data_rule(ctx):
        q = ctx.cell
        p1, p2 = q.pointers
        if p1 == 0 and p2 == 0:
            return q.data
        if q.data == F:
            return G if (p1 - p2) % n == 0 else S
        nb = ctx.neighbors[0]
        if nb.data == G and ((p1 + nb.pointers[1]) % n != 0 or nb.pointers[0] == 0):
            return F
        return q.data

    ruleset = RuleSet(
        variant="basic", arms=2, data_rule=data_rule, pointer_rule=pointer_rule
    )
    ring_list = [list(r) for r in rings]
    lengths = [len(r) for r in ring_list]
    data = [S] * n
    pointers = [(0, 0)] * n
    for ring, g in zip(ring_list, generals):
        L = len(ring)
        for j, c in enumerate(ring):
            left = ring[j - 1]
            right = ring[(j + 1) % L]
            pointers[c] = (-((c - left) % n), (right - c) % n)
        data[g] = G

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        snaps = _need_trace(result)
        inactive = [i for i in range(n) if i not in seen]
        first = snaps[0]
        for cfg in snaps:
            for i in inactive:
                if cfg.states[i] != first.states[i]:
                    return f"inactive cell {i} changed at t={cfg.time}"
        horizon = len(snaps) - 1
        for ring, L in zip(ring_list, lengths):
            want = [t for t in range(L + 1, horizon + 1, L)]
            got, partial = _firing(snaps, F, ring)
            if partial is not None:
                return f"partial firing of ring {ring} at t={partial}"
            if got != want:
                return f"ring {ring} fired at {got}, expected {want}"
        return None

    horizon = steps if steps is not None else 2 * max(lengths) + 2
    return _spec(
        "fire-rings", Topology.ring(n), ruleset, data, pointers, Steps(horizon), verify
    )


# ---------------------------------------------------------------------------
# pointer jumping, solution 1

def firing_jump_v1(
    n: int = 8, general_at: int = 0, steps: int | None = None
) -> AlgorithmSpec:
    """Logarithmic-time firing by pointer doubling; needs n = 2^k and all
    pointers at +1 when the general appears.  States: 0 soldier, 1 general,
    2 fire; every cell fires at t = 1 + log2(n).

    The pointer rule p' = (p + p*) mod n uses the plain mathematical modulus
    (the printed n=8 run keeps the value 4 rather than its window form -4).
    """
    k = _pow2_ring(n, "pointer-jumping solution 1")
    if not (0 <= general_at < n):
        raise PreconditionError(f"general position {general_at} outside 0..{n-1}")

    def pointer_rule(ctx):
        return ((ctx.cell.pointers[0] + ctx.neighbors[0].pointers[0]) % n,)

    def data_rule(ctx):
        q = ctx.cell
        p = q.pointers[0]
        ds = ctx.neighbors[0].data
        if p != 0 and q.data < ds:
            return ds
        if p == 0 and q.data == 1:
            return 2
        return q.data

    ruleset = RuleSet(
        variant="basic", arms=1, data_rule=data_rule, pointer_rule=pointer_rule
    )
    data = [0] * n
    data[general_at] = 1

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        snaps = _need_trace(result)
        together, partial = _firing(snaps, 2)
        if together[:1] != [k + 1]:
            return f"expected fire at t={k + 1}, got {together}"
        if partial is not None:
            return f"partial firing at t={partial}"
        if n == 8 and general_at == 0:
            from .oracles import compare_golden, load_golden

            golden = load_golden("jump1-n8")
            return compare_golden(trace_rows(snaps)[: len(golden.rows)], golden)
        return None

    horizon = steps if steps is not None else k + 1
    return _spec(
        "fire-jump1", Topology.ring(n), ruleset, data, (1,), Steps(horizon), verify
    )


# ---------------------------------------------------------------------------
# pointer jumping, solution 2

def next_power_of_two(n: int) -> int:
    return 1 << (n - 1).bit_length()


def jump_v2_next_p(p: int, n: int) -> int:
    """One step of the busy-wait pointer cycle (1, 2, 4, ..., N/2, 0).

    Zero re-seeds to 1; a negative value (doubling wrapped past n) closes the
    cycle with 0; otherwise the pointer doubles, stored in window form.
    """
    if p == 0:
        return 1
    if p < 0:
        return 0
    return normalize_relative((2 * p) % n, n)


def jump_v2_cycle(n: int) -> list[int]:
    """The full pointer orbit starting at 1; length is log2(N) + 1."""
    cycle = [1]
    p = jump_v2_next_p(1, n)
    while p != 1:
        cycle.append(p)
        p = jump_v2_next_p(p, n)
    return cycle


def firing_jump_v2(
    n: int = 9,
    general_at: int | None = None,
    introduce_at: int = 1,
    start_p: int = 0,
    steps: int | None = None,
) -> AlgorithmSpec:
    """Pointer-jumping synchronization for arbitrary n and late generals.

    Without a general the pointers orbit (1, 2, 4, ..., N/2, 0) forever
    (N = next power of two >= n) and nothing else happens: a quiescent orbit.
    Introducing a general (an external event at generation ``introduce_at``)
    starts the spread; all cells fire (state 3) between 2+log2(N) and
    2+2*log2(N) generations later depending on the cycle phase.

    ``start_p`` selects the initial phase; 0 and -1 reproduce the two
    printed n=9 runs when the general appears at generation 1.
    """
    if n < 2:
        raise PreconditionError(f"need at least 2 cells, got n={n}")
    if general_at is None:
        general_at = n // 2
    if not (0 <= general_at < n):
        raise PreconditionError(f"general position {general_at} outside 0..{n-1}")
    if introduce_at < 0:
        raise PreconditionError("general cannot be introduced before t=0")
    N = next_power_of_two(n)
    logN = N.bit_length() - 1

    def pointer_rule(ctx):
        return (jump_v2_next_p(ctx.cell.pointers[0], n),)

    def data_rule(ctx):
        q = ctx.cell
        p = q.pointers[0]
        d = q.data
        ds = ctx.neighbors[0].data
        if p != 0 and d < ds:
            return ds
        if p == 0 and d == 1:
            return 2
        if p == 0 and d == 2:
            return 3
        return d

    ruleset = RuleSet(
        variant="basic", arms=1, data_rule=data_rule, pointer_rule=pointer_rule
    )

    def introduce(cfg: Configuration) -> None:
        q = cfg.states[general_at]
        cfg.states[general_at] = CellState(1, q.pointers)

    horizon = steps if steps is not None else introduce_at + 2 + 2 * logN + 1

    def verify(spec: AlgorithmSpec, result: RunResult) -> str | None:
        snaps = _need_trace(result)
        together, partial = _firing(snaps, 3)
        if not together:
            return f"no firing within {len(snaps) - 1} generations"
        delta = together[0] - introduce_at
        if not (2 + logN <= delta <= 2 + 2 * logN):
            return (
                f"fire {delta} generations after introduction, outside "
                f"[{2 + logN}, {2 + 2 * logN}]"
            )
        if partial is not None:
            return f"partial firing at t={partial}"
        if (n, general_at, introduce_at) == (9, 4, 1) and start_p in (0, -1):
            from .oracles import compare_golden, load_golden

            golden = load_golden("jump2-n9-a" if start_p == 0 else "jump2-n9-b")
            return compare_golden(trace_rows(snaps)[: len(golden.rows)], golden)
        return None

    return _spec(
        "fire-jump2", Topology.ring(n), ruleset, [0] * n, (start_p,), Steps(horizon),
        verify, events=((introduce_at, introduce),),
    )


# ---------------------------------------------------------------------------
# catalog registration

CATALOG.update(
    {
        "fire-wave": firing_wave,
        "fire-rings": firing_rings,
        "fire-jump1": firing_jump_v1,
        "fire-jump2": firing_jump_v2,
    }
)
