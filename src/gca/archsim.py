"""Cycle-level and capacity models of two hardware realizations.

Both architectures evaluate one generation by streaming cells through a
4-stage pipeline (Fetch, Get, Exe, Write) over double-buffered memories:
reads go to one memory set, writes to the other, and the sets are
interchanged between generations (the "switch", 1 cycle by default).

* sequential: one pipeline lane, one cell per cycle, 2(k+1) memories
  (per set: one for the own-cell Fetch, k for the neighbor Gets, so all
  k neighbor reads happen in a single cycle).
* data-parallel (DPA): p lanes; the cell array is interleaved across p
  banks (cell i lives in bank i mod p at slot i div p), each lane owns k
  private full copies for its Gets, 2(kp+1) memories in total.

Writes fan out to every copy of the destination set; each copy is banked
p ways so the p per-cycle writes land in distinct banks.  A generation's
tail Writes may share a cycle with the next generation's first Fetches on
the same memory; the separate read/write ports make this legal, with the
written value forwarded when the addresses coincide.

Total cycles for G generations: G*ceil(n/p) + 3 + switch*(G-1) - the
3-cycle fill latency is paid once, switches between generations.

Events are listed by (cycle, stage, lane); within a cycle the stages sort
by name (Exe, Fetch, Get, Switch, Write) and are emitted in that order.
The hazard check keys each access's port claim (cycle, stage, port): a
Fetch claims the R bank, a Get the lane's S1 copy, a Write the R bank;
within a stage the memory set is a function of the cycle.  That covers
every copy: a Write fans out to the same bank of all k*p S copies, so two
Writes collide on a copy exactly when they collide on R, and a Get reads
its lane's k copies together, so any collision there is one on S1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from .algorithms import AlgorithmSpec
from .core import Configuration, GcaError, PreconditionError, RuleEvaluationError, Steps, run
from .core import _collector_paused, step_sync  # step_sync re-exported: bench/tracer.py patches it


@dataclass(frozen=True)
class ArchParams:
    """Architecture parameters: n cells, k pointers per cell, p lanes,
    delta data bits, and the cycles of each memory-set switch between
    generations.

    k=0 is meaningful for the capacity formulas (pure double-buffered
    data); the pipeline simulators need k >= 1.
    """

    n: int
    k: int = 1
    p: int = 1
    delta: int = 8
    switch_cost: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError(f"need n >= 1, got n={self.n}")
        if self.k < 0:
            raise PreconditionError(f"need k >= 0, got k={self.k}")
        if not (1 <= self.p <= self.n):
            raise PreconditionError(f"need 1 <= p <= n, got p={self.p}, n={self.n}")
        if self.delta < 1:
            raise PreconditionError(f"need delta >= 1, got delta={self.delta}")
        if self.switch_cost < 0:
            raise PreconditionError("switch cost cannot be negative")


class PipelineEvent(NamedTuple):
    cycle: int
    stage: str
    lane: int
    cell: int  # -1 for switch events
    bank: int  # cell mod p; -1 for switch events


@dataclass
class Schedule:
    """Event-level result of a pipeline simulation."""

    params: ArchParams
    generations: int
    events: tuple[PipelineEvent, ...]
    total_cycles: int
    switches: int
    bank_conflicts: tuple[str, ...] = ()

    @property
    def slots(self) -> int:
        return -(-self.params.n // self.params.p)

    def summary(self) -> str:
        return (
            f"{self.generations * self.slots} cycles + 3 latency + "
            f"{self.switches} switches"
        )


def _cycle_law(params: ArchParams, generations: int) -> tuple[int, int]:
    """(total, switch) cycles of G generations: G*ceil(n/p) + 3 + switch*(G-1)."""
    if params.k < 1:
        raise PreconditionError("pipeline simulation needs k >= 1")
    if generations < 0:
        raise PreconditionError("generations cannot be negative")
    switches = params.switch_cost * max(0, generations - 1)
    slots = -(-params.n // params.p)
    return (generations * slots + 3 + switches if generations else 0), switches


def _simulate(params: ArchParams, generations: int) -> Schedule:
    total, switches = _cycle_law(params, generations)
    n, p, sw = params.n, params.p, params.switch_cost
    slots = -(-n // p)
    # Slot t of the run (slot z of generation g is t = g*(slots+sw) + z) is
    # fetched at cycle t+1, read by Get at t+2, executed at t+3 and written
    # at t+4: cycle c finds them at feed[c+3], [c+2], [c+1] and [c].  A slot
    # holds its (lane, cell) pairs; None marks a switch cycle.
    rows = [tuple(enumerate(range(z * p, min(z * p + p, n)))) for z in range(slots)]
    timeline = (rows + [None] * sw) * generations
    feed = [()] * 4 + timeline[: len(timeline) - sw] + [()] * 3
    new, event = tuple.__new__, PipelineEvent
    events: list[PipelineEvent] = []
    add = events.append
    with _collector_paused():
        for c in range(1, total + 1):
            for lane, cell in feed[c + 1] or ():
                add(new(event, (c, "Exe", lane, cell, lane)))
            fetched = feed[c + 3]
            for lane, cell in fetched or ():
                add(new(event, (c, "Fetch", lane, cell, lane)))
            for lane, cell in feed[c + 2] or ():
                add(new(event, (c, "Get", lane, cell, lane)))
            if fetched is None:
                add(new(event, (c, "Switch", -1, -1, -1)))
            for lane, cell in feed[c] or ():
                add(new(event, (c, "Write", lane, cell, lane)))
        conflicts = _check_hazards(events)
    sched = Schedule(
        params=params,
        generations=generations,
        events=tuple(events),
        total_cycles=total,
        switches=switches,
        bank_conflicts=tuple(conflicts),
    )
    if conflicts:
        raise GcaError(f"structural hazard in schedule: {conflicts[0]}")
    return sched


_PORTS = {"Fetch": ("read", "R"), "Get": ("read", "S1"), "Write": ("write", "R")}


def _check_hazards(events: list[PipelineEvent]) -> list[str]:
    """Each memory read port and each write bank may serve one access per
    cycle.  Reads and writes of one memory may share a cycle (separate
    ports); writes forward to same-cycle reads of the same address.  The
    claims depend on the events alone.
    """
    claims: dict[tuple, PipelineEvent] = {}
    conflicts: list[str] = []
    for ev in events:
        cycle, stage, lane, cell, bank = ev
        if stage == "Exe" or stage == "Switch":
            continue  # Exe touches no memory; Switch interchanges the sets
        if stage not in _PORTS:
            raise PreconditionError(f"unknown pipeline stage {stage!r}")
        key = (cycle, stage, lane if stage == "Get" else bank)
        other = claims.get(key)
        if other is not None:
            kind, memory = _PORTS[stage]
            conflicts.append(f"cycle {cycle}: double {kind} on {(memory, key[2])} "
                             f"(cells {other.cell} and {cell})")
        claims[key] = ev
    return conflicts


def seq_pipeline_simulate(params: ArchParams, generations: int = 1) -> Schedule:
    """One-lane pipeline: one cell per cycle, n+3 cycles for a single
    generation, a new result every cycle in steady state regardless of k.
    The ``p`` of ``params`` is ignored: the model runs one lane.
    """
    return _simulate(replace(params, p=1), generations)


def dpa_simulate(params: ArchParams, generations: int = 1) -> Schedule:
    """p-lane pipeline over banked memory: ceil(n/p) iterations per
    generation, owner writes only (cell i -> bank i mod p).

    When p does not divide n the final iteration runs with idle lanes;
    the cycle slot is still spent and shows up in the totals.
    """
    return _simulate(params, generations)


# ---------------------------------------------------------------------------
# capacity formulas

def _memory_bits(params: ArchParams) -> int:
    """Bits of one memory of n cells: n * (delta + k*ceil(log2 n))."""
    if params.n < 2:
        raise PreconditionError("capacity formula needs n >= 2")
    return params.n * (params.delta + params.k * (params.n - 1).bit_length())


def seq_memory_capacity(params: ArchParams) -> int:
    """Bits for the 2(k+1)-memory sequential design:
    2(k+1) * n * (delta + k*ceil(log2 n))."""
    return 2 * (params.k + 1) * _memory_bits(params)


def dpa_memory_capacity(params: ArchParams) -> int:
    """Bits for the banked data-parallel design:
    2n(kp+1) * (delta + k*ceil(log2 n)).

    With p=1 this equals seq_memory_capacity.  multiport_memory_capacity
    gives the idealized lower bound a 2kp-port memory would allow.
    """
    return 2 * (params.k * params.p + 1) * _memory_bits(params)


def multiport_memory_capacity(params: ArchParams) -> int:
    """Idealized bound with true multiport memories: 2n(delta + k*ceil(log2 n))."""
    return 2 * _memory_bits(params)


def capacity_table(params: ArchParams) -> str:
    """Plain-text capacity report for one (n, k, p, delta) point."""
    rows = [
        ("sequential", seq_memory_capacity(params)),
        ("dpa", dpa_memory_capacity(params)),
        ("multiport", multiport_memory_capacity(params)),
    ]
    head = (
        f"capacity (bits) for n={params.n} k={params.k} "
        f"p={params.p} delta={params.delta}"
    )
    width = max(len(name) for name, _ in rows)
    lines = [head]
    for name, bits in rows:
        lines.append(f"  {name:<{width}}  {bits}")
    return "\n".join(lines) + "\n"


def schedule_csv(schedule: Schedule) -> str:
    row = "%d,%s,%d,%d,%d\n"
    return "cycle,stage,lane,cell,bank\n" + "".join([row % ev for ev in schedule.events])


# ---------------------------------------------------------------------------
# functional bridge

def run_on_arch(
    spec: AlgorithmSpec,
    arch: ArchParams,
    generations: int | None = None,
) -> tuple[Configuration, int]:
    """Run an algorithm on the cycle model: the functional result is
    :func:`~gca.core.run`'s synchronous result with the algorithm's events,
    the cycle count comes from the cycle law (module docstring).  No schedule
    is built here; :func:`dpa_simulate` builds and hazard-checks one.

    ``generations`` defaults to the algorithm's expected step count.  A rule
    failure names the algorithm, as in :func:`~gca.algorithms.execute`.
    """
    if spec.ruleset.arms > arch.k:
        raise PreconditionError(
            f"algorithm {spec.name} needs k >= {spec.ruleset.arms} pointer "
            f"memories, architecture has k={arch.k}"
        )
    G = generations if generations is not None else spec.expected_steps
    if G is None:
        raise PreconditionError(
            f"algorithm {spec.name} has no fixed generation count; "
            "pass generations explicitly"
        )
    if arch.n != spec.topology.n:
        raise PreconditionError(
            f"architecture sized for n={arch.n}, algorithm uses n={spec.topology.n}"
        )
    cycles, _ = _cycle_law(arch, G)
    try:
        return run(spec.initial(), spec.ruleset, Steps(G), events=spec.events).config, cycles
    except RuleEvaluationError as exc:
        exc.algorithm = spec.name
        raise
