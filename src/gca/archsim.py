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
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import NamedTuple

from .algorithms import AlgorithmSpec
from .core import (
    Configuration,
    GcaError,
    PreconditionError,
    apply_events,
    step_sync,
)

STAGES = ("Fetch", "Get", "Exe", "Write")


@dataclass(frozen=True)
class ArchParams:
    """Architecture parameters: n cells, k pointers per cell, p lanes,
    delta data bits, T clock period.

    k=0 is meaningful for the capacity formulas (pure double-buffered
    data); the pipeline simulators need k >= 1.
    """

    n: int
    k: int = 1
    p: int = 1
    delta: int = 8
    T: float = 1.0
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

    def throughput(self) -> float:
        """Cell results per cycle, fill latency and switches included."""
        if self.total_cycles == 0:
            return 0.0
        return self.generations * self.params.n / self.total_cycles


def _address_bits(n: int) -> int:
    return max(0, (n - 1).bit_length())


def _simulate(params: ArchParams, generations: int) -> Schedule:
    if params.k < 1:
        raise PreconditionError("pipeline simulation needs k >= 1")
    if generations < 0:
        raise PreconditionError("generations cannot be negative")
    n, k, p, sw = params.n, params.k, params.p, params.switch_cost
    slots = -(-n // p)
    events: list[PipelineEvent] = []
    period = slots + sw
    for g in range(generations):
        base = g * period
        for z in range(slots):
            for j in range(p):
                cell = z * p + j
                if cell >= n:
                    continue  # idle tail lane; the cycle slot still elapses
                for s, stage in enumerate(STAGES):
                    events.append(
                        PipelineEvent(base + z + 1 + s, stage, j, cell, cell % p)
                    )
        if sw and g + 1 < generations:
            for c in range(sw):
                events.append(
                    PipelineEvent(base + slots + 1 + c, "Switch", -1, -1, -1)
                )
    events.sort()
    switches = sw * max(0, generations - 1)
    total = generations * slots + 3 + switches if generations else 0
    conflicts = _check_hazards(events, params, generations)
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


def _check_hazards(
    events: list[PipelineEvent], params: ArchParams, generations: int
) -> list[str]:
    """Each memory read port and each write bank may serve one access per
    cycle.  Reads and writes of one memory may share a cycle (separate
    ports); writes forward to same-cycle reads of the same address.
    """
    k, p = params.k, params.p
    period = -(-params.n // params.p) + params.switch_cost
    reads: dict[tuple, PipelineEvent] = {}
    writes: dict[tuple, PipelineEvent] = {}
    conflicts: list[str] = []

    def claim(table, key, ev, kind):
        if key in table:
            conflicts.append(f"cycle {ev.cycle}: double {kind} on {key[2:]} "
                             f"(cells {table[key].cell} and {ev.cell})")
        table[key] = ev

    for ev in events:
        if ev.stage == "Switch":
            continue
        g = (ev.cycle - 1 - STAGES.index(ev.stage)) // period
        rd_set = g % 2
        wr_set = 1 - rd_set
        if ev.stage == "Fetch":
            claim(reads, (ev.cycle, rd_set, "R", ev.bank), ev, "read")
        elif ev.stage == "Get":
            for i in range(1, k + 1):
                claim(reads, (ev.cycle, rd_set, f"S{i}", ev.lane), ev, "read")
        elif ev.stage == "Write":
            claim(writes, (ev.cycle, wr_set, "R", ev.bank), ev, "write")
            for i in range(1, k + 1):
                for lane in range(p):
                    claim(
                        writes, (ev.cycle, wr_set, f"S{i}", lane, ev.bank), ev, "write"
                    )
    return conflicts


def seq_pipeline_simulate(params: ArchParams, generations: int = 1) -> Schedule:
    """One-lane pipeline: one cell per cycle, n+3 cycles for a single
    generation, a new result every cycle in steady state regardless of k.
    """
    if params.p != 1:
        params = ArchParams(
            params.n, params.k, 1, params.delta, params.T, params.switch_cost
        )
    return _simulate(params, generations)


def dpa_simulate(params: ArchParams, generations: int = 1) -> Schedule:
    """p-lane pipeline over banked memory: ceil(n/p) iterations per
    generation, owner writes only (cell i -> bank i mod p).

    When p does not divide n the final iteration runs with idle lanes;
    the cycle slot is still spent and shows up in the totals.
    """
    return _simulate(params, generations)


# ---------------------------------------------------------------------------
# capacity formulas

def seq_memory_capacity(params: ArchParams) -> int:
    """Bits for the 2(k+1)-memory sequential design:
    2(k+1) * n * (delta + k*ceil(log2 n))."""
    if params.n < 2:
        raise PreconditionError("capacity formula needs n >= 2")
    n, k = params.n, params.k
    return 2 * (k + 1) * n * (params.delta + k * _address_bits(n))


def dpa_memory_capacity(params: ArchParams) -> int:
    """Bits for the banked data-parallel design:
    2n(kp+1) * (delta + k*ceil(log2 n)).

    With p=1 this equals seq_memory_capacity.  multiport_memory_capacity
    gives the idealized lower bound a 2kp-port memory would allow.
    """
    if params.n < 2:
        raise PreconditionError("capacity formula needs n >= 2")
    n, k, p = params.n, params.k, params.p
    return 2 * n * (k * p + 1) * (params.delta + k * _address_bits(n))


def multiport_memory_capacity(params: ArchParams) -> int:
    """Idealized bound with true multiport memories: 2n(delta + k*ceil(log2 n))."""
    if params.n < 2:
        raise PreconditionError("capacity formula needs n >= 2")
    n, k = params.n, params.k
    return 2 * n * (params.delta + k * _address_bits(n))


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
    out = io.StringIO()
    out.write("cycle,stage,lane,cell,bank\n")
    for ev in schedule.events:
        out.write(f"{ev.cycle},{ev.stage},{ev.lane},{ev.cell},{ev.bank}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# functional bridge

def run_on_arch(
    spec: AlgorithmSpec,
    arch: ArchParams,
    generations: int | None = None,
) -> tuple[Configuration, int]:
    """Run an algorithm on the cycle model: the functional result is the
    engine's synchronous result, the cycle count comes from the schedule.

    ``generations`` defaults to the algorithm's expected step count.
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
    cfg = spec.initial()
    if arch.n != cfg.n:
        raise PreconditionError(
            f"architecture sized for n={arch.n}, algorithm uses n={cfg.n}"
        )
    events = dict(spec.events)
    apply_events(cfg, events)
    if G == 0:
        return cfg, 0
    order = range(cfg.n)  # slot z, lane j evaluates cell z*p + j
    for _ in range(G):
        cfg = step_sync(cfg, spec.ruleset, phase1_order=order)
        apply_events(cfg, events)
    sched = _simulate(arch, G)
    return cfg, sched.total_cycles
