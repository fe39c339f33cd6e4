"""Pipeline schedules, hazard freedom, capacity formulas, workload bridging."""

import random

import pytest

from gca import PreconditionError, Steps
from gca.algorithms import alg_prefix_sum_horn, alg_reduce
from gca.archsim import (
    ArchParams,
    PipelineEvent,
    STAGES,
    _check_hazards,
    capacity_table,
    dpa_memory_capacity,
    dpa_simulate,
    multiport_memory_capacity,
    run_on_arch,
    schedule_csv,
    seq_memory_capacity,
    seq_pipeline_simulate,
)
from gca import execute
from gca.firing import firing_jump_v2


# ---------------------------------------------------------------------------
# parameters

def test_params_validation():
    with pytest.raises(PreconditionError):
        ArchParams(n=0)
    with pytest.raises(PreconditionError):
        ArchParams(n=8, k=-1)
    with pytest.raises(PreconditionError):
        ArchParams(n=8, p=0)
    with pytest.raises(PreconditionError):
        ArchParams(n=8, p=9)
    with pytest.raises(PreconditionError):
        ArchParams(n=8, delta=0)
    ArchParams(n=8, k=2, p=4)  # fine


# ---------------------------------------------------------------------------
# sequential pipeline

def test_seq_total_cycle_law():
    for n in (1, 2, 7, 16, 33):
        for gens in (1, 2, 3, 4):
            sched = seq_pipeline_simulate(ArchParams(n=n, k=1), generations=gens)
            assert sched.total_cycles == gens * n + 3 + (gens - 1)
            assert sched.switches == gens - 1


def test_seq_single_generation_events():
    sched = seq_pipeline_simulate(ArchParams(n=4, k=1), generations=1)
    per_stage = {}
    for ev in sched.events:
        per_stage.setdefault(ev.stage, []).append(ev)
    assert sorted(per_stage) == sorted(STAGES)
    fetches = sorted(ev.cycle for ev in per_stage["Fetch"])
    writes = sorted(ev.cycle for ev in per_stage["Write"])
    assert fetches == [1, 2, 3, 4]
    assert writes == [4, 5, 6, 7]  # three stages later
    assert sched.total_cycles == 7


def test_seq_switch_events_between_generations():
    sched = seq_pipeline_simulate(ArchParams(n=3, k=1), generations=2)
    switches = [ev for ev in sched.events if ev.stage == "Switch"]
    assert len(switches) == 1
    assert switches[0].lane == switches[0].cell == switches[0].bank == -1


def test_seq_zero_generations():
    sched = seq_pipeline_simulate(ArchParams(n=5, k=1), generations=0)
    assert sched.total_cycles == 0 and sched.events == ()


def test_seq_requires_copies():
    with pytest.raises(PreconditionError):
        seq_pipeline_simulate(ArchParams(n=4, k=0), generations=1)


def test_throughput_approaches_one():
    sched = seq_pipeline_simulate(ArchParams(n=1000, k=1), generations=1)
    assert abs(sched.throughput() - 1000 / 1003) < 1e-12
    assert sched.throughput() > 0.99


def test_summary_line():
    sched = seq_pipeline_simulate(ArchParams(n=8, k=2), generations=3)
    assert sched.summary() == "24 cycles + 3 latency + 2 switches"


# ---------------------------------------------------------------------------
# hazards

def test_schedules_are_hazard_free():
    rng = random.Random(51)
    for _ in range(20):
        n = rng.randint(1, 24)
        p = rng.randint(1, n)
        k = rng.randint(1, 3)
        dpa_simulate(ArchParams(n=n, k=k, p=p), generations=rng.randint(1, 3))


def test_synthetic_write_conflict_detected():
    params = ArchParams(n=4, k=1)
    # two writes to the same copy set / memory / bank in one cycle
    events = [
        PipelineEvent(cycle=4, stage="Write", lane=0, cell=0, bank=0),
        PipelineEvent(cycle=4, stage="Write", lane=0, cell=1, bank=0),
    ]
    conflicts = _check_hazards(events, params, 1)
    assert conflicts and "double write" in conflicts[0]


def test_synthetic_read_conflict_detected():
    params = ArchParams(n=8, k=1)
    events = [
        PipelineEvent(cycle=1, stage="Fetch", lane=0, cell=0, bank=0),
        PipelineEvent(cycle=1, stage="Fetch", lane=0, cell=4, bank=0),
    ]
    conflicts = _check_hazards(events, params, 1)
    assert conflicts and "double read" in conflicts[0]


# ---------------------------------------------------------------------------
# parallel lanes

def test_dpa_slots_per_generation():
    for n, p, slots in ((8, 4, 2), (10, 4, 3), (16, 1, 16), (5, 5, 1)):
        sched = dpa_simulate(ArchParams(n=n, k=1, p=p), generations=1)
        assert sched.slots == slots
        assert sched.total_cycles == slots + 3


def test_dpa_with_one_lane_matches_seq():
    a = seq_pipeline_simulate(ArchParams(n=9, k=2), generations=2)
    b = dpa_simulate(ArchParams(n=9, k=2, p=1), generations=2)
    assert a.total_cycles == b.total_cycles
    assert a.events == b.events


def test_dpa_lane_assignment():
    sched = dpa_simulate(ArchParams(n=8, k=1, p=4), generations=1)
    by_lane = {}
    for ev in sched.events:
        if ev.stage == "Fetch":
            by_lane.setdefault(ev.lane, []).append(ev.cell)
    assert sorted(by_lane) == [0, 1, 2, 3]
    assert all(len(cells) == 2 for cells in by_lane.values())


# ---------------------------------------------------------------------------
# capacities

def test_capacity_formula_values():
    assert seq_memory_capacity(ArchParams(n=256, k=2, delta=8)) == 36864
    assert dpa_memory_capacity(ArchParams(n=256, k=1, p=4, delta=8)) == 40960
    assert seq_memory_capacity(ArchParams(n=2, k=1, delta=1)) == 16


def test_capacity_no_copies_degenerates():
    # k=0: just the two alternating data sets
    assert seq_memory_capacity(ArchParams(n=16, k=0, delta=8)) == 2 * 16 * 8


def test_capacity_needs_two_cells():
    with pytest.raises(PreconditionError, match="n >= 2"):
        seq_memory_capacity(ArchParams(n=1, k=1))


def test_capacity_monotone_in_k():
    caps = [
        seq_memory_capacity(ArchParams(n=64, k=k, delta=8)) for k in range(4)
    ]
    assert caps == sorted(caps) and len(set(caps)) == 4


def test_multiport_capacity_smaller_than_dpa():
    p_multi = multiport_memory_capacity(ArchParams(n=256, k=1, p=4, delta=8))
    p_dpa = dpa_memory_capacity(ArchParams(n=256, k=1, p=4, delta=8))
    assert p_multi < p_dpa


def test_capacity_table_text():
    text = capacity_table(ArchParams(n=256, k=2, p=1, delta=8))
    assert "capacity (bits)" in text
    assert "36864" in text
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# CSV

def test_schedule_csv_shape():
    sched = seq_pipeline_simulate(ArchParams(n=2, k=1), generations=1)
    lines = schedule_csv(sched).splitlines()
    assert lines[0] == "cycle,stage,lane,cell,bank"
    assert len(lines) == 1 + len(sched.events)
    first = lines[1].split(",")
    assert first[0].isdigit() and first[1] in STAGES + ("Switch",)


# ---------------------------------------------------------------------------
# running real workloads

def test_run_on_arch_matches_engine():
    spec = alg_reduce(8, "sum", [3, 1, 4, 1, 5, 9, 2, 6])
    cfg, cycles = run_on_arch(spec, ArchParams(n=8, k=2))
    ref = execute(spec, stop=None)
    # engine runs to its own stop; compare at the simulated generation count
    ref3 = execute(spec, stop=__import__("gca").Steps(3))
    assert cfg.states == ref3.config.states
    assert cycles == 3 * 8 + 3 + 2


def test_run_on_arch_parallel_lanes():
    spec = alg_prefix_sum_horn(16)
    cfg, cycles = run_on_arch(spec, ArchParams(n=16, k=1, p=4), generations=4)
    ref = execute(spec, stop=__import__("gca").Steps(4))
    assert cfg.states == ref.config.states
    assert cycles == 4 * 4 + 3 + 3


def test_run_on_arch_guards():
    spec = alg_reduce(8, "sum")
    with pytest.raises(PreconditionError, match="k >= 1"):
        run_on_arch(spec, ArchParams(n=8, k=0))
    with pytest.raises(PreconditionError):
        run_on_arch(spec, ArchParams(n=16, k=1))  # size mismatch


def test_run_on_arch_zero_generations():
    spec = alg_reduce(4, "sum")
    cfg, cycles = run_on_arch(spec, ArchParams(n=4, k=1), generations=0)
    assert cycles == 0
    assert cfg.states == spec.initial().states


def test_run_on_arch_zero_generations_applies_events():
    spec = firing_jump_v2(9, introduce_at=0)
    cfg, _ = run_on_arch(spec, ArchParams(n=9, k=1), generations=0)
    assert cfg.states == execute(spec, Steps(0)).config.states
    assert cfg.data() != spec.initial().data()
