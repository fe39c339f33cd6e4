"""Pipeline schedules, hazard freedom, capacity formulas, workload bridging."""

import gc
import io
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gca import GcaError, PreconditionError, RuleEvaluationError, Steps
from gca import archsim
from gca.algorithms import alg_max, alg_prefix_sum_horn, alg_reduce
from gca.archsim import (
    ArchParams,
    PipelineEvent,
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

STAGES = ("Fetch", "Get", "Exe", "Write")


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
    # two writes to the same copy set / memory / bank in one cycle
    events = [
        PipelineEvent(cycle=4, stage="Write", lane=0, cell=0, bank=0),
        PipelineEvent(cycle=4, stage="Write", lane=0, cell=1, bank=0),
    ]
    conflicts = _check_hazards(events)
    assert conflicts == ["cycle 4: double write on ('R', 0) (cells 0 and 1)"]


def test_synthetic_read_conflict_detected():
    events = [
        PipelineEvent(cycle=1, stage="Fetch", lane=0, cell=0, bank=0),
        PipelineEvent(cycle=1, stage="Fetch", lane=0, cell=4, bank=0),
    ]
    conflicts = _check_hazards(events)
    assert conflicts == ["cycle 1: double read on ('R', 0) (cells 0 and 4)"]
    # one event listed twice still claims its port twice
    assert _check_hazards(events[:1] * 2) == [
        "cycle 1: double read on ('R', 0) (cells 0 and 0)"
    ]


def test_synthetic_get_conflict_detected():
    # two Gets on one lane's copies in one cycle; banks differ, so only the
    # lane's S copies can collide
    events = [
        PipelineEvent(cycle=2, stage="Get", lane=1, cell=1, bank=1),
        PipelineEvent(cycle=2, stage="Get", lane=1, cell=6, bank=2),
    ]
    conflicts = _check_hazards(events)
    assert conflicts == ["cycle 2: double read on ('S1', 1) (cells 1 and 6)"]
    assert _check_hazards(events[:1] + [events[1]._replace(lane=2)]) == []


def test_unknown_stage_rejected():
    events = [PipelineEvent(cycle=1, stage="Load", lane=0, cell=0, bank=0)]
    with pytest.raises(PreconditionError, match="unknown pipeline stage 'Load'"):
        _check_hazards(events)


def test_schedule_build_pauses_the_collector(collector_on, monkeypatch):
    seen = []

    def check(events):
        seen.append(gc.isenabled())
        return _check_hazards(events)

    monkeypatch.setattr(archsim, "_check_hazards", check)
    sched = dpa_simulate(ArchParams(n=8, k=2, p=2), generations=3)
    assert sched.total_cycles == 3 * 4 + 3 + 2
    assert seen == [False]
    assert gc.isenabled()
    gc.disable()
    seq_pipeline_simulate(ArchParams(n=5, k=1), generations=2)
    assert seen == [False, False]
    assert not gc.isenabled()


@pytest.mark.parametrize("outcome, error", [
    (RuntimeError("check failed"), RuntimeError),  # the check itself raises
    (["cycle 1: double read"], GcaError),  # a hazard found: _simulate raises
])
def test_schedule_build_restores_the_collector_when_it_raises(collector_on, monkeypatch, outcome, error):
    def check(events):
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(archsim, "_check_hazards", check)
    with pytest.raises(error):
        dpa_simulate(ArchParams(n=8, k=1, p=4), generations=2)
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# references: the generate-then-sort simulator, the per-copy hazard check and
# the field-by-field CSV writer that the schedule code must reproduce

def reference_schedule(params, generations):
    """(sorted events, total cycles, switches) built slot by slot."""
    n, p, sw = params.n, params.p, params.switch_cost
    slots = -(-n // p)
    events = []
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
    return events, total, switches


def reference_hazards(events, params):
    """Claims every port an access uses: k S copies per Get, the R bank and
    the bank in all k*p S copies per Write."""
    k, p = params.k, params.p
    period = -(-params.n // params.p) + params.switch_cost
    reads, writes, conflicts = {}, {}, []

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


def reference_csv(events):
    out = io.StringIO()
    out.write("cycle,stage,lane,cell,bank\n")
    for ev in events:
        out.write(f"{ev.cycle},{ev.stage},{ev.lane},{ev.cell},{ev.bank}\n")
    return out.getvalue()


@st.composite
def arch_points(draw):
    n = draw(st.integers(1, 40))
    params = ArchParams(
        n=n,
        k=draw(st.integers(1, 4)),
        p=draw(st.integers(1, n)),
        switch_cost=draw(st.integers(0, 3)),
    )
    return params, draw(st.integers(0, 4))


@given(arch_points())
def test_schedule_matches_reference(point):
    params, generations = point
    events, total, switches = reference_schedule(params, generations)
    conflicts = reference_hazards(events, params)
    if conflicts:
        with pytest.raises(GcaError, match=re.escape(conflicts[0])):
            dpa_simulate(params, generations)
        return
    sched = dpa_simulate(params, generations)
    assert sched.events == tuple(events)
    assert (sched.total_cycles, sched.switches) == (total, switches)
    assert sched.bank_conflicts == ()
    assert schedule_csv(sched) == reference_csv(events)


@st.composite
def event_lists(draw):
    """Small synthetic event lists, dense enough that ports often collide."""
    n = draw(st.integers(1, 12))
    params = ArchParams(
        n=n,
        k=draw(st.integers(1, 3)),
        p=draw(st.integers(1, n)),
        switch_cost=draw(st.integers(0, 3)),
    )
    stages = STAGES + ("Switch",) if draw(st.booleans()) else STAGES
    events = []
    for _ in range(draw(st.integers(0, 24))):
        cycle, stage = draw(st.integers(1, 6)), draw(st.sampled_from(stages))
        if stage == "Switch":
            events.append(PipelineEvent(cycle, stage, -1, -1, -1))
            continue
        events.append(PipelineEvent(
            cycle,
            stage,
            draw(st.integers(0, min(params.p, 3) - 1)),
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, min(params.p, 3) - 1)),
        ))
    if draw(st.booleans()):
        events.sort()
    else:
        random.Random(draw(st.integers(0, 2**16))).shuffle(events)
    return params, events


# a claim of the R bank or of a lane's first S copy, as opposed to the extra
# copies the reference claims as well
_OWN_PORT = re.compile(r"on \('(R|S1)', -?\d+\) ")


@given(event_lists())
def test_hazard_check_matches_reference(case):
    params, events = case
    ref = reference_hazards(events, params)
    got = _check_hazards(events)
    assert bool(got) == bool(ref)
    assert got[:1] == ref[:1]
    assert got == [m for m in ref if _OWN_PORT.search(m)]


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


def test_run_on_arch_names_the_algorithm_in_rule_failures():
    spec = alg_reduce(4, "sum", [1, "x", 2, 3])
    with pytest.raises(RuleEvaluationError) as exc:
        run_on_arch(spec, ArchParams(n=4, k=1))
    err = exc.value
    assert (err.algorithm, err.cell, err.time) == ("reduce-sum", 0, 0)
    assert str(err).startswith("reduce-sum: rule evaluation failed at cell 0, t=0")


@given(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(0, 3), st.integers(0, 4))
    )
)
def test_run_on_arch_cycles_match_reference_schedule(point):
    n, p, switch_cost, generations = point
    params = ArchParams(n=n, k=1, p=p, switch_cost=switch_cost)
    events, _, _ = reference_schedule(params, generations)
    _, cycles = run_on_arch(alg_max(n), params, generations)
    assert cycles == (events[-1].cycle if generations else 0)


def test_run_on_arch_rejects_negative_generations():
    with pytest.raises(PreconditionError, match="^generations cannot be negative$"):
        run_on_arch(alg_max(8), ArchParams(n=8, k=1), generations=-1)


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
