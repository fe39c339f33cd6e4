"""Engine semantics: addressing, two-phase stepping, halting, traces."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gca import (
    CATALOG,
    ByPointer,
    CellState,
    FixedPoint,
    PreconditionError,
    RuleEvaluationError,
    RuleSet,
    StepLimitError,
    Steps,
    Topology,
    make_configuration,
    normalize_relative,
    resolve,
    execute,
    run,
    step_async,
    step_sync,
)
from gca.core import Address, default_step_limit
from test_plan import owner_writes


def incr_rule(ctx):
    return ctx.cell.data + 1


def keep_pointers(ctx):
    return ctx.cell.pointers


def max_ruleset():
    return RuleSet(
        variant="basic",
        arms=1,
        data_rule=lambda ctx: max(ctx.cell.data, ctx.neighbors[0].data),
        pointer_rule=keep_pointers,
    )


# ---------------------------------------------------------------------------
# addressing

def test_normalize_relative_examples():
    assert normalize_relative(-1, 8) == -1
    assert normalize_relative(7, 8) == -1
    assert normalize_relative(5, 9) == -4
    assert normalize_relative(0, 1) == 0


@settings(max_examples=500)
@given(st.integers(1, 200), st.integers(-10**12, 10**12))
def test_normalize_relative_stays_in_window(n, a):
    r = normalize_relative(a, n)
    assert -(n // 2) <= r <= (n - 1) // 2
    assert (r - a) % n == 0
    assert normalize_relative(r, n) == r


@given(st.integers(-10**6, 0), st.integers(-10**12, 10**12))
def test_normalize_relative_rejects_empty_ring(n, a):
    with pytest.raises(PreconditionError, match="ring size must be positive"):
        normalize_relative(a, n)


def test_resolve_ring():
    t4 = Topology.ring(4)
    assert resolve(t4, 3, Address("relative", 1)) == 0
    t8 = Topology.ring(8)
    assert resolve(t8, 2, Address("absolute", 5)) == 5
    assert resolve(t8, 0, Address("relative", -1)) == 7


def test_resolve_torus_componentwise():
    t = Topology.torus(5, 5)
    assert resolve(t, 0, Address("relative", (-1, -1))) == 24
    assert resolve(t, 24, Address("relative", (1, 1))) == 0
    assert resolve(t, 7, Address("absolute", (0, 0))) == 0


def test_resolve_always_in_range():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(2, 30)
        topo = Topology.ring(n)
        i = rng.randrange(n)
        a = rng.randint(-100, 100)
        assert 0 <= resolve(topo, i, Address("relative", a)) < n
        assert 0 <= resolve(topo, i, Address("absolute", a)) < n


def test_topology_validation():
    with pytest.raises(PreconditionError):
        Topology.ring(0)
    with pytest.raises(PreconditionError):
        Topology.torus(4, 0)


# ---------------------------------------------------------------------------
# configurations

def test_make_configuration_broadcast():
    cfg = make_configuration([1, 2, 3], (1,), Topology.ring(3))
    assert [q.pointers for q in cfg.states] == [(1,), (1,), (1,)]
    assert cfg.time == 0 and cfg.n == 3


def test_make_configuration_per_cell():
    cfg = make_configuration([0, 0], [(1,), (-1,)], Topology.ring(2))
    assert cfg.states[1].pointers == (-1,)


@pytest.mark.parametrize("pointers", [(1,), [(1,)] * 4, None])
@pytest.mark.parametrize("k", [3, 5])
def test_make_configuration_rejects_data_of_another_length(pointers, k):
    # one tuple, a tuple per cell or none: k data for 4 cells never fit
    with pytest.raises(PreconditionError, match=f"{k} states for 4 cells"):
        make_configuration(list(range(1, k + 1)), pointers, Topology.ring(4))


# ---------------------------------------------------------------------------
# synchronous stepping

def test_step_sync_identity():
    cfg = make_configuration([5, 6, 7], (1,), Topology.ring(3))
    rs = RuleSet(
        variant="basic", arms=1,
        data_rule=lambda ctx: ctx.cell.data,
        pointer_rule=keep_pointers,
    )
    nxt = step_sync(cfg, rs)
    assert nxt.states == cfg.states
    assert nxt.time == 1 and cfg.time == 0


def test_step_sync_reduction_first_step():
    n = 8
    cfg = make_configuration([1] * n, (1,), Topology.ring(n))
    rs = RuleSet(
        variant="basic", arms=1,
        data_rule=lambda ctx: ctx.cell.data + ctx.neighbors[0].data,
        pointer_rule=lambda ctx: ((2 * ctx.cell.pointers[0]) % n,),
    )
    nxt = step_sync(cfg, rs)
    assert [q.data for q in nxt.states] == [2] * n
    assert [q.pointers[0] for q in nxt.states] == [2] * n


def test_step_sync_does_not_mutate_input():
    cfg = make_configuration([3, 1, 2, 0], (1,), Topology.ring(4))
    before = list(cfg.states)
    step_sync(cfg, max_ruleset())
    assert cfg.states == before and cfg.time == 0


def test_step_sync_phase1_order_independent():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 12)
        cfg = make_configuration(
            [rng.randint(0, 9) for _ in range(n)],
            [(rng.randint(-n, n),) for _ in range(n)],
            Topology.ring(n),
        )
        rs = RuleSet(
            variant="basic", arms=1,
            data_rule=lambda ctx: ctx.cell.data + ctx.neighbors[0].data,
            pointer_rule=lambda ctx: (
                normalize_relative(ctx.cell.pointers[0] + ctx.i, ctx.params["n"]),
            ),
            params={"n": n},
        )
        ref = step_sync(cfg, rs)
        order = list(range(n))
        rng.shuffle(order)
        assert step_sync(cfg, rs, phase1_order=order).states == ref.states


@pytest.mark.parametrize(
    "order", [[0, 0, 1, 2], [0, 1, 2], [0, 1, 2, 4], [-1, 0, 1, 2]],
    ids=["duplicate", "missing", "out-of-range", "negative"],
)
def test_step_sync_rejects_a_phase1_order_that_is_not_a_permutation(order):
    cfg = make_configuration([3, 1, 2, 0], (1,), Topology.ring(4))
    with pytest.raises(PreconditionError, match="not a permutation of 0..3"):
        step_sync(cfg, max_ruleset(), phase1_order=order)
    assert step_sync(cfg, max_ruleset(), phase1_order=[3, 1, 0, 2]).states == (
        step_sync(cfg, max_ruleset()).states
    )


def test_step_sync_owner_write():
    """Every evaluation stores into the owning cell, once."""
    cfg = make_configuration([3, 1, 2, 0], (1,), Topology.ring(4))
    for order in ([0, 1, 2, 3], [2, 0, 3, 1]):
        stores, states = owner_writes(cfg, max_ruleset(), order)
        assert stores == order
        assert states == step_sync(cfg, max_ruleset()).states


def failure(cfg, rs):
    with pytest.raises(RuleEvaluationError) as exc:
        step_sync(cfg, rs)
    err = exc.value
    assert f"state {err.state!r}, read {err.read!r}" in str(err)
    return err.cell, err.time, err.state, err.read


def test_step_sync_rule_error_reports_cell():
    def bad(ctx):
        if ctx.i == 2:
            raise ValueError("boom")
        return ctx.cell.data

    cfg = make_configuration([10, 11, 12, 13], (1,), Topology.ring(4))
    rs = RuleSet(variant="basic", arms=1, data_rule=bad, pointer_rule=keep_pointers)
    assert failure(cfg, rs) == (2, 0, cfg.states[2], (cfg.states[3],))


def test_modifier_failure_reads_nothing():
    # cells 0 and 1 get one address tuple, so the modifier runs ahead of the
    # reads and cell 2's raises before any cell has read
    cfg = make_configuration([10, 11, 12, 13], (1,), Topology.ring(4))

    def bad_modifier(ctx):
        if ctx.i == 2:
            raise ValueError("boom")
        return ctx.cell.pointers

    rs = RuleSet(
        variant="general", arms=1, data_rule=incr_rule, pointer_rule=keep_pointers,
        address_modifier=bad_modifier,
    )
    assert failure(cfg, rs) == (2, 0, cfg.states[2], ())

    # by pointer: cells 0-2 share one tuple, so the modifier's first call
    # after cell 0 is cell 3's, with a pointer its make rejects
    def make(p):
        if p == 3:
            raise ValueError("boom")
        return (p,)

    rs = RuleSet(
        variant="general", arms=1, data_rule=incr_rule, pointer_rule=keep_pointers,
        address_modifier=ByPointer(make),
    )
    cfg = make_configuration([10, 11, 12, 13], [(1,)] * 3 + [(3,)], Topology.ring(4))
    assert failure(cfg, rs) == (3, 0, cfg.states[3], ())


def test_by_pointer_failure_on_first_cell_of_a_new_tuple():
    first, second = (1,), (2,)
    cfg = make_configuration(
        [10, 11, 12, 13], [first, first, second, second], Topology.ring(4)
    )
    made = []

    def make(p):
        made.append(p)
        if p == 2:
            raise ValueError("boom")
        return (p,)

    rs = RuleSet(variant="basic", arms=1, data_rule=incr_rule, pointer_rule=ByPointer(make))
    assert failure(cfg, rs) == (2, 0, cfg.states[2], (cfg.states[0],))
    assert made == [1, 2]


def test_gather_failure_reads_nothing():
    # cell 1 declares two arms where the rule set has one: the arity check
    # raises before cell 1 reads, after cell 0 has read
    cfg = make_configuration([10, 11, 12], [(1,), (1, 1), (1,)], Topology.ring(3))
    assert failure(cfg, max_ruleset()) == (1, 0, cfg.states[1], ())
    plain = RuleSet(
        variant="plain", arms=1, data_rule=incr_rule,
        pointer_function=lambda i, q: (1,) if i != 1 else 1 // 0,
    )
    cfg = make_configuration([10, 11, 12], None, Topology.ring(3))
    assert failure(cfg, plain) == (1, 0, cfg.states[1], ())


def test_step_sync_edge_sink_counts():
    n, m = 6, 2
    cfg = make_configuration([0] * n, (1, -2), Topology.ring(n))
    rs = RuleSet(
        variant="basic", arms=m,
        data_rule=lambda ctx: ctx.cell.data,
        pointer_rule=keep_pointers,
    )
    edges = []
    step_sync(cfg, rs, edge_sink=edges)
    assert len(edges) == n * m
    assert (0, 1) in edges and (0, 4) in edges
    assert all(0 <= a < n and 0 <= b < n for a, b in edges)


def test_basic_one_step_delay():
    """Access edges of a step depend only on pointers, not data."""
    n = 8
    rng = random.Random(5)
    ptrs = [(rng.randint(-4, 3),) for _ in range(n)]
    rs = max_ruleset()
    e1, e2 = [], []
    step_sync(make_configuration([0] * n, ptrs, Topology.ring(n)), rs, edge_sink=e1)
    step_sync(make_configuration(list(range(n)), ptrs, Topology.ring(n)), rs, edge_sink=e2)
    assert e1 == e2


def test_plain_purity():
    """Equal states yield equal effective addresses under a uniform h."""
    rs = RuleSet(
        variant="plain", arms=2,
        data_rule=lambda ctx: ctx.cell.data,
        pointer_function=lambda i, q: (q.data + 1, -q.data - 1),
    )
    cfg = make_configuration([4, 7, 4, 7], (), Topology.ring(4))
    edges = []
    step_sync(cfg, rs, edge_sink=edges)
    by_reader = {}
    for r, tgt in edges:
        by_reader.setdefault(r, []).append((tgt - r) % 4)
    assert by_reader[0] == by_reader[2]  # both cells hold 4
    assert by_reader[1] == by_reader[3]  # both cells hold 7


def test_fixed_local_stencil():
    """A fixed local neighbourhood is two arms whose pointers never change;
    its reads are access edges like any other."""
    cfg = make_configuration([10, 20, 30, 40], (-1, 1), Topology.ring(4))
    rs = RuleSet(
        variant="basic", arms=2,
        data_rule=lambda ctx: ctx.neighbors[0].data + ctx.neighbors[1].data,
        pointer_rule=keep_pointers,
    )
    edges = []
    nxt = step_sync(cfg, rs, edge_sink=edges)
    assert nxt.states[0].data == 40 + 20
    assert nxt.states[0].pointers == (-1, 1)
    assert edges[:2] == [(0, 3), (0, 1)]
    assert len(edges) == 2 * 4


# ---------------------------------------------------------------------------
# asynchronous stepping

def test_step_async_identity():
    cfg = make_configuration([1, 2, 3], (1,), Topology.ring(3))
    rs = RuleSet(
        variant="basic", arms=1,
        data_rule=lambda ctx: ctx.cell.data,
        pointer_rule=keep_pointers,
    )
    assert step_async(cfg, rs).states == cfg.states


def test_step_async_max_orders():
    """Immediate commit: ascending lets only the wrap-around read see an
    updated value; descending chases the running maximum all the way.

    i=0 reads old d1=1 -> 3; i=1 reads old d2=2 -> 2; i=2 reads old d3=0
    -> 2; i=3 wraps to the already-updated d0=3 -> 3.  Descending: i=3
    takes d0=3, then 2, 1, 0 each read their just-updated right neighbor.
    """
    cfg = make_configuration([3, 1, 2, 0], (1,), Topology.ring(4))
    rs = max_ruleset()
    asc = step_async(cfg, rs, order="ascending")
    assert [q.data for q in asc.states] == [3, 2, 2, 3]
    desc = step_async(cfg, rs, order="descending")
    assert [q.data for q in desc.states] == [3, 3, 3, 3]


def test_step_async_random_needs_seed():
    cfg = make_configuration([1, 0], (1,), Topology.ring(2))
    with pytest.raises(PreconditionError):
        step_async(cfg, max_ruleset(), order="random")


def test_step_async_random_deterministic():
    cfg = make_configuration([3, 1, 4, 1, 5, 9, 2, 6], (1,), Topology.ring(8))
    rs = max_ruleset()
    a = step_async(cfg, rs, order="random", seed=99)
    b = step_async(cfg, rs, order="random", seed=99)
    assert a.states == b.states


def test_step_async_random_continues_a_stream():
    cfg = make_configuration([0] * 6, (1,), Topology.ring(6))
    rs = max_ruleset()
    rng = random.Random(7)
    a = step_async(cfg, rs, order="random", seed=rng)
    b = step_async(cfg, rs, order="random", seed=random.Random(7))
    assert a.states == b.states  # a stream seeded alike gives the seed's sweep


def order_recorder(seen):
    def data(ctx):
        seen.append(ctx.i)
        return ctx.cell.data

    return RuleSet(variant="basic", arms=1, data_rule=data, pointer_rule=keep_pointers)


def test_run_async_random_sweeps_differ():
    """One random stream per run: each sweep draws a fresh order, and the
    same seed repeats the whole run."""
    n, sweeps = 6, 8
    cfg = make_configuration([0] * n, (1,), Topology.ring(n))
    first, again = [], []
    run(cfg, order_recorder(first), Steps(sweeps), mode="async", order="random", seed=7)
    run(cfg, order_recorder(again), Steps(sweeps), mode="async", order="random", seed=7)
    orders = [tuple(first[k * n : (k + 1) * n]) for k in range(sweeps)]
    assert all(sorted(o) == list(range(n)) for o in orders)
    assert len(set(orders)) > 1
    assert first == again


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_a_sweep_that_reads_no_seed_rejects_one(order):
    cfg = make_configuration([3, 1, 2, 0], (1,), Topology.ring(4))
    rs = max_ruleset()
    with pytest.raises(PreconditionError, match="only the random sweep"):
        step_async(cfg, rs, order=order, seed=123)
    with pytest.raises(PreconditionError, match="only the random sweep"):
        run(cfg, rs, Steps(2), mode="async", order=order, seed=123)
    with pytest.raises(PreconditionError, match="only the random sweep"):
        execute(CATALOG["max"](), Steps(2), mode="async", order=order, seed=123)
    assert run(cfg, rs, Steps(2), mode="async", order=order).steps == 2


def test_a_sync_run_rejects_a_seed():
    cfg = make_configuration([1, 2], (1,), Topology.ring(2))
    with pytest.raises(PreconditionError, match="only the random sweep"):
        run(cfg, max_ruleset(), Steps(1), seed=3)


def test_step_async_unknown_order():
    cfg = make_configuration([1, 0], (1,), Topology.ring(2))
    with pytest.raises(PreconditionError):
        step_async(cfg, max_ruleset(), order="sideways")


@pytest.mark.parametrize("order, match", [("sideways", "unknown async order"),
                                          ("random", "requires an explicit seed")])
def test_a_run_checks_its_sweep_before_any_step(order, match):
    cfg = make_configuration([1, 0], (1,), Topology.ring(2))
    for steps in (0, 1):
        with pytest.raises(PreconditionError, match=match):
            run(cfg, max_ruleset(), Steps(steps), mode="async", order=order)


# ---------------------------------------------------------------------------
# run loop

def reduce_ruleset(n):
    def data(ctx):
        return ctx.cell.data + ctx.neighbors[0].data if ctx.cell.pointers[0] else ctx.cell.data

    return RuleSet(
        variant="basic", arms=1,
        data_rule=data,
        pointer_rule=lambda ctx: ((2 * ctx.cell.pointers[0]) % n,),
    )


def test_run_fixed_point_reduction():
    n = 8
    cfg = make_configuration([1] * n, (1,), Topology.ring(n))
    result = run(cfg, reduce_ruleset(n), FixedPoint())
    assert [q.data for q in result.config.states] == [8] * n
    assert [q.pointers[0] for q in result.config.states] == [0] * n
    assert result.steps <= 4 and result.halt == "fixed-point"


def test_run_zero_steps():
    cfg = make_configuration([1, 2], (1,), Topology.ring(2))
    result = run(cfg, max_ruleset(), Steps(0))
    assert result.config.states == cfg.states and result.steps == 0


def test_run_rejects_negative_steps():
    cfg = make_configuration([1, 2], (1,), Topology.ring(2))
    with pytest.raises(PreconditionError, match="negative, got -1"):
        run(cfg, max_ruleset(), Steps(-1))


@pytest.mark.parametrize("order", ["descending", "random", "bogus"])
def test_run_rejects_a_sweep_order_in_sync_mode(order):
    cfg = make_configuration([1, 2], (1,), Topology.ring(2))
    with pytest.raises(PreconditionError, match="async mode only"):
        run(cfg, max_ruleset(), Steps(1), order=order, seed=3)
    assert run(cfg, max_ruleset(), Steps(1), order="ascending").steps == 1


def test_run_step_limit_guard():
    cfg = make_configuration([0, 0, 0], (1,), Topology.ring(3))
    rs = RuleSet(
        variant="basic", arms=1, data_rule=incr_rule, pointer_rule=keep_pointers
    )
    with pytest.raises(StepLimitError) as exc:
        run(cfg, rs, FixedPoint())
    assert (exc.value.limit, exc.value.time) == (94, 94)
    with pytest.raises(StepLimitError) as exc:
        run(cfg, rs, FixedPoint(), step_limit=17)
    assert (exc.value.limit, exc.value.time) == (17, 17)
    assert default_step_limit(10) == 164


def test_run_records_trace():
    cfg = make_configuration([3, 1, 2, 0], (1,), Topology.ring(4))
    result = run(cfg, max_ruleset(), Steps(3), record_states=True, record_edges=True)
    assert len(result.trace.snapshots) == 4
    assert [c.time for c in result.trace.snapshots] == [0, 1, 2, 3]
    assert len(result.trace.edges) == 3
    assert all(len(e) == 4 for e in result.trace.edges)


def test_run_deterministic():
    cfg = make_configuration([5, 2, 9, 4, 7, 7], (2,), Topology.ring(6))
    a = run(cfg, max_ruleset(), Steps(5), record_states=True)
    b = run(cfg, max_ruleset(), Steps(5), record_states=True)
    assert a.config.states == b.config.states
    assert [s.states for s in a.trace.snapshots] == [s.states for s in b.trace.snapshots]


def test_run_applies_events():
    """Events apply to generation 0 and to each committed generation, before
    it is recorded; the input configuration stays unchanged."""
    cfg = make_configuration([0, 0, 0], (1,), Topology.ring(3))

    def bump(c):
        c.states[1] = CellState(c.states[1].data + 10, c.states[1].pointers)

    rs = RuleSet(variant="basic", arms=1, data_rule=incr_rule, pointer_rule=keep_pointers)
    result = run(cfg, rs, Steps(3), record_states=True, events=((0, bump), (2, bump)))
    assert [s.data() for s in result.trace.snapshots] == [
        [0, 10, 0], [1, 11, 1], [2, 22, 2], [3, 23, 3]
    ]
    assert cfg.data() == [0, 0, 0]


def test_run_applies_every_event_of_a_generation_in_order():
    cfg = make_configuration([0, 0, 0], (1,), Topology.ring(3))

    def put(i, f):
        def event(c):
            c.states[i] = CellState(f(c.states[i].data), c.states[i].pointers)
        return event

    add, double = put(1, lambda d: d + 10), put(1, lambda d: 2 * d)
    rs = RuleSet(variant="basic", arms=1, data_rule=incr_rule, pointer_rule=keep_pointers)
    events = ((0, add), (2, double), (0, double), (2, add), (2, put(0, lambda d: -d)))
    result = run(cfg, rs, Steps(2), record_states=True, events=events)
    # t=0: (0 + 10) * 2; t=2: 22 * 2 + 10, and cell 0 negated
    assert [s.data() for s in result.trace.snapshots] == [
        [0, 20, 0], [1, 21, 1], [-2, 54, 2]
    ]


# ---------------------------------------------------------------------------
# cyclic garbage collector

def recording_ruleset(seen, data_rule=incr_rule):
    def data(ctx):
        seen.append(gc.isenabled())
        return data_rule(ctx)

    return RuleSet(variant="basic", arms=1, data_rule=data, pointer_rule=keep_pointers)


def test_run_pauses_the_collector_while_it_steps(collector_on):
    seen = []
    cfg = make_configuration([0, 0, 0], (1,), Topology.ring(3))
    result = run(cfg, recording_ruleset(seen), Steps(4))
    assert result.config.data() == [4, 4, 4]
    assert seen == [False] * 12
    assert gc.isenabled()


def _rule_failure(ctx):
    if ctx.t == 2:
        raise ValueError("boom")
    return ctx.cell.data


def _raise_in_event(cfg):
    raise RuntimeError("event failed")


@pytest.mark.parametrize("case", ["rule", "step-limit", "event-at-0", "event-later"])
def test_run_restores_the_collector_when_it_raises(collector_on, case):
    seen = []
    cfg = make_configuration([0, 0, 0], (1,), Topology.ring(3))
    if case == "rule":
        with pytest.raises(RuleEvaluationError):
            run(cfg, recording_ruleset(seen, _rule_failure), Steps(5))
    elif case == "step-limit":
        with pytest.raises(StepLimitError):
            run(cfg, recording_ruleset(seen), FixedPoint(), step_limit=3)
    else:
        when = 0 if case == "event-at-0" else 2
        with pytest.raises(RuntimeError, match="event failed"):
            run(cfg, recording_ruleset(seen), Steps(5), events=((when, _raise_in_event),))
    assert gc.isenabled()
    assert not any(seen)


def test_run_leaves_a_disabled_collector_disabled(collector_on):
    seen = []
    cfg = make_configuration([0, 0, 0], (1,), Topology.ring(3))
    gc.disable()
    run(cfg, recording_ruleset(seen), Steps(2))
    assert not gc.isenabled()
    with pytest.raises(StepLimitError):
        run(cfg, recording_ruleset(seen), FixedPoint(), step_limit=2)
    assert not gc.isenabled()
    assert seen == [False] * 12


def test_run_nested_in_a_rule_leaves_the_outer_run_paused(collector_on):
    inner_cfg = make_configuration([0, 0], (1,), Topology.ring(2))
    after_inner = []

    def data(ctx):
        if ctx.i == 0:
            run(inner_cfg, recording_ruleset([]), Steps(1))
            after_inner.append(gc.isenabled())
        return ctx.cell.data + 1

    rs = RuleSet(variant="basic", arms=1, data_rule=data, pointer_rule=keep_pointers)
    cfg = make_configuration([0, 0, 0], (1,), Topology.ring(3))
    assert run(cfg, rs, Steps(3)).config.data() == [3, 3, 3]
    assert after_inner == [False] * 3
    assert gc.isenabled()


class _Node:
    pass


def test_cycles_a_rule_builds_are_reclaimed_after_the_run(collector_on):
    refs = []

    def data(ctx):
        if ctx.i == 0:
            node = _Node()
            node.self = node
            refs.append(weakref.ref(node))
        return ctx.cell.data + 1

    rs = RuleSet(variant="basic", arms=1, data_rule=data, pointer_rule=keep_pointers)
    cfg = make_configuration([0] * 4, (1,), Topology.ring(4))
    run(cfg, rs, Steps(5))
    gc.collect()
    assert len(refs) == 5
    assert all(ref() is None for ref in refs)


# ---------------------------------------------------------------------------
# validation

def test_ruleset_validation():
    with pytest.raises(PreconditionError):
        RuleSet(variant="nope", arms=1, data_rule=incr_rule, pointer_rule=keep_pointers)
    with pytest.raises(PreconditionError):
        RuleSet(variant="basic", arms=0, data_rule=incr_rule, pointer_rule=keep_pointers)
    with pytest.raises(PreconditionError):
        RuleSet(variant="basic", arms=1, data_rule=incr_rule)  # no pointer rule
    with pytest.raises(PreconditionError):
        RuleSet(
            variant="plain", arms=1, data_rule=incr_rule, pointer_rule=keep_pointers
        )  # plain wants pointer_function


def test_pointer_arity_checked():
    cfg = make_configuration([0, 0], [(1, 1), (1, 1)], Topology.ring(2))
    rs = max_ruleset()  # declares one arm
    with pytest.raises(RuleEvaluationError):
        step_sync(cfg, rs)


def test_configuration_copy_isolated():
    cfg = make_configuration([1, 2], (0,), Topology.ring(2))
    cp = cfg.copy()
    cp.states[0] = CellState(99, (0,))
    assert cfg.states[0].data == 1
