"""Property tests of the phase-1 access plan against a reference built from
``resolve``: every variant, ring and torus, relative and absolute addressing,
one to four arms; and of phase 1's by-pointer shortcut against per-cell
calls."""

import random
from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st

from gca import (
    ByPointer,
    CellState,
    RuleContext,
    RuleEvaluationError,
    RuleSet,
    Topology,
    gather_neighbors,
    make_configuration,
    resolve,
    step_async,
    step_sync,
)
from gca.core import Address, _phase1

def shift(a, by: int):
    """Move an address by an amount that depends on ``by``."""
    if isinstance(a, tuple):
        return (a[0] + by % 3 - 1, a[1] - by % 2)
    return a + by % 5 - 2


def data_rule(ctx):
    # arm order, own index and time all change the result
    acc = 3 * ctx.cell.data + 7 * ctx.i + ctx.t
    for k, q in enumerate(ctx.neighbors):
        acc += (k + 2) * (k + 1) * q.data
    return acc % 101


def pointer_rule(ctx):
    return tuple(shift(p, q.data) for p, q in zip(ctx.cell.pointers, ctx.neighbors))


def address_modifier(ctx):
    assert ctx.neighbors == ()  # the modifier runs before any access
    return tuple(shift(p, ctx.cell.data + ctx.i) for p in ctx.cell.pointers)


def plain_function(arms: int, twod: bool):
    def pointer_function(i, q):
        eff = []
        for k in range(arms):
            v = (q.data * (k + 1) + i) % 11 - 5
            eff.append((v, (q.data + k) % 7 - 3) if twod else v)
        return tuple(eff)

    return pointer_function


def engine_shape(draw):
    """``(addressing, arms, topology, address strategy)`` of any engine shape."""
    addressing = draw(st.sampled_from(("relative", "absolute")))
    arms = draw(st.integers(1, 4))
    if draw(st.booleans()):
        topo = Topology.torus(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
        address = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
    else:
        topo = Topology.ring(draw(st.integers(1, 12)))
        address = st.integers(-25, 25)
    return addressing, arms, topo, address


@st.composite
def automata(draw):
    """A configuration and a rule set of any engine shape."""
    variant = draw(st.sampled_from(("basic", "general", "plain")))
    addressing, arms, topo, address = engine_shape(draw)
    n = topo.n
    data = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n))
    pointers = None
    if variant != "plain":
        arm_vector = st.tuples(*[address] * arms)
        pointers = draw(st.lists(arm_vector, min_size=n, max_size=n))
    kwargs = {}
    if variant == "general":
        kwargs["address_modifier"] = address_modifier
    if variant == "plain":
        kwargs["pointer_function"] = plain_function(arms, topo.is_2d)
    else:
        kwargs["pointer_rule"] = pointer_rule
    rs = RuleSet(
        variant=variant,
        arms=arms,
        data_rule=data_rule,
        addressing=addressing,
        params={"n": n},
        **kwargs,
    )
    cfg = make_configuration(data, pointers, topo)
    cfg.time = draw(st.integers(0, 5))
    return cfg, rs


def context(rs, states, i, t):
    ctx = RuleContext()
    ctx.i, ctx.cell, ctx.t, ctx.params = i, states[i], t, rs.params
    return ctx


def reference_targets(cfg, rs, states, i):
    q = states[i]
    if rs.variant == "basic":
        eff = q.pointers
    elif rs.variant == "general":
        eff = rs.address_modifier(context(rs, states, i, cfg.time))
    else:
        eff = rs.pointer_function(i, q)
    assert len(eff) == rs.arms
    return [resolve(cfg.topology, i, Address(rs.addressing, a)) for a in eff]


def reference_cell(cfg, rs, states, i):
    ctx = context(rs, states, i, cfg.time)
    ctx.neighbors = tuple(states[j] for j in reference_targets(cfg, rs, states, i))
    pointers = () if rs.variant == "plain" else rs.pointer_rule(ctx)
    return CellState(rs.data_rule(ctx), pointers)


def reference_sync(cfg, rs):
    return [reference_cell(cfg, rs, cfg.states, i) for i in range(cfg.n)]


def reference_async(cfg, rs, order):
    work = list(cfg.states)
    for i in order:
        work[i] = reference_cell(cfg, rs, work, i)
    return work


@given(automata())
def test_step_sync_matches_reference(case):
    cfg, rs = case
    nxt = step_sync(cfg, rs)
    assert nxt.states == reference_sync(cfg, rs)
    assert nxt.time == cfg.time + 1


@given(automata(), st.randoms(use_true_random=False))
def test_phase1_order_independent(case, rnd):
    cfg, rs = case
    order = list(range(cfg.n))
    rnd.shuffle(order)
    assert step_sync(cfg, rs, phase1_order=order).states == step_sync(cfg, rs).states


@given(automata(), st.randoms(use_true_random=False))
def test_edge_sink_matches_resolve(case, rnd):
    cfg, rs = case
    order = list(range(cfg.n))
    rnd.shuffle(order)
    edges = []
    nxt = step_sync(cfg, rs, edge_sink=edges, phase1_order=order)
    want = [(i, j) for i in order for j in reference_targets(cfg, rs, cfg.states, i)]
    assert edges == want
    assert nxt.states == reference_sync(cfg, rs)


@given(automata())
def test_gather_neighbors_matches_resolve(case):
    cfg, rs = case
    for i in range(cfg.n):
        targets = reference_targets(cfg, rs, cfg.states, i)
        assert gather_neighbors(cfg, i, rs) == (tuple(cfg.states[j] for j in targets), targets)


def sweep_order(n, order, seed):
    """The cell order of ``step_async(..., order=order, seed=seed)``."""
    sequence = list(range(n))
    if order == "descending":
        sequence.reverse()
    elif order == "random":
        random.Random(seed).shuffle(sequence)
    return sequence


@given(automata(), st.sampled_from(("ascending", "descending", "random")), st.integers(0, 99))
def test_step_async_matches_sequential_reference(case, order, seed):
    cfg, rs = case
    sequence = sweep_order(cfg.n, order, seed)
    before = list(cfg.states)
    nxt = step_async(cfg, rs, order=order, seed=seed)
    assert nxt.states == reference_async(cfg, rs, sequence)
    assert nxt.time == cfg.time + 1
    assert cfg.states == before


class StoreLog(dict):
    """An ``out`` mapping for ``core._phase1`` that logs the index of every
    store, so a check can see which cell each evaluation wrote."""

    def __init__(self):
        super().__init__()
        self.stores = []

    def __setitem__(self, i, state):
        self.stores.append(i)
        super().__setitem__(i, state)


def owner_writes(cfg, rs, order):
    """Phase 1 of one synchronous step in ``order``: (store log, states)."""
    out = StoreLog()
    _phase1(rs, cfg.topology, cfg.time, cfg.states, out, order)
    return out.stores, [out[i] for i in range(cfg.n)]


@given(automata(), st.randoms(use_true_random=False))
def test_owner_write(case, rnd):
    # the cell evaluated k-th stores k-th, into its own slot only
    cfg, rs = case
    order = list(range(cfg.n))
    rnd.shuffle(order)
    stores, states = owner_writes(cfg, rs, order)
    assert stores == order
    assert states == step_sync(cfg, rs).states


@given(automata(), st.data())
def test_rule_failure_commits_nothing(case, data):
    cfg, rs = case
    bad = data.draw(st.integers(0, cfg.n - 1))

    def failing(ctx):
        if ctx.i == bad:
            raise ArithmeticError("boom")
        return data_rule(ctx)

    broken = replace(rs, data_rule=failing)
    before, time = list(cfg.states), cfg.time
    for step in (lambda: step_sync(cfg, broken), lambda: step_async(cfg, broken)):
        try:
            step()
        except RuleEvaluationError as exc:
            assert (exc.cell, exc.time, exc.state) == (bad, time, before[bad])
            assert len(exc.read) == rs.arms
            assert isinstance(exc.__cause__, ArithmeticError)
        else:
            raise AssertionError("no RuleEvaluationError")
        assert cfg.states == before and cfg.time == time


@given(automata(), st.data())
def test_arity_checked_per_cell(case, data):
    cfg, rs = case
    if rs.variant != "basic":
        return
    bad = data.draw(st.integers(0, cfg.n - 1))
    q = cfg.states[bad]
    wrong = data.draw(st.sampled_from([q.pointers[1:], q.pointers + q.pointers[:1]]))
    cfg.states[bad] = CellState(q.data, wrong)
    for edges in (None, []):
        try:
            step_sync(cfg, rs, edge_sink=edges)
        except RuleEvaluationError as exc:
            assert (exc.cell, exc.time) == (bad, cfg.time)
        else:
            raise AssertionError("no RuleEvaluationError")


# ---------------------------------------------------------------------------
# the by-pointer shortcut: phase 1 reuses a ByPointer rule's result for a
# cell holding the previous call's pointer tuple object


def by_pointer_make(arms: int, by: int):
    """``make(p)``: an arm vector that depends on the first stored pointer
    alone."""
    return lambda p: tuple(shift(p, by * k + 1) for k in range(arms))


def per_cell(make):
    return lambda ctx: make(ctx.cell.pointers[0])


@st.composite
def by_pointer_automata(draw):
    """A basic or general automaton whose pointer rule (and modifier) are
    ByPointer rules, plus the rule set that calls their ``make`` per cell.
    Its cells all share one pointer tuple, each hold an equal copy of one of
    a few vectors, or mix shared tuples and copies."""
    variant = draw(st.sampled_from(("basic", "general")))
    addressing, arms, topo, address = engine_shape(draw)
    n = topo.n
    pool = draw(st.lists(st.tuples(*[address] * arms), min_size=1, max_size=3))
    sharing = draw(st.sampled_from(("shared", "copies", "mixed")))
    pointers = []
    for _ in range(n):
        v = pool[0] if sharing == "shared" else draw(st.sampled_from(pool))
        copy = sharing == "copies" or (sharing == "mixed" and draw(st.booleans()))
        pointers.append(tuple(list(v)) if copy else v)
    data = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n))
    makes = {"pointer_rule": by_pointer_make(arms, 1)}
    if variant == "general":
        makes["address_modifier"] = by_pointer_make(arms, 2)
    shape = dict(variant=variant, arms=arms, data_rule=data_rule, addressing=addressing)
    rs = RuleSet(**shape, **{k: ByPointer(make) for k, make in makes.items()})
    ref = RuleSet(**shape, **{k: per_cell(make) for k, make in makes.items()})
    cfg = make_configuration(data, pointers, topo)
    cfg.time = draw(st.integers(0, 5))
    return cfg, rs, ref


@given(by_pointer_automata(), st.sampled_from(("ascending", "descending", "random")),
       st.integers(0, 99))
def test_by_pointer_shortcut_matches_per_cell_calls(case, order, seed):
    cfg, rs, ref = case
    sequence = sweep_order(cfg.n, order, seed)
    sync = step_sync(cfg, rs)
    sweep = step_async(cfg, rs, order=order, seed=seed)
    assert sync.states == reference_sync(cfg, ref)
    assert sweep.states == reference_async(cfg, ref, sequence)
    memo = rs.pointer_rule.memo
    for nxt in (sync, sweep):
        # every new pointer tuple is the memoised one for the cell's pointer
        for q, new in zip(cfg.states, nxt.states):
            assert new.pointers is memo[q.pointers[0]]
    for i in range(cfg.n):
        targets = reference_targets(cfg, ref, cfg.states, i)
        assert gather_neighbors(cfg, i, rs) == (tuple(cfg.states[j] for j in targets), targets)


@given(by_pointer_automata())
def test_other_rules_run_once_per_cell_on_shared_tuples(case):
    cfg, _, ref = case
    calls = []

    def counted(rule):
        def call(ctx):
            calls.append(ctx.i)
            return rule(ctx)
        return call

    rules = {"pointer_rule": counted(ref.pointer_rule)}
    if ref.variant == "general":
        rules["address_modifier"] = counted(ref.address_modifier)
    assert step_sync(cfg, replace(ref, **rules)).states == reference_sync(cfg, ref)
    assert sorted(calls) == sorted(list(range(cfg.n)) * len(rules))
