"""Property tests of the phase-1 access plan against a reference built from
``resolve``: every variant, ring and torus, relative and absolute addressing,
one to four arms, with and without a stencil."""

import random
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gca import (
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
from gca.core import Address

settings.register_profile(
    "plan",
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("plan")


def shift(a, by: int):
    """Move an address by an amount that depends on ``by``."""
    if isinstance(a, tuple):
        return (a[0] + by % 3 - 1, a[1] - by % 2)
    return a + by % 5 - 2


def data_rule(ctx):
    # arm order, stencil order, own index and time all change the result
    acc = 3 * ctx.cell.data + 7 * ctx.i + ctx.t
    for k, q in enumerate(ctx.neighbors):
        acc += (k + 2) * (k + 1) * q.data
    for k, q in enumerate(ctx.w):
        acc += (k + 11) * q.data
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


@st.composite
def automata(draw):
    """A configuration and a rule set of any engine shape."""
    variant = draw(st.sampled_from(("basic", "general", "plain")))
    addressing = draw(st.sampled_from(("relative", "absolute")))
    arms = draw(st.integers(1, 4))
    twod = draw(st.booleans())
    if twod:
        topo = Topology.torus(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
        address = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
    else:
        topo = Topology.ring(draw(st.integers(1, 12)))
        address = st.integers(-25, 25)
    n = topo.n
    stencil = tuple(draw(st.lists(address, max_size=3)))
    data = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n))
    pointers = None
    if variant != "plain":
        arm_vector = st.tuples(*[address] * arms)
        pointers = draw(st.lists(arm_vector, min_size=n, max_size=n))
    kwargs = {}
    if variant == "general":
        kwargs["address_modifier"] = address_modifier
    if variant == "plain":
        kwargs["pointer_function"] = plain_function(arms, twod)
    else:
        kwargs["pointer_rule"] = pointer_rule
    rs = RuleSet(
        variant=variant,
        arms=arms,
        data_rule=data_rule,
        addressing=addressing,
        stencil=stencil,
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
    ctx.w = tuple(
        states[resolve(cfg.topology, i, Address("relative", off))] for off in rs.stencil
    )
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


@given(automata(), st.sampled_from(("ascending", "descending", "random")), st.integers(0, 99))
def test_step_async_matches_sequential_reference(case, order, seed):
    cfg, rs = case
    sequence = list(range(cfg.n))
    if order == "descending":
        sequence.reverse()
    elif order == "random":
        random.Random(seed).shuffle(sequence)
    before = list(cfg.states)
    nxt = step_async(cfg, rs, order=order, seed=seed)
    assert nxt.states == reference_async(cfg, rs, sequence)
    assert nxt.time == cfg.time + 1
    assert cfg.states == before


@given(automata())
def test_owner_write(case):
    cfg, rs = case
    writes = []
    nxt = step_sync(cfg, rs, on_commit=lambda i, q: writes.append((i, q)))
    assert writes == list(enumerate(nxt.states))


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
    writes = []
    for step in (
        lambda: step_sync(cfg, broken, on_commit=lambda i, q: writes.append(i)),
        lambda: step_async(cfg, broken),
    ):
        try:
            step()
        except RuleEvaluationError as exc:
            assert (exc.cell, exc.time) == (bad, time)
            assert isinstance(exc.__cause__, ArithmeticError)
        else:
            raise AssertionError("no RuleEvaluationError")
        assert cfg.states == before and cfg.time == time
    assert writes == []


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
