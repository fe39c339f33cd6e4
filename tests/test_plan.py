"""Property tests of phase 1 against a reference built from ``resolve``:
every variant, ring and torus, relative and absolute addressing, one to four
arms, with cells that share one pointer tuple (read as rotations of the
state list) or not (read through the access plan), and generations of over
64 cells whose addresses are a few prebuilt tuples (address classes, read
as one set of rotations each); and of phase 1's by-pointer shortcut against
per-cell calls.  Last, the fast-path map: which catalog entries read
through rotations."""

import random
from array import array
from dataclasses import replace

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from gca import (
    ByPointer,
    CATALOG,
    CellState,
    Configuration,
    RuleContext,
    RuleEvaluationError,
    RuleSet,
    Topology,
    catalog_names,
    core,
    default_instance,
    execute,
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


def prebuilt_modifier(even: tuple, odd: tuple):
    """A modifier that returns one of two prebuilt tuples by t's parity, so
    that every cell's effective addresses are one object."""
    def modifier(ctx):
        assert ctx.neighbors == ()
        return odd if ctx.t & 1 else even

    return modifier


def plain_function(arms: int, twod: bool):
    def pointer_function(i, q):
        eff = []
        for k in range(arms):
            v = (q.data * (k + 1) + i) % 11 - 5
            eff.append((v, (q.data + k) % 7 - 3) if twod else v)
        return tuple(eff)

    return pointer_function


def engine_shape(draw, large=False):
    """``(addressing, arms, topology, address strategy)`` of any engine shape;
    with ``large``, some rings have more cells than phase 1 stores one by one
    in a whole synchronous generation."""
    addressing = draw(st.sampled_from(("relative", "absolute")))
    arms = draw(st.integers(1, 4))
    if draw(st.booleans()):
        topo = Topology.torus(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
        address = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
    else:
        sizes = st.integers(1, 12) | st.integers(65, 150) if large else st.integers(1, 12)
        topo = Topology.ring(draw(sizes))
        address = st.integers(-25, 25)
    return addressing, arms, topo, address


def shared_pointers(draw, n, arm_vector, sharing=None):
    """Per-cell pointer tuples: one shared object, its own tuple for each
    cell, or the shared object at some cells only."""
    sharing = sharing or draw(st.sampled_from(("shared", "own", "mixed")))
    one = draw(arm_vector)
    if sharing == "shared":
        return [one] * n
    return [
        one if sharing == "mixed" and draw(st.booleans()) else draw(arm_vector)
        for _ in range(n)
    ]


@st.composite
def automata(draw, sharing=None, large=False):
    """A configuration and a rule set of any engine shape; ``sharing`` fixes
    how the cells hold their pointer tuples (see ``shared_pointers``), and
    ``large`` draws some rings of 65 to 150 cells."""
    variant = draw(st.sampled_from(("basic", "general", "plain")))
    addressing, arms, topo, address = engine_shape(draw, large)
    n = topo.n
    data = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n))
    pointers = None
    arm_vector = st.tuples(*[address] * arms)
    if variant != "plain":
        pointers = shared_pointers(draw, n, arm_vector, sharing)
    kwargs = {}
    if variant == "general":
        kwargs["address_modifier"] = address_modifier
        if draw(st.booleans()):  # every cell gets one address object
            kwargs["address_modifier"] = prebuilt_modifier(draw(arm_vector), draw(arm_vector))
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


def reference_edges(cfg, rs, order):
    return [(i, j) for i in order for j in reference_targets(cfg, rs, cfg.states, i)]


def sharing_cell_0s_tuple(cfg, but=None):
    """``cfg`` with every cell holding cell 0's pointer tuple object; cell
    ``but`` holds other addresses instead."""
    p0 = cfg.states[0].pointers
    pointers = [p0] * cfg.n
    if but is not None:
        pointers[but] = tuple(shift(a, 1) for a in p0)
    shared = make_configuration(cfg.data(), pointers, cfg.topology)
    shared.time = cfg.time
    return shared


@given(automata(large=True))
def test_step_sync_matches_reference(case):
    # as drawn, with every cell sharing one tuple, and with one cell in the
    # middle holding another; a basic or general rule set also runs with a
    # ByPointer pointer rule, under which phase 1 reads the shared tuple's
    # rotations up to that cell, then reads on cell by cell and drops the
    # rotations' later edges (above 64 cells, storing in one pass)
    drawn, rs = case
    rule_sets = [rs]
    if rs.variant != "plain":
        rule_sets.append(replace(rs, pointer_rule=ByPointer(by_pointer_make(rs.arms, 1))))
    for rs in rule_sets:
        for cfg in (drawn, sharing_cell_0s_tuple(drawn), sharing_cell_0s_tuple(drawn, drawn.n // 2)):
            edges = []
            nxt = step_sync(cfg, rs, edge_sink=edges)
            assert nxt.states == reference_sync(cfg, rs)
            assert nxt.time == cfg.time + 1
            assert edges == reference_edges(cfg, rs, range(cfg.n))
            assert step_sync(cfg, rs).states == nxt.states


@given(automata(large=True), st.randoms(use_true_random=False))
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
    assert edges == reference_edges(cfg, rs, order)
    assert nxt.states == reference_sync(cfg, rs)


def sweep_order(n, order, seed):
    """The cell order of ``step_async(..., order=order, seed=seed)``."""
    sequence = list(range(n))
    if order == "descending":
        sequence.reverse()
    elif order == "random":
        random.Random(seed).shuffle(sequence)
    return sequence


@given(automata(large=True), st.sampled_from(("ascending", "descending", "random")),
       st.integers(0, 99))
def test_step_async_matches_sequential_reference(case, order, seed):
    cfg, rs = case
    sequence = sweep_order(cfg.n, order, seed)
    before = list(cfg.states)
    nxt = step_async(cfg, rs, order=order, seed=seed if order == "random" else None)
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
    A general modifier is a ByPointer rule or a prebuilt tuple.  The cells
    all share one pointer tuple, each hold an equal copy of one of a few
    vectors, or mix shared tuples and copies."""
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
    shape = dict(variant=variant, arms=arms, data_rule=data_rule, addressing=addressing)
    if variant == "general" and draw(st.booleans()):
        makes["address_modifier"] = by_pointer_make(arms, 2)
    elif variant == "general":
        vector = draw(st.tuples(*[address] * arms))
        shape["address_modifier"] = prebuilt_modifier(vector, vector)
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
    edges = []
    sync = step_sync(cfg, rs, edge_sink=edges)
    sweep = step_async(cfg, rs, order=order, seed=seed if order == "random" else None)
    assert sync.states == reference_sync(cfg, ref)
    assert edges == reference_edges(cfg, ref, range(cfg.n))
    assert sweep.states == reference_async(cfg, ref, sequence)
    memo = rs.pointer_rule.memo
    for nxt in (sync, sweep):
        # every new pointer tuple is the memoised one for the cell's pointer
        for q, new in zip(cfg.states, nxt.states):
            assert new.pointers is memo[q.pointers[0]]


class CallCount(dict):
    """A ByPointer memo that counts the rule's calls, one ``get`` each."""

    calls = 0

    def get(self, key, default=None):
        self.calls += 1
        return super().get(key, default)


@given(by_pointer_automata())
def test_other_rules_run_once_per_cell_on_shared_tuples(case):
    cfg, rs, ref = case
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

    # a generation sharing one tuple: a ByPointer pointer rule is called
    # once; a ByPointer modifier once on the rotation path (relative
    # addressing) and once per cell otherwise; any other modifier once per cell
    shared = sharing_cell_0s_tuple(cfg)
    calls.clear()
    memos, expected, others = [], [], []
    rules = {}
    for name in ("pointer_rule", "address_modifier"):
        rule = getattr(rs, name)
        if type(rule) is ByPointer:
            rules[name] = ByPointer(rule.make)
            rules[name].memo = CallCount()
            memos.append(rules[name].memo)
            per_cell = name == "address_modifier" and rs.addressing == "absolute"
            expected.append(cfg.n if per_cell else 1)
        elif rule is not None:
            rules[name] = counted(rule)
            others.append(name)
    assert step_sync(shared, replace(rs, **rules)).states == reference_sync(shared, ref)
    assert [memo.calls for memo in memos] == expected
    assert calls == list(range(cfg.n)) * len(others)


# ---------------------------------------------------------------------------
# failures: the cell, t, state and reads that a failing step reports


def one_object(cfg, rs):
    """Whether every cell's effective addresses are one object."""
    if rs.variant == "basic":
        effs = [q.pointers for q in cfg.states]
    elif rs.variant == "general":
        effs = [rs.address_modifier(context(rs, cfg.states, i, cfg.time)) for i in range(cfg.n)]
    else:
        return False
    return all(e is effs[0] for e in effs)


def runs_ahead(cfg, rs):
    """Whether phase 1 resolves every cell's addresses before any read, by
    the model of ``reference_failure``."""
    if rs.addressing != "relative":
        return False
    if rs.variant == "plain":
        return cfg.n > 64
    return (rs.variant == "general" and type(rs.pointer_rule) is ByPointer
            and type(rs.address_modifier) is not ByPointer)


def reference_failure(cfg, rs):
    """``(cell, t, state, read)`` of a failing synchronous step, or None.

    Cells run in ascending order, each resolving, reading, then running the
    data and the pointer rule.  With relative addressing and a ByPointer
    pointer rule, a modifier that is not a ByPointer runs for every cell
    first; phase 1 does so above 64 cells, and at 64 or fewer when every
    cell's addresses turn out to be one object.  Above 64 cells with
    relative addressing, the plain variant's pointer function also runs for
    every cell first."""
    states, t = cfg.states, cfg.time
    if runs_ahead(cfg, rs):
        for i in range(cfg.n):
            try:
                if rs.variant == "plain":
                    rs.pointer_function(i, states[i])
                else:
                    rs.address_modifier(context(rs, states, i, t))
            except Exception:
                return i, t, states[i], ()
    for i in range(cfg.n):
        try:
            read = tuple(states[j] for j in reference_targets(cfg, rs, states, i))
        except Exception:
            return i, t, states[i], ()
        try:
            reference_cell(cfg, rs, states, i)
        except Exception:
            return i, t, states[i], read
    return None


def fail_at(rule, bad):
    """``rule``, raising at cell ``bad``; a ByPointer rule stays as it is."""
    if bad is None or type(rule) is ByPointer:
        return rule

    def call(ctx):
        if ctx.i == bad:
            raise ArithmeticError("boom")
        return rule(ctx)

    return call


def modifier_failing_at_3():
    """An 8-cell general ring whose cells share one address tuple, under a
    modifier that is not a ByPointer and fails at cell 3, and a pointer rule
    that is a plain function."""
    shared = (1,)
    rs = RuleSet(variant="general", arms=1, data_rule=data_rule, pointer_rule=pointer_rule,
                 address_modifier=fail_at(prebuilt_modifier(shared, shared), 3))
    return make_configuration(list(range(8)), shared, Topology.ring(8)), rs


@st.composite
def failing_steps(draw):
    """A configuration and a rule set whose pointer rule fails at a drawn
    cell or at none, whose general modifier fails at a drawn cell (so the
    order of the rules shows), and whose basic cells at times hold pointers
    of a wrong arity."""
    cfg, rs = draw(automata(sharing="shared") | by_pointer_automata().map(lambda case: case[:2]))
    # at 64 cells or fewer, phase 1 resolves another modifier's addresses
    # ahead only up to the first cell whose addresses are a new object
    assume(not runs_ahead(cfg, rs) or one_object(cfg, rs))
    cells = st.integers(0, cfg.n - 1)
    rules = {}
    if rs.variant != "plain":
        rules["pointer_rule"] = fail_at(rs.pointer_rule, draw(st.none() | cells))
    if rs.variant == "general":
        rules["address_modifier"] = fail_at(rs.address_modifier, draw(cells))
    if rs.variant == "basic" and draw(st.booleans()):  # a wrong arity
        q = cfg.states[0]
        wrong = draw(st.sampled_from([q.pointers[1:], q.pointers + q.pointers[:1]]))
        cfg = make_configuration(cfg.data(), wrong, cfg.topology)
    return cfg, replace(rs, **rules)


@given(failing_steps())
@example(modifier_failing_at_3())
def test_failures_match_the_reference(case):
    cfg, rs = case
    for bad in range(cfg.n):  # a data-rule failure at each cell in turn
        broken = replace(rs, data_rule=fail_at(rs.data_rule, bad))
        want = reference_failure(cfg, broken)
        for edges in (None, []):
            try:
                step_sync(cfg, broken, edge_sink=edges)
            except RuleEvaluationError as exc:
                assert (exc.cell, exc.time, exc.state, exc.read) == want
            else:
                assert want is None


def test_a_modifier_runs_ahead_only_under_a_by_pointer_rule():
    # the cells share one address tuple, but the pointer rule is a plain
    # function: the cells run in the per-cell order, so the data rule's
    # failure at cell 1 is reported, not the modifier's at cell 3
    cfg, rs = modifier_failing_at_3()
    broken = replace(rs, data_rule=fail_at(rs.data_rule, 1))
    for edges in (None, []):
        with pytest.raises(RuleEvaluationError) as info:
            step_sync(cfg, broken, edge_sink=edges)
        exc = info.value
        assert (exc.cell, exc.state, exc.read) == (1, cfg.states[1], (cfg.states[2],))


# ---------------------------------------------------------------------------
# shared states: cells may share one state object only when its data and its
# pointers are the very objects each of them holds

BIG = 10**30
# equal but distinct objects (1, True and 1.0; BIG and its copy) and an
# unhashable one: only identity may merge them
POOL = (0, 1, True, 1.0, BIG, int(str(BIG)), [1])
assert POOL[4] is not POOL[5]

palettes = st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=len(POOL),
                    unique=True).map(lambda ks: [POOL[k] for k in ks])


def code(obj):
    """The position of ``obj`` in POOL, by identity."""
    return next(k for k, o in enumerate(POOL) if o is obj)


def check_states(states, data, pointers):
    """Cell i holds the very objects ``data[i]`` and ``pointers[i]``, and two
    cells share a state object only when both its parts are theirs."""
    owner = {}
    for q, d, p in zip(states, data, pointers):
        assert q.data is d and q.pointers is p
        other = owner.setdefault(id(q), (d, p))
        assert other[0] is d and other[1] is p


@st.composite
def pool_automata(draw):
    """A relative basic or general automaton whose cells all hold one
    pointer tuple and whose data rule returns POOL objects from a palette,
    on a ring or torus on both sides of the sharing threshold.  The new
    pointers are one ByPointer result per stored tuple, one of two prebuilt
    tuples, or a new tuple per cell.  Returns the configuration, the rule
    set, and the lists that the rules fill with what they returned per
    cell."""
    variant = draw(st.sampled_from(("basic", "general")))
    arms = draw(st.integers(1, 4))
    large = draw(st.booleans())
    if draw(st.booleans()):
        side = st.integers(9, 12) if large else st.integers(1, 8)
        topo = Topology.torus(draw(side), draw(side))
        address = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
    else:
        topo = Topology.ring(draw(st.integers(60, 150) if large else st.integers(1, 12)))
        address = st.integers(-25, 25)
    n = topo.n
    # two equal but distinct objects: few enough to share, and only by identity
    palette = draw(palettes | st.sampled_from([[1, True], [1, 1.0], [BIG, POOL[5]]]))
    data, news = [None] * n, [None] * n

    def data_rule(ctx):
        k = code(ctx.cell.data) + ctx.i + ctx.t
        k += sum((j + 2) * code(q.data) for j, q in enumerate(ctx.neighbors))
        data[ctx.i] = palette[k % len(palette)]
        return data[ctx.i]

    # a ByPointer rule twice as often: its new pointers are one tuple, so
    # cells may share states
    kind = draw(st.sampled_from(("by-pointer", "by-pointer", "two", "fresh")))
    if kind == "by-pointer":
        g = ByPointer(by_pointer_make(arms, 1))
    else:
        two = [draw(st.tuples(*[address] * arms)) for _ in range(2)]
        stride = draw(st.integers(1, n))

        def g(ctx):
            if kind == "two":
                news[ctx.i] = two[ctx.i // stride % 2]
            else:
                cells = zip(ctx.cell.pointers, ctx.neighbors)
                news[ctx.i] = tuple(shift(p, code(q.data)) for p, q in cells)
            return news[ctx.i]

    shape = dict(variant=variant, arms=arms, data_rule=data_rule, pointer_rule=g)
    if variant == "general" and draw(st.booleans()):
        shape["address_modifier"] = ByPointer(by_pointer_make(arms, 2))
    elif variant == "general":
        vector = draw(st.tuples(*[address] * arms))
        shape["address_modifier"] = prebuilt_modifier(vector, vector)
    values = [draw(st.sampled_from(palette)) for _ in range(n)]
    cfg = make_configuration(values, draw(st.tuples(*[address] * arms)), topo)
    cfg.time = draw(st.integers(0, 5))
    return cfg, RuleSet(**shape), data, news


@given(pool_automata())
def test_a_uniform_generation_stores_the_objects_its_rules_returned(case):
    # as drawn, and with one cell in the middle holding another tuple
    # (phase 1 stores the cells before it, then the per-cell loop takes over)
    drawn, rs, data, news = case
    for cfg in (drawn, sharing_cell_0s_tuple(drawn, drawn.n // 2)):
        edges = []
        nxt = step_sync(cfg, rs, edge_sink=edges)
        if type(rs.pointer_rule) is ByPointer:
            news = [rs.pointer_rule.memo[q.pointers[0]] for q in cfg.states]
        check_states(nxt.states, list(data), list(news))
        assert nxt.states == reference_sync(cfg, rs)
        assert edges == reference_edges(cfg, rs, range(cfg.n))


@st.composite
def cell_by_cell_automata(draw):
    """A whole synchronous generation of 65 to 150 cells that phase 1 reads
    cell by cell, with the returns of the rules logged as in
    ``pool_automata``.  Its cells read through a general modifier or a plain
    pointer function that returns one of five prebuilt tuples by ``i % 5``
    (more address objects than phase 1 reads as rotations), or as a basic
    rule set on cells that each hold their own tuple.  The cells hold a few
    distinct tuples, so a ByPointer pointer rule returns several; the other
    pointer rules return one of two prebuilt tuples or a fresh tuple per
    cell."""
    read = draw(st.sampled_from(("five", "plain", "own")))
    arms = draw(st.integers(1, 4))
    topo, address = large_shape(draw)
    n = topo.n
    vector = st.tuples(*[address] * arms)
    values, data, data_rule = logged_data(draw, n)
    news = [None] * n
    five = [draw(vector) for _ in range(5)]
    assume(len({id(v) for v in five}) == 5)  # five address objects
    if read == "plain":
        rs = RuleSet(variant="plain", arms=arms, data_rule=data_rule,
                     pointer_function=lambda i, q: five[i % 5])
        cfg = make_configuration(values, None, topo)
        news[:] = [()] * n
    else:
        shape = dict(variant="basic", arms=arms, data_rule=data_rule,
                     pointer_rule=logged_pointer_rule(draw, n, arms, vector, news))
        if read == "five":
            shape.update(variant="general", address_modifier=lambda ctx: five[ctx.i % 5])
        rs = RuleSet(**shape)
        # each cell its own copy of a pool tuple; a general read may share them
        cfg = make_configuration(values, pool_pointers(draw, n, vector, copy=read == "own"), topo)
    cfg.time = draw(st.integers(0, 5))
    return cfg, rs, data, news


def large_shape(draw):
    """``(topology, address strategy)``: a ring of 65 to 150 cells or a torus
    of 81 to 144."""
    if draw(st.booleans()):
        topo = Topology.torus(draw(st.integers(9, 12)), draw(st.integers(9, 12)))
        return topo, st.tuples(st.integers(-9, 9), st.integers(-9, 9))
    return Topology.ring(draw(st.integers(65, 150))), st.integers(-25, 25)


def logged_data(draw, n):
    """``(values, data, data_rule)``: generation 0's data from a palette of
    POOL objects, and a data rule that returns palette objects and logs in
    ``data`` what it returned per cell."""
    palette = draw(palettes | st.sampled_from([[1, True], [1, 1.0], [BIG, POOL[5]]]))
    data = [None] * n

    def data_rule(ctx):
        k = code(ctx.cell.data) + ctx.i + ctx.t
        k += sum((j + 2) * code(q.data) for j, q in enumerate(ctx.neighbors))
        data[ctx.i] = palette[k % len(palette)]
        return data[ctx.i]

    return [draw(st.sampled_from(palette)) for _ in range(n)], data, data_rule


def logged_pointer_rule(draw, n, arms, vector, news, index=None):
    """A ByPointer pointer rule, or one that returns one of two prebuilt
    tuples or a fresh tuple per cell and logs them in ``news``; a fresh
    tuple moves each pointer by ``index`` of the datum read (default
    ``code``)."""
    index = index or code
    kind = draw(st.sampled_from(("by-pointer", "two", "fresh")))
    if kind == "by-pointer":
        return ByPointer(by_pointer_make(arms, 1))
    two = [draw(vector) for _ in range(2)]
    stride = draw(st.integers(1, n))

    def g(ctx):
        if kind == "two":
            news[ctx.i] = two[ctx.i // stride % 2]
        else:
            cells = zip(ctx.cell.pointers, ctx.neighbors)
            news[ctx.i] = tuple(shift(p, index(q.data)) for p, q in cells)
        return news[ctx.i]

    return g


def pool_pointers(draw, n, vector, copy):
    """Each cell a tuple from a pool of one to three, the pool's own object
    or, with ``copy``, an equal copy of it."""
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    copy = copy or draw(st.booleans())
    return [tuple(list(v)) if copy else v for v in (draw(st.sampled_from(pool)) for _ in range(n))]


@given(cell_by_cell_automata())
def test_a_large_generation_read_cell_by_cell_stores_what_its_rules_returned(case):
    # two steps, each against the reference's own generation: the second
    # reads the pointers that the first stored
    cfg, rs, data, news = case
    ref = cfg
    for _ in range(2):
        edges = []
        nxt = step_sync(cfg, rs, edge_sink=edges)
        if type(rs.pointer_rule) is ByPointer:
            news = [rs.pointer_rule.memo[q.pointers[0]] for q in cfg.states]
        check_states(nxt.states, list(data), list(news))
        assert edges == reference_edges(ref, rs, range(ref.n))
        ref = Configuration(reference_sync(ref, rs), ref.topology, ref.time + 1)
        assert nxt.states == ref.states
        cfg = nxt


@st.composite
def class_automata(draw, distinct=False):
    """A whole synchronous generation of 65 to 150 cells, general or plain,
    whose modifier or pointer function returns one of k prebuilt tuples (the
    address classes, k = 1 to 5; phase 1 reads up to four as rotations) by
    cell parity (the checkerboard colour on a torus, as sF-sH), by datum (as
    xor-plain) or by ``i % k``.  At times one class has the wrong arity or
    an address that resolves nowhere, or the addressing is absolute.  The
    rules log what they returned as in ``pool_automata``; with ``distinct``,
    cell i holds datum i instead, so that every read shows its target, and
    nothing is logged."""
    variant = draw(st.sampled_from(("general", "plain")))
    arms = draw(st.integers(1, 4))
    topo, address = large_shape(draw)
    n = topo.n
    w = topo.width
    vector = st.tuples(*[address] * arms)
    if distinct:
        values, data, rule, index = list(range(n)), None, data_rule, int
    else:
        values, data, rule = logged_data(draw, n)
        index = code
    news = [()] * n
    classes = [draw(vector) for _ in range(draw(st.integers(1, 5)))]
    flaw = draw(st.sampled_from((None, None, None, "arity", "address")))
    if flaw == "arity":
        classes[-1] = classes[-1] + classes[-1][:1]
    elif flaw == "address":
        classes[-1] = (None,) * arms
    k = len(classes)
    key = draw(st.sampled_from(("parity", "datum", "index")))
    if key == "parity":
        def pick(i, q):
            return classes[(i % w + i // w) % 2 % k]
    elif key == "datum":
        def pick(i, q):
            return classes[index(q.data) % k]
    else:
        def pick(i, q):
            return classes[i % k]
    shape = dict(variant=variant, arms=arms, data_rule=rule,
                 addressing=draw(st.sampled_from(("relative",) * 3 + ("absolute",))))
    if variant == "plain":
        rs = RuleSet(**shape, pointer_function=pick)
        cfg = make_configuration(values, None, topo)
    else:
        rs = RuleSet(**shape, address_modifier=lambda ctx: pick(ctx.i, ctx.cell),
                     pointer_rule=logged_pointer_rule(draw, n, arms, vector, news, index))
        cfg = make_configuration(values, pool_pointers(draw, n, vector, copy=False), topo)
    cfg.time = draw(st.integers(0, 5))
    return cfg, rs, data, news


@given(class_automata())
def test_address_classes_match_the_reference(case):
    # two steps, each against the reference's own generation: the second
    # reads the data that the first stored
    cfg, rs, data, news = case
    ref = cfg
    for _ in range(2):
        want = reference_failure(ref, rs)
        if want is not None:  # a class that resolves nowhere
            for edges in (None, []):
                with pytest.raises(RuleEvaluationError) as info:
                    step_sync(cfg, rs, edge_sink=edges)
                exc = info.value
                assert (exc.cell, exc.time, exc.state, exc.read) == want
            return
        edges = []
        nxt = step_sync(cfg, rs, edge_sink=edges)
        if type(rs.pointer_rule) is ByPointer:
            news = [rs.pointer_rule.memo[q.pointers[0]] for q in cfg.states]
        check_states(nxt.states, list(data), list(news))
        want = reference_edges(ref, rs, range(ref.n))
        assert len(edges) == len(want)
        for got, expected in zip(edges, want):
            assert type(got) is tuple and got == expected
        ref = Configuration(reference_sync(ref, rs), ref.topology, ref.time + 1)
        assert nxt.states == ref.states
        cfg = nxt


def fail_at_cell(pointer_function, bad):
    """A plain ``pointer_function(i, q)``, raising at cell ``bad``."""
    if bad is None:
        return pointer_function

    def call(i, q):
        if i == bad:
            raise ArithmeticError("boom")
        return pointer_function(i, q)

    return call


@given(class_automata(distinct=True), st.data())
def test_failures_of_address_classes_match_the_reference(case, data):
    # the data rule fails at a drawn cell, so its reads show; the modifier or
    # the pointer function and the pointer rule each at a drawn cell or none
    cfg, rs, _, _ = case
    cells = st.none() | st.integers(0, cfg.n - 1)
    rules = {"data_rule": fail_at(rs.data_rule, data.draw(st.integers(0, cfg.n - 1)))}
    if rs.variant == "plain":
        rules["pointer_function"] = fail_at_cell(rs.pointer_function, data.draw(cells))
    else:
        rules["address_modifier"] = fail_at(rs.address_modifier, data.draw(cells))
        rules["pointer_rule"] = fail_at(rs.pointer_rule, data.draw(cells))
    broken = replace(rs, **rules)
    want = reference_failure(cfg, broken)
    for edges in (None, []):
        try:
            step_sync(cfg, broken, edge_sink=edges)
        except RuleEvaluationError as exc:
            assert (exc.cell, exc.time, exc.state, exc.read) == want
        else:
            assert want is None


def test_above_64_cells_every_address_is_resolved_ahead_of_the_reads():
    # cells of two colours on a ring, a pointer function that fails at
    # cell 40, a data rule that fails at cell 1: above 64 cells the pointer
    # function runs for every cell first, so cell 40 is reported; at 64
    # cells or fewer cell 1 is, after cell 1's reads
    even, odd = (1, -1), (2, -2)
    for n, want in ((66, 40), (64, 1)):
        rs = RuleSet(variant="plain", arms=2, data_rule=fail_at(data_rule, 1),
                     pointer_function=fail_at_cell(lambda i, q: odd if i & 1 else even, 40))
        cfg = make_configuration(list(range(n)), None, Topology.ring(n))
        with pytest.raises(RuleEvaluationError) as info:
            step_sync(cfg, rs)
        exc = info.value
        assert (exc.cell, exc.state) == (want, cfg.states[want])
        assert exc.read == (() if want == 40 else (cfg.states[3], cfg.states[n - 1]))


@given(pool_automata() | cell_by_cell_automata() | class_automata(), st.data())
def test_a_failing_large_uniform_generation_stores_nothing(case, data):
    # a synchronous generation of more than 64 cells with a by-pointer
    # pointer rule is stored in one pass, whichever loop reads it; any other
    # pointer rule stores each cell as it is evaluated.  step_sync commits
    # nothing either way
    cfg, rs, _, _ = case
    assume(cfg.n > 64 and reference_failure(cfg, rs) is None)  # no flawed class
    bad = data.draw(st.integers(0, cfg.n - 1))
    broken = replace(rs, data_rule=fail_at(rs.data_rule, bad))
    out = [None] * cfg.n
    with pytest.raises(RuleEvaluationError) as info:
        _phase1(broken, cfg.topology, cfg.time, cfg.states, out, None)
    assert info.value.cell == bad
    by_pointer = rs.variant == "plain" or type(rs.pointer_rule) is ByPointer
    stored = 0 if by_pointer else bad
    assert None not in out[:stored] and out[stored:] == [None] * (cfg.n - stored)
    before, time = list(cfg.states), cfg.time
    with pytest.raises(RuleEvaluationError):
        step_sync(cfg, broken)
    assert cfg.states == before and cfg.time == time


@given(palettes, st.one_of(st.integers(1, 12), st.integers(60, 150)), st.data())
def test_make_configuration_keeps_the_objects_it_was_given(palette, n, data):
    values = [data.draw(st.sampled_from(palette)) for _ in range(n)]
    p0 = tuple([1, 2])  # with an equal but distinct copy below
    per_cell = [data.draw(st.sampled_from([p0, tuple([1, 2]), (3,)])) for _ in range(n)]
    for pointers, held in ((p0, [p0] * n), (per_cell, per_cell), (None, [()] * n)):
        check_states(make_configuration(values, pointers, Topology.ring(n)).states, values, held)


@pytest.mark.parametrize("n", [8, 100])
def test_make_configuration_takes_data_that_are_made_on_access(n):
    # a range, an array and a generator make a new object for each datum, so
    # their ids may repeat once the objects are freed: no sharing by them
    want = list(range(1000, 1000 + n))
    for data in (range(1000, 1000 + n), array("q", want), (x for x in want)):
        cfg = make_configuration(data, (1,), Topology.ring(n))
        assert cfg.data() == want
        assert len({id(q) for q in cfg.states}) == n


def test_large_uniform_generations_share_their_states():
    # 0s and 1s on one pointer tuple: one state per data object
    cfg = make_configuration([0, 1] * 50, (1,), Topology.ring(100))
    assert len({id(q) for q in cfg.states}) == 2
    nxt = step_sync(cfg, RuleSet(variant="basic", arms=1, pointer_rule=ByPointer(lambda p: (p,)),
                                 data_rule=lambda ctx: ctx.neighbors[0].data))
    assert len({id(q) for q in nxt.states}) == 2
    assert nxt.data() == [1, 0] * 50


def test_a_sample_of_one_object_still_shares_the_second():
    # the first 16 data are one object, as on the cross grid: the second is
    # found after the sample
    p = (1,)
    values = [0] * 16 + [1, 0] * 42
    states = make_configuration(values, p, Topology.ring(100)).states
    check_states(states, values, [p] * 100)
    assert len({id(q) for q in states}) == 2


@pytest.mark.parametrize("head, tail", [
    ((0, 1), (0, 2, 1)),  # a third object
    ((1,), (True, 1.0, 1)),  # equal objects after a sample of one
    ((1, True), (1.0, True, 1)),
    ((BIG,), (int(str(BIG)), BIG, [1])),
])
def test_the_pick_gives_every_other_object_its_own_state(head, tail):
    p = (1,)
    values = [head[i % len(head)] for i in range(16)] + [tail[i % len(tail)] for i in range(90)]
    states = make_configuration(values, p, Topology.ring(106)).states
    check_states(states, values, [p] * 106)
    # the first datum and the first other object share; every other cell is alone
    a = values[0]
    b = next(d for d in values if d is not a)
    assert len({id(q) for q in states}) == 2 + sum(d is not a and d is not b for d in values)


def test_a_step_of_the_cross_grid_keeps_two_states():
    spec = CATALOG["xor2d-r1"](n=64)  # 4096 cells whose first 16 are all 0
    cfg = spec.initial()
    assert len({id(q) for q in cfg.states}) == 2
    assert len({id(q) for q in step_sync(cfg, spec.ruleset).states}) == 2


# ---------------------------------------------------------------------------
# the fast-path map: which default instances read a synchronous generation as
# rotations of the state list (core._rotations) and which cell by cell through
# an access plan (core._access_plan); the package states this nowhere else

EVERY_STEP_ROTATES = {
    "horn", "max", "reduce-and", "reduce-avg", "reduce-max", "reduce-min", "reduce-or",
    "reduce-sum", "xor2d-r1", "xor2d-r2", "xor2d-r3", "xor2d-r4", "xor2d-r5", "xor2d-r6",
    "xor2d-r7", "xor2d-r8", "xor2d-r8r", "xor2d-tB", "xor2d-tC", "xor2d-tD", "xor2d-tE",
}
NO_STEP_ROTATES = {
    "bitonic", "bitonic-basic", "fft", "fire-jump1", "fire-jump2", "fire-rings",
    "fire-wave", "xor-plain", "xor1d-basic", "xor1d-general", "xor2d-sF", "xor2d-sG",
    "xor2d-sH",
}


def test_the_fast_path_map_names_each_entry_once():
    groups = (EVERY_STEP_ROTATES, NO_STEP_ROTATES)
    assert sorted(name for group in groups for name in group) == sorted(catalog_names())


@pytest.mark.parametrize("name", catalog_names())
def test_fast_path_map(name, monkeypatch):
    # R: a step read through rotations; P: a step, or its rest, read per cell
    reads = []
    for mark, read in (("R", core._rotations), ("P", core._access_plan)):
        def counted(*args, mark=mark, read=read):
            reads.append(mark)
            return read(*args)
        monkeypatch.setattr(core, read.__name__, counted)
    steps = execute(default_instance(name)).steps
    assert "".join(reads) == ("R" if name in EVERY_STEP_ROTATES else "P") * steps


@pytest.mark.parametrize("name", ["xor-plain", "xor2d-sF", "xor2d-sG", "xor2d-sH", "xor2d-tB"])
def test_a_9x9_instance_reads_every_step_through_rotations(name, monkeypatch):
    # 81 cells: sF-sH and xor-plain read their two address classes as
    # rotations, tB its one; "|" marks the start of each step
    reads = []
    for mark, read in (("R", core._rotations), ("P", core._access_plan), ("|", core.step_sync)):
        def counted(*args, mark=mark, read=read, **kwargs):
            reads.append(mark)
            return read(*args, **kwargs)
        monkeypatch.setattr(core, read.__name__, counted)
    steps = execute(CATALOG[name](n=9)).steps
    marks = "".join(reads).split("|")[1:]
    assert len(marks) == steps and set(marks) == {"RR" if name != "xor2d-tB" else "R"}
