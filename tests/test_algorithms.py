"""Catalog algorithms against their oracles."""

import dataclasses
import inspect
import random
from collections import Counter, defaultdict, deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gca import (
    CATALOG,
    AlgorithmSpec,
    CellState,
    FixedPoint,
    PreconditionError,
    RuleContext,
    RuleEvaluationError,
    RuleSet,
    StepLimitError,
    Steps,
    algorithms,
    catalog_names,
    default_instance,
    execute,
    make_configuration,
    run,
    step_sync,
)
from gca.algorithms import (
    alg_bitonic_merge,
    alg_fft,
    alg_max,
    alg_prefix_sum_horn,
    alg_reduce,
    alg_xor1d,
    alg_xor2d,
    alg_xor_plain,
    cross_grid,
    fft_result,
    spacedep_offsets,
    timedep_arm_lengths,
    trunc_mod,
    xor2d_pointer_step,
)
from gca.firing import FiringState
from gca.oracles import (
    bit_reversed_indices,
    oracle_dft,
    oracle_fft_recurrence,
    oracle_reduce,
    oracle_scan,
    oracle_sort,
    torus_arms,
    xor_evolution,
)
from test_oracles import discover_output_permutation


def checked(spec, **kw):
    res = execute(spec, record_states=True, **kw)
    err = spec.verify(spec, res)
    assert err is None, err
    return res


def test_trunc_mod():
    assert trunc_mod(-32, 31) == -1
    assert trunc_mod(32, 31) == 1
    assert trunc_mod(-4, 8) == -4
    rng = random.Random(1)
    for _ in range(200):
        a, n = rng.randint(-99, 99), rng.randint(1, 30)
        r = trunc_mod(a, n)
        assert (r - a) % n == 0 and abs(r) < n
        assert r == 0 or (r < 0) == (a < 0)


# ---------------------------------------------------------------------------
# max

def test_max_const_converges():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(2, 24)
        data = [rng.randint(-99, 99) for _ in range(n)]
        res = checked(alg_max(n, data))
        assert res.config.data() == [max(data)] * n
        assert res.steps == n - 1


def test_max_other_variants_verify():
    rng = random.Random(22)
    for variant in ("inc", "double", "half"):
        n = 16
        data = [rng.randint(0, 50) for _ in range(n)]
        checked(alg_max(n, data, pointer_variant=variant))


def test_max_random_variant():
    with pytest.raises(PreconditionError):
        alg_max(8, pointer_variant="random")
    a = execute(alg_max(8, pointer_variant="random", seed=5))
    b = execute(alg_max(8, pointer_variant="random", seed=5))
    assert a.config.states == b.config.states
    # one draw per cell, though every cell starts on one shared pointer tuple
    spec = alg_max(8, pointer_variant="random", seed=5)
    first = step_sync(spec.initial(), spec.ruleset)
    rng = random.Random(5)
    assert [q.pointers[0] for q in first.states] == [rng.randrange(8) for _ in range(8)]


def test_max_guards():
    with pytest.raises(PreconditionError):
        alg_max(1)
    with pytest.raises(PreconditionError):
        alg_max(8, pointer_variant="spiral")


# ---------------------------------------------------------------------------
# reduction and prefix sums

def test_reduce_all_ops_match_oracle():
    rng = random.Random(23)
    for op in ("sum", "max", "min", "and", "or"):
        for exp in (1, 3, 5):
            n = 1 << exp
            data = [rng.randint(0, 255) for _ in range(n)]
            res = checked(alg_reduce(n, op, data))
            want = oracle_reduce(data, op)
            assert res.config.data() == [want] * n


def test_reduce_halts_at_fixed_point():
    res = execute(alg_reduce(8, "sum"))
    # k steps reach the fold; the (k+1)-th confirms the fixed point
    assert res.halt == "fixed-point" and res.steps == 4
    assert res.config.data() == [8] * 8
    assert all(q.pointers == (0,) for q in res.config.states)


def test_reduce_avg_divides_in_verify_only():
    data = [2, 4, 6, 8]
    res = checked(alg_reduce(4, "avg", data))
    assert res.config.data() == [20] * 4  # cells hold the plain sum


def test_reduce_guard():
    with pytest.raises(PreconditionError, match="power of two"):
        alg_reduce(6, "sum")
    with pytest.raises(PreconditionError):
        alg_reduce(8, "median")


def test_horn_matches_scan():
    rng = random.Random(24)
    for exp in (1, 2, 4, 6):
        n = 1 << exp
        data = [rng.randint(-9, 9) for _ in range(n)]
        res = checked(alg_prefix_sum_horn(n, data))
        assert res.config.data() == oracle_scan(data)
        assert res.steps == exp


def test_horn_fan_in_at_most_two():
    res = execute(alg_prefix_sum_horn(32), record_edges=True)
    for step_edges in res.trace.edges:
        readers = Counter(tgt for _, tgt in step_edges)
        assert max(readers.values()) <= 2


# ---------------------------------------------------------------------------
# the hot rules against the plain forms they replaced: attribute reads, one
# lambda per reduce op and a fresh pointer tuple per cell

REF_FNS = {
    "sum": lambda a, b: a + b,
    "max": lambda a, b: a if a > b else b,
    "min": lambda a, b: a if a < b else b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
}


def ref_rules(kind: str, n: int, seed: int) -> RuleSet:
    if kind == "horn":
        def data_rule(ctx):
            q = ctx.cell
            if ctx.i >= -q.pointers[0]:
                return q.data + ctx.neighbors[0].data
            return q.data

        def pointer_rule(ctx):
            return (trunc_mod(2 * ctx.cell.pointers[0], n),)

    elif kind.startswith("reduce-"):
        fn = REF_FNS["sum" if kind == "reduce-avg" else kind[7:]]

        def data_rule(ctx):
            q = ctx.cell
            if q.pointers[0]:
                return fn(q.data, ctx.neighbors[0].data)
            return q.data

        def pointer_rule(ctx):
            return ((2 * ctx.cell.pointers[0]) % n,)

    else:
        def data_rule(ctx):
            d = ctx.cell.data
            ds = ctx.neighbors[0].data
            return ds if ds > d else d

        rng = random.Random(seed)
        pointer_rule = {
            "max-const": lambda ctx: ctx.cell.pointers,
            "max-inc": lambda ctx: ((ctx.cell.pointers[0] + 1) % n,),
            "max-double": lambda ctx: ((2 * ctx.cell.pointers[0]) % n,),
            "max-half": lambda ctx: (n // 2,),
            "max-random": lambda ctx: (rng.randrange(n),),
        }[kind]
    return RuleSet(variant="basic", arms=1, data_rule=data_rule, pointer_rule=pointer_rule)


def build(kind: str, n: int, data, seed: int):
    if kind == "horn":
        return alg_prefix_sum_horn(n, data)
    if kind.startswith("reduce-"):
        return alg_reduce(n, kind[7:], data)
    return alg_max(n, data, kind[4:], seed=seed)


HOT_KINDS = ["horn"] + [f"reduce-{op}" for op in (*REF_FNS, "avg")] + [
    f"max-{v}" for v in ("const", "inc", "double", "half", "random")
]
# equal values of different types, so which operand a tie returns shows
TIED = st.sampled_from([0, 1, 1.0, True, False, 0.0, 2, 2.0, -1, 3])
BITS = st.sampled_from([0, 1, True, False, 2, 3, 6])


@st.composite
def hot_cases(draw):
    kind = draw(st.sampled_from(HOT_KINDS))
    n = 1 << draw(st.integers(1, 5))
    values = BITS if kind in ("reduce-and", "reduce-or") else TIED
    data = draw(st.lists(values, min_size=n, max_size=n))
    seed = draw(st.integers(0, 9))
    spec = build(kind, n, data, seed)
    cfg = spec.initial()
    if draw(st.booleans()):
        # off-orbit pointers (3 on n=8), each cell its own tuple object
        ptrs = draw(st.lists(st.integers(-n + 1, n - 1), min_size=n, max_size=n))
        cfg = make_configuration(data, [tuple([p]) for p in ptrs], spec.topology)
    return kind, n, seed, spec, cfg


def typed(cfg):
    return [(q.data, type(q.data), q.pointers, type(q.pointers[0])) for q in cfg.states]


@given(hot_cases())
def test_hot_rules_match_reference(case):
    kind, n, seed, spec, cfg = case
    ref = ref_rules(kind, n, seed)
    got, want = cfg, cfg
    for _ in range(n.bit_length() + 1):
        got, want = step_sync(got, spec.ruleset), step_sync(want, ref)
        assert typed(got) == typed(want)
        if "max" in kind or "min" in kind:
            # selecting rules pass objects on; a tie keeps the neighbour's
            assert all(a.data is b.data for a, b in zip(got.states, want.states))


@pytest.mark.parametrize("spec", [alg_reduce(16, "sum"), alg_reduce(8, "max"),
                                  alg_prefix_sum_horn(16)])
def test_pointer_doubling_shares_one_pointer_tuple(spec):
    cfg = spec.initial()
    for _ in range(3):
        cfg = step_sync(cfg, spec.ruleset)
        assert len({id(q.pointers) for q in cfg.states}) == 1


# ---------------------------------------------------------------------------
# bitonic merge

def random_bitonic(rng, n):
    up = sorted(rng.randint(0, 999) for _ in range(n))
    cut = rng.randint(0, n)
    seq = up[:cut] + list(reversed(up[cut:]))
    r = rng.randrange(n)
    return seq[r:] + seq[:r]


def test_bitonic_sorts():
    rng = random.Random(25)
    for exp in (2, 3, 5):
        n = 1 << exp
        for _ in range(20):
            data = random_bitonic(rng, n)
            res = checked(alg_bitonic_merge(n, data))
            assert res.config.data() == oracle_sort(data)
            assert res.steps == exp


def test_bitonic_models_share_trajectory():
    rng = random.Random(26)
    for _ in range(10):
        n = 16
        data = random_bitonic(rng, n)
        a = execute(alg_bitonic_merge(n, data, model="general"), record_states=True)
        b = execute(alg_bitonic_merge(n, data, model="basic"), record_states=True)
        rows_a = [s.data() for s in a.trace.snapshots]
        rows_b = [s.data() for s in b.trace.snapshots]
        assert rows_a == rows_b


def test_bitonic_rejects_non_bitonic():
    with pytest.raises(PreconditionError, match="not bitonic"):
        alg_bitonic_merge(8, [1, 5, 2, 6, 3, 7, 4, 8])
    with pytest.raises(PreconditionError, match="power of two"):
        alg_bitonic_merge(6)


# ---------------------------------------------------------------------------
# 2D XOR family

def arm_lengths(rule, n, generations):
    """The common arm length p of rules r1..r8r in the oracle's arm table,
    read from the east arm (p, 0) of generations 0..generations-1."""
    lengths = []
    for even, odd in torus_arms(rule, n, generations):
        p = even[1][0]
        assert even == odd == ((0, -p), (p, 0), (0, p), (-p, 0))
        lengths.append(p)
    return lengths


def test_xor2d_pointer_orbits():
    assert arm_lengths("r1", 32, 5) == [1, 1, 1, 1, 1]
    assert arm_lengths("r2", 32, 5) == [1, 2, 3, 4, 5]
    assert arm_lengths("r5", 8, 5) == [1, 5, 1, 5, 1]  # 1 + 4 + 4 wraps to 1
    assert arm_lengths("r6", 6, 4) == [1, 1, 1, 1]  # 1 + 5 wraps to 0, which restarts at 1
    assert arm_lengths("r7", 32, 7) == [1, 2, 4, 8, 16, 0, 0]
    assert arm_lengths("r8", 32, 7) == [1, 3, 9, 27, 17, 19, 25]
    # re-seeded tripling never lands on the zero sink
    assert arm_lengths("r8r", 27, 5) == [1, 3, 9, 1, 3]
    assert arm_lengths("r8", 27, 5) == [1, 3, 9, 0, 0]
    assert torus_arms("r3", 8, 0) == []
    with pytest.raises(ValueError, match="'r9'"):
        torus_arms("r9", 8, 2)


def test_xor2d_engine_pointer_matches_sequence():
    res = execute(alg_xor2d(32, "r5", steps=8), record_states=True)
    got = [s.states[0].pointers[0] for s in res.trace.snapshots]
    assert got == arm_lengths("r5", 32, 9)


def first_zero_generation(res):
    for t, snap in enumerate(res.trace.snapshots):
        if all(v == 0 for row in snap.grid() for v in row):
            return t
    return None


def test_xor2d_convergence_spot_checks():
    for rule, t0 in (("r4", 6), ("r6", 4), ("r7", 5)):
        res = checked(alg_xor2d(32, rule, steps=16))
        assert first_zero_generation(res) == t0


def test_xor2d_equivalences():
    def grids(rule, steps):
        res = execute(alg_xor2d(32, rule, steps=steps), record_states=True)
        return [s.grid() for s in res.trace.snapshots]

    r1 = grids("r1", 8)
    assert r1[3] == grids("r2", 2)[2]
    assert r1[7] == grids("r7", 3)[3]


TORUS_RULES = (
    "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r8r",
    "tB", "tC", "tD", "tE", "sF", "sG", "sH",
)
# The families whose reads do not depend on the states, so their evolution
# is linear over GF(2).  xor-plain is not among them.
LINEAR_FAMILIES = tuple(f"xor2d-{r}" for r in TORUS_RULES) + (
    "xor1d-basic", "xor1d-general",
)


def engine_evolution(name, n):
    """``evolve(grid, steps)``: every generation's data, row-major, that the
    engine computes for the catalog family ``name`` of side ``n`` started
    from ``grid`` (one row for xor1d, whose builder takes no data)."""
    if name.startswith("xor1d"):
        spec = CATALOG[name](n=n)
        pointers = spec.initial().states[0].pointers

        def evolve(grid, steps):
            cfg = make_configuration(list(grid[0]), pointers, spec.topology)
            res = run(cfg, spec.ruleset, Steps(steps), record_states=True)
            return [s.data() for s in res.trace.snapshots]
    else:
        def evolve(grid, steps):
            res = execute(CATALOG[name](n, grid=grid, steps=steps), record_states=True)
            return [s.data() for s in res.trace.snapshots]
    return evolve


def bit_grids(w, h):
    row = st.lists(st.integers(0, 1), min_size=w, max_size=w)
    return st.lists(row, min_size=h, max_size=h)


@st.composite
def linear_cases(draw):
    name = draw(st.sampled_from(LINEAR_FAMILIES))
    n = draw(st.integers(3, 9))
    grids = bit_grids(n, 1 if name.startswith("xor1d") else n)
    return name, n, draw(grids), draw(grids), draw(st.integers(0, 6))


def superposes(evolve, g1, g2, steps):
    """The evolution of g1 xor g2 is the xor of the two evolutions.  Only
    evolutions whose reads do not depend on the states are linear; a
    state-dependent rule (xor-plain) generally is not."""
    both = [[c1 ^ c2 for c1, c2 in zip(r1, r2)] for r1, r2 in zip(g1, g2)]
    h1, h2, hb = (evolve([list(r) for r in g], steps) for g in (g1, g2, both))
    return all(
        [c1 ^ c2 for c1, c2 in zip(a, b)] == list(ab) for a, b, ab in zip(h1, h2, hb)
    )


@given(linear_cases())
def test_xor2d_linearity(case):
    name, n, g1, g2, steps = case
    assert superposes(engine_evolution(name, n), g1, g2, steps)


def shifted(grid, dx, dy):
    n = len(grid)
    return [[grid[(y - dy) % n][(x - dx) % n] for x in range(n)] for y in range(n)]


@st.composite
def shift_cases(draw):
    rule = draw(st.sampled_from(TORUS_RULES))
    dy = draw(st.integers(0, 9))
    dx = draw(st.integers(0, 9))
    if rule.startswith("s"):
        # the checkerboard repeats only under shifts with even dx+dy, and
        # wraps consistently only on an even side
        n = 2 * draw(st.integers(1, 5))
        dx += (dx + dy) % 2
    else:
        n = draw(st.integers(2, 9))
    return rule, n, draw(bit_grids(n, n)), dx % n, dy % n, draw(st.integers(0, 6))


@given(shift_cases())
def test_xor2d_translation_equivariance(case):
    rule, n, grid, dx, dy, steps = case
    evolve = engine_evolution(f"xor2d-{rule}", n)

    def rows(g):
        return [g[y * n : (y + 1) * n] for y in range(n)]

    for g, gs in zip(evolve(grid, steps), evolve(shifted(grid, dx, dy), steps)):
        assert rows(gs) == shifted(rows(g), dx, dy)


@pytest.mark.parametrize("rule", TORUS_RULES)
def test_xor2d_read_distances_from_access_edges(rule):
    for n, steps in ((8, 6), (27, 5), (32, 8)):
        res = execute(CATALOG[f"xor2d-{rule}"](n, steps=steps), record_edges=True)
        assert len(res.trace.edges) == steps
        for t, edges in enumerate(res.trace.edges):
            reads = defaultdict(list)
            for i, j in edges:
                reads[i].append(((j - i) % n, (j // n - i // n) % n))
            arms = torus_arms(rule, n, steps)[t]
            for i in range(n * n):
                want = arms[(i % n + i // n) & 1]
                assert reads[i] == [(dx % n, dy % n) for dx, dy in want], (n, t, i)


def test_cross_grid():
    g = cross_grid(7, 7)
    lit = {(x, y) for y in range(7) for x in range(7) if g[y][x]}
    assert lit == {(3, 3), (4, 3), (2, 3), (3, 4), (3, 2)}


def test_xor_torus_builds():
    # every torus entry keeps its name, side, step count and initial pointers
    assert sorted(n for n in CATALOG if n.startswith("xor2d-")) == sorted(
        f"xor2d-{r}" for r in TORUS_RULES
    )
    for rule in TORUS_RULES:
        spec = default_instance(f"xor2d-{rule}")
        assert (spec.name, spec.topology.dims, spec.expected_steps) == (
            f"xor2d-{rule}", (8, 8), 8
        )
        p = {"sG": 2, "sH": 3}.get(rule, 1)
        assert {q.pointers for q in spec.initial().states} == {(p,)}
    spec = default_instance("xor-plain")
    assert (spec.name, spec.topology.dims, spec.expected_steps) == ("xor-plain", (7, 7), 10)
    assert {q.pointers for q in spec.initial().states} == {()}
    # arm lengths a=2 (cells holding 0) and b=3 (cells holding 1)
    arms = spec.ruleset.pointer_function
    assert arms(0, CellState(0, ())) == ((0, -2), (2, 0), (0, 2), (-2, 0))
    assert arms(0, CellState(1, ())) == ((0, -3), (3, 0), (0, 3), (-3, 0))


def test_xor_torus_guards():
    with pytest.raises(PreconditionError, match="'r9'"):
        alg_xor2d(8, "r9")
    for rule in TORUS_RULES:
        for n in (1, 0, -3):
            with pytest.raises(PreconditionError, match="torus side"):
                alg_xor2d(n, rule)
    for n in (1, 0):
        with pytest.raises(PreconditionError):
            alg_xor_plain(n)


def test_timedep_arm_lengths():
    assert [timedep_arm_lengths("tB", t) for t in range(4)] == [
        (1, 1), (2, 2), (1, 1), (2, 2)
    ]
    assert timedep_arm_lengths("tD", 1) == (4, 4)
    assert [timedep_arm_lengths("tE", t) for t in range(2)] == [(1, 3), (3, 1)]


def test_spacedep_offsets():
    assert spacedep_offsets("sG", 0, 0) == ((0, -2), (2, 0), (0, 2), (-2, 0))
    assert spacedep_offsets("sG", 1, 0) == ((2, -2), (2, 2), (-2, 2), (-2, -2))


def test_variable_rules_match_reference():
    rng = random.Random(28)
    grid = [[rng.randint(0, 1) for _ in range(8)] for _ in range(8)]
    for name in ("xor2d-tB", "xor2d-tE", "xor2d-sF", "xor2d-sH"):
        checked(CATALOG[name](n=8, grid=grid, steps=6))


def verify_message(name):
    """The verify verdict on the default instance of catalog entry ``name``."""
    spec = default_instance(name)
    return spec.verify(spec, execute(spec, record_states=True))


# Each mutation goes through the helper that the rule itself calls, so a
# verify that took its arms from those helpers would accept it.

def test_xor2d_verify_rejects_r5_stepping_by_3(monkeypatch):
    step = algorithms.xor2d_pointer_step
    monkeypatch.setattr(
        algorithms, "xor2d_pointer_step",
        lambda rule, p, n: ((p + 3) % n or 1) if rule == "r5" else step(rule, p, n),
    )
    assert verify_message("xor2d-r5") == "grid at t=2 differs from reference evolution"
    assert verify_message("xor2d-r4") is None  # r4 steps by 3 and is untouched


def test_xor2d_verify_rejects_te_with_swapped_axes(monkeypatch):
    lengths = algorithms.timedep_arm_lengths
    monkeypatch.setattr(
        algorithms, "timedep_arm_lengths",
        lambda rule, t: lengths(rule, t)[::-1] if rule == "tE" else lengths(rule, t),
    )
    assert verify_message("xor2d-tE") is not None
    assert verify_message("xor2d-tB") is None


def test_xor2d_verify_rejects_sg_reading_diagonally_on_even_cells(monkeypatch):
    offsets = algorithms.spacedep_offsets
    monkeypatch.setattr(
        algorithms, "spacedep_offsets",
        lambda rule, x, y: offsets(rule, 1, 0) if rule == "sG" else offsets(rule, x, y),
    )
    assert verify_message("xor2d-sG") is not None
    assert verify_message("xor2d-sF") is None


# ---------------------------------------------------------------------------
# unstructured-model XOR

def test_xor_plain_dual_route():
    rng = random.Random(29)
    n = 12
    grid = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
    res = checked(alg_xor_plain(n, a=4, b=2, grid=grid, steps=8))

    def arms_at(t, colour, bit):
        p = 2 if bit else 4
        return ((p, 0), (-p, 0), (0, p), (0, -p))

    want = xor_evolution(n, n, grid, arms_at, 8)
    got = [bytes(s.data()) for s in res.trace.snapshots]
    assert got == want


def test_xor_plain_cross_freezes_at_35():
    res = execute(alg_xor_plain(64, a=9, b=3, steps=40), record_states=True)
    assert first_zero_generation(res) == 35


def cluster_count(grid, radius=2):
    n = len(grid)
    lit = {(x, y) for y in range(n) for x in range(n) if grid[y][x]}
    seen, count = set(), 0
    for start in lit:
        if start in seen:
            continue
        count += 1
        dq = deque([start])
        seen.add(start)
        while dq:
            x, y = dq.popleft()
            for dx in range(-radius, radius + 1):
                for dy in range(-radius, radius + 1):
                    p = ((x + dx) % n, (y + dy) % n)
                    if p in lit and p not in seen:
                        seen.add(p)
                        dq.append(p)
    return count


def test_xor_plain_short_arm_makes_49_islands():
    # with B=1 the pattern splits into 7x7 separated sub-patterns and
    # never dies out
    res = execute(alg_xor_plain(64, a=9, b=1, steps=16), record_states=True)
    assert cluster_count(res.trace.snapshots[7].grid()) == 49
    assert first_zero_generation(res) is None


def test_xor_plain_guards():
    with pytest.raises(PreconditionError):
        alg_xor_plain(64, a=40, b=3)
    with pytest.raises(PreconditionError):
        alg_xor_plain(64, a=9, b=0)


# ---------------------------------------------------------------------------
# the torus rules' shared tuples against the per-cell forms they replaced

def ref_torus_rules(rule, n, a, b):
    """``(addresses, pointer_rule)``: the per-cell constructions the torus
    rules had before they shared tuples.  ``addresses`` is the modifier, or
    for xor-plain (``rule == "plain"``) the pointer function."""
    def nesw(px, py):
        return ((0, -py), (px, 0), (0, py), (-px, 0))

    def keep(ctx):
        return ctx.cell.pointers

    if rule == "plain":
        def pointer_function(i, q):
            p = a if q.data == 0 else b
            return nesw(p, p)

        return pointer_function, None
    if rule.startswith("r"):
        def modifier(ctx):
            p = ctx.cell.pointers[0]
            return nesw(p, p)

        def pointer_rule(ctx):
            return (xor2d_pointer_step(rule, ctx.cell.pointers[0], n),)

        return modifier, pointer_rule
    if rule.startswith("t"):
        return lambda ctx: nesw(*timedep_arm_lengths(rule, ctx.t)), keep
    return lambda ctx: spacedep_offsets(rule, ctx.i % n, ctx.i // n), keep


def shared_key(rule, n, t, i, q):
    """What the rule's result may depend on: the stored pointer, t's parity,
    the cell's colour or (xor-plain) its bit."""
    if rule == "plain":
        return q.data
    if rule.startswith("r"):
        return q.pointers[0]
    if rule.startswith("t"):
        return t % 2
    return (i % n + i // n) % 2


@st.composite
def torus_rule_cases(draw):
    n = draw(st.integers(2, 9))
    # xor-plain's two arm lengths differ wherever the side allows it
    a = draw(st.integers(1, n // 2))
    b = draw(st.sampled_from([v for v in range(1, n // 2 + 1) if v != a] or [a]))
    data = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
    # off-orbit pointers, each cell its own tuple object
    ptrs = draw(st.lists(st.integers(-2 * n, 2 * n), min_size=n * n, max_size=n * n))
    return n, a, b, data, ptrs, draw(st.integers(0, 9))


@pytest.mark.parametrize("rule", TORUS_RULES + ("plain",))
@given(case=torus_rule_cases())
def test_torus_rules_share_tuples_equal_to_per_cell_forms(rule, case):
    n, a, b, data, ptrs, t = case
    if rule == "plain":
        spec = alg_xor_plain(n, a, b)
        cfg = make_configuration(data, None, spec.topology)
    else:
        spec = alg_xor2d(n, rule)
        cfg = make_configuration(data, [tuple([p]) for p in ptrs], spec.topology)
    rs = spec.ruleset
    ref_addresses, ref_pointer_rule = ref_torus_rules(rule, n, a, b)
    shared, shared_pointers = {}, {}
    for i, q in enumerate(cfg.states):
        if rule == "plain":
            got, want = rs.pointer_function(i, q), ref_addresses(i, q)
        else:
            ctx = RuleContext()
            ctx.i, ctx.cell, ctx.t = i, q, t
            got, want = rs.address_modifier(ctx), ref_addresses(ctx)
            new = rs.pointer_rule(ctx)
            assert new == ref_pointer_rule(ctx), (i, q)
            if rule.startswith("r"):
                assert new is shared_pointers.setdefault(q.pointers[0], new), (i, q)
        assert got == want, (i, q)
        # cells with equal inputs get the very same tuple
        assert got is shared.setdefault(shared_key(rule, n, t, i, q), got), (i, q)


# ---------------------------------------------------------------------------
# 1D XOR (the two-variant showcase)

def test_xor1d_both_variants_verify():
    for variant in ("basic", "general"):
        checked(alg_xor1d(variant))


def test_xor1d_annotations():
    spec = alg_xor1d("basic")
    res = execute(spec, record_states=True)
    snaps = res.trace.snapshots
    assert "p1=  16 p2= -16" in spec.annotate(4, snaps)

    spec = alg_xor1d("general")
    res = execute(spec, record_states=True)
    snaps = res.trace.snapshots
    assert "p1eff=  16 p2eff= -16" in spec.annotate(5, snaps)


@pytest.mark.parametrize("variant", ("basic", "general"))
def test_xor1d_verify_rejects_a_wrong_reseed(variant):
    # at n=32 the doubling arm reaches 0 at generation 5 and restarts at 1
    spec = alg_xor1d(variant, n=32, steps=8)
    res = checked(spec)
    assert [s.states[16].pointers[0] for s in res.trace.snapshots] == [
        1, 2, 4, 8, 16, 1, 2, 4, 8
    ]
    sign = -1 if variant == "basic" else 1

    def reseed_at_2(ctx):
        a = (2 * ctx.cell.pointers[0]) % 32 or 2
        return (a, sign * a)

    wrong = dataclasses.replace(
        spec, ruleset=dataclasses.replace(spec.ruleset, pointer_rule=reseed_at_2)
    )
    assert spec.verify(wrong, execute(wrong, record_states=True)) is not None


def test_xor1d_variants_same_data_rows():
    a = execute(alg_xor1d("basic", n=21, steps=8), record_states=True)
    b = execute(alg_xor1d("general", n=21, steps=8), record_states=True)
    assert [s.data() for s in a.trace.snapshots] == [
        s.data() for s in b.trace.snapshots
    ]


# ---------------------------------------------------------------------------
# FFT

def test_fft_matches_recurrence_bit_exact():
    rng = random.Random(30)
    for k in (1, 2, 4):
        n = 1 << k
        vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        res = execute(alg_fft(k, vals))
        assert fft_result(res.config) == oracle_fft_recurrence(vals, k)


def test_fft_bit_reversed_input_gives_dft():
    rng = random.Random(31)
    k, n = 3, 8
    vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    rev = bit_reversed_indices(k)
    res = execute(alg_fft(k, [vals[r] for r in rev]))
    for got, want in zip(fft_result(res.config), oracle_dft(vals)):
        assert abs(got - want) < 1e-9


def test_fft_natural_input_has_no_output_permutation():
    """No fixed slot reordering turns natural-order runs into the DFT; the
    transform property only holds through the bit-reversed feed."""
    rng = random.Random(32)
    k, n = 3, 8
    outs, refs = [], []
    for _ in range(12):
        vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        outs.append(fft_result(execute(alg_fft(k, vals)).config))
        refs.append(oracle_dft(vals))
    assert discover_output_permutation(outs, refs) is None


def test_fft_verify_clean():
    checked(alg_fft(3))


# ---------------------------------------------------------------------------
# catalog plumbing

def test_catalog_contents():
    names = catalog_names()
    assert len(names) == len(set(names)) == 34
    for required in ("max", "reduce-sum", "horn", "bitonic", "xor1d-basic",
                     "fft", "fire-wave", "fire-jump2"):
        assert required in names


# name -> (topology dims, expected_steps) of each default instance
DEFAULT_INSTANCES = {
    "bitonic": ((16,), 4),
    "bitonic-basic": ((16,), 4),
    "fft": ((8,), 3),
    "fire-jump1": ((8,), 4),
    "fire-jump2": ((9,), 12),
    "fire-rings": ((9,), 10),
    "fire-wave": ((16,), 18),
    "horn": ((16,), 4),
    "max": ((16,), 15),
    **{f"reduce-{op}": ((16,), 4) for op in ("and", "avg", "max", "min", "or", "sum")},
    "xor-plain": ((7, 7), 10),
    "xor1d-basic": ((31,), 5),
    "xor1d-general": ((31,), 5),
    **{f"xor2d-{r}": ((8, 8), 8) for r in TORUS_RULES},
}


def _generals(spec):
    """Cells holding the general once the scheduled events have run."""
    cfg = spec.initial()
    for _, event in spec.events:
        event(cfg)
    return [i for i, q in enumerate(cfg.states) if q.data == FiringState.G]


def test_default_instances_have_expected_steps():
    assert sorted(DEFAULT_INSTANCES) == catalog_names()
    for name, (dims, steps) in DEFAULT_INSTANCES.items():
        spec = default_instance(name)
        assert (spec.name, spec.topology.dims, spec.expected_steps) == (name, dims, steps)
    # options the name does not carry, read off the instance
    spec = default_instance("max")
    assert {q.pointers for q in spec.initial().states} == {(1,)}
    const = execute(spec, Steps(1)).config  # the const variant keeps its pointer
    assert {q.pointers for q in const.states} == {(1,)}
    assert _generals(default_instance("fire-wave")) == [0]
    assert _generals(default_instance("fire-jump1")) == [0]
    assert _generals(default_instance("fire-rings")) == [1, 6]
    jump2 = default_instance("fire-jump2")
    assert (_generals(jump2), [t for t, _ in jump2.events]) == ([4], [1])
    assert {q.pointers for q in jump2.initial().states} == {(0,)}


def test_expected_steps_come_from_the_stop():
    for name in catalog_names():
        spec = default_instance(name)
        if isinstance(spec.stop, Steps):
            assert spec.expected_steps == spec.stop.count, name
    # reduce halts at a fixed point one step after its k generations
    spec = alg_reduce(32)
    assert (type(spec.stop), spec.expected_steps) == (FixedPoint, 5)
    assert execute(spec).steps == 6
    # bench/tracer.py rebuilds specs with dataclasses.replace
    assert dataclasses.replace(spec, initial=spec.initial).expected_steps == 5
    spec = dataclasses.replace(alg_max(8), expected_steps=3)
    assert (spec.stop.count, spec.expected_steps) == (7, 3)
    assert dataclasses.replace(spec, initial=spec.initial).expected_steps == 3


def test_a_spec_cannot_be_built_without_a_verify():
    spec = alg_max(8)
    rest = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    del rest["verify"]
    with pytest.raises(TypeError, match="verify"):
        AlgorithmSpec(**rest)


def test_family_entries_take_only_their_options():
    # the family member is fixed by the entry, not an overridable parameter
    for name in ("reduce-sum", "bitonic", "bitonic-basic", "xor1d-basic", "xor2d-r1"):
        assert all(not p.startswith("_") for p in inspect.signature(CATALOG[name]).parameters)
    with pytest.raises(TypeError):
        CATALOG["reduce-sum"](_op="max")
    spec = CATALOG["reduce-sum"](4, [1, 2, 3, 4])
    assert spec.name == "reduce-sum"
    assert execute(spec).config.data() == [10] * 4


@pytest.mark.parametrize("name", catalog_names())
def test_initial_builds_a_fresh_configuration(name):
    spec = default_instance(name)
    a, b = spec.initial(), spec.initial()
    assert (a.time, a.topology, b.time, b.topology) == (0, spec.topology, 0, spec.topology)
    assert a.states == b.states
    assert a is not b and a.states is not b.states
    # in-place edits, as scheduled events make them, stay in their own copy
    a.states[:] = [CellState(None, ())] * a.n
    a.time = 7
    assert b.states == spec.initial().states and b.time == 0


DATA_ENTRIES = [
    name for name in catalog_names() if "data" in inspect.signature(CATALOG[name]).parameters
]


@pytest.mark.parametrize("name", DATA_ENTRIES)
def test_entries_reject_data_of_the_wrong_length(name):
    n = default_instance(name).topology.n
    for data in ([], [1, 2, 3], list(range(n + 1))):
        with pytest.raises(PreconditionError, match="data length mismatch"):
            CATALOG[name](data=data)


@pytest.mark.parametrize(
    "grid",
    [[[1] * 8, [0] * 8], [[1] * 4] * 3, [[1] * 4, [0] * 4, [1] * 5, [0] * 3]],
    ids=["2x8", "3-rows", "ragged"],
)
@pytest.mark.parametrize(
    "build",
    [alg_xor2d, lambda n, **kw: alg_xor_plain(n, a=1, b=2, **kw)],
    ids=["xor2d", "xor-plain"],
)
def test_torus_entries_reject_a_grid_of_the_wrong_shape(build, grid):
    with pytest.raises(PreconditionError, match="grid must be 4 rows of 4 cells"):
        build(4, grid=grid, steps=2)
    build(4, grid=[[1] * 4, [0] * 4, [1] * 4, [0] * 4], steps=2)  # the right shape builds


@pytest.mark.parametrize("value", [2, -1, "1"])
@pytest.mark.parametrize(
    "build",
    [alg_xor2d, lambda n, **kw: alg_xor_plain(n, a=1, b=2, **kw)],
    ids=["xor2d", "xor-plain"],
)
def test_torus_entries_reject_cells_other_than_0_or_1(build, value):
    grid = [[0, 1, 0, 1], [1, 0, value, 0], [0, 0, 0, 0], [1, 1, 1, 1]]
    with pytest.raises(PreconditionError, match="grid cells must be 0 or 1"):
        build(4, grid=grid, steps=2)


def test_execute_honors_stop_override():
    spec = alg_max(8)
    res = execute(spec, stop=Steps(2))
    assert res.steps == 2


def test_execute_forwards_run_options():
    spec = default_instance("fire-jump2")  # its event must still be applied
    cases = (
        (None, {"record_states": True, "record_edges": True}),
        (Steps(6), {"mode": "async", "order": "random", "seed": 7, "record_states": True}),
        (Steps(6), {"mode": "async", "order": "descending", "record_states": True}),
    )
    plain = execute(spec, Steps(6), record_states=True)
    for stop, options in cases:
        got = execute(spec, stop, **options)
        want = run(spec.initial(), spec.ruleset, stop or spec.stop, events=spec.events, **options)
        assert (got.config.states, got.steps, got.halt) == (
            want.config.states, want.steps, want.halt
        )
        assert [c.states for c in got.trace.snapshots] == [c.states for c in want.trace.snapshots]
        assert got.trace.edges == want.trace.edges
        if stop is not None:  # the options change the run
            assert [c.states for c in got.trace.snapshots] != [
                c.states for c in plain.trace.snapshots
            ]
    with pytest.raises(StepLimitError):
        execute(alg_reduce(16), step_limit=3)
    assert execute(alg_reduce(16), step_limit=5).steps == 5
    with pytest.raises(TypeError):
        execute(spec, bogus=1)


def test_execute_names_the_algorithm_in_rule_failures():
    spec = alg_reduce(4, "sum", [1, "x", 2, 3])
    with pytest.raises(RuleEvaluationError) as exc:
        execute(spec)
    err = exc.value
    assert (err.algorithm, err.cell, err.time) == ("reduce-sum", 0, 0)
    assert (err.state, err.read) == (spec.initial().states[0], (spec.initial().states[1],))
    assert str(err).startswith("reduce-sum: rule evaluation failed at cell 0, t=0")
    with pytest.raises(RuleEvaluationError) as exc:
        run(spec.initial(), spec.ruleset, spec.stop)
    assert exc.value.algorithm is None


def test_execute_rejects_negative_steps():
    with pytest.raises(PreconditionError, match="negative, got -5"):
        execute(default_instance("max"), Steps(-5))
    assert execute(default_instance("max"), Steps(0)).steps == 0
