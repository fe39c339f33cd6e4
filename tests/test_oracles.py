"""Independent reference implementations and golden-trace plumbing."""

import functools
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gca.oracles import (
    bit_reversed_indices,
    compare_golden,
    load_golden,
    oracle_dft,
    oracle_fft_recurrence,
    oracle_is_bitonic,
    oracle_reduce,
    oracle_sort,
    oracle_scan,
    torus_arms,
    xor_evolution,
)


# ---------------------------------------------------------------------------
# folds and scans

def test_reduce_frozen_values():
    v = [5, 3, 8, 1, 4, 4, 2, 9]
    assert oracle_reduce(v, "sum") == 36
    assert oracle_reduce(v, "max") == 9
    assert oracle_reduce(v, "min") == 1
    assert oracle_reduce(v, "and") == 0
    assert oracle_reduce(v, "or") == 15
    assert oracle_reduce(v, "avg") == 4.5
    assert oracle_reduce([7], "and") == 7


def test_reduce_matches_functools():
    rng = random.Random(2)
    ops = {
        "sum": lambda a, b: a + b,
        "max": max,
        "min": min,
        "and": lambda a, b: a & b,
        "or": lambda a, b: a | b,
    }
    for _ in range(200):
        v = [rng.randint(0, 255) for _ in range(rng.randint(1, 20))]
        for name, fn in ops.items():
            assert oracle_reduce(v, name) == functools.reduce(fn, v)


def test_reduce_rejects():
    with pytest.raises(ValueError):
        oracle_reduce([], "sum")
    with pytest.raises(ValueError):
        oracle_reduce([1, 2], "median")


def test_scan_matches_accumulate():
    assert oracle_scan([3, 1, 4, 1, 5]) == [3, 4, 8, 9, 14]
    rng = random.Random(4)
    for _ in range(100):
        v = [rng.randint(-9, 9) for _ in range(rng.randint(1, 30))]
        assert oracle_scan(v) == list(itertools.accumulate(v))
    assert oracle_scan([]) == []


def test_sort():
    assert oracle_sort([3, 1, 2]) == [1, 2, 3]


# ---------------------------------------------------------------------------
# bitonic predicate

def test_is_bitonic_examples():
    assert oracle_is_bitonic([1, 3, 7, 6, 4, 2])
    assert oracle_is_bitonic([6, 4, 2, 1, 3, 7])  # rotation stays bitonic
    assert oracle_is_bitonic([5, 5, 5, 5])
    assert oracle_is_bitonic(list(range(8)))
    assert not oracle_is_bitonic([1, 5, 2, 6, 3, 7, 4, 8])


def test_is_bitonic_rotation_invariant():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(2, 12)
        up = sorted(rng.sample(range(100), n))
        cut = rng.randint(0, n)
        seq = up[:cut] + list(reversed(up[cut:]))
        for r in range(n):
            assert oracle_is_bitonic(seq[r:] + seq[:r])


# ---------------------------------------------------------------------------
# transforms

def test_dft_hand_values():
    out = oracle_dft([1, 0, 0, 0])
    assert all(abs(c - 1) < 1e-12 for c in out)
    out = oracle_dft([1, 1, 1, 1])
    assert abs(out[0] - 4) < 1e-12
    assert all(abs(c) < 1e-12 for c in out[1:])


def test_dft_parseval():
    rng = random.Random(8)
    x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(16)]
    y = oracle_dft(x)
    assert abs(sum(abs(v) ** 2 for v in y) - 16 * sum(abs(v) ** 2 for v in x)) < 1e-9


def test_recurrence_is_dft_of_bit_reversed_input():
    rng = random.Random(9)
    for k in range(1, 6):
        n = 1 << k
        rev = bit_reversed_indices(k)
        for _ in range(10):
            x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            rec = oracle_fft_recurrence([x[r] for r in rev], k)
            dft = oracle_dft(x)
            assert all(abs(a - b) < 1e-9 for a, b in zip(rec, dft))


def test_recurrence_size_guard():
    with pytest.raises(ValueError):
        oracle_fft_recurrence([1, 2, 3], 2)


def test_bit_reversed_indices():
    assert bit_reversed_indices(0) == [0]
    assert bit_reversed_indices(1) == [0, 1]
    assert bit_reversed_indices(3) == [0, 4, 2, 6, 1, 5, 3, 7]
    for k in range(1, 8):
        rev = bit_reversed_indices(k)
        assert [rev[r] for r in rev] == list(range(1 << k))  # involution


def discover_output_permutation(outputs, references, tol=1e-9):
    """Search for a permutation mapping reference slots onto output slots.

    ``outputs[r]`` and ``references[r]`` are parallel result vectors for run r.
    Returns ``perm`` with ``outputs[r][perm[key]] == references[r][key]`` for
    every run within ``tol`` per component, or None when no permutation works.
    """
    n = len(references[0])
    candidates = []
    for key in range(n):
        slots = []
        for slot in range(n):
            ok = True
            for out, ref in zip(outputs, references):
                d = out[slot] - ref[key]
                if abs(d.real) > tol or abs(d.imag) > tol:
                    ok = False
                    break
            if ok:
                slots.append(slot)
        if not slots:
            return None
        candidates.append(slots)

    perm = []
    used = set()

    def assign(key):
        if key == n:
            return True
        for slot in candidates[key]:
            if slot not in used:
                used.add(slot)
                perm.append(slot)
                if assign(key + 1):
                    return True
                used.discard(slot)
                perm.pop()
        return False

    return perm if assign(0) else None


def test_discover_permutation_identity():
    rng = random.Random(10)
    refs = [[complex(rng.uniform(-1, 1), 0) for _ in range(8)] for _ in range(6)]
    assert discover_output_permutation(refs, refs) == list(range(8))


def test_discover_permutation_shuffled():
    rng = random.Random(11)
    perm = list(range(8))
    rng.shuffle(perm)
    refs = [
        [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)]
        for _ in range(6)
    ]
    outs = [[None] * 8 for _ in refs]
    for r, ref in enumerate(refs):
        for key in range(8):
            outs[r][perm[key]] = ref[key]
    assert discover_output_permutation(outs, refs) == perm


def test_discover_permutation_none():
    refs = [[complex(v, 0) for v in (1, 2, 3, 4)], [complex(v, 0) for v in (5, 6, 7, 8)]]
    outs = [[complex(v, 0) for v in (1, 2, 3, 4)], [complex(v, 0) for v in (6, 5, 7, 8)]]
    assert discover_output_permutation(outs, refs) is None


# ---------------------------------------------------------------------------
# XOR evolution

def blank(n):
    return [[0] * n for _ in range(n)]


def nesw(p):
    return ((0, -p), (p, 0), (0, p), (-p, 0))


def parity_reference(width, height, grid, arms_at, steps):
    """The definition, cell by cell: cell (x, y) of generation t+1 is the
    parity of the cells ``((x + dx) mod width, (y + dy) mod height)`` over the
    arms ``arms_at(t, (x + y) & 1, its bit)``."""
    cur = [list(row) for row in grid]
    history = [bytes(v for row in cur for v in row)]
    for t in range(steps):
        cur = [
            [
                sum(
                    cur[(y + dy) % height][(x + dx) % width]
                    for dx, dy in arms_at(t, (x + y) & 1, cur[y][x])
                ) % 2
                for x in range(width)
            ]
            for y in range(height)
        ]
        history.append(bytes(v for row in cur for v in row))
    return history


offsets = st.tuples(st.integers(-12, 12), st.integers(-12, 12))
arm_lists = st.lists(offsets, max_size=4).map(tuple)


@st.composite
def evolution_cases(draw):
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    steps = draw(st.integers(0, 4))
    grid = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=width, max_size=width),
        min_size=height, max_size=height,
    ))
    # table[t][colour][bit]; the plain form reads by bit alone
    plain = draw(st.booleans())
    table = []
    for _ in range(steps):
        by_colour = [draw(st.tuples(arm_lists, arm_lists)) for _ in range(2)]
        table.append((by_colour[0], by_colour[0] if plain else by_colour[1]))
    return width, height, grid, table, steps


@given(evolution_cases())
def test_xor_evolution_matches_the_per_cell_definition(case):
    width, height, grid, table, steps = case

    def arms_at(t, colour, bit):
        return table[t][colour][bit]

    got = xor_evolution(width, height, grid, arms_at, steps)
    assert got == parity_reference(width, height, grid, arms_at, steps)


def test_xor_evolution_rejects_non_binary_grids():
    for grid in ([[0, 2], [1, 0]], [[0, 1]], [[0, 1], [1]], [[0, 1], [1, 0, 1]]):
        with pytest.raises(ValueError, match="2 rows of 2 cells, each 0 or 1"):
            xor_evolution(2, 2, grid, lambda t, c, b: (), 1)


def test_xor_evolution_single_seed():
    grid = blank(9)
    grid[4][4] = 1
    hist = xor_evolution(9, 9, grid, lambda t, c, b: nesw(1), 1)
    assert hist[0] == bytes(v for row in grid for v in row)
    lit = {(x, y) for y in range(9) for x in range(9) if hist[1][9 * y + x]}
    assert lit == {(4, 3), (5, 4), (4, 5), (3, 4)}


def test_xor_evolution_is_linear():
    rng = random.Random(13)
    n = 16
    g1 = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
    g2 = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]

    both = [[c1 ^ c2 for c1, c2 in zip(r1, r2)] for r1, r2 in zip(g1, g2)]
    h1, h2, hb = (xor_evolution(n, n, g, lambda t, c, b: nesw(3), 8) for g in (g1, g2, both))
    assert all(bytes(c1 ^ c2 for c1, c2 in zip(a, b)) == ab for a, b, ab in zip(h1, h2, hb))


def test_plain_evolution_equals_fixed_when_a_is_b():
    rng = random.Random(14)
    n = 12
    grid = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]

    def plain(a, b):
        return lambda t, colour, bit: nesw(b if bit else a)

    fixed = xor_evolution(n, n, grid, lambda t, colour, bit: nesw(2), 6)
    assert xor_evolution(n, n, grid, plain(2, 2), 6) == fixed
    assert xor_evolution(n, n, grid, plain(2, 3), 6) != fixed


def test_plain_evolution_state_dependent():
    n = 8
    grid = blank(n)
    grid[0][0] = 1
    hist = xor_evolution(n, n, grid, lambda t, c, bit: nesw(1 if bit else 3), 1)
    # the lone 1-cell reads at distance 1, everyone else at 3
    lit = {(x, y) for y in range(n) for x in range(n) if hist[1][n * y + x]}
    assert (3, 0) in lit and (0, 3) in lit  # zero-cells seeing the 1 at dist 3
    assert (1, 0) not in lit  # its dist-3 arms miss the seed


def test_torus_arms_by_colour_and_generation():
    # checkerboard: orthogonal on even colour, diagonal on odd, every step
    assert torus_arms("sG", 8, 2) == [
        (nesw(2), ((2, -2), (2, 2), (-2, 2), (-2, -2)))
    ] * 2
    # tE: (px, py) = (1, 3) on even generations, (3, 1) on odd ones
    te = ((0, -3), (1, 0), (0, 3), (-1, 0)), ((0, -1), (3, 0), (0, 1), (-3, 0))
    assert torus_arms("tE", 8, 3) == [(te[0], te[0]), (te[1], te[1]), (te[0], te[0])]
    assert [even for even, _ in torus_arms("tD", 8, 2)] == [nesw(1), nesw(4)]


# ---------------------------------------------------------------------------
# golden traces

def test_load_golden_fields():
    g = load_golden("out-c-basic")
    assert g.name == "out-c-basic"
    assert g.source in ("paper-appendix", "paper-table", "derived-oracle")
    assert g.params["n"] == 31
    assert len(g.rows) == 6


def test_load_golden_unknown():
    with pytest.raises(FileNotFoundError):
        load_golden("no-such-trace")


def test_compare_golden_exact_and_diff():
    g = load_golden("jump1-n8")
    assert compare_golden(list(g.rows), g) is None
    mutated = list(g.rows)
    mutated[2] = mutated[2].replace("4", "5", 1)
    msg = compare_golden(mutated, g)
    assert msg is not None and "row 2" in msg


def test_compare_golden_row_count():
    g = load_golden("jump1-n8")
    msg = compare_golden(list(g.rows)[:-1], g)
    assert msg is not None and "row" in msg
