"""Synchronous-firing algorithms: wave, rings, pointer jumping v1/v2."""

import random

import pytest

from gca import CellState, PreconditionError, execute
from gca.firing import (
    FiringState,
    firing_jump_v1,
    firing_jump_v2,
    firing_rings,
    firing_wave,
    jump_v2_cycle,
    jump_v2_next_p,
    next_power_of_two,
    trace_rows,
)

S, G, A, F = FiringState.S, FiringState.G, FiringState.A, FiringState.F


def checked(spec):
    res = execute(spec, record_states=True)
    err = spec.verify(spec, res)
    assert err is None, err
    return res


def fire_times(snapshots, cells=None, value=F):
    out = []
    for t, snap in enumerate(snapshots):
        idx = range(snap.n) if cells is None else cells
        if all(snap.states[i].data == value for i in idx):
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# wave

def test_wave_fires_at_n_plus_1():
    for n in (2, 3, 5, 9, 16):
        res = checked(firing_wave(n))
        times = fire_times(res.trace.snapshots)
        assert times == [n + 1]


def test_wave_any_general_position():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(2, 20)
        g = rng.randrange(n)
        res = checked(firing_wave(n, general_at=g))
        assert fire_times(res.trace.snapshots) == [n + 1]


def test_wave_no_partial_firing():
    res = execute(firing_wave(7), record_states=True)
    for snap in res.trace.snapshots:
        fired = [q.data == F for q in snap.states]
        assert all(fired) or not any(fired)


def test_wave_resets_after_firing():
    n = 6
    res = execute(firing_wave(n), record_states=True)
    after = res.trace.snapshots[n + 2]
    assert all(q.data == S and q.pointers == (-1,) for q in after.states)


def test_wave_early_trace_shape():
    n = 4
    res = execute(firing_wave(n), record_states=True)
    rows = trace_rows(res.trace.snapshots)
    assert rows[0].endswith("| 1 0 0 0")  # the general alone
    assert all("|" in r for r in rows)


# ---------------------------------------------------------------------------
# rings

RINGS9 = ((2, 4, 6), (1, 3, 5, 7))
GENERALS9 = (6, 1)


def test_rings_printed_initial_vectors():
    spec = firing_rings(9, RINGS9, GENERALS9)
    cfg = spec.initial()
    p1 = {i: cfg.states[i].pointers[0] for i in (2, 4, 6)}
    p2 = {i: cfg.states[i].pointers[1] for i in (2, 4, 6)}
    assert (p1[2], p1[4], p1[6]) == (-5, -2, -2)
    assert (p2[2], p2[4], p2[6]) == (2, 2, 5)
    p1 = [cfg.states[i].pointers[0] for i in (1, 3, 5, 7)]
    p2 = [cfg.states[i].pointers[1] for i in (1, 3, 5, 7)]
    assert p1 == [-3, -2, -2, -2]
    assert p2 == [2, 2, 2, 3]
    assert cfg.states[6].data == G and cfg.states[1].data == G
    assert cfg.states[0].pointers == (0, 0)  # inactive


def test_rings_firing_times():
    res = checked(firing_rings(9, RINGS9, GENERALS9, steps=26))
    snaps = res.trace.snapshots
    assert fire_times(snaps, RINGS9[0]) == [4, 7, 10, 13, 16, 19, 22, 25]
    assert fire_times(snaps, RINGS9[1]) == [5, 9, 13, 17, 21, 25]
    # joint firing where the two schedules meet
    joint = [t for t in fire_times(snaps, RINGS9[0]) if t in fire_times(snaps, RINGS9[1])]
    assert joint[:2] == [13, 25]


def test_rings_inactive_cells_constant():
    res = execute(firing_rings(9, RINGS9, GENERALS9), record_states=True)
    for snap in res.trace.snapshots:
        for i in (0, 8):
            assert snap.states[i].data == S
            assert snap.states[i].pointers == (0, 0)


def test_rings_random_layouts():
    rng = random.Random(42)
    for _ in range(8):
        n = rng.randint(10, 40)
        cells = rng.sample(range(n), rng.randint(4, min(n, 14)))
        # carve disjoint rings of length >= 2 out of the sampled cells
        rings, generals = [], []
        while len(cells) >= 2:
            size = rng.randint(2, min(6, len(cells)))
            ring, cells = cells[:size], cells[size:]
            rings.append(ring)
            generals.append(rng.choice(ring))
        checked(firing_rings(n, rings, generals))


def test_rings_validation():
    with pytest.raises(PreconditionError):
        firing_rings(9, ((2,),), (2,))  # too short
    with pytest.raises(PreconditionError):
        firing_rings(9, ((1, 2), (2, 3)), (1, 2))  # overlap
    with pytest.raises(PreconditionError):
        firing_rings(9, ((1, 2),), (5,))  # general outside its ring
    with pytest.raises(PreconditionError):
        firing_rings(4, ((1, 9),), (1,))  # cell outside the array


# ---------------------------------------------------------------------------
# pointer jumping, version 1 (power-of-two arrays)

def test_jump1_fires_logarithmically():
    # v1 uses a two-letter alphabet: 1 = awake, 2 = fire
    for exp in (1, 2, 3, 5, 7):
        n = 1 << exp
        res = checked(firing_jump_v1(n))
        assert fire_times(res.trace.snapshots, value=2) == [1 + exp]


def test_jump1_golden_table_passes_verify():
    checked(firing_jump_v1(8))  # verify compares against the stored table


def test_jump1_requires_power_of_two():
    with pytest.raises(PreconditionError, match="power of two"):
        firing_jump_v1(6)


def test_jump1_general_position_free():
    res = checked(firing_jump_v1(16, general_at=11))
    assert fire_times(res.trace.snapshots, value=2) == [5]


# ---------------------------------------------------------------------------
# pointer jumping, version 2 (any n, late general)

def test_next_power_of_two():
    assert [next_power_of_two(n) for n in (1, 2, 3, 8, 9, 64, 65)] == [
        1, 2, 4, 8, 16, 64, 128
    ]


def test_jump_v2_cycle():
    # doubling past the window flips negative, then closes through 0
    assert jump_v2_cycle(9) == [1, 2, 4, -1, 0]
    assert jump_v2_cycle(8) == [1, 2, -4, 0]
    for n in range(2, 40):
        cyc = jump_v2_cycle(n)
        N = next_power_of_two(n)
        assert len(cyc) == N.bit_length()  # log2 N + 1
        # the orbit really is cyclic under the step function
        assert jump_v2_next_p(cyc[-1], n) == cyc[0]
        for a, b in zip(cyc, cyc[1:]):
            assert jump_v2_next_p(a, n) == b


def test_jump2_printed_traces_pass_verify():
    checked(firing_jump_v2(9, general_at=4, introduce_at=1, start_p=0))
    checked(firing_jump_v2(9, general_at=4, introduce_at=1, start_p=-1))


def test_jump2_trace_a_rows():
    res = execute(
        firing_jump_v2(9, general_at=4, introduce_at=1, start_p=0),
        record_states=True,
    )
    rows = trace_rows(res.trace.snapshots)
    assert rows[0] == "0 0 0 0 0 0 0 0 0 | 0 0 0 0 0 0 0 0 0"
    assert rows[1] == "1 1 1 1 1 1 1 1 1 | 0 0 0 0 1 0 0 0 0"
    assert rows[-1].endswith("| 3 3 3 3 3 3 3 3 3")


def test_jump2_fire_delay_bounds():
    rng = random.Random(43)
    for _ in range(12):
        n = rng.randint(2, 32)
        N = next_power_of_two(n)
        logN = N.bit_length() - 1
        phase = rng.randrange(len(jump_v2_cycle(n)))
        start_p = jump_v2_cycle(n)[phase]
        intro = rng.randint(0, 4)
        res = checked(
            firing_jump_v2(n, introduce_at=intro, start_p=start_p)
        )
        times = fire_times(res.trace.snapshots)
        assert times, "no simultaneous firing"
        delta = times[0] - intro
        assert 2 + logN <= delta <= 2 + 2 * logN


def test_jump2_without_general_stays_quiet():
    spec = firing_jump_v2(12)
    stripped = type(spec)(**{**spec.__dict__, "events": (), "stop": spec.stop})
    res = execute(stripped, record_states=True)
    for snap in res.trace.snapshots:
        assert all(q.data == S for q in snap.states)
    # pointers keep orbiting
    period = len(jump_v2_cycle(12))
    p0 = [s.states[0].pointers[0] for s in res.trace.snapshots]
    assert p0[0] == p0[period] if len(p0) > period else True


def test_jump2_event_is_applied_at_introduce_time():
    res = execute(firing_jump_v2(9, general_at=4, introduce_at=3), record_states=True)
    snaps = res.trace.snapshots
    assert all(q.data == S for q in snaps[2].states)
    assert snaps[3].states[4].data == G


# ---------------------------------------------------------------------------
# verify

@pytest.mark.parametrize(
    "build, value",
    [
        (lambda: firing_wave(8), F),
        (lambda: firing_jump_v1(8), 2),
        (lambda: firing_jump_v2(9), 3),
        (lambda: firing_rings(9, RINGS9, GENERALS9), F),
    ],
    ids=["wave", "jump1", "jump2", "rings"],
)
def test_verify_rejects_one_early_fire(build, value):
    """A run that fires together on time is still rejected when one cell
    reached the firing state on its own earlier."""
    spec = build()
    res = checked(spec)
    early = res.trace.snapshots[1]
    early.states[2] = CellState(value, early.states[2].pointers)  # cell 2 is in ring 0
    assert "partial firing" in spec.verify(spec, res)
