"""Rendering and serialization round-trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gca import Topology, catalog_names, default_instance, make_configuration
from gca.algorithms import alg_xor2d
from gca.core import Trace
from gca.formats import (
    CELL_ONE,
    CELL_OTHER,
    CELL_ZERO,
    TRACE_HEADER,
    edges_csv,
    pgm_bytes,
    pointer_digits,
    render_cells,
    render_pointer_rows,
    render_rows,
    render_text,
    snapshot_dump,
    snapshot_parse,
    trace_csv,
)
from gca import PreconditionError, execute


def ring_cfg(data, pointers=(1,), time=0):
    cfg = make_configuration(list(data), pointers, Topology.ring(len(data)))
    return cfg if time == 0 else type(cfg)(cfg.states, cfg.topology, time)


def test_cell_constants():
    assert (CELL_ZERO, CELL_ONE, CELL_OTHER) == ("  ", " #", " ?")


def test_render_cells():
    assert render_cells([0, 1, 0, 1, 1]) == "   #   # #"
    assert render_cells([0, 2, 1]) == "   ? #"


def test_render_rows_with_annotation():
    snaps = [ring_cfg([0, 1, 0]), ring_cfg([1, 1, 1], time=1)]
    rows = render_rows(snaps, annotate=lambda t, s: f" <{t}>")
    assert rows == ["   #   <0>", " # # # <1>"]


def test_pointer_digits_widths():
    assert pointer_digits(9) == 2
    assert pointer_digits(10) == 3
    assert pointer_digits(99) == 3
    assert pointer_digits(100) == 4
    assert pointer_digits(1000) == 5


def test_render_pointer_rows():
    snaps = [ring_cfg([0] * 3, (-1,)), ring_cfg([0] * 3, (2,), time=1)]
    rows = render_pointer_rows(snaps)
    assert rows[0] == "-1-1-1 t=0"
    assert rows[1] == " 2 2 2 t=1"


def test_render_text_binary_grid():
    res = execute(alg_xor2d(5, "r1", steps=0), record_states=True)
    text = render_text(res.trace.snapshots[0])
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[2] == "   # # #  "  # cross center row, cells two chars wide


def test_render_text_numeric():
    cfg = ring_cfg([10, 2, 300])
    assert render_text(cfg) == " 10   2 300\n"


def test_trace_csv():
    cfg = ring_cfg([4, 7], (1,))
    tr = Trace(snapshots=[cfg])
    lines = trace_csv(tr).splitlines()
    assert lines[0] == TRACE_HEADER
    assert lines[1] == "t,i,field,value"
    assert "0,0,d,4" in lines and "0,1,p1,1" in lines


def test_trace_csv_composite_data():
    cfg = make_configuration([(1, 2)], (0,), Topology.ring(1))
    text = trace_csv(Trace(snapshots=[cfg]))
    assert '"[1, 2]"' in text


def test_edges_csv():
    tr = Trace(edges=[[(0, 1), (1, 0)], [(0, 0)]])
    lines = edges_csv(tr).splitlines()
    assert lines[:2] == [TRACE_HEADER, "t,reader,target"]
    assert lines[2:] == ["0,0,1", "0,1,0", "1,0,0"]


def test_snapshot_round_trip():
    cfg = make_configuration([3, 1, 2], [(1,), (-1,), (0,)], Topology.ring(3))
    text = snapshot_dump(cfg, variant="basic")
    back, meta = snapshot_parse(text)
    assert back.states == cfg.states
    assert back.topology.dims == (3,)
    assert meta["variant"] == "basic" and meta["m"] == 1
    assert snapshot_dump(back) == text


def test_snapshot_round_trip_2d_tuple_data():
    cfg = make_configuration(
        [(0, 0), (1, 0), (0, 1), (1, 1)], (), Topology.torus(2, 2)
    )
    back, _ = snapshot_parse(snapshot_dump(cfg, variant="plain"))
    assert back.states == cfg.states
    assert back.topology.is_2d


scalars = st.one_of(
    st.integers(-99, 99),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
)


@st.composite
def configurations(draw):
    """Rings and tori under every variant, with int or (x, y) pair pointers
    (one tuple per cell) and scalar or tuple data."""
    if draw(st.booleans()):
        topo = Topology.torus(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    else:
        topo = Topology.ring(draw(st.integers(1, 9)))
    variant = draw(st.sampled_from(["basic", "general", "plain"]))
    arms = 0 if variant == "plain" else draw(st.integers(1, 3))
    pair = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    ptr = pair if draw(st.booleans()) else st.integers(-9, 9)
    data = scalars | st.tuples(scalars, scalars) if draw(st.booleans()) else scalars
    n = topo.n
    cfg = make_configuration(
        draw(st.lists(data, min_size=n, max_size=n)),
        draw(st.lists(st.tuples(*[ptr] * arms), min_size=n, max_size=n)),
        topo,
    )
    return type(cfg)(cfg.states, topo, draw(st.integers(0, 50))), variant, arms


@given(configurations())
def test_snapshot_round_trip_property(case):
    cfg, variant, arms = case
    text = snapshot_dump(cfg, variant=variant)
    back, meta = snapshot_parse(text)
    assert back.states == cfg.states
    assert {hash(q) for q in back.states}  # nested tuples, no lists
    assert (back.topology, back.time) == (cfg.topology, cfg.time)
    assert meta == {"variant": variant, "m": arms}
    assert snapshot_dump(back, variant=variant) == text


def test_snapshot_round_trip_torus_pair_pointers():
    cfg = make_configuration([0] * 9, ((1, 0), (0, -1)), Topology.torus(3, 3))
    back, _ = snapshot_parse(snapshot_dump(cfg))
    assert back.states[4].pointers == ((1, 0), (0, -1))
    assert back.states == cfg.states


def _typed(v):
    """``v`` with the type of every part, nested parts included."""
    if isinstance(v, (tuple, list)):
        return type(v), tuple(map(_typed, v))
    return type(v), v


@pytest.mark.parametrize("name", catalog_names())
def test_snapshot_round_trip_catalog_initial(name):
    spec = default_instance(name)
    cfg = spec.initial()
    back, _ = snapshot_parse(snapshot_dump(cfg, variant=spec.ruleset.variant))
    assert back.states == cfg.states
    assert [_typed(q) for q in back.states] == [_typed(q) for q in cfg.states]
    assert {hash(q) for q in back.states}


def test_snapshot_parse_rejects_headerless():
    with pytest.raises(PreconditionError, match="header"):
        snapshot_parse('{"kind": "snapshot"}')


def test_pgm_binary():
    img = pgm_bytes([[0, 1], [1, 0]])
    assert img.startswith(b"P5\n2 2\n255\n")
    assert img[-4:] == bytes([255, 0, 0, 255])


def test_pgm_tile2():
    img = pgm_bytes([[1]] , tile2=True)
    assert img.startswith(b"P5\n2 2\n255\n")
    assert img[-4:] == bytes([0, 0, 0, 0])


def test_pgm_grayscale():
    img = pgm_bytes([[0, 5, 10]])
    assert img[-3:] == bytes([255, 127, 0])  # linear ramp, min white


def test_pgm_constant_nonbinary():
    img = pgm_bytes([[7, 7], [7, 7]])
    assert img[-4:] == bytes([255] * 4)


def test_pgm_empty_grid():
    with pytest.raises(PreconditionError, match="empty"):
        pgm_bytes([])


def test_pgm_grayscale_of_floats_whose_range_overflows():
    # hi - lo is inf here, but the halves' difference is finite
    assert pgm_bytes([[1e308, -1e308]])[-2:] == bytes([0, 255])
    assert pgm_bytes([[-1.7e308, 0.0, 1.7e308]])[-3:] == bytes([255, 127, 0])


@pytest.mark.parametrize("grid", [[[10**400, 0.5]], [[10**400, 0]], [[-(10**400), 2, 3]]])
def test_pgm_of_numbers_too_large_for_a_float_is_a_precondition_error(grid):
    with pytest.raises(PreconditionError, match="fit a float"):
        pgm_bytes(grid)
