"""Serialization and rendering: trace/edge CSV, snapshot JSON, text and PGM.

All textual trace formats start with the version line ``gca-trace v1``.
Binary data renders as two-character cells (``"  "`` for 0, ``" #"`` for 1),
matching the field widths of the bundled golden traces exactly.
"""

from __future__ import annotations

import csv
import json
import math
from io import StringIO
from typing import Any, Callable, Sequence

from .core import (
    CellState,
    Configuration,
    PreconditionError,
    Topology,
    Trace,
)

TRACE_HEADER = "gca-trace v1"

CELL_ZERO = "  "
CELL_ONE = " #"
CELL_OTHER = " ?"


def render_cells(values: Sequence) -> str:
    """One row of two-character cells (0 blank, 1 hash, anything else '?')."""
    out = []
    for v in values:
        if v == 0:
            out.append(CELL_ZERO)
        elif v == 1:
            out.append(CELL_ONE)
        else:
            out.append(CELL_OTHER)
    return "".join(out)


def render_rows(
    snapshots: Sequence[Configuration],
    annotate: Callable[[int, Sequence[Configuration]], str] | None = None,
) -> list[str]:
    """Render a 1D run as one cell row per generation, plus annotations."""
    snaps = list(snapshots)
    rows = []
    for t, cfg in enumerate(snaps):
        row = render_cells(cfg.data())
        if annotate is not None:
            row += annotate(t, snaps)
        rows.append(row)
    return rows


def pointer_digits(n: int) -> int:
    """Column width for pointer rows, growing with the cell count."""
    if n < 10:
        return 2
    if n < 100:
        return 3
    if n < 1000:
        return 4
    return 5


def render_pointer_rows(
    snapshots: Sequence[Configuration], arm: int = 0
) -> list[str]:
    """Fixed-width pointer columns per generation with a ' t=<t>' suffix."""
    rows = []
    for t, cfg in enumerate(snapshots):
        d = pointer_digits(cfg.n)
        cells = "".join(f"{q.pointers[arm]:{d}d}" for q in cfg.states)
        rows.append(f"{cells} t={t}")
    return rows


def render_text(cfg: Configuration) -> str:
    """Human-readable configuration: 2D grids row by row, 1D as one line.

    Binary data uses the two-character cells; anything else prints as
    right-aligned numbers.
    """
    grid = cfg.grid()
    flat = [v for row in grid for v in row]
    if all(v in (0, 1) for v in flat):
        return "\n".join(render_cells(row) for row in grid) + "\n"
    width = max(len(str(v)) for v in flat)
    return (
        "\n".join(" ".join(f"{str(v):>{width}}" for v in row) for row in grid)
        + "\n"
    )


# ---------------------------------------------------------------------------
# CSV traces

def trace_csv(trace: Trace) -> str:
    """Per-generation state dump: columns (t, i, field, value).

    Fields are ``d`` and ``p1..pm``; composite data values are JSON-encoded.
    """
    buf = StringIO()
    buf.write(TRACE_HEADER + "\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "i", "field", "value"])
    for cfg in trace.snapshots:
        t = cfg.time
        for i, q in enumerate(cfg.states):
            d = q.data
            w.writerow([t, i, "d", json.dumps(d) if isinstance(d, (tuple, list)) else d])
            for a, p in enumerate(q.pointers, start=1):
                w.writerow([t, i, f"p{a}", p])
    return buf.getvalue()


def edges_csv(trace: Trace) -> str:
    """Access-pattern dump: columns (t, reader, target) per recorded step."""
    buf = StringIO()
    buf.write(TRACE_HEADER + "\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "reader", "target"])
    for t, step_edges in enumerate(trace.edges):
        for reader, target in step_edges:
            w.writerow([t, reader, target])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# snapshot round-trip

def snapshot_dump(cfg: Configuration, variant: str = "basic") -> str:
    """Versioned JSON snapshot of one configuration; a tuple is stored as an
    array."""
    m = len(cfg.states[0].pointers) if cfg.states else 0
    doc = {
        "kind": "snapshot",
        "n": cfg.n,
        "m": m,
        "variant": variant,
        "topology": list(cfg.topology.dims),
        "time": cfg.time,
        "states": [{"d": q.data, "p": list(q.pointers)} for q in cfg.states],
    }
    return TRACE_HEADER + "\n" + json.dumps(doc) + "\n"


def _tuples(v: Any) -> Any:
    """JSON arrays back to (nested) tuples, e.g. 2-D pointers ``((1, 0),)``."""
    return tuple(map(_tuples, v)) if isinstance(v, list) else v


def snapshot_parse(text: str) -> tuple[Configuration, dict]:
    """Inverse of :func:`snapshot_dump`; returns (configuration, metadata).
    Arrays come back as (nested) tuples."""
    header, _, body = text.partition("\n")
    if header != TRACE_HEADER:
        raise PreconditionError(f"snapshot missing {TRACE_HEADER!r} header")
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"snapshot body is not valid JSON: {exc}") from None
    for key in ("states", "topology"):
        if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
            raise PreconditionError(f"snapshot needs a {key!r} list")
    for i, s in enumerate(doc["states"]):
        if not (isinstance(s, dict) and "d" in s and "p" in s):
            raise PreconditionError(f"snapshot state {i} needs 'd' and 'p'")
    if not all(isinstance(v, int) for v in doc["topology"]):
        raise PreconditionError("snapshot topology must list integer sides")
    states = [CellState(_tuples(s["d"]), _tuples(s["p"])) for s in doc["states"]]
    topo = Topology(tuple(doc["topology"]))
    cfg = Configuration(states, topo, doc.get("time", 0))
    meta = {"variant": doc.get("variant", "basic"), "m": doc.get("m", 0)}
    return cfg, meta


# ---------------------------------------------------------------------------
# PGM images

def pgm_bytes(grid: Sequence[Sequence], tile2: bool = False) -> bytes:
    """Binary P5 image of a data grid: 0 renders white, 1 renders black.

    Other grids of numbers that fit a finite float get a linear grayscale
    (minimum white, maximum black); any other cell data is a
    :class:`PreconditionError`.
    ``tile2`` tiles the pattern 2x2, doubling both dimensions.
    """
    rows = [list(r) for r in grid]
    if tile2:
        rows = [r + r for r in rows]
        rows = rows + rows
    flat = [v for r in rows for v in r]
    if not flat:
        raise PreconditionError("empty grid")
    if all(v in (0, 1) for v in flat):
        pix = [255 if v == 0 else 0 for v in flat]
    elif not all(isinstance(v, (int, float)) for v in flat):
        raise PreconditionError("PGM needs a grid of real numbers")
    else:
        try:  # halves keep hi - lo finite for any two finite floats
            half = [v / 2 for v in flat]
        except OverflowError:
            raise PreconditionError("PGM needs cell data that fit a float") from None
        if not all(map(math.isfinite, half)):
            raise PreconditionError("PGM needs finite cell data")
        lo, hi = min(half), max(half)
        if hi == lo:
            pix = [255] * len(flat)
        else:
            pix = [255 - round(255 * ((v - lo) / (hi - lo))) for v in half]
    h = len(rows)
    w = len(rows[0])
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    return header + bytes(pix)
