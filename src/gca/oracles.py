"""Brute-force reference computations and golden-trace handling.

Everything here is independent of the stepping engine, and all but the torus
XOR references are deliberately naive: results come from direct definitions
(folds, O(n^2) transforms) so that engine output is checked by a second route.
:func:`oracle_fft_recurrence` replays the per-cell butterfly recurrence with
its own double-buffered loop to give a bit-exact reference for the engine's
arithmetic.

The torus XOR references avoid the engine's per-cell address arithmetic, so
a rule that reads the wrong cells disagrees with them.  :func:`torus_arms`
states each rule's arms from its definition, calling no ``algorithms`` helper.
:func:`xor_evolution` holds a grid row as one int with a byte per cell: arm
(dx, dy) turns row ``(y + dy) mod h`` right by ``dx mod w`` bytes, and XORing
the turned rows gives a whole row's parities at once.  Generations come back
as row-major ``bytes``, compared with ``bytes(snapshot.data())`` directly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from importlib import resources
from math import cos, pi, sin
from typing import Callable, Sequence

_REDUCE_OPS = {
    "sum": operator.add,
    "max": max,
    "min": min,
    "and": operator.and_,
    "or": operator.or_,
}


def oracle_reduce(data: Sequence, op: str):
    """Left fold of ``data`` under ``op``; ``avg`` divides the sum at the end."""
    if not data:
        raise ValueError("reduction of an empty vector")
    if op == "avg":
        total = data[0]
        for v in data[1:]:
            total = total + v
        return total / len(data)
    try:
        fn = _REDUCE_OPS[op]
    except KeyError:
        raise ValueError(f"unknown reduction op {op!r}") from None
    acc = data[0]
    for v in data[1:]:
        acc = fn(acc, v)
    return acc


def oracle_scan(data: Sequence) -> list:
    """Inclusive prefix sums."""
    out = []
    acc = None
    for v in data:
        acc = v if acc is None else acc + v
        out.append(acc)
    return out


def oracle_sort(data: Sequence) -> list:
    return sorted(data)


def oracle_is_bitonic(data: Sequence) -> bool:
    """True iff the cyclic sequence has at most two direction changes.

    Plateaus (equal neighbors) do not count as changes.
    """
    n = len(data)
    signs = []
    for i in range(n):
        d = data[(i + 1) % n] - data[i]
        if d > 0:
            signs.append(1)
        elif d < 0:
            signs.append(-1)
    if not signs:
        return True
    changes = sum(1 for a, b in zip(signs, signs[1:] + signs[:1]) if a != b)
    return changes <= 2


# ---------------------------------------------------------------------------
# transforms

def oracle_dft(values: Sequence[complex]) -> list[complex]:
    """Discrete Fourier transform by the O(n^2) definition sum."""
    n = len(values)
    out = []
    for k in range(n):
        acc = 0j
        for j, x in enumerate(values):
            ang = -2.0 * pi * k * j / n
            acc += complex(x) * complex(cos(ang), sin(ang))
        out.append(acc)
    return out


def oracle_fft_recurrence(values: Sequence[complex], k: int) -> list[complex]:
    """Replay the per-cell butterfly recurrence over k double-buffered rounds.

    The arithmetic (expression shapes and evaluation order) matches the cell
    rule exactly, so engine results must agree bit for bit.
    """
    n = 1 << k
    if len(values) != n:
        raise ValueError(f"need {n} values for k={k}")
    re = [float(complex(v).real) for v in values]
    im = [float(complex(v).imag) for v in values]
    step = 1
    for _ in range(k):
        nre = [0.0] * n
        nim = [0.0] * n
        for pos in range(n):
            other = (pos ^ step) - pos
            j = pos + other
            a = -pi / step * (pos & (step - 1))
            wr = cos(a)
            wi = sin(a)
            orr = re[j]
            oii = im[j]
            if other > 0:
                nre[pos] = re[pos] + wr * orr - wi * oii
                nim[pos] = im[pos] + wr * oii + wi * orr
            else:
                nre[pos] = orr - (wr * re[pos] - wi * im[pos])
                nim[pos] = oii - (wr * im[pos] + wi * re[pos])
        re, im = nre, nim
        step *= 2
    return [complex(r, i) for r, i in zip(re, im)]


def bit_reversed_indices(k: int) -> list[int]:
    """Index permutation that reverses k-bit positions."""
    n = 1 << k
    out = []
    for i in range(n):
        r = 0
        v = i
        for _ in range(k):
            r = (r << 1) | (v & 1)
            v >>= 1
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# torus XOR references

# r1..r8r: p <- (mul * p + add) mod n from p = 1, where 0 gives ``zero``
_COMMON_LENGTH = {
    "r1": (1, 0, 1), "r2": (1, 1, 1), "r3": (1, 2, 1), "r4": (1, 3, 1), "r5": (1, 4, 1),
    "r6": (1, 5, 1), "r7": (2, 0, 0), "r8": (3, 0, 0), "r8r": (3, 0, 1),
}
# tB..tE: (px, py) on even and on odd generations
_ALTERNATING = {
    "tB": ((1, 1), (2, 2)), "tC": ((1, 1), (3, 3)), "tD": ((1, 1), (4, 4)), "tE": ((1, 3), (3, 1)),
}
_CHECKERBOARD = {"sF": 1, "sG": 2, "sH": 3}  # orthogonal if even colour, else diagonal


def torus_arms(rule: str, n: int, steps: int) -> list[tuple[tuple, tuple]]:
    """The torus XOR rule ``rule`` on an n x n torus, as defined: entry t is
    ``(even, odd)``, the (dx, dy) arms that cells of colour ``(x + y) & 1`` 0
    and 1 read in the step from generation t, in the rule's order (N, E, S, W;
    diagonals NE, SE, SW, NW)."""
    if rule in _CHECKERBOARD:
        p = _CHECKERBOARD[rule]
        return [(((0, -p), (p, 0), (0, p), (-p, 0)), ((p, -p), (p, p), (-p, p), (-p, -p)))] * steps
    if rule in _ALTERNATING:
        lengths = [_ALTERNATING[rule][t & 1] for t in range(steps)]
    elif rule in _COMMON_LENGTH:
        (mul, add, zero), lengths, p = _COMMON_LENGTH[rule], [], 1
        for _ in range(steps):
            lengths.append((p, p))
            p = (mul * p + add) % n or zero
    else:
        raise ValueError(f"unknown torus XOR rule {rule!r}")
    return [(a, a) for a in (((0, -py), (px, 0), (0, py), (-px, 0)) for px, py in lengths)]


def xor_evolution(
    width: int,
    height: int,
    grid: Sequence[Sequence[int]],
    arms_at: Callable[[int, int, int], Sequence[tuple[int, int]]],
    steps: int,
) -> list[bytes]:
    """Evolve a binary torus grid by the parity of the cells each cell reads.

    ``arms_at(t, colour, bit)`` gives the (dx, dy) offsets that a cell of
    colour ``(x + y) & 1`` holding ``bit`` reads in the step from generation
    t.  Returns generations 0..steps, each as row-major ``bytes``.
    """
    lines = [bytes(row) for row in grid]
    data = b"".join(lines)
    if len(lines) != height or {len(r) for r in lines} != {width} or data.translate(None, b"\0\1"):
        raise ValueError(f"need {height} rows of {width} cells, each 0 or 1")
    rows = [int.from_bytes(r, "little") for r in lines]
    stripes = b"\0\1" * (width + 1)  # odd-colour lanes: 1 where (x + y) & 1
    odd = [int.from_bytes(stripes[y & 1 : width + (y & 1)], "little") for y in range(height)]
    history = [data]
    for t in range(steps):
        keys = [tuple(arms_at(t, colour, bit)) for bit in (0, 1) for colour in (0, 1)]
        planes = {key: _parity_rows(rows, key, width) for key in set(keys)}
        even0, odd0, even1, odd1 = (planes[key] for key in keys)
        rows = _merge(_merge(even0, odd0, odd), _merge(even1, odd1, odd), rows)
        history.append(b"".join(r.to_bytes(width, "little") for r in rows))
    return history


def _parity_rows(rows: list[int], arms: tuple, width: int) -> list[int]:
    """Cell x of row y XORs cells ``((x + dx) mod width, (y + dy) mod height)``
    over ``arms``: each arm turns a whole row right by ``dx mod width`` lanes."""
    lane = 8 * width
    out = [0] * len(rows)
    for dx, dy in arms:
        s, k = 8 * (dx % width), dy % len(rows)
        out = [o ^ (r >> s) ^ (r << lane - s) for o, r in zip(out, rows[k:] + rows[:k])]
    full = (1 << lane) - 1
    return [o & full for o in out]


def _merge(a: list[int], b: list[int], sel: list[int]) -> list[int]:
    """Per row and byte lane: ``b`` where ``sel`` holds 1, else ``a``."""
    return a if a is b else [x ^ ((x ^ y) & s) for x, y, s in zip(a, b, sel)]


# ---------------------------------------------------------------------------
# golden traces

_SOURCES = ("paper-appendix", "paper-table", "derived-oracle")


@dataclass(frozen=True)
class GoldenTrace:
    """Frozen expected output: named rows plus their provenance tag."""

    name: str
    source: str
    params: dict
    rows: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.source not in _SOURCES:
            raise ValueError(f"unknown golden source {self.source!r}")


def load_golden(name: str) -> GoldenTrace:
    """Load a golden trace from the bundled versioned directory."""
    path = resources.files("gca").joinpath(f"goldens/v1/{name}.txt")
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if not lines or lines[0] != "gca-golden v1":
        raise ValueError(f"golden {name}: missing 'gca-golden v1' header")
    meta: dict[str, str] = {}
    idx = 1
    while idx < len(lines) and lines[idx] != "--":
        key, _, value = lines[idx].partition(":")
        meta[key.strip()] = value.strip()
        idx += 1
    if idx >= len(lines):
        raise ValueError(f"golden {name}: missing '--' separator")
    rows = lines[idx + 1 :]
    if rows and rows[-1] == "":
        rows = rows[:-1]
    params: dict = {}
    for item in meta.get("params", "").split():
        k, _, v = item.partition("=")
        try:
            params[k] = int(v)
        except ValueError:
            params[k] = v
    return GoldenTrace(
        name=meta.get("name", name),
        source=meta.get("source", ""),
        params=params,
        rows=tuple(rows),
    )


def compare_golden(produced: Sequence[str], golden: GoldenTrace) -> str | None:
    """Byte-level row comparison; None when equal, else a first-diff report."""
    for r, (got, want) in enumerate(zip(produced, golden.rows)):
        if got != want:
            col = next(
                (c for c, (a, b) in enumerate(zip(got, want)) if a != b),
                min(len(got), len(want)),
            )
            return (
                f"{golden.name}: row {r} differs at column {col}\n"
                f"  got:  {got!r}\n"
                f"  want: {want!r}"
            )
    if len(produced) != len(golden.rows):
        return (
            f"{golden.name}: row count {len(produced)} != {len(golden.rows)}"
        )
    return None
