"""Brute-force reference computations and golden-trace handling.

Everything here is deliberately naive and independent of the stepping engine:
results are produced by direct definitions (folds, O(n^2) transforms, nested
grid loops) so that engine output can be checked against a second route.  The
single exception is :func:`oracle_fft_recurrence`, which replays the per-cell
butterfly recurrence with its own double-buffered loop to give a bit-exact
reference for the engine's arithmetic.
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


def discover_output_permutation(
    outputs: Sequence[Sequence[complex]],
    references: Sequence[Sequence[complex]],
    tol: float = 1e-9,
) -> list[int] | None:
    """Search for a permutation mapping reference slots onto output slots.

    ``outputs[r]`` and ``references[r]`` are parallel result vectors for run r.
    Returns ``perm`` with ``outputs[r][perm[key]] == references[r][key]`` for
    every run within ``tol`` per component, or None when no permutation works.
    """
    n = len(references[0])
    candidates: list[list[int]] = []
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

    perm: list[int] = []
    used: set[int] = set()

    def assign(key: int) -> bool:
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


# ---------------------------------------------------------------------------
# naive XOR evolvers

def xor_evolution(
    width: int,
    height: int,
    grid: Sequence[Sequence[int]],
    offsets_at: Callable[[int, int, int], Sequence[tuple[int, int]]],
    steps: int,
) -> list[list[list[int]]]:
    """Evolve a binary torus grid by parity of the listed neighbor cells.

    ``offsets_at(t, x, y)`` yields the relative offsets read by cell (x, y)
    during the step from generation t.  Returns all generations 0..steps.
    """
    cur = [list(row) for row in grid]
    history = [[list(row) for row in cur]]
    for t in range(steps):
        nxt = [[0] * width for _ in range(height)]
        for y in range(height):
            for x in range(width):
                acc = 0
                for dx, dy in offsets_at(t, x, y):
                    acc += cur[(y + dy) % height][(x + dx) % width]
                nxt[y][x] = acc % 2
        cur = nxt
        history.append([list(row) for row in cur])
    return history


def plain_xor_evolution(
    n: int, grid: Sequence[Sequence[int]], a: int, b: int, steps: int
) -> list[list[list[int]]]:
    """State-dependent variant: a cell at 0 reads at distance ``a``, at 1
    distance ``b``, taking the parity of its four orthogonal targets."""
    cur = [list(row) for row in grid]
    history = [[list(row) for row in cur]]
    for _ in range(steps):
        nxt = [[0] * n for _ in range(n)]
        for y in range(n):
            for x in range(n):
                p = a if cur[y][x] == 0 else b
                acc = (
                    cur[(y - p) % n][x]
                    + cur[y][(x + p) % n]
                    + cur[(y + p) % n][x]
                    + cur[y][(x - p) % n]
                )
                nxt[y][x] = acc % 2
        cur = nxt
        history.append([list(row) for row in cur])
    return history


def oracle_xor_linear_check(
    evolve: Callable[[list[list[int]], int], list[list[list[int]]]],
    init1: Sequence[Sequence[int]],
    init2: Sequence[Sequence[int]],
    steps: int,
) -> bool:
    """Superposition test: evolve(i1 xor i2) == evolve(i1) xor evolve(i2).

    ``evolve(grid, steps)`` is supplied by the caller and must return all
    generations.  Only evolutions whose reads do not depend on the states
    are linear; a state-dependent rule (xor-plain) generally fails it.
    """
    both = [
        [c1 ^ c2 for c1, c2 in zip(r1, r2)] for r1, r2 in zip(init1, init2)
    ]
    h1 = evolve([list(r) for r in init1], steps)
    h2 = evolve([list(r) for r in init2], steps)
    hb = evolve(both, steps)
    for g1, g2, gb in zip(h1, h2, hb):
        for r1, r2, rb in zip(g1, g2, gb):
            if [c1 ^ c2 for c1, c2 in zip(r1, r2)] != rb:
                return False
    return True


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
