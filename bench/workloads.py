"""The benchmark's four workloads, generated from a seed.

``build(name, seed, workdir)`` returns a list of :class:`Case` objects.  Each
case holds generated inputs only; its ``run`` goes through the public ``gca``
API (build the spec, ``initial()``, run, verify) and is the timed part, its
``check`` is the benchmark's own untimed check of the outputs.  Every ``gca``
function is looked up on its module at call time, so the tracer's wrappers
see each call.

Why these four (see README.md for the metric map):

* ``fold-1d``: reductions and Horn prefix sums on rings of thousands of cells;
  almost all time is in ``step_sync``'s one-arm path.
* ``torus-2d``: the XOR families on a 64x64 torus; generic four-arm path,
  address modifiers, pointer functions, snapshots and oracle evolutions.
* ``small-catalog``: many instances with n <= 64 plus a CLI slice; fixed
  per-instance costs, the async path, scheduled events and output formats.
* ``arch-replay``: pipeline and DPA schedules and the architecture bridge;
  the only workload where ``archsim`` dominates.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import marshal
import operator
import os
from dataclasses import dataclass
from random import Random
from typing import Any, Callable

from gca import algorithms, archsim, cli, core, firing, formats


class CheckFailed(Exception):
    """An output did not match what the benchmark expected."""


@dataclass
class Tally:
    """Exact counts and an output digest of one case."""

    counts: dict[str, int]
    digest: str


@dataclass
class Case:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Tally]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _verified(spec, result):
    """Run the spec's own verify hook (part of the timed path)."""
    return spec, result, spec.verify(spec, result) if spec.verify else None


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _engine_tally(out) -> Tally:
    spec, result, err = out
    _require(err is None, f"{spec.name}: verify rejected the run: {err}")
    trace = result.trace
    counts = {
        "cell_steps": spec.topology.n * result.steps,
        "snapshots": len(trace.snapshots) if trace else 0,
        "edges": sum(len(e) for e in trace.edges) if trace else 0,
    }
    states = result.config.states
    parts = [spec.name, result.steps, result.halt, [q.data for q in states], [q.pointers for q in states]]
    if trace:
        parts.append(marshal.dumps(trace.edges))  # far faster than repr for 10^5 edges
    return Tally(counts, _digest(*parts))


# ---------------------------------------------------------------------------
# fold-1d

FOLD_OPS = ("sum", "max", "min", "and", "or", "horn")
FOLD_SIZES = (1024, 2048, 4096)
FOLD_REPEATS = 4

_FOLD_EXPECT = {
    "sum": sum,
    "max": max,
    "min": min,
    "and": lambda d: functools.reduce(operator.and_, d),
    "or": lambda d: functools.reduce(operator.or_, d),
}


def _fold_data(rng: Random, op: str, n: int) -> list[int]:
    if op == "and":  # a few bits set in every cell survive the fold
        return [rng.getrandbits(32) | 0x00F000F0 for _ in range(n)]
    if op == "or":
        return [1 << rng.randrange(40) for _ in range(n)]
    return [rng.randrange(-(1 << 20), 1 << 20) for _ in range(n)]


def _fold_case(op: str, n: int, data: list[int]) -> Case:
    name = "horn" if op == "horn" else f"reduce-{op}"

    def run():
        spec = algorithms.CATALOG[name](n, data=data)
        return _verified(spec, algorithms.execute(spec))

    def check(out):
        final = out[1].config.data()
        if op == "horn":
            _require(final == list(itertools.accumulate(data)), "prefix sums differ")
        else:
            want = _FOLD_EXPECT[op](data)
            _require(all(v == want for v in final), f"fold {op} differs from {want}")
        return _engine_tally(out)

    return Case(f"{name}-n{n}", run, check)


def fold_1d(rng: Random, workdir: str) -> list[Case]:
    return [
        _fold_case(op, n, _fold_data(rng, op, n))
        for _ in range(FOLD_REPEATS)
        for n in FOLD_SIZES
        for op in FOLD_OPS
    ]


# ---------------------------------------------------------------------------
# torus-2d

TORUS_FAMILIES = tuple(
    f"xor2d-{r}"
    for r in ("r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r8r", "tB", "tC", "tD", "tE", "sF", "sG", "sH")
) + ("xor-plain",)
TORUS_SIDE = 64
TORUS_STEPS = 3
TORUS_GRIDS = 3


def _torus_case(family: str, grid: list[list[int]], kw: dict, edges: bool) -> Case:
    def run():
        spec = algorithms.CATALOG[family](TORUS_SIDE, grid=grid, steps=TORUS_STEPS, **kw)
        result = algorithms.execute(spec, record_states=True, record_edges=edges)
        return _verified(spec, result)

    def check(out):
        result = out[1]
        _require(len(result.trace.snapshots) == TORUS_STEPS + 1, "snapshot count")
        _require(result.trace.snapshots[0].grid() == grid, "snapshot 0 is not the input grid")
        if edges:
            want = TORUS_STEPS * TORUS_SIDE * TORUS_SIDE * 4
            _require(sum(len(e) for e in result.trace.edges) == want, "edge count")
        return _engine_tally(out)

    return Case(f"{family}{'-edges' if edges else ''}", run, check)


def torus_2d(rng: Random, workdir: str) -> list[Case]:
    cases = []
    for g in range(TORUS_GRIDS):
        for family in TORUS_FAMILIES:
            grid = [[rng.randrange(2) for _ in range(TORUS_SIDE)] for _ in range(TORUS_SIDE)]
            kw = {}
            if family == "xor-plain":
                kw = {"a": rng.randint(1, TORUS_SIDE // 2), "b": rng.randint(1, TORUS_SIDE // 2)}
            cases.append(_torus_case(family, grid, kw, edges=g == 0))
    return cases


# ---------------------------------------------------------------------------
# small-catalog

# Sizes are fixed so that every seed gives the same mix of work; the seed
# draws data, general positions, ring memberships and async orders.
SMALL_SIZES = (6, 12, 18, 24, 30, 36, 42, 48, 56, 64)
SMALL_POW2 = (2, 4, 8, 16, 32, 64, 16, 32)


def _engine_case(label: str, name: str, args: tuple, kwargs: dict, **run_kw) -> Case:
    def run():
        spec = algorithms.CATALOG[name](*args, **kwargs)
        return _verified(spec, algorithms.execute(spec, **run_kw))

    return Case(label, run, _engine_tally)


def _random_rings(rng: Random, n: int, length: int) -> tuple[list[list[int]], list[int]]:
    """Rings of ``length`` cells (the last one takes any remainder) over a
    random permutation of 0..n-1, each with a random general."""
    cells = rng.sample(range(n), n)
    rings = [cells[i : i + length] for i in range(0, n, length)]
    if len(rings[-1]) < 2:
        rings[-2:] = [rings[-2] + rings[-1]]
    return rings, [rng.choice(r) for r in rings]


def _bitonic_sequence(rng: Random, n: int) -> list[int]:
    values = [rng.randrange(1000) for _ in range(n)]
    split = rng.randint(0, n)
    seq = sorted(values[:split]) + sorted(values[split:], reverse=True)
    shift = rng.randrange(n)
    return seq[shift:] + seq[:shift]


def _cli_call(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _read(path: str, mode: str = "r"):
    with open(path, mode) as fh:
        return fh.read()


def _cli_tally(rc_out, out: str, files: list[str], cell_steps: int = 0) -> Tally:
    rc, text = rc_out
    _require(rc == 0, f"exit code {rc}: {text.strip()[-200:]}")
    blobs = [_read(os.path.join(out, f), "rb") for f in files]
    _require(all(blobs), "empty output file")
    if out:  # written paths differ between runs
        text = text.replace(out, "<out>")
        blobs = [b.replace(out.encode(), b"<out>") for b in blobs]
    counts = {"cell_steps": cell_steps, "formats_bytes": sum(len(b) for b in blobs)}
    return Tally(counts, _digest(text, *blobs))


def _cli_run_text(out: str) -> Case:
    n, steps = 47, 10
    argv = ["run", "--alg", "xor1d-basic", "--n", str(n), "--steps", str(steps), "--pointers", "--out", out]

    def check(rc_out):
        files = ["xor1d-basic.txt", "xor1d-basic-p1.txt", "xor1d-basic-p2.txt", "xor1d-basic-config.txt"]
        tally = _cli_tally(rc_out, out, files, n * steps)
        rows = _read(os.path.join(out, "xor1d-basic.txt")).splitlines()
        _require(len(rows) == steps + 1 and all(r.startswith((" #", "  ")) for r in rows), "text rows")
        _require(rows[0].split(" t=")[0].rstrip().count("#") == 1, "seed row")
        return tally

    return Case("cli-run-text", lambda: _cli_call(argv), check)


def _cli_run_csv(out: str) -> Case:
    n = 24
    argv = ["run", "--alg", "fire-wave", "--n", str(n), "--format", "csv", "--edges", "--out", out]

    def check(rc_out):
        steps = n + 2
        files = ["fire-wave.csv", "fire-wave-edges.csv", "fire-wave-config.txt"]
        tally = _cli_tally(rc_out, out, files, n * steps)
        rows = _read(os.path.join(out, "fire-wave.csv")).splitlines()[2:]
        data = [r.split(",") for r in rows if r.split(",")[2] == "d"]
        _require(len(data) == (steps + 1) * n, "csv data rows")
        fired = [
            t
            for t in range(steps + 1)
            if all(int(r[3]) == firing.FiringState.F for r in data[t * n : (t + 1) * n])
        ]
        _require(fired == [n + 1], f"csv shows firing at {fired}, expected [{n + 1}]")
        edges = _read(os.path.join(out, "fire-wave-edges.csv")).splitlines()
        _require(len(edges) == 2 + steps * n, "edge rows")
        return tally

    return Case("cli-run-csv", lambda: _cli_call(argv), check)


def _cli_run_pgm(out: str) -> Case:
    side, steps = 16, 6
    argv = ["run", "--alg", "xor2d-r7", "--n", str(side), "--steps", str(steps)]
    argv += ["--format", "pgm", "--edges", "--out", out]
    files = [f"xor2d-r7-t{t:04d}.pgm" for t in range(steps + 1)] + ["xor2d-r7-edges.csv"]

    def check(rc_out):
        tally = _cli_tally(rc_out, out, files, side * side * steps)
        head = f"P5\n{side} {side}\n255\n".encode()
        for name in files[:-1]:
            blob = _read(os.path.join(out, name), "rb")
            ok = blob.startswith(head) and len(blob) == len(head) + side * side
            _require(ok, f"{name} is not a {side}x{side} P5 image")
        edges = _read(os.path.join(out, files[-1])).splitlines()
        _require(len(edges) == 2 + 4 * side * side * steps, "edge rows")
        return tally

    return Case("cli-run-pgm", lambda: _cli_call(argv), check)


def _cli_run_async(rng: Random, out: str) -> Case:
    n = 24
    mode = f"async:random:{rng.randrange(1 << 30)}"
    argv = ["run", "--alg", "max", "--n", str(n), "--mode", mode, "--out", out]

    def check(rc_out):
        tally = _cli_tally(rc_out, out, ["max.txt", "max-config.txt"], n * (n - 1))
        last = _read(os.path.join(out, "max.txt")).split("t=")[-1].split()[1:]
        want = max((7 * i + 3) % (n + 5) for i in range(n))
        _require(len(last) == n and all(int(v) == want for v in last), "async max differs")
        return tally

    return Case("cli-run-async", lambda: _cli_call(argv), check)


def _cli_render(rng: Random, out: str, pgm: bool) -> Case:
    w, h = 24, 16
    grid = [[rng.randrange(2) for _ in range(w)] for _ in range(h)]
    src = os.path.join(out, "in", "snap.txt")
    argv = ["render", src, "--out", out] + (["--format", "pgm", "--tile2"] if pgm else [])
    result = "snap.pgm" if pgm else "snap.txt"

    def run():
        cfg = core.make_configuration([v for row in grid for v in row], (), core.Topology.torus(w, h))
        os.makedirs(os.path.dirname(src), exist_ok=True)
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(formats.snapshot_dump(cfg))
        return _cli_call(argv)

    def check(rc_out):
        tally = _cli_tally(rc_out, out, [result])
        blob = _read(os.path.join(out, result), "rb")
        if pgm:
            rows = [row + row for row in grid] * 2
            pixels = bytes(255 if v == 0 else 0 for row in rows for v in row)
            want = f"P5\n{2 * w} {2 * h}\n255\n".encode() + pixels
        else:
            want = "".join("".join(" #" if v else "  " for v in row) + "\n" for row in grid).encode()
        _require(blob == want, f"rendered {result} differs from the snapshot")
        return tally

    return Case(f"cli-render-{'pgm' if pgm else 'text'}", run, check)


def _cli_verify_all() -> Case:
    def check(rc_out):
        total = len(algorithms.CATALOG)
        _require(rc_out[1].splitlines()[-1] == f"{total}/{total} pass", "verify all did not pass")
        return _cli_tally(rc_out, "", [])

    return Case("cli-verify-all", lambda: _cli_call(["verify", "all"]), check)


def _cli_arch(out: str) -> Case:
    alg, n = "horn", 32
    g = n.bit_length() - 1
    argv = ["arch", "--seq", "--alg", alg, "--n", str(n), "--out", out]

    def check(rc_out):
        tally = _cli_tally(rc_out, out, ["arch-schedule.csv"], 2 * n * g)
        text = rc_out[1]
        _require("engine-equal: yes" in text, "architecture replay differs from the engine")
        cycles = g * n + 3 + (g - 1)
        _require(f"total: {cycles} cycles" in text, f"cycle count is not {cycles}")
        rows = _read(os.path.join(out, "arch-schedule.csv")).splitlines()
        _require(len(rows) == 1 + 4 * n * g + (g - 1), "schedule rows")
        return tally

    return Case("cli-arch", lambda: _cli_call(argv), check)


def small_catalog(rng: Random, workdir: str) -> list[Case]:
    cases = []
    for j, n in enumerate(SMALL_SIZES):
        m = SMALL_POW2[j % len(SMALL_POW2)]
        rings, generals = _random_rings(rng, n, 2 + j % 5)
        cycle = firing.jump_v2_cycle(n)  # every phase of the pointer cycle
        jump2 = {"general_at": rng.randrange(n), "introduce_at": j % 5, "start_p": cycle[j % len(cycle)]}
        for name, args, kwargs in (
            ("fire-wave", (n,), {"general_at": rng.randrange(n)}),
            ("fire-rings", (n, rings, generals), {}),
            ("fire-jump1", (m,), {"general_at": rng.randrange(m)}),
            ("fire-jump2", (n,), jump2),
        ):
            cases.append(_engine_case(name, name, args, kwargs, record_states=True))
    for model in ("bitonic", "bitonic-basic"):
        for n in SMALL_POW2:
            cases.append(_engine_case(model, model, (n,), {"data": _bitonic_sequence(rng, n)}))
    for k in range(1, 7):
        values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(1 << k)]
        cases.append(_engine_case("fft", "fft", (), {"k": k, "values": values}))
    for order in ("random", "ascending", "descending"):
        for n in SMALL_SIZES[1::2]:
            data = [rng.randrange(1000) for _ in range(n)]
            seed = rng.randrange(1 << 30) if order == "random" else None
            label = f"max-async-{order}"
            run_kw = {"mode": "async", "order": order, "seed": seed}
            cases.append(_engine_case(label, "max", (n,), {"data": data}, **run_kw))
    out = functools.partial(os.path.join, workdir)
    cases += [
        _cli_run_text(out("run-text")),
        _cli_run_csv(out("run-csv")),
        _cli_run_pgm(out("run-pgm")),
        _cli_run_async(rng, out("run-async")),
        _cli_render(rng, out("render-text"), pgm=False),
        _cli_render(rng, out("render-pgm"), pgm=True),
        _cli_verify_all(),
        _cli_arch(out("arch")),
    ]
    return cases


# ---------------------------------------------------------------------------
# arch-replay

ARCH_K = (1, 2, 4)
ARCH_P = (1, 2, 4, 8)
ARCH_SCHEDULES = ((512, 3), (1280, 2))  # (n, G) for every (k, p)
ARCH_RINGS = ("reduce-sum", "horn", "bitonic")
ARCH_RING_SIZES = (128, 256, 512)


def _cycles(n: int, p: int, g: int) -> int:
    """G*ceil(n/p) + 3 + switch*(G-1) with the default switch cost of 1."""
    return g * -(-n // p) + 3 + (g - 1)


def _schedule_case(n: int, k: int, p: int, g: int) -> Case:
    def run():
        params = archsim.ArchParams(n=n, k=k, p=p)
        simulate = archsim.dpa_simulate if p > 1 else archsim.seq_pipeline_simulate
        sched = simulate(params, g)
        return sched, archsim.schedule_csv(sched), archsim.capacity_table(params)

    def check(out):
        sched, csv, table = out
        events = 4 * n * g + (g - 1)
        cycles = _cycles(n, p, g)
        _require(sched.total_cycles == cycles, f"{sched.total_cycles} cycles, expected {cycles}")
        _require(len(sched.events) == events, f"{len(sched.events)} events, expected {events}")
        _require(not sched.bank_conflicts, f"bank conflicts: {sched.bank_conflicts[:1]}")
        _require(csv.count("\n") == events + 1, "schedule csv rows")
        _require(table.count("\n") == 4, "capacity table rows")
        counts = {"sim_events": events, "sim_cycles": sched.total_cycles, "bank_conflicts": 0}
        return Tally(counts, _digest(csv, table))

    return Case(f"schedule-k{k}-p{p}", run, check)


def _replay_case(name: str, kwargs: dict | None, p: int) -> Case:
    """Replay on the pipeline model and compare with ``execute``; ``kwargs``
    None means the catalog's default instance (verified by its oracle only
    when the instance is one of the larger rings)."""

    def run():
        if kwargs is None:
            spec = algorithms.default_instance(name)
        else:
            spec = algorithms.CATALOG[name](**kwargs)
        g = spec.expected_steps
        params = archsim.ArchParams(n=spec.topology.n, k=max(1, spec.ruleset.arms), p=min(p, spec.topology.n))
        final, cycles = archsim.run_on_arch(spec, params, g)
        engine = algorithms.execute(spec, core.Steps(g))
        err = spec.verify(spec, engine) if kwargs is not None else None
        return spec, params, final, cycles, engine, err

    def check(out):
        spec, params, final, cycles, engine, err = out
        g, n = spec.expected_steps, spec.topology.n
        _require(err is None, f"{spec.name}: verify rejected the run: {err}")
        _require(final.states == engine.config.states, f"{spec.name}: replay differs from the engine")
        want = _cycles(n, params.p, g) if g else 0
        _require(cycles == want, f"{spec.name}: {cycles} cycles, expected {want}")
        counts = {"cell_steps": 2 * n * g, "sim_cycles": cycles}
        return Tally(counts, _digest(spec.name, final.states))

    label = f"replay-{name}" + ("" if kwargs is None else f"-n{kwargs['n']}")
    return Case(label, run, check)


def arch_replay(rng: Random, workdir: str) -> list[Case]:
    cases = []
    for k in ARCH_K:
        for p in ARCH_P:
            for n, g in ARCH_SCHEDULES:
                cases.append(_schedule_case(n, k, p, g))
    for i, name in enumerate(algorithms.catalog_names()):
        cases.append(_replay_case(name, None, ARCH_P[i % len(ARCH_P)]))
    for i, (name, n) in enumerate(itertools.product(ARCH_RINGS, ARCH_RING_SIZES)):
        data = _bitonic_sequence(rng, n) if name == "bitonic" else [rng.randrange(1 << 16) for _ in range(n)]
        cases.append(_replay_case(name, {"n": n, "data": data}, ARCH_P[i % len(ARCH_P)]))
    return cases


WORKLOADS: dict[str, Callable[[Random, str], list[Case]]] = {
    "fold-1d": fold_1d,
    "torus-2d": torus_2d,
    "small-catalog": small_catalog,
    "arch-replay": arch_replay,
}


def build(name: str, seed: int, workdir: str) -> list[Case]:
    """Generate a workload's cases; the same seed gives the same inputs."""
    return WORKLOADS[name](Random(f"{name}:{seed}"), workdir)
