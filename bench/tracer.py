"""Span tracer for the benchmark's traced rounds.

The tracer replaces public ``gca`` functions with timing wrappers at every
module attribute a caller looks up (``gca.algorithms.step_sync``,
``gca.core.step_sync`` and ``gca.archsim.step_sync`` are three bindings of one
function) and restores the originals afterwards.  Each call records a span
``[layer, parent, start_ns, end_ns, counts]`` in process CPU time; spans stay in
memory until :func:`layer_report` folds them into self times.

Only functions called at most once per step are wrapped.  Per-cell helpers
(rules, ``resolve``, ``normalize_relative``) stay inside their caller's self
time, so tracing costs about two clock reads per engine step.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

import gca
from gca import algorithms, archsim, cli, core, firing, formats, oracles

MARK = "__bench_traced__"

# (layer, attribute name, modules whose binding is replaced)
_BINDINGS = (
    ("core.step_sync", "step_sync", (core, algorithms, archsim, gca)),
    ("core.step_async", "step_async", (core, algorithms, gca)),
    ("core.run", "run", (core, algorithms, gca)),
    ("algorithms.execute", "execute", (algorithms, cli, gca)),
    ("archsim.simulate", "seq_pipeline_simulate", (archsim, cli)),
    ("archsim.simulate", "dpa_simulate", (archsim, cli)),
    ("archsim.run_on_arch", "run_on_arch", (archsim, cli)),
    ("archsim.schedule_csv", "schedule_csv", (archsim, cli)),
    ("archsim.capacity_table", "capacity_table", (archsim, cli)),
    ("cli.main", "main", (cli,)),
)

_FORMATS = (
    "render_rows",
    "render_pointer_rows",
    "render_text",
    "trace_csv",
    "edges_csv",
    "snapshot_dump",
    "snapshot_parse",
    "pgm_bytes",
)


def _public_functions(module, prefix: str = "") -> list[str]:
    return [
        name
        for name, value in vars(module).items()
        if name.startswith(prefix)
        and not name.startswith("_")
        and callable(value)
        and getattr(value, "__module__", None) == module.__name__
        and not isinstance(value, type)
    ]


def _n_of(cfgs) -> int:
    return sum(c.n for c in cfgs)


def _count_step(args, kwargs, out):
    return {"cells": args[0].n}


def _count_run(args, kwargs, out):
    return {"steps": out.steps}


def _count_execute(args, kwargs, out):
    counts = {"steps": out.steps}
    if out.trace is not None:
        counts["snapshots"] = len(out.trace.snapshots)
        counts["edges"] = sum(len(e) for e in out.trace.edges)
    return counts


def _count_schedule(args, kwargs, out):
    return {
        "events": len(out.events),
        "sim_cycles": out.total_cycles,
        "bank_conflicts": len(out.bank_conflicts),
    }


def _count_run_on_arch(args, kwargs, out):
    return {"instances": 1, "sim_cycles": out[1]}


def _count_csv(args, kwargs, out):
    return {"events": len(args[0].events), "bytes": len(out)}


def _count_bytes(args, kwargs, out):
    return {"bytes": len(out)}


def _format_cells(name: str, args, kwargs, out) -> int:
    if name in ("render_rows", "render_pointer_rows"):
        return _n_of(args[0])
    if name in ("render_text", "snapshot_dump"):
        return args[0].n
    if name == "trace_csv":
        return _n_of(args[0].snapshots)
    if name == "edges_csv":
        return sum(len(e) for e in args[0].edges)
    if name == "snapshot_parse":
        return out[0].n
    cells = sum(len(row) for row in args[0])  # pgm_bytes(grid, tile2)
    tile2 = args[1] if len(args) > 1 else kwargs.get("tile2", False)
    return 4 * cells if tile2 else cells


def _count_format(name: str):
    def count(args, kwargs, out):
        payload = args[0] if name == "snapshot_parse" else out
        return {"bytes": len(payload), "cells": _format_cells(name, args, kwargs, out)}

    return count


def _count_verify(args, kwargs, out):
    spec, result = args[0], args[1]
    return {"instances": 1, "cells": spec.topology.n * result.steps}


_COUNTERS = {
    "core.step_sync": _count_step,
    "core.step_async": _count_step,
    "core.run": _count_run,
    "algorithms.execute": _count_execute,
    "archsim.simulate": _count_schedule,
    "archsim.run_on_arch": _count_run_on_arch,
    "archsim.schedule_csv": _count_csv,
    "archsim.capacity_table": _count_bytes,
}


class Tracer:
    """Installs span-recording wrappers on ``gca`` and removes them again."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer: str, fn, count=None, post=None):
        spans = self.spans
        stack = self._stack
        clock = time.process_time_ns

        def traced(*args, **kwargs):
            rec = [layer, stack[-1], clock(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if count is not None:
                rec[4] = count(args, kwargs, out)
            return out if post is None else post(out)

        traced.__wrapped__ = fn
        setattr(traced, MARK, True)
        return traced

    def _wrap_builder(self, fn):
        """Builders return specs whose ``initial`` and ``verify`` closures are
        wrapped too: build time is builder plus ``initial()``."""

        def post(spec):
            verify = spec.verify
            if verify is not None:
                layer = "firing.verify" if verify.__module__ == firing.__name__ else "algorithms.verify"
                verify = self.wrap(layer, verify, _count_verify)
            return dataclasses.replace(
                spec,
                initial=self.wrap("algorithms.build", spec.initial),
                verify=verify,
            )

        return self.wrap("algorithms.build", fn, lambda a, k, o: {"instances": 1}, post)

    # -- install / remove ---------------------------------------------------

    def _patch(self, owner, key, replacement) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = replacement
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, attr, modules in _BINDINGS:
            fn = getattr(modules[0], attr)
            traced = self.wrap(layer, fn, _COUNTERS.get(layer))
            for module in modules:
                self._patch(module, attr, traced)
        for name in _FORMATS:
            self._patch(formats, name, self.wrap("formats", getattr(formats, name), _count_format(name)))
        for name in _public_functions(oracles):
            self._patch(oracles, name, self.wrap("oracles", getattr(oracles, name)))
        builders = {}
        for module, prefix in ((algorithms, "alg_"), (firing, "firing_")):
            for name in _public_functions(module, prefix):
                fn = getattr(module, name)
                builders[fn] = self._wrap_builder(fn)
                self._patch(module, name, builders[fn])
        # catalog entries that reference a builder directly; the lambdas call
        # the (already wrapped) module attributes
        for name, fn in list(algorithms.CATALOG.items()):
            if fn in builders:
                self._patch(algorithms.CATALOG, name, builders[fn])

    def remove(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def surviving_patches() -> list[str]:
    """Names of ``gca`` attributes or catalog entries still wrapped."""
    found = []
    for module in (gca, core, algorithms, firing, oracles, archsim, formats, cli):
        for name, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{name}")
    for name, value in algorithms.CATALOG.items():
        if getattr(value, MARK, False):
            found.append(f"CATALOG[{name!r}]")
    return found


# ---------------------------------------------------------------------------
# self times


@dataclasses.dataclass
class LayerReport:
    """Self time (ns) and summed counts per layer for one traced call tree."""

    self_ns: dict[str, float]
    counts: dict[str, dict[str, int]]
    other_ns: float
    total_ns: float
    arch_engine_ns: float  # step_sync time spent directly under run_on_arch
    arch_total_ns: float


def layer_report(spans: list[list], total_ns: int) -> LayerReport:
    """Fold spans into per-layer self times; ``other`` is the time outside
    every span, so the layer self times plus ``other`` equal ``total_ns``."""
    child_ns = [0] * len(spans)
    for layer, parent, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: dict[str, int] = defaultdict(int)
    counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    top_ns = 0
    arch_engine = arch_total = 0
    for idx, (layer, parent, start, end, c) in enumerate(spans):
        dur = end - start
        self_ns[layer] += dur - child_ns[idx]
        if parent < 0:
            top_ns += dur
        if c:
            bucket = counts[layer]
            for key, value in c.items():
                bucket[key] += value
        if layer == "archsim.run_on_arch":
            arch_total += dur
        elif layer == "core.step_sync" and parent >= 0 and spans[parent][0] == "archsim.run_on_arch":
            arch_engine += dur
    return LayerReport(
        self_ns=dict(self_ns),
        counts={k: dict(v) for k, v in counts.items()},
        other_ns=total_ns - top_ns,
        total_ns=total_ns,
        arch_engine_ns=arch_engine,
        arch_total_ns=arch_total,
    )


def combine(parts: list[tuple[LayerReport, float]]) -> LayerReport:
    """Sum reports, scaling each one's times by its factor (counts add up
    unscaled); the sum of self times plus ``other`` still equals the total."""
    self_ns: dict[str, float] = defaultdict(float)
    counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    other = total = engine = arch = 0.0
    for rep, factor in parts:
        for layer, ns in rep.self_ns.items():
            self_ns[layer] += ns * factor
        for layer, c in rep.counts.items():
            for key, value in c.items():
                counts[layer][key] += value
        other += rep.other_ns * factor
        total += rep.total_ns * factor
        engine += rep.arch_engine_ns * factor
        arch += rep.arch_total_ns * factor
    return LayerReport(dict(self_ns), {k: dict(v) for k, v in counts.items()}, other, total, engine, arch)
