"""gca benchmark: one seeded workload, checked outputs, metrics as JSON.

    python3 bench/run.py --workload fold-1d --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  A human-readable report goes to standard
output first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HOLDOUT_SEED = 9973  # never used while developing a change; claims are re-checked on it
SETUP_PROBES = 9

# Run in a fresh interpreter: CPU seconds for ``import gca`` plus building the
# workload's inputs, scaled by the reference kernel run before and after.
_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
import reference
before = reference.steady()
t0 = time.process_time()
import gca, workloads
workloads.build(sys.argv[3], int(sys.argv[4]), "")
t1 = time.process_time()
print(reference.scale(t1 - t0, before, reference.steady()))
"""


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    clock = time.get_clock_info("process_time")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "gc": {"enabled": gc.isenabled(), "thresholds": gc.get_threshold()},
        "timer": f"time.process_time ({clock.implementation}, resolution {clock.resolution}s)",
    }


def source_fingerprint() -> str:
    """Hash of the program and benchmark sources: runs with equal fingerprints
    and seeds must produce equal counts and digests."""
    h = hashlib.sha256()
    for base in (SRC, BENCH):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# rounds


class Round:
    """One pass over every case of the workload.  ``cpu`` and ``wall`` hold
    each case's seconds scaled to the reference speed."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self.counts: dict[str, int] = {}
        self.digest = hashlib.sha256()
        self.failures: list[str] = []
        self.layers: list = []  # per case: (LayerReport, scale factor)


def run_round(cases, traced: bool) -> Round:
    import tracer  # imports gca, so only after main() has found the sources

    rnd = Round(traced)
    gc.collect()  # every round starts from the same heap
    ref = reference.sample()
    for case in cases:
        tr = tracer.Tracer() if traced else None
        if tr is not None:
            tr.install()
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            out = case.run()
            err = None
        except Exception as exc:  # a failing instance is counted, the run goes on
            err = f"{case.label}: {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        c1 = time.process_time()
        w1 = time.perf_counter()
        if tr is not None:
            tr.remove()
        prev, ref = ref, reference.sample()
        rnd.cpu.append(reference.scale(c1 - c0, prev[0], ref[0]))
        rnd.wall.append(reference.scale(w1 - w0, prev[1], ref[1]))
        if tr is not None:
            factor = reference.scale(1.0, prev[0], ref[0])
            rnd.layers.append((tracer.layer_report(tr.spans, round((c1 - c0) * 1e9)), factor))
        if err is None:
            try:
                tally = case.check(out)
            except Exception as exc:
                err = f"{case.label}: {type(exc).__name__}: {exc}"
        if err is not None:
            rnd.failures.append(err)
            rnd.digest.update(b"failed")
            continue
        for key, value in tally.counts.items():
            rnd.counts[key] = rnd.counts.get(key, 0) + value
        rnd.digest.update(tally.digest.encode())
    return rnd


def measure(cases, seconds: float, trace: bool, probe=None) -> tuple[list[Round], list[float]]:
    """Whole rounds until the next would pass ``seconds``; with tracing,
    untraced and traced rounds alternate (at least two of each).  ``probe``
    measures set-up time; its SETUP_PROBES calls are spread over the run,
    because the host's speed drifts on a scale of seconds."""
    rounds: list[Round] = []
    setup: list[float] = []
    start = time.perf_counter()
    need = 4 if trace else 2
    while True:
        rounds.append(run_round(cases, traced=trace and len(rounds) % 2 == 1))
        elapsed = time.perf_counter() - start
        if probe is not None and len(setup) * seconds / SETUP_PROBES <= elapsed:
            setup.append(probe())
            elapsed = time.perf_counter() - start
        if len(rounds) >= need and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    while probe is not None and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return rounds, setup


def setup_probe(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), str(BENCH), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout)


# ---------------------------------------------------------------------------
# metrics


def case_medians(rounds: list[Round], attr: str) -> list[float]:
    """Each case's median over the given rounds."""
    return [statistics.median(col) for col in zip(*(getattr(r, attr) for r in rounds))]


def end_to_end(rounds: list[Round], setup: list[float], labels: list[str]) -> tuple[dict, dict]:
    """Each case's time is its median over the rounds; the instance median and
    tail are taken across cases, so they cover the workload's mix."""
    cpu = case_medians(rounds, "cpu")
    m = len(cpu)
    idx = max(0, m - 11)  # the highest case time with ten cases above it
    counts = rounds[0].counts
    metrics = {
        "cell_steps_per_s": counts["cell_steps"] / sum(cpu),
        "instance_ms.p50": statistics.median(cpu) * 1e3,
        "instance_ms.tail": sorted(cpu)[idx] * 1e3,
        "wall_s": sum(case_medians(rounds, "wall")),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "instance_ms.tail.percentile": 100.0 * (idx + 1) / m,
        "instance_ms.samples": m,
        "rounds": len(rounds),
        "setup_s.samples": setup,
        "fail_frac": sum(len(r.failures) for r in rounds) / (m * len(rounds)),
    }
    if counts.get("sim_events"):
        # events per CPU second over the schedule cases only
        sched_cpu = sum(c for c, label in zip(cpu, labels) if label.startswith("schedule-"))
        extra["sim_events_per_s"] = counts["sim_events"] / sched_cpu
    return metrics, extra


def per_layer(rounds: list[Round], floors: dict) -> tuple[dict, dict]:
    """Layer metrics from the traced round with the median total; the
    overhead compares per-case medians of traced and untraced rounds."""
    import tracer  # imports gca, so only after main() has found the sources

    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    reports = sorted((tracer.combine(r.layers) for r in traced), key=lambda rep: rep.total_ns)
    rep = reports[(len(reports) - 1) // 2]
    us = {layer: ns / 1e3 for layer, ns in rep.self_ns.items()}
    cnt = rep.counts

    def c(layer, key):
        return cnt.get(layer, {}).get(key, 0)

    sync_cells = c("core.step_sync", "cells")
    cells = sync_cells + c("core.step_async", "cells")
    untraced_cpu = sum(case_medians(plain, "cpu"))
    traced_cpu = sum(case_medians(traced, "cpu"))
    def self_us(layer, per):
        """Self µs of ``layer`` per unit; None where the layer or unit is absent."""
        return us[layer] / per if layer in us and per else None

    table = {
        "core.step_sync.us_per_cell_step": self_us("core.step_sync", sync_cells),
        "core.step_sync.cell_steps": sync_cells,
        "core.step_async.us_per_cell_step": self_us("core.step_async", c("core.step_async", "cells")),
        "core.run.self_us_per_step": self_us("core.run", c("core.run", "steps")),
        "core.snapshots": c("algorithms.execute", "snapshots"),
        "core.edges": c("algorithms.execute", "edges"),
        "algorithms.build.us_per_instance": self_us("algorithms.build", c("algorithms.build", "instances")),
        "algorithms.execute.self_us_per_step": self_us("algorithms.execute", c("algorithms.execute", "steps")),
        "algorithms.verify.us_per_cell_step": self_us("algorithms.verify", cells),
        "firing.verify.us_per_instance": self_us("firing.verify", c("firing.verify", "instances")),
        "oracles.us_per_cell_step": self_us("oracles", cells),
        "archsim.simulate.us_per_event": self_us("archsim.simulate", c("archsim.simulate", "events")),
        "archsim.run_on_arch.self_ms": self_us("archsim.run_on_arch", 1e3),
        "archsim.run_on_arch.engine_frac": rep.arch_engine_ns / rep.arch_total_ns if rep.arch_total_ns else None,
        "archsim.schedule_csv.us_per_event": self_us("archsim.schedule_csv", c("archsim.schedule_csv", "events")),
        "archsim.events": c("archsim.simulate", "events"),
        "archsim.sim_cycles": c("archsim.simulate", "sim_cycles") + c("archsim.run_on_arch", "sim_cycles"),
        "archsim.bank_conflicts": c("archsim.simulate", "bank_conflicts"),
        "formats.us_per_cell": self_us("formats", c("formats", "cells")),
        "formats.bytes": c("formats", "bytes"),
        "cli.main.self_ms": self_us("cli.main", 1e3),
        "trace.overhead_frac": (traced_cpu - untraced_cpu) / untraced_cpu,
        "trace.other_frac": rep.other_ns / rep.total_ns,
    }
    for shape, (floor_us, ratio) in floors.items():
        table[f"core.floor.{shape}.us_per_cell_step"] = floor_us
        table[f"core.step_sync.{shape}.floor_ratio"] = ratio
    breakdown = {layer: ns / 1e6 for layer, ns in sorted(rep.self_ns.items())}
    breakdown["other"] = rep.other_ns / 1e6
    breakdown["total"] = rep.total_ns / 1e6
    return table, breakdown


def cross_run_check(workload: str, seed: int, counts: dict, digest: str) -> str | None:
    """Compare counts and digest with an earlier run of the same sources and
    seed (kept under .bench_build); record them if there is none."""
    path = WORK / "tallies" / f"{workload}-{seed}-{source_fingerprint()}.json"
    mine = {"counts": counts, "digest": digest}
    if path.exists():
        theirs = json.loads(path.read_text())
        if theirs != mine:
            return f"counts/digest differ from an earlier run with this seed: {theirs} vs {mine}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(mine))
    return None


# ---------------------------------------------------------------------------
# main


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gca" / "__init__.py").is_file():
        return _fail(f"no gca sources under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import gca

    if Path(gca.__file__).resolve().parent != SRC / "gca":
        return _fail(f"imported gca from {gca.__file__}, not from {SRC}")
    import floors
    import tracer
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        cases = workloads.build(args.workload, args.seed, workdir)
        probe = None if args.trace else functools.partial(setup_probe, args.workload, args.seed)
        rounds, setup = measure(cases, args.seconds, bool(args.trace), probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [f for r in rounds for f in r.failures]
    first = rounds[0]
    for r in rounds[1:]:
        if r.counts != first.counts or r.digest.digest() != first.digest.digest():
            problems.append("counts or digest changed between rounds of one run")
            break
    digest = first.digest.hexdigest()[:16]
    if not problems:
        err = cross_run_check(args.workload, args.seed, first.counts, digest)
        if err:
            problems.append(err)
    env = environment()
    attempted = len(cases) * len(rounds)
    failed = sum(len(r.failures) for r in rounds)

    print(f"gca benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} (held-out seed: {HOLDOUT_SEED})")
    print("environment: " + json.dumps(env))
    print(f"cases per round: {len(cases)}, rounds: {len(rounds)}, attempted: {attempted}, failed: {failed}")
    print("counts per round: " + json.dumps(first.counts, sort_keys=True) + f", digest: {digest}")
    if args.trace:
        floor_times, floor_errors = floors.measure(args.seed)
        problems += floor_errors
        leftovers = tracer.surviving_patches()
        if leftovers:
            problems.append(f"tracer left wrapped attributes: {leftovers}")
        table, breakdown = per_layer(rounds, floor_times)
        print("layer self time of the median traced round (ms at reference speed):")
        for layer, ms in breakdown.items():
            print(f"  {layer:<32} {ms:12.3f}")
        print("per-layer metrics:")
        for name, value in table.items():
            print(f"  {name:<44} {_fmt(value)}")
        listed = SPEC["per_layer"]
    else:
        values, extra = end_to_end(rounds, setup, [c.label for c in cases])
        print("end-to-end metrics:")
        for name, value in {**values, **extra}.items():
            print(f"  {name:<32} {_fmt(value)}")
        listed, table = SPEC["end_to_end"], values
    metrics = {m["name"]: {"value": table[m["name"]], "unit": m["unit"]} for m in listed}
    problems += [f"metric {name} has no value" for name, m in metrics.items() if m["value"] is None]
    for problem in problems:
        print(f"problem: {problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
