"""How much of one benchmark round the cyclic garbage collector takes.

    python3 tools/gc_share.py WORKLOAD [--seed N]

Builds the workload's cases through ``bench/workloads.py`` (the same inputs
``bench/run.py`` generates for that seed), runs one warm-up round, then one
measured round with a ``gc.callbacks`` hook.  Each round starts with
``gc.collect()``, as the benchmark's rounds do, and checks every case's
output.  Only the cases' ``run`` calls are timed and only collections inside
them count, again as in the benchmark.

Prints, per collector generation, the collections, their CPU milliseconds,
that time's share of the round's CPU time and the objects they collected;
the last line is the same table as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402


class Collections:
    """A ``gc.callbacks`` hook: per generation, collections, CPU seconds and
    objects collected, while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self.count = [0, 0, 0]
        self.cpu = [0.0, 0.0, 0.0]
        self.collected = [0, 0, 0]
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._start = time.process_time()
            return
        gen = info["generation"]
        self.count[gen] += 1
        self.cpu[gen] += time.process_time() - self._start
        self.collected[gen] += info["collected"]


def run_round(cases, hook: Collections | None) -> float:
    """Run and check every case; return the CPU seconds of the runs."""
    gc.collect()
    cpu = 0.0
    for case in cases:
        if hook is not None:
            hook.active = True
        c0 = time.process_time()
        out = case.run()
        cpu += time.process_time() - c0
        if hook is not None:
            hook.active = False
        case.check(out)
    return cpu


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix=f"gc-share-{args.workload}-") as workdir:
        cases = workloads.build(args.workload, args.seed, workdir)
        run_round(cases, None)
        hook = Collections()
        gc.callbacks.append(hook)
        try:
            round_cpu = run_round(cases, hook)
        finally:
            gc.callbacks.remove(hook)

    rows = []
    for gen in range(3):
        rows.append({
            "generation": gen,
            "collections": hook.count[gen],
            "gc_cpu_ms": round(hook.cpu[gen] * 1e3, 2),
            "share_pct": round(100 * hook.cpu[gen] / round_cpu, 2),
            "collected": hook.collected[gen],
        })
    total = {
        "generation": "all",
        "collections": sum(hook.count),
        "gc_cpu_ms": round(sum(hook.cpu) * 1e3, 2),
        "share_pct": round(100 * sum(hook.cpu) / round_cpu, 2),
        "collected": sum(hook.collected),
    }
    print(f"{args.workload} seed {args.seed}: {len(cases)} cases, "
          f"round CPU {round_cpu * 1e3:.1f} ms, thresholds {gc.get_threshold()}")
    print(f"{'gen':>4} {'collections':>12} {'gc_cpu_ms':>10} {'share':>7} {'collected':>10}")
    for row in rows + [total]:
        print(f"{row['generation']:>4} {row['collections']:>12} {row['gc_cpu_ms']:>10.2f} "
              f"{row['share_pct']:>6.2f}% {row['collected']:>10}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "cases": len(cases),
                      "round_cpu_ms": round(round_cpu * 1e3, 1), "rows": rows + [total]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
