"""What one synchronous step costs, compared between source trees.

    python3 tools/step_cost.py TREE [TREE ...] [--rounds N] [--case SUBSTRING ...]

Times one ``step_sync`` of the catalog's reduce-sum at n = 8, 32, 64 and
1024, of xor2d-r1 on 8x8 and 64x64 tori, of xor2d-tB on a 64x64 torus (one
address object from a modifier that is not a ``ByPointer``), of xor2d-sF on
8x8 and 64x64 tori and xor-plain on a 64x64 torus (two address objects per
generation: read cell by cell at 64 cells, as two sets of rotations above),
of bitonic at n = 512 and xor1d-basic at n = 31 (pointer rules that are not
by-pointer: cell by cell, each cell stored as it is evaluated) and of
fire-wave at n = 16, each from the entry's generation 0; fire-wave also from
its generation 1, which phase 1 reads cell by cell, as it reads criterion
6's generations.  Every torus entry starts from the cross grid, whose first
16 cells are 0, so xor2d-r1 64x64 also starts from a seeded random grid of
0s and 1s, as the bench's torus generations do (case option ``grid_seed``;
the label names the seed, not the grid).  xor2d-r1 and xor2d-sF 64x64 are
also timed with a fresh ``edge_sink`` list per step, as ``record_edges``
runs them (case option ``edges``).  Every measurement runs in a fresh
interpreter that imports ``gca`` from ``TREE/src`` alone; the trees
alternate within each round (the first tree leads in odd rounds, the last
in even ones).  A process repeats the step in 60 batches of about 20 ms of
CPU time each, with the cyclic collector paused as ``core.run`` pauses it,
and reports its fastest batch in microseconds per step.

``--case SUBSTRING`` (repeatable) times only the cases whose label holds one
of the substrings, as printed (``--case "fire-wave n=16 t=1"``); without it,
every case runs.

Prints each case's median and minimum over the rounds per tree, and each
later tree's change against the first; the last line is the same table,
with every sample, as one JSON object.  On a shared host a process can
run at half speed for a second at a time; the 60 batches let each process
see a faster stretch, and the minimum is the steadier number.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# (entry, its options, the generation whose step is timed)
CASES = [
    ("reduce-sum", {"n": 8}, 0),
    ("reduce-sum", {"n": 32}, 0),
    ("reduce-sum", {"n": 64}, 0),
    ("reduce-sum", {"n": 1024}, 0),
    ("fire-wave", {"n": 16}, 0),
    ("fire-wave", {"n": 16}, 1),
    ("xor2d-r1", {"n": 8}, 0),
    ("xor2d-r1", {"n": 64}, 0),
    ("xor2d-r1", {"n": 64, "grid_seed": 1}, 0),
    ("xor2d-r1", {"n": 64, "edges": True}, 0),
    ("xor2d-tB", {"n": 64}, 0),
    ("xor2d-sF", {"n": 8}, 0),
    ("xor2d-sF", {"n": 64}, 0),
    ("xor2d-sF", {"n": 64, "edges": True}, 0),
    ("xor-plain", {"n": 64}, 0),
    ("bitonic", {"n": 512}, 0),
    ("xor1d-basic", {"n": 31}, 0),
]

# Run as ``python3 -c CHILD SRC NAME KWARGS T``: prints microseconds per step.
CHILD = """\
import gc, json, random, sys, time
sys.path.insert(0, sys.argv[1])
import gca
from gca.algorithms import CATALOG
kwargs = json.loads(sys.argv[3])
edges = kwargs.pop("edges", False)  # a fresh edge_sink list per step
if "grid_seed" in kwargs:  # an n x n grid of seeded random 0s and 1s
    rng, n = random.Random(kwargs.pop("grid_seed")), kwargs["n"]
    kwargs["grid"] = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
spec = CATALOG[sys.argv[2]](**kwargs)
cfg, rs = spec.initial(), spec.ruleset
step = gca.step_sync
for _ in range(int(sys.argv[4])):
    cfg = step(cfg, rs)
clock = time.process_time_ns
gc.disable()
reps = 1
while True:  # about 20 ms per batch
    t0 = clock()
    for _ in range(reps):
        step(cfg, rs, edge_sink=[] if edges else None)
    if clock() - t0 > 20_000_000:
        break
    reps *= 2
batches = []
for _ in range(60):
    t0 = clock()
    for _ in range(reps):
        step(cfg, rs, edge_sink=[] if edges else None)
    batches.append((clock() - t0) / reps / 1000)
print(min(batches))
"""


def label(name: str, kwargs: dict, t: int) -> str:
    n = kwargs["n"]
    size = f"{n}x{n}" if name.startswith(("xor2d", "xor-plain")) else f"n={n}"
    grid = f" grid seed {kwargs['grid_seed']}" if "grid_seed" in kwargs else ""
    edges = " edges" if kwargs.get("edges") else ""
    return f"{name} {size}{grid}{edges}" + (f" t={t}" if t else "")


def measure(tree: Path, name: str, kwargs: dict, t: int) -> float:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree / "src"), name, json.dumps(kwargs), str(t)],
        check=True, capture_output=True, text=True, cwd=tree,
    )
    return float(out.stdout.split()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", type=Path)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--case", action="append", metavar="SUBSTRING",
                    help="time only the cases whose label holds SUBSTRING (repeatable)")
    args = ap.parse_args(argv)
    cases = [c for c in CASES if not args.case or any(s in label(*c) for s in args.case)]
    if not cases:
        ap.error(f"no case label holds {' or '.join(map(repr, args.case))}")
    trees = [t.resolve() for t in args.trees]
    for tree in trees:
        if not (tree / "src" / "gca").is_dir():
            ap.error(f"{tree} has no src/gca")
    samples = {(label(*c), t): [] for c in cases for t in range(len(trees))}
    for r in range(args.rounds):
        order = range(len(trees)) if r % 2 == 0 else range(len(trees) - 1, -1, -1)
        for case in cases:
            for t in order:
                samples[label(*case), t].append(measure(trees[t], *case))
    table = {}
    print(f"us per step_sync over {args.rounds} fresh processes per tree: median, min")
    for case in cases:
        key = label(*case)
        row, cells = {}, []
        for stat in (statistics.median, min):
            values = [stat(samples[key, t]) for t in range(len(trees))]
            cells += [f"{v:10.2f}" for v in values]
            cells += [f"{100 * (v / values[0] - 1):+7.1f}%" for v in values[1:]]
        print(f"{key:28}", *cells)
        for t, tree in enumerate(trees):
            xs = samples[key, t]
            row[str(tree)] = {"median": statistics.median(xs), "min": min(xs), "samples": xs}
        table[key] = row
    print(json.dumps({"rounds": args.rounds, "us_per_step": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
