"""Catalog digest: two sha256 hashes over what the algorithm catalog computes.

    python3 tools/catalog_digest.py

The instances are every catalog entry's default instance and the 17 torus
entries (``xor2d-*``, and ``xor-plain`` with arms 1 and 2, which fit every
side) at sides 5, 8 and 13.  Each one is built and run with states and
access edges recorded, then verified.

``typed`` covers, per instance, the name, topology, ``expected_steps``, the
``repr`` of every recorded configuration (so the type of each data value
counts), the access edges, the step count, the halt reason and the verify
result.  ``values`` is the same with each configuration written as JSON, so a
value that changes type but not number (an enum member that becomes its int)
leaves it equal.  A change that must not alter the catalog's results keeps
both hashes; run this on the old and the new tree and compare.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gca import CATALOG, catalog_names, execute  # noqa: E402

TORUS_SIDES = (5, 8, 13)


def instances():
    for name in catalog_names():
        yield name, {}
    torus = [name for name in catalog_names() if name.startswith("xor2d-")]
    for side in TORUS_SIDES:
        for name in torus:
            yield name, {"n": side}
        yield "xor-plain", {"n": side, "a": 1, "b": 2}


def record(name: str, options: dict) -> tuple[str, str]:
    """The typed and the values-only text of one instance."""
    head = f"{name} {sorted(options.items())}"
    spec = CATALOG[name](**options)
    result = execute(spec, record_states=True, record_edges=True)
    tail = (
        f"{spec.name} {spec.topology.dims} {spec.expected_steps}"
        f" {result.trace.edges} {result.steps} {result.halt}"
        f" {spec.verify(spec, result)!r}"
    )
    snaps = result.trace.snapshots
    typed = [repr((cfg.time, cfg.states)) for cfg in snaps]
    values = [json.dumps([cfg.time, cfg.states]) for cfg in snaps]
    return "\n".join([head, *typed, tail]), "\n".join([head, *values, tail])


def main() -> int:
    typed, values = hashlib.sha256(), hashlib.sha256()
    count = 0
    for name, options in instances():
        t, v = record(name, options)
        typed.update(t.encode() + b"\n")
        values.update(v.encode() + b"\n")
        count += 1
    print(f"instances: {count}")
    print(f"typed:  {typed.hexdigest()}")
    print(f"values: {values.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
