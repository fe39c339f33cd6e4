"""Command-line front end: run cataloged algorithms, render snapshots,
drive the architecture models, and replay verification checks.

Exit codes: 0 success, 1 usage error, 2 precondition violation,
3 verification failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, fields

from .algorithms import (
    CATALOG,
    _DEFAULT_INSTANCES,
    AlgorithmSpec,
    catalog_names,
    default_instance,
    execute,
)
from .archsim import (
    ArchParams,
    capacity_table,
    dpa_simulate,
    run_on_arch,
    schedule_csv,
    seq_pipeline_simulate,
)
from .core import FixedPoint, GcaError, PreconditionError, Steps
from . import formats

OUT_DIR_ENV = "GCA_OUT_DIR"

_INT_FIELDS = {"n", "w", "h", "steps", "seed"}
_BOOL_FIELDS = {"states", "pointers", "edges"}


@dataclass
class RunConfig:
    """Everything a `run` invocation depends on; the textual key=value
    form round-trips losslessly so runs can be replayed from a file.
    """

    alg: str | None = None
    n: int | None = None
    w: int | None = None
    h: int | None = None
    variant: str | None = None
    mode: str = "sync"
    steps: int | None = None
    stop: str | None = None
    format: str = "text"
    seed: int | None = None
    states: bool = True
    pointers: bool = False
    edges: bool = False
    out: str | None = None

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                v = ""
            elif isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        cfg = cls()
        for ln, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in known:
                raise ValueError(f"line {ln}: not a config entry: {line!r}")
            value = value.strip()
            if value == "":
                parsed = None
            elif key in _INT_FIELDS:
                parsed = int(value)
            elif key in _BOOL_FIELDS:
                if value not in ("true", "false"):
                    raise ValueError(f"line {ln}: {key} must be true or false")
                parsed = value == "true"
            else:
                parsed = value
            if parsed is None and key in ("mode", "format"):
                continue  # keep the default
            setattr(cfg, key, parsed)
        return cfg


def _out_dir(cfg_out: str | None) -> str:
    return cfg_out or os.environ.get(OUT_DIR_ENV) or "."


def _parse_mode(cfg: RunConfig) -> tuple[str, str, int | None]:
    parts = cfg.mode.split(":")
    if parts[0] == "sync" and len(parts) == 1:
        return "sync", "ascending", None
    if parts[0] == "async" and 2 <= len(parts) <= 3:
        order = parts[1]
        if order not in ("ascending", "descending", "random"):
            raise PreconditionError(f"unknown async order {order!r}")
        seed = int(parts[2]) if len(parts) == 3 else cfg.seed
        if order == "random" and seed is None:
            raise PreconditionError(
                "async:random updating requires --seed for reproducibility"
            )
        return "async", order, seed
    raise PreconditionError(
        f"update mode {cfg.mode!r} is not sync | async:order[:seed]"
    )


def _build_spec(cfg: RunConfig) -> tuple[AlgorithmSpec, Steps | None]:
    """Instantiate the algorithm, feeding it only the keywords it takes.

    A --steps value the builder does not accept becomes a plain stop rule;
    a rejected --seed is kept for the update schedule only.
    """
    builder = CATALOG[cfg.alg]
    kwargs = dict(_DEFAULT_INSTANCES.get(cfg.alg, {"n": 8, "steps": 8}))
    if cfg.n is not None:
        kwargs["n"] = cfg.n
    elif cfg.w is not None or cfg.h is not None:
        if cfg.w != cfg.h or cfg.w is None:
            raise PreconditionError(
                "only square grids are cataloged; pass equal --w/--h or --n"
            )
        kwargs["n"] = cfg.w
    if cfg.steps is not None:
        kwargs["steps"] = cfg.steps
    if cfg.seed is not None:
        kwargs["seed"] = cfg.seed
    variant_key = None
    if cfg.variant is not None:
        variant_key = "pointer_variant"
        kwargs[variant_key] = cfg.variant
    stop_override: Steps | None = None
    while True:
        try:
            return builder(**kwargs), stop_override
        except TypeError as exc:
            m = re.search(r"unexpected keyword argument '(\w+)'", str(exc))
            if not m or m.group(1) not in kwargs:
                raise
            bad = m.group(1)
            value = kwargs.pop(bad)
            if bad == variant_key:
                if variant_key == "pointer_variant":
                    variant_key = "model"
                    kwargs[variant_key] = value
                    continue
                raise PreconditionError(
                    f"algorithm {cfg.alg!r} has no variants"
                ) from None
            if bad == "steps":
                stop_override = Steps(value)
                continue
            if bad == "seed":
                continue
            raise PreconditionError(
                f"algorithm {cfg.alg!r} does not accept {bad}"
            ) from None


_HALT_TEXT = {"fixed-point": "fixed point", "steps": "steps", "predicate": "predicate"}


def _is_binary(snapshots) -> bool:
    return all(
        isinstance(q.data, int) and q.data in (0, 1)
        for cfg in snapshots
        for q in cfg.states
    )


def cmd_run(cfg: RunConfig) -> int:
    if cfg.alg is None:
        print("error: --alg is required", file=sys.stderr)
        return 1
    if cfg.alg not in CATALOG:
        print(
            f"error: unknown algorithm {cfg.alg!r}; choose from "
            f"{', '.join(catalog_names())}",
            file=sys.stderr,
        )
        return 1
    if cfg.steps is not None and cfg.steps < 0:
        print(f"error: --steps must be >= 0, got {cfg.steps}", file=sys.stderr)
        return 1
    mode, order, seed = _parse_mode(cfg)
    spec, stop_override = _build_spec(cfg)
    if cfg.stop == "fixed-point":
        stop = FixedPoint()
    elif cfg.stop is None:
        stop = stop_override
    else:
        raise PreconditionError(f"unknown stop rule {cfg.stop!r}")
    want_states = cfg.format != "none" and cfg.states
    result = execute(
        spec,
        stop,
        mode=mode,
        order=order,
        seed=seed,
        record_states=want_states,
        record_edges=cfg.edges,
    )
    out = _out_dir(cfg.out)
    written: list[str] = []

    def emit(name: str, payload) -> None:
        path = os.path.join(out, name)
        if isinstance(payload, bytes):
            with open(path, "wb") as fh:
                fh.write(payload)
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        written.append(path)

    if cfg.format != "none":
        os.makedirs(out, exist_ok=True)
        snaps = result.trace.snapshots if want_states else [result.config]
        if cfg.format == "text":
            if not spec.topology.is_2d and _is_binary(snaps):
                rows = formats.render_rows(snaps, spec.annotate)
                emit(f"{cfg.alg}.txt", "\n".join(rows) + "\n")
            else:
                blocks = [f"t={c.time}\n{formats.render_text(c)}" for c in snaps]
                emit(f"{cfg.alg}.txt", "\n".join(blocks))
            if cfg.pointers and not spec.topology.is_2d:
                for arm in range(spec.ruleset.arms):
                    rows = formats.render_pointer_rows(snaps, arm)
                    emit(f"{cfg.alg}-p{arm + 1}.txt", "\n".join(rows) + "\n")
        elif cfg.format == "csv":
            emit(f"{cfg.alg}.csv", formats.trace_csv(result.trace))
        elif cfg.format == "pgm":
            for c in snaps:
                emit(
                    f"{cfg.alg}-t{c.time:04d}.pgm",
                    formats.pgm_bytes(c.grid()),
                )
        else:
            raise PreconditionError(f"unknown format {cfg.format!r}")
        if cfg.edges:
            emit(f"{cfg.alg}-edges.csv", formats.edges_csv(result.trace))
        emit(f"{cfg.alg}-config.txt", cfg.to_text())
    halt = _HALT_TEXT.get(result.halt, result.halt)
    print(
        f"{cfg.alg}: {result.steps} steps, halted: {halt}, t={result.config.time}"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_render(args) -> int:
    with open(args.snapshot, encoding="utf-8") as fh:
        cfg, _meta = formats.snapshot_parse(fh.read())
    out = _out_dir(args.out)
    os.makedirs(out, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.snapshot))[0]
    if args.format == "text":
        path = args.output or os.path.join(out, f"{stem}.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(formats.render_text(cfg))
    else:
        payload = formats.pgm_bytes(cfg.grid(), tile2=args.tile2)
        path = args.output or os.path.join(out, f"{stem}.pgm")
        with open(path, "wb") as fh:
            fh.write(payload)
    print(f"wrote {path}")
    return 0


def cmd_arch(args) -> int:
    if args.alg is not None and args.alg not in CATALOG:
        print(f"error: unknown algorithm {args.alg!r}", file=sys.stderr)
        return 1
    p = args.dpa if args.dpa else 1
    spec = None
    if args.alg is not None:
        overrides = RunConfig(alg=args.alg, n=args.n)
        spec, _ = _build_spec(overrides)
        n = spec.topology.n
        k = max(args.k, spec.ruleset.arms) if args.k else max(1, spec.ruleset.arms)
    else:
        n = args.n if args.n is not None else 8
        k = args.k or 1
    params = ArchParams(n=n, k=k, p=min(p, n), delta=args.delta)
    if args.capacity:
        print(capacity_table(params), end="")
        return 0
    if spec is not None:
        generations = spec.expected_steps
        final, cycles = run_on_arch(spec, params, generations)
        engine = execute(spec, Steps(generations))
        same = final.states == engine.config.states
        label = f"dpa({params.p})" if params.p > 1 else "seq"
        print(f"{args.alg} n={n} on {label}: {generations} generations")
        print(f"engine-equal: {'yes' if same else 'NO'}")
        if not same:
            return 3
        G = generations
    else:
        G = args.generations
    sim = dpa_simulate if params.p > 1 else seq_pipeline_simulate
    sched = sim(params, G)
    slots = sched.slots
    print(f"{slots + 3} cycles/generation (fill latency included)")
    print(f"total: {sched.total_cycles} cycles = {sched.summary()}")
    out = _out_dir(args.out)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "arch-schedule.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(schedule_csv(sched))
    print(f"wrote {path}")
    print(capacity_table(params), end="")
    return 0


def cmd_verify(args) -> int:
    if args.name == "all":
        names = catalog_names()
    elif args.name in CATALOG:
        names = [args.name]
    else:
        print(
            f"error: unknown algorithm {args.name!r}; choose from "
            f"'all' or {', '.join(catalog_names())}",
            file=sys.stderr,
        )
        return 1
    failures = 0
    width = max(len(n) for n in names)
    for name in names:
        spec = default_instance(name)
        result = execute(spec, record_states=True)
        err = spec.verify(spec, result) if spec.verify else None
        if err is None:
            print(f"{name:<{width}}  pass")
        else:
            failures += 1
            print(f"{name:<{width}}  FAIL  {err}")
    if len(names) > 1:
        print(f"{len(names) - failures}/{len(names)} pass")
    return 3 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gca",
        description="global cellular automata: run, render, verify, simulate hardware",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a cataloged algorithm")
    run_p.add_argument("--alg", help="algorithm name (see `gca verify all`)")
    run_p.add_argument("--n", type=int, help="cell count / grid side")
    run_p.add_argument("--w", type=int, help="grid width (square grids only)")
    run_p.add_argument("--h", type=int, help="grid height (square grids only)")
    run_p.add_argument("--variant", help="algorithm variant override")
    run_p.add_argument("--mode", help="sync | async:order[:seed]")
    run_p.add_argument("--steps", type=int, help="generations to run")
    run_p.add_argument("--stop", choices=["fixed-point"], help="halt condition")
    run_p.add_argument(
        "--format", choices=["text", "pgm", "csv", "none"], help="artifact format"
    )
    run_p.add_argument("--seed", type=int, help="seed for any randomness")
    run_p.add_argument(
        "--pointers", action="store_true", default=None,
        help="also write per-arm pointer evolutions",
    )
    run_p.add_argument(
        "--edges", action="store_true", default=None,
        help="also write the realized access edges as CSV",
    )
    run_p.add_argument("--out", help=f"output directory (or ${OUT_DIR_ENV})")
    run_p.add_argument("--config", help="key=value config file; flags win")

    render_p = sub.add_parser("render", help="render a snapshot file")
    render_p.add_argument("snapshot", help="snapshot file (from --format text runs)")
    render_p.add_argument("--format", choices=["text", "pgm"], default="text")
    render_p.add_argument(
        "--tile2", action="store_true", help="tile the pattern 2x2 (doubled size)"
    )
    render_p.add_argument("-o", "--output", help="output file path")
    render_p.add_argument("--out", help="output directory")

    arch_p = sub.add_parser("arch", help="cycle/capacity models")
    group = arch_p.add_mutually_exclusive_group()
    group.add_argument("--seq", action="store_true", help="sequential pipeline")
    group.add_argument("--dpa", type=int, metavar="P", help="data-parallel, P lanes")
    arch_p.add_argument("--n", type=int, help="cell count")
    arch_p.add_argument("--k", type=int, help="pointers per cell")
    arch_p.add_argument("--delta", type=int, default=8, help="data bits per cell")
    arch_p.add_argument("--generations", type=int, default=1)
    arch_p.add_argument("--alg", help="workload from the catalog")
    arch_p.add_argument("--capacity", action="store_true", help="capacity table only")
    arch_p.add_argument("--out", help="output directory for the schedule CSV")

    verify_p = sub.add_parser("verify", help="run built-in checks")
    verify_p.add_argument("name", help="algorithm name or 'all'")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "run":
            cfg = RunConfig()
            if args.config:
                try:
                    with open(args.config, encoding="utf-8") as fh:
                        cfg = RunConfig.from_text(fh.read())
                except (OSError, ValueError) as exc:
                    print(f"error: bad config file: {exc}", file=sys.stderr)
                    return 1
            for name in (
                "alg", "n", "w", "h", "variant", "mode", "steps", "stop",
                "format", "seed", "pointers", "edges", "out",
            ):
                value = getattr(args, name)
                if value is not None:
                    setattr(cfg, name, value)
            return cmd_run(cfg)
        if args.command == "render":
            return cmd_render(args)
        if args.command == "arch":
            return cmd_arch(args)
        return cmd_verify(args)
    except (PreconditionError, GcaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
