"""Command-line front end: run cataloged algorithms, render snapshots,
drive the architecture models, and replay verification checks.

Exit codes: 0 success, 1 usage error, 2 precondition violation,
3 verification failure.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import dataclass, fields

from .algorithms import (
    CATALOG,
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

STOP_CHOICES = ("fixed-point",)
FORMAT_CHOICES = ("text", "pgm", "csv", "none")


class _UsageError(Exception):
    """A usage error: ``main`` prints it and exits with code 1."""


@dataclass
class RunConfig:
    """Everything a `run` invocation depends on; the textual key=value
    form round-trips losslessly so runs can be replayed from a file.
    """

    alg: str | None = None
    n: int | None = None
    variant: str | None = None
    mode: str = "sync"
    steps: int | None = None
    stop: str | None = None
    format: str = "text"
    seed: int | None = None
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
        """Parse each value as its `gca run` flag would be; a blank value
        keeps the key's default."""
        parser = _run_arguments(argparse.ArgumentParser(exit_on_error=False))
        known = {f.name: f.default for f in fields(cls)}
        seen = argparse.Namespace()
        for ln, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or key not in known:
                raise ValueError(f"line {ln}: not a config entry: {line!r}")
            setattr(seen, key, None)  # a later line wins; None keeps the default
            if isinstance(known[key], bool):
                if value not in ("true", "false"):
                    raise ValueError(f"line {ln}: {key} must be true or false")
                args = [f"--{key}"] if value == "true" else []
            else:
                args = [f"--{key}={value}"] if value else []
            try:
                parser.parse_args(args, seen)
            except argparse.ArgumentError as exc:
                raise ValueError(f"line {ln}: {exc}") from None
        return cls(**{k: v for k, v in vars(seen).items() if k in known and v is not None})


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
        try:
            seed = int(parts[2]) if len(parts) == 3 else cfg.seed
        except ValueError:
            raise PreconditionError(f"update mode {cfg.mode!r}: the seed is not an integer") from None
        if order != "random":
            if len(parts) == 3:
                raise PreconditionError(
                    f"update mode {cfg.mode!r}: only async:random takes a seed"
                )
            seed = None  # --seed still reaches an entry that takes one
        elif seed is None:
            raise PreconditionError(
                "async:random updating requires --seed for reproducibility"
            )
        return "async", order, seed
    raise PreconditionError(
        f"update mode {cfg.mode!r} is not sync | async:order[:seed]"
    )


def _build_spec(cfg: RunConfig) -> AlgorithmSpec:
    """Instantiate the algorithm with the options it takes; every other
    parameter keeps the entry's default.  --seed reaches only an entry that
    takes a seed (it still seeds an async:random schedule), and --steps is
    the run's stop rule, never an entry's own parameter.
    """
    builder = CATALOG[cfg.alg]
    params = inspect.signature(builder).parameters
    kwargs = {}
    if cfg.n is not None:
        if "n" not in params:
            raise PreconditionError(f"algorithm {cfg.alg!r} does not accept n")
        kwargs["n"] = cfg.n
    if cfg.variant is not None:
        if "pointer_variant" not in params:
            raise PreconditionError(f"algorithm {cfg.alg!r} has no variants")
        kwargs["pointer_variant"] = cfg.variant
    if cfg.seed is not None and "seed" in params:
        kwargs["seed"] = cfg.seed
    return builder(**kwargs)


def _check_name(name: str, *also: str) -> None:
    """A usage error unless ``name`` is a catalog entry's or one of ``also``."""
    if name not in CATALOG and name not in also:
        choices = ", ".join([*also, *catalog_names()])
        raise _UsageError(f"unknown algorithm {name!r}; choose from {choices}")


def _write(path: str, payload: str | bytes) -> None:
    """Write one artifact, making its directory, and say so on stdout."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(payload.encode("utf-8") if isinstance(payload, str) else payload)
    print(f"wrote {path}")


def cmd_run(cfg: RunConfig) -> int:
    if cfg.alg is None:
        raise _UsageError("--alg is required")
    _check_name(cfg.alg)
    if cfg.steps is not None and cfg.steps < 0:
        raise _UsageError(f"--steps must be >= 0, got {cfg.steps}")
    if cfg.steps is not None and cfg.stop is not None:
        raise _UsageError("--stop and --steps are mutually exclusive")
    mode, order, seed = _parse_mode(cfg)
    spec = _build_spec(cfg)
    if cfg.pointers and not spec.topology.is_2d and spec.ruleset.variant == "plain":
        raise PreconditionError(f"{cfg.alg}: its cells store no pointers to write")
    if cfg.stop == "fixed-point":
        stop = FixedPoint()
    else:
        stop = None if cfg.steps is None else Steps(cfg.steps)
    result = execute(
        spec,
        stop,
        mode=mode,
        order=order,
        seed=seed,
        record_states=cfg.format != "none",
        record_edges=cfg.edges,
    )
    halt = result.halt.replace("-", " ")
    print(
        f"{cfg.alg}: {result.steps} steps, halted: {halt}, t={result.config.time}"
    )
    if cfg.format == "none" and not cfg.edges:
        return 0
    base = os.path.join(_out_dir(cfg.out), cfg.alg)
    snaps = result.trace.snapshots
    if cfg.format == "text":
        if not spec.topology.is_2d and formats._binary(q.data for c in snaps for q in c.states):
            rows = formats.render_rows(snaps, spec.annotate)
            _write(f"{base}.txt", "\n".join(rows) + "\n")
        else:
            blocks = [f"t={c.time}\n{formats.render_text(c)}" for c in snaps]
            _write(f"{base}.txt", "\n".join(blocks))
        if cfg.pointers and not spec.topology.is_2d:
            for arm in range(spec.ruleset.arms):
                rows = formats.render_pointer_rows(snaps, arm)
                _write(f"{base}-p{arm + 1}.txt", "\n".join(rows) + "\n")
    elif cfg.format == "csv":
        _write(f"{base}.csv", formats.trace_csv(result.trace))
    elif cfg.format == "pgm":
        for c in snaps:
            _write(f"{base}-t{c.time:04d}.pgm", formats.pgm_bytes(c.grid()))
    if cfg.edges:
        _write(f"{base}-edges.csv", formats.edges_csv(result.trace))
    _write(f"{base}-config.txt", cfg.to_text())
    return 0


def cmd_render(args) -> int:
    with open(args.snapshot, encoding="utf-8") as fh:
        cfg, _meta = formats.snapshot_parse(fh.read())
    stem = os.path.splitext(os.path.basename(args.snapshot))[0]
    if args.format == "text":
        payload, ext = formats.render_text(cfg), "txt"
    else:
        payload, ext = formats.pgm_bytes(cfg.grid(), tile2=args.tile2), "pgm"
    _write(args.output or os.path.join(_out_dir(args.out), f"{stem}.{ext}"), payload)
    return 0


def cmd_arch(args) -> int:
    p = args.dpa if args.dpa is not None else 1
    spec = None
    if args.alg is not None:
        _check_name(args.alg)
        spec = _build_spec(RunConfig(alg=args.alg, n=args.n))
        n = spec.topology.n
        k = spec.ruleset.arms if args.k is None else max(args.k, spec.ruleset.arms)
    else:
        n = args.n if args.n is not None else 8
        k = args.k if args.k is not None else 1
    params = ArchParams(n=n, k=k, p=min(p, n), delta=args.delta)
    if args.capacity:
        print(capacity_table(params), end="")
        return 0
    G = args.generations
    if G is None:
        G = spec.expected_steps if spec is not None else 1
    if spec is not None:
        final, _ = run_on_arch(spec, params, G)
        same = final.states == execute(spec, Steps(G)).config.states
        label = f"dpa({params.p})" if params.p > 1 else "seq"
        print(f"{args.alg} n={n} on {label}: {G} generations")
        print(f"engine-equal: {'yes' if same else 'NO'}")
        if not same:
            return 3
    sim = dpa_simulate if params.p > 1 else seq_pipeline_simulate
    sched = sim(params, G)
    print(f"{sched.slots + 3} cycles/generation (fill latency included)")
    print(f"total: {sched.total_cycles} cycles = {sched.summary()}")
    _write(os.path.join(_out_dir(args.out), "arch-schedule.csv"), schedule_csv(sched))
    print(capacity_table(params), end="")
    return 0


def cmd_verify(args) -> int:
    _check_name(args.name, "all")
    names = catalog_names() if args.name == "all" else [args.name]
    failures = 0
    width = max(len(n) for n in names)
    for name in names:
        spec = default_instance(name)
        result = execute(spec, record_states=True)
        err = spec.verify(spec, result)
        if err is None:
            print(f"{name:<{width}}  pass")
        else:
            failures += 1
            print(f"{name:<{width}}  FAIL  {err}")
    if len(names) > 1:
        print(f"{len(names) - failures}/{len(names)} pass")
    return 3 if failures else 0


def _run_arguments(run_p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Add the `gca run` flags, which also parse a config file's values."""
    run_p.add_argument("--alg", help="algorithm name (see `gca verify all`)")
    run_p.add_argument("--n", type=int, help="cell count / grid side")
    run_p.add_argument("--variant", help="pointer variant (max only)")
    run_p.add_argument("--mode", help="sync | async:order[:seed]")
    run_p.add_argument("--steps", type=int, help="generations to run")
    run_p.add_argument("--stop", choices=STOP_CHOICES, help="halt condition")
    run_p.add_argument("--format", choices=FORMAT_CHOICES, help="artifact format")
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
    return run_p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gca",
        description="global cellular automata: run, render, verify, simulate hardware",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no prefix matching: the removed --h flag must not read as --help
    _run_arguments(sub.add_parser("run", help="run a cataloged algorithm", allow_abbrev=False))

    render_p = sub.add_parser("render", help="render a snapshot file")
    render_p.add_argument(
        "snapshot",
        help="a 'gca-trace v1' JSON snapshot, as gca.formats.snapshot_dump writes it",
    )
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
    arch_p.add_argument("--generations", type=int, help="default: the workload's, else 1")
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
                    raise _UsageError(f"bad config file: {exc}") from None
            for f in fields(RunConfig):
                value = getattr(args, f.name, None)
                if value is not None:
                    setattr(cfg, f.name, value)
            return cmd_run(cfg)
        if args.command == "render":
            return cmd_render(args)
        if args.command == "arch":
            return cmd_arch(args)
        return cmd_verify(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GcaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
