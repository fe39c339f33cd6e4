"""Cell-state model and stepping engine for automata with dynamic global links.

Every cell of a ring (or torus) holds a data value plus a small vector of
pointers ("arms") that may target any other cell.  One synchronous step
computes, for every cell, new data and new pointers from a read-only snapshot
of generation t and commits all results at once; a cell only ever writes its
own state, so there are no write conflicts by construction.

Three model variants differ only in how the effective target of an arm is
obtained:

* ``basic``   - the stored pointers are the effective addresses (they were
  computed one step earlier by the pointer rule),
* ``general`` - an address modifier turns the stored pointer bases into
  effective addresses at the start of the step, before any access,
* ``plain``   - the whole state is unstructured; a pointer function derives
  the effective addresses from ``(i, q)`` alone.

Addresses are either relative (offset from the reading cell, wrapped) or
absolute.  All wrapping uses mathematical modulus, so results always lie in
``[0, n)`` regardless of sign.  :func:`resolve` defines the target of one
address.

Every step runs one phase-1 loop (``_phase1``) for all variants, synchronous
steps, asynchronous sweeps and :func:`gather_neighbors` alike.  At the start
of a step it picks an *access plan* from the topology's dimensions, the
addressing and the arm count: a ``gather(i, eff)`` that returns the states at
cell i's effective addresses, and records the access edges when asked to.
The common relative shapes (2-D with four arms, 1-D with two) are unrolled,
the 1-D one-arm case is inlined in the loop, and every other shape resolves
its arm vector with the loop form of :func:`resolve`.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Literal, NamedTuple, Sequence

__all__ = [
    "Address",
    "CellState",
    "Configuration",
    "FixedPoint",
    "GcaError",
    "Predicate",
    "PreconditionError",
    "RuleContext",
    "RuleEvaluationError",
    "RuleSet",
    "RunResult",
    "StepLimitError",
    "Steps",
    "Topology",
    "Trace",
    "apply_events",
    "default_step_limit",
    "gather_neighbors",
    "make_configuration",
    "normalize_relative",
    "relative_window",
    "resolve",
    "run",
    "step_async",
    "step_sync",
]


class GcaError(Exception):
    """Base class for engine errors."""


class PreconditionError(GcaError, ValueError):
    """An operation was invoked with arguments outside its contract."""


class RuleEvaluationError(GcaError):
    """A data or pointer rule raised; reports the offending cell and time."""

    def __init__(self, cell: int, time: int, cause: BaseException):
        super().__init__(f"rule evaluation failed at cell {cell}, t={time}: {cause!r}")
        self.cell = cell
        self.time = time


class StepLimitError(GcaError):
    """An open-ended run exceeded its step budget without halting."""

    def __init__(self, limit: int, time: int):
        super().__init__(
            f"no halt after {limit} committed steps (t={time}); "
            "raise step_limit if the run is expected to be this long"
        )
        self.limit = limit
        self.time = time


# ---------------------------------------------------------------------------
# addresses and topology

Kind = Literal["relative", "absolute"]


class Address(NamedTuple):
    """A cell address: ``kind`` is ``'relative'`` or ``'absolute'``.

    ``value`` is an int on a ring and an ``(x, y)`` pair on a torus.
    """

    kind: str
    value: Any


def relative_window(n: int) -> range:
    """Canonical signed offset window for a ring of n cells.

    Even n gives ``-n/2 .. n/2-1``, odd n gives ``-(n-1)/2 .. (n-1)/2``.
    """
    if n < 1:
        raise PreconditionError(f"ring size must be positive, got {n}")
    half = (n - 1) // 2
    return range(half - n + 1, half + 1)


def normalize_relative(a: int, n: int) -> int:
    """Map an arbitrary signed offset into the canonical window for size n."""
    if n < 1:
        raise PreconditionError(f"ring size must be positive, got {n}")
    r = a % n
    if r > (n - 1) // 2:
        r -= n
    return r


@dataclass(frozen=True)
class Topology:
    """Cyclic cell arrangement: a ring ``(n,)`` or a torus ``(w, h)``.

    Torus cells are numbered row-major: index = y*w + x, so each axis wraps
    independently and the linear index wraps only through the axes.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.dims) not in (1, 2) or any(d < 1 for d in self.dims):
            raise PreconditionError(f"bad topology dims {self.dims}")

    @staticmethod
    def ring(n: int) -> "Topology":
        return Topology((n,))

    @staticmethod
    def torus(w: int, h: int) -> "Topology":
        return Topology((w, h))

    @property
    def n(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    @property
    def is_2d(self) -> bool:
        return len(self.dims) == 2

    @property
    def width(self) -> int:
        return self.dims[0]

    @property
    def height(self) -> int:
        return self.dims[1] if self.is_2d else 1

    def coords(self, i: int) -> tuple[int, int]:
        w = self.dims[0]
        return i % w, i // w

    def index(self, x: int, y: int = 0) -> int:
        w = self.dims[0]
        h = self.height
        return (y % h) * w + (x % w)


def resolve(topology: Topology, i: int, addr: Address) -> int:
    """Absolute index of the cell reached from cell i via ``addr``.

    Wrapping is per axis on a torus; the result is always in ``[0, n)``.
    """
    kind, value = addr
    if kind == "absolute":
        if topology.is_2d:
            return topology.index(value[0], value[1])
        return value % topology.n
    if kind != "relative":
        raise PreconditionError(f"unknown address kind {kind!r}")
    if topology.is_2d:
        x, y = topology.coords(i)
        return topology.index(x + value[0], y + value[1])
    return (i + value) % topology.n


# ---------------------------------------------------------------------------
# cell state and configuration

class CellState(NamedTuple):
    """State of one cell: a data value and a tuple of stored pointers.

    Plain-model cells keep their whole (unstructured) state in ``data`` and
    carry an empty pointer tuple.
    """

    data: Any
    pointers: tuple = ()


@dataclass
class Configuration:
    """A full generation: every cell state plus the generation counter."""

    states: list[CellState]
    topology: Topology
    time: int = 0

    def __post_init__(self) -> None:
        if len(self.states) != self.topology.n:
            raise PreconditionError(
                f"{len(self.states)} states for {self.topology.n} cells"
            )

    @property
    def n(self) -> int:
        return self.topology.n

    def data(self) -> list:
        return [q.data for q in self.states]

    def pointers(self, arm: int = 0) -> list:
        return [q.pointers[arm] for q in self.states]

    def grid(self) -> list[list]:
        """Data values as rows (2D topologies only)."""
        w, h = self.topology.width, self.topology.height
        d = self.data()
        return [d[y * w : (y + 1) * w] for y in range(h)]

    def copy(self) -> "Configuration":
        return Configuration(list(self.states), self.topology, self.time)


def make_configuration(
    data: Sequence, pointers: Sequence[tuple] | tuple | None, topology: Topology
) -> Configuration:
    """Build a generation-0 configuration from parallel data/pointer vectors.

    ``pointers`` may be one tuple (same for every cell), a per-cell sequence,
    or None for plain-model states.
    """
    n = topology.n
    if pointers is None:
        states = [CellState(d, ()) for d in data]
    elif isinstance(pointers, tuple):
        states = [CellState(d, pointers) for d in data]
    else:
        if len(pointers) != n:
            raise PreconditionError("pointer vector length mismatch")
        states = [CellState(d, tuple(p)) for d, p in zip(data, pointers)]
    return Configuration(states, topology)


# ---------------------------------------------------------------------------
# rules

class RuleContext:
    """Per-cell view handed to rules; one instance is reused across cells.

    Fields: ``i`` own index, ``cell`` own state, ``neighbors`` gathered arm
    states (generation-t values), ``t`` current generation, ``w`` static
    stencil states, ``params`` the rule set's parameter block.
    """

    __slots__ = ("i", "cell", "neighbors", "t", "w", "params")

    def __init__(self) -> None:
        self.i = 0
        self.cell: CellState | None = None
        self.neighbors: tuple = ()
        self.t = 0
        self.w: tuple = ()
        self.params: Any = None


@dataclass(frozen=True)
class RuleSet:
    """Local program of an automaton.

    ``data_rule`` maps a :class:`RuleContext` to the new data value (for the
    plain variant: to the whole new state).  ``pointer_rule`` returns the new
    stored pointer tuple; the general variant additionally carries an
    ``address_modifier`` that turns stored bases into effective addresses at
    the start of a step (called with ``ctx.neighbors`` unset), and the plain
    variant replaces both with ``pointer_function(i, q)``.

    ``addressing`` applies to all arms; ``stencil`` lists static relative
    offsets whose generation-t states are provided as ``ctx.w``.
    """

    variant: str
    arms: int
    data_rule: Callable[[RuleContext], Any]
    pointer_rule: Callable[[RuleContext], tuple] | None = None
    address_modifier: Callable[[RuleContext], tuple] | None = None
    pointer_function: Callable[[int, CellState], tuple] | None = None
    addressing: str = "relative"
    stencil: tuple = ()
    params: Any = None

    def __post_init__(self) -> None:
        if self.variant not in ("basic", "general", "plain"):
            raise PreconditionError(f"unknown variant {self.variant!r}")
        if self.arms < 1:
            raise PreconditionError(f"need at least one arm, got {self.arms}")
        if self.addressing not in ("relative", "absolute"):
            raise PreconditionError(f"unknown addressing {self.addressing!r}")
        if self.variant == "plain" and self.pointer_function is None:
            raise PreconditionError("plain variant needs a pointer_function")
        if self.variant == "general" and self.address_modifier is None:
            raise PreconditionError("general variant needs an address_modifier")
        if self.variant != "plain" and self.pointer_rule is None:
            raise PreconditionError(f"{self.variant} variant needs a pointer_rule")


# ---------------------------------------------------------------------------
# access plan and phase 1

def _targets(topology: Topology, addressing: str) -> Callable[[int, Sequence], list]:
    """``targets(i, eff)``: the cells reached from cell i through the effective
    addresses ``eff``, in arm order - :func:`resolve` for a whole arm vector."""
    n = topology.n
    if topology.is_2d:
        w, h = topology.dims
        if addressing == "relative":
            def targets(i, eff):
                x = i % w
                y = i // w
                return [((y + dy) % h) * w + (x + dx) % w for dx, dy in eff]
        else:
            def targets(i, eff):
                return [(ay % h) * w + ax % w for ax, ay in eff]
    elif addressing == "relative":
        def targets(i, eff):
            return [(i + a) % n for a in eff]
    else:
        def targets(i, eff):
            return [a % n for a in eff]
    return targets


def _access_plan(
    topology: Topology, addressing: str, arms: int, states: list, edge_sink: list | None
) -> Callable[[int, Sequence], tuple] | None:
    """``gather(i, eff)``: the states of ``states`` at cell i's effective
    addresses ``eff``, in arm order; with an ``edge_sink`` it also appends the
    ``(i, target)`` access edges.  It raises ValueError unless ``eff`` holds
    one address per arm.

    The common relative shapes are unrolled; their unpacking is the arity
    check.  None stands for the 1-D relative one-arm case without edges,
    which the phase-1 loop inlines.
    """
    relative = addressing == "relative"
    n = topology.n
    if relative and topology.is_2d and arms == 4:
        w, h = topology.dims

        def gather(i, eff):
            x = i % w
            y = i // w
            (ax, ay), (bx, by), (cx, cy), (dx, dy) = eff
            a = ((y + ay) % h) * w + (x + ax) % w
            b = ((y + by) % h) * w + (x + bx) % w
            c = ((y + cy) % h) * w + (x + cx) % w
            d = ((y + dy) % h) * w + (x + dx) % w
            if edge_sink is not None:
                edge_sink.extend(((i, a), (i, b), (i, c), (i, d)))
            return (states[a], states[b], states[c], states[d])

        return gather
    if relative and not topology.is_2d and arms == 2:
        def gather(i, eff):
            a, b = eff
            a = (i + a) % n
            b = (i + b) % n
            if edge_sink is not None:
                edge_sink.extend(((i, a), (i, b)))
            return (states[a], states[b])

        return gather
    if relative and not topology.is_2d and arms == 1 and edge_sink is None:
        return None
    targets = _targets(topology, addressing)

    def gather(i, eff):
        if len(eff) != arms:
            raise ValueError(f"{len(eff)} effective addresses for {arms} arm(s)")
        found = targets(i, eff)
        if edge_sink is not None:
            edge_sink.extend([(i, j) for j in found])
        return tuple([states[j] for j in found])

    return gather


def _no_pointers(ctx: RuleContext) -> tuple:
    """Pointer rule of the plain variant, whose cells store no pointers."""
    return ()


def _with_stencil(
    data_rule: Callable[[RuleContext], Any], topology: Topology, states: list, stencil: tuple
) -> Callable[[RuleContext], Any]:
    """``data_rule`` preceded by setting ``ctx.w`` to the stencil's states;
    both rules read ``ctx.w``, and the data rule runs first."""
    targets = _targets(topology, "relative")

    def rule(ctx):
        ctx.w = tuple([states[j] for j in targets(ctx.i, stencil)])
        return data_rule(ctx)

    return rule


def _phase1(
    ruleset: RuleSet,
    topology: Topology,
    t: int,
    states: list,
    out,
    order: Iterable[int],
    edge_sink: list | None = None,
) -> None:
    """Evaluate the rules of the cells in ``order`` at generation t, reading
    ``states`` and storing cell i's new state in ``out[i]``.

    A synchronous step writes to a fresh list; an asynchronous sweep passes
    one list as both, so each cell reads the cells updated before it.  Any
    rule failure surfaces as :class:`RuleEvaluationError` naming the cell
    and t; the cells evaluated so far are in ``out`` only.
    """
    n = topology.n
    basic = ruleset.variant == "basic"
    plain = ruleset.variant == "plain"
    f = ruleset.data_rule
    g = _no_pointers if plain else ruleset.pointer_rule
    modifier = ruleset.address_modifier
    pf = ruleset.pointer_function
    arms = ruleset.arms
    gather = _access_plan(topology, ruleset.addressing, arms, states, edge_sink)
    stencil = ruleset.stencil
    if stencil:
        f = _with_stencil(f, topology, states, stencil)
    ctx = RuleContext()
    ctx.t = t
    ctx.params = ruleset.params
    tnew = tuple.__new__  # skips the namedtuple constructor wrapper
    cs = CellState
    i = -1
    try:
        for i in order:
            q = states[i]
            ctx.i = i
            ctx.cell = q
            if basic:
                eff = q[1]  # .pointers without the descriptor hop
            elif plain:
                eff = pf(i, q)
            else:
                ctx.neighbors = ()
                eff = modifier(ctx)
            if gather is None:
                (a,) = eff  # unpacking checks the arity
                ctx.neighbors = (states[(i + a) % n],)
            else:
                ctx.neighbors = gather(i, eff)
            out[i] = tnew(cs, (f(ctx), g(ctx)))
    except GcaError:
        raise
    except Exception as exc:
        raise RuleEvaluationError(i, t, exc) from exc


def gather_neighbors(
    cfg: Configuration, i: int, ruleset: RuleSet
) -> tuple[tuple, list[int]]:
    """Arm states and resolved target indices of cell i at the current time.

    Returns ``(states, targets)`` where both follow arm order: phase 1 of the
    one cell, with rules that only look.
    """
    seen: list = []
    edges: list = []
    probe = replace(
        ruleset,
        data_rule=lambda ctx: seen.append(ctx.neighbors),
        pointer_rule=lambda ctx: (),
        stencil=(),
    )
    _phase1(probe, cfg.topology, cfg.time, cfg.states, {}, (i,), edges)
    return seen[0], [j for _, j in edges]


# ---------------------------------------------------------------------------
# stepping

def step_sync(
    cfg: Configuration,
    ruleset: RuleSet,
    *,
    edge_sink: list | None = None,
    phase1_order: Sequence[int] | None = None,
    on_commit: Callable[[int, CellState], None] | None = None,
) -> Configuration:
    """One synchronous step: compute every cell from the generation-t snapshot,
    then commit all results as generation t+1.

    ``edge_sink`` collects ``(reader, target)`` access edges for this step.
    ``phase1_order`` evaluates phase 1 in the given index permutation (the
    committed result is order independent); ``on_commit`` is a diagnostics
    hook invoked once per cell at commit time with the owner index.  A rule
    failure commits nothing.
    """
    n = cfg.n
    new_states: list = [None] * n
    order = range(n) if phase1_order is None else phase1_order
    _phase1(ruleset, cfg.topology, cfg.time, cfg.states, new_states, order, edge_sink)
    if on_commit is not None:
        for i in range(n):
            on_commit(i, new_states[i])
    return Configuration(new_states, cfg.topology, cfg.time + 1)


def step_async(
    cfg: Configuration,
    ruleset: RuleSet,
    *,
    order: str = "ascending",
    seed: int | _random.Random | None = None,
) -> Configuration:
    """One asynchronous sweep: cells update one at a time, each reading the
    partially updated array, in ascending, descending or seeded-random order.

    For the random order, ``seed`` is either a seed (the sweep's order is
    then a function of it alone) or a ``random.Random`` to draw the order
    from, so that successive sweeps continue one stream.
    """
    n = cfg.n
    if order == "ascending":
        sequence: Iterable[int] = range(n)
    elif order == "descending":
        sequence = range(n - 1, -1, -1)
    elif order == "random":
        if seed is None:
            raise PreconditionError("async random order requires an explicit seed")
        rng = seed if isinstance(seed, _random.Random) else _random.Random(seed)
        sequence = list(range(n))
        rng.shuffle(sequence)
    else:
        raise PreconditionError(f"unknown async order {order!r}")
    work = cfg.copy()
    _phase1(ruleset, cfg.topology, cfg.time, work.states, work.states, sequence)
    work.time = cfg.time + 1
    return work


# ---------------------------------------------------------------------------
# runs

@dataclass(frozen=True)
class Steps:
    """Stop after exactly T committed steps."""

    count: int


@dataclass(frozen=True)
class FixedPoint:
    """Stop once a committed step changed nothing (sync mode only)."""


@dataclass(frozen=True)
class Predicate:
    """Stop once ``fn(configuration)`` is true (checked after each commit)."""

    fn: Callable[[Configuration], bool]


StopRule = Steps | FixedPoint | Predicate


def default_step_limit(n: int) -> int:
    """Budget guarding open-ended runs: generous for every shipped algorithm."""
    return 10 * n + 64


@dataclass
class Trace:
    """Recorded run history.

    ``snapshots`` holds configurations (including the initial one) when state
    recording is on; ``edges[t]`` lists the ``(reader, target)`` access edges
    of the step that turned generation t into t+1.
    """

    snapshots: list[Configuration] = field(default_factory=list)
    edges: list[list[tuple[int, int]]] = field(default_factory=list)


@dataclass
class RunResult:
    config: Configuration
    steps: int
    halt: str  # "steps" | "fixed-point" | "predicate"
    trace: Trace | None = None


def apply_events(cfg: Configuration, events: dict) -> None:
    """Apply the event scheduled for generation ``cfg.time``, if any, in place;
    ``events`` maps a generation to a mutator of the configuration."""
    fn = events.get(cfg.time)
    if fn is not None:
        fn(cfg)


def run(
    cfg: Configuration,
    ruleset: RuleSet,
    stop: StopRule,
    *,
    mode: str = "sync",
    order: str = "ascending",
    seed: int | None = None,
    record_states: bool = False,
    record_edges: bool = False,
    step_limit: int | None = None,
    events: Iterable[tuple[int, Callable[[Configuration], None]]] = (),
) -> RunResult:
    """Drive an automaton until its stop rule fires.

    ``events`` lists ``(time, mutator)`` pairs: external interventions applied
    by :func:`apply_events` to generation 0 and to each committed generation,
    before it is recorded or tested by the stop rule.  For the random async
    order, ``seed`` seeds one stream that every sweep draws its order from.
    Open-ended stop rules (fixed point, predicate) are guarded by
    ``step_limit`` (default ``10*n + 64``); exceeding it raises
    :class:`StepLimitError`.  The input configuration is not modified.
    """
    if mode not in ("sync", "async"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if isinstance(stop, FixedPoint) and mode != "sync":
        raise PreconditionError("fixed-point halting is defined for sync mode only")
    if record_edges and mode == "async":
        raise PreconditionError("access-edge recording is defined for sync mode only")

    schedule = dict(events)
    current = cfg
    if schedule:
        current = cfg.copy()
        apply_events(current, schedule)
    if order == "random" and seed is not None:
        seed = _random.Random(seed)
    trace = Trace() if (record_states or record_edges) else None
    if trace is not None and record_states:
        trace.snapshots.append(current.copy())

    open_ended = not isinstance(stop, Steps)
    limit = step_limit if step_limit is not None else default_step_limit(cfg.n)
    steps = 0
    while True:
        if isinstance(stop, Steps) and steps >= stop.count:
            return RunResult(current, steps, "steps", trace)
        if isinstance(stop, Predicate) and stop.fn(current):
            return RunResult(current, steps, "predicate", trace)
        if open_ended and steps >= limit:
            raise StepLimitError(limit, current.time)
        edge_sink = [] if record_edges else None
        if mode == "sync":
            nxt = step_sync(current, ruleset, edge_sink=edge_sink)
        else:
            nxt = step_async(current, ruleset, order=order, seed=seed)
        steps += 1
        if schedule:
            apply_events(nxt, schedule)
        if trace is not None:
            if record_edges:
                trace.edges.append(edge_sink)
            if record_states:
                trace.snapshots.append(nxt.copy())
        if isinstance(stop, FixedPoint) and nxt.states == current.states:
            return RunResult(nxt, steps, "fixed-point", trace)
        current = nxt
