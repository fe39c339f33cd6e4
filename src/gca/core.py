"""Cell-state model and stepping engine for automata with dynamic global links.

Every cell of a ring (or torus) holds a data value plus a small vector of
pointers ("arms") that may target any other cell.  One synchronous step
computes, for every cell, new data and new pointers from a read-only snapshot
of generation t and commits all results at once; a cell only ever writes its
own state, so there are no write conflicts by construction.  The states a step
allocates are acyclic and reference counting frees them, so :func:`run`
pauses the cyclic garbage collector while it steps.

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

Phase 1 (``_phase1``) evaluates the rules of every variant, for synchronous
steps and asynchronous sweeps alike.  Its per-cell loop picks an *access plan*
from the topology's dimensions, the addressing and the arm count: a
``gather(i, eff)`` that returns the states at cell i's effective addresses,
and records the access edges when asked to.  The common relative shapes (2-D
with four arms, 1-D with two) are unrolled, the 1-D one-arm case is inlined in
the loop, and every other shape resolves its arm vector with the loop form of
:func:`resolve`.

A synchronous step in ascending order with relative addressing and a
by-pointer pointer rule (a :class:`ByPointer`, or the plain variant's) reads
its generation as rotations of the state list where it can.  It first
resolves the generation's effective addresses, before any read: the stored
tuples (basic), one call of a :class:`ByPointer` modifier when every cell
holds one stored tuple object, or one call per cell of any other modifier,
up to the first cell whose addresses are a new object.  Above 64 cells the
other modifier then runs for every other cell too, and so does the plain
variant's pointer function.  Each distinct object among the addresses
(``is``) is an *address class*.  When every cell's addresses are one object,
each arm's neighbours are one rotation of the states (:func:`_rotations`): a
slice pair on a ring, a slice pair per row after a row rotation on a torus.
Above 64 cells, two to four classes that are tuples of one address per arm
(a checkerboard's two colours, say, or one tuple per datum) are read as one
set of rotations per class, and each cell's reads are picked from its own
class's set (:func:`_columns`).  All reads then come before any rule runs,
and the rules run over the cells in ascending order, the data rule before
the pointer rule at every cell.  Access edges come from the same rotations
of the cell indices, paired with their readers by C-level iterators in the
per-cell order; with several classes, the reads are then the states at
those targets.  Otherwise the per-cell loop runs, reusing the addresses
resolved so far, so no rule is called twice; it also takes over at the
first cell that does not hold cell 0's stored tuple when the addresses came
from that tuple.

Failures name the same cell, t, state and reads as the per-cell loop,
except that a failure of an address rule run ahead of the reads at a later
cell can be reported ahead of an earlier cell's data-rule failure: at 64
cells or fewer only while every address so far is one object, above 64
cells at any cell.  Any other pointer rule, asynchronous sweeps,
``phase1_order`` and absolute addressing always use the per-cell loop, which
resolves, reads and runs the rules of one cell before the next.

A whole synchronous generation of more than 64 cells with a by-pointer
pointer rule (``step_sync`` without ``phase1_order``; the plain variant's
rule counts) is stored in one pass after its last rule ran, whichever loop
evaluated its cells, so a failing generation stores nothing.  When the
pointer rule ran once, so every cell got one tuple object, and the first 16
new data hold at most two objects, the cells holding the first datum share
one state, and so do those holding the first other object (:func:`_states`,
by ``is``); every other cell gets a state of its own.  When it ran more than
once, each cell's new pointers are asked of it again, a hit in its memo.
Every other pointer rule, asynchronous sweeps, whose later cells read the
earlier ones, ``phase1_order`` steps and generations of at most 64 cells
store cell by cell.

:class:`ByPointer` is the one rule type whose result phase 1 may reuse.  It
wraps ``make(p)`` for a result (new pointers or effective addresses) that
depends on the first stored pointer ``p = ctx.cell[1][0]`` alone, never on an
RNG, the cell, the neighbours or t, and memoises it by ``p``.  So when a cell
holds the very pointer tuple object of the previous cell that phase 1 called
the pointer rule for (``is``, not ``==``), phase 1 skips the pointer-rule call
and reuses that result.  The data rule still runs for every cell first, so a
failure names the same cell.  A :class:`ByPointer` address modifier is called
once for a whole generation on the rotation path, and once per cell otherwise.
"""

from __future__ import annotations

import gc
import random as _random
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
from operator import add, is_, is_not, itemgetter
from typing import Any, Callable, Iterable, NamedTuple, Sequence

__all__ = [
    "Address",
    "ByPointer",
    "CellState",
    "Configuration",
    "FixedPoint",
    "GcaError",
    "PreconditionError",
    "RuleContext",
    "RuleEvaluationError",
    "RuleSet",
    "RunResult",
    "StepLimitError",
    "Steps",
    "Topology",
    "Trace",
    "default_step_limit",
    "make_configuration",
    "normalize_relative",
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
    """A rule raised at ``cell`` in generation ``time``.

    ``state`` is the cell's generation-t state, ``read`` the states it had
    gathered (``()`` when the failure came before the reads) and
    ``algorithm`` the catalog entry's name when :func:`gca.algorithms.execute`
    or :func:`gca.archsim.run_on_arch` ran it.
    """

    def __init__(
        self, cell: int, time: int, cause: BaseException, state: Any = None, read: tuple = ()
    ):
        super().__init__(cell, time, cause, state, read)
        self.cell = cell
        self.time = time
        self.cause = cause
        self.state = state
        self.read = read
        self.algorithm: str | None = None

    def __str__(self) -> str:
        where = f"{self.algorithm}: " if self.algorithm else ""
        return (
            f"{where}rule evaluation failed at cell {self.cell}, t={self.time}: "
            f"{self.cause!r}; state {self.state!r}, read {self.read!r}"
        )


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

class Address(NamedTuple):
    """A cell address: ``kind`` is ``'relative'`` or ``'absolute'``.

    ``value`` is an int on a ring and an ``(x, y)`` pair on a torus.
    """

    kind: str
    value: Any


def normalize_relative(a: int, n: int) -> int:
    """Map an arbitrary signed offset into the canonical window for size n.

    Even n gives ``-n/2 .. n/2-1``, odd n gives ``-(n-1)/2 .. (n-1)/2``.
    """
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

    ``pointers`` may be one tuple (same for every cell; when ``data`` is a
    list, cells whose data are one object may then share a state), a
    per-cell sequence, or None for plain-model states.
    """
    if pointers is None or isinstance(pointers, tuple):
        return Configuration(_states(data, pointers or ()), topology)
    if len(pointers) != topology.n:
        raise PreconditionError("pointer vector length mismatch")
    data = list(data)  # zip would drop data beyond the n pointer tuples
    if len(data) != topology.n:
        raise PreconditionError(f"{len(data)} states for {topology.n} cells")
    return Configuration(_states(zip(data, map(tuple, pointers))), topology)


# ---------------------------------------------------------------------------
# rules

class RuleContext:
    """Per-cell view handed to rules; one instance is reused across cells.

    Fields: ``i`` own index, ``cell`` own state, ``neighbors`` gathered arm
    states (generation-t values), ``t`` current generation, ``params`` the
    rule set's parameter block.
    """

    __slots__ = ("i", "cell", "neighbors", "t", "params")

    def __init__(self) -> None:
        self.i = 0
        self.cell: CellState | None = None
        self.neighbors: tuple = ()
        self.t = 0
        self.params: Any = None


class ByPointer:
    """Rule ``ctx -> make(p)``, memoised by the first stored pointer ``p``;
    the module docstring states what ``make`` may depend on."""

    __slots__ = ("make", "memo")

    def __init__(self, make: Callable[[Any], tuple]):
        self.make = make
        self.memo: dict = {}

    def __call__(self, ctx: RuleContext) -> tuple:
        p = ctx.cell[1][0]
        r = self.memo.get(p)
        if r is None:
            r = self.memo[p] = self.make(p)
        return r


@dataclass(frozen=True)
class RuleSet:
    """Local program of an automaton.

    ``data_rule`` maps a :class:`RuleContext` to the new data value (for the
    plain variant: to the whole new state).  ``pointer_rule`` returns the new
    stored pointer tuple; the general variant additionally carries an
    ``address_modifier`` that turns stored bases into effective addresses at
    the start of a step (called with ``ctx.neighbors`` unset), and the plain
    variant replaces both with ``pointer_function(i, q)``.

    ``addressing`` applies to all arms.  A fixed local neighbour is an arm
    whose pointer never changes, so every read goes through the access plan.
    """

    variant: str
    arms: int
    data_rule: Callable[[RuleContext], Any]
    pointer_rule: Callable[[RuleContext], tuple] | None = None
    address_modifier: Callable[[RuleContext], tuple] | None = None
    pointer_function: Callable[[int, CellState], tuple] | None = None
    addressing: str = "relative"
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
    which the phase-1 loop inlines.  A generation of a synchronous step read
    through :func:`_rotations` needs no plan.
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


def _rotations(topology: Topology, eff: Sequence, seq: list) -> list[list]:
    """The arm vectors of a generation in which every cell has the relative
    effective addresses ``eff``: for each arm, the list whose i-th item is
    the item of ``seq`` at cell i's target.

    On a ring an arm is one rotation of ``seq``.  On a torus it is a rotation
    of the rows and, when the arm moves along x, of each row.
    """
    dims = topology.dims
    n = len(seq)
    if len(dims) == 1:
        return [seq[a % n :] + seq[: a % n] for a in eff]
    w, h = dims
    vectors = []
    for dx, dy in eff:
        sx = dx % w
        s = dy % h * w
        if not sx:
            vectors.append(seq[s:] + seq[:s])
            continue
        v: list = []
        for r in [*range(s, n, w), *range(0, s, w)]:
            v += seq[r + sx : r + w]
            v += seq[r : r + sx]
        vectors.append(v)
    return vectors


# Above _SHARE_FROM cells, phase 1 reads a generation whose cells' addresses are
# 2 to _CLASSES objects as one set of rotations per object (the catalog's
# checkerboard and state-dependent entries have two).
_CLASSES = 4


def _address_classes(effs: list, arms: int) -> tuple[list | None, list | None]:
    """``(classes, offs)`` of a generation whose cells have the effective
    addresses ``effs``, two objects or more: its distinct objects (``is``) in
    order of first use, and each cell's position in the concatenation of one
    list of n items per class (``k * n + i`` for cell i of class k).  Both
    are None unless there are at most _CLASSES, each a tuple of ``arms``
    addresses."""
    ids = [*map(id, effs)]
    first = dict.fromkeys(ids)
    if len(first) > _CLASSES:
        return None, None
    classes = [effs[ids.index(k)] for k in first]
    if any(type(c) is not tuple or len(c) != arms for c in classes):
        return None, None
    n = len(effs)
    base = dict(zip(first, range(0, n * len(first), n)))
    return classes, [*map(add, map(base.__getitem__, ids), range(n))]


def _columns(topology: Topology, classes: list, offs: list, seq: list) -> list:
    """Per arm, the tuple whose i-th item is the item of ``seq`` at cell i's
    target, picked by ``offs`` (see :func:`_address_classes`) from the
    :func:`_rotations` of each address class."""
    pick = itemgetter(*offs)  # over 64 offsets, so it returns a tuple
    vectors = zip(*[_rotations(topology, c, seq) for c in classes])
    return [pick([*chain.from_iterable(arm)]) for arm in vectors]


_UNSET = object()


# Phase 1 stores a whole synchronous generation of over _SHARE_FROM cells in one
# pass.  Over _SHARE_FROM cells with one pointer tuple, share states if the first
# _SAMPLE data hold at most _FEW objects, picked per cell by ``is``.  2-CPU Xeon,
# 4096 random 0s and 1s: 100-103 ns per cell for one state each, 29 for the pick
# (an id() map took 129-132); 38 for one object, found by the scan.  16 and 2 share
# no fold-1d generation of over n/8 objects (8 and 4 shared 92, peak RSS +1%).
_SHARE_FROM, _SAMPLE, _FEW = 64, 16, 2


def _states(data: Iterable, pointers: Any = _UNSET) -> list:
    """States of ``data`` with the one tuple ``pointers``, or of the pairs in
    ``data``.  In a list of over _SHARE_FROM data whose sample holds at most two
    objects, the cells whose data are one of those two share one state (``is``);
    any other datum gets a state of its own."""
    new = tuple.__new__  # no namedtuple wrapper
    if pointers is not _UNSET:
        # only a list is sampled and scanned; the slice keeps the ids' objects alive
        listed = type(data) is list and len(data) > _SHARE_FROM
        if listed and len(set(map(id, data[:_SAMPLE]))) <= _FEW:
            a = data[0]
            b = next(filter(partial(is_not, a), data), _UNSET)  # C-level scan
            sa, sb = new(CellState, (a, pointers)), new(CellState, (b, pointers))
            return [sa if d is a else sb if d is b else new(CellState, (d, pointers)) for d in data]
        data = zip(data, repeat(pointers))
    return list(map(new, repeat(CellState), data))


def _no_pointers(ctx: RuleContext) -> tuple:
    """Pointer rule of the plain variant, whose cells store no pointers."""
    return ()


def _phase1(
    ruleset: RuleSet,
    topology: Topology,
    t: int,
    states: list,
    out,
    order: Iterable[int] | None,
    edge_sink: list | None = None,
) -> None:
    """Evaluate the rules of the cells in ``order`` at generation t, reading
    ``states`` and storing cell i's new state in ``out[i]``.

    A synchronous step writes to a fresh list; an asynchronous sweep passes
    one list as both, so each cell reads the cells updated before it.
    ``order`` None is a whole synchronous generation in ascending order.
    With a by-pointer pointer rule it is read as rotations where the module
    docstring's rules allow: of one address class, or above 64 cells of one
    to four.  A modifier that is not a :class:`ByPointer` runs ahead of the
    reads up to its first new object, and above 64 cells for every cell, as
    does the plain variant's pointer function there; above 64 cells the
    generation is also stored in one pass after its last rule ran.  Any other pointer rule, and every
    other order, runs the per-cell order and stores cell by cell.  Any rule
    failure surfaces as :class:`RuleEvaluationError` naming the cell, t, the
    cell's state and what it read; ``out`` then holds the cells stored
    before it, so none after a failure in a generation stored in one pass.
    """
    n = topology.n
    basic = ruleset.variant == "basic"
    plain = ruleset.variant == "plain"
    f = ruleset.data_rule
    g = _no_pointers if plain else ruleset.pointer_rule
    modifier = ruleset.address_modifier
    pf = ruleset.pointer_function
    arms = ruleset.arms
    # gp/gr: the pointer tuple object the by-pointer pointer rule was last
    # called for, and its result; ``_UNSET`` is no cell's tuple.  Plain
    # cells hold the empty tuple and get it back, so their rule counts as
    # by-pointer.  A generation stored in one pass (bulk) collects its new
    # data in ds and counts g's calls, with gb in gp's part.
    by_g = plain or type(g) is ByPointer
    by_modifier = type(modifier) is ByPointer
    gp = gb = gr = _UNSET
    bulk = by_g and order is None and n > _SHARE_FROM
    if bulk:
        ds, calls = [], 0
    each = not by_g  # g runs at every cell, and each cell is stored at once
    ctx = RuleContext()
    ctx.t = t
    ctx.params = ruleset.params
    tnew = tuple.__new__  # skips the namedtuple constructor wrapper
    cs = CellState
    ahead = 0  # cells 0 .. ahead-1 have their effective addresses in effs
    i = -1
    try:
        if order is None:
            order = range(n)
            eff = _UNSET  # every cell's addresses, when they are one object
            classes = None  # else 2 to 4 objects, and where each cell reads
            nbs = None  # every cell's reads, when the rotations give them
            if by_g and ruleset.addressing == "relative":
                i = 0
                ctx.cell = states[0]
                p0 = ctx.cell[1]
                # with ``hold`` the addresses come from p0, so every cell must
                # hold p0: cells 0, 1 and n-1 are checked here, and each cell
                # again as it is evaluated
                hold = basic or by_modifier
                if hold:
                    if states[-1][1] is p0 and states[1 % n][1] is p0:
                        eff = modifier(ctx) if by_modifier else p0
                elif not plain or bulk:
                    effs = []
                    if not plain:  # any other modifier: per cell, up to a new object
                        eff = modifier(ctx)
                        effs.append(eff)
                        for i in range(1, n):
                            ctx.i = i
                            ctx.cell = states[i]
                            e = modifier(ctx)
                            effs.append(e)
                            if e is not eff:
                                eff = _UNSET
                                break
                    if bulk and eff is _UNSET:  # above 64 cells: every cell before any read
                        rest = enumerate(states[len(effs):], len(effs))
                        try:
                            effs += ([pf(ctx.i, ctx.cell) for ctx.i, ctx.cell in rest] if plain
                                     else [modifier(ctx) for ctx.i, ctx.cell in rest])
                        except Exception:
                            i = ctx.i  # the failing cell, for the report below
                            raise
                        if plain:  # the per-cell loop, if it runs, reuses them
                            pf = lambda i, q: effs[i]
                        if all(map(is_, effs, repeat(effs[0]))):  # C-level scan
                            eff = effs[0]
                        else:
                            classes, offs = _address_classes(effs, arms)
                    ahead = len(effs)
            if eff is not _UNSET:
                i = ctx.i = 0
                ctx.cell = states[0]
                if len(eff) != arms:
                    raise ValueError(f"{len(eff)} effective addresses for {arms} arm(s)")
                nbs = zip(*_rotations(topology, eff, states))
                if edge_sink is not None:
                    idx = [*order]
                    targets = _rotations(topology, eff, idx)
            elif classes is not None:
                try:
                    if edge_sink is None:
                        nbs = zip(*_columns(topology, classes, offs, states))
                    else:  # the targets, and the states at them
                        idx = [*order]
                        targets = _columns(topology, classes, offs, idx)
                        nbs = zip(*[itemgetter(*js)(states) for js in targets])
                except Exception:
                    pass  # the per-cell loop reports the cell whose class fails
            if nbs is not None:
                if edge_sink is not None:
                    mark = len(edge_sink)
                    readers = [0] * (n * arms)
                    flat = readers[:]
                    for k, column in enumerate(targets):
                        readers[k::arms] = idx
                        flat[k::arms] = column
                    edge_sink.extend(zip(readers, flat))
                for i, q, nb in zip(order, states, nbs):
                    p = q[1]
                    ctx.i = i
                    ctx.cell = q
                    ctx.neighbors = nb
                    try:
                        if p is gp:
                            out[i] = tnew(cs, (f(ctx), gr))
                        elif p is gb:
                            ds.append(f(ctx))
                        elif hold and p is not p0:
                            break
                        elif bulk:
                            ds.append(f(ctx))
                            gr = g(ctx)
                            gb = p
                            calls += 1
                        else:
                            d = f(ctx)
                            gr = g(ctx)
                            gp = p
                            out[i] = tnew(cs, (d, gr))
                    except GcaError:
                        raise
                    except Exception as exc:
                        raise RuleEvaluationError(i, t, exc, q, nb) from exc
                else:  # every cell read through the rotations
                    if not bulk:
                        return
                    i = n
                # from cell i, which holds another tuple, the access plan reads
                order = range(i, n)
                if edge_sink is not None:
                    del edge_sink[mark + i * arms :]
        if i < n:  # not when the rotations read every cell
            gather = _access_plan(topology, ruleset.addressing, arms, states, edge_sink)
        for i in order:
            q = states[i]
            p = q[1]  # .pointers without the descriptor hop
            ctx.i = i
            ctx.cell = q
            if basic:
                eff = p
            elif plain:
                eff = pf(i, q)
            elif i < ahead:
                eff = effs[i]
            else:
                ctx.neighbors = ()
                eff = modifier(ctx)
            if gather is None:
                (a,) = eff  # unpacking checks the arity
                ctx.neighbors = (states[(i + a) % n],)
            else:
                ctx.neighbors = gather(i, eff)
            try:  # free in the loop: a try block costs nothing until it raises
                if p is gp:  # the by-pointer rule's result for this tuple
                    out[i] = tnew(cs, (f(ctx), gr))
                elif each:
                    out[i] = tnew(cs, (f(ctx), g(ctx)))
                elif p is gb:
                    ds.append(f(ctx))
                elif bulk:
                    ds.append(f(ctx))
                    gr = g(ctx)
                    gb = p
                    calls += 1
                else:
                    d = f(ctx)
                    gr = g(ctx)
                    gp = p
                    out[i] = tnew(cs, (d, gr))
            except GcaError:
                raise
            except Exception as exc:
                raise RuleEvaluationError(i, t, exc, q, ctx.neighbors) from exc
    except GcaError:
        raise
    except Exception as exc:  # before the reads: addresses, arity, order
        state = ctx.cell if ctx.i == i else None
        raise RuleEvaluationError(i, t, exc, state) from exc
    if bulk and calls > 1:  # each cell's result again: a hit in g's memo
        out[:] = _states(zip(ds, [g(ctx) for ctx.cell in states]))
    elif bulk:
        out[:] = _states(ds, gr)


# ---------------------------------------------------------------------------
# stepping

def step_sync(
    cfg: Configuration,
    ruleset: RuleSet,
    *,
    edge_sink: list | None = None,
    phase1_order: Sequence[int] | None = None,
) -> Configuration:
    """One synchronous step: compute every cell from the generation-t snapshot,
    then commit all results as generation t+1.

    ``edge_sink`` collects ``(reader, target)`` access edges for this step.
    ``phase1_order`` evaluates phase 1 in the given index permutation (the
    committed result is order independent; anything else is rejected).  A
    rule failure commits nothing.
    """
    n = cfg.n
    new_states: list = [None] * n
    if phase1_order is not None and sorted(phase1_order) != list(range(n)):
        raise PreconditionError(f"phase1_order is not a permutation of 0..{n - 1}")
    _phase1(ruleset, cfg.topology, cfg.time, cfg.states, new_states, phase1_order, edge_sink)
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
    from, so that successive sweeps continue one stream.  The other orders
    read no seed and reject one.
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
    if seed is not None and order != "random":
        raise PreconditionError(f"a seed orders only the random sweep, not {order!r}")
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

    def __post_init__(self) -> None:
        if self.count < 0:
            raise PreconditionError(f"step count cannot be negative, got {self.count}")


@dataclass(frozen=True)
class FixedPoint:
    """Stop once a committed step changed nothing (sync mode only)."""


StopRule = Steps | FixedPoint


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
    halt: str  # "steps" | "fixed-point"
    trace: Trace | None = None


def _apply_events(cfg: Configuration, events: dict) -> None:
    """Apply the events scheduled for generation ``cfg.time`` in place, in
    order; ``events`` maps a generation to its mutators of the configuration."""
    for fn in events.get(cfg.time, ()):
        fn(cfg)


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, if it runs, until the block exits."""
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        yield
    finally:
        if paused:
            gc.enable()


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
    in place to generation 0 and to each committed generation, before it is
    recorded or tested by the stop rule; a generation's mutators run in the
    order given.  ``order`` is the sweep order of async mode; sync mode
    takes only ``"ascending"``.  For the random async order, ``seed`` seeds
    one stream that every sweep draws its order from; no other order takes
    a seed.
    A fixed-point run is guarded by ``step_limit`` (default ``10*n + 64``);
    exceeding it raises :class:`StepLimitError`.  The input configuration is
    not modified.  The cyclic garbage collector is paused while the run steps,
    and the caller's setting comes back on every exit; so reference cycles a
    rule builds are reclaimed only after the run returns.
    """
    if mode not in ("sync", "async"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if isinstance(stop, FixedPoint) and mode != "sync":
        raise PreconditionError("fixed-point halting is defined for sync mode only")
    if record_edges and mode == "async":
        raise PreconditionError("access-edge recording is defined for sync mode only")
    if mode == "sync" and order != "ascending":
        raise PreconditionError(f"sweep order {order!r} is defined for async mode only")
    if seed is not None and order != "random":
        raise PreconditionError(f"a seed orders only the random sweep, not {order!r}")

    schedule: dict = {}
    for time, fn in events:
        schedule.setdefault(time, []).append(fn)
    current = cfg
    if schedule:
        current = cfg.copy()
        _apply_events(current, schedule)
    if order == "random" and seed is not None:
        seed = _random.Random(seed)
    trace = Trace() if (record_states or record_edges) else None
    if trace is not None and record_states:
        trace.snapshots.append(current.copy())

    open_ended = not isinstance(stop, Steps)
    limit = step_limit if step_limit is not None else default_step_limit(cfg.n)
    steps = 0
    with _collector_paused():
        while True:
            if isinstance(stop, Steps) and steps >= stop.count:
                return RunResult(current, steps, "steps", trace)
            if open_ended and steps >= limit:
                raise StepLimitError(limit, current.time)
            edge_sink = [] if record_edges else None
            if mode == "sync":
                nxt = step_sync(current, ruleset, edge_sink=edge_sink)
            else:
                nxt = step_async(current, ruleset, order=order, seed=seed)
            steps += 1
            if schedule:
                _apply_events(nxt, schedule)
            if trace is not None:
                if record_edges:
                    trace.edges.append(edge_sink)
                if record_states:
                    trace.snapshots.append(nxt.copy())
            if isinstance(stop, FixedPoint) and nxt.states == current.states:
                return RunResult(nxt, steps, "fixed-point", trace)
            current = nxt
