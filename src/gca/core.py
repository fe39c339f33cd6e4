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

Phase 1 (:func:`_phase1`) evaluates the rules of every variant, for
synchronous steps and asynchronous sweeps alike, in three stages whose
docstrings state their rules: *resolve* a whole synchronous generation's
effective addresses ahead of its reads (:func:`_resolve`); *read* each
cell's neighbours, as rotations of the state list (:func:`_rotated_reads`)
or cell by cell; and *run* each cell's data rule and pointer rule and store
its new state.  One loop (:func:`_phase1`) reads cell by cell and runs.
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
    """Rule ``ctx -> make(p)``, memoised by the first stored pointer
    ``p = ctx.cell[1][0]``.  The result (new pointers or effective addresses)
    may depend on ``p`` alone, never on an RNG, the cell, the neighbours or
    t, so phase 1 may reuse it for every cell that holds the same pointer
    tuple object; :class:`ByPointer` is the one rule type it does so for."""

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
# phase 1: resolve, read, run

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
    which :func:`_phase1` inlines.
    """
    relative = addressing == "relative"
    n = len(states)
    twod = len(topology.dims) == 2
    if relative and twod and arms == 4:
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
    if relative and not twod and arms == 2:
        def gather(i, eff):
            a, b = eff
            a = (i + a) % n
            b = (i + b) % n
            if edge_sink is not None:
                edge_sink.extend(((i, a), (i, b)))
            return (states[a], states[b])

        return gather
    if relative and not twod and arms == 1 and edge_sink is None:
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
# _phase1's loop reads cell i itself for a row (i, None); this one endless
# iterator makes those rows for every call, so none builds its own
_UNREAD = repeat(None)


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


def _resolve(ruleset: RuleSet, t: int, states: list, ctx: RuleContext, bulk: bool) -> tuple:
    """Resolve stage of a whole synchronous generation with relative
    addressing and a by-pointer pointer rule: ``(eff, effs, hold)``, every
    cell's effective addresses when they are one object (else ``_UNSET``),
    and those resolved ahead of the reads for cells 0, 1, ...

    - basic: cell 0's stored tuple ``p0``, or a :class:`ByPointer`
      modifier's one call for cell 0, when cells 1 and n-1 hold ``p0`` too;
      ``eff`` then applies to the cells that hold ``hold = p0`` (else None).
    - any other modifier: one call per cell up to the first cell whose
      addresses are a new object, then above 64 cells (``bulk``) every cell.
    - the plain variant's pointer function: above 64 cells, every cell.

    A failure names its cell, with no reads, so a rule run ahead that fails
    at a later cell is reported before an earlier cell's data rule fails:
    at 64 cells or fewer only while every address so far is one object,
    above 64 cells at any cell.
    """
    variant = ruleset.variant
    modifier = ruleset.address_modifier
    pf = ruleset.pointer_function
    n = len(states)
    ctx.i = 0
    ctx.cell = states[0]
    p0 = ctx.cell[1]
    effs: list = []
    try:
        if variant == "basic" or type(modifier) is ByPointer:
            if states[-1][1] is p0 and states[1 % n][1] is p0:
                return (p0 if variant == "basic" else modifier(ctx)), effs, p0
            return _UNSET, effs, None
        if variant == "general":  # up to the first new object
            e0 = modifier(ctx)
            effs.append(e0)
            for i in range(1, n):
                ctx.i = i
                ctx.cell = states[i]
                e = modifier(ctx)
                effs.append(e)
                if e is not e0:
                    break
            else:
                return e0, effs, None
        if bulk:
            rest = enumerate(states[len(effs):], len(effs))
            effs += ([pf(ctx.i, ctx.cell) for ctx.i, ctx.cell in rest] if variant == "plain"
                     else [modifier(ctx) for ctx.i, ctx.cell in rest])
            if all(map(is_, effs, repeat(effs[0]))):  # C-level scan
                return effs[0], effs, None
    except GcaError:
        raise
    except Exception as exc:
        raise RuleEvaluationError(ctx.i, t, exc, ctx.cell) from exc
    return _UNSET, effs, None


def _rotated_reads(
    topology: Topology, arms: int, t: int, states: list, eff: Any, effs: list, edge_sink: list | None
) -> Iterable[tuple] | None:
    """Read stage, as rotations: ``(i, nb)``, cell i's reads, for every cell
    of a whole synchronous generation in ascending order, read before any
    rule runs; None when the generation is read cell by cell.

    One address object ``eff`` is one rotation of the states per arm
    (:func:`_rotations`); a wrong arity, or an address that resolves
    nowhere, fails at cell 0.  Above 64 cells, addresses ``effs`` of two to
    four tuples of one address per arm (address classes) are one set of
    rotations per class, each cell's reads picked from its class's set
    (:func:`_columns`); a class that does not rotate is read cell by cell,
    which names the cell.  The edges come from the same rotations of the
    cell indices, in the per-cell order.
    """
    n = len(states)
    idx = None if edge_sink is None else [*range(n)]
    if eff is not _UNSET:
        try:
            if len(eff) != arms:
                raise ValueError(f"{len(eff)} effective addresses for {arms} arm(s)")
            columns = _rotations(topology, eff, states)
            if idx is not None:
                targets = _rotations(topology, eff, idx)
        except Exception as exc:
            raise RuleEvaluationError(0, t, exc, states[0]) from exc
    elif n > _SHARE_FROM and len(effs) == n:
        classes, offs = _address_classes(effs, arms)
        if classes is None:
            return None
        try:
            if idx is None:
                columns = _columns(topology, classes, offs, states)
            else:  # the targets, and the states at them
                targets = _columns(topology, classes, offs, idx)
                columns = [itemgetter(*js)(states) for js in targets]
        except Exception:
            return None
    else:
        return None
    if idx is not None:
        readers = [0] * (n * arms)
        flat = readers[:]
        for k, column in enumerate(targets):
            readers[k::arms] = idx
            flat[k::arms] = column
        edge_sink.extend(zip(readers, flat))
    return enumerate(zip(*columns))


def _phase1(
    ruleset: RuleSet, topology: Topology, t: int, states: list, out, order: Iterable[int] | None,
    edge_sink: list | None = None,
) -> None:
    """Evaluate the rules of the cells in ``order`` at generation t, reading
    ``states`` and storing cell i's new state in ``out[i]``.

    A synchronous step writes to a fresh list; an asynchronous sweep passes
    one list as both, so each cell reads the cells updated before it.
    ``order`` None is a whole synchronous generation in ascending order:
    with relative addressing and a by-pointer pointer rule (a
    :class:`ByPointer`, or the plain variant's), :func:`_resolve` and
    :func:`_rotated_reads` resolve and read it where they can.

    The loop reads every other cell (every cell of an asynchronous sweep,
    a ``phase1_order`` step, absolute addressing or a pointer rule that is
    not by-pointer), each after the cell before it ran and was stored: from
    the addresses resolved ahead, else from the stored tuple, the pointer
    function or the address modifier (with ``ctx.neighbors`` unset),
    through :func:`_access_plan`, which records the edges.  Rotations read
    for a ``hold`` tuple give way to it at the first cell not holding it.

    Each cell runs the data rule, then the pointer rule.  A cell holding
    the very tuple object (``is``) that a by-pointer rule was last called
    for reuses its result.  A whole synchronous generation of more than 64
    cells with a by-pointer rule is stored in one pass after its last rule
    ran (:func:`_states`); if that rule ran more than once, each cell's new
    pointers are asked of it again, a hit in its memo.  Any other generation
    stores each cell as it runs.  A failure surfaces as
    :class:`RuleEvaluationError` naming the first cell that fails, t, its
    state and what it read; ``out`` then holds the cells stored before it,
    none in a generation stored in one pass.
    """
    n = len(states)
    arms = ruleset.arms
    basic = ruleset.variant == "basic"
    plain = ruleset.variant == "plain"
    f = ruleset.data_rule
    g = _no_pointers if plain else ruleset.pointer_rule
    modifier = ruleset.address_modifier
    pf = ruleset.pointer_function
    by_g = plain or type(g) is ByPointer
    each = not by_g  # g runs at every cell
    bulk = by_g and order is None and n > _SHARE_FROM
    if bulk:
        ds, calls = [], 0
    ctx = RuleContext()
    ctx.t = t
    ctx.params = ruleset.params
    effs, cells, hold = (), None, None
    if order is None:
        order = range(n)
        if by_g and ruleset.addressing == "relative":
            eff, effs, hold = _resolve(ruleset, t, states, ctx, bulk)
            cells = _rotated_reads(topology, arms, t, states, eff, effs, edge_sink)
    ahead = len(effs)
    # gp/gr: the tuple object that g was last called for and its result,
    # gb in gp's place when the generation is stored in one pass
    gp = gb = gr = _UNSET
    tnew = tuple.__new__  # skips the namedtuple constructor wrapper
    cs = CellState
    while True:
        if cells is None:  # every cell in order is read in the loop
            cells = zip(order, _UNREAD)
            gather = _access_plan(topology, ruleset.addressing, arms, states, edge_sink)
        for i, nb in cells:
            q = states[i]
            p = q[1]  # .pointers without the descriptor hop
            ctx.i = i
            ctx.cell = q
            if nb is None:  # resolve and read cell i
                try:
                    if basic:
                        eff = p
                    elif i < ahead:
                        eff = effs[i]
                    elif plain:
                        eff = pf(i, q)
                    else:
                        ctx.neighbors = ()
                        eff = modifier(ctx)
                    if gather is None:
                        (a,) = eff  # unpacking checks the arity
                        nb = (states[(i + a) % n],)
                    else:
                        nb = gather(i, eff)
                except GcaError:
                    raise
                except Exception as exc:
                    raise RuleEvaluationError(i, t, exc, q) from exc
            ctx.neighbors = nb
            try:  # free in the loop: a try block costs nothing until it raises
                if p is gp:
                    out[i] = tnew(cs, (f(ctx), gr))
                elif p is gb:
                    ds.append(f(ctx))
                elif each:
                    out[i] = tnew(cs, (f(ctx), g(ctx)))
                elif hold is not None and p is not hold:
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
        else:
            break
        # cell i does not hold the tuple that the rotations were read for:
        # drop its edges and those after it, and read on from it in the loop
        if edge_sink is not None:
            del edge_sink[len(edge_sink) - (n - i) * arms :]
        order, cells, hold = range(i, n), None, None
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
    n = len(cfg.states)
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
