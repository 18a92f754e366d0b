"""Backend schedules for collective transfers.

A :class:`~repro.core.ir.nodes.CollectiveStmt` is resolved (group, root
and every chunk section evaluated) into a :class:`CollInstance`, then
expanded per-processor into a stream of primitive *chunk ops*
(:class:`LocalCopy` / :class:`LocalReduce` / :class:`SendChunk` /
:class:`RecvChunk` / :class:`Fence`) by the *flat* schedule: contributors
send every chunk up-front (poststore), receivers claim and fence them in
group order (prefetch + fence).  This is also the semantics of the
point-to-point expansion in :mod:`.desugar`, kept as the test oracle.
The one other realization is the binomial-tree broadcast, which
:func:`collective_ops` picks on the message backend when :func:`tree_pays`.

Every schedule completes synchronously (every landing section fenced)
and produces **bit-identical** values: payloads travel verbatim, and
``reduce_scatter`` combines partial values in a single canonical order —
contributors in cyclic group order starting after the destination, the
destination's own contribution last, always left-associated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterator

import numpy as np

from ...machine.effects import Compute, Effect, Send, RecvInit, WaitAccessible
from ...machine.message import TransferKind
from ...machine.model import MachineModel
from ..errors import ProtocolError, XDPError
from ..ir.nodes import ArrayRef, CollOp, CollectiveStmt
from ..sections import Section

__all__ = [
    "LocalCopy", "LocalReduce", "SendChunk", "RecvChunk", "Fence", "ChunkOp",
    "CollInstance", "collective_ops", "execute_ops", "tree_pays",
    "reduce_order", "group_members",
]

#: Flop charges mirroring what the desugared point-to-point IL pays, so
#: the schedules and the desugar oracle stay cost-comparable (results are
#: bit-identical either way; virtual time is merely close).
_COPY_FLOPS_PER_ELEM = 2     # read + write
_REDUCE_FLOPS_PER_ELEM = 4   # two reads + combine + write
_FENCE_FLOPS = 5             # an await intrinsic


# ---------------------------------------------------------------------- #
# chunk ops
# ---------------------------------------------------------------------- #


def _check_sizes(what_a: str, var_a: str, sec_a: Section,
                 what_b: str, var_b: str, sec_b: Section) -> None:
    if sec_a.size != sec_b.size:
        raise ProtocolError(
            f"collective cardinality mismatch: {what_a} {var_a}{sec_a} "
            f"carries {sec_a.size} element(s) but {what_b} {var_b}{sec_b} "
            f"holds {sec_b.size}"
        )


@dataclass(frozen=True)
class LocalCopy:
    """``dst[dst_sec] = src[src_sec]`` on this processor (sizes equal)."""

    src_var: str
    src_sec: Section
    dst_var: str
    dst_sec: Section

    def __post_init__(self) -> None:
        _check_sizes("chunk", self.src_var, self.src_sec,
                     "slot", self.dst_var, self.dst_sec)


@dataclass(frozen=True)
class LocalReduce:
    """``acc[acc_sec] = acc[acc_sec] (op) arg[arg_sec]`` elementwise."""

    acc_var: str
    acc_sec: Section
    arg_var: str
    arg_sec: Section
    op: str  # "+", "min", "max"

    def __post_init__(self) -> None:
        _check_sizes("chunk", self.arg_var, self.arg_sec,
                     "accumulator", self.acc_var, self.acc_sec)


@dataclass(frozen=True)
class SendChunk:
    """Value send of a chunk to explicit destinations (0-based pids)."""

    var: str
    sec: Section
    dests: tuple[int, ...]


@dataclass(frozen=True)
class RecvChunk:
    """Claim the message named ``(msg_var, msg_sec)`` into an owned
    section (the value-receive protocol: wait-accessible, then claim)."""

    msg_var: str
    msg_sec: Section
    into_var: str
    into_sec: Section

    def __post_init__(self) -> None:
        _check_sizes("chunk", self.msg_var, self.msg_sec,
                     "slot", self.into_var, self.into_sec)


@dataclass(frozen=True)
class Fence:
    """Block until the named owned section is accessible again."""

    var: str
    sec: Section


ChunkOp = LocalCopy | LocalReduce | SendChunk | RecvChunk | Fence


# ---------------------------------------------------------------------- #
# instance resolution
# ---------------------------------------------------------------------- #


def group_members(lo: int, hi: int, step: int, nprocs: int) -> tuple[int, ...]:
    """The 1-based pids of a ``lo:hi[:step]`` collective group."""
    if step == 0:
        raise XDPError("collective group step of 0")
    members = tuple(range(lo, hi + (1 if step > 0 else -1), step))
    if not members:
        raise XDPError(f"empty collective group {lo}:{hi}:{step}")
    for m in members:
        if not 1 <= m <= nprocs:
            raise XDPError(f"collective group member P{m} outside machine")
    return members


class CollInstance:
    """A collective statement with group, root and sections resolved.

    ``resolve(ref, bindings)`` maps an :class:`ArrayRef` plus binder
    values to a concrete ``(var, Section)``; results are memoised, and
    every processor resolves identical names (``mypid`` is statically
    forbidden inside the statement), so message tags agree by
    construction."""

    def __init__(
        self,
        stmt: CollectiveStmt,
        members: tuple[int, ...],
        root: int | None,
        resolve: Callable[[ArrayRef, dict[str, int]], tuple[str, Section]],
    ):
        if stmt.root is not None and root not in members:
            raise XDPError(
                f"broadcast root P{root} is not a group member {members}"
            )
        self.stmt = stmt
        self.op = stmt.op
        self.members = members
        self.root = root
        self.reduce_op = stmt.reduce_op
        self._resolve = resolve
        self._cache: dict[tuple[str, int | None, int | None],
                          tuple[str, Section]] = {}

    def _get(self, role: str, ref: ArrayRef, g: int | None,
             d: int | None) -> tuple[str, Section]:
        key = (role, g, d)
        hit = self._cache.get(key)
        if hit is None:
            bindings: dict[str, int] = {}
            gb = self.stmt.g_binder
            if gb is not None and g is not None:
                bindings[gb] = g
            if d is not None:
                bindings[self.stmt.d_binder] = d
            hit = self._cache[key] = self._resolve(ref, bindings)
        return hit

    def src(self, g: int | None = None, d: int | None = None):
        return self._get("src", self.stmt.src, g, d)

    def dst(self, g: int | None = None, d: int | None = None):
        return self._get("dst", self.stmt.dst, g, d)

    def scratch(self, d: int):
        assert self.stmt.scratch is not None
        return self._get("scratch", self.stmt.scratch, None, d)


def reduce_order(members: tuple[int, ...], d: int) -> list[int]:
    """Canonical combine order for destination ``d``: the other members in
    cyclic group order starting after ``d`` (own contribution is always
    combined last, outside this list)."""
    pos = members.index(d)
    n = len(members)
    return [members[(pos + s) % n] for s in range(1, n)]


# ---------------------------------------------------------------------- #
# flat schedules (every op; the point-to-point reference semantics)
# ---------------------------------------------------------------------- #


def _flat_broadcast(inst: CollInstance, me: int) -> Iterator[ChunkOp]:
    root = inst.root
    assert root is not None
    src = inst.src()
    if me == root:
        dst = inst.dst(d=root)
        if dst != src:
            yield LocalCopy(*src, *dst)
        others = tuple(m - 1 for m in inst.members if m != root)
        if others:
            yield SendChunk(*src, others)
    else:
        dst = inst.dst(d=me)
        yield RecvChunk(*src, *dst)
        yield Fence(*dst)


def _flat_allgather(inst: CollInstance, me: int) -> Iterator[ChunkOp]:
    yield LocalCopy(*inst.src(g=me), *inst.dst(g=me, d=me))
    others = tuple(m - 1 for m in inst.members if m != me)
    if others:
        yield SendChunk(*inst.src(g=me), others)
    for g in inst.members:
        if g != me:
            yield RecvChunk(*inst.src(g=g), *inst.dst(g=g, d=me))
    for g in inst.members:
        if g != me:
            yield Fence(*inst.dst(g=g, d=me))


def _flat_all_to_all(inst: CollInstance, me: int) -> Iterator[ChunkOp]:
    yield LocalCopy(*inst.src(g=me, d=me), *inst.dst(g=me, d=me))
    for d in inst.members:
        if d != me:
            yield SendChunk(*inst.src(g=me, d=d), (d - 1,))
    for g in inst.members:
        if g != me:
            yield RecvChunk(*inst.src(g=g, d=me), *inst.dst(g=g, d=me))
    for g in inst.members:
        if g != me:
            yield Fence(*inst.dst(g=g, d=me))


def _flat_reduce_scatter(inst: CollInstance, me: int) -> Iterator[ChunkOp]:
    op = inst.reduce_op
    assert op is not None
    for d in inst.members:
        if d != me:
            yield SendChunk(*inst.src(g=me, d=d), (d - 1,))
    dst = inst.dst(d=me)
    order = reduce_order(inst.members, me)
    if not order:  # singleton group: result is the own contribution
        yield LocalCopy(*inst.src(g=me, d=me), *dst)
        return
    scratch = inst.scratch(d=me)
    first = True
    for g in order:
        yield RecvChunk(*inst.src(g=g, d=me), *scratch)
        yield Fence(*scratch)
        if first:
            yield LocalCopy(*scratch, *dst)
            first = False
        else:
            yield LocalReduce(*dst, *scratch, op)
    yield LocalReduce(*dst, *inst.src(g=me, d=me), op)


def _tree_broadcast(inst: CollInstance, me: int) -> Iterator[ChunkOp]:
    """Binomial tree: rank k receives from ``k - 2^t`` (``2^t`` the top
    bit of ``k``), then forwards to ``k + 2^t`` for growing ``t``."""
    members, root = inst.members, inst.root
    assert root is not None
    n = len(members)
    rpos = members.index(root)
    rank = (members.index(me) - rpos) % n

    def payload(member: int) -> tuple[str, Section]:
        # The root forwards the source section itself; everyone else
        # forwards their own (already fenced) landing slot.
        return inst.src() if member == root else inst.dst(d=member)

    if rank == 0:
        src, dst = inst.src(), inst.dst(d=root)
        if dst != src:
            yield LocalCopy(*src, *dst)
    else:
        top = 1 << (rank.bit_length() - 1)
        parent = members[(rank - top + rpos) % n]
        dst = inst.dst(d=me)
        yield RecvChunk(*payload(parent), *dst)
        yield Fence(*dst)
    t = 1 if rank == 0 else 1 << rank.bit_length()
    while rank + t < n:
        if rank < t:
            child = members[(rank + t + rpos) % n]
            yield SendChunk(*payload(me), (child - 1,))
        t <<= 1


_FLAT = {
    CollOp.BROADCAST: _flat_broadcast,
    CollOp.ALLGATHER: _flat_allgather,
    CollOp.ALL_TO_ALL: _flat_all_to_all,
    CollOp.REDUCE_SCATTER: _flat_reduce_scatter,
}


def tree_pays(members: int, nbytes: int, model: MachineModel) -> bool:
    """Whether a broadcast of ``nbytes`` over ``members`` processors is
    faster as the binomial tree than flat on the message backend.

    Modelled on a loop of ``P`` broadcasts, one from each member in turn
    (SUMMA's): flat waits ``P(P-1)/2 + P - 1`` injections in all, the tree
    ``P * d`` (``d`` its depth) plus ``d - 1`` extra hops for its deepest
    leaf.  docs/COLLECTIVES.md derives it and checks it on the simulator."""
    depth = (members - 1).bit_length()
    flat_sends = members * (members - 1) / 2 + members - 1
    hop = model.message_cost(nbytes) + model.o_recv
    return (depth - 1) * hop < (flat_sends - members * depth) * model.o_send


def collective_ops(
    inst: CollInstance, me: int, model: MachineModel | None = None
) -> Iterator[ChunkOp]:
    """Per-processor chunk-op stream for group member ``me`` (1-based).

    Every collective runs flat, except a broadcast that :func:`tree_pays`
    under ``model`` — the cost model of a message-passing binding, None on
    the shared-address one — runs as the binomial tree.  An in-place
    broadcast (source and destination in one array) stays flat: tree
    members forward from landing slots that aliasing storage may overlap
    with a section still to be sent.  Both produce identical values."""
    if (inst.op is CollOp.BROADCAST and model is not None
            and inst.stmt.src.var != inst.stmt.dst.var
            and tree_pays(len(inst.members),
                          inst.src()[1].size * model.elem_bytes, model)):
        return _tree_broadcast(inst, me)
    return _FLAT[inst.op](inst, me)


# ---------------------------------------------------------------------- #
# execution
# ---------------------------------------------------------------------- #

_COMBINE = {
    "+": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


def execute_ops(ops: Iterator[ChunkOp], env) -> Generator[Effect, Any, None]:
    """Drive a chunk-op stream against a processor's symbol table.

    ``env`` is the VM's per-processor execution environment: it carries
    ``ctx.symtab`` and a pending-``flops`` counter
    that is flushed as a :class:`Compute` effect before anything that can
    block or communicate."""
    symtab = env.ctx.symtab

    def flush():
        if env.flops:
            yield Compute(env.flops * 1.0, flops=env.flops)
            env.flops = 0

    for op in ops:
        tp = type(op)
        if tp is LocalCopy:
            buf = symtab.read(op.src_var, op.src_sec)
            symtab.write(op.dst_var, op.dst_sec, buf.reshape(op.dst_sec.shape))
            env.flops += _COPY_FLOPS_PER_ELEM * op.src_sec.size
        elif tp is LocalReduce:
            acc = symtab.read(op.acc_var, op.acc_sec)
            arg = symtab.read(op.arg_var, op.arg_sec)
            out = _COMBINE[op.op](acc, arg.reshape(acc.shape))
            symtab.write(op.acc_var, op.acc_sec, out)
            env.flops += _REDUCE_FLOPS_PER_ELEM * op.acc_sec.size
        elif tp is SendChunk:
            yield from flush()
            yield Send(TransferKind.VALUE, op.var, op.sec, op.dests)
        elif tp is RecvChunk:
            yield from flush()
            yield WaitAccessible(op.into_var, op.into_sec)
            yield RecvInit(
                TransferKind.VALUE, op.msg_var, op.msg_sec,
                into_var=op.into_var, into_sec=op.into_sec,
            )
        else:  # Fence
            env.flops += _FENCE_FLOPS
            yield from flush()
            yield WaitAccessible(op.var, op.sec)
