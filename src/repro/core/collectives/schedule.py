"""Backend schedules for collective transfers.

A :class:`~repro.core.ir.nodes.CollectiveStmt` is resolved (group, root
and every chunk section evaluated) into a :class:`CollInstance`, then
expanded per-processor into a stream of primitive *chunk ops*
(:class:`LocalCopy` / :class:`LocalReduce` / :class:`SendChunk` /
:class:`RecvChunk` / :class:`Fence`) by one of two schedule families:

``flat``
    Bulk exchange: contributors send every chunk up-front (poststore),
    receivers claim and fence them in group order (prefetch + fence).
    This is the native shared-address schedule and also the semantics of
    the legacy point-to-point lowering (:mod:`.desugar`).

``staged``
    Message-backend schedules that bound in-flight chunks per step:
    binomial-tree ``broadcast``, ring ``allgather``, pipelined-ring
    ``reduce_scatter`` and round-staged ``all_to_all``.

Both families complete synchronously (every landing section fenced) and
produce **bit-identical** values: payloads travel verbatim, and
``reduce_scatter`` combines partial values in a single canonical order —
contributors in cyclic group order starting after the destination, the
destination's own contribution last, always left-associated — which the
ring pipeline realises naturally and the flat schedule reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterator

import numpy as np

from ...machine.effects import Compute, Effect, Send, RecvInit, WaitAccessible
from ...machine.message import TransferKind
from ..errors import ProtocolError, XDPError
from ..ir.nodes import ArrayRef, CollOp, CollectiveStmt
from ..sections import Section

__all__ = [
    "LocalCopy", "LocalReduce", "SendChunk", "RecvChunk", "Fence", "ChunkOp",
    "CollInstance", "collective_ops", "execute_ops",
    "reduce_order", "group_members",
]

#: Flop charges mirroring what the desugared point-to-point IL pays, so
#: native and legacy lowerings stay cost-comparable (results are
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
# flat schedules (shared-address native / point-to-point reference)
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


# ---------------------------------------------------------------------- #
# staged schedules (message backend)
# ---------------------------------------------------------------------- #


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


def _ring_allgather(inst: CollInstance, me: int) -> Iterator[ChunkOp]:
    members = inst.members
    n = len(members)
    pos = members.index(me)
    succ = members[(pos + 1) % n]
    pred = members[(pos - 1) % n]
    yield LocalCopy(*inst.src(g=me), *inst.dst(g=me, d=me))
    for s in range(1, n):
        c_out = members[(pos - s + 1) % n]
        c_in = members[(pos - s) % n]
        if s > 1:
            yield Fence(*inst.dst(g=c_out, d=me))
        yield SendChunk(*inst.dst(g=c_out, d=me), (succ - 1,))
        yield RecvChunk(*inst.dst(g=c_in, d=pred), *inst.dst(g=c_in, d=me))
    if n > 1:
        yield Fence(*inst.dst(g=succ, d=me))


def _staged_all_to_all(inst: CollInstance, me: int) -> Iterator[ChunkOp]:
    """Round ``r``: send to the ``+r`` neighbour, fence the chunk from the
    ``-r`` neighbour — one in-flight chunk per processor per round."""
    members = inst.members
    n = len(members)
    pos = members.index(me)
    yield LocalCopy(*inst.src(g=me, d=me), *inst.dst(g=me, d=me))
    for r in range(1, n):
        d = members[(pos + r) % n]
        g = members[(pos - r) % n]
        yield SendChunk(*inst.src(g=me, d=d), (d - 1,))
        yield RecvChunk(*inst.src(g=g, d=me), *inst.dst(g=g, d=me))
        yield Fence(*inst.dst(g=g, d=me))


def _ring_reduce_scatter(inst: CollInstance, me: int) -> Iterator[ChunkOp]:
    """Pipelined ring: the partial for chunk ``d`` travels
    ``succ(d) → succ²(d) → … → d``, each hop adding its own contribution
    — the same left-associated order as the flat schedule."""
    op = inst.reduce_op
    assert op is not None
    members = inst.members
    n = len(members)
    pos = members.index(me)
    dst = inst.dst(d=me)
    if n == 1:
        yield LocalCopy(*inst.src(g=me, d=me), *dst)
        return
    succ = members[(pos + 1) % n]
    pred = members[(pos - 1) % n]
    scratch = inst.scratch(d=me)
    pred_scratch = inst.scratch(d=pred)
    for s in range(1, n):
        chunk_out = members[(pos - s) % n]
        if s == 1:
            yield SendChunk(*inst.src(g=me, d=chunk_out), (succ - 1,))
        else:
            yield Fence(*scratch)
            yield LocalReduce(*scratch, *inst.src(g=me, d=chunk_out), op)
            yield SendChunk(*scratch, (succ - 1,))
        # The matching message from pred: its step-s payload.
        if s == 1:
            pred_chunk = members[(pos - 2) % n]
            yield RecvChunk(*inst.src(g=pred, d=pred_chunk), *scratch)
        else:
            yield RecvChunk(*pred_scratch, *scratch)
    yield Fence(*scratch)
    yield LocalCopy(*scratch, *dst)
    yield LocalReduce(*dst, *inst.src(g=me, d=me), op)


_FLAT = {
    CollOp.BROADCAST: _flat_broadcast,
    CollOp.ALLGATHER: _flat_allgather,
    CollOp.ALL_TO_ALL: _flat_all_to_all,
    CollOp.REDUCE_SCATTER: _flat_reduce_scatter,
}
_STAGED = {
    CollOp.BROADCAST: _tree_broadcast,
    CollOp.ALLGATHER: _ring_allgather,
    CollOp.ALL_TO_ALL: _staged_all_to_all,
    CollOp.REDUCE_SCATTER: _ring_reduce_scatter,
}


def collective_ops(
    inst: CollInstance, me: int, style: str = "flat"
) -> Iterator[ChunkOp]:
    """Per-processor chunk-op stream for group member ``me`` (1-based).

    In-place collectives (source and destination in the same array) run
    the flat schedule even when ``staged`` is requested: the staged
    families interleave sends of source chunks with receives into
    destination chunks round by round, so aliasing storage could clobber
    a chunk before its send round — e.g. an in-place all-to-all transpose
    receives into the slot it must forward at round ``n - r``.  The flat
    schedule dispatches every outgoing payload before any receive can
    land, so it tolerates aliasing (and both produce identical values)."""
    if style == "staged" and inst.stmt.src.var == inst.stmt.dst.var:
        style = "flat"
    table = {"flat": _FLAT, "staged": _STAGED}[style]
    return table[inst.op](inst, me)


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
