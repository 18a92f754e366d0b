"""Desugar collective statements into flat point-to-point IL.

This is the tests' oracle: every collective expands into the guarded
``mypid == m : { … }`` send/receive/await blocks the compiler would have
emitted before collectives were first-class.  The expansion mirrors the
``flat`` schedule of :mod:`.schedule` statement-for-statement — the same
transfers in the same per-processor order and the same canonical
reduction order — so running the desugared program produces bit-identical
array contents.

Desugaring happens at compile time, so the group and root must be static
(integer literals, ``nprocs``, and arithmetic over them)."""

from __future__ import annotations

from typing import Sequence

from ..errors import CompilationError
from ..ir.nodes import (
    ArrayRef, Assign, Await, BinOp, Block, BoolConst, CollOp, CollectiveStmt,
    Expr, ExprStmt, Guarded, IntConst, Mypid, NumProcs, RecvStmt, SendStmt,
    Stmt, UnaryOp, XferOp,
)
from ..ir.nodes import Program
from ..ir.visitor import map_block, substitute
from .schedule import group_members, reduce_order

__all__ = ["desugar_collective", "desugar_program", "static_eval"]


def static_eval(e: Expr, nprocs: int, scalars: dict[str, int] | None = None):
    """Evaluate a compile-time-constant expression or raise."""
    match e:
        case IntConst(v) | BoolConst(v):
            return v
        case NumProcs():
            return nprocs
        case UnaryOp("-", operand):
            return -static_eval(operand, nprocs, scalars)
        case BinOp(op, lhs, rhs):
            l = static_eval(lhs, nprocs, scalars)
            r = static_eval(rhs, nprocs, scalars)
            match op:
                case "+": return l + r
                case "-": return l - r
                case "*": return l * r
                case "/": return l // r if r != 0 else 0
                case "%": return l % r
                case "min": return min(l, r)
                case "max": return max(l, r)
        case _ if scalars is not None and hasattr(e, "name"):
            if e.name in scalars:  # type: ignore[union-attr]
                return scalars[e.name]  # type: ignore[union-attr]
    raise CompilationError(
        f"collective group/root must be compile-time constant for the "
        f"point-to-point lowering; cannot evaluate {e!r}"
    )


def _on(m: int, stmts: Sequence[Stmt]) -> Guarded:
    return Guarded(BinOp("==", Mypid(), IntConst(m)), Block(tuple(stmts)))


class _Binder:
    """Binder substitution into the statement's refs."""

    def __init__(self, stmt: CollectiveStmt):
        self.stmt = stmt

    def _sub(self, ref: ArrayRef, g: int | None, d: int | None) -> ArrayRef:
        bindings: dict[str, Expr] = {}
        gb = self.stmt.g_binder
        if gb is not None and g is not None:
            bindings[gb] = IntConst(g)
        if d is not None:
            bindings[self.stmt.d_binder] = IntConst(d)
        out = substitute(ref, bindings)
        assert isinstance(out, ArrayRef)
        return out

    def src(self, g: int | None = None, d: int | None = None) -> ArrayRef:
        return self._sub(self.stmt.src, g, d)

    def dst(self, g: int | None = None, d: int | None = None) -> ArrayRef:
        return self._sub(self.stmt.dst, g, d)

    def scratch(self, d: int) -> ArrayRef:
        assert self.stmt.scratch is not None
        return self._sub(self.stmt.scratch, None, d)


def _send(ref: ArrayRef, dests: Sequence[int]) -> SendStmt:
    return SendStmt(
        ref, XferOp.SEND_VALUE, tuple(IntConst(p) for p in dests)
    )


def _recv(into: ArrayRef, msg: ArrayRef) -> RecvStmt:
    return RecvStmt(into, XferOp.RECV_VALUE, msg)


def _await(ref: ArrayRef) -> ExprStmt:
    return ExprStmt(Await(ref))


def desugar_collective(
    stmt: CollectiveStmt,
    nprocs: int,
    scalars: dict[str, int] | None = None,
) -> list[Stmt]:
    """Expand one collective into guarded point-to-point statements."""
    lo, hi, step = stmt.group
    members = group_members(
        int(static_eval(lo, nprocs, scalars)),
        int(static_eval(hi, nprocs, scalars)),
        1 if step is None else int(static_eval(step, nprocs, scalars)),
        nprocs,
    )
    b = _Binder(stmt)
    out: list[Stmt] = []

    if stmt.op is CollOp.BROADCAST:
        root = int(static_eval(stmt.root, nprocs, scalars))
        if root not in members:
            raise CompilationError(
                f"broadcast root P{root} is not a group member {members}"
            )
        src = b.src()
        block: list[Stmt] = []
        dst = b.dst(d=root)
        if dst != src:
            block.append(Assign(dst, src))
        others = [m for m in members if m != root]
        if others:
            block.append(_send(src, others))
        out.append(_on(root, block))
        for m in others:
            dst = b.dst(d=m)
            out.append(_on(m, [_recv(dst, src), _await(dst)]))
        return out

    for m in members:
        block = []
        if stmt.op is CollOp.ALLGATHER:
            block.append(Assign(b.dst(g=m, d=m), b.src(g=m)))
            others = [x for x in members if x != m]
            if others:
                block.append(_send(b.src(g=m), others))
            for g in members:
                if g != m:
                    block.append(_recv(b.dst(g=g, d=m), b.src(g=g)))
            for g in members:
                if g != m:
                    block.append(_await(b.dst(g=g, d=m)))
        elif stmt.op is CollOp.ALL_TO_ALL:
            block.append(Assign(b.dst(g=m, d=m), b.src(g=m, d=m)))
            for d in members:
                if d != m:
                    block.append(_send(b.src(g=m, d=d), [d]))
            for g in members:
                if g != m:
                    block.append(_recv(b.dst(g=g, d=m), b.src(g=g, d=m)))
            for g in members:
                if g != m:
                    block.append(_await(b.dst(g=g, d=m)))
        else:  # REDUCE_SCATTER
            assert stmt.reduce_op is not None
            for d in members:
                if d != m:
                    block.append(_send(b.src(g=m, d=d), [d]))
            dst = b.dst(d=m)
            order = reduce_order(members, m)
            if not order:
                block.append(Assign(dst, b.src(g=m, d=m)))
            else:
                scratch = b.scratch(d=m)
                first = True
                for g in order:
                    block.append(_recv(scratch, b.src(g=g, d=m)))
                    block.append(_await(scratch))
                    if first:
                        block.append(Assign(dst, scratch))
                        first = False
                    else:
                        block.append(
                            Assign(dst, BinOp(stmt.reduce_op, dst, scratch))
                        )
                block.append(
                    Assign(dst, BinOp(stmt.reduce_op, dst, b.src(g=m, d=m)))
                )
        out.append(_on(m, block))
    return out


def desugar_program(program: Program, nprocs: int) -> Program:
    """Replace every collective in a program by its point-to-point
    expansion (requires static groups; loop-dependent collectives cannot
    be expanded at compile time and raise :class:`CompilationError`)."""

    def f(s: Stmt):
        if isinstance(s, CollectiveStmt):
            return desugar_collective(s, nprocs)
        return s

    return Program(program.decls, map_block(program.body, f))
