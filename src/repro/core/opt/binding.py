"""Destination binding as an optimization pass (paper section 3.2).

"It may be useful for optimizations (and essential for code generation) to
annotate an XDP send statement with the id of the receiving processor."

The translator binds destinations as it generates code; this pass performs
the same annotation on *hand-written* IL+XDP that uses the canonical
owner-computes communication idiom::

    iown(R) : { R -> }                       # unspecified recipient
    iown(L) : { T <- R ; await(T) ; ... }    # the receiver's guard names L

The receiver of each instance is the owner of ``L``; when ``L`` is an
element reference of an HPF-distributed array, that owner is a closed-form
expression of the subscripts (see
:mod:`repro.core.analysis.ownerexpr`), inlined as the send's destination
set.  Binding converts pool matching into per-destination FIFO channels —
deterministic pairing even when a section name is reused across outer
iterations.

The annotation is *backend-polymorphic* (the section-5 delayed binding):
on the message-passing target the owner expression is the destination
**pid** of an explicit send; on the shared-address target the same owner
arithmetic yields the consumer's **home address**, turning the transfer
into a directed poststore that pushes the lines into the consumer's
cache (an unbound store would leave them at the producer's home and make
the consumer's fence pay the pull latency — see docs/BACKENDS.md).  The
pass therefore takes a ``target`` parameter that only changes how the
annotation is *reported*; the IR annotation itself (the owner
expression) is identical, which is what lets one optimized program run
on either backend.
"""

from __future__ import annotations

from ..analysis.ownerexpr import owner_pid1_expr
from ..analysis.ownership import CompilerContext
from ..ir.nodes import (
    ArrayRef, Await, Block, ExprStmt, Guarded, Iown, Program, RecvStmt,
    SendStmt, Stmt, XferOp,
)
from ..ir.printer import print_expr, print_ref
from .common import OrderedRewriter

__all__ = ["DestinationBinding"]


class DestinationBinding:
    name = "destination-binding"

    def __init__(self, target: str = "msg"):
        if target not in ("msg", "shmem"):
            raise ValueError(
                f"unknown binding target {target!r} (choose 'msg' or 'shmem')"
            )
        self.target = target

    def run(self, program: Program, ctx: CompilerContext) -> Program:
        return _Rewriter(ctx, self.target).rewrite_program(program)


class _Rewriter(OrderedRewriter):
    def __init__(self, ctx: CompilerContext, target: str = "msg"):
        super().__init__(ctx)
        self.target = target
    def rewrite_block(self, block: Block, loops) -> Block:
        stmts = list(block.stmts)
        for i in range(len(stmts) - 1):
            bound = self._try_bind(stmts[i], stmts[i + 1])
            if bound is not None:
                stmts[i] = bound
        return super().rewrite_block(Block(tuple(stmts)), loops)

    def _try_bind(self, first: Stmt, second: Stmt) -> Stmt | None:
        match first:
            case Guarded(
                Iown(g_ref),
                Block((SendStmt(s_ref, XferOp.SEND_VALUE, None),)),
            ) if g_ref == s_ref:
                pass
            case _:
                return None
        l_ref = self._receiver_of(second, s_ref)
        if l_ref is None or not l_ref.is_element():
            return None
        decl = self.ctx.array_decl(l_ref.var)
        if decl is None or decl.universal or l_ref.var not in self.ctx.layouts:
            return None
        dest = owner_pid1_expr(decl, self.ctx.layouts[l_ref.var], l_ref)
        if dest is None:
            return None
        if self.target == "shmem":
            self.ctx.note(
                f"{DestinationBinding.name}: bound poststore of "
                f"{print_ref(s_ref)} toward home({print_ref(l_ref)}) = "
                f"P{{{print_expr(dest)}}} (owner-arithmetic address)"
            )
        else:
            self.ctx.note(
                f"{DestinationBinding.name}: bound send of {print_ref(s_ref)} "
                f"to owner({print_ref(l_ref)}) = {print_expr(dest)}"
            )
        return Guarded(
            Iown(s_ref),
            Block((SendStmt(s_ref, XferOp.SEND_VALUE, (dest,)),)),
        )

    @staticmethod
    def _receiver_of(stmt: Stmt, source_ref: ArrayRef) -> ArrayRef | None:
        """The L of ``iown(L) : { T <- R ; ... }`` when R matches."""
        match stmt:
            case Guarded(Iown(l_ref), Block(body)) if body:
                match body[0]:
                    case RecvStmt(_, XferOp.RECV_VALUE, src) if src == source_ref:
                        return l_ref
        return None
