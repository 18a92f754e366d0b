"""Transfer elimination (paper section 2.2).

"For instance, if the same processor that exclusively owns A[i] also owns
B[i], then the data transfer statements can be eliminated."

The pass recognises the owner-computes communication idiom the translator
emits —

.. code-block:: none

    iown(R) : { R -> }
    iown(L) : {
      T[mypid] <- R
      await(T[mypid])
      ... T[mypid] ...
    }

— and, when compile-time enumeration proves ``owner(R) == owner(L)`` for
every iteration of the enclosing loops, deletes the send/receive/await and
substitutes ``R`` back for the temporary, leaving a purely local statement.
"""

from __future__ import annotations

from ..analysis.ownership import CompilerContext
from ..ir.nodes import (
    ArrayRef, Assign, Await, Block, DoLoop, Expr, ExprStmt, Guarded, Iown,
    Program, RecvStmt, SendStmt, Stmt, XferOp,
)
from ..ir.printer import print_ref
from ..ir.visitor import map_expr
from .common import OrderedRewriter

__all__ = ["TransferElimination"]


class TransferElimination:
    name = "transfer-elimination"

    def run(self, program: Program, ctx: CompilerContext) -> Program:
        return _Rewriter(ctx).rewrite_program(program)


class _Rewriter(OrderedRewriter):
    def rewrite_block(self, block: Block, loops) -> Block:
        # First try pairwise elimination at this level, then let the
        # superclass recurse into whatever remains.
        stmts = list(block.stmts)
        out: list[Stmt] = []
        i = 0
        while i < len(stmts):
            s = stmts[i]
            nxt = stmts[i + 1] if i + 1 < len(stmts) else None
            replaced = self._try_eliminate(s, nxt, loops)
            if replaced is not None:
                out.append(replaced)
                i += 2
                continue
            out.append(s)
            i += 1
        return super().rewrite_block(Block(tuple(out)), loops)

    def _try_eliminate(
        self, first: Stmt, second: Stmt | None, loops
    ) -> Stmt | None:
        send = self._match_send(first)
        if send is None or second is None:
            return None
        recv = self._match_recv(second)
        if recv is None:
            return None
        r_ref, _dests = send  # bound or unbound destinations both eliminable
        l_ref, temp_ref, source_ref, rest = recv
        if source_ref != r_ref:
            return None
        if not (self.flow.initial(r_ref.var) and self.flow.initial(l_ref.var)):
            return None
        if not self.analysis.same_owner_forall(r_ref, l_ref, loops, self.ctx.consts):
            return None

        def swap(e: Expr) -> Expr:
            if isinstance(e, ArrayRef) and e == temp_ref:
                return r_ref
            return e

        from ..ir.visitor import map_stmt

        new_rest: list[Stmt] = []
        for s in rest:
            def on_stmt(st: Stmt) -> Stmt:
                match st:
                    case Assign(target, expr):
                        t2 = map_expr(target, swap) if isinstance(target, ArrayRef) else target
                        return Assign(t2, map_expr(expr, swap))
                    case ExprStmt(expr):
                        return ExprStmt(map_expr(expr, swap))
                    case Guarded(rule, body):
                        return Guarded(map_expr(rule, swap), body)
                    case _:
                        return st

            new_rest.append(map_stmt(s, on_stmt))
        self.ctx.note(
            f"{TransferElimination.name}: removed transfer of "
            f"{print_ref(r_ref)} to the co-located owner of {print_ref(l_ref)}"
        )
        return Guarded(Iown(l_ref), Block(tuple(new_rest)))

    @staticmethod
    def _match_send(s: Stmt):
        """``iown(R) : { R -> }`` → (R, dests)."""
        match s:
            case Guarded(Iown(g_ref), Block((SendStmt(ref, XferOp.SEND_VALUE, dests),))):
                if g_ref == ref:
                    return ref, dests
        return None

    @staticmethod
    def _match_recv(s: Stmt):
        """``iown(L) : { T <- R ; await(T) ; rest }`` →
        (L, T, R, rest)."""
        match s:
            case Guarded(Iown(l_ref), Block(stmts)) if len(stmts) >= 3:
                match stmts[0], stmts[1]:
                    case (
                        RecvStmt(temp_ref, XferOp.RECV_VALUE, source_ref),
                        ExprStmt(Await(await_ref)),
                    ) if await_ref == temp_ref:
                        return l_ref, temp_ref, source_ref, list(stmts[2:])
        return None
