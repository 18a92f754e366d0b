"""Receive hoisting (paper section 3.2).

"If the communication primitives generated by the compiler are
non-blocking, then it is generally desirable to move the XDP receive
statements as early in the program as possible (consistent with the data
dependence constraints) to give the maximum opportunity of overlapping
communication with computation."

The pass moves receive *initiations* (bare ``RecvStmt`` statements and
single-statement guards containing one) upward within their block, past
any statement whose reference sets do not conflict on any processor.  It
never crosses loop or block boundaries (initiation stays in its region,
only earlier), and it refuses to move past statements with unresolvable
references — conservative, as code motion must be.
"""

from __future__ import annotations

from ..analysis.ownership import CompilerContext
from ..analysis.refsets import stmt_refsets
from ..ir.nodes import Block, Guarded, Program, RecvStmt, Stmt
from ..pidaffine import per_run
from .common import OrderedRewriter

__all__ = ["ReceiveHoisting"]


def _is_recv(s: Stmt) -> bool:
    if isinstance(s, RecvStmt):
        return True
    return (
        isinstance(s, Guarded)
        and len(s.body) == 1
        and isinstance(s.body.stmts[0], RecvStmt)
    )


class ReceiveHoisting:
    name = "receive-hoisting"

    def run(self, program: Program, ctx: CompilerContext) -> Program:
        return _Rewriter(ctx).rewrite_program(program)


class _Rewriter(OrderedRewriter):
    def rewrite_block(self, block: Block, loops) -> Block:
        stmts = list(block.stmts)
        moved = 0
        for i in range(1, len(stmts)):
            if not _is_recv(stmts[i]):
                continue
            j = i
            while j > 0 and self._independent(stmts[j - 1], stmts[j]):
                stmts[j - 1], stmts[j] = stmts[j], stmts[j - 1]
                j -= 1
                moved += 1
        if moved:
            self.ctx.note(
                f"{ReceiveHoisting.name}: moved {moved} receive initiation(s) "
                "earlier for communication overlap"
            )
        return super().rewrite_block(Block(tuple(stmts)), loops)

    def _independent(self, before: Stmt, recv: Stmt) -> bool:
        if _is_recv(before):
            return False  # keep receive initiation order (FIFO matching)
        if self._contains_send(before):
            # Never move a receive above a send: a value receive blocks
            # until its destination is accessible, so hoisting it past the
            # send that (transitively) satisfies another processor's wait
            # can deadlock — the paper's section-3.2 caution.  Sends also
            # belong as early as possible for overlap.
            return False

        def apart(pid) -> bool:
            env = self.ctx.consts.at_pid(pid + 1)
            return not stmt_refsets(before, self.ctx, env).conflicts_with(
                stmt_refsets(recv, self.ctx, env))
        return all(ok for *_, ok in per_run(self.ctx.nprocs, apart)[0])

    @staticmethod
    def _contains_send(stmt: Stmt) -> bool:
        from ..ir.nodes import SendStmt
        from ..ir.visitor import walk_stmts

        return any(isinstance(s, SendStmt) for s in walk_stmts(stmt))
