"""Cleanup: dead declarations and empty control structure.

After transfer elimination or vectorization, translator-introduced temp
arrays can become unreferenced, and guarded blocks can become empty; this
pass prunes both so the output reads like the paper's hand-optimized
fragments."""

from __future__ import annotations

from ..analysis.ownership import CompilerContext
from ..ir.nodes import (
    ArrayDecl, Block, DoLoop, Guarded, IfStmt, Program, ScalarDecl, Stmt,
)
from ..ir.visitor import array_refs, free_scalars, map_block

__all__ = ["Cleanup"]


class Cleanup:
    name = "cleanup"

    def run(self, program: Program, ctx: CompilerContext) -> Program:
        body = _prune_empty(program.body)
        if body != program.body:
            ctx.note(f"{self.name}: removed empty control structure")
        used_arrays = {r.var for r in array_refs(body)}
        used_scalars = free_scalars(body)
        decls = []
        removed = []
        for d in program.decls:
            if isinstance(d, ArrayDecl) and d.name not in used_arrays:
                removed.append(d.name)
                continue
            if isinstance(d, ScalarDecl) and d.name not in used_scalars:
                removed.append(d.name)
                continue
            decls.append(d)
        if removed:
            ctx.note(f"{self.name}: removed unused declarations {', '.join(removed)}")
        return Program(tuple(decls), body)


def _prune_empty(block: Block) -> Block:
    def on_stmt(s: Stmt) -> Stmt | None:
        match s:
            case Guarded(_, body) if len(body) == 0:
                return None
            case DoLoop(_, _, _, _, body) if len(body) == 0:
                return None
            case IfStmt(_, then, orelse) if len(then) == 0 and len(orelse) == 0:
                return None
            case _:
                return s

    return map_block(block, on_stmt)
