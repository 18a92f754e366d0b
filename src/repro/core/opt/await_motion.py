"""Await sinking (paper section 4, second transformation).

"A second transformation is also illustrated: moving the await statement
*into* Loop 4.  Although this might incur a greater run-time overhead, it
can allow the FFT operations to proceed while other data is still being
transferred."

Pattern handled::

    await(A[.., *, ..]) : { do v ... { body } }
      ==>
    do v ... { await(A[.., v, ..]) : { body } }

legal when every reference to the awaited array inside the body uses
exactly ``v`` in the dimensions being narrowed, so iteration ``v`` only
needs its own slice to be accessible.
"""

from __future__ import annotations

from ..analysis.ownership import CompilerContext
from ..ir.nodes import (
    ArrayRef, Await, Block, DoLoop, Full, Guarded, Index, Program, Stmt,
    VarRef,
)
from ..ir.printer import print_ref
from ..ir.visitor import array_refs
from .common import OrderedRewriter

__all__ = ["AwaitSinking"]


class AwaitSinking:
    name = "await-sinking"

    def run(self, program: Program, ctx: CompilerContext) -> Program:
        return _Rewriter(ctx).rewrite_program(program)


class _Rewriter(OrderedRewriter):
    def visit(self, stmt: Stmt, loops) -> Stmt | list[Stmt] | None:
        match stmt:
            case Guarded(Await(ref), Block((DoLoop() as loop,))):
                narrowed = self._narrow(ref, loop)
                if narrowed is not None:
                    self.ctx.note(
                        f"{AwaitSinking.name}: moved await({print_ref(ref)}) "
                        f"into the loop over {loop.var} as "
                        f"await({print_ref(narrowed)})"
                    )
                    inner = Guarded(
                        Await(narrowed),
                        self.rewrite_inside(loop, loop.body, loops + [loop]),
                    )
                    return DoLoop(
                        loop.var, loop.lo, loop.hi, loop.step, Block((inner,))
                    )
        return self.recurse(stmt, loops)

    def _narrow(self, ref: ArrayRef, loop: DoLoop) -> ArrayRef | None:
        """Replace ``Full`` dims of ``ref`` by ``Index(loop.var)`` wherever
        every body reference to the array indexes that dim with the loop
        variable."""
        body_refs = [r for r in array_refs(loop.body) if r.var == ref.var]
        if not body_refs:
            return None
        candidate_dims: list[int] = []
        for d, sub in enumerate(ref.subs):
            if not isinstance(sub, Full):
                continue
            if all(r.subs[d] == Index(VarRef(loop.var)) for r in body_refs):
                candidate_dims.append(d)
        if not candidate_dims:
            return None
        # The non-narrowed dims of the body refs must be covered by the
        # awaited section's corresponding subscripts: conservatively require
        # structural containment (equal subscript or awaited Full).
        for r in body_refs:
            for d, sub in enumerate(ref.subs):
                if d in candidate_dims:
                    continue
                if not isinstance(sub, Full) and sub != r.subs[d]:
                    return None
        new_subs = tuple(
            Index(VarRef(loop.var)) if d in candidate_dims else sub
            for d, sub in enumerate(ref.subs)
        )
        return ArrayRef(ref.var, new_subs)
