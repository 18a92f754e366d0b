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

It sinks a loop-invariant await, such as the paper's
``await(A[*,mypid,*])`` once compute-rule elimination has dropped Loop 4's
loop, and declines (``declined — <reason>``) a matched await when

* a subscript of it reads an enclosing loop's variable
  (``do k: await(A[*,*,k])``): that loop already paces the await one plane
  at a time, so one await per pencil buys no overlap, only more awaits;
* the loop's compile-time iterations do not cover, on every processor,
  the awaited extent of the narrowed dimensions: a statement after the
  loop could then read an element no await waited for.
"""

from __future__ import annotations

from ..analysis.ownership import CompilerContext
from ..ir.nodes import (
    ArrayRef, Await, Block, DoLoop, Full, Guarded, Index, Program, Stmt,
    VarRef,
)
from ..ir.printer import print_ref
from ..ir.visitor import array_refs, subscript_exprs
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
                reason = narrowed and (self._paced(ref, loops)
                                       or self._uncovered(ref, narrowed, loop))
                if reason:
                    self.ctx.decline(AwaitSinking.name, reason)
                elif narrowed is not None:
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

    def _paced(self, ref: ArrayRef, loops: list[DoLoop]) -> str | None:
        """Why an enclosing loop already advances the await, if one does."""
        for outer in reversed(loops):
            if any(VarRef(outer.var) in subscript_exprs(sub) for sub in ref.subs):
                return (f"await({print_ref(ref)}) already advances with the "
                        f"loop over {outer.var}")
        return None

    def _uncovered(self, ref: ArrayRef, narrowed: ArrayRef,
                   loop: DoLoop) -> str | None:
        """Why the loop's iterations may miss part of the awaited extent."""
        dims = [d for d, sub in enumerate(narrowed.subs) if sub != ref.subs[d]]
        for pid in range(self.ctx.nprocs):
            env = self.ctx.consts.at_pid(pid + 1)
            vals = self.analysis.iteration_values(loop, env)
            sec = self.analysis.resolve(ref, env)
            if vals is None or sec is None or not all(
                    set(sec.dims[d]) <= set(vals) for d in dims):
                return (f"the loop over {loop.var} does not provably cover "
                        f"await({print_ref(ref)})")
        return None
