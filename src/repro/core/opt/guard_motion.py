"""Guard hoisting: widening a per-iteration ``iown`` guard to loop level.

The paper's FFT example assumes an earlier phase produced loop-level guards
(``iown(A[*,*,k])`` around the whole inner FFT loop) rather than one guard
per call.  This pass performs that widening::

    do v { iown(A[.., v, ..]) : body }
      ==>
    iown(A[.., *, ..]) : { do v { body } }

legal when the owned sections at that point (the ownership flow of
:mod:`.common`) show that, on every processor, the per-iteration guard has
the same truth value for all iterations and that value equals the widened
guard's — i.e. ownership of the array is
all-or-nothing across the loop (true for the collapsed dimensions of HPF
distributions).  Hoisting pays the symbol-table lookup once per loop
instead of once per iteration.
"""

from __future__ import annotations

from ..analysis.ownership import CompilerContext
from ..ir.nodes import (
    ArrayRef, Block, DoLoop, Full, Guarded, Iown, Program, Stmt,
)
from ..ir.printer import print_ref
from .common import (
    OrderedRewriter, dynamic_guard_true_iterations, loop_var_dims, ownership_ops,
)

__all__ = ["GuardHoisting"]


class GuardHoisting:
    name = "guard-hoisting"

    def run(self, program: Program, ctx: CompilerContext) -> Program:
        return _Rewriter(ctx).rewrite_program(program)


class _Rewriter(OrderedRewriter):
    def visit(self, stmt: Stmt, loops) -> Stmt | list[Stmt] | None:
        match stmt:
            case DoLoop(var, lo, hi, step, Block((Guarded(Iown(ref), g_body),))):
                hoisted = self._try_hoist(stmt, ref, g_body)
                if hoisted is not None:
                    return self.recurse(hoisted, loops)
        return self.recurse(stmt, loops)

    def _try_hoist(self, loop: DoLoop, ref: ArrayRef, g_body: Block) -> Stmt | None:
        if ref.var in ownership_ops(g_body) or not self.flow.known(ref.var):
            return None
        dims = loop_var_dims(ref, loop.var)
        if not dims:
            return None
        widened = ArrayRef(
            ref.var,
            tuple(Full() if d in dims else sub for d, sub in enumerate(ref.subs)),
        )
        env = self.ctx.consts
        vals = self.analysis.iteration_values(loop, env)
        if vals is None:  # undecidable on every processor
            return self.decline_guard(GuardHoisting.name, loop, Iown(ref))
        if vals == []:
            return None

        def uniform(pid) -> bool | None:
            """All or nothing on ``pid``, agreeing with the widened guard?"""
            true = dynamic_guard_true_iterations(loop, ref, self.ctx, env, pid, self.flow)
            widened_owned = self.flow.owns(widened, env, pid)
            if true is None or widened_owned is None:
                return None
            return true == (vals if widened_owned else [])

        answers = self.decide(GuardHoisting.name, loop, Iown(ref), uniform)
        if not answers or not all(answers):
            return None
        self.ctx.note(
            f"{GuardHoisting.name}: hoisted iown({print_ref(ref)}) out of the "
            f"loop over {loop.var} as iown({print_ref(widened)})"
        )
        return Guarded(
            Iown(widened),
            Block((DoLoop(loop.var, loop.lo, loop.hi, loop.step, g_body),)),
        )
