"""Guard hoisting: widening a per-iteration ``iown`` guard to loop level.

The paper's FFT example assumes an earlier phase produced loop-level guards
(``iown(A[*,*,k])`` around the whole inner FFT loop) rather than one guard
per call.  This pass performs that widening::

    do v { iown(A[.., v, ..]) : body }
      ==>
    iown(A[.., *, ..]) : { do v { body } }

legal when the distribution's owned triplets show that, on every processor, the
per-iteration guard has the same truth value for all iterations and that
value equals the widened guard's — i.e. ownership of the array is
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
from .common import OrderedRewriter, loop_var_dims, ownership_ops

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
        if ref.var in self.dirty or ref.var in ownership_ops(g_body):
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
        if vals == []:
            return None
        # All-or-nothing on every processor, agreeing with the widened guard.
        for pid in range(self.ctx.nprocs):
            true = self.analysis.guard_true_iterations(loop, ref, env, pid)
            widened_owned = self.analysis.owned_by(widened, env.at_pid(pid + 1), pid)
            if true is None or widened_owned is None:
                self.decline_guard(GuardHoisting.name, loop, ref)
                return None
            if true != (vals if widened_owned else []):
                return None
        self.ctx.note(
            f"{GuardHoisting.name}: hoisted iown({print_ref(ref)}) out of the "
            f"loop over {loop.var} as iown({print_ref(widened)})"
        )
        return Guarded(
            Iown(widened),
            Block((DoLoop(loop.var, loop.lo, loop.hi, loop.step, g_body),)),
        )
