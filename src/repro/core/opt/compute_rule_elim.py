"""Compute-rule elimination (paper sections 2.4 and 4).

"A typical optimization is compute rule elimination — the removal of a
compute rule that always evaluates to true.  Compute rule elimination can
often be performed after the loop bounds are adjusted so that the
computation within the loop only references owned sections."

This pass handles the canonical shape ``do v { iown(A[.., v, ..]) : body }``
and applies, in order of preference:

1. **mypid substitution** — when every processor's true set is exactly the
   single iteration ``v == mypid``, the loop disappears and ``v`` is
   replaced by ``mypid`` in the body (the paper's FFT step: "By replacing
   all references to the loop's induction variable in the body of the loop
   by mypid, these single iteration outer loops can also be removed").

2. **bounds localization** — when every processor's true set is a
   contiguous run, the loop becomes
   ``do v = max(lo, mylb(A[..,*,..], d)), min(hi, myub(..., d))`` with the
   guard removed.

Both rewrites are validated exactly at compile time by intersecting
sections with the distribution (never by listing array elements), carrying
the ownership across iterations when the guarded body itself transfers it
(the FFT redistribution loop does).  If anything is symbolic the guard is
kept — correct, just unoptimized — and the pass report says so.
"""

from __future__ import annotations

from ..analysis.consteval import const_eval
from ..analysis.ownership import CompilerContext
from ..ir.nodes import (
    ArrayRef, BinOp, DoLoop, Full, Guarded, IntConst, Iown, Mylb, Mypid,
    Myub, Program, Stmt,
)
from ..ir.printer import print_ref
from ..ir.visitor import substitute_stmt
from .common import (
    OrderedRewriter, dynamic_guard_true_iterations, loop_var_dims,
)

__all__ = ["ComputeRuleElimination"]


class ComputeRuleElimination:
    name = "compute-rule-elimination"

    def run(self, program: Program, ctx: CompilerContext) -> Program:
        return _Rewriter(ctx).rewrite_program(program)


class _Rewriter(OrderedRewriter):
    def visit(self, stmt: Stmt, loops) -> Stmt | list[Stmt] | None:
        if isinstance(stmt, DoLoop):
            replaced = self._try_localize(stmt, loops)
            if replaced is not None:
                return replaced
        return self.recurse(stmt, loops)

    # ------------------------------------------------------------------ #

    def _try_localize(self, loop: DoLoop, loops) -> Stmt | list[Stmt] | None:
        if len(loop.body) != 1 or not isinstance(loop.body.stmts[0], Guarded):
            return None
        guarded = loop.body.stmts[0]
        if not isinstance(guarded.rule, Iown):
            return None
        ref = guarded.rule.ref
        if ref.var in self.dirty or not self.ctx.is_exclusive(ref.var):
            return None
        dims = loop_var_dims(ref, loop.var)
        if dims is None or len(dims) != 1:
            return None
        (dim,) = dims
        if const_eval(loop.step, self.ctx.consts) != 1:
            return None

        env = self.ctx.consts
        true_sets: list[list[int]] = []
        for pid in range(self.ctx.nprocs):
            t = dynamic_guard_true_iterations(loop, ref, self.ctx, env, pid)
            if t is None:
                self.decline_guard(ComputeRuleElimination.name, loop, ref)
                return None
            true_sets.append(t)

        # Case 1: exactly one iteration per processor, equal to its pid.
        if all(t == [pid + 1] for pid, t in enumerate(true_sets)):
            self.ctx.note(
                f"{ComputeRuleElimination.name}: removed loop over {loop.var} "
                f"guarded by iown({print_ref(ref)}); replaced {loop.var} by mypid"
            )
            return [
                substitute_stmt(s, {loop.var: Mypid()}) for s in guarded.body
            ]

        # Case 2: contiguous per-processor runs matching mylb/myub bounds.
        star_ref = ArrayRef(
            ref.var,
            tuple(
                Full() if i == dim else s for i, s in enumerate(ref.subs)
            ),
        )
        if not self._runs_match_static_bounds(loop, star_ref, dim, true_sets, env):
            return None
        lo = BinOp("max", loop.lo, Mylb(star_ref, IntConst(dim + 1)))
        hi = BinOp("min", loop.hi, Myub(star_ref, IntConst(dim + 1)))
        self.ctx.note(
            f"{ComputeRuleElimination.name}: localized loop over {loop.var} "
            f"to owned bounds of {print_ref(star_ref)} and removed the "
            "iown guard"
        )
        return DoLoop(
            loop.var, lo, hi, loop.step,
            self.rewrite_block(guarded.body, loops + [loop]),
        )

    def _runs_match_static_bounds(
        self, loop: DoLoop, star_ref: ArrayRef, dim: int, true_sets, env
    ) -> bool:
        lo = const_eval(loop.lo, env)
        hi = const_eval(loop.hi, env)
        if lo is None or hi is None:
            return False
        for pid, t in enumerate(true_sets):
            if t and t != list(range(t[0], t[-1] + 1)):
                return False  # non-contiguous true set
            sec = self.analysis.resolve(star_ref, env.at_pid(pid + 1))
            if sec is None:
                return False
            dist = self.ctx.layouts[star_ref.var].distribution
            mylb_v, myub_v = None, None
            for owned in dist.owned_sections(pid):
                inter = owned.intersect(sec)
                if inter is not None:
                    d = inter.dims[dim]
                    mylb_v = d.lo if mylb_v is None else min(mylb_v, d.lo)
                    myub_v = d.hi if myub_v is None else max(myub_v, d.hi)
            if mylb_v is None:
                run: list[int] = []
            else:
                run = list(range(max(int(lo), mylb_v), min(int(hi), myub_v) + 1))
            if run != t:
                return False
        return True

