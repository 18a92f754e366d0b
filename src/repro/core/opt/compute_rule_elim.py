"""Compute-rule elimination (paper sections 2.4 and 4).

"A typical optimization is compute rule elimination — the removal of a
compute rule that always evaluates to true.  Compute rule elimination can
often be performed after the loop bounds are adjusted so that the
computation within the loop only references owned sections."

This pass handles the canonical shape ``do v { rule : body }`` with
``rule`` an ``iown(A[.., v, ..])`` or an ``await(A[.., v, ..])``, decided on
the owned sections the ownership flow (:mod:`.common`) carries to the loop
— so a loop after a redistribution is decided on what the redistribution
left each processor, as the paper does by hand for its Loop 4.  It
applies, in order of preference:

1. **mypid substitution** — when every processor's true set is exactly the
   single iteration ``v == mypid``, the loop disappears and ``v`` is
   replaced by ``mypid`` in the body (the paper's FFT step: "By replacing
   all references to the loop's induction variable in the body of the loop
   by mypid, these single iteration outer loops can also be removed").

2. **bounds localization** — when every processor's true set is a
   contiguous run, the loop becomes
   ``do v = max(lo, mylb(A[..,*,..], d)), min(hi, myub(..., d))`` with the
   guard removed.

An ``await`` rule is false only where the section is unowned, so the same
two rewrites drop exactly the iterations that would not wait; the guard
itself stays, because it is what waits for the data (stage 0's
``do j { await(A[*,j,*]) : ... }`` becomes ``await(A[*,mypid,*]) : ...``).

Both rewrites are validated exactly at compile time by intersecting
sections with the owned sections (never by listing array elements),
carrying the ownership across iterations when the guarded body itself
transfers it (the FFT redistribution loop does) — for all processors at
once, on bounds affine in ``mypid``; where no formula in ``mypid`` fits,
per processor, and the report says so.  If anything is symbolic the guard
is kept — correct, just unoptimized — and the pass report says so; where
the flow could not resolve an earlier transfer of the array, the pass
leaves the loop alone.
"""

from __future__ import annotations

from functools import reduce

from ..analysis.consteval import const_eval
from ..analysis.ownership import CompilerContext
from ..ir.nodes import (
    ArrayRef, Await, BinOp, DoLoop, Full, Guarded, IntConst, Iown, Mylb,
    Mypid, Myub, Program, Stmt,
)
from ..ir.printer import print_expr, print_ref
from ..ir.visitor import substitute_stmt
from ..pidaffine import pmax, pmin
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
        if not isinstance(guarded.rule, (Iown, Await)):
            return None
        ref = guarded.rule.ref
        if not self.ctx.is_exclusive(ref.var) or not self.flow.known(ref.var):
            return None
        dims = loop_var_dims(ref, loop.var)
        if dims is None or len(dims) != 1:
            return None
        (dim,) = dims
        if const_eval(loop.step, self.ctx.consts) != 1:
            return None

        env = self.ctx.consts
        waits = isinstance(guarded.rule, Await)
        vals = self.analysis.iteration_values(loop, env)
        if vals is None:  # undecidable on every processor
            return self.decline_guard(ComputeRuleElimination.name, loop, guarded.rule)
        star_ref = ArrayRef(
            ref.var,
            tuple(
                Full() if i == dim else s for i, s in enumerate(ref.subs)
            ),
        )

        def verdict(pid) -> frozenset[str] | None:
            """Every case ``pid``'s true iterations fit: the whole loop of
            an await ("all"), case 1 ("mypid"), case 2 ("bounds")."""
            t = dynamic_guard_true_iterations(loop, ref, self.ctx, env, pid, self.flow)
            if t is None:
                return None
            return frozenset(case for case, fits in (
                ("all", waits and t == vals), ("mypid", t == [pid + 1]),
                ("bounds", self._run_matches_static_bounds(loop, star_ref, dim, t, pid)),
            ) if fits)

        name = ComputeRuleElimination.name
        verdicts = self.decide(name, loop, guarded.rule, verdict)
        # An await guard stays (it waits for the data); with every
        # iteration true everywhere there is nothing to drop.
        if verdicts is None or all("all" in v for v in verdicts):
            return None
        rule = print_expr(guarded.rule)

        # Case 1: exactly one iteration per processor, equal to its pid.
        if all("mypid" in v for v in verdicts):
            self.ctx.note(
                f"{name}: removed loop over {loop.var} "
                f"guarded by {rule}; replaced {loop.var} by mypid"
                + (", kept the await" if waits else "")
            )
            kept = [guarded] if waits else guarded.body
            return [substitute_stmt(s, {loop.var: Mypid()}) for s in kept]

        # Case 2: contiguous per-processor runs matching mylb/myub bounds.
        if not all("bounds" in v for v in verdicts):
            return None
        lo = BinOp("max", loop.lo, Mylb(star_ref, IntConst(dim + 1)))
        hi = BinOp("min", loop.hi, Myub(star_ref, IntConst(dim + 1)))
        self.ctx.note(
            f"{name}: localized loop over {loop.var} "
            f"to owned bounds of {print_ref(star_ref)} and "
            + ("kept the await guard" if waits else "removed the iown guard")
        )
        localized = DoLoop(loop.var, lo, hi, loop.step,
                           loop.body if waits else guarded.body)
        return self.recurse(localized, loops)

    def _run_matches_static_bounds(self, loop: DoLoop, star_ref: ArrayRef, dim: int,
                                   t: list, pid) -> bool:
        """Is ``t`` on ``pid`` the contiguous run ``max(lo, mylb) ..
        min(hi, myub)``?"""
        env = self.ctx.consts
        lo = const_eval(loop.lo, env)
        hi = const_eval(loop.hi, env)
        sec = self.analysis.resolve(star_ref, env.at_pid(pid + 1))
        if lo is None or hi is None or sec is None or any(
                b - a != 1 for a, b in zip(t, t[1:])):
            return False
        owned = [inter.dims[dim] for o in self.flow.sections(star_ref.var, pid)
                 if (inter := o.intersect(sec)) is not None]
        if not owned:
            return t == []
        first = pmax(int(lo), reduce(pmin, (d.lo for d in owned)))
        last = pmin(int(hi), reduce(pmax, (d.hi for d in owned)))
        return t == [] if first > last else t != [] and t[0] == first and t[-1] == last
