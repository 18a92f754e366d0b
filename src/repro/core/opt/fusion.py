"""Loop fusion with XDP legality (paper section 4).

"Dependence analysis of Loops 2 and 3a indicates that they can be fused
together.  Note that the analysis for validity of fusion must also check to
make sure that between any ``-=>`` and its corresponding ``<=-`` operation,
no ownership queries are performed on the associated data, and that these
data are not accessed by computation in the interim."

Fusing ``do v { A } ; do w { B }`` interleaves ``B(i)`` before ``A(j)`` for
``j`` later than ``i`` on each processor, so no reference of ``B(i)`` may
conflict with one of ``A(j)`` — where
:class:`~repro.core.analysis.refsets.RefSets` counts value accesses,
ownership releases/acquisitions *and* ownership queries, which is exactly
the paper's extra XDP condition.  The pass decides this on sections, not on
iterations: each body is resolved once per processor with its loop variable
symbolic (:class:`~repro.core.analysis.refsets.LoopSection`), and whether
two references can meet at some ``i`` before ``j`` is a per-dimension
triplet test (:func:`_meets_later`).  The benefit is pipelining: the
transfer of one iteration's data overlaps the computation of the next.

Legal is not always profitable: the pass declines (``declined — ...``) to
fuse a loop that only initiates receives into a loop that sends.  Fused,
iteration ``i``'s receive initiation delays the send of every later
iteration, and a receive has no computation to hide behind — which is why
section 4 fuses Loops 2 and 3a and never 3b.
"""

from __future__ import annotations

from ..analysis.ownership import (
    ITERATION_CAP, CompilerContext, OwnershipAnalysis,
)
from ..analysis.refsets import LoopSection, stmt_refsets
from ..ir.nodes import Block, DoLoop, Program, RecvStmt, SendStmt, Stmt, VarRef
from ..ir.visitor import free_scalars, substitute_stmt, walk_stmts
from ..pidaffine import per_run
from ..sections import Triplet
from .common import OrderedRewriter, meet

__all__ = ["LoopFusion", "can_fuse"]


def _meets_later(b: LoopSection, a: LoopSection, run: Triplet, down: bool) -> bool:
    """Does ``b`` at some iteration ``i`` overlap ``a`` at a *later*
    iteration ``j`` of the loop whose values are ``run`` (descending when
    ``down``)?  Every dimension narrows the ``i`` that can take part, the
    ``j`` that can, or — the variable on both sides — fixes ``j - i``."""
    i_set: Triplet | None = run
    j_set: Triplet | None = run
    gap = None
    for tb, ob, ta, oa in zip(b.sec.dims, b.offsets, a.sec.dims, a.offsets):
        if ob is None and oa is None:
            if meet(tb, ta) is None:
                return False
        elif oa is None:  # i + ob in ta
            i_set = meet(i_set, Triplet(ta.lo - ob, ta.hi - ob, ta.step))
        elif ob is None:  # j + oa in tb
            j_set = meet(j_set, Triplet(tb.lo - oa, tb.hi - oa, tb.step))
        elif gap not in (None, ob - oa):
            return False
        else:  # i + ob == j + oa
            gap = ob - oa
        if i_set is None or j_set is None:
            return False
    if gap is None:
        return i_set.hi > j_set.lo if down else i_set.lo < j_set.hi
    if gap == 0 or (gap < 0) != down:
        return False  # the same iteration, or an earlier one
    return meet(i_set, Triplet(j_set.lo - gap, j_set.hi - gap, j_set.step)) is not None


def can_fuse(a: DoLoop, b: DoLoop, ctx: CompilerContext) -> bool:
    """Decide whether two adjacent loops may be fused (see module doc)."""
    analysis = OwnershipAnalysis(ctx)
    va = analysis.iteration_values(a, ctx.consts)
    vb = analysis.iteration_values(b, ctx.consts)
    if va is None or vb is None:
        ctx.decline(
            LoopFusion.name,
            f"the loops over {a.var} and {b.var} have symbolic bounds or "
            f"more than {ITERATION_CAP} iterations")
        return False
    if va != vb:
        return False
    if not va:
        return True
    run = Triplet(va[0], va[-1], va[1] - va[0] if len(va) > 1 else 1)
    down = va[0] > va[-1]

    def meet(sb: LoopSection, sa: LoopSection) -> bool:
        return _meets_later(sb, sa, run, down)

    def legal(pid) -> bool | None:
        env = ctx.consts.at_pid(pid + 1)
        ra, rb = (stmt_refsets(x.body, ctx, env, x.var) for x in (a, b))
        return None if ra.unknown or rb.unknown else not rb.conflicts_with(ra, meet)

    for *_, ok in per_run(ctx.nprocs, legal)[0]:
        if ok is None:
            ctx.decline(
                LoopFusion.name,
                f"the bodies of the loops over {a.var} and {b.var} hold a "
                "collective or an inner loop with symbolic bounds")
        if not ok:
            return False
    return True


def fuse(a: DoLoop, b: DoLoop) -> DoLoop:
    """Textually fuse two loops (legality must be established first)."""
    renamed = [substitute_stmt(s, {b.var: VarRef(a.var)}) for s in b.body]
    return DoLoop(a.var, a.lo, a.hi, a.step, Block(tuple(a.body.stmts) + tuple(renamed)))


class LoopFusion:
    name = "loop-fusion"

    def run(self, program: Program, ctx: CompilerContext) -> Program:
        return _Rewriter(ctx).rewrite_program(program)


class _Rewriter(OrderedRewriter):
    def rewrite_block(self, block: Block, loops) -> Block:
        stmts = list(block.stmts)
        out: list[Stmt] = []
        i = 0
        while i < len(stmts):
            s = stmts[i]
            nxt = stmts[i + 1] if i + 1 < len(stmts) else None
            if isinstance(s, DoLoop) and isinstance(nxt, DoLoop):
                capture_hazard = (
                    nxt.var != s.var and s.var in free_scalars(nxt.body)
                )
                if (not capture_hazard and can_fuse(s, nxt, self.ctx)
                        and not self._receives_after_sends(s, nxt)):
                    fused = fuse(s, nxt)
                    self.ctx.note(
                        f"{LoopFusion.name}: fused loops over {s.var} and "
                        f"{nxt.var} (XDP ownership legality verified on "
                        "sections)"
                    )
                    stmts[i] = fused
                    del stmts[i + 1]
                    continue  # try to fuse more into the same loop
            out.append(s)
            i += 1
        return super().rewrite_block(Block(tuple(out)), loops)

    def _receives_after_sends(self, a: DoLoop, b: DoLoop) -> bool:
        """Decline (out loud) to fuse a loop that only initiates receives
        into one that sends: iteration ``i``'s receive would then delay the
        send of every later iteration, and nothing is overlapped."""
        if not (b.body.stmts and all(isinstance(s, RecvStmt) for s in b.body)
                and any(isinstance(s, SendStmt) for s in walk_stmts(a.body))):
            return False
        self.ctx.decline(
            LoopFusion.name,
            f"the loop over {b.var} only initiates receives; fused into the "
            f"sends of the loop over {a.var}, each receive would delay every "
            "later send and overlap nothing")
        return True
