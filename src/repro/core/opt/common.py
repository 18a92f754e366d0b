"""Shared machinery for the optimization passes.

Two recurring needs:

* **Ordered rewriting with ownership tracking** — a pass that reasons from
  the *initial* data distribution may only do so for arrays whose ownership
  has not been changed by earlier statements.  :class:`OrderedRewriter`
  walks blocks in program order, maintaining the set of "dirty" arrays
  (those named by any ownership-moving statement so far).

* **Dynamic guard simulation** — the FFT redistribution loop (paper
  section 4) changes ownership *inside* the guarded loop, so deciding
  which iterations a processor executes means carrying its ownership
  across iterations.  :func:`dynamic_guard_true_iterations` does so on
  sections, like the paper's section 3.1 ``iown()``: ownership is a list
  of disjoint sections, the guard a disjoint-cover test, a release a
  section difference (and a body that leaves the guard's array alone gets
  the closed form of :meth:`OwnershipAnalysis.guard_true_iterations`).
"""

from __future__ import annotations

from ..analysis.consteval import ConstEnv
from ..analysis.ownership import (
    ITERATION_CAP, CompilerContext, OwnershipAnalysis,
)
from ..analysis.refsets import stmt_refsets
from ..ir.nodes import (
    ArrayRef, Block, DoLoop, Guarded, IfStmt, Index, Program, RecvStmt,
    SendStmt, Stmt, VarRef,
)
from ..ir.printer import print_ref
from ..ir.visitor import subscript_exprs, walk_stmts
from ..sections import disjoint_cover_equal, section_difference

__all__ = [
    "OrderedRewriter",
    "ownership_ops",
    "loop_var_dims",
    "dynamic_guard_true_iterations",
]


def ownership_ops(stmt: Stmt | Block) -> set[str]:
    """Arrays whose ownership a statement subtree may move."""
    out: set[str] = set()
    for s in walk_stmts(stmt):
        match s:
            case SendStmt(ref, op, _):
                if op.moves_ownership:
                    out.add(ref.var)
            case RecvStmt(into, op, _):
                if op.moves_ownership:
                    out.add(into.var)
    return out


def loop_var_dims(ref: ArrayRef, var: str) -> list[int] | None:
    """Dimensions of ``ref`` subscripted by exactly ``var``, or ``None`` if
    the variable occurs in any other form — the guard shape that
    :meth:`OwnershipAnalysis.guard_true_iterations` decides."""
    dims = [d for d, sub in enumerate(ref.subs) if sub == Index(VarRef(var))]
    if any(VarRef(var) in subscript_exprs(sub)
           for d, sub in enumerate(ref.subs) if d not in dims):
        return None
    return dims


class OrderedRewriter:
    """Program-order block rewriting with dirty-array tracking.

    Subclasses override :meth:`visit`, which receives each statement with
    the enclosing loop stack; ``self.dirty`` holds the arrays whose initial
    distribution is no longer trustworthy at that point.  The default
    recurses into structured statements.
    """

    def __init__(self, ctx: CompilerContext):
        self.ctx = ctx
        self.analysis = OwnershipAnalysis(ctx)
        self.dirty: set[str] = set()

    def rewrite_program(self, program: Program) -> Program:
        return Program(program.decls, self.rewrite_block(program.body, []))

    def rewrite_block(self, block: Block, loops: list[DoLoop]) -> Block:
        out: list[Stmt] = []
        for s in block:
            replacement = self.visit(s, loops)
            if replacement is None:
                pass
            elif isinstance(replacement, list):
                out.extend(replacement)
            else:
                out.append(replacement)
            # Whatever the rewrite produced, the original statement's
            # ownership effects have happened by this point in program
            # order (rewrites preserve semantics).
            self.dirty |= ownership_ops(s)
        return Block(tuple(out))

    def visit(self, stmt: Stmt, loops: list[DoLoop]) -> Stmt | list[Stmt] | None:
        return self.recurse(stmt, loops)

    def decline_guard(self, pass_name: str, loop: DoLoop, ref: ArrayRef) -> None:
        self.ctx.decline(
            pass_name,
            f"iown({print_ref(ref)}) in the loop over {loop.var} is not "
            "decidable at compile time (symbolic bounds or subscripts, or "
            f"more than {ITERATION_CAP} iterations)")

    def recurse(self, stmt: Stmt, loops: list[DoLoop]) -> Stmt:
        match stmt:
            case Guarded(rule, body):
                return Guarded(rule, self.rewrite_block(body, loops))
            case DoLoop(var, lo, hi, step, body):
                return DoLoop(var, lo, hi, step, self.rewrite_block(body, loops + [stmt]))
            case IfStmt(cond, then, orelse):
                return IfStmt(
                    cond,
                    self.rewrite_block(then, loops),
                    self.rewrite_block(orelse, loops),
                )
            case _:
                return stmt


def dynamic_guard_true_iterations(
    loop: DoLoop,
    guard_ref: ArrayRef,
    ctx: CompilerContext,
    env: ConstEnv,
    pid: int,
) -> list[int] | None:
    """Iterations of ``loop`` at which ``iown(guard_ref)`` holds on ``pid``,
    accounting for ownership transfers performed by the guarded body in
    earlier iterations.

    Returns ``None`` when anything is unresolvable (symbolic bounds,
    unresolvable sections) — callers must then keep the guard.  Acquired
    sections count as owned immediately (a transitional section is owned,
    Figure 1)."""
    analysis = OwnershipAnalysis(ctx)
    if guard_ref.var not in ownership_ops(loop.body):
        return analysis.guard_true_iterations(loop, guard_ref, env, pid)
    vals = analysis.iteration_values(loop, env)
    if vals is None:
        return None
    # What pid owns of the guard's array, as pairwise-disjoint sections.
    owned = ctx.layouts[guard_ref.var].distribution.owned_sections(pid)
    true_iters: list[int] = []
    for v in vals:
        env_v = env.at_pid(pid + 1).bind(**{loop.var: v})
        sec = analysis.resolve(guard_ref, env_v)
        if sec is None:
            return None
        if not disjoint_cover_equal(sec, owned):
            continue
        true_iters.append(v)
        # Apply this iteration's ownership effects before testing the
        # next one.
        for s in loop.body:
            rs = stmt_refsets(s, ctx, env_v)
            if rs.unknown:
                return None
            for name, released in rs.released:
                if name == guard_ref.var:
                    owned = [piece for o in owned
                             for piece in section_difference(o, released)]
            for name, acquired in rs.acquired:
                if name == guard_ref.var:
                    new = [acquired]
                    for o in owned:
                        new = [piece for n in new
                               for piece in section_difference(n, o)]
                    owned.extend(new)
    return true_iters
