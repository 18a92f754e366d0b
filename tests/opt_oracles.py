"""The optimizer's former point-enumerating analyses, kept as reference
implementations for ``tests/test_opt_algebra.py``.

``dynamic_guard_true_iterations`` materialises every owned array element
as a Python set (via ``Section.__iter__``) and runs the guarded body's
ownership moves in program order, as the optimizer's flow does (a move it
cannot resolve, or one under a rule, makes ownership unknown);
``can_fuse`` builds one ``RefSets`` per processor and iteration and tests
every iteration pair.
Both carry the silent caps they had in ``src/`` — ``None`` / ``False``
past them — so a differential test must stay under the caps.
"""

from __future__ import annotations

from repro.core.analysis.consteval import ConstEnv
from repro.core.analysis.ownership import CompilerContext, OwnershipAnalysis
from repro.core.analysis.refsets import stmt_refsets
from repro.core.ir.visitor import walk_stmts
from repro.core.ir.nodes import (
    ArrayRef, Block, BoolConst, DoLoop, IfStmt, RecvStmt, SendStmt, Stmt,
)

ELEMENT_SIM_CAP = 65536
_PAIR_CAP = 4096


def _owned_points(
    ctx: CompilerContext, name: str, pid: int
) -> set[tuple[int, ...]] | None:
    dist = ctx.layouts[name].distribution
    if dist.index_space.size > ELEMENT_SIM_CAP:
        return None
    out: set[tuple[int, ...]] = set()
    for sec in dist.owned_sections(pid):
        out.update(sec)
    return out


def _moves(stmt: Stmt, var: str) -> bool:
    """Does ``stmt`` move ownership of ``var``?"""
    return any(isinstance(s, (SendStmt, RecvStmt)) and s.op.moves_ownership
               and (s.ref if isinstance(s, SendStmt) else s.into).var == var
               for s in walk_stmts(stmt))


def dynamic_guard_true_iterations(
    loop: DoLoop,
    guard_ref: ArrayRef,
    ctx: CompilerContext,
    env: ConstEnv,
    pid: int,
) -> list[int] | None:
    analysis = OwnershipAnalysis(ctx)
    vals = analysis.iteration_values(loop, env)
    if vals is None:
        return None
    owned = _owned_points(ctx, guard_ref.var, pid)
    if owned is None:
        return None
    (guarded,) = loop.body

    def apply(stmt: Stmt | Block, env_v: ConstEnv) -> None:
        """This iteration's moves of the guard's array, in program order;
        one that cannot be resolved makes its ownership unknown."""
        nonlocal owned
        match stmt:
            case Block(stmts):
                for s in stmts:
                    apply(s, env_v)
            case SendStmt(ref, op, _) | RecvStmt(ref, op, _) if (
                    op.moves_ownership and ref.var == guard_ref.var and owned is not None):
                sec = analysis.resolve(ref, env_v)
                if sec is None:
                    owned = None
                elif isinstance(stmt, SendStmt):
                    owned -= set(sec)
                else:
                    owned |= set(sec)
            case DoLoop() as inner if _moves(inner, guard_ref.var):
                inner_vals = analysis.iteration_values(inner, env_v)
                if inner_vals is None:
                    owned = None
                for v in inner_vals or ():
                    apply(inner.body, env_v.bind(**{inner.var: v}))
            case _ if _moves(stmt, guard_ref.var):  # a move under a rule
                owned = None

    true_iters: list[int] = []
    for v in vals:
        env_v = env.at_pid(pid + 1).bind(**{loop.var: v})
        sec = analysis.resolve(guard_ref, env_v)
        if sec is None or owned is None:
            return None
        if set(sec) <= owned:
            true_iters.append(v)
            # Its ownership effects count from the next iteration.
            apply(guarded.body, env_v)
    return true_iters


def can_fuse(a: DoLoop, b: DoLoop, ctx: CompilerContext) -> bool:
    analysis = OwnershipAnalysis(ctx)
    env = ctx.consts
    va = analysis.iteration_values(a, env)
    vb = analysis.iteration_values(b, env)
    if va is None or vb is None or va != vb:
        return False
    if len(va) * len(va) > _PAIR_CAP:
        return False
    for pid in range(ctx.nprocs):
        penv = env.at_pid(pid + 1)
        sets_a = []
        sets_b = []
        for v in va:
            ea = penv.bind(**{a.var: v})
            eb = penv.bind(**{b.var: v})
            ra = stmt_refsets(_as_stmt(a.body), ctx, ea)
            rb = stmt_refsets(_as_stmt(b.body), ctx, eb)
            if ra.unknown or rb.unknown:
                return False
            sets_a.append(ra)
            sets_b.append(rb)
        for i_idx in range(len(va)):
            for j_idx in range(i_idx + 1, len(va)):
                # After fusion B(i) runs before A(j) (i < j): they must be
                # independent.
                if sets_b[i_idx].conflicts_with(sets_a[j_idx]):
                    return False
    return True


def _as_stmt(body: Block) -> Stmt:
    return IfStmt(BoolConst(True), body)
