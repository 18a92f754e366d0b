"""The optimizer's former point-enumerating analyses, kept verbatim as
reference implementations for ``tests/test_opt_algebra.py``.

``dynamic_guard_true_iterations`` materialises every owned array element
as a Python set (via ``Section.__iter__``); ``can_fuse`` builds one
``RefSets`` per processor and iteration and tests every iteration pair.
Both carry the silent caps they had in ``src/`` — ``None`` / ``False``
past them — so a differential test must stay under the caps.
"""

from __future__ import annotations

from repro.core.analysis.consteval import ConstEnv
from repro.core.analysis.ownership import CompilerContext, OwnershipAnalysis
from repro.core.analysis.refsets import stmt_refsets
from repro.core.ir.nodes import ArrayRef, Block, BoolConst, DoLoop, IfStmt, Stmt

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
    # Other arrays' ownership the body might move, tracked lazily.
    other_owned: dict[str, set[tuple[int, ...]]] = {guard_ref.var: owned}

    def points_of(name: str) -> set[tuple[int, ...]] | None:
        if name not in other_owned:
            pts = _owned_points(ctx, name, pid)
            if pts is None:
                return None
            other_owned[name] = pts
        return other_owned[name]

    true_iters: list[int] = []
    for v in vals:
        env_v = env.at_pid(pid + 1).bind(**{loop.var: v})
        sec = analysis.resolve(guard_ref, env_v)
        if sec is None:
            return None
        guard_pts = set(sec)
        if guard_pts <= other_owned[guard_ref.var]:
            true_iters.append(v)
            # Apply this iteration's ownership effects before testing the
            # next one.
            for s in loop.body:
                rs = stmt_refsets(s, ctx, env_v)
                if rs.unknown:
                    return None
                for name, rsec in rs.released:
                    pts = points_of(name)
                    if pts is None:
                        return None
                    pts.difference_update(rsec)
                for name, asec in rs.acquired:
                    pts = points_of(name)
                    if pts is None:
                        return None
                    pts.update(asec)
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
