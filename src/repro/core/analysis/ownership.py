"""Static ownership analysis on sections and iteration spaces.

Because the paper's setting fixes the processor grid, the HPF partitioning
and (in its examples) the loop bounds at compile time, ownership questions
("which processor owns ``B[i]`` for each ``i`` in this loop?") can be
decided exactly: in closed form from the distribution's owned triplets
where possible, otherwise by evaluating subscripts over the *iteration*
space (never the array's elements) under an explicit cap, so that the
compiler degrades to *conservative* (optimization skipped, and reported)
rather than slow on large or symbolic programs.

All pids here are the engine's 0-based ids; ``mypid``-pinning uses the
paper's 1-based ids via :class:`~repro.core.analysis.consteval.ConstEnv`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ...distributions import ProcessorGrid, Segmentation
from ..errors import CompilationError
from ..ir.nodes import (
    ArrayDecl, ArrayRef, DoLoop, Full, Index, Program, ScalarDecl, VarRef,
)
from ..sections import Section, Triplet, disjoint_cover_equal
from .consteval import ConstEnv, const_eval, program_constants, resolve_section_const
from .layouts import build_layouts

__all__ = ["CompilerContext", "OwnershipAnalysis", "ITERATION_CAP"]

#: Maximum iteration-space points an analysis will enumerate before giving
#: up (conservatively).
ITERATION_CAP = 65536


@dataclass
class CompilerContext:
    """Everything the compile-time passes know about the target program."""

    program: Program
    nprocs: int
    grid: ProcessorGrid
    layouts: dict[str, Segmentation]
    consts: ConstEnv
    reports: list[str] = field(default_factory=list)

    @classmethod
    def create(
        cls,
        program: Program,
        nprocs: int,
        grid: ProcessorGrid | None = None,
    ) -> "CompilerContext":
        grid = grid if grid is not None else ProcessorGrid((nprocs,))
        if grid.size != nprocs:
            raise CompilationError(f"grid {grid.shape} != {nprocs} processors")
        return cls(
            program=program,
            nprocs=nprocs,
            grid=grid,
            layouts=build_layouts(program, grid),
            consts=program_constants(program, nprocs),
        )

    def array_decl(self, name: str) -> ArrayDecl | None:
        for d in self.program.decls:
            if d.name == name:
                return d if isinstance(d, ArrayDecl) else None
        return None

    def is_exclusive(self, name: str) -> bool:
        d = self.array_decl(name)
        return d is not None and not d.universal

    def note(self, message: str) -> None:
        self.reports.append(message)

    def decline(self, pass_name: str, reason: str) -> None:
        """Report that a pass met its pattern but could not decide it."""
        self.note(f"{pass_name}: declined — {reason}")


class OwnershipAnalysis:
    """Answer ownership questions about references under loop bindings."""

    def __init__(self, ctx: CompilerContext):
        self.ctx = ctx

    # ------------------------------------------------------------------ #
    # single references
    # ------------------------------------------------------------------ #

    def resolve(self, ref: ArrayRef, env: ConstEnv) -> Section | None:
        decl = self.ctx.array_decl(ref.var)
        if decl is None or decl.universal:
            return None
        return resolve_section_const(ref, decl, env)

    def owner_of(self, ref: ArrayRef, env: ConstEnv) -> int | None:
        """The unique 0-based owner pid of ``ref`` under ``env``, or ``None``
        if unknown / spanning several processors."""
        if not self.ctx.is_exclusive(ref.var):
            return None
        sec = self.resolve(ref, env)
        if sec is None:
            return None
        return self.ctx.layouts[ref.var].distribution.owner_of_section(sec)

    def owned_by(self, ref: ArrayRef, env: ConstEnv, pid: int) -> bool | None:
        """Does (0-based) ``pid`` initially own all of ``ref``?  ``None``
        when the section is not compile-time resolvable."""
        sec = self.resolve(ref, env)
        if sec is None:
            return None
        dist = self.ctx.layouts[ref.var].distribution
        return disjoint_cover_equal(sec, dist.owned_sections(pid))

    # ------------------------------------------------------------------ #
    # loops
    # ------------------------------------------------------------------ #

    def iteration_values(self, loop: DoLoop, env: ConstEnv) -> list[int] | None:
        """Concrete iteration values of a loop, or ``None`` if symbolic or
        too large."""
        lo = const_eval(loop.lo, env)
        hi = const_eval(loop.hi, env)
        step = const_eval(loop.step, env)
        if lo is None or hi is None or step is None or step == 0:
            return None
        lo_i, hi_i, step_i = int(lo), int(hi), int(step)
        count = max(0, (hi_i - lo_i) // step_i + 1) if step_i > 0 else max(
            0, (lo_i - hi_i) // -step_i + 1
        )
        if count > ITERATION_CAP:
            return None
        return list(range(lo_i, hi_i + (1 if step_i > 0 else -1), step_i))

    def iteration_space(
        self, loops: list[DoLoop], env: ConstEnv
    ) -> Iterator[dict[str, int]] | None:
        """Cartesian product of nested loop values as binding dicts, or
        ``None`` if any loop is symbolic or the product exceeds the cap.

        Inner loop bounds may reference outer induction variables.
        """
        # Validate sizes first with outermost bindings where possible.
        def gen(idx: int, bound: dict[str, int], budget: list[int]):
            if idx == len(loops):
                yield dict(bound)
                return
            vals = self.iteration_values(loops[idx], env.bind(**bound))
            if vals is None:
                raise _Symbolic()
            for v in vals:
                budget[0] -= 1
                if budget[0] < 0:
                    raise _Symbolic()
                bound[loops[idx].var] = v
                yield from gen(idx + 1, bound, budget)
            bound.pop(loops[idx].var, None)

        try:
            return list(gen(0, {}, [ITERATION_CAP]))
        except _Symbolic:
            return None

    def same_owner_forall(
        self,
        ref_a: ArrayRef,
        ref_b: ArrayRef,
        loops: list[DoLoop],
        env: ConstEnv,
    ) -> bool:
        """True iff for every point of the (fully constant) iteration space
        the owners of both references are known, unique, and equal."""
        space = self.iteration_space(loops, env)
        if space is None:
            return False
        for bindings in space:
            e = env.bind(**bindings)
            oa = self.owner_of(ref_a, e)
            ob = self.owner_of(ref_b, e)
            if oa is None or ob is None or oa != ob:
                return False
        return True

    def owner_table(
        self, ref: ArrayRef, loops: list[DoLoop], env: ConstEnv
    ) -> dict[tuple[int, ...], int] | None:
        """Map from iteration tuple to owning pid, or ``None`` if any point
        is unresolvable."""
        space = self.iteration_space(loops, env)
        if space is None:
            return None
        out: dict[tuple[int, ...], int] = {}
        for bindings in space:
            owner = self.owner_of(ref, env.bind(**bindings))
            if owner is None:
                return None
            out[tuple(bindings[l.var] for l in loops)] = owner
        return out

    def guard_true_iterations(
        self, loop: DoLoop, guard_ref: ArrayRef, env: ConstEnv, pid: int
    ) -> list[int] | None:
        """Iteration values of ``loop``, in order, at which
        ``iown(guard_ref)`` holds on ``pid`` by *initial* ownership, or
        ``None`` if unresolvable.  Closed form: the owned region is a
        product of per-dimension triplets, so a dimension subscripted by
        the bare loop variable admits the iterations inside its owned
        triplets and every other dimension is owned or not for the whole
        loop.  The variable must not occur in ``guard_ref`` otherwise."""
        vals = self.iteration_values(loop, env)
        if not vals:
            return vals  # symbolic (None) or zero-trip ([])
        on_var = [sub == Index(VarRef(loop.var)) for sub in guard_ref.subs]
        rest = self.resolve(
            ArrayRef(guard_ref.var, tuple(
                Full() if v else sub for v, sub in zip(on_var, guard_ref.subs))),
            env.at_pid(pid + 1))
        if rest is None:
            return None
        step = vals[1] - vals[0] if len(vals) > 1 else 1
        runs = [Triplet(vals[0], vals[-1], step)]
        pieces = self.ctx.layouts[guard_ref.var].distribution.owned_pieces(pid)
        for v, t, owned in zip(on_var, rest.dims, pieces):
            if v:
                runs = [m for r in runs for o in owned
                        if (m := r.intersect(o)) is not None]
            elif t.size != sum(
                    m.size for o in owned if (m := t.intersect(o)) is not None):
                return []
        return sorted((i for r in runs for i in r), reverse=step < 0)


class _Symbolic(Exception):
    pass
