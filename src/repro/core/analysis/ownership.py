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

from ...distributions import ProcessorGrid, Segmentation
from ..errors import CompilationError
from ..ir.nodes import ArrayDecl, ArrayRef, DoLoop, Program
from ..sections import Section
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
