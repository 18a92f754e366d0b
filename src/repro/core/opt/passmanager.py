"""Pass management.

A pass is an object with a ``name`` and ``run(program, ctx) -> Program``;
it records human-readable notes on the shared
:class:`~repro.core.analysis.ownership.CompilerContext` (``ctx.note``),
which the pass manager collects into a report — the compiler's explanation
of what it did to the data movement.  A pass that notes nothing, or only
``ctx.decline`` lines, returns a program equal to the one it was given."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from ...distributions import ProcessorGrid
from ..analysis.ownership import CompilerContext
from ..ir.nodes import Program
from ..ir.verify import verify_program

__all__ = ["Pass", "PassManager", "optimize"]


class Pass(Protocol):
    name: str

    def run(self, program: Program, ctx: CompilerContext) -> Program: ...


@dataclass
class PassResult:
    program: Program
    reports: list[str]

    def report_text(self) -> str:
        return "\n".join(self.reports)


class PassManager:
    """Runs a pipeline of passes, re-verifying the IR after each one that
    changed it."""

    def __init__(self, passes: Sequence[Pass], *, verify: bool = True):
        self.passes = list(passes)
        self.verify = verify

    def run(
        self,
        program: Program,
        nprocs: int,
        grid: ProcessorGrid | None = None,
    ) -> PassResult:
        ctx = CompilerContext.create(program, nprocs, grid)
        if self.verify:
            verify_program(program)
        current = program
        for p in self.passes:
            before = len(ctx.reports)
            ctx.program = previous = current
            current = p.run(current, ctx)
            if len(ctx.reports) == before:
                ctx.note(f"{p.name}: no opportunities")
            # Comparing two trees costs a hundredth of walking one.
            if self.verify and current != previous:
                verify_program(current)
        return PassResult(current, ctx.reports)


def optimize(
    program: Program,
    nprocs: int,
    *,
    grid: ProcessorGrid | None = None,
    level: int = 2,
    verify_comm: bool = False,
    backend: str = "msg",
) -> PassResult:
    """The default pipeline at an optimization level.

    * level 0 — verification only;
    * level 1 — transfer elimination + compute-rule elimination + cleanup;
    * level 2 — level 1 plus message vectorization, guard hoisting, loop
      fusion, await sinking, receive hoisting and loop-to-section (the
      full paper pipeline).

    With ``verify_comm`` the optimized program additionally goes through
    the static communication-safety verifier
    (:func:`~repro.core.analysis.verify_comm.verify_communication`); its
    report is appended to the pass reports and a
    :class:`~repro.core.analysis.verify_comm.CommVerificationError` is
    raised if it finds errors — the pipeline refuses to emit a program it
    can prove will misbehave.

    ``backend`` is the section-5 binding target the program will run on
    (``"msg"`` or ``"shmem"``): it parameterizes destination binding
    (owner pids vs. owner-arithmetic addresses) and the phrasing of the
    communication-safety verifier's obligations.
    """
    from .await_motion import AwaitSinking
    from .binding import DestinationBinding
    from .cleanup import Cleanup
    from .compute_rule_elim import ComputeRuleElimination
    from .fusion import LoopFusion
    from .guard_motion import GuardHoisting
    from .loop_to_section import LoopToSection
    from .recv_motion import ReceiveHoisting
    from .transfer_elim import TransferElimination
    from .vectorize import MessageVectorization

    if level <= 0:
        passes: list[Pass] = []
    elif level == 1:
        passes = [TransferElimination(), DestinationBinding(target=backend),
                  ComputeRuleElimination(), Cleanup()]
    else:
        passes = [
            TransferElimination(),
            MessageVectorization(),
            DestinationBinding(target=backend),
            ComputeRuleElimination(),
            GuardHoisting(),
            LoopFusion(),
            AwaitSinking(),
            ReceiveHoisting(),
            LoopToSection(),
            Cleanup(),
        ]
    result = PassManager(passes).run(program, nprocs, grid)
    if verify_comm:
        from ..analysis.verify_comm import (
            CommVerificationError, verify_communication,
        )

        report = verify_communication(
            result.program, nprocs, grid=grid, backend=backend
        )
        result.reports.extend(report.format().splitlines())
        if not report.ok:
            raise CommVerificationError(report)
    return result
