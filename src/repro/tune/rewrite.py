"""Phase detection and phased program regeneration.

The tuner treats a program like the section-4 FFT as a sequence of
*pencil phases*: passes that apply a kernel to every 1-D pencil of one
array along some axis.  :func:`detect_phases` recovers that sequence from
the IR (it is insensitive to how the input was hand-optimized — guarded
naive loops, localized loops and pipelined loops all contain the same
kernel calls); :func:`generate_phased_program` re-emits the program from
scratch under a chosen per-phase placement, with compiler-planned
redistribution between phases.

Generated code uses the idioms of the paper's hand stages: compute loops
localized with ``mylb``/``myub`` over the layout's distributed axis and
slab-guarded with ``iown`` (exact for ``BLOCK``, a filter for ``CYCLIC``),
and one of two redistribution realizations per phase edge:

* ``bulk`` — the element-exact plan all at once after the producing
  phase, the consumer guarded by hoisted per-slab ``await`` (stage 1);
* ``pipelined`` — each move split along the producing loop's axis, the
  sends at the end of that loop's body so transfer overlaps the remaining
  slabs, the consuming ``await`` sunk per pencil (stage 2).

The transfer statements come from :mod:`repro.core.redistgen`: in closed
form in ``mypid`` whenever the plan has one, else one guarded block per
processor under a ``//`` comment giving the reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..core.analysis.layouts import build_segmentation
from ..core.ir.nodes import (
    ArrayDecl, ArrayRef, Block, CallStmt, DoLoop, Full, Guarded, IfStmt,
    Program, Stmt,
)
from ..core.ir.printer import print_program, print_stmt
from ..core.redistgen import plan_transfers
from ..distributions import (
    Distribution, ProcessorGrid, RedistributionPlan, plan_redistribution,
)
from .space import LayoutCandidate, candidate_segmentation

__all__ = [
    "PhaseSpec",
    "REALIZATIONS",
    "TuneError",
    "detect_phases",
    "edge_realization",
    "generate_phased_program",
]

REALIZATIONS = ("bulk", "pipelined")

_VARS = "ijklmnpqr"


class TuneError(Exception):
    """The program is outside the tuner's scope (or tuning failed)."""


@dataclass(frozen=True)
class PhaseSpec:
    """One pencil phase: ``kernel`` applied along ``axis`` of ``var``."""

    var: str
    kernel: str
    axis: int  # 0-based pencil axis

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kernel} along axis {self.axis + 1} of {self.var}"


def _walk_calls(body: Iterable[Stmt]) -> Iterator[CallStmt]:
    for s in body:
        match s:
            case CallStmt():
                yield s
            case Guarded(_, inner) | DoLoop(_, _, _, _, inner):
                yield from _walk_calls(inner)
            case IfStmt(_, then, orelse):
                yield from _walk_calls(then)
                yield from _walk_calls(orelse)
            case _:
                pass


def detect_phases(program: Program) -> list[PhaseSpec]:
    """Recover the pencil-phase sequence of a program.

    Every kernel call with exactly one full (``*``) subscript on exactly
    one array argument is a pencil operation; consecutive calls with the
    same (array, kernel, axis) fold into one phase.  Calls that do not fit
    the pencil shape make the program untunable.
    """
    phases: list[PhaseSpec] = []
    for call in _walk_calls(program.body):
        refs = [
            a for a in call.args
            if isinstance(a, ArrayRef) and not a.is_element()
        ]
        if len(refs) != 1:
            raise TuneError(
                f"call {call.name}: need exactly one array-section argument "
                f"to detect a pencil phase (got {len(refs)})"
            )
        ref = refs[0]
        full_axes = [i for i, s in enumerate(ref.subs) if isinstance(s, Full)]
        if len(full_axes) != 1:
            raise TuneError(
                f"call {call.name}({ref.var}[...]): pencil phases need "
                f"exactly one '*' subscript (got {len(full_axes)})"
            )
        spec = PhaseSpec(ref.var, call.name, full_axes[0])
        if not phases or phases[-1] != spec:
            phases.append(spec)
    if not phases:
        raise TuneError("no kernel calls found; nothing to tune")
    return phases


# ---------------------------------------------------------------------- #
# code generation
# ---------------------------------------------------------------------- #


def _ref(var: str, rank: int, parts: dict[int, str]) -> str:
    subs = [parts.get(a, "*") for a in range(rank)]
    return f"{var}[{', '.join(subs)}]"


def _single_dist_axis(cand: LayoutCandidate) -> int:
    axes = cand.distributed_axes()
    if len(axes) != 1:
        raise TuneError(
            f"phased generation needs exactly one distributed axis "
            f"(candidate {cand.key} has {len(axes)})"
        )
    return axes[0]


def _phase_loop(
    decl: ArrayDecl,
    phase: PhaseSpec,
    cand: LayoutCandidate,
    *,
    guard: str,
    fused: Sequence[Stmt] = (),
) -> list[str]:
    """The compute loop of one phase under one layout.

    ``guard`` is ``"iown"`` (no incoming data), ``"await"`` (hoisted
    per-slab wait) or ``"await-sunk"`` (per-pencil wait).  ``fused`` are
    the next edge's pipelined sends, appended to the outer loop body.
    """
    rank = decl.rank
    d = _single_dist_axis(cand)
    if d == phase.axis:
        raise TuneError("phase axis cannot be distributed")
    t = next(a for a in range(rank) if a not in (phase.axis, d))
    dv, tv = _VARS[d], _VARS[t]
    full = _ref(decl.name, rank, {})
    slab = _ref(decl.name, rank, {d: dv})
    pencil = _ref(decl.name, rank, {d: dv, t: tv})
    lo_d, hi_d = decl.bounds[d]
    lo_t, hi_t = decl.bounds[t]
    lines = [
        f"do {dv} = max({lo_d}, mylb({full}, {d + 1})), "
        f"min({hi_d}, myub({full}, {d + 1}))"
    ]
    if guard == "await-sunk":
        lines += [
            f"  do {tv} = {lo_t}, {hi_t}",
            f"    await({pencil}) : {{",
            f"      call {phase.kernel}({pencil})",
            f"    }}",
            f"  enddo",
        ]
    else:
        head = "await" if guard == "await" else "iown"
        lines += [
            f"  {head}({slab}) : {{",
            f"    do {tv} = {lo_t}, {hi_t}",
            f"      call {phase.kernel}({pencil})",
            f"    enddo",
            f"  }}",
        ]
    return lines + [line for s in fused for line in print_stmt(s, 1)] + ["enddo"]


def edge_realization(
    realization: str,
    source: Distribution,
    plan: RedistributionPlan,
    *,
    first_edge: bool,
) -> tuple[str | None, int | None]:
    """What :func:`generate_phased_program` builds on one phase edge, and
    the source loop axis a pipelined edge fuses on.

    An edge with no moves emits nothing (``None``); ``pipelined`` needs a
    producing loop (not the first edge) and a single distributed source
    axis to fuse on, else it degrades to ``bulk``.  The prefilter prices
    edges through this same function, so the static score is of the
    program that is actually generated.
    """
    if not plan.moves:
        return None, None
    if realization != "pipelined":
        return realization, None
    src_axes = [a for a, s in enumerate(source.specs) if not s.collapsed]
    if first_edge or len(src_axes) != 1:
        return "bulk", None
    return "pipelined", src_axes[0]


def generate_phased_program(
    program: Program,
    phases: Sequence[PhaseSpec],
    layouts: Sequence[LayoutCandidate],
    nprocs: int,
    *,
    realization: str = "bulk",
) -> str:
    """Re-emit ``program`` as its phase sequence under chosen placements.

    ``layouts[p]`` is the placement for ``phases[p]``; the initial
    placement is the declaration's.  Redistribution between differing
    placements is planned element-exactly and emitted by
    :mod:`repro.core.redistgen` after the producing phase (``bulk``) or
    fused into it per outer slab (``pipelined``).
    """
    if realization not in REALIZATIONS:
        raise TuneError(
            f"unknown realization {realization!r} (choose from {REALIZATIONS})"
        )
    if len(layouts) != len(phases):
        raise TuneError("need one layout per phase")
    names = {p.var for p in phases}
    if len(names) != 1:
        raise TuneError(f"phased generation handles one array (got {names})")
    decl = next(d for d in program.array_decls() if d.name == phases[0].var)
    if decl.universal or decl.dist is None:
        raise TuneError(f"{decl.name} has no placement to tune")
    grid = ProcessorGrid((nprocs,))
    var = decl.name
    dists = [build_segmentation(decl, grid).distribution] + [
        candidate_segmentation(decl, cand, nprocs).distribution
        for cand in layouts
    ]

    # Per phase: the transfer text before its loop, its loop's guard, and
    # the sends of the next edge when that edge is fused into the loop.
    before: list[list[str]] = []
    guards: list[str] = []
    fused: list[tuple[Stmt, ...]] = [() for _ in phases]
    for idx in range(len(phases)):
        current, target = dists[idx], dists[idx + 1]
        plan = plan_redistribution(current, target)
        real, src_axis = edge_realization(
            realization, current, plan, first_edge=(idx == 0)
        )
        lines: list[str] = []
        guard = "iown" if real is None else "await"
        if real == "pipelined":
            t = plan_transfers(var, plan, fuse=(src_axis, _VARS[src_axis]))
            fused[idx - 1] = t.sends
            lines = t.text(t.recvs)
            guard = "await-sunk"
        elif real == "bulk":
            lines = plan_transfers(var, plan).text()
        before.append(lines)
        guards.append(guard)

    out = [print_program(Program((decl,), Block())).rstrip("\n"), ""]
    for idx, (phase, cand) in enumerate(zip(phases, layouts)):
        if before[idx]:
            out += before[idx] + [""]
        out.append(f"// phase {idx + 1}: {phase.kernel} along axis "
                   f"{phase.axis + 1} under {cand.dist}")
        out += _phase_loop(decl, phase, cand, guard=guards[idx],
                           fused=fused[idx])
        out.append("")
    return "\n".join(out)
