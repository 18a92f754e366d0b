"""Phase detection and phased program regeneration.

The tuner treats a program like the section-4 FFT as a sequence of
*pencil phases*: passes that apply a kernel to every 1-D pencil of one
array along some axis.  :func:`detect_phases` recovers that sequence from
the IR (it is insensitive to how the input was hand-optimized — guarded
naive loops, localized loops and pipelined loops all contain the same
kernel calls); :func:`generate_phased_program` re-emits the program from
scratch under a chosen per-phase placement, with compiler-planned
redistribution between phases.

Generated code uses the idioms of the paper's hand stages:

* compute loops localized with ``mylb``/``myub`` over the layout's
  distributed axis, slab-guarded with ``iown`` (exact for ``BLOCK``,
  a filter for ``CYCLIC``);
* ``bulk`` redistribution: one destination-bound ``-=>``/``<=-`` pair per
  element-exact :class:`~repro.distributions.RedistributionPlan` move
  after the producing phase, consuming phase guarded by hoisted per-slab
  ``await`` (the stage-1 shape, with vectorized messages);
* ``pipelined`` redistribution: each move split along the producing
  phase's loop axis and fused into that loop, so transfer overlaps the
  remaining slabs' computation; the consuming ``await`` is sunk to
  per-pencil granularity (the stage-2 shape);
* ``planner`` redistribution: the moves are packed into bounded rounds by
  :func:`~repro.core.collectives.planner.plan_bounded_redistribution`
  under a ``max_temp_frac`` temp-memory budget, each round closed by its
  ``await`` epilogue before the next round's sends (the memory-bounded
  shape of the ``repro redist`` planner, here as a tuning knob).

Transfer statements that share a guard are emitted as one guarded block:
every processor evaluates every top-level guard, so at P processors a
flat per-move emission charges P × moves guard evaluations — enough to
erase a repartitioning's win at n=16/P=16.  Grouping charges P × senders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..core.analysis.layouts import build_segmentation
from ..core.collectives.planner import plan_bounded_redistribution
from ..core.ir.nodes import (
    ArrayDecl, ArrayRef, Block, CallStmt, DoLoop, Full, Guarded, IfStmt,
    Program, Stmt,
)
from ..core.sections import Section, Triplet
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
    "planner_redistribution_text",
]

REALIZATIONS = ("bulk", "pipelined", "planner")

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


def _sub_text(t: Triplet) -> str:
    if t.size == 1:
        return str(t.lo)
    base = f"{t.lo}:{t.hi}"
    return base if t.step == 1 else f"{base}:{t.step}"


def _sec_text(var: str, sec: Section) -> str:
    return f"{var}[{', '.join(_sub_text(t) for t in sec.dims)}]"


def _decl_text(decl: ArrayDecl) -> str:
    bounds = ",".join(f"{lo}:{hi}" for lo, hi in decl.bounds)
    out = f"array {decl.name}[{bounds}] dist {decl.dist}"
    if decl.segment_shape is not None:
        out += f" seg ({','.join(map(str, decl.segment_shape))})"
    return out + f" dtype {decl.dtype}"


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
    fused: Sequence[str] = (),
) -> list[str]:
    """The compute loop of one phase under one layout.

    ``guard`` is ``"iown"`` (no incoming data), ``"await"`` (hoisted
    per-slab wait) or ``"await-sunk"`` (per-pencil wait).  ``fused`` lines
    are appended inside the outer loop body (pipelined sends).
    """
    rank = decl.rank
    n = decl.shape
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
    lines += [f"  {line}" for line in fused]
    lines.append("enddo")
    return lines


def _emit_grouped(pairs: Sequence[tuple[str, str]]) -> list[str]:
    """Render ``(guard, statement)`` pairs, merging consecutive runs that
    share a guard into one guarded block.

    Guards at statement level are evaluated by *every* processor, so a
    run of k statements under the same guard costs P × k evaluations flat
    but only P when grouped — the difference between a repartitioning
    that beats the naive program and one that loses to it.
    """
    out: list[str] = []
    i = 0
    while i < len(pairs):
        guard = pairs[i][0]
        j = i
        while j < len(pairs) and pairs[j][0] == guard:
            j += 1
        body = [p[1] for p in pairs[i:j]]
        if len(body) == 1:
            out.append(f"{guard} : {{ {body[0]} }}")
        else:
            out.append(f"{guard} : {{")
            out.extend(f"  {b}" for b in body)
            out.append("}")
        i = j
    return out


def _dedup_moves(moves: Iterable) -> list:
    """Sorted, deduplicated moves with degenerate self-sends dropped (a
    processor messaging itself deadlocks; the data is already in place)."""
    seen: set[tuple[int, int, str]] = set()
    out = []
    for m in sorted(moves, key=lambda m: (m.src, m.dst, str(m.section))):
        key = (m.src, m.dst, str(m.section))
        if m.src == m.dst or key in seen:
            continue
        seen.add(key)
        out.append(m)
    return out


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


def _planner_rounds(
    var: str,
    current,
    target,
    plan,
    decl: ArrayDecl,
    *,
    max_temp_frac: float,
) -> list[str]:
    """Bounded-round redistribution text: per round, grouped sends, then
    grouped receives, then the ``await`` epilogue that closes the round —
    receivers drain a round before the program order reaches the next
    round's transfers, which is what bounds their temp memory."""
    schedule = plan_bounded_redistribution(
        current,
        target,
        max_temp_frac=max_temp_frac,
        elem_bytes=np.dtype(decl.dtype).itemsize,
        plan=plan,
    )
    lines: list[str] = []
    for r, rnd in enumerate(schedule.rounds):
        moves = _dedup_moves(rnd.moves)
        if not moves:
            continue
        lines.append(
            f"// redistribution round {r + 1}/{schedule.round_count} "
            f"(peak temp {schedule.peak_temp_bytes} B "
            f"of naive {schedule.naive_peak_bytes} B)"
        )
        lines += _emit_grouped([
            (f"mypid == {m.src + 1}",
             f"{_sec_text(var, m.section)} -=> {{{m.dst + 1}}}")
            for m in moves
        ])
        recv_order = sorted(moves, key=lambda m: (m.dst, m.src, str(m.section)))
        lines += _emit_grouped([
            (f"mypid == {m.dst + 1}", f"{_sec_text(var, m.section)} <=-")
            for m in recv_order
        ])
        lines += _emit_grouped([
            (f"mypid == {m.dst + 1}", f"await({_sec_text(var, m.section)})")
            for m in recv_order
        ])
    return lines


def planner_redistribution_text(
    var: str,
    current,
    target,
    decl: ArrayDecl,
    *,
    max_temp_frac: float = 0.5,
) -> str:
    """IL text of a temp-memory-bounded redistribution ``current → target``.

    The rounds come from the collective planner
    (:func:`~repro.core.collectives.planner.plan_bounded_redistribution`);
    each round is grouped sends, grouped receives, and an ``await``
    epilogue fencing the round, so no receiver ever buffers more than the
    planner's budget.  Used by applications (the section-4 FFT's bounded
    repartition stage) as well as the tuner's ``planner`` realization.
    """
    plan = plan_redistribution(current, target)
    return "\n".join(_planner_rounds(
        var, current, target, plan, decl, max_temp_frac=max_temp_frac,
    ))


def generate_phased_program(
    program: Program,
    phases: Sequence[PhaseSpec],
    layouts: Sequence[LayoutCandidate],
    nprocs: int,
    *,
    realization: str = "bulk",
    max_temp_frac: float = 0.5,
) -> str:
    """Re-emit ``program`` as its phase sequence under chosen placements.

    ``layouts[p]`` is the placement for ``phases[p]``; the initial
    placement is the declaration's.  Redistribution between differing
    placements is planned element-exactly and emitted after the producing
    phase (``bulk``), fused into it per outer slab (``pipelined``), or
    packed into temp-memory-bounded rounds (``planner``, budgeted by
    ``max_temp_frac`` of the largest per-processor footprint).
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

    current = build_segmentation(decl, grid).distribution
    out: list[str] = [_decl_text(decl), ""]
    blocks: list[list[str]] = []
    for idx, (phase, cand) in enumerate(zip(phases, layouts)):
        target = candidate_segmentation(decl, cand, nprocs).distribution
        plan = plan_redistribution(current, target)
        guard = "iown"
        real, src_axis = edge_realization(
            realization, current, plan, first_edge=(idx == 0)
        )
        if real is not None:
            moves = _dedup_moves(plan.moves)
            if real == "planner":
                blocks.append(_planner_rounds(
                    var, current, target, plan, decl,
                    max_temp_frac=max_temp_frac,
                ))
                guard = "await"
            elif real == "pipelined":
                ov = _VARS[src_axis]
                send_pairs: list[tuple[str, str]] = []
                recv_pairs: list[tuple[str, str]] = []
                frags = []
                for m in moves:
                    for coord in m.section.dims[src_axis]:
                        frag = Section(tuple(
                            Triplet(coord, coord, 1) if a == src_axis else t
                            for a, t in enumerate(m.section.dims)
                        ))
                        frags.append((m.src, coord, m.dst, frag))
                # Group sends by (source, loop coordinate): one fused
                # guard per produced slab, fanning out to every consumer.
                frags.sort(key=lambda f: (f[0], f[1], f[2], str(f[3])))
                for src, coord, dst, frag in frags:
                    send_pairs.append((
                        f"mypid == {src + 1} and {ov} == {coord}",
                        f"{_sec_text(var, frag)} -=> {{{dst + 1}}}",
                    ))
                for src, coord, dst, frag in sorted(
                    frags, key=lambda f: (f[2], f[0], f[1], str(f[3]))
                ):
                    recv_pairs.append((
                        f"mypid == {dst + 1}", f"{_sec_text(var, frag)} <=-"
                    ))
                blocks[-1] = _rebuild_with_fused(
                    blocks[-1], _emit_grouped(send_pairs)
                )
                blocks.append(_emit_grouped(recv_pairs))
                guard = "await-sunk"
            else:
                blocks.append(_emit_grouped([
                    (f"mypid == {m.src + 1}",
                     f"{_sec_text(var, m.section)} -=> {{{m.dst + 1}}}")
                    for m in moves
                ]))
                blocks.append(_emit_grouped([
                    (f"mypid == {m.dst + 1}",
                     f"{_sec_text(var, m.section)} <=-")
                    for m in sorted(
                        moves, key=lambda m: (m.dst, m.src, str(m.section))
                    )
                ]))
                guard = "await"
        comment = f"// phase {idx + 1}: {phase.kernel} along axis " \
                  f"{phase.axis + 1} under {cand.dist}"
        blocks.append([comment] + _phase_loop(decl, phase, cand, guard=guard))
        current = target

    for b in blocks:
        out.extend(b)
        out.append("")
    return "\n".join(out)


def _rebuild_with_fused(loop_lines: list[str], fused: list[str]) -> list[str]:
    """Insert fused send lines just before the closing ``enddo`` of the
    previous phase's outer loop."""
    if not loop_lines or loop_lines[-1] != "enddo":
        raise TuneError("cannot fuse sends: previous phase has no outer loop")
    return loop_lines[:-1] + [f"  {line}" for line in fused] + ["enddo"]
