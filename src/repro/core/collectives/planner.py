"""Memory-bounded redistribution planning.

Realising a full :class:`~repro.distributions.RedistributionPlan` all at
once (:func:`repro.core.redistgen.plan_transfers`) posts every receive
up-front, so peak per-processor temporary memory equals its total incoming
volume.  For a repartitioning like the FFT's
``(*, *, BLOCK) → (*, BLOCK, *)`` that is ``(P-1)/P`` of the local array —
all of it buffered simultaneously.

This planner decomposes the same move set into *rounds* — bounded
all-to-all steps — such that no processor sends or receives more than a
budget of ``max_temp_frac ×`` its local array footprint per round, with a
fence (await) after each round's receives.  Moves larger than the budget
are split along their longest axis until they fit (the budget never drops
below one element).  Because the rounds partition the direct plan's moves
exactly, composing them is equivalent to the direct redistribution —
the round-trip property the tests pin down.  The planner only decides the
rounds; :func:`repro.core.redistgen.schedule_transfers` emits them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ...distributions import Distribution, Segmentation
from ...distributions.redistribute import (
    Move, RedistributionPlan, plan_redistribution,
)
from ..errors import DistributionError
from ..sections import Section, Triplet

__all__ = [
    "RedistRound", "RedistSchedule", "dist_from_spec",
    "plan_bounded_redistribution",
]


def dist_from_spec(spec: str, bounds, grid) -> Distribution:
    """Build a :class:`Distribution` from an HPF spec string like
    ``"(*, BLOCK)"`` over ``bounds`` (inclusive ``(lo, hi)`` pairs)."""
    from ...distributions import parse_dist_spec
    from ..analysis.layouts import split_dist_spec

    specs = tuple(parse_dist_spec(s) for s in split_dist_spec(spec))
    space = Section(tuple(Triplet(lo, hi, 1) for lo, hi in bounds))
    return Distribution(space, specs, grid)


@dataclass(frozen=True)
class RedistRound:
    """One bounded all-to-all step of a redistribution schedule."""

    moves: tuple[Move, ...]

    def incoming_bytes(self, elem_bytes: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for m in self.moves:
            out[m.dst] = out.get(m.dst, 0) + m.section.size * elem_bytes
        return out

    def outgoing_bytes(self, elem_bytes: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for m in self.moves:
            out[m.src] = out.get(m.src, 0) + m.section.size * elem_bytes
        return out


@dataclass(frozen=True)
class RedistSchedule:
    """A redistribution decomposed into memory-bounded rounds."""

    source: Distribution
    target: Distribution
    rounds: tuple[RedistRound, ...]
    max_temp_frac: float
    elem_bytes: int
    budget_bytes: int

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def move_count(self) -> int:
        return sum(len(r.moves) for r in self.rounds)

    def all_moves(self) -> tuple[Move, ...]:
        return tuple(m for r in self.rounds for m in r.moves)

    @cached_property
    def peak_temp_bytes(self) -> int:
        """Largest per-processor receive window of any round: the bytes a
        processor's posted receives of one round can buffer before its
        fence discharges them."""
        peak = 0
        for r in self.rounds:
            inc = r.incoming_bytes(self.elem_bytes)
            if inc:
                peak = max(peak, max(inc.values()))
        return peak

    @cached_property
    def naive_peak_bytes(self) -> int:
        """The all-at-once materialisation's peak: every receive posted
        up-front, so the window is each processor's total incoming."""
        total: dict[int, int] = {}
        for r in self.rounds:
            for pid, b in r.incoming_bytes(self.elem_bytes).items():
                total[pid] = total.get(pid, 0) + b
        return max(total.values(), default=0)

    def summary(self) -> dict:
        naive = self.naive_peak_bytes
        peak = self.peak_temp_bytes
        return {
            "source": self.source.spec_str(),
            "target": self.target.spec_str(),
            "max_temp_frac": self.max_temp_frac,
            "budget_bytes": self.budget_bytes,
            "rounds": self.round_count,
            "moves": self.move_count,
            "peak_temp_bytes": peak,
            "naive_peak_bytes": naive,
            "peak_vs_naive": (peak / naive) if naive else 1.0,
        }


def _split_triplet(t: Triplet, k: int) -> tuple[Triplet, Triplet]:
    """First ``k`` elements and the rest of a triplet (``0 < k < size``)."""
    mid = t.lo + (k - 1) * t.step
    return (
        Triplet(t.lo, mid, t.step),
        Triplet(t.lo + k * t.step, t.hi, t.step),
    )


def _split_move(m: Move, budget_elems: int) -> list[Move]:
    """Split a move along its longest axis until pieces fit the budget."""
    if m.section.size <= budget_elems:
        return [m]
    dims = m.section.dims
    ax = max(range(len(dims)), key=lambda i: dims[i].size)
    t = dims[ax]
    if t.size < 2:  # single element; cannot shrink further
        return [m]
    a, b = _split_triplet(t, t.size // 2)
    out: list[Move] = []
    for part in (a, b):
        sec = Section(dims[:ax] + (part,) + dims[ax + 1:])
        out.extend(_split_move(Move(m.src, m.dst, sec), budget_elems))
    return out


def _move_key(m: Move):
    return (
        -m.section.size, m.src, m.dst,
        tuple((t.lo, t.hi, t.step) for t in m.section.dims),
    )


def plan_bounded_redistribution(
    source: Distribution,
    target: Distribution,
    *,
    max_temp_frac: float = 0.5,
    elem_bytes: int = 8,
    segmentation: Segmentation | None = None,
    plan: RedistributionPlan | None = None,
) -> RedistSchedule:
    """Decompose ``source → target`` into memory-bounded rounds.

    The per-round budget is ``max_temp_frac`` of the largest per-processor
    footprint of the array under either distribution (never less than one
    element).  Moves are split to fit, then first-fit packed —
    largest-first, deterministic — into the earliest round where both the
    sender's outgoing and the receiver's incoming budgets still hold."""
    if not 0.0 < max_temp_frac <= 1.0:
        raise DistributionError(
            f"max_temp_frac must be in (0, 1], got {max_temp_frac}"
        )
    if elem_bytes < 1:
        raise DistributionError(f"elem_bytes must be positive, got {elem_bytes}")
    if plan is None:
        plan = plan_redistribution(source, target, segmentation=segmentation)

    footprint = 0
    for pid in source.grid.pids():
        for dist in (source, target):
            owned = sum(sec.size for sec in dist.owned_sections(pid))
            footprint = max(footprint, owned * elem_bytes)
    budget = max(int(footprint * max_temp_frac), elem_bytes)
    budget_elems = max(budget // elem_bytes, 1)

    pieces: list[Move] = []
    for m in plan.moves:
        if m.src == m.dst:
            continue  # local data needs no transfer (and no temp memory)
        pieces.extend(_split_move(m, budget_elems))
    pieces.sort(key=_move_key)

    rounds: list[list[Move]] = []
    incoming: list[dict[int, int]] = []
    outgoing: list[dict[int, int]] = []
    for m in pieces:
        b = m.section.size * elem_bytes
        for i, r in enumerate(rounds):
            if (
                outgoing[i].get(m.src, 0) + b <= budget
                and incoming[i].get(m.dst, 0) + b <= budget
            ):
                r.append(m)
                outgoing[i][m.src] = outgoing[i].get(m.src, 0) + b
                incoming[i][m.dst] = incoming[i].get(m.dst, 0) + b
                break
        else:
            rounds.append([m])
            outgoing.append({m.src: b})
            incoming.append({m.dst: b})

    return RedistSchedule(
        source=source,
        target=target,
        rounds=tuple(RedistRound(tuple(r)) for r in rounds),
        max_temp_frac=max_temp_frac,
        elem_bytes=elem_bytes,
        budget_bytes=budget,
    )
