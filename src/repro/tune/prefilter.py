"""Static pre-filter ranking — the pipeline's second stage.

Every point of the :class:`~repro.tune.space.SpaceSpec` (a per-phase
layout path crossed with a pass-level knob assignment) has an analytic
score before anything runs: node weights are the phase compute costs
under the candidate layout (:func:`~repro.tune.cost.phase_compute_cost`),
edge weights the redistribution cost between consecutive layouts under
the knob's realization (:func:`~repro.tune.cost.redistribution_cost`,
using the cost tables of whichever backend the search targets).  This is
the ranking-before-running move: the engine only ever sees the shortlist.

The score is a sum over the nodes and edges of a layered graph, so the
ranking is a k-shortest-paths problem, not a sweep
(:class:`LayeredRanking`): layers collapse to their distinct
distributions, one backward min-plus pass per knob point gives every
node its exact cost-to-finish, and a best-first expansion of path
prefixes pops complete paths in ranking order, one at a time, for as
long as the shortlist asks.  It is exact over the whole space — ties
included — and its work follows the shortlist and the number of *edges*,
not the number of paths.

The shortlist is then *realized*: each surviving path is regenerated as
program text, duplicates collapse (different knobs or layout names can
emit the same program, e.g. any realization of an all-local path —
compared comment-free, on the printed parse), and candidates
the communication verifier rejects are demoted — recorded with their
knob tuple and the :class:`~repro.core.analysis.verify_comm.CommReport`
summary, never silently dropped, never sent to the engine.  An empty
shortlist is a loud, debuggable error listing every demotion.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..core.analysis.verify_comm import verify_communication
from ..core.ir.nodes import Program
from ..core.ir.parser import parse_program
from ..core.ir.printer import print_program
from ..core.collectives.planner import plan_bounded_redistribution
from ..distributions import Distribution, plan_redistribution
from ..machine.model import MachineModel
from .cost import phase_compute_cost, redistribution_cost
from .rewrite import (
    PhaseSpec, TuneError, edge_realization, generate_phased_program,
)
from .space import KnobPoint, LayoutCandidate, SpaceSpec, candidate_segmentation

__all__ = ["PrefilterResult", "RankedCandidate", "prefilter"]


@dataclass(frozen=True)
class RankedCandidate:
    """One shortlisted point: a layout path × knob with its static score
    and (once realized) the generated program text."""

    score: float
    layouts: tuple[LayoutCandidate, ...]
    knob: KnobPoint
    source: str = ""

    @property
    def sort_key(self) -> tuple:
        return (
            self.score,
            tuple(c.key for c in self.layouts),
            self.knob.key,
        )

    @property
    def label(self) -> str:
        return f"{self.knob.key}:" + " | ".join(c.key for c in self.layouts)


@dataclass
class PrefilterResult:
    """The ranked shortlist plus the accounting the BENCH schema records."""

    shortlist: list[RankedCandidate]
    #: Points the ranking is exact over — all of them, nothing is pruned.
    space_size: int
    #: Path prefixes the best-first search popped to produce the shortlist.
    expanded: int
    demoted: list[dict] = field(default_factory=list)

    def explain_rows(self) -> list[dict]:
        rows = [
            {
                "rank": i + 1,
                "label": rc.label,
                "static_score": rc.score,
            }
            for i, rc in enumerate(self.shortlist)
        ]
        for d in self.demoted:
            rows.append({
                "rank": None,
                "label": d["label"],
                "static_score": d["static_score"],
                "demoted": d["reason"],
            })
        return rows


class _EdgeCosts:
    """Memoized analytic redistribution costs between distributions.

    One ``plan_redistribution`` per (source, target), one bounded
    schedule per planner budget on it, one ``redistribution_cost`` per
    realization of it — however many ranked paths cross the edge.
    """

    def __init__(self, model: MachineModel, itemsize: int, backend: str):
        self.model = model
        self.itemsize = itemsize
        self.backend = backend
        self.plans: dict = {}
        self.schedules: dict = {}
        self.costs: dict = {}

    def price(
        self,
        source: Distribution,
        target: Distribution,
        knob: KnobPoint,
        *,
        first_edge: bool,
    ) -> tuple[str | None, float]:
        """The realization the generator builds on this edge (``None``:
        no moves, nothing emitted) and its analytic cost."""
        edge = (source, target)
        plan = self.plans.get(edge)
        if plan is None:
            plan = self.plans[edge] = plan_redistribution(source, target)
        real, src_axis = edge_realization(
            knob.realization, source, plan, first_edge=first_edge
        )
        if real is None:
            return None, 0.0
        frac = knob.max_temp_frac
        key = (edge, real, frac)
        hit = self.costs.get(key)
        if hit is not None:
            return real, hit
        schedule = None
        if real == "planner":
            skey = (edge, frac)
            schedule = self.schedules.get(skey)
            if schedule is None:
                schedule = plan_bounded_redistribution(
                    source, target,
                    max_temp_frac=frac if frac is not None else 0.5,
                    elem_bytes=self.itemsize, plan=plan,
                )
                self.schedules[skey] = schedule
        out = redistribution_cost(
            plan, self.model, itemsize=self.itemsize, realization=real,
            outer_axis=src_axis, backend=self.backend, schedule=schedule,
        )
        self.costs[key] = out
        return real, out


@dataclass(frozen=True)
class _Node:
    """One layout class of one layer: every segmentation variant of a
    (dist, grid shape) has the same distribution, hence the same score
    and the same generated program; ``cand`` is the smallest-keyed one."""

    cand: LayoutCandidate
    dist: Distribution
    cost: float


class LayeredRanking:
    """The space as a layered graph, ranked exactly without its product.

    Layer ``i`` holds phase ``i``'s layout classes; a node weighs the
    phase's compute cost, an edge the redistribution between consecutive
    distributions under a knob point.  ``ranking()`` yields what sorting
    every (path, knob) by ``RankedCandidate.sort_key``, keeping the first
    of each emission class and interleaving the realization families
    would — lazily, so a caller that stops after a few candidates pays
    for a few paths.  ``expanded`` counts the path prefixes popped so far.
    """

    def __init__(
        self,
        program: Program,
        phases: Sequence[PhaseSpec],
        space: SpaceSpec,
        *,
        initial: Distribution,
        model: MachineModel,
        backend: str,
    ):
        decl = next(d for d in program.array_decls() if d.name == phases[0].var)
        self.initial = initial
        self.knob_points = space.knob_points()
        self.realizations = space.knobs.realizations
        self.edges = _EdgeCosts(
            model, int(np.dtype(decl.dtype).itemsize), backend
        )
        self.expanded = 0
        self.layers: list[list[_Node]] = []
        for li, phase in enumerate(phases):
            reps: dict[tuple, LayoutCandidate] = {}
            for cand in space.layer(li):
                cls = (cand.dist, cand.grid_shape)
                if cls not in reps or cand.key < reps[cls].key:
                    reps[cls] = cand
            self.layers.append([
                _Node(
                    cand,
                    candidate_segmentation(decl, cand, space.nprocs).distribution,
                    phase_compute_cost(decl, cand, phase.axis, space.nprocs,
                                       model, kernel=phase.kernel),
                )
                for cand in reps.values()
            ])

    def _walk(self, path: Sequence[_Node], knob: KnobPoint) -> tuple[float, tuple]:
        """A complete path's score — nodes, then edges, left to right: the
        one association every reported score uses — and the part of its
        emission class the knob decides."""
        score = sum(n.cost for n in path)
        reals = []
        prev = self.initial
        for li, n in enumerate(path):
            real, cost = self.edges.price(prev, n.dist, knob,
                                          first_edge=(li == 0))
            score += cost
            reals.append(real)
            prev = n.dist
        return score, (tuple(reals),
                       knob.max_temp_frac if "planner" in reals else None)

    def _stream(self, ki: int) -> Iterator[RankedCandidate]:
        """Knob ``ki``'s paths in ``sort_key`` order, minus those a
        smaller-keyed knob emits identically.

        Best-first over path prefixes, ordered by (prefix score + exact
        cost-to-finish, prefix layout keys).  The bound is attained, so a
        prefix never sorts after its best completion, and a proper key
        prefix sorts before its completions: complete paths pop in
        (score, layout keys) order.  (To the last bit when the sums are
        exact in binary floating point, as with every shipped model;
        otherwise scores equal up to rounding may swap.)
        """
        knob = self.knob_points[ki]
        layers = self.layers
        last = len(layers) - 1

        def step(li: int, source: Distribution, node: _Node) -> float:
            return node.cost + self.edges.price(
                source, node.dist, knob, first_edge=(li == 0))[1]

        # Backward min-plus pass: cost-to-finish per node.
        togo = [[0.0] * len(layer) for layer in layers]
        for li in range(last - 1, -1, -1):
            for a, node in enumerate(layers[li]):
                togo[li][a] = min(
                    step(li + 1, node.dist, nxt) + togo[li + 1][b]
                    for b, nxt in enumerate(layers[li + 1])
                )

        heap: list[tuple] = []

        def extend(so_far: float, keys: tuple, path: tuple[_Node, ...]) -> None:
            li = len(path)
            source = path[-1].dist if path else self.initial
            for b, node in enumerate(layers[li]):
                g = so_far + step(li, source, node)
                heapq.heappush(heap, (g + togo[li][b], keys + (node.cand.key,),
                                      g, path + (node,)))

        # (bound, keys) is unique per prefix, so entries never compare further.
        extend(0.0, (), ())
        while heap:
            _, keys, g, path = heapq.heappop(heap)
            self.expanded += 1
            if len(path) <= last:
                extend(g, keys, path)
                continue
            score, emission = self._walk(path, knob)
            if any(
                (other.key, kj) < (knob.key, ki)
                and self._walk(path, other)[1] == emission
                for kj, other in enumerate(self.knob_points)
            ):
                continue  # the same program, ranked under the other knob
            yield RankedCandidate(score, tuple(n.cand for n in path), knob)

    def ranking(self) -> Iterator[RankedCandidate]:
        """Realization families interleaved rank by rank: the analytic
        model can systematically favor one realization, but which one
        actually wins is machine-dependent — give the engine each family's
        best paths rather than one family's top-to-bottom."""
        families = [
            heapq.merge(
                *(self._stream(ki) for ki, k in enumerate(self.knob_points)
                  if k.realization == real),
                key=lambda rc: rc.sort_key,
            )
            for real in dict.fromkeys(self.realizations)
        ]
        while families:
            live = []
            for fam in families:
                rc = next(fam, None)
                if rc is not None:
                    yield rc
                    live.append(fam)
            families = live


def prefilter(
    program: Program,
    phases: Sequence[PhaseSpec],
    space: SpaceSpec,
    *,
    initial: Distribution,
    model: MachineModel,
    backend: str,
    budget: int = 16,
) -> PrefilterResult:
    """Rank the whole space analytically; realize and verify a shortlist.

    ``budget`` caps how many candidates may reach the engine.  The
    ranking is exact over the whole space and deterministic (ties broken
    by the candidates' canonical keys); realization pulls from it in
    order, skipping textual duplicates and demoting verifier rejections,
    until ``budget`` candidates survive or the ranking is exhausted.
    """
    ranked = LayeredRanking(
        program, phases, space, initial=initial, model=model, backend=backend
    )
    ranking = ranked.ranking()

    shortlist: list[RankedCandidate] = []
    demoted: list[dict] = []
    seen_sources: set[str] = set()
    while len(shortlist) < budget:
        rc = next(ranking, None)
        if rc is None:
            break
        src = generate_phased_program(
            program, phases, rc.layouts, space.nprocs,
            realization=rc.knob.realization,
            max_temp_frac=(rc.knob.max_temp_frac
                           if rc.knob.max_temp_frac is not None else 0.5),
        )
        parsed = parse_program(src)
        # The emission key is a conservative prediction; the generated
        # program is the ground truth for duplicate detection — printed
        # back from its parse, so the layout *name* in the phase comments
        # (CYCLIC(2) that is BLOCK at this n/P) cannot tell clones apart.
        text = print_program(parsed)
        if text in seen_sources:
            continue
        seen_sources.add(text)
        report = verify_communication(parsed, space.nprocs, backend=backend)
        if not report.ok:
            # A rejected rewrite is a rewriter bug, not a bad score —
            # demote it with enough context to debug from the CLI.
            demoted.append({
                "label": rc.label,
                "candidate": repr((rc.knob.key,)
                                  + tuple(c.key for c in rc.layouts)),
                "static_score": rc.score,
                "reason": report.format(),
            })
            continue
        shortlist.append(RankedCandidate(rc.score, rc.layouts, rc.knob, src))

    if not shortlist:
        detail = "\n".join(
            f"  {d['candidate']}:\n    " + d["reason"].replace("\n", "\n    ")
            for d in demoted
        ) or "  (no candidates were generated at all)"
        raise TuneError(
            "prefilter produced an empty shortlist — every generated "
            "candidate failed communication verification:\n" + detail
        )

    return PrefilterResult(
        shortlist=shortlist,
        space_size=space.size(),
        expanded=ranked.expanded,
        demoted=demoted,
    )
