"""The prefilter's former cross-product sweep, kept verbatim as the
reference implementation for ``tests/test_tune_pipeline.py``.

``ranking_oracle`` scores every layout path of the space under every knob
point (``_EdgeCosts.price`` once per edge of every path), keeps the
best-sorted representative of each emission class, and returns the full
rank-by-rank family interleave — what ``prefilter`` walked to realize its
shortlist before the ranking became a lazy best-first search.  It is
O(space): keep differential inputs small.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.core.collectives.planner import plan_bounded_redistribution
from repro.core.ir.nodes import ArrayDecl, Program
from repro.distributions import Distribution, plan_redistribution
from repro.machine.model import MachineModel
from repro.tune.cost import phase_compute_cost, redistribution_cost
from repro.tune.prefilter import RankedCandidate
from repro.tune.rewrite import PhaseSpec, edge_realization
from repro.tune.space import (
    KnobPoint, LayoutCandidate, SpaceSpec, candidate_segmentation,
)


class _EdgeCosts:
    """Cached analytic redistribution costs between placements, keyed by
    (source distribution, target candidate, knob)."""

    def __init__(self, decl: ArrayDecl, nprocs: int, model: MachineModel,
                 itemsize: int, backend: str):
        self.decl = decl
        self.nprocs = nprocs
        self.model = model
        self.itemsize = itemsize
        self.backend = backend
        self.plans: dict = {}
        self.schedules: dict = {}
        self.costs: dict = {}
        self.dists: dict[LayoutCandidate, Distribution] = {}

    def dist(self, cand: LayoutCandidate) -> Distribution:
        d = self.dists.get(cand)
        if d is None:
            d = candidate_segmentation(self.decl, cand, self.nprocs).distribution
            self.dists[cand] = d
        return d

    def plan(self, source: Distribution, cand: LayoutCandidate):
        key = (source, cand)
        plan = self.plans.get(key)
        if plan is None:
            plan = plan_redistribution(source, self.dist(cand))
            self.plans[key] = plan
        return plan

    def price(
        self,
        source: Distribution,
        cand: LayoutCandidate,
        knob: KnobPoint,
        *,
        first_edge: bool,
    ) -> tuple[str | None, float]:
        plan = self.plan(source, cand)
        real, src_axis = edge_realization(
            knob.realization, source, plan, first_edge=first_edge
        )
        if real is None:
            return None, 0.0
        frac = knob.max_temp_frac
        key = (source, cand, real, frac)
        hit = self.costs.get(key)
        if hit is not None:
            return real, hit
        schedule = None
        if real == "planner":
            skey = (source, cand, frac)
            schedule = self.schedules.get(skey)
            if schedule is None:
                schedule = plan_bounded_redistribution(
                    source, self.dist(cand),
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


def ranking_oracle(
    program: Program,
    phases: Sequence[PhaseSpec],
    space: SpaceSpec,
    *,
    initial: Distribution,
    model: MachineModel,
    backend: str,
) -> list[RankedCandidate]:
    """Every emission class's best point, interleaved by realization
    family — the ranking ``prefilter`` realizes from, in full."""
    decl = next(d for d in program.array_decls() if d.name == phases[0].var)
    itemsize = int(np.dtype(decl.dtype).itemsize)
    edges = _EdgeCosts(decl, space.nprocs, model, itemsize, backend)
    knob_points = space.knob_points()

    node_cost: dict[tuple[int, LayoutCandidate], float] = {}

    def node(li: int, cand: LayoutCandidate) -> float:
        key = (li, cand)
        hit = node_cost.get(key)
        if hit is None:
            hit = phase_compute_cost(
                decl, cand, phases[li].axis, space.nprocs, model,
                kernel=phases[li].kernel,
            )
            node_cost[key] = hit
        return hit

    best: dict[tuple, RankedCandidate] = {}

    # ``SpaceSpec.iter_paths`` streamed exactly this product.
    layers = [space.layer(i) for i in range(len(space.phase_axes))]
    for path in itertools.product(*layers):
        nodes_sum = sum(node(li, cand) for li, cand in enumerate(path))
        for knob in knob_points:
            score = nodes_sum
            reals = []
            prev = initial
            for li, cand in enumerate(path):
                real, cost = edges.price(
                    prev, cand, knob, first_edge=(li == 0)
                )
                score += cost
                reals.append(real)
                prev = edges.dist(cand)
            rc = RankedCandidate(score, tuple(path), knob)
            emission = (
                tuple((c.dist, c.grid_shape) for c in path),
                tuple(reals),
                knob.max_temp_frac if "planner" in reals else None,
            )
            old = best.get(emission)
            if old is None or rc.sort_key < old.sort_key:
                best[emission] = rc

    by_real: dict[str, list[RankedCandidate]] = {}
    for rc in sorted(best.values(), key=lambda rc: rc.sort_key):
        by_real.setdefault(rc.knob.realization, []).append(rc)
    families = [
        by_real[r] for r in space.knobs.realizations if r in by_real
    ] + [v for k, v in sorted(by_real.items())
         if k not in space.knobs.realizations]
    ranking: list[RankedCandidate] = []
    for rank in range(max((len(v) for v in families), default=0)):
        for fam in families:
            if rank < len(fam):
                ranking.append(fam[rank])
    return ranking
