"""Placement search: section 4's staged optimization as a pipeline.

For a phased program the placement problem is a layered shortest path:
one layer per pencil phase, nodes are that phase's realizable layouts,
node weight the analytic compute time of the phase under the layout,
edge weight the analytic cost of the compiler-planned redistribution
between consecutive layouts under each pass-level knob.  The tuner walks
that space in four stages:

1. **space** (:mod:`~repro.tune.space`) — a :class:`SpaceSpec` holds the
   per-phase layout layers and the knob axes; their product is counted,
   never built;
2. **ranking** (:mod:`~repro.tune.prefilter`) — that shortest path, k
   times over: an exact lazy best-first ranking of the whole space by
   the analytic cost model; the top of the ranking is realized as
   program text, deduplicated, vetted by the communication verifier,
   and becomes the shortlist;
3. **evaluation** (:mod:`~repro.tune.evaluate`) — shortlisted candidates
   run on the real engine, in-process or sharded across supervised
   worker processes over the content-addressed artifact store;
4. **search** (this module) — budgeted successive halving over the
   shortlist: engine waves of halving size walk the static ranking,
   re-ranking the remainder after each wave by the observed
   engine/static bias of each realization family, under a wall-clock
   budget checked between (never inside) waves, so a fixed seed gives a
   bit-identical result for any shard count.

The engine's makespan picks the winner, ties broken by the canonical
candidate order — which is how the tuner lands on the paper's
``(*, BLOCK, *)`` rather than its mirror — and a winner that fails to
beat the input program is discarded for the baseline (tuning never
returns something worse than its input).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

from ..core.ir.nodes import Program
from ..core.ir.parser import parse_program
from ..core.ir.printer import print_program
from ..distributions import ProcessorGrid
from ..core.analysis.layouts import build_segmentation
from ..machine.model import MachineModel
from ..machine.transport import default_backend
from .evaluate import (
    EvalCache, EvalResult, EvalTask, evaluate_candidates, evaluate_sharded,
)
from .prefilter import PrefilterResult, RankedCandidate, prefilter
from .rewrite import PhaseSpec, TuneError, detect_phases
from .space import KnobSpec, LayoutCandidate, SpaceSpec

__all__ = ["TuneError", "TuneResult", "tune"]

#: BENCH_tune.json schema version this module's results serialize as.
TUNE_SCHEMA = 2


def _spearman(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Spearman rank correlation with average ranks for ties (no scipy).

    ``None`` when fewer than two points; 0.0 when either side is
    constant (no ranking information either way).
    """
    n = len(xs)
    if n < 2:
        return None

    def ranks(v: Sequence[float]) -> list[float]:
        order = sorted(range(n), key=lambda i: v[i])
        out = [0.0] * n
        i = 0
        while i < n:
            j = i
            while j + 1 < n and v[order[j + 1]] == v[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / n, sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    dy = math.sqrt(sum((a - my) ** 2 for a in ry))
    if dx == 0.0 or dy == 0.0:
        return 0.0
    return num / (dx * dy)


@dataclass
class TuneResult:
    """Everything a tuning run decided and measured (BENCH schema 2)."""

    phases: tuple[PhaseSpec, ...]
    phase_layouts: tuple[LayoutCandidate, ...]
    realization: str
    source: str
    makespan: float
    baseline_makespan: float
    semantics_preserved: bool
    candidates_considered: int
    evaluated: int
    analytic: list[dict] = field(default_factory=list)
    results: list[EvalResult] = field(default_factory=list)
    cache: EvalCache = field(default_factory=EvalCache)
    backend: str = "msg"
    # -- schema 2: pipeline accounting -------------------------------- #
    space_size: int = 0
    shortlist_size: int = 0
    demoted: list[dict] = field(default_factory=list)
    rank_correlation: float | None = None
    shards: int = 0
    waves: int = 0
    budget_s: float | None = None
    wall_s: float = 0.0

    @property
    def speedup(self) -> float:
        return self.baseline_makespan / self.makespan if self.makespan else 0.0

    def canonical_doc(self) -> dict:
        """The deterministic portion of the result: every decision and
        engine measurement, no wall clocks and no memo-level counters
        (those depend on what happened to be warm, not on the search).
        A fixed (program, nprocs, model, seed) must yield byte-identical
        canonical docs for any shard count."""
        return {
            "schema": TUNE_SCHEMA,
            "phases": [str(p) for p in self.phases],
            "layouts": [c.key for c in self.phase_layouts],
            "realization": self.realization,
            "makespan": self.makespan,
            "baseline_makespan": self.baseline_makespan,
            "speedup": self.speedup,
            "semantics_preserved": self.semantics_preserved,
            "backend": self.backend,
            "space_size": self.space_size,
            "candidates_considered": self.candidates_considered,
            "shortlist_size": self.shortlist_size,
            "demoted": len(self.demoted),
            "evaluated": self.evaluated,
            "waves": self.waves,
            "rank_correlation": self.rank_correlation,
            "analytic": self.analytic,
        }

    def summary(self) -> str:
        rc = ("n/a" if self.rank_correlation is None
              else f"{self.rank_correlation:+.2f}")
        lines = [
            f"tuned {len(self.phases)} phases: space {self.space_size} "
            f"-> scored {self.candidates_considered} -> shortlist "
            f"{self.shortlist_size} -> engine-validated {self.evaluated} "
            f"in {self.waves} wave(s)",
            f"baseline makespan: {self.baseline_makespan:.2f}   "
            f"tuned makespan: {self.makespan:.2f}   "
            f"speedup: {self.speedup:.2f}x   "
            f"semantics preserved: {self.semantics_preserved}",
            f"realization: {self.realization}   "
            f"static-vs-engine rank correlation: {rc}",
        ]
        for p, c in zip(self.phases, self.phase_layouts):
            lines.append(f"  phase [{p}] -> {c.key}")
        lines.append(
            f"oracle cache: {self.cache.hits} hits / {self.cache.misses} "
            f"misses in-memory; store: {self.cache.store_hits} hits / "
            f"{self.cache.store_misses} misses"
            + (f"; {self.shards} shard(s)" if self.shards else "")
        )
        if self.demoted:
            lines.append(
                f"demoted by verify_comm: "
                + ", ".join(d["label"] for d in self.demoted)
            )
        return "\n".join(lines)


def _wave_sizes(first: int) -> list[int]:
    """Successive-halving wave sizes: ``first``, then halves down to 1."""
    out = []
    w = max(1, first)
    while True:
        out.append(w)
        if w == 1:
            return out
        w //= 2


def tune(
    program: Program | str,
    nprocs: int,
    *,
    model: MachineModel | None = None,
    top_k: int = 4,
    knobs: KnobSpec | None = None,
    budget_s: float | None = 60.0,
    shards: int | None = None,
    parallel: bool = True,
    seed: int = 7,
    cache: EvalCache | None = None,
    store=None,
    backend: str | None = None,
) -> TuneResult:
    """Search the placement space of a phased program.

    Deterministic for a fixed (program, nprocs, model, seed): layer
    order is canonical, scores are exact arithmetic on model constants,
    every tie-break is lexicographic, and sharded evaluation merges by
    submission order — the wall-clock budget only gates *whether* the
    next engine wave starts, never reorders one.

    ``top_k`` sizes the first engine wave (waves then halve, so at most
    ``2 * top_k - 1`` candidates are engine-validated) and the ranked
    shortlist (``max(2 * top_k, 8)`` entries);
    ``budget_s`` is the wall-clock budget checked between waves (``None``
    = unbounded).  ``shards`` switches engine validation to that many
    supervised worker processes (``None`` or 0: in-process) — it requires
    ``store``, which also memoizes evaluations across processes and runs.

    ``knobs`` is the :class:`~repro.tune.space.KnobSpec` the layout paths
    are crossed with (default: every realization and planner budget).  If
    no generated candidate beats the input program on the engine, the result
    keeps the original placement (``realization == "baseline"``, speedup
    1.0) — tuning never returns something worse than its input.
    """
    t_start = time.perf_counter()
    if isinstance(program, str):
        program = parse_program(program)
    model = model if model is not None else MachineModel()
    cache = cache if cache is not None else EvalCache()
    backend = backend if backend is not None else default_backend()
    if shards and store is None:
        raise TuneError("sharded evaluation (shards=...) needs a store")
    if knobs is None:
        knobs = KnobSpec()

    phases = detect_phases(program)
    names = {p.var for p in phases}
    if len(names) != 1:
        raise TuneError(f"tuning supports one phased array (got {sorted(names)})")
    decl = next(
        (d for d in program.array_decls() if d.name == phases[0].var), None
    )
    if decl is None or decl.universal or decl.dist is None:
        raise TuneError(f"array {phases[0].var!r} has no placement to tune")
    grid = ProcessorGrid((nprocs,))
    initial = build_segmentation(decl, grid).distribution

    # -- stage 1+2: space, static ranking, verified shortlist ---------- #
    space = SpaceSpec(
        decl, nprocs, tuple(p.axis for p in phases), knobs=knobs,
    )
    for i, size in enumerate(space.layer_sizes):
        if size == 0:
            raise TuneError(
                f"no realizable layout for phase [{phases[i]}] at P={nprocs}"
            )
    pf: PrefilterResult = prefilter(
        program, phases, space,
        initial=initial, model=model, backend=backend,
        budget=max(2 * top_k, 8),
    )

    def _evaluate(tasks: Sequence[EvalTask]) -> list[EvalResult]:
        if shards:
            return evaluate_sharded(tasks, store=store, shards=shards,
                                    cache=cache)
        return evaluate_candidates(tasks, cache=cache, store=store,
                                   parallel=parallel)

    def _task(rc: RankedCandidate) -> EvalTask:
        return EvalTask(rc.source, nprocs, model, seed=seed, backend=backend,
                        label=rc.label)

    baseline_task = EvalTask(program, nprocs, model, seed=seed,
                             label="baseline", backend=backend)
    baseline = _evaluate([baseline_task])[0]

    # -- stage 3+4: successive halving over the ranked shortlist ------- #
    remaining = list(range(len(pf.shortlist)))
    measured: dict[int, EvalResult] = {}
    waves = 0
    for size in _wave_sizes(top_k):
        if not remaining:
            break
        if waves > 0 and budget_s is not None:
            if time.perf_counter() - t_start > budget_s:
                break  # budget gates between waves, never inside one
        batch, remaining = remaining[:size], remaining[size:]
        wave_results = _evaluate([_task(pf.shortlist[i]) for i in batch])
        for i, r in zip(batch, wave_results):
            measured[i] = r
        waves += 1
        if remaining:
            # Refine the static ranking with the measured engine/static
            # bias of each realization family (the analytic model can
            # systematically flatter one realization; the ratio is the
            # correction), then re-rank what is left.
            ratios: dict[str, float] = {}
            by_fam: dict[str, list[float]] = {}
            for i, r in measured.items():
                rc = pf.shortlist[i]
                if rc.score > 0:
                    by_fam.setdefault(rc.knob.realization, []).append(
                        r.makespan / rc.score
                    )
            for fam, vals in by_fam.items():
                vals.sort()
                ratios[fam] = vals[len(vals) // 2]
            default = (sorted(ratios.values())[len(ratios) // 2]
                       if ratios else 1.0)

            def adjusted(i: int) -> tuple:
                rc = pf.shortlist[i]
                return (rc.score * ratios.get(rc.knob.realization, default),
                        rc.sort_key)

            remaining.sort(key=adjusted)

    order = sorted(
        measured,
        key=lambda i: (measured[i].makespan, pf.shortlist[i].sort_key),
    )
    if not order:
        raise TuneError("search evaluated no candidates")
    best_i = order[0]
    best_rc = pf.shortlist[best_i]
    best = measured[best_i]

    analytic = [
        {
            "score": pf.shortlist[i].score,
            "realization": pf.shortlist[i].knob.realization,
            "knob": pf.shortlist[i].knob.key,
            "layouts": [c.key for c in pf.shortlist[i].layouts],
            "makespan": measured[i].makespan if i in measured else None,
            "messages": measured[i].total_messages if i in measured else None,
            "bytes": measured[i].total_bytes if i in measured else None,
        }
        for i in range(len(pf.shortlist))
    ]
    pairs = [(pf.shortlist[i].score, measured[i].makespan) for i in measured]
    rank_corr = _spearman([p[0] for p in pairs], [p[1] for p in pairs])

    common = dict(
        phases=tuple(phases),
        baseline_makespan=baseline.makespan,
        candidates_considered=pf.space_size,
        evaluated=len(measured) + 1,
        analytic=analytic,
        results=[measured[i] for i in sorted(measured)],
        cache=cache,
        backend=backend,
        space_size=pf.space_size,
        shortlist_size=len(pf.shortlist),
        demoted=pf.demoted,
        rank_correlation=rank_corr,
        shards=shards or 0,
        waves=waves,
        budget_s=budget_s,
    )

    if baseline.makespan < best.makespan:
        # Nothing generated beats the input program: a tuner must never
        # make things worse, so keep the original placement.
        confirmed = _evaluate([baseline_task])[0]
        initial_cand = LayoutCandidate(decl.dist, decl.segment_shape)
        return TuneResult(
            phase_layouts=tuple(initial_cand for _ in phases),
            realization="baseline",
            source=print_program(program),
            makespan=confirmed.makespan,
            semantics_preserved=True,
            wall_s=time.perf_counter() - t_start,
            **common,
        )

    # Winner confirmation goes through the cache — by construction a hit,
    # which is also what keeps repeated tuning calls cheap.
    confirmed = evaluate_candidates([_task(best_rc)], cache=cache,
                                    store=store, parallel=False)[0]
    return TuneResult(
        phase_layouts=best_rc.layouts,
        realization=best_rc.knob.realization,
        source=best_rc.source,
        makespan=confirmed.makespan,
        semantics_preserved=best.matches(baseline.arrays),
        wall_s=time.perf_counter() - t_start,
        **common,
    )
