"""P8 — collective communication subsystem (ISSUE 8).

Two artifacts from the collectives work are recorded here:

* **Bounded redistribution planner.**  The 3-D FFT's repartition
  ``(*, *, BLOCK) -> (*, BLOCK, *)`` is planned with a temp-memory
  budget: the planner splits the all-to-all-shaped exchange into rounds
  so no processor ever stages more than ``max_temp_frac`` of its local
  array size in transit.  The artifact records peak temp bytes vs the
  naive single-round plan across a frac sweep; the acceptance bar is
  peak <= 50% of naive at ``max_temp_frac=0.25``.
* **Distributed matmul suite.**  Cannon and SUMMA at P in {4, 16, 64}
  on both transport backends, with bit-identical digests asserted.
* **Broadcast rule.**  SUMMA's makespan on msg with every broadcast
  forced to the binomial tree, forced flat, and as the rule
  (``schedule.tree_pays``) picks, at P in {4, 16, 32, 64}; the pick must
  be the faster one.

Results are recorded to ``BENCH_collectives.json`` at the repo root.
"""

import time
from pathlib import Path

from conftest import emit

from repro.apps.matmul import run_matmul
from repro.core.collectives import schedule
from repro.core.collectives.planner import (
    dist_from_spec, plan_bounded_redistribution,
)
from repro.distributions import ProcessorGrid
from repro.machine.model import MachineModel
from repro.machine.transport import BACKENDS
from repro.report.record import write_json_atomic

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = ROOT / "BENCH_collectives.json"

NPROCS = (4, 16, 64)
RULE_NPROCS = (4, 16, 32, 64)
VARIANTS = ("cannon", "summa")
FFT_SHAPE = (8, 8, 8)
FRACS = (0.125, 0.25, 0.5, 1.0)

#: Acceptance bar (ISSUE 8): at frac=0.25 the planner's peak temp memory
#: on the fft3d repartition must be at most half the naive plan's.
PLANNER_BAR_FRAC = 0.25
PLANNER_BAR = 0.50


def run_planner_bench() -> dict:
    grid = ProcessorGrid((4,))
    bounds = tuple((1, n) for n in FFT_SHAPE)
    src = dist_from_spec("(*, *, BLOCK)", bounds, grid)
    dst = dist_from_spec("(*, BLOCK, *)", bounds, grid)
    sweep = []
    for frac in FRACS:
        sched = plan_bounded_redistribution(src, dst, max_temp_frac=frac)
        s = sched.summary()
        s["peak_vs_naive"] = round(s["peak_vs_naive"], 4)
        sweep.append(s)
    return {
        "shape": list(FFT_SHAPE),
        "nprocs": 4,
        "repartition": "(*, *, BLOCK) -> (*, BLOCK, *)",
        "sweep": sweep,
    }


def _run_case(variant: str, nprocs: int, backend: str) -> dict:
    n = 2 * nprocs
    t0 = time.perf_counter()
    r = run_matmul(n, nprocs, variant, backend=backend)
    wall = time.perf_counter() - t0
    assert r.correct, (variant, nprocs, backend)
    return {
        "variant": variant,
        "n": n,
        "nprocs": nprocs,
        "backend": backend,
        "wall_s": round(wall, 4),
        "makespan": r.stats.makespan,
        "messages": r.stats.total_messages,
        "result_sha256": r.digest,
    }


def run_matmul_bench(nprocs_list=NPROCS) -> dict:
    cases = [
        _run_case(v, p, backend)
        for v in VARIANTS
        for p in nprocs_list
        for backend in BACKENDS
    ]
    by_key: dict = {}
    for c in cases:
        by_key.setdefault((c["variant"], c["nprocs"]), {})[c["backend"]] = c
    transparency = {
        f"{v}@{p}": per["msg"]["result_sha256"] == per["shmem"]["result_sha256"]
        for (v, p), per in by_key.items()
    }
    return {
        "variants": list(VARIANTS),
        "nprocs": list(nprocs_list),
        "cases": cases,
        "result_transparent": transparency,
    }


def _summa_msg(nprocs: int, tree: bool | None):
    """SUMMA at n = 2P on msg, every broadcast forced to the tree (True)
    or flat (False), or as the rule picks (None)."""
    rule = schedule.tree_pays
    if tree is not None:
        schedule.tree_pays = lambda *args: tree
    try:
        r = run_matmul(2 * nprocs, nprocs, "summa", backend="msg")
    finally:
        schedule.tree_pays = rule
    assert r.correct, (nprocs, tree)
    return r


def run_broadcast_rule_bench(nprocs_list=RULE_NPROCS) -> dict:
    rows = []
    for p in nprocs_list:
        tree, flat, rule = (_summa_msg(p, t) for t in (True, False, None))
        assert tree.digest == flat.digest == rule.digest, p
        assert tree.messages == flat.messages, p
        # summa broadcasts one b x n block-row, b = n / P = 2
        pick = schedule.tree_pays(p, 2 * 2 * p * 8, MachineModel())
        rows.append({
            "n": 2 * p,
            "nprocs": p,
            "tree_makespan": tree.makespan,
            "flat_makespan": flat.makespan,
            "pick": "tree" if pick else "flat",
            "rule_makespan": rule.makespan,
            "tree_over_flat": round(tree.makespan / flat.makespan, 3),
        })
    return {"variant": "summa", "backend": "msg", "rows": rows}


def _rule_picks_the_minimum(rule: dict) -> bool:
    return all(
        r["rule_makespan"] == r[f"{r['pick']}_makespan"]
        == min(r["tree_makespan"], r["flat_makespan"])
        for r in rule["rows"]
    )


def _emit_results(results: dict) -> None:
    emit(
        "P8 — bounded redistribution planner (fft3d repartition, P=4)",
        ["frac", "rounds", "moves", "peak_temp", "naive_peak", "peak/naive"],
        [[s["max_temp_frac"], s["rounds"], s["moves"], s["peak_temp_bytes"],
          s["naive_peak_bytes"], f"{s['peak_vs_naive']:.3f}"]
         for s in results["planner"]["sweep"]],
    )
    emit(
        "P8 — distributed matmul (collective makespans)",
        ["variant", "P", "backend", "wall_s", "makespan", "messages",
         "sha256"],
        [[c["variant"], c["nprocs"], c["backend"], f"{c['wall_s']:.3f}",
          f"{c['makespan']:.0f}", c["messages"], c["result_sha256"][:12]]
         for c in results["matmul"]["cases"]],
    )
    emit(
        "P8 — broadcast rule (summa n=2P, msg)",
        ["P", "tree", "flat", "tree/flat", "pick"],
        [[r["nprocs"], f"{r['tree_makespan']:.0f}",
          f"{r['flat_makespan']:.0f}", f"{r['tree_over_flat']:.3f}",
          r["pick"]]
         for r in results["broadcast_rule"]["rows"]],
    )


def _planner_bar_holds(planner: dict) -> bool:
    at_bar = [s for s in planner["sweep"]
              if s["max_temp_frac"] == PLANNER_BAR_FRAC]
    return bool(at_bar) and at_bar[0]["peak_vs_naive"] <= PLANNER_BAR


def test_p8_smoke(benchmark):
    """CI-friendly subset: planner bar + P=4 matmuls, both backends."""
    results = {
        "planner": run_planner_bench(),
        "matmul": run_matmul_bench(nprocs_list=(4,)),
        "broadcast_rule": run_broadcast_rule_bench(nprocs_list=(4, 16)),
    }
    _emit_results(results)
    assert _planner_bar_holds(results["planner"]), results["planner"]
    assert all(results["matmul"]["result_transparent"].values()), results
    assert _rule_picks_the_minimum(results["broadcast_rule"]), results
    benchmark.pedantic(
        lambda: run_matmul(8, 4, "summa", backend="msg"),
        rounds=1, iterations=1,
    )


def test_p8_collectives_full(benchmark):
    """The full sweep: records BENCH_collectives.json."""
    results = {
        "schema": 1,
        "planner": run_planner_bench(),
        "matmul": run_matmul_bench(),
        "broadcast_rule": run_broadcast_rule_bench(),
    }
    _emit_results(results)

    assert _planner_bar_holds(results["planner"]), results["planner"]
    # Budgets must actually trade rounds for peak memory: the sweep's
    # tightest budget uses strictly more rounds than the loosest.
    rounds = [s["rounds"] for s in results["planner"]["sweep"]]
    assert rounds[0] > rounds[-1], rounds

    assert all(results["matmul"]["result_transparent"].values()), (
        results["matmul"]["result_transparent"]
    )
    assert _rule_picks_the_minimum(results["broadcast_rule"]), (
        results["broadcast_rule"]
    )

    write_json_atomic(BENCH_FILE, results)
    benchmark.extra_info["planner_peak_vs_naive"] = {
        str(s["max_temp_frac"]): s["peak_vs_naive"]
        for s in results["planner"]["sweep"]
    }
    benchmark.extra_info["broadcast_rule"] = results["broadcast_rule"]
    benchmark.extra_info["bench_file"] = str(BENCH_FILE)
    benchmark.pedantic(
        lambda: run_matmul_bench(nprocs_list=(4,)), rounds=1, iterations=1,
    )
