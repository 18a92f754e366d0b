"""P8 — collective communication subsystem (ISSUE 8).

Two artifacts from the collectives work are recorded here:

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
from repro.machine.model import MachineModel
from repro.machine.transport import BACKENDS
from repro.report.record import write_json_atomic

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = ROOT / "BENCH_collectives.json"

NPROCS = (4, 16, 64)
RULE_NPROCS = (4, 16, 32, 64)
VARIANTS = ("cannon", "summa")


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


def test_p8_smoke(benchmark):
    """CI-friendly subset: P=4 matmuls on both backends, and the
    broadcast rule at P in {4, 16}."""
    results = {
        "matmul": run_matmul_bench(nprocs_list=(4,)),
        "broadcast_rule": run_broadcast_rule_bench(nprocs_list=(4, 16)),
    }
    _emit_results(results)
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
        "matmul": run_matmul_bench(),
        "broadcast_rule": run_broadcast_rule_bench(),
    }
    _emit_results(results)

    assert all(results["matmul"]["result_transparent"].values()), (
        results["matmul"]["result_transparent"]
    )
    assert _rule_picks_the_minimum(results["broadcast_rule"]), (
        results["broadcast_rule"]
    )

    write_json_atomic(BENCH_FILE, results)
    benchmark.extra_info["broadcast_rule"] = results["broadcast_rule"]
    benchmark.extra_info["bench_file"] = str(BENCH_FILE)
    benchmark.pedantic(
        lambda: run_matmul_bench(nprocs_list=(4,)), rounds=1, iterations=1,
    )
