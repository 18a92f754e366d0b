"""P5 — transport backends: message passing vs shared address (section 5).

The same placement-annotated programs run under both bindings of the
transfer operators: ``msg`` binds ``->``/``<-`` to send/receive pairs,
``shmem`` binds them to poststore/prefetch with ``await`` as the
completion fence.  The paper's delayed-binding claim is that the choice
is a *cost* decision, not a semantic one — so this benchmark records,
for Jacobi and the 3-D FFT at P in {4, 16}:

* bit-identical result arrays across backends (asserted, and the sha256
  digests are recorded in the artifact);
* the virtual makespan under each binding and their ratio (the number
  that would drive a real binding choice);
* wall-clock per backend (the simulator's own overhead).

Results are recorded to ``BENCH_backends.json`` at the repo root.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
from conftest import emit

from repro.report.record import write_json_atomic

from repro.apps.fft3d import run_fft3d
from repro.apps.jacobi import run_jacobi
from repro.machine.transport import SIM_BACKENDS

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = ROOT / "BENCH_backends.json"

NPROCS = (4, 16)


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _run_case(app: str, nprocs: int, backend: str) -> dict:
    t0 = time.perf_counter()
    if app == "jacobi":
        res = run_jacobi(4 * nprocs, nprocs, 3, "halo-overlap",
                         backend=backend)
    else:
        res = run_fft3d(nprocs, nprocs, 2, backend=backend)
    wall = time.perf_counter() - t0
    assert res.correct, (app, nprocs, backend)
    return {
        "app": app,
        "nprocs": nprocs,
        "backend": backend,
        "wall_s": round(wall, 4),
        "makespan": res.stats.makespan,
        "messages": res.stats.total_messages,
        "result_sha256": _sha(res.result),
    }


def run_backend_bench(nprocs_list=NPROCS) -> dict:
    cases = [
        _run_case(app, p, backend)
        for app in ("jacobi", "fft3d")
        for p in nprocs_list
        for backend in SIM_BACKENDS
    ]
    by_key: dict = {}
    for c in cases:
        by_key.setdefault((c["app"], c["nprocs"]), {})[c["backend"]] = c
    transparency, ratios = {}, {}
    for (app, p), per in by_key.items():
        key = f"{app}@{p}"
        transparency[key] = (
            per["msg"]["result_sha256"] == per["shmem"]["result_sha256"]
        )
        ratios[key] = round(per["shmem"]["makespan"] / per["msg"]["makespan"], 3)
    return {
        "schema": 1,
        "config": {
            "apps": ["jacobi", "fft3d"],
            "nprocs": list(nprocs_list),
            "backends": list(SIM_BACKENDS),
        },
        "cases": cases,
        "result_transparent": transparency,
        "makespan_ratio_shmem_over_msg": ratios,
    }


def _emit_results(results: dict) -> None:
    rows = [
        [c["app"], c["nprocs"], c["backend"], f"{c['wall_s']:.3f}",
         f"{c['makespan']:.0f}", c["messages"], c["result_sha256"][:12]]
        for c in results["cases"]
    ]
    emit(
        "P5 — transport backends (msg vs shmem binding)",
        ["app", "P", "backend", "wall_s", "makespan", "messages", "sha256"],
        rows,
    )


def test_p5_smoke_transparency(benchmark):
    """CI-friendly subset: P=4 only, both backends, bit-identical."""
    results = run_backend_bench(nprocs_list=(4,))
    _emit_results(results)
    assert all(results["result_transparent"].values()), results
    benchmark.pedantic(
        lambda: run_jacobi(16, 4, 3, "halo-overlap", backend="shmem"),
        rounds=1, iterations=1,
    )


def test_p5_backends_full(benchmark):
    """The full sweep: records BENCH_backends.json, asserts transparency."""
    results = run_backend_bench()
    _emit_results(results)

    # Section-5 result transparency at every point of the sweep.
    assert all(results["result_transparent"].values()), (
        results["result_transparent"]
    )
    # The bindings are genuinely different machines: on these models the
    # shared-address binding must not be makespan-identical everywhere.
    assert any(
        r != 1.0 for r in results["makespan_ratio_shmem_over_msg"].values()
    )

    write_json_atomic(BENCH_FILE, results)
    benchmark.extra_info["makespan_ratios"] = (
        results["makespan_ratio_shmem_over_msg"]
    )
    benchmark.extra_info["bench_file"] = str(BENCH_FILE)
    benchmark.pedantic(
        lambda: run_backend_bench(nprocs_list=(4,)), rounds=1, iterations=1,
    )
