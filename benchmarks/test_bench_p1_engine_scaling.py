"""P1 — engine hot-path scaling (O(log P) scheduling, indexed matching).

Runs the workqueue (section 2.7) and FFT-pipeline (section 4) node
programs at nprocs in {8, 64, 256}, measuring wall-clock and effects/sec
on the engine's single scheduling loop.

The sweep doubles as a semantics regression: every case's virtual
makespan, message count and effect count must equal the committed
record's (the check the deleted seed-reference engine used to make
live; tier-1 pins the same goldens at P in {8, 64}).

Results are recorded to ``BENCH_engine.json`` at the repo root; compare a
later engine against it with ``python -m repro bench --diff``.  Host-time
claims are read off ``benchmarks/e2e``, not this file.
"""

import json
from pathlib import Path

from conftest import emit

from repro.report.record import write_json_atomic

from repro.apps.enginebench import format_bench, run_engine_bench

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _emit_results(results: dict) -> None:
    rows = [
        [c["program"], c["nprocs"], f"{c['wall_s']:.3f}",
         c["effects"], c["effects_per_sec"], f"{c['makespan']:.0f}"]
        for c in results["cases"]
    ]
    emit(
        "P1 — engine hot-path scaling",
        ["program", "P", "wall_s", "effects", "eff/sec", "makespan"],
        rows,
    )


def _assert_virtual_results_match_record(results: dict) -> None:
    recorded = {
        (c["program"], c["nprocs"]): (c["makespan"], c["messages"], c["effects"])
        for c in json.loads(BENCH_FILE.read_text())["cases"]
        if c["engine"] == "indexed"
    }
    for c in results["cases"]:
        assert (c["makespan"], c["messages"], c["effects"]) == recorded[
            (c["program"], c["nprocs"])
        ], c


def test_p1_smoke_small_scale(benchmark):
    """Quick CI-friendly check: the harness runs and reproduces the record."""
    results = run_engine_bench((8,), ("workqueue", "fft"), jobs_per_proc=16)
    _emit_results(results)
    _assert_virtual_results_match_record(results)
    benchmark.pedantic(
        lambda: run_engine_bench((8,), ("workqueue",), jobs_per_proc=8,
                                 classify=False),
        rounds=1, iterations=1,
    )


def test_p1_engine_scaling_full(benchmark):
    """The full sweep: checks the goldens, records BENCH_engine.json."""
    results = run_engine_bench((8, 64, 256), ("workqueue", "fft"),
                               jobs_per_proc=16)
    _emit_results(results)
    print(format_bench(results))
    _assert_virtual_results_match_record(results)

    # Throughput must not collapse with P: the engine at P=256 should
    # sustain at least half its P=8 effects/sec (an O(P) scan per effect
    # drops to well under that).
    rate = {(c["program"], c["nprocs"]): c["effects_per_sec"]
            for c in results["cases"]}
    assert rate[("workqueue", 256)] >= 0.5 * rate[("workqueue", 8)]

    write_json_atomic(BENCH_FILE, results)
    benchmark.extra_info["bench_file"] = str(BENCH_FILE)
    benchmark.pedantic(
        lambda: run_engine_bench((64,), ("workqueue",), jobs_per_proc=16,
                                 classify=False),
        rounds=1, iterations=1,
    )
