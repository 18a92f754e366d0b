"""P2 — fault tolerance: result transparency, determinism, overhead.

The fault layer's three acceptance bars, measured at scale:

1. **Transparency** — under every loss/duplication/delay/stall schedule
   (no crashes), the reliable transport must make the workqueue and
   FFT-pipeline programs produce virtual results identical to the
   fault-free run, at P in {8, 64}.
2. **Determinism** — a fixed seed replays a faulty run bit-identically
   (makespan, counters, per-processor finish times).
3. **Overhead** — fault injection is middleware, so with no FaultModel
   configured the hot path carries no hook at all; what is measured is
   the cost of the inert reliable-delivery protocol over that default
   (min-of-repeats walls, interleaved to cancel drift).

The overhead number is also recorded into ``BENCH_engine.json`` by
``repro bench`` (the ``faults_off`` entry).
"""

from conftest import emit

from repro.apps.chaos import run_chaos
from repro.apps.enginebench import measure_faults_overhead


def _emit_chaos(report: dict) -> None:
    rows = [
        [c["program"], c["nprocs"], c["schedule"],
         "OK" if c["ok"] else "FAIL", f"{c['makespan']:.0f}",
         f"{c['baseline_makespan']:.0f}", c["retransmits"],
         c["dups_suppressed"]]
        for c in report["cases"]
    ]
    emit(
        "P2 — chaos battery (reliable transport over fault schedules)",
        ["program", "P", "schedule", "result", "makespan", "baseline",
         "rexmit", "dup-sup"],
        rows,
    )


def test_p2_chaos_transparency_at_scale(benchmark):
    """Every fault schedule is result-transparent at P=8 and P=64."""
    report = run_chaos(
        programs=("workqueue", "fft"), nprocs_list=(8, 64),
        seed=7, jobs_per_proc=8, include_crash=True,
    )
    _emit_chaos(report)
    for c in report["cases"]:
        assert c["ok"], (
            f"{c['program']}@{c['nprocs']} under {c['schedule']}: "
            f"{c['detail']}"
        )
    for d in report["determinism"]:
        assert d["ok"], f"seed replay diverged: {d}"
    for d in report["degraded"]:
        assert d["ok"], f"crash did not degrade gracefully: {d}"
    assert report["ok"]
    benchmark.pedantic(
        lambda: run_chaos(
            programs=("workqueue",), nprocs_list=(8,),
            seed=7, jobs_per_proc=8,
        ),
        rounds=1, iterations=1,
    )


def test_p2_faults_off_overhead(benchmark):
    """Records the inert protocol's cost on the P=64 workqueue (the two
    variants must agree on the makespan, which the harness asserts)."""
    fo = measure_faults_overhead(64, jobs_per_proc=16, repeats=5)
    emit(
        "P2 — faults-off overhead (P=64 workqueue, min of 5)",
        ["variant", "wall_s", "overhead_pct"],
        [
            ["disabled (shipped default)", fo["wall_disabled_s"], "baseline"],
            ["inert protocol engaged", fo["wall_inert_s"],
             f"{fo['overhead_inert_pct']:+.1f}%"],
        ],
    )
    benchmark.pedantic(
        lambda: measure_faults_overhead(8, jobs_per_proc=4, repeats=1),
        rounds=1, iterations=1,
    )
