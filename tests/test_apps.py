"""Integration tests for the application layer (paper sections 2.6, 2.7, 4)."""

import numpy as np
import pytest

from repro.apps import (
    fft3d_redistribution_schedule,
    fft3d_source,
    make_job_costs,
    run_fft3d,
    run_jacobi,
    run_monitor,
    run_workqueue,
)
from repro.core.ir.parser import parse_program
from repro.core.ir.verify import verify_program
from repro.machine import MachineModel

FAST = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)


class TestFFT3D:
    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_paper_case_correct(self, stage):
        r = run_fft3d(4, 4, stage, model=FAST)
        assert r.correct
        assert r.stats.unclaimed_messages == 0

    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_general_case_correct(self, stage):
        r = run_fft3d(8, 4, stage, model=FAST)
        assert r.correct

    def test_two_procs(self):
        r = run_fft3d(8, 2, 2, model=FAST)
        assert r.correct

    def test_message_counts_match_redistribution(self):
        # n == P: every processor ships n-1 column slabs (keeps its own).
        r = run_fft3d(4, 4, 1, model=FAST)
        assert r.messages == 4 * 3 + 4  # 12 off-processor + 4 self slabs

    def test_stage1_removes_guard_overhead(self):
        s0 = run_fft3d(4, 4, 0, model=FAST)
        s1 = run_fft3d(4, 4, 1, model=FAST)
        assert s1.makespan < s0.makespan

    def test_stage2_improves_mean_finish_under_latency(self):
        m = MachineModel(alpha=2000, per_byte=5.0, o_send=50, o_recv=50)
        s1 = run_fft3d(16, 4, 1, model=m)
        s2 = run_fft3d(16, 4, 2, model=m)
        mean1 = np.mean([p.finish_time for p in s1.stats.procs])
        mean2 = np.mean([p.finish_time for p in s2.stats.procs])
        assert mean2 < mean1

    def test_sources_verify(self):
        for n, P in [(4, 4), (8, 4)]:
            for stage in (0, 1, 2, 3):
                verify_program(parse_program(fft3d_source(n, P, stage)))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            fft3d_source(7, 4, 0)
        with pytest.raises(ValueError):
            fft3d_source(8, 4, 9)


class TestFFT3DStage3:
    """Stage 3: the repartition routed through the bounded planner."""

    def test_correct(self):
        r = run_fft3d(8, 4, 3, model=FAST)
        assert r.correct
        assert r.stats.unclaimed_messages == 0

    def test_peak_temp_memory_is_one_third_of_naive(self):
        # The §4 repartition at the default budget runs in 3 rounds whose
        # receive windows peak at exactly 1/3 of the all-at-once exchange:
        # 512 B/proc instead of 1536 B (complex128, n=8, P=4).
        sched = fft3d_redistribution_schedule(8, 4)
        assert sched.round_count == 3
        assert sched.naive_peak_bytes == 1536
        assert sched.peak_temp_bytes == 512
        assert sched.peak_temp_bytes * 3 == sched.naive_peak_bytes

    @pytest.mark.msg_timing
    def test_planner_trades_latency_for_memory(self):
        # The fences serialize rounds, so stage 3 may be slower than the
        # unbounded stage 1 — but it must still beat the naive program.
        s0 = run_fft3d(8, 4, 0, model=FAST)
        s3 = run_fft3d(8, 4, 3, model=FAST)
        assert s3.makespan < s0.makespan

    def test_matches_other_stages_bitwise(self):
        base = run_fft3d(8, 4, 1, model=FAST)
        s3 = run_fft3d(8, 4, 3, model=FAST)
        np.testing.assert_allclose(s3.result, base.result, atol=1e-12)


class TestJacobi:
    @pytest.mark.parametrize("variant", ["naive", "halo", "halo-overlap"])
    def test_correct(self, variant):
        r = run_jacobi(32, 4, 2, variant, model=FAST)
        assert r.correct

    def test_halo_slashes_messages(self):
        naive = run_jacobi(32, 4, 2, "naive", model=FAST)
        halo = run_jacobi(32, 4, 2, "halo", model=FAST)
        assert halo.messages < naive.messages / 5
        assert halo.makespan < naive.makespan

    def test_overlap_hides_latency(self):
        m = MachineModel.high_latency()
        halo = run_jacobi(64, 4, 3, "halo", model=m)
        over = run_jacobi(64, 4, 3, "halo-overlap", model=m)
        assert over.correct and halo.correct
        assert over.makespan <= halo.makespan

    def test_message_count_formula(self):
        # 2 boundary messages per interior processor pair per sweep.
        r = run_jacobi(32, 4, 3, "halo", model=FAST)
        assert r.messages == 3 * 2 * 3  # sweeps * (P-1 pairs) * 2 directions

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            run_jacobi(8, 2, 1, "bogus")


class TestWorkQueue:
    def test_dynamic_beats_static_under_skew(self):
        costs = make_job_costs(40, skew=6.0, seed=5)
        stat = run_workqueue(40, 5, scheme="static", costs=costs, model=FAST)
        dyn = run_workqueue(40, 5, scheme="dynamic", costs=costs, model=FAST)
        assert dyn.makespan < stat.makespan
        assert sum(dyn.jobs_per_worker.values()) == 40
        assert sum(stat.jobs_per_worker.values()) == 40

    @pytest.mark.msg_timing
    def test_uniform_costs_near_parity(self):
        costs = np.full(24, 100.0)
        stat = run_workqueue(24, 4, scheme="static", costs=costs, model=FAST)
        dyn = run_workqueue(24, 4, scheme="dynamic", costs=costs, model=FAST)
        # Dynamic pays per-job request latency; allow modest overhead.
        assert dyn.makespan < stat.makespan * 1.5

    def test_all_jobs_processed_exactly_once(self):
        costs = make_job_costs(17, skew=3.0)
        dyn = run_workqueue(17, 3, scheme="dynamic", costs=costs, model=FAST)
        assert sum(dyn.jobs_per_worker.values()) == 17
        assert dyn.stats.unclaimed_messages == 0
        assert dyn.stats.unmatched_receives == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_workqueue(4, 1)
        with pytest.raises(ValueError):
            run_workqueue(4, 3, scheme="magic")
        with pytest.raises(ValueError):
            run_workqueue(4, 3, costs=np.ones(3))


class TestMonitor:
    def test_schedule_followed(self):
        sched = [0, 0, 1, 2, 2, 3, 0]
        r = run_monitor(4, sched, model=FAST)
        assert r.monitored_pids() == sched
        assert len(r.stats.logs) == len(sched)

    @pytest.mark.msg_timing
    def test_ownership_only_messages(self):
        # Pure ownership transfers: header-only messages.
        sched = [0, 1, 2]
        r = run_monitor(3, sched, model=FAST)
        assert r.stats.total_messages == 2
        assert r.stats.total_bytes == 2 * 16

    def test_single_owner_no_traffic(self):
        r = run_monitor(3, [1, 1, 1], model=FAST)
        assert r.stats.total_messages == 0
        assert r.monitored_pids() == [1, 1, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_monitor(2, [])
        with pytest.raises(ValueError):
            run_monitor(2, [5])
