"""Unit tests for the kernel registry and the machine cost model."""

import math

import numpy as np
import pytest

from repro.core.kernels import KernelRegistry, default_registry
from repro.machine import HEADER_BYTES, MachineModel


class TestKernels:
    def test_default_registry_contents(self):
        reg = default_registry()
        for name in ("fft1D", "work", "negate", "scale", "smooth"):
            assert name in reg

    def test_unknown_kernel(self):
        with pytest.raises(KeyError, match="nosuch"):
            default_registry().get("nosuch")

    def test_fft1d_correctness_and_flops(self):
        k = default_registry().get("fft1D")
        x = (np.arange(8.0) + 0j).reshape(1, 8, 1)
        flops = k.fn(x)
        assert np.allclose(x.reshape(8), np.fft.fft(np.arange(8.0)))
        assert flops == int(5 * 8 * math.log2(8))

    def test_fft1d_single_element(self):
        k = default_registry().get("fft1D")
        x = np.array([3.0 + 0j])
        assert k.fn(x) == 1

    def test_work_units(self):
        k = default_registry().get("work")
        assert k.fn(123.7) == 123

    def test_scale_and_negate(self):
        reg = default_registry()
        x = np.array([1.0, 2.0])
        reg.get("scale").fn(x, 3.0)
        assert list(x) == [3.0, 6.0]
        reg.get("negate").fn(x)
        assert list(x) == [-3.0, -6.0]

    def test_smooth(self):
        x = np.array([0.0, 3.0, 0.0, 3.0, 0.0])
        default_registry().get("smooth").fn(x.reshape(1, 5))

    def test_gemm_acc_flops(self):
        kernel = default_registry().get("gemm_acc").fn
        for m, k, n in ((2, 8, 8), (4, 4, 4), (1, 8, 2)):
            c = np.zeros((m, n))
            assert kernel(c, np.ones((m, k)), np.ones((k, n))) == 2 * m * n * k
            assert (c == k).all()

    def test_tuner_flop_table_matches_kernels(self):
        from repro.tune.cost import KERNEL_FLOPS

        reg = default_registry()
        for name, flops in KERNEL_FLOPS.items():
            extra = (2.0,) if name == "scale" else ()
            for n in (1, 2, 8):
                x = np.ones((1, n), dtype=complex)
                assert reg.get(name).fn(x, *extra) == flops(n), (name, n)

    def test_custom_registration(self):
        reg = KernelRegistry()

        def double(arr):
            arr *= 2
            return arr.size

        reg.register("double", double)
        x = np.ones(4)
        assert reg.get("double").fn(x) == 4
        assert np.all(x == 2.0)


class TestMachineModel:
    def test_message_cost(self):
        m = MachineModel(alpha=100, per_byte=0.5)
        assert m.message_cost(200) == 100 + 100
        assert m.elems_cost(10) == 100 + 10 * 8 * 0.5

    def test_presets_ordering(self):
        mp = MachineModel.message_passing()
        sa = MachineModel.shared_address()
        hl = MachineModel.high_latency()
        assert sa.alpha < mp.alpha < hl.alpha
        assert sa.o_send < mp.o_send

    def test_with_override(self):
        m = MachineModel().with_(alpha=7.0)
        assert m.alpha == 7.0
        assert m.o_send == MachineModel().o_send

    def test_header_constant(self):
        assert HEADER_BYTES == 16


class TestStatsRendering:
    def test_summary_flags_unmatched(self):
        from repro.machine.stats import ProcStats, RunStats

        s = RunStats(procs=[ProcStats(0)], unclaimed_messages=2)
        assert "WARNING" in s.summary()

    def test_aggregates(self):
        from repro.machine.stats import ProcStats, RunStats

        s = RunStats(procs=[
            ProcStats(0, compute_time=5, idle_time=1, send_overhead=2),
            ProcStats(1, compute_time=3, idle_time=4, recv_overhead=6),
        ])
        assert s.total_compute_time == 8
        assert s.total_idle_time == 5
        assert s.total_overhead == 8
