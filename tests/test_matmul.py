"""Tests for the distributed matrix-multiply app suite.

The suite's contract (ISSUE 8 acceptance): every variant computes
``A @ B`` correctly, bit-identically across the ``msg``/``shmem``
backends, and every variant verifies clean on both backends.  The digests pinned here are
the cross-session goldens the CI collectives-smoke job checks against.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.matmul import VARIANTS, matmul_source, run_matmul
from repro.core.analysis import verify_communication
from repro.core.ir.parser import parse_program

# sha256 of the result array bytes at n=8, P=4, seed=11 — any engine,
# backend or lowering change that shifts a single bit shows up here.
GOLDEN = {
    "cannon": "92037fdc5bb644f1d28253c40e645c208033dbd39933fc0c6b545cabdcce0f17",
    "summa": "2fd11faf6a9d15076389217d063d511978603cb07ba56d559a708a26895af4bc",
    "gather": "76c91dc910c8d2d6d33ebe1afb467dc7c5331782794ecfa285bdb51a72954c5e",
    "outer": "a21662f3423a39ef9baa0713a8ab83be6a1aa1908655ff62229ee76476c0653c",
}


class TestSource:
    def test_variants_exposed(self):
        assert set(VARIANTS) == set(GOLDEN)

    def test_rejects_bad_variant_and_shape(self):
        with pytest.raises(ValueError, match="variant"):
            matmul_source(8, 4, "strassen")
        with pytest.raises(ValueError, match="multiple"):
            matmul_source(10, 4, "summa")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_sources_parse(self, variant):
        parse_program(matmul_source(8, 4, variant))


class TestGolden:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_vm_msg_native_matches_golden(self, variant):
        r = run_matmul(8, 4, variant, backend="msg")
        assert r.correct
        assert r.digest == GOLDEN[variant]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bit_identity_across_paths(self, variant):
        r = run_matmul(8, 4, variant, backend="shmem")
        assert r.correct
        assert r.digest == GOLDEN[variant]


class TestScaling:
    @pytest.mark.parametrize("variant", ["cannon", "summa"])
    def test_larger_machine_still_correct_and_backend_identical(
            self, variant):
        msg = run_matmul(16, 8, variant, backend="msg")
        shm = run_matmul(16, 8, variant, backend="shmem")
        assert msg.correct and shm.correct
        assert msg.digest == shm.digest

    def test_result_matches_numpy(self):
        r = run_matmul(8, 4, "gather", seed=3)
        rng = np.random.default_rng(3)
        a0 = rng.standard_normal((8, 8))
        b0 = rng.standard_normal((8, 8))
        assert np.allclose(r.result, a0 @ b0)


class TestVerification:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("backend", ["msg", "shmem"])
    def test_check_clean(self, variant, backend):
        program = parse_program(matmul_source(8, 4, variant))
        report = verify_communication(program, 4, backend=backend)
        assert report.ok, report.format()
        assert not report.findings, report.format()
