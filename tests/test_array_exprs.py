"""Elementwise array-expression semantics in IL+XDP (section-valued
operands in assignments and expressions)."""

import numpy as np
import pytest

from repro.core.codegen import lower
from repro.core.ir.parser import parse_program
from repro.machine import MachineModel

FAST = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)


def run(src, nprocs=1, init=None):
    runner = lower(parse_program(src), nprocs, model=FAST)
    for k, v in (init or {}).items():
        runner.write_global(k, np.asarray(v, dtype=float))
    runner.run()
    return runner


class TestElementwise:
    def test_section_plus_section(self):
        src = """
array A[1:6] dist (BLOCK) seg (6)
array B[1:6] dist (BLOCK) seg (6)

A[1:6] = A[1:6] + B[1:6] * 2
"""
        r = run(src, 1, {"A": np.arange(6.0), "B": np.ones(6)})
        assert np.array_equal(r.read_global("A"), np.arange(6.0) + 2)

    def test_strided_subsection_arithmetic(self):
        src = """
array A[1:8] dist (BLOCK) seg (8)

A[1:8:2] = A[1:8:2] * 10
"""
        r = run(src, 1, {"A": np.arange(1.0, 9)})
        assert list(r.read_global("A")) == [10, 2, 30, 4, 50, 6, 70, 8]

    def test_scalar_broadcast_into_section(self):
        src = """
array A[1:4,1:4] dist (*, BLOCK) seg (4,4)

A[2:3,*] = 7
"""
        r = run(src, 1)
        A = r.read_global("A")
        assert np.all(A[1:3, :] == 7) and np.all(A[0] == 0)

    def test_min_max_elementwise(self):
        src = """
array A[1:4] dist (BLOCK) seg (4)
array B[1:4] dist (BLOCK) seg (4)

A[1:4] = max(A[1:4], B[1:4])
"""
        r = run(src, 1, {"A": [1, 5, 2, 8], "B": [3, 3, 3, 3]})
        assert list(r.read_global("A")) == [3, 5, 3, 8]

    def test_universal_section_ops(self):
        src = """
array W[1:4] universal
array A[1:4] dist (BLOCK) seg (4)

W[1:4] = W[1:4] + 1
A[1:4] = W[1:4] * W[1:4]
"""
        r = run(src, 1, {"W": np.arange(4.0)})
        assert list(r.read_global("A")) == [1.0, 4.0, 9.0, 16.0]

    def test_2d_subarray_combination(self):
        src = """
array A[1:4,1:4] dist (*, BLOCK) seg (4,4)

A[1:2,1:2] = A[3:4,3:4] + 100
"""
        a0 = np.arange(16.0).reshape(4, 4)
        r = run(src, 1, {"A": a0})
        A = r.read_global("A")
        assert np.array_equal(A[0:2, 0:2], a0[2:4, 2:4] + 100)

    def test_section_expression_matches_numpy(self):
        src = """
array A[1:8] dist (BLOCK) seg (8)

A[2:7] = A[2:7] - A[2:7] / 2.0
"""
        got = run(src, 1, {"A": np.arange(8.0)}).read_global("A")
        want = np.arange(8.0)
        want[1:7] -= want[1:7] / 2.0
        assert np.array_equal(got, want)

    def test_distributed_local_section_update(self):
        # Each processor updates only its own block via mylb/myub.
        src = """
array A[1:8] dist (BLOCK) seg (4)

A[mylb(A[*], 1):myub(A[*], 1)] = mypid
"""
        r = run(src, 2)
        assert list(r.read_global("A")) == [1, 1, 1, 1, 2, 2, 2, 2]
