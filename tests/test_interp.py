"""Integration tests for the interpreter (the lowered VM): whole IL+XDP programs
executed on the simulated machine, checked against the paper's semantics."""

import numpy as np
import pytest

from repro.core.errors import OwnershipError, XDPError
from repro import Interpreter, run_program
from repro.core.ir.parser import parse_program
from repro.machine import MachineModel

FAST = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)


def run(src, nprocs, init=None, **kw):
    prog = parse_program(src)
    it = Interpreter(prog, nprocs, model=kw.pop("model", FAST), **kw)
    for name, arr in (init or {}).items():
        it.write_global(name, np.asarray(arr, dtype=float))
    stats = it.run()
    return it, stats


class TestSimpleExample:
    """Paper section 2.2: A[i] = A[i] + B[i] under owner-computes."""

    SRC = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist ({bdist}) seg (1)
array T[1:4] dist (BLOCK) seg (1)
scalar n = 8

do i = 1, n
  iown(B[i]) : {{ B[i] -> }}
  iown(A[i]) : {{
    T[mypid] <- B[i]
    await(T[mypid])
    A[i] = A[i] + T[mypid]
  }}
enddo
"""

    def test_aligned(self):
        it, stats = run(
            self.SRC.format(bdist="BLOCK"), 4,
            init={"A": np.arange(1, 9), "B": 10 * np.arange(1, 9)},
        )
        assert np.array_equal(it.read_global("A"), 11 * np.arange(1, 9.0))
        # Naive translation sends one message per element even when aligned
        # (self-messages): optimization removes them later.
        assert stats.total_messages == 8

    def test_misaligned(self):
        it, stats = run(
            self.SRC.format(bdist="CYCLIC"), 4,
            init={"A": np.arange(1, 9), "B": 10 * np.arange(1, 9)},
        )
        assert np.array_equal(it.read_global("A"), 11 * np.arange(1, 9.0))
        assert stats.total_messages == 8
        assert stats.unclaimed_messages == 0

    def test_two_procs(self):
        it, _ = run(
            self.SRC.format(bdist="BLOCK").replace("T[1:4]", "T[1:2]"), 2,
            init={"A": np.ones(8), "B": np.full(8, 2.0)},
        )
        assert np.all(it.read_global("A") == 3.0)


class TestOwnershipMigration:
    """Paper section 2.2, second fragment: move A's ownership to B's owners."""

    SRC = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (CYCLIC) seg (1)
scalar n = 8

do i = 1, n
  iown(A[i]) and not iown(B[i]) : { A[i] -=> }
  iown(B[i]) and not iown(A[i]) : { A[i] <=- }
  await(A[i]) : { A[i] = A[i] + B[i] }
enddo
"""

    def test_result_and_final_ownership(self):
        it, stats = run(
            self.SRC, 4,
            init={"A": np.arange(1, 9), "B": 10 * np.arange(1, 9)},
        )
        assert np.array_equal(it.read_global("A"), 11 * np.arange(1, 9.0))
        # A's ownership now matches B's CYCLIC distribution.
        segB = it.segmentations["B"].distribution
        for pid in range(4):
            st = it.engine.symtabs[pid]
            for sec in segB.owned_sections(pid):
                assert st.iown("A", sec)

    def test_migration_message_count(self):
        _, stats = run(
            self.SRC, 4,
            init={"A": np.zeros(8), "B": np.zeros(8)},
        )
        # BLOCK vs CYCLIC over 4 procs: only A[1] and A[6] stay put
        # (owner(A[i])==owner(B[i]) iff block owner == cyclic owner).
        assert stats.total_messages == 6


class TestComputeRules:
    def test_unowned_reference_makes_rule_false(self):
        # Guard references B[i]'s *value*; only B[i]'s owner passes, so the
        # assignment must also be ownership-correct only there.
        src = """
array A[1:4] dist (BLOCK) seg (1)
array B[1:4] dist (BLOCK) seg (1)

do i = 1, 4
  iown(A[i]) and B[i] > 0 : { A[i] = 5 }
enddo
"""
        it, _ = run(src, 4, init={"A": np.zeros(4), "B": [1, -1, 1, -1]})
        assert np.array_equal(it.read_global("A"), [5, 0, 5, 0])

    def test_general_boolean_rules(self):
        src = """
array A[1:8] dist (BLOCK) seg (1)

do i = 1, 8
  iown(A[i]) and mypid > 2 : { A[i] = mypid }
enddo
"""
        it, _ = run(src, 4, init={"A": np.zeros(8)})
        assert np.array_equal(it.read_global("A"), [0, 0, 0, 0, 3, 3, 4, 4])

    def test_await_false_when_unowned(self):
        # await on an unowned section skips the statement, no block.
        src = """
array A[1:4] dist (BLOCK) seg (1)

do i = 1, 4
  await(A[i]) : { A[i] = 1 }
enddo
"""
        it, stats = run(src, 4, init={"A": np.zeros(4)})
        assert np.all(it.read_global("A") == 1.0)

    def test_mylb_myub_guard(self):
        src = """
array A[1:8] dist (BLOCK) seg (1)

do i = mylb(A[*], 1), myub(A[*], 1)
  A[i] = mypid
enddo
"""
        it, _ = run(src, 4, init={"A": np.zeros(8)})
        assert np.array_equal(it.read_global("A"), [1, 1, 2, 2, 3, 3, 4, 4])


class TestSectionOperations:
    def test_section_assignment(self):
        src = """
array A[1:4,1:8] dist (*, BLOCK) seg (4,2)

iown(A[*,2*mypid-1:2*mypid]) : { A[*,2*mypid-1:2*mypid] = mypid }
"""
        it, _ = run(src, 4)
        A = it.read_global("A")
        for p in range(4):
            assert np.all(A[:, 2 * p : 2 * p + 2] == p + 1)

    def test_vectorized_transfer(self):
        # One whole-section message instead of per-element messages.
        src = """
array A[1:8] dist (BLOCK) seg (4)
array R[1:8] dist (BLOCK) seg (4)

iown(A[1:4]) : { A[1:4] -> }
iown(R[5:8]) : {
  R[5:8] <- A[1:4]
  await(R[5:8])
}
"""
        it, stats = run(src, 2, init={"A": np.arange(8.0), "R": np.zeros(8)})
        assert stats.total_messages == 1
        assert np.array_equal(it.read_global("R")[4:], np.arange(4.0))

    def test_universal_array(self):
        src = """
array W[1:4] universal
array A[1:4] dist (BLOCK) seg (1)

do i = 1, 4
  W[i] = mypid * 10 + i
enddo
iown(A[mypid]) : { A[mypid] = W[mypid] }
"""
        it, _ = run(src, 4)
        assert np.array_equal(it.read_global("A"), [11, 22, 33, 44])

    def test_universal_transfer_rejected(self):
        src = """
array W[1:4] universal

W[1] ->
"""
        with pytest.raises(OwnershipError, match="universal"):
            run(src, 2)


class TestCalls:
    def test_fft1d_kernel(self):
        src = """
array F[1:8] dist (BLOCK) seg (8) dtype complex128

iown(F[1:8]) : { call fft1D(F[1:8]) }
"""
        prog = parse_program(src)
        it = Interpreter(prog, 1, model=FAST)
        x = np.arange(8.0) + 0j
        it.write_global("F", x)
        it.run()
        assert np.allclose(it.read_global("F"), np.fft.fft(x))

    def test_work_kernel_costs_time(self):
        src = "call work(1000)\n"
        _, stats = run(src, 1)
        assert stats.procs[0].compute_time >= 1000

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            run("call nosuch(1)\n", 1)


class TestControlFlow:
    def test_if_else(self):
        src = """
array A[1:4] dist (BLOCK) seg (1)

if mypid % 2 == 0 then
  iown(A[mypid]) : { A[mypid] = 100 }
else
  iown(A[mypid]) : { A[mypid] = 200 }
endif
"""
        it, _ = run(src, 4)
        assert np.array_equal(it.read_global("A"), [200, 100, 200, 100])

    def test_negative_step_loop(self):
        src = """
array A[1:4] dist (*) universal
scalar k = 0

do i = 4, 1, -1
  k = k + 1
  A[i] = k
enddo
"""
        # universal with dist (*) is invalid decl syntax; use plain universal
        src = src.replace(" dist (*) universal", " universal")
        it, _ = run(src, 1)
        # A[4] set first (k=1) ... A[1] last (k=4)

    def test_zero_step_rejected(self):
        with pytest.raises(XDPError):
            run("do i = 1, 4, 0\nenddo\n", 1)

    def test_undefined_scalar(self):
        with pytest.raises(XDPError, match="undefined scalar"):
            run("x = y + 1\n", 1)


class TestPidSemantics:
    def test_mypid_is_one_based(self):
        src = """
array A[1:4] dist (BLOCK) seg (1)

iown(A[mypid]) : { A[mypid] = mypid }
"""
        it, _ = run(src, 4)
        assert np.array_equal(it.read_global("A"), [1, 2, 3, 4])

    def test_directed_send_uses_one_based_pids(self):
        src = """
array A[1:2] dist (BLOCK) seg (1)

mypid == 1 : { A[1] -> {2} }
mypid == 2 : {
  A[2] <- A[1]
  await(A[2])
}
"""
        it, stats = run(src, 2, init={"A": [7.0, 0.0]})
        assert it.engine.symtabs[1].read("A", __import__("repro.core.sections", fromlist=["section"]).section(2))[0] == 7.0

    def test_bad_destination(self):
        src = """
array A[1:2] dist (BLOCK) seg (1)

mypid == 1 : { A[1] -> {9} }
"""
        with pytest.raises(XDPError, match="outside machine"):
            run(src, 2)

    def test_nprocs(self):
        src = """
array A[1:4] dist (BLOCK) seg (1)

iown(A[mypid]) : { A[mypid] = nprocs }
"""
        it, _ = run(src, 4)
        assert np.all(it.read_global("A") == 4)


class TestRunProgram:
    def test_convenience_wrapper(self):
        it, stats = run_program(
            "array A[1:4] dist (BLOCK) seg (1)\n\n"
            "iown(A[mypid]) : { A[mypid] = 1 }\n",
            4,
            model=FAST,
        )
        assert np.all(it.read_global("A") == 1.0)
        assert stats.makespan > 0
