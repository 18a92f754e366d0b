"""Conservatism and determinism guarantees.

Optimization passes must *skip* (not break) whatever they cannot prove;
the engine must be bit-deterministic run to run.
"""

import numpy as np

from repro import Interpreter
from repro.core.ir.parser import parse_program
from repro.core.opt import (
    AwaitSinking, ComputeRuleElimination, GuardHoisting, LoopFusion,
    MessageVectorization, PassManager, TransferElimination,
)
from repro.core.translate import translate
from repro.machine import MachineModel

FAST = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)


def reports_of(src, passes, nprocs=4, translate_first=False):
    prog = parse_program(src)
    if translate_first:
        prog = translate(prog, nprocs)
    return PassManager(passes).run(prog, nprocs).reports


class TestPassConservatism:
    def test_cre_handles_mypid_in_collapsed_subscript(self):
        # The dynamic enumeration pins mypid per processor, so even a
        # guard mixing the loop variable with mypid is analyzable.
        src = """
array A[1:4,1:4] dist (BLOCK, *) seg (1,4)

do i = 1, 4
  iown(A[i,mypid]) : { A[i,mypid] = 1 }
enddo
"""
        reps = reports_of(src, [ComputeRuleElimination()])
        assert any("replaced i by mypid" in r for r in reps)

    def test_cre_skips_loop_var_in_two_subscripts(self):
        src = """
array A[1:4,1:4] dist (BLOCK, *) seg (1,4)

do i = 1, 4
  iown(A[i,i]) : { A[i,i] = 1 }
enddo
"""
        reps = reports_of(src, [ComputeRuleElimination()])
        assert any("no opportunities" in r for r in reps)

    def test_cre_skips_multi_statement_body(self):
        src = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (BLOCK) seg (1)

do i = 1, 8
  iown(A[i]) : { A[i] = 1 }
  iown(B[i]) : { B[i] = 2 }
enddo
"""
        reps = reports_of(src, [ComputeRuleElimination()])
        assert any("no opportunities" in r for r in reps)

    def test_vectorize_skips_multidim(self):
        src = """
array A[1:4,1:4] dist (*, BLOCK) seg (4,1)
array B[1:4,1:4] dist (*, CYCLIC) seg (4,1)

do i = 1, 4
  A[1,i] = A[1,i] + B[1,i]
enddo
"""
        reps = reports_of(src, [MessageVectorization()], translate_first=True)
        assert any("no opportunities" in r for r in reps)

    def test_fusion_skips_different_trip_counts(self):
        src = """
array A[1:8] dist (BLOCK) seg (1)

do i = 1, 8
  iown(A[i]) : { A[i] = 1 }
enddo
do j = 1, 7
  iown(A[j]) : { A[j] = 2 }
enddo
"""
        reps = reports_of(src, [LoopFusion()])
        assert any("no opportunities" in r for r in reps)

    def test_fusion_skips_capture_hazard(self):
        src = """
array A[1:4] dist (BLOCK) seg (1)
array B[1:4,1:4] dist (*, BLOCK) seg (4,1)

do i = 1, 4
  iown(A[i]) : { A[i] = 1 }
enddo
do i2 = 1, 4
  iown(B[i2,i]) : { B[i2,i] = 2 }
enddo
"""
        # Second loop's body uses outer name 'i' freely; renaming i2 -> i
        # would capture it.  (Program itself is odd but legal with i=… set.)
        src = "scalar i = 1\n" + src
        reps = reports_of(src, [LoopFusion()])
        assert any("no opportunities" in r for r in reps)

    def test_await_sinking_skips_await_of_other_array(self):
        src = """
array A[1:4,1:4] dist (*, BLOCK) seg (4,1)
array B[1:4,1:4] dist (*, BLOCK) seg (4,1)

await(A[*,mypid]) : {
  do i = 1, 4
    B[i,mypid] = 1
  enddo
}
"""
        reps = reports_of(src, [AwaitSinking()])
        assert any("no opportunities" in r for r in reps)

    def test_guard_hoisting_skips_symbolic_bounds(self):
        src = """
array A[1:4,1:4] dist (*, BLOCK) seg (4,1)
scalar m

do i = 1, m
  iown(A[i,mypid]) : { A[i,mypid] = 1 }
enddo
"""
        reps = reports_of(src, [GuardHoisting()])
        # The pattern matched but could not be decided: said, not silent.
        assert any(r.startswith("guard-hoisting: declined — ") for r in reps)
        assert not any("hoisted" in r for r in reps)

    def test_transfer_elim_skips_dirty_arrays(self):
        src = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (BLOCK) seg (1)

B[1] =>
do i = 2, 8
  iown(B[i]) : { B[i] -> }
  iown(A[i]) : {
    A[i] <- B[i]
    await(A[i])
    A[i] = A[i] + 1
  }
enddo
"""
        # B's ownership moved before the loop: initial-distribution
        # reasoning is invalid, so the pair must stay.
        reps = reports_of(src, [TransferElimination()])
        assert all("removed transfer" not in r for r in reps)


class TestDeterminism:
    SRC = """
array A[1:16] dist (BLOCK) seg (1)
array B[1:16] dist (CYCLIC) seg (1)

do i = 1, 16
  A[i] = A[i] + B[i]
enddo
"""

    def _run_once(self):
        prog = translate(parse_program(self.SRC), 4)
        it = Interpreter(prog, 4, model=FAST, trace=True)
        it.write_global("A", np.arange(16.0))
        it.write_global("B", np.ones(16))
        stats = it.run()
        return stats, it.read_global("A")

    def test_repeated_runs_identical(self):
        (s1, a1) = self._run_once()
        (s2, a2) = self._run_once()
        assert np.array_equal(a1, a2)
        assert s1.makespan == s2.makespan
        assert [str(e) for e in s1.trace] == [str(e) for e in s2.trace]
