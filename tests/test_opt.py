"""Unit tests for the optimization passes (paper sections 2.2, 3.2, 4)."""

import numpy as np
import pytest

from repro import Interpreter
from repro.core.ir.nodes import (
    Assign, BinOp, DoLoop, Guarded, Iown, Mylb, Mypid, RecvStmt, SendStmt,
)
from repro.core.ir.parser import parse_program, parse_statements
from repro.core.ir.printer import print_program
from repro.core.ir.verify import verify_program
from repro.core.opt import (
    AwaitSinking, Cleanup, ComputeRuleElimination, GuardHoisting, LoopFusion,
    MessageVectorization, PassManager, ReceiveHoisting, TransferElimination,
    optimize,
)
from repro.core.translate import translate
from repro.machine import MachineModel

FAST = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)


def run_pipeline(src, nprocs, passes, init=None, grid=None):
    prog = parse_program(src)
    pm = PassManager(passes)
    res = pm.run(prog, nprocs, grid)
    verify_program(res.program)
    its = []
    for p in (prog, res.program):
        it = Interpreter(p, nprocs, model=FAST)
        for name, arr in (init or {}).items():
            it.write_global(name, np.asarray(arr, dtype=float))
        stats = it.run()
        its.append((it, stats))
    return res, its


SEQ_ALIGNED = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (BLOCK) seg (1)
scalar n = 8

do i = 1, n
  A[i] = A[i] + B[i]
enddo
"""


class TestTransferElimination:
    def make(self, bdist):
        src = SEQ_ALIGNED.replace("(BLOCK) seg (1)\nscalar", f"({bdist}) seg (1)\nscalar")
        return translate(parse_program(src), 4)

    def test_aligned_removes_all_messages(self):
        naive = self.make("BLOCK")
        res = PassManager([TransferElimination(), Cleanup()]).run(naive, 4)
        assert any("removed transfer" in r for r in res.reports)
        it = Interpreter(res.program, 4, model=FAST)
        it.write_global("A", np.arange(8.0))
        it.write_global("B", np.ones(8))
        stats = it.run()
        assert stats.total_messages == 0
        assert np.array_equal(it.read_global("A"), np.arange(8.0) + 1)

    def test_misaligned_keeps_messages(self):
        naive = self.make("CYCLIC")
        res = PassManager([TransferElimination(), Cleanup()]).run(naive, 4)
        assert all("removed transfer" not in r for r in res.reports)

    def test_temp_decl_removed(self):
        naive = self.make("BLOCK")
        res = PassManager([TransferElimination(), Cleanup()]).run(naive, 4)
        assert all(d.name != "_T1" for d in res.program.decls)

    def test_symbolic_bounds_conservative(self):
        src = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (BLOCK) seg (1)
scalar n

do i = 1, n
  A[i] = A[i] + B[i]
enddo
"""
        naive = translate(parse_program(src), 4)
        res = PassManager([TransferElimination()]).run(naive, 4)
        # n unknown at compile time: no elimination.
        assert all("removed transfer" not in r for r in res.reports)


class TestComputeRuleElimination:
    def test_localizes_bounds(self):
        naive = translate(parse_program(SEQ_ALIGNED), 4)
        res = PassManager(
            [TransferElimination(), ComputeRuleElimination(), Cleanup()]
        ).run(naive, 4)
        (loop,) = res.program.body
        assert isinstance(loop, DoLoop)
        assert isinstance(loop.lo, BinOp) and loop.lo.op == "max"
        assert isinstance(loop.hi, BinOp) and loop.hi.op == "min"
        # Guard is gone.
        assert not any(isinstance(s, Guarded) for s in loop.body)

    def test_localized_guard_cost_drops(self):
        naive = translate(parse_program(SEQ_ALIGNED), 4)
        res, ((_, s_naive), (_, s_opt)) = run_pipeline(
            print_program(naive), 4,
            [TransferElimination(), ComputeRuleElimination(), Cleanup()],
            init={"A": np.zeros(8), "B": np.ones(8)},
        )
        assert s_opt.makespan < s_naive.makespan

    def test_mypid_substitution(self):
        src = """
array A[1:4,1:4] dist (*, BLOCK) seg (4,1)

do p = 1, 4
  iown(A[*,p]) : {
    A[*,p] = p
  }
enddo
"""
        prog = parse_program(src)
        res = PassManager([ComputeRuleElimination()]).run(prog, 4)
        assert any("mypid" in r for r in res.reports)
        (assign,) = res.program.body
        assert isinstance(assign, Assign)
        it = Interpreter(res.program, 4, model=FAST)
        it.run()
        A = it.read_global("A")
        for p in range(4):
            assert np.all(A[:, p] == p + 1)

    def test_ownership_dirty_blocks_rewrite(self):
        src = """
array A[1:4] dist (BLOCK) seg (1)

A[1] =>
do i = 1, 4
  iown(A[i]) : {
    A[i] = 1
  }
enddo
"""
        prog = parse_program(src)
        res = PassManager([ComputeRuleElimination()]).run(prog, 4)
        # A's ownership was moved before the loop: initial distribution is
        # not trustworthy, guard must stay.
        assert any("no opportunities" in r for r in res.reports)

    def test_redistribution_loop_gets_mypid(self):
        """The FFT redistribution loop (ownership ops *inside* the guarded
        body) is handled by the dynamic ownership simulation."""
        src = """
array A[1:4,1:4] dist (*, BLOCK) seg (4,1)

do p = 1, 4
  iown(A[*,p]) : {
    do m = 1, 4
      A[m,p] -=>
    enddo
    do m = 1, 4
      A[m,p] <=-
    enddo
  }
enddo
"""
        prog = parse_program(src)
        res = PassManager([ComputeRuleElimination()]).run(prog, 4)
        assert any("mypid" in r for r in res.reports)


class TestMessageVectorization:
    SRC = """
array A[1:16] dist (BLOCK) seg (4)
array B[1:16] dist (CYCLIC) seg (1)
scalar n = 16

do i = 1, n
  A[i] = A[i] + B[i]
enddo
"""

    def test_reduces_message_count(self):
        naive = translate(parse_program(self.SRC), 4)
        res = PassManager([MessageVectorization(), Cleanup()]).run(naive, 4)
        assert any("combined" in r for r in res.reports)
        for label, p in (("naive", naive), ("vec", res.program)):
            it = Interpreter(p, 4, model=FAST)
            it.write_global("A", np.zeros(16))
            it.write_global("B", np.arange(16.0))
            stats = it.run()
            assert np.array_equal(it.read_global("A"), np.arange(16.0)), label
            if label == "naive":
                naive_msgs = stats.total_messages
            else:
                assert stats.total_messages < naive_msgs

    def test_buffer_distributed_like_lhs(self):
        naive = translate(parse_program(self.SRC), 4)
        res = PassManager([MessageVectorization()]).run(naive, 4)
        buf = next(d for d in res.program.decls if d.name.startswith("_V"))
        assert buf.dist == "(BLOCK)"
        assert buf.bounds == ((1, 16),)

    def test_skips_when_symbolic(self):
        src = self.SRC.replace("scalar n = 16", "scalar n")
        naive = translate(parse_program(src), 4)
        res = PassManager([MessageVectorization()]).run(naive, 4)
        assert all("combined" not in r for r in res.reports)


class TestLoopFusion:
    def test_fuses_independent_loops(self):
        src = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (BLOCK) seg (1)

do i = 1, 8
  iown(A[i]) : { A[i] = 1 }
enddo
do j = 1, 8
  iown(B[j]) : { B[j] = 2 }
enddo
"""
        prog = parse_program(src)
        res = PassManager([LoopFusion()]).run(prog, 4)
        assert any("fused" in r for r in res.reports)
        assert len(res.program.body) == 1

    def test_fusion_result_correct(self):
        src = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (BLOCK) seg (1)

do i = 1, 8
  iown(A[i]) : { A[i] = i }
enddo
do j = 1, 8
  iown(B[j]) : { B[j] = j * 10 }
enddo
"""
        res, ((it0, _), (it1, _)) = run_pipeline(
            src, 4, [LoopFusion()], init={"A": np.zeros(8), "B": np.zeros(8)}
        )
        assert np.array_equal(it0.read_global("A"), it1.read_global("A"))
        assert np.array_equal(it0.read_global("B"), it1.read_global("B"))

    def test_rejects_cross_iteration_dependence(self):
        # Second loop reads A at i+1: B(i) would run before A(i+1) writes.
        src = """
array A[1:8] dist (*) universal
array B[1:8] dist (*) universal

do i = 1, 8
  A[i] = i
enddo
do j = 1, 7
  B[j] = A[j+1]
enddo
"""
        src = src.replace(" dist (*) universal", " universal")
        prog = parse_program(src)
        res = PassManager([LoopFusion()]).run(prog, 1)
        assert all("fused" not in r for r in res.reports)

    def test_fft_fusion_send_into_compute_loop(self):
        """Paper section 4: fusing the j-FFT loop with the send loop."""
        src = """
array A[1:4,1:4] dist (*, BLOCK) seg (4,1)

do j = 1, 4
  iown(A[*,j]) : { A[*,j] = A[*,j] + 1 }
enddo
do m = 1, 4
  iown(A[*,m]) : { A[*,m] -=> }
enddo
do m = 1, 4
  iown(A[*,m]) : { }
enddo
"""
        # Simplify: fuse compute loop with ownership-send loop.
        prog = parse_program(src)
        res = PassManager([Cleanup(), LoopFusion()]).run(prog, 4)
        assert any("fused" in r for r in res.reports)

    def test_rejects_ownership_query_after_release(self):
        """The XDP condition: fusing would move a query on A[j+1] before
        the release of A[j+1] in the first loop's later iteration."""
        src = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (BLOCK) seg (1)

do i = 1, 8
  iown(A[i]) : { A[i] -=> }
enddo
do j = 1, 8
  iown(A[min(j+1, 8)]) : { B[j] = 1 }
enddo
"""
        prog = parse_program(src)
        res = PassManager([LoopFusion()]).run(prog, 4)
        assert all("fused" not in r for r in res.reports)


class TestAwaitSinking:
    def test_sinks_into_loop(self):
        src = """
array A[1:4,1:4] dist (*, BLOCK) seg (4,1)

await(A[*,mypid]) : {
  do i = 1, 4
    A[i,mypid] = A[i,mypid] * 2
  enddo
}
"""
        prog = parse_program(src)
        res = PassManager([AwaitSinking()]).run(prog, 4)
        assert any("moved await" in r for r in res.reports)
        (loop,) = res.program.body
        assert isinstance(loop, DoLoop)
        (g,) = loop.body.stmts
        assert isinstance(g, Guarded)

    def test_requires_loop_var_indexing(self):
        src = """
array A[1:4,1:4] dist (*, BLOCK) seg (4,1)

await(A[*,mypid]) : {
  do i = 1, 4
    A[1,mypid] = A[1,mypid] + i
  enddo
}
"""
        prog = parse_program(src)
        res = PassManager([AwaitSinking()]).run(prog, 4)
        assert all("moved await" not in r for r in res.reports)

    def test_semantics_preserved(self):
        src = """
array A[1:4,1:4] dist (*, BLOCK) seg (4,1)

await(A[*,mypid]) : {
  do i = 1, 4
    A[i,mypid] = A[i,mypid] + i
  enddo
}
"""
        res, ((it0, _), (it1, _)) = run_pipeline(
            src, 4, [AwaitSinking()], init={"A": np.zeros((4, 4))}
        )
        assert np.array_equal(it0.read_global("A"), it1.read_global("A"))


class TestGuardHoisting:
    def test_hoists_uniform_guard(self):
        src = """
array A[1:4,1:4] dist (*, BLOCK) seg (4,1)

do i = 1, 4
  iown(A[i,mypid]) : { A[i,mypid] = 7 }
enddo
"""
        prog = parse_program(src)
        res = PassManager([GuardHoisting()]).run(prog, 4)
        assert any("hoisted" in r for r in res.reports)
        (g,) = res.program.body
        assert isinstance(g, Guarded)
        assert isinstance(g.body.stmts[0], DoLoop)

    def test_skips_partitioned_dim(self):
        src = """
array A[1:8] dist (BLOCK) seg (1)

do i = 1, 8
  iown(A[i]) : { A[i] = 7 }
enddo
"""
        prog = parse_program(src)
        res = PassManager([GuardHoisting()]).run(prog, 4)
        # Ownership varies with i: hoisting iown(A[*]) would change truth.
        assert all("hoisted" not in r for r in res.reports)

    def test_semantics_preserved(self):
        src = """
array A[1:4,1:4] dist (*, BLOCK) seg (4,1)

do i = 1, 4
  iown(A[i,mypid]) : { A[i,mypid] = i * 10 }
enddo
"""
        res, ((it0, _), (it1, _)) = run_pipeline(
            src, 4, [GuardHoisting()], init={"A": np.zeros((4, 4))}
        )
        assert np.array_equal(it0.read_global("A"), it1.read_global("A"))


class TestReceiveHoisting:
    def test_moves_recv_past_computation(self):
        src = """
array A[1:2] dist (BLOCK) seg (1)
array C[1:2] dist (BLOCK) seg (1)

mypid == 1 : { A[1] -> {2} }
mypid == 2 : {
  C[2] = 5
  A[2] <- A[1]
  await(A[2])
}
"""
        prog = parse_program(src)
        res = PassManager([ReceiveHoisting()]).run(prog, 2)
        assert any("moved" in r for r in res.reports)
        # Inside the second guard, the receive now precedes the assignment.
        g = res.program.body.stmts[1]
        assert isinstance(g.body.stmts[0], RecvStmt)

    def test_does_not_cross_dependence(self):
        src = """
array A[1:2] dist (BLOCK) seg (1)

mypid == 1 : { A[1] -> {2} }
mypid == 2 : {
  A[2] = 5
  A[2] <- A[1]
  await(A[2])
}
"""
        prog = parse_program(src)
        res = PassManager([ReceiveHoisting()]).run(prog, 2)
        g = res.program.body.stmts[1]
        assert isinstance(g.body.stmts[0], Assign)


class TestFullPipeline:
    def test_optimize_levels(self):
        naive = translate(parse_program(SEQ_ALIGNED), 4)
        r0 = optimize(naive, 4, level=0)
        assert r0.program == naive
        r1 = optimize(naive, 4, level=1)
        r2 = optimize(naive, 4, level=2)
        for res in (r1, r2):
            it = Interpreter(res.program, 4, model=FAST)
            it.write_global("A", np.zeros(8))
            it.write_global("B", np.ones(8))
            stats = it.run()
            assert stats.total_messages == 0
            assert np.all(it.read_global("A") == 1.0)

    def test_reports_collected(self):
        naive = translate(parse_program(SEQ_ALIGNED), 4)
        res = optimize(naive, 4)
        assert res.reports
        assert "transfer-elimination" in res.report_text()
