"""Unit tests for the optimization passes (paper sections 2.2, 3.2, 4)."""

from pathlib import Path

import numpy as np
import pytest

from repro import Interpreter
from repro.apps.jacobi import _reference, jacobi_source
from repro.core.analysis.verify_comm import verify_communication
from repro.core.codegen.lower import lower
from repro.core.ir.nodes import (
    Assign, BinOp, DoLoop, Guarded, Iown, Mylb, Mypid, RecvStmt, SendStmt,
)
from repro.core.ir.parser import parse_program, parse_statements
from repro.core.ir.printer import print_program
from repro.core.ir.verify import verify_program
from repro.core.ir.visitor import walk_stmts
from repro.core.opt import (
    AwaitSinking, Cleanup, CommunicationSets, ComputeRuleElimination,
    GuardHoisting, LoopFusion, PassManager, ReceiveHoisting, optimize,
)
from repro.core.translate import translate
from repro.machine import MachineModel

LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "programs"
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
        res = PassManager([CommunicationSets(), Cleanup()]).run(naive, 4)
        assert any("removed its transfers" in r for r in res.reports)
        it = Interpreter(res.program, 4, model=FAST)
        it.write_global("A", np.arange(8.0))
        it.write_global("B", np.ones(8))
        stats = it.run()
        assert stats.total_messages == 0
        assert np.array_equal(it.read_global("A"), np.arange(8.0) + 1)

    def test_misaligned_keeps_messages(self):
        naive = self.make("CYCLIC")
        res = PassManager([CommunicationSets(), Cleanup()]).run(naive, 4)
        assert all("removed its transfers" not in r for r in res.reports)

    def test_temp_decl_removed(self):
        naive = self.make("BLOCK")
        res = PassManager([CommunicationSets(), Cleanup()]).run(naive, 4)
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
        res = PassManager([CommunicationSets()]).run(naive, 4)
        # n unknown at compile time: no elimination, and the report says so.
        assert res.reports == [
            "communication-sets: declined — the loop over i has symbolic bounds"]
        assert res.program == naive


class TestComputeRuleElimination:
    def test_localizes_bounds(self):
        naive = translate(parse_program(SEQ_ALIGNED), 4)
        res = PassManager(
            [CommunicationSets(), ComputeRuleElimination(), Cleanup()]
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
            [CommunicationSets(), ComputeRuleElimination(), Cleanup()],
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

    def test_ownership_moved_before_the_loop_flows_into_the_rewrite(self):
        src = """
array A[1:8] dist (BLOCK) seg (1)

mypid == 1 : { A[1:2] -=> {2} }
mypid == 2 : {
  A[1:2] <=-
  await(A[1:2])
}
do i = 1, 8
  iown(A[i]) : {
    A[i] = mypid
  }
enddo
"""
        prog = parse_program(src)
        res = PassManager([ComputeRuleElimination()]).run(prog, 4)
        # The flow knows P1 gave A[1:2] to P2 before the loop: each
        # processor's run is still contiguous, so the guard goes.
        assert any("localized loop over i" in r for r in res.reports)
        assert not any(isinstance(s, Guarded) and isinstance(s.rule, Iown)
                       for s in walk_stmts(res.program.body))
        it = Interpreter(res.program, 4, model=FAST)
        it.run()
        assert it.read_global("A").tolist() == [2, 2, 2, 2, 3, 3, 4, 4]

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

    def variant(self, n):
        naive = translate(parse_program(self.SRC.replace("16", str(n))), 4)
        return naive, PassManager([CommunicationSets(), Cleanup()]).run(naive, 4)

    def test_reduces_message_count(self):
        naive, res = self.variant(16)
        assert any("moved the transfers of B[i]" in r for r in res.reports)
        for label, p in (("naive", naive), ("vec", res.program)):
            it = Interpreter(p, 4, model=FAST)
            it.write_global("A", np.zeros(16))
            it.write_global("B", np.arange(16.0))
            stats = it.run()
            assert np.array_equal(it.read_global("A"), np.arange(16.0)), label
            # One message per ordered processor pair, not per element.
            assert stats.total_messages == (16 if label == "naive" else 12)

    def test_pair_moves_are_one_statement_per_run_at_any_n(self):
        # Value moves take one statement per run of receivers and offset,
        # bounds affine in mypid (no partner loop): 16 sends and receives
        # where the 12 ordered pairs took 24, and the same text at n=16
        # and 256.
        results = [self.variant(n)[1] for n in (16, 256)]
        listings = [print_program(res.program) for res in results]
        for res, text in zip(results, listings):
            assert "do d =" not in text and "-> {mypid + 1}" in text
            xfers = [s for s in walk_stmts(parse_program(text).body)
                     if isinstance(s, (SendStmt, RecvStmt))]
            assert len(xfers) == 16
        assert len(listings[0].splitlines()) == len(listings[1].splitlines())

    def test_buffer_distributed_like_lhs(self):
        _, res = self.variant(16)
        buf = next(d for d in res.program.decls if d.name.startswith("_V"))
        assert buf.dist == "(BLOCK)"
        assert buf.bounds == ((1, 16),)
        assert buf.segment_shape == (1,)

    def test_constant_dimension_rides_along(self):
        # A[1,i] and B[2,i]: the constant dimension is one more triplet of
        # every section, shifted from the buffer's index to B's.
        src = """
array A[1:4,1:8] dist (*, BLOCK) seg (4,1)
array B[1:4,1:8] dist (*, CYCLIC) seg (4,1)

do i = 1, 8
  A[1,i] = A[1,i] + B[2,i]
enddo
"""
        naive = translate(parse_program(src), 4)
        res = PassManager([CommunicationSets(), Cleanup()]).run(naive, 4)
        assert any("moved the transfers of B[2,i]" in r for r in res.reports)
        b0 = np.arange(32.0).reshape(4, 8)
        for p in (naive, res.program):
            it = Interpreter(p, 4, model=FAST)
            it.write_global("A", np.zeros((4, 8)))
            it.write_global("B", b0)
            stats = it.run()
            assert np.array_equal(it.read_global("A")[0], b0[1])
        assert stats.total_messages == 6

    def test_skips_when_symbolic(self):
        src = self.SRC.replace("scalar n = 16", "scalar n")
        naive = translate(parse_program(src), 4)
        res = PassManager([CommunicationSets()]).run(naive, 4)
        assert res.reports == [
            "communication-sets: declined — the loop over i has symbolic bounds"]
        assert res.program == naive

    def test_recurrence_is_declined_and_o2_equals_o0(self):
        # Hoisting the read of A[i - 1] above the loop would read the old
        # values; the pass says so and O2 computes what O0 computes.
        src = """
array A[1:16] dist (BLOCK) seg (1)
array B[1:16] dist (BLOCK) seg (1)

do i = 2, 16
  A[i] = A[i-1] + B[i]
enddo
"""
        naive = translate(parse_program(src), 4)
        res = optimize(naive, 4)
        assert ("communication-sets: declined — the loop over i writes A and "
                "reads A[i - 1]; hoisting that read would change the result"
                ) in res.reports
        out = []
        for p in (naive, res.program):
            it = Interpreter(p, 4, model=FAST)
            it.write_global("A", np.ones(16))
            it.write_global("B", np.arange(16.0))
            it.run()
            out.append(it.read_global("A"))
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(out[0], 1 + np.cumsum(np.arange(16.0)))


    def run_o0_o2(self, src, nprocs, init):
        naive = translate(parse_program(src), nprocs)
        res = optimize(naive, nprocs)
        out = []
        for p in (naive, res.program):
            it = Interpreter(p, nprocs, model=FAST)
            for name, arr in init.items():
                it.write_global(name, arr)
            it.run()
            out.append(it.read_global("A"))
        return res, out

    def test_negative_step_uses_the_values_the_loop_runs(self):
        # do i = 10, 2, -3 runs 10, 7, 4 (not 2, 5, 8, where A[i] and
        # B[i-1] share an owner): at i = 10, P4 needs B[9] from P3.
        src = """
array A[1:12] dist (BLOCK) seg (1)
array B[1:12] dist (BLOCK) seg (1)

do i = 10, 2, -3
  A[i] = B[i-1]
enddo
"""
        res, (o0, o2) = self.run_o0_o2(src, 4, {"A": np.zeros(12),
                                                "B": np.arange(1.0, 13.0)})
        assert any("moved the transfers of B[i - 1]" in r for r in res.reports)
        assert np.array_equal(o0, o2)
        assert list(o2[[3, 6, 9]]) == [3.0, 6.0, 9.0]

    def test_inside_loops_and_scalars_named_like_partners(self):
        # The transfers land inside ``do s`` next to a scalar ``d``: they
        # introduce no loop variable of their own.
        src = """
array A[1:16] dist (BLOCK) seg (1)
array B[1:16] dist (CYCLIC) seg (1)
scalar d = 2

do s = 1, 2
  do i = 1, 16
    A[i] = A[i] + d * B[i]
  enddo
enddo
"""
        res, (o0, o2) = self.run_o0_o2(src, 4, {"A": np.zeros(16),
                                                "B": np.arange(16.0)})
        assert any("moved the transfers of B[i]" in r for r in res.reports)
        verify_program(res.program)
        assert np.array_equal(o0, o2)
        assert np.array_equal(o2, 4 * np.arange(16.0))


class TestNaiveJacobi:
    """The paper's stencil, translated naively: communication is β∖α."""

    def test_transfers_stay_inside_the_sweep_loop(self):
        res = optimize(jacobi_source(16, 4, 2, "naive"), 4)
        (sweep,) = res.program.body
        assert isinstance(sweep, DoLoop) and sweep.var == "t"
        xfers = [s for s in walk_stmts(sweep.body)
                 if isinstance(s, (SendStmt, RecvStmt))]
        assert len(xfers) == 4  # a send and a receive per neighbour side
        for loop in (s for s in walk_stmts(sweep.body) if isinstance(s, DoLoop)):
            assert not any(isinstance(s, (SendStmt, RecvStmt))
                           for s in walk_stmts(loop.body))

    def test_n256_p4_sends_only_the_halos(self):
        n, nprocs, sweeps = 256, 4, 4
        a0 = np.random.default_rng(11).standard_normal(n)
        runs = {}
        for variant in ("naive", "halo"):
            program = optimize(jacobi_source(n, nprocs, sweeps, variant), nprocs).program
            it = Interpreter(program, nprocs)
            it.write_global("A", a0)
            stats = it.run()
            runs[variant] = stats, it.read_global("A")
        (naive, got), (halo, _) = runs["naive"], runs["halo"]
        assert np.allclose(got, _reference(a0, sweeps))
        assert naive.total_messages == halo.total_messages == 24
        assert naive.makespan <= 1.5 * halo.makespan


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

    def test_declines_an_await_an_enclosing_loop_paces(self):
        src = """
array A[1:4,1:4,1:4] dist (*, *, BLOCK) seg (4,4,1)

do k = mylb(A[*,*,*], 3), myub(A[*,*,*], 3)
  await(A[*,*,k]) : {
    do i = 1, 4
      call fft1D(A[i,*,k])
    enddo
  }
enddo
"""
        prog = parse_program(src)
        res = PassManager([AwaitSinking()]).run(prog, 4)
        assert res.reports == [
            "await-sinking: declined — await(A[*,*,k]) already advances "
            "with the loop over k"]
        assert print_program(res.program) == print_program(prog)

    def test_paper_top_level_await_still_sinks(self):
        src = """
array A[1:4,1:4,1:4] dist (*, BLOCK, *) seg (4,1,4)

await(A[*,mypid,*]) : {
  do i = 1, 4
    call fft1D(A[i,mypid,*])
  enddo
}
"""
        res = PassManager([AwaitSinking()]).run(parse_program(src), 4)
        assert res.reports == [
            "await-sinking: moved await(A[*,mypid,*]) into the loop over i "
            "as await(A[i,mypid,*])"]

    #: The i loop reads A[1:2,1] under the await; the statement after it
    #: reads A[4,1], which only the unsunk await(A[*,1]) waits for.
    PARTIAL_LOOP = """
array A[1:4,1:2] dist (*, BLOCK) seg (2,1)
array B[1:4,1:4] dist (*, BLOCK) seg (4,1)

mypid == 1 : {
  do i = 1, 4
    A[i,1] = i * 3
  enddo
  A[1:2,1] -=> {2}
  A[3:4,1] -=> {2}
}
mypid == 2 : {
  A[1:2,1] <=-
  A[3:4,1] <=-
  await(A[*,1]) : {
    do i = 1, 2
      B[i,3] = A[i,1]
    enddo
  }
  B[4,3] = A[4,1]
}
"""

    def test_declines_a_loop_that_misses_part_of_the_awaited_extent(self):
        res, ((it0, _), (it1, _)) = run_pipeline(
            self.PARTIAL_LOOP, 2, [AwaitSinking()])
        assert it0.read_global("B")[3, 2] == it1.read_global("B")[3, 2] == 12
        assert verify_communication(res.program, 2).ok
        assert res.reports == [
            "await-sinking: declined — the loop over i does not provably "
            "cover await(A[*,1])"]

    @pytest.mark.parametrize("backend", ["msg", "shmem"])
    def test_frozen_cyclic_fft_o2_is_as_fast_as_o0(self, backend):
        src = (LEDGER / "fft3d_cyclic.xdp").read_text()
        spans = [lower(optimize(parse_program(src), 4, level=lvl).program, 4,
                       backend=backend).run().makespan for lvl in (0, 2)]
        assert spans[1] == spans[0]


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
        assert "communication-sets" in res.report_text()
