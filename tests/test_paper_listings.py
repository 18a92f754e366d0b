"""Fidelity tests: the optimizer reproduces the paper's own hand-derived
program transformations on its exact listings.

Section 4 presents the 3-D FFT at three stages and describes the compiler
steps between them.  Here we start from the stage-0 listing and check that
*our* passes derive the paper's stage-1 and stage-2 structures:

* compute-rule elimination turns every ``do k { iown(A[*,*,k]) : body }``
  into ``body[k := mypid]`` (including the redistribution loop, whose own
  body moves ownership — the dynamic-simulation case);
* loop fusion merges the i-direction FFT loop with the ownership-send
  loop ("Dependence analysis of Loops 2 and 3a indicates that they can be
  fused together");
* await sinking moves ``await(A[*,mypid,*])`` into the final loop as
  ``await(A[i,mypid,*])``.

Every intermediate program is executed and validated against numpy's FFT.
"""

import numpy as np
import pytest

from repro.apps.fft3d import fft3d_source
from repro import Interpreter
from repro.core.ir.nodes import (
    Await, CallStmt, DoLoop, ExprStmt, Guarded, Mypid, RecvStmt, SendStmt,
    Index,
)
from repro.core.ir.parser import parse_program
from repro.core.ir.printer import print_program
from repro.core.opt import (
    AwaitSinking, Cleanup, ComputeRuleElimination, LoopFusion, PassManager,
)
from repro.machine import MachineModel

FAST = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)
N = 4


def run_fft_program(program):
    it = Interpreter(program, N, model=FAST)
    rng = np.random.default_rng(3)
    a0 = rng.standard_normal((N, N, N)) + 1j * rng.standard_normal((N, N, N))
    it.write_global("A", a0)
    stats = it.run()
    assert np.allclose(it.read_global("A"), np.fft.fftn(a0), atol=1e-9)
    return stats


@pytest.fixture(scope="module")
def stage0():
    return parse_program(fft3d_source(N, N, 0))


@pytest.fixture(scope="module")
def derived_stage1(stage0):
    return PassManager([ComputeRuleElimination(), Cleanup()]).run(stage0, N)


class TestStage0ToStage1:
    def test_all_three_guarded_loops_localized(self, derived_stage1):
        mypid_notes = [r for r in derived_stage1.reports if "mypid" in r]
        assert len(mypid_notes) == 3  # loop1, loop2, loop3

    def test_structure_matches_paper_listing(self, derived_stage1):
        body = list(derived_stage1.program.body)
        # Loop1/Loop2 are now bare loops of fft calls over mypid's plane.
        assert isinstance(body[0], DoLoop)
        (call0,) = body[0].body.stmts
        assert isinstance(call0, CallStmt) and call0.name == "fft1D"
        # The plane subscript became mypid.
        ref = call0.args[0]
        assert ref.subs[2] == Index(Mypid())
        # Loop3 split into the send loop and the receive loop.
        sends = [s for s in body if isinstance(s, DoLoop)
                 and any(isinstance(x, SendStmt) for x in s.body)]
        recvs = [s for s in body if isinstance(s, DoLoop)
                 and any(isinstance(x, RecvStmt) for x in s.body)]
        assert len(sends) == 1 and len(recvs) == 1
        # Loop4's await guard survives (its array's ownership moved, so the
        # pass correctly leaves it alone).
        awaits = [
            s for s in body
            if isinstance(s, DoLoop)
            and any(isinstance(x, Guarded) and isinstance(x.rule, Await)
                    for x in s.body)
        ]
        assert len(awaits) == 1

    def test_derived_stage1_runs_correctly(self, derived_stage1):
        run_fft_program(derived_stage1.program)

    def test_guard_cost_removed(self, stage0, derived_stage1):
        s0 = run_fft_program(stage0)
        s1 = run_fft_program(derived_stage1.program)
        assert s1.makespan < s0.makespan


class TestStage1ToStage2:
    def test_fusion_merges_compute_and_send_loops(self):
        # The paper's stage-1 listing, written directly.
        program = parse_program(fft3d_source(N, N, 1))
        result = PassManager([LoopFusion()]).run(program, N)
        assert any("fused" in r for r in result.reports)
        run_fft_program(result.program)

    def test_await_sinks_into_final_loop(self):
        program = parse_program(fft3d_source(N, N, 1))
        result = PassManager([AwaitSinking()]).run(program, N)
        assert any("moved await" in r for r in result.reports)
        # The awaited section now carries the loop index in dim 1.
        text = print_program(result.program)
        assert "await(A[i,mypid,*])" in text
        run_fft_program(result.program)

    def test_full_derivation_runs(self):
        program = parse_program(fft3d_source(N, N, 0))
        result = PassManager(
            [ComputeRuleElimination(), LoopFusion(), AwaitSinking(), Cleanup()]
        ).run(program, N)
        run_fft_program(result.program)


class TestSimpleExampleListing:
    """The section-2.2 listings parse and behave exactly as printed."""

    PAPER_NAIVE = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (CYCLIC) seg (1)
array T[1:4] dist (BLOCK) seg (1)
scalar n = 8

do i = 1, n
  iown(B[i]) : { B[i] -> }
  iown(A[i]) : {
    T[mypid] <- B[i]
    await(T[mypid])
    A[i] = A[i] + T[mypid]
  }
enddo
"""

    PAPER_MIGRATE = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (CYCLIC) seg (1)
scalar n = 8

do i = 1, n
  iown(A[i]) : { A[i] -=> }
  iown(B[i]) : { A[i] <=- }
  await(A[i]) : { A[i] = A[i] + B[i] }
enddo
"""

    @pytest.mark.parametrize("src", [PAPER_NAIVE, PAPER_MIGRATE])
    def test_literal_listing_computes_correctly(self, src):
        it = Interpreter(parse_program(src), 4, model=FAST)
        a0 = np.arange(1.0, 9)
        b0 = 10 * np.arange(1.0, 9)
        it.write_global("A", a0)
        it.write_global("B", b0)
        it.run()
        assert np.array_equal(it.read_global("A"), a0 + b0)

    def test_migrate_listing_moves_ownership(self):
        it = Interpreter(parse_program(self.PAPER_MIGRATE), 4, model=FAST)
        it.write_global("A", np.zeros(8))
        it.write_global("B", np.zeros(8))
        it.run()
        # A's ownership ends up cyclic, like B's.
        from repro.core.sections import section

        for i in range(1, 9):
            owner = (i - 1) % 4
            assert it.engine.symtabs[owner].iown("A", section(i))
