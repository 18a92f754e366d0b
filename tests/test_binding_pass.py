"""Tests for the standalone destination-binding pass (paper section 3.2)."""

import numpy as np
import pytest

from repro import Interpreter
from repro.core.ir.nodes import SendStmt
from repro.core.ir.parser import parse_program
from repro.core.ir.visitor import walk_stmts
from repro.core.opt import DestinationBinding, PassManager
from repro.machine import MachineModel

FAST = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)

# The paper's literal section-2.2 listing: unannotated sends.
PAPER = """
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


def sends_of(program):
    return [s for s in walk_stmts(program.body) if isinstance(s, SendStmt)]


class TestDestinationBinding:
    def test_binds_paper_listing(self):
        res = PassManager([DestinationBinding()]).run(parse_program(PAPER), 4)
        assert any("bound send" in r for r in res.reports)
        (send,) = sends_of(res.program)
        assert send.dests is not None and len(send.dests) == 1
        from repro.core.ir.printer import print_expr

        # A is BLOCK(8 over 4): owner(A[i]) = (i-1)/2 + 1.
        assert print_expr(send.dests[0]) == "(i - 1) / 2 + 1"

    def test_bound_program_still_correct(self):
        res = PassManager([DestinationBinding()]).run(parse_program(PAPER), 4)
        it = Interpreter(res.program, 4, model=FAST)
        a0 = np.arange(1.0, 9)
        b0 = 10 * np.arange(1.0, 9)
        it.write_global("A", a0)
        it.write_global("B", b0)
        stats = it.run()
        assert np.array_equal(it.read_global("A"), a0 + b0)
        assert stats.unclaimed_messages == 0

    def test_binding_makes_repeated_sweeps_safe(self):
        """The literal listing inside an outer sweep loop is racy with pool
        matching; the pass repairs it."""
        sweeps_src = PAPER.replace(
            "do i = 1, n", "do t = 1, 3\n  do i = 1, n"
        ).replace("enddo\n", "  enddo\nenddo\n", 1)
        prog = parse_program(sweeps_src)
        res = PassManager([DestinationBinding()]).run(prog, 4)
        assert any("bound send" in r for r in res.reports)
        it = Interpreter(res.program, 4, model=FAST)
        a0 = np.zeros(8)
        b0 = np.arange(1.0, 9)
        it.write_global("A", a0)
        it.write_global("B", b0)
        it.run()
        assert np.array_equal(it.read_global("A"), 3 * b0)

    def test_skips_already_bound(self):
        src = PAPER.replace("B[i] ->", "B[i] -> {1}")
        res = PassManager([DestinationBinding()]).run(parse_program(src), 4)
        assert any("no opportunities" in r for r in res.reports)

    def test_skips_section_receiver(self):
        src = """
array A[1:8] dist (BLOCK) seg (4)
array B[1:8] dist (BLOCK) seg (4)

iown(B[1:4]) : { B[1:4] -> }
iown(A[5:8]) : {
  A[5:8] <- B[1:4]
  await(A[5:8])
}
"""
        res = PassManager([DestinationBinding()]).run(parse_program(src), 2)
        # Receiver guard is a section: no single closed-form owner.
        assert any("no opportunities" in r for r in res.reports)

    def test_in_default_pipeline(self):
        from repro.core.opt import optimize

        res = optimize(parse_program(PAPER), 4, level=1)
        assert any("destination-binding" in r for r in res.reports)
