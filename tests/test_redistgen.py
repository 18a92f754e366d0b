"""Tests for compiler-generated redistribution code (paper section 4's
linked -=>/<=- structure)."""

import numpy as np
import pytest

from repro.core.ir.nodes import (
    ArrayDecl, Block, Guarded, Program, RecvStmt, SendStmt, XferOp,
)
from repro.core.ir.verify import verify_program
from repro import Interpreter
from repro.core.redistgen import redistribution_statements, section_to_subscripts
from repro.core.sections import section
from repro.distributions import (
    Block as BlockSpec,
    Cyclic,
    Distribution,
    ProcessorGrid,
    Segmentation,
    plan_redistribution,
)
from repro.machine import MachineModel

FAST = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)


def make_plan(n=16, nprocs=4, seg=None):
    grid = ProcessorGrid((nprocs,))
    src = Distribution(section((1, n)), (BlockSpec(),), grid)
    dst = Distribution(section((1, n)), (Cyclic(),), grid)
    segmentation = Segmentation(src, (seg,)) if seg else None
    return src, dst, plan_redistribution(src, dst, segmentation=segmentation)


def build_program(n, nprocs, stmts, seg_shape):
    decl = ArrayDecl("A", ((1, n),), dist="(BLOCK)", segment_shape=seg_shape)
    return Program((decl,), Block(tuple(stmts)))


class TestGeneration:
    def test_statement_structure(self):
        _, _, plan = make_plan()
        stmts = redistribution_statements("A", plan)
        assert len(stmts) == 2 * plan.message_count
        sends = stmts[: plan.message_count]
        recvs = stmts[plan.message_count:]
        for s in sends:
            assert isinstance(s, Guarded)
            inner = s.body.stmts[0]
            assert isinstance(inner, SendStmt)
            assert inner.op is XferOp.SEND_OWNER_VALUE
            assert inner.dests is not None
        for r in recvs:
            assert isinstance(r.body.stmts[0], RecvStmt)

    def test_ownership_only_mode(self):
        _, _, plan = make_plan()
        stmts = redistribution_statements("A", plan, with_value=False)
        assert stmts[0].body.stmts[0].op is XferOp.SEND_OWNER

    def test_awaits_appended(self):
        _, _, plan = make_plan()
        stmts = redistribution_statements("A", plan, awaits=True)
        assert len(stmts) == 3 * plan.message_count

    def test_section_to_subscripts_roundtrip(self):
        from repro.core.ir.printer import print_ref
        from repro.core.ir.nodes import ArrayRef

        sec = section((1, 7, 2), 3, (4, 4))
        ref = ArrayRef("A", section_to_subscripts(sec))
        assert print_ref(ref) == "A[1:7:2,3,4]"


class TestExecution:
    @pytest.mark.parametrize("with_value", [True, False])
    def test_redistribution_runs(self, with_value):
        n, nprocs = 16, 4
        src, dst, plan = make_plan(n, nprocs)
        stmts = redistribution_statements("A", plan, with_value=with_value,
                                          awaits=True)
        prog = build_program(n, nprocs, stmts, (1,))
        verify_program(prog)
        it = Interpreter(prog, nprocs, model=FAST)
        a0 = np.arange(1.0, n + 1)
        it.write_global("A", a0)
        stats = it.run()
        assert stats.unclaimed_messages == 0
        # Ownership now matches the CYCLIC target everywhere.
        for pid in range(nprocs):
            for sec in dst.owned_sections(pid):
                assert it.engine.symtabs[pid].iown("A", sec)
        if with_value:
            assert np.array_equal(it.read_global("A"), a0)

    def test_segment_granularity_execution(self):
        n, nprocs = 16, 4
        src, dst, plan = make_plan(n, nprocs, seg=2)
        stmts = redistribution_statements("A", plan, awaits=True)
        prog = build_program(n, nprocs, stmts, (2,))
        it = Interpreter(prog, nprocs, model=FAST)
        a0 = np.arange(1.0, n + 1)
        it.write_global("A", a0)
        it.run()
        assert np.array_equal(it.read_global("A"), a0)

    def test_empty_plan_is_empty_code(self):
        grid = ProcessorGrid((2,))
        d = Distribution(section((1, 8)), (BlockSpec(),), grid)
        plan = plan_redistribution(d, d)
        assert redistribution_statements("A", plan) == []


class TestSelfAndDuplicateMoves:
    """Regression (ISSUE 8): plans that carry ``src == dst`` or repeated
    moves — e.g. hand-assembled round plans from the bounded-redistribution
    planner — must not emit self-sends (a processor messaging itself
    deadlocks) or duplicate transfer pairs."""

    def test_self_moves_emit_no_statements(self):
        from repro.distributions.redistribute import Move, RedistributionPlan

        src, dst, _ = make_plan()
        moves = (
            Move(0, 0, section((1, 4))),    # layouts share P1's block
            Move(0, 1, section((5, 8))),
            Move(1, 1, section((5, 8))),    # and P2 keeps part of its own
        )
        plan = RedistributionPlan(src, dst, moves)
        stmts = redistribution_statements("A", plan)
        assert len(stmts) == 2  # one send + one recv for the single cross move

    def test_duplicate_moves_deduplicated(self):
        from repro.distributions.redistribute import Move, RedistributionPlan

        src, dst, _ = make_plan()
        m = Move(0, 1, section((1, 4)))
        plan = RedistributionPlan(src, dst, (m, m, Move(2, 3, section((9, 12)))))
        stmts = redistribution_statements("A", plan)
        assert len(stmts) == 4  # two distinct transfers, not three

    def test_block_to_cyclic_message_count(self):
        """BLOCK→CYCLIC at n=16, P=4: each processor keeps one element of
        its block, so exactly 12 of the 16 element moves are messages —
        and the engine must count exactly those."""
        n, nprocs = 16, 4
        src, dst, plan = make_plan(n, nprocs)
        assert plan.message_count == 12
        stmts = redistribution_statements("A", plan, awaits=True)
        sends = [s for s in stmts if isinstance(s.body.stmts[0], SendStmt)]
        assert len(sends) == 12
        prog = build_program(n, nprocs, stmts, (1,))
        it = Interpreter(prog, nprocs, model=FAST)
        a0 = np.arange(1.0, n + 1)
        it.write_global("A", a0)
        stats = it.run()
        assert stats.total_messages == 12
        assert np.array_equal(it.read_global("A"), a0)
