"""Tests for compiler-generated redistribution code (paper section 4's
linked -=>/<=- structure): the one emitter, its closed SPMD form, the
value moves of the communication sets, and a differential against the
per-processor emitter it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis.layouts import build_segmentation
from repro.core.ir.nodes import (
    ArrayDecl, Block, DoLoop, Guarded, Program, RecvStmt, SendStmt, VarRef,
    XferOp,
)
from repro.core.ir.printer import print_stmt
from repro.core.ir.verify import verify_program
from repro import Interpreter, lower
from repro.core.pidaffine import PidAffine
from repro.core.redistgen import plan_transfers, section_to_subscripts, value_transfers
from repro.core.sections import Section, Triplet, section
from repro.distributions import (
    Block as BlockSpec,
    Cyclic,
    Distribution,
    ProcessorGrid,
    RedistributionPlan,
    Segmentation,
    plan_redistribution,
)
from repro.distributions.redistribute import Move
from repro.machine import MachineModel

from .redist_oracle import dist_from_spec
from .redist_oracle import redistribution_statements as oracle_statements

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


def leaves(stmts, kind):
    """Every statement of type ``kind`` under loops and guards."""
    for s in stmts:
        if isinstance(s, kind):
            yield s
        elif isinstance(s, (DoLoop, Guarded)):
            yield from leaves(s.body, kind)


def text(stmts):
    return [line for s in stmts for line in print_stmt(s)]


class TestGeneration:
    def test_statement_structure(self):
        # BLOCK -> CYCLIC: processor s sends element 4s+d+1 to d, affine
        # in the pair, so each side is two loops over the partner.
        _, _, plan = make_plan()
        t = plan_transfers("A", plan)
        assert t.note is None
        assert text(t.sends) == [
            "do d = 1, mypid - 1",
            "  A[4 * mypid + d - 4] -=> {d}",
            "enddo",
            "do d = mypid + 1, 4",
            "  A[4 * mypid + d - 4] -=> {d}",
            "enddo",
        ]
        (send,) = {s for s in leaves(t.sends, SendStmt)}
        assert send.op is XferOp.SEND_OWNER_VALUE and send.dests == (VarRef("d"),)
        assert all(isinstance(s, DoLoop) for s in t.recvs)
        assert {r.op for r in leaves(t.recvs, RecvStmt)} == {XferOp.RECV_OWNER_VALUE}

    def test_ownership_only_mode(self):
        _, _, plan = make_plan()
        t = plan_transfers("A", plan, with_value=False)
        assert {s.op for s in leaves(t.sends, SendStmt)} == {XferOp.SEND_OWNER}
        assert {r.op for r in leaves(t.recvs, RecvStmt)} == {XferOp.RECV_OWNER}

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
        stmts = plan_transfers("A", plan, with_value=with_value).statements
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
        stmts = plan_transfers("A", plan).statements
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
        assert plan_transfers("A", plan).statements == []
        assert plan_transfers("A", plan, fuse=(0, "i")).statements == []


class TestSelfAndDuplicateMoves:
    """Regression: plans that carry ``src == dst`` or repeated moves — e.g.
    hand-assembled plans — must not emit self-sends (a processor messaging itself deadlocks) or
    duplicate transfer pairs."""

    def test_self_moves_emit_no_statements(self):
        src, dst, _ = make_plan()
        moves = (
            Move(0, 0, section((1, 4))),    # layouts share P1's block
            Move(0, 1, section((5, 8))),
            Move(1, 1, section((5, 8))),    # and P2 keeps part of its own
        )
        t = plan_transfers("A", RedistributionPlan(src, dst, moves))
        # one send + one recv for the single cross move, under per-pid
        # guards: one pair of processors has no closed form
        assert text(t.statements) == [
            "mypid == 1 : {", "  A[5:8] -=> {2}", "}",
            "mypid == 2 : {", "  A[5:8] <=-", "}",
        ]
        assert t.note == ("redistgen: one guarded block per processor "
                          "(moves pair 1 of the 12 ordered processor pairs)")

    def test_duplicate_moves_deduplicated(self):
        src, dst, _ = make_plan()
        m = Move(0, 1, section((1, 4)))
        plan = RedistributionPlan(src, dst, (m, m, Move(2, 3, section((9, 12)))))
        stmts = plan_transfers("A", plan).statements
        # two distinct transfers, not three
        assert len(list(leaves(stmts, SendStmt))) == 2
        assert len(list(leaves(stmts, RecvStmt))) == 2

    def test_block_to_cyclic_message_count(self):
        """BLOCK→CYCLIC at n=16, P=4: each processor keeps one element of
        its block, so exactly 12 of the 16 element moves are messages —
        and the engine must count exactly those."""
        n, nprocs = 16, 4
        src, dst, plan = make_plan(n, nprocs)
        assert plan.message_count == 12
        stmts = plan_transfers("A", plan).statements
        prog = build_program(n, nprocs, stmts, (1,))
        it = Interpreter(prog, nprocs, model=FAST)
        a0 = np.arange(1.0, n + 1)
        it.write_global("A", a0)
        stats = it.run()
        assert stats.total_messages == 12
        assert np.array_equal(it.read_global("A"), a0)


def fft_plan(n, nprocs, src="(*, *, BLOCK)", dst="(*, BLOCK, *)"):
    grid = ProcessorGrid((nprocs,))
    bounds = ((1, n),) * 3
    return plan_redistribution(dist_from_spec(src, bounds, grid),
                               dist_from_spec(dst, bounds, grid))


class TestClosedForm:
    """The closed form is chosen from the plan: its text does not grow
    with n or P, and a plan without one says why."""

    @pytest.mark.parametrize("specs", [
        ("(*, *, BLOCK)", "(*, BLOCK, *)"),
        ("(*, *, CYCLIC)", "(*, CYCLIC, *)"),
    ])
    def test_all_at_once_size_is_independent_of_n_and_p(self, specs):
        sizes = {
            len(text(plan_transfers("A", fft_plan(n, p, *specs)).statements))
            for n, p in [(8, 4), (16, 4), (16, 16), (32, 16)]
        }
        assert len(sizes) == 1

    def test_fused_receives_walk_the_other_slabs(self):
        t = plan_transfers("A", fft_plan(8, 4), fuse=(2, "k"))
        assert t.note is None
        assert text(t.sends) == [
            "do d = 1, mypid - 1",
            "  A[1:8,2 * d - 1:2 * d,k] -=> {d}",
            "enddo",
            "do d = mypid + 1, 4",
            "  A[1:8,2 * d - 1:2 * d,k] -=> {d}",
            "enddo",
        ]
        assert text(t.recvs) == [
            "do k = 1, 2 * mypid - 2",
            "  A[1:8,2 * mypid - 1:2 * mypid,k] <=-",
            "enddo",
            "do k = 2 * mypid + 1, 8",
            "  A[1:8,2 * mypid - 1:2 * mypid,k] <=-",
            "enddo",
        ]

    def test_fused_cyclic_receives_loop_over_sources(self):
        t = plan_transfers(
            "A", fft_plan(16, 4, "(*, *, CYCLIC)", "(*, CYCLIC, *)"),
            fuse=(2, "k"))
        assert t.note is None
        assert text(t.recvs)[:5] == [
            "do s = 1, mypid - 1",
            "  do k = s, s + 12, 4",
            "    A[1:16,mypid:mypid + 12:4,k] <=-",
            "  enddo",
            "enddo",
        ]

    def test_value_moves_take_one_statement_per_run(self):
        # Receivers 2..4 of 4 get their left neighbour's last element (the
        # sender's run is 1..3), P1 copies its own part; a run of one
        # processor is plain integers; ``_W64`` names 64 * mypid.
        m = PidAffine.make(0, 1, 2, 4)
        moves = [
            (2, 4, -1, ("V", Section((Triplet(64 * m - 63, 64 * m - 63),))),
             ("A", Section((Triplet(64 * m - 64, 64 * m - 64),)))),
            (1, 1, 0, ("V", section((2, 64))), ("A", section((1, 63)))),
        ]
        assert text(value_transfers(moves, 4, lambda b: VarRef(f"_W{b}"))) == [
            "mypid <= 3 : {", "  A[_W64] -> {mypid + 1}", "}",
            "mypid >= 2 : {", "  V[_W64 - 63] <- A[_W64 - 64]", "}",
            "mypid == 1 : {", "  V[2:64] = A[1:63]", "}",
            "mypid >= 2 : {", "  await(V[_W64 - 63])", "}",
        ]

    def test_no_closed_form_falls_back_with_a_note(self):
        # CYCLIC(2) owns two slab runs per processor: fragments have no
        # single loop triplet, so the sends stay per (pid, slab).
        t = plan_transfers(
            "A", fft_plan(16, 4, "(*, *, CYCLIC(2))", "(*, CYCLIC(2), *)"),
            fuse=(2, "k"))
        assert t.note == ("redistgen: one guarded block per processor "
                          "(a move does not span its source's slabs along axis 3)")
        assert text(t.sends)[0] == "mypid == 1 and k == 1 : {"
        # A plan that pairs only some processors: BLOCK -> CYCLIC(3) at
        # n=6, P=4 moves A[3] from P2 to P1 and A[5:6] from P3 to P2.
        grid = ProcessorGrid((4,))
        t = plan_transfers("A", plan_redistribution(
            *(dist_from_spec(s, ((1, 6),), grid)
              for s in ("(BLOCK)", "(CYCLIC(3))"))))
        assert t.note == ("redistgen: one guarded block per processor "
                          "(moves pair 2 of the 12 ordered processor pairs)")
        assert text(t.sends) == [
            "mypid == 2 : {", "  A[3] -=> {1}", "}",
            "mypid == 3 : {", "  A[5:6] -=> {2}", "}",
        ]


# --------------------------------------------------------------------- #
# differential: closed form vs the per-processor oracle
# --------------------------------------------------------------------- #

SPECS = ("BLOCK", "CYCLIC", "CYCLIC(2)")


@st.composite
def layouts(draw):
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(2, 9)) for _ in range(rank))

    def spec():
        axis = draw(st.integers(0, rank - 1))
        kind = draw(st.sampled_from(SPECS))
        return "(" + ", ".join(kind if a == axis else "*"
                               for a in range(rank)) + ")"

    return shape, spec(), spec(), draw(st.integers(2, 6))


def _run(decl, stmts, nprocs, backend, a0):
    vm = lower(Program((decl,), Block(tuple(stmts))), nprocs, backend=backend)
    vm.write_global("A", a0)
    stats = vm.run()
    return (vm.read_global("A").tobytes(), vm.ownership_map("A"),
            stats.total_messages, stats.total_bytes)


class TestOracleDifferential:
    @settings(max_examples=40, deadline=None)
    @given(layouts())
    def test_emitted_programs_match_the_per_pid_oracle(self, case):
        shape, src_spec, dst_spec, nprocs = case
        grid = ProcessorGrid((nprocs,))
        decl = ArrayDecl("A", tuple((1, n) for n in shape), dist=src_spec)
        source = build_segmentation(decl, grid).distribution
        target = dist_from_spec(dst_spec, decl.bounds, grid)
        plan = plan_redistribution(source, target)
        emitted = plan_transfers("A", plan).statements
        oracle = oracle_statements("A", plan)
        a0 = np.arange(float(np.prod(shape))).reshape(shape)
        for backend in ("msg", "shmem"):
            got = _run(decl, emitted, nprocs, backend, a0)
            assert got == _run(decl, oracle, nprocs, backend, a0), case
            assert got[0] == a0.tobytes()
