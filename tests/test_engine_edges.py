"""Engine and end-to-end edge cases: self-messages, effect budgets,
strict modes, exotic dtypes/bounds/distributions, run-queue and
completion-order laws of the scheduler loop."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.enginebench import _run_case
from repro.core.errors import DeadlockError, OwnershipError, ProtocolError
from repro import Interpreter
from repro.core.ir.parser import parse_program
from repro.core.sections import section
from repro.distributions import Block, Distribution, ProcessorGrid, Segmentation
from repro.machine import (
    Compute,
    Engine,
    MachineModel,
    RecvInit,
    Send,
    TransferKind,
    WaitAccessible,
)

FAST = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)


def linear(extent, nprocs, seg=1):
    dist = Distribution(section((1, extent)), (Block(),), ProcessorGrid((nprocs,)))
    return Segmentation(dist, (seg,))


#: The committed ``repro bench`` record: its virtual results are goldens.
BENCH_RECORD = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_engine.json").read_text()
)


def delivery_program(send_gaps, recv_gaps):
    """Sender ships values 1..N with compute gaps; receiver posts all
    receives up front, then awaits slots in order after its own gaps."""
    n = len(send_gaps)
    base = n + 2  # receiver-owned half of the index space
    eng = Engine(2, FAST)
    eng.declare("X", linear(2 * (n + 1), 2))

    def prog(ctx):
        if ctx.pid == 0:
            for i, gap in enumerate(send_gaps):
                if gap:
                    yield Compute(gap)
                ctx.symtab.write("X", section(1), float(i + 1))
                yield Send(TransferKind.VALUE, "X", section(1), dests=(1,))
        else:
            for i in range(n):
                yield RecvInit(
                    TransferKind.VALUE, "X", section(1),
                    into_var="X", into_sec=section(base + i),
                )
            for i, gap in enumerate(recv_gaps):
                if gap:
                    yield Compute(gap)
                yield WaitAccessible("X", section(base + i))

    def slots():
        return [eng.symtabs[1].read("X", section(base + i))[0] for i in range(n)]

    return eng, prog, slots


class TestRunqInvalidation:
    """The scheduling loop leaves invalidated ``(clock, pid)`` heap entries
    behind and discards them lazily on pop (``nqueued`` tracking).  A bug
    there double-steps or skips a processor, which changes the number of
    effects processed before it changes the makespan — so the bench
    programs' virtual results are pinned exactly to the committed record
    (which the deleted seed-reference engine used to cross-check live)."""

    @pytest.mark.msg_timing
    @pytest.mark.parametrize("program,nprocs", [
        ("workqueue", 8), ("workqueue", 64), ("fft", 8), ("fft", 64),
    ])
    def test_bench_virtual_results_pinned(self, program, nprocs):
        want = next(
            c for c in BENCH_RECORD["cases"]
            if (c["program"], c["nprocs"], c["engine"]) == (program, nprocs, "indexed")
        )
        got = _run_case(
            program, nprocs,
            jobs_per_proc=BENCH_RECORD["config"]["jobs_per_proc"],
        )
        assert (got.makespan, got.messages, got.effects) == (
            want["makespan"], want["messages"], want["effects"]
        )

    def test_rerun_same_engine_same_counts(self):
        """A second run on the same instance replays the same schedule —
        leftover stale keys from run one must not leak into run two."""
        eng, prog, _ = delivery_program([3.0, 0.0, 25.0], [0.0, 40.0, 1.0])
        first, second = eng.run(prog), eng.run(prog)
        assert first.effects_processed == second.effects_processed
        assert first.makespan == second.makespan


class TestCompletionDeliveryOrder:
    @settings(max_examples=30, deadline=None)
    @given(
        gaps=st.lists(
            st.tuples(
                st.floats(0.0, 40.0, allow_nan=False, width=32),
                st.floats(0.0, 40.0, allow_nan=False, width=32),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_fifo_by_initiation(self, gaps):
        """``_apply_due_completions`` pops due completions off the heap
        until the head lies in the future; whatever the timing
        interleaving, same-tag completions must apply in (time, seq)
        order, so slots fill FIFO-by-initiation."""
        eng, prog, slots = delivery_program(
            [g[0] for g in gaps], [g[1] for g in gaps]
        )
        eng.run(prog)
        assert slots() == [float(i + 1) for i in range(len(gaps))]


class TestSelfMessages:
    def test_value_send_to_self(self):
        eng = Engine(2, FAST)
        eng.declare("X", linear(4, 2, 2))

        def prog(ctx):
            if ctx.pid == 0:
                ctx.symtab.write("X", section(1), 5.0)
                yield Send(TransferKind.VALUE, "X", section(1), dests=(0,))
                yield RecvInit(
                    TransferKind.VALUE, "X", section(1),
                    into_var="X", into_sec=section(2),
                )
                yield WaitAccessible("X", section(2))

        eng.run(prog)
        assert eng.symtabs[0].read("X", section(2))[0] == 5.0

    def test_ownership_roundtrip_self(self):
        eng = Engine(1, FAST)
        eng.declare("X", linear(2, 1, 1))

        def prog(ctx):
            yield WaitAccessible("X", section(1))
            yield Send(TransferKind.OWN_VALUE, "X", section(1), dests=(0,))
            yield RecvInit(TransferKind.OWN_VALUE, "X", section(1))
            yield WaitAccessible("X", section(1))

        eng.run(prog)
        assert eng.symtabs[0].iown("X", section(1))


class TestBudgetsAndErrors:
    def test_effect_budget_exhaustion(self):
        eng = Engine(1, FAST, max_effects=10)

        def prog(ctx):
            while True:
                yield Compute(1.0)

        with pytest.raises(DeadlockError, match="budget"):
            eng.run(prog)

    def test_unknown_effect_type(self):
        eng = Engine(1, FAST)

        def prog(ctx):
            yield "not an effect"

        with pytest.raises(TypeError):
            eng.run(prog)

    def test_acquiring_owned_section_fails(self):
        eng = Engine(2, FAST)
        eng.declare("X", linear(4, 2, 1))

        def prog(ctx):
            if ctx.pid == 0:
                yield RecvInit(TransferKind.OWN_VALUE, "X", section(1))

        with pytest.raises(OwnershipError, match="overlapping owned"):
            eng.run(prog)

    def test_owner_send_of_unowned_fails(self):
        eng = Engine(2, FAST)
        eng.declare("X", linear(4, 2, 1))

        def prog(ctx):
            if ctx.pid == 0:
                yield Send(TransferKind.OWN_VALUE, "X", section(3))

        with pytest.raises(OwnershipError):
            eng.run(prog)


class TestMatchingFairness:
    """FIFO-by-seq matching must survive the indexed-matching rewrite when
    directed and unspecified-destination messages share one MessageName.

    The indexed engine keeps directed and pool messages (and per-processor
    vs global pending receives) in separate queues; these tests pin the
    requirement that claims still happen in global seq order."""

    def make_engine(self):
        eng = Engine(3, FAST)
        # W[1] lives on the master; R gives each processor two slots.
        eng.declare("W", linear(3, 3))
        eng.declare("R", linear(6, 3, 2))
        return eng

    def test_mixed_directed_and_pool_messages_claim_in_seq_order(self):
        eng = self.make_engine()
        got = {}

        def prog(ctx):
            if ctx.pid == 0:
                for value, dests in ((11.0, None), (22.0, (2,)), (33.0, None)):
                    ctx.symtab.write("W", section(1), value)
                    yield Send(TransferKind.VALUE, "W", section(1), dests=dests)
            elif ctx.pid == 1:
                for slot in (3, 4):
                    yield Compute(10.0)
                    yield RecvInit(
                        TransferKind.VALUE, "W", section(1),
                        into_var="R", into_sec=section(slot),
                    )
                    yield WaitAccessible("R", section(slot))
                    got[1, slot] = float(ctx.symtab.read("R", section(slot))[0])
            else:
                yield Compute(20.0)
                yield RecvInit(
                    TransferKind.VALUE, "W", section(1),
                    into_var="R", into_sec=section(5),
                )
                yield WaitAccessible("R", section(5))
                got[2, 5] = float(ctx.symtab.read("R", section(5))[0])

        eng.run(prog)
        # P2's first receive claims the seq-earliest pool message (11); the
        # directed message (22) waits for P3 even though 33 arrived later.
        assert got[1, 3] == 11.0
        assert got[2, 5] == 22.0
        assert got[1, 4] == 33.0

    def test_pool_message_beats_later_directed_message(self):
        eng = self.make_engine()
        got = {}

        def prog(ctx):
            if ctx.pid == 0:
                ctx.symtab.write("W", section(1), 11.0)
                yield Send(TransferKind.VALUE, "W", section(1))  # pool
                ctx.symtab.write("W", section(1), 22.0)
                yield Send(TransferKind.VALUE, "W", section(1), dests=(1,))
            elif ctx.pid == 1:
                for slot in (3, 4):
                    yield Compute(30.0)
                    yield RecvInit(
                        TransferKind.VALUE, "W", section(1),
                        into_var="R", into_sec=section(slot),
                    )
                    yield WaitAccessible("R", section(slot))
                    got[slot] = float(ctx.symtab.read("R", section(slot))[0])

        eng.run(prog)
        # Both messages are claimable by P2; seq order wins, so the pool
        # message (sent first) is claimed before the directed one.
        assert got[3] == 11.0
        assert got[4] == 22.0

    def test_pending_receives_claimed_in_seq_order_by_late_messages(self):
        eng = self.make_engine()
        got = {}

        def prog(ctx):
            if ctx.pid == 0:
                yield Compute(100.0)  # all receives are pending by now
                for value, dests in ((11.0, None), (22.0, (2,)), (33.0, None)):
                    ctx.symtab.write("W", section(1), value)
                    yield Send(TransferKind.VALUE, "W", section(1), dests=dests)
            elif ctx.pid == 1:
                for slot in (3, 4):
                    yield RecvInit(
                        TransferKind.VALUE, "W", section(1),
                        into_var="R", into_sec=section(slot),
                    )
                    yield Compute(5.0)
                for slot in (3, 4):
                    yield WaitAccessible("R", section(slot))
                    got[1, slot] = float(ctx.symtab.read("R", section(slot))[0])
            else:
                yield Compute(10.0)
                yield RecvInit(
                    TransferKind.VALUE, "W", section(1),
                    into_var="R", into_sec=section(5),
                )
                yield WaitAccessible("R", section(5))
                got[2, 5] = float(ctx.symtab.read("R", section(5))[0])

        eng.run(prog)
        # Pool message 11 matches the seq-earliest pending receive (P2's
        # first); directed 22 skips to P3's receive; pool 33 falls through
        # to P2's second — FIFO within each claim path, by global seq.
        assert got[1, 3] == 11.0
        assert got[2, 5] == 22.0
        assert got[1, 4] == 33.0


class TestStrictEndToEnd:
    def test_strict_rejects_unmatched_sends(self):
        src = """
array A[1:4] dist (BLOCK) seg (1)

iown(A[1]) : { A[1] -> }
"""
        it = Interpreter(parse_program(src), 2, model=FAST, strict=True)
        with pytest.raises(ProtocolError):
            it.run()

    def test_strict_rejects_transitional_read(self):
        src = """
array A[1:2] dist (BLOCK) seg (1)
array R[1:2] dist (BLOCK) seg (1)

mypid == 1 : {
  A[1] <- A[2]
  R[1] = A[1]
}
mypid == 2 : { A[2] -> {1} }
"""
        it = Interpreter(parse_program(src), 2, model=FAST, strict=True)
        with pytest.raises(OwnershipError, match="transitional"):
            it.run()

    def test_nonstrict_allows_transitional_read(self):
        src = """
array A[1:2] dist (BLOCK) seg (1)
array R[1:2] dist (BLOCK) seg (1)

mypid == 1 : {
  A[1] <- A[2]
  R[1] = A[1]
  await(A[1])
}
mypid == 2 : { A[2] -> {1} }
"""
        it = Interpreter(parse_program(src), 2, model=FAST)
        stats = it.run()  # value unpredictable, execution legal
        assert stats.unclaimed_messages == 0


class TestExoticPrograms:
    def test_complex_dtype_end_to_end(self):
        src = """
array Z[1:4] dist (BLOCK) seg (1) dtype complex128

do i = 1, 4
  iown(Z[i]) : { Z[i] = Z[i] * 2 }
enddo
"""
        prog = parse_program(src)
        it = Interpreter(prog, 2, model=FAST)
        z0 = np.array([1 + 1j, 2 - 1j, 3j, -4 + 0j])
        it.write_global("Z", z0)
        it.run()
        assert np.array_equal(it.read_global("Z"), 2 * z0)

    def test_negative_bounds_end_to_end(self):
        src = """
array A[-3:4] dist (BLOCK) seg (1)

do i = -3, 4
  iown(A[i]) : { A[i] = i }
enddo
"""
        it = Interpreter(parse_program(src), 2, model=FAST)
        it.run()
        assert np.array_equal(it.read_global("A"), np.arange(-3.0, 5.0))

    def test_block_cyclic_program(self):
        src = """
array A[1:12] dist (CYCLIC(2)) seg (2)

do i = 1, 12
  iown(A[i]) : { A[i] = mypid }
enddo
"""
        it = Interpreter(parse_program(src), 3, model=FAST)
        it.run()
        # CYCLIC(2) over 3 procs: 1,1,2,2,3,3,1,1,2,2,3,3
        want = [1, 1, 2, 2, 3, 3, 1, 1, 2, 2, 3, 3]
        assert list(it.read_global("A")) == want

    def test_strided_section_transfer(self):
        src = """
array A[1:8] dist (BLOCK) seg (4)
array R[1:8] dist (BLOCK) seg (4)

mypid == 1 : { A[1:4] -> {2} }
mypid == 2 : {
  R[5:8] <- A[1:4]
  await(R[5:8])
  R[5:8:2] = R[5:8:2] * 10
}
"""
        it = Interpreter(parse_program(src), 2, model=FAST)
        it.write_global("A", np.arange(1.0, 9))
        it.write_global("R", np.zeros(8))
        it.run()
        assert list(it.read_global("R")[4:]) == [10.0, 2.0, 30.0, 4.0]

    def test_deep_loop_nest(self):
        src = """
array A[1:2,1:2,1:2] dist (*, *, BLOCK) seg (2,2,1)

do i = 1, 2
  do j = 1, 2
    do k = 1, 2
      iown(A[i,j,k]) : { A[i,j,k] = i * 100 + j * 10 + k }
    enddo
  enddo
enddo
"""
        it = Interpreter(parse_program(src), 2, model=FAST)
        it.run()
        A = it.read_global("A")
        assert A[0, 0, 0] == 111 and A[1, 1, 1] == 222
