"""Unit/integration tests for the discrete-event SPMD engine, using
hand-written node programs (generators of effects)."""

import numpy as np
import pytest

from repro.core.errors import (
    BudgetExhaustedError,
    DeadlockError,
    OwnershipError,
    ProtocolError,
)
from repro.core.sections import section
from repro.core.states import SegmentState
from repro.distributions import Block, Distribution, ProcessorGrid, Segmentation
from repro.machine import (
    Compute,
    Engine,
    Log,
    MachineModel,
    RecvInit,
    Send,
    TransferKind,
    WaitAccessible,
)


def linear_seg(name_extent: int, nprocs: int, seg: int = 1) -> Segmentation:
    dist = Distribution(
        section((1, name_extent)), (Block(),), ProcessorGrid((nprocs,))
    )
    return Segmentation(dist, (seg,))


class TestComputeOnly:
    def test_clocks_advance_independently(self):
        eng = Engine(2)

        def prog(ctx):
            yield Compute(10.0 * (ctx.pid + 1))

        stats = eng.run(prog)
        assert stats.procs[0].finish_time == 10.0
        assert stats.procs[1].finish_time == 20.0
        assert stats.makespan == 20.0

    def test_flop_accounting(self):
        eng = Engine(1)

        def prog(ctx):
            yield Compute(5.0, flops=5)
            yield Compute(3.0, flops=3)

        stats = eng.run(prog)
        assert stats.procs[0].compute_time == 8.0
        assert stats.procs[0].flops == 8


class TestValueTransfer:
    def make_engine(self, **kw):
        eng = Engine(2, MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0), **kw)
        eng.declare("X", linear_seg(2, 2))
        return eng

    def test_directed_send_recv(self):
        eng = self.make_engine()

        def prog(ctx):
            if ctx.pid == 0:
                ctx.symtab.write("X", section(1), 42.0)
                yield Send(TransferKind.VALUE, "X", section(1), dests=(1,))
            else:
                yield RecvInit(
                    TransferKind.VALUE, "X", section(1),
                    into_var="X", into_sec=section(2),
                )
                yield WaitAccessible("X", section(2))

        stats = eng.run(prog)
        assert eng.symtabs[1].read("X", section(2))[0] == 42.0
        assert stats.total_messages == 1
        assert stats.unclaimed_messages == 0

    @pytest.mark.msg_timing
    def test_latency_respected(self):
        eng = self.make_engine()

        def prog(ctx):
            if ctx.pid == 0:
                yield Compute(100.0)
                yield Send(TransferKind.VALUE, "X", section(1), dests=(1,))
            else:
                yield RecvInit(
                    TransferKind.VALUE, "X", section(1),
                    into_var="X", into_sec=section(2),
                )
                yield WaitAccessible("X", section(2))

        stats = eng.run(prog)
        # P2: recv overhead 1; then idle until 100 (compute) + 1 (o_send) + 10 (alpha).
        assert stats.procs[1].finish_time == pytest.approx(111.0)
        assert stats.procs[1].idle_time == pytest.approx(110.0)

    def test_unspecified_recipient(self):
        eng = self.make_engine()

        def prog(ctx):
            if ctx.pid == 0:
                yield Send(TransferKind.VALUE, "X", section(1))  # E -> (unspecified)
            else:
                yield RecvInit(
                    TransferKind.VALUE, "X", section(1),
                    into_var="X", into_sec=section(2),
                )
                yield WaitAccessible("X", section(2))

        stats = eng.run(prog)
        assert stats.unclaimed_messages == 0

    def test_send_before_recv_and_after(self):
        """Matching works regardless of initiation order."""
        eng = self.make_engine()

        def prog(ctx):
            if ctx.pid == 0:
                ctx.symtab.write("X", section(1), 7.0)
                yield Send(TransferKind.VALUE, "X", section(1), dests=(1,))
                yield Compute(50.0)
            else:
                yield Compute(30.0)  # recv initiated after message arrival
                yield RecvInit(
                    TransferKind.VALUE, "X", section(1),
                    into_var="X", into_sec=section(2),
                )
                yield WaitAccessible("X", section(2))

        eng.run(prog)
        assert eng.symtabs[1].read("X", section(2))[0] == 7.0

    def test_sending_unowned_raises(self):
        eng = self.make_engine()

        def prog(ctx):
            if ctx.pid == 0:
                yield Send(TransferKind.VALUE, "X", section(2), dests=(1,))

        with pytest.raises(OwnershipError):
            eng.run(prog)

    def test_size_mismatch_is_protocol_error(self):
        eng = Engine(2, MachineModel())
        eng.declare("X", linear_seg(4, 2, seg=2))

        def prog(ctx):
            if ctx.pid == 0:
                yield Send(TransferKind.VALUE, "X", section((1, 2)), dests=(1,))
            else:
                yield RecvInit(
                    TransferKind.VALUE, "X", section((1, 2)),
                    into_var="X", into_sec=section(3),
                )

        with pytest.raises(ProtocolError):
            eng.run(prog)

    @pytest.mark.msg_timing
    def test_multicast_costs_per_destination(self):
        eng = Engine(3, MachineModel(o_send=5, o_recv=1, alpha=10, per_byte=0))
        eng.declare("X", linear_seg(3, 3))

        def prog(ctx):
            if ctx.pid == 0:
                yield Send(TransferKind.VALUE, "X", section(1), dests=(1, 2))
            else:
                yield RecvInit(
                    TransferKind.VALUE, "X", section(1),
                    into_var="X", into_sec=section(ctx.pid + 1),
                )
                yield WaitAccessible("X", section(ctx.pid + 1))

        stats = eng.run(prog)
        assert stats.procs[0].msgs_sent == 2
        assert stats.procs[0].send_overhead == 10.0

    @pytest.mark.msg_timing
    def test_multicast_serialized_injection(self):
        """Pin the serialized-injection multicast model: each destination
        pays o_send on the sender's clock before its copy is stamped, so
        the i-th destination's arrival is o_send later than the (i-1)-th.
        The scheduler rewrite must not collapse this into one timestamp."""
        eng = Engine(3, MachineModel(o_send=5, o_recv=1, alpha=10, per_byte=0))
        eng.declare("X", linear_seg(3, 3))

        def prog(ctx):
            if ctx.pid == 0:
                yield Send(TransferKind.VALUE, "X", section(1), dests=(1, 2))
            else:
                yield RecvInit(
                    TransferKind.VALUE, "X", section(1),
                    into_var="X", into_sec=section(ctx.pid + 1),
                )
                yield WaitAccessible("X", section(ctx.pid + 1))

        stats = eng.run(prog)
        # Copy for P2 injected at t=5, arrives 15; copy for P3 injected at
        # t=10, arrives 20.  Receivers wake exactly at arrival.
        assert stats.procs[1].finish_time == pytest.approx(15.0)
        assert stats.procs[2].finish_time == pytest.approx(20.0)
        assert (
            stats.procs[2].finish_time - stats.procs[1].finish_time
            == pytest.approx(eng.model.o_send)
        )


class TestOwnershipTransfer:
    def make_engine(self):
        eng = Engine(2, MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0))
        eng.declare("A", linear_seg(2, 2))
        return eng

    def test_ownership_and_value_move(self):
        eng = self.make_engine()

        def prog(ctx):
            if ctx.pid == 0:
                ctx.symtab.write("A", section(1), 3.5)
                yield WaitAccessible("A", section(1))
                yield Send(TransferKind.OWN_VALUE, "A", section(1))  # A[1] -=>
            else:
                yield RecvInit(TransferKind.OWN_VALUE, "A", section(1))  # A[1] <=-
                yield WaitAccessible("A", section(1))

        eng.run(prog)
        assert not eng.symtabs[0].iown("A", section(1))
        assert eng.symtabs[1].iown("A", section(1))
        assert eng.symtabs[1].read("A", section(1))[0] == 3.5
        # Sender's storage was reclaimed (its only element left).
        assert eng.symtabs[0].memory.live_bytes == 0
        assert eng.symtabs[0].memory.total_freed_bytes == 8

    @pytest.mark.msg_timing
    def test_ownership_only_move(self):
        eng = self.make_engine()

        def prog(ctx):
            if ctx.pid == 0:
                yield WaitAccessible("A", section(1))
                yield Send(TransferKind.OWNERSHIP, "A", section(1))  # A[1] =>
            else:
                yield RecvInit(TransferKind.OWNERSHIP, "A", section(1))  # A[1] <=
                yield WaitAccessible("A", section(1))

        stats = eng.run(prog)
        assert eng.symtabs[1].iown("A", section(1))
        # Header-only message.
        assert stats.total_bytes == 16

    def test_transitional_until_arrival(self):
        eng = self.make_engine()
        observed = {}

        def prog(ctx):
            if ctx.pid == 0:
                yield Compute(100.0)
                yield WaitAccessible("A", section(1))
                yield Send(TransferKind.OWN_VALUE, "A", section(1))
            else:
                yield RecvInit(TransferKind.OWN_VALUE, "A", section(1))
                yield Compute(1.0)
                observed["mid"] = ctx.symtab.state_of("A", section(1))
                yield WaitAccessible("A", section(1))
                observed["end"] = ctx.symtab.state_of("A", section(1))

        eng.run(prog)
        assert observed["mid"] is SegmentState.TRANSITIONAL
        assert observed["end"] is SegmentState.ACCESSIBLE


class TestLoadBalancing:
    """Section 2.7: multiple outstanding sends claimed by idle processors."""

    def test_first_come_first_served(self):
        eng = Engine(3, MachineModel(o_send=1, o_recv=1, alpha=5, per_byte=0.0))
        eng.declare("W", linear_seg(3, 3))
        got = {}

        def prog(ctx):
            if ctx.pid == 0:
                ctx.symtab.write("W", section(1), 11.0)
                yield Send(TransferKind.VALUE, "W", section(1))
                ctx.symtab.write("W", section(1), 22.0)
                yield Send(TransferKind.VALUE, "W", section(1))
            else:
                # P2 is busy; P3 is idle and claims first.
                if ctx.pid == 1:
                    yield Compute(1000.0)
                yield RecvInit(
                    TransferKind.VALUE, "W", section(1),
                    into_var="W", into_sec=section(ctx.pid + 1),
                )
                yield WaitAccessible("W", section(ctx.pid + 1))
                got[ctx.pid] = float(
                    ctx.symtab.read("W", section(ctx.pid + 1))[0]
                )

        eng.run(prog)
        # FIFO matching: pid2's receive is initiated first (t≈1) and gets
        # the first value; pid1 receives the second.
        assert got[2] == 11.0
        assert got[1] == 22.0


class TestDeadlockDetection:
    def test_await_never_satisfied(self):
        eng = Engine(2, MachineModel())
        eng.declare("A", linear_seg(2, 2))

        def prog(ctx):
            if ctx.pid == 0:
                yield RecvInit(
                    TransferKind.VALUE, "A", section(2),
                    into_var="A", into_sec=section(1),
                )
                yield WaitAccessible("A", section(1))  # nobody ever sends

        with pytest.raises(DeadlockError, match="awaiting"):
            eng.run(prog)

    @pytest.mark.msg_timing
    def test_report_text_is_pinned(self):
        """The deadlock diagnosis is a deterministic function of the
        deadlocked state: pids, pending tags and the pool listing are all
        sorted, so the full text can be pinned byte-for-byte."""
        from repro import run_program

        src = (
            "array A[1:4] dist (BLOCK) seg (1)\n"
            "array B[1:4] dist (BLOCK) seg (1)\n"
            "\n"
            "mypid == 2 : {\n"
            "  B[2] <- A[1]\n"
            "  await(B[2]) : { B[2] = B[2] + 1 }\n"
            "}\n"
            "mypid == 3 : {\n"
            "  B[3] <- A[1]\n"
            "  await(B[3]) : { B[3] = B[3] + 1 }\n"
            "}\n"
            "mypid == 1 : { A[1] -> {4} }\n"
        )
        expected = (
            "deadlock: every live processor is blocked\n"
            "  P2 at t=26.00 awaiting B[2] (state transitional)\n"
            "    pending receive: value A[1] (into B[2], posted t=21.00)\n"
            "  P3 at t=27.00 awaiting B[3] (state transitional)\n"
            "    pending receive: value A[1] (into B[3], posted t=22.00)\n"
            "  1 unclaimed messages, 2 unmatched receives\n"
            "  unclaimed message pool:\n"
            "    msg#2 value A[1] P1->P4 @23.0->129.0"
        )
        for _ in range(2):  # identical across runs, not merely plausible
            with pytest.raises(DeadlockError) as ei:
                run_program(src, 4)
            assert str(ei.value) == expected

    def test_strict_flags_unmatched_traffic(self):
        eng = Engine(2, MachineModel(), strict=True)
        eng.declare("A", linear_seg(2, 2))

        def prog(ctx):
            if ctx.pid == 0:
                yield Send(TransferKind.VALUE, "A", section(1), dests=(1,))

        with pytest.raises(ProtocolError, match="unclaimed"):
            eng.run(prog)

    def test_nonstrict_reports_unmatched(self):
        eng = Engine(2, MachineModel())
        eng.declare("A", linear_seg(2, 2))

        def prog(ctx):
            if ctx.pid == 0:
                yield Send(TransferKind.VALUE, "A", section(1), dests=(1,))

        stats = eng.run(prog)
        assert stats.unclaimed_messages == 1


class TestEngineReuse:
    """A second run() on the same Engine must start from fresh per-run
    state: no stale unclaimed messages, pending receives, trace, or logs
    from the previous run (symbol tables persist by design)."""

    def make_engine(self, **kw):
        eng = Engine(2, MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0), **kw)
        eng.declare("X", linear_seg(2, 2))
        return eng

    def test_second_run_does_not_see_stale_messages(self):
        eng = self.make_engine()

        def prog(ctx):
            if ctx.pid == 0:
                yield Send(TransferKind.VALUE, "X", section(1), dests=(1,))

        s1 = eng.run(prog)
        s2 = eng.run(prog)
        # Without the reset the second run would report 2 unclaimed.
        assert s1.unclaimed_messages == 1
        assert s2.unclaimed_messages == 1

    def test_second_run_does_not_accumulate_logs_and_trace(self):
        eng = self.make_engine(trace=True)

        def prog(ctx):
            yield Log(f"hello from {ctx.pid}")

        s1 = eng.run(prog)
        s2 = eng.run(prog)
        assert len(s1.logs) == len(s2.logs) == 2
        assert len(s1.trace) == len(s2.trace)

    def test_stale_receive_cannot_claim_new_run_message(self):
        eng = self.make_engine()

        def recv_only(ctx):
            if ctx.pid == 1:
                yield RecvInit(
                    TransferKind.VALUE, "X", section(1),
                    into_var="X", into_sec=section(2),
                )

        def send_only(ctx):
            if ctx.pid == 0:
                yield Send(TransferKind.VALUE, "X", section(1), dests=(1,))

        s1 = eng.run(recv_only)
        assert s1.unmatched_receives == 1
        s2 = eng.run(send_only)
        # The first run's pending receive is gone: the send goes unclaimed.
        assert s2.unmatched_receives == 0
        assert s2.unclaimed_messages == 1

    def test_effect_counter_resets_between_runs(self):
        eng = self.make_engine()

        def prog(ctx):
            yield Compute(1.0)

        s1 = eng.run(prog)
        s2 = eng.run(prog)
        assert s1.effects_processed == s2.effects_processed > 0


class TestBudgetError:
    def test_budget_raises_distinct_error_type(self):
        eng = Engine(1, MachineModel(), max_effects=10)

        def prog(ctx):
            while True:
                yield Compute(1.0)

        with pytest.raises(BudgetExhaustedError, match="resource limit"):
            eng.run(prog)

    def test_budget_error_still_catchable_as_deadlock(self):
        # Compatibility: callers that caught DeadlockError keep working.
        assert issubclass(BudgetExhaustedError, DeadlockError)


class TestTraceAndLogs:
    def test_logs_collected(self):
        eng = Engine(2)

        def prog(ctx):
            yield Log(f"hello from {ctx.pid}")

        stats = eng.run(prog)
        assert sorted(text for _, _, text in stats.logs) == [
            "hello from 0", "hello from 1",
        ]

    def test_trace_events(self):
        eng = Engine(1, trace=True)

        def prog(ctx):
            yield Compute(1.0, what="work")

        stats = eng.run(prog)
        kinds = [e.kind for e in stats.trace]
        assert "compute" in kinds and "done" in kinds

    def test_summary_renders(self):
        eng = Engine(2)

        def prog(ctx):
            yield Compute(1.0)

        text = eng.run(prog).summary()
        assert "makespan" in text and "P2" in text
