"""Tests for communication/computation overlap idioms.

Paper section 2.3: "[accessible()] can be used to allow a processor to
perform a background computation while awaiting data from another
processor" — expressed here in pure IL+XDP with a polling loop, and
checked to actually convert waiting time into useful work.
"""

import numpy as np
import pytest

from repro import Interpreter
from repro.core.ir.parser import parse_program
from repro.machine import MachineModel

MODEL = MachineModel(o_send=5, o_recv=5, alpha=500, per_byte=0.5)


def polling_source(background: bool) -> str:
    """P1 computes then sends; P2 either blocks on await or does chunks of
    background work while polling accessible()."""
    work_loop = (
        """
do t = 1, 40
  mypid == 2 and got == 0 and not accessible(X[2]) : { call work(25) }
  mypid == 2 and got == 0 and accessible(X[2]) : { got = t }
enddo
"""
        if background
        else ""
    )
    return f"""
array X[1:2] dist (BLOCK) seg (1)
scalar got = 0

mypid == 1 : {{
  call work(400)
  X[1] = 99
  X[1] -> {{2}}
}}
mypid == 2 : {{ X[2] <- X[1] }}
{work_loop}
mypid == 2 : {{
  await(X[2])
  X[2] = X[2] + 1
}}
"""


def run(background: bool, binding: str = "nonblocking"):
    prog = parse_program(polling_source(background))
    runner = Interpreter(prog, 2, model=MODEL, binding=binding)
    stats = runner.run()
    assert runner.read_global("X")[1] == 100.0
    return stats


class TestAccessiblePolling:
    def test_both_variants_correct(self):
        run(False)
        run(True)

    def test_background_work_reduces_idle(self):
        plain = run(False)
        poll = run(True)
        p2_plain = plain.procs[1]
        p2_poll = poll.procs[1]
        # The polling variant converts idle time into compute time.
        assert p2_poll.idle_time < p2_plain.idle_time
        assert p2_poll.compute_time > p2_plain.compute_time

    @pytest.mark.msg_timing
    def test_polling_overhead_is_bounded(self):
        plain = run(False)
        poll = run(True)
        # Polling is not free: every iteration pays two accessible()
        # lookups (the run-time checks the paper lets the compiler remove
        # when provably unnecessary).  The overhead stays bounded by the
        # loop's guard-evaluation cost, well under the work it recovers.
        p2_recovered = poll.procs[1].compute_time - plain.procs[1].compute_time
        overhead = poll.makespan - plain.makespan
        assert overhead < p2_recovered
        assert poll.makespan < plain.makespan * 1.35

    def test_vm_path_agrees(self):
        """The polling program is correct under either binding, with the
        same traffic."""
        a = run(True, "nonblocking")
        b = run(True, "blocking")
        assert a.total_messages == b.total_messages


class TestRecvHoistOverlap:
    """Paper section 3.2: early receive initiation maximises overlap with
    non-blocking primitives."""

    def test_early_recv_initiation_beats_late(self):
        # Late initiation: receiver computes first, then initiates.
        late = """
array X[1:2] dist (BLOCK) seg (1)

mypid == 1 : { X[1] -> {2} }
mypid == 2 : {
  call work(1000)
  X[2] <- X[1]
  await(X[2])
}
"""
        # Early initiation: receive posted before the local work.
        early = """
array X[1:2] dist (BLOCK) seg (1)

mypid == 1 : { X[1] -> {2} }
mypid == 2 : {
  X[2] <- X[1]
  call work(1000)
  await(X[2])
}
"""
        out = {}
        for label, src in (("late", late), ("early", early)):
            it = Interpreter(parse_program(src), 2, model=MODEL)
            out[label] = it.run().makespan
        # With non-blocking binding the early initiation fully hides the
        # message latency behind the 1000-unit computation.
        assert out["early"] <= out["late"]
