"""Tests for event tracing and log collection."""

import numpy as np
import pytest

from repro import Interpreter
from repro.core.ir.parser import parse_program
from repro.machine import MachineModel

FAST = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)

SRC = """
array A[1:2] dist (BLOCK) seg (1)

mypid == 1 : { A[1] -> {2} }
mypid == 2 : {
  A[2] <- A[1]
  await(A[2])
}
"""


class TestTrace:
    def run(self):
        it = Interpreter(parse_program(SRC), 2, model=FAST, trace=True)
        it.write_global("A", np.array([5.0, 0.0]))
        return it.run()

    @pytest.mark.msg_timing
    def test_event_kinds_present(self):
        stats = self.run()
        kinds = {e.kind for e in stats.trace}
        assert {"send", "recv-init", "recv-done", "done"} <= kinds

    @pytest.mark.msg_timing
    def test_send_precedes_matching_completion(self):
        stats = self.run()
        send_t = next(e.time for e in stats.trace if e.kind == "send")
        done_t = next(e.time for e in stats.trace if e.kind == "recv-done")
        assert send_t < done_t

    @pytest.mark.msg_timing
    def test_event_pids(self):
        stats = self.run()
        send = next(e for e in stats.trace if e.kind == "send")
        recv = next(e for e in stats.trace if e.kind == "recv-init")
        assert send.pid == 0 and recv.pid == 1

    def test_trace_renders(self):
        stats = self.run()
        text = str(stats.trace[0])
        assert "t=" in text and "P" in text

    def test_tracing_off_by_default(self):
        it = Interpreter(parse_program(SRC), 2, model=FAST)
        it.write_global("A", np.array([5.0, 0.0]))
        assert it.run().trace == []

    def test_await_block_awake_events(self):
        src = SRC.replace("mypid == 1 : { A[1] -> {2} }",
                          "mypid == 1 : { call work(500)\n  A[1] -> {2} }")
        it = Interpreter(parse_program(src), 2, model=FAST, trace=True)
        it.write_global("A", np.array([5.0, 0.0]))
        stats = it.run()
        kinds = [e.kind for e in stats.trace if e.pid == 1]
        assert "block" in kinds and "awake" in kinds
        # Blocked time counted as idle.
        assert stats.procs[1].idle_time > 400


class TestUntracedWaits:
    """With tracing off the scheduler formats no event text: a blocked or
    woken wait used to render ``f"{var}{sec}"`` only for ``_emit`` to drop
    it."""

    @staticmethod
    def events(trace):
        from functools import partial

        from repro.apps.workqueue import run_workqueue
        from repro.machine import Engine

        return run_workqueue(64, 8, engine_cls=partial(Engine, trace=trace)).stats.trace

    def test_untraced_run_formats_no_section(self, monkeypatch):
        from repro.core.sections import Section

        def refuse(self):
            raise AssertionError("Section formatted with tracing off")

        monkeypatch.setattr(Section, "__str__", refuse)
        assert self.events(False) == []

    @pytest.mark.msg_timing
    def test_traced_events_unchanged(self):
        import hashlib
        from collections import Counter

        trace = self.events(True)
        assert Counter(e.kind for e in trace)["block"] == 5
        text = repr([(e.time, e.pid, e.kind, e.detail) for e in trace])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e8e3c2d788a31b1610ee7237181515de2bc1abe4f4bf1ef9fd816db29b13341a")
