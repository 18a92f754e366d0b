"""Differential validation of the ``proc`` backend against the simulator.

The real-parallelism backend (:mod:`repro.machine.procrt`) executes
compiled node programs on forked OS processes; the in-process simulator
is its semantic oracle.  This suite drives that claim from the outside:

* every *clean* program of the seeded fuzz battery
  (:mod:`tests.fuzz.gen_programs`) runs once on the plain ``msg``
  simulator and once on ``proc`` (which internally also runs — and
  cross-checks against — its own oracle pass); the two final machine
  states must hash identically (:func:`repro.machine.procrt.digest_symtabs`
  — the same sha256 the CLI prints as ``result sha256``);
* the binary wire format round-trips exactly: hypothesis-generated
  frames survive :func:`encode_frame`/:func:`decode_frame` bit-for-bit,
  inline and through shared-memory staging.

Only correct-by-construction programs go to ``proc`` here — the mutants'
verifier/engine agreement is ``tests/test_fuzz_differential.py``'s job,
and broken programs fail in the oracle pass before any fork happens.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DegradedRunError
from repro import run_program
from repro.core.sections import Section, Triplet, section
from repro.distributions import (
    Block, Distribution, ProcessorGrid, Segmentation,
)
from repro.machine.effects import Compute, RecvInit, Send, WaitAccessible
from repro.machine.engine import Engine
from repro.machine.message import TransferKind
from repro.machine.model import MachineModel
from repro.machine.procrt import WORKER_ENV, digest_symtabs
from repro.machine.transport.proc import (
    Frame,
    SegmentRegistry,
    decode_frame,
    encode_frame,
    leaked_shm_segments,
    shm_name_prefix,
)

#: Acceptance floor is 20 clean programs; generate a little margin.
CLEAN_PROGRAMS = 24
BASE_SEED = 0


def _clean_battery():
    """The first ``CLEAN_PROGRAMS`` correct-by-construction programs."""
    from .fuzz.gen_programs import generate_battery

    # Each battery seed yields one good program plus up to three mutants,
    # so 6x oversampling always covers the clean quota.
    battery = generate_battery(6 * CLEAN_PROGRAMS, BASE_SEED)
    clean = [fp for fp in battery if fp.mutation is None]
    assert len(clean) >= CLEAN_PROGRAMS
    return clean[:CLEAN_PROGRAMS]


def _digest(fp, backend: str) -> str:
    runner, _stats = run_program(
        fp.source, fp.nprocs, strict=True, backend=backend
    )
    return digest_symtabs(runner.engine.symtabs)


@pytest.mark.parametrize(
    "fp", _clean_battery(), ids=lambda fp: fp.label.replace("/", ":")
)
def test_proc_matches_simulator(fp):
    """Fuzz-generated clean programs end in bit-identical machine state
    whether executed by the simulator or by real forked processes."""
    assert _digest(fp, "proc") == _digest(fp, "msg"), (
        f"proc/simulator divergence on:\n{fp.label}\n{fp.source}"
    )


def test_battery_covers_every_template_family():
    families = {fp.family for fp in _clean_battery()}
    assert families == {"halo", "ring", "pool", "gather-scatter", "translated"}


# --------------------------------------------------------------------- #
# worker-crash robustness (real SIGKILL, not a simulated fault)
# --------------------------------------------------------------------- #


class TestWorkerCrashRobustness:
    """A worker that actually dies (SIGKILL — no cleanup, no report) must
    degrade the run with the simulated crash path's exact shape, never
    hang the parent or leak shared memory."""

    def test_sigkilled_worker_degrades_run(self):
        eng = Engine(
            2, MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0),
            backend="proc",
        )
        dist = Distribution(section((1, 6)), (Block(),), ProcessorGrid((2,)))
        eng.declare("X", Segmentation(dist, (1,)))

        def prog(ctx):
            if ctx.pid == 1:
                # Only the forked worker carries the env marker: the
                # oracle pass runs this program clean, so the crash is
                # invisible to the simulator — the parent must detect
                # the real death via the worker's sentinel.
                if os.environ.get(WORKER_ENV) is not None:
                    os.kill(os.getpid(), signal.SIGKILL)
                ctx.symtab.write("X", section(4), 2.0)
                yield Send(TransferKind.VALUE, "X", section(4), dests=(0,))
            else:
                yield RecvInit(
                    TransferKind.VALUE, "X", section(4),
                    into_var="X", into_sec=section(1),
                )
                yield Compute(5.0)
                yield WaitAccessible("X", section(1))

        with pytest.raises(DegradedRunError) as ei:
            eng.run(prog)
        err = ei.value
        assert err.crashed == (1,)
        assert "fail-stopped" in str(err)
        # Survivor checkpoint semantics: the killed pid is absent, the
        # survivor's table is attached (its state at abort time).
        assert sorted(err.checkpoint) == [0]
        assert "X" in err.checkpoint[0]
        # The SIGKILLed worker never unlinked anything; the parent's
        # prefix sweep must have reclaimed every segment of the run.
        assert not leaked_shm_segments()


# --------------------------------------------------------------------- #
# wire-format framing round-trip (hypothesis)
# --------------------------------------------------------------------- #


@st.composite
def _sections(draw):
    dims = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.integers(-100, 100))
        size = draw(st.integers(1, 50))
        step = draw(st.integers(1, 5))
        dims.append(Triplet(lo, lo + (size - 1) * step, step))
    return Section(tuple(dims))


@st.composite
def _frames(draw):
    kind = draw(st.sampled_from(list(TransferKind)))
    if kind is TransferKind.OWNERSHIP:
        payload = None
    else:
        dtype = draw(st.sampled_from(["<f8", "<f4", "<i8", "<i4"]))
        shape = tuple(
            draw(st.integers(0, 6))
            for _ in range(draw(st.integers(1, 3)))
        )
        n = int(np.prod(shape)) if shape else 1
        payload = np.arange(n, dtype=np.dtype(dtype)).reshape(shape)
        payload += draw(st.integers(-1000, 1000))
    return Frame(
        kind=kind,
        var=draw(st.text(
            alphabet=st.characters(min_codepoint=65, max_codepoint=122),
            min_size=1, max_size=12,
        )),
        sec=draw(_sections()),
        src=draw(st.integers(0, 1000)),
        dst=draw(st.one_of(st.none(), st.integers(0, 1000))),
        ordinal=draw(st.integers(0, 2**40)),
        send_vt=float(draw(st.integers(0, 10**9))),
        arrive_vt=float(draw(st.integers(0, 10**9))),
        payload=payload,
    )


def _assert_same(a: Frame, b: Frame) -> None:
    assert (a.kind, a.var, a.sec, a.src, a.dst, a.ordinal) == (
        b.kind, b.var, b.sec, b.src, b.dst, b.ordinal
    )
    assert a.send_vt == b.send_vt and a.arrive_vt == b.arrive_vt
    if a.payload is None:
        assert b.payload is None
    else:
        assert b.payload is not None
        assert a.payload.dtype == b.payload.dtype
        assert a.payload.shape == b.payload.shape
        assert a.payload.tobytes() == b.payload.tobytes()


class TestFrameRoundTrip:
    @given(_frames())
    @settings(max_examples=150, deadline=None)
    def test_inline(self, frame):
        """Without a registry every payload rides inline in the frame."""
        _assert_same(frame, decode_frame(encode_frame(frame)))

    @given(_frames())
    @settings(max_examples=40, deadline=None)
    def test_shm_staged(self, frame):
        """Threshold 0 forces every payload through a shared-memory
        segment; decoding unlinks it, so nothing survives the round trip."""
        registry = SegmentRegistry(shm_name_prefix(run=987654))
        try:
            buf = encode_frame(frame, shm_threshold=0, registry=registry)
            _assert_same(frame, decode_frame(buf))
            leaked = [
                n for n in leaked_shm_segments()
                if n.startswith(registry.prefix)
            ]
            assert not leaked
        finally:
            registry.sweep()

    def test_zero_length_payload_inline(self):
        frame = Frame(
            kind=TransferKind.VALUE, var="A",
            sec=Section((Triplet(1, 1, 1),)),
            src=0, dst=None, ordinal=0, send_vt=0.0, arrive_vt=1.0,
            payload=np.zeros((0,), dtype=np.float64),
        )
        _assert_same(frame, decode_frame(encode_frame(frame)))

    def test_bad_magic_rejected(self):
        frame = Frame(
            kind=TransferKind.VALUE, var="A",
            sec=Section((Triplet(1, 2, 1),)),
            src=1, dst=2, ordinal=3, send_vt=4.0, arrive_vt=5.0,
            payload=np.ones(2),
        )
        buf = bytearray(encode_frame(frame))
        buf[:4] = b"NOPE"
        with pytest.raises(ValueError, match="bad proc frame"):
            decode_frame(bytes(buf))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
