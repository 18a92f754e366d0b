"""Transport contract tests (both backends, with and without middleware).

Every transport backend must honor the engine's rendezvous semantics —
FIFO-by-initiation matching per (kind, name) tag, serialized multicast
injection, crash draining — whatever primitives it binds the transfers
to, and whatever fault/reliable middleware is stacked on top.  This is
the paper's section-5 result-transparency claim made executable: the
message-passing and shared-address bindings of the *same* program must
produce bit-identical result arrays (timing may differ; answers may
not).

Also covers the engine-reuse guarantee per backend: a second ``run()``
on the same instance — including after a :class:`DegradedRunError` —
starts from fresh transport state (no stale pool contents, no pending
fences, rng rewound to the seed).
"""

import random

import numpy as np
import pytest

from repro.core.errors import DegradedRunError
from repro.core.ir.parser import parse_program
from repro.core.codegen import lower
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
from repro.machine.faults import Crash, FaultModel
from repro.machine.reliable import ReliableTransport
from repro.machine.transport import (
    BACKENDS,
    MessagePassingTransport,
    ProcTransport,
    SharedAddressTransport,
    make_transport,
)
from repro.machine.transport.middleware import FaultInjection, ReliableDelivery

MODEL = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)

#: Middleware stacks every contract test runs under.  ``lossless`` fault
#: injection and the reliable layer must both be behavior-transparent.
STACKS = {
    "bare": lambda: {},
    "faults-inert": lambda: {"faults": FaultModel.none()},
    "reliable": lambda: {
        "reliable": ReliableTransport(rto=200.0, backoff=2.0, max_retries=8)
    },
}


def linear_seg(extent: int, nprocs: int) -> Segmentation:
    dist = Distribution(
        section((1, extent)), (Block(),), ProcessorGrid((nprocs,))
    )
    return Segmentation(dist, (1,))


def make_engine(backend, stack="bare", nprocs=2, extent=None, **kw):
    eng = Engine(nprocs, MODEL, backend=backend, **STACKS[stack](), **kw)
    eng.declare("X", linear_seg(extent or 3 * nprocs, nprocs))
    return eng


def base_transport(eng):
    """The innermost (backend) transport under any middleware."""
    t = eng.transport
    while hasattr(t, "inner"):
        t = t.inner
    return t


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("stack", sorted(STACKS))
class TestContract:
    def test_fifo_ordering(self, backend, stack):
        """Three same-tag sends land in initiation order, not timing order."""
        eng = make_engine(backend, stack)

        def prog(ctx):
            if ctx.pid == 0:
                for v in (7.0, 8.0, 9.0):
                    ctx.symtab.write("X", section(1), v)
                    yield Send(TransferKind.VALUE, "X", section(1), dests=(1,))
            else:
                for slot in (4, 5, 6):
                    yield RecvInit(
                        TransferKind.VALUE, "X", section(1),
                        into_var="X", into_sec=section(slot),
                    )
                for slot in (4, 5, 6):
                    yield WaitAccessible("X", section(slot))

        eng.run(prog)
        got = [eng.symtabs[1].read("X", section(s))[0] for s in (4, 5, 6)]
        assert got == [7.0, 8.0, 9.0]

    def test_multicast_reaches_every_destination(self, backend, stack):
        eng = make_engine(backend, stack, nprocs=3)

        def prog(ctx):
            if ctx.pid == 0:
                ctx.symtab.write("X", section(1), 5.0)
                yield Send(TransferKind.VALUE, "X", section(1), dests=(1, 2))
            else:
                slot = 3 * ctx.pid + 1
                yield RecvInit(
                    TransferKind.VALUE, "X", section(1),
                    into_var="X", into_sec=section(slot),
                )
                yield WaitAccessible("X", section(slot))

        stats = eng.run(prog)
        assert eng.symtabs[1].read("X", section(4))[0] == 5.0
        assert eng.symtabs[2].read("X", section(7))[0] == 5.0
        assert stats.total_messages == 2

    def test_unspecified_recipient_pool(self, backend, stack):
        """The section-2.7 anyone-may-claim pool works on every binding."""
        eng = make_engine(backend, stack, nprocs=3)

        def prog(ctx):
            if ctx.pid == 0:
                for v in (1.0, 2.0):
                    ctx.symtab.write("X", section(1), v)
                    yield Send(TransferKind.VALUE, "X", section(1))
            else:
                slot = 3 * ctx.pid + 1
                yield RecvInit(
                    TransferKind.VALUE, "X", section(1),
                    into_var="X", into_sec=section(slot),
                )
                yield WaitAccessible("X", section(slot))

        stats = eng.run(prog)
        claimed = {
            eng.symtabs[p].read("X", section(3 * p + 1))[0] for p in (1, 2)
        }
        assert claimed == {1.0, 2.0}
        assert stats.unclaimed_messages == 0

    def test_crash_during_flight_degrades(self, backend, stack):
        """A receiver crashing with a message in flight must degrade the
        run, not hang it — on every backend and under every stack."""
        kw = STACKS[stack]()
        crash = FaultModel(crashes=(Crash(pid=1, at=5.0),))
        if "faults" in kw or not kw:
            kw["faults"] = crash
        else:  # reliable stack: crashes ride the fault model alongside it
            kw["faults"] = crash
        eng = Engine(2, MODEL, backend=backend, **kw)
        eng.declare("X", linear_seg(6, 2))

        def prog(ctx):
            if ctx.pid == 0:
                ctx.symtab.write("X", section(1), 1.0)
                yield Send(TransferKind.VALUE, "X", section(1), dests=(1,))
                yield Compute(100.0)
            else:
                yield RecvInit(
                    TransferKind.VALUE, "X", section(1),
                    into_var="X", into_sec=section(4),
                )
                yield Compute(50.0)
                yield WaitAccessible("X", section(4))

        with pytest.raises(DegradedRunError) as ei:
            eng.run(prog)
        assert ei.value.crashed == (1,)
        assert 0 in ei.value.checkpoint


class TestMiddlewareWiring:
    """The injection seam: middleware must sit between the scheduler's
    send path and the backend's route, whatever the backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fault_layer_wraps_backend(self, backend):
        eng = Engine(2, MODEL, backend=backend, faults=FaultModel.lossy(drop=0.5))
        assert isinstance(eng.transport, FaultInjection)
        inner = eng.transport.inner
        expected = {
            "msg": MessagePassingTransport,
            "shmem": SharedAddressTransport,
            "proc": ProcTransport,
        }[backend]
        assert type(inner) is expected
        # The base transport injects through the outermost middleware.
        assert inner.injector is eng.transport
        assert eng.backend == backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reliable_layer_wraps_backend(self, backend):
        eng = Engine(2, MODEL, backend=backend,
                     reliable=ReliableTransport(rto=100.0))
        assert isinstance(eng.transport, ReliableDelivery)
        assert eng.transport.base.injector is eng.transport
        assert eng.backend == backend

    def test_explicit_transport_conflicts_with_backend(self):
        with pytest.raises(ValueError):
            Engine(2, MODEL, transport=make_transport("msg"), backend="shmem")


class TestEngineReusePerBackend:
    """S2: the same Engine instance is reusable on every backend, and a
    reset leaves no transport-private state behind."""

    def prog(self, ctx):
        if ctx.pid == 0:
            ctx.symtab.write("X", section(1), 3.0)
            yield Send(TransferKind.VALUE, "X", section(1), dests=(1,))
            # One extra unclaimed message left in the pool on purpose.
            ctx.symtab.write("X", section(1), 4.0)
            yield Send(TransferKind.VALUE, "X", section(1))
        else:
            yield RecvInit(
                TransferKind.VALUE, "X", section(1),
                into_var="X", into_sec=section(4),
            )
            yield WaitAccessible("X", section(4))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_second_run_bit_identical(self, backend):
        eng = make_engine(backend, extent=6)
        s1 = eng.run(self.prog)
        s2 = eng.run(self.prog)
        assert s1.makespan == s2.makespan
        assert s1.unclaimed_messages == s2.unclaimed_messages == 1
        assert [p.finish_time for p in s1.procs] == \
               [p.finish_time for p in s2.procs]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reset_clears_transport_private_state(self, backend):
        eng = make_engine(backend, extent=6)
        eng.run(self.prog)
        base = base_transport(eng)
        assert sum(len(p) for p in base._unclaimed.values()) == 1
        eng._reset_run_state()
        # Pool contents and pending fences/receives are gone...
        assert sum(len(p) for p in base._unclaimed.values()) == 0
        assert all(q.live == 0 for q in base._pending.values())
        # ...and the rng is rewound to the seed.
        assert eng._rng.getstate() == random.Random(eng.seed).getstate()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reuse_after_degraded_run(self, backend):
        eng = Engine(
            2, MODEL, backend=backend, seed=11,
            faults=FaultModel(
                default=FaultModel.lossy(drop=0.2).default,
                crashes=(Crash(pid=1, at=5.0),),
            ),
        )
        eng.declare("X", linear_seg(6, 2))
        with pytest.raises(DegradedRunError) as e1:
            eng.run(self.prog)
        # The replay must be bit-identical: same crash, same partial
        # stats — proving the reset rewound the rng and drained the
        # transport rather than replaying against leftover state.
        with pytest.raises(DegradedRunError) as e2:
            eng.run(self.prog)
        assert e1.value.crashed == e2.value.crashed == (1,)
        assert e1.value.stats.makespan == e2.value.stats.makespan
        base = base_transport(eng)
        eng._reset_run_state()
        assert sum(len(p) for p in base._unclaimed.values()) == 0
        assert eng._rng.getstate() == random.Random(11).getstate()


class TestResultTransparency:
    """Section 5: delayed binding to either primitive set must produce
    bit-identical result arrays on the shipped applications."""

    def test_jacobi(self):
        from repro.apps.jacobi import run_jacobi

        runs = {
            b: run_jacobi(16, 4, 3, "halo-overlap", backend=b)
            for b in BACKENDS
        }
        assert all(r.correct for r in runs.values())
        assert runs["msg"].result.tobytes() == runs["shmem"].result.tobytes()
        assert runs["msg"].result.tobytes() == runs["proc"].result.tobytes()

    def test_fft3d(self):
        from repro.apps.fft3d import run_fft3d

        runs = {b: run_fft3d(4, 4, 2, backend=b) for b in BACKENDS}
        assert all(r.correct for r in runs.values())
        assert runs["msg"].result.tobytes() == runs["shmem"].result.tobytes()
        assert runs["msg"].result.tobytes() == runs["proc"].result.tobytes()

    def test_workqueue_static_il(self):
        from repro.apps.workqueue import workqueue_source

        program = parse_program(workqueue_source(12, 4))
        accs = {}
        for b in BACKENDS:
            runner = lower(program, 4, model=MODEL, backend=b)
            runner.run()
            accs[b] = runner.read_global("ACC")
        assert accs["msg"].tobytes() == accs["shmem"].tobytes()
        assert accs["msg"].tobytes() == accs["proc"].tobytes()
        assert accs["msg"].sum() == sum(range(1, 13))

    def test_matmul(self):
        from repro.apps.matmul import run_matmul

        runs = {b: run_matmul(8, 4, "summa", backend=b) for b in BACKENDS}
        assert all(r.correct for r in runs.values())
        assert runs["msg"].result.tobytes() == runs["proc"].result.tobytes()

    def test_timing_differs_semantics_do_not(self):
        """The backends really are different machines: same answers,
        different makespans (otherwise the split proved nothing)."""
        from repro.apps.jacobi import run_jacobi

        runs = {
            b: run_jacobi(16, 4, 3, "halo", backend=b) for b in BACKENDS
        }
        assert runs["msg"].stats.makespan != runs["shmem"].stats.makespan
        assert runs["msg"].result.tobytes() == runs["shmem"].result.tobytes()


class TestEngineModeEquivalence:
    """``REPRO_ENGINE_MODE`` used to select between two execution cores;
    there is one loop now and the variable is *ignored*, not rejected —
    shells, CI files and the frozen end-to-end benchmark (which exports
    ``batched`` for one of its rows and compares result digests) still
    set it.  For every backend, a run with the variable exported must be
    bit-identical to a run without it, deadlock diagnoses included.
    """

    def _per_mode(self, monkeypatch, fn):
        monkeypatch.delenv("REPRO_ENGINE_MODE", raising=False)
        unset = fn()
        monkeypatch.setenv("REPRO_ENGINE_MODE", "batched")
        return unset, fn()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_jacobi_bit_identical(self, backend, monkeypatch):
        from repro.apps.jacobi import run_jacobi

        unset, exported = self._per_mode(
            monkeypatch,
            lambda: run_jacobi(16, 4, 3, "halo-overlap", backend=backend),
        )
        assert unset.correct and exported.correct
        assert unset.result.tobytes() == exported.result.tobytes()
        assert unset.stats.makespan == exported.stats.makespan

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fft3d_bit_identical(self, backend, monkeypatch):
        from repro.apps.fft3d import run_fft3d

        unset, exported = self._per_mode(
            monkeypatch, lambda: run_fft3d(4, 4, 2, backend=backend)
        )
        assert unset.correct and exported.correct
        assert unset.result.tobytes() == exported.result.tobytes()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_workqueue_counts_identical(self, backend, monkeypatch):
        from repro.apps.workqueue import make_job_costs, run_workqueue

        costs = make_job_costs(48, skew=4.0, seed=7)
        unset, exported = self._per_mode(
            monkeypatch,
            lambda: run_workqueue(
                48, 4, scheme="dynamic", costs=costs, model=MODEL,
                backend=backend,
            ),
        )
        assert unset.makespan == exported.makespan
        assert unset.stats.total_messages == exported.stats.total_messages
        assert unset.stats.effects_processed == exported.stats.effects_processed
        assert unset.jobs_per_worker == exported.jobs_per_worker

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_deadlock_report_identical(self, backend, monkeypatch):
        """The report is pinned as a deterministic function of the state."""
        from repro.core.errors import DeadlockError

        def deadlocked():
            eng = make_engine(backend, nprocs=2)

            def prog(ctx):
                # Both processors wait for a message nobody sends.
                yield RecvInit(
                    TransferKind.VALUE, "X", section(1),
                    into_var="X", into_sec=section(3 * ctx.pid + 2),
                )
                yield WaitAccessible("X", section(3 * ctx.pid + 2))

            with pytest.raises(DeadlockError) as ei:
                eng.run(prog)
            return str(ei.value)

        unset, exported = self._per_mode(monkeypatch, deadlocked)
        assert unset == exported
        assert "pending" in unset


class TestHandStackedMiddleware:
    def test_stacked_run_matches_constructor_arguments(self):
        """A hand-assembled ``ReliableDelivery(FaultInjection(...))`` stack
        runs on the same loop as the ``faults=``/``reliable=`` constructor
        arguments (which build the reliable layer alone): over a lossless
        fault model the two agree bit for bit."""
        from repro.apps.workqueue import make_job_costs, run_workqueue
        from repro.machine import Scheduler

        fm = FaultModel.none()
        costs = make_job_costs(8, skew=2.0, seed=7)

        def stacked(nprocs, model):
            return Scheduler(
                nprocs, model, faults=fm, reliable=ReliableTransport(),
                transport=ReliableDelivery(
                    FaultInjection(make_transport("msg"), fm),
                    ReliableTransport(),
                ),
            )

        def by_arguments(nprocs, model):
            return Engine(nprocs, model, backend="msg", faults=fm,
                          reliable=ReliableTransport())

        a, b = (
            run_workqueue(8, 4, scheme="dynamic", costs=costs, model=MODEL,
                          engine_cls=cls)
            for cls in (stacked, by_arguments)
        )
        assert a.makespan == b.makespan
        assert a.stats.effects_processed == b.stats.effects_processed
        assert a.stats.acks == b.stats.acks
        assert a.jobs_per_worker == b.jobs_per_worker
