"""Transport contract tests (both backends).

Every transport backend must honor the engine's rendezvous semantics —
FIFO-by-initiation matching per (kind, name) tag, serialized multicast
injection, the anyone-may-claim pool — whatever primitives it binds the
transfers to.  This is the paper's section-5 result-transparency claim
made executable: the message-passing and shared-address bindings of the
*same* program must produce bit-identical result arrays (timing may
differ; answers may not).

Also covers the engine-reuse guarantee per backend: a second ``run()``
on the same instance starts from fresh transport state (no stale pool
contents, no pending fences).
"""

import pytest

from repro.core.ir.parser import parse_program
from repro.core.codegen import lower
from repro.core.sections import section
from repro.distributions import Block, Distribution, ProcessorGrid, Segmentation
from repro.machine import (
    Engine,
    MachineModel,
    RecvInit,
    Send,
    TransferKind,
    WaitAccessible,
)
from repro.machine.transport import BACKENDS

MODEL = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)


def linear_seg(extent: int, nprocs: int) -> Segmentation:
    dist = Distribution(
        section((1, extent)), (Block(),), ProcessorGrid((nprocs,))
    )
    return Segmentation(dist, (1,))


def make_engine(backend, nprocs=2, extent=None):
    eng = Engine(nprocs, MODEL, backend=backend)
    eng.declare("X", linear_seg(extent or 3 * nprocs, nprocs))
    return eng


@pytest.mark.parametrize("backend", BACKENDS)
class TestContract:
    def test_fifo_ordering(self, backend):
        """Three same-tag sends land in initiation order, not timing order."""
        eng = make_engine(backend)

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

    def test_multicast_reaches_every_destination(self, backend):
        eng = make_engine(backend, nprocs=3)

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

    def test_unspecified_recipient_pool(self, backend):
        """The section-2.7 anyone-may-claim pool works on every binding."""
        eng = make_engine(backend, nprocs=3)

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
        base = eng.transport
        assert sum(len(p) for p in base._unclaimed.values()) == 1
        eng._reset_run_state()
        # Pool contents and pending fences/receives are gone.
        assert sum(len(p) for p in base._unclaimed.values()) == 0
        assert all(q.live == 0 for q in base._pending.values())


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

    def test_fft3d(self):
        from repro.apps.fft3d import run_fft3d

        runs = {b: run_fft3d(4, 4, 2, backend=b) for b in BACKENDS}
        assert all(r.correct for r in runs.values())
        assert runs["msg"].result.tobytes() == runs["shmem"].result.tobytes()

    def test_workqueue_static_il(self):
        from repro.apps.workqueue import workqueue_source

        program = parse_program(workqueue_source(12, 4))
        accs = {}
        for b in BACKENDS:
            runner = lower(program, 4, model=MODEL, backend=b)
            runner.run()
            accs[b] = runner.read_global("ACC")
        assert accs["msg"].tobytes() == accs["shmem"].tobytes()
        assert accs["msg"].sum() == sum(range(1, 13))

    @pytest.mark.parametrize("variant", ["cannon", "summa", "gather", "outer"])
    def test_matmul(self, variant):
        from repro.apps.matmul import run_matmul

        runs = {b: run_matmul(8, 4, variant, backend=b) for b in BACKENDS}
        assert all(r.correct for r in runs.values())
        assert runs["msg"].result.tobytes() == runs["shmem"].result.tobytes()

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
