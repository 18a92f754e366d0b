"""The real-parallelism ``proc`` engine: forked workers + simulator oracle.

:class:`ProcEngine` is the ``--backend proc`` facade.  Where ``msg`` and
``shmem`` simulate a parallel machine inside one Python process, this
engine executes the *same* compiled node programs on real OS processes —
the paper's delayed binding (section 5) taken to actual hardware — while
keeping the full in-process simulation as the semantic oracle.  Every
run is two passes over the identical program:

1. **Oracle pass** (in-process): the inherited scalar scheduler runs the
   program over a :class:`~repro.machine.transport.proc.ProcTransport`
   (msg-identical costs) with a
   :class:`~repro.machine.transport.proc.MatchRecorder` attached.  The
   recorder captures the complete rendezvous schedule: for each receive,
   which emitted frame satisfies it, at what virtual completion time,
   and in which global completion order.  Virtual-time stats, traces,
   logs, and every deterministic error (deadlock, protocol violation,
   budget exhaustion, reliable-delivery failure) come from this pass —
   those errors re-raise directly and the real pass is skipped.

2. **Real pass** (forked workers): one ``fork`` worker per simulated
   processor, each owning an unpickled pristine copy of its pre-run
   symbol table.  Workers step their node program's effect stream
   exactly as the scheduler would — same clock arithmetic, same
   stall/crash boundaries, same completion-application rules — but real
   ``numpy`` work inside the program runs concurrently across cores,
   and every transfer physically moves: directed frames over per-pair
   pipes, unspecified-recipient frames through a parent-side pool, and
   large payloads via ``multiprocessing.shared_memory`` (see
   :mod:`repro.machine.transport.proc` for the wire format).  Workers
   never re-derive matching or middleware timing: they replay the
   oracle's plan, taking each completion's virtual time from it, so a
   run under inert fault middleware (or none) is bit-identical to the
   simulation.

After the real pass the engine installs the workers' final symbol
tables and cross-checks a sha256 digest of every table against the
oracle's — any divergence raises
:class:`~repro.core.errors.OracleMismatchError` loudly instead of
returning silently wrong arrays.  A worker that dies without reporting
(e.g. SIGKILL) degrades the run: the parent aborts the survivors,
collects their checkpoints, and raises
:class:`~repro.core.errors.DegradedRunError` with the same shape the
simulated crash path produces.

Ordering guarantee and its limit: workers apply completions in
``(completion_time, global match order)``; programs whose pending
receives concurrently target overlapping elements (flagged by
``verify_comm`` as races) may observe a different overlap resolution
than the simulator — the digest cross-check turns that into a loud
:class:`OracleMismatchError` rather than silent divergence.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import pickle
import time
import traceback
from collections import deque
from multiprocessing import connection, get_context

import numpy as np

from ..core.errors import (
    DegradedRunError,
    OracleMismatchError,
    ProtocolError,
    TransportError,
)
from ..core.states import SegmentState
from .effects import Compute, Log, RecvInit, Send, WaitAccessible
from .engine import Engine
from .message import TransferKind
from .scheduler import ProcessorContext
from .transport.middleware import TransportMiddleware
from .transport.msg import HEADER_BYTES
from .transport.proc import (
    Frame,
    MatchRecorder,
    ProcTransport,
    RecordingInjector,
    SegmentRegistry,
    decode_frame,
    encode_frame,
    shm_name_prefix,
    sweep_shm_prefix,
)

__all__ = ["ProcEngine", "digest_symtabs"]

#: Wall-clock ceiling of one real pass (parent and workers), seconds.
DEFAULT_TIMEOUT = 120.0

#: Extra time granted to surviving workers once an abort begins.
_ABORT_GRACE = 10.0

#: Environment marker present only inside forked workers — programs and
#: tests can branch on it to act in the real pass but not the oracle
#: pass (the worker-crash robustness test SIGKILLs itself through it).
WORKER_ENV = "REPRO_PROC_WORKER"


def digest_symtabs(symtabs) -> str:
    """sha256 over every processor's final data, canonically ordered.

    Per pid, per variable (sorted by name), per segment (sorted by its
    triplets): the segment geometry, its ownership state, and the raw
    chunk bytes.  This is the equality the oracle cross-check asserts —
    identical digests mean bit-identical final arrays *and* identical
    ownership states on every processor.
    """
    h = hashlib.sha256()
    for st in symtabs:
        h.update(b"P%d" % st.pid)
        for name in sorted(st._entries):
            entry = st._entries[name]
            h.update(name.encode())
            descs = sorted(
                entry.segdescs,
                key=lambda d: tuple(
                    (t.lo, t.hi, t.step) for t in d.segment.dims
                ),
            )
            for d in descs:
                h.update(
                    repr(tuple((t.lo, t.hi, t.step) for t in d.segment.dims))
                    .encode()
                )
                h.update(d.state.value.encode())
                h.update(np.ascontiguousarray(st.memory.get(d.handle)).tobytes())
    return h.hexdigest()


def _strip_caches(st) -> None:
    """Drop rebuildable caches so a table pickles soundly.

    Resolution records hold *views* of segment chunks — pickled, they
    would come back as detached copies — so ``_resolve_cache`` must be
    empty in any shipped table.  The interval-index columns are derived
    state; ``invalidate_index`` drops them too, which keeps blobs lean,
    and they rebuild on first use.
    """
    for entry in st.variables():
        entry.invalidate_index()


def _ship_table(st) -> bytes:
    _strip_caches(st)
    return pickle.dumps(st, protocol=pickle.HIGHEST_PROTOCOL)


def _mark_transitional(st) -> None:
    """Degrade every segment of a crashed processor's table (the
    scheduler's fail-stop rule: data becomes *unpredictable*)."""
    for entry in st.variables():
        for d in entry.segdescs:
            d.state = SegmentState.TRANSITIONAL


class _Crashed(Exception):
    """Internal: the worker's scheduled fail-stop fired."""


class _Blocked(Exception):
    """Internal: terminally blocked (mirrors the simulator's quiescence)."""


class _Aborted(Exception):
    """Internal: the parent ordered this worker to stop."""


class _Worker:
    """One forked processor: replays the effect stream for ``wid``.

    Clock arithmetic mirrors the scalar scheduler exactly — per-copy
    send occupancy, per-receive occupancy, compute costs, stall jumps,
    crash boundaries — while completions take their virtual times from
    the oracle plan, and are applied in ``(time, match order)`` with the
    worker *physically waiting* for any due frame that has not yet
    arrived (that wait is exactly where real parallelism synchronizes).
    """

    def __init__(
        self, wid, nprocs, symtab, plan, faults, model,
        inbound, outbound, ctrl, registry, deadline,
    ):
        self.wid = wid
        self.nprocs = nprocs
        self.st = symtab
        self.ctrl = ctrl
        self.inbound = list(inbound)
        self.out = dict(outbound)
        self.registry = registry
        self.deadline = deadline
        self.vclock = 0.0
        self.o_send = model.o_send
        self.o_recv = model.o_recv
        self.alpha = model.alpha
        self.per_byte = model.per_byte
        #: this pid's slice of the oracle plan: (kind, var, sec, k) ->
        #: (src, dst_or_None, stream ordinal, crank, completion time)
        self.plan_mine = {
            (kind, var, sec, k): entry
            for (kind, var, sec, pid, k), entry in plan.items()
            if pid == wid
        }
        self.recv_counts: dict = {}
        self.emit_counts: dict = {}
        #: decoded frames by (kind, var, sec, src, dst, ordinal); frames
        #: stay buffered after a claim so a middleware-duplicated match
        #: can claim the same frame again.
        self.buffer: dict = {}
        #: planned completions whose frame has not arrived yet
        self.awaiting: dict = {}
        self.await_order: list = []  # heap of (ctime, crank, key)
        self._promoted: set = set()
        self.comp_heap: list = []  # (ctime, crank, kind, ivar, isec, payload)
        stalls = [] if faults is None else [
            s for s in faults.stalls if s.pid == wid
        ]
        self.stalls = deque(sorted(stalls, key=lambda s: s.at))
        self.crash_at = None
        if faults is not None:
            ats = [c.at for c in faults.crashes if c.pid == wid]
            if ats:
                self.crash_at = min(ats)

    # -- program loop -------------------------------------------------- #

    def run(self, program, ctx) -> str:
        gen = program(ctx)
        send_value = None
        try:
            while True:
                self._fault_boundary()
                self._drain(0.0)
                self._apply_due()
                try:
                    eff = gen.send(send_value)
                except StopIteration:
                    break
                send_value = None
                if isinstance(eff, Compute):
                    self.vclock += eff.cost
                elif isinstance(eff, Send):
                    self._do_send(eff)
                elif isinstance(eff, RecvInit):
                    self._do_recv_init(eff)
                elif isinstance(eff, WaitAccessible):
                    send_value = self._do_wait(eff)
                elif isinstance(eff, Log):
                    pass  # logs come from the oracle pass
                else:
                    raise TypeError(
                        f"unknown effect {eff!r} from P{self.wid + 1}"
                    )
        except _Crashed:
            _mark_transitional(self.st)
            self._close(gen)
            return "crashed"
        except _Blocked:
            self._close(gen)
            return "blocked"
        self._flush_leftovers()
        return "done"

    @staticmethod
    def _close(gen) -> None:
        try:
            gen.close()
        except Exception:  # pragma: no cover - defensive
            pass

    def _fault_boundary(self) -> None:
        """Scheduled stalls and the fail-stop check, crash-first — the
        scheduler's pre-step fault consult, verbatim."""
        while True:
            if self.crash_at is not None and self.crash_at <= self.vclock:
                raise _Crashed()
            if self.stalls and self.stalls[0].at <= self.vclock:
                self.vclock += self.stalls.popleft().duration
                continue
            return

    # -- traffic ------------------------------------------------------- #

    def _do_send(self, eff: Send) -> None:
        st = self.st
        if eff.kind is TransferKind.VALUE:
            payload = st.read_owned(eff.var, eff.sec)
        else:
            payload = st.release_ownership(
                eff.var, eff.sec, with_value=eff.kind is TransferKind.OWN_VALUE
            )
        nbytes = HEADER_BYTES + (0 if payload is None else payload.nbytes)
        occupancy = self.o_send
        transit = self.alpha + nbytes * self.per_byte
        dests = eff.dests if eff.dests is not None else (None,)
        fresh = payload
        for dst in dests:
            # Serialized injection: the per-copy occupancy lands on the
            # clock BEFORE the copy is stamped (pinned multicast model).
            self.vclock += occupancy
            if fresh is not None:
                pl, fresh = fresh, None
            else:
                pl = None if payload is None else payload.copy()
            skey = (eff.kind, eff.var, eff.sec, dst)
            ordinal = self.emit_counts.get(skey, 0)
            self.emit_counts[skey] = ordinal + 1
            frame = Frame(
                eff.kind, eff.var, eff.sec, self.wid, dst, ordinal,
                self.vclock, self.vclock + transit, pl,
            )
            if dst == self.wid:
                self._ingest(frame)  # self-send: no wire
            elif dst is None:
                self.ctrl.send((
                    "PUT",
                    (eff.kind, eff.var, eff.sec, self.wid, ordinal),
                    encode_frame(frame, registry=self.registry),
                ))
            else:
                try:
                    self.out[dst].send_bytes(
                        encode_frame(frame, registry=self.registry)
                    )
                except (BrokenPipeError, OSError):
                    # Receiver already exited — by the plan, nothing it
                    # still runs claims this frame (unclaimed traffic).
                    pass
            # Eager inbound drain: keeps peer pipes flowing even while
            # this worker is in a long send burst (the simulator has no
            # finite pipe buffers; the real machine does).
            self._drain(0.0)

    def _do_recv_init(self, eff: RecvInit) -> None:
        st = self.st
        self.vclock += self.o_recv
        into_var, into_sec = eff.destination()
        if eff.kind is TransferKind.VALUE:
            st.begin_value_receive(into_var, into_sec)
        else:
            st.acquire_ownership(into_var, into_sec, transitional=True)
        tk = (eff.kind, eff.var, eff.sec)
        k = self.recv_counts.get(tk, 0)
        self.recv_counts[tk] = k + 1
        entry = self.plan_mine.get((eff.kind, eff.var, eff.sec, k))
        if entry is None:
            return  # the oracle never matched this receive; neither do we
        src, dst, ordinal, crank, ctime = entry
        key = (eff.kind, eff.var, eff.sec, src, dst, ordinal)
        if dst is None:
            # Pool frame: ask the parent switchboard (granted on PUT).
            self.ctrl.send(
                ("CLAIM", (eff.kind, eff.var, eff.sec, src, ordinal))
            )
        self.awaiting.setdefault(key, []).append(
            (ctime, crank, eff.kind, into_var, into_sec)
        )
        heapq.heappush(self.await_order, (ctime, crank, key))
        if key in self.buffer:
            self._promote(key)

    def _ingest(self, frame: Frame) -> None:
        key = (
            frame.kind, frame.var, frame.sec,
            frame.src, frame.dst, frame.ordinal,
        )
        self.buffer[key] = frame
        if key in self.awaiting:
            self._promote(key)

    def _promote(self, key) -> None:
        frame = self.buffer[key]
        for (ctime, crank, kind, ivar, isec) in self.awaiting.pop(key, ()):
            heapq.heappush(
                self.comp_heap, (ctime, crank, kind, ivar, isec, frame.payload)
            )
            self._promoted.add((ctime, crank))

    # -- completions --------------------------------------------------- #

    def _min_awaiting(self):
        """(ctime, crank) of the earliest planned-but-unarrived completion."""
        heap = self.await_order
        while heap:
            ctime, crank, _key = heap[0]
            if (ctime, crank) in self._promoted:
                heapq.heappop(heap)
                self._promoted.discard((ctime, crank))
                continue
            return (ctime, crank)
        return None

    def _apply(self, c) -> None:
        ctime, crank, kind, ivar, isec, payload = c
        if kind is TransferKind.VALUE:
            expected = isec.size
            got = 0 if payload is None else payload.size
            if got != expected:  # pragma: no cover - oracle pass catches it
                raise ProtocolError(
                    f"section mismatch: frame into {ivar}{isec} carries "
                    f"{got} elements, destination has {expected}"
                )
            self.st.complete_value_receive(ivar, isec, payload)
        else:
            self.st.complete_ownership_receive(ivar, isec, payload)

    def _apply_due(self) -> None:
        """Apply every completion due at the current clock, physically
        waiting for any due frame that has not arrived yet — the
        simulator applied it before this step, so this worker must not
        step past it either."""
        while True:
            aw = self._min_awaiting()
            if self.comp_heap:
                head = self.comp_heap[0]
                if head[0] <= self.vclock and (
                    aw is None or (head[0], head[1]) <= aw
                ):
                    self._apply(heapq.heappop(self.comp_heap))
                    continue
            if aw is not None and aw[0] <= self.vclock:
                self._block_drain()
                continue
            return

    def _do_wait(self, eff: WaitAccessible) -> bool:
        st = self.st
        self._apply_due()
        if st.accessible(eff.var, eff.sec):
            return True
        # Drain ALL planned completions in (time, rank) order until the
        # section flips accessible; the flip completion's time becomes
        # the wake clock (max with the block clock), as in the scheduler.
        while self.comp_heap or self.awaiting:
            aw = self._min_awaiting()
            head = self.comp_heap[0] if self.comp_heap else None
            if head is not None and (
                aw is None or (head[0], head[1]) <= aw
            ):
                c = heapq.heappop(self.comp_heap)
                self._apply(c)
                if st.accessible(eff.var, eff.sec):
                    self.vclock = max(self.vclock, c[0])
                    return True
                continue
            self._block_drain()
        # Nothing planned can ever wake us.  The simulator's quiescence
        # rule: a blocked processor with ANY scheduled crash fail-stops
        # now (no time comparison); otherwise the run degrades/blocks.
        if self.crash_at is not None:
            raise _Crashed()
        raise _Blocked()

    def _flush_leftovers(self) -> None:
        """End-of-program flush: every planned completion still lands
        (the scheduler applies leftovers in ``_collect_stats``)."""
        while self.comp_heap or self.awaiting:
            aw = self._min_awaiting()
            head = self.comp_heap[0] if self.comp_heap else None
            if head is not None and (
                aw is None or (head[0], head[1]) <= aw
            ):
                self._apply(heapq.heappop(self.comp_heap))
                continue
            self._block_drain()

    # -- wire ---------------------------------------------------------- #

    def _drain(self, timeout: float) -> bool:
        """Read everything currently readable; True if a frame landed."""
        conns = self.inbound + [self.ctrl]
        ready = connection.wait(conns, timeout)
        got = False
        for c in ready:
            if c is self.ctrl:
                try:
                    while c.poll():
                        m = c.recv()
                        if m[0] == "GRANT":
                            self._ingest(decode_frame(m[1], unlink_shm=False))
                            got = True
                        elif m[0] == "ABORT":
                            raise _Aborted()
                except EOFError:
                    raise _Aborted()  # parent died
            else:
                try:
                    while c.poll():
                        self._ingest(
                            decode_frame(c.recv_bytes(), unlink_shm=False)
                        )
                        got = True
                except EOFError:
                    # Peer exited; its remaining traffic (if any) was
                    # already buffered by the pipe and drained above.
                    self.inbound.remove(c)
                    c.close()
        return got

    def _block_drain(self) -> None:
        """Block until at least one frame arrives (bounded by deadline)."""
        while True:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"proc worker P{self.wid + 1} timed out waiting for a "
                    "planned frame (REPRO_PROC_TIMEOUT)"
                )
            if self._drain(min(remaining, 1.0)):
                return


class ProcEngine(Engine):
    """Engine facade of the ``proc`` backend (see module docstring).

    Construction sites never name this class: ``Engine(n,
    backend="proc")`` dispatches here via ``Engine.__new__``.  The
    in-process simulation's recorded completion order is the semantic
    oracle's.  ``last_real_wall`` holds the wall-clock seconds of the
    most recent real pass (fork to join) — the number the real-speedup
    bench reports.
    """

    def __init__(
        self,
        nprocs: int = 1,
        model=None,
        *,
        backend: str | None = None,
        transport=None,
        **kw,
    ):
        if transport is None and backend is None:
            backend = "proc"
        super().__init__(nprocs, model, backend=backend, transport=transport, **kw)
        self._run_counter = 0
        self.last_real_wall: float | None = None
        self.last_oracle_digest: str | None = None

    def _base_transport(self) -> ProcTransport:
        t = self.transport
        while isinstance(t, TransportMiddleware):
            t = t.inner
        if not isinstance(t, ProcTransport):  # pragma: no cover - __init__ guards
            raise TypeError(
                f"proc engine bound to {type(t).__name__}; expected ProcTransport"
            )
        return t

    # ------------------------------------------------------------------ #
    # the two-pass run
    # ------------------------------------------------------------------ #

    def run(self, program):
        base = self._base_transport()
        for st in self.symtabs:
            _strip_caches(st)
        pristine_blobs = [
            pickle.dumps(st, protocol=pickle.HIGHEST_PROTOCOL)
            for st in self.symtabs
        ]
        recorder = MatchRecorder()
        shim = RecordingInjector(base.injector, recorder)
        base.recorder = recorder
        base.injector = shim
        sim_exc: DegradedRunError | None = None
        try:
            try:
                sim_stats = super().run(program)
            except DegradedRunError as exc:
                # Deterministic fail-stops: the real pass still runs
                # (workers crash themselves at the same boundaries);
                # every OTHER simulator error is deterministic for the
                # real machine too and re-raises without a real pass.
                sim_exc = exc
                sim_stats = exc.stats
        finally:
            base.recorder = None
            base.injector = shim.inner
        recorder.finalize(base.leftover_pending())
        sim_digest = digest_symtabs(self.symtabs)
        self.last_oracle_digest = sim_digest
        expected = {}
        for p in self._procs:
            expected[p.pid] = (
                "crashed" if p.crashed else "done" if p.done else "blocked"
            )
        sim_crashed = set(sim_exc.crashed) if sim_exc is not None else set()

        pristine = [pickle.loads(b) for b in pristine_blobs]
        reports, dead, errors, wall = self._execute_real(
            program, pristine, recorder.plan
        )
        self.last_real_wall = wall

        if errors:
            pid = min(errors)
            raise RuntimeError(
                f"proc worker P{pid + 1} failed:\n{errors[pid]}"
            )
        if dead:
            return self._degrade_unexpected(
                pristine, reports, dead, sim_stats
            )

        tables = []
        for pid in range(self.nprocs):
            status, _vclock, blob = reports[pid]
            if status != expected[pid]:
                raise OracleMismatchError(
                    f"proc worker P{pid + 1} finished {status!r} but the "
                    f"oracle predicted {expected[pid]!r}"
                )
            tables.append(pickle.loads(blob))
        self.symtabs = tables
        real_digest = digest_symtabs(self.symtabs)
        if real_digest != sim_digest:
            raise OracleMismatchError(
                "proc run diverged from the simulator oracle: real sha256 "
                f"{real_digest[:16]}… != simulated {sim_digest[:16]}… "
                "(identical program, identical plan — backend bug)"
            )
        if sim_exc is not None:
            raise DegradedRunError(
                str(sim_exc),
                stats=sim_stats,
                crashed=sim_exc.crashed,
                checkpoint={
                    pid: self.symtabs[pid]
                    for pid in range(self.nprocs)
                    if pid not in sim_crashed
                },
            )
        return sim_stats

    def _degrade_unexpected(self, pristine, reports, dead, sim_stats):
        """A worker died without reporting (SIGKILL, OOM): degrade the
        run with the same shape the simulated crash path produces."""
        tables = {}
        for pid in range(self.nprocs):
            if pid in reports:
                tables[pid] = pickle.loads(reports[pid][2])
            else:
                tables[pid] = pristine[pid]
        for pid in dead:
            _mark_transitional(tables[pid])
        self.symtabs = [tables[pid] for pid in range(self.nprocs)]
        crashed = tuple(sorted(dead))
        raise DegradedRunError(
            "degraded run: processor(s) "
            + ", ".join(f"P{p + 1}" for p in crashed)
            + f" fail-stopped; {self.nprocs - len(crashed)} of "
            f"{self.nprocs} survive (partial stats and surviving "
            "symbol-table checkpoint attached)",
            stats=sim_stats,
            crashed=crashed,
            checkpoint={
                pid: tables[pid]
                for pid in range(self.nprocs)
                if pid not in dead
            },
        )

    # ------------------------------------------------------------------ #
    # the real pass: fork, switchboard, collect
    # ------------------------------------------------------------------ #

    def _execute_real(self, program, pristine, plan):
        n = self.nprocs
        self._run_counter += 1
        prefix = shm_name_prefix(os.getpid(), self._run_counter)
        timeout = float(os.environ.get("REPRO_PROC_TIMEOUT", DEFAULT_TIMEOUT))
        mp = get_context("fork")
        # Spawn the shared-memory resource tracker BEFORE forking, so all
        # workers inherit the parent's tracker: segment registrations (at
        # create/attach in a worker) and the unregistration (at the
        # parent's end-of-run unlink) then meet in one daemon instead of
        # orphaned per-worker trackers warning at exit.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        # Directed traffic: one unidirectional pipe per ordered pair.
        pair = {}
        for i in range(n):
            for j in range(n):
                if i != j:
                    pair[(i, j)] = mp.Pipe(duplex=False)  # (recv@j, send@i)
        ctrls = [mp.Pipe(duplex=True) for _ in range(n)]  # (parent, child)
        model = self.model
        faults = self.faults

        def worker(wid: int) -> None:
            ctrl = ctrls[wid][1]
            try:
                os.environ[WORKER_ENV] = str(wid)
                # fd hygiene: keep only this worker's ends, so a peer's
                # exit yields clean EOF/BrokenPipe on its pipes.
                for (i, j), (r, w) in pair.items():
                    if j != wid:
                        r.close()
                    if i != wid:
                        w.close()
                for k, (pconn, cconn) in enumerate(ctrls):
                    pconn.close()
                    if k != wid:
                        cconn.close()
                st = pristine[wid]
                registry = SegmentRegistry(prefix)
                inbound = [pair[(i, wid)][0] for i in range(n) if i != wid]
                outbound = {j: pair[(wid, j)][1] for j in range(n) if j != wid}
                deadline = time.monotonic() + timeout
                w = _Worker(
                    wid, n, st, plan, faults, model,
                    inbound, outbound, ctrl, registry, deadline,
                )
                ctx = ProcessorContext(wid, st, n)
                status = w.run(program, ctx)
                ctrl.send(("FINAL", status, w.vclock, _ship_table(st)))
            except _Aborted:
                # Ship progress so far: the survivors' checkpoints of a
                # degraded run are their tables at abort time.
                try:
                    ctrl.send(("FINAL", "aborted", 0.0, _ship_table(st)))
                except Exception:
                    pass
            except BaseException as exc:
                try:
                    ctrl.send((
                        "ERROR",
                        f"{type(exc).__name__}: {exc}\n"
                        f"{traceback.format_exc()}",
                    ))
                except Exception:
                    pass
            finally:
                try:
                    ctrl.close()
                except Exception:
                    pass
                # _exit: skip inherited atexit hooks (pytest plugins, the
                # registry sweep — sweeping the shared prefix here would
                # unlink peers' in-flight segments; the parent sweeps).
                os._exit(0)

        procs = [
            mp.Process(target=worker, args=(wid,), daemon=True)
            for wid in range(n)
        ]
        wall0 = time.perf_counter()
        reports: dict = {}
        errors: dict = {}
        dead: set = set()
        try:
            for p in procs:
                p.start()
            # Parent keeps only its control ends.
            for (r, w) in pair.values():
                r.close()
                w.close()
            conns = []
            for (pconn, cconn) in ctrls:
                cconn.close()
                conns.append(pconn)
            self._switchboard(
                procs, conns, reports, errors, dead, timeout,
            )
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=5)
            for (pconn, _cconn) in ctrls:
                try:
                    pconn.close()
                except Exception:
                    pass
            sweep_shm_prefix(prefix)
        wall = time.perf_counter() - wall0
        return reports, dead, errors, wall

    def _switchboard(self, procs, conns, reports, errors, dead, timeout):
        """The parent loop: pool PUT/CLAIM matching by the oracle plan's
        keys, FINAL/ERROR collection, and death detection by sentinel."""
        n = len(procs)
        sentinel_of = {procs[wid].sentinel: wid for wid in range(n)}
        conn_of = {id(conns[wid]): wid for wid in range(n)}
        pool: dict = {}
        pending_claims: dict = {}
        open_conns = set(range(n))
        deadline = time.monotonic() + timeout
        aborting = False

        def grant(wid, buf):
            try:
                conns[wid].send(("GRANT", buf))
            except (BrokenPipeError, OSError):
                pass

        def abort_all():
            nonlocal aborting, deadline
            if aborting:
                return
            aborting = True
            deadline = min(deadline, time.monotonic() + _ABORT_GRACE)
            for wid in range(n):
                if wid not in reports and wid not in errors and wid not in dead:
                    try:
                        conns[wid].send(("ABORT",))
                    except (BrokenPipeError, OSError):
                        pass

        def handle(wid, conn):
            try:
                while conn.poll():
                    m = conn.recv()
                    tag = m[0]
                    if tag == "PUT":
                        _, key, buf = m
                        pool[key] = buf
                        for claimant in pending_claims.pop(key, ()):
                            grant(claimant, buf)
                    elif tag == "CLAIM":
                        key = m[1]
                        if key in pool:
                            grant(wid, pool[key])
                        else:
                            pending_claims.setdefault(key, []).append(wid)
                    elif tag == "FINAL":
                        reports[wid] = (m[1], m[2], m[3])
                    elif tag == "ERROR":
                        errors[wid] = m[1]
                        abort_all()
            except (EOFError, OSError):
                open_conns.discard(wid)

        def settled(wid):
            return wid in reports or wid in errors or wid in dead

        while not all(settled(wid) for wid in range(n)):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                if aborting:
                    # Grace expired: stragglers are terminated by the
                    # caller's finally; report what we have.
                    for wid in range(n):
                        if not settled(wid):
                            dead.add(wid)
                    return
                raise TransportError(
                    f"proc run timed out after {timeout:.0f}s "
                    "(REPRO_PROC_TIMEOUT); workers terminated"
                )
            waitset = [
                conns[wid] for wid in range(n)
                if not settled(wid) and wid in open_conns
            ]
            waitset += [
                procs[wid].sentinel for wid in range(n) if not settled(wid)
            ]
            if not waitset:  # pragma: no cover - defensive
                break
            ready = connection.wait(waitset, timeout=min(remaining, 1.0))
            for obj in ready:
                if isinstance(obj, int):
                    wid = sentinel_of[obj]
                    # Exit may race its last messages: drain first.
                    if wid in open_conns:
                        handle(wid, conns[wid])
                    if not settled(wid):
                        dead.add(wid)
                        abort_all()
                else:
                    handle(conn_of[id(obj)], obj)
