"""The backend-agnostic scheduler core of the SPMD engine.

This module owns everything about running node programs that does *not*
depend on how data moves between processors:

* the min-``(clock, pid)`` heap scheduling loop (one O(log P) pop/push
  per decision, with lazy discard of stale entries);
* the initiation/completion split — completions are timestamped events
  applied to the receiver's symbol table through **one** code path
  (:meth:`Scheduler.complete` builds the closure,
  :meth:`Scheduler._apply_completion` applies it), shared by eager
  wake-ups, ``WaitAccessible`` drains and end-of-run flushing;
* quiescence detection and the deadlock report;
* stats collection and the trace/log streams.

Everything transport-specific — how a ``Send`` effect becomes traffic,
how a ``RecvInit`` posts an obligation, how the two rendezvous, and what
the unmatched state looks like in diagnostics — lives behind the
:class:`~repro.machine.transport.Transport` protocol.  The scheduler
calls ``transport.send`` / ``transport.recv_init`` and the transport
calls back :meth:`Scheduler.complete` when a transfer's
completion time is known.  See docs/ENGINE.md for the architecture
diagram and docs/BACKENDS.md for the two shipped backends.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator

import numpy as np

from ..core.errors import (
    BudgetExhaustedError,
    DeadlockError,
    OwnershipError,
    ProtocolError,
)
from ..core.sections import Section
from ..runtime.memory import LocalMemory
from ..runtime.symtab import RuntimeSymbolTable
from .effects import Compute, Effect, Log, RecvInit, Send, WaitAccessible
from .message import Message, TransferKind
from .model import MachineModel
from .stats import ProcStats, RunStats, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .transport.base import PendingRecv, Transport

__all__ = ["NodeProgram", "ProcessorContext", "Scheduler"]


@dataclass
class _Completion:
    time: float
    seq: int
    apply: Callable[[], None]
    nbytes: int

    def __lt__(self, other: "_Completion") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class ProcessorContext:
    """What a node program sees of its processor: pid, clock and table."""

    def __init__(self, pid: int, symtab: RuntimeSymbolTable, nprocs: int):
        self.pid = pid
        self.symtab = symtab
        self.nprocs = nprocs

    @property
    def mypid(self) -> int:
        return self.pid


NodeProgram = Callable[[ProcessorContext], Generator[Effect, object, None]]


class _Proc:
    __slots__ = (
        "pid", "ctx", "gen", "clock", "blocked_on", "done", "completions",
        "stats", "send_value", "nqueued",
    )

    def __init__(self, pid: int, ctx: ProcessorContext, gen: Generator):
        self.pid = pid
        self.ctx = ctx
        self.gen = gen
        self.clock = 0.0
        self.blocked_on: tuple[str, Section] | None = None
        self.done = False
        self.completions: list[_Completion] = []  # heap
        self.stats = ProcStats(pid)
        self.send_value: object = None  # value sent into the generator on resume
        self.nqueued = 0  # live run-queue entries naming this processor

    @property
    def runnable(self) -> bool:
        return not self.done and self.blocked_on is None


class Scheduler:
    """Runs one SPMD node program on ``nprocs`` simulated processors,
    moving data through a pluggable :class:`Transport`."""

    def __init__(
        self,
        nprocs: int,
        model: MachineModel | None = None,
        *,
        transport: "Transport",
        strict: bool = False,
        trace: bool = False,
        max_effects: int = 10_000_000,
    ):
        self.nprocs = nprocs
        self.model = model if model is not None else MachineModel()
        self.strict = strict
        self.trace_enabled = trace
        self.max_effects = max_effects
        self.transport = transport
        transport.bind(self)
        self.symtabs = [
            RuntimeSymbolTable(pid, LocalMemory(pid), strict=strict)
            for pid in range(nprocs)
        ]
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Fresh per-run state, so an engine instance is safe to reuse.

        A second ``run()`` must not observe the previous run's unclaimed
        traffic, pending receives or fences, trace, or logs — even when
        that run raised (symbol tables persist by design; see
        :mod:`repro.machine.engine`'s reuse rule).  The transport drops
        all of its private per-run state here too.
        """
        self._seq = itertools.count()
        self._trace: list[TraceEvent] = []
        self._logs: list[tuple[float, int, str]] = []
        self._effects = 0
        self._runq: list[tuple[float, int]] = []
        self.transport.reset()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def declare(self, name: str, segmentation, *, dtype=np.float64) -> None:
        """Declare an exclusive variable on every processor's table."""
        for st in self.symtabs:
            st.declare(name, segmentation, dtype=dtype)

    def declare_empty(self, name: str, index_space: Section, **kw) -> None:
        for st in self.symtabs:
            st.declare_empty(name, index_space, **kw)

    def write_global(self, name: str, values: np.ndarray) -> None:
        """Stage a global array in: each processor keeps what it owns."""
        for st in self.symtabs:
            st.stage_in(name, values)

    def read_global(self, name: str) -> np.ndarray:
        """Assemble a global array from its current owners; raises unless
        ownership is a total cover (it is not mid-redistribution)."""
        entry = self.symtabs[0].entry(name)
        out = np.zeros(entry.global_shape, dtype=entry.dtype)
        for st in self.symtabs:
            st.stage_out(name, out)
        owned = sum(st.owned_elements(name) for st in self.symtabs)
        if owned != out.size:
            raise OwnershipError(
                f"{name}: {out.size - owned} elements currently unowned everywhere")
        return out

    def run(self, program: NodeProgram) -> RunStats:
        """Load ``program`` onto every processor and run to completion.

        After a raising run the engine remains reusable: the next
        ``run()`` starts from clean per-run state.
        """
        self._reset_run_state()
        procs = []
        for pid in range(self.nprocs):
            ctx = ProcessorContext(pid, self.symtabs[pid], self.nprocs)
            procs.append(_Proc(pid, ctx, program(ctx)))
        self._procs = procs
        try:
            try:
                self._run_loop(procs)
            except BaseException:
                self._close_generators(procs)
                raise
            stats = self._collect_stats(procs)
        finally:
            # Resolution records live for one run: a long-lived engine
            # never accumulates the sections of programs it has finished.
            for st in self.symtabs:
                st.forget_resolutions()
        return stats

    def _run_loop(self, procs: list[_Proc]) -> None:
        # The run queue holds one (clock, pid) entry per runnable
        # processor; heap order reproduces the min-(clock, pid) schedule
        # of the original full-scan loop in O(log P) per step.
        runq = self._runq = [(p.clock, p.pid) for p in procs]
        # Already sorted (all clocks 0, pids ascending) — valid heap.
        for p in procs:
            p.nqueued = 1

        budget = self.max_effects
        while True:
            proc = self._next_runnable()
            if proc is None:
                if all(p.done for p in procs):
                    break
                blocked = [p for p in procs if p.blocked_on is not None]
                if self._try_unblock(blocked):
                    continue
                raise self._deadlock_error(blocked)
            budget -= 1
            if budget < 0:
                raise BudgetExhaustedError(
                    f"effect budget ({self.max_effects}) exhausted — this is "
                    "a resource limit, not a proven deadlock: raise "
                    "max_effects for long programs, or suspect a runaway "
                    "program or livelock"
                )
            self._effects += 1
            self._step(proc)
            if proc.runnable:
                proc.nqueued += 1
                heapq.heappush(runq, (proc.clock, proc.pid))

    @staticmethod
    def _close_generators(procs: list[_Proc]) -> None:
        """Tear down still-suspended node programs after an aborted run.

        Leaving generators suspended would let them resume in a later
        run's context (or emit GeneratorExit warnings at GC time); the
        engine's reuse guarantee includes runs that raised.
        """
        for p in procs:
            if not p.done:
                try:
                    p.gen.close()
                except Exception:  # pragma: no cover - defensive
                    pass

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def _next_runnable(self) -> _Proc | None:
        """Pop the runnable processor with the smallest (clock, pid).

        Entries are invalidated lazily: a pop that names a processor which
        stepped, blocked, or finished since the push is discarded.  A pop
        whose *clock key* went stale (completions advanced the processor's
        clock past its queued key) must not simply be discarded when it is
        the processor's only live entry — that would strand a runnable
        processor outside the queue and misreport quiescence — so it is
        re-queued under its corrected key instead.  ``nqueued`` counts the
        live entries per processor to make that test O(1).
        """
        runq = self._runq
        procs = self._procs
        while runq:
            clock, pid = heapq.heappop(runq)
            proc = procs[pid]
            proc.nqueued -= 1
            if not proc.runnable:
                continue
            if proc.clock == clock:
                return proc
            if proc.nqueued == 0:
                self._push_runnable(proc)
        return None

    def _push_runnable(self, proc: _Proc) -> None:
        proc.nqueued += 1
        heapq.heappush(self._runq, (proc.clock, proc.pid))

    # ------------------------------------------------------------------ #
    # core stepping
    # ------------------------------------------------------------------ #

    def _step(self, proc: _Proc) -> None:
        self._apply_due_completions(proc)
        try:
            effect = proc.gen.send(proc.send_value)
        except StopIteration:
            proc.done = True
            proc.stats.finish_time = proc.clock
            self._emit(proc.clock, proc.pid, "done", "")
            return
        proc.send_value = None
        if isinstance(effect, Compute):
            proc.clock += effect.cost
            proc.stats.compute_time += effect.cost
            proc.stats.flops += effect.flops
            if effect.what:
                self._emit(proc.clock, proc.pid, "compute", effect.what)
        elif isinstance(effect, Send):
            self.transport.send(proc, effect)
        elif isinstance(effect, RecvInit):
            self.transport.recv_init(proc, effect)
        elif isinstance(effect, WaitAccessible):
            self._do_wait(proc, effect)
        elif isinstance(effect, Log):
            self._logs.append((proc.clock, proc.pid, effect.text))
            self._emit(proc.clock, proc.pid, "log", effect.text)
        else:
            raise TypeError(f"unknown effect {effect!r} from P{proc.pid + 1}")

    # ------------------------------------------------------------------ #
    # completions — the ONE code path that applies delivered data
    # ------------------------------------------------------------------ #

    def complete(self, msg: Message, recv: "PendingRecv", ctime: float) -> None:
        """Record the rendezvous of ``msg`` and ``recv`` at ``ctime``.

        Called by the transport once it has bound a completion time to a
        matched pair.  Builds the single deferred-application closure for
        both transfer kinds (value vs. ownership differ only in which
        symtab completion routine runs), pushes the
        :class:`_Completion`, and eagerly re-examines a blocked receiver.
        """
        receiver = self._procs[recv.pid]
        st = receiver.ctx.symtab
        msg.claimed = True
        if msg.kind is TransferKind.VALUE:
            expected = recv.into_sec.size
            got = 0 if msg.payload is None else msg.payload.size
            if got != expected:
                raise ProtocolError(
                    f"section mismatch: message {msg.name} carries {got} "
                    f"elements, receive destination {recv.into_var}{recv.into_sec} "
                    f"has {expected} (paper section 2.7: results unpredictable)"
                )
            finish = st.complete_value_receive
        else:
            finish = st.complete_ownership_receive

        def apply(finish=finish, recv=recv, payload=msg.payload):
            finish(recv.into_var, recv.into_sec, payload)

        heapq.heappush(
            receiver.completions,
            _Completion(ctime, next(self._seq), apply, msg.nbytes),
        )
        receiver.stats.msgs_received += 1
        if self.trace_enabled:
            self._emit(
                ctime, recv.pid, self.transport.completion_event,
                f"{msg.kind.value} {msg.name}",
            )
        # A blocked receiver may now have its wake-up event: unblock it
        # eagerly so it re-enters scheduling at its correct wake time.
        if receiver.blocked_on is not None:
            self._try_unblock([receiver])

    def _apply_completion(self, proc: _Proc, c: _Completion) -> None:
        """Apply one completion to its processor — the single site where
        delivered data lands in a symbol table and the byte counter moves."""
        c.apply()
        proc.stats.bytes_received += c.nbytes

    def _apply_due_completions(self, proc: _Proc) -> None:
        """Apply every completion due at or before the processor's clock.

        Pop-until-future: due completions come straight off the heap in
        (time, seq) order until the head lies in the future.  The former
        implementation partitioned the whole list and re-heapified the
        future remainder on every call — O(n) per step even when one
        completion was due; popping is O(log n) per *applied* completion
        and touches nothing else.
        """
        comps = proc.completions
        clock = proc.clock
        heappop = heapq.heappop
        while comps and comps[0].time <= clock:
            self._apply_completion(proc, heappop(comps))

    # ------------------------------------------------------------------ #
    # waiting
    # ------------------------------------------------------------------ #

    def _do_wait(self, proc: _Proc, eff: WaitAccessible) -> None:
        st = proc.ctx.symtab
        self._apply_due_completions(proc)
        if st.accessible(eff.var, eff.sec):
            proc.send_value = True
            return
        # Drain future completions until the section becomes accessible.
        t0 = proc.clock
        while proc.completions:
            c = heapq.heappop(proc.completions)
            self._apply_completion(proc, c)
            if st.accessible(eff.var, eff.sec):
                proc.clock = max(proc.clock, c.time)
                proc.stats.idle_time += proc.clock - t0
                proc.send_value = True
                if self.trace_enabled:
                    self._emit(proc.clock, proc.pid, "awake", f"{eff.var}{eff.sec}")
                return
        # Nothing scheduled can wake us: block until a new match appears.
        proc.blocked_on = (eff.var, eff.sec)
        if self.trace_enabled:
            self._emit(proc.clock, proc.pid, "block", f"{eff.var}{eff.sec}")

    def _try_unblock(self, blocked: list[_Proc]) -> bool:
        """Re-examine blocked processors after state changed; True if any woke.

        A woken processor is re-queued in the scheduler heap (blocked
        processors have no run-queue entry).
        """
        woke = False
        for proc in blocked:
            var, sec = proc.blocked_on
            st = proc.ctx.symtab
            t0 = proc.clock
            while proc.completions:
                c = heapq.heappop(proc.completions)
                self._apply_completion(proc, c)
                if st.accessible(var, sec):
                    proc.clock = max(proc.clock, c.time)
                    proc.stats.idle_time += proc.clock - t0
                    proc.blocked_on = None
                    proc.send_value = True
                    if self.trace_enabled:
                        self._emit(proc.clock, proc.pid, "awake", f"{var}{sec}")
                    self._push_runnable(proc)
                    woke = True
                    break
        return woke

    def _deadlock_error(self, blocked: list[_Proc]) -> DeadlockError:
        """A :class:`DeadlockError` whose text alone diagnoses the
        cycle: per-pid awaited sections *and* the transport's pending
        obligations (receive tags or fences), plus the full unclaimed
        traffic listing."""
        transport = self.transport
        pending_by_pid = transport.pending_by_pid()
        # Sort every listing (pids, and tags by post time then text) so the
        # report is a deterministic function of the deadlocked state and
        # golden tests can pin it byte-for-byte.
        for tags in pending_by_pid.values():
            tags.sort()
        pending_label = transport.pending_label
        lines = ["deadlock: every live processor is blocked"]
        for p in sorted(blocked, key=lambda q: q.pid):
            var, sec = p.blocked_on
            lines.append(
                f"  P{p.pid + 1} at t={p.clock:.2f} awaiting {var}{sec} "
                f"(state {p.ctx.symtab.state_of(var, sec).value})"
            )
            for _, tag in pending_by_pid.pop(p.pid, ()):
                lines.append(f"    {pending_label}: {tag}")
        for pid in sorted(pending_by_pid):
            lines.append(f"  P{pid + 1} (not blocked):")
            for _, tag in pending_by_pid[pid]:
                lines.append(f"    {pending_label}: {tag}")
        n_unclaimed = transport.unclaimed_count()
        n_pending = transport.unmatched_count()
        lines.append(
            f"  {n_unclaimed} unclaimed messages, {n_pending} unmatched receives"
        )
        if n_unclaimed:
            lines.append(f"  {transport.pool_header}")
            lines.extend(f"    {m}" for m in transport.unclaimed_listing())
        return DeadlockError("\n".join(lines))

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def _emit(self, time: float, pid: int, kind: str, detail: str) -> None:
        if self.trace_enabled:
            self._trace.append(TraceEvent(time, pid, kind, detail))

    def _collect_stats(self, procs: list[_Proc]) -> RunStats:
        # Apply any leftover completions (non-blocking receives the program
        # never awaited) so final data is as-delivered.
        for p in procs:
            while p.completions:
                c = heapq.heappop(p.completions)
                self._apply_completion(p, c)
                p.stats.finish_time = max(p.stats.finish_time, c.time)
        stats = RunStats(
            procs=[p.stats for p in procs],
            makespan=max((p.stats.finish_time for p in procs), default=0.0),
            total_messages=sum(p.stats.msgs_sent for p in procs),
            total_bytes=sum(p.stats.bytes_sent for p in procs),
            unclaimed_messages=self.transport.unclaimed_count(),
            unmatched_receives=self.transport.unmatched_count(),
            effects_processed=self._effects,
            logs=self._logs,
            trace=self._trace,
        )
        if self.strict and (stats.unclaimed_messages or stats.unmatched_receives):
            raise ProtocolError(
                f"program ended with {stats.unclaimed_messages} unclaimed "
                f"messages and {stats.unmatched_receives} unmatched receives "
                "(the compiler must generate matching sends and receives)"
            )
        return stats
