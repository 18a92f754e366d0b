"""The ``Transport`` protocol and the shared tag-rendezvous machinery.

A transport is the engine's binding of XDP transfer effects to concrete
communication primitives (paper section 5).  The scheduler core calls
``send`` / ``recv_init`` / ``on_crash`` / ``reset`` and asks for
diagnostics; the transport calls back
:meth:`~repro.machine.scheduler.Scheduler.complete` once a transfer's
completion time is bound.  Injection of each transmitted copy goes
through ``self.injector.inject(msg, nbytes)`` so middleware (fault
injection, reliable delivery) can interpose on any backend.

:class:`TagTransport` implements the rendezvous relation both shipped
backends share — FIFO-by-seq matching per ``(kind, name)`` tag, with
directed traffic split per destination and undirected traffic claimable
by anyone — and leaves the *binding* to subclasses: wire size, occupancy
and transit costs, completion-time rule, and trace vocabulary.  Keeping
the relation identical across backends is what guarantees result
transparency (same final arrays, different timings); see docs/BACKENDS.md.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ...core.sections import Section
from ..effects import RecvInit, Send
from ..message import Message, MessageName, MessagePool, TransferKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scheduler import Scheduler, _Proc

__all__ = ["PendingRecv", "RecvIndex", "TagTransport", "Transport"]


@dataclass(slots=True)
class PendingRecv:
    """One posted receive (msg backend) or prefetch fence (shmem backend)."""

    seq: int
    pid: int
    init_time: float
    kind: TransferKind
    name: MessageName
    into_var: str
    into_sec: Section
    claimed: bool = field(default=False, compare=False)


class RecvIndex:
    """Pending receives for one ``(kind, name)`` tag, claimable two ways.

    An arriving *unspecified-destination* message must match the earliest
    pending receive overall; a *directed* message must match the earliest
    pending receive posted by its destination.  Each receive therefore
    appears in two FIFO queues — the global one and its processor's — and
    a claim through either marks it ``claimed`` so the other queue skips
    the husk lazily.  Both claim paths are amortized O(1).
    """

    __slots__ = ("fifo", "by_pid", "live")

    def __init__(self) -> None:
        self.fifo: deque[PendingRecv] = deque()
        self.by_pid: dict[int, deque[PendingRecv]] = {}
        self.live = 0

    def __len__(self) -> int:
        return self.live

    def __iter__(self) -> Iterator[PendingRecv]:
        """Unclaimed pending receives in seq order (diagnostics only)."""
        return (r for r in self.fifo if not r.claimed)

    def add(self, recv: PendingRecv) -> None:
        self.fifo.append(recv)
        self.by_pid.setdefault(recv.pid, deque()).append(recv)
        self.live += 1

    @staticmethod
    def _pop_live(queue: deque[PendingRecv] | None) -> PendingRecv | None:
        while queue:
            recv = queue.popleft()
            if not recv.claimed:
                recv.claimed = True
                return recv
        return None

    def claim_any(self) -> PendingRecv | None:
        """Pop the earliest unclaimed receive regardless of processor."""
        recv = self._pop_live(self.fifo)
        if recv is not None:
            self.live -= 1
        return recv

    def claim_for(self, pid: int) -> PendingRecv | None:
        """Pop the earliest unclaimed receive posted by ``pid``."""
        recv = self._pop_live(self.by_pid.get(pid))
        if recv is not None:
            self.live -= 1
        return recv


class Transport:
    """Interface between the scheduler core and a communication backend.

    Subclasses (or middleware) must provide the traffic operations; the
    class attributes name the backend's primitives in traces and
    diagnostics.  ``injector`` is the entry point of the middleware chain
    for each transmitted copy — it is ``self`` for a bare transport and
    the outermost middleware once wrapped.
    """

    #: Backend name as used by ``--backend`` and ``RunStats`` consumers.
    name = "?"
    #: Trace-event vocabulary (msg: send/recv-init/recv-done).
    send_event = "send"
    recv_event = "recv-init"
    completion_event = "recv-done"
    #: Deadlock-report vocabulary.
    pending_label = "pending receive"
    pool_header = "unclaimed message pool:"

    def __init__(self) -> None:
        self.core: "Scheduler | None" = None
        self.injector: "Transport" = self

    def bind(self, core: "Scheduler") -> None:
        """Attach to the scheduler core (seq numbers, rng, model, emit)."""
        self.core = core

    # -- per-run lifecycle --------------------------------------------- #

    def reset(self) -> None:
        """Drop all transport-private per-run state (pools, fences)."""
        raise NotImplementedError

    # -- traffic -------------------------------------------------------- #

    def send(self, proc: "_Proc", eff: Send) -> None:
        raise NotImplementedError

    def recv_init(self, proc: "_Proc", eff: RecvInit) -> None:
        raise NotImplementedError

    def inject(self, msg: Message, nbytes: int) -> None:
        """Put one transmitted copy on the network (middleware seam)."""
        self.route(msg)

    def route(self, msg: Message) -> None:
        """Deliver one arrived copy: match a pending receive or queue it."""
        raise NotImplementedError

    def transit(self, nbytes: int) -> float:
        """Departure-to-arrival delay of one copy (used by middleware)."""
        raise NotImplementedError

    def on_crash(self, proc: "_Proc") -> None:
        """Withdraw the crashed processor's pending obligations."""
        raise NotImplementedError

    # -- diagnostics ---------------------------------------------------- #

    def unclaimed_count(self) -> int:
        raise NotImplementedError

    def unmatched_count(self) -> int:
        raise NotImplementedError

    def pending_by_pid(self) -> dict[int, list[tuple[float, str]]]:
        raise NotImplementedError

    def unclaimed_listing(self) -> Iterator[str]:
        raise NotImplementedError


class TagTransport(Transport):
    """Shared rendezvous machinery: FIFO-by-seq matching per tag.

    Subclasses bind the costs and vocabulary:

    * :meth:`wire_bytes` — bytes one copy occupies on the wire;
    * :meth:`send_occupancy` / :meth:`recv_occupancy` — processor
      overhead charged at initiation;
    * :meth:`transit` — departure-to-arrival delay;
    * :meth:`completion_time` — when the matched pair completes.
    """

    #: Tag key: ``(kind, var, sec)``.  Keying the rendezvous dicts on the
    #: raw triple (rather than a ``MessageName`` wrapper) keeps every
    #: lookup a plain tuple hash; the interned ``MessageName`` objects in
    #: ``_names`` are what messages and receives carry for diagnostics.
    def reset(self) -> None:
        self._unclaimed: dict[tuple, MessagePool] = {}
        self._pending: dict[tuple, RecvIndex] = {}
        self._names: dict[tuple, MessageName] = {}
        # ``(wire_bytes, send_occupancy, transit)`` per payload byte size:
        # both backends' cost hooks are pure in the byte count and the
        # model constants snapshotted at reset.
        self._costmemo: dict[int, tuple] = {}

    # -- binding hooks -------------------------------------------------- #

    def wire_bytes(self, payload: np.ndarray | None) -> int:
        raise NotImplementedError

    def send_occupancy(self, nbytes: int) -> float:
        raise NotImplementedError

    def recv_occupancy(self) -> float:
        raise NotImplementedError

    def completion_time(self, msg: Message, recv: PendingRecv) -> float:
        return max(recv.init_time, msg.arrive_time)

    # -- traffic -------------------------------------------------------- #

    def send(self, proc: "_Proc", eff: Send) -> None:
        core = self.core
        st = proc.ctx.symtab
        nk = (eff.kind, eff.var, eff.sec)
        name = self._names.get(nk)
        if name is None:
            name = self._names[nk] = MessageName(eff.var, eff.sec)
        if eff.kind is TransferKind.VALUE:
            # "E ->": E must be an exclusive section owned by p.  No
            # accessibility check — XDP does not test state automatically.
            # One resolution record answers the ownership check and the
            # gather.
            payload: np.ndarray | None = st.read_owned(eff.var, eff.sec)
        else:
            # Owner sends block until accessible; the program yields a
            # WaitAccessible first, and release_ownership re-validates.
            payload = st.release_ownership(
                eff.var, eff.sec, with_value=eff.kind is TransferKind.OWN_VALUE
            )

        # Multicast is *serialized injection*: the sender's clock (and its
        # send overhead) accumulates the per-copy occupancy BEFORE each
        # copy is stamped, so the i-th destination's send_time and
        # arrive_time are one occupancy later than the (i-1)-th — one
        # network interface (or store buffer) injecting the copies
        # back-to-back.  Pinned by
        # tests/test_engine.py::TestValueTransfer::test_multicast_serialized_injection;
        # do not "optimize" this into a single timestamp.
        dests = eff.dests if eff.dests is not None else (None,)
        # ``payload`` is already a private gather (read/release copy); the
        # first transmitted copy takes it as-is and only the extra
        # multicast copies pay another ``.copy()``.  Wire size, occupancy
        # and transit depend only on the payload, so they are computed
        # once — the *timestamps* still advance copy by copy.
        fresh = payload
        stats = proc.stats
        trace = core.trace_enabled
        seq = core._seq
        inject = self.injector.inject
        pbytes = 0 if payload is None else payload.nbytes
        costs = self._costmemo.get(pbytes)
        if costs is None:
            nbytes = self.wire_bytes(payload)
            costs = self._costmemo[pbytes] = (
                nbytes, self.send_occupancy(nbytes), self.transit(nbytes),
            )
        nbytes, occupancy, transit = costs
        kind = eff.kind
        pid = proc.pid
        for dst in dests:
            clock = proc.clock + occupancy
            proc.clock = clock
            stats.send_overhead += occupancy
            if fresh is not None:
                pl, fresh = fresh, None
            else:
                pl = None if payload is None else payload.copy()
            msg = Message(
                next(seq), kind, name, pl, pid, dst, clock, clock + transit,
            )
            stats.msgs_sent += 1
            stats.bytes_sent += nbytes
            if trace:
                core._emit(clock, pid, self.send_event, str(msg))
            inject(msg, nbytes)

    def recv_init(self, proc: "_Proc", eff: RecvInit) -> None:
        core = self.core
        st = proc.ctx.symtab
        # Constant per the immutable model; snapshotted by subclass reset.
        occupancy = self._recv_occ
        proc.clock += occupancy
        proc.stats.recv_overhead += occupancy
        into_var, into_sec = eff.destination()
        nk = (eff.kind, eff.var, eff.sec)
        name = self._names.get(nk)
        if name is None:
            name = self._names[nk] = MessageName(eff.var, eff.sec)
        if eff.kind is TransferKind.VALUE:
            st.begin_value_receive(into_var, into_sec)
        else:
            st.acquire_ownership(into_var, into_sec, transitional=True)
        recv = PendingRecv(
            next(core._seq), proc.pid, proc.clock, eff.kind, name,
            into_var, into_sec,
        )
        if core.trace_enabled:
            core._emit(
                proc.clock, proc.pid, self.recv_event,
                f"{eff.kind.value} {name}",
            )
        pool = self._unclaimed.get(nk)
        if pool is not None:
            msg = pool.claim_for(proc.pid)
            if msg is not None:
                if not pool.live:
                    del self._unclaimed[nk]
                self._match(msg, recv)
                return
        # Single-use tags (the common case for fine-grained transfers)
        # never pay for a RecvIndex: the first pending receive is stored
        # bare and only a second same-tag receive promotes to an index.
        pending = self._pending
        cur = pending.get(nk)
        if cur is None:
            pending[nk] = recv
        elif cur.__class__ is RecvIndex:
            cur.add(recv)
        else:
            index = pending[nk] = RecvIndex()
            index.add(cur)
            index.add(recv)

    def route(self, msg: Message) -> None:
        name = msg.name
        key = (msg.kind, name.var, name.sec)
        index = self._pending.get(key)
        if index is not None:
            if index.__class__ is RecvIndex:
                recv = (
                    index.claim_any() if msg.dst is None
                    else index.claim_for(msg.dst)
                )
                if recv is not None:
                    if not index.live:
                        del self._pending[key]
                    self._match(msg, recv)
                    return
            elif msg.dst is None or msg.dst == index.pid:
                del self._pending[key]
                self._match(msg, index)
                return
        pool = self._unclaimed.get(key)
        if pool is None:
            pool = self._unclaimed[key] = MessagePool()
        pool.add(msg)

    def _match(self, msg: Message, recv: PendingRecv) -> None:
        self.core.complete(msg, recv, self.completion_time(msg, recv))

    def on_crash(self, proc: "_Proc") -> None:
        for key in list(self._pending):
            index = self._pending[key]
            if index.__class__ is not RecvIndex:
                if index.pid == proc.pid:
                    del self._pending[key]
                continue
            while index.claim_for(proc.pid) is not None:
                pass
            if not index.live:
                del self._pending[key]

    # -- diagnostics ---------------------------------------------------- #

    def unclaimed_count(self) -> int:
        return sum(len(q) for q in self._unclaimed.values())

    def unmatched_count(self) -> int:
        return sum(
            len(q) if q.__class__ is RecvIndex else 1
            for q in self._pending.values()
        )

    def pending_by_pid(self) -> dict[int, list[tuple[float, str]]]:
        out: dict[int, list[tuple[float, str]]] = {}
        for (kind, _var, _sec), index in self._pending.items():
            rs = index if index.__class__ is RecvIndex else (index,)
            for r in rs:
                out.setdefault(r.pid, []).append((
                    r.init_time,
                    f"{kind.value} {r.name} (into {r.into_var}{r.into_sec}, "
                    f"posted t={r.init_time:.2f})",
                ))
        return out

    def unclaimed_listing(self) -> Iterator[str]:
        for _, pool in sorted(
            self._unclaimed.items(),
            key=lambda kv: (kv[0][0].value, f"{kv[0][1]}{kv[0][2]}"),
        ):
            for m in pool:
                yield str(m)
