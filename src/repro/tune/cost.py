"""Fast analytic cost model for placement tuning.

Three layers, cheapest first:

* **closed forms** — :func:`phase_compute_cost` and
  :func:`redistribution_cost` turn a candidate layout / redistribution
  plan directly into virtual time from :class:`MachineModel` constants
  (message counts, bytes, occupancy).  These are the edge weights of the
  phased search; they never look at program text.
* :func:`estimate_program` — an *abstract execution* of an IL+XDP
  program: the statement walker mirrors the VM's flop accounting
  (``ELEM_FLOPS``/``ITER_FLOPS``/``CALL_BASE_FLOPS``, flush points and
  all), kernels are charged by their documented flop formulas instead of
  being executed, and the resulting effect streams are timed by a
  miniature replica of the engine's discrete-event rules (min-(clock,
  pid) scheduling, serialized injection, FIFO matching by (kind, name),
  completion at ``max(recv-init, arrival)``, ``o_recv`` at initiation,
  header bytes).  No numpy data moves, no symbol tables, no VM dispatch —
  typically ~an order of magnitude faster than a real run, and exact for
  programs whose control flow is data-independent.
* :func:`estimate_workqueue` — the section-2.7 dynamic pool is a node
  program, not host IL, so it gets a closed-form greedy schedule
  (earliest-free-worker, FIFO message matching) replicating the engine's
  timeline.

The calibration tests (``tests/test_tune.py``) pin the estimates to the
real engine within :data:`CALIBRATION_RTOL` on the Jacobi and workqueue
apps, so this model cannot silently rot as the engine evolves.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..core.analysis.layouts import build_layouts
from ..core.collectives.schedule import (
    _COPY_FLOPS_PER_ELEM, _FENCE_FLOPS, _REDUCE_FLOPS_PER_ELEM,
    Fence, LocalCopy, LocalReduce, RecvChunk, SendChunk,
    build_instance, collective_ops,
)
from ..core.errors import XDPError
from ..core.interp import (
    CALL_BASE_FLOPS, ELEM_FLOPS, INTRINSIC_FLOPS, ITER_FLOPS,
)
from ..core.ir.nodes import (
    Accessible, ArrayDecl, ArrayRef, Assign, Await, BinOp, Block, BoolConst,
    CallStmt, CollOp, CollectiveStmt, DoLoop, Expr, ExprStmt, FloatConst,
    Full, Guarded, IfStmt, Index, IntConst, Iown, MaxIntConst, MinIntConst,
    Mylb, Mypid, Myub, NumProcs, Program, Range, RecvStmt, SendStmt, Stmt,
    UnaryOp, VarRef, XferOp,
)
from ..core.sections import Section, Triplet, section_difference
from ..core.segtable import SegmentTable
from ..distributions import ProcessorGrid, RedistributionPlan
from ..machine.engine import HEADER_BYTES
from ..machine.message import TransferKind
from ..machine.model import MachineModel
from ..machine.transport import default_backend
from ..runtime.symtab import MAXINT, MININT

__all__ = [
    "CALIBRATION_RTOL",
    "EstimateError",
    "ProcCost",
    "ProgramCostEstimate",
    "SharedAddressCosts",
    "TransportCosts",
    "collective_cost",
    "estimate_program",
    "estimate_workqueue",
    "phase_compute_cost",
    "redistribution_cost",
    "transport_costs",
]

#: Stated calibration tolerance: the analytic estimate must stay within
#: this relative error of the real engine makespan on the calibration
#: apps (asserted in tests/test_tune.py).  The abstract walker replicates
#: the engine's timing rules, so the tolerance is tight; widen it only
#: with a recorded justification.
CALIBRATION_RTOL = 0.02


class EstimateError(Exception):
    """The program is outside the analytic model (data-dependent control
    flow, an unknown kernel, a deadlock in the abstract timeline)."""


# ---------------------------------------------------------------------- #
# per-backend cost tables
# ---------------------------------------------------------------------- #


class TransportCosts:
    """Analytic twin of one transport backend's timing hooks.

    Mirrors :mod:`repro.machine.transport` exactly — same wire-byte,
    occupancy, transit and completion arithmetic as the corresponding
    ``Transport`` subclass — so the estimates stay engine-calibrated per
    backend (asserted in tests/test_tune.py).  The base class is the
    message-passing table.
    """

    backend = "msg"

    def wire_bytes(self, payload_bytes: int) -> int:
        return HEADER_BYTES + payload_bytes

    def send_occupancy(self, model: MachineModel, nbytes: int) -> float:
        return model.o_send

    def recv_occupancy(self, model: MachineModel) -> float:
        return model.o_recv

    def transit(self, model: MachineModel, nbytes: int) -> float:
        return model.message_cost(nbytes)

    def completion_lag(
        self, model: MachineModel, nbytes: int, bound: bool
    ) -> float:
        """Extra time between rendezvous and data accessibility."""
        return 0.0


class SharedAddressCosts(TransportCosts):
    """Shared-address prefetch/poststore table (paper section 5).

    No marshalled header (the tag is the address), per-line poststore
    occupancy, memory-system store latency for transit, and a pull
    penalty at the fence when the store was unbound (the lines sit at
    their home node instead of the consumer's cache).
    """

    backend = "shmem"

    def wire_bytes(self, payload_bytes: int) -> int:
        return payload_bytes

    def send_occupancy(self, model: MachineModel, nbytes: int) -> float:
        return model.post_occupancy(nbytes)

    def recv_occupancy(self, model: MachineModel) -> float:
        return model.o_prefetch

    def transit(self, model: MachineModel, nbytes: int) -> float:
        return model.store_cost(nbytes)

    def completion_lag(
        self, model: MachineModel, nbytes: int, bound: bool
    ) -> float:
        return 0.0 if bound else model.pull_cost(nbytes)


_TRANSPORT_COSTS: dict[str, TransportCosts] = {
    "msg": TransportCosts(),
    "shmem": SharedAddressCosts(),
    # proc is the message-passing binding executed on real processes;
    # its virtual-time accounting (the tuner's subject) is msg's.
    "proc": TransportCosts(),
}


def transport_costs(backend: str | None = None) -> TransportCosts:
    """The cost table of ``backend`` (default: the session's backend)."""
    name = backend if backend is not None else default_backend()
    try:
        return _TRANSPORT_COSTS[name]
    except KeyError:
        raise EstimateError(
            f"unknown backend {name!r} "
            f"(choose from {sorted(_TRANSPORT_COSTS)})"
        ) from None


# ---------------------------------------------------------------------- #
# results
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ProcCost:
    """Estimated per-processor accounting (virtual time units)."""

    pid: int
    compute: float
    send_overhead: float
    recv_overhead: float
    idle: float
    finish: float
    msgs_sent: int
    msgs_received: int
    bytes_sent: int
    flops: int


@dataclass(frozen=True)
class ProgramCostEstimate:
    """Aggregate estimate of one program run."""

    makespan: float
    total_messages: int
    total_bytes: int
    total_flops: int
    procs: tuple[ProcCost, ...]

    def summary(self) -> str:
        lines = [
            f"estimated makespan: {self.makespan:.2f}  "
            f"messages: {self.total_messages}  bytes: {self.total_bytes}  "
            f"flops: {self.total_flops}"
        ]
        for p in self.procs:
            lines.append(
                f"  P{p.pid + 1}  compute={p.compute:.2f} send={p.send_overhead:.2f} "
                f"recv={p.recv_overhead:.2f} idle={p.idle:.2f} finish={p.finish:.2f}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# closed forms
# ---------------------------------------------------------------------- #


def _fft_flops(n: int) -> int:
    """The fft1D kernel's documented flop formula (core/kernels.py)."""
    return max(1, int(5 * n * math.log2(n))) if n > 1 else 1


def _gemm_flops(sizes: list[int], args: list[Any]) -> int:
    """The gemm_acc kernel's flop formula (core/kernels.py).

    Factor shapes are recovered from the section sizes the same way the
    kernel recovers them: for ``c(m,n) += a(m,k) @ b(k,n)`` the products
    satisfy ``a.size * c.size / b.size = m**2``.
    """
    a, b, c = sizes
    m = max(1, math.isqrt(max(1, (a * c) // b)))
    k = max(1, a // m)
    n = max(1, c // m)
    return 2 * m * n * k


#: name -> (section sizes, scalar args) -> flops, matching core/kernels.py.
KERNEL_FLOPS: dict[str, Callable[[list[int], list[Any]], int]] = {
    "fft1D": lambda sizes, args: _fft_flops(sizes[0]),
    "gemm_acc": _gemm_flops,
    "work": lambda sizes, args: int(args[0]) if args else 1,
    "negate": lambda sizes, args: sizes[0],
    "scale": lambda sizes, args: sizes[0],
    "smooth": lambda sizes, args: 3 * sizes[0],
}


def phase_compute_cost(
    decl: ArrayDecl,
    cand,
    axis: int,
    nprocs: int,
    model: MachineModel,
    *,
    kernel: str = "fft1D",
) -> float:
    """Critical-path compute time of one pencil phase under a layout.

    A phase applies ``kernel`` to every pencil along ``axis``; the slowest
    processor (most owned pencils under the candidate's distribution)
    bounds the phase.  Loop/call overheads use the interpreter's
    documented constants.
    """
    from .space import candidate_segmentation

    seg = candidate_segmentation(decl, cand, nprocs)
    dist = seg.distribution
    axis_n = decl.shape[axis]
    per_pid = max(dist.local_count(pid) for pid in range(nprocs))
    pencils = per_pid // axis_n
    kfn = KERNEL_FLOPS.get(kernel)
    if kfn is None:
        raise EstimateError(f"no analytic flop formula for kernel {kernel!r}")
    flops = pencils * (ITER_FLOPS + CALL_BASE_FLOPS + kfn([axis_n], []))
    return float(flops) * model.flop_time


def redistribution_cost(
    plan: RedistributionPlan,
    model: MachineModel,
    *,
    itemsize: int = 8,
    realization: str = "bulk",
    outer_axis: int | None = None,
    backend: str | None = None,
    schedule=None,
) -> float:
    """Exposed (non-overlapped) cost of realising a redistribution plan.

    ``realization="bulk"`` sends each move as one vectorized message after
    the producing phase: the critical path is the busiest sender's
    injection occupancy, plus one wire latency, plus the busiest
    receiver's initiation occupancy.

    ``realization="pipelined"`` splits every move along ``outer_axis``
    into per-slice fragments fused into the producing compute loop (the
    paper's stage-2 pipelining): injection occupancy and all but the last
    fragment's latency hide behind the remaining computation, leaving the
    receiver occupancy, one fragment's wire time, and the per-fragment
    synchronisation (an ``await`` intrinsic each) exposed.

    ``realization="planner"`` executes the bounded-round
    :class:`~repro.core.collectives.planner.RedistSchedule` passed as
    ``schedule``: each round is a bulk exchange closed by its ``await``
    epilogue, and rounds serialize — the cost is the sum of per-round
    bulk critical paths plus the busiest receiver's per-round
    synchronisation.  Memory is bounded at the price of latency; the
    tuner treats that trade as a knob.
    """
    tc = transport_costs(backend)
    if realization == "planner":
        if schedule is None:
            raise EstimateError(
                "planner realization needs the bounded RedistSchedule"
            )
        total = 0.0
        for rnd in schedule.rounds:
            moves = [m for m in rnd.moves if m.src != m.dst]
            if not moves:
                continue
            sends_r: Counter[int] = Counter()
            recvs_r: Counter[int] = Counter()
            max_b = 0
            for m in moves:
                sends_r[m.src] += 1
                recvs_r[m.dst] += 1
                max_b = max(max_b, tc.wire_bytes(m.section.size * itemsize))
            busiest_recv = max(recvs_r.values())
            total += (
                tc.send_occupancy(model, max_b) * max(sends_r.values())
                + tc.transit(model, max_b)
                + tc.recv_occupancy(model) * busiest_recv
                + INTRINSIC_FLOPS * busiest_recv * model.flop_time
            )
        return total
    sends: Counter[int] = Counter()
    recvs: Counter[int] = Counter()
    max_bytes = 0
    total_frags = 0
    for m in plan.moves:
        frags = 1
        if realization == "pipelined" and outer_axis is not None:
            frags = m.section.dims[outer_axis].size
        sends[m.src] += frags
        recvs[m.dst] += frags
        total_frags += frags
        max_bytes = max(max_bytes, tc.wire_bytes((m.elements // frags) * itemsize))
    if not plan.moves:
        return 0.0
    send_occ = tc.send_occupancy(model, max_bytes) * max(sends.values())
    recv_occ = tc.recv_occupancy(model) * max(recvs.values())
    wire = tc.transit(model, max_bytes)
    if realization == "bulk":
        return send_occ + wire + recv_occ
    per_recv_frags = max(recvs.values())
    sync = INTRINSIC_FLOPS * per_recv_frags * model.flop_time
    return recv_occ + wire + sync


def collective_cost(
    op: CollOp | str,
    group_size: int,
    chunk_bytes: int,
    model: MachineModel | None = None,
    *,
    backend: str | None = None,
    style: str | None = None,
    itemsize: int = 8,
) -> float:
    """Closed-form critical-path cost of one collective.

    ``chunk_bytes`` is the per-member chunk (what one processor
    contributes/receives per peer), matching the chunk granularity of the
    schedule families in :mod:`repro.core.collectives.schedule`.
    ``style=None`` picks the family the native lowering would use on
    ``backend`` — staged (tree/ring/round) on the message backend, flat
    bulk prefetch/poststore on shared-address — so the tuner's edge
    weights track the code the backend will actually run.

    Per family, with ``n`` the group size and one *step* being send
    occupancy + wire transit + receive initiation + a fence intrinsic:

    * staged broadcast — a binomial tree, ``ceil(log2 n)`` steps;
    * staged allgather / all-to-all — a ring / round schedule, ``n - 1``
      synchronous steps;
    * staged reduce-scatter — the pipelined ring, ``n - 1`` steps each
      also paying the elementwise combine;
    * flat — every payload is injected before any receive is claimed:
      the busiest sender's serialized occupancy, one wire latency, then
      the receiver's claim-and-fence chain (plus combines for
      reduce-scatter).
    """
    model = model if model is not None else MachineModel()
    tc = transport_costs(backend)
    if style is None:
        style = "staged" if tc.backend == "msg" else "flat"
    if style not in ("flat", "staged"):
        raise EstimateError(f"unknown collective style {style!r}")
    op = op if isinstance(op, CollOp) else CollOp(op)
    n = int(group_size)
    if n <= 1:
        return 0.0
    nbytes = tc.wire_bytes(chunk_bytes)
    occ_s = tc.send_occupancy(model, nbytes)
    occ_r = tc.recv_occupancy(model)
    wire = tc.transit(model, nbytes) + tc.completion_lag(model, nbytes, bound=True)
    fence = _FENCE_FLOPS * model.flop_time
    elems = max(1, chunk_bytes // max(1, itemsize))
    combine = _REDUCE_FLOPS_PER_ELEM * elems * model.flop_time
    step = occ_s + wire + occ_r + fence
    if style == "staged":
        if op is CollOp.BROADCAST:
            return math.ceil(math.log2(n)) * step
        if op is CollOp.REDUCE_SCATTER:
            return (n - 1) * (step + combine)
        return (n - 1) * step
    if op is CollOp.BROADCAST:
        return (n - 1) * occ_s + wire + occ_r + fence
    if op is CollOp.REDUCE_SCATTER:
        return (n - 1) * (occ_s + occ_r + fence + combine) + wire
    return (n - 1) * (occ_s + occ_r + fence) + wire


# ---------------------------------------------------------------------- #
# workqueue closed form
# ---------------------------------------------------------------------- #


def estimate_workqueue(
    njobs: int,
    nprocs: int,
    *,
    costs: Sequence[float] | None = None,
    model: MachineModel | None = None,
    scheme: str = "dynamic",
    backend: str | None = None,
) -> ProgramCostEstimate:
    """Analytic timeline of the section-2.7 workqueue node program.

    Replicates the engine's schedule exactly: the master injects one
    value send per job (``o_send`` apart, arrival one ``message_cost``
    later), then one sentinel per worker; messages match posted receives
    FIFO by initiation order, so the k-th posted receive claims the k-th
    message — a greedy earliest-free-worker schedule.
    """
    if nprocs < 2:
        raise EstimateError("workqueue needs a master and at least one worker")
    if scheme not in ("dynamic", "static"):
        raise EstimateError(f"unknown workqueue scheme {scheme!r}")
    model = model if model is not None else MachineModel()
    if costs is None:
        from ..apps.workqueue import make_job_costs

        costs = make_job_costs(njobs)
    tc = transport_costs(backend)
    nbytes = tc.wire_bytes(8)  # one float64 job descriptor
    wire = tc.transit(model, nbytes)
    occ = tc.send_occupancy(model, nbytes)
    # The pool's sends name no recipient, so on shmem every claim pays
    # the unbound-store pull at the fence; the static deal is bound.
    lag = tc.completion_lag(model, nbytes, bound=(scheme == "static"))
    total = njobs + (nprocs - 1 if scheme == "dynamic" else 0)
    arrive = [(k + 1) * occ + wire for k in range(total)]
    master_finish = total * occ

    workers = list(range(1, nprocs))
    clock = {w: 0.0 for w in workers}
    idle = {w: 0.0 for w in workers}
    recv_oh = {w: 0.0 for w in workers}
    got = {w: 0 for w in workers}
    finish = {w: 0.0 for w in workers}

    r_occ = tc.recv_occupancy(model)
    if scheme == "dynamic":
        live = set(workers)
        for k in range(total):
            w = min(live, key=lambda p: (clock[p], p))
            init = clock[w] + r_occ
            recv_oh[w] += r_occ
            done = max(init, arrive[k]) + lag
            idle[w] += done - init
            got[w] += 1
            if k < njobs:
                clock[w] = done + float(costs[k])
            else:
                live.discard(w)
                finish[w] = done
                clock[w] = done
    else:
        nworkers = nprocs - 1
        for w in workers:
            for k in range(w - 1, njobs, nworkers):
                init = clock[w] + r_occ
                recv_oh[w] += r_occ
                done = max(init, arrive[k]) + lag
                idle[w] += done - init
                got[w] += 1
                clock[w] = done + float(costs[k])
            finish[w] = clock[w]

    procs = [
        ProcCost(0, 0.0, master_finish, 0.0, 0.0, master_finish,
                 total, 0, total * nbytes, 0)
    ]
    for w in workers:
        procs.append(
            ProcCost(w, clock[w] - idle[w] - recv_oh[w], 0.0, recv_oh[w],
                     idle[w], finish[w], 0, got[w], 0, 0)
        )
    return ProgramCostEstimate(
        makespan=max(master_finish, max(finish.values(), default=0.0)),
        total_messages=total,
        total_bytes=total * nbytes,
        total_flops=int(sum(float(costs[k]) for k in range(njobs))),
        procs=tuple(procs),
    )


# ---------------------------------------------------------------------- #
# abstract values and ownership tracking
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class _Data:
    """An array-shaped value whose contents the model does not track."""

    size: int


class _Unowned(Exception):
    """Abstract counterpart of OwnershipError (rule-falsifying)."""


class _AbsSeg:
    """One abstract segment descriptor: geometry + delivery bookkeeping.

    ``unmatched`` counts initiated receives not yet matched to a message;
    ``ready`` is the latest matched completion time.  A section is
    accessible at time ``t`` iff every intersecting segment has
    ``unmatched == 0`` and ``ready <= t`` (the engine applies due
    completions at each step boundary).
    """

    __slots__ = ("segment", "unmatched", "ready")

    def __init__(self, segment: Section, unmatched: int = 0, ready: float = 0.0):
        self.segment = segment
        self.unmatched = unmatched
        self.ready = ready


class _AbsVar(SegmentTable):
    """One processor's tracker for one array: the engine's segment table
    (memoized resolution records included) over :class:`_AbsSeg`."""

    def __init__(self, itemsize: int, segs: list[_AbsSeg]):
        super().__init__(segdescs=segs)
        self.itemsize = itemsize

    def iown(self, sec: Section) -> bool:
        return self.resolve(sec)[1]

    def accessible(self, sec: Section, now: float) -> bool:
        pairs, covers, _ = self.resolve(sec)
        return covers and not any(s.unmatched or s.ready > now for s, _ in pairs)

    def wake_time(self, sec: Section) -> float | None:
        """Earliest time ``sec`` becomes accessible, or None if some
        delivery is still unmatched (must block)."""
        wake = 0.0
        for s, _ in self.resolve(sec)[0]:
            if s.unmatched:
                return None
            wake = max(wake, s.ready)
        return wake

    def mylb(self, dim: int, sec: Section) -> int:
        return min((i.dims[dim - 1].lo for _, i in self.resolve(sec)[0]),
                   default=MAXINT)

    def myub(self, dim: int, sec: Section) -> int:
        return max((i.dims[dim - 1].hi for _, i in self.resolve(sec)[0]),
                   default=MININT)

    def release(self, sec: Section) -> None:
        keep: list[_AbsSeg] = []
        for s in self.segdescs:
            inter = s.segment.intersect(sec)
            if inter is None:
                keep.append(s)
                continue
            if s.unmatched:
                raise EstimateError(
                    f"release of section {sec} with an undelivered receive"
                )
            for piece in section_difference(s.segment, inter):
                keep.append(_AbsSeg(piece, 0, s.ready))
        self.segdescs = keep
        self.invalidate_index()

    def acquire(self, sec: Section) -> _AbsSeg:
        if self.resolve(sec)[0]:
            raise EstimateError(
                f"ownership receive into already-owned section {sec}"
            )
        seg = _AbsSeg(sec, unmatched=1, ready=-math.inf)
        self.segdescs.append(seg)
        self.invalidate_index()
        return seg

    def begin_value_recv(self, sec: Section) -> None:
        pairs, covers, _ = self.resolve(sec)
        for s, _ in pairs:
            s.unmatched += 1
        if not covers:
            raise _Unowned(f"receive into unowned section {sec}")

    def complete_value(self, sec: Section, ctime: float) -> None:
        for s, _ in self.resolve(sec)[0]:
            s.unmatched -= 1
            s.ready = max(s.ready, ctime)

    def complete_own(self, sec: Section, ctime: float) -> None:
        s = self.resolve(sec)[2]
        if s is None:
            raise EstimateError(f"ownership completion of {sec} with no initiation")
        s.unmatched = 0
        s.ready = ctime


# ---------------------------------------------------------------------- #
# abstract walker (mirrors codegen/lower.py's accounting)
# ---------------------------------------------------------------------- #


class _AbsEnv:
    __slots__ = ("pid", "pid1", "scalars", "vars", "flops")

    def __init__(self, pid: int, vars: dict[str, _AbsVar]):
        self.pid = pid
        self.pid1 = pid + 1
        self.scalars: dict[str, Any] = {}
        self.vars = vars
        self.flops = 0


def _split_conjunction(e: Expr) -> list[Expr]:
    match e:
        case BinOp("and", lhs, rhs):
            return _split_conjunction(lhs) + _split_conjunction(rhs)
        case _:
            return [e]


_ABSENT = object()


class _AbsWalker:
    """Per-processor abstract execution of an IL+XDP program.

    Yields effect tuples for the mini-machine:
    ``("compute", flops)``, ``("send", kind, var, sec, dests)``,
    ``("recv", kind, var, sec, into_var, into_sec)``, ``("wait", var, sec)``.
    Flop charges replicate the VM's constants and flush points so the
    estimate times the same virtual work the engine would.
    """

    def __init__(self, program: Program, nprocs: int, coll_style: str = "flat"):
        self.program = program
        self.nprocs = nprocs
        self.coll_style = coll_style
        self.decls: dict[str, ArrayDecl] = {
            d.name: d for d in program.array_decls()
        }
        self.universal = {d.name for d in program.array_decls() if d.universal}

    def decl(self, name: str) -> ArrayDecl:
        d = self.decls.get(name)
        if d is None:
            raise EstimateError(f"{name!r} is not a declared array")
        return d

    # -- generator ------------------------------------------------------- #

    def run(self, env: _AbsEnv) -> Iterator[tuple]:
        for d in self.program.scalar_decls():
            env.scalars[d.name] = (
                self._concrete(self._eval(d.init, env), "scalar init")
                if d.init is not None else 0
            )
        yield from self._block(self.program.body, env)
        yield from self._flush(env)

    def _flush(self, env: _AbsEnv) -> Iterator[tuple]:
        if env.flops:
            yield ("compute", env.flops)
            env.flops = 0

    def _block(self, body, env: _AbsEnv) -> Iterator[tuple]:
        for s in body:
            yield from self._stmt(s, env)

    def _stmt(self, s: Stmt, env: _AbsEnv) -> Iterator[tuple]:
        match s:
            case Guarded(rule, body):
                for c in _split_conjunction(rule):
                    if isinstance(c, Await):
                        env.flops += INTRINSIC_FLOPS
                        var, sec = self._name_section(c.ref, env)
                        if not self._tracker(env, var).iown(sec):
                            return
                        yield from self._flush(env)
                        yield ("wait", var, sec)
                    else:
                        yield from self._flush(env)
                        try:
                            ok = self._concrete(self._eval(c, env), "compute rule")
                        except _Unowned:
                            env.flops += INTRINSIC_FLOPS
                            ok = False
                        if not ok:
                            return
                yield from self._block(body, env)
            case Assign():
                self._assign(s, env)
            case SendStmt(ref, op, dest_exprs):
                var, sec = self._name_section(ref, env)
                if var in self.universal:
                    raise EstimateError(f"transfer of universal section {var}")
                dests = None
                if dest_exprs is not None:
                    dests = tuple(
                        int(self._concrete(self._eval(d, env), "send dest")) - 1
                        for d in dest_exprs
                    )
                yield from self._flush(env)
                kind = _XFER_TO_KIND[op]
                if op is not XferOp.SEND_VALUE:
                    yield ("wait", var, sec)
                yield ("send", kind, var, sec, dests)
            case RecvStmt(into, op, source):
                into_var, into_sec = self._name_section(into, env)
                if op is XferOp.RECV_VALUE:
                    assert source is not None
                    msg_var, msg_sec = self._name_section(source, env)
                    yield from self._flush(env)
                    yield ("wait", into_var, into_sec)
                    yield ("recv", TransferKind.VALUE, msg_var, msg_sec,
                           into_var, into_sec)
                else:
                    yield from self._flush(env)
                    yield ("recv", _XFER_TO_KIND[op], into_var, into_sec,
                           into_var, into_sec)
            case DoLoop(var, lo, hi, step, body):
                lo_v = int(self._concrete(self._eval(lo, env), "loop bound"))
                hi_v = int(self._concrete(self._eval(hi, env), "loop bound"))
                st_v = int(self._concrete(self._eval(step, env), "loop step"))
                if st_v == 0:
                    raise EstimateError("do-loop step of 0")
                i = lo_v
                while (i <= hi_v) if st_v > 0 else (i >= hi_v):
                    env.scalars[var] = i
                    env.flops += ITER_FLOPS
                    yield from self._block(body, env)
                    i += st_v
            case IfStmt(cond, then, orelse):
                yield from self._flush(env)
                try:
                    c = self._concrete(self._eval(cond, env), "if condition")
                except _Unowned:
                    env.flops += INTRINSIC_FLOPS
                    c = False
                yield from self._block(then if c else orelse, env)
            case CollectiveStmt():
                yield from self._collective(s, env)
            case CallStmt():
                self._call(s, env)
                yield from self._flush(env)
            case ExprStmt(Await(ref)):
                env.flops += INTRINSIC_FLOPS
                var, sec = self._name_section(ref, env)
                if not self._tracker(env, var).iown(sec):
                    return
                yield from self._flush(env)
                yield ("wait", var, sec)
            case ExprStmt(expr):
                self._eval(expr, env)
            case _:
                raise EstimateError(f"cannot estimate statement {type(s).__name__}")

    def _assign(self, s: Assign, env: _AbsEnv) -> None:
        if isinstance(s.target, VarRef):
            env.scalars[s.target.name] = self._eval(s.expr, env)
            env.flops += ELEM_FLOPS
            return
        _, sec = self._name_section(s.target, env)
        env.flops += ELEM_FLOPS * sec.size
        self._eval(s.expr, env)
        if s.target.var not in self.universal:
            tracker = self._tracker(env, s.target.var)
            if not tracker.iown(sec):
                raise _Unowned(f"write to unowned section {s.target.var}{sec}")

    def _collective(self, s: CollectiveStmt, env: _AbsEnv) -> Iterator[tuple]:
        """Replay the collective's per-processor chunk-op schedule.

        Uses the same schedule family the native lowering picks for this
        cost table's backend (``coll_style``), translating each chunk op
        into abstract effects exactly as
        :func:`repro.core.collectives.schedule.execute_ops` translates
        them into engine effects — same flop constants, same flush
        points — so collective estimates stay engine-calibrated per
        backend.
        """
        refs = (s.src, s.dst) + ((s.scratch,) if s.scratch is not None else ())
        for ref in refs:
            if ref.var in self.universal:
                raise EstimateError(
                    f"collective operand {ref.var!r} is universal"
                )

        def eval_expr(e: Expr) -> Any:
            return self._concrete(self._eval(e, env), "collective group/root")

        def resolve(ref: ArrayRef, bindings: dict[str, int]):
            saved = {k: env.scalars.get(k, _ABSENT) for k in bindings}
            env.scalars.update(bindings)
            try:
                return self._name_section(ref, env)
            finally:
                for k, v in saved.items():
                    if v is _ABSENT:
                        env.scalars.pop(k, None)
                    else:
                        env.scalars[k] = v

        try:
            inst = build_instance(s, self.nprocs, eval_expr, resolve)
            if env.pid1 not in inst.members:
                return
            ops = collective_ops(inst, env.pid1, self.coll_style)
        except XDPError as exc:
            raise EstimateError(str(exc)) from exc
        while True:
            # Iterate lazily: the schedule generators resolve sections (and
            # charge their evaluation flops) as each op is produced, and the
            # VM's flush points only see the flops accrued so far.
            try:
                op = next(ops)
            except StopIteration:
                return
            except XDPError as exc:
                raise EstimateError(str(exc)) from exc
            tp = type(op)
            if tp is LocalCopy:
                env.flops += _COPY_FLOPS_PER_ELEM * op.src_sec.size
            elif tp is LocalReduce:
                env.flops += _REDUCE_FLOPS_PER_ELEM * op.acc_sec.size
            elif tp is SendChunk:
                yield from self._flush(env)
                yield ("send", TransferKind.VALUE, op.var, op.sec, op.dests)
            elif tp is RecvChunk:
                yield from self._flush(env)
                yield ("wait", op.into_var, op.into_sec)
                yield ("recv", TransferKind.VALUE, op.msg_var, op.msg_sec,
                       op.into_var, op.into_sec)
            else:  # Fence
                env.flops += _FENCE_FLOPS
                yield from self._flush(env)
                yield ("wait", op.var, op.sec)

    def _call(self, s: CallStmt, env: _AbsEnv) -> None:
        kfn = KERNEL_FLOPS.get(s.name)
        if kfn is None:
            raise EstimateError(f"no analytic flop formula for kernel {s.name!r}")
        sizes: list[int] = []
        scalars: list[Any] = []
        for a in s.args:
            if isinstance(a, ArrayRef) and not a.is_element():
                var, sec = self._name_section(a, env)
                if var not in self.universal:
                    if not self._tracker(env, var).iown(sec):
                        raise _Unowned(f"call reads unowned {var}{sec}")
                sizes.append(sec.size)
            else:
                v = self._eval(a, env)
                scalars.append(
                    self._concrete(v, f"argument of kernel {s.name!r}")
                )
        env.flops += CALL_BASE_FLOPS + int(kfn(sizes, scalars))

    # -- expressions ----------------------------------------------------- #

    @staticmethod
    def _concrete(v: Any, what: str) -> Any:
        if isinstance(v, _Data):
            raise EstimateError(f"data-dependent {what} is outside the model")
        return v

    def _tracker(self, env: _AbsEnv, var: str) -> _AbsVar:
        t = env.vars.get(var)
        if t is None:
            raise EstimateError(f"{var!r} has no layout (universal?)")
        return t

    def _eval(self, e: Expr, env: _AbsEnv) -> Any:
        match e:
            case IntConst(v) | FloatConst(v) | BoolConst(v):
                return v
            case MaxIntConst():
                return MAXINT
            case MinIntConst():
                return MININT
            case Mypid():
                return env.pid1
            case NumProcs():
                return self.nprocs
            case VarRef(name):
                if name in env.scalars:
                    return env.scalars[name]
                raise EstimateError(f"undefined scalar {name!r}")
            case UnaryOp(op, operand):
                v = self._eval(operand, env)
                env.flops += 1
                if isinstance(v, _Data):
                    return v
                return (not v) if op == "not" else (-v)
            case BinOp(op, lhs, rhs):
                return self._binop(op, lhs, rhs, env)
            case ArrayRef():
                return self._array_read(e, env)
            case Iown(ref):
                var, sec = self._name_section(ref, env)
                env.flops += INTRINSIC_FLOPS
                return self._tracker(env, var).iown(sec)
            case Accessible(ref):
                var, sec = self._name_section(ref, env)
                env.flops += INTRINSIC_FLOPS
                raise EstimateError(
                    "accessible() makes control flow depend on message "
                    "timing; outside the analytic model"
                )
            case Mylb(ref, dim):
                var, sec = self._name_section(ref, env)
                d = int(self._concrete(self._eval(dim, env), "mylb dim"))
                env.flops += INTRINSIC_FLOPS
                return self._tracker(env, var).mylb(d, sec)
            case Myub(ref, dim):
                var, sec = self._name_section(ref, env)
                d = int(self._concrete(self._eval(dim, env), "myub dim"))
                env.flops += INTRINSIC_FLOPS
                return self._tracker(env, var).myub(d, sec)
            case Await(_):
                raise EstimateError(
                    "await() outside rule/statement position is not lowerable"
                )
            case _:
                raise EstimateError(f"cannot estimate expression {e!r}")

    def _binop(self, op: str, lhs: Expr, rhs: Expr, env: _AbsEnv) -> Any:
        # The VM's compiled and/or charge no flops and short-circuit.
        if op == "and":
            l = self._concrete(self._eval(lhs, env), "boolean operand")
            if not l:
                return False
            return bool(self._concrete(self._eval(rhs, env), "boolean operand"))
        if op == "or":
            l = self._concrete(self._eval(lhs, env), "boolean operand")
            if l:
                return True
            return bool(self._concrete(self._eval(rhs, env), "boolean operand"))
        l = self._eval(lhs, env)
        r = self._eval(rhs, env)
        size = max(
            v.size if isinstance(v, _Data) else 1 for v in (l, r)
        )
        env.flops += size
        if isinstance(l, _Data) or isinstance(r, _Data):
            return _Data(size)
        match op:
            case "+": return l + r
            case "-": return l - r
            case "*": return l * r
            case "%": return l % r
            case "/":
                if isinstance(l, int) and isinstance(r, int):
                    return l // r if r != 0 else 0
                return l / r
            case "==": return l == r
            case "!=": return l != r
            case "<": return l < r
            case "<=": return l <= r
            case ">": return l > r
            case ">=": return l >= r
            case "min": return min(l, r)
            case "max": return max(l, r)
            case _:
                raise EstimateError(f"unknown operator {op!r}")

    def _array_read(self, ref: ArrayRef, env: _AbsEnv) -> Any:
        var, sec = self._name_section(ref, env)
        env.flops += ELEM_FLOPS * sec.size
        if var not in self.universal:
            if not self._tracker(env, var).iown(sec):
                raise _Unowned(f"read of unowned section {var}{sec}")
        return _Data(sec.size)

    def _name_section(self, ref: ArrayRef, env: _AbsEnv) -> tuple[str, Section]:
        decl = self.decl(ref.var)
        if len(ref.subs) != decl.rank:
            raise EstimateError(f"rank mismatch on {ref.var}")
        dims: list[Triplet] = []
        for sub, (lo_b, hi_b) in zip(ref.subs, decl.bounds):
            match sub:
                case Full():
                    dims.append(Triplet(lo_b, hi_b, 1))
                case Index(expr):
                    v = int(self._concrete(self._eval(expr, env), "subscript"))
                    dims.append(Triplet(v, v, 1))
                case Range(lo, hi, step):
                    lo_v = lo_b if lo is None else int(
                        self._concrete(self._eval(lo, env), "subscript"))
                    hi_v = hi_b if hi is None else int(
                        self._concrete(self._eval(hi, env), "subscript"))
                    st_v = 1 if step is None else int(
                        self._concrete(self._eval(step, env), "subscript"))
                    dims.append(Triplet(lo_v, hi_v, st_v))
        return ref.var, Section(tuple(dims))


_XFER_TO_KIND = {
    XferOp.SEND_VALUE: TransferKind.VALUE,
    XferOp.SEND_OWNER: TransferKind.OWNERSHIP,
    XferOp.SEND_OWNER_VALUE: TransferKind.OWN_VALUE,
    XferOp.RECV_VALUE: TransferKind.VALUE,
    XferOp.RECV_OWNER: TransferKind.OWNERSHIP,
    XferOp.RECV_OWNER_VALUE: TransferKind.OWN_VALUE,
}


# ---------------------------------------------------------------------- #
# mini discrete-event machine
# ---------------------------------------------------------------------- #


@dataclass
class _AbsMsg:
    seq: int
    dst: int | None
    arrive: float
    nbytes: int


@dataclass
class _AbsRecv:
    seq: int
    pid: int
    init_time: float
    kind: TransferKind
    into_var: str
    into_sec: Section
    claimed: bool = False


class _Pool:
    """Unclaimed messages for one tag (the engine's MessagePool rule)."""

    __slots__ = ("by_dst", "anydst")

    def __init__(self) -> None:
        self.by_dst: dict[int, deque[_AbsMsg]] = {}
        self.anydst: deque[_AbsMsg] = deque()

    def __bool__(self) -> bool:
        return bool(self.anydst) or any(self.by_dst.values())

    def add(self, m: _AbsMsg) -> None:
        if m.dst is None:
            self.anydst.append(m)
        else:
            self.by_dst.setdefault(m.dst, deque()).append(m)

    def claim_for(self, pid: int) -> _AbsMsg | None:
        directed = self.by_dst.get(pid)
        if directed:
            if not self.anydst or directed[0].seq < self.anydst[0].seq:
                return directed.popleft()
        if self.anydst:
            return self.anydst.popleft()
        return None


class _RecvQueue:
    """Pending receives for one tag, claimable globally or per-pid FIFO."""

    __slots__ = ("fifo", "by_pid")

    def __init__(self) -> None:
        self.fifo: deque[_AbsRecv] = deque()
        self.by_pid: dict[int, deque[_AbsRecv]] = {}

    def add(self, r: _AbsRecv) -> None:
        self.fifo.append(r)
        self.by_pid.setdefault(r.pid, deque()).append(r)

    @staticmethod
    def _pop(q: deque[_AbsRecv] | None) -> _AbsRecv | None:
        while q:
            r = q.popleft()
            if not r.claimed:
                r.claimed = True
                return r
        return None

    def claim(self, dst: int | None) -> _AbsRecv | None:
        return self._pop(self.fifo if dst is None else self.by_pid.get(dst))


class _MiniProc:
    __slots__ = (
        "pid", "gen", "clock", "blocked_on", "block_t0", "done", "send_value",
        "compute", "send_oh", "recv_oh", "idle", "max_ctime",
        "msgs_sent", "msgs_recv", "bytes_sent", "flops", "finish",
    )

    def __init__(self, pid: int, gen: Iterator[tuple]):
        self.pid = pid
        self.gen = gen
        self.clock = 0.0
        self.blocked_on: tuple[str, Section] | None = None
        self.block_t0 = 0.0
        self.done = False
        self.send_value: Any = None
        self.compute = 0.0
        self.send_oh = 0.0
        self.recv_oh = 0.0
        self.idle = 0.0
        self.max_ctime = 0.0
        self.msgs_sent = 0
        self.msgs_recv = 0
        self.bytes_sent = 0
        self.flops = 0
        self.finish = 0.0

    @property
    def runnable(self) -> bool:
        return not self.done and self.blocked_on is None


def estimate_program(
    program: Program | str,
    nprocs: int,
    *,
    model: MachineModel | None = None,
    backend: str | None = None,
) -> ProgramCostEstimate:
    """Estimate a program's run without executing it.

    Abstractly walks the IL on every processor (data-independent control
    flow required) and times the effect streams with the engine's
    discrete-event rules, priced by ``backend``'s cost table.  Raises
    :class:`EstimateError` for programs outside the model.
    """
    if isinstance(program, str):
        from ..core.ir.parser import parse_program

        program = parse_program(program)
    model = model if model is not None else MachineModel()
    tc = transport_costs(backend)
    grid = ProcessorGrid((nprocs,))
    segmentations = build_layouts(program, grid)
    itemsizes = {
        d.name: np.dtype(d.dtype).itemsize
        for d in program.array_decls() if not d.universal
    }
    walker = _AbsWalker(
        program, nprocs,
        coll_style="staged" if tc.backend == "msg" else "flat",
    )

    procs: list[_MiniProc] = []
    trackers: list[dict[str, _AbsVar]] = []
    for pid in range(nprocs):
        vars = {
            name: _AbsVar(
                itemsizes[name],
                [_AbsSeg(sec) for sec in seg.segments(pid)],
            )
            for name, seg in segmentations.items()
        }
        trackers.append(vars)
        env = _AbsEnv(pid, vars)
        proc = _MiniProc(pid, walker.run(env))
        procs.append(proc)

    seq = iter(range(1 << 62))
    pools: dict[tuple, _Pool] = {}
    pending: dict[tuple, _RecvQueue] = {}
    total_msgs = 0
    total_bytes = 0
    runq: list[tuple[float, int]] = [(0.0, p.pid) for p in procs]

    def match(key: tuple, msg: _AbsMsg, recv: _AbsRecv) -> None:
        nonlocal_ = None  # noqa: F841 (clarity: closure mutates procs only)
        ctime = max(recv.init_time, msg.arrive) + tc.completion_lag(
            model, msg.nbytes, bound=msg.dst is not None
        )
        receiver = procs[recv.pid]
        tracker = trackers[recv.pid][recv.into_var]
        if recv.kind is TransferKind.VALUE:
            tracker.complete_value(recv.into_sec, ctime)
        else:
            tracker.complete_own(recv.into_sec, ctime)
        receiver.msgs_recv += 1
        receiver.max_ctime = max(receiver.max_ctime, ctime)
        if receiver.blocked_on is not None:
            var, sec = receiver.blocked_on
            wake = trackers[recv.pid][var].wake_time(sec)
            if wake is not None:
                new_clock = max(receiver.clock, wake)
                receiver.idle += new_clock - receiver.block_t0
                receiver.clock = new_clock
                receiver.blocked_on = None
                receiver.send_value = True
                heappush(runq, (receiver.clock, receiver.pid))

    def route(key: tuple, msg: _AbsMsg) -> None:
        q = pending.get(key)
        if q is not None:
            recv = q.claim(msg.dst)
            if recv is not None:
                match(key, msg, recv)
                return
        pools.setdefault(key, _Pool()).add(msg)

    def step(proc: _MiniProc) -> None:
        try:
            eff = proc.gen.send(proc.send_value) if proc.send_value is not None \
                else next(proc.gen)
        except StopIteration:
            proc.done = True
            proc.finish = max(proc.clock, proc.max_ctime)
            return
        except _Unowned as exc:
            raise EstimateError(str(exc)) from exc
        proc.send_value = None
        tag = eff[0]
        if tag == "compute":
            flops = eff[1]
            proc.clock += float(flops)
            proc.compute += float(flops)
            proc.flops += flops
        elif tag == "send":
            _, kind, var, sec, dests = eff
            tracker = trackers[proc.pid][var]
            if kind is TransferKind.VALUE:
                if not tracker.iown(sec):
                    raise EstimateError(
                        f"P{proc.pid + 1} sends unowned section {var}{sec}"
                    )
            else:
                tracker.release(sec)
            payload = 0 if kind is TransferKind.OWNERSHIP \
                else sec.size * tracker.itemsize
            nbytes = tc.wire_bytes(payload)
            s_occ = tc.send_occupancy(model, nbytes)
            for dst in dests if dests is not None else (None,):
                proc.clock += s_occ
                proc.send_oh += s_occ
                proc.msgs_sent += 1
                proc.bytes_sent += nbytes
                msg = _AbsMsg(next(seq), dst,
                              proc.clock + tc.transit(model, nbytes), nbytes)
                route((kind, var, sec), msg)
        elif tag == "recv":
            _, kind, var, sec, into_var, into_sec = eff
            r_occ = tc.recv_occupancy(model)
            proc.clock += r_occ
            proc.recv_oh += r_occ
            tracker = trackers[proc.pid][into_var]
            try:
                if kind is TransferKind.VALUE:
                    tracker.begin_value_recv(into_sec)
                else:
                    tracker.acquire(into_sec)
            except _Unowned as exc:
                raise EstimateError(str(exc)) from exc
            recv = _AbsRecv(next(seq), proc.pid, proc.clock, kind,
                            into_var, into_sec)
            key = (kind, var, sec)
            pool = pools.get(key)
            if pool:
                msg = pool.claim_for(proc.pid)
                if msg is not None:
                    recv.claimed = True
                    match(key, msg, recv)
                    return
            pending.setdefault(key, _RecvQueue()).add(recv)
        elif tag == "wait":
            _, var, sec = eff
            wake = trackers[proc.pid][var].wake_time(sec)
            if wake is None:
                proc.blocked_on = (var, sec)
                proc.block_t0 = proc.clock
                return
            if wake > proc.clock:
                proc.idle += wake - proc.clock
                proc.clock = wake
            proc.send_value = True
        else:  # pragma: no cover - defensive
            raise EstimateError(f"unknown abstract effect {tag!r}")

    while True:
        proc = None
        while runq:
            clock, pid = heappop(runq)
            cand = procs[pid]
            if cand.runnable and cand.clock == clock:
                proc = cand
                break
        if proc is None:
            if all(p.done for p in procs):
                break
            raise EstimateError(
                "abstract deadlock: every live processor is blocked — the "
                "program (or the model's view of it) has a matching bug"
            )
        step(proc)
        if proc.runnable:
            heappush(runq, (proc.clock, proc.pid))

    for p in procs:
        total_msgs += p.msgs_sent
        total_bytes += p.bytes_sent
    return ProgramCostEstimate(
        makespan=max((p.finish for p in procs), default=0.0),
        total_messages=total_msgs,
        total_bytes=total_bytes,
        total_flops=sum(p.flops for p in procs),
        procs=tuple(
            ProcCost(p.pid, p.compute, p.send_oh, p.recv_oh, p.idle,
                     p.finish, p.msgs_sent, p.msgs_recv, p.bytes_sent, p.flops)
            for p in procs
        ),
    )
