"""Closed-form static scores for placement tuning.

What the prefilter ranks with, and nothing else:
:func:`phase_compute_cost` turns a candidate layout into the compute
time of one pencil phase, :func:`redistribution_cost` a redistribution
plan into its exposed communication time under a realization.  Both are
arithmetic on :class:`MachineModel` constants through the per-backend
:class:`TransportCosts` table (message counts, bytes, occupancy); they
never look at program text and execute nothing.  They are estimates, not
a replay of the engine: ``tests/test_tune.py::TestStaticScore`` bounds
``|score - makespan| / makespan`` on every engine-evaluated shortlist
row (see docs/TUNING.md "How good is the static score").
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable

from ..core.codegen.lower import CALL_BASE_FLOPS, INTRINSIC_FLOPS, ITER_FLOPS
from ..core.ir.nodes import ArrayDecl
from ..distributions import RedistributionPlan
from ..machine.engine import HEADER_BYTES
from ..machine.model import MachineModel
from ..machine.transport import default_backend

__all__ = [
    "EstimateError",
    "SharedAddressCosts",
    "TransportCosts",
    "phase_compute_cost",
    "redistribution_cost",
    "transport_costs",
]


class EstimateError(Exception):
    """The request is outside the closed forms (an unknown kernel or
    backend, a planner edge without its schedule)."""


# ---------------------------------------------------------------------- #
# per-backend cost tables
# ---------------------------------------------------------------------- #


class TransportCosts:
    """One transport backend's timing constants, as the closed forms
    need them.

    Same wire-byte, occupancy and transit arithmetic as the corresponding
    ``Transport`` subclass in :mod:`repro.machine.transport`.  The base
    class is the message-passing table.
    """

    def wire_bytes(self, payload_bytes: int) -> int:
        return HEADER_BYTES + payload_bytes

    def send_occupancy(self, model: MachineModel, nbytes: int) -> float:
        return model.o_send

    def recv_occupancy(self, model: MachineModel) -> float:
        return model.o_recv

    def transit(self, model: MachineModel, nbytes: int) -> float:
        return model.message_cost(nbytes)


class SharedAddressCosts(TransportCosts):
    """Shared-address prefetch/poststore table (paper section 5).

    No marshalled header (the tag is the address), per-line poststore
    occupancy and memory-system store latency for transit.  The tuner's
    transfers are all destination-bound, so the unbound-store pull
    penalty never enters a score.
    """

    def wire_bytes(self, payload_bytes: int) -> int:
        return payload_bytes

    def send_occupancy(self, model: MachineModel, nbytes: int) -> float:
        return model.post_occupancy(nbytes)

    def recv_occupancy(self, model: MachineModel) -> float:
        return model.o_prefetch

    def transit(self, model: MachineModel, nbytes: int) -> float:
        return model.store_cost(nbytes)


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
# closed forms
# ---------------------------------------------------------------------- #


def _fft_flops(n: int) -> int:
    """The fft1D kernel's documented flop formula (core/kernels.py)."""
    return max(1, int(5 * n * math.log2(n))) if n > 1 else 1


#: kernel name -> pencil length -> flops, matching core/kernels.py.  Only
#: one-section kernels: ``detect_phases`` admits no others.
KERNEL_FLOPS: dict[str, Callable[[int], int]] = {
    "fft1D": _fft_flops,
    "negate": lambda n: n,
    "scale": lambda n: n,
    "smooth": lambda n: 3 * n,
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
    bounds the phase.  Loop/call overheads use the VM's flop constants.
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
    flops = pencils * (ITER_FLOPS + CALL_BASE_FLOPS + kfn(axis_n))
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
    for m in plan.moves:
        frags = 1
        if realization == "pipelined" and outer_axis is not None:
            frags = m.section.dims[outer_axis].size
        sends[m.src] += frags
        recvs[m.dst] += frags
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
