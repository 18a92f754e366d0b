"""Dynamic load balancing through XDP's message pool (paper section 2.7).

"This could be accomplished by having the owner of a particular variable
initiate a sequence of sends of values of the variable, each value
representing a certain job to be performed.  Meanwhile, any processor that
was otherwise idle could initiate a receive of that variable, and then
perform the indicated job.  Depending on the load at run-time, there might
be multiple outstanding sends or outstanding receives."

The master (P1) owns a one-element job descriptor ``JOB[1]`` and issues a
sequence of unspecified-recipient value sends of it; each worker loops:
initiate a receive named ``JOB[1]`` into its private slot, await it, and
perform the indicated amount of virtual work.  A zero job id is the
termination sentinel (one per worker).  Because receives are matched FIFO
as they are initiated, a worker that finishes early posts its next receive
early and therefore claims the next job — the schedule adapts to run-time
load with no scheduler.

The paper explicitly notes that this usage relies on XDP allowing "several
processors [to] initiate receive statements for the same section
concurrently".

The app is written directly against the XDP operations (the effect layer),
since the worker loop's data-dependent iteration count is beyond the
static host IL — the paper: "While XDP could be used as a programming
language, it has been designed for use by the compiler"; here we use it as
one.  A static round-robin schedule of the same jobs provides the
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.sections import section
from ..distributions import Block, Distribution, ProcessorGrid, Segmentation
from ..machine.effects import Compute, RecvInit, Send, WaitAccessible
from ..machine.engine import Engine, ProcessorContext
from ..machine.message import TransferKind
from ..machine.model import MachineModel
from ..machine.stats import RunStats

__all__ = [
    "run_workqueue", "make_job_costs", "workqueue_source", "WorkQueueResult",
]


def workqueue_source(njobs: int, nprocs: int) -> str:
    """A static IL+XDP rendition of the section-2.7 work pool.

    The effect-layer :func:`run_workqueue` adapts to run-time load (its
    worker loop has a data-dependent trip count, beyond the static host
    IL); this source fixes each worker's claim count in advance —
    round-robin like the static baseline — but keeps the pool mechanism:
    the master's sends name no recipient, and every worker's receive names
    the same section ``JOB[1]``, so matching is the engine's FIFO pool
    discipline.  Being static IL, it parses, verifies
    (:func:`~repro.core.analysis.verify_comm.verify_communication`) and
    lowers.
    """
    if nprocs < 2:
        raise ValueError("need at least one master and one worker")
    if njobs < 1:
        raise ValueError("need at least one job")
    nworkers = nprocs - 1
    lines = [
        f"array JOB[1:{nprocs}] dist (BLOCK) seg (1)",
        f"array SLOT[1:{nprocs}] dist (BLOCK) seg (1)",
        f"array ACC[1:{nprocs}] dist (BLOCK) seg (1)",
        "scalar j",
        "",
        f"do j = 1, {njobs}",
        "  mypid == 1 : {",
        "    JOB[1] = j",
        "    JOB[1] ->",
        "  }",
        "enddo",
    ]
    base, extra = divmod(njobs, nworkers)
    for w in range(2, nprocs + 1):
        quota = base + (1 if (w - 1) <= extra else 0)
        if quota == 0:
            continue
        lines += [
            f"mypid == {w} : {{",
            f"  do j = 1, {quota}",
            f"    SLOT[{w}] <- JOB[1]",
            f"    await(SLOT[{w}]) : {{",
            f"      ACC[{w}] = ACC[{w}] + SLOT[{w}]",
            "    }",
            "  enddo",
            "}",
        ]
    return "\n".join(lines) + "\n"


@dataclass
class WorkQueueResult:
    scheme: str
    njobs: int
    nprocs: int
    stats: RunStats
    jobs_per_worker: dict[int, int]

    @property
    def makespan(self) -> float:
        return self.stats.makespan


def make_job_costs(njobs: int, *, skew: float = 4.0, seed: int = 3) -> np.ndarray:
    """Job costs with controllable skew (1.0 = uniform)."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(1.0, skew, size=njobs) ** 2
    return 100.0 * base


def _declare(engine: Engine, nprocs: int) -> None:
    grid = ProcessorGrid((nprocs,))
    job = Segmentation(
        Distribution(section((1, nprocs)), (Block(),), grid), (1,)
    )
    slot = Segmentation(
        Distribution(section((1, nprocs)), (Block(),), grid), (1,)
    )
    engine.declare("JOB", job)
    engine.declare("SLOT", slot)


def run_workqueue(
    njobs: int,
    nprocs: int,
    *,
    scheme: str = "dynamic",
    costs: np.ndarray | None = None,
    model: MachineModel | None = None,
    engine_cls: type[Engine] = Engine,
    backend: str | None = None,
) -> WorkQueueResult:
    """Run ``njobs`` jobs on ``nprocs - 1`` workers plus one master.

    ``scheme="dynamic"`` is the paper's pool; ``scheme="static"`` deals the
    same jobs round-robin in advance (each worker knows its fixed job ids).
    ``engine_cls`` lets the bench harness substitute a reference engine;
    ``backend`` picks the transport binding (only forwarded when set, so
    factory callables without a ``backend`` parameter keep working).
    """
    if nprocs < 2:
        raise ValueError("need at least one master and one worker")
    if scheme not in ("dynamic", "static"):
        raise ValueError(f"unknown scheme {scheme!r}")
    job_costs = costs if costs is not None else make_job_costs(njobs)
    if len(job_costs) != njobs:
        raise ValueError("costs length must equal njobs")
    engine_kw = {} if backend is None else {"backend": backend}
    engine = engine_cls(
        nprocs, model if model is not None else MachineModel(), **engine_kw
    )
    _declare(engine, nprocs)
    claimed: dict[int, int] = {p: 0 for p in range(1, nprocs)}

    job_sec = section(1)
    # Effects are immutable values; the loop-invariant ones are built once
    # (explicit compile-time placement extends to the effect stream).
    send_job = Send(TransferKind.VALUE, "JOB", job_sec)
    compute_job = [
        Compute(float(c), flops=int(c)) for c in job_costs
    ]

    def dynamic(ctx: ProcessorContext):
        if ctx.pid == 0:
            # Master: one send per job, then one sentinel per worker.
            write = ctx.symtab.write
            for j in range(1, njobs + 1):
                write("JOB", job_sec, float(j))
                yield send_job
            for _ in range(nprocs - 1):
                write("JOB", job_sec, 0.0)
                yield send_job
            return
        my_slot = section(ctx.pid + 1)
        recv_job = RecvInit(
            TransferKind.VALUE, "JOB", job_sec,
            into_var="SLOT", into_sec=my_slot,
        )
        await_slot = WaitAccessible("SLOT", my_slot)
        read = ctx.symtab.read
        pid = ctx.pid
        while True:
            yield recv_job
            yield await_slot
            job_id = int(read("SLOT", my_slot)[0])
            if job_id == 0:
                return
            claimed[pid] += 1
            yield compute_job[job_id - 1]

    def static(ctx: ProcessorContext):
        if ctx.pid == 0:
            # Master still ships each job's descriptor, but to a fixed,
            # pre-assigned worker.
            for j in range(1, njobs + 1):
                worker = (j - 1) % (nprocs - 1) + 1
                ctx.symtab.write("JOB", job_sec, float(j))
                yield Send(TransferKind.VALUE, "JOB", job_sec, dests=(worker,))
            return
        my_slot = section(ctx.pid + 1)
        my_jobs = [j for j in range(1, njobs + 1) if (j - 1) % (nprocs - 1) + 1 == ctx.pid]
        for job_id in my_jobs:
            yield RecvInit(
                TransferKind.VALUE, "JOB", job_sec,
                into_var="SLOT", into_sec=my_slot,
            )
            yield WaitAccessible("SLOT", my_slot)
            claimed[ctx.pid] += 1
            yield Compute(float(job_costs[job_id - 1]), flops=int(job_costs[job_id - 1]))

    stats = engine.run(dynamic if scheme == "dynamic" else static)
    return WorkQueueResult(
        scheme=scheme,
        njobs=njobs,
        nprocs=nprocs,
        stats=stats,
        jobs_per_worker=dict(claimed),
    )
