"""Engine-scaling benchmark harness (``repro bench``).

The ROADMAP's north star is an engine that runs "as fast as the hardware
allows" at large processor counts; this module measures that.  It drives
two effect-layer node programs across a sweep of processor counts:

* **workqueue** — the paper's section-2.7 dynamic load-balancing pool
  (:mod:`repro.apps.workqueue`).  All traffic shares one message name, so
  it stresses FIFO matching on a single hot ``(kind, name)`` key plus the
  scheduler itself.
* **fft** — an effect-layer distillation of the section-4 3-D FFT
  redistribution: every processor pipelines per-column compute with a
  directed all-to-all transpose (each column's transfer is injected as
  soon as it is produced, the paper's stage-2 overlap), then awaits and
  consumes its incoming slabs.  Every transfer has a distinct name, so it
  stresses the indexed matching tables and completion batching.

The sweep finishes with a DAMOV-style bottleneck classifier: the
top-scale case of every program is profiled once and its wall time is
bucketed into *dispatch* (scheduler loop), *matching* (transport
rendezvous), *completion-application* (symbol-table and memory updates)
and *app* (node programs); its virtual time is split into *compute*,
*network* (send/recv occupancy) and *fence* (idle).  The dominant bucket
names the bottleneck, so a regression report says "this made dispatch the
bottleneck again" rather than just "it got slower".

Host-time claims are read off ``benchmarks/e2e`` (the end-to-end ledger);
this sweep's virtual results — makespan, messages, effects per case — are
pinned by tier-1 tests against the committed record.

Results are recorded to ``BENCH_engine.json`` by ``repro bench`` (or the
``benchmarks/test_bench_p1_engine_scaling.py`` harness) and compared with
``repro bench --diff BENCH_engine.json``.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from dataclasses import asdict, dataclass

from ..core.sections import section, unit_sections_1d
from ..distributions import Block, Distribution, ProcessorGrid, Segmentation
from ..machine.effects import Compute, RecvInit, Send, WaitAccessible
from ..machine.engine import Engine, ProcessorContext
from ..machine.faults import FaultModel
from ..machine.message import TransferKind
from ..machine.model import MachineModel
from ..machine.reliable import ReliableTransport
from ..machine.stats import RunStats
from .workqueue import make_job_costs, run_workqueue

__all__ = [
    "run_fft_pipeline",
    "run_engine_bench",
    "classify_case",
    "measure_faults_overhead",
    "format_bench",
    "diff_bench",
    "BenchCase",
]

#: Model used by all bench cases (fixed so virtual results are comparable).
BENCH_MODEL = MachineModel(o_send=1.0, o_recv=1.0, alpha=10.0, per_byte=0.0)


def measure_faults_overhead(
    nprocs: int = 64, *, jobs_per_proc: int = 16, repeats: int = 5
) -> dict:
    """Price the reliable-delivery machinery on a fault-free network.

    Fault injection is *middleware*: with no FaultModel configured the
    transport's injection seam goes straight to routing, so the shipped
    default carries no fault branch at all and is the baseline here.
    Runs the P=``nprocs`` dynamic workqueue two ways, ``repeats`` times
    each, keeping the minimum wall (the least-noisy estimate):

    * ``disabled`` — the production :class:`Engine` with no FaultModel;
    * ``inert`` — the same engine with ``FaultModel.none()`` plus a
      reliable transport, i.e. the full protocol machinery engaged on a
      fault-free network.

    Both must produce identical makespans (asserted).
    """
    njobs = jobs_per_proc * nprocs
    costs = make_job_costs(njobs, skew=4.0, seed=7)

    def one(engine_cls) -> tuple[float, float]:
        t0 = time.perf_counter()
        stats = run_workqueue(
            njobs, nprocs, scheme="dynamic", costs=costs,
            model=BENCH_MODEL, engine_cls=engine_cls,
        ).stats
        return time.perf_counter() - t0, stats.makespan

    def inert_factory(n, model):
        return Engine(
            n, model, seed=7, faults=FaultModel.none(),
            reliable=ReliableTransport(),
        )

    one(Engine)  # warmup (untimed result discarded)
    # Interleave the variants so drift (thermal, allocator growth) hits
    # both equally; keep the minimum wall of each.
    walls = {"disabled": float("inf"), "inert": float("inf")}
    makespans = {}
    for _ in range(repeats):
        for key, cls in (("disabled", Engine), ("inert", inert_factory)):
            w, m = one(cls)
            walls[key] = min(walls[key], w)
            makespans[key] = m
    if makespans["disabled"] != makespans["inert"]:
        raise AssertionError(
            f"faults-off semantics diverged: makespans {makespans}"
        )
    return {
        "program": "workqueue",
        "nprocs": nprocs,
        "jobs_per_proc": jobs_per_proc,
        "repeats": repeats,
        "wall_disabled_s": round(walls["disabled"], 4),
        "wall_inert_s": round(walls["inert"], 4),
        "overhead_inert_pct": round(
            (walls["inert"] - walls["disabled"]) / walls["disabled"] * 100, 2
        ),
    }


# ---------------------------------------------------------------------- #
# the FFT-pipeline node program
# ---------------------------------------------------------------------- #


def _linear_seg(extent: int, nprocs: int) -> Segmentation:
    dist = Distribution(section((1, extent)), (Block(),), ProcessorGrid((nprocs,)))
    return Segmentation(dist, (1,))


def run_fft_pipeline(
    nprocs: int,
    *,
    col_cost: float = 10.0,
    consume_cost: float = 5.0,
    model: MachineModel | None = None,
    engine_cls: type[Engine] = Engine,
    backend: str | None = None,
) -> RunStats:
    """Pipelined all-to-all transpose modeled on the section-4 FFT stage 2.

    Processor ``p`` owns the ``p``-th block of ``A`` and ``B`` (extent
    ``P*P``, one element per segment).  It computes each of its ``P``
    columns in turn and immediately injects a directed transfer of the
    just-finished column to its transpose owner, then awaits and consumes
    the ``P - 1`` slabs addressed to it.  Receives are all posted up
    front (initiation/completion split, paper section 2.5) so transfer
    latency overlaps the remaining compute — the stage-2 pipelining.
    """
    # Only forward ``backend`` when set, so factory callables without a
    # ``backend`` parameter keep working.
    engine_kw = {} if backend is None else {"backend": backend}
    engine = engine_cls(
        nprocs, model if model is not None else BENCH_MODEL, **engine_kw
    )
    extent = nprocs * nprocs
    engine.declare("A", _linear_seg(extent, nprocs))
    engine.declare("B", _linear_seg(extent, nprocs))

    # The placement is static, so the section descriptors (and the
    # loop-invariant compute effects) are built once up front — the
    # compile-time explicitness the engine's tag caches key off — rather
    # than re-deriving ~4(P-1) fresh sections inside every node program.
    secs = unit_sections_1d(1, extent)
    col_fx = Compute(col_cost, flops=int(col_cost))
    consume_fx = Compute(consume_cost, flops=int(consume_cost))

    def prog(ctx: ProcessorContext):
        P = ctx.nprocs
        pid = ctx.pid
        base = pid * P
        # Post every receive up front: one incoming slab per peer.
        for src in range(P):
            if src == pid:
                continue
            yield RecvInit(
                TransferKind.VALUE, "A", secs[src * P + pid],
                into_var="B", into_sec=secs[base + src],
            )
        # Compute each column; ship it to its transpose owner immediately.
        write = ctx.symtab.write
        for j in range(P):
            yield col_fx
            if j == pid:
                continue  # the diagonal column stays local
            elem = secs[base + j]
            write("A", elem, float(base + j))
            yield Send(TransferKind.VALUE, "A", elem, dests=(j,))
        # Consume incoming slabs as they complete.
        for src in range(P):
            if src == pid:
                continue
            yield WaitAccessible("B", secs[base + src])
            yield consume_fx

    return engine.run(prog)


# ---------------------------------------------------------------------- #
# the bench runner
# ---------------------------------------------------------------------- #


@dataclass
class BenchCase:
    """One (program, nprocs) measurement.  ``engine`` is always
    ``"indexed"``; it keys the rows shared with schema-2 records."""

    program: str
    nprocs: int
    engine: str
    wall_s: float
    effects: int
    effects_per_sec: float
    makespan: float
    messages: int


def _execute(program: str, nprocs: int, *, jobs_per_proc: int) -> RunStats:
    """Run one bench program to completion; the timing is the caller's."""
    if program == "workqueue":
        njobs = jobs_per_proc * nprocs
        costs = make_job_costs(njobs, skew=4.0, seed=7)
        return run_workqueue(
            njobs, nprocs, scheme="dynamic", costs=costs, model=BENCH_MODEL,
        ).stats
    if program == "fft":
        return run_fft_pipeline(nprocs)
    raise ValueError(f"unknown bench program {program!r}")


def _run_case(program: str, nprocs: int, *, jobs_per_proc: int) -> BenchCase:
    t0 = time.perf_counter()
    stats = _execute(program, nprocs, jobs_per_proc=jobs_per_proc)
    wall = time.perf_counter() - t0
    # Rate guard: perf_counter can return equal stamps around a very fast
    # run (coarse clock, suspended VM).  Clamp the divisor to the clock's
    # plausible resolution instead of recording a zero or infinite rate,
    # and round the rate to a whole number so recorded files diff cleanly.
    rate = stats.effects_processed / max(wall, 1e-9)
    return BenchCase(
        program=program,
        nprocs=nprocs,
        engine="indexed",
        wall_s=round(wall, 4),
        effects=stats.effects_processed,
        effects_per_sec=int(round(rate)),
        makespan=stats.makespan,
        messages=stats.total_messages,
    )


# ---------------------------------------------------------------------- #
# DAMOV-style bottleneck classification
# ---------------------------------------------------------------------- #

#: Wall-time bucket per source area.  Python-level frames are attributed
#: to the layer that owns the file; C primitives (dict/heapq/numpy calls)
#: have no frame of their own and land in ``other``, so the buckets rank
#: *interpreted* work.
_WALL_BUCKETS = (
    ("matching", ("/machine/transport/", "/machine/message.py",
                  "/machine/reliable.py", "/machine/faults.py")),
    ("dispatch", ("/machine/scheduler.py", "/machine/engine.py")),
    ("completion", ("/runtime/symtab.py", "/runtime/memory.py",
                    "/core/sections.py")),
    ("app", ("/apps/",)),
)


def _classify_wall(profile: cProfile.Profile) -> dict[str, float]:
    """Bucket a profile's per-frame internal time by engine layer."""
    buckets = dict.fromkeys(
        [name for name, _ in _WALL_BUCKETS] + ["other"], 0.0
    )
    for (filename, _lineno, _fn), (_cc, _nc, tt, _ct, _callers) in (
        pstats.Stats(profile).stats.items()
    ):
        f = filename.replace("\\", "/")
        for bucket, needles in _WALL_BUCKETS:
            if any(n in f for n in needles):
                buckets[bucket] += tt
                break
        else:
            buckets["other"] += tt
    total = sum(buckets.values())
    if total <= 0.0:
        return {k: 0.0 for k in buckets}
    return {k: round(v / total, 4) for k, v in buckets.items()}


def _classify_virtual(stats: RunStats) -> dict[str, float]:
    """Split aggregate virtual processor-time into compute/network/fence."""
    parts = {
        "compute": stats.total_compute_time,
        "network": stats.total_overhead,
        "fence": stats.total_idle_time,
    }
    total = sum(parts.values())
    if total <= 0.0:
        return {k: 0.0 for k in parts}
    return {k: round(v / total, 4) for k, v in parts.items()}


def classify_case(program: str, nprocs: int, *, jobs_per_proc: int) -> dict:
    """Profile one case and name its wall-time and virtual-time bottleneck.

    The wall answer says where the *implementation* spends host time
    (dispatch vs. matching vs. completion-application vs. the node
    programs); the virtual answer says what the *simulated machine* is
    bound by (compute vs. network occupancy vs. fence/idle time).  The
    two axes are independent — e.g. a fence-bound program can still be
    dispatch-bound on the host.
    """
    profile = cProfile.Profile()
    profile.enable()
    stats = _execute(program, nprocs, jobs_per_proc=jobs_per_proc)
    profile.disable()
    wall = _classify_wall(profile)
    virtual = _classify_virtual(stats)
    return {
        "program": program,
        "nprocs": nprocs,
        "engine": "indexed",
        "wall": wall,
        "bottleneck_wall": max(wall, key=wall.__getitem__),
        "virtual": virtual,
        "bottleneck_virtual": max(virtual, key=virtual.__getitem__),
    }


def run_engine_bench(
    nprocs_list: tuple[int, ...] = (8, 64, 256),
    programs: tuple[str, ...] = ("workqueue", "fft"),
    *,
    jobs_per_proc: int = 16,
    classify: bool = True,
) -> dict:
    """Run the scaling sweep; return a JSON-serializable results dict.

    With ``classify``, the largest case of each program is profiled once
    and its bottleneck recorded (see :func:`classify_case`).
    """
    # Untimed warmup: the first engine run in a process pays one-time
    # numpy/code-path initialization that would otherwise be billed to
    # whichever case happens to run first.
    _run_case("workqueue", 2, jobs_per_proc=2)

    cases = [
        _run_case(program, nprocs, jobs_per_proc=jobs_per_proc)
        for program in programs
        for nprocs in nprocs_list
    ]
    classifier: list[dict] = []
    if classify:
        top = max(nprocs_list)
        classifier = [
            classify_case(program, top, jobs_per_proc=jobs_per_proc)
            for program in programs
        ]
    return {
        "schema": 3,
        "config": {
            "nprocs": list(nprocs_list),
            "programs": list(programs),
            "jobs_per_proc": jobs_per_proc,
            "model": asdict(BENCH_MODEL),
        },
        "cases": [asdict(c) for c in cases],
        "classifier": classifier,
        "faults_off": measure_faults_overhead(
            min(64, max(nprocs_list)), jobs_per_proc=jobs_per_proc
        ),
    }


def format_bench(results: dict) -> str:
    """Human-readable table of one results dict."""
    lines = [
        f"{'program':10s} {'P':>4s} {'engine':14s} {'wall_s':>8s} "
        f"{'effects':>9s} {'eff/sec':>10s} {'makespan':>10s}"
    ]
    for c in results["cases"]:
        lines.append(
            f"{c['program']:10s} {c['nprocs']:4d} {c['engine']:14s} "
            f"{c['wall_s']:8.3f} {c['effects']:9d} {c['effects_per_sec']:10d} "
            f"{c['makespan']:10.0f}"
        )
    for e in results.get("classifier", []):
        wall = e["wall"]
        virt = e["virtual"]
        wall_s = ", ".join(
            f"{k} {wall[k] * 100:.0f}%"
            for k in ("dispatch", "matching", "completion", "app", "other")
        )
        virt_s = ", ".join(
            f"{k} {virt[k] * 100:.0f}%"
            for k in ("compute", "network", "fence")
        )
        lines.append(
            f"bottleneck {e['program']}@{e['nprocs']}: "
            f"wall -> {e['bottleneck_wall']} ({wall_s}); "
            f"virtual -> {e['bottleneck_virtual']} ({virt_s})"
        )
    fo = results.get("faults_off")
    if fo:
        lines.append(
            f"faults-off overhead @P{fo['nprocs']} — inert protocol "
            f"{fo['overhead_inert_pct']:+.1f}% over the shipped default"
        )
    return "\n".join(lines)


def diff_bench(old: dict, new: dict) -> str:
    """Compare two results dicts (e.g. committed BENCH_engine.json vs now).

    Rows are matched on ``(program, nprocs, engine)``, so a schema-2 base
    (which holds rows of engines that no longer exist) is compared on the
    indexed rows it shares with the current schema and the rest ignored.
    """
    index = {
        (c["program"], c["nprocs"], c["engine"]): c for c in old.get("cases", [])
    }
    lines = [
        f"{'case':32s} {'old eff/s':>10s} {'new eff/s':>10s} {'ratio':>7s}"
    ]
    for c in new["cases"]:
        key = (c["program"], c["nprocs"], c["engine"])
        prev = index.get(key)
        label = f"{c['program']}@{c['nprocs']} ({c['engine']})"
        if prev is None:
            lines.append(f"{label:32s} {'-':>10s} {c['effects_per_sec']:10d}")
            continue
        if prev["effects_per_sec"]:
            ratio = f"{c['effects_per_sec'] / prev['effects_per_sec']:6.2f}x"
        else:
            ratio = f"{'-':>7s}"  # unusable record (zero-rate guard hit)
        lines.append(
            f"{label:32s} {prev['effects_per_sec']:10d} "
            f"{c['effects_per_sec']:10d} {ratio}"
        )
    return "\n".join(lines)
