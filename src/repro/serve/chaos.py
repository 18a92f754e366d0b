"""Service-layer chaos battery: the durability contract, demonstrated.

The simulated machine never loses a message; this battery exercises the
faults of the real service around it instead.  It SIGKILLs real worker
processes mid-job, truncates and bit-flips real cache files, stalls jobs
past their timeout, and floods the bounded queue — and asserts the
service's promise:

    every submitted job returns a verified artifact, a degraded baseline
    result, or a clean typed error — no hangs, and a corrupt artifact is
    never served.

Determinism: which (job, attempt) pairs die or stall and which cache
entries get corrupted (and how) are all drawn from ``random.Random(seed)``
and injected *inside* the victim (see :mod:`repro.serve.jobs`), so two
same-seed runs produce bit-identical outcome fingerprints — wall-clock
latencies are excluded from the fingerprint, everything else is covered.

CLI: ``python -m repro serve --chaos --seed 7`` (exit 1 on any failure);
the CI serve-smoke job runs exactly that.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from .jobs import JobOutcome, JobSpec
from .service import ServeSession, demo_workload
from .store import ArtifactStore
from .supervisor import SupervisorConfig

__all__ = ["corrupt_store_entries", "format_serve_chaos", "run_serve_chaos"]

#: Fast-retry policy for the battery (real seconds; keep the battery
#: quick while still exercising genuine kills, stalls and timeouts).
CHAOS_CONFIG = dict(
    workers=2,
    timeout_s=1.5,
    max_attempts=3,
    backoff_base_s=0.01,
    backoff_factor=2.0,
)


def _fingerprints(outcomes: list[JobOutcome]) -> list[tuple]:
    return [o.fingerprint() for o in outcomes]


def corrupt_store_entries(
    store: ArtifactStore, rng: random.Random, fraction: float = 0.5
) -> list[str]:
    """Truncate or bit-flip a seeded subset of published records.

    Alternates corruption modes per victim: truncation (a crashed
    non-atomic writer), single bit flip (media corruption), and garbage
    append (torn concurrent write).  Returns the victims' file names.
    """
    files = sorted(store.root.glob("objects/*/*.json"))
    k = max(1, int(len(files) * fraction)) if files else 0
    victims = rng.sample(files, k) if k else []
    out = []
    for i, path in enumerate(victims):
        raw = bytearray(path.read_bytes())
        mode = ("truncate", "bitflip", "append")[i % 3]
        if mode == "truncate":
            raw = raw[: max(1, len(raw) // 2)]
        elif mode == "bitflip":
            pos = rng.randrange(len(raw))
            raw[pos] ^= 1 << rng.randrange(8)
        else:
            raw += b'{"stray": "torn write"}'
        path.write_bytes(bytes(raw))
        out.append(path.name)
    return sorted(out)


def _kill_section(store_root: str, nprocs: int, seed: int) -> dict:
    """Seeded SIGKILLs mid-job: every victim retries and completes."""
    rng = random.Random(f"{seed}:kill")
    specs = demo_workload(nprocs=nprocs, rounds=1, seed=seed,
                          timeout_s=CHAOS_CONFIG["timeout_s"])
    killed = sorted(rng.sample(range(len(specs)), max(2, len(specs) // 3)))
    specs = [
        JobSpec(**{**_spec_kw(s), "chaos": (("kill_attempts", (1,)),)})
        if i in killed else s
        for i, s in enumerate(specs)
    ]
    session = ServeSession(store_root, SupervisorConfig(
        seed=seed, **CHAOS_CONFIG))
    outcomes = session.run_jobs(specs)
    sup = session.last_supervisor_stats
    ok = (
        all(o.status in ("ok", "cached") for o in outcomes)
        and all(outcomes[i].attempts == 2 for i in killed)
        and sup is not None
        and sup.workers_restarted >= len(killed)
    )
    return {
        "section": "worker-kill",
        "ok": ok,
        "jobs": len(specs),
        "killed_jobs": killed,
        "retries": sum(o.retries for o in outcomes),
        "workers_restarted": sup.workers_restarted if sup else 0,
        "fingerprints": _fingerprints(outcomes),
    }


def _stall_section(store_root: str, nprocs: int, seed: int) -> dict:
    """Injected stalls: runs retry past the hang; tune degrades to the
    baseline fallback instead of blowing its budget."""
    from ..apps.fft3d import fft3d_source
    from ..apps.jacobi import jacobi_source
    from ..core.ir.printer import print_program

    stall = (("stall_attempts", (1,)),
             ("stall_s", CHAOS_CONFIG["timeout_s"] * 3))
    specs = [
        JobSpec(kind="run",
                source=print_program(
                    jacobi_source(2 * nprocs, nprocs, 2, "halo-overlap")
                ),
                nprocs=nprocs, seed=seed, label="run:stalled",
                timeout_s=CHAOS_CONFIG["timeout_s"], chaos=stall),
        JobSpec(kind="tune", source=fft3d_source(8, nprocs, 0),
                nprocs=nprocs, seed=seed, label="tune:stalled",
                options=(("top_k", 2),),
                timeout_s=CHAOS_CONFIG["timeout_s"], chaos=stall),
    ]
    session = ServeSession(store_root, SupervisorConfig(
        seed=seed, **CHAOS_CONFIG))
    outcomes = session.run_jobs(specs)
    run_o, tune_o = outcomes
    ok = (
        run_o.status == "ok" and run_o.attempts == 2
        and tune_o.status == "degraded"
        and tune_o.value is not None
        and tune_o.value.get("realization") == "baseline"
    )
    return {
        "section": "stall",
        "ok": ok,
        "run_status": run_o.status,
        "tune_status": tune_o.status,
        "fingerprints": _fingerprints(outcomes),
    }


def _corruption_section(store_root: str, nprocs: int, seed: int) -> dict:
    """Cache corruption: every corrupt record is quarantined and
    recomputed; the replay's payloads match the clean reference."""
    rng = random.Random(f"{seed}:corrupt")
    specs = demo_workload(nprocs=nprocs, rounds=1, seed=seed)
    session = ServeSession(store_root, SupervisorConfig(
        seed=seed, **CHAOS_CONFIG))
    reference = session.run_jobs(specs)
    victims = corrupt_store_entries(session.store, rng, fraction=0.5)

    replay_session = ServeSession(store_root, SupervisorConfig(
        seed=seed, **CHAOS_CONFIG))
    replay = replay_session.run_jobs(
        demo_workload(nprocs=nprocs, rounds=1, seed=seed)
    )
    quarantined = replay_session.store.stats.quarantined
    # Every job still served, every payload identical to the clean
    # reference (fingerprint covers payload content), and the corrupt
    # records all went to quarantine instead of being served.  Status
    # and attempt counts legitimately differ between the cold reference
    # and the corrupted replay (cached vs recomputed), so compare only
    # (job_id, kind, error_type, value).
    ref_fp = [(f[0], f[1], f[4], f[5]) for f in _fingerprints(reference)]
    rep_fp = [(f[0], f[1], f[4], f[5]) for f in _fingerprints(replay)]
    value_ok = [
        a.value == b.value or
        (a.value is not None and b.value is not None and
         _payload_fp(a.value) == _payload_fp(b.value))
        for a, b in zip(reference, replay)
    ]
    ok = (
        all(o.status in ("ok", "cached") for o in replay)
        and quarantined == len(victims)
        and len(replay_session.store.quarantined_files()) >= len(victims)
        and all(value_ok)
        and ref_fp == rep_fp
    )
    return {
        "section": "cache-corruption",
        "ok": ok,
        "corrupted": len(victims),
        "quarantined": quarantined,
        "victims": victims,
        "fingerprints": _fingerprints(replay),
    }


def _payload_fp(value: dict) -> tuple:
    from .jobs import _fp

    return tuple(sorted((k, _fp(v)) for k, v in value.items()))


def _overload_section(store_root: str, nprocs: int, seed: int) -> dict:
    """Bounded queue: floods beyond capacity shed deterministically and
    everything accepted still completes."""
    from ..apps.workqueue import workqueue_source

    capacity = 3
    src = workqueue_source(2 * (nprocs - 1), nprocs)
    specs = [
        JobSpec(kind="run", source=src, nprocs=nprocs, seed=seed + i,
                label=f"flood-{i}", timeout_s=CHAOS_CONFIG["timeout_s"])
        for i in range(capacity + 4)
    ]
    config = SupervisorConfig(seed=seed, queue_capacity=capacity,
                              **CHAOS_CONFIG)
    session = ServeSession(store_root, config)
    outcomes = session.run_jobs(specs)
    shed = [o for o in outcomes if o.status == "shed"]
    done = [o for o in outcomes if o.status in ("ok", "cached")]
    ok = (
        len(shed) == len(specs) - capacity
        and len(done) == capacity
        and all(o.error_type == "ServiceOverloadError" for o in shed)
    )
    return {
        "section": "overload",
        "ok": ok,
        "submitted": len(specs),
        "shed": len(shed),
        "completed": len(done),
        "fingerprints": _fingerprints(outcomes),
    }


def _poison_section(store_root: str, nprocs: int, seed: int) -> dict:
    """A job that dies on every attempt is quarantined as poison after
    its attempt budget — a clean typed outcome, not a hang."""
    from ..apps.workqueue import workqueue_source

    spec = JobSpec(
        kind="run", source=workqueue_source(2 * (nprocs - 1), nprocs),
        nprocs=nprocs, seed=seed, label="poison",
        timeout_s=CHAOS_CONFIG["timeout_s"],
        chaos=(("kill_attempts", (1, 2, 3)),),
    )
    session = ServeSession(store_root, SupervisorConfig(
        seed=seed, **CHAOS_CONFIG))
    (outcome,) = session.run_jobs([spec])
    ok = (
        outcome.status == "poison"
        and outcome.attempts == CHAOS_CONFIG["max_attempts"]
        and outcome.error_type == "PoisonJobError"
    )
    return {
        "section": "poison",
        "ok": ok,
        "status": outcome.status,
        "attempts": outcome.attempts,
        "fingerprints": _fingerprints([outcome]),
    }


def _spec_kw(spec: JobSpec) -> dict:
    return {
        "kind": spec.kind, "source": spec.source, "nprocs": spec.nprocs,
        "backend": spec.backend, "opt_level": spec.opt_level,
        "seed": spec.seed, "model": spec.model, "options": spec.options,
        "label": spec.label, "timeout_s": spec.timeout_s,
        "deadline_s": spec.deadline_s, "max_attempts": spec.max_attempts,
    }


_SECTIONS = (
    _kill_section,
    _stall_section,
    _corruption_section,
    _overload_section,
    _poison_section,
)


def run_serve_chaos(
    *,
    seed: int = 7,
    nprocs: int = 4,
    store_root: str | None = None,
    check_determinism: bool = True,
) -> dict:
    """Run the full service chaos battery; returns a JSON-able report.

    Each section gets a fresh store subdirectory (sections must not warm
    each other's caches).  With ``check_determinism``, the kill section
    reruns under the same seed in a fresh store and its outcome
    fingerprints must be bit-identical.
    """
    tmp_ctx = None
    if store_root is None:
        tmp_ctx = tempfile.TemporaryDirectory(prefix="repro-serve-chaos-")
        store_root = tmp_ctx.name
    root = Path(store_root)
    try:
        sections = []
        for fn in _SECTIONS:
            sub = root / fn.__name__.strip("_")
            sections.append(fn(str(sub), nprocs, seed))
        report = {
            "seed": seed,
            "nprocs": nprocs,
            "ok": all(s["ok"] for s in sections),
            "sections": sections,
        }
        if check_determinism:
            again = _kill_section(str(root / "kill_replay"), nprocs, seed)
            det_ok = (
                again["fingerprints"] == sections[0]["fingerprints"]
                and again["killed_jobs"] == sections[0]["killed_jobs"]
            )
            report["determinism"] = {"section": "worker-kill", "ok": det_ok}
            report["ok"] = report["ok"] and det_ok
        # Fingerprints are tuples (for comparison); drop them from the
        # JSON-able report after use.
        for s in report["sections"]:
            s.pop("fingerprints", None)
        return report
    finally:
        if tmp_ctx is not None:
            tmp_ctx.cleanup()


def format_serve_chaos(report: dict) -> str:
    lines = [f"{'section':18s} {'result':8s} detail"]
    for s in report["sections"]:
        detail = {k: v for k, v in s.items()
                  if k not in ("section", "ok", "victims")}
        lines.append(
            f"{s['section']:18s} {'OK' if s['ok'] else 'FAIL':8s} {detail}"
        )
    if "determinism" in report:
        d = report["determinism"]
        lines.append(
            f"determinism ({d['section']}): "
            f"{'bit-identical' if d['ok'] else 'DIVERGED'}"
        )
    lines.append(
        f"serve chaos: {'OK' if report['ok'] else 'FAIL'} — "
        f"seed {report['seed']}, {len(report['sections'])} sections"
    )
    return "\n".join(lines)
