"""Job specifications and their execution bodies.

A *job* is one unit of service work — ``compile``, ``check``, ``run`` or
``tune`` over an IL+XDP source — described by a :class:`JobSpec`.  The
artifact-relevant fields (kind, source, nprocs, backend, opt level, seed,
model, extra options) define the job's :class:`~repro.serve.store
.ArtifactKey`; the service-level fields (timeout, deadline, attempt
budget, chaos plan) deliberately do **not**, so a retried or
deadline-tightened job still hits the same cache entry.

:func:`execute_job` is the worker-process entry point: it consults the
shared :class:`~repro.serve.store.ArtifactStore` first (cross-process
cache), computes on a miss, and publishes the result.  It is a pure
function of the spec's key fields, so concurrent workers racing on the
same key write identical records.  A ``tune`` job also hands the store to
the tuner's in-process candidate oracle, so engine runs are shared across
tune jobs as well as whole results.

Chaos plans (``chaos_kill_attempts`` / ``chaos_stall_attempts``) are
honored *inside* the worker: on a listed attempt the worker SIGKILLs
itself mid-job or sleeps past its timeout.  That makes the service-layer
chaos battery deterministic — which attempt dies is decided by the seeded
plan, not by racy supervisor timing — while still exercising the real
crash-detection and restart machinery.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..machine.model import MachineModel
from .store import ArtifactKey, ArtifactStore

__all__ = [
    "JOB_KINDS",
    "MODELS",
    "JobOutcome",
    "JobSpec",
    "artifact_key",
    "execute_job",
]

JOB_KINDS = ("compile", "check", "run", "tune")

#: Machine-model presets by CLI name (mirrors ``repro run --model``).
MODELS: dict[str, Callable[[], MachineModel]] = {
    "default": MachineModel.message_passing,
    "message-passing": MachineModel.message_passing,
    "shared-address": MachineModel.shared_address,
    "high-latency": MachineModel.high_latency,
}


@dataclass(frozen=True)
class JobSpec:
    """One service job.  ``options`` holds kind-specific knobs (e.g. the
    tuner's ``top_k``) as a sorted tuple of (name, value) pairs so the
    spec stays hashable and canonically ordered."""

    kind: str
    source: str
    nprocs: int
    backend: str = "msg"
    opt_level: int = 2
    seed: int = 7
    model: str = "default"
    options: tuple[tuple[str, Any], ...] = ()
    # -- service-level controls (not part of the artifact key) -------- #
    job_id: str = ""
    label: str = ""
    timeout_s: float = 60.0
    deadline_s: float | None = None
    max_attempts: int = 3
    chaos: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.model not in MODELS:
            raise ValueError(f"unknown machine model {self.model!r}")
        if not self.job_id:
            object.__setattr__(self, "job_id", self._default_id())

    def _default_id(self) -> str:
        h = hashlib.sha256(repr(self.key_doc()).encode()).hexdigest()[:12]
        return f"{self.kind}-{h}"

    def key_doc(self) -> dict:
        """The pass-config document hashed into the artifact key."""
        return {
            "kind": self.kind,
            "nprocs": self.nprocs,
            "opt_level": self.opt_level,
            "seed": self.seed,
            "model": self.model,
            "options": sorted(self.options),
        }

    def as_dict(self) -> dict:
        """Picklable wire form sent to worker processes."""
        return {
            "kind": self.kind,
            "source": self.source,
            "nprocs": self.nprocs,
            "backend": self.backend,
            "opt_level": self.opt_level,
            "seed": self.seed,
            "model": self.model,
            "options": tuple(self.options),
            "job_id": self.job_id,
            "label": self.label or self.job_id,
            "timeout_s": self.timeout_s,
            "deadline_s": self.deadline_s,
            "max_attempts": self.max_attempts,
            "chaos": dict(self.chaos),
        }


@dataclass
class JobOutcome:
    """What the service reports for one submitted job.

    ``status`` is one of ``ok`` (computed), ``cached`` (served from the
    artifact store), ``degraded`` (budget exceeded; baseline fallback
    result), ``failed`` (clean typed error from the job body), ``poison``
    (crashed/timed out on every allowed attempt; quarantined), or
    ``shed`` (rejected by the bounded queue or an expired deadline).
    """

    job_id: str
    kind: str
    label: str
    status: str
    attempts: int = 1
    value: dict | None = None
    error_type: str | None = None
    error: str | None = None
    latency_s: float = 0.0

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)

    def fingerprint(self) -> tuple:
        """The deterministic part of the outcome: everything except
        wall-clock latency (and the value's free-form text)."""
        value_fp = None
        if self.value is not None:
            value_fp = tuple(sorted(
                (k, _fp(v)) for k, v in self.value.items()
                if k not in ("wall_s",)
            ))
        return (
            self.job_id, self.kind, self.status, self.attempts,
            self.error_type, value_fp,
        )

    def as_doc(self) -> dict:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "label": self.label,
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "error_type": self.error_type,
            "error": self.error,
            "latency_s": round(self.latency_s, 6),
        }


def _fp(v: Any) -> Any:
    if isinstance(v, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
    if isinstance(v, dict):
        return tuple(sorted((k, _fp(x)) for k, x in v.items()))
    if isinstance(v, list):
        return tuple(_fp(x) for x in v)
    return v


def _spec_model(spec: JobSpec | Mapping[str, Any]) -> MachineModel:
    """The machine model a job runs under: its :data:`MODELS` preset."""
    name = spec.model if isinstance(spec, JobSpec) else spec["model"]
    return MODELS[name]()


def artifact_key(spec: JobSpec | Mapping[str, Any]) -> ArtifactKey:
    """The content address of a job's artifact (spec or its dict form):
    source, :meth:`JobSpec.key_doc`, backend and machine model."""
    if isinstance(spec, JobSpec):
        doc, source, backend = spec.key_doc(), spec.source, spec.backend
    else:
        doc = {
            "kind": spec["kind"],
            "nprocs": spec["nprocs"],
            "opt_level": spec["opt_level"],
            "seed": spec["seed"],
            "model": spec["model"],
            "options": sorted(tuple(o) for o in (spec.get("options") or ())),
        }
        source, backend = spec["source"], spec["backend"]
    return ArtifactKey.make(source, doc, backend, _spec_model(spec))


# ---------------------------------------------------------------------- #
# job bodies
# ---------------------------------------------------------------------- #


def _inject_chaos(spec: Mapping[str, Any], attempt: int) -> None:
    """Honor the job's seeded chaos plan for this attempt (see module
    doc): fail-stop by SIGKILL, or stall past the supervisor timeout."""
    chaos = spec.get("chaos") or {}
    if attempt in tuple(chaos.get("kill_attempts", ())):
        os.kill(os.getpid(), signal.SIGKILL)
    if attempt in tuple(chaos.get("stall_attempts", ())):
        time.sleep(float(chaos.get("stall_s", 30.0)))


def _job_compile(spec: Mapping[str, Any], model: MachineModel) -> dict:
    from ..core.ir.parser import parse_program
    from ..core.ir.printer import print_program
    from ..core.ir.verify import verify_program
    from ..core.opt import optimize

    program = parse_program(spec["source"])
    verify_program(program)
    result = optimize(program, spec["nprocs"], level=spec["opt_level"],
                      backend=spec["backend"])
    return {
        "program": print_program(result.program),
        "reports": list(result.reports),
    }


def _job_check(spec: Mapping[str, Any], model: MachineModel) -> dict:
    from ..core.analysis import verify_communication
    from ..core.ir.parser import parse_program

    program = parse_program(spec["source"])
    report = verify_communication(program, spec["nprocs"],
                                  backend=spec["backend"])
    return {"ok": report.ok, "report": report.format()}


def _job_run(spec: Mapping[str, Any], model: MachineModel) -> dict:
    from ..core.codegen import lower
    from ..core.ir.parser import parse_program
    from ..tune.evaluate import seed_arrays

    program = parse_program(spec["source"])
    runner = lower(program, spec["nprocs"], model=model,
                   backend=spec["backend"])
    for name, arr in seed_arrays(program, spec["seed"]).items():
        runner.write_global(name, arr)
    stats = runner.run()
    sha = hashlib.sha256()
    for d in program.array_decls():
        if not d.universal:
            sha.update(
                np.ascontiguousarray(runner.read_global(d.name)).tobytes()
            )
    return {
        "makespan": stats.makespan,
        "total_messages": stats.total_messages,
        "total_bytes": stats.total_bytes,
        "result_sha256": sha.hexdigest(),
    }


def _job_tune(spec: Mapping[str, Any], model: MachineModel) -> dict:
    from ..tune import tune

    options = dict(spec.get("options") or ())
    res = tune(
        spec["source"], spec["nprocs"], model=model,
        top_k=int(options.get("top_k", 2)),
        seed=spec["seed"], backend=spec["backend"],
        store=spec.get("_store_root"),
    )
    # The canonical doc is exactly the deterministic portion of the
    # result — no wall clocks, no memo counters — which is what a
    # content-addressed artifact must be.
    return res.canonical_doc()


def degraded_tune_result(spec: Mapping[str, Any]) -> dict:
    """Baseline fallback when a tune search exceeds its budget.

    Mirrors the tuner's own never-worse-than-input rule: the input
    program keeps its placement, and only the (cheap) baseline engine
    evaluation runs so the caller still gets a measured makespan.
    """
    from ..tune.evaluate import EvalTask, evaluate_candidates

    model = _spec_model(spec)
    baseline = evaluate_candidates(
        [EvalTask(spec["source"], spec["nprocs"], model, seed=spec["seed"],
                  label="baseline", backend=spec["backend"])],
    )[0]
    return {
        "makespan": baseline.makespan,
        "baseline_makespan": baseline.makespan,
        "realization": "baseline",
        "layouts": [],
        "speedup": 1.0,
        "semantics_preserved": True,
        "degraded": True,
    }


_BODIES = {
    "compile": _job_compile,
    "check": _job_check,
    "run": _job_run,
    "tune": _job_tune,
}


def execute_job(
    spec: Mapping[str, Any],
    attempt: int = 1,
    store_root: str | os.PathLike | None = None,
) -> tuple[dict, bool]:
    """Run one job; returns ``(payload, served_from_cache)``.

    The shared store (when given) is consulted before computing and
    written after: repeated jobs across processes and sessions pay one
    engine run total.  Chaos plans fire before the cache lookup so a
    killed attempt dies whether or not the artifact exists yet.
    """
    _inject_chaos(spec, attempt)
    store = ArtifactStore(store_root) if store_root is not None else None
    key = artifact_key(spec)
    if store is not None:
        hit = store.get(key)
        if hit is not None:
            return hit, True
    model = _spec_model(spec)
    if store is not None and spec["kind"] == "tune":
        # Let the tuner's per-candidate oracle share the same store, so
        # even a *fresh* tune job reuses engine runs from earlier ones.
        spec = dict(spec)
        spec["_store_root"] = str(store.root)
    payload = _BODIES[spec["kind"]](spec, model)
    if store is not None:
        store.put(key, payload)
    return payload, False
