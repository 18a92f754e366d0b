"""Simulated-engine oracle for tuning candidates.

The analytic model ranks placements; the oracle *validates* the top
candidates by running them on the real machine (the VM pipeline feeding
:class:`~repro.machine.engine.Engine`).  There is one evaluation path,
:func:`evaluate_candidates`: in-process and serial, memoized in an
:class:`EvalCache` keyed on a digest of (program, processor count,
machine model, seed, backend), so identical candidates across tuning
calls never re-simulate.

Passing ``store`` (an :class:`~repro.tune.store.ArtifactStore` or a
directory path) extends the memo across *processes and runs*: results
are looked up in the crash-safe on-disk store before simulating and
published after, so a re-tune in a fresh process pays one engine run
per distinct candidate total.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from ..core.codegen import lower
from ..core.ir.nodes import Program
from ..core.ir.parser import parse_program
from ..core.ir.printer import print_program
from ..machine.model import MachineModel
from .store import ArtifactKey, ArtifactStore

__all__ = [
    "EvalCache",
    "EvalResult",
    "EvalTask",
    "evaluate_candidates",
    "seed_arrays",
]


@dataclass(frozen=True)
class EvalTask:
    """One candidate run: program x processor count x model x seed."""

    program: Program | str
    nprocs: int
    model: MachineModel
    seed: int = 7
    label: str = ""
    backend: str = "msg"

    def source_text(self) -> str:
        """Canonical source form: parsed programs print through the IR
        printer, so a :class:`Program` and its printed text share one
        identity (digest, store key)."""
        return (
            self.program if isinstance(self.program, str)
            else print_program(self.program)
        )

    @property
    def digest(self) -> str:
        key = repr((self.source_text(), self.nprocs,
                    sorted(asdict(self.model).items()),
                    self.seed, self.backend))
        return hashlib.sha256(key.encode()).hexdigest()

    def parsed(self) -> Program:
        return (
            parse_program(self.program)
            if isinstance(self.program, str) else self.program
        )


@dataclass(frozen=True)
class EvalResult:
    """Engine-measured outcome of one task (arrays included so callers can
    check semantic equivalence against a reference run)."""

    label: str
    digest: str
    makespan: float
    total_messages: int
    total_bytes: int
    total_flops: int
    arrays: Mapping[str, np.ndarray] = field(default_factory=dict, hash=False)
    from_cache: bool = False

    def matches(self, reference: Mapping[str, np.ndarray]) -> bool:
        """Elementwise agreement with a reference run's final arrays."""
        if set(self.arrays) != set(reference):
            return False
        return all(
            np.allclose(self.arrays[k], reference[k], atol=1e-9)
            for k in self.arrays
        )


class EvalCache:
    """Memoized evaluations keyed by task digest, with hit accounting.

    Two memo levels are counted separately: ``hits``/``misses`` for this
    in-memory dict (always 0 hits on a fresh process, however warm the
    disk is), and ``store_hits``/``store_misses`` for lookups that went
    to the shared artifact store — the number a warm replay should show
    as hot.  ``engine_runs`` counts evaluations neither level absorbed.
    """

    def __init__(self) -> None:
        self._store: dict[str, EvalResult] = {}
        self.hits = 0
        self.misses = 0
        self.store_hits = 0
        self.store_misses = 0
        self.engine_runs = 0

    def __len__(self) -> int:
        return len(self._store)

    def get(self, digest: str) -> EvalResult | None:
        r = self._store.get(digest)
        if r is None:
            self.misses += 1
        else:
            self.hits += 1
        return r

    def put(self, result: EvalResult) -> None:
        self._store[result.digest] = result

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def store_hit_rate(self) -> float:
        total = self.store_hits + self.store_misses
        return self.store_hits / total if total else 0.0


def seed_arrays(program: Program, seed: int) -> dict[str, np.ndarray]:
    """Deterministic initial contents for every exclusive array.

    Complex arrays get a seeded complex normal cube (the FFT apps' input
    convention), real arrays a real one; the generator order is the
    declaration order, so a (program, seed) pair always produces the same
    inputs.
    """
    rng = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {}
    for d in program.array_decls():
        if d.universal:
            continue
        shape = d.shape
        if np.dtype(d.dtype).kind == "c":
            out[d.name] = (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            ).astype(d.dtype)
        elif np.dtype(d.dtype).kind == "f":
            out[d.name] = rng.standard_normal(shape).astype(d.dtype)
        else:
            out[d.name] = rng.integers(0, 100, size=shape).astype(d.dtype)
    return out


def _as_store(store):
    """Coerce ``store`` (ArtifactStore | path | None) to a store or None."""
    if store is None:
        return None
    if isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(store)


def _store_key(task: EvalTask):
    """The shared-store address of one evaluation task.

    Same identity fields as :attr:`EvalTask.digest`, but hashed through
    the store's canonical key form (program source, pass config, backend,
    machine model), so every tune sharing a store shares its entries.
    """
    src = task.source_text()
    config = {
        "kind": "candidate",
        "nprocs": task.nprocs,
        "seed": task.seed,
    }
    return ArtifactKey.make(src, config, task.backend, task.model)


def _store_payload(result: EvalResult) -> dict:
    """What the shared store records for one evaluation (label excluded:
    the same candidate may be relabeled across tuning calls)."""
    return {
        "makespan": result.makespan,
        "total_messages": result.total_messages,
        "total_bytes": result.total_bytes,
        "total_flops": result.total_flops,
        "arrays": dict(result.arrays),
    }


def _result_from_store(task: EvalTask, payload: Mapping) -> EvalResult:
    return EvalResult(
        label=task.label,
        digest=task.digest,
        makespan=payload["makespan"],
        total_messages=payload["total_messages"],
        total_bytes=payload["total_bytes"],
        total_flops=payload["total_flops"],
        arrays=dict(payload["arrays"]),
        from_cache=True,
    )


def _run_task(task: EvalTask) -> EvalResult:
    program = task.parsed()
    runner = lower(program, task.nprocs, model=task.model, backend=task.backend)
    for name, arr in seed_arrays(program, task.seed).items():
        runner.write_global(name, arr)
    stats = runner.run()
    arrays = {
        d.name: runner.read_global(d.name)
        for d in program.array_decls() if not d.universal
    }
    return EvalResult(
        label=task.label,
        digest=task.digest,
        makespan=stats.makespan,
        total_messages=stats.total_messages,
        total_bytes=stats.total_bytes,
        total_flops=sum(p.flops for p in stats.procs),
        arrays=arrays,
    )


def evaluate_candidates(
    tasks: Sequence[EvalTask],
    *,
    cache: EvalCache | None = None,
    store=None,
) -> list[EvalResult]:
    """Run candidate tasks on the real engine, in order, memoized.

    Results come back in task order.  Each task is looked up in the
    in-memory ``cache`` first, then in ``store`` (an
    :class:`~repro.tune.store.ArtifactStore` or a path: the
    cross-process memo level), and only then runs on the engine; fresh
    results are published to both.  Memo hits are marked ``from_cache``.
    """
    cache = cache if cache is not None else EvalCache()
    shared = _as_store(store)
    results: list[EvalResult] = []
    for task in tasks:
        hit = cache.get(task.digest)
        if hit is not None:
            results.append(
                replace(hit, label=task.label, from_cache=True)
            )
            continue
        key = None if shared is None else _store_key(task)
        payload = None if key is None else shared.get(key)
        if payload is not None:
            cache.store_hits += 1
            r = _result_from_store(task, payload)
        else:
            if key is not None:
                cache.store_misses += 1
            r = _run_task(task)
            cache.engine_runs += 1
            if key is not None:
                shared.put(key, _store_payload(r))
        cache.put(r)
        results.append(r)
    return results
