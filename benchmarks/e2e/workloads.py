"""The six workloads: frozen IL text (or a `tune()` / `run_workqueue()`
call) in, independently checked result out.

Everything here drives `repro` through its public entry points only, and
every reference value comes from numpy in this file, never from `repro`.
`--seed` reaches array contents, job costs and `tune(seed=)`; the IL
programs are the frozen files under `programs/`.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PROGRAMS = Path(__file__).resolve().parent / "programs"

#: Fixed iteration counts of the ledger run (`run.py` without `--seconds`),
#: per process; `run.py` splits a workload over three fresh processes.  Sized
#: so each workload's timed part is 7-20 s on the reference container.
ITERATIONS = {
    "fft3d-own": 3,
    "fft3d-cyclic": 7,
    "jacobi-halo": 4,
    "matmul-coll": 4,
    "workqueue-effects": 7,
    "tune-fft3d": 3,
}


class ManifestError(Exception):
    """A frozen program does not match its recorded sha256."""


def load_programs(directory: Path = PROGRAMS) -> dict[str, str]:
    """Read every frozen program, refusing any byte that drifted."""
    manifest = json.loads((directory / "MANIFEST.json").read_text())
    programs = {}
    for name, want in manifest.items():
        text = (directory / name).read_text()
        got = hashlib.sha256(text.encode()).hexdigest()
        if got != want:
            raise ManifestError(f"{name}: sha256 {got} != manifest {want}")
        programs[name] = text
    return programs


class Checks:
    """Failed checks over checks attempted — the source of `failed_frac`."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong_verdicts = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return bool(ok)

    def verdict(self, ok: bool, what: str) -> None:
        """A verifier verdict compared with the program's known answer."""
        if not self.check(ok, what):
            self.wrong_verdicts += 1


@dataclass
class Iteration:
    """What one iteration measured.  `None` = not defined on this workload."""

    makespan_vt: float
    messages: int
    bytes_moved: int
    #: everything that must repeat from one iteration to the next.
    digest: str
    #: the part of the outcome every backend and engine mode must reproduce.
    result_digest: str
    compile_s: float | None = None
    run_s: float | None = None
    engine_s: float | None = None
    effects: int | None = None
    #: summa native makespan / summa p2p makespan (matmul-coll only).
    native_over_p2p_vt: float | None = None
    #: per-layer counts read off the compiled artefacts or the tuner's result.
    counts: dict[str, float] = field(default_factory=dict)


def median(values):
    """Median of the values that are defined; None when none is."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def digest_of(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def complex_cube(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))


def count_stmts(program) -> int:
    from repro.core.ir.visitor import walk_stmts

    return sum(1 for _ in walk_stmts(program.body))


# ---------------------------------------------------------------------- #
# the four compiled workloads
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Unit:
    """One frozen program with its inputs and its numpy reference."""

    program: str
    inputs: dict[str, np.ndarray]
    output: str
    want: np.ndarray
    atol: float
    collectives: str = "native"


class Compiled:
    """parse -> verify_program -> optimize(-O2) -> verify_communication ->
    lower, then write_global + run + read_global, for each unit; plus one
    mutant the communication verifier must reject."""

    def __init__(self, name: str, nprocs: int, units: list[Unit], mutant: str,
                 programs: dict[str, str]):
        self.name = name
        self.nprocs = nprocs
        self.units = units
        self.mutant = mutant
        self.programs = programs

    def _execute(self, cp, unit: Unit):
        t0 = time.perf_counter()
        for var, values in unit.inputs.items():
            cp.write_global(var, values)
        t1 = time.perf_counter()
        stats = cp.run()
        t2 = time.perf_counter()
        got = cp.read_global(unit.output)
        t3 = time.perf_counter()
        return stats, got, t3 - t0, t2 - t1

    def iterate(self, checks: Checks) -> Iteration:
        import repro
        from repro.core.analysis import verify_communication

        P = self.nprocs
        compile_s = run_s = engine_s = 0.0
        makespan = 0.0
        messages = bytes_moved = effects = 0
        results = []
        by_unit: dict[tuple[str, str], float] = {}
        counts: Counter = Counter()

        for unit in self.units:
            t0 = time.perf_counter()
            program = repro.parse_program(self.programs[unit.program])
            repro.verify_program(program)
            opt = repro.optimize(program, P, level=2)
            report = verify_communication(opt.program, P)
            cp = repro.lower(opt.program, P, backend="msg",
                             collectives=unit.collectives)
            compile_s += time.perf_counter() - t0
            checks.verdict(report.ok, f"{unit.program}: clean program rejected")

            stats, got, dt_run, dt_engine = self._execute(cp, unit)
            run_s += dt_run
            engine_s += dt_engine
            checks.check(
                bool(np.allclose(got, unit.want, atol=unit.atol)),
                f"{unit.program} ({unit.collectives}): result != numpy reference",
            )
            makespan += stats.makespan
            messages += stats.total_messages
            bytes_moved += stats.total_bytes
            effects += stats.effects_processed
            by_unit[(unit.program, unit.collectives)] = stats.makespan
            results.append(got)

            # Sizes of the intermediate forms (outside both timed windows; a
            # field a refactor removed costs its row, not the run).
            counts.update({
                "core.ir.stmts_in": count_stmts(program),
                "core.opt.stmts_out": count_stmts(opt.program),
                "core.opt.reports": len(opt.reports),
                "core.analysis.events": getattr(report, "events", 0),
                "core.codegen.instrs": len(getattr(cp, "code", ())),
            })

        t0 = time.perf_counter()
        mutant = repro.parse_program(self.programs[self.mutant])
        mutant_report = verify_communication(mutant, P)
        compile_s += time.perf_counter() - t0
        checks.verdict(not mutant_report.ok, f"{self.mutant}: mutant accepted")
        counts["core.analysis.events"] += getattr(mutant_report, "events", 0)

        native = by_unit.get(("matmul_summa.xdp", "native"))
        p2p = by_unit.get(("matmul_summa.xdp", "p2p"))
        return Iteration(
            makespan_vt=makespan, messages=messages, bytes_moved=bytes_moved,
            digest=digest_of(makespan, messages, bytes_moved, *results),
            result_digest=digest_of(*results),
            compile_s=compile_s, run_s=run_s, engine_s=engine_s, effects=effects,
            native_over_p2p_vt=native / p2p if native and p2p else None,
            counts=dict(counts),
        )

    def alt_run(self, backend: str) -> tuple[float, str]:
        """The run phase alone under another backend (the engine mode comes
        from the caller's environment): wall time and result digest."""
        import repro

        results = []
        elapsed = 0.0
        for unit in self.units:
            program = repro.parse_program(self.programs[unit.program])
            opt = repro.optimize(program, self.nprocs, level=2)
            cp = repro.lower(opt.program, self.nprocs, backend=backend,
                             collectives=unit.collectives)
            _, got, dt_run, _ = self._execute(cp, unit)
            elapsed += dt_run
            results.append(got)
        return elapsed, digest_of(*results)


def _fft_units(programs, seed: int, n: int, names: list[str]) -> list[Unit]:
    a0 = complex_cube(np.random.default_rng(seed), n)
    want = np.fft.fftn(a0)
    return [Unit(p, {"A": a0}, "A", want, 1e-9 * n**3) for p in names]


def fft3d_own(programs, seed: int) -> Compiled:
    units = _fft_units(programs, seed, 16, ["fft3d_own_s0.xdp", "fft3d_own_s2.xdp"])
    return Compiled("fft3d-own", 16, units, "fft3d_own_mutant.xdp", programs)


def fft3d_cyclic(programs, seed: int) -> Compiled:
    units = _fft_units(programs, seed, 16, ["fft3d_cyclic.xdp"])
    return Compiled("fft3d-cyclic", 4, units, "fft3d_cyclic_mutant.xdp", programs)


def jacobi_halo(programs, seed: int) -> Compiled:
    n, sweeps = 1024, 8
    a0 = np.random.default_rng(seed).standard_normal(n)
    want = a0.copy()
    for _ in range(sweeps):
        nxt = want.copy()
        nxt[1:-1] = (want[:-2] + want[1:-1] + want[2:]) / 3.0
        want = nxt
    unit = Unit("jacobi_halo.xdp", {"A": a0, "B": np.zeros(n)}, "A", want, 1e-8)
    return Compiled("jacobi-halo", 16, [unit], "jacobi_halo_mutant.xdp", programs)


def matmul_coll(programs, seed: int) -> Compiled:
    n, P = 64, 16
    b = n // P
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal((n, n))
    b0 = rng.standard_normal((n, n))
    want = a0 @ b0
    rows = np.stack([b0[p * b:(p + 1) * b, :] for p in range(P)])
    inputs = {
        "cannon": {"A": a0, "V": rows},
        "summa": {"A0": a0, "B": b0},
        "gather": {"A": a0, "B": b0},
        "outer": {"A0": a0, "B": b0},
    }
    units = [
        Unit(f"matmul_{v}.xdp", inputs[v], "C", want, 1e-9 * n, collectives=c)
        for v, c in [("cannon", "native"), ("summa", "native"),
                     ("gather", "native"), ("outer", "native"), ("summa", "p2p")]
    ]
    return Compiled("matmul-coll", P, units, "matmul_mutant.xdp", programs)


# ---------------------------------------------------------------------- #
# workqueue-effects: prebuilt effect-layer node programs, no compiler
# ---------------------------------------------------------------------- #


class Workqueue:
    NPROCS = 256
    NJOBS = 64 * 256

    def __init__(self, programs, seed: int):
        self.name = "workqueue-effects"
        rng = np.random.default_rng(seed)
        self.costs = 100.0 * rng.uniform(1.0, 4.0, size=self.NJOBS) ** 2

    def _run(self, backend: str):
        from repro import Engine
        from repro.apps.workqueue import run_workqueue

        class TimedEngine(Engine):
            """Times `run()` alone, apart from `run_workqueue`'s set-up."""

            elapsed = 0.0

            def run(self, program):
                t0 = time.perf_counter()
                try:
                    return super().run(program)
                finally:
                    TimedEngine.elapsed += time.perf_counter() - t0

        t0 = time.perf_counter()
        result = run_workqueue(
            self.NJOBS, self.NPROCS, scheme="dynamic", costs=self.costs,
            engine_cls=TimedEngine, backend=backend,
        )
        return result, time.perf_counter() - t0, TimedEngine.elapsed

    @staticmethod
    def _result_digest(result) -> str:
        # Virtual times, and with them who claims which job, are
        # backend-specific; that every job is claimed once is not.
        return digest_of(sum(result.jobs_per_worker.values()),
                         result.stats.total_messages)

    def iterate(self, checks: Checks) -> Iteration:
        result, dt, dt_engine = self._run("msg")
        stats = result.stats
        workers = self.NPROCS - 1
        checks.check(sum(result.jobs_per_worker.values()) == self.NJOBS,
                     "workqueue: claimed jobs != jobs issued")
        checks.check(stats.total_messages == self.NJOBS + workers,
                     "workqueue: messages != jobs + one sentinel per worker")
        checks.check(
            bool(np.isclose(stats.total_compute_time, self.costs.sum(), rtol=1e-9)),
            "workqueue: virtual compute time != sum of job costs",
        )
        # No schedule beats the mean load, the longest job or the master's
        # serialized sends; a list schedule exceeds their sum by at most one
        # more job (Graham) plus the last message's flight.
        from repro import MachineModel

        per_worker = self.costs.sum() / workers
        longest = self.costs.max()
        sending = stats.total_messages * MachineModel().o_send
        checks.check(
            max(per_worker, longest, sending) <= stats.makespan
            <= sending + per_worker + 2.0 * longest,
            "workqueue: makespan outside the list-scheduling bounds",
        )
        return Iteration(
            makespan_vt=stats.makespan, messages=stats.total_messages,
            bytes_moved=stats.total_bytes,
            digest=digest_of(sorted(result.jobs_per_worker.items()),
                             stats.makespan, stats.total_messages,
                             stats.total_bytes),
            result_digest=self._result_digest(result),
            run_s=dt, engine_s=dt_engine, effects=stats.effects_processed,
        )

    def alt_run(self, backend: str) -> tuple[float, str]:
        result, dt, _ = self._run(backend)
        return dt, self._result_digest(result)


# ---------------------------------------------------------------------- #
# tune-fft3d: the tuner end to end
# ---------------------------------------------------------------------- #


class Tune:
    N, NPROCS = 8, 4

    def __init__(self, programs, seed: int):
        self.name = "tune-fft3d"
        self.source = programs["tune_fft3d_s0.xdp"]
        self.seed = seed
        self.a0 = complex_cube(np.random.default_rng(seed), self.N)
        self.want = np.fft.fftn(self.a0)

    def iterate(self, checks: Checks) -> Iteration:
        import repro
        from repro.tune import EvalCache, tune

        res = tune(self.source, self.NPROCS, parallel=False, budget_s=None,
                   seed=self.seed, cache=EvalCache(), backend="msg")
        # The winner is re-run here on the harness's own input: the tuner's
        # word for neither the result nor the makespan is taken.
        cp = repro.lower(repro.parse_program(res.source), self.NPROCS,
                         backend="msg")
        cp.write_global("A", self.a0)
        stats = cp.run()
        got = cp.read_global("A")
        checks.check(
            bool(np.allclose(got, self.want, atol=1e-9 * self.N**3)),
            "tune: winner's result != numpy fftn",
        )
        checks.check(stats.makespan == res.makespan,
                     "tune: reported makespan != winner's makespan when re-run")
        checks.check(res.makespan <= res.baseline_makespan,
                     "tune: winner worse than the input program")
        checks.check(bool(res.semantics_preserved), "tune: semantics not preserved")
        counts = {
            "tune.space_points": res.space_size,
            "tune.scored": res.candidates_considered,
            "tune.evaluated": res.evaluated,
            "tune.shortlist_frac": res.shortlist_size / res.candidates_considered,
            "tune.rank_corr": res.rank_correlation,
        }
        return Iteration(
            makespan_vt=stats.makespan, messages=stats.total_messages,
            bytes_moved=stats.total_bytes,
            digest=digest_of(res.makespan, res.realization,
                             [c.key for c in res.phase_layouts], got),
            result_digest=digest_of(got),
            counts=counts,
        )

    def alt_run(self, backend: str):
        return None  # a tuner call has no separate run phase


WORKLOADS = {
    "fft3d-own": fft3d_own,
    "fft3d-cyclic": fft3d_cyclic,
    "jacobi-halo": jacobi_halo,
    "matmul-coll": matmul_coll,
    "workqueue-effects": Workqueue,
    "tune-fft3d": Tune,
}
