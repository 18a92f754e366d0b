"""Jacobi-style 1-D relaxation: the classic owner-computes workload.

Three variants of ``B[i] = (A[i-1] + A[i] + A[i+1]) / 3`` sweeps over a
``BLOCK``-distributed vector:

* **naive** — the sequential loop put through the owner-computes
  translator: one message per right-hand-side element reference per
  sweep (three temporaries, mostly self-transfers).  At -O1/-O2
  communication sets (:mod:`repro.core.opt.comm_sets`) read ``A[i]`` in
  place and receive only β∖α, the one halo element per neighbour, into
  two buffers before each sweep: the halo variant's 2(P-1) messages per
  sweep, at n=256 P=4 within 1.4x its makespan;
* **halo** — compiler-style halo exchange written by hand: each processor
  sends its boundary elements to its neighbours once per sweep (2
  messages per interior processor), receives into per-processor halo
  slots, and computes locally, interior and boundary iterations split
  (the index-set splitting the optimizer does not do yet);
* **halo-overlap** — the same exchange, but the strictly-interior points
  are computed *before* awaiting the halos, overlapping communication
  with computation (the separation the paper's key idea 1 enables).

All variants are IL+XDP programs built as text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.codegen import lower
from ..core.ir.parser import parse_program
from ..core.translate import translate
from ..machine.model import MachineModel
from ..machine.stats import RunStats

__all__ = ["jacobi_source", "run_jacobi", "JacobiResult", "VARIANTS"]

VARIANTS = ("naive", "halo", "halo-overlap")


def _block_bounds(n: int, nprocs: int) -> list[tuple[int, int]]:
    bs = -(-n // nprocs)
    out = []
    for p in range(nprocs):
        lo = 1 + p * bs
        hi = min(n, lo + bs - 1)
        out.append((lo, hi))
    return out


def _sequential(n: int, sweeps: int) -> str:
    return f"""array A[1:{n}] dist (BLOCK) seg (1)
array B[1:{n}] dist (BLOCK) seg (1)

do t = 1, {sweeps}
  do i = 2, {n - 1}
    B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0
  enddo
  do i = 2, {n - 1}
    A[i] = B[i]
  enddo
enddo
"""


def _halo(n: int, nprocs: int, sweeps: int, *, overlap: bool) -> str:
    bounds = _block_bounds(n, nprocs)
    seg = bounds[0][1] - bounds[0][0] + 1
    lines: list[str] = [
        f"array A[1:{n}] dist (BLOCK) seg ({seg})",
        f"array B[1:{n}] dist (BLOCK) seg ({seg})",
        f"array HL[1:{nprocs}] dist (BLOCK) seg (1)",
        f"array HR[1:{nprocs}] dist (BLOCK) seg (1)",
        "",
        f"do t = 1, {sweeps}",
    ]

    def emit(text: str) -> None:
        lines.append("  " + text)

    # Boundary sends with bound destinations (compiler-known BLOCK bounds).
    for p1 in range(1, nprocs + 1):
        lo, hi = bounds[p1 - 1]
        if lo > hi:
            continue
        if p1 > 1:
            emit(f"mypid == {p1} : {{ A[{lo}] -> {{{p1 - 1}}} }}")
        if p1 < nprocs:
            emit(f"mypid == {p1} : {{ A[{hi}] -> {{{p1 + 1}}} }}")
    # Halo receives.
    for p1 in range(1, nprocs + 1):
        lo, hi = bounds[p1 - 1]
        if lo > hi:
            continue
        if p1 > 1:
            nb_hi = bounds[p1 - 2][1]
            emit(f"mypid == {p1} : {{ HL[{p1}] <- A[{nb_hi}] }}")
        if p1 < nprocs:
            nb_lo = bounds[p1][0]
            emit(f"mypid == {p1} : {{ HR[{p1}] <- A[{nb_lo}] }}")

    def interior(p1: int) -> None:
        lo, hi = bounds[p1 - 1]
        ilo, ihi = max(2, lo + 1), min(n - 1, hi - 1)
        if ilo <= ihi:
            emit(f"mypid == {p1} : {{")
            emit(f"  do i = {ilo}, {ihi}")
            emit("    B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0")
            emit("  enddo")
            emit("}")

    def boundary(p1: int) -> None:
        lo, hi = bounds[p1 - 1]
        if lo > hi:
            return
        parts = []
        if p1 > 1 and lo >= 2:
            parts.append(f"await(HL[{p1}])")
            parts.append(f"B[{lo}] = (HL[{p1}] + A[{lo}] + A[{lo + 1}]) / 3.0")
        if p1 < nprocs and hi <= n - 1:
            parts.append(f"await(HR[{p1}])")
            parts.append(f"B[{hi}] = (A[{hi - 1}] + A[{hi}] + HR[{p1}]) / 3.0")
        if parts:
            emit(f"mypid == {p1} : {{")
            for s in parts:
                emit("  " + s)
            emit("}")

    if overlap:
        # Interior first: communication in flight while computing.
        for p1 in range(1, nprocs + 1):
            interior(p1)
        for p1 in range(1, nprocs + 1):
            boundary(p1)
    else:
        for p1 in range(1, nprocs + 1):
            boundary(p1)
        for p1 in range(1, nprocs + 1):
            interior(p1)

    # Local copy-back.
    emit(f"do i = max(2, mylb(A[*], 1)), min({n - 1}, myub(A[*], 1))")
    emit("  A[i] = B[i]")
    emit("enddo")
    lines.append("enddo")
    return "\n".join(lines) + "\n"


def jacobi_source(n: int, nprocs: int, sweeps: int, variant: str):
    """IL+XDP source (or a Program for the translated naive variant)."""
    if variant == "naive":
        return translate(parse_program(_sequential(n, sweeps)), nprocs)
    if variant == "halo":
        return parse_program(_halo(n, nprocs, sweeps, overlap=False))
    if variant == "halo-overlap":
        return parse_program(_halo(n, nprocs, sweeps, overlap=True))
    raise ValueError(f"unknown variant {variant!r}; pick from {VARIANTS}")


@dataclass
class JacobiResult:
    variant: str
    n: int
    nprocs: int
    sweeps: int
    stats: RunStats
    correct: bool
    #: Final global contents of ``A`` (for cross-backend digest checks).
    result: np.ndarray | None = None

    @property
    def makespan(self) -> float:
        return self.stats.makespan

    @property
    def messages(self) -> int:
        return self.stats.total_messages


def _reference(a0: np.ndarray, sweeps: int) -> np.ndarray:
    a = a0.copy()
    for _ in range(sweeps):
        b = a.copy()
        b[1:-1] = (a[:-2] + a[1:-1] + a[2:]) / 3.0
        a = b
    return a


def run_jacobi(
    n: int,
    nprocs: int,
    sweeps: int,
    variant: str,
    *,
    model: MachineModel | None = None,
    seed: int = 11,
    backend: str | None = None,
) -> JacobiResult:
    """Run one variant end-to-end and validate against the numpy sweep."""
    program = jacobi_source(n, nprocs, sweeps, variant)
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal(n)
    runner = lower(program, nprocs, model=model, backend=backend)
    runner.write_global("A", a0)
    runner.write_global("B", np.zeros(n))
    stats = runner.run()
    got = runner.read_global("A")
    want = _reference(a0, sweeps)
    return JacobiResult(
        variant=variant,
        n=n,
        nprocs=nprocs,
        sweeps=sweeps,
        stats=stats,
        correct=bool(np.allclose(got, want)),
        result=got,
    )
