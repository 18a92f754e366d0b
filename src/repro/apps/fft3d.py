"""The paper's 3-D FFT application (section 4, Figure 4).

A complex cube ``A[1:n,1:n,1:n]`` starts distributed ``(*,*,BLOCK)`` over a
linear array of processors: processor ``p`` owns whole ``k``-planes.  The
3-D FFT applies a 1-D FFT along ``j``, then ``i`` (both local), then must
redistribute to ``(*,BLOCK,*)`` so the ``k``-direction FFTs are local too.
The paper walks this program through three optimization stages:

* **stage 0 — naive**: every loop guarded by ``iown``/``await`` compute
  rules, the redistribution a separate loop of ``-=>``/``<=-`` ownership
  transfers (the paper's first listing);
* **stage 1 — localized**: compute rules eliminated, loops collapsed to
  the iterations each processor owns (second listing);
* **stage 2 — pipelined**: the sends fused into the ``i``-direction loop
  and the final ``await`` sunk into the ``k``-direction loop, overlapping
  redistribution with computation (third listing).

For ``n == nprocs`` stage 0 is the paper's first listing and stages 1 and 2
are what the optimizer makes of it at -O1 and -O2: the paper's second and
third listings, statement for statement (``tests/data`` holds those
listings as goldens, and ``tests/test_paper_listings.py`` diffs them).  For
``n`` a multiple of ``nprocs`` the compiler generalizes them: stage 0's
Loop3 is :mod:`repro.core.redistgen`'s closed-form output for the
compile-time :class:`~repro.distributions.RedistributionPlan` (the paper's
"auxiliary data structure … that links the ``-=>`` and ``<=-``
statements"), and stages 1 and 2 are the tuner's ``bulk`` and
``pipelined`` programs for ``PAPER_LAYOUTS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.codegen import lower
from ..core.ir.parser import parse_program
from ..machine.model import MachineModel
from ..machine.stats import RunStats

__all__ = [
    "fft3d_source",
    "run_fft3d",
    "FFTResult",
    "STAGES",
]

STAGES = (0, 1, 2)

#: The tuner realization of each generated stage.
_REALIZATION = {1: "bulk", 2: "pipelined"}


#: The section-4 placement of each phase (the j-, i- and k-direction
#: FFTs): the repartition comes before the k-direction FFT.
PAPER_LAYOUTS = ("(*, *, BLOCK)", "(*, *, BLOCK)", "(*, BLOCK, *)")


def _decl(n: int) -> str:
    return (f"array A[1:{n},1:{n},1:{n}] dist (*, *, BLOCK) "
            f"seg ({n},1,1) dtype complex128\n")


def _loop3(n: int, nprocs: int) -> str:
    """Stage 0's redistribution: the paper's loop at n == P, else the
    emitter's statements for the compile-time plan."""
    if n == nprocs:
        return f"""// Loop3: redistribute A as (*,BLOCK,*)
do p = 1, {n}
  iown(A[*,*,p]) : {{
    do m = 1, {n}
      A[*,m,p] -=>
    enddo
    do m = 1, {n}
      A[*,p,m] <=-
    enddo
  }}
enddo"""
    from ..core.redistgen import plan_transfers
    from ..distributions import plan_redistribution
    from ..tune.space import LayoutCandidate, candidate_segmentation

    (decl,) = parse_program(_decl(n)).array_decls()
    plan = plan_redistribution(*(
        candidate_segmentation(decl, LayoutCandidate(spec), nprocs).distribution
        for spec in PAPER_LAYOUTS[1:]))
    return "\n".join(
        ["// Loop3: redistribute A as (*,BLOCK,*) (compiler-generated)"]
        + plan_transfers("A", plan).text())


def _stage0(n: int, nprocs: int) -> str:
    return f"""{_decl(n)}
// Loop1: 1-D FFT in the j direction
do k = 1, {n}
  iown(A[*,*,k]) : {{
    do i = 1, {n}
      call fft1D(A[i,*,k])
    enddo
  }}
enddo
// Loop2: 1-D FFT in the i direction
do k = 1, {n}
  iown(A[*,*,k]) : {{
    do j = 1, {n}
      call fft1D(A[*,j,k])
    enddo
  }}
enddo
{_loop3(n, nprocs)}
// Loop4: 1-D FFT in the k direction
do j = 1, {n}
  await(A[*,j,*]) : {{
    do i = 1, {n}
      call fft1D(A[i,j,*])
    enddo
  }}
enddo
"""


def _derived_stage(n: int, stage: int) -> str:
    """Stage 1 or 2 at ``n == nprocs``: the optimizer's output on stage 0
    at -O1 or -O2, which is the paper's listing (``tests/data`` keeps the
    listings as goldens)."""
    from ..core.ir.printer import print_program
    from ..core.opt import optimize

    derived = optimize(parse_program(_stage0(n, n)), n, level=stage).program
    return print_program(derived)


def _tuned_stage(n: int, nprocs: int, stage: int) -> str:
    """The tuner's ``bulk`` or ``pipelined`` program (stage 1 or 2) for
    the section-4 placements."""
    from ..tune.rewrite import detect_phases, generate_phased_program
    from ..tune.space import LayoutCandidate

    naive = parse_program(_stage0(n, nprocs))
    return generate_phased_program(
        naive, detect_phases(naive),
        [LayoutCandidate(spec) for spec in PAPER_LAYOUTS], nprocs,
        realization=_REALIZATION[stage],
    )


def fft3d_source(n: int, nprocs: int, stage: int) -> str:
    """IL+XDP source of the 3-D FFT at one optimization stage.

    ``n == nprocs`` yields the paper's listing for stage 0, and the
    optimizer derives its stage-1 and stage-2 listings from it (-O1 and
    -O2); otherwise ``n`` must be a multiple of ``nprocs``.  The generalized
    stage 0 is the naive program with Loop3 emitted from the compile-time
    plan; stages 1 and 2 are the tuner's ``bulk`` and ``pipelined``
    programs for the section-4 placements, generated from stage 0.
    """
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}")
    if n < 1 or nprocs < 1:
        raise ValueError(f"n ({n}) and nprocs ({nprocs}) must be positive")
    if n % nprocs != 0:
        raise ValueError(f"n ({n}) must be a multiple of nprocs ({nprocs})")
    if stage == 0:
        return _stage0(n, nprocs)
    if n == nprocs:
        return _derived_stage(n, stage)
    return _tuned_stage(n, nprocs, stage)


@dataclass
class FFTResult:
    """One stage's execution record."""

    stage: int
    n: int
    nprocs: int
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


def run_fft3d(
    n: int,
    nprocs: int,
    stage: int,
    *,
    model: MachineModel | None = None,
    seed: int = 7,
    backend: str | None = None,
) -> FFTResult:
    """Run one stage end-to-end and validate against ``numpy.fft.fftn``."""
    src = fft3d_source(n, nprocs, stage)
    program = parse_program(src)
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    runner = lower(program, nprocs, model=model, backend=backend)
    runner.write_global("A", a0)
    stats = runner.run()
    got = runner.read_global("A")
    want = np.fft.fftn(a0)
    return FFTResult(
        stage=stage,
        n=n,
        nprocs=nprocs,
        stats=stats,
        correct=bool(np.allclose(got, want, atol=1e-9 * n**3)),
        result=got,
    )
