"""Distributed matrix-multiply suite exercising the collective subsystem.

Four variants of ``C = A @ B`` on the linear processor array, together
covering every collective IL primitive plus the legacy point-to-point
path they coexist with:

* **cannon** — the 1-D ring variant of Cannon's algorithm: every
  processor starts holding its own block-row of ``B`` in a rotating
  buffer, multiplies the block it currently holds against the matching
  column panel of ``A``, and shifts the buffer one hop left around the
  ring with explicit ``->``/``<-`` value transfers.  Pure point-to-point
  — the interop baseline that collectives must coexist with.
* **summa** — the 1-D SUMMA formulation: ``A`` arrives distributed by
  *column* blocks and is transposed to row blocks with one
  ``all_to_all``, then each of the ``P`` outer steps broadcasts the
  ``k``-th block-row of ``B`` from its owner (a loop-dependent
  ``root k``) and accumulates a panel product.
* **gather** — ``allgather`` replicates every block-row of ``B`` onto
  all processors, then one local ``gemm_acc`` per processor finishes.
* **outer** — every processor forms a full rank-``b`` outer-product
  partial ``A[:, cols(p)] @ B[rows(p), :]`` and a ``reduce_scatter``
  sums the partials while scattering row-blocks of ``C`` to their
  owners.

All variants produce bit-identical results across the ``msg``/``shmem``
backends, whichever broadcast schedule (flat or binomial tree) the group
size picks: every schedule resolves the same chunks and the reduction
order is canonical (cyclic group order, own contribution last), so even
float summation associates identically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..core.codegen import lower
from ..machine.model import MachineModel
from ..machine.stats import RunStats
from ..core.ir.parser import parse_program

__all__ = ["VARIANTS", "MatmulResult", "matmul_source", "run_matmul"]

VARIANTS = ("cannon", "summa", "gather", "outer")


def _cannon(n: int, P: int, b: int) -> str:
    return f"""\
array A[1:{n},1:{n}] dist (BLOCK, *) seg ({b}, {n})
array V[1:{P},1:{b},1:{n}] dist (BLOCK, *, *) seg (1, {b}, {n})
array C[1:{n},1:{n}] dist (BLOCK, *) seg ({b}, {n})
scalar k = 0
scalar l = 0
scalar r = 0

do s = 0, {P - 1}
  await(V[mypid, 1:{b}, 1:{n}])
  k = (mypid - 1 + s) % {P} + 1
  call gemm_acc(C[(mypid-1)*{b}+1:mypid*{b}, 1:{n}], A[(mypid-1)*{b}+1:mypid*{b}, (k-1)*{b}+1:k*{b}], V[mypid, 1:{b}, 1:{n}])
  s < {P - 1} : {{
    l = (mypid - 2 + {P}) % {P} + 1
    r = mypid % {P} + 1
    V[mypid, 1:{b}, 1:{n}] -> {{l}}
    V[mypid, 1:{b}, 1:{n}] <- V[r, 1:{b}, 1:{n}]
  }}
enddo
"""


def _summa(n: int, P: int, b: int) -> str:
    return f"""\
array A0[1:{n},1:{n}] dist (*, BLOCK) seg ({n}, {b})
array A[1:{n},1:{n}] dist (BLOCK, *) seg ({b}, {n})
array B[1:{n},1:{n}] dist (BLOCK, *) seg ({b}, {n})
array W[1:{P},1:{b},1:{n}] dist (BLOCK, *, *) seg (1, {b}, {n})
array C[1:{n},1:{n}] dist (BLOCK, *) seg ({b}, {n})

coll all_to_all(g, d in 1:{P}) A0[(d-1)*{b}+1:d*{b}, (g-1)*{b}+1:g*{b}] into A[(d-1)*{b}+1:d*{b}, (g-1)*{b}+1:g*{b}]
do k = 1, {P}
  coll broadcast(d in 1:{P}, root k) B[(k-1)*{b}+1:k*{b}, 1:{n}] into W[d, 1:{b}, 1:{n}]
  call gemm_acc(C[(mypid-1)*{b}+1:mypid*{b}, 1:{n}], A[(mypid-1)*{b}+1:mypid*{b}, (k-1)*{b}+1:k*{b}], W[mypid, 1:{b}, 1:{n}])
enddo
"""


def _gather(n: int, P: int, b: int) -> str:
    return f"""\
array A[1:{n},1:{n}] dist (BLOCK, *) seg ({b}, {n})
array B[1:{n},1:{n}] dist (BLOCK, *) seg ({b}, {n})
array BW[1:{P},1:{n},1:{n}] dist (BLOCK, *, *) seg (1, {n}, {n})
array C[1:{n},1:{n}] dist (BLOCK, *) seg ({b}, {n})

coll allgather(g, d in 1:{P}) B[(g-1)*{b}+1:g*{b}, 1:{n}] into BW[d, (g-1)*{b}+1:g*{b}, 1:{n}]
call gemm_acc(C[(mypid-1)*{b}+1:mypid*{b}, 1:{n}], A[(mypid-1)*{b}+1:mypid*{b}, 1:{n}], BW[mypid, 1:{n}, 1:{n}])
"""


def _outer(n: int, P: int, b: int) -> str:
    return f"""\
array A0[1:{n},1:{n}] dist (*, BLOCK) seg ({n}, {b})
array B[1:{n},1:{n}] dist (BLOCK, *) seg ({b}, {n})
array Z[1:{P},1:{n},1:{n}] dist (BLOCK, *, *) seg (1, {n}, {n})
array SCR[1:{P},1:{b},1:{n}] dist (BLOCK, *, *) seg (1, {b}, {n})
array C[1:{n},1:{n}] dist (BLOCK, *) seg ({b}, {n})

call gemm_acc(Z[mypid, 1:{n}, 1:{n}], A0[1:{n}, (mypid-1)*{b}+1:mypid*{b}], B[(mypid-1)*{b}+1:mypid*{b}, 1:{n}])
coll reduce_scatter(g, d in 1:{P}, op +) Z[g, (d-1)*{b}+1:d*{b}, 1:{n}] into C[(d-1)*{b}+1:d*{b}, 1:{n}] via SCR[d, 1:{b}, 1:{n}]
"""


_SOURCES = {
    "cannon": _cannon,
    "summa": _summa,
    "gather": _gather,
    "outer": _outer,
}


def matmul_source(n: int, nprocs: int, variant: str) -> str:
    """IL+XDP source of one matmul variant (``n`` a multiple of ``nprocs``)."""
    if variant not in _SOURCES:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if n % nprocs != 0:
        raise ValueError(f"n ({n}) must be a multiple of nprocs ({nprocs})")
    return _SOURCES[variant](n, nprocs, n // nprocs)


@dataclass
class MatmulResult:
    """One variant's execution record."""

    variant: str
    n: int
    nprocs: int
    stats: RunStats
    correct: bool
    #: sha256 of the result bytes — the cross-backend bit-identity
    #: witness.
    digest: str
    result: np.ndarray | None = None

    @property
    def makespan(self) -> float:
        return self.stats.makespan

    @property
    def messages(self) -> int:
        return self.stats.total_messages


def run_matmul(
    n: int,
    nprocs: int,
    variant: str = "summa",
    *,
    model: MachineModel | None = None,
    seed: int = 11,
    backend: str | None = None,
) -> MatmulResult:
    """Run one variant end-to-end and validate against ``a0 @ b0``."""
    src = matmul_source(n, nprocs, variant)
    program = parse_program(src)
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal((n, n))
    b0 = rng.standard_normal((n, n))
    runner = lower(program, nprocs, model=model, backend=backend)
    bsz = n // nprocs
    if variant == "cannon":
        runner.write_global("A", a0)
        runner.write_global("V", np.stack([
            b0[p * bsz:(p + 1) * bsz, :] for p in range(nprocs)
        ]))
    elif variant == "summa":
        runner.write_global("A0", a0)
        runner.write_global("B", b0)
    elif variant == "gather":
        runner.write_global("A", a0)
        runner.write_global("B", b0)
    else:  # outer
        runner.write_global("A0", a0)
        runner.write_global("B", b0)
    stats = runner.run()
    got = runner.read_global("C")
    want = a0 @ b0
    return MatmulResult(
        variant=variant,
        n=n,
        nprocs=nprocs,
        stats=stats,
        correct=bool(np.allclose(got, want, atol=1e-9 * n)),
        digest=hashlib.sha256(np.ascontiguousarray(got).tobytes()).hexdigest(),
        result=got,
    )
