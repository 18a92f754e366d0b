"""A3 — ablation: message vectorization (paper section 2.2).

"Even if they cannot be eliminated, the compiler may be able to move them
out of the computation loop and combine or vectorize the messages."

Two views of the same effect, both from the communication-sets pass
(``repro.core.opt.comm_sets``: each processor receives β∖α, what it
needs minus what it owns):

* the §2.2 loop — per-element messages (O(n)) versus per-processor-pair
  messages (O(P²), constant in n);
* the Jacobi stencil — the naive translation at -O2 against the
  hand-written halo exchange: both send 2(P-1) messages per sweep.
"""

import numpy as np
from conftest import emit

from repro import Interpreter, MachineModel, optimize, parse_program, translate
from repro.apps.jacobi import _reference, jacobi_source, run_jacobi
from repro.core.opt import Cleanup, CommunicationSets, PassManager

NPROCS = 4
MODEL = MachineModel()

SRC = """
array A[1:{n}] dist (BLOCK) seg (1)
array B[1:{n}] dist (CYCLIC) seg (1)
scalar n = {n}

do i = 1, n
  A[i] = A[i] + B[i]
enddo
"""


def run(program, n):
    it = Interpreter(program, NPROCS, model=MODEL)
    a0 = np.zeros(n)
    b0 = np.arange(float(n))
    it.write_global("A", a0)
    it.write_global("B", b0)
    stats = it.run()
    assert np.array_equal(it.read_global("A"), b0)
    return stats


def jacobi_o2(n, sweeps):
    """Naive Jacobi through the -O2 pipeline, checked against numpy."""
    program = optimize(jacobi_source(n, NPROCS, sweeps, "naive"), NPROCS).program
    a0 = np.random.default_rng(11).standard_normal(n)
    it = Interpreter(program, NPROCS, model=MODEL)
    it.write_global("A", a0)
    stats = it.run()
    assert np.allclose(it.read_global("A"), _reference(a0, sweeps))
    return stats


def variants(n):
    naive = translate(parse_program(SRC.format(n=n)), NPROCS)
    vec = PassManager([CommunicationSets(), Cleanup()]).run(naive, NPROCS).program
    return naive, vec


def test_a3_vectorization_sweep(benchmark):
    rows = []
    for n in (16, 64, 256):
        naive, vec = variants(n)
        s_n = run(naive, n)
        s_v = run(vec, n)
        rows.append([
            n, s_n.total_messages, s_v.total_messages,
            f"{s_n.makespan:.0f}", f"{s_v.makespan:.0f}",
            f"{s_n.makespan / s_v.makespan:.1f}x",
        ])
    emit(
        "A3 / section 2.2 — message vectorization (BLOCK vs CYCLIC operands)",
        ["n", "naive msgs", "vectorized msgs", "naive time", "vec time",
         "speedup"],
        rows,
    )
    # Vectorized message count is bounded by processor pairs, not n.
    _, vec = variants(256)
    assert run(vec, 256).total_messages <= NPROCS * (NPROCS - 1)
    assert run(variants(256)[0], 256).total_messages == 256

    halo = run_jacobi(128, NPROCS, 2, "halo", model=MODEL)
    naive_j = run_jacobi(128, NPROCS, 2, "naive", model=MODEL)
    o2 = jacobi_o2(128, 2)
    rows2 = [[
        "jacobi n=128, 2 sweeps", naive_j.messages, o2.total_messages,
        halo.messages, f"{naive_j.makespan:.0f}", f"{o2.makespan:.0f}",
        f"{halo.makespan:.0f}",
    ]]
    emit(
        "A3 / stencil — naive translation at O0 and O2 vs halo exchange",
        ["workload", "naive msgs", "naive O2 msgs", "halo msgs", "naive time",
         "naive O2 time", "halo time"],
        rows2,
    )
    assert halo.messages < naive_j.messages / 10
    assert o2.total_messages == halo.messages
    benchmark.pedantic(lambda: run(variants(64)[1], 64), rounds=1, iterations=1)


def test_a3_vectorized_bench(benchmark):
    _, vec = variants(64)
    stats = benchmark(run, vec, 64)
    benchmark.extra_info["messages"] = stats.total_messages


def test_a3_naive_bench(benchmark):
    naive, _ = variants(64)
    stats = benchmark(run, naive, 64)
    benchmark.extra_info["messages"] = stats.total_messages
