"""The whole optimizer, gated over generated programs (ROADMAP 1(c)).

Every program of the fuzz ``translated`` family (``A[i] = A[i] + B[i-k]``,
192 parameter combinations, both translation strategies) goes through
-O0 and -O2 on both bindings: -O2 must compute bit-for-bit what -O0
computes, be communication-safe by the static verifier, and be no
slower.  The owner-computes half runs through communication sets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analysis.verify_comm import verify_communication
from repro.core.codegen.lower import lower
from repro.core.ir.parser import parse_program
from repro.core.opt import optimize
from repro.core.translate import translate

from .fuzz.gen_programs import translated_family

FAMILY = translated_family()


def _run(program, nprocs, backend, inputs):
    cp = lower(program, nprocs, backend=backend)
    for name, values in inputs.items():
        cp.write_global(name, values)
    stats = cp.run()
    return stats.makespan, [cp.read_global(name).tobytes() for name in inputs]


def test_family_is_every_parameter_combination():
    assert len(FAMILY) == len(set(FAMILY)) == 192


@pytest.mark.parametrize("backend", ["msg", "shmem"])
def test_o2_equals_o0_verifies_and_is_no_slower(backend):
    failures = []
    fired = 0
    for k, (source, nprocs) in enumerate(FAMILY):
        program = parse_program(source)
        rng = np.random.default_rng(k)
        inputs = {d.name: rng.standard_normal(d.shape)
                  for d in program.array_decls() if d.name in ("A", "B")}
        o0 = optimize(program, nprocs, level=0, backend=backend).program
        o2 = optimize(program, nprocs, level=2, backend=backend)
        fired += any(r.startswith("communication-sets: moved") for r in o2.reports)
        (t0, r0), (t2, r2) = (_run(p, nprocs, backend, inputs)
                              for p in (o0, o2.program))
        if r2 != r0:
            failures.append(f"#{k}: result differs")
        if t2 > t0:
            failures.append(f"#{k}: O2 makespan {t2} > O0 {t0}")
        report = verify_communication(o2.program, nprocs, backend=backend)
        if not report.ok:
            failures.append(f"#{k}: {report.format()}")
    assert not failures, "\n".join(failures)
    assert fired == 96  # every owner-computes program


#: A stencil whose user names are the ones a partner loop (``do d``/``do
#: s``) or the value moves' ``b * mypid`` scalar (``_W1``) would take.
HYGIENE = """array A[1:32] dist (BLOCK) seg (1)
array B[1:32] dist (BLOCK) seg (1)
scalar d = 2
scalar s = 3
scalar _W1 = 5

do d = 1, 2
  do i = 2, 31
    B[i] = (A[i-1] + A[i+1]) / s + _W1
  enddo
  do i = 2, 31
    A[i] = B[i] + d
  enddo
enddo
"""


@pytest.mark.parametrize("backend", ["msg", "shmem"])
def test_user_names_d_s_and_w1_do_not_capture_the_value_moves(backend):
    program = translate(parse_program(HYGIENE), 4)
    inputs = {"A": np.random.default_rng(5).standard_normal(32), "B": np.zeros(32)}
    o0 = optimize(program, 4, level=0, backend=backend).program
    o2 = optimize(program, 4, level=2, backend=backend)
    assert any(r.startswith("communication-sets: moved") for r in o2.reports)
    (_, r0), (_, r2) = (_run(p, 4, backend, inputs) for p in (o0, o2.program))
    assert r2 == r0
    report = verify_communication(o2.program, 4, backend=backend)
    assert report.ok and not report.findings, report.format()
