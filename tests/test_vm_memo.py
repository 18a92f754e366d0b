"""The VM's section closures memoize per environment without changing what
a program computes or charges (docs/ENGINE.md "Section closures").

A memoized closure is keyed on the int values of the scalars its
subscripts read (plus ``mypid`` where read), stores ``(Section, flops)``
and charges the same flops on a hit; it never stores an error, and its
memo is emptied when ``run()`` returns or raises.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.codegen.lower import lower
from repro.core.errors import EmptySectionError
from repro.core.ir.parser import parse_program
from repro.core.opt.passmanager import optimize

LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "programs"
BACKENDS = ["msg", "shmem"]

#: `x` is -7 on the first trip and -7.0 on the second: equal as dict keys,
#: but `/` floors the int (-4) and not the float (-3.5), so the subscript
#: is 4, then 5.  With A = iota, A[1] ends 1 + 4 + 5.
INT_VS_FLOAT = """\
array A[1:20] dist (BLOCK) seg (5)
scalar x = 0
scalar y = 0
do t = 1, 2
  t == 1 : { x = -7 }
  t == 2 : { x = -7.0 }
  mypid == 1 : {
    y = A[(x/2)*2 + 12]
    A[1] = A[1] + y
  }
enddo
"""


def _compiled(text: str, nprocs: int, backend: str):
    return lower(parse_program(text), nprocs, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_float_never_shares_an_int_key(backend):
    cp = _compiled(INT_VS_FLOAT, 4, backend)
    cp.write_global("A", np.arange(1.0, 21.0))
    cp.run()
    # A key on the value alone would read A[4] twice: 9.
    assert cp.read_global("A")[0] == 10.0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("ref", ["A[k:1]", "A[5:1]"])
def test_an_empty_triplet_raises_on_every_evaluation(backend, ref):
    # A scalar-keyed and a constant section: neither stores the error.
    cp = _compiled("array A[1:8] dist (BLOCK) seg (2)\nscalar k = 5\n"
                   f"do t = 1, 3\n  iown({ref}) : {{ {ref} = 1.0 }}\nenddo\n",
                   2, backend)
    messages = []
    for _ in range(2):
        with pytest.raises(EmptySectionError) as exc:
            cp.run()
        messages.append(str(exc.value))
        assert not any(cp._memos)
    assert messages == [f"P1: {ref} names no element (triplet 5:1:1)"] * 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_second_run_is_identical_and_memos_die_with_each_run(backend):
    program = optimize(parse_program((LEDGER / "matmul_summa.xdp").read_text()),
                       16, level=2).program
    cp = lower(program, 16, backend=backend)
    rng = np.random.default_rng(3)
    inputs = {"A0": rng.standard_normal((64, 64)),
              "B": rng.standard_normal((64, 64)), "C": np.zeros((64, 64))}
    runs = []
    for _ in range(2):
        for var, values in inputs.items():
            cp.write_global(var, values)
        runs.append((cp.run(), cp.read_global("C")))
        assert cp._memos and not any(cp._memos)
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])
    np.testing.assert_allclose(runs[0][1], inputs["A0"] @ inputs["B"], atol=1e-9)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_scalar_holding_a_section_charges_per_element(backend):
    def p1_flops(rhs: str) -> tuple[int, np.ndarray]:
        cp = _compiled("array A[1:2] dist (BLOCK) seg (2)\nscalar x = 0\n"
                       f"x = A[1:2]\nA[1:2] = {rhs}\n", 1, backend)
        cp.write_global("A", np.array([1.0, 2.0]))
        flops = cp.run().procs[0].flops
        return flops, cp.read_global("A")

    plain, _ = p1_flops("x")
    plus, after = p1_flops("x + 1")
    assert plus - plain == 2
    assert after.tolist() == [2.0, 3.0]
