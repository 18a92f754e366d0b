"""Unit tests for the code generator / VM path (paper section 3.2)."""

import numpy as np
import pytest

from repro.core.codegen import CompiledProgram, lower
from repro.core.errors import (
    CompilationError, DeadlockError, OwnershipError, VerificationError,
    XDPError,
)
from repro.core.ir.parser import parse_program
from repro.core.ir.verify import verify_program
from repro.core.opt import optimize
from repro.core.translate import translate
from repro.machine import MachineModel

FAST = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)

SEQ = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (CYCLIC) seg (1)
scalar n = 8

do i = 1, n
  A[i] = A[i] + B[i]
enddo
"""


def run_vm(program, nprocs=4, init=None, binding="nonblocking"):
    cp = lower(program, nprocs, model=FAST, binding=binding)
    for name, arr in (init or {}).items():
        cp.write_global(name, np.asarray(arr, dtype=float))
    return cp, cp.run()


class TestVMAgreement:
    """The lowered VM against hand-computed results."""

    @pytest.mark.parametrize("strategy,messages", [
        ("owner-computes", 8), ("migrate", 6),
    ], ids=["owner-computes", "migrate"])
    def test_translated_programs(self, strategy, messages):
        prog = translate(parse_program(SEQ), 4, strategy=strategy)
        cp, stats = run_vm(prog, init={"A": np.arange(8.0), "B": np.ones(8)})
        assert np.array_equal(cp.read_global("A"), np.arange(8.0) + 1)
        assert stats.total_messages == messages

    def test_optimized_program(self):
        prog = optimize(translate(parse_program(SEQ), 4), 4).program
        cp, stats = run_vm(prog, init={"A": np.arange(8.0), "B": np.ones(8)})
        assert np.array_equal(cp.read_global("A"), np.arange(8.0) + 1)
        assert stats.total_messages == 6

    def test_control_flow(self):
        src = """
array A[1:8] dist (BLOCK) seg (1)
scalar k = 0

do i = 1, 8
  if i % 2 == 0 then
    k = k + 1
  else
    k = k - 1
  endif
  iown(A[i]) : { A[i] = k }
enddo
"""
        cp, _ = run_vm(parse_program(src), init={"A": np.zeros(8)})
        assert np.array_equal(cp.read_global("A"), [-1, 0] * 4)

    def test_negative_step_loop(self):
        src = """
array A[1:8] dist (BLOCK) seg (1)

do i = 8, 1, -1
  iown(A[i]) : { A[i] = i * i }
enddo
"""
        cp, _ = run_vm(parse_program(src), init={"A": np.zeros(8)})
        assert np.array_equal(cp.read_global("A"), np.arange(1, 9) ** 2)

    def test_intrinsics_and_bounds(self):
        src = """
array A[1:16] dist (BLOCK) seg (4)

do i = max(1, mylb(A[*], 1)), min(16, myub(A[*], 1))
  A[i] = mypid * 100 + i
enddo
"""
        cp, _ = run_vm(parse_program(src), init={"A": np.zeros(16)})
        i = np.arange(1, 17)
        assert np.array_equal(cp.read_global("A"), ((i - 1) // 4 + 1) * 100 + i)

    def test_kernel_call(self):
        src = """
array F[1:8] dist (BLOCK) seg (8) dtype complex128

iown(F[1:8]) : { call fft1D(F[1:8]) }
"""
        cp = lower(parse_program(src), 1, model=FAST)
        x = np.arange(8.0) + 0j
        cp.write_global("F", x)
        cp.run()
        assert np.allclose(cp.read_global("F"), np.fft.fft(x))


#: P1 sends A[1] (= 5) to P2's A[2]; then a rule or ``if`` over ``await``.
AWAIT_HEAD = """
array A[1:2] dist (BLOCK) seg (1)
array B[1:2] dist (BLOCK) seg (1)

mypid == 1 : { A[1] -> {2} }
mypid == 2 : { A[2] <- A[1] }
"""


class TestAwaitLowering:
    @pytest.mark.parametrize("tail,b", [
        # P1 does not own A[2]: the await is false, so the rule is true.
        ("not await(A[2]) : { B[mypid] = 10 + mypid }\n"
         "iown(A[2]) : { B[2] = A[2] }\n", [11, 5]),
        ("await(A[2]) or await(A[1]) : { B[mypid] = A[mypid] * mypid }\n",
         [5, 10]),
        ("if await(A[2]) then\n  B[2] = A[2] * 3\nelse\n  B[1] = 1\nendif\n",
         [1, 15]),
        # On P1 the or-branch reads P2's B[2]: the whole rule is false, so
        # the `not` does not turn it true (section 2.4).
        ("await(A[2]) or not (B[2] > 100) : { B[mypid] = 9 }\n", [0, 9]),
    ], ids=["not", "or", "if", "unowned-or"])
    def test_await_in_boolean_positions(self, tail, b):
        """Results and message counts pinned from the tree-walking
        interpreter these forms used to need."""
        cp, stats = run_vm(parse_program(AWAIT_HEAD + tail), 2,
                           init={"A": [5.0, 0.0]})
        assert np.array_equal(cp.read_global("A"), [5, 5])
        assert np.array_equal(cp.read_global("B"), b)
        assert stats.total_messages == 1

    def test_await_rule_without_not_or_keeps_its_instructions(self):
        prog = parse_program(AWAIT_HEAD + "await(A[2]) and mypid == 2 : { B[2] = 1 }\n")
        names = [type(i).__name__ for i in lower(prog, 2).code]
        assert names[-3:] == ["_Wait", "_Branch", "_Exec"]

    def test_await_rule_conjunct(self):
        src = """
array A[1:2] dist (BLOCK) seg (1)

mypid == 1 : { A[1] -> {2} }
mypid == 2 : {
  A[2] <- A[1]
}
await(A[2]) and mypid == 2 : { A[2] = A[2] + 1 }
"""
        prog = parse_program(src)
        cp = lower(prog, 2, model=FAST)
        cp.write_global("A", np.array([5.0, 0.0]))
        cp.run()
        assert cp.read_global("A")[1] == 6.0

    def test_nested_await_rejected(self):
        src = """
array A[1:2] dist (BLOCK) seg (1)
scalar x

x = await(A[1]) + 1
"""
        prog = parse_program(src)
        with pytest.raises(VerificationError, match=r"'x = await\(A\[1\]\) \+ 1'"):
            verify_program(prog)
        with pytest.raises(CompilationError, match="await"):
            lower(prog, 2)

    def test_await_false_when_unowned_skips(self):
        src = """
array A[1:4] dist (BLOCK) seg (1)

do i = 1, 4
  await(A[i]) : { A[i] = 9 }
enddo
"""
        prog = parse_program(src)
        cp = lower(prog, 4, model=FAST)
        cp.run()
        assert np.all(cp.read_global("A") == 9.0)


class TestBinding:
    def test_blocking_binding_still_correct(self):
        prog = translate(parse_program(SEQ), 4)
        cp, _ = run_vm(
            prog, init={"A": np.zeros(8), "B": np.ones(8)}, binding="blocking"
        )
        assert np.array_equal(cp.read_global("A"), np.ones(8))

    def test_blocking_binding_slower(self):
        prog = translate(parse_program(SEQ), 4)
        cp_nb = lower(prog, 4, model=FAST, binding="nonblocking")
        cp_bl = lower(prog, 4, model=FAST, binding="blocking")
        for cp in (cp_nb, cp_bl):
            cp.write_global("A", np.zeros(8))
            cp.write_global("B", np.ones(8))
        s_nb = cp_nb.run()
        s_bl = cp_bl.run()
        assert s_bl.makespan >= s_nb.makespan

    def test_unknown_binding_rejected(self):
        prog = parse_program("array A[1:2] dist (BLOCK) seg (1)\n")
        with pytest.raises(CompilationError):
            lower(prog, 2, binding="rendezvous")


class TestVMDiagnostics:
    def test_deadlock_detected(self):
        src = """
array A[1:2] dist (BLOCK) seg (1)

mypid == 2 : {
  A[2] <- A[1]
  await(A[2])
}
"""
        prog = parse_program(src)
        cp = lower(prog, 2, model=FAST)
        with pytest.raises(DeadlockError):
            cp.run()

    def test_read_global_requires_total_ownership(self):
        src = """
array A[1:2] dist (BLOCK) seg (1)

mypid == 1 : { A[1] -=> }
"""
        prog = parse_program(src)
        cp = lower(prog, 2, model=FAST)
        cp.run()
        with pytest.raises(OwnershipError, match="unowned"):
            cp.read_global("A")

    @pytest.mark.parametrize("name", ["A", "W"])
    def test_write_global_checks_shape(self, name):
        prog = parse_program("array A[1:4] dist (BLOCK) seg (1)\n"
                             "array W[1:4] universal\n")
        cp = lower(prog, 2)
        with pytest.raises(ValueError, match=rf"{name} expects shape \(4,\), got \(7,\)"):
            cp.write_global(name, np.zeros(7))

    def test_read_global_of_universal_array(self):
        cp = lower(parse_program("array W[1:4] universal\n"), 2)
        with pytest.raises(ValueError, match="W is universal; copies differ"):
            cp.read_global("W")

    def test_scalar_initializer_sees_only_earlier_scalars(self):
        cp = lower(parse_program("scalar a = b + 1\nscalar b = 2\n"), 1)
        with pytest.raises(XDPError, match="undefined scalar 'b'"):
            cp.run()
        cp = lower(parse_program("scalar b = 2\nscalar a = b + 1\n"
                                 "array A[1:1] dist (BLOCK) seg (1)\n"
                                 "A[1] = a\n"), 1)
        cp.run()
        assert cp.read_global("A")[0] == 3
