"""Programs on multi-dimensional processor grids.

The paper's example implementation assumes a fixed processor grid (2x2 in
Figures 2/3); these tests run whole IL+XDP programs with 2-D distributions
on 2-D grids, checking the column-major processor numbering end to end.
"""

import numpy as np
import pytest

from repro.core.codegen import lower
from repro import Interpreter
from repro.core.ir.parser import parse_program
from repro.distributions import ProcessorGrid
from repro.machine import MachineModel

FAST = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)


def run(src, grid_shape, init=None, backend=None):
    grid = ProcessorGrid(grid_shape)
    runner = lower(parse_program(src), grid.size, grid=grid, model=FAST,
                   backend=backend)
    for name, arr in (init or {}).items():
        runner.write_global(name, np.asarray(arr, dtype=float))
    stats = runner.run()
    return runner, stats


class TestBlockBlock:
    SRC = """
array A[1:4,1:8] dist (BLOCK, BLOCK) seg (2,1)

iown(A[1:2,1:4]) : { A[1:2,1:4] = mypid }
iown(A[3:4,1:4]) : { A[3:4,1:4] = mypid }
iown(A[1:2,5:8]) : { A[1:2,5:8] = mypid }
iown(A[3:4,5:8]) : { A[3:4,5:8] = mypid }
"""

    def test_column_major_quadrants(self):
        it, _ = run(self.SRC, (2, 2))
        A = it.read_global("A")
        # Paper numbering: P1 top-left, P2 bottom-left, P3 top-right,
        # P4 bottom-right (column-major).
        assert np.all(A[0:2, 0:4] == 1)
        assert np.all(A[2:4, 0:4] == 2)
        assert np.all(A[0:2, 4:8] == 3)
        assert np.all(A[2:4, 4:8] == 4)

    def test_vm_agrees(self):
        """Across transports on a 2-D grid the results are bit-identical."""
        a, _ = run(self.SRC, (2, 2), backend="msg")
        b, _ = run(self.SRC, (2, 2), backend="shmem")
        assert a.read_global("A").tobytes() == b.read_global("A").tobytes()


class TestTranspose2D:
    """A 2-D block transpose via ownership transfer on a 2x2 grid."""

    SRC = """
array A[1:4,1:4] dist (BLOCK, BLOCK) seg (2,2)

// P2 (block row 2, col 1) swaps ownership with P3 (block row 1, col 2).
mypid == 2 : { A[3:4,1:2] -=> {3} }
mypid == 3 : { A[1:2,3:4] -=> {2} }
mypid == 2 : { A[1:2,3:4] <=- }
mypid == 3 : { A[3:4,1:2] <=- }
mypid == 2 : { await(A[1:2,3:4]) : { A[1:2,3:4] = A[1:2,3:4] * 2 } }
mypid == 3 : { await(A[3:4,1:2]) : { A[3:4,1:2] = A[3:4,1:2] * 2 } }
"""

    def test_ownership_swap(self):
        a0 = np.arange(16.0).reshape(4, 4)
        it, stats = run(self.SRC, (2, 2), init={"A": a0})
        want = a0.copy()
        want[0:2, 2:4] *= 2
        want[2:4, 0:2] *= 2
        assert np.array_equal(it.read_global("A"), want)
        # Off-diagonal blocks swapped owners.
        st2, st3 = it.engine.symtabs[1], it.engine.symtabs[2]
        from repro.core.sections import section

        assert st2.iown("A", section((1, 2), (3, 4)))
        assert st3.iown("A", section((3, 4), (1, 2)))
        assert not st2.iown("A", section((3, 4), (1, 2)))


class TestMylb2D:
    def test_bounds_per_dimension(self):
        it, _ = run(
            "array A[1:6,1:6] dist (BLOCK, BLOCK) seg (1,1)\n\n"
            "iown(A[1,1]) : { A[1,1] = 1 }\n",
            (2, 2),
        )
        st = it.engine.symtabs
        # P1=(0,0): rows 1:3, cols 1:3.  P2=(1,0): rows 4:6, cols 1:3.
        assert (st[0].mylb("A", 1), st[0].myub("A", 2)) == (1, 3)
        assert (st[1].mylb("A", 1), st[1].myub("A", 1)) == (4, 6)
        assert (st[2].mylb("A", 2), st[2].myub("A", 2)) == (4, 6)
        assert (st[3].mylb("A", 1), st[3].mylb("A", 2)) == (4, 4)


class TestGridValidation:
    def test_grid_size_mismatch(self):
        from repro.core.errors import CompilationError

        with pytest.raises(CompilationError):
            Interpreter(
                parse_program("array A[1:4] dist (BLOCK) seg (1)\n"),
                3,
                grid=ProcessorGrid((2, 2)),
            )

    def test_linearised_mixed_rank(self):
        # One distributed dim on a 2x2 grid linearises to 4 (Figure 2's A).
        src = """
array A[1:4,1:8] dist (*, BLOCK) seg (4,2)

iown(A[*,2*mypid-1:2*mypid]) : { A[*,2*mypid-1:2*mypid] = mypid }
"""
        it, _ = run(src, (2, 2))
        A = it.read_global("A")
        for p in range(4):
            assert np.all(A[:, 2 * p : 2 * p + 2] == p + 1)
