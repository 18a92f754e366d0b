"""Tests for the collective communication subsystem (ISSUE 8).

Covers the IL surface (parse/print/verify), the schedules and their
bit-identity guarantee (msg vs shmem, flat vs the binomial-tree
broadcast, both vs the point-to-point desugaring), and the broadcast
rule's pick against the simulator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.codegen import lower
from repro.core.collectives.desugar import desugar_program, static_eval
from repro.core.collectives import schedule
from repro.core.collectives.schedule import (
    CollInstance, Fence, LocalCopy, LocalReduce, RecvChunk,
    collective_ops, group_members, reduce_order, tree_pays,
)
from repro.core.errors import ProtocolError, VerificationError, XDPError
from repro import Interpreter
from repro.apps.matmul import run_matmul
from repro.core.ir.nodes import CollectiveStmt, Full, Index, Range
from repro.core.ir.parser import parse_program
from repro.core.ir.printer import print_program
from repro.core.ir.verify import verify_program
from repro.core.ir.visitor import walk_stmts
from repro.core.sections import Section, Triplet, section
from repro.machine import MachineModel

# One program exercising every collective op at P=4; every array ends up
# fully determined, so cross-path runs must agree bit-for-bit.
COLL_SRC = """
array A[1:8] dist (BLOCK) seg (1)
array W[1:4, 1:8] dist (BLOCK, *) seg (1, 8)
array D[1:4, 1:8] dist (BLOCK, *) seg (1, 8)
array T[1:4, 1:8] dist (BLOCK, *) seg (1, 8)
array V[1:4, 1:8] dist (BLOCK, *) seg (1, 8)
array S[1:8] dist (BLOCK) seg (1)
array SCR[1:4, 1:2] dist (BLOCK, *) seg (1, 2)

true : {
  A[2*mypid-1] = mypid
  A[2*mypid] = mypid + 1
  do j = 1, 8
    W[mypid, j] = 0
    D[mypid, j] = mypid + j
    T[mypid, j] = 0
    V[mypid, j] = mypid * j
  enddo
  S[2*mypid-1] = 0
  S[2*mypid] = 0
  SCR[mypid, 1] = 0
  SCR[mypid, 2] = 0
  coll broadcast(d in 1:4, root 1) A[1:2] into W[d, 1:2]
  coll allgather(g, d in 1:4) A[2*g-1:2*g] into W[d, 2*g-1:2*g]
  coll all_to_all(g, d in 1:4) D[g, 2*d-1:2*d] into T[d, 2*g-1:2*g]
  coll reduce_scatter(g, d in 1:4, op +) V[g, 2*d-1:2*d] into S[2*d-1:2*d] via SCR[d, 1:2]
}
"""

#: The arrays whose final bytes the bit-identity guarantee covers: every
#: collective source and destination.  SCR is deliberately absent — a
#: reduce_scatter's scratch is staging space, and what it holds at the
#: end is up to the schedule.
ARRAYS = ("A", "W", "D", "T", "V", "S")


def _run_all_arrays(src: str, nprocs: int, *, backend=None):
    runner = lower(parse_program(src), nprocs, backend=backend)
    runner.run()
    return {name: runner.read_global(name) for name in ARRAYS}


# --------------------------------------------------------------------- #
# schedule building blocks
# --------------------------------------------------------------------- #


class TestScheduleUnits:
    def test_group_members(self):
        assert group_members(1, 4, 1, 4) == (1, 2, 3, 4)
        assert group_members(1, 4, 2, 4) == (1, 3)
        assert group_members(4, 1, -1, 4) == (4, 3, 2, 1)
        with pytest.raises(XDPError):
            group_members(1, 4, 0, 4)
        with pytest.raises(XDPError):
            group_members(2, 1, 1, 4)
        with pytest.raises(XDPError):
            group_members(1, 5, 1, 4)

    def test_reduce_order_is_cyclic_after_self(self):
        members = (1, 2, 3, 4)
        assert reduce_order(members, 1) == [2, 3, 4]
        assert reduce_order(members, 3) == [4, 1, 2]
        # own contribution is combined last, outside the list
        assert all(d not in reduce_order(members, d) for d in members)

    def test_chunk_size_validation(self):
        one = Section((Triplet(1, 1, 1),))
        two = Section((Triplet(1, 2, 1),))
        with pytest.raises(ProtocolError, match="cardinality"):
            RecvChunk("A", one, "W", two)
        with pytest.raises(ProtocolError, match="cardinality"):
            LocalCopy("A", two, "W", one)
        with pytest.raises(ProtocolError, match="cardinality"):
            LocalReduce("C", two, "S", one, "+")
        # matching sizes construct fine
        RecvChunk("A", one, "W", one)

    def _instance(self, src: str) -> CollInstance:
        program = parse_program(src)
        stmt = next(s for s in walk_stmts(program.body)
                    if isinstance(s, CollectiveStmt))
        decls = {d.name: d for d in program.array_decls()}

        def resolve(ref, bindings):
            dims = []
            for i, s in enumerate(ref.subs):
                if isinstance(s, Index):
                    v = static_eval(s.expr, 4, dict(bindings))
                    dims.append(Triplet(v, v, 1))
                elif isinstance(s, Range):
                    lo = static_eval(s.lo, 4, dict(bindings))
                    hi = static_eval(s.hi, 4, dict(bindings))
                    dims.append(Triplet(lo, hi, 1))
                else:
                    assert isinstance(s, Full)
                    lo, hi = decls[ref.var].bounds[i]
                    dims.append(Triplet(lo, hi, 1))
            return ref.var, Section(tuple(dims))

        lo, hi, step = stmt.group
        members = group_members(
            static_eval(lo, 4), static_eval(hi, 4),
            1 if step is None else static_eval(step, 4), 4,
        )
        root = None if stmt.root is None else static_eval(stmt.root, 4)
        return CollInstance(stmt, members, root, resolve)

    def test_in_place_collective_falls_back_to_flat(self, monkeypatch):
        monkeypatch.setattr(schedule, "tree_pays", lambda *args: True)
        model = MachineModel()
        inst = self._instance(
            "array A[1:4] dist (BLOCK) seg (1)\n"
            "array W[1:16] dist (BLOCK) seg (4)\n\n"
            "coll broadcast(d in 1:4, root 1) A[1] into W[(d-1)*4+1]\n"
        )
        # tree rank 1 receives from the root and forwards to rank 3; a
        # flat receiver only receives
        assert list(collective_ops(inst, 2, model)) != list(
            collective_ops(inst, 2))
        inst = self._instance(
            "array A[1:16] dist (BLOCK) seg (4)\n\n"
            "coll broadcast(d in 1:4, root 1) A[1:4] into A[(d-1)*4+1:d*4]\n"
        )
        for me in (1, 2, 3, 4):
            # src var == dst var keeps the flat schedule
            assert list(collective_ops(inst, me, model)) == list(
                collective_ops(inst, me))

    def test_every_member_ends_with_fences(self):
        inst = self._instance(
            "array A[1:4] dist (BLOCK) seg (1)\n"
            "array W[1:16] dist (BLOCK) seg (4)\n\n"
            "coll allgather(g, d in 1:4) A[g] into W[(d-1)*4+g]\n"
        )
        for me in (1, 2, 3, 4):
            ops = list(collective_ops(inst, me))
            assert any(isinstance(o, Fence) for o in ops)


class TestBroadcastRule:
    """The tree-or-flat broadcast rule picks the faster schedule of
    SUMMA's loop of broadcasts in the simulator (msg, default model)."""

    @pytest.mark.parametrize("n,nprocs,tree", [
        (8, 4, False), (32, 16, True), (64, 32, True),
    ])
    def test_rule_picks_the_faster_schedule(self, n, nprocs, tree,
                                             monkeypatch):
        runs = {None: run_matmul(n, nprocs, "summa", backend="msg")}
        for pick in (True, False):
            with monkeypatch.context() as m:
                m.setattr(schedule, "tree_pays", lambda *args: pick)
                runs[pick] = run_matmul(n, nprocs, "summa", backend="msg")
        assert runs[True].digest == runs[False].digest
        assert runs[True].messages == runs[False].messages
        faster = min(runs[True].makespan, runs[False].makespan)
        assert runs[None].makespan == faster
        assert runs[None].makespan == runs[tree].makespan


# --------------------------------------------------------------------- #
# IL surface
# --------------------------------------------------------------------- #


class TestParsePrintVerify:
    def test_printer_round_trip(self):
        p1 = parse_program(COLL_SRC)
        text = print_program(p1)
        assert "coll broadcast(d in 1:4, root 1)" in text
        assert "coll reduce_scatter(g, d in 1:4, op +)" in text
        assert "via" in text and "into" in text
        p2 = parse_program(text)
        assert print_program(p2) == text

    def test_verify_accepts_the_suite_program(self):
        verify_program(parse_program(COLL_SRC))

    @pytest.mark.parametrize("line,msg", [
        ("coll broadcast(d in 1:4) A[1:2] into W[d, 1:2]", "root"),
        ("coll allgather(g, d in 1:4, root 2) A[2*g-1:2*g] "
         "into W[d, 2*g-1:2*g]", "root"),
        ("coll allgather(g, d in 1:4, op +) A[2*g-1:2*g] "
         "into W[d, 2*g-1:2*g]", "'op'"),
        ("coll reduce_scatter(g, d in 1:4, op +) A[1:2] into W[d, 1:2]",
         "via"),
        ("coll broadcast(d in 1:mypid, root 1) A[1:2] into W[d, 1:2]",
         "mypid"),
        ("coll allgather(d in 1:4) A[1:2] into W[d, 1:2]", "binder"),
    ])
    def test_structural_rejections(self, line, msg):
        src = COLL_SRC.replace(
            "coll broadcast(d in 1:4, root 1) A[1:2] into W[d, 1:2]", line
        )
        with pytest.raises(VerificationError, match=msg):
            verify_program(parse_program(src))

    def test_unknown_reduce_op_rejected_at_parse(self):
        from repro.core.errors import ParseError

        with pytest.raises(ParseError, match="reduce op"):
            parse_program(COLL_SRC.replace("op +", "op -"))


# --------------------------------------------------------------------- #
# execution: bit-identity across backends, lowerings and engines
# --------------------------------------------------------------------- #


class TestBitIdentity:
    def test_all_paths_bit_identical(self):
        reference = _run_all_arrays(COLL_SRC, 4, backend="msg")
        got = _run_all_arrays(COLL_SRC, 4, backend="shmem")
        for name in ARRAYS:
            assert got[name].tobytes() == reference[name].tobytes(), name

    def test_tree_broadcast_matches_the_oracle_on_both_backends(self):
        # At P=32 a small broadcast runs as the tree on msg and flat on
        # shmem; the desugared program is the flat point-to-point oracle.
        src = (
            "array A[1:64] dist (BLOCK) seg (2)\n"
            "array W[1:32, 1:2] dist (BLOCK, *) seg (1, 2)\n\n"
            "true : {\n"
            "  A[2*mypid-1] = mypid\n"
            "  A[2*mypid] = mypid * 7\n"
            "  W[mypid, 1] = 0\n"
            "  W[mypid, 2] = 0\n"
            + "".join(
                f"  coll broadcast(d in 1:32, root {k}) A[{2*k-1}:{2*k}] "
                "into W[d, 1:2]\n"
                "  A[2*mypid] = A[2*mypid] + W[mypid, 2]\n"
                for k in (1, 6, 17, 32)
            )
            + "}\n"
        )
        program = parse_program(src)
        assert tree_pays(32, 2 * 8, MachineModel())
        oracle = Interpreter(desugar_program(program, 32), 32)
        oracle.run()
        for backend in ("msg", "shmem"):
            runner = lower(program, 32, backend=backend)
            runner.run()
            for name in ("A", "W"):
                assert (runner.read_global(name).tobytes()
                        == oracle.read_global(name).tobytes()), (backend, name)

    def test_reference_values(self):
        got = _run_all_arrays(COLL_SRC, 4)
        # allgather overwrote the broadcast chunk: W rows all equal A
        a = np.array([1, 2, 2, 3, 3, 4, 4, 5], dtype=float)
        assert np.array_equal(got["A"], a)
        assert np.array_equal(got["W"], np.tile(a, (4, 1)))
        # all_to_all is a blocked transpose of D
        d = np.array([[p + j for j in range(1, 9)] for p in range(1, 5)],
                     dtype=float)
        t = np.zeros_like(d)
        for g in range(4):
            for dd in range(4):
                t[dd, 2 * g:2 * g + 2] = d[g, 2 * dd:2 * dd + 2]
        assert np.array_equal(got["T"], t)
        # reduce_scatter summed V columns onto their owners
        v = np.array([[p * j for j in range(1, 9)] for p in range(1, 5)],
                     dtype=float)
        assert np.array_equal(got["S"], v.sum(axis=0))

    def test_desugared_program_has_no_collectives_and_matches(self):
        program = parse_program(COLL_SRC)
        flat = desugar_program(program, 4)
        assert not any(isinstance(s, CollectiveStmt)
                       for s in walk_stmts(flat.body))
        native = _run_all_arrays(COLL_SRC, 4)
        it = Interpreter(flat, 4)
        it.run()
        for name in ARRAYS:
            assert it.read_global(name).tobytes() == native[name].tobytes()

    def test_in_place_broadcast_runs_on_both_backends(self):
        src = (
            "array A[1:16] dist (BLOCK) seg (4)\n\n"
            "true : {\n"
            "  do j = 1, 4\n"
            "    A[(mypid-1)*4+j] = mypid * 10 + j\n"
            "  enddo\n"
            "  coll broadcast(d in 1:4, root 1) A[1:4] "
            "into A[(d-1)*4+1:d*4]\n"
            "}\n"
        )
        want = np.tile(np.arange(11.0, 15.0), 4)
        for backend in ("msg", "shmem"):
            runner = lower(parse_program(src), 4, backend=backend)
            runner.run()
            assert np.array_equal(runner.read_global("A"), want), backend
