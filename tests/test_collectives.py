"""Tests for the collective communication subsystem (ISSUE 8).

Covers the IL surface (parse/print/verify), the backend schedule
families and their bit-identity guarantee (native vs the point-to-point
desugaring, msg vs shmem, VM vs interpreter), the memory-bounded
redistribution planner, and the analytic cost model's collective terms.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codegen import lower
from repro.core.collectives.desugar import desugar_program, static_eval
from repro.core.collectives.planner import (
    dist_from_spec, plan_bounded_redistribution,
)
from repro.core.collectives.schedule import (
    CollInstance, Fence, LocalCopy, LocalReduce, RecvChunk, SendChunk,
    build_instance, collective_ops, group_members, reduce_order,
)
from repro.core.errors import (
    DistributionError, ProtocolError, VerificationError, XDPError,
)
from repro.core.interp import Interpreter
from repro.core.ir.nodes import CollectiveStmt, Full, Index, Range
from repro.core.ir.parser import parse_program
from repro.core.ir.printer import print_program
from repro.core.ir.verify import verify_program
from repro.core.ir.visitor import walk_stmts
from repro.core.sections import Section, Triplet, section
from repro.distributions import ProcessorGrid, plan_redistribution
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
#: reduce_scatter's scratch holds schedule-dependent residue (the staged
#: ring and the flat gather stage different partials through it).
ARRAYS = ("A", "W", "D", "T", "V", "S")


def _run_all_arrays(src: str, nprocs: int, *, path="vm", backend=None,
                    collectives="native"):
    program = parse_program(src)
    if path == "vm":
        runner = lower(program, nprocs, backend=backend,
                       collectives=collectives)
    else:
        runner = Interpreter(program, nprocs, backend=backend)
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

        return build_instance(stmt, 4, lambda e: static_eval(e, 4), resolve)

    def test_staged_allgather_is_a_ring(self):
        inst = self._instance(
            "array A[1:4] dist (BLOCK) seg (1)\n"
            "array W[1:16] dist (BLOCK) seg (4)\n\n"
            "coll allgather(g, d in 1:4) A[g] into W[(d-1)*4+g]\n"
        )
        ops = list(collective_ops(inst, 2, "staged"))
        sends = [o for o in ops if isinstance(o, SendChunk)]
        recvs = [o for o in ops if isinstance(o, RecvChunk)]
        # ring: P-1 hops, each a single-destination send + one receive
        assert len(sends) == 3 and len(recvs) == 3
        assert all(len(s.dests) == 1 for s in sends)
        flat_sends = [o for o in collective_ops(inst, 2, "flat")
                      if isinstance(o, SendChunk)]
        # flat: one bulk send to everyone else
        assert len(flat_sends) == 1 and len(flat_sends[0].dests) == 3

    def test_in_place_collective_falls_back_to_flat(self):
        inst = self._instance(
            "array A[1:16] dist (BLOCK) seg (4)\n\n"
            "coll broadcast(d in 1:4, root 1) A[1:4] into A[(d-1)*4+1:d*4]\n"
        )
        staged = list(collective_ops(inst, 2, "staged"))
        flat = list(collective_ops(inst, 2, "flat"))
        assert staged == flat  # src var == dst var forces the flat family

    def test_every_member_ends_with_fences(self):
        inst = self._instance(
            "array A[1:4] dist (BLOCK) seg (1)\n"
            "array W[1:16] dist (BLOCK) seg (4)\n\n"
            "coll allgather(g, d in 1:4) A[g] into W[(d-1)*4+g]\n"
        )
        for me in (1, 2, 3, 4):
            for style in ("flat", "staged"):
                ops = list(collective_ops(inst, me, style))
                assert any(isinstance(o, Fence) for o in ops)


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
        reference = _run_all_arrays(COLL_SRC, 4, path="interp")
        paths = [
            dict(path="vm", backend="msg", collectives="native"),
            dict(path="vm", backend="msg", collectives="p2p"),
            dict(path="vm", backend="shmem", collectives="native"),
            dict(path="vm", backend="shmem", collectives="p2p"),
        ]
        for kw in paths:
            got = _run_all_arrays(COLL_SRC, 4, **kw)
            for name in ARRAYS:
                assert got[name].tobytes() == reference[name].tobytes(), (
                    kw, name
                )

    def test_reference_values(self):
        got = _run_all_arrays(COLL_SRC, 4, path="interp")
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
        native = _run_all_arrays(COLL_SRC, 4, path="interp")
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


# --------------------------------------------------------------------- #
# the memory-bounded redistribution planner
# --------------------------------------------------------------------- #


def _fft_pair(n=8, nprocs=4):
    bounds = ((1, n), (1, n), (1, n))
    grid = ProcessorGrid((nprocs,))
    return (
        dist_from_spec("(*, *, BLOCK)", bounds, grid),
        dist_from_spec("(*, BLOCK, *)", bounds, grid),
    )


class TestPlanner:
    def test_fft_repartition_meets_the_50pct_bar(self):
        src, dst = _fft_pair()
        sched = plan_bounded_redistribution(src, dst, max_temp_frac=0.25)
        s = sched.summary()
        assert s["peak_temp_bytes"] <= s["budget_bytes"]
        assert s["peak_vs_naive"] <= 0.5  # the ISSUE acceptance bar
        assert s["rounds"] >= 2

    def test_rounds_partition_the_direct_plan(self):
        src, dst = _fft_pair()
        sched = plan_bounded_redistribution(src, dst, max_temp_frac=0.25)
        direct = plan_redistribution(src, dst)

        def cover(moves):
            out = set()
            for m in moves:
                for idx in m.section:
                    out.add((m.src, m.dst, idx))
            return out

        assert cover(sched.all_moves()) == cover(
            m for m in direct.moves if m.src != m.dst
        )

    def test_frac_validation(self):
        src, dst = _fft_pair()
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(DistributionError):
                plan_bounded_redistribution(src, dst, max_temp_frac=bad)

    def test_identity_redistribution_is_empty(self):
        src, _ = _fft_pair()
        sched = plan_bounded_redistribution(src, src, max_temp_frac=0.5)
        assert sched.round_count == 0
        assert sched.peak_temp_bytes == 0

    def test_schedule_statements_execute_to_the_same_array(self):
        n, nprocs = 8, 4
        grid = ProcessorGrid((nprocs,))
        bounds = ((1, n), (1, n))
        src = dist_from_spec("(BLOCK, *)", bounds, grid)
        dst = dist_from_spec("(*, BLOCK)", bounds, grid)
        sched = plan_bounded_redistribution(src, dst, max_temp_frac=0.25)
        from repro.core.ir.nodes import ArrayDecl, Block as IRBlock, Program

        decl = ArrayDecl("A", ((1, n), (1, n)), dist="(BLOCK, *)",
                         segment_shape=(n // nprocs, n))
        prog = Program((decl,), IRBlock(tuple(sched.statements("A"))))
        it = Interpreter(prog, nprocs, model=MachineModel())
        a0 = np.arange(64.0).reshape(n, n)
        it.write_global("A", a0)
        it.run()
        assert np.array_equal(it.read_global("A"), a0)
        for pid in range(nprocs):
            for sec in dst.owned_sections(pid):
                assert it.engine.symtabs[pid].iown("A", sec)


SPECS_1D = ("(BLOCK)", "(CYCLIC)")
SPECS_2D = ("(BLOCK, *)", "(*, BLOCK)", "(CYCLIC, *)", "(*, CYCLIC)")


class TestPlannerProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        nprocs=st.integers(2, 4),
        mult=st.integers(1, 3),
        src_spec=st.sampled_from(SPECS_2D),
        dst_spec=st.sampled_from(SPECS_2D),
        frac=st.floats(0.05, 1.0),
    )
    def test_peak_never_exceeds_budget(self, nprocs, mult, src_spec,
                                       dst_spec, frac):
        n = nprocs * mult
        bounds = ((1, n), (1, n))
        grid = ProcessorGrid((nprocs,))
        src = dist_from_spec(src_spec, bounds, grid)
        dst = dist_from_spec(dst_spec, bounds, grid)
        sched = plan_bounded_redistribution(src, dst, max_temp_frac=frac)
        assert sched.peak_temp_bytes <= sched.budget_bytes
        for r in sched.rounds:
            for v in r.incoming_bytes(sched.elem_bytes).values():
                assert v <= sched.budget_bytes
            for v in r.outgoing_bytes(sched.elem_bytes).values():
                assert v <= sched.budget_bytes

    @settings(max_examples=40, deadline=None)
    @given(
        nprocs=st.integers(2, 4),
        mult=st.integers(1, 4),
        src_spec=st.sampled_from(SPECS_1D),
        dst_spec=st.sampled_from(SPECS_1D),
        frac=st.floats(0.05, 1.0),
    )
    def test_rounds_compose_to_direct_redistribution(self, nprocs, mult,
                                                     src_spec, dst_spec,
                                                     frac):
        n = nprocs * mult
        grid = ProcessorGrid((nprocs,))
        src = dist_from_spec(src_spec, ((1, n),), grid)
        dst = dist_from_spec(dst_spec, ((1, n),), grid)
        sched = plan_bounded_redistribution(src, dst, max_temp_frac=frac)
        direct = plan_redistribution(src, dst)

        def cover(moves):
            out = {}
            for m in moves:
                for idx in m.section:
                    key = (m.src, m.dst, idx)
                    out[key] = out.get(key, 0) + 1
            return out

        got = cover(sched.all_moves())
        want = cover(m for m in direct.moves if m.src != m.dst)
        assert got == want  # every element moved exactly once, same edges
