"""Unit tests for the compile-time analyses: constant evaluation, layouts,
ownership enumeration, reference sets, and inline owner expressions."""

import pytest

from repro.core.analysis import (
    CompilerContext,
    ConstEnv,
    OwnershipAnalysis,
    const_eval,
    resolve_section_const,
    stmt_refsets,
)
from repro.core.analysis.consteval import program_constants
from repro.core.analysis.layouts import (
    build_layouts,
    build_segmentation,
    decl_index_space,
    split_dist_spec,
)
from repro.core.analysis.ownerexpr import owner_pid1_expr
from repro.core.errors import CompilationError
from repro.core.ir.nodes import ArrayDecl, ArrayRef, Index, VarRef
from repro.core.ir.parser import parse_expression, parse_program, parse_statements
from repro.core.opt.common import OwnershipFlow
from repro.core.sections import section
from repro.distributions import ProcessorGrid


class TestConstEval:
    ENV = ConstEnv(nprocs=4, scalars={"n": 8, "k": 3})

    @pytest.mark.parametrize("text,want", [
        ("1 + 2 * 3", 7),
        ("n - k", 5),
        ("n / k", 2),           # integer division
        ("n % k", 2),
        ("min(n, k) + max(1, 2)", 5),
        ("n == 8 and k < 4", True),
        ("n != 8 or k >= 3", True),
        ("not (n == 8)", False),
        ("-k", -3),
        ("nprocs", 4),
        ("MAXINT > 0", True),
        ("MININT < 0", True),
    ])
    def test_constants(self, text, want):
        assert const_eval(parse_expression(text), self.ENV) == want

    def test_unknown_scalar_is_none(self):
        assert const_eval(parse_expression("m + 1"), self.ENV) is None

    def test_mypid_needs_pin(self):
        e = parse_expression("mypid * 2")
        assert const_eval(e, self.ENV) is None
        assert const_eval(e, self.ENV.at_pid(3)) == 6

    def test_short_circuit_hides_unknowns(self):
        assert const_eval(parse_expression("false and m"), self.ENV) is False
        assert const_eval(parse_expression("true or m"), self.ENV) is True
        assert const_eval(parse_expression("true and m"), self.ENV) is None

    def test_division_by_zero_is_none(self):
        assert const_eval(parse_expression("1 / 0"), self.ENV) is None
        assert const_eval(parse_expression("1 % 0"), self.ENV) is None

    def test_intrinsics_are_not_constant(self):
        assert const_eval(parse_expression("iown(A[1])"), self.ENV) is None

    def test_bind(self):
        env2 = self.ENV.bind(i=5)
        assert const_eval(parse_expression("i + n"), env2) == 13
        # Original env unchanged.
        assert const_eval(parse_expression("i"), self.ENV) is None

    def test_program_constants(self):
        prog = parse_program(
            "scalar a = 4\nscalar b = a * 2\nscalar c\n"
        )
        env = program_constants(prog, 2)
        assert env.scalars == {"a": 4, "b": 8}


class TestResolveSection:
    DECL = ArrayDecl("A", ((1, 8), (0, 3)), dist="(BLOCK, *)")

    def test_full_and_index(self):
        ref = parse_expression("A[*, 2]")
        env = ConstEnv(2)
        assert resolve_section_const(ref, self.DECL, env) == section((1, 8), 2)

    def test_defaults_from_bounds(self):
        ref = parse_expression("A[3:, :2]")
        env = ConstEnv(2)
        assert resolve_section_const(ref, self.DECL, env) == section((3, 8), (0, 2))

    def test_symbolic_is_none(self):
        ref = parse_expression("A[i, 0]")
        assert resolve_section_const(ref, self.DECL, ConstEnv(2)) is None
        assert resolve_section_const(
            ref, self.DECL, ConstEnv(2, {"i": 4})
        ) == section(4, 0)

    def test_empty_section_is_none(self):
        ref = parse_expression("A[5:4, *]")
        assert resolve_section_const(ref, self.DECL, ConstEnv(2)) is None

    def test_rank_mismatch(self):
        ref = parse_expression("A[1]")
        with pytest.raises(CompilationError):
            resolve_section_const(ref, self.DECL, ConstEnv(2))


class TestLayouts:
    def test_split_dist_spec(self):
        assert split_dist_spec("(BLOCK, CYCLIC(2))") == ["BLOCK", "CYCLIC(2)"]
        assert split_dist_spec("(*, BLOCK)") == ["*", "BLOCK"]
        assert split_dist_spec("( CYCLIC )") == ["CYCLIC"]
        with pytest.raises(CompilationError):
            split_dist_spec("BLOCK")

    def test_decl_index_space(self):
        d = ArrayDecl("A", ((1, 4), (-2, 2)), dist="(BLOCK, BLOCK)")
        assert decl_index_space(d) == section((1, 4), (-2, 2))

    def test_default_segment_shape_is_whole_piece(self):
        d = ArrayDecl("A", ((1, 8),), dist="(BLOCK)")
        seg = build_segmentation(d, ProcessorGrid((2,)))
        assert seg.segment_shape == (4,)
        assert seg.segment_count(0) == 1

    def test_universal_has_no_layout(self):
        d = ArrayDecl("W", ((1, 4),), universal=True)
        with pytest.raises(CompilationError):
            build_segmentation(d, ProcessorGrid((2,)))

    def test_build_layouts_skips_universal(self):
        prog = parse_program(
            "array A[1:8] dist (BLOCK)\narray W[1:4] universal\n"
        )
        layouts = build_layouts(prog, ProcessorGrid((2,)))
        assert set(layouts) == {"A"}


def make_ctx(src: str, nprocs: int = 4) -> CompilerContext:
    return CompilerContext.create(parse_program(src), nprocs)


class TestOwnershipAnalysis:
    SRC = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (CYCLIC) seg (1)
array W[1:8] universal
scalar n = 8
"""

    def test_owner_of_element(self):
        ctx = make_ctx(self.SRC)
        flow = OwnershipFlow(ctx)
        ref = parse_expression("A[i]")
        assert flow.owns(ref, ctx.consts.bind(i=1), 0) is True
        assert flow.owns(ref, ctx.consts.bind(i=8), 3) is True
        assert flow.owns(ref, ctx.consts.bind(i=8), 0) is False
        assert flow.owns(ref, ctx.consts, 0) is None  # i unknown

    def test_owner_of_spanning_section_none(self):
        ctx = make_ctx(self.SRC)
        flow = OwnershipFlow(ctx)
        assert not any(flow.owns(parse_expression("A[1:4]"), ctx.consts, p)
                       for p in range(4))
        assert flow.owns(parse_expression("A[1:2]"), ctx.consts, 0) is True

    def test_universal_has_no_owner(self):
        ctx = make_ctx(self.SRC)
        flow = OwnershipFlow(ctx)
        assert all(flow.owns(parse_expression("W[1]"), ctx.consts, p) is None
                   for p in range(4))

    def test_owned_by(self):
        # Before any transfer the ownership flow is the distribution.
        ctx = make_ctx(self.SRC)
        flow = OwnershipFlow(ctx)
        ref = parse_expression("B[3]")
        assert flow.owns(ref, ctx.consts, 2) is True  # cyclic: 3 -> pid 2
        assert flow.owns(ref, ctx.consts, 0) is False

    def test_iteration_values(self):
        ctx = make_ctx(self.SRC)
        oa = OwnershipAnalysis(ctx)
        (loop,) = parse_statements("do i = 1, n\nenddo").stmts
        assert oa.iteration_values(loop, ctx.consts) == list(range(1, 9))
        (down,) = parse_statements("do i = 8, 2, -2\nenddo").stmts
        assert oa.iteration_values(down, ctx.consts) == [8, 6, 4, 2]
        (sym,) = parse_statements("do i = 1, m\nenddo").stmts
        assert oa.iteration_values(sym, ctx.consts) is None


class TestRefSets:
    SRC = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (BLOCK) seg (1)
scalar n = 8
"""

    def test_assignment_sets(self):
        ctx = make_ctx(self.SRC)
        (s,) = parse_statements("A[1] = B[2] + 1").stmts
        rs = stmt_refsets(s, ctx, ctx.consts)
        assert ("A", section(1)) in rs.writes
        assert ("B", section(2)) in rs.reads
        assert not rs.unknown

    def test_ownership_send_sets(self):
        ctx = make_ctx(self.SRC)
        (s,) = parse_statements("A[3] -=>").stmts
        rs = stmt_refsets(s, ctx, ctx.consts)
        assert ("A", section(3)) in rs.released
        assert ("A", section(3)) in rs.reads  # value ships too

    def test_ownership_recv_sets(self):
        ctx = make_ctx(self.SRC)
        (s,) = parse_statements("A[3] <=-").stmts
        rs = stmt_refsets(s, ctx, ctx.consts)
        assert ("A", section(3)) in rs.acquired
        assert ("A", section(3)) in rs.writes

    def test_guard_queries(self):
        ctx = make_ctx(self.SRC)
        (s,) = parse_statements("iown(A[1:2]) : { B[1] = 0 }").stmts
        rs = stmt_refsets(s, ctx, ctx.consts)
        assert ("A", section((1, 2))) in rs.queried
        assert ("B", section(1)) in rs.writes

    def test_unresolvable_widens_to_whole_array(self):
        ctx = make_ctx(self.SRC)
        (s,) = parse_statements("A[m] = 0").stmts
        rs = stmt_refsets(s, ctx, ctx.consts)
        assert ("A", section((1, 8))) in rs.writes

    def test_loop_enumerated(self):
        ctx = make_ctx(self.SRC)
        (s,) = parse_statements("do i = 1, 3\n  A[i] = 0\nenddo").stmts
        rs = stmt_refsets(s, ctx, ctx.consts)
        assert len(rs.writes) == 3

    def test_symbolic_loop_unknown(self):
        ctx = make_ctx(self.SRC)
        (s,) = parse_statements("do i = 1, m\n  A[1] = 0\nenddo").stmts
        rs = stmt_refsets(s, ctx, ctx.consts)
        assert rs.unknown

    def test_conflicts(self):
        ctx = make_ctx(self.SRC)
        (w1,) = parse_statements("A[1] = 0").stmts
        (w2,) = parse_statements("A[1] = 1").stmts
        (w3,) = parse_statements("A[2] = 1").stmts
        (rel,) = parse_statements("A[1] =>").stmts
        (q,) = parse_statements("iown(A[1]) : { B[5] = 0 }").stmts
        rs = lambda s: stmt_refsets(s, ctx, ctx.consts)
        assert rs(w1).conflicts_with(rs(w2))
        assert not rs(w1).conflicts_with(rs(w3))
        assert rs(rel).conflicts_with(rs(q))      # query vs ownership move
        assert rs(rel).conflicts_with(rs(w1))     # access vs ownership move


class TestOwnerExpr:
    def check(self, dist: str, nprocs: int, n: int = 12):
        src = f"array A[1:{n}] dist {dist} seg (1)\n"
        ctx = make_ctx(src, nprocs)
        decl = ctx.array_decl("A")
        layout = ctx.layouts["A"]
        ref = ArrayRef("A", (Index(VarRef("i")),))
        expr = owner_pid1_expr(decl, layout, ref)
        assert expr is not None
        for i in range(1, n + 1):
            got = const_eval(expr, ConstEnv(nprocs, {"i": i}))
            want = layout.distribution.owner((i,)) + 1
            assert got == want, (dist, i, got, want)

    def test_block(self):
        self.check("(BLOCK)", 4)
        self.check("(BLOCK)", 3)

    def test_cyclic(self):
        self.check("(CYCLIC)", 4)

    def test_block_cyclic(self):
        self.check("(CYCLIC(2))", 3)

    def test_two_dimensional(self):
        src = "array A[1:4,1:6] dist (BLOCK, CYCLIC) seg (1,1)\n"
        prog = parse_program(src)
        from repro.distributions import ProcessorGrid

        ctx = CompilerContext.create(prog, 4, ProcessorGrid((2, 2)))
        decl = ctx.array_decl("A")
        layout = ctx.layouts["A"]
        ref = ArrayRef("A", (Index(VarRef("i")), Index(VarRef("j"))))
        expr = owner_pid1_expr(decl, layout, ref)
        for i in range(1, 5):
            for j in range(1, 7):
                got = const_eval(expr, ConstEnv(4, {"i": i, "j": j}))
                want = layout.distribution.owner((i, j)) + 1
                assert got == want

    def test_section_ref_unbindable(self):
        ctx = make_ctx("array A[1:8] dist (BLOCK) seg (1)\n")
        ref = parse_expression("A[1:4]")
        assert owner_pid1_expr(ctx.array_decl("A"), ctx.layouts["A"], ref) is None
