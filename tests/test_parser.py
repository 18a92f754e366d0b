"""Unit tests for the IL+XDP lexer, parser and printer."""

import pytest

from repro.core.errors import ParseError
from repro.core.ir.lexer import tokenize
from repro.core.ir.nodes import (
    ArrayDecl, ArrayRef, Assign, Await, BinOp, CallStmt, DoLoop, ExprStmt,
    Full, Guarded, IfStmt, Index, IntConst, Iown, MaxIntConst, Mylb, Mypid,
    Range, RecvStmt, ScalarDecl, SendStmt, UnaryOp, VarRef, XferOp,
)
from repro.core.ir.parser import parse_expression, parse_program, parse_statements
from repro.core.ir.printer import print_expr, print_program, print_stmt


class TestLexer:
    def test_transfer_operators_longest_match(self):
        toks = [t.text for t in tokenize("a -=> b <=- c <= d <- e -> f =>")
                if t.kind == "OP"]
        assert toks == ["-=>", "<=-", "<=", "<-", "->", "=>"]

    def test_comments(self):
        toks = tokenize("x = 1 // a comment\ny = 2 # another\n")
        names = [t.text for t in toks if t.kind == "NAME"]
        assert names == ["x", "y"]

    def test_numbers(self):
        toks = tokenize("1 2.5 1e3 2.5e-2 7")
        kinds = [(t.kind, t.text) for t in toks if t.kind in ("INT", "FLOAT")]
        assert kinds == [
            ("INT", "1"), ("FLOAT", "2.5"), ("FLOAT", "1e3"),
            ("FLOAT", "2.5e-2"), ("INT", "7"),
        ]

    def test_bad_character(self):
        with pytest.raises(ParseError):
            tokenize("x = @")

    def test_newlines_collapsed(self):
        toks = tokenize("a\n\n\nb")
        kinds = [t.kind for t in toks]
        assert kinds == ["NAME", "NEWLINE", "NAME", "NEWLINE", "EOF"]


class TestExpressionParsing:
    def test_precedence(self):
        e = parse_expression("1 + 2 * 3")
        assert e == BinOp("+", IntConst(1), BinOp("*", IntConst(2), IntConst(3)))

    def test_parens(self):
        e = parse_expression("(1 + 2) * 3")
        assert e == BinOp("*", BinOp("+", IntConst(1), IntConst(2)), IntConst(3))

    def test_comparison_and_bool(self):
        e = parse_expression("iown(A[i]) and x < 3 or not y")
        assert isinstance(e, BinOp) and e.op == "or"
        assert isinstance(e.rhs, UnaryOp) and e.rhs.op == "not"

    def test_le_minus_resplit(self):
        # '<=-' in expression context is '<=' followed by unary minus.
        e = parse_expression("x <=- 2")
        assert e == BinOp("<=", VarRef("x"), UnaryOp("-", IntConst(2)))

    def test_intrinsics(self):
        assert parse_expression("mypid") == Mypid()
        assert parse_expression("MAXINT") == MaxIntConst()
        e = parse_expression("mylb(A[*], 1)")
        assert e == Mylb(ArrayRef("A", (Full(),)), IntConst(1))
        assert isinstance(parse_expression("iown(A[i,j])"), Iown)
        assert isinstance(parse_expression("await(A[1:2])"), Await)

    def test_subscripts(self):
        e = parse_expression("A[i, *, 1:4:2, :, 3:]")
        assert isinstance(e, ArrayRef)
        subs = e.subs
        assert isinstance(subs[0], Index)
        assert isinstance(subs[1], Full)
        assert subs[2] == Range(IntConst(1), IntConst(4), IntConst(2))
        assert subs[3] == Range(None, None, None)
        assert subs[4] == Range(IntConst(3), None, None)

    def test_min_max(self):
        e = parse_expression("min(x, max(y, 2))")
        assert e == BinOp("min", VarRef("x"), BinOp("max", VarRef("y"), IntConst(2)))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 )")

    def test_keyword_as_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("do + 1")

    @pytest.mark.parametrize("text", ["1e+", "1e-", "2.5E+"])
    def test_malformed_float_literal_has_location(self, text):
        # The lexer reads an exponent without digits into the FLOAT token;
        # the parser used to pass it to float() and raise ValueError.
        with pytest.raises(ParseError) as exc:
            parse_program(f"scalar y = 1\nscalar x = {text}\n")
        assert exc.value.message == f"malformed float literal {text!r}"
        assert (exc.value.line, exc.value.col) == (2, 12)


class TestStatementParsing:
    def test_all_transfer_forms(self):
        block = parse_statements(
            "A[i] ->\n"
            "A[i] -> {1, 2}\n"
            "A[i] =>\n"
            "A[i] -=>\n"
            "T[mypid] <- B[i]\n"
            "A[i] <=\n"
            "A[i] <=-\n"
        )
        ops = [
            s.op for s in block
        ]
        assert ops == [
            XferOp.SEND_VALUE, XferOp.SEND_VALUE, XferOp.SEND_OWNER,
            XferOp.SEND_OWNER_VALUE, XferOp.RECV_VALUE, XferOp.RECV_OWNER,
            XferOp.RECV_OWNER_VALUE,
        ]
        assert block.stmts[1].dests == (IntConst(1), IntConst(2))
        assert block.stmts[4].source == ArrayRef("B", (Index(VarRef("i")),))

    def test_guard_single_statement(self):
        (s,) = parse_statements("iown(B[i]) : B[i] ->").stmts
        assert isinstance(s, Guarded)
        assert isinstance(s.body.stmts[0], SendStmt)

    def test_guard_inline_braces(self):
        (s,) = parse_statements("iown(B[i]) : { B[i] -> }").stmts
        assert isinstance(s, Guarded) and len(s.body) == 1

    def test_guard_multiline(self):
        (s,) = parse_statements(
            "iown(A[i]) : {\n  T[mypid] <- B[i]\n  await(T[mypid])\n}"
        ).stmts
        assert isinstance(s, Guarded) and len(s.body) == 2
        assert isinstance(s.body.stmts[1], ExprStmt)

    def test_triplet_colon_is_not_guard(self):
        (s,) = parse_statements("A[1:4] = 0").stmts
        assert isinstance(s, Assign)

    def test_do_loop(self):
        (s,) = parse_statements("do i = 1, n\n  A[i] = 0\nenddo").stmts
        assert isinstance(s, DoLoop)
        assert s.var == "i" and s.hi == VarRef("n")
        assert s.step == IntConst(1)

    def test_do_loop_with_step(self):
        (s,) = parse_statements("do i = 10, 1, -2\nenddo").stmts
        assert s.step == IntConst(-2)

    def test_if_else(self):
        (s,) = parse_statements(
            "if x < 2 then\n  x = 1\nelse\n  x = 2\nendif"
        ).stmts
        assert isinstance(s, IfStmt) and len(s.orelse) == 1

    def test_call(self):
        (s,) = parse_statements("call fft1D(A[i,*,k])").stmts
        assert isinstance(s, CallStmt)
        assert isinstance(s.args[0], ArrayRef)

    def test_call_scalar_arg(self):
        (s,) = parse_statements("call work(100)").stmts
        assert s.args == (IntConst(100),)

    def test_scalar_assign(self):
        (s,) = parse_statements("x = mypid + 1").stmts
        assert s == Assign(VarRef("x"), BinOp("+", Mypid(), IntConst(1)))

    def test_nested_guard_in_loop(self):
        (loop,) = parse_statements(
            "do i = 1, 4\n  await(A[i]) : { A[i] = A[i] + 1 }\nenddo"
        ).stmts
        assert isinstance(loop.body.stmts[0], Guarded)

    def test_garbage_after_ref(self):
        with pytest.raises(ParseError):
            parse_statements("A[i] @@")
        with pytest.raises(ParseError):
            parse_statements("A[i] + 2 extra")


class TestDeclarations:
    def test_array_full(self):
        p = parse_program(
            "array B[1:16,1:16] dist (BLOCK, CYCLIC) seg (4,2) dtype complex128\n"
        )
        (d,) = p.decls
        assert isinstance(d, ArrayDecl)
        assert d.bounds == ((1, 16), (1, 16))
        assert d.dist == "(BLOCK, CYCLIC)"
        assert d.segment_shape == (4, 2)
        assert d.dtype == "complex128"

    def test_array_universal(self):
        p = parse_program("array W[1:4] universal\n")
        assert p.decls[0].universal

    def test_universal_and_dist_conflict(self):
        with pytest.raises(ParseError):
            parse_program("array W[1:4] universal dist (BLOCK)\n")

    def test_block_cyclic_spec(self):
        p = parse_program("array A[1:8] dist (CYCLIC(2))\n")
        assert p.decls[0].dist == "(CYCLIC(2))"

    def test_scalar_with_init(self):
        p = parse_program("scalar n = 8\n")
        (d,) = p.decls
        assert isinstance(d, ScalarDecl) and d.init == IntConst(8)

    def test_rank_mismatch(self):
        with pytest.raises(ParseError):
            parse_program("array A[1:4,1:4] dist (BLOCK)\n")
        with pytest.raises(ParseError):
            parse_program("array A[1:4] seg (1,1)\n")

    def test_unknown_dist(self):
        with pytest.raises(ParseError):
            parse_program("array A[1:4] dist (RANDOM)\n")

    def test_negative_bounds(self):
        p = parse_program("array A[-4:-1] dist (BLOCK)\n")
        assert p.decls[0].bounds == ((-4, -1),)


class TestRoundTrip:
    PROGRAMS = [
        # the paper's section-2.2 naive translation
        """array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (BLOCK) seg (1)
array T[1:4] dist (BLOCK) seg (1)
scalar n = 8

do i = 1, n
  iown(B[i]) : {
    B[i] ->
  }
  iown(A[i]) : {
    T[mypid] <- B[i]
    await(T[mypid])
    A[i] = A[i] + T[mypid]
  }
enddo
""",
        # the paper's section-2.2 ownership-migration variant
        """array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (CYCLIC) seg (1)
scalar n = 8

do i = 1, n
  iown(A[i]) : {
    A[i] -=>
  }
  iown(B[i]) : {
    A[i] <=-
  }
  await(A[i]) : {
    A[i] = A[i] + B[i]
  }
enddo
""",
        # FFT loop 3 (redistribution)
        """array A[1:4,1:4,1:4] dist (*, *, BLOCK) seg (4,1,1) dtype complex128

do p = 1, 4
  iown(A[*,*,p]) : {
    do n = 1, 4
      A[*,n,p] -=>
    enddo
    do n = 1, 4
      A[*,p,n] <=-
    enddo
  }
enddo
""",
    ]

    @pytest.mark.parametrize("idx", range(len(PROGRAMS)))
    def test_parse_print_parse(self, idx):
        src = self.PROGRAMS[idx]
        p1 = parse_program(src)
        text = print_program(p1)
        p2 = parse_program(text)
        assert p1 == p2

    def test_expr_print_parse(self):
        for text in [
            "1 + 2 * 3", "(1 + 2) * 3", "a - b - c", "a - (b - c)",
            "x <= -2", "iown(A[1:4:2,*]) and await(B[mypid])",
            "mylb(A[*], 1) + myub(A[*], 2)", "min(a, b) * max(1, nprocs)",
            "not (a or b)", "-x % 3",
        ]:
            e = parse_expression(text)
            assert parse_expression(print_expr(e)) == e, text
