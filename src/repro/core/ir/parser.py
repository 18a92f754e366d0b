"""Recursive-descent parser for the textual IL+XDP syntax.

The concrete syntax matches the paper's program fragments:

.. code-block:: none

    array A[1:4,1:8] dist (*, BLOCK) seg (2,1)
    array T[1:4] dist (BLOCK)
    scalar n = 4

    do i = 1, n
      iown(B[i]) : { B[i] -> }
      iown(A[i]) : {
        T[mypid] <- B[i]
        await(T[mypid])
        A[i] = A[i] + T[mypid]
      }
    enddo

Statements are line-oriented.  A line whose top-level (bracket-depth-0)
``:`` separates an expression from a statement or ``{`` block is a
compute-rule guard.  The comparison ``<=`` and the ownership-receive
``<=`` share a spelling, disambiguated by position: at statement level
after a section name and at end of line it is the receive; inside an
expression it is the comparison (and a lexed ``<=-`` in expression context
re-splits into ``<=`` and unary minus).
"""

from __future__ import annotations

from ..errors import ParseError
from .lexer import Token, tokenize
from .nodes import (
    Accessible, ArrayDecl, ArrayRef, Assign, Await, BinOp, Block, BoolConst,
    CallStmt, CollOp, CollectiveStmt, Decl, DoLoop, Expr, ExprStmt, FloatConst,
    Full, Guarded, IfStmt, Index, IntConst, Iown, MaxIntConst, MinIntConst,
    Mylb, Mypid, Myub, NumProcs, Program, Range, RecvStmt, ScalarDecl,
    SendStmt, Stmt, Subscript, UnaryOp, VarRef, XferOp,
)

__all__ = ["parse_program", "parse_statements", "parse_expression"]

_INTRINSIC_NAMES = {"iown", "accessible", "await", "mylb", "myub"}
_KEYWORDS = {
    "do", "enddo", "if", "then", "else", "endif", "call", "array", "scalar",
    "dist", "seg", "dtype", "universal", "not", "and", "or", "true", "false",
    "min", "max", "coll",
} | _INTRINSIC_NAMES

# Names that are a whole expression, and how to build each.
_NULLARY = {
    "mypid": Mypid, "nprocs": NumProcs, "MAXINT": MaxIntConst,
    "MININT": MinIntConst, "true": lambda: BoolConst(True),
    "false": lambda: BoolConst(False),
}

# Words with contextual meaning inside a ``coll`` statement only ("in",
# "into", "via", "root", "op" and the op names stay usable as identifiers).
_COLL_OPS = {m.value: m for m in CollOp}
_REDUCE_OPS = ("+", "min", "max")


class _Parser:
    def __init__(self, tokens: list[Token]):
        # A second EOF: a lookahead at the first needs no bounds check.
        self.tokens = tokens + tokens[-1:]
        self.pos = 0

    # ------------------------------------------------------------------ #
    # token plumbing
    # ------------------------------------------------------------------ #

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None, ahead: int = 0) -> bool:
        t = self.tokens[self.pos + ahead]
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        # ``kind`` is never EOF, so a match is never the last token.
        t = self.tokens[self.pos]
        if t.kind == kind and (text is None or t.text == text):
            self.pos += 1
            return t
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.tokens[self.pos]
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {t.text!r}", t.line, t.col)
        self.pos += 1
        return t

    def skip_newlines(self) -> None:
        while self.accept("NEWLINE"):
            pass

    def end_statement(self) -> None:
        t = self.peek()
        if t.kind in ("NEWLINE", "EOF"):
            self.accept("NEWLINE")
            return
        if t.kind == "OP" and t.text == "}":
            return  # single-statement brace body: '}' terminates it
        raise ParseError(f"unexpected {t.text!r} at end of statement", t.line, t.col)

    # ------------------------------------------------------------------ #
    # declarations
    # ------------------------------------------------------------------ #

    def parse_program(self) -> Program:
        decls: list[Decl] = []
        self.skip_newlines()
        while self.at("NAME", "array") or self.at("NAME", "scalar"):
            decls.append(self._decl())
            self.skip_newlines()
        body = self._statements_until({"EOF"})
        return Program(tuple(decls), body)

    def _decl(self) -> Decl:
        if self.accept("NAME", "scalar"):
            name = self.expect("NAME").text
            init = None
            if self.accept("OP", "="):
                init = self.expression()
            self.end_statement()
            return ScalarDecl(name, init)
        self.expect("NAME", "array")
        name = self.expect("NAME").text
        self.expect("OP", "[")
        bounds: list[tuple[int, int]] = []
        while True:
            lo = self._signed_int()
            self.expect("OP", ":")
            hi = self._signed_int()
            bounds.append((lo, hi))
            if not self.accept("OP", ","):
                break
        self.expect("OP", "]")
        dist: str | None = None
        seg: tuple[int, ...] | None = None
        universal = False
        dtype = "float64"
        while True:
            if self.accept("NAME", "universal"):
                universal = True
            elif self.accept("NAME", "dist"):
                dist = self._dist_spec(len(bounds))
            elif self.accept("NAME", "seg"):
                seg = self._int_tuple(len(bounds))
            elif self.accept("NAME", "dtype"):
                dtype = self.expect("NAME").text
            else:
                break
        self.end_statement()
        if universal and dist is not None:
            t = self.peek()
            raise ParseError(
                f"array {name} cannot be both universal and distributed",
                t.line, t.col,
            )
        return ArrayDecl(name, tuple(bounds), dist, seg, universal, dtype)

    def _signed_int(self) -> int:
        neg = bool(self.accept("OP", "-"))
        t = self.expect("INT")
        return -int(t.text) if neg else int(t.text)

    def _dist_spec(self, rank: int) -> str:
        self.expect("OP", "(")
        parts: list[str] = []
        while True:
            if self.accept("OP", "*"):
                parts.append("*")
            else:
                word = self.expect("NAME").text.upper()
                if word not in ("BLOCK", "CYCLIC"):
                    t = self.peek()
                    raise ParseError(f"unknown distribution {word!r}", t.line, t.col)
                if word == "CYCLIC" and self.accept("OP", "("):
                    k = self.expect("INT").text
                    self.expect("OP", ")")
                    word = f"CYCLIC({k})"
                parts.append(word)
            if not self.accept("OP", ","):
                break
        self.expect("OP", ")")
        if len(parts) != rank:
            t = self.peek()
            raise ParseError(
                f"distribution has {len(parts)} specs for rank-{rank} array",
                t.line, t.col,
            )
        return "(" + ", ".join(parts) + ")"

    def _int_tuple(self, rank: int) -> tuple[int, ...]:
        self.expect("OP", "(")
        out = [self._signed_int()]
        while self.accept("OP", ","):
            out.append(self._signed_int())
        self.expect("OP", ")")
        if len(out) != rank:
            t = self.peek()
            raise ParseError(
                f"segment shape has {len(out)} extents for rank-{rank} array",
                t.line, t.col,
            )
        return tuple(out)

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def _statements_until(self, stop_names: set[str]) -> Block:
        stmts: list[Stmt] = []
        self.skip_newlines()
        while True:
            t = self.peek()
            if t.kind == "EOF":
                if "EOF" not in stop_names:
                    raise ParseError("unexpected end of input", t.line, t.col)
                break
            if t.kind == "NAME" and t.text in stop_names:
                break
            if t.kind == "OP" and t.text in stop_names:
                break
            stmts.append(self.statement())
            self.skip_newlines()
        return Block(tuple(stmts))

    def statement(self) -> Stmt:
        t = self.peek()
        if t.kind == "NAME":
            if t.text == "do":
                return self._do_loop()
            if t.text == "if":
                return self._if_stmt()
            if t.text == "call":
                return self._call_stmt()
            if t.text == "coll":
                return self._coll_stmt()
        if self._line_has_guard_colon():
            return self._guarded()
        return self._simple_statement()

    def _line_has_guard_colon(self) -> bool:
        """True if the current line contains a bracket-depth-0 ':'."""
        depth = 0
        i = self.pos
        while True:
            t = self.tokens[i]
            if t.kind in ("NEWLINE", "EOF"):
                return False
            if t.kind == "OP":
                if t.text in ("[", "("):
                    depth += 1
                elif t.text in ("]", ")"):
                    depth -= 1
                elif t.text == ":" and depth == 0:
                    return True
                elif t.text == "{" and depth == 0:
                    return False  # block opener before any colon
            i += 1

    def _guarded(self) -> Guarded:
        rule = self.expression()
        self.expect("OP", ":")
        if self.accept("OP", "{"):
            body = self._statements_until({"}"})
            self.expect("OP", "}")
            if self.peek().kind == "NEWLINE":
                self.accept("NEWLINE")
            return Guarded(rule, body)
        if self.at("NAME", "coll"):
            return Guarded(rule, Block((self._coll_stmt(),)))
        stmt = self._simple_statement()
        return Guarded(rule, Block((stmt,)))

    def _do_loop(self) -> DoLoop:
        self.expect("NAME", "do")
        var = self.expect("NAME").text
        self.expect("OP", "=")
        lo = self.expression()
        self.expect("OP", ",")
        hi = self.expression()
        step: Expr = IntConst(1)
        if self.accept("OP", ","):
            step = self.expression()
        self.expect("NEWLINE")
        body = self._statements_until({"enddo"})
        self.expect("NAME", "enddo")
        self.end_statement()
        return DoLoop(var, lo, hi, step, body)

    def _if_stmt(self) -> IfStmt:
        self.expect("NAME", "if")
        cond = self.expression()
        self.expect("NAME", "then")
        self.expect("NEWLINE")
        then = self._statements_until({"else", "endif"})
        orelse = Block()
        if self.accept("NAME", "else"):
            orelse = self._statements_until({"endif"})
        self.expect("NAME", "endif")
        self.end_statement()
        return IfStmt(cond, then, orelse)

    def _call_stmt(self) -> CallStmt:
        self.expect("NAME", "call")
        name = self.expect("NAME").text
        self.expect("OP", "(")
        args: list[Expr] = []
        if not self.at("OP", ")"):
            args.append(self._call_arg())
            while self.accept("OP", ","):
                args.append(self._call_arg())
        self.expect("OP", ")")
        self.end_statement()
        return CallStmt(name, tuple(args))

    def _call_arg(self) -> Expr:
        # A NAME '[' is a section name argument; anything else a value expr.
        if self.at("NAME") and self.at("OP", "[", 1) and self.peek().text not in _KEYWORDS:
            return self._array_ref()
        return self.expression()

    def _coll_stmt(self) -> CollectiveStmt:
        """``coll OP(binders in lo:hi[:step][, root E][, op R]) SRC into DST
        [via SCRATCH]`` — see :class:`CollectiveStmt`."""
        self.expect("NAME", "coll")
        t = self.expect("NAME")
        op = _COLL_OPS.get(t.text)
        if op is None:
            raise ParseError(
                f"unknown collective {t.text!r}; one of "
                f"{sorted(_COLL_OPS)}", t.line, t.col,
            )
        self.expect("OP", "(")
        binders = [self.expect("NAME").text]
        while self.accept("OP", ","):
            if self.at("NAME", "root") or self.at("NAME", "op"):
                t = self.peek()
                raise ParseError(
                    "collective group range ('in lo:hi') must precede "
                    f"{t.text!r}", t.line, t.col,
                )
            binders.append(self.expect("NAME").text)
            if self.at("NAME", "in"):
                break
        self.expect("NAME", "in")
        lo = self.expression()
        self.expect("OP", ":")
        hi = self.expression()
        step: Expr | None = None
        if self.accept("OP", ":"):
            step = self.expression()
        root: Expr | None = None
        reduce_op: str | None = None
        while self.accept("OP", ","):
            kw = self.expect("NAME")
            if kw.text == "root":
                root = self.expression()
            elif kw.text == "op":
                rt = self.next()
                if rt.text not in _REDUCE_OPS:
                    raise ParseError(
                        f"unknown reduce op {rt.text!r}; one of "
                        f"{list(_REDUCE_OPS)}", rt.line, rt.col,
                    )
                reduce_op = rt.text
            else:
                raise ParseError(
                    f"expected 'root' or 'op', found {kw.text!r}",
                    kw.line, kw.col,
                )
        self.expect("OP", ")")
        src = self._array_ref()
        self.expect("NAME", "into")
        dst = self._array_ref()
        scratch: ArrayRef | None = None
        if self.accept("NAME", "via"):
            scratch = self._array_ref()
        self.end_statement()
        return CollectiveStmt(
            op, tuple(binders), (lo, hi, step), src, dst, root, reduce_op,
            scratch,
        )

    def _simple_statement(self) -> Stmt:
        t = self.peek()
        if t.kind == "NAME" and t.text not in _KEYWORDS:
            if self.at("OP", "[", 1):
                ref = self._array_ref()
                return self._after_ref(ref)
            if self.at("OP", "=", 1):
                name = self.next().text
                self.expect("OP", "=")
                expr = self.expression()
                self.end_statement()
                return Assign(VarRef(name), expr)
        # bare expression statement, e.g. await(T[mypid])
        expr = self.expression()
        self.end_statement()
        return ExprStmt(expr)

    def _after_ref(self, ref: ArrayRef) -> Stmt:
        t = self.peek()
        if t.kind == "OP":
            if t.text in ("->", "=>", "-=>"):
                # Destination sets are defined by the paper for 'E -> S';
                # we extend them to ownership sends as the compiler's
                # communication-binding annotation (section 3.2).
                op = {
                    "->": XferOp.SEND_VALUE,
                    "=>": XferOp.SEND_OWNER,
                    "-=>": XferOp.SEND_OWNER_VALUE,
                }[t.text]
                self.next()
                dests = None
                if self.accept("OP", "{"):
                    d = [self.expression()]
                    while self.accept("OP", ","):
                        d.append(self.expression())
                    self.expect("OP", "}")
                    dests = tuple(d)
                self.end_statement()
                return SendStmt(ref, op, dests)
            if t.text == "<-":
                self.next()
                source = self._array_ref()
                self.end_statement()
                return RecvStmt(ref, XferOp.RECV_VALUE, source)
            if t.text == "<=-":
                self.next()
                self.end_statement()
                return RecvStmt(ref, XferOp.RECV_OWNER_VALUE)
            if t.text == "<=":
                self.next()
                self.end_statement()
                return RecvStmt(ref, XferOp.RECV_OWNER)
            if t.text == "=":
                self.next()
                expr = self.expression()
                self.end_statement()
                return Assign(ref, expr)
        raise ParseError(
            f"expected a transfer operator or '=' after section, found {t.text!r}",
            t.line, t.col,
        )

    # ------------------------------------------------------------------ #
    # expressions (precedence climbing)
    # ------------------------------------------------------------------ #

    # A token's text alone tells its kind: only a NAME spells "or", only an
    # OP spells "-".

    def expression(self) -> Expr:
        return self._or()

    def _or(self) -> Expr:
        e = self._and()
        while self.tokens[self.pos].text == "or":
            self.pos += 1
            e = BinOp("or", e, self._and())
        return e

    def _and(self) -> Expr:
        e = self._not()
        while self.tokens[self.pos].text == "and":
            self.pos += 1
            e = BinOp("and", e, self._not())
        return e

    def _not(self) -> Expr:
        if self.tokens[self.pos].text == "not":
            self.pos += 1
            return UnaryOp("not", self._not())
        return self._comparison()

    def _comparison(self) -> Expr:
        e = self._additive()
        t = self.tokens[self.pos]
        if t.kind == "OP" and t.text in ("==", "!=", "<", ">", ">=", "<="):
            self.pos += 1
            return BinOp(t.text, e, self._additive())
        if t.kind == "OP" and t.text == "<=-":
            # Re-split: 'a <=- b' in expression context is 'a <= -b'.
            self.pos += 1
            return BinOp("<=", e, UnaryOp("-", self._unary()))
        return e

    def _additive(self) -> Expr:
        e = self._multiplicative()
        while (t := self.tokens[self.pos]).text in ("+", "-"):
            self.pos += 1
            e = BinOp(t.text, e, self._multiplicative())
        return e

    def _multiplicative(self) -> Expr:
        e = self._unary()
        while (t := self.tokens[self.pos]).text in ("*", "/", "%"):
            self.pos += 1
            e = BinOp(t.text, e, self._unary())
        return e

    def _unary(self) -> Expr:
        if self.tokens[self.pos].text == "-":
            self.pos += 1
            inner = self._unary()
            # Fold negated literals so '-1' round-trips as IntConst(-1).
            if isinstance(inner, IntConst):
                return IntConst(-inner.value)
            if isinstance(inner, FloatConst):
                return FloatConst(-inner.value)
            return UnaryOp("-", inner)
        return self._atom()

    def _atom(self) -> Expr:
        t = self.tokens[self.pos]
        if t.kind == "INT":
            self.pos += 1
            return IntConst(int(t.text))
        if t.kind == "FLOAT":
            # The lexer takes an exponent without digits ("1e+") as part
            # of the literal, so float() can still refuse it.
            try:
                value = float(t.text)
            except ValueError:
                raise ParseError(
                    f"malformed float literal {t.text!r}", t.line, t.col
                ) from None
            self.pos += 1
            return FloatConst(value)
        if t.kind == "OP" and t.text == "(":
            self.pos += 1
            e = self.expression()
            self.expect("OP", ")")
            return e
        if t.kind == "NAME":
            name = t.text
            make = _NULLARY.get(name)
            if make is not None:
                self.pos += 1
                return make()
            if name in ("min", "max"):
                self.pos += 1
                self.expect("OP", "(")
                a = self.expression()
                self.expect("OP", ",")
                b = self.expression()
                self.expect("OP", ")")
                return BinOp(name, a, b)
            if name in _INTRINSIC_NAMES:
                return self._intrinsic()
            if name in _KEYWORDS:
                raise ParseError(f"unexpected keyword {name!r}", t.line, t.col)
            self.pos += 1
            if self.at("OP", "["):
                return self._array_ref_after_name(name)
            return VarRef(name)
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)

    def _intrinsic(self) -> Expr:
        t = self.next()
        name = t.text
        self.expect("OP", "(")
        ref = self._array_ref()
        if name in ("mylb", "myub"):
            self.expect("OP", ",")
            dim = self.expression()
            self.expect("OP", ")")
            return Mylb(ref, dim) if name == "mylb" else Myub(ref, dim)
        self.expect("OP", ")")
        if name == "iown":
            return Iown(ref)
        if name == "accessible":
            return Accessible(ref)
        return Await(ref)

    # ------------------------------------------------------------------ #
    # array references / sections
    # ------------------------------------------------------------------ #

    def _array_ref(self) -> ArrayRef:
        t = self.expect("NAME")
        if t.text in _KEYWORDS:
            raise ParseError(f"{t.text!r} is a keyword, not an array", t.line, t.col)
        return self._array_ref_after_name(t.text)

    def _array_ref_after_name(self, name: str) -> ArrayRef:
        self.expect("OP", "[")
        subs: list[Subscript] = [self._subscript()]
        while self.accept("OP", ","):
            subs.append(self._subscript())
        self.expect("OP", "]")
        return ArrayRef(name, tuple(subs))

    def _subscript(self) -> Subscript:
        if self.accept("OP", "*"):
            return Full()
        lo: Expr | None = None
        if not self.at("OP", ":"):
            lo = self.expression()
        if not self.accept("OP", ":"):
            assert lo is not None
            return Index(lo)
        hi: Expr | None = None
        if not (self.at("OP", ",") or self.at("OP", "]") or self.at("OP", ":")):
            hi = self.expression()
        step: Expr | None = None
        if self.accept("OP", ":"):
            step = self.expression()
        return Range(lo, hi, step)


def parse_program(text: str) -> Program:
    """Parse a complete IL+XDP program (declarations + body)."""
    p = _Parser(tokenize(text))
    prog = p.parse_program()
    p.skip_newlines()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return prog


def parse_statements(text: str) -> Block:
    """Parse a statement sequence (no declarations)."""
    p = _Parser(tokenize(text))
    block = p._statements_until({"EOF"})
    return block


def parse_expression(text: str) -> Expr:
    """Parse a single expression."""
    p = _Parser(tokenize(text))
    e = p.expression()
    p.skip_newlines()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return e
