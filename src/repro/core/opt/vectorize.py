"""Message vectorization (paper section 2.2).

"Even if they cannot be eliminated, the compiler may be able to move them
out of the computation loop and combine or *vectorize* the messages."

The pass targets the translated owner-computes loop

.. code-block:: none

    do i = lo, hi
      iown(R[i]) : { R[i] -> }
      iown(L[i]) : { T[mypid] <- R[i] ; await(T[mypid]) ; body(i) }
    enddo

and, when ownership of both sides is fully enumerable, replaces the
per-element messages with one message per communicating processor pair:

.. code-block:: none

    mypid == s : { R[sec_sr] -> {r} }        # for each pair s -> r
    mypid == r : { _V[sec_sr] <- R[sec_sr] }
    mypid == s : { _V[sec_ss] = R[sec_ss] }  # local copy, no message
    mypid == r : { await(_V[recv_total]) }
    do i = lo, hi
      iown(L[i]) : { body(i)[T[mypid] := _V[i]] }
    enddo

``_V`` is a fresh buffer over R's index space distributed like L, so each
receiver owns exactly the slots it needs.  Element sets that do not form a
single triplet are split into several messages (still far fewer than one
per element).  Explicit ``mypid == s`` guards are ordinary generalized
compute rules (section 2.4) — the grid is compile-time fixed, so emitting
per-pair statements keeps the program SPMD.
"""

from __future__ import annotations

from ..analysis.consteval import const_eval
from ..analysis.ownership import CompilerContext
from ..ir.nodes import (
    ArrayDecl, ArrayRef, Assign, Await, BinOp, Block, DoLoop, Expr, ExprStmt,
    Guarded, Index, IntConst, Iown, Mypid, Program, Range, RecvStmt,
    SendStmt, Stmt, VarRef, XferOp,
)
from ..ir.printer import print_ref
from ..ir.visitor import map_expr, map_stmt
from ..sections import Triplet, group_into_triplets
from .common import OrderedRewriter

__all__ = ["MessageVectorization"]


class MessageVectorization:
    name = "message-vectorization"

    def run(self, program: Program, ctx: CompilerContext) -> Program:
        rewriter = _Rewriter(ctx)
        body = rewriter.rewrite_block(program.body, [])
        return Program(tuple(program.decls) + tuple(rewriter.new_decls), body)


class _Rewriter(OrderedRewriter):
    def __init__(self, ctx: CompilerContext):
        super().__init__(ctx)
        self.new_decls: list[ArrayDecl] = []
        self._counter = 0

    def visit(self, stmt: Stmt, loops) -> Stmt | list[Stmt] | None:
        if isinstance(stmt, DoLoop) and not loops:
            replaced = self._try_vectorize(stmt)
            if replaced is not None:
                return replaced
        return self.recurse(stmt, loops)

    # ------------------------------------------------------------------ #

    def _try_vectorize(self, loop: DoLoop) -> list[Stmt] | None:
        pat = self._match(loop)
        if pat is None:
            return None
        r_ref, l_ref, temp_ref, rest = pat
        if not (self.flow.initial(r_ref.var) and self.flow.initial(l_ref.var)):
            return None
        env = self.ctx.consts
        vals = self.analysis.iteration_values(loop, env)
        if vals is None or const_eval(loop.step, env) != 1:
            return None
        r_decl = self.ctx.array_decl(r_ref.var)
        l_decl = self.ctx.array_decl(l_ref.var)
        if r_decl is None or l_decl is None:
            return None
        if r_decl.rank != 1 or len(r_ref.subs) != 1 or len(l_ref.subs) != 1:
            return None
        if r_ref.subs[0] != Index(VarRef(loop.var)) or l_ref.subs[0] != Index(
            VarRef(loop.var)
        ):
            return None

        # Enumerate the communication sets.
        pairs: dict[tuple[int, int], list[int]] = {}
        for i in vals:
            e = env.bind(**{loop.var: i})
            s = self.analysis.owner_of(r_ref, e)
            r = self.analysis.owner_of(l_ref, e)
            if s is None or r is None:
                return None
            pairs.setdefault((s, r), []).append(i)

        buf = self._fresh_buffer(r_decl, l_decl)
        pre: list[Stmt] = []
        copies: list[Stmt] = []
        awaits: list[Stmt] = []
        n_messages = 0
        for (s, r), elems in sorted(pairs.items()):
            for t in group_into_triplets(sorted(elems)):
                sec_sub = (_range_of(t),)
                src = ArrayRef(r_ref.var, sec_sub)
                dst = ArrayRef(buf, sec_sub)
                if s == r:
                    copies.append(
                        Guarded(
                            _is_pid(s),
                            Block((Assign(dst, src),)),
                        )
                    )
                else:
                    n_messages += 1
                    pre.append(
                        Guarded(
                            _is_pid(s),
                            Block((SendStmt(src, XferOp.SEND_VALUE, (IntConst(r + 1),)),)),
                        )
                    )
                    copies.append(
                        Guarded(
                            _is_pid(r),
                            Block((RecvStmt(dst, XferOp.RECV_VALUE, src),)),
                        )
                    )
                    awaits.append(
                        Guarded(_is_pid(r), Block((ExprStmt(Await(dst)),)))
                    )

        # Rebuild the compute loop with the buffer substituted for the temp.
        def swap(e: Expr) -> Expr:
            if isinstance(e, ArrayRef) and e == temp_ref:
                return ArrayRef(buf, (Index(VarRef(loop.var)),))
            return e

        def on_stmt(st: Stmt) -> Stmt:
            match st:
                case Assign(target, expr):
                    t2 = map_expr(target, swap) if isinstance(target, ArrayRef) else target
                    return Assign(t2, map_expr(expr, swap))
                case ExprStmt(expr):
                    return ExprStmt(map_expr(expr, swap))
                case Guarded(rule, body):
                    return Guarded(map_expr(rule, swap), body)
                case _:
                    return st

        new_body = [map_stmt(s_, on_stmt) for s_ in rest]
        compute = DoLoop(
            loop.var, loop.lo, loop.hi, loop.step,
            Block((Guarded(Iown(l_ref), Block(tuple(new_body))),)),
        )
        self.ctx.note(
            f"{MessageVectorization.name}: combined {len(vals)} per-element "
            f"transfers of {print_ref(r_ref)} into {n_messages} "
            "per-processor-pair messages"
        )
        return pre + copies + awaits + [compute]

    def _match(self, loop: DoLoop):
        """Match the canonical translated two-statement loop body."""
        if len(loop.body) != 2:
            return None
        first, second = loop.body.stmts
        match first:
            case Guarded(Iown(g1), Block((SendStmt(r_ref, XferOp.SEND_VALUE, _),))):
                # Bound or unbound destinations: the pass re-derives the
                # per-pair destinations from the enumeration anyway.
                if g1 != r_ref:
                    return None
            case _:
                return None
        match second:
            case Guarded(Iown(l_ref), Block(stmts)) if len(stmts) >= 3:
                match stmts[0], stmts[1]:
                    case (
                        RecvStmt(temp_ref, XferOp.RECV_VALUE, source_ref),
                        ExprStmt(Await(await_ref)),
                    ) if await_ref == temp_ref and source_ref == r_ref:
                        return r_ref, l_ref, temp_ref, list(stmts[2:])
        return None

    def _fresh_buffer(self, r_decl: ArrayDecl, l_decl: ArrayDecl) -> str:
        self._counter += 1
        name = f"_V{self._counter}"
        while any(d.name == name for d in self.ctx.program.decls):
            self._counter += 1
            name = f"_V{self._counter}"
        # Element-granularity segments: a receive into one buffer slot must
        # not make sibling slots transitional, or later receive initiations
        # (which block until their destination is accessible) would
        # serialize — and, re-ordered, could deadlock (the paper's
        # section-3.2 warning about blocking primitives).
        self.new_decls.append(
            ArrayDecl(
                name,
                bounds=r_decl.bounds,
                dist=l_decl.dist,
                segment_shape=(1,) * len(r_decl.bounds),
                dtype=r_decl.dtype,
            )
        )
        return name


def _is_pid(pid0: int) -> Expr:
    return BinOp("==", Mypid(), IntConst(pid0 + 1))


def _range_of(t: Triplet) -> Index | Range:
    if t.size == 1:
        return Index(IntConst(t.lo))
    step = None if t.step == 1 else IntConst(t.step)
    return Range(IntConst(t.lo), IntConst(t.hi), step)
