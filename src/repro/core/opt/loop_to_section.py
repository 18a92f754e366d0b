"""Loop-to-section: affine element loops become section assignments
(paper section 2.2).

"If the loop bounds can be adjusted so that each processor only executes
the iterations which assign to elements of A which it owns, then the
ownership test in the compute rule can also be eliminated, yielding a much
more efficient SPMD program."  What that leaves is a loop whose iterations
move no data and differ only in a subscript, and the IL names sections in
Fortran-90 triplets precisely so that the compiler can treat them whole:
``do i = 514, 575 { B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3.0 }`` becomes
``B[514:575] = (A[513:574] + A[514:575] + A[515:576]) / 3.0`` — one
statement per body statement, innermost loop first, so a rank-2 nest
collapses into one assignment.  It is an IL-to-IL rewrite, not a back-end
kernel: the interpreter, the lowered code and the communication verifier
all execute section assignments already, so all three stop walking
elements.  Symbolic bounds (compute-rule elimination's ``max(lo,
mylb(..))``) keep their expressions under a ``lo <= hi`` guard, because an
empty trip must not name an empty triplet.

Legality is decided on sections by the machinery loop fusion uses.  A
section assignment gathers its right-hand side before it scatters, so a
read meeting a *later* iteration's write (anti) survives; a write meeting
a later iteration's read or write (flow, output) keeps the loop.  Several
statements are distributed in order, which is fusion read backwards: no
statement at iteration ``i`` may conflict with an earlier one at a later
``j``.  Only float64 arrays take part: scalar ``/`` floor-divides integers
where the elementwise one does not, and numpy's complex loops round
differently from Python's complex scalars (``min``/``max`` agree except on
NaN).  Every loop of the right shape that is kept says why in the report.
"""

from __future__ import annotations

from ...runtime.symtab import MAXINT, MININT
from ..analysis.consteval import const_eval
from ..analysis.ownership import CompilerContext
from ..analysis.refsets import RefSets, loop_offset, refsets_by_class
from ..ir.nodes import (
    Accessible, ArrayRef, Assign, Await, BinOp, Block, DoLoop, Expr,
    FloatConst, Guarded, Index, IntConst, Iown, Mylb, Mypid, Myub, NumProcs,
    Program, Range, Stmt, UnaryOp, VarRef,
)
from ..ir.printer import print_expr, print_ref, print_stmt
from ..ir.visitor import map_block, subscript_exprs, subscript_parts, walk_exprs
from ..sections import Triplet
from .fusion import _meets_later

__all__ = ["LoopToSection"]


class _Refused(Exception):
    """Why a loop of the right shape is kept (the text of the report)."""


class LoopToSection:
    name = "loop-to-section"

    def run(self, program: Program, ctx: CompilerContext) -> Program:
        def on_stmt(s: Stmt) -> Stmt | list[Stmt]:
            if not isinstance(s, DoLoop) or not len(s.body) or not all(
                    isinstance(b, Assign) for b in s.body):
                return s
            try:
                guard, out = _rewrite(s, ctx)
            except _Refused as why:
                ctx.decline(self.name, f"the loop over {s.var} {why}")
                return s
            text = "; ".join(print_stmt(o)[0] for o in out)
            if guard is not None:
                text = f"{print_expr(guard)} : {{ {text} }}"
                out = [Guarded(guard, Block(tuple(out)))]
            ctx.note(f"{self.name}: rewrote the loop over {s.var} as "
                     + (text or "nothing (it never runs)"))
            return out

        # Bottom-up, so an enclosing loop is tried on the rewritten body.
        return Program(program.decls, map_block(program.body, on_stmt))


def _invariant(exprs, var: str) -> bool:
    """Pure, integral and the same at every iteration: no mention of
    ``var`` (the body assigns no other scalar), no array value, and of the
    intrinsics only ``mylb``/``myub`` (the body moves no ownership)."""
    nodes = [n for e in exprs for n in walk_exprs(e)]
    named = [n.ref for n in nodes if isinstance(n, (Mylb, Myub))]
    return not any(
        n == VarRef(var) or isinstance(n, (FloatConst, Iown, Accessible, Await))
        or isinstance(n, ArrayRef) and not any(n is r for r in named)
        for n in nodes)


def _shift(e: Expr, c: int) -> Expr:
    if isinstance(e, IntConst):
        return IntConst(e.value + c)
    return e if c == 0 else BinOp("+" if c > 0 else "-", e, IntConst(abs(c)))


class _Lifter:
    """Rewrites the body statements of the loop over ``var`` onto
    ``lo:hi:step``, refusing whatever has no elementwise equivalent."""

    def __init__(self, var: str, ctx: CompilerContext, lo: Expr, hi: Expr, step: int):
        self.var, self.ctx, self.lo, self.hi = var, ctx, lo, hi
        self.env = ctx.consts.without(var)
        self.step = None if step == 1 else IntConst(step)

    def assign(self, s: Assign) -> Assign:
        if not isinstance(s.target, ArrayRef):
            raise _Refused(f"assigns the scalar {s.target.name}")
        # Sections keep their rank, so operands line up from the last
        # dimension: the loop's axis must sit at one distance from it.
        self.axes: set[int] = set()
        target = self.ref(s.target)
        if not self.axes:
            raise _Refused(f"writes {print_ref(s.target)} at every iteration")
        out = Assign(target, self.value(s.expr))
        if len(self.axes) > 1:
            raise _Refused(
                f"subscripts different dimensions of the operands of "
                f"{print_ref(s.target)} by {self.var}")
        return out

    def value(self, e: Expr) -> Expr:
        match e:
            case VarRef(name) if name == self.var:
                raise _Refused(f"uses {self.var} as a value")
            case IntConst() | FloatConst() | Mypid() | NumProcs() | VarRef():
                return e
            case UnaryOp("-", operand):
                return UnaryOp("-", self.value(operand))
            case BinOp("+" | "-" | "*" | "/" | "min" | "max" as op, lhs, rhs):
                return BinOp(op, self.value(lhs), self.value(rhs))
            case ArrayRef():
                return self.ref(e)
        raise _Refused(f"computes {print_expr(e)}, which is not elementwise")

    def ref(self, r: ArrayRef) -> ArrayRef:
        decl = self.ctx.array_decl(r.var)
        if decl is None or decl.dtype != "float64":
            raise _Refused(f"touches {r.var}, which is not a float64 array")
        on_var = [d for d, sub in enumerate(r.subs)
                  if VarRef(self.var) in subscript_exprs(sub)]
        if not _invariant((e for d, sub in enumerate(r.subs) if d not in on_var
                           for e in subscript_parts(sub)), self.var):
            raise _Refused(
                f"subscripts {print_ref(r)} by something not loop-invariant")
        if not on_var and not r.is_element():
            raise _Refused(
                f"has the loop-invariant section operand {print_ref(r)}")
        if not on_var:
            return r
        d, sub = on_var[0], r.subs[on_var[0]]
        off = loop_offset(sub.expr, self.var, self.env) if isinstance(
            sub, Index) else None
        if len(on_var) > 1 or off is None:
            raise _Refused(
                f"subscripts {print_ref(r)} by {self.var} other than as "
                f"{self.var} ± c in one dimension")
        self.axes.add(len(r.subs) - d)
        section = Range(_shift(self.lo, off), _shift(self.hi, off), self.step)
        return ArrayRef(r.var, r.subs[:d] + (section,) + r.subs[d + 1:])


def _rewrite(loop: DoLoop, ctx: CompilerContext) -> tuple[Expr | None, list[Stmt]]:
    """The ``lo <= hi`` guard (symbolic bounds only) and the section
    assignments that replace ``loop``."""
    var, env = loop.var, ctx.consts.without(loop.var)
    step = const_eval(loop.step, env)
    if type(step) is not int or step == 0 or not _invariant(
            (loop.lo, loop.hi), var):
        raise _Refused("has a step or bounds not fixed on entry")
    lo, hi = const_eval(loop.lo, env), const_eval(loop.hi, env)
    stride, guard = abs(step), None
    if type(lo) is int and type(hi) is int:
        trips = (hi - lo) // step + 1
        if trips <= 0:
            return None, []
        first, last = sorted((lo, lo + (trips - 1) * step))
        run = Triplet(first, last, stride)
        lo_e, hi_e = IntConst(first), IntConst(last)
    else:
        # Any iteration at all.  Sections ascend whichever way the loop
        # ran, so a descending one starts at the last value it reaches.
        run = Triplet(MININT, MAXINT)
        lo_e, hi_e = (loop.lo, loop.hi) if step > 0 else (loop.hi, loop.lo)
        guard = BinOp("<=", lo_e, hi_e)
        if step < -1:
            more_trips = BinOp("/", BinOp("-", hi_e, lo_e), IntConst(stride))
            lo_e = BinOp("-", hi_e, BinOp("*", more_trips, IntConst(stride)))
    lifter = _Lifter(var, ctx, lo_e, hi_e, stride)
    out: list[Stmt] = [lifter.assign(s) for s in loop.body]

    def meet(mine, theirs) -> bool:
        return _meets_later(mine, theirs, run, step < 0)

    for sets in refsets_by_class([(s, var) for s in loop.body], ctx):
        for k, refs in enumerate(sets):
            target = print_ref(loop.body.stmts[k].target)
            # The gather precedes the scatter, so within one statement only
            # a write reaching a later iteration's operand or target counts.
            if RefSets(writes=refs.writes).conflicts_with(refs, meet):
                raise _Refused(
                    f"carries a flow or output dependence through {target}")
            if any(refs.conflicts_with(earlier, meet) for earlier in sets[:k]):
                raise _Refused(
                    f"cannot be distributed: the statement assigning {target} "
                    "conflicts with an earlier one's later iteration")
    return guard, out
