"""Reference-set analysis: what a statement reads, writes, transfers and
queries.

Loop fusion in the paper (section 4) needs more than classic dependence
testing: "the analysis for validity of fusion must also check to make sure
that between any ``-=>`` and its corresponding ``<=-`` operation, no
ownership queries are performed on the associated data, and that these data
are not accessed by computation in the interim."  :class:`RefSets`
therefore tracks five categories:

* ``reads`` / ``writes`` — value accesses;
* ``released`` / ``acquired`` — ownership leaving / arriving;
* ``queried`` — sections named by ownership intrinsics (``iown`` etc.).

Sections are concrete when compile-time resolvable; any unresolvable
reference sets ``unknown`` and forces clients to be conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..ir.nodes import (
    Accessible, ArrayRef, Assign, Await, BinOp, Block, CallStmt, DoLoop, Expr,
    ExprStmt, Full, Guarded, IfStmt, Index, Iown, MaxIntConst, MinIntConst, Mylb,
    Mypid, Myub, Range, RecvStmt, SendStmt, Stmt, UnaryOp, VarRef, XferOp,
)
from ..ir.visitor import all_exprs, subscript_exprs, subscript_parts, walk_exprs
from ..sections import Section
from .consteval import ConstEnv, const_eval
from .layouts import decl_index_space
from .ownership import CompilerContext, OwnershipAnalysis

__all__ = [
    "RefSets", "LoopSection", "loop_offset", "stmt_refsets", "refsets_by_class",
]


def _intersects(a: Section, b: Section) -> bool:
    return a.intersect(b) is not None


@dataclass
class RefSets:
    """Named sections touched by a statement, by category (``Section``s,
    or ``LoopSection``s when collected with a loop variable symbolic)."""

    reads: list[tuple[str, Section]] = field(default_factory=list)
    writes: list[tuple[str, Section]] = field(default_factory=list)
    released: list[tuple[str, Section]] = field(default_factory=list)
    acquired: list[tuple[str, Section]] = field(default_factory=list)
    queried: list[tuple[str, Section]] = field(default_factory=list)
    unknown: bool = False

    def conflicts_with(self, other: "RefSets", meet=_intersects) -> bool:
        """True if reordering these two statement instances could change
        behaviour: write/write, read/write, any ownership-transfer overlap
        with the other's accesses or queries, or unknown references.
        ``meet(mine, theirs)`` decides whether two same-array entries
        overlap."""
        if self.unknown or other.unknown:
            return True

        def m(mine: list, theirs: list) -> bool:
            return any(
                name_a == name_b and meet(a, b)
                for name_a, a in mine for name_b, b in theirs)

        touched_self = self.reads + self.writes + self.queried
        touched_other = other.reads + other.writes + other.queried
        moves_self = self.released + self.acquired
        moves_other = other.released + other.acquired
        return (
            m(self.writes, other.writes)
            or m(self.writes, other.reads)
            or m(self.reads, other.writes)
            or m(moves_self, touched_other + moves_other)
            or m(touched_self, moves_other)
        )


@dataclass(frozen=True)
class LoopSection:
    """A section with one loop variable left symbolic: dimension ``d`` is
    the single index ``var + offsets[d]`` where that is an int, and the
    constant triplet ``sec.dims[d]`` where it is ``None``."""

    sec: Section
    offsets: tuple[int | None, ...]


_ANY_INDEX = Range(MinIntConst(), MaxIntConst())


def loop_offset(e: Expr, var: str, env: ConstEnv) -> int | None:
    """``c`` when ``e`` is ``var + c`` with ``c`` a compile-time integer
    (``env`` must not bind ``var``)."""
    match e:
        case VarRef(name) if name == var:
            return 0
        case BinOp("+" | "-" as op, lhs, rhs):
            # var + c, c + var, var - c; not c - var
            for sym, const in [(lhs, rhs)] + [(rhs, lhs)] * (op == "+"):
                off, c = loop_offset(sym, var, env), const_eval(const, env)
                if off is not None and isinstance(c, int):
                    return off + c if op == "+" else off - c
    return None


class _Collector:
    """One walk over a statement subtree filling a :class:`RefSets`."""

    def __init__(self, ctx: CompilerContext, loop_var: str | None):
        self.analysis = OwnershipAnalysis(ctx)
        self.var = loop_var
        self.out = RefSets()

    def record(self, ref: ArrayRef, bucket: list, env: ConstEnv) -> None:
        decl = self.analysis.ctx.array_decl(ref.var)
        if decl is None:
            return  # scalar or unknown name: handled via free_scalars elsewhere
        # A subscript written with the loop variable in any other shape
        # than ``var + c`` could be any index at all; one written with
        # anything else unknown here (an enclosing loop's variable), any
        # index of its dimension.
        uses = [self.var is not None and VarRef(self.var) in subscript_exprs(sub)
                for sub in ref.subs]
        sec = self.analysis.resolve(
            ArrayRef(ref.var, tuple(
                _ANY_INDEX if u else sub if all(
                    const_eval(p, env) is not None for p in subscript_parts(sub))
                else Full() for u, sub in zip(uses, ref.subs))), env)
        if sec is None:
            # Universal data is private per processor (and a range may be
            # empty under these constants): the whole array.
            uses, sec = [False] * decl.rank, decl_index_space(decl)
        if self.var is None:
            bucket.append((ref.var, sec))
            return
        bucket.append((ref.var, LoopSection(sec, tuple(
            loop_offset(sub.expr, self.var, env)
            if u and isinstance(sub, Index) else None
            for u, sub in zip(uses, ref.subs)))))

    def expr(self, e: Expr, env: ConstEnv) -> None:
        for sub in walk_exprs(e):
            match sub:
                case Iown(ref) | Accessible(ref) | Await(ref) | Mylb(ref, _) | Myub(ref, _):
                    self.record(ref, self.out.queried, env)
        self.value_reads(e, env)

    def value_reads(self, e: Expr, env: ConstEnv) -> None:
        """ArrayRefs not in intrinsic-name position."""
        match e:
            case ArrayRef():
                self.record(e, self.out.reads, env)
            case Mylb(_, dim) | Myub(_, dim):
                self.value_reads(dim, env)
            case BinOp(_, lhs, rhs):
                self.value_reads(lhs, env)
                self.value_reads(rhs, env)
            case UnaryOp(_, operand):
                self.value_reads(operand, env)

    def stmt(self, stmt: Stmt | Block, env: ConstEnv) -> None:
        out = self.out
        match stmt:
            case Block(stmts):
                for s in stmts:
                    self.stmt(s, env)
            case Guarded(rule, body):
                self.expr(rule, env)
                self.stmt(body, env)
            case Assign(target, expr):
                if isinstance(target, ArrayRef):
                    self.record(target, out.writes, env)
                self.expr(expr, env)
            case SendStmt(ref, op, dests):
                if op is XferOp.SEND_VALUE:
                    self.record(ref, out.reads, env)
                else:
                    self.record(ref, out.released, env)
                    if op is XferOp.SEND_OWNER_VALUE:
                        self.record(ref, out.reads, env)
                for d in dests or ():
                    self.expr(d, env)
            case RecvStmt(into, op, _):
                self.record(into, out.writes, env)
                if op is not XferOp.RECV_VALUE:
                    self.record(into, out.acquired, env)
            case CallStmt(_, args):
                for a in args:
                    if isinstance(a, ArrayRef) and not a.is_element():
                        self.record(a, out.reads, env)
                        self.record(a, out.writes, env)
                    else:
                        self.expr(a, env)
            case ExprStmt(expr):
                self.expr(expr, env)
            case IfStmt(cond, then, orelse):
                self.expr(cond, env)
                self.stmt(then, env)
                self.stmt(orelse, env)
            case DoLoop() as loop:
                vals = self.analysis.iteration_values(loop, env)
                if vals is None:
                    out.unknown = True
                    return
                for v in vals:
                    self.stmt(loop.body, env.bind(**{loop.var: v}))
            case _:
                out.unknown = True


def stmt_refsets(
    stmt: Stmt | Block, ctx: CompilerContext, env: ConstEnv,
    loop_var: str | None = None,
) -> RefSets:
    """Reference sets of one statement (or block) instance under ``env``.

    Nested loops are enumerated when bounds are compile-time constants;
    otherwise the result is marked ``unknown``.  With ``loop_var`` that
    variable stays symbolic whatever ``env`` binds it to, and every entry
    is a ``(name, LoopSection)``: the references of *all* iterations of
    the enclosing loop at once.
    """
    if loop_var is not None:
        env = env.without(loop_var)
    collector = _Collector(ctx, loop_var)
    collector.stmt(stmt, env)
    return collector.out


def refsets_by_class(
    stmts: Sequence[tuple[Stmt | Block, str]], ctx: CompilerContext
) -> Iterator[list[RefSets]]:
    """The loop-symbolic reference sets of each ``(statement, loop
    variable)`` on every processor, once per class of processors whose
    ``mypid``-dependent subscripts resolve alike."""
    seen = set()
    on_pid = any(isinstance(e, Mypid) for s, _ in stmts for e in all_exprs(s))
    for pid in range(ctx.nprocs if on_pid else 1):
        penv = ctx.consts.at_pid(pid + 1)
        sets = [stmt_refsets(s, ctx, penv, var) for s, var in stmts]
        key = tuple((r.unknown, *map(tuple, (
            r.reads, r.writes, r.released, r.acquired, r.queried))) for r in sets)
        if key not in seen:
            seen.add(key)
            yield sets
