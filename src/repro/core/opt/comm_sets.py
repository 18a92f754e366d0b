"""Communication sets: a processor receives what it needs minus what it
owns (paper section 2.2).

The translator's owner-computes loop (:mod:`repro.core.translate`) sends
every right-hand-side element to the owner of the left-hand side, one
message per reference and iteration:

.. code-block:: none

    do i = lo, hi
      iown(R1[..]) : { R1[..] -> }      # one per reference R_j
      iown(L[..]) : {
        T1[mypid] <- R1[..]
        await(T1[mypid])
        ...
        L[..] = f(T1[mypid], ...)
      }
    enddo

In Eijkhout's terms (PAPERS.md) processor p owns α_p; the iterations
I_p whose ``L`` it owns need β_p = R_j(I_p); and it must receive exactly
β_p ∖ α_p.  With every subscript ``i + c`` or a constant, all three are
sections, so this pass computes them by triplet algebra on the iteration
space, never listing an element, as functions of p: bounds affine in
``mypid``, once per run of processors and offset δ to the owner ``p + δ``
(a run splits where no one formula fits, and the report says why):

* **β∖α empty on every processor** — ``R_j`` is read in place and its
  transfers are deleted (the paper's *transfer elimination*);
* **otherwise** — :func:`~repro.core.redistgen.value_transfers` emits
  before the loop one send and receive per run, δ ≠ 0 and piece into a
  buffer ``_V`` distributed like ``L`` (one message per processor pair
  and piece: *message vectorization*); each processor copies its β∩α
  part into it locally, awaits the rest, and the loop reads ``_V[L's
  subscripts]``.  The listing does not grow with the number of processors.

It declines on symbolic bounds or subscripts, on ownership that moved
before the loop, and on a loop that writes an array it also reads at
another index (hoisting that read would change the result).
"""

from __future__ import annotations

from ..analysis.consteval import ConstEnv, const_eval
from ..analysis.layouts import build_segmentation
from ..analysis.ownership import CompilerContext
from ..analysis.refsets import loop_offset
from ..ir.nodes import (
    ArrayDecl, ArrayRef, Assign, Await, BinOp, Block, DoLoop, ExprStmt, Guarded,
    Index, IntConst, Iown, Mypid, Program, RecvStmt, ScalarDecl, SendStmt, Stmt,
    VarRef, XferOp,
)
from ..ir.printer import print_ref
from ..ir.visitor import free_scalars, map_expr, subscript_exprs, walk_stmts
from ..pidaffine import per_run
from ..redistgen import value_transfers
from ..sections import Section, Triplet
from .common import OrderedRewriter, meet, merged

__all__ = ["CommunicationSets"]

#: Per dimension, ``(c, None)`` for the subscript ``i + c`` and
#: ``(None, k)`` for the constant ``k``.
_Shape = tuple[tuple[int | None, int | None], ...]


class CommunicationSets:
    name = "communication-sets"

    def run(self, program: Program, ctx: CompilerContext) -> Program:
        rewriter = _Rewriter(ctx)
        body = rewriter.rewrite_block(program.body, [])
        return Program(tuple(program.decls) + tuple(rewriter.new_decls), body)


def _match(loop: DoLoop):
    """The translated idiom as ``(reads, lhs, temps, assign)``, or ``None``."""
    *sends, last = loop.body.stmts or (None,)
    reads = []
    for s in sends:
        match s:
            case Guarded(Iown(g), Block((SendStmt(r, XferOp.SEND_VALUE, _),))) if g == r:
                reads.append(r)
            case _:
                return None
    match last:
        case Guarded(Iown(lhs), Block((*pairs, Assign() as assign))) if (
                reads and len(pairs) == 2 * len(reads) and assign.target == lhs):
            pass
        case _:
            return None
    temps = []
    for r, recv, wait in zip(reads, pairs[::2], pairs[1::2]):
        match recv, wait:
            case (RecvStmt(t, XferOp.RECV_VALUE, src), ExprStmt(Await(w))) if src == r and w == t:
                temps.append(t)
            case _:
                return None
    names = {t.var for t in temps}
    if len(names) < len(temps) or names & {lhs.var, *(r.var for r in reads)}:
        return None
    return reads, lhs, temps, assign


def _assignments(loop: DoLoop) -> int | None:
    """How many owner-computes assignments (``iown(L) : { ... L = ... }``)
    a body with the translator's ``_T[mypid]`` receives holds, or ``None``."""
    blocks = [g for g in loop.body if isinstance(g, Guarded) and isinstance(g.rule, Iown)]
    if any(isinstance(x, RecvStmt) and x.into.subs == (Index(Mypid()),)
           for g in blocks for x in g.body):
        return sum(isinstance(x, Assign) and x.target == g.rule.ref for g in blocks for x in g.body)


def _shape(ref: ArrayRef, var: str, env: ConstEnv) -> _Shape | None:
    """``ref``'s subscripts as ``i + c`` or constants, ``i`` in at most one
    dimension, or ``None``."""
    out = []
    for sub in ref.subs:
        if not isinstance(sub, Index):
            return None
        if VarRef(var) in subscript_exprs(sub):
            off = loop_offset(sub.expr, var, env)
            if off is None:
                return None
            out.append((off, None))
        elif isinstance(k := const_eval(sub.expr, env), int) and not isinstance(k, bool):
            out.append((None, k))
        else:
            return None
    return tuple(out) if sum(off is not None for off, _ in out) <= 1 else None


def _preimage(shape: _Shape, sec: Section, iters: Triplet) -> Triplet | None:
    """The iterations in ``iters`` at which the reference falls in ``sec``."""
    for (off, k), t in zip(shape, sec.dims):
        if off is None:
            if k not in t:
                return None
        elif (iters := meet(iters, Triplet(t.lo - off, t.hi - off, t.step))) is None:
            return None
    return iters


def _image(shape: _Shape, iters: Triplet) -> Section:
    """What the reference names over ``iters``."""
    return Section(tuple(Triplet(k, k) if off is None else
                         Triplet(iters.lo + off, iters.hi + off, iters.step)
                         for off, k in shape))


class _Rewriter(OrderedRewriter):
    def __init__(self, ctx: CompilerContext):
        super().__init__(ctx)
        self.new_decls: list[ArrayDecl | ScalarDecl] = []
        self.scaled: dict[int, VarRef] = {}

    def visit(self, stmt: Stmt, loops) -> Stmt | list[Stmt] | None:
        if isinstance(stmt, DoLoop) and (idiom := _match(stmt)) is not None:
            replaced = self._rewrite(stmt, *idiom)
            if replaced is not None:
                return replaced
        elif isinstance(stmt, DoLoop) and (k := _assignments(stmt)) not in (None, 1):
            self._decline(f"the loop over {stmt.var} holds {k} owner-computes "
                          "assignments; only a loop of one is matched")
        return self.recurse(stmt, loops)

    def _decline(self, reason: str) -> None:
        self.ctx.decline(CommunicationSets.name, reason)

    def _rewrite(self, loop: DoLoop, reads: list[ArrayRef], lhs: ArrayRef,
                 temps: list[ArrayRef], assign: Assign) -> list[Stmt] | DoLoop | None:
        ctx, var = self.ctx, loop.var
        env = ctx.consts.without(var)
        lo, hi, step = (const_eval(e, env) for e in (loop.lo, loop.hi, loop.step))
        if not all(type(b) is int for b in (lo, hi, step)) or step == 0:
            return self._decline(f"the loop over {var} has symbolic bounds")
        # The values the loop runs through, to the last one it reaches:
        # ``do i = 10, 2, -3`` runs 10, 7, 4, not Triplet(10, 2, -3)'s 2, 5, 8.
        iters = ([Triplet(lo, lo + (hi - lo) // step * step, step)]
                 if (hi - lo) * step >= 0 else [])
        shapes = {}
        for ref in (lhs, *reads):
            if not ctx.is_exclusive(ref.var) or (shape := _shape(ref, var, env)) is None:
                return self._decline(
                    f"{print_ref(ref)} in the loop over {var} is not subscripted "
                    f"by {var} + c or compile-time constants")
            if not self.flow.initial(ref.var):
                return self._decline(
                    f"ownership of {ref.var} moves before the loop over {var}")
            shapes[ref] = shape
        for r in reads:
            if r.var == lhs.var and r != lhs:
                return self._decline(
                    f"the loop over {var} writes {lhs.var} and reads "
                    f"{print_ref(r)}; hoisting that read would change the result")

        nprocs, lhs_dist = ctx.nprocs, ctx.layouts[lhs.var].distribution

        def mine(pid):
            """The iterations whose left-hand side ``pid`` owns."""
            return [x for it in iters for sec in lhs_dist.owned_sections(pid)
                    if (x := _preimage(shapes[lhs], sec, it)) is not None]

        # Every element is owned once: each iteration inside L's bounds.
        need = sum(x.size for it in iters if (
            x := _preimage(shapes[lhs], lhs_dist.index_space, it)) is not None)
        sets = []
        for r in reads:
            dist, moves, why, got = ctx.layouts[r.var].distribution, [], None, 0
            # β_p ∩ α_(p+δ) for δ = 0, ±1, ±2, ... until every iteration's
            # read is placed: one computation per run of processors.
            for delta in (d for k in range(nprocs) for d in ((k, -k) if k else (0,))):
                if got == need:
                    break
                runs, split = per_run(nprocs, lambda pid: [
                    y for x in mine(pid) for sec in dist.owned_sections(pid + delta)
                    if (y := _preimage(shapes[r], sec, x)) is not None
                ] if 0 <= pid + delta < nprocs else [])
                why = why or split
                for lo, hi, parts in runs:
                    moves += [(lo, hi, [_image(shapes[lhs], x), _image(shapes[r], x)], delta)
                              for x in parts]
                    got += sum(_total(x.size, lo, hi) for x in parts)
            if got != need:
                return self._decline(
                    f"{print_ref(r)} leaves the bounds of {r.var} in the "
                    f"loop over {var}")
            if any(m[3] for m in moves) and [off is None for off, _ in shapes[lhs]] != [
                    off is None for off, _ in shapes[r]]:
                return self._decline(
                    f"{print_ref(r)} and {print_ref(lhs)} do not run along the "
                    f"same dimension in the loop over {var}")
            sets.append((moves, why))

        subst: dict[ArrayRef, ArrayRef] = {}
        values = []
        for r, temp, (moves, why) in zip(reads, temps, sets):
            remote = [(lo, hi, x) for lo, hi, (x, _), delta in moves if delta]
            if not remote:
                subst[temp] = r
                ctx.note(
                    f"{CommunicationSets.name}: {print_ref(r)} is owned where "
                    f"{print_ref(lhs)} is computed (β∖α empty); removed its "
                    f"transfers in the loop over {var}")
                continue
            buf = self._buffer(lhs.var, r.var)
            subst[temp] = ArrayRef(buf, lhs.subs)
            values += [(lo, hi, delta, (buf, into), (r.var, source))
                       for lo, hi, (into, source), delta in merged(moves)]
            split = "" if why is None else f"; runs of processors split where {why}"
            ctx.note(
                f"{CommunicationSets.name}: moved the transfers of "
                f"{print_ref(r)} out of the loop over {var}: β∖α is "
                f"{sum(_total(x.size, lo, hi) for lo, hi, x in remote)} element(s) in "
                f"{sum(hi - lo + 1 for lo, hi, _ in remote)} message(s) into {buf}{split}")

        expr = map_expr(assign.expr, lambda e: subst.get(e, e)
                        if isinstance(e, ArrayRef) else e)
        compute = DoLoop(var, loop.lo, loop.hi, loop.step, Block((
            Guarded(Iown(lhs), Block((Assign(lhs, expr),))),)))
        return [*value_transfers(values, nprocs, self._scaled), compute] if values else compute

    def _fresh(self, prefix: str) -> str:
        """A name no declaration, scalar or loop variable uses."""
        body = self.ctx.program.body
        taken = {d.name for d in (*self.ctx.program.decls, *self.new_decls)} | free_scalars(
            body) | {s.var for s in walk_stmts(body) if isinstance(s, DoLoop)}
        return next(f"{prefix}{k}" for k in range(1, len(taken) + 2)
                    if f"{prefix}{k}" not in taken)

    def _scaled(self, b: int) -> VarRef:
        """A scalar holding ``b * mypid``, computed once per processor (not
        once per use and pass of the loops around it)."""
        if b not in self.scaled:
            self.scaled[b] = VarRef(self._fresh("_W"))
            self.new_decls.append(ScalarDecl(self.scaled[b].name, BinOp("*", IntConst(b), Mypid())))
        return self.scaled[b]

    def _buffer(self, lhs: str, src: str) -> str:
        """A fresh ``_V`` over ``lhs``'s index space, distributed like it."""
        name = self._fresh("_V")
        like = self.ctx.array_decl(lhs)
        # Element segments: a receive into one slot must not make sibling
        # slots transitional, or later receive initiations (which block
        # until their destination is accessible) would serialize.
        decl = ArrayDecl(name, bounds=like.bounds, dist=like.dist,
                         segment_shape=(1,) * like.rank,
                         dtype=self.ctx.array_decl(src).dtype)
        self.new_decls.append(decl)
        self.ctx.layouts[name] = build_segmentation(decl, self.ctx.grid)
        return name


def _total(size, lo: int, hi: int) -> int:
    """``size`` (affine in ``mypid``) summed over processors ``lo..hi``."""
    first, last = (size if isinstance(size, int) else size.at(p) for p in (lo, hi))
    return (first + last) * (hi - lo + 1) // 2
