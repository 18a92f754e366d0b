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
sections, so this pass computes them per processor by triplet algebra on
the iteration space, never listing an element:

* **β∖α empty on every processor** — ``R_j`` is read in place and its
  transfers are deleted (the paper's *transfer elimination*);
* **otherwise** — the β∖α pieces form a
  :class:`~repro.distributions.RedistributionPlan` into a buffer ``_V``
  distributed like ``L``, emitted before the loop by
  :func:`~repro.core.redistgen.plan_transfers` (one message per processor
  pair and piece: *message vectorization*); each processor copies its
  β∩α part into the buffer locally, awaits the rest, and the loop reads
  ``_V[L's subscripts]``.

It declines on symbolic bounds or subscripts, on ownership that moved
before the loop, and on a loop that writes an array it also reads at
another index (hoisting that read would change the result).
"""

from __future__ import annotations

from ...distributions import RedistributionPlan
from ...distributions.redistribute import Move
from ..analysis.consteval import ConstEnv, const_eval
from ..analysis.layouts import build_segmentation
from ..analysis.ownership import CompilerContext
from ..analysis.refsets import loop_offset
from ..ir.nodes import (
    ArrayDecl, ArrayRef, Assign, Await, BinOp, Block, DoLoop, ExprStmt,
    Guarded, Index, IntConst, Iown, Mypid, Program, RecvStmt, SendStmt, Stmt,
    VarRef, XferOp,
)
from ..ir.printer import print_ref
from ..ir.visitor import map_expr, subscript_exprs
from ..redistgen import plan_transfers, section_to_subscripts
from ..sections import Section, Triplet
from .common import OrderedRewriter

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
        elif (iters := iters.intersect(Triplet(t.lo - off, t.hi - off, t.step))) is None:
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
        self.new_decls: list[ArrayDecl] = []

    def visit(self, stmt: Stmt, loops) -> Stmt | list[Stmt] | None:
        if isinstance(stmt, DoLoop) and (idiom := _match(stmt)) is not None:
            replaced = self._rewrite(stmt, *idiom)
            if replaced is not None:
                return replaced
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

        nprocs, layouts = ctx.nprocs, ctx.layouts
        # I_p: the iterations whose left-hand side p owns.
        mine = [[x for it in iters
                 for sec in layouts[lhs.var].distribution.owned_sections(p)
                 if (x := _preimage(shapes[lhs], sec, it)) is not None]
                for p in range(nprocs)]
        sets = []
        for r in reads:
            dist = layouts[r.var].distribution
            # parts[s, p]: the iterations of p whose R_j element s owns, so
            # β_p ∩ α_s = R_j(parts[s, p]) and β_p ∖ α_p is the rest.
            parts = {(s, p): [x for it in mine[p] for sec in dist.owned_sections(s)
                              if (x := _preimage(shapes[r], sec, it)) is not None]
                     for p in range(nprocs) for s in range(nprocs)}
            if any(sum(x.size for s in range(nprocs) for x in parts[s, p])
                   != sum(x.size for x in mine[p]) for p in range(nprocs)):
                return self._decline(
                    f"{print_ref(r)} leaves the bounds of {r.var} in the "
                    f"loop over {var}")
            moves = [Move(s, p, _image(shapes[lhs], x))
                     for (s, p), xs in parts.items() if s != p for x in xs]
            shift = _shift(shapes[lhs], shapes[r])
            if moves and shift is None:
                return self._decline(
                    f"{print_ref(r)} and {print_ref(lhs)} do not run along the "
                    f"same dimension in the loop over {var}")
            sets.append((dist, parts, moves, shift))

        subst: dict[ArrayRef, ArrayRef] = {}
        sends: list[Stmt] = []
        recvs: list[Stmt] = []
        copies: list[Stmt] = []
        waits: list[Stmt] = []
        for r, temp, (dist, parts, moves, shift) in zip(reads, temps, sets):
            if not moves:
                subst[temp] = r
                ctx.note(
                    f"{CommunicationSets.name}: {print_ref(r)} is owned where "
                    f"{print_ref(lhs)} is computed (β∖α empty); removed its "
                    f"transfers in the loop over {var}")
                continue
            buf = self._buffer(lhs.var, r.var)
            subst[temp] = ArrayRef(buf, lhs.subs)
            xfer = plan_transfers(
                buf, RedistributionPlan(dist, layouts[lhs.var].distribution,
                                        tuple(moves)),
                awaits=True, value_of=(r.var, shift))
            sends += xfer.sends
            recvs += xfer.recvs
            waits += xfer.waits
            for p in range(nprocs):
                if local := [Assign(ArrayRef(buf, section_to_subscripts(
                        _image(shapes[lhs], x))), ArrayRef(r.var, section_to_subscripts(
                            _image(shapes[r], x)))) for x in parts[p, p]]:
                    copies.append(Guarded(BinOp("==", Mypid(), IntConst(p + 1)),
                                          Block(tuple(local))))
            note = f"; {xfer.note}" if xfer.note else ""
            ctx.note(
                f"{CommunicationSets.name}: moved the transfers of "
                f"{print_ref(r)} out of the loop over {var}: β∖α is "
                f"{sum(m.elements for m in moves)} element(s) in {len(moves)} "
                f"message(s) into {buf}{note}")

        expr = map_expr(assign.expr, lambda e: subst.get(e, e)
                        if isinstance(e, ArrayRef) else e)
        compute = DoLoop(var, loop.lo, loop.hi, loop.step, Block((
            Guarded(Iown(lhs), Block((Assign(lhs, expr),))),)))
        return [*sends, *recvs, *copies, *waits, compute] if sends else compute

    def _buffer(self, lhs: str, src: str) -> str:
        """A fresh ``_V`` over ``lhs``'s index space, distributed like it."""
        taken = {d.name for d in (*self.ctx.program.decls, *self.new_decls)}
        name = next(f"_V{k}" for k in range(1, len(taken) + 2) if f"_V{k}" not in taken)
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


def _shift(lhs: _Shape, r: _Shape) -> tuple[int, ...] | None:
    """Per dimension, what to add to a buffer index (``lhs``'s index
    space) to get the ``r`` index read there, or ``None`` when the two do
    not line up dimension by dimension."""
    if len(lhs) != len(r) or any((a is None) != (b is None)
                                 for (a, _), (b, _) in zip(lhs, r)):
        return None
    return tuple(b - a if a is not None else kb - ka
                 for (a, ka), (b, kb) in zip(lhs, r))
