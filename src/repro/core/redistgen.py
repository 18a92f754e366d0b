"""Generate IL+XDP transfer statements from a compile-time plan.

The paper (section 4) links each ``-=>`` to its ``<=-`` through "an
auxiliary data structure created by the compiler"; that structure is
:class:`~repro.distributions.RedistributionPlan`, and this module is the
only code that turns its moves into destination-bound statements, in
two shapes: all at once (:func:`plan_transfers`), and fragments split
along a producing loop's axis, the sends fused into that loop
(``plan_transfers(..., fuse=...)``).  The value moves of the
communication sets (:mod:`repro.core.opt.comm_sets`) come computed per run
of receiving processors, bounds affine in ``mypid``; :func:`value_transfers`
writes each as one statement under a ``mypid`` range guard, a run of one
processor as plain integers under ``mypid == k``.

Every triplet bound of every move is fitted as an integer-affine function
of the 1-based (source, destination) pair, re-expanded for every pair
``s != d`` and compared exactly with the moves.  On a match each side is
two loops over the partner processor, as the paper writes its repartition
as a loop in ``mypid`` — the same text at any n and P::

    do d = 1, mypid - 1
      A[1:8,2 * d - 1:2 * d,2 * mypid - 1:2 * mypid] -=> {d}
    enddo
    do d = mypid + 1, 4
      ...

Otherwise each side is one ``mypid == p : { ... }`` block per processor
and :attr:`Transfers.note` says why.  Self-moves (a processor messaging
itself would deadlock) and duplicate moves are dropped either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable

from ..distributions import RedistributionPlan
from .ir.nodes import (
    ArrayRef, Assign, Await, BinOp, Block, DoLoop, Expr, ExprStmt, Full,
    Guarded, Index, IntConst, Iown, Mypid, Range, RecvStmt, SendStmt, Stmt,
    Subscript, UnaryOp, VarRef, XferOp,
)
from .ir.printer import print_stmt
from .pidaffine import PidAffine
from .sections import Section, Triplet

__all__ = [
    "Transfers", "plan_transfers", "section_to_subscripts", "value_transfers",
]

_Pair = tuple[int, int]
_Dims = tuple[Triplet, ...]


@dataclass(frozen=True)
class Transfers:
    """The statements realising one plan; ``note`` says why they are
    per-processor guards, if they are."""

    sends: tuple[Stmt, ...]
    recvs: tuple[Stmt, ...]
    note: str | None = None

    @property
    def statements(self) -> list[Stmt]:
        return [*self.sends, *self.recvs]

    def text(self, stmts: Iterable[Stmt] | None = None) -> list[str]:
        """``stmts`` (all of them by default) as IL lines, after the note
        as a ``//`` comment."""
        body = self.statements if stmts is None else stmts
        return ([f"// {self.note}"] if self.note else []) + [
            line for st in body for line in print_stmt(st)]


#: ``scaled(b)`` is an expression for ``b * mypid`` (``b > 1``).
_Scaled = Callable[[int], Expr]


def _bound(v: int | PidAffine, scaled: _Scaled | None = None) -> Expr:
    if isinstance(v, int):
        return IntConst(v)
    if scaled is None or abs(v.b) == 1:
        return _Affine(v.a, v.b, 0).expr(Mypid(), Mypid())
    return _Affine(v.a, 1 if v.b > 0 else -1, 0).expr(scaled(abs(v.b)), Mypid())


def _triplet_sub(t: Triplet, scaled: _Scaled | None) -> Subscript:
    if (width := t.hi - t.lo).__class__ is int and width == 0:
        return Index(_bound(t.lo, scaled))
    step = None if t.step == 1 else IntConst(t.step)
    return Range(_bound(t.lo, scaled), _bound(t.hi, scaled), step)


def section_to_subscripts(sec: Section, scaled: _Scaled | None = None
                          ) -> tuple[Subscript, ...]:
    """IL subscripts denoting a section, its bounds integers or affine in
    ``mypid``, written with ``scaled(b)`` for ``b * mypid`` if given."""
    return tuple(_triplet_sub(t, scaled) for t in sec.dims)


# ---------------------------------------------------------------------- #
# closed form: triplet bounds affine in the (source, destination) pair
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class _Affine:
    """``const + src * S + dst * D`` over 1-based pids ``S``, ``D``."""

    const: int
    src: int
    dst: int

    def at(self, pair: _Pair) -> int:
        return self.const + self.src * (pair[0] + 1) + self.dst * (pair[1] + 1)

    def expr(self, s: Expr, d: Expr) -> Expr:
        out: Expr | None = None
        # A positive term first: ``9 - 4 * mypid``, not ``-(4 * mypid) + 9``.
        for coef, x in sorted(((self.src, s), (self.dst, d), (self.const, None)),
                              key=lambda t: t[0] <= 0):
            if coef:
                term = IntConst(abs(coef)) if x is None else (
                    x if abs(coef) == 1 else BinOp("*", IntConst(abs(coef)), x))
                out = (term if coef > 0 else UnaryOp("-", term)) if out is None \
                    else BinOp("+" if coef > 0 else "-", out, term)
        return IntConst(0) if out is None else out


def _fit(values: dict[_Pair, int], nprocs: int) -> _Affine:
    """The affine function through ``values`` at pairs (1,2), (2,1) and
    (1,3); exact wherever ``values`` is affine, which callers check."""
    v12, v21 = values[0, 1], values[1, 0]
    if nprocs == 2:  # D = 3 - S: one pid fits alone; take a positive slope
        b = v21 - v12
        return _Affine(v12 - b, b, 0) if b >= 0 else _Affine(v12 + 2 * b, 0, -b)
    c = values[0, 2] - v12
    b = v21 - v12 + c
    return _Affine(v12 - b - 2 * c, b, c)


@dataclass(frozen=True)
class _TripletFit:
    lo: _Affine
    hi: _Affine
    step: int

    def subscript(self, s: Expr, d: Expr) -> Subscript:
        if self.lo == self.hi:
            return Index(self.lo.expr(s, d))
        step = None if self.step == 1 else IntConst(self.step)
        return Range(self.lo.expr(s, d), self.hi.expr(s, d), step)


def _fit_pieces(pieces: dict[_Pair, list[_Dims]], nprocs: int
                ) -> list[list[_TripletFit]] | str:
    """One fit per piece and dimension — the k-th pieces of all pairs are
    fitted together — or why there is none."""
    want = {(s, d) for s in range(nprocs) for d in range(nprocs) if s != d}
    if set(pieces) != want:
        return f"moves pair {len(pieces)} of the {len(want)} ordered processor pairs"
    counts = {len(v) for v in pieces.values()}
    if len(counts) != 1:
        return f"pairs carry {min(counts)} to {max(counts)} pieces"
    fits = []
    for k in range(counts.pop()):
        fits.append([])
        for ax in range(len(pieces[0, 1][k])):
            trips = {p: v[k][ax] for p, v in pieces.items()}
            fit = _TripletFit(_fit({p: t.lo for p, t in trips.items()}, nprocs),
                              _fit({p: t.hi for p, t in trips.items()}, nprocs),
                              max(t.step for t in trips.values()))
            try:
                exact = all(Triplet(fit.lo.at(p), fit.hi.at(p), fit.step) == t
                            for p, t in trips.items())
            except ValueError:  # the fit empties the triplet at some pair
                exact = False
            if not exact:
                return f"piece {k + 1} dimension {ax + 1} is not affine in the pair"
            fits[-1].append(fit)
    return fits


# ---------------------------------------------------------------------- #
# statement builders
# ---------------------------------------------------------------------- #


def _pieces(plan: RedistributionPlan) -> dict[_Pair, list[_Dims]]:
    """Sections per (src, dst) pair, ordered, without self-moves and
    duplicate moves."""
    out: dict[_Pair, set[_Dims]] = {}
    for m in plan.moves:
        if m.src != m.dst:
            out.setdefault((m.src, m.dst), set()).add(m.section.dims)
    return {p: sorted(v, key=_dims_key) for p, v in sorted(out.items())}


def _dims_key(dims: _Dims) -> tuple:
    return tuple((t.lo, t.hi, t.step) for t in dims)


def _around(name: str, bounds: tuple[Expr, Expr, Expr, Expr],
            body: Callable[[Expr], Iterable[Stmt]]) -> tuple[Stmt, ...]:
    """``do name = a, b`` then ``do name = c, e`` over one body: the
    indices below and above this processor's own."""
    a, b, c, e = bounds
    stmts = Block(tuple(body(VarRef(name))))
    return DoLoop(name, a, b, body=stmts), DoLoop(name, c, e, body=stmts)


def _on(pid: int) -> Expr:
    return BinOp("==", Mypid(), IntConst(pid + 1))


def _blocks(items: Iterable[tuple[Expr | None, Stmt]]) -> tuple[Stmt, ...]:
    """One guarded block per run of statements under the same rule (none
    for the rule ``None``: every processor)."""
    out: list[Stmt] = []
    for rule, run in groupby(items, key=lambda item: item[0]):
        stmts = tuple(stmt for _, stmt in run)
        out += stmts if rule is None else [Guarded(rule, Block(stmts))]
    return tuple(out)


def _per_pid(var: str, pieces: dict[_Pair, list[_Dims]], ops, reason: str,
             axis: int | None, loop_var: str) -> Transfers:
    """The fallback: one guarded block per processor, and for sends split
    along ``axis`` one per processor and loop coordinate."""
    send_op, recv_op = ops
    items = [(s, d, dims) for (s, d), v in pieces.items() for dims in v]
    if axis is not None:
        items = [(s, d, dims[:axis] + (Triplet(c, c),) + dims[axis + 1:])
                 for s, d, dims in items for c in dims[axis]]

    def at(dims: _Dims) -> tuple[int, ...]:
        return () if axis is None else (dims[axis].lo,)

    def ref(dims: _Dims) -> ArrayRef:
        return ArrayRef(var, section_to_subscripts(Section(dims)))

    def send_rule(s: int, dims: _Dims) -> Expr:
        return _on(s) if axis is None else BinOp(
            "and", _on(s), BinOp("==", VarRef(loop_var), IntConst(dims[axis].lo)))

    # sends by source then coordinate, receives by receiver then source
    by_src = sorted(items, key=lambda i: (i[0], *at(i[2]), i[1], _dims_key(i[2])))
    by_dst = sorted(items, key=lambda i: (i[1], i[0], *at(i[2]), _dims_key(i[2])))
    return Transfers(
        _blocks((send_rule(s, dims), SendStmt(ref(dims), send_op, (IntConst(d + 1),)))
                for s, d, dims in by_src),
        _blocks((_on(d), RecvStmt(ref(dims), recv_op)) for _, d, dims in by_dst),
        f"redistgen: one guarded block per processor ({reason})",
    )


# ---------------------------------------------------------------------- #
# the emitter
# ---------------------------------------------------------------------- #


def plan_transfers(
    var: str,
    plan: RedistributionPlan,
    *,
    with_value: bool = True,
    fuse: tuple[int, str] | None = None,
) -> Transfers:
    """Statements realising ``plan`` for array ``var``.

    All at once by default.  ``with_value=False`` emits pure ownership
    moves (``=>`` / ``<=``).

    ``fuse=(axis, loop_var)`` splits every move into one fragment per
    coordinate along ``axis`` (0-based).  The sends then go at the end of
    the body of a producing loop whose variable ``loop_var`` runs, on each
    processor, once over every coordinate from the first to the last it
    owns along ``axis`` under ``plan.source`` (``mylb`` to ``myub``); the
    receives follow the loop, by source, then coordinate.
    """
    send_op, recv_op = ops = (
        (XferOp.SEND_OWNER_VALUE, XferOp.RECV_OWNER_VALUE) if with_value
        else (XferOp.SEND_OWNER, XferOp.RECV_OWNER))
    pieces = _pieces(plan)
    if not pieces:
        return Transfers((), ())
    nprocs = plan.source.grid.size
    axis, loop_var = fuse or (None, "")
    owned = [{c for sec in plan.source.owned_sections(p) for c in sec.dims[axis]}
             for p in range(nprocs)] if fuse else []
    fits = _fit_pieces(pieces, nprocs)
    if fuse and not isinstance(fits, str) and any(
            set(dims[axis]) != owned[s] for (s, _), v in pieces.items() for dims in v):
        fits = f"a move does not span its source's slabs along axis {axis + 1}"
    if isinstance(fits, str):
        return _per_pid(var, pieces, ops, fits, axis, loop_var)

    def refs(s: Expr, d: Expr, at: Expr | None = None) -> list[ArrayRef]:
        return [ArrayRef(var, tuple(Index(at) if ax == axis else f.subscript(s, d)
                                    for ax, f in enumerate(row)))
                for row in fits]

    dn, sn = ("d", "s") if var not in ("d", "s") else ("dd", "ss")
    me, k = Mypid(), VarRef(loop_var)
    partners = (IntConst(1), BinOp("-", me, IntConst(1)),
                BinOp("+", me, IntConst(1)), IntConst(nprocs))
    sends = _around(dn, partners, lambda d: [
        SendStmt(r, send_op, (d,)) for r in refs(me, d, k if fuse else None)])
    if any(len(c) != max(c) - min(c) + 1 for c in owned if c):
        # mylb..myub passes coordinates this processor does not own
        slab = ArrayRef(var, tuple(Index(k) if ax == axis else Full()
                                   for ax in range(len(fits[0]))))
        sends = (Guarded(Iown(slab), Block(sends)),)
    if fuse is None:
        return Transfers(
            sends,
            _around(sn, partners, lambda s: [
                RecvStmt(r, recv_op) for r in refs(s, me)]),
        )
    span = fits[0][axis]
    lo, hi = span.lo, span.hi
    if (span.step == 1 and lo.dst == hi.dst == 0
            and lo.src == hi.src == hi.const - lo.const + 1
            and all(f.lo.src == f.hi.src == 0
                    for row in fits for ax, f in enumerate(row) if ax != axis)):
        # The sources' slabs tile the axis in pid order and every source
        # sends this receiver the same pieces: receive at each coordinate
        # below and above its own slab, with no loop over the sources.
        return Transfers(sends, _around(loop_var, (
            IntConst(lo.at((0, 0))), _Affine(lo.const - 1, lo.src, 0).expr(me, me),
            _Affine(hi.const + 1, hi.src, 0).expr(me, me),
            IntConst(hi.at((nprocs - 1, 0))),
        ), lambda c: [RecvStmt(r, recv_op) for r in refs(me, me, c)]))
    return Transfers(sends, _around(sn, partners, lambda s: [DoLoop(
        loop_var, lo.expr(s, me), hi.expr(s, me), IntConst(span.step),
        Block(tuple(RecvStmt(r, recv_op) for r in refs(s, me, k))),
    )]))


# ---------------------------------------------------------------------- #
# value moves, one statement per run of receivers
# ---------------------------------------------------------------------- #


def _run_rule(lo: int, hi: int, nprocs: int) -> Expr | None:
    """True on the 1-based processors ``lo..hi`` (``None``: on all)."""
    ends = [BinOp(op, Mypid(), IntConst(k)) for op, k, cut in (
        ("==", lo, lo == hi), (">=", lo, 1 < lo < hi), ("<=", hi, lo < hi < nprocs)) if cut]
    return BinOp("and", *ends) if len(ends) == 2 else ends[0] if ends else None


def value_transfers(moves, nprocs: int, scaled: _Scaled) -> list[Stmt]:
    """Statements realising value ``moves``, each ``(lo, hi, offset, (var,
    into), (src, source))``: every 1-based receiver ``mypid`` in ``lo..hi``
    gets ``src[source]`` into ``var[into]`` from processor ``mypid +
    offset`` (a local copy at offset 0), the sections' bounds affine in the
    receiver's ``mypid`` and written with ``scaled(b)`` for ``b * mypid``.
    The sends, then the receives, copies and awaits, one statement per move
    and side under a ``mypid`` range guard."""
    sends, recvs, copies, waits = [], [], [], []
    for lo, hi, offset, (var, into), (src, source) in moves:
        buf, value = (ArrayRef(v, section_to_subscripts(sec, scaled))
                      for v, sec in ((var, into), (src, source)))
        if offset == 0:
            copies.append(((lo, hi), Assign(buf, value)))
            continue

        def sender(v):  # the receiver's ``v`` in its sender's ``mypid``
            return v if isinstance(v, int) else PidAffine.make(
                v.a - v.b * offset, v.b, lo + offset, hi + offset)
        sent = Section(tuple(Triplet(sender(t.lo), sender(t.hi), t.step) for t in source.dims))
        sends.append(((lo + offset, hi + offset), SendStmt(
            ArrayRef(src, section_to_subscripts(sent, scaled)), XferOp.SEND_VALUE,
            (_bound(sender(PidAffine.make(0, 1, lo, hi))),))))
        recvs.append(((lo, hi), RecvStmt(buf, XferOp.RECV_VALUE, value)))
        waits.append(((lo, hi), ExprStmt(Await(buf))))
    return list(_blocks((_run_rule(*run, nprocs), stmt)
                        for run, stmt in (*sends, *recvs, *copies, *waits)))
