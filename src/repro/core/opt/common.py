"""Shared machinery for the optimization passes.

* **Ownership flow** — Eijkhout's owned set α as something statements
  consume and produce, as a function of the processor.  :class:`OwnershipFlow`
  holds, at one point of a program-order walk, what processors own of each
  array as coalesced lists of disjoint sections whose bounds are affine in
  ``mypid`` (:mod:`repro.core.pidaffine`): one list for all processors, or
  one per run of processors where no single formula fits.  One helper,
  :class:`_Mover`, carries the lists through statements for a run of
  processors at once: a ``-=>``/``=>`` subtracts, a ``<=-``/``<=`` adds (a
  transitional section is owned, Figure 1), ``iown``/``await``/``mypid``
  rules met on the way are decided on the lists, a guarded loop goes from
  one true iteration to the next in closed form, and a loop over the other
  processors (redistgen's ``do d = 1, mypid - 1``) moves its union at once.
  Where the processors' answers differ, the same mover runs again on each
  run of processors that share one, down to single processors.
  :class:`OrderedRewriter` advances the flow past each statement lazily (a
  pass that asks nothing pays nothing); inside a loop or guard, what that
  statement moves is unknown.

* **Guard decisions** — :func:`dynamic_guard_true_iterations` runs the
  mover over a guarded loop whose body may move ownership (the FFT
  redistribution loop, paper section 4), recording where the guard held;
  :meth:`OrderedRewriter.decide` asks it of every processor at once, and
  a pass reports a decision it could only make per processor.
"""

from __future__ import annotations

import math

from ..analysis.consteval import ConstEnv, const_eval
from ..analysis.ownership import (
    ITERATION_CAP, CompilerContext, OwnershipAnalysis,
)
from ..ir.nodes import (
    ArrayRef, Await, BinOp, Block, DoLoop, Expr, Full, Guarded, IfStmt, Index,
    Iown, Program, RecvStmt, SendStmt, Stmt, UnaryOp, VarRef,
)
from ..ir.printer import print_expr
from ..ir.visitor import subscript_exprs, subscript_parts, walk_exprs, walk_stmts
from ..pidaffine import NoClosedForm, PidAffine, per_run, pmax, pmin
from ..sections import Section, Triplet, disjoint_cover_equal, section_difference

__all__ = [
    "OrderedRewriter",
    "OwnershipFlow",
    "ownership_ops",
    "loop_var_dims",
    "dynamic_guard_true_iterations",
    "meet",
    "merged",
]


def ownership_ops(stmt: Stmt | Block) -> set[str]:
    """Arrays whose ownership a statement subtree may move."""
    out: set[str] = set()
    for s in walk_stmts(stmt):
        match s:
            case SendStmt(ref, op, _):
                if op.moves_ownership:
                    out.add(ref.var)
            case RecvStmt(into, op, _):
                if op.moves_ownership:
                    out.add(into.var)
    return out


def loop_var_dims(ref: ArrayRef, var: str) -> list[int] | None:
    """Dimensions of ``ref`` subscripted by exactly ``var``, or ``None`` if
    the variable occurs in any other form — the guard shape that
    :meth:`_Mover._guard` decides in closed form."""
    dims = [d for d, sub in enumerate(ref.subs) if sub == Index(VarRef(var))]
    if any(VarRef(var) in subscript_exprs(sub)
           for d, sub in enumerate(ref.subs) if d not in dims):
        return None
    return dims


# ---------------------------------------------------------------------- #
# coalesced section lists
# ---------------------------------------------------------------------- #


def meet(x: Triplet, y: Triplet) -> Triplet | None:
    """``x.intersect(y)``, also where unit-stride bounds affine in ``mypid``
    meet at one end of the run (``1..n`` and ``mypid..mypid``)."""
    try:
        return x.intersect(y)
    except NoClosedForm:
        if x.step != 1 or y.step != 1:
            raise
        lo, hi = pmax(x.lo, y.lo), pmin(x.hi, y.hi)
        return None if lo > hi else Triplet(lo, hi, 1)


def _apart(a: Section, b: Section) -> bool:
    """Disjoint by bounding box (no intersection built)."""
    return any(x.hi < y.lo or y.hi < x.lo for x, y in zip(a.dims, b.dims))


def _minus(owned: list[Section], sec: Section) -> list[Section]:
    return [piece for o in owned
            for piece in ([o] if _apart(o, sec) else section_difference(o, sec))]


def _new_part(owned: list[Section], sec: Section) -> list[Section]:
    """What of ``sec`` is not in ``owned`` yet."""
    new = [sec]
    for o in owned:
        new = _minus(new, o)
    return new


def _union(x: Triplet, y: Triplet) -> Triplet | None:
    """Two disjoint progressions as one, when they form one."""
    if x.lo > y.lo:
        x, y = y, x
    step = x.step if x.size > 1 else y.step if y.size > 1 else y.lo - x.lo
    if y.lo - x.hi != step or (y.size > 1 and y.step != step):
        return None
    return Triplet(x.lo, y.hi, step)


def _coalesce(owned: list[Section], pieces: list[Section]) -> list[Section]:
    """Add disjoint ``pieces`` to ``owned``, merging any two sections that
    differ in one dimension where together they form one triplet."""
    out = list(owned)
    for piece in pieces:
        merged = True
        while merged:
            merged = False
            for k, o in enumerate(out):
                diff = [d for d in range(o.rank) if o.dims[d] != piece.dims[d]]
                if len(diff) == 1 and (t := _union(
                        o.dims[diff[0]], piece.dims[diff[0]])) is not None:
                    piece = Section(piece.dims[:diff[0]] + (t,)
                                    + piece.dims[diff[0] + 1:])
                    del out[k]
                    merged = True
                    break
        out.append(piece)
    return out


def _covers(owned: list[Section], sec: Section) -> bool:
    """``iown()`` on a disjoint list (paper section 3.1)."""
    near = [o for o in owned if not _apart(o, sec)]
    return any(o.contains_section(sec) for o in near) or (
        bool(near) and disjoint_cover_equal(sec, near))


# ---------------------------------------------------------------------- #
# the flow
# ---------------------------------------------------------------------- #


class OwnershipFlow:
    """What each processor owns of each array at one point of a
    program-order walk, as section lists whose bounds are affine in
    ``mypid``: per array, one list for each run of processors on which one
    list fits (one run for all of them where the moves are affine).  An
    array no statement has moved is its initial distribution; one whose
    moves could not be resolved is unknown (``None``).  :meth:`after`
    queues a statement; the queue is applied when something is asked."""

    def __init__(self, ctx: CompilerContext, parent: "OwnershipFlow | None" = None,
                 hidden: frozenset[str] = frozenset()):
        self.ctx = ctx
        self.parent = parent
        self.hidden = hidden
        self.moved: dict[str, list[tuple[int, int, list[Section]]] | None] = {}
        self.why: dict[str, str] = {}
        self.pending: list[Stmt] = []

    def inside(self, stmt: Stmt) -> "OwnershipFlow":
        """The flow seen by the statements nested in ``stmt``."""
        return OwnershipFlow(self.ctx, self, frozenset(ownership_ops(stmt)))

    def after(self, stmt: Stmt) -> None:
        """Advance past ``stmt`` (nested flows only see moves of arrays
        they already hide)."""
        if self.parent is None:
            self.pending.append(stmt)

    def sections(self, var: str, pid) -> list[Section] | None:
        """What (0-based) ``pid`` owns of ``var`` here, or ``None``; a
        :class:`PidAffine` ``pid`` asks for a run of processors at once."""
        if self.parent is not None:
            return None if var in self.hidden else self.parent.sections(var, pid)
        while self.pending:
            self._apply(self.pending.pop(0))
        return self._current(var, pid)

    def known(self, var: str) -> bool:
        return self.sections(var, 0) is not None

    def initial(self, var: str) -> bool:
        """Is ``var`` still owned as its distribution says?"""
        if self.parent is not None:
            return var not in self.hidden and self.parent.initial(var)
        return self.known(var) and var not in self.moved

    def owns(self, ref: ArrayRef, env: ConstEnv, pid) -> bool | None:
        """``iown(ref)`` on ``pid`` here, or ``None`` if undecidable."""
        return _Mover(self.sections, pid, self.ctx).holds(Iown(ref), env.at_pid(pid + 1))

    def _current(self, var: str, pid) -> list[Section] | None:
        if var not in self.moved:
            layout = self.ctx.layouts.get(var)  # universal data is never owned
            return None if layout is None else layout.distribution.owned_sections(pid)
        runs = self.moved[var]
        if runs is None:
            return None
        lo, hi = (pid.lo, pid.hi) if isinstance(pid, PidAffine) else (pid + 1, pid + 1)
        for a, b, owned in runs:
            if a <= lo and hi <= b:
                return owned if (a, b) == (lo, hi) else _restrict(owned, lo, hi)
        raise NoClosedForm(f"no formula in mypid gives what every processor owns of "
                           f"{var} ({self.why[var]})",
                           tuple(a for a, _, _ in runs))

    def _apply(self, stmt: Stmt) -> None:
        names = {v for v in ownership_ops(stmt)
                 if self.moved.get(v, ()) is not None}
        if not names:
            return

        def walk(pid) -> dict[str, list[Section] | None]:
            mover = _Mover(self._current, pid, self.ctx)
            mover.run(stmt, self.ctx.consts.at_pid(pid + 1))
            return {v: mover.owned[v] if v in mover.owned else self._current(v, pid)
                    for v in names}

        split = [v for v in names if v in self.why]
        runs, why = per_run(self.ctx.nprocs, walk,
                            [a for v in split for a, _, _ in self.moved[v]])
        why = why or (self.why[split[0]] if split else None)
        for v in names:
            unknown = any(owned[v] is None for _, _, owned in runs)
            self.moved[v] = None if unknown else merged([(a, b, owned[v]) for a, b, owned in runs])
            if not self.moved[v] or len(self.moved[v]) == 1:
                self.why.pop(v, None)
            else:  # the first cause, not a later statement's look-up of its runs
                self.why.setdefault(v, why)


def _restrict(owned: list[Section], lo: int, hi: int) -> list[Section]:
    """A run's list on the processors ``lo..hi``."""
    def on(x):
        return PidAffine.make(x.a, x.b, lo, hi) if isinstance(x, PidAffine) else x
    return [Section(tuple(Triplet(on(t.lo), on(t.hi), t.step) for t in sec.dims))
            for sec in owned]


def merged(runs: list[tuple]) -> list[tuple]:
    """``(lo, hi, sections, *key)`` items in order of their runs of
    processors, each merged into an earlier one of the adjacent run and the
    same key where one formula in ``mypid`` — the wider run's — gives both
    (redistgen's partner loops leave processors 1 and P a run each)."""
    out: list[tuple] = []
    for c, d, y, *key in runs:
        for k, (a, b, x, *key_x) in enumerate(out):
            if key_x != key or b + 1 != c or len(x) != len(y) or (
                    a == b and c == d and set(x) != set(y)):
                continue
            try:
                whole = _restrict(x if b - a >= d - c else y, a, d)
                if set(_restrict(whole, a, b)) == set(x) and set(_restrict(whole, c, d)) == set(y):
                    out[k] = (a, d, whole, *key)
                    break
            except (NoClosedForm, ValueError):  # a triplet empties or differs
                pass
        else:
            out.append((c, d, y, *key))
    return out


def _affine(e: Expr, var: str) -> bool:
    """Is ``e`` written affine in ``var``?"""
    match e:
        case BinOp("+" | "-", lhs, rhs):
            return _affine(lhs, var) and _affine(rhs, var)
        case BinOp("*", lhs, rhs):
            return any(_affine(x, var) and VarRef(var) not in walk_exprs(y)
                       for x, y in ((lhs, rhs), (rhs, lhs)))
        case UnaryOp("-", operand):
            return _affine(operand, var)
    return e == VarRef(var) or VarRef(var) not in walk_exprs(e)


def _pieces(owned: list[Section], rank: int) -> tuple[tuple[Triplet, ...], ...] | None:
    """The owned region as per-dimension progressions, when it is one
    product of them."""
    dims = [tuple(dict.fromkeys(sec.dims[d] for sec in owned)) for d in range(rank)]
    return tuple(dims) if math.prod(map(len, dims)) == len(owned) else None


class _Mover:
    """A walk over statements that move ownership, for one processor or a
    run of them at once (``pid`` a :class:`PidAffine`): the one place a
    section list is subtracted from or added to."""

    def __init__(self, lookup, pid, ctx: CompilerContext):
        self.lookup = lookup  # (var, pid) -> the list before the walk
        self.pid = pid
        self.ctx = ctx
        self.analysis = OwnershipAnalysis(ctx)
        self.owned: dict[str, list[Section] | None] = {}

    def _list(self, var: str) -> list[Section] | None:
        if var not in self.owned:
            self.owned[var] = self.lookup(var, self.pid)
        return self.owned[var]

    def holds(self, rule: Expr, env: ConstEnv) -> bool | None:
        """A compute rule's value here; ``await`` is ``iown`` (it is false
        only when unowned), anything else must be a compile-time constant."""
        if isinstance(rule, (Iown, Await)):
            sec = self.analysis.resolve(rule.ref, env)
            owned = self._list(rule.ref.var)
            return None if sec is None or owned is None else _covers(owned, sec)
        value = const_eval(rule, env)
        return value if isinstance(value, bool) else None

    def _move(self, var: str, sec: Section, release: bool) -> None:
        """Subtract ``sec`` from what ``var`` owns here, or add it."""
        if (owned := self._list(var)) is not None:
            self.owned[var] = (_coalesce([], _minus(owned, sec)) if release
                               else _coalesce(owned, _new_part(owned, sec)))

    def run(self, stmt: Stmt | Block, env: ConstEnv) -> None:
        """Apply ``stmt``'s ownership moves; what cannot be resolved makes
        the arrays it moves unknown."""
        match stmt:
            case Block(stmts):
                for s in stmts:
                    self.run(s, env)
            case SendStmt(ref, op, _) | RecvStmt(ref, op, _) if op.moves_ownership:
                if (sec := self.analysis.resolve(ref, env)) is None:
                    self.owned[ref.var] = None
                else:
                    self._move(ref.var, sec, isinstance(stmt, SendStmt))
            case DoLoop(var, _, _, _, Block((Guarded(Iown(ref) | Await(ref), body),))) \
                    if ownership_ops(body):
                if self.true_iterations(stmt, ref, env) is None:
                    self._forget(stmt)
            case DoLoop(var, _, _, _, body) if ownership_ops(body):
                if (swept := self._swept(stmt, env)) is not None:
                    for v, sec in swept:
                        self._move(v, sec, isinstance(body.stmts[0], SendStmt))
                    return
                vals = self.analysis.iteration_values(stmt, env)
                if vals is None:
                    self._forget(stmt)
                for v in vals or ():
                    self.run(body, env.bind(**{var: v}))
            case Guarded(rule, body):
                held = self.holds(rule, env)
                if held is None:
                    self._forget(body)
                elif held:
                    self.run(body, env)
            case IfStmt():
                self._forget(stmt)

    def _swept(self, loop: DoLoop, env: ConstEnv) -> list[tuple[str, Section]] | None:
        """All the moves of a loop whose bounds depend on ``mypid``
        (redistgen's ``do d = 1, mypid - 1``) at once: its body only sends
        or only receives, each section sweeping at most one dimension in
        abutting blocks, affine in the loop variable."""
        lo, hi, step = (const_eval(e, env) for e in (loop.lo, loop.hi, loop.step))
        if PidAffine not in (type(lo), type(hi)) or step != 1:
            return None
        if lo > hi:
            return []
        swept = []
        for s in loop.body:
            match s:
                case SendStmt(ref, op, _) | RecvStmt(ref, op, _) if (
                        op.moves_ownership and type(s) is type(loop.body.stmts[0])):
                    pass
                case _:
                    return None
            dims = [d for d, sub in enumerate(ref.subs)
                    if VarRef(loop.var) in subscript_exprs(sub)]
            if len(dims) > 1 or not all(
                    _affine(e, loop.var) for d in dims for e in subscript_parts(ref.subs[d])):
                return None
            sec, nxt = (self.analysis.resolve(ref, env.bind(**{loop.var: lo + k}))
                        for k in (0, 1))
            if sec is None or nxt is None:
                return None
            for d in dims:
                t = sec.dims[d]
                # Affine subscripts: two equal abutting blocks make them all so.
                if t.step != 1 or nxt.dims[d] != Triplet(t.lo + t.size, t.hi + t.size):
                    return None
                sec = Section(sec.dims[:d] + (Triplet(t.lo, t.hi + t.size * (hi - lo)),)
                              + sec.dims[d + 1:])
            swept.append((ref.var, sec))
        return swept

    def true_iterations(self, loop: DoLoop, ref: ArrayRef, env: ConstEnv) -> list | None:
        """The iterations of ``loop`` (one guarded body), in order, at
        which ``iown(ref)`` holds here, running the body at each one (its
        moves count from the next), or ``None`` when undecidable."""
        (guarded,) = loop.body
        vals = self.analysis.iteration_values(loop, env)
        env = env.at_pid(self.pid + 1)
        moves = ownership_ops(guarded.body)
        moves_guard = ref.var in moves
        true: list = []
        ahead = vals and self._guard(loop, ref, env, vals, moves_guard)
        while ahead:
            true.append(v := ahead.pop(0))
            if moves:
                self.run(guarded.body, env.bind(**{loop.var: v}))
            if moves_guard:
                ahead = self._guard(loop, ref, env, vals, True, after=v)
        return None if ahead is None else true

    def _guard(self, loop: DoLoop, ref: ArrayRef, env: ConstEnv, vals: list[int],
               first_only: bool, after=None) -> list | None:
        """The iterations after ``after`` at which ``iown(ref)`` holds on
        what is owned now.  In closed form when that is one product of
        per-dimension triplets: a dimension subscripted by the bare loop
        variable admits the iterations inside its owned triplets, and any
        other is owned or not for the whole loop.  Else one iteration at a
        time (to the first that holds, if ``first_only``)."""
        owned, dims = self._list(ref.var), loop_var_dims(ref, loop.var)
        pieces = owned is not None and dims is not None and _pieces(owned, len(ref.subs))
        up = len(vals) < 2 or vals[1] > vals[0]
        found = []
        if pieces:
            rest = self.analysis.resolve(ArrayRef(ref.var, tuple(
                Full() if d in dims else sub for d, sub in enumerate(ref.subs))), env)
            if rest is None:
                return None
            runs = [Triplet(vals[0], vals[-1], vals[1] - vals[0] if len(vals) > 1 else 1)]
            for d, (t, mine) in enumerate(zip(rest.dims, pieces)):
                if d in dims:
                    runs = [m for r in runs for o in mine if (m := meet(r, o)) is not None]
                elif t.size != sum(m.size for o in mine if (m := meet(t, o)) is not None):
                    runs = []
            found = sorted((r.lo + k * r.step for r in runs for k in range(r.size)),
                           reverse=not up)
        else:
            for v in vals:
                if after is None or (v > after if up else v < after):
                    held = self.holds(Iown(ref), env.bind(**{loop.var: v}))
                    if held is None:
                        return None
                    if held:
                        found.append(v)
                        if first_only:
                            break
        return found if after is None else [v for v in found if (v > after if up else v < after)]

    def _forget(self, stmt: Stmt | Block) -> None:
        for var in ownership_ops(stmt):
            self.owned[var] = None


class OrderedRewriter:
    """Program-order block rewriting over an ownership flow.

    Subclasses override :meth:`visit`, which receives each statement with
    the enclosing loop stack; ``self.flow`` is the :class:`OwnershipFlow`
    at that point.  The default recurses into structured statements.
    """

    def __init__(self, ctx: CompilerContext):
        self.ctx = ctx
        self.analysis = OwnershipAnalysis(ctx)
        self.flow = OwnershipFlow(ctx)

    def rewrite_program(self, program: Program) -> Program:
        return Program(program.decls, self.rewrite_block(program.body, []))

    def rewrite_block(self, block: Block, loops: list[DoLoop]) -> Block:
        out: list[Stmt] = []
        for s in block:
            replacement = self.visit(s, loops)
            if replacement is None:
                pass
            elif isinstance(replacement, list):
                out.extend(replacement)
            else:
                out.append(replacement)
            # Whatever the rewrite produced, the original statement's
            # ownership effects have happened by this point in program
            # order (rewrites preserve semantics).
            self.flow.after(s)
        return Block(tuple(out))

    def rewrite_inside(self, stmt: Stmt, block: Block, loops: list[DoLoop]) -> Block:
        """Rewrite a block nested in ``stmt``, over the flow seen there."""
        outer, self.flow = self.flow, self.flow.inside(stmt)
        try:
            return self.rewrite_block(block, loops)
        finally:
            self.flow = outer

    def visit(self, stmt: Stmt, loops: list[DoLoop]) -> Stmt | list[Stmt] | None:
        return self.recurse(stmt, loops)

    def decline_guard(self, pass_name: str, loop: DoLoop, rule: Expr) -> None:
        self.ctx.decline(
            pass_name,
            f"{print_expr(rule)} in the loop over {loop.var} is not "
            "decidable at compile time (symbolic bounds or subscripts, or "
            f"more than {ITERATION_CAP} iterations)")

    def decide(self, pass_name: str, loop: DoLoop, rule: Expr, question) -> list | None:
        """``question(pid)`` of every processor: asked once for all of them
        where the answer is one formula in ``mypid``, else once per run of
        processors that share one, which the report says, and why.  The
        answers, or ``None`` — the guard declined — if any answer is
        ``None``."""
        runs, why = per_run(self.ctx.nprocs, question)
        answers = [answer for _, _, answer in runs]
        if any(answer is None for answer in answers):
            self.decline_guard(pass_name, loop, rule)
            return None
        if why:
            where = ("per processor" if len(runs) == self.ctx.nprocs
                     else f"on {len(runs)} runs of processors")
            self.ctx.note(f"{pass_name}: decided {print_expr(rule)} in the loop "
                          f"over {loop.var} {where}, not in closed form — {why}")
        return answers

    def recurse(self, stmt: Stmt, loops: list[DoLoop]) -> Stmt:
        match stmt:
            case Guarded(rule, body):
                return Guarded(rule, self.rewrite_inside(stmt, body, loops))
            case DoLoop(var, lo, hi, step, body):
                return DoLoop(var, lo, hi, step,
                              self.rewrite_inside(stmt, body, loops + [stmt]))
            case IfStmt(cond, then, orelse):
                return IfStmt(
                    cond,
                    self.rewrite_inside(stmt, then, loops),
                    self.rewrite_inside(stmt, orelse, loops),
                )
            case _:
                return stmt


def dynamic_guard_true_iterations(
    loop: DoLoop,
    guard_ref: ArrayRef,
    ctx: CompilerContext,
    env: ConstEnv,
    pid,
    flow: OwnershipFlow | None = None,
) -> list | None:
    """Iterations of ``loop`` at which ``iown(guard_ref)`` holds on ``pid``
    (a :class:`PidAffine` for a run of processors), starting from the
    ownership ``flow`` holds (the initial distribution by default) and
    carrying the moves the guarded body makes in earlier iterations, as
    the flow itself carries them.

    Returns ``None`` when anything is unresolvable (symbolic bounds,
    unresolvable sections, unknown ownership of the guard's array) —
    callers must then keep the guard."""
    return _Mover((flow or OwnershipFlow(ctx)).sections, pid, ctx).true_iterations(
        loop, guard_ref, env)
