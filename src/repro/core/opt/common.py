"""Shared machinery for the optimization passes.

* **Ownership flow** — Eijkhout's owned set α as something statements
  consume and produce.  :class:`OwnershipFlow` holds, at one point of a
  program-order walk, each processor's owned sections of each array as a
  coalesced list of disjoint sections.  One helper, :class:`_Mover`,
  carries a processor's lists through statements: a ``-=>``/``=>``
  subtracts, a ``<=-``/``<=`` adds (a transitional section is owned,
  Figure 1), and ``iown``/``await``/``mypid`` rules met on the way are
  decided on the lists.  :class:`OrderedRewriter` advances the flow past
  each statement lazily (a pass that asks nothing pays nothing); inside a
  loop or guard, what that statement moves is unknown.

* **Dynamic guard simulation** — :func:`dynamic_guard_true_iterations`
  runs the mover over a guarded loop whose body moves ownership (the FFT
  redistribution loop, paper section 4), recording where the guard held;
  over an owned region that is one product of triplets, a body that
  leaves the guard's array alone gets the closed form of
  :meth:`OwnershipAnalysis.guard_true_iterations`.
"""

from __future__ import annotations

from ..analysis.consteval import ConstEnv, const_eval
from ..analysis.ownership import (
    ITERATION_CAP, CompilerContext, OwnershipAnalysis,
)
from ..analysis.refsets import RefSets, stmt_refsets
from ..ir.nodes import (
    ArrayRef, Await, Block, DoLoop, Expr, Guarded, IfStmt, Index, Iown,
    Program, RecvStmt, SendStmt, Stmt, VarRef,
)
from ..ir.printer import print_expr
from ..ir.visitor import subscript_exprs, walk_stmts
from ..sections import Section, Triplet, disjoint_cover_equal, section_difference

__all__ = [
    "OrderedRewriter",
    "OwnershipFlow",
    "ownership_ops",
    "loop_var_dims",
    "dynamic_guard_true_iterations",
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
    :meth:`OwnershipAnalysis.guard_true_iterations` decides."""
    dims = [d for d, sub in enumerate(ref.subs) if sub == Index(VarRef(var))]
    if any(VarRef(var) in subscript_exprs(sub)
           for d, sub in enumerate(ref.subs) if d not in dims):
        return None
    return dims


# ---------------------------------------------------------------------- #
# coalesced section lists
# ---------------------------------------------------------------------- #


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
                if len(diff) == 1 and (
                        t := _union(o.dims[diff[0]], piece.dims[diff[0]])):
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
    """Each processor's owned sections of each array at one point of a
    program-order walk.  An array no statement has moved is its initial
    distribution; one whose moves could not be resolved is unknown
    (``None``).  :meth:`after` queues a statement; the queue is applied
    when something is asked."""

    def __init__(self, ctx: CompilerContext, parent: "OwnershipFlow | None" = None,
                 hidden: frozenset[str] = frozenset()):
        self.ctx = ctx
        self.parent = parent
        self.hidden = hidden
        self.moved: dict[str, list[list[Section]] | None] = {}
        self.pending: list[Stmt] = []

    def inside(self, stmt: Stmt) -> "OwnershipFlow":
        """The flow seen by the statements nested in ``stmt``."""
        return OwnershipFlow(self.ctx, self, frozenset(ownership_ops(stmt)))

    def after(self, stmt: Stmt) -> None:
        """Advance past ``stmt`` (nested flows only see moves of arrays
        they already hide)."""
        if self.parent is None:
            self.pending.append(stmt)

    def sections(self, var: str, pid: int) -> list[Section] | None:
        """What (0-based) ``pid`` owns of ``var`` here, or ``None``."""
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

    def pieces(self, var: str, pid: int) -> tuple[tuple[Triplet, ...], ...] | None:
        """The owned region as per-dimension progressions, when it is one
        product (the closed form of ``guard_true_iterations``)."""
        if self.initial(var):
            return self.ctx.layouts[var].distribution.owned_pieces(pid)
        owned = self.sections(var, pid)
        if owned is None or len(owned) > 1:
            return None
        return tuple((t,) for t in owned[0].dims) if owned else (
            ((),) * self.ctx.array_decl(var).rank)

    def owns(self, ref: ArrayRef, env: ConstEnv, pid: int) -> bool | None:
        """``iown(ref)`` on ``pid`` here, or ``None`` if undecidable."""
        return _Mover(self.sections, pid, self.ctx).holds(Iown(ref), env.at_pid(pid + 1))

    def _current(self, var: str, pid: int) -> list[Section] | None:
        if var in self.moved:
            lists = self.moved[var]
            return None if lists is None else lists[pid]
        layout = self.ctx.layouts.get(var)  # universal data is never owned
        return None if layout is None else layout.distribution.owned_sections(pid)

    def _apply(self, stmt: Stmt) -> None:
        names = {v for v in ownership_ops(stmt)
                 if self.moved.get(v, ()) is not None}
        if not names:
            return
        after: list[_Mover] = []
        for pid in range(self.ctx.nprocs):
            mover = _Mover(self._current, pid, self.ctx)
            mover.run(stmt, self.ctx.consts.at_pid(pid + 1))
            after.append(mover)
        for v in names:
            lists = [mover.owned.get(v, self._current(v, pid))
                     for pid, mover in enumerate(after)]
            self.moved[v] = None if any(o is None for o in lists) else lists


class _Mover:
    """One processor's walk over statements that move ownership: the one
    place a section list is subtracted from or added to."""

    def __init__(self, lookup, pid: int, ctx: CompilerContext):
        self.lookup = lookup  # (var, pid) -> the list before the walk
        self.pid = pid
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

    def apply(self, moves: RefSets) -> None:
        """Subtract what ``moves`` releases, then add what it acquires."""
        for var, sec in moves.released:
            if (owned := self._list(var)) is not None:
                self.owned[var] = _coalesce([], _minus(owned, sec))
        for var, sec in moves.acquired:
            if (owned := self._list(var)) is not None:
                self.owned[var] = _coalesce(owned, _new_part(owned, sec))

    def run(self, stmt: Stmt | Block, env: ConstEnv) -> None:
        """Apply ``stmt``'s ownership moves; what cannot be resolved makes
        the arrays it moves unknown."""
        match stmt:
            case Block(stmts):
                for s in stmts:
                    self.run(s, env)
            case SendStmt(ref, op, _) | RecvStmt(ref, op, _) if op.moves_ownership:
                sec = self.analysis.resolve(ref, env)
                if sec is None:
                    self.owned[ref.var] = None
                elif isinstance(stmt, SendStmt):
                    self.apply(RefSets(released=[(ref.var, sec)]))
                else:
                    self.apply(RefSets(acquired=[(ref.var, sec)]))
            case DoLoop(var, _, _, _, body) if ownership_ops(body):
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
    pid: int,
    flow: OwnershipFlow | None = None,
) -> list[int] | None:
    """Iterations of ``loop`` at which ``iown(guard_ref)`` holds on ``pid``,
    starting from the ownership ``flow`` holds (the initial distribution
    by default) and carrying the moves the guarded body makes in earlier
    iterations.

    Returns ``None`` when anything is unresolvable (symbolic bounds,
    unresolvable sections, unknown ownership) — callers must then keep
    the guard."""
    flow = flow if flow is not None else OwnershipFlow(ctx)
    analysis = OwnershipAnalysis(ctx)
    if guard_ref.var not in ownership_ops(loop.body):
        pieces = flow.pieces(guard_ref.var, pid)
        if pieces is not None:
            return analysis.guard_true_iterations(loop, guard_ref, env, pid, pieces)
    vals = analysis.iteration_values(loop, env)
    if vals is None:
        return None
    mover = _Mover(flow.sections, pid, ctx)
    true_iters: list[int] = []
    for v in vals:
        env_v = env.at_pid(pid + 1).bind(**{loop.var: v})
        held = mover.holds(Iown(guard_ref), env_v)
        if held is None:
            return None
        if held:
            true_iters.append(v)
            # Each body statement's moves at once (releases, then
            # acquisitions), as the point-set reference simulation does.
            for s in loop.body:
                moves = stmt_refsets(s, ctx, env_v)
                if moves.unknown:
                    return None
                mover.apply(moves)
    return true_iters
