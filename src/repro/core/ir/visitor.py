"""Traversal and rewriting utilities for IL+XDP trees.

Nodes are immutable, so transformations rebuild the spine above any change.
The utilities here are what the optimization passes share:

* :func:`map_expr` / :func:`map_stmt` — bottom-up structural rewriting;
* :func:`substitute` — replace scalar variable references by expressions
  (used when compute-rule elimination replaces an induction variable by
  ``mypid``, paper section 4);
* :func:`walk_exprs` / :func:`walk_stmts` — iteration over subtrees;
* :func:`array_refs` / :func:`free_scalars` — reference collection for
  legality analysis.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .nodes import (
    Accessible, ArrayRef, Assign, Await, BinOp, Block, CallStmt,
    CollectiveStmt, DoLoop, Expr, ExprStmt, Full, Guarded, IfStmt, Index,
    Iown, Mylb, Mypid, Myub, Range, RecvStmt, SendStmt, Stmt, Subscript, UnaryOp,
    VarRef,
)

__all__ = [
    "map_expr", "map_stmt", "map_block", "substitute", "substitute_stmt",
    "walk_exprs", "subscript_parts", "subscript_exprs", "walk_stmts", "all_exprs",
    "array_refs",
    "free_scalars", "env_key", "UNKEYED", "loop_depth",
]


# ---------------------------------------------------------------------- #
# structural rewriting
# ---------------------------------------------------------------------- #


def _map_sub(s: Subscript, f: Callable[[Expr], Expr]) -> Subscript:
    match s:
        case Index(e):
            return Index(map_expr(e, f))
        case Range(lo, hi, step):
            return Range(
                None if lo is None else map_expr(lo, f),
                None if hi is None else map_expr(hi, f),
                None if step is None else map_expr(step, f),
            )
        case Full():
            return s
    raise TypeError(s)


def map_expr(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``e`` bottom-up, applying ``f`` to every (rebuilt) node."""
    match e:
        case BinOp(op, lhs, rhs):
            out: Expr = BinOp(op, map_expr(lhs, f), map_expr(rhs, f))
        case UnaryOp(op, operand):
            out = UnaryOp(op, map_expr(operand, f))
        case ArrayRef(var, subs):
            out = ArrayRef(var, tuple(_map_sub(s, f) for s in subs))
        case Iown(ref):
            out = Iown(map_expr(ref, f))
        case Accessible(ref):
            out = Accessible(map_expr(ref, f))
        case Await(ref):
            out = Await(map_expr(ref, f))
        case Mylb(ref, dim):
            out = Mylb(map_expr(ref, f), map_expr(dim, f))
        case Myub(ref, dim):
            out = Myub(map_expr(ref, f), map_expr(dim, f))
        case _:
            out = e
    return f(out)


def map_block(b: Block, f: Callable[[Stmt], Stmt | list[Stmt] | None]) -> Block:
    out: list[Stmt] = []
    for s in b:
        r = map_stmt(s, f)
        if r is None:
            continue
        if isinstance(r, list):
            out.extend(r)
        else:
            out.append(r)
    return Block(tuple(out))


def map_stmt(s: Stmt, f: Callable[[Stmt], Stmt | list[Stmt] | None]) -> Stmt | list[Stmt] | None:
    """Rebuild a statement bottom-up, applying ``f`` to every (rebuilt)
    statement.  ``f`` may return a replacement, a list (splice), or ``None``
    (delete)."""
    match s:
        case Guarded(rule, body):
            rebuilt: Stmt = Guarded(rule, map_block(body, f))
        case DoLoop(var, lo, hi, step, body):
            rebuilt = DoLoop(var, lo, hi, step, map_block(body, f))
        case IfStmt(cond, then, orelse):
            rebuilt = IfStmt(cond, map_block(then, f), map_block(orelse, f))
        case _:
            rebuilt = s
    return f(rebuilt)


def _subst_fn(bindings: dict[str, Expr]) -> Callable[[Expr], Expr]:
    def f(e: Expr) -> Expr:
        if isinstance(e, VarRef) and e.name in bindings:
            return bindings[e.name]
        return e

    return f


def substitute(e: Expr, bindings: dict[str, Expr]) -> Expr:
    """Replace scalar variable references by expressions."""
    return map_expr(e, _subst_fn(bindings))


def substitute_stmt(s: Stmt, bindings: dict[str, Expr]) -> Stmt:
    """Substitute inside a statement, top-down so that a ``do`` loop
    rebinding one of the substituted names shields its own body."""
    if not bindings:
        return s
    f = _subst_fn(bindings)

    def sub_block(b: Block, binds: dict[str, Expr]) -> Block:
        return Block(tuple(substitute_stmt(st, binds) for st in b))

    match s:
        case Assign(target, expr):
            new_target = map_expr(target, f) if isinstance(target, ArrayRef) else target
            return Assign(new_target, map_expr(expr, f))
        case Guarded(rule, body):
            return Guarded(map_expr(rule, f), sub_block(body, bindings))
        case SendStmt(ref, op, dests):
            return SendStmt(
                map_expr(ref, f), op,
                None if dests is None else tuple(map_expr(d, f) for d in dests),
            )
        case RecvStmt(into, op, source):
            return RecvStmt(
                map_expr(into, f), op,
                None if source is None else map_expr(source, f),
            )
        case DoLoop(var, lo, hi, step, body):
            inner = {k: v for k, v in bindings.items() if k != var}
            return DoLoop(
                var,
                map_expr(lo, f),
                map_expr(hi, f),
                map_expr(step, f),
                sub_block(body, inner),
            )
        case IfStmt(cond, then, orelse):
            return IfStmt(
                map_expr(cond, f),
                sub_block(then, bindings),
                sub_block(orelse, bindings),
            )
        case CallStmt(name, args):
            return CallStmt(name, tuple(map_expr(a, f) for a in args))
        case ExprStmt(expr):
            return ExprStmt(map_expr(expr, f))
        case CollectiveStmt(op, binders, (lo, hi, step), src, dst, root,
                            reduce_op, scratch):
            # The binders are bound inside the section refs; the group and
            # root are evaluated outside their scope.
            inner = {k: v for k, v in bindings.items() if k not in binders}
            fi = _subst_fn(inner)
            return CollectiveStmt(
                op, binders,
                (
                    map_expr(lo, f), map_expr(hi, f),
                    None if step is None else map_expr(step, f),
                ),
                map_expr(src, fi), map_expr(dst, fi),
                None if root is None else map_expr(root, f),
                reduce_op,
                None if scratch is None else map_expr(scratch, fi),
            )
        case _:
            return s


# ---------------------------------------------------------------------- #
# walking / collection
# ---------------------------------------------------------------------- #


def _walk(stack: list) -> Iterator[Expr]:
    """Pre-order over the expressions on ``stack`` (the next one last) and
    all their sub-expressions, with an explicit stack rather than one
    generator per node."""
    pop, push = stack.pop, stack.append
    while stack:
        e = pop()
        yield e
        t = type(e)
        if t is ArrayRef:
            for sub in reversed(e.subs):
                if type(sub) is Index:
                    push(sub.expr)
                elif type(sub) is Range:
                    stack += [p for p in (sub.step, sub.hi, sub.lo) if p is not None]
        elif t is BinOp:
            push(e.rhs)
            push(e.lhs)
        elif t is UnaryOp:
            push(e.operand)
        elif t is Iown or t is Accessible or t is Await:
            push(e.ref)
        elif t is Mylb or t is Myub:
            push(e.dim)
            push(e.ref)


def walk_exprs(e: Expr) -> Iterator[Expr]:
    """Yield ``e`` and all sub-expressions (pre-order)."""
    return _walk([e])


def subscript_parts(sub: Subscript) -> list[Expr]:
    """The expressions a subscript is written with (none for ``*``)."""
    match sub:
        case Index(expr):
            return [expr]
        case Range(lo, hi, step):
            return [part for part in (lo, hi, step) if part is not None]
    return []


def subscript_exprs(sub: Subscript) -> Iterator[Expr]:
    """Every expression inside one subscript (pre-order)."""
    return _walk(subscript_parts(sub)[::-1])


def _stmt_exprs(s: Stmt) -> list[Expr]:
    """The expressions written in ``s`` itself, in source order; those of
    its nested statements belong to them."""
    t = type(s)
    if t is Assign:
        if isinstance(s.target, ArrayRef):
            return [s.target, s.expr]
        return [s.expr]
    if t is Guarded:
        return [s.rule]
    if t is SendStmt:
        return [s.ref] if s.dests is None else [s.ref, *s.dests]
    if t is RecvStmt:
        return [s.into] if s.source is None else [s.into, s.source]
    if t is DoLoop:
        return [s.lo, s.hi, s.step]
    if t is IfStmt:
        return [s.cond]
    if t is CallStmt:
        return list(s.args)
    if t is ExprStmt:
        return [s.expr]
    if t is CollectiveStmt:
        return [e for e in (*s.group, s.src, s.dst, s.root, s.scratch)
                if e is not None]
    return []


def walk_stmts(s: Stmt | Block) -> Iterator[Stmt]:
    """Yield all statements in a subtree (pre-order)."""
    stack = [s]
    while stack:
        s = stack.pop()
        t = type(s)
        if t is Block:
            stack += reversed(s.stmts)
            continue
        yield s
        if t is Guarded or t is DoLoop:
            stack.append(s.body)
        elif t is IfStmt:
            stack += (s.orelse, s.then)


def all_exprs(node: Stmt | Block | Expr) -> Iterator[Expr]:
    """Every expression and sub-expression in a subtree."""
    if isinstance(node, Block) or _is_stmt(node):
        for st in walk_stmts(node):
            yield from _walk(_stmt_exprs(st)[::-1])
    else:
        yield from walk_exprs(node)


def array_refs(node: Stmt | Block | Expr) -> Iterator[ArrayRef]:
    """All array references in a subtree (both value and name positions)."""
    return (e for e in all_exprs(node) if isinstance(e, ArrayRef))


def _is_stmt(node) -> bool:
    return isinstance(
        node,
        (Guarded, Assign, SendStmt, RecvStmt, DoLoop, IfStmt, CallStmt,
         ExprStmt, CollectiveStmt),
    )


def free_scalars(node: Stmt | Block | Expr) -> set[str]:
    """Scalar variable names referenced in a subtree (not counting loop
    variables bound within it)."""
    out: set[str] = set()

    def visit_expr(e: Expr, bound: frozenset[str]) -> None:
        for sub in walk_exprs(e):
            if isinstance(sub, VarRef) and sub.name not in bound:
                out.add(sub.name)

    def visit(s: Stmt | Block, bound: frozenset[str]) -> None:
        if isinstance(s, Block):
            for st in s:
                visit(st, bound)
            return
        if isinstance(s, CollectiveStmt):
            # The binders are bound names inside the section refs only.
            lo, hi, step = s.group
            for e in (lo, hi, step, s.root):
                if e is not None:
                    visit_expr(e, bound)
            ref_bound = bound | set(s.binders)
            for r in (s.src, s.dst, s.scratch):
                if r is not None:
                    visit_expr(r, ref_bound)
            return
        for e in _stmt_exprs(s):
            visit_expr(e, bound)
        if isinstance(s, Assign) and isinstance(s.target, VarRef):
            # Scalar assignment targets reference the name too.
            if s.target.name not in bound:
                out.add(s.target.name)
        match s:
            case Guarded(_, body):
                visit(body, bound)
            case DoLoop(var, _, _, _, body):
                visit(body, bound | {var})
            case IfStmt(_, then, orelse):
                visit(then, bound)
                visit(orelse, bound)

    if isinstance(node, Block) or _is_stmt(node):
        visit(node, frozenset())
    else:
        visit_expr(node, frozenset())
    return out


#: What an :func:`env_key` key returns for a value that may not key a memo.
UNKEYED = object()
_TABLE_READS = frozenset({ArrayRef, Iown, Accessible, Await, Mylb, Myub})


def env_key(ref: ArrayRef):
    """What the section ``ref`` names depends on, for the section memos of
    both executors: ``(names, mypid, key)`` — the scalars its subscripts
    read, whether one reads ``mypid``, and ``key(env)`` over an
    environment's ``scalars`` and 1-based ``pid1``; None if a subscript
    reads table state.  A key is the bare value of one name, else a tuple;
    :data:`UNKEYED` for a value neither an int nor absent, since ``3 ==
    3.0`` as dict keys while IL ``/`` floors ints and not floats."""
    subs = list(walk_exprs(ref))[1:]
    if any(type(e) in _TABLE_READS for e in subs):
        return None
    names = tuple(sorted({e.name for e in subs if type(e) is VarRef}))
    mypid = any(type(e) is Mypid for e in subs)
    if len(names) == 1 and not mypid:
        name = names[0]

        def key(env):
            v = env.scalars.get(name)
            return v if type(v) is int or v is None else UNKEYED
    else:
        def key(env):
            vals = tuple(map(env.scalars.get, names))
            for v in vals:
                if type(v) is not int and v is not None:
                    return UNKEYED
            return (env.pid1, *vals) if mypid else vals
    return names, mypid, key


def loop_depth(b: Block) -> int:
    """Maximum loop nesting depth in a block."""
    best = 0
    for s in b:
        match s:
            case DoLoop(_, _, _, _, body):
                best = max(best, 1 + loop_depth(body))
            case Guarded(_, body):
                best = max(best, loop_depth(body))
            case IfStmt(_, then, orelse):
                best = max(best, loop_depth(then), loop_depth(orelse))
    return best
