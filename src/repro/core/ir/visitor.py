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
    Iown, Mylb, Myub, Range, RecvStmt, SendStmt, Stmt, Subscript, UnaryOp,
    VarRef,
)

__all__ = [
    "map_expr", "map_stmt", "map_block", "substitute", "substitute_stmt",
    "walk_exprs", "subscript_parts", "subscript_exprs", "walk_stmts", "all_exprs",
    "array_refs",
    "free_scalars", "loop_depth",
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


def walk_exprs(e: Expr) -> Iterator[Expr]:
    """Yield ``e`` and all sub-expressions (pre-order)."""
    yield e
    match e:
        case BinOp(_, lhs, rhs):
            yield from walk_exprs(lhs)
            yield from walk_exprs(rhs)
        case UnaryOp(_, operand):
            yield from walk_exprs(operand)
        case ArrayRef(_, subs):
            for s in subs:
                yield from subscript_exprs(s)
        case Iown(ref) | Accessible(ref) | Await(ref):
            yield from walk_exprs(ref)
        case Mylb(ref, dim) | Myub(ref, dim):
            yield from walk_exprs(ref)
            yield from walk_exprs(dim)


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
    for part in subscript_parts(sub):
        yield from walk_exprs(part)


def _stmt_exprs(s: Stmt) -> Iterator[Expr]:
    match s:
        case Guarded(rule, _):
            yield rule
        case Assign(target, expr):
            if isinstance(target, ArrayRef):
                yield target
            yield expr
        case SendStmt(ref, _, dests):
            yield ref
            if dests is not None:
                yield from dests
        case RecvStmt(into, _, source):
            yield into
            if source is not None:
                yield source
        case DoLoop(_, lo, hi, step, _):
            yield lo
            yield hi
            yield step
        case IfStmt(cond, _, _):
            yield cond
        case CallStmt(_, args):
            yield from args
        case ExprStmt(expr):
            yield expr
        case CollectiveStmt(_, _, (lo, hi, step), src, dst, root, _, scratch):
            yield lo
            yield hi
            if step is not None:
                yield step
            yield src
            yield dst
            if root is not None:
                yield root
            if scratch is not None:
                yield scratch


def walk_stmts(s: Stmt | Block) -> Iterator[Stmt]:
    """Yield all statements in a subtree (pre-order)."""
    if isinstance(s, Block):
        for st in s:
            yield from walk_stmts(st)
        return
    yield s
    match s:
        case Guarded(_, body):
            yield from walk_stmts(body)
        case DoLoop(_, _, _, _, body):
            yield from walk_stmts(body)
        case IfStmt(_, then, orelse):
            yield from walk_stmts(then)
            yield from walk_stmts(orelse)


def all_exprs(node: Stmt | Block | Expr) -> Iterator[Expr]:
    """Every expression and sub-expression in a subtree."""
    if isinstance(node, Block) or _is_stmt(node):
        for st in walk_stmts(node):
            for e in _stmt_exprs(st):
                yield from walk_exprs(e)
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
