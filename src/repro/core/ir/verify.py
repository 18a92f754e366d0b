"""Static verification of IL+XDP programs.

XDP places static obligations on the compiler rather than the run-time
(paper sections 2.4–2.7): compute rules must be side-effect-free, receive
left-hand sides must be exclusive sections, transfers may not name
universal data, ``await`` is a guard rather than a value, and every
referenced variable must be declared with matching rank.  The verifier
enforces what is checkable structurally; dynamic obligations (matching
sends/receives, deadlock freedom) are diagnosed by the engine.
"""

from __future__ import annotations

from ..errors import VerificationError
from .nodes import (
    ArrayDecl, ArrayRef, Assign, Await, BinOp, Block, CallStmt, CollOp,
    CollectiveStmt, DoLoop, Expr, ExprStmt, Full, Guarded, IfStmt, Index,
    Mypid, Program, Range, RecvStmt, ScalarDecl, SendStmt, Stmt, UnaryOp,
    VarRef, XferOp,
)
from .printer import print_stmt
from .visitor import _stmt_exprs, array_refs, free_scalars, walk_exprs, walk_stmts

__all__ = ["verify_program"]


def verify_program(program: Program) -> None:
    """Raise :class:`VerificationError` on the first structural violation."""
    arrays: dict[str, ArrayDecl] = {}
    scalars: set[str] = set()
    for d in program.decls:
        if d.name in arrays or d.name in scalars:
            raise VerificationError(f"duplicate declaration of {d.name!r}")
        if isinstance(d, ArrayDecl):
            for lo, hi in d.bounds:
                if lo > hi:
                    raise VerificationError(
                        f"array {d.name}: empty bounds {lo}:{hi}"
                    )
            if d.universal and d.dist is not None:
                raise VerificationError(
                    f"array {d.name} is both universal and distributed"
                )
            if not d.universal and d.dist is None:
                raise VerificationError(
                    f"array {d.name} is neither universal nor distributed"
                )
            if d.segment_shape is not None and len(d.segment_shape) != d.rank:
                raise VerificationError(
                    f"array {d.name}: segment shape rank mismatch"
                )
            arrays[d.name] = d
        else:
            assert isinstance(d, ScalarDecl)
            scalars.add(d.name)

    def check_ref(ref: ArrayRef, context: str) -> ArrayDecl:
        decl = arrays.get(ref.var)
        if decl is None:
            raise VerificationError(
                f"{context}: {ref.var!r} is not a declared array"
            )
        if len(ref.subs) != decl.rank:
            raise VerificationError(
                f"{context}: {ref.var} has rank {decl.rank} but the reference "
                f"has {len(ref.subs)} subscripts"
            )
        return decl

    def check_exclusive(ref: ArrayRef, context: str) -> None:
        decl = check_ref(ref, context)
        if decl.universal:
            raise VerificationError(
                f"{context}: {ref.var} is universally owned; XDP restricts "
                "this position to exclusive sections"
            )

    loop_vars: list[str] = []

    def visit(s: Stmt) -> None:
        for ref in array_refs(s):
            check_ref(ref, type(s).__name__)
        _check_await_positions(s)
        match s:
            case Guarded(rule, body):
                _check_rule_pure(rule)
                for ref in _intrinsic_refs(rule):
                    check_exclusive(ref, "compute rule intrinsic")
                for st in body:
                    visit(st)
            case SendStmt(ref, op, dests):
                check_exclusive(ref, f"send '{op.value}'")
            case RecvStmt(into, op, source):
                check_exclusive(into, f"receive '{op.value}'")
                if op is XferOp.RECV_VALUE:
                    if source is None:
                        raise VerificationError("value receive without a source name")
                    check_exclusive(source, "receive source")
                elif source is not None and source != into:
                    raise VerificationError(
                        "ownership receive names its own section; no separate source"
                    )
            case DoLoop(var, _, _, _, body):
                if var in loop_vars:
                    raise VerificationError(
                        f"loop variable {var!r} shadows an enclosing loop"
                    )
                loop_vars.append(var)
                for st in body:
                    visit(st)
                loop_vars.pop()
            case IfStmt(_, then, orelse):
                for st in list(then) + list(orelse):
                    visit(st)
            case ExprStmt(expr):
                for ref in _intrinsic_refs(expr):
                    check_exclusive(ref, "intrinsic")
            case Assign() | CallStmt():
                pass
            case CollectiveStmt():
                _check_collective(s, check_exclusive, scalars, loop_vars)
            case _:
                raise VerificationError(f"unknown statement {type(s).__name__}")

    for s in program.body:
        visit(s)

    # Scalars referenced anywhere must be declared or bound by a loop.
    body_free = free_scalars(program.body)
    undeclared = body_free - scalars
    if undeclared:
        raise VerificationError(
            f"undeclared scalar(s): {', '.join(sorted(undeclared))} "
            "(declare with 'scalar NAME' or bind with a loop)"
        )


def _check_collective(
    s: CollectiveStmt,
    check_exclusive,
    scalars: set[str],
    loop_vars: list[str],
) -> None:
    """Structural obligations of a ``coll`` statement.

    Every group member must be able to compute every message name, so
    ``mypid`` is forbidden throughout the statement, and the binder roles
    are fixed per op: the destination binder ``d`` selects a receiver's
    landing/scratch section; the contributor binder ``g`` (absent for
    broadcast) selects the chunk a contributor supplies."""
    what = f"coll {s.op.value}"
    want = 1 if s.op is CollOp.BROADCAST else 2
    if len(s.binders) != want:
        raise VerificationError(
            f"{what}: expects {want} binder(s), got {len(s.binders)}"
        )
    if len(set(s.binders)) != len(s.binders):
        raise VerificationError(f"{what}: duplicate binder names {s.binders}")
    for b in s.binders:
        if b in scalars or b in loop_vars:
            raise VerificationError(
                f"{what}: binder {b!r} shadows a declared scalar or loop "
                "variable"
            )
    if (s.root is not None) != (s.op is CollOp.BROADCAST):
        raise VerificationError(
            f"{what}: 'root' is required for broadcast and invalid elsewhere"
        )
    if (s.reduce_op is not None) != (s.op is CollOp.REDUCE_SCATTER):
        raise VerificationError(
            f"{what}: 'op' is required for reduce_scatter and invalid "
            "elsewhere"
        )
    if (s.scratch is not None) != (s.op is CollOp.REDUCE_SCATTER):
        raise VerificationError(
            f"{what}: 'via' scratch is required for reduce_scatter and "
            "invalid elsewhere"
        )

    lo, hi, step = s.group
    outside = [lo, hi] + ([step] if step is not None else [])
    if s.root is not None:
        outside.append(s.root)
    for e in outside:
        for sub in walk_exprs(e):
            if isinstance(sub, Mypid):
                raise VerificationError(
                    f"{what}: mypid is forbidden in the group and root "
                    "(all members must compute the same group)"
                )
            if isinstance(sub, VarRef) and sub.name in s.binders:
                raise VerificationError(
                    f"{what}: binder {sub.name!r} is not in scope in the "
                    "group or root"
                )

    g, d = s.g_binder, s.d_binder
    allowed = {
        "src": {
            CollOp.BROADCAST: set(),
            CollOp.ALLGATHER: {g},
            CollOp.ALL_TO_ALL: {g, d},
            CollOp.REDUCE_SCATTER: {g, d},
        }[s.op],
        "dst": set(s.binders),
        "via scratch": {d},
    }
    refs = [("src", s.src), ("dst", s.dst)]
    if s.scratch is not None:
        refs.append(("via scratch", s.scratch))
    for role, ref in refs:
        check_exclusive(ref, f"{what} {role}")
        for sub in walk_exprs(ref):
            if isinstance(sub, Mypid):
                raise VerificationError(
                    f"{what} {role}: mypid is forbidden in collective "
                    "sections (use the binders; all members must compute "
                    "all message names)"
                )
            if (
                isinstance(sub, VarRef)
                and sub.name in s.binders
                and sub.name not in allowed[role]
            ):
                raise VerificationError(
                    f"{what} {role}: binder {sub.name!r} may not appear "
                    f"here (allowed: {sorted(n for n in allowed[role] if n)})"
                )


def _check_await_positions(s: Stmt) -> None:
    """``await`` blocks and yields a truth value, so it is a guard: it may
    appear in a compute rule, an ``if`` condition or an expression
    statement, combined only by ``and``/``or``/``not``."""
    guards: set[int] = set()

    def mark(e: Expr) -> None:
        match e:
            case Await():
                guards.add(id(e))
            case BinOp("and" | "or", lhs, rhs):
                mark(lhs)
                mark(rhs)
            case UnaryOp("not", operand):
                mark(operand)

    if isinstance(s, (Guarded, IfStmt, ExprStmt)):
        mark(next(_stmt_exprs(s)))
    for e in _stmt_exprs(s):
        for sub in walk_exprs(e):
            if isinstance(sub, Await) and id(sub) not in guards:
                raise VerificationError(
                    f"'{print_stmt(s)[0].strip()}': await() is a guard, not a "
                    "value; use it only in a compute rule, an if condition or "
                    "an expression statement, combined by and/or/not"
                )


def _check_rule_pure(rule: Expr) -> None:
    """Compute rules 'may not have side effects, so in particular they may
    not include send or receive statements' (section 2.4).  Expressions are
    side-effect-free by construction; this guards future extensions."""
    # All Expr nodes are pure; nothing further to check structurally.
    return


def _intrinsic_refs(e: Expr):
    from .nodes import Accessible, Await, Iown, Mylb, Myub
    from .visitor import walk_exprs

    for sub in walk_exprs(e):
        match sub:
            case Iown(ref) | Accessible(ref) | Await(ref):
                yield ref
            case Mylb(ref, _) | Myub(ref, _):
                yield ref
