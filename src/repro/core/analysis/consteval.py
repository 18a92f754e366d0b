"""Compile-time constant evaluation of IL+XDP expressions.

The paper's example implementation assumes "a fixed, known processor grid"
(section 3): loop bounds, distributions and grid shapes are compile-time
constants, which lets the compiler decide ownership questions by direct
evaluation.  This module evaluates expressions under a partial environment;
``None`` means *not a compile-time constant* and makes the analyses above
it conservative (keep the communication, skip the optimization).

``mypid`` evaluates only when the environment pins a processor — the
ownership analysis enumerates processors explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CompilationError
from ..ir.nodes import (
    ArrayDecl, ArrayRef, BinOp, BoolConst, Expr, FloatConst, Full, Index,
    IntConst, MaxIntConst, MinIntConst, Mypid, NumProcs, Program, Range,
    ScalarDecl, UnaryOp, VarRef,
)
from ..sections import Section, Triplet

__all__ = ["ConstEnv", "const_eval", "resolve_section_const", "program_constants"]

from ...runtime.symtab import MAXINT, MININT


@dataclass(frozen=True)
class ConstEnv:
    """Partial compile-time environment.

    ``scalars`` maps names to known constant values; ``pid1`` optionally
    pins the (1-based) executing processor; ``nprocs`` is always known.
    """

    nprocs: int
    scalars: dict[str, int | float | bool] = field(default_factory=dict)
    pid1: int | None = None

    def bind(self, **scalars: int | float | bool) -> "ConstEnv":
        merged = dict(self.scalars)
        merged.update(scalars)
        return ConstEnv(self.nprocs, merged, self.pid1)

    def at_pid(self, pid1: int) -> "ConstEnv":
        return ConstEnv(self.nprocs, self.scalars, pid1)

    def without(self, name: str) -> "ConstEnv":
        """This environment with ``name`` unknown (a loop rebinds it)."""
        scalars = {k: v for k, v in self.scalars.items() if k != name}
        return ConstEnv(self.nprocs, scalars, self.pid1)


def const_eval(e: Expr, env: ConstEnv) -> int | float | bool | None:
    """Evaluate ``e`` to a constant, or ``None`` when it depends on
    run-time state (unknown scalars, unpinned ``mypid``, any intrinsic)."""
    match e:
        case IntConst(v) | FloatConst(v) | BoolConst(v):
            return v
        case MaxIntConst():
            return MAXINT
        case MinIntConst():
            return MININT
        case NumProcs():
            return env.nprocs
        case Mypid():
            return env.pid1
        case VarRef(name):
            return env.scalars.get(name)
        case UnaryOp(op, operand):
            v = const_eval(operand, env)
            if v is None:
                return None
            return (not v) if op == "not" else (-v)
        case BinOp(op, lhs, rhs):
            l = const_eval(lhs, env)
            if l is None:
                return None
            if op == "and":
                return False if not l else const_eval(rhs, env)
            if op == "or":
                return True if l else const_eval(rhs, env)
            r = const_eval(rhs, env)
            if r is None:
                return None
            match op:
                case "+": return l + r
                case "-": return l - r
                case "*": return l * r
                case "/":
                    if isinstance(l, int) and isinstance(r, int):
                        return l // r if r != 0 else None
                    return l / r if r != 0 else None
                case "%": return l % r if r != 0 else None
                case "==": return l == r
                case "!=": return l != r
                case "<": return l < r
                case "<=": return l <= r
                case ">": return l > r
                case ">=": return l >= r
                case "min": return min(l, r)
                case "max": return max(l, r)
            return None
        case _:
            # Intrinsics (iown/await/...) are never compile-time constants
            # here; ownership questions go through OwnershipAnalysis.
            return None


def resolve_section_const(
    ref: ArrayRef, decl: ArrayDecl, env: ConstEnv
) -> Section | None:
    """Resolve an array reference to a concrete section under ``env``,
    or ``None`` if any subscript is not a compile-time constant."""
    if len(ref.subs) != decl.rank:
        raise CompilationError(
            f"{ref.var} has rank {decl.rank}, reference has {len(ref.subs)} subscripts"
        )
    dims: list[Triplet] = []
    for sub, (lo_b, hi_b) in zip(ref.subs, decl.bounds):
        match sub:
            case Full():
                dims.append(Triplet(lo_b, hi_b, 1))
            case Index(expr):
                v = const_eval(expr, env)
                if v is None:
                    return None
                dims.append(Triplet(int(v), int(v), 1))
            case Range(lo, hi, step):
                parts: list[int] = []
                for part, default in ((lo, lo_b), (hi, hi_b), (step, 1)):
                    if part is None:
                        parts.append(default)
                    else:
                        v = const_eval(part, env)
                        if v is None:
                            return None
                        parts.append(int(v))
                try:
                    dims.append(Triplet(*parts))
                except ValueError:
                    return None  # empty section under these constants
    return Section(tuple(dims))


def program_constants(program: Program, nprocs: int) -> ConstEnv:
    """The compile-time environment implied by constant scalar initialisers."""
    env = ConstEnv(nprocs)
    known: dict[str, int | float | bool] = {}
    for d in program.decls:
        if isinstance(d, ScalarDecl) and d.init is not None:
            v = const_eval(d.init, ConstEnv(nprocs, known))
            if v is not None:
                known[d.name] = v
    return ConstEnv(nprocs, known)
