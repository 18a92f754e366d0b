"""Lowering IL+XDP to a flat SPMD instruction stream.

Paper section 3.2: "After the optimization phase is complete, the IL+XDP
program is translated to executable code by the compiler's back end.  The
translation needs to map XDP constructs to operations provided by the
target computer's hardware and operating system."  Here the "hardware"
is the simulated machine of :mod:`repro.machine`, and the back end emits a
flat list of instructions (branches, loop control, communication ops) with
every expression compiled to a Python closure — threaded code rather than
tree walking.  This is the production execution path; the reference
interpreter (:mod:`repro.core.interp`) defines the semantics, and the two
are property-tested for agreement.

Delayed communication binding appears as the ``binding`` parameter:

* ``"nonblocking"`` (default) — receives initiate and complete
  asynchronously; ``await`` is the only synchronisation.  This is the
  binding the paper's overlap optimizations assume.
* ``"blocking"`` — every receive initiation immediately waits for its
  completion, modelling a target library with only blocking primitives
  (the paper warns the optimizer must then beware of deadlock; the engine
  detects any it causes).

Lowering restriction: ``await(...)`` may appear as a whole compute rule,
as one top-level conjunct of a rule, or as an expression statement — the
positions the paper uses — because it compiles to a WAIT instruction, not
to a value.  Richer uses run under the reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

import numpy as np

from ...distributions import ProcessorGrid
from ...machine.effects import Compute, Effect, RecvInit, Send, WaitAccessible
from ...machine.engine import Engine, ProcessorContext
from ...machine.message import TransferKind
from ...machine.model import MachineModel
from ...machine.stats import RunStats
from ...runtime.symtab import MAXINT, MININT
from ..analysis.layouts import build_layouts
from ..errors import CompilationError, OwnershipError, XDPError
from ..interp import CALL_BASE_FLOPS, ELEM_FLOPS, INTRINSIC_FLOPS, ITER_FLOPS
from ..collectives.schedule import (
    CollInstance, collective_ops, execute_ops, group_members,
)
from ..ir.nodes import (
    Accessible, ArrayDecl, ArrayRef, Assign, Await, BinOp, Block, BoolConst,
    CallStmt, CollectiveStmt, DoLoop, Expr, ExprStmt, FloatConst, Full,
    Guarded, IfStmt, Index, IntConst, Iown, MaxIntConst, MinIntConst, Mylb,
    Mypid, Myub, NumProcs, Program, Range, RecvStmt, SendStmt, Stmt, UnaryOp,
    VarRef, XferOp,
)
from ..kernels import KernelRegistry, default_registry
from ..sections import Section, Triplet

__all__ = ["CompiledProgram", "lower"]

_XFER_TO_KIND = {
    XferOp.SEND_VALUE: TransferKind.VALUE,
    XferOp.SEND_OWNER: TransferKind.OWNERSHIP,
    XferOp.SEND_OWNER_VALUE: TransferKind.OWN_VALUE,
    XferOp.RECV_VALUE: TransferKind.VALUE,
    XferOp.RECV_OWNER: TransferKind.OWNERSHIP,
    XferOp.RECV_OWNER_VALUE: TransferKind.OWN_VALUE,
}


class _VMEnv:
    """Run-time state of one processor executing lowered code."""

    __slots__ = ("ctx", "scalars", "universal", "flops", "pid1", "nprocs")

    def __init__(self, ctx: ProcessorContext, nprocs: int):
        self.ctx = ctx
        self.scalars: dict[str, Any] = {}
        self.universal: dict[str, np.ndarray] = {}
        self.flops = 0
        self.pid1 = ctx.pid + 1
        self.nprocs = nprocs


# Instruction encoding: small classes with an `exec(env)` returning either
# None (fall through), an int (jump target), or an Effect to yield (the VM
# driver inspects a flag).  We keep them as plain dataclasses dispatched by
# type for clarity; the closures inside carry the compiled expressions.


@dataclass
class _Exec:
    """Run a closure for its side effects (assignments, scalar updates)."""

    fn: Callable[[_VMEnv], None]


@dataclass
class _Branch:
    """Jump to ``target`` when the rule closure evaluates false."""

    rule: Callable[[_VMEnv], bool]
    target: int


@dataclass
class _Jump:
    target: int


@dataclass
class _LoopInit:
    var: str
    lo: Callable[[_VMEnv], int]
    hi: Callable[[_VMEnv], int]
    step: Callable[[_VMEnv], int]
    limit_slot: str


@dataclass
class _LoopTest:
    var: str
    limit_slot: str
    exit_target: int


@dataclass
class _LoopInc:
    var: str
    limit_slot: str
    back_target: int


@dataclass
class _SendI:
    kind: TransferKind
    var: str
    sec: Callable[[_VMEnv], Section]
    dests: Callable[[_VMEnv], tuple[int, ...] | None]
    wait_first: bool  # owner sends block until accessible


@dataclass
class _RecvI:
    kind: TransferKind
    msg_var: str
    msg_sec: Callable[[_VMEnv], Section] | None
    into_var: str
    into_sec: Callable[[_VMEnv], Section]
    wait_dest_first: bool  # value receives block until destination accessible
    blocking: bool         # blocking binding: wait for completion too


@dataclass
class _Wait:
    """await(X) as a statement/rule conjunct: skip to ``on_false`` when X is
    unowned, otherwise wait until accessible."""

    var: str
    sec: Callable[[_VMEnv], Section]
    on_false: int


@dataclass
class _CallI:
    fn: Callable[[_VMEnv], int]  # returns flops


@dataclass
class _CollI:
    """A collective statement, executed natively by the schedule engine.

    Group, root and every chunk section are compiled closures; binder
    values are injected into ``env.scalars`` while a section closure
    runs (collective binders scope only over the statement's refs)."""

    stmt: CollectiveStmt
    lo: Callable[[_VMEnv], Any]
    hi: Callable[[_VMEnv], Any]
    step: Callable[[_VMEnv], Any] | None
    root: Callable[[_VMEnv], Any] | None
    sec_fns: dict[int, tuple[str, Callable[[_VMEnv], Section]]]
    style: str  # "flat" or "staged"


_Instr = _Exec | _Branch | _Jump | _LoopInit | _LoopTest | _LoopInc | _SendI | _RecvI | _Wait | _CallI | _CollI


class CompiledProgram:
    """A lowered IL+XDP program, executable on the simulated machine."""

    def __init__(
        self,
        program: Program,
        nprocs: int,
        *,
        grid: ProcessorGrid | None = None,
        model: MachineModel | None = None,
        kernels: KernelRegistry | None = None,
        binding: str = "nonblocking",
        strict: bool = False,
        trace: bool = False,
        backend: str | None = None,
        collectives: str = "native",
    ):
        if binding not in ("nonblocking", "blocking"):
            raise CompilationError(f"unknown communication binding {binding!r}")
        if collectives not in ("native", "p2p"):
            raise CompilationError(
                f"unknown collective lowering {collectives!r} "
                "(expected 'native' or 'p2p')"
            )
        self.collectives = collectives
        self.program = program
        self.nprocs = nprocs
        self.grid = grid if grid is not None else ProcessorGrid((nprocs,))
        self.model = model if model is not None else MachineModel()
        self.kernels = kernels if kernels is not None else default_registry()
        self.binding = binding
        self.engine = Engine(
            nprocs, self.model, strict=strict, trace=trace, backend=backend
        )
        self.segmentations = build_layouts(program, self.grid)
        for d in program.array_decls():
            if not d.universal:
                self.engine.declare(
                    d.name, self.segmentations[d.name], dtype=np.dtype(d.dtype)
                )
        self._universal_init: dict[str, np.ndarray] = {}
        lowerer = _Lowerer(self)
        self.code: list[_Instr] = lowerer.lower_body()
        self.scalar_inits = lowerer.scalar_inits

    # -- data staging (same API as the interpreter) ---------------------- #

    def write_global(self, name: str, values: np.ndarray) -> None:
        decl = self.program.decl(name)
        assert isinstance(decl, ArrayDecl)
        values = np.asarray(values, dtype=np.dtype(decl.dtype))
        if decl.universal:
            self._universal_init[name] = values.copy()
            return
        self.engine.write_global(name, values)

    def read_global(self, name: str) -> np.ndarray:
        return self.engine.read_global(name)

    # -- execution ------------------------------------------------------- #

    def run(self) -> RunStats:
        code = self.code
        program = self.program
        universal_init = self._universal_init

        def node(ctx: ProcessorContext) -> Generator[Effect, Any, None]:
            env = _VMEnv(ctx, self.nprocs)
            for d in program.scalar_decls():
                env.scalars[d.name] = 0
            for name, fn in self.scalar_inits:
                env.scalars[name] = fn(env)
            for d in program.array_decls():
                if d.universal:
                    env.universal[d.name] = universal_init.get(
                        d.name, np.zeros(d.shape, dtype=np.dtype(d.dtype))
                    ).copy()
            pc = 0
            n = len(code)
            while pc < n:
                ins = code[pc]
                tp = type(ins)
                if tp is _Exec:
                    ins.fn(env)
                    pc += 1
                elif tp is _Branch:
                    if env.flops:
                        yield Compute(float(env.flops), flops=env.flops)
                        env.flops = 0
                    try:
                        ok = ins.rule(env)
                    except OwnershipError:
                        env.flops += INTRINSIC_FLOPS
                        ok = False
                    pc = pc + 1 if ok else ins.target
                elif tp is _LoopInit:
                    env.scalars[ins.var] = ins.lo(env)
                    env.scalars[ins.limit_slot] = (ins.hi(env), ins.step(env))
                    pc += 1
                elif tp is _LoopTest:
                    hi, step = env.scalars[ins.limit_slot]
                    v = env.scalars[ins.var]
                    live = (v <= hi) if step > 0 else (v >= hi)
                    if live:
                        env.flops += ITER_FLOPS
                        pc += 1
                    else:
                        pc = ins.exit_target
                elif tp is _LoopInc:
                    hi, step = env.scalars[ins.limit_slot]
                    env.scalars[ins.var] += step
                    pc = ins.back_target
                elif tp is _Jump:
                    pc = ins.target
                elif tp is _SendI:
                    sec = ins.sec(env)
                    dests = ins.dests(env)
                    if env.flops:
                        yield Compute(float(env.flops), flops=env.flops)
                        env.flops = 0
                    if ins.wait_first:
                        yield WaitAccessible(ins.var, sec)
                    yield Send(ins.kind, ins.var, sec, dests)
                    pc += 1
                elif tp is _RecvI:
                    into_sec = ins.into_sec(env)
                    msg_sec = into_sec if ins.msg_sec is None else ins.msg_sec(env)
                    if env.flops:
                        yield Compute(float(env.flops), flops=env.flops)
                        env.flops = 0
                    if ins.wait_dest_first:
                        yield WaitAccessible(ins.into_var, into_sec)
                    yield RecvInit(
                        ins.kind, ins.msg_var, msg_sec,
                        into_var=ins.into_var, into_sec=into_sec,
                    )
                    if ins.blocking:
                        yield WaitAccessible(ins.into_var, into_sec)
                    pc += 1
                elif tp is _Wait:
                    sec = ins.sec(env)
                    env.flops += INTRINSIC_FLOPS
                    if not env.ctx.symtab.iown(ins.var, sec):
                        pc = ins.on_false
                        continue
                    if env.flops:
                        yield Compute(float(env.flops), flops=env.flops)
                        env.flops = 0
                    yield WaitAccessible(ins.var, sec)
                    pc += 1
                elif tp is _CallI:
                    env.flops += CALL_BASE_FLOPS + ins.fn(env)
                    if env.flops:
                        yield Compute(float(env.flops), flops=env.flops)
                        env.flops = 0
                    pc += 1
                elif tp is _CollI:
                    yield from _run_collective(ins, env)
                    pc += 1
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown instruction {ins!r}")
            if env.flops:
                yield Compute(float(env.flops), flops=env.flops)
                env.flops = 0

        return self.engine.run(node)


def lower(program: Program, nprocs: int, **kw: Any) -> CompiledProgram:
    """Convenience: lower a program for a machine of ``nprocs`` processors."""
    return CompiledProgram(program, nprocs, **kw)


_MISSING = object()


def _run_collective(ins: _CollI, env: _VMEnv) -> Generator[Effect, Any, None]:
    """Resolve a :class:`_CollI` against the current environment and run
    its per-processor schedule."""
    scalars = env.scalars

    def resolve(ref: ArrayRef, bindings: dict[str, int]):
        var, sec_fn = ins.sec_fns[id(ref)]
        saved = {k: scalars.get(k, _MISSING) for k in bindings}
        scalars.update(bindings)
        try:
            return var, sec_fn(env)
        finally:
            for k, v in saved.items():
                if v is _MISSING:
                    scalars.pop(k, None)
                else:
                    scalars[k] = v

    members = group_members(
        int(ins.lo(env)),
        int(ins.hi(env)),
        1 if ins.step is None else int(ins.step(env)),
        env.nprocs,
    )
    root = int(ins.root(env)) if ins.root is not None else None
    inst = CollInstance(ins.stmt, members, root, resolve)
    if env.pid1 not in members:
        return
    yield from execute_ops(collective_ops(inst, env.pid1, ins.style), env)


# ---------------------------------------------------------------------- #
# expression compilation
# ---------------------------------------------------------------------- #


def _compile_expr_static(e: Expr) -> Callable[[_VMEnv], Any]:
    """Compile an expression that contains no Await (checked by caller)."""
    match e:
        case IntConst(v) | FloatConst(v) | BoolConst(v):
            return lambda env: v
        case MaxIntConst():
            return lambda env: MAXINT
        case MinIntConst():
            return lambda env: MININT
        case Mypid():
            return lambda env: env.pid1
        case NumProcs():
            return lambda env: env.nprocs
        case VarRef(name):
            def var_read(env, name=name):
                try:
                    return env.scalars[name]
                except KeyError:
                    raise XDPError(f"undefined scalar {name!r} on P{env.pid1}") from None
            return var_read
        case UnaryOp(op, operand):
            inner = _compile_expr_static(operand)
            if op == "not":
                return lambda env: (env.__setattr__("flops", env.flops + 1), not inner(env))[1]
            return lambda env: (env.__setattr__("flops", env.flops + 1), -inner(env))[1]
        case BinOp(op, lhs, rhs):
            return _compile_binop(op, lhs, rhs)
        case ArrayRef():
            return _compile_array_read(e)
        case Iown(ref):
            sec_fn = _compile_section(ref)
            var = ref.var
            def iown_fn(env, var=var, sec_fn=sec_fn):
                env.flops += INTRINSIC_FLOPS
                return env.ctx.symtab.iown(var, sec_fn(env))
            return iown_fn
        case Accessible(ref):
            sec_fn = _compile_section(ref)
            var = ref.var
            def acc_fn(env, var=var, sec_fn=sec_fn):
                env.flops += INTRINSIC_FLOPS
                return env.ctx.symtab.accessible(var, sec_fn(env))
            return acc_fn
        case Mylb(ref, dim):
            sec_fn = _compile_section(ref)
            dim_fn = _compile_expr_static(dim)
            var = ref.var
            def mylb_fn(env, var=var, sec_fn=sec_fn, dim_fn=dim_fn):
                env.flops += INTRINSIC_FLOPS
                return env.ctx.symtab.mylb(var, int(dim_fn(env)), sec_fn(env))
            return mylb_fn
        case Myub(ref, dim):
            sec_fn = _compile_section(ref)
            dim_fn = _compile_expr_static(dim)
            var = ref.var
            def myub_fn(env, var=var, sec_fn=sec_fn, dim_fn=dim_fn):
                env.flops += INTRINSIC_FLOPS
                return env.ctx.symtab.myub(var, int(dim_fn(env)), sec_fn(env))
            return myub_fn
        case Await(_):
            raise CompilationError(
                "await() may only appear as a compute rule (or top-level "
                "conjunct) or as an expression statement in lowered code; "
                "run richer forms under the reference interpreter"
            )
        case _:
            raise CompilationError(f"cannot lower expression {e!r}")


def _compile_binop(op: str, lhs: Expr, rhs: Expr) -> Callable[[_VMEnv], Any]:
    l_fn = _compile_expr_static(lhs)
    r_fn = _compile_expr_static(rhs)
    if op == "and":
        return lambda env: bool(l_fn(env)) and bool(r_fn(env))
    if op == "or":
        return lambda env: bool(l_fn(env)) or bool(r_fn(env))

    import operator as _op

    table = {
        "+": _op.add, "-": _op.sub, "*": _op.mul, "%": _op.mod,
        "==": _op.eq, "!=": _op.ne, "<": _op.lt, "<=": _op.le,
        ">": _op.gt, ">=": _op.ge,
    }
    if op == "/":
        def div(env):
            l, r = l_fn(env), r_fn(env)
            env.flops += _pair_size(l, r)
            if isinstance(l, (int, np.integer)) and isinstance(r, (int, np.integer)):
                return int(l) // int(r) if r != 0 else 0
            return l / r
        return div
    if op in ("min", "max"):
        py = min if op == "min" else max
        npf = np.minimum if op == "min" else np.maximum
        def mm(env):
            l, r = l_fn(env), r_fn(env)
            size = _pair_size(l, r)
            env.flops += size
            return py(l, r) if size == 1 else npf(l, r)
        return mm
    fn = table[op]
    def bin_run(env):
        l, r = l_fn(env), r_fn(env)
        env.flops += _pair_size(l, r)
        return fn(l, r)
    return bin_run


def _pair_size(l: Any, r: Any) -> int:
    size = 1
    for v in (l, r):
        if isinstance(v, np.ndarray):
            size = max(size, v.size)
    return size


def _compile_subscript(sub, bounds: tuple[int, int]):
    lo_b, hi_b = bounds
    match sub:
        case Full():
            t = Triplet(lo_b, hi_b, 1)
            return lambda env: t
        case Index(expr):
            fn = _compile_expr_static(expr)
            return lambda env: (lambda v: Triplet(v, v, 1))(int(fn(env)))
        case Range(lo, hi, step):
            lo_fn = _compile_expr_static(lo) if lo is not None else None
            hi_fn = _compile_expr_static(hi) if hi is not None else None
            st_fn = _compile_expr_static(step) if step is not None else None
            def run(env):
                return Triplet(
                    lo_b if lo_fn is None else int(lo_fn(env)),
                    hi_b if hi_fn is None else int(hi_fn(env)),
                    1 if st_fn is None else int(st_fn(env)),
                )
            return run
    raise CompilationError(f"cannot lower subscript {sub!r}")


def _compile_section(ref: ArrayRef) -> Callable[[_VMEnv], Section]:
    decl = _CURRENT_LOWERER.decl(ref.var)
    if len(ref.subs) != decl.rank:
        raise CompilationError(
            f"{ref.var} has rank {decl.rank}, reference has {len(ref.subs)} subscripts"
        )
    sub_fns = [
        _compile_subscript(s, b) for s, b in zip(ref.subs, decl.bounds)
    ]
    def run(env):
        return Section(tuple(fn(env) for fn in sub_fns))
    return run


def _compile_array_read(ref: ArrayRef) -> Callable[[_VMEnv], Any]:
    decl = _CURRENT_LOWERER.decl(ref.var)
    sec_fn = _compile_section(ref)
    name = ref.var
    elementwise = ref.is_element()
    if decl.universal:
        offs = tuple(lo for lo, _ in decl.bounds)
        def read_u(env):
            sec = sec_fn(env)
            env.flops += ELEM_FLOPS * sec.size
            idx = np.ix_(*(
                np.arange(t.lo, t.hi + 1, t.step) - off
                for t, off in zip(sec.dims, offs)
            ))
            buf = env.universal[name][idx]
            return buf.reshape(()).item() if elementwise and buf.size == 1 else buf
        return read_u
    def read_x(env):
        sec = sec_fn(env)
        env.flops += ELEM_FLOPS * sec.size
        buf = env.ctx.symtab.read(name, sec)
        return buf.reshape(()).item() if elementwise and buf.size == 1 else buf
    return read_x


# ---------------------------------------------------------------------- #
# statement lowering
# ---------------------------------------------------------------------- #

_CURRENT_LOWERER: "_Lowerer" = None  # type: ignore[assignment]


class _Lowerer:
    def __init__(self, compiled: CompiledProgram):
        self.compiled = compiled
        self.program = compiled.program
        self.code: list[_Instr] = []
        self.scalar_inits: list[tuple[str, Callable[[_VMEnv], Any]]] = []
        self._loop_counter = 0

    def decl(self, name: str) -> ArrayDecl:
        d = None
        for cand in self.program.decls:
            if cand.name == name:
                d = cand
                break
        if d is None or not isinstance(d, ArrayDecl):
            raise CompilationError(f"{name!r} is not a declared array")
        return d

    def lower_body(self) -> list[_Instr]:
        global _CURRENT_LOWERER
        prev = _CURRENT_LOWERER
        _CURRENT_LOWERER = self
        try:
            for d in self.program.scalar_decls():
                if d.init is not None:
                    self.scalar_inits.append((d.name, _compile_expr_static(d.init)))
            for s in self.program.body:
                self.lower_stmt(s)
        finally:
            _CURRENT_LOWERER = prev
        return self.code

    # -- helpers -------------------------------------------------------- #

    def _emit(self, ins: _Instr) -> int:
        self.code.append(ins)
        return len(self.code) - 1

    def lower_stmt(self, s: Stmt) -> None:
        match s:
            case Guarded(rule, body):
                self._lower_guarded(rule, body)
            case Assign():
                self._lower_assign(s)
            case SendStmt(ref, op, dests):
                sec_fn = _compile_section(ref)
                if dests is None:
                    dests_fn = lambda env: None
                else:
                    d_fns = [_compile_expr_static(d) for d in dests]
                    nprocs = self.compiled.nprocs
                    def dests_fn(env, d_fns=d_fns, nprocs=nprocs):
                        out = tuple(int(fn(env)) - 1 for fn in d_fns)
                        for p in out:
                            if not 0 <= p < nprocs:
                                raise XDPError(f"send destination P{p + 1} outside machine")
                        return out
                self._emit(_SendI(
                    _XFER_TO_KIND[op], ref.var, sec_fn, dests_fn,
                    wait_first=op is not XferOp.SEND_VALUE,
                ))
            case RecvStmt(into, op, source):
                into_fn = _compile_section(into)
                if op is XferOp.RECV_VALUE:
                    assert source is not None
                    self._emit(_RecvI(
                        TransferKind.VALUE, source.var,
                        _compile_section(source), into.var, into_fn,
                        wait_dest_first=True,
                        blocking=self.compiled.binding == "blocking",
                    ))
                else:
                    self._emit(_RecvI(
                        _XFER_TO_KIND[op], into.var, None, into.var, into_fn,
                        wait_dest_first=False,
                        blocking=self.compiled.binding == "blocking",
                    ))
            case DoLoop(var, lo, hi, step, body):
                self._loop_counter += 1
                slot = f"__limit{self._loop_counter}"
                self._emit(_LoopInit(
                    var,
                    _as_int(_compile_expr_static(lo)),
                    _as_int(_compile_expr_static(hi)),
                    _as_int_nonzero(_compile_expr_static(step)),
                    slot,
                ))
                test_at = self._emit(_LoopTest(var, slot, exit_target=-1))
                for st in body:
                    self.lower_stmt(st)
                self._emit(_LoopInc(var, slot, back_target=test_at))
                self.code[test_at].exit_target = len(self.code)
            case IfStmt(cond, then, orelse):
                cond_fn = _compile_expr_static(cond)
                br_at = self._emit(_Branch(cond_fn, target=-1))
                for st in then:
                    self.lower_stmt(st)
                if len(orelse):
                    jmp_at = self._emit(_Jump(target=-1))
                    self.code[br_at].target = len(self.code)
                    for st in orelse:
                        self.lower_stmt(st)
                    self.code[jmp_at].target = len(self.code)
                else:
                    self.code[br_at].target = len(self.code)
            case CallStmt():
                self._lower_call(s)
            case ExprStmt(Await(ref)):
                sec_fn = _compile_section(ref)
                at = self._emit(_Wait(ref.var, sec_fn, on_false=-1))
                self.code[at].on_false = len(self.code)
            case ExprStmt(expr):
                fn = _compile_expr_static(expr)
                self._emit(_Exec(lambda env, fn=fn: (fn(env), None)[1]))
            case CollectiveStmt():
                self._lower_collective(s)
            case _:
                raise CompilationError(f"cannot lower statement {type(s).__name__}")

    def _lower_guarded(self, rule: Expr, body: Block) -> None:
        """Compile ``rule : { body }``.

        ``await(X)`` conjuncts become WAIT instructions (false-when-unowned
        branches to the guard's exit); all other conjuncts compile to a
        single branching closure with unowned-reference-is-false semantics
        handled by the VM's OwnershipError catch."""
        conjuncts = _split_conjunction(rule)
        patch_sites: list[tuple[str, int]] = []
        for c in conjuncts:
            if isinstance(c, Await):
                sec_fn = _compile_section(c.ref)
                at = self._emit(_Wait(c.ref.var, sec_fn, on_false=-1))
                patch_sites.append(("wait", at))
            else:
                fn = _compile_expr_static(c)
                at = self._emit(_Branch(fn, target=-1))
                patch_sites.append(("branch", at))
        for st in body:
            self.lower_stmt(st)
        end = len(self.code)
        for kind, at in patch_sites:
            if kind == "wait":
                self.code[at].on_false = end
            else:
                self.code[at].target = end

    def _lower_assign(self, s: Assign) -> None:
        rhs = _compile_expr_static(s.expr)
        target = s.target
        if isinstance(target, VarRef):
            name = target.name
            def run_scalar(env, name=name, rhs=rhs):
                env.scalars[name] = rhs(env)
                env.flops += ELEM_FLOPS
            self._emit(_Exec(run_scalar))
            return
        assert isinstance(target, ArrayRef)
        decl = self.decl(target.var)
        sec_fn = _compile_section(target)
        name = target.var
        if decl.universal:
            offs = tuple(lo for lo, _ in decl.bounds)
            def run_uni(env, name=name, sec_fn=sec_fn, rhs=rhs, offs=offs):
                sec = sec_fn(env)
                env.flops += ELEM_FLOPS * sec.size
                value = rhs(env)
                idx = np.ix_(*(
                    np.arange(t.lo, t.hi + 1, t.step) - off
                    for t, off in zip(sec.dims, offs)
                ))
                arr = env.universal[name]
                if np.isscalar(value) or getattr(value, "shape", None) == ():
                    arr[idx] = value
                else:
                    arr[idx] = np.asarray(value).reshape(sec.shape)
            self._emit(_Exec(run_uni))
            return
        def run_excl(env, name=name, sec_fn=sec_fn, rhs=rhs):
            sec = sec_fn(env)
            env.flops += ELEM_FLOPS * sec.size
            value = rhs(env)
            scalar = np.isscalar(value) or getattr(value, "shape", None) == ()
            env.ctx.symtab.write(name, sec, value if scalar else np.asarray(value))
        self._emit(_Exec(run_excl))

    def _lower_collective(self, s: CollectiveStmt) -> None:
        """Compile a collective to a :class:`_CollI` instruction.

        ``collectives="native"`` picks the per-backend schedule family —
        staged (tree/ring/round) on the message backend, flat bulk
        prefetch/poststore on shared-address.  ``collectives="p2p"`` forces
        the flat family everywhere: the same transfers, in the same order,
        as the legacy guarded point-to-point expansion
        (:func:`repro.core.collectives.desugar.desugar_collective`), so the
        two lowerings are bit-identical by construction."""
        refs = [s.src, s.dst] + ([s.scratch] if s.scratch is not None else [])
        for ref in refs:
            if self.decl(ref.var).universal:
                raise CompilationError(
                    f"collective operand {ref.var!r} must be an exclusive "
                    "array (universal arrays have no owner to transfer "
                    "between)"
                )
        lo, hi, step = s.group
        if self.compiled.collectives == "native":
            # proc is message passing executed for real; it shares the
            # msg family so its oracle pass records the same schedule.
            style = "staged" if self.compiled.engine.backend in ("msg", "proc") else "flat"
        else:
            style = "flat"
        self._emit(_CollI(
            stmt=s,
            lo=_compile_expr_static(lo),
            hi=_compile_expr_static(hi),
            step=None if step is None else _compile_expr_static(step),
            root=None if s.root is None else _compile_expr_static(s.root),
            sec_fns={
                id(ref): (ref.var, _compile_section(ref)) for ref in refs
            },
            style=style,
        ))

    def _lower_call(self, s: CallStmt) -> None:
        kernel = self.compiled.kernels.get(s.name)
        arg_plans: list[tuple[str, Any]] = []
        for a in s.args:
            if isinstance(a, ArrayRef) and not a.is_element():
                decl = self.decl(a.var)
                arg_plans.append(
                    ("usec" if decl.universal else "xsec",
                     (a.var, _compile_section(a), decl))
                )
            else:
                arg_plans.append(("val", _compile_expr_static(a)))

        def run(env, kernel=kernel, arg_plans=arg_plans):
            args = []
            writebacks = []
            for kind, plan in arg_plans:
                if kind == "val":
                    args.append(plan(env))
                elif kind == "xsec":
                    var, sec_fn, _decl = plan
                    sec = sec_fn(env)
                    buf = env.ctx.symtab.read(var, sec)
                    args.append(buf)
                    writebacks.append(("x", var, sec, buf))
                else:
                    var, sec_fn, decl = plan
                    sec = sec_fn(env)
                    offs = tuple(lo for lo, _ in decl.bounds)
                    idx = np.ix_(*(
                        np.arange(t.lo, t.hi + 1, t.step) - off
                        for t, off in zip(sec.dims, offs)
                    ))
                    buf = np.ascontiguousarray(env.universal[var][idx])
                    args.append(buf)
                    writebacks.append(("u", var, idx, buf))
            flops = kernel.fn(*args)
            for wb in writebacks:
                if wb[0] == "x":
                    _, var, sec, buf = wb
                    env.ctx.symtab.write(var, sec, buf)
                else:
                    _, var, idx, buf = wb
                    env.universal[var][idx] = buf
            return int(flops)

        self._emit(_CallI(run))


def _split_conjunction(e: Expr) -> list[Expr]:
    """Top-level ``and`` conjuncts, left to right."""
    match e:
        case BinOp("and", lhs, rhs):
            return _split_conjunction(lhs) + _split_conjunction(rhs)
        case _:
            return [e]


def _as_int(fn: Callable[[_VMEnv], Any]) -> Callable[[_VMEnv], int]:
    return lambda env: int(fn(env))


def _as_int_nonzero(fn: Callable[[_VMEnv], Any]) -> Callable[[_VMEnv], int]:
    def run(env):
        v = int(fn(env))
        if v == 0:
            raise XDPError("do-loop step of 0")
        return v
    return run
