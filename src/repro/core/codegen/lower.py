"""Lowering IL+XDP to a flat SPMD instruction stream, and the VM that runs it.

Paper section 3.2: "After the optimization phase is complete, the IL+XDP
program is translated to executable code by the compiler's back end.  The
translation needs to map XDP constructs to operations provided by the
target computer's hardware and operating system."  Here the "hardware"
is the simulated machine of :mod:`repro.machine`, and the back end emits a
flat list of instructions (branches, loop control, communication ops) with
every expression compiled to a Python closure — threaded code rather than
tree walking.  This is the one executor of IL+XDP; ``Interpreter`` is its
public alias.  The semantics follow Figure 1 of the paper:

* every processor executes every statement it reaches (SPMD); compute
  rules decide *where* a guarded statement takes effect;
* a compute rule that references an unowned section (outside the first
  argument of an intrinsic) is **false** as a whole rather than an error
  (section 2.4), so rules can run anywhere;
* ``await(X)`` is false immediately when X is unowned, otherwise blocks
  until X is accessible.  It is a guard, not a value: it may appear in a
  compute rule, an ``if`` condition or an expression statement, combined
  by ``and``/``or``/``not``, which compile to branch code;
* owner sends (``=>``, ``-=>``) block until the section is accessible;
  value receives (``E <- X``) block until E is accessible, then initiate;
* XDP performs **no automatic state checks**: reading a transitional
  section yields whatever has been delivered so far (section 2.1).

Processor ids: the paper numbers processors 1-based (``P1..Pn``), so the
``mypid`` intrinsic and the pid sets of ``E -> S`` use **1-based** values
in IL+XDP programs; the engine's internal pids are 0-based.

Virtual time charges the per-construct flop constants below, so the
benefit of optimizations like compute-rule elimination is measurable.

A section closure that repeats (in a do loop, or as a collective operand)
resolves once per :func:`~repro.core.ir.visitor.env_key`, for all
processors, and a hit charges the flops the evaluation did; the memos are
emptied when ``run()`` ends (docs/ENGINE.md "Section closures").

Delayed communication binding appears as the ``binding`` parameter:

* ``"nonblocking"`` (default) — receives initiate and complete
  asynchronously; ``await`` is the only synchronisation.  This is the
  binding the paper's overlap optimizations assume.
* ``"blocking"`` — every receive initiation immediately waits for its
  completion, modelling a target library with only blocking primitives
  (the paper warns the optimizer must then beware of deadlock; the engine
  detects any it causes).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from types import SimpleNamespace
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
from ..errors import (
    CompilationError, EmptySectionError, OwnershipError, XDPError,
)
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
from ..ir.printer import print_expr, print_ref
from ..ir.visitor import (
    UNKEYED, env_key, subscript_exprs, walk_exprs, walk_stmts,
)
from ..kernels import KernelRegistry, default_registry
from ..sections import Section, Triplet

__all__ = [
    "CALL_BASE_FLOPS", "CompiledProgram", "ELEM_FLOPS", "INTRINSIC_FLOPS",
    "ITER_FLOPS", "Interpreter", "lower", "run_program",
]

#: Cost constants (virtual flops).  One memory access = one flop; an
#: intrinsic is a run-time symbol-table lookup (several comparisons per
#: segment descriptor — flat-rated); a loop iteration pays increment+test.
#: ``and``/``or`` and branch-code ``not`` are control flow and cost nothing.
ELEM_FLOPS = 1
INTRINSIC_FLOPS = 5
ITER_FLOPS = 1
CALL_BASE_FLOPS = 10

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
    """Jump to ``target`` when the rule closure evaluates false, and to
    ``unowned`` when it reads an unowned section (the false exit of the
    whole rule, section 2.4).  Only a rule that ``observes`` table state
    flushes the pending flops first, so that it reads the table at the
    right virtual time; a rule over scalars, ``mypid`` and constants
    takes no scheduler step."""

    rule: Callable[[_VMEnv], bool]
    target: int
    unowned: int
    observes: bool


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
    """await(X): jump to ``false_target`` when X is unowned, otherwise wait
    until X is accessible and jump to ``true_target``."""

    var: str
    sec: Callable[[_VMEnv], Section]
    false_target: int
    true_target: int


@dataclass
class _CallI:
    fn: Callable[[_VMEnv], int]  # returns flops


@dataclass
class _PencilI:
    """After the ``_LoopInit`` of ``do v: call K(A[.., v, ..])``: run the
    loop as one call of ``fn`` over its footprint and jump to
    ``exit_target``, or fall through to the per-pencil code."""

    var: str
    limit_slot: str
    array: str
    sec: Callable[[_VMEnv], Section]  # the call's section at v's value
    dim: int                          # the dimension v subscripts
    fn: Callable[..., int]
    exit_target: int


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
    #: The engine's cost model on the message backend, None on shmem
    #: (see :func:`~repro.core.collectives.schedule.collective_ops`).
    model: MachineModel | None


_Instr = (_Exec | _Branch | _Jump | _LoopInit | _LoopTest | _LoopInc | _SendI
          | _RecvI | _Wait | _CallI | _PencilI | _CollI)


class CompiledProgram:
    """A lowered IL+XDP program, executable on the simulated machine.

    Parameters
    ----------
    program:
        The IL+XDP program (see :func:`repro.core.ir.parser.parse_program`).
    nprocs:
        Processor count; a linear grid unless ``grid`` is given.
    grid:
        Explicit processor grid for multi-dimensional distributions.
    model:
        Machine cost model (default: the message-passing preset).
    kernels:
        Kernel registry for ``call`` statements.
    binding:
        Communication binding, ``"nonblocking"`` or ``"blocking"``.
    strict:
        Propagated to engine/symtabs: turn "unpredictable" situations
        (transitional reads, unmatched traffic) into errors.
    collectives:
        Ignored; ``"native"`` and ``"p2p"`` are accepted.  A collective's
        schedule follows from its group, its payload and the transport.
    """

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
        if backend == "proc":
            # The retired real-process backend runs as msg only because the
            # frozen ledger (``benchmarks/e2e/worker.py::alt_runs``) still
            # lowers fft3d-cyclic with ``backend="proc"``; ROADMAP item 4's
            # harness change drops that row and this alias with it.
            backend = "msg"
        if binding not in ("nonblocking", "blocking"):
            raise CompilationError(f"unknown communication binding {binding!r}")
        # The frozen benchmarks/e2e/workloads.py::matmul_coll still passes
        # collectives=; ROADMAP item 4(c) drops it.
        if collectives not in ("native", "p2p"):
            raise CompilationError(
                f"unknown collective lowering {collectives!r} "
                "(expected 'native' or 'p2p')"
            )
        self.program = program
        self.nprocs = nprocs
        self.grid = grid if grid is not None else ProcessorGrid((nprocs,))
        if self.grid.size != nprocs:
            raise CompilationError(
                f"grid {self.grid.shape} does not have {nprocs} processors"
            )
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
        self._memos: list[dict] = []  # the section closures' (one run each)
        lowerer = _Lowerer(self)
        self.code: list[_Instr] = lowerer.lower_body()
        self.scalar_inits = lowerer.scalar_inits

    # -- global data access (test / example convenience) ----------------- #

    def write_global(self, name: str, values: np.ndarray) -> None:
        """Scatter a global array to its owners (or all copies if universal)."""
        decl = self.program.decl(name)
        assert isinstance(decl, ArrayDecl)
        values = np.asarray(values, dtype=np.dtype(decl.dtype))
        if values.shape != decl.shape:
            raise ValueError(f"{name} expects shape {decl.shape}, got {values.shape}")
        if decl.universal:
            self._universal_init[name] = values.copy()
            return
        self.engine.write_global(name, values)

    def read_global(self, name: str) -> np.ndarray:
        """Assemble the global array from current owners.

        Raises if ownership is not a total cover (e.g. mid-redistribution).
        """
        decl = next((d for d in self.program.decls if d.name == name), None)
        if isinstance(decl, ArrayDecl) and decl.universal:
            raise ValueError(f"{name} is universal; copies differ per processor")
        return self.engine.read_global(name)

    def ownership_map(self, name: str) -> dict[int, int]:
        """pid → number of elements of ``name`` currently owned."""
        return {
            st.pid: st.owned_elements(name)
            for st in self.engine.symtabs
            if name in st
        }

    # -- execution ------------------------------------------------------- #

    def run(self) -> RunStats:
        code = self.code
        program = self.program
        universal_init = self._universal_init

        def node(ctx: ProcessorContext) -> Generator[Effect, Any, None]:
            env = _VMEnv(ctx, self.nprocs)
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
                    if ins.observes and env.flops:
                        yield Compute(float(env.flops), flops=env.flops)
                        env.flops = 0
                    try:
                        pc = pc + 1 if ins.rule(env) else ins.target
                    except OwnershipError:
                        env.flops += INTRINSIC_FLOPS
                        pc = ins.unowned
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
                        pc = ins.false_target
                        continue
                    if env.flops:
                        yield Compute(float(env.flops), flops=env.flops)
                        env.flops = 0
                    yield WaitAccessible(ins.var, sec)
                    pc = ins.true_target
                elif tp is _CallI:
                    env.flops += CALL_BASE_FLOPS + ins.fn(env)
                    if env.flops:
                        yield Compute(float(env.flops), flops=env.flops)
                        env.flops = 0
                    pc += 1
                elif tp is _PencilI:
                    flops = _run_pencils(ins, env)
                    if flops is None:
                        pc += 1
                    else:
                        flops += env.flops
                        yield Compute(float(flops), flops=flops)
                        env.flops = 0
                        pc = ins.exit_target
                elif tp is _CollI:
                    yield from _run_collective(ins, env)
                    pc += 1
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown instruction {ins!r}")
            if env.flops:
                yield Compute(float(env.flops), flops=env.flops)
                env.flops = 0

        try:
            return self.engine.run(node)
        finally:
            for memo in self._memos:
                memo.clear()


#: The public name of the executor (the paper's "IL+XDP interpreter").
Interpreter = CompiledProgram


def lower(program: Program, nprocs: int, **kw: Any) -> CompiledProgram:
    """Convenience: lower a program for a machine of ``nprocs`` processors."""
    return CompiledProgram(program, nprocs, **kw)


def run_program(
    text_or_program: str | Program, nprocs: int, **kw: Any
) -> tuple[CompiledProgram, RunStats]:
    """Parse (if needed), lower and run a program; returns (program, stats)."""
    from ..ir.parser import parse_program

    program = (
        parse_program(text_or_program)
        if isinstance(text_or_program, str)
        else text_or_program
    )
    compiled = CompiledProgram(program, nprocs, **kw)
    return compiled, compiled.run()


def _run_pencils(ins: _PencilI, env: _VMEnv) -> int | None:
    """Run a pencil loop as one kernel call over its footprint and return
    the flops its iterations would have charged; ``None``, with nothing
    run, unless it has two or more trips, a pencil has one non-unit extent
    and the footprint is accessible — so no receive completes into it
    while the per-pencil code would run (docs/ENGINE.md "Pencil loops")."""
    scalars = env.scalars
    lo = scalars[ins.var]
    hi, step = scalars[ins.limit_slot]
    trip = (hi - lo) // step + 1
    if trip < 2:
        return None
    before = env.flops
    pencil = ins.sec(env)
    sub_flops = env.flops - before
    env.flops = before
    axes = [d for d, extent in enumerate(pencil.shape) if extent > 1]
    if len(axes) != 1:
        return None
    dims = list(pencil.dims)
    dims[ins.dim] = Triplet(lo, lo + (trip - 1) * step, step)
    footprint = Section(tuple(dims))
    symtab = env.ctx.symtab
    if not symtab.accessible(ins.array, footprint):
        return None
    buf = symtab.read(ins.array, footprint)
    kernel_flops = int(ins.fn(buf, axis=axes[0]))
    symtab.write(ins.array, footprint, buf)
    scalars[ins.var] = lo + trip * step
    return trip * (ITER_FLOPS + sub_flops + CALL_BASE_FLOPS) + kernel_flops


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
    yield from execute_ops(collective_ops(inst, env.pid1, ins.model), env)


# ---------------------------------------------------------------------- #
# expression compilation
# ---------------------------------------------------------------------- #


def _compile_expr_static(e: Expr, lw: "_Lowerer") -> Callable[[_VMEnv], Any]:
    """Compile an expression that contains no ``await`` to a closure;
    ``lw`` is the lowerer whose declarations the references name."""
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
            inner = _compile_expr_static(operand, lw)
            if op == "not":
                return lambda env: (env.__setattr__("flops", env.flops + 1), not inner(env))[1]
            return lambda env: (env.__setattr__("flops", env.flops + 1), -inner(env))[1]
        case BinOp(op, lhs, rhs):
            return _compile_binop(op, lhs, rhs, lw)
        case ArrayRef():
            return _compile_array_read(e, lw)
        case Iown(ref) | Accessible(ref):
            # The symbol-table query of the same name, looked up per call.
            sec_fn, query = _compile_section(ref, lw), type(e).__name__.lower()
            var = ref.var
            def query_fn(env):
                env.flops += INTRINSIC_FLOPS
                return getattr(env.ctx.symtab, query)(var, sec_fn(env))
            return query_fn
        case Mylb(ref, dim) | Myub(ref, dim):
            sec_fn, query = _compile_section(ref, lw), type(e).__name__.lower()
            var, dim_fn = ref.var, _compile_expr_static(dim, lw)
            def bound_fn(env):
                env.flops += INTRINSIC_FLOPS
                return getattr(env.ctx.symtab, query)(var, int(dim_fn(env)), sec_fn(env))
            return bound_fn
        case Await(_):
            raise CompilationError(
                "await() is a guard, not a value: it may appear only in a "
                "compute rule, an if condition or an expression statement, "
                "combined by and/or/not"
            )
        case _:
            raise CompilationError(f"cannot lower expression {e!r}")


def _div(l: Any, r: Any) -> Any:
    """IL ``/``: ints floor (``int / 0`` is 0), anything else divides."""
    if isinstance(l, (int, np.integer)) and isinstance(r, (int, np.integer)):
        return int(l) // int(r) if r != 0 else 0
    return l / r


_BINOPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div,
    "%": operator.mod, "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _compile_binop(op: str, lhs: Expr, rhs: Expr, lw: "_Lowerer") -> Callable[[_VMEnv], Any]:
    l_fn = _compile_expr_static(lhs, lw)
    r_fn = _compile_expr_static(rhs, lw)
    if op == "and":
        return lambda env: bool(l_fn(env)) and bool(r_fn(env))
    if op == "or":
        return lambda env: bool(l_fn(env)) or bool(r_fn(env))
    if op in ("min", "max"):
        py = min if op == "min" else max
        npf = np.minimum if op == "min" else np.maximum
        def mm(env):
            l, r = l_fn(env), r_fn(env)
            nd = isinstance(l, np.ndarray) or isinstance(r, np.ndarray)
            size = _pair_size(l, r) if nd else 1
            env.flops += size
            if size != 1:
                return npf(l, r)
            v = py(l, r)
            # Python's min/max return the winner with its own type; promote
            # an int winner over a float as numpy (the section form) does,
            # so that a following "/" divides as a float.
            if isinstance(v, (int, np.integer)) and (
                    isinstance(l, float) or isinstance(r, float)):
                return float(v)
            return v
        return mm
    fn = _BINOPS[op]
    def bin_run(env):
        l, r = l_fn(env), r_fn(env)
        nd = isinstance(l, np.ndarray) or isinstance(r, np.ndarray)
        env.flops += _pair_size(l, r) if nd else 1
        try:
            return fn(l, r)
        except ZeroDivisionError:  # a scalar `/` of floats or `%`
            raise XDPError(f"P{env.pid1}: division by zero in "
                           f"{print_expr(BinOp(op, lhs, rhs))}") from None
    return bin_run


def _pair_size(l: Any, r: Any) -> int:
    size = 1
    for v in (l, r):
        if isinstance(v, np.ndarray):
            size = max(size, v.size)
    return size


def _compile_subscript(sub, bounds: tuple[int, int], ref: ArrayRef,
                       lw: "_Lowerer"):
    lo_b, hi_b = bounds
    match sub:
        case Full():
            t = Triplet(lo_b, hi_b, 1)
            return lambda env: t
        case Index(expr):
            fn = _compile_expr_static(expr, lw)
            return lambda env: Triplet(v := int(fn(env)), v, 1)
        case Range(lo, hi, step):
            lo_fn, hi_fn, st_fn = (
                (lambda env, v=v: v) if e is None else _compile_expr_static(e, lw)
                for e, v in ((lo, lo_b), (hi, hi_b), (step, 1)))
            def run(env):
                lo, hi, st = int(lo_fn(env)), int(hi_fn(env)), int(st_fn(env))
                try:
                    return Triplet(lo, hi, st)
                except ValueError:
                    raise EmptySectionError(
                        f"P{env.pid1}: {print_ref(ref)} names no element "
                        f"(triplet {lo}:{hi}:{st})") from None
            return run
    raise CompilationError(f"cannot lower subscript {sub!r}")


def _compile_section(ref: ArrayRef, lw: "_Lowerer",
                     binders: bool = False) -> Callable[[_VMEnv], Section]:
    """``ref``'s section closure, memoized where it repeats: in a do loop or
    per binder value of a collective (docs/ENGINE.md "Section closures")."""
    decl = lw.decl(ref.var)
    if len(ref.subs) != decl.rank:
        raise CompilationError(
            f"{ref.var} has rank {decl.rank}, reference has {len(ref.subs)} subscripts"
        )
    sub_fns = [
        _compile_subscript(s, b, ref, lw) for s, b in zip(ref.subs, decl.bounds)
    ]

    def fresh(env):
        return Section(tuple([fn(env) for fn in sub_fns]))
    deps = (lw._loops or binders) and env_key(ref)
    if not deps:  # once per processor, or a subscript reads table state
        return fresh
    names, mypid, key = deps
    if not (names or mypid):  # fold now; an error raises again at run time
        stub = SimpleNamespace(scalars={}, flops=0, nprocs=lw.compiled.nprocs)
        try:
            sec, flops = fresh(stub), stub.flops
        except Exception:
            return fresh

        def folded(env):
            env.flops += flops
            return sec
        return folded
    if mypid and not any(w.isdisjoint(names) for w in lw._loops):
        return fresh  # once per processor per loop trip: it would only miss
    memo: dict = {}
    lw.compiled._memos.append(memo)

    def memoized(env):
        k = key(env)
        hit = memo.get(k)
        if hit is None:
            before = env.flops
            sec = fresh(env)  # an error is never stored
            if k is not UNKEYED:
                memo[k] = (sec, env.flops - before)
            return sec
        env.flops += hit[1]
        return hit[0]
    return memoized


def _compile_array_read(ref: ArrayRef, lw: "_Lowerer") -> Callable[[_VMEnv], Any]:
    decl = lw.decl(ref.var)
    sec_fn = _compile_section(ref, lw)
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

class _Lowerer:
    def __init__(self, compiled: CompiledProgram):
        self.compiled = compiled
        self.program = compiled.program
        self.code: list[_Instr] = []
        #: Every scalar in declaration order (uninitialized ones are 0), so
        #: an initializer sees only the scalars declared before it.
        self.scalar_inits: list[tuple[str, Callable[[_VMEnv], Any]]] = []
        self._loop_counter = 0
        #: The scalars each enclosing do loop writes, innermost last.
        self._loops: list[frozenset[str]] = []
        # name -> its first declaration, array or scalar.
        self._decls = {d.name: d for d in reversed(self.program.decls)}

    def decl(self, name: str) -> ArrayDecl:
        d = self._decls.get(name)
        if not isinstance(d, ArrayDecl):
            raise CompilationError(f"{name!r} is not a declared array")
        return d

    def lower_body(self) -> list[_Instr]:
        for d in self.program.scalar_decls():
            init = IntConst(0) if d.init is None else d.init
            self.scalar_inits.append((d.name, _compile_expr_static(init, self)))
        for s in self.program.body:
            self.lower_stmt(s)
        return self.code

    # -- helpers -------------------------------------------------------- #

    def _emit(self, ins: _Instr) -> int:
        self.code.append(ins)
        return len(self.code) - 1

    def _place(self, label: list[tuple[int, str]]) -> None:
        """Point every jump recorded in ``label`` at the next instruction."""
        for at, field_name in label:
            setattr(self.code[at], field_name, len(self.code))

    def _lower_test(self, e: Expr, jump_if: bool, label: list, unowned: list) -> None:
        """Emit code that jumps to ``label`` when ``e`` is ``jump_if`` and
        falls through otherwise; a read of an unowned section jumps to
        ``unowned``.

        An expression without ``await`` is one branching closure.  Over an
        ``await``, ``and``/``or`` short-circuit left to right and ``not``
        swaps the targets."""
        match e:
            case Await(ref):
                at = self._emit(_Wait(ref.var, _compile_section(ref, self),
                                      len(self.code) + 1, len(self.code) + 1))
                label.append((at, "true_target" if jump_if else "false_target"))
            case _ if not _has_await(e):
                fn = _compile_expr_static(e, self)
                if jump_if:
                    fn = lambda env, fn=fn: not fn(env)
                # An array element or a table intrinsic (iown, accessible,
                # mylb, myub), each of which names an ArrayRef.
                observes = any(isinstance(x, ArrayRef) for x in walk_exprs(e))
                at = self._emit(_Branch(fn, -1, -1, observes))
                label.append((at, "target"))
                unowned.append((at, "unowned"))
            case UnaryOp("not", operand):
                self._lower_test(operand, not jump_if, label, unowned)
            case BinOp("and" | "or" as op, lhs, rhs):
                if (op == "and") != jump_if:
                    # both sides exit to the same place
                    self._lower_test(lhs, jump_if, label, unowned)
                    self._lower_test(rhs, jump_if, label, unowned)
                else:
                    decided: list[tuple[int, str]] = []
                    self._lower_test(lhs, not jump_if, decided, unowned)
                    self._lower_test(rhs, jump_if, label, unowned)
                    self._place(decided)
            case _:
                _compile_expr_static(e, self)  # raises on the nested await

    def lower_stmt(self, s: Stmt) -> None:
        match s:
            case Guarded(rule, body):
                self._lower_guarded(rule, body)
            case Assign():
                self._lower_assign(s)
            case SendStmt(ref, op, dests):
                sec_fn = _compile_section(ref, self)
                if self.decl(ref.var).universal:
                    sec_fn = _universal_transfer(sec_fn, lambda sec, v=ref.var: (
                        f"transfer of universal section {v}{sec}: copy it to "
                        "an exclusive section first (paper section 2.6)"))
                if dests is None:
                    dests_fn = lambda env: None
                else:
                    d_fns = [_compile_expr_static(d, self) for d in dests]
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
                into_fn = _compile_section(into, self)
                if self.decl(into.var).universal:
                    into_fn = _universal_transfer(into_fn, lambda sec, v=into.var: (
                        f"receive into universal section {v}: XDP restricts "
                        "receive left-hand sides to exclusive sections "
                        "(section 2.7)"))
                if op is XferOp.RECV_VALUE:
                    assert source is not None
                    self._emit(_RecvI(
                        TransferKind.VALUE, source.var,
                        _compile_section(source, self), into.var, into_fn,
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
                    _as_int(_compile_expr_static(lo, self)),
                    _as_int(_compile_expr_static(hi, self)),
                    _as_int_nonzero(_compile_expr_static(step, self)),
                    slot,
                ))
                self._loops.append(frozenset([var, *(  # the scalars it writes
                    x.var if type(x) is DoLoop else x.target.name
                    for x in walk_stmts(body) if type(x) is DoLoop
                    or type(x) is Assign and type(x.target) is VarRef)]))
                pencils = self._pencil_loop(var, slot, body)
                if pencils is not None:
                    self._emit(pencils)
                test_at = self._emit(_LoopTest(var, slot, exit_target=-1))
                for st in body:
                    self.lower_stmt(st)
                self._emit(_LoopInc(var, slot, back_target=test_at))
                self._loops.pop()
                self.code[test_at].exit_target = len(self.code)
                if pencils is not None:
                    pencils.exit_target = len(self.code)
            case IfStmt(cond, then, orelse):
                otherwise: list[tuple[int, str]] = []
                self._lower_test(cond, False, otherwise, otherwise)
                for st in then:
                    self.lower_stmt(st)
                if len(orelse):
                    jmp_at = self._emit(_Jump(target=-1))
                    self._place(otherwise)
                    for st in orelse:
                        self.lower_stmt(st)
                    self.code[jmp_at].target = len(self.code)
                else:
                    self._place(otherwise)
            case CallStmt():
                self._lower_call(s)
            case ExprStmt(expr) if _has_await(expr):
                done: list[tuple[int, str]] = []
                self._lower_test(expr, False, done, done)
                self._place(done)
            case ExprStmt(expr):
                fn = _compile_expr_static(expr, self)
                self._emit(_Exec(lambda env, fn=fn: (fn(env), None)[1]))
            case CollectiveStmt():
                self._lower_collective(s)
            case _:
                raise CompilationError(f"cannot lower statement {type(s).__name__}")

    def _pencil_loop(self, var: str, slot: str, body: Block) -> _PencilI | None:
        """The one-call form of a pencil loop, or ``None``: the body is one
        ``call`` of a kernel that batches along an axis, on one exclusive
        section subscripted by ``var`` alone in exactly one dimension, whose
        other subscripts read neither ``var`` nor table state."""
        call = body.stmts[0] if len(body) == 1 else None
        if (not isinstance(call, CallStmt) or len(call.args) != 1
                or call.name not in self.compiled.kernels):
            return None
        ref, fn = call.args[0], self.compiled.kernels.get(call.name).fn
        decl = self._decls.get(getattr(ref, "var", None))
        if (not isinstance(ref, ArrayRef) or ref.is_element()
                or not getattr(fn, "batches_along_axis", False)
                or not isinstance(decl, ArrayDecl) or decl.universal
                or len(ref.subs) != decl.rank):
            return None
        dims = [d for d, sub in enumerate(ref.subs) if sub == Index(VarRef(var))]
        others = [x for d, sub in enumerate(ref.subs) if d not in dims
                  for x in subscript_exprs(sub)]
        if len(dims) != 1 or any(isinstance(x, ArrayRef) or x == VarRef(var)
                                 for x in others):
            return None
        return _PencilI(var, slot, ref.var, _compile_section(ref, self),
                        dims[0], fn, exit_target=-1)

    def _lower_guarded(self, rule: Expr, body: Block) -> None:
        """Compile ``rule : { body }``: one test per top-level conjunct,
        every false exit (and every unowned read) skipping the body."""
        skip: list[tuple[int, str]] = []
        for c in _split_conjunction(rule):
            self._lower_test(c, False, skip, skip)
        for st in body:
            self.lower_stmt(st)
        self._place(skip)

    def _lower_assign(self, s: Assign) -> None:
        rhs = _compile_expr_static(s.expr, self)
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
        sec_fn = _compile_section(target, self)
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

        At run time :func:`~repro.core.collectives.schedule.collective_ops`
        picks the schedule from the resolved group, its payload and the
        transport: the flat family — the same transfers, in the same order,
        as the point-to-point expansion of
        :func:`repro.core.collectives.desugar.desugar_collective` — or, for
        a broadcast on ``msg`` that ``tree_pays``, the binomial tree."""
        refs = [s.src, s.dst] + ([s.scratch] if s.scratch is not None else [])
        for ref in refs:
            if self.decl(ref.var).universal:
                raise CompilationError(
                    f"collective operand {ref.var!r} must be an exclusive "
                    "array (universal arrays have no owner to transfer "
                    "between)"
                )
        lo, hi, step = s.group
        self._emit(_CollI(
            stmt=s,
            lo=_compile_expr_static(lo, self),
            hi=_compile_expr_static(hi, self),
            step=None if step is None else _compile_expr_static(step, self),
            root=None if s.root is None else _compile_expr_static(s.root, self),
            sec_fns={
                id(ref): (ref.var, _compile_section(ref, self, binders=True))
                for ref in refs
            },
            model=(self.compiled.model
                   if self.compiled.engine.backend == "msg" else None),
        ))

    def _lower_call(self, s: CallStmt) -> None:
        try:
            kernel = self.compiled.kernels.get(s.name)
        except KeyError as exc:
            raise CompilationError(f"call of {exc.args[0]}") from None
        arg_plans: list[tuple[str, Any]] = []
        for a in s.args:
            if isinstance(a, ArrayRef) and not a.is_element():
                decl = self.decl(a.var)
                arg_plans.append(
                    ("usec" if decl.universal else "xsec",
                     (a.var, _compile_section(a, self), decl))
                )
            else:
                arg_plans.append(("val", _compile_expr_static(a, self)))

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


def _has_await(e: Expr) -> bool:
    return any(isinstance(sub, Await) for sub in walk_exprs(e))


def _universal_transfer(sec_fn, message: Callable[[Section], str]):
    """A section closure for a transfer that names a universal array:
    XDP transfers only exclusive sections, so running it is an error."""
    def run(env):
        raise OwnershipError(message(sec_fn(env)))
    return run


def _as_int(fn: Callable[[_VMEnv], Any]) -> Callable[[_VMEnv], int]:
    return lambda env: int(fn(env))


def _as_int_nonzero(fn: Callable[[_VMEnv], Any]) -> Callable[[_VMEnv], int]:
    def run(env):
        v = int(fn(env))
        if v == 0:
            raise XDPError("do-loop step of 0")
        return v
    return run
