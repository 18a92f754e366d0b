"""Static communication-safety verification of SPMD IL+XDP programs.

XDP's premise is that explicit data placement lets the *compiler* reason
about movement — yet a mismatched ``->``/``<-`` pair, a read of
TRANSITIONAL data or an ownership-transfer race is only caught at run time
by the engine.  :func:`verify_communication` closes that gap: it runs every
processor through an *abstract* machine — data values erased, virtual time
removed; each IL expression compiled once per call into a closure over a
processor's state, a generator only where an ``await`` can block — and
reports, with IL locations and severities:

* **tag / cardinality mismatches** — a receive whose destination section
  size differs from its message tag's, sends that no receive ever claims,
  receives no send ever satisfies, destinations outside the machine;
* **transitional / unowned uses** — reads (including value-send payload
  gathers and kernel-call arguments) of sections that are unowned, or that
  have a receive initiated with no ``await`` since (the engine only errors
  when the message happens not to have arrived yet; the verifier flags the
  timing dependence itself);
* **ownership races** — ``<=``/``<=-`` acquisition overlapping a locally
  owned segment, one release multicast to several acquirers, and any two
  processors left believing they own the same element;
* **guaranteed deadlocks** — a processor blocking on a section that can
  never become accessible (releasing or awaiting unowned data), and global
  quiescence with unmatched blocking waits.

Scalars are tracked concretely (loop bounds and pids in translated and
tuner-generated programs are compile-time evaluable per processor); array
values are a single ⊤.  Where the abstraction loses the program — a
data-dependent branch or rule, a symbolic loop bound, an unresolvable
subscript in a transfer — the verifier *waives* the affected message
tags: it skips the unanalyzable region, demotes end-of-run mismatch and
deadlock findings that involve waived variables to warnings, and reports
the waiver itself as a warning.  This is the conservatism contract the
differential fuzzing harness (``tests/fuzz``) checks: a program with **no
findings at all** must run clean on the strict engine, and every engine
failure must land on an error *or* a waiver warning.  See docs/VERIFIER.md.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from inspect import CO_GENERATOR

from ...distributions import ProcessorGrid
from ..errors import VerificationError
from ..ir.nodes import (
    Accessible, ArrayDecl, ArrayRef, Assign, Await, BinOp, Block, BoolConst,
    CallStmt, CollOp, CollectiveStmt, DoLoop, Expr, ExprStmt, FloatConst,
    Full, Guarded, IfStmt, Index, IntConst, Iown, MaxIntConst, MinIntConst,
    Mylb, Mypid, Myub, NumProcs, Program, RecvStmt, ScalarDecl,
    SendStmt, Stmt, UnaryOp, VarRef, XferOp,
)
from ..ir.printer import print_expr, print_stmt
from ..ir.visitor import UNKEYED, env_key, walk_exprs, walk_stmts
from ..sections import Section, Triplet, section_difference
from ..segtable import SegmentTable
from ..states import SegmentState
from .layouts import build_layouts

__all__ = [
    "Finding",
    "CommReport",
    "CommVerificationError",
    "verify_communication",
]

from ...runtime.symtab import MAXINT, MININT

#: Default abstract-step budget; one unit per executed statement.
MAX_EVENTS = 200_000


class _Unknown:
    """The abstract ⊤: a value the verifier cannot track."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<unknown>"

    def __bool__(self) -> bool:  # pragma: no cover - defensive
        raise TypeError("abstract unknown has no truth value")


_UNKNOWN = _Unknown()
_UNOWNED = SegmentState.UNOWNED
_TRANSITIONAL = SegmentState.TRANSITIONAL

#: Placeholder for "no previous scalar binding" during binder injection.
_ABSENT = object()

_KIND = {
    XferOp.SEND_VALUE: "value",
    XferOp.SEND_OWNER: "ownership",
    XferOp.SEND_OWNER_VALUE: "own_value",
    XferOp.RECV_VALUE: "value",
    XferOp.RECV_OWNER: "ownership",
    XferOp.RECV_OWNER_VALUE: "own_value",
}


@dataclass(frozen=True)
class Finding:
    """One verification finding.

    ``severity`` is ``"error"`` (the engine would fail, or two executions
    can disagree) or ``"warning"`` (conservative: the verifier lost
    precision, or the engine tolerates it).  ``loc`` is a structural IL
    path (the IR carries no line numbers); ``pid1`` the 1-based processor
    the finding was first observed on (``None`` for global findings);
    ``count`` how many occurrences dedup-folded into this finding.
    """

    severity: str
    code: str
    message: str
    loc: str
    pid1: int | None = None
    count: int = 1

    def format(self) -> str:
        n = f" (x{self.count})" if self.count > 1 else ""
        on = f" [P{self.pid1}]" if self.pid1 is not None else ""
        return f"{self.severity}[{self.code}]{on} {self.loc}: {self.message}{n}"


@dataclass
class CommReport:
    """The result of :func:`verify_communication`."""

    nprocs: int
    findings: list[Finding] = field(default_factory=list)
    events: int = 0
    complete: bool = True
    waived: tuple[str, ...] = ()

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        """No errors (warnings allowed)."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """No findings at all — the differential guarantee's precondition."""
        return not self.findings and self.complete

    def format(self) -> str:
        head = (
            f"communication verification (P={self.nprocs}): "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        if not self.complete:
            head += " [incomplete: step budget exhausted]"
        lines = [head]
        for f in self.errors + self.warnings:
            lines.append("  " + f.format())
        if self.waived:
            lines.append("  waived variables: " + ", ".join(sorted(self.waived)))
        if self.clean:
            lines.append("  clean: statically guaranteed to run without "
                         "communication errors on the strict engine")
        return "\n".join(lines)


class CommVerificationError(VerificationError):
    """Raised by pipeline wrappers when verification finds errors."""

    def __init__(self, report: CommReport):
        self.report = report
        super().__init__(report.format())


# ---------------------------------------------------------------------- #
# abstract machine state
# ---------------------------------------------------------------------- #


@dataclass(eq=False, slots=True)
class _PendRecv:
    """A posted receive: transitional marker until matched *and* awaited."""

    seq: int
    pid1: int
    kind: str                 # "value" | "ownership" | "own_value"
    var: str                  # tag variable
    sec: Section              # tag section
    into_var: str
    into_sec: Section
    loc: tuple
    matched: bool = False

    @property
    def tag(self) -> str:
        return f"{self.kind} {self.var}{self.sec}"


@dataclass(eq=False, slots=True)
class _Msg:
    """An in-flight abstract message."""

    kind: str
    var: str
    sec: Section
    src1: int
    dst1: int | None          # 1-based or None (unspecified recipient)
    loc: tuple
    claimed: bool = False


@dataclass(eq=False, slots=True)
class _ASeg:
    """One owned segment — a :class:`SegmentTable` descriptor: a section
    plus its outstanding receives.

    State is derived, mirroring the run-time table at segment granularity:
    ``pending`` non-empty ⇒ TRANSITIONAL (a receive was initiated and no
    ``await`` has covered this segment since), empty ⇒ ACCESSIBLE.
    """

    segment: Section
    pending: list[_PendRecv] = field(default_factory=list)


@dataclass(eq=False, slots=True)
class _Wait:
    """A blocking point: WaitAccessible(var, sec) from an await, an owner
    send, or a value receive's destination gate."""

    var: str
    sec: Section
    reason: str               # "await" | "release" | "recv-into"
    loc: tuple


@dataclass(eq=False, slots=True)
class _CollBarrier:
    """One dynamic instance of a collective site: the ``occ``-th execution
    of a given statement.  Members must all arrive with the same resolved
    signature (group, root, chunk sections) before any may proceed."""

    stmt: CollectiveStmt
    members: tuple[int, ...]
    signature: tuple
    first_pid1: int
    arrived: set[int] = field(default_factory=set)


@dataclass(eq=False, slots=True)
class _CollWait:
    """A processor parked inside a collective: released when every member
    has arrived and the processor's landing sections are fence-able."""

    barrier: _CollBarrier
    landings: tuple           # ((var, Section), ...) owned by me
    vars: tuple[str, ...]     # involved array names (for waiver demotion)
    loc: tuple


@dataclass(eq=False, slots=True)
class _AProc:
    pid1: int
    gen: object
    wait: _Wait | _CollWait | None = None
    done: bool = False
    doomed: bool = False
    scalars: dict = field(default_factory=dict)
    stack: list[Stmt] = field(default_factory=list)  # enclosing guards/branches/loops
    decided: dict[int, object] = field(default_factory=dict)  # id(cond) -> _decided()


class _RuleUnowned(Exception):
    """An unowned reference inside a compute rule: the rule is false."""


class _RuleUnknown(Exception):
    """A rule whose value the abstraction cannot decide."""


class _Budget(Exception):
    """Abstract step budget exhausted."""


def _element_refs(loop: DoLoop):
    """→ (every array reference in ``loop``'s body, the scalars other than
    the loop variable it reads), or None unless the body is only array
    assignments and kernel calls over scalars and constants whose
    subscripts are ``*``, loop-invariant, or ``v ± c`` / ``c ± v`` with
    ``c`` loop-invariant."""
    var = loop.var
    refs: list[ArrayRef] = []
    names: set[str] = set()

    def invariant(e: Expr) -> bool:
        for x in walk_exprs(e):
            if isinstance(x, VarRef) and x.name != var:
                names.add(x.name)
            elif not isinstance(x, _PID_ONLY):
                return False
        return True

    def subscript_ok(sub) -> bool:
        match sub:
            case Full():
                return True
            case Index(VarRef(name)) if name == var:
                return True
            case Index(BinOp("+" | "-", VarRef(name), c)) if name == var:
                return invariant(c)
            case Index(BinOp("+" | "-", c, VarRef(name))) if name == var:
                return invariant(c)
            case Index(e):
                return invariant(e)
        return False

    def expr_ok(e: Expr) -> bool:
        for x in walk_exprs(e):
            if isinstance(x, ArrayRef):
                if not all(map(subscript_ok, x.subs)):
                    return False
                refs.append(x)
            elif isinstance(x, VarRef):
                if x.name != var:
                    names.add(x.name)
            elif not isinstance(x, _PID_ONLY):
                return False
        return True

    for s in loop.body:
        match s:
            case Assign(ArrayRef() as target, expr):
                operands = (target, expr)
            case CallStmt(_, args):
                operands = args
            case _:
                return None
        if not all(map(expr_ok, operands)):
            return None
    return refs, names


def _head(node: Stmt | Expr, limit: int = 64) -> str:
    stmt = node if isinstance(node, Stmt) else ExprStmt(node)
    text = print_stmt(stmt, 0)[0].strip()
    return text if len(text) <= limit else text[: limit - 1] + "…"


def _blocks(fn) -> bool:
    """Whether a compiled closure can park its processor (a generator)."""
    return bool(fn.__code__.co_flags & CO_GENERATOR)


def _kleene(is_or: bool, l_fn, r_fn):
    """Kleene ``and`` / ``or`` (``is_or``): a known left side short-circuits
    as in the VM; after an unknown one the right side decides by absorption
    only, not by rule-falsifying exceptions (the engine may not evaluate it)."""
    l_waits, r_waits = _blocks(l_fn), _blocks(r_fn)
    if l_waits or r_waits:
        def kleene_waits(p):
            l = (yield from l_fn(p)) if l_waits else l_fn(p)
            if l is not _UNKNOWN:
                if bool(l) is is_or:
                    return is_or
                r = (yield from r_fn(p)) if r_waits else r_fn(p)
                return r if r is _UNKNOWN else bool(r)
            try:
                r = (yield from r_fn(p)) if r_waits else r_fn(p)
            except (_RuleUnowned, _RuleUnknown):
                return _UNKNOWN
            return is_or if r is not _UNKNOWN and bool(r) is is_or else _UNKNOWN
        return kleene_waits

    def kleene(p):
        l = l_fn(p)
        if l is not _UNKNOWN:
            if bool(l) is is_or:
                return is_or
            r = r_fn(p)
            return r if r is _UNKNOWN else bool(r)
        try:
            r = r_fn(p)
        except (_RuleUnowned, _RuleUnknown):
            return _UNKNOWN
        return is_or if r is not _UNKNOWN and bool(r) is is_or else _UNKNOWN
    return kleene


def _div(l, r):
    if isinstance(l, int) and isinstance(r, int):
        return l // r if r != 0 else 0
    return l / r if r != 0 else _UNKNOWN


#: Value operators on known operands (⊤ for a divisor of 0 but ``int / 0``:
#: the zero divisors the VM raises on).
_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div,
    "%": lambda l, r: l % r if r != 0 else _UNKNOWN,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "min": min, "max": max,
}
#: Expression nodes whose value is fixed per processor: no scalar (it may
#: change), no table state.
_PID_ONLY = (IntConst, FloatConst, BoolConst, MaxIntConst, MinIntConst,
             Mypid, NumProcs, UnaryOp, BinOp)


# ---------------------------------------------------------------------- #
# the verifier
# ---------------------------------------------------------------------- #


class _Machine:
    def __init__(
        self, program: Program, nprocs: int, grid, max_events: int,
        backend: str = "msg",
    ):
        self.program = program
        self.nprocs = nprocs
        self.grid = grid if grid is not None else ProcessorGrid((nprocs,))
        self.max_events = max_events
        # Obligation vocabulary of the section-5 binding target.  The
        # rendezvous relation verified is identical on both backends (that
        # is what makes programs result-transparent); only how an
        # undischarged obligation manifests differs: on msg it is an
        # unreceived message / unsatisfied receive, on shmem a store that
        # is never fenced / a fence no store reaches.
        self.shmem = backend == "shmem"
        self.events = 0
        self.complete = True
        self.seq = itertools.count(1)
        self.decls: dict[str, ArrayDecl | ScalarDecl] = {
            d.name: d for d in program.decls
        }
        # (pid1, var) -> owned segments in the engine's table type (empty
        # for a name nobody tabulates): ownership questions are record lookups.
        self.tables: dict[tuple[int, str], SegmentTable] = defaultdict(SegmentTable)
        layouts = build_layouts(program, self.grid)
        for d in program.array_decls():
            if d.universal:
                continue
            for pid1 in range(1, nprocs + 1):
                self.tables[(pid1, d.name)] = SegmentTable(segdescs=[
                    _ASeg(s) for s in layouts[d.name].segments(pid1 - 1)
                ])
        # key = (kind, var, Section)
        self.unclaimed: dict[tuple, list[_Msg]] = {}
        self.pending: dict[tuple, list[_PendRecv]] = {}
        self.tag_modes: dict[tuple, set[str]] = {}   # "directed" / "pooled"
        # Collective sites: (site, pid1) -> executions so far, and
        # (site, occurrence) -> the barrier those executions meet at.
        self.coll_counts: dict[tuple[int, int], int] = {}
        self.coll_barriers: dict[tuple[int, int], _CollBarrier] = {}
        self.procs: list[_AProc] = []
        self.waived: set[str] = set()
        self._findings: dict[tuple, Finding] = {}
        self._order: list[tuple] = []
        self._flags = 0                          # flag() calls so far
        # Per-run memos; all die with this instance.
        self._sections: dict[int, dict] = {}  # ArrayRef -> env key -> resolution
        self._interned: dict[Section, Section] = {}
        self._coll_maps: dict[tuple, tuple] = {}  # rendezvous -> chunk map
        # Compiled once per run: id(node) -> closures (see _compile_stmt).
        self._fns: dict[tuple[int, bool], object] = {}  # (id, rule mode)
        self._deciders: dict[int, object] = {}          # condition -> fn
        self._plans = {id(s): self._compile_stmt(s)
                       for s in walk_stmts(program.body)}
        self._inits = [(d.name, d.init and self._fn(d.init))
                       for d in program.scalar_decls()]

    # -------------------------------------------------------------- #
    # findings
    # -------------------------------------------------------------- #

    def flag(self, severity, code, message, loc, pid1=None) -> None:
        self._flags += 1
        loc = self.loc_text(loc)
        key = (severity, code, loc, message)
        f = self._findings.get(key)
        if f is None:
            self._findings[key] = Finding(severity, code, message, loc, pid1)
            self._order.append(key)
        else:
            self._findings[key] = Finding(
                f.severity, f.code, f.message, f.loc, f.pid1, f.count + 1
            )

    def loc(self, p: _AProc, node: Stmt | Expr | None = None) -> tuple:
        """A structural location (enclosing IL nodes, then ``node``);
        rendered only when a finding needs it (:meth:`loc_text`)."""
        return (*p.stack, node) if node is not None else tuple(p.stack)

    def loc_text(self, loc: tuple | str) -> str:
        if isinstance(loc, str):
            return loc
        return " > ".join(map(_head, loc)) or "<program>"

    def waive_block(self, block: Block) -> None:
        """Record every transfer variable under an unanalyzable region."""
        for s in walk_stmts(block):
            match s:
                case SendStmt(ref, _, _):
                    self.waived.add(ref.var)
                case RecvStmt():
                    self.waived.add(s.into.var)
                    self.waived.add(s.message_ref().var)
                case CollectiveStmt():
                    self.waived.add(s.src.var)
                    self.waived.add(s.dst.var)
                    if s.scratch is not None:
                        self.waived.add(s.scratch.var)

    def demoted(self, *vars: str) -> bool:
        return any(v in self.waived for v in vars)

    # -------------------------------------------------------------- #
    # abstract ownership table
    # -------------------------------------------------------------- #

    def overlapping(self, pid1: int, var: str, sec: Section) -> tuple:
        """The segments meeting ``sec``, from its resolution record."""
        return self.tables[(pid1, var)].resolve(sec)[0]

    def iown(self, pid1: int, var: str, sec: Section) -> bool:
        return self.tables[(pid1, var)].resolve(sec)[1]

    def state_of(self, pid1: int, var: str, sec: Section) -> SegmentState:
        """Composite Figure-1 state from one record; TRANSITIONAL is any
        overlapping segment with an un-awaited receive."""
        segs, covers, _ = self.tables[(pid1, var)].resolve(sec)
        if not covers:
            return _UNOWNED
        for seg in segs:
            if seg.pending:
                return _TRANSITIONAL
        return SegmentState.ACCESSIBLE

    def release(self, pid1: int, var: str, sec: Section) -> None:
        """Drop ``sec`` from the table, splitting partially covered
        segments (callers have established accessibility)."""
        table = self.tables[(pid1, var)]
        split = {id(seg) for seg in table.resolve(sec)[0]}
        keep: list[_ASeg] = []
        for seg in table.segdescs:
            if id(seg) not in split:
                keep.append(seg)
                continue
            for piece in section_difference(seg.segment, sec):
                ns = _ASeg(piece)
                ns.pending = [r for r in seg.pending
                              if r.into_sec.intersect(piece) is not None]
                keep.append(ns)
        table.segdescs = keep
        table.invalidate_index()

    # -------------------------------------------------------------- #
    # message matching (the engine's FIFO discipline, §2.7)
    # -------------------------------------------------------------- #

    def route(self, msg: _Msg) -> None:
        key = (msg.kind, msg.var, msg.sec)
        self.tag_modes.setdefault(key, set()).add(
            "pooled" if msg.dst1 is None else "directed"
        )
        recvs = self.pending.get(key, ())
        for r in recvs:
            if r.matched:
                continue
            if msg.dst1 is None or r.pid1 == msg.dst1:
                self.match(msg, r)
                return
        self.unclaimed.setdefault(key, []).append(msg)

    def post_recv(self, recv: _PendRecv) -> None:
        key = (recv.kind, recv.var, recv.sec)
        for msg in self.unclaimed.get(key, ()):
            if not msg.claimed and (msg.dst1 is None or msg.dst1 == recv.pid1):
                self.match(msg, recv)
                break
        self.pending.setdefault(key, []).append(recv)

    def match(self, msg: _Msg, recv: _PendRecv) -> None:
        msg.claimed = True
        recv.matched = True

    # -------------------------------------------------------------- #
    # waits
    # -------------------------------------------------------------- #

    def wait_status(self, p: _AProc, w) -> str:
        """"ready" | "blocked" | "never" for one WaitAccessible."""
        if isinstance(w, _CollWait):
            return self._coll_status(p, w)
        over, covers, _ = self.tables[(p.pid1, w.var)].resolve(w.sec)
        if not covers:
            return "never"
        if all(r.matched for seg in over for r in seg.pending):
            return "ready"
        return "blocked"

    def _coll_status(self, p: _AProc, w: _CollWait) -> str:
        bar = w.barrier
        missing = [m for m in bar.members if m not in bar.arrived]
        if any(self.procs[m - 1].done or self.procs[m - 1].doomed
               for m in missing):
            return "never"
        if missing:
            return "blocked"
        # Every member arrived: the landing fences still need any in-flight
        # point-to-point receive on the landing sections to be satisfied.
        for var, sec in w.landings:
            for seg in self.overlapping(p.pid1, var, sec):
                if any(not r.matched for r in seg.pending):
                    return "blocked"
        return "ready"

    def apply_wait(self, p: _AProc, w) -> None:
        """The section became accessible: apply every completion on the
        overlapping segments (the engine does this at message arrival; doing
        it only under an explicit wait is what makes un-awaited reads show
        up as transitional)."""
        if isinstance(w, _CollWait):
            # The collective completes synchronously: every landing is
            # fenced, discharging any point-to-point receive it overlaps.
            for var, sec in w.landings:
                self.apply_wait(p, _Wait(var, sec, "await", w.loc))
            return
        recvs: dict[int, _PendRecv] = {}
        for seg in self.overlapping(p.pid1, w.var, w.sec):
            for r in seg.pending:
                recvs[r.seq] = r
        for r in recvs.values():
            self.apply_recv(r)

    def apply_recv(self, r: _PendRecv) -> None:
        # release() keeps ``r`` only on pieces meeting its destination.
        for seg in self.overlapping(r.pid1, r.into_var, r.into_sec):
            if r in seg.pending:
                seg.pending.remove(r)
        if r.kind != "value":
            self.check_race(r.pid1, r.into_var, r.into_sec, r.loc)

    def check_race(self, pid1: int, var: str, sec: Section, loc: str) -> None:
        """An ownership transfer completed: nobody else may own it now."""
        for other in range(1, self.nprocs + 1):
            if other == pid1:
                continue
            # One-shot query: scanned, not memoized on the other's table.
            for seg in self.tables[(other, var)].geometry(sec)[0]:
                if self.settled(seg):
                    self.flag(
                        "error", "ownership-race",
                        f"P{pid1} completes ownership of {var}{sec} while "
                        f"P{other} still owns {seg.segment}", loc, pid1,
                    )
                    return

    def settled(self, seg: _ASeg) -> bool:
        """Owned for sure: accessible, or acquired with the release already
        performed by the sender (matched)."""
        return all(r.matched for r in seg.pending)

    # -------------------------------------------------------------- #
    # per-processor abstract interpretation
    # -------------------------------------------------------------- #

    def boot(self, p: _AProc):
        for name, init in self._inits:
            p.scalars[name] = 0 if init is None else init(p)
        yield from self._exec_block(self.program.body, p)

    def _tick(self) -> None:
        self.events += 1
        if self.events > self.max_events:
            raise _Budget()

    def _exec_block(self, block: Block, p: _AProc):
        """One event per statement; a generator its executor returns is stepped."""
        decided, plans = p.decided, self._plans
        for stmt in block:
            self._tick()
            if type(stmt) is Guarded and decided.get(id(stmt.rule)) is False:
                continue  # another processor's block: no walk
            run, plan = plans[id(stmt)]
            parked = run(stmt, plan, p)
            if parked is not None:
                yield from parked

    def _exec_branch(self, stmt: Guarded | IfStmt, plan: tuple, p: _AProc):
        """A compute rule or an ``if``: its value decided or evaluated; ⊤
        skips the body (both arms) and waives their transfers."""
        rule = type(stmt) is Guarded
        c = self._decided(stmt.rule if rule else stmt.cond, p)
        if c is None:
            c = yield from self._guard_value(*plan, p)
        if c is _UNKNOWN:
            if rule:
                self.flag("warning", "data-dependent-rule",
                          "compute rule depends on run-time data; body skipped "
                          "and its transfers waived", self.loc(p, stmt), p.pid1)
                self.waive_block(stmt.body)
            else:
                self.flag("warning", "data-dependent-branch",
                          "branch condition depends on run-time data; both "
                          "arms skipped and their transfers waived",
                          self.loc(p, stmt), p.pid1)
                self.waive_block(stmt.then)
                self.waive_block(stmt.orelse)
        elif c or not rule:
            p.stack.append(stmt)
            try:
                yield from self._exec_block(
                    stmt.body if rule else stmt.then if c else stmt.orelse, p)
            finally:
                p.stack.pop()

    def _exec_call(self, stmt: CallStmt, plan: list, p: _AProc) -> None:
        # Kernels read and write their section arguments through the
        # run-time table: same checks as a read.
        for fn in plan:
            fn(p)

    def _exec_loop(self, stmt: DoLoop, plan: tuple, p: _AProc):
        lo, hi, step = (fn(p) for fn in plan[:3])
        if _UNKNOWN in (lo, hi, step):
            self.flag(
                "warning", "symbolic-loop",
                "loop bounds depend on run-time data; body skipped and its "
                "transfers waived", self.loc(p, stmt), p.pid1,
            )
            self.waive_block(stmt.body)
            return
        # The VM truncates all three bounds.
        lo, hi, step = int(lo), int(hi), int(step)
        if step == 0:
            self.flag("error", "zero-step", "do-loop step of 0",
                      self.loc(p, stmt), p.pid1)
            return
        if self._footprint(stmt, p, lo, hi, step):
            return
        p.stack.append(stmt)
        try:
            i = lo
            while (i <= hi) if step > 0 else (i >= hi):
                p.scalars[stmt.var] = i
                yield from self._exec_block(stmt.body, p)
                i += step
        finally:
            p.stack.pop()

    def _footprint(self, loop: DoLoop, p: _AProc, lo: int, hi: int,
                   step: int) -> bool:
        """Check an element loop by the sections its iterations span.

        For a body of array assignments and kernel calls (:func:`_element_refs`)
        no iteration changes a table, and each iteration's section of a
        reference lies inside the reference's span over the whole index
        set.  So when every span is ACCESSIBLE (or universal) no iteration
        can raise a finding: count the events the walk would, leave the loop
        variable at its last value, and return True.  False — walk the
        iterations — when any span is not, or the budget would run out
        inside the loop."""
        trip = (hi - lo) // step + 1
        if trip <= 0 or self.events + trip * len(loop.body) > self.max_events:
            return False
        shape = self._plans[id(loop)][1][3]
        if shape is None:
            return False
        refs, names = shape
        if not all(name in p.scalars for name in names):
            return False
        last = lo + (trip - 1) * step
        for ref in refs:
            decl = self.decls.get(ref.var)
            if not isinstance(decl, ArrayDecl) or len(ref.subs) != decl.rank:
                return False
            sec = self._span(ref, decl, loop.var, (lo, last, abs(step)), p)
            if sec is None:
                return False
            if not decl.universal and (self.state_of(p.pid1, ref.var, sec)
                                       is not SegmentState.ACCESSIBLE):
                return False
        self.events += trip * len(loop.body)
        p.scalars[loop.var] = last
        return True

    def _span(self, ref: ArrayRef, decl: ArrayDecl, var: str, index: tuple,
              p: _AProc) -> Section | None:
        """The section ``ref`` touches while ``var`` runs over ``index`` =
        (first, last, |step|): each subscript is evaluated at both ends
        (binding ``var``, which the loop rebinds before any use).  None when
        a subscript is not an int."""
        first, last, step = index
        dims: list[Triplet] = []
        for sub, (lo_b, hi_b) in zip(ref.subs, decl.bounds):
            if isinstance(sub, Full):
                dims.append(Triplet(lo_b, hi_b, 1))
                continue
            ends = []
            for v in (first, last):
                p.scalars[var] = v
                ends.append(self._fn(sub.expr)(p))
            if not all(type(v) is int for v in ends):
                return None
            dims.append(Triplet(min(ends), max(ends), step))
        return Section(tuple(dims))

    def _decided(self, cond: Expr, p: _AProc):
        """``cond``'s value on ``p`` (a bool or ⊤) when it reads only
        ``mypid``, ``nprocs`` and constants; None — evaluate it — otherwise.
        Nothing such a condition reads changes during a run and evaluating
        it raises no finding, so it is evaluated once per (condition,
        processor)."""
        key = id(cond)
        v = p.decided.get(key, _ABSENT)
        if v is _ABSENT:
            fn = self._deciders[key]
            v = None if fn is None else fn(p)
            p.decided[key] = v = v if v is None or v is _UNKNOWN else bool(v)
        return v

    def _guard_value(self, fn, waits: bool, p: _AProc):
        """The truth value of a rule, condition or expression statement: a
        rule is false on an unowned read, ⊤ where undecidable."""
        try:
            v = (yield from fn(p)) if waits else fn(p)
        except _RuleUnowned:
            return False
        except _RuleUnknown:
            return _UNKNOWN
        return v if v is _UNKNOWN else bool(v)

    def _exec_assign(self, stmt: Assign, plan: tuple, p: _AProc) -> None:
        target = stmt.target
        value_fn, decl, resolve = plan
        value = value_fn(p)
        if isinstance(target, VarRef):
            p.scalars[target.name] = value
            return
        sec = resolve(p)
        if decl is None or decl.universal:
            return
        if sec is None:
            self.flag("warning", "unresolved-write",
                      f"cannot resolve written section of {target.var}; "
                      "ownership of the write is unchecked",
                      self.loc(p, stmt), p.pid1)
            return
        state = self.state_of(p.pid1, target.var, sec)
        if state is _UNOWNED:
            self.flag("error", "unowned-write",
                      f"write to unowned section {target.var}{sec}",
                      self.loc(p, stmt), p.pid1)
        elif state is _TRANSITIONAL:
            self.flag("warning", "transitional-write",
                      f"write to {target.var}{sec} with a receive in flight; "
                      "the arriving message may overwrite it",
                      self.loc(p, stmt), p.pid1)

    def _exec_send(self, stmt: SendStmt, plan: tuple, p: _AProc):
        loc = self.loc(p, stmt)
        decl, resolve, dest_fns = plan
        sec = resolve(p)
        if decl is None:
            return
        if decl.universal:
            self.flag("error", "send-universal",
                      f"transfer of universal section {stmt.ref.var}", loc,
                      p.pid1)
            return
        if sec is None:
            self.flag("warning", "unresolved-transfer",
                      f"cannot resolve sent section of {stmt.ref.var}; "
                      "its transfers are waived", loc, p.pid1)
            self.waived.add(stmt.ref.var)
            return
        dests: list[int] | None = None
        if dest_fns is not None:
            dests = []
            for fn in dest_fns:
                v = fn(p)
                if v is _UNKNOWN:
                    self.flag("warning", "unresolved-destination",
                              f"cannot resolve a destination of "
                              f"{stmt.ref.var}{sec}; its transfers are waived",
                              loc, p.pid1)
                    self.waived.add(stmt.ref.var)
                    return
                if not 1 <= int(v) <= self.nprocs:
                    self.flag("error", "bad-destination",
                              f"send destination P{int(v)} outside the "
                              f"machine (P1..P{self.nprocs})", loc, p.pid1)
                    return
                dests.append(int(v))
        kind = _KIND[stmt.op]
        if stmt.op is XferOp.SEND_VALUE:
            state = self.state_of(p.pid1, stmt.ref.var, sec)
            if state is _UNOWNED:
                self.flag("error", "send-unowned",
                          f"value send of unowned section "
                          f"{stmt.ref.var}{sec}", loc, p.pid1)
                return
            if state is _TRANSITIONAL:
                self.flag("error", "stale-read",
                          f"value send gathers {stmt.ref.var}{sec} with a "
                          "receive initiated and no await since", loc, p.pid1)
        else:
            if stmt.dests is not None and len(stmt.dests) > 1:
                self.flag("error", "ownership-multicast",
                          f"ownership of {stmt.ref.var}{sec} released once "
                          f"but sent to {len(stmt.dests)} processors: every "
                          "recipient will believe it owns the section", loc,
                          p.pid1)
                return
            # Owner sends block until the section is accessible, then
            # relinquish it.
            yield _Wait(stmt.ref.var, sec, "release", loc)
            if not self.iown(p.pid1, stmt.ref.var, sec):  # pragma: no cover
                return  # wait_status() reported "never"; defensive
            self.release(p.pid1, stmt.ref.var, sec)
        for dst1 in (dests if dests is not None else [None]):
            self.route(_Msg(kind, stmt.ref.var, sec, p.pid1, dst1, loc))

    def _exec_recv(self, stmt: RecvStmt, plan: tuple, p: _AProc):
        loc = self.loc(p, stmt)
        decl, resolve, src_decl, src_resolve = plan
        into_sec = resolve(p)
        if decl is None:
            return
        if decl.universal:
            self.flag("error", "recv-universal",
                      f"receive into universal section {stmt.into.var}", loc,
                      p.pid1)
            return
        if into_sec is None:
            self.flag("warning", "unresolved-transfer",
                      f"cannot resolve received section of {stmt.into.var}; "
                      "its transfers are waived", loc, p.pid1)
            self.waived.add(stmt.into.var)
            self.waived.add(stmt.message_ref().var)
            return
        kind = _KIND[stmt.op]
        if stmt.op is XferOp.RECV_VALUE:
            src_sec = src_resolve(p)
            if src_decl is None:
                return
            if src_sec is None:
                self.flag("warning", "unresolved-transfer",
                          f"cannot resolve message section of "
                          f"{stmt.source.var}; its transfers are waived",
                          loc, p.pid1)
                self.waived.add(stmt.source.var)
                self.waived.add(stmt.into.var)
                return
            if not self.iown(p.pid1, stmt.into.var, into_sec):
                self.flag("error", "recv-into-unowned",
                          f"value receive into unowned section "
                          f"{stmt.into.var}{into_sec} blocks forever "
                          "(destination must be owned)", loc, p.pid1)
                p.doomed = True
                return
            if src_sec.size != into_sec.size:
                self.flag("error", "size-mismatch",
                          f"message {stmt.source.var}{src_sec} carries "
                          f"{src_sec.size} elements, destination "
                          f"{stmt.into.var}{into_sec} has {into_sec.size}",
                          loc, p.pid1)
            # The engine waits for the destination before initiating.
            yield _Wait(stmt.into.var, into_sec, "recv-into", loc)
            recv = _PendRecv(next(self.seq), p.pid1, kind,
                             stmt.source.var, src_sec,
                             stmt.into.var, into_sec, loc)
            for seg in self.overlapping(p.pid1, stmt.into.var, into_sec):
                seg.pending.append(recv)
            self.post_recv(recv)
        else:
            for seg in self.overlapping(p.pid1, stmt.into.var, into_sec):
                self.flag("error", "acquire-overlap",
                          f"ownership receive of {stmt.into.var}{into_sec} "
                          f"overlaps locally owned segment {seg.segment} "
                          "(ownership can only be received if unowned)",
                          loc, p.pid1)
                return
            recv = _PendRecv(next(self.seq), p.pid1, kind,
                             stmt.into.var, into_sec,
                             stmt.into.var, into_sec, loc)
            seg = _ASeg(into_sec)
            seg.pending.append(recv)
            table = self.tables[(p.pid1, stmt.into.var)]
            table.segdescs.append(seg)
            table.invalidate_index()
            self.post_recv(recv)

    def _exec_collective(self, stmt: CollectiveStmt, plan: tuple, p: _AProc):
        """A collective is a typed rendezvous of the whole group: every
        member must reach the same dynamic instance of the site with the
        same resolution (group, root, chunk sections).  Arrival order is
        tracked per (site, occurrence); the member then parks on a barrier
        wait, which the driver treats like any blocking point — so a
        member that never arrives, a contributor that exits early, or a
        collective interleaved with an unsatisfiable point-to-point
        receive all surface through the normal never/deadlock machinery."""
        loc = self.loc(p, stmt)
        coll_vars = tuple(dict.fromkeys(
            [stmt.src.var, stmt.dst.var]
            + ([stmt.scratch.var] if stmt.scratch is not None else [])
        ))

        def waive(reason: str):
            self.flag("warning", "unresolved-collective",
                      f"{reason}; the collective is skipped and its arrays "
                      "waived", loc, p.pid1)
            self.waived.update(coll_vars)

        lo_v, hi_v, st_v = (fn(p) for fn in plan[:3])
        root_v = None if plan[3] is None else plan[3](p)
        if _UNKNOWN in (lo_v, hi_v, st_v) or root_v is _UNKNOWN:
            waive("collective group/root depends on run-time data")
            return
        if st_v == 0:
            self.flag("error", "collective-bad-group",
                      "collective group step of 0", loc, p.pid1)
            return
        members = tuple(range(
            int(lo_v), int(hi_v) + (1 if st_v > 0 else -1), int(st_v)))
        if not members:
            self.flag("error", "collective-bad-group",
                      f"empty collective group {lo_v}:{hi_v}:{st_v}",
                      loc, p.pid1)
            return
        bad = [m for m in members if not 1 <= m <= self.nprocs]
        if bad:
            self.flag("error", "collective-bad-group",
                      f"collective group member P{bad[0]} outside the "
                      f"machine (P1..P{self.nprocs})", loc, p.pid1)
            return
        if root_v is not None:
            root_v = int(root_v)
            if root_v not in members:
                self.flag("error", "collective-bad-group",
                          f"broadcast root P{root_v} is not a group member",
                          loc, p.pid1)
                return
        if p.pid1 not in members:
            return

        # One chunk map per rendezvous, not per member: members whose
        # environments agree share it; one that differs resolves its own and
        # the signature comparison below still decides the mismatch.
        envs = [op[2](p) if op[2] else UNKEYED for op in plan[4] if op is not None]
        key = None if UNKEYED in envs else (id(stmt), members, root_v, *envs)
        cmap = self._coll_maps.get(key)
        if cmap is None:
            flags = self._flags
            cmap = self._coll_map(stmt, members, root_v, p)
            if cmap == "universal":
                self.flag("error", "collective-universal",
                          "collective over a universal array: only "
                          "exclusive arrays have owners to exchange between",
                          loc, p.pid1)
                return
            if cmap == "unresolved":
                waive("collective section depends on run-time data")
                return
            if key is not None and self._flags == flags:
                self._coll_maps[key] = cmap
        transfers, scratches, sigtail, reads, lands = cmap
        op = stmt.op
        signature = (op.value, members, root_v, stmt.reduce_op, *sigtail)
        site = id(stmt)
        occ = self.coll_counts.get((site, p.pid1), 0)
        self.coll_counts[(site, p.pid1)] = occ + 1
        bar = self.coll_barriers.get((site, occ))
        if bar is None:
            bar = _CollBarrier(stmt, members, signature, p.pid1)
            self.coll_barriers[(site, occ)] = bar
            # Chunk-shape sanity is group-global and identical on every
            # member; check it once, at first arrival.
            for g, d, ssec, dsec in transfers:
                if ssec.size != dsec.size:
                    self.flag(
                        "error", "collective-cardinality",
                        f"{op.value}: contributor P{g}'s chunk "
                        f"{stmt.src.var}{ssec} carries {ssec.size} "
                        f"element(s) but destination P{d}'s slot "
                        f"{stmt.dst.var}{dsec} holds {dsec.size}",
                        loc, p.pid1)
            for d, sc in sorted(scratches.items()):
                slot = next((ds.size for g, dd, _, ds in transfers
                             if dd == d), None)
                if slot is not None and sc.size != slot:
                    self.flag(
                        "error", "collective-cardinality",
                        f"reduce_scatter scratch {stmt.scratch.var}{sc} "
                        f"holds {sc.size} element(s) but P{d}'s chunks "
                        f"carry {slot}", loc, p.pid1)
        elif signature != bar.signature:
            self.flag("error", "collective-mismatch",
                      f"P{p.pid1} reaches this {op.value} with a different "
                      f"group/root/section resolution than P{bar.first_pid1}"
                      " (all participants must agree)", loc, p.pid1)
        bar.arrived.add(p.pid1)

        # My contributions: value-send semantics (gathered immediately).
        for var, sec in reads.get(p.pid1, ()):
            state = self.state_of(p.pid1, var, sec)
            if state is _UNOWNED:
                self.flag("error", "collective-send-unowned",
                          f"collective contribution {var}{sec} is not owned "
                          f"by P{p.pid1}", loc, p.pid1)
            elif state is _TRANSITIONAL:
                self.flag("error", "stale-read",
                          f"collective gathers {var}{sec} with a receive "
                          "initiated and no await since", loc, p.pid1)

        # My landings: destination (and scratch) must be owned, like a
        # value receive's destination gate.
        landings = lands.get(p.pid1, ())
        for var, sec in landings:
            if not self.iown(p.pid1, var, sec):
                self.flag("error", "collective-recv-unowned",
                          f"collective lands in {var}{sec}, not owned by "
                          f"P{p.pid1}: its landing fence blocks forever",
                          loc, p.pid1)
                p.doomed = True
        if p.doomed:
            return
        yield _CollWait(bar, tuple(landings), coll_vars, loc)

    def _coll_map(self, stmt: CollectiveStmt, members: tuple, root_v,
                  p: _AProc):
        """Resolve a collective's chunk map (flat-schedule transfer set) in
        ``p``'s environment → ``(transfers, scratches, signature tail,
        reads by contributor, landings by destination)``, or the string
        ``"universal"`` / ``"unresolved"``."""
        gb, db = stmt.g_binder, stmt.d_binder
        src, dst, scratch = self._plans[id(stmt)][1][4]
        unresolved = universal = False

        def sec_of(operand: tuple, g=None, d=None):
            """Resolve an operand with the binder values in scope."""
            nonlocal unresolved, universal
            decl, resolve, _ = operand
            bindings = {k: v for k, v in ((gb, g), (db, d))
                        if k is not None and v is not None}
            saved = {k: p.scalars.get(k, _ABSENT) for k in bindings}
            p.scalars.update(bindings)
            try:
                sec = resolve(p)
            finally:
                for k, v in saved.items():
                    if v is _ABSENT:
                        p.scalars.pop(k, None)
                    else:
                        p.scalars[k] = v
            if decl is not None and decl.universal:
                universal = True
                return None
            unresolved = unresolved or sec is None
            return sec

        op = stmt.op
        transfers: list[tuple[int, int, Section, Section]] = []
        scratches: dict[int, Section] = {}
        if op is CollOp.BROADCAST:
            ssec = sec_of(src)
            for d in members:
                dsec = sec_of(dst, d=d)
                if ssec is not None and dsec is not None:
                    transfers.append((root_v, d, ssec, dsec))
        elif op is CollOp.ALLGATHER:
            srcs: dict[int, Section | None] = {}
            for g in members:
                srcs[g] = sec_of(src, g)
            for g in members:
                for d in members:
                    dsec = sec_of(dst, g, d)
                    if srcs[g] is not None and dsec is not None:
                        transfers.append((g, d, srcs[g], dsec))
        elif op is CollOp.ALL_TO_ALL:
            for g in members:
                for d in members:
                    ssec = sec_of(src, g, d)
                    dsec = sec_of(dst, g, d)
                    if ssec is not None and dsec is not None:
                        transfers.append((g, d, ssec, dsec))
        else:  # REDUCE_SCATTER
            dsts: dict[int, Section | None] = {}
            for d in members:
                dsts[d] = sec_of(dst, d=d)
                sc = sec_of(scratch, d=d)
                if sc is not None:
                    scratches[d] = sc
            for g in members:
                for d in members:
                    ssec = sec_of(src, g, d)
                    if ssec is not None and dsts[d] is not None:
                        transfers.append((g, d, ssec, dsts[d]))
        if universal:
            return "universal"
        if unresolved:
            return "unresolved"

        def canon(sec: Section):
            return tuple((t.lo, t.hi, t.step) for t in sec.dims)

        sigtail = (
            tuple((g, d, canon(ss), canon(ds))
                  for g, d, ss, ds in transfers),
            tuple((d, canon(s)) for d, s in sorted(scratches.items())),
        )
        # Each member's contributions and landings, deduplicated in
        # transfer order.
        reads: dict[int, dict] = {}
        lands: dict[int, dict] = {}
        for g, d, ss, ds in transfers:
            reads.setdefault(g, {})[(stmt.src.var, ss)] = None
            lands.setdefault(d, {})[(stmt.dst.var, ds)] = None
        if len(members) > 1:
            for d, sc in scratches.items():
                lands.setdefault(d, {})[(stmt.scratch.var, sc)] = None
        return transfers, scratches, sigtail, reads, lands

    # -------------------------------------------------------------- #
    # compilation: each expression once, to a closure over a processor
    # -------------------------------------------------------------- #

    def _compile_stmt(self, stmt: Stmt) -> tuple:
        """(the executor, the closures it calls) of ``stmt``."""
        fn, ref = self._fn, self._compile_ref
        match stmt:
            case Guarded(e) | IfStmt(e) | ExprStmt(e):
                pid_only = all(isinstance(x, _PID_ONLY) for x in walk_exprs(e))
                self._deciders[id(e)] = fn(e) if pid_only else None
                # Rule mode matters only where a rule reads an array.
                e_fn = fn(e, type(stmt) is Guarded and any(
                    isinstance(x, ArrayRef) for x in walk_exprs(e)), guard=True)
                run = self._exec_branch if type(stmt) is not ExprStmt else (
                    lambda _, plan, p: self._guard_value(*plan, p))
                return run, (e_fn, _blocks(e_fn))
            case Assign(target, expr):
                return self._exec_assign, (fn(expr), *(
                    ref(target, stmt) if isinstance(target, ArrayRef) else (None, None)))
            case SendStmt(r, _, dests):
                return self._exec_send, (*ref(r, stmt), dests and [fn(d) for d in dests])
            case RecvStmt(into, _, source):
                return self._exec_recv, (*ref(into, stmt),
                                         *(source and ref(source, stmt) or (None, None)))
            case DoLoop(_, lo, hi, step):
                return self._exec_loop, (fn(lo), fn(hi), fn(step), _element_refs(stmt))
            case CallStmt(_, args):
                return self._exec_call, [
                    self._compile_read(a, stmt, False)
                    if isinstance(a, ArrayRef) and not a.is_element() else fn(a)
                    for a in args]
            case CollectiveStmt(group=(lo, hi, step), root=root):
                return self._exec_collective, (
                    fn(lo), fn(hi), step and fn(step) or (lambda p: 1), root and fn(root),
                    [r and (*ref(r, stmt), self._env_key(r))
                     for r in (stmt.src, stmt.dst, stmt.scratch)])
        raise TypeError(f"cannot verify statement {stmt!r}")  # pragma: no cover

    def _fn(self, e: Expr, rule: bool = False, guard: bool = False):
        """``e``'s closure ``fn(p)`` → its value on ``p``, compiled once; only a
        ``guard`` position admits an ``await`` (a generator function)."""
        fn = self._fns.get((id(e), rule))
        if fn is None:
            fn = self._fns[id(e), rule] = self._compile(e, rule)
        if not guard and _blocks(fn):
            raise VerificationError(f"'{_head(e)}': await() is a guard, not a value")
        return fn

    def _compile(self, e: Expr, rule: bool):
        """One node (operands through :meth:`_fn`), evaluated in IL order with
        its findings, ⊤ operands included; in a compute rule (``rule``) an
        unowned read raises :class:`_RuleUnowned`, an undecidable one
        :class:`_RuleUnknown`."""
        match e:
            case IntConst(v) | FloatConst(v) | BoolConst(v):
                return lambda p: v
            case MaxIntConst() | MinIntConst():
                v = MAXINT if type(e) is MaxIntConst else MININT
                return lambda p: v
            case Mypid():
                return lambda p: p.pid1
            case NumProcs():
                return lambda p: self.nprocs
            case VarRef(name):
                if name in self.decls:
                    code, text = "unknown-variable", f"array {name!r} used without subscripts"
                else:
                    code, text = "undefined-scalar", f"undefined scalar {name!r}"

                def var(p):
                    try:
                        return p.scalars[name]
                    except KeyError:
                        self.flag("error", code, text, self.loc(p), p.pid1)
                        return _UNKNOWN
                return var
            case UnaryOp(op, operand):
                inner, neg = self._fn(operand, rule, op == "not"), op != "not"
                if _blocks(inner):
                    def not_(p):
                        v = yield from inner(p)
                        return v if v is _UNKNOWN else not v
                    return not_
                return lambda p: (v if (v := inner(p)) is _UNKNOWN
                                  else -v if neg else not v)
            case BinOp("and" | "or" as op, lhs, rhs):
                return _kleene(op == "or", self._fn(lhs, rule, True),
                               self._fn(rhs, rule, True))
            case BinOp(op, lhs, rhs):
                fn, l_fn = _OPS[op], self._fn(lhs, rule)
                divides = op in ("/", "%")
                if isinstance(rhs, (IntConst, FloatConst)) and not (
                        divides and rhs.value == 0):
                    c = rhs.value
                    return lambda p: l if (l := l_fn(p)) is _UNKNOWN else fn(l, c)
                r_fn = self._fn(rhs, rule)
                if divides:
                    def divide(p):
                        l, r = l_fn(p), r_fn(p)
                        if l is _UNKNOWN or r is _UNKNOWN:
                            return _UNKNOWN
                        if (v := fn(l, r)) is _UNKNOWN:  # the VM raises
                            self.flag("error", "division-by-zero",
                                      f"division by zero in {print_expr(e)}",
                                      self.loc(p), p.pid1)
                        return v
                    return divide

                def binop(p):
                    l, r = l_fn(p), r_fn(p)
                    if l is _UNKNOWN or r is _UNKNOWN:
                        return _UNKNOWN
                    return fn(l, r)
                return binop
            case ArrayRef():
                return self._compile_read(e, e, rule)
        # An intrinsic: its first argument names a section of an exclusive
        # array (a universal one is not tabulated).
        var = e.ref.var
        decl, sec_of = self._compile_ref(e.ref, e)
        if decl is not None and decl.universal:
            def sec_of(p, resolve=sec_of):
                resolve(p)
                self.flag("error", "intrinsic-universal",
                          f"intrinsic on universal array {var}: only "
                          "exclusive variables are tabulated", self.loc(p, e), p.pid1)
        match e:
            case Iown():
                return lambda p: (_UNKNOWN if (sec := sec_of(p)) is None
                                  else self.iown(p.pid1, var, sec))
            case Accessible():
                def accessible(p):
                    if (sec := sec_of(p)) is None:
                        return _UNKNOWN
                    state = self.state_of(p.pid1, var, sec)
                    if state is _TRANSITIONAL:
                        return _UNKNOWN  # arrival timing decides
                    return state is not _UNOWNED
                return accessible
            case Mylb(_, dim) | Myub(_, dim):
                dim_fn = self._fn(dim, rule)

                def bound(p):
                    sec, d = sec_of(p), dim_fn(p)
                    if sec is None or d is _UNKNOWN:
                        return _UNKNOWN
                    k = int(d) - 1
                    owned = [seg.segment.dims[k].intersect(sec.dims[k])
                             for seg in self.overlapping(p.pid1, var, sec)]
                    if isinstance(e, Mylb):
                        return min((t.lo for t in owned), default=MAXINT)
                    return max((t.hi for t in owned), default=MININT)
                return bound
            case Await():
                def await_(p):
                    if (sec := sec_of(p)) is None:
                        return _UNKNOWN
                    if not self.iown(p.pid1, var, sec):
                        return False
                    yield _Wait(var, sec, "await", self.loc(p, e))
                    return True
                return await_
        raise TypeError(f"cannot evaluate {e!r}")  # pragma: no cover

    def _compile_read(self, ref: ArrayRef, at: Stmt | Expr, rule: bool):
        """A read of ``ref``, findings located at ``at``: ⊤, after the
        ownership checks of its section."""
        decl, resolve = self._compile_ref(ref, at)
        if decl is None or decl.universal:
            return lambda p: (resolve(p), _UNKNOWN)[1]
        var = ref.var

        def read(p):
            sec = resolve(p)
            if sec is None:
                if rule:
                    raise _RuleUnknown()
                self.flag("warning", "unresolved-read",
                          f"cannot resolve read section of {var}; "
                          "ownership of the read is unchecked",
                          self.loc(p, at), p.pid1)
                return _UNKNOWN
            state = self.state_of(p.pid1, var, sec)
            if state is _UNOWNED:
                if rule:
                    # §2.4: an unowned reference makes the rule false.
                    raise _RuleUnowned()
                self.flag("error", "unowned-read",
                          f"read of unowned section {var}{sec}",
                          self.loc(p, at), p.pid1)
            elif state is _TRANSITIONAL:
                if rule:
                    # Whether the message has arrived is timing-dependent:
                    # the strict engine makes the rule false, a non-strict
                    # run reads whatever was delivered.
                    self.flag("warning", "rule-reads-transitional",
                              f"compute rule reads {var}{sec} with a receive "
                              "in flight; its value is schedule-dependent",
                              self.loc(p, at), p.pid1)
                    raise _RuleUnknown()
                self.flag("error", "stale-read",
                          f"read of {var}{sec} with a receive initiated and "
                          "no await since", self.loc(p, at), p.pid1)
            return _UNKNOWN
        return read

    def _compile_ref(self, ref: ArrayRef, at: Stmt | Expr):
        """→ (declaration, ``resolve``): ``resolve(p)`` is the section ``ref``
        names on ``p``, or None (a ⊤ subscript; an empty triplet, flagged at
        ``at``).  No declaration, and a finding per call, for an undeclared
        name or a rank mismatch.  Memoized per environment key, interned."""
        decl = self.decls.get(ref.var)
        if decl is None or isinstance(decl, ScalarDecl):
            code, text = "unknown-variable", f"{ref.var!r} is not a declared array"
        elif len(ref.subs) != decl.rank:
            code, text = "rank-mismatch", (f"{ref.var} has rank {decl.rank}, "
                                           f"reference has {len(ref.subs)} subscripts")
        else:
            code = None
        if code is not None:
            return None, lambda p: self.flag("error", code, text, self.loc(p, at), p.pid1)
        dims = [self._compile_subscript(sub, bounds, ref.var, at)
                for sub, bounds in zip(ref.subs, decl.bounds)]

        def fresh(p):
            out = []
            for d in dims:
                if (t := d(p)) is None:
                    return None
                out.append(t)
            return Section(tuple(out))
        env_key = self._env_key(ref)
        if env_key is None:
            return decl, fresh
        memo = self._sections.setdefault(id(ref), {})

        def resolve(p):
            key = env_key(p)
            sec = memo.get(key)
            if sec is None:
                flags = self._flags
                sec = fresh(p)
                if key is not UNKEYED and sec is not None and self._flags == flags:
                    sec = memo[key] = self._interned.setdefault(sec, sec)
            return sec
        return decl, resolve

    def _compile_subscript(self, sub, bounds: tuple[int, int], var: str,
                           at: Stmt | Expr):
        """→ ``fn(p)``: the subscript's Triplet, or None (a ⊤ part: the later
        subscripts are not evaluated; or an empty triplet, flagged)."""
        match sub:
            case Full():
                t = Triplet(*bounds, 1)
                return lambda p: t
            case Index(expr):
                fn = self._fn(expr)
                return lambda p: (None if (v := fn(p)) is _UNKNOWN
                                  else Triplet(int(v), int(v), 1))
        lo_fn, hi_fn, step_fn = (
            (lambda p, v=default: v) if e is None else self._fn(e)
            for e, default in ((sub.lo, bounds[0]), (sub.hi, bounds[1]), (sub.step, 1)))

        def triplet(p):
            if ((lo := lo_fn(p)) is _UNKNOWN or (hi := hi_fn(p)) is _UNKNOWN
                    or (step := step_fn(p)) is _UNKNOWN):
                return None
            lo, hi, step = int(lo), int(hi), int(step)
            try:
                return Triplet(lo, hi, step)
            except ValueError:
                self.flag("error", "empty-section",
                          f"empty triplet {lo}:{hi}:{step} in reference to "
                          f"{var}", self.loc(p, at), p.pid1)
        return triplet

    def _env_key(self, ref: ArrayRef):
        """``key(p)`` of :func:`env_key`; None if a subscript reads a table."""
        deps = env_key(ref)
        return deps and deps[2]

    # -------------------------------------------------------------- #
    # the scheduler
    # -------------------------------------------------------------- #

    def run(self) -> CommReport:
        procs = [_AProc(pid1, None) for pid1 in range(1, self.nprocs + 1)]
        self.procs = procs
        for p in procs:
            p.gen = self.boot(p)
        try:
            self._drive(procs)
        except _Budget:
            self.complete = False
            self.flag("warning", "budget-exhausted",
                      f"abstract execution exceeded {self.max_events} steps; "
                      "verification is incomplete", "<program>")
        else:
            if not any(p.wait is not None and not p.doomed for p in procs):
                self._end_of_run_checks()
        self._mode_warnings()
        findings = [self._findings[k] for k in self._order]
        findings.sort(key=lambda f: f.severity != "error")  # stable: errors first
        report = CommReport(
            nprocs=self.nprocs,
            findings=findings,
            events=self.events,
            complete=self.complete,
            waived=tuple(sorted(self.waived)),
        )
        vars(self).clear()  # the compiled closures hold it: free it now, not by gc
        return report

    def _drive(self, procs: list[_AProc]) -> None:
        while True:
            progress = False
            for p in procs:
                if p.done or p.doomed:
                    continue
                if p.wait is not None:
                    status = self.wait_status(p, p.wait)
                    if status == "never":
                        self._flag_never(p, p.wait)
                        p.doomed = True
                        progress = True
                        continue
                    if status == "blocked":
                        continue
                    self.apply_wait(p, p.wait)
                    p.wait = None
                    progress = True
                while not (p.done or p.doomed):
                    try:
                        w = next(p.gen)
                    except StopIteration:
                        p.done = True
                        progress = True
                        break
                    progress = True
                    status = self.wait_status(p, w)
                    if status == "never":
                        self._flag_never(p, w)
                        p.doomed = True
                        break
                    if status == "blocked":
                        p.wait = w
                        break
                    self.apply_wait(p, w)
            blocked = [p for p in procs if p.wait is not None and not p.doomed]
            if not progress:
                if blocked:
                    self._flag_deadlock(blocked)
                return

    def _flag_never(self, p: _AProc, w) -> None:
        if isinstance(w, _CollWait):
            bar = w.barrier
            gone = sorted(
                m for m in bar.members
                if m not in bar.arrived
                and (self.procs[m - 1].done or self.procs[m - 1].doomed)
            )
            severity = "warning" if self.demoted(*w.vars) else "error"
            names = ", ".join(f"P{m}" for m in gone)
            self.flag(severity, "unmatched-collective-participant",
                      f"{bar.stmt.op.value} collective over "
                      f"P{bar.members[0]}..P{bar.members[-1]}: member(s) "
                      f"{names} finish without participating, so the "
                      "arrived members block forever", w.loc, p.pid1)
            return
        what = {
            "await": "await on",
            "release": "owner send of",
            "recv-into": "value receive into",
        }[w.reason]
        severity = "warning" if self.demoted(w.var) else "error"
        pending = "pending prefetch fence" if self.shmem else "pending receive"
        self.flag(severity, "blocked-forever",
                  f"{what} {w.var}{w.sec} can never become accessible: the "
                  f"section is not (fully) owned and no {pending} "
                  "covers it", w.loc, p.pid1)

    def _flag_deadlock(self, blocked: list[_AProc]) -> None:
        involved: set[str] = set()
        lines = []
        for p in sorted(blocked, key=lambda q: q.pid1):
            w = p.wait
            if isinstance(w, _CollWait):
                bar = w.barrier
                involved.update(w.vars)
                missing = sorted(set(bar.members) - bar.arrived)
                line = (f"P{p.pid1} blocked in {bar.stmt.op.value} "
                        f"collective at [{self.loc_text(w.loc)}]")
                if missing:
                    line += (" awaiting member(s) "
                             + ", ".join(f"P{m}" for m in missing))
                else:
                    tags = sorted({
                        r.tag
                        for var, sec in w.landings
                        for seg in self.overlapping(p.pid1, var, sec)
                        for r in seg.pending if not r.matched
                    })
                    if tags:
                        line += (" with unsatisfied point-to-point "
                                 "receive(s) on its landing sections: "
                                 + ", ".join(tags))
                lines.append(line)
                continue
            involved.add(w.var)
            unmatched = sorted({
                r.tag
                for seg in self.overlapping(p.pid1, w.var, w.sec)
                for r in seg.pending if not r.matched
            })
            line = (f"P{p.pid1} blocked on {w.var}{w.sec} "
                    f"at [{self.loc_text(w.loc)}]")
            if unmatched:
                line += " waiting for: " + ", ".join(unmatched)
                involved.update(t.split(" ", 1)[1].split("[", 1)[0]
                                for t in unmatched)
            lines.append(line)
        n_unclaimed = sum(
            1 for msgs in self.unclaimed.values() for m in msgs if not m.claimed
        )
        severity = "warning" if self.demoted(*involved) else "error"
        code = "deadlock" if severity == "error" else "possible-deadlock"
        in_flight = (
            "unfenced store(s)" if self.shmem else "unclaimed message(s)"
        )
        self.flag(severity, code,
                  "every remaining processor is blocked; "
                  + "; ".join(lines)
                  + f"; {n_unclaimed} {in_flight} in flight",
                  blocked[0].wait.loc)

    def _end_of_run_checks(self) -> None:
        # Sends nobody received.
        for (kind, var, sec), msgs in sorted(
            self.unclaimed.items(), key=lambda kv: (kv[0][0], kv[0][1], str(kv[0][2]))
        ):
            left = [m for m in msgs if not m.claimed]
            if not left:
                continue
            severity = "warning" if self.demoted(var) else "error"
            if self.shmem:
                text = (f"{len(left)} {kind} poststore(s) {var}{sec} never "
                        "fenced: the stored lines are never observed")
            else:
                text = (f"{len(left)} {kind} message(s) {var}{sec} never "
                        "received")
            self.flag(severity, "unmatched-send",
                      text, left[0].loc, left[0].src1)
        # Receives nobody sent.
        for (kind, var, sec), recvs in sorted(
            self.pending.items(), key=lambda kv: (kv[0][0], kv[0][1], str(kv[0][2]))
        ):
            left = [r for r in recvs if not r.matched]
            if not left:
                continue
            severity = "warning" if self.demoted(var) else "error"
            if self.shmem:
                text = (f"{len(left)} prefetch fence(s) on {kind} {var}{sec} "
                        "never discharged: no store reaches the address")
            else:
                text = (f"{len(left)} posted receive(s) of {kind} {var}{sec} "
                        "never satisfied")
            self.flag(severity, "unmatched-receive",
                      text, left[0].loc, left[0].pid1)
        # Two processors left owning the same element.
        for d in self.program.array_decls():
            if d.universal:
                continue
            for pa in range(1, self.nprocs):
                for seg in self.tables[(pa, d.name)].segdescs:
                    if not self.settled(seg):
                        continue
                    for pb in range(pa + 1, self.nprocs + 1):
                        for other in self.tables[
                                (pb, d.name)].geometry(seg.segment)[0]:
                            if self.settled(other):
                                inter = other.segment.intersect(seg.segment)
                                self.flag(
                                    "error", "ownership-race",
                                    f"run ends with P{pa} and P{pb} both "
                                    f"owning {d.name}{inter}", "<end of run>")

    def _mode_warnings(self) -> None:
        for (kind, var, sec), modes in sorted(
            self.tag_modes.items(), key=lambda kv: (kv[0][0], kv[0][1], str(kv[0][2]))
        ):
            if modes == {"directed", "pooled"}:
                self.flag("warning", "mixed-matching",
                          f"tag {kind} {var}{sec} mixes directed and "
                          "unspecified-recipient sends: which receive each "
                          "message completes is schedule-dependent",
                          "<program>")


def verify_communication(
    program: Program,
    nprocs: int,
    *,
    grid: ProcessorGrid | None = None,
    max_events: int = MAX_EVENTS,
    backend: str = "msg",
) -> CommReport:
    """Statically verify the communication of a translated SPMD program.

    Runs the program on an abstract machine (data erased, scalars tracked
    per processor, the engine's FIFO tag-matching discipline preserved) and
    returns a :class:`CommReport`.  ``report.ok`` means no errors;
    ``report.clean`` additionally guarantees — checked differentially by
    ``tests/test_fuzz_differential.py`` — that the strict engine runs the
    program without protocol, ownership or deadlock errors.

    The program must already be in SPMD form (the output of
    :func:`repro.core.translate.translate`, a hand-written XDP program, or
    a tuner-generated phased program); sequential programs read exclusive
    data unguarded on every processor and will report unowned reads.

    ``backend`` names the section-5 binding target (``"msg"`` or
    ``"shmem"``).  The rendezvous relation checked is identical — that is
    the delayed-binding guarantee — but on the shared-address target the
    obligations are phrased as *fences*: an unmatched send is a poststore
    whose lines are never fenced, an unmatched receive is a prefetch
    fence no store discharges.
    """
    return _Machine(program, nprocs, grid, max_events, backend).run()
