"""Static communication-safety verification of SPMD IL+XDP programs.

XDP's premise is that explicit data placement lets the *compiler* reason
about movement — yet a mismatched ``->``/``<-`` pair, a read of
TRANSITIONAL data or an ownership-transfer race is only caught at run time
by the engine.  :func:`verify_communication` closes that gap: it runs every
processor through an *abstract* machine — the lowered VM of
:mod:`repro.core.codegen.lower` with data values erased and virtual time
removed — and reports, with IL locations and severities:

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
from collections import defaultdict
from dataclasses import dataclass, field

from ...distributions import ProcessorGrid
from ..errors import VerificationError
from ..ir.nodes import (
    Accessible, ArrayDecl, ArrayRef, Assign, Await, BinOp, Block, BoolConst,
    CallStmt, CollOp, CollectiveStmt, DoLoop, Expr, ExprStmt, FloatConst,
    Full, Guarded, IfStmt, Index, IntConst, Iown, MaxIntConst, MinIntConst,
    Mylb, Mypid, Myub, NumProcs, Program, Range, RecvStmt, ScalarDecl,
    SendStmt, Stmt, UnaryOp, VarRef, XferOp,
)
from ..ir.printer import print_stmt
from ..ir.visitor import walk_exprs
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


class _PendRecv:
    """A posted receive: transitional marker until matched *and* awaited."""

    __slots__ = ("seq", "pid1", "kind", "var", "sec", "into_var", "into_sec",
                 "matched", "loc")

    def __init__(self, seq, pid1, kind, var, sec, into_var, into_sec, loc):
        self.seq = seq
        self.pid1 = pid1
        self.kind = kind          # "value" | "ownership" | "own_value"
        self.var = var            # tag variable
        self.sec = sec            # tag section
        self.into_var = into_var
        self.into_sec = into_sec
        self.matched = False
        self.loc = loc

    @property
    def tag(self) -> str:
        return f"{self.kind} {self.var}{self.sec}"


class _Msg:
    """An in-flight abstract message."""

    __slots__ = ("kind", "var", "sec", "src1", "dst1", "claimed", "loc")

    def __init__(self, kind, var, sec, src1, dst1, loc):
        self.kind = kind
        self.var = var
        self.sec = sec
        self.src1 = src1
        self.dst1 = dst1          # 1-based or None (unspecified recipient)
        self.claimed = False
        self.loc = loc


class _ASeg:
    """One owned segment — a :class:`SegmentTable` descriptor: a section
    plus its outstanding receives.

    State is derived, mirroring the run-time table at segment granularity:
    ``pending`` non-empty ⇒ TRANSITIONAL (a receive was initiated and no
    ``await`` has covered this segment since), empty ⇒ ACCESSIBLE.
    """

    __slots__ = ("segment", "pending")

    def __init__(self, segment: Section):
        self.segment = segment
        self.pending: list[_PendRecv] = []


class _Wait:
    """A blocking point: WaitAccessible(var, sec) from an await, an owner
    send, or a value receive's destination gate."""

    __slots__ = ("var", "sec", "reason", "loc")

    def __init__(self, var, sec, reason, loc):
        self.var = var
        self.sec = sec
        self.reason = reason      # "await" | "release" | "recv-into"
        self.loc = loc


class _CollBarrier:
    """One dynamic instance of a collective site: the ``occ``-th execution
    of a given statement.  Members must all arrive with the same resolved
    signature (group, root, chunk sections) before any may proceed."""

    __slots__ = ("stmt", "members", "signature", "first_pid1", "arrived")

    def __init__(self, stmt, members, signature, first_pid1):
        self.stmt = stmt
        self.members = members
        self.signature = signature
        self.first_pid1 = first_pid1
        self.arrived: set[int] = set()


class _CollWait:
    """A processor parked inside a collective: released when every member
    has arrived and the processor's landing sections are fence-able."""

    __slots__ = ("barrier", "landings", "vars", "loc")

    def __init__(self, barrier, landings, vars, loc):
        self.barrier = barrier
        self.landings = landings  # tuple[(var, Section), ...] owned by me
        self.vars = vars          # involved array names (for waiver demotion)
        self.loc = loc


class _AProc:
    __slots__ = ("pid1", "gen", "wait", "done", "doomed", "scalars", "stack")

    def __init__(self, pid1, gen):
        self.pid1 = pid1
        self.gen = gen
        self.wait: _Wait | None = None
        self.done = False
        self.doomed = False
        self.scalars: dict = {}
        self.stack: list[Stmt] = []   # enclosing guards/branches/loops


class _RuleUnowned(Exception):
    """An unowned reference inside a compute rule: the rule is false."""


class _RuleUnknown(Exception):
    """A rule whose value the abstraction cannot decide."""


class _Budget(Exception):
    """Abstract step budget exhausted."""


def _head(node: Stmt | Expr, limit: int = 64) -> str:
    stmt = node if isinstance(node, Stmt) else ExprStmt(node)
    text = print_stmt(stmt, 0)[0].strip()
    return text if len(text) <= limit else text[: limit - 1] + "…"


#: Expression nodes whose value depends on table state, not scalars alone.
_TABLE_READS = (ArrayRef, Iown, Accessible, Await, Mylb, Myub)
#: Scalar value types an environment key may hold (None: no binding).
_KEYABLE = frozenset({int, type(None)})


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
        self.backend = backend
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
        self._ref_facts: dict[int, tuple] = {}   # id(ArrayRef) -> _env facts
        self._sections: dict[tuple, Section] = {}  # _env key -> resolution
        self._interned: dict[Section, Section] = {}
        self._coll_maps: dict[tuple, tuple] = {}  # rendezvous -> chunk map

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
        for s in block:
            match s:
                case SendStmt(ref, _, _):
                    self.waived.add(ref.var)
                case RecvStmt():
                    self.waived.add(s.into.var)
                    self.waived.add(s.message_ref().var)
                case Guarded(_, body) | DoLoop(_, _, _, _, body):
                    self.waive_block(body)
                case IfStmt(_, then, orelse):
                    self.waive_block(then)
                    self.waive_block(orelse)
                case CollectiveStmt():
                    self.waived.add(s.src.var)
                    self.waived.add(s.dst.var)
                    if s.scratch is not None:
                        self.waived.add(s.scratch.var)
                case _:
                    pass

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
        for d in self.program.scalar_decls():
            if d.init is not None:
                v = yield from self._eval(d.init, p, rule=False)
                p.scalars[d.name] = v
            else:
                p.scalars[d.name] = 0
        yield from self._exec_block(self.program.body, p)

    def _tick(self) -> None:
        self.events += 1
        if self.events > self.max_events:
            raise _Budget()

    def _exec_block(self, block: Block, p: _AProc):
        for stmt in block:
            yield from self._exec(stmt, p)

    def _exec(self, stmt: Stmt, p: _AProc):
        self._tick()
        match stmt:
            case Guarded(rule, body):
                ok = yield from self._eval_rule(rule, p, stmt)
                if ok is _UNKNOWN:
                    self.flag(
                        "warning", "data-dependent-rule",
                        "compute rule depends on run-time data; body skipped "
                        "and its transfers waived", self.loc(p, stmt), p.pid1,
                    )
                    self.waive_block(body)
                elif ok:
                    p.stack.append(stmt)
                    try:
                        yield from self._exec_block(body, p)
                    finally:
                        p.stack.pop()
            case Assign(target, expr):
                yield from self._exec_assign(target, expr, p, stmt)
            case SendStmt():
                yield from self._exec_send(stmt, p)
            case RecvStmt():
                yield from self._exec_recv(stmt, p)
            case DoLoop():
                yield from self._exec_loop(stmt, p)
            case IfStmt(cond, then, orelse):
                c = yield from self._eval(cond, p, rule=False)
                if c is _UNKNOWN:
                    self.flag(
                        "warning", "data-dependent-branch",
                        "branch condition depends on run-time data; both "
                        "arms skipped and their transfers waived",
                        self.loc(p, stmt), p.pid1,
                    )
                    self.waive_block(then)
                    self.waive_block(orelse)
                else:
                    p.stack.append(stmt)
                    try:
                        yield from self._exec_block(then if c else orelse, p)
                    finally:
                        p.stack.pop()
            case CallStmt():
                yield from self._exec_call(stmt, p)
            case CollectiveStmt():
                yield from self._exec_collective(stmt, p)
            case ExprStmt(expr):
                yield from self._eval(expr, p, rule=False)
            case _:  # pragma: no cover - exhaustive over Stmt
                raise TypeError(f"cannot verify statement {stmt!r}")

    def _exec_loop(self, stmt: DoLoop, p: _AProc):
        lo = yield from self._eval(stmt.lo, p, rule=False)
        hi = yield from self._eval(stmt.hi, p, rule=False)
        step = yield from self._eval(stmt.step, p, rule=False)
        if _UNKNOWN in (lo, hi, step):
            self.flag(
                "warning", "symbolic-loop",
                "loop bounds depend on run-time data; body skipped and its "
                "transfers waived", self.loc(p, stmt), p.pid1,
            )
            self.waive_block(stmt.body)
            return
        if step == 0:
            self.flag("error", "zero-step", "do-loop step of 0",
                      self.loc(p, stmt), p.pid1)
            return
        p.stack.append(stmt)
        try:
            i = int(lo)
            while (i <= hi) if step > 0 else (i >= hi):
                p.scalars[stmt.var] = i
                yield from self._exec_block(stmt.body, p)
                i += int(step)
        finally:
            p.stack.pop()

    def _exec_assign(self, target, expr, p: _AProc, stmt: Stmt):
        value = yield from self._eval(expr, p, rule=False)
        if isinstance(target, VarRef):
            p.scalars[target.name] = value
            return
        decl, sec = yield from self._resolve(target, p, stmt)
        if decl is None or (isinstance(decl, ArrayDecl) and decl.universal):
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

    def _exec_send(self, stmt: SendStmt, p: _AProc):
        loc = self.loc(p, stmt)
        decl, sec = yield from self._resolve(stmt.ref, p, stmt)
        if decl is None:
            return
        if isinstance(decl, ArrayDecl) and decl.universal:
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
        if stmt.dests is not None:
            dests = []
            for e in stmt.dests:
                v = yield from self._eval(e, p, rule=False)
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

    def _exec_recv(self, stmt: RecvStmt, p: _AProc):
        loc = self.loc(p, stmt)
        decl, into_sec = yield from self._resolve(stmt.into, p, stmt)
        if decl is None:
            return
        if isinstance(decl, ArrayDecl) and decl.universal:
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
            src_decl, src_sec = yield from self._resolve(stmt.source, p, stmt)
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

    def _exec_collective(self, stmt: CollectiveStmt, p: _AProc):
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

        lo, hi, step = stmt.group
        lo_v = yield from self._eval(lo, p, rule=False)
        hi_v = yield from self._eval(hi, p, rule=False)
        st_v = 1 if step is None else (
            yield from self._eval(step, p, rule=False))
        root_v = None
        if stmt.root is not None:
            root_v = yield from self._eval(stmt.root, p, rule=False)
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
        envs = [self._env(ref, p) for ref in (stmt.src, stmt.dst, stmt.scratch)
                if ref is not None]
        key = None if None in envs else (members, root_v, *envs)
        cmap = self._coll_maps.get(key)
        if cmap is None:
            flags = self._flags
            cmap = yield from self._coll_map(stmt, members, root_v, p)
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
        unresolved = universal = False

        def sec_of(ref: ArrayRef, g=None, d=None):
            """Resolve an operand with the binder values in scope."""
            nonlocal unresolved, universal
            bindings = {k: v for k, v in ((gb, g), (db, d))
                        if k is not None and v is not None}
            saved = {k: p.scalars.get(k, _ABSENT) for k in bindings}
            p.scalars.update(bindings)
            try:
                decl, sec = yield from self._resolve(ref, p, stmt)
            finally:
                for k, v in saved.items():
                    if v is _ABSENT:
                        p.scalars.pop(k, None)
                    else:
                        p.scalars[k] = v
            if isinstance(decl, ArrayDecl) and decl.universal:
                universal = True
                return None
            unresolved = unresolved or sec is None
            return sec

        op = stmt.op
        transfers: list[tuple[int, int, Section, Section]] = []
        scratches: dict[int, Section] = {}
        if op is CollOp.BROADCAST:
            ssec = yield from sec_of(stmt.src)
            for d in members:
                dsec = yield from sec_of(stmt.dst, d=d)
                if ssec is not None and dsec is not None:
                    transfers.append((root_v, d, ssec, dsec))
        elif op is CollOp.ALLGATHER:
            srcs: dict[int, Section | None] = {}
            for g in members:
                srcs[g] = yield from sec_of(stmt.src, g)
            for g in members:
                for d in members:
                    dsec = yield from sec_of(stmt.dst, g, d)
                    if srcs[g] is not None and dsec is not None:
                        transfers.append((g, d, srcs[g], dsec))
        elif op is CollOp.ALL_TO_ALL:
            for g in members:
                for d in members:
                    ssec = yield from sec_of(stmt.src, g, d)
                    dsec = yield from sec_of(stmt.dst, g, d)
                    if ssec is not None and dsec is not None:
                        transfers.append((g, d, ssec, dsec))
        else:  # REDUCE_SCATTER
            dsts: dict[int, Section | None] = {}
            for d in members:
                dsts[d] = yield from sec_of(stmt.dst, d=d)
                sc = yield from sec_of(stmt.scratch, d=d)
                if sc is not None:
                    scratches[d] = sc
            for g in members:
                for d in members:
                    ssec = yield from sec_of(stmt.src, g, d)
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

    def _exec_call(self, stmt: CallStmt, p: _AProc):
        # Kernels read and write their section arguments through the
        # run-time table: same checks as a read.
        for a in stmt.args:
            if isinstance(a, ArrayRef) and not a.is_element():
                yield from self._read(a, p, stmt, rule=False)
            else:
                yield from self._eval(a, p, rule=False)

    # -------------------------------------------------------------- #
    # expressions
    # -------------------------------------------------------------- #

    def _eval_rule(self, rule: Expr, p: _AProc, stmt: Stmt):
        try:
            v = yield from self._eval(rule, p, rule=True)
        except _RuleUnowned:
            return False
        except _RuleUnknown:
            return _UNKNOWN
        if v is _UNKNOWN:
            return _UNKNOWN
        return bool(v)

    def _read(self, ref: ArrayRef, p: _AProc, stmt: Stmt, *, rule: bool):
        decl, sec = yield from self._resolve(ref, p, stmt)
        if decl is None:
            return _UNKNOWN
        if isinstance(decl, ArrayDecl) and decl.universal:
            return _UNKNOWN
        if sec is None:
            if not rule:
                self.flag("warning", "unresolved-read",
                          f"cannot resolve read section of {ref.var}; "
                          "ownership of the read is unchecked",
                          self.loc(p, stmt), p.pid1)
                return _UNKNOWN
            raise _RuleUnknown()
        state = self.state_of(p.pid1, ref.var, sec)
        if state is _UNOWNED:
            if rule:
                # §2.4: an unowned reference makes the rule false.
                raise _RuleUnowned()
            self.flag("error", "unowned-read",
                      f"read of unowned section {ref.var}{sec}",
                      self.loc(p, stmt), p.pid1)
            return _UNKNOWN
        if state is _TRANSITIONAL:
            if rule:
                # Whether the message has arrived is timing-dependent: the
                # strict engine makes the rule false, a non-strict run reads
                # whatever was delivered.
                self.flag("warning", "rule-reads-transitional",
                          f"compute rule reads {ref.var}{sec} with a receive "
                          "in flight; its value is schedule-dependent",
                          self.loc(p, stmt), p.pid1)
                raise _RuleUnknown()
            self.flag("error", "stale-read",
                      f"read of {ref.var}{sec} with a receive initiated and "
                      "no await since", self.loc(p, stmt), p.pid1)
        return _UNKNOWN

    def _env(self, ref: ArrayRef, p: _AProc) -> tuple | None:
        """What resolving ``ref`` depends on in ``p``'s environment, as a
        key: the values of the scalars its subscripts mention, and ``mypid``
        only if they mention it.  ``None`` — never shared — when a subscript
        reads table state or a value is neither an int nor absent (``/``
        floors ints only; a binder is absent until its collective binds it)."""
        facts = self._ref_facts.get(id(ref))
        if facts is None:
            subs = [e for e in walk_exprs(ref) if e is not ref]
            names = tuple(sorted({e.name for e in subs if isinstance(e, VarRef)}))
            # (serial number, ...); ``ref`` is held so its id() stays unique.
            facts = self._ref_facts[id(ref)] = (
                None if any(isinstance(e, _TABLE_READS) for e in subs)
                else len(self._ref_facts),
                any(isinstance(e, Mypid) for e in subs), names, ref)
        serial, mypid, names, _ = facts
        vals = tuple(map(p.scalars.get, names))
        if serial is None or not all(map(_KEYABLE.__contains__, map(type, vals))):
            return None
        return (serial, mypid and p.pid1, *vals)

    def _resolve(self, ref: ArrayRef, p: _AProc, stmt: Stmt):
        """→ (decl, Section | None); (None, None) for undeclared names.
        Memoized per :meth:`_env` unless unresolved or a finding was raised."""
        key = self._env(ref, p)
        sec = self._sections.get(key)
        if sec is not None:
            return self.decls[ref.var], sec
        flags = self._flags
        res = yield from self._resolve_fresh(ref, p, stmt)
        if key is not None and res[1] is not None and self._flags == flags:
            sec = self._interned.setdefault(res[1], res[1])  # one per value
            self._sections[key] = sec
            return res[0], sec
        return res

    def _resolve_fresh(self, ref: ArrayRef, p: _AProc, stmt: Stmt):
        decl = self.decls.get(ref.var)
        if decl is None or isinstance(decl, ScalarDecl):
            self.flag("error", "unknown-variable",
                      f"{ref.var!r} is not a declared array",
                      self.loc(p, stmt), p.pid1)
            return None, None
        if len(ref.subs) != decl.rank:
            self.flag("error", "rank-mismatch",
                      f"{ref.var} has rank {decl.rank}, reference has "
                      f"{len(ref.subs)} subscripts", self.loc(p, stmt), p.pid1)
            return None, None
        dims: list[Triplet] = []
        for sub, (lo_b, hi_b) in zip(ref.subs, decl.bounds):
            match sub:
                case Full():
                    dims.append(Triplet(lo_b, hi_b, 1))
                case Index(expr):
                    v = yield from self._eval(expr, p, rule=False)
                    if v is _UNKNOWN:
                        return decl, None
                    dims.append(Triplet(int(v), int(v), 1))
                case Range(lo, hi, step):
                    parts: list[int] = []
                    for part, default in ((lo, lo_b), (hi, hi_b), (step, 1)):
                        if part is None:
                            parts.append(default)
                            continue
                        v = yield from self._eval(part, p, rule=False)
                        if v is _UNKNOWN:
                            return decl, None
                        parts.append(int(v))
                    try:
                        dims.append(Triplet(*parts))
                    except ValueError:
                        self.flag("error", "empty-section",
                                  f"empty triplet {parts[0]}:{parts[1]}:"
                                  f"{parts[2]} in reference to {ref.var}",
                                  self.loc(p, stmt), p.pid1)
                        return decl, None
        return decl, Section(tuple(dims))

    def _intrinsic_ref(self, ref: ArrayRef, p: _AProc, stmt: Stmt):
        """Resolve an intrinsic's first argument (name position)."""
        decl, sec = yield from self._resolve(ref, p, stmt)
        if decl is None:
            return None
        if isinstance(decl, ArrayDecl) and decl.universal:
            self.flag("error", "intrinsic-universal",
                      f"intrinsic on universal array {ref.var}: only "
                      "exclusive variables are tabulated",
                      self.loc(p, stmt), p.pid1)
            return None
        return sec

    def _eval(self, e: Expr, p: _AProc, *, rule: bool):
        match e:
            case IntConst(v) | FloatConst(v) | BoolConst(v):
                return v
            case VarRef(name):
                if name in p.scalars:
                    return p.scalars[name]
                if name in self.decls:   # array name used as a value
                    self.flag("error", "unknown-variable",
                              f"array {name!r} used without subscripts",
                              self.loc(p), p.pid1)
                    return _UNKNOWN
                self.flag("error", "undefined-scalar",
                          f"undefined scalar {name!r}", self.loc(p), p.pid1)
                return _UNKNOWN
            case Mypid():
                return p.pid1
            case NumProcs():
                return self.nprocs
            case MaxIntConst():
                return MAXINT
            case MinIntConst():
                return MININT
            case UnaryOp(op, operand):
                v = yield from self._eval(operand, p, rule=rule)
                if v is _UNKNOWN:
                    return _UNKNOWN
                return (not v) if op == "not" else (-v)
            case BinOp(op, lhs, rhs):
                return (yield from self._eval_binop(op, lhs, rhs, p, rule))
            case ArrayRef():
                return (yield from self._read(e, p, e, rule=rule))
            case Iown(ref):
                sec = yield from self._intrinsic_ref(ref, p, e)
                if sec is None:
                    return _UNKNOWN
                return self.iown(p.pid1, ref.var, sec)
            case Accessible(ref):
                sec = yield from self._intrinsic_ref(ref, p, e)
                if sec is None:
                    return _UNKNOWN
                state = self.state_of(p.pid1, ref.var, sec)
                if state is _TRANSITIONAL:
                    # Arrival timing decides; never a constant.
                    return _UNKNOWN
                return state is not _UNOWNED
            case Await(ref):
                sec = yield from self._intrinsic_ref(ref, p, e)
                if sec is None:
                    return _UNKNOWN
                if not self.iown(p.pid1, ref.var, sec):
                    return False
                yield _Wait(ref.var, sec, "await", self.loc(p, e))
                return True
            case Mylb(ref, dim) | Myub(ref, dim):
                sec = yield from self._intrinsic_ref(ref, p, e)
                d = yield from self._eval(dim, p, rule=rule)
                if sec is None or d is _UNKNOWN:
                    return _UNKNOWN
                k = int(d) - 1
                owned = [seg.segment.dims[k].intersect(sec.dims[k])
                         for seg in self.overlapping(p.pid1, ref.var, sec)]
                if isinstance(e, Mylb):
                    return min((t.lo for t in owned), default=MAXINT)
                return max((t.hi for t in owned), default=MININT)
            case _:  # pragma: no cover - exhaustive over Expr
                raise TypeError(f"cannot evaluate {e!r}")

    def _eval_binop(self, op: str, lhs: Expr, rhs: Expr, p: _AProc, rule: bool):
        if op in ("and", "or"):
            l = yield from self._eval(lhs, p, rule=rule)
            if l is not _UNKNOWN:
                if op == "and" and not l:
                    return False
                if op == "or" and l:
                    return True
                r = yield from self._eval(rhs, p, rule=rule)
                return r if r is _UNKNOWN else bool(r)
            # Unknown left side: the engine may or may not evaluate the
            # right side, so its rule-falsifying exceptions must not decide.
            try:
                r = yield from self._eval(rhs, p, rule=rule)
            except (_RuleUnowned, _RuleUnknown):
                return _UNKNOWN
            if r is _UNKNOWN:
                return _UNKNOWN
            # Kleene absorption: X and False = False, X or True = True.
            if op == "and" and not r:
                return False
            if op == "or" and r:
                return True
            return _UNKNOWN
        l = yield from self._eval(lhs, p, rule=rule)
        r = yield from self._eval(rhs, p, rule=rule)
        if l is _UNKNOWN or r is _UNKNOWN:
            return _UNKNOWN
        match op:
            case "+": return l + r
            case "-": return l - r
            case "*": return l * r
            case "/":
                if isinstance(l, int) and isinstance(r, int):
                    return l // r if r != 0 else 0
                return l / r if r != 0 else _UNKNOWN
            case "%": return l % r if r != 0 else _UNKNOWN
            case "==": return l == r
            case "!=": return l != r
            case "<": return l < r
            case "<=": return l <= r
            case ">": return l > r
            case ">=": return l >= r
            case "min": return min(l, r)
            case "max": return max(l, r)
        raise TypeError(f"unknown operator {op!r}")  # pragma: no cover

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
        return CommReport(
            nprocs=self.nprocs,
            findings=findings,
            events=self.events,
            complete=self.complete,
            waived=tuple(sorted(self.waived)),
        )

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
