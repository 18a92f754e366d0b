"""IL+XDP abstract syntax (paper section 2, Figure 1).

The paper defines XDP as *extensions* to a compiler intermediate language:
a small host IL (scalar/array variables, assignments, ``do`` loops, calls)
is augmented with

* **compute rules** — side-effect-free boolean guards written
  ``rule : { statements }``;
* **send statements** — ``E ->`` (value, unspecified recipient),
  ``E -> S`` (value, annotated recipients / multicast), ``E =>``
  (ownership only) and ``E -=>`` (ownership and value);
* **receive statements** — ``E <- X`` (value named X into owned E),
  ``U <=`` (ownership only) and ``U <=-`` (ownership and value);
* **intrinsics** — ``mypid``, ``mylb``, ``myub``, ``iown``,
  ``accessible``, ``await``.

Nodes are immutable dataclasses; optimization passes rebuild the parts of
the tree they change (see :mod:`repro.core.ir.visitor`).  Array subscripts
use Fortran-90 triplet notation, with ``*`` for a full dimension.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    # subscripts
    "Subscript", "Index", "Range", "Full",
    # expressions
    "Expr", "IntConst", "FloatConst", "BoolConst", "VarRef", "Mypid",
    "MaxIntConst", "MinIntConst", "BinOp", "UnaryOp", "ArrayRef",
    "Iown", "Accessible", "Await", "Mylb", "Myub", "NumProcs",
    # statements
    "Stmt", "Block", "Assign", "SendStmt", "RecvStmt", "DoLoop", "IfStmt",
    "CallStmt", "ExprStmt", "Guarded", "CollectiveStmt",
    # declarations / program
    "Decl", "ArrayDecl", "ScalarDecl", "Program",
    # kinds
    "XferOp", "CollOp",
]


# ---------------------------------------------------------------------- #
# subscripts
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Index:
    """A scalar subscript, e.g. the ``i`` of ``A[i]``."""

    expr: "Expr"


@dataclass(frozen=True)
class Range:
    """A triplet subscript ``lo:hi[:step]``; ``None`` bounds default to the
    declared array bounds for that dimension."""

    lo: "Expr | None"
    hi: "Expr | None"
    step: "Expr | None" = None


@dataclass(frozen=True)
class Full:
    """The ``*`` subscript: the whole declared extent of a dimension."""


Subscript = Index | Range | Full


# ---------------------------------------------------------------------- #
# expressions
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class FloatConst:
    value: float


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class VarRef:
    """A scalar variable reference (universal scalars live per-processor)."""

    name: str


@dataclass(frozen=True)
class Mypid:
    """The intrinsic ``mypid``: this processor's unique id.

    The paper's processors are numbered 1-based (``P1..P4``); ``mypid``
    evaluates to the 1-based id so programs read like the paper's examples
    (e.g. ``T[mypid]`` with ``T[1:nprocs]``)."""


@dataclass(frozen=True)
class NumProcs:
    """The number of processors executing the SPMD program (host-IL
    convenience; HPF's ``NUMBER_OF_PROCESSORS``)."""


@dataclass(frozen=True)
class MaxIntConst:
    """MAXINT — returned by ``mylb`` when nothing is owned."""


@dataclass(frozen=True)
class MinIntConst:
    """MININT — returned by ``myub`` when nothing is owned."""


@dataclass(frozen=True)
class BinOp:
    """Binary operation; ``op`` is one of
    ``+ - * / % == != < <= > >= and or min max``."""

    op: str
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class UnaryOp:
    """Unary operation; ``op`` is ``-`` or ``not``."""

    op: str
    operand: "Expr"


@dataclass(frozen=True)
class ArrayRef:
    """A subscripted array reference ``A[subs]``.

    Depending on position this is a *value* (all-scalar subscripts read one
    element; triplet subscripts read a dense sub-array) or a *name* (the
    operand of transfer statements and the first argument of intrinsics —
    paper section 2.1 distinguishes the two)."""

    var: str
    subs: tuple[Subscript, ...]

    def is_element(self) -> bool:
        return all(isinstance(s, Index) for s in self.subs)


@dataclass(frozen=True)
class Iown:
    """``iown(X)``: true iff the executing processor owns all of X."""

    ref: ArrayRef


@dataclass(frozen=True)
class Accessible:
    """``accessible(X)``: owned and no uncompleted receive."""

    ref: ArrayRef


@dataclass(frozen=True)
class Await:
    """``await(X)``: false if unowned, else blocks until accessible."""

    ref: ArrayRef


@dataclass(frozen=True)
class Mylb:
    """``mylb(X, d)``: smallest owned index of X in dimension d, else MAXINT."""

    ref: ArrayRef
    dim: "Expr"


@dataclass(frozen=True)
class Myub:
    """``myub(X, d)``: largest owned index of X in dimension d, else MININT."""

    ref: ArrayRef
    dim: "Expr"


Expr = (
    IntConst | FloatConst | BoolConst | VarRef | Mypid | NumProcs
    | MaxIntConst | MinIntConst | BinOp | UnaryOp | ArrayRef
    | Iown | Accessible | Await | Mylb | Myub
)


# ---------------------------------------------------------------------- #
# statements
# ---------------------------------------------------------------------- #


class XferOp(enum.Enum):
    """The seven transfer statement forms of Figure 1."""

    SEND_VALUE = "->"        # E ->  /  E -> S
    SEND_OWNER = "=>"        # E =>
    SEND_OWNER_VALUE = "-=>" # E -=>
    RECV_VALUE = "<-"        # E <- X
    RECV_OWNER = "<="        # U <=
    RECV_OWNER_VALUE = "<=-" # U <=-

    @property
    def moves_ownership(self) -> bool:
        return self not in (XferOp.SEND_VALUE, XferOp.RECV_VALUE)

    @property
    def moves_value(self) -> bool:
        return self not in (XferOp.SEND_OWNER, XferOp.RECV_OWNER)


@dataclass(frozen=True)
class Block:
    """A statement sequence."""

    stmts: tuple["Stmt", ...] = ()

    def __iter__(self):
        return iter(self.stmts)

    def __len__(self) -> int:
        return len(self.stmts)


@dataclass(frozen=True)
class Guarded:
    """``rule : { body }`` — the body executes only where the compute rule
    evaluates true.  Any reference to an unowned section inside the rule
    (outside intrinsic first arguments) makes the rule false (section 2.4)."""

    rule: Expr
    body: Block


@dataclass(frozen=True)
class Assign:
    """``target = expr`` — elementwise when the target is a section."""

    target: ArrayRef | VarRef
    expr: Expr


@dataclass(frozen=True)
class SendStmt:
    """``E ->`` / ``E -> S`` / ``E =>`` / ``E -=>``.

    ``dests`` is ``None`` for the unspecified-recipient form; otherwise a
    tuple of pid-valued expressions (a single pid annotates the recipient,
    several make a multicast — section 2.6)."""

    ref: ArrayRef
    op: XferOp
    dests: tuple[Expr, ...] | None = None


@dataclass(frozen=True)
class RecvStmt:
    """``E <- X`` / ``U <=`` / ``U <=-``.

    For value receives ``into`` is E (owned destination) and ``source`` is
    the message name X; for ownership receives they coincide (U)."""

    into: ArrayRef
    op: XferOp
    source: ArrayRef | None = None

    def message_ref(self) -> ArrayRef:
        return self.source if self.source is not None else self.into


@dataclass(frozen=True)
class DoLoop:
    """``do var = lo, hi [, step] ... enddo``; the induction variable is a
    universal scalar (every processor iterates — section 2.2)."""

    var: str
    lo: Expr
    hi: Expr
    step: Expr = field(default_factory=lambda: IntConst(1))
    body: Block = field(default_factory=Block)


@dataclass(frozen=True)
class IfStmt:
    """Host-IL conditional (distinct from compute rules, which are the
    XDP-specific guard form)."""

    cond: Expr
    then: Block
    orelse: Block = field(default_factory=Block)


@dataclass(frozen=True)
class CallStmt:
    """A call to a registered computation kernel, e.g. ``fft1D(A[i,*,k])``.

    Section-valued arguments are passed as names; the kernel reads and
    writes the section through the run-time table."""

    name: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class ExprStmt:
    """An expression evaluated for effect, e.g. a bare ``await(T[mypid])``."""

    expr: Expr


class CollOp(enum.Enum):
    """The collective transfer primitives (group-wide counterparts of the
    Figure 1 point-to-point forms)."""

    BROADCAST = "broadcast"
    ALLGATHER = "allgather"
    ALL_TO_ALL = "all_to_all"
    REDUCE_SCATTER = "reduce_scatter"

    __hash__ = object.__hash__


@dataclass(frozen=True)
class CollectiveStmt:
    """A first-class collective transfer::

        coll broadcast(d in 1:4, root 2) A[1:8] into W[d, 1:8]
        coll allgather(g, d in 1:4) A[(g-1)*4+1:g*4] into W[d, (g-1)*4+1:g*4]
        coll all_to_all(g, d in 1:4) C[g, d, 1:8] into T[d, g, 1:8]
        coll reduce_scatter(g, d in 1:4, op +) C[g, d, 1:8] into R[d, 1:8] via S[d, 1:8]

    ``binders`` name the contributor (``g``, absent for broadcast) and
    destination (``d``) roles; ``group`` is a 1-based pid triplet
    ``lo:hi[:step]`` evaluated identically on every processor (``mypid``
    is forbidden in the group, the root, the reduce op and every subscript
    — all members must compute all message names).  ``src`` with the
    binders bound selects the chunk contributed by processor ``g`` for
    destination ``d``; ``dst`` with ``d`` bound to the receiver selects
    that receiver's (exclusively owned) landing section.  Collectives move
    *values* only: ownership never changes hands, and the statement
    completes synchronously — every landing section is accessible when it
    returns.  ``reduce_scatter`` additionally names a per-destination
    ``scratch`` staging section (``via``) and an elementwise ``reduce_op``
    in ``+ min max``; partial sums combine in cyclic group order starting
    after the destination, own contribution last, so every backend and
    schedule produces bit-identical results."""

    op: CollOp
    binders: tuple[str, ...]
    group: tuple[Expr, Expr, Expr | None]
    src: ArrayRef
    dst: ArrayRef
    root: Expr | None = None
    reduce_op: str | None = None
    scratch: ArrayRef | None = None

    @property
    def g_binder(self) -> str | None:
        return self.binders[0] if len(self.binders) == 2 else None

    @property
    def d_binder(self) -> str:
        return self.binders[-1]


Stmt = (
    Guarded | Assign | SendStmt | RecvStmt | DoLoop | IfStmt | CallStmt
    | ExprStmt | CollectiveStmt
)


# ---------------------------------------------------------------------- #
# declarations and programs
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ArrayDecl:
    """An array declaration.

    ``dist`` is the HPF-style spec string (e.g. ``"(*, BLOCK)"``) for
    exclusively-owned distributed arrays, or ``None`` with
    ``universal=True`` for replicated arrays (every processor holds a
    private full copy — "universally owned", section 2.1).
    ``segment_shape`` is the compiler-chosen transfer granularity."""

    name: str
    bounds: tuple[tuple[int, int], ...]
    dist: str | None = None
    segment_shape: tuple[int, ...] | None = None
    universal: bool = False
    dtype: str = "float64"

    @property
    def rank(self) -> int:
        return len(self.bounds)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in self.bounds)


@dataclass(frozen=True)
class ScalarDecl:
    """A universal scalar: each processor has its own copy (like ``i`` in
    the paper's first example)."""

    name: str
    init: Expr | None = None
    dtype: str = "int64"


Decl = ArrayDecl | ScalarDecl


@dataclass(frozen=True)
class Program:
    """A complete IL+XDP SPMD node program: declarations plus body."""

    decls: tuple[Decl, ...]
    body: Block

    def decl(self, name: str) -> Decl:
        for d in self.decls:
            if d.name == name:
                return d
        raise KeyError(f"no declaration named {name!r}")

    def array_decls(self) -> list[ArrayDecl]:
        return [d for d in self.decls if isinstance(d, ArrayDecl)]

    def scalar_decls(self) -> list[ScalarDecl]:
        return [d for d in self.decls if isinstance(d, ScalarDecl)]
