"""The per-processor redistribution emitter ``repro.core.redistgen`` used
before it emitted closed SPMD form, kept as the differential oracle for
``tests/test_redistgen.py``: one ``mypid == k`` guard per transfer, sends
first, then the matching receives.
Also :func:`dist_from_spec`, the tests' shorthand for a distribution.
"""

from __future__ import annotations

from repro.core.ir.nodes import (
    ArrayRef, BinOp, Block, Guarded, IntConst, Mypid, RecvStmt, SendStmt,
    Stmt, XferOp,
)
from repro.core.analysis.layouts import split_dist_spec
from repro.core.redistgen import section_to_subscripts
from repro.core.sections import Section, Triplet
from repro.distributions import Distribution, RedistributionPlan, parse_dist_spec


def dist_from_spec(spec: str, bounds, grid) -> Distribution:
    """A :class:`Distribution` from an HPF spec string like
    ``"(*, BLOCK)"`` over ``bounds`` (inclusive ``(lo, hi)`` pairs)."""
    specs = tuple(parse_dist_spec(s) for s in split_dist_spec(spec))
    space = Section(tuple(Triplet(lo, hi, 1) for lo, hi in bounds))
    return Distribution(space, specs, grid)


def _on_pid(pid0: int, stmt: Stmt) -> Guarded:
    return Guarded(BinOp("==", Mypid(), IntConst(pid0 + 1)), Block((stmt,)))


def redistribution_statements(
    var: str,
    plan: RedistributionPlan,
    *,
    with_value: bool = True,
) -> list[Stmt]:
    send_op = XferOp.SEND_OWNER_VALUE if with_value else XferOp.SEND_OWNER
    recv_op = XferOp.RECV_OWNER_VALUE if with_value else XferOp.RECV_OWNER
    sends: list[Stmt] = []
    recvs: list[Stmt] = []
    emitted: set[tuple[int, int, object]] = set()
    for m in plan.moves:
        if m.src == m.dst:
            continue
        key = (m.src, m.dst, m.section)
        if key in emitted:
            continue
        emitted.add(key)
        ref = ArrayRef(var, section_to_subscripts(m.section))
        sends.append(
            _on_pid(m.src, SendStmt(ref, send_op, (IntConst(m.dst + 1),)))
        )
        recvs.append(_on_pid(m.dst, RecvStmt(ref, recv_op)))
    return sends + recvs
