"""Collective communication subsystem.

First-class collective transfer primitives (``broadcast``, ``allgather``,
``all_to_all``, ``reduce_scatter``).  The pieces:

* :mod:`~repro.core.collectives.schedule` — the one lowering: every
  collective runs the *flat* schedule (bulk poststore/prefetch with
  fences), except that a broadcast on the message backend runs as a
  binomial tree where a cost rule favours it (large group, small payload).  Both produce bit-identical results:
  values travel verbatim and reductions combine in one canonical order.
* :mod:`~repro.core.collectives.desugar` — expansion of a
  :class:`~repro.core.ir.nodes.CollectiveStmt` into the equivalent flat
  point-to-point IL, kept only as the tests' oracle.
"""

from .schedule import CollInstance, collective_ops, execute_ops

__all__ = [
    "CollInstance",
    "collective_ops",
    "execute_ops",
]


def build_instance(*_args, **_kwargs):
    """Removed with the tree-walking interpreter; only the name is left,
    and it is not exported.

    The frozen ledger (``benchmarks/e2e/trace.py``) still lists
    ``repro.core.collectives:build_instance`` under
    ``core.collectives.busy_s``, and its self-test fails while any listed
    name does not resolve.  Delete this together with that entry.
    """
    raise NotImplementedError(
        "collective instances are built by the lowered VM "
        "(repro.core.codegen.lower._run_collective)"
    )
