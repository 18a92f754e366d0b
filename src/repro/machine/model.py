"""Machine cost models.

The paper's transfer operations are deliberately machine-independent; the
binding to real primitives is delayed to code generation (section 3.2),
where "on a shared-address computer such as the KSR1, receives and sends
might be translated as prefetch and poststore instructions; on a
message-passing machine, they would become calls to the communication
primitives".  A :class:`MachineModel` captures the constants that
differentiate those targets:

* ``o_send`` / ``o_recv`` — per-message processor occupancy (software
  overhead of initiating a send / receive);
* ``alpha`` — network latency from departure to arrival;
* ``per_byte`` — inverse bandwidth;
* ``flop_time`` — time per scalar arithmetic operation, used by the
  compute-cost accounting so communication/computation overlap is
  measurable in the same unit.

Virtual time is dimensionless ("units"); only ratios matter for the
paper's qualitative claims.  The presets put a medium-grain 1993
message-passing machine (per-message overhead and latency around a
thousand flops) next to a shared-address machine with cheap fine-grained
transfers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["MachineModel"]


@dataclass(frozen=True)
class MachineModel:
    """Constants of the simulated target machine (virtual time units)."""

    o_send: float = 20.0
    o_recv: float = 20.0
    alpha: float = 100.0
    per_byte: float = 0.25
    flop_time: float = 1.0
    elem_bytes: int = 8
    # -- shared-address binding constants (the paper's KSR1-style target;
    # used only by the shmem transport backend, see docs/BACKENDS.md) --
    #: Cache-line / transfer-unit granularity of the global address space.
    line_bytes: int = 64
    #: Processor occupancy of issuing one poststore (the store instruction
    #: itself; the memory system moves the lines asynchronously).
    o_post: float = 2.0
    #: Processor occupancy of issuing one prefetch.
    o_prefetch: float = 2.0
    #: Per-line injection occupancy of a poststore (the store buffer
    #: drains one line at a time through the processor's port).
    line_issue: float = 0.25
    #: Remote-memory round-trip latency (one line, uncontended).
    mem_latency: float = 60.0

    def message_cost(self, nbytes: int) -> float:
        """Departure-to-arrival delay of one message."""
        return self.alpha + nbytes * self.per_byte

    # -- shared-address costs ------------------------------------------- #

    def lines(self, nbytes: int) -> int:
        """Transfer units occupied by ``nbytes`` (min. 1: the name/fence
        token itself occupies a line even for a pure ownership transfer)."""
        return max(1, -(-nbytes // self.line_bytes))

    def post_occupancy(self, nbytes: int) -> float:
        """Sender-side occupancy of one poststore: issue plus store-buffer
        drain, line by line."""
        return self.o_post + self.line_issue * self.lines(nbytes)

    def store_cost(self, nbytes: int) -> float:
        """Delay from poststore issue until the lines are resident at the
        consumer (directed poststore) or at home (undirected store)."""
        return self.mem_latency + nbytes * self.per_byte

    def pull_cost(self, nbytes: int) -> float:
        """Extra delay a fence pays when the producer did *not* poststore
        toward this consumer: the lines must be pulled from their home."""
        return self.mem_latency + nbytes * self.per_byte

    def elems_cost(self, nelems: int) -> float:
        """Wire delay of ``nelems`` array elements."""
        return self.message_cost(nelems * self.elem_bytes)

    # ------------------------------------------------------------------ #
    # presets
    # ------------------------------------------------------------------ #

    @classmethod
    def message_passing(cls) -> "MachineModel":
        """A 1993-era distributed-memory message-passing machine: high
        per-message overhead and latency relative to flops."""
        return cls()

    @classmethod
    def shared_address(cls) -> "MachineModel":
        """A shared-address machine (the paper names the KSR1): sends and
        receives bind to prefetch/poststore — tiny per-operation overhead
        and latency, same aggregate bandwidth."""
        return cls(o_send=2.0, o_recv=2.0, alpha=10.0, per_byte=0.25)

    @classmethod
    def high_latency(cls) -> "MachineModel":
        """A network where latency dominates — message vectorization and
        pipelining matter most here."""
        return cls(alpha=1000.0, o_send=50.0, o_recv=50.0)

    def with_(self, **kw: float) -> "MachineModel":
        """Return a copy with some constants replaced."""
        return replace(self, **kw)
