"""The discrete-event SPMD execution engine.

Every processor runs the *same* node program (SPMD, paper section 1) as a
Python generator yielding :mod:`~repro.machine.effects`.  The engine:

* advances per-processor virtual clocks, always resuming the runnable
  processor with the smallest clock so effects are processed in
  nondecreasing virtual-time order (which makes matching deterministic);
* performs sends and receives through a pluggable **transport backend**
  (paper section 5's delayed binding): ``msg`` binds them to
  message-passing primitives, ``shmem`` to non-blocking
  prefetch/poststore into a global address space — see
  docs/BACKENDS.md;
* applies receive *completions* to the receiver's run-time symbol table as
  timestamped events, so ``accessible()`` is false exactly until the
  completion time — the initiation/completion split of paper section 2.5;
* implements blocking (``await``, owner sends, receives into transitional
  sections) via the ``WaitAccessible`` effect, accounting blocked time as
  idle;
* detects deadlock: XDP itself does not guarantee freedom from deadlock
  (the compiler must), so the engine reports it rather than hanging.

Architecture (see docs/ENGINE.md)
---------------------------------

Since the scheduler/transport split, this module only *composes* the
engine:

* :class:`~repro.machine.scheduler.Scheduler` — the backend-agnostic
  core: min-``(clock, pid)`` heap loop, completion application (one code
  path), processor faults, quiescence/deadlock detection, stats;
* :mod:`~repro.machine.transport` — the backends
  (:class:`MessagePassingTransport`, :class:`SharedAddressTransport`)
  and the fault-injection / reliable-delivery middleware that wraps
  either one.

**Multicast model**: a send with several destinations is *serialized
injection* — the sender pays the per-copy occupancy on its own clock
before each copy enters the network, so later destinations observe later
send and arrival times (one network interface injecting copies
back-to-back).  This is intentional and pinned by tests.

**Reuse**: an :class:`Engine` may run several programs in sequence; every
``run()`` starts from fresh transport state, trace, logs, and seq numbers
— including after a run that *raised* (deadlock, exhausted budget, failed
transport, degraded run).  Symbol tables (declared variables, their
ownership and data) deliberately persist across runs so programs can be
chained over the same arrays.

**Faults** (see docs/FAULTS.md): an optional
:class:`~repro.machine.faults.FaultModel` makes the transport lossy
(drop/duplicate/jitter per tag) and the processors mortal (stalls,
fail-stop crashes); an optional
:class:`~repro.machine.reliable.ReliableTransport` restores
perfect-transport semantics over the lossy network via ack/timeout/
retransmit so node programs run unchanged.  All stochastic behavior draws
from one ``random.Random(seed)`` reset at the start of every run, so a
run is bit-reproducible from its seed (recorded in ``RunStats.seed``).
"""

from __future__ import annotations

from .faults import FaultModel
from .model import MachineModel
from .reliable import ReliableTransport
from .scheduler import NodeProgram, ProcessorContext, Scheduler
from .transport import (
    BACKENDS,
    FaultInjection,
    ReliableDelivery,
    Transport,
    make_transport,
)
from .transport.msg import HEADER_BYTES  # noqa: F401  (re-export)

__all__ = [
    "BACKENDS",
    "Engine",
    "HEADER_BYTES",
    "NodeProgram",
    "ProcessorContext",
]


class Engine(Scheduler):
    """Runs one SPMD node program on ``nprocs`` simulated processors.

    ``backend`` selects the transport binding (``"msg"`` or ``"shmem"``;
    default: the ``REPRO_BACKEND`` environment variable, else ``msg``).
    A pre-built :class:`~repro.machine.transport.Transport` may be passed
    instead via ``transport`` (contract tests use this to hand-assemble
    middleware stacks).  ``faults``/``reliable`` wrap the chosen backend
    in the corresponding middleware exactly as the monolithic engine
    behaved: reliable delivery *replaces* the raw lossy path.

    There is one execution core — the scheduler's min-``(clock, pid)``
    loop — whatever the transport, middleware, fault model or tracing.
    """

    def __init__(
        self,
        nprocs: int,
        model: MachineModel | None = None,
        *,
        strict: bool = False,
        trace: bool = False,
        max_effects: int = 10_000_000,
        seed: int = 0,
        faults: FaultModel | None = None,
        reliable: ReliableTransport | None = None,
        backend: str | None = None,
        transport: Transport | None = None,
    ):
        if transport is None:
            transport = make_transport(backend)
        elif backend is not None and backend != transport.name:
            raise ValueError(
                f"backend={backend!r} contradicts the supplied "
                f"{transport.name!r} transport"
            )
        if reliable is not None:
            transport = ReliableDelivery(transport, reliable)
        elif faults is not None:
            transport = FaultInjection(transport, faults)
        super().__init__(
            nprocs,
            model,
            transport=transport,
            strict=strict,
            trace=trace,
            max_effects=max_effects,
            seed=seed,
            faults=faults,
            reliable=reliable,
        )

    @property
    def backend(self) -> str:
        """Name of the transport backend this engine is bound to."""
        return self.transport.name
