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
  path), quiescence/deadlock detection, stats;
* :mod:`~repro.machine.transport` — the backends
  (:class:`MessagePassingTransport`, :class:`SharedAddressTransport`).

**Multicast model**: a send with several destinations is *serialized
injection* — the sender pays the per-copy occupancy on its own clock
before each copy enters the network, so later destinations observe later
send and arrival times (one network interface injecting copies
back-to-back).  This is intentional and pinned by tests.

**Reuse**: an :class:`Engine` may run several programs in sequence; every
``run()`` starts from fresh transport state, trace, logs, and seq numbers
— including after a run that *raised* (deadlock, exhausted budget,
protocol error).  Symbol tables (declared variables, their
ownership and data) deliberately persist across runs so programs can be
chained over the same arrays.

The machine is the paper's: the network never loses or duplicates a
message, and no processor fails.  Nothing in a run is random,
so the same program on the same engine always yields the same run.
"""

from __future__ import annotations

from .model import MachineModel
from .scheduler import NodeProgram, ProcessorContext, Scheduler
from .transport import BACKENDS, make_transport
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

    There is one execution core — the scheduler's min-``(clock, pid)``
    loop — whatever the transport or tracing.
    """

    def __init__(
        self,
        nprocs: int,
        model: MachineModel | None = None,
        *,
        strict: bool = False,
        trace: bool = False,
        max_effects: int = 10_000_000,
        backend: str | None = None,
    ):
        super().__init__(
            nprocs,
            model,
            transport=make_transport(backend),
            strict=strict,
            trace=trace,
            max_effects=max_effects,
        )

    @property
    def backend(self) -> str:
        """Name of the transport backend this engine is bound to."""
        return self.transport.name
