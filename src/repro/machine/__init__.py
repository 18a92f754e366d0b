"""The simulated distributed-memory SPMD machine: cost model, messages,
effects, per-processor memory, statistics, and the discrete-event engine."""

from .effects import Compute, Effect, Log, RecvInit, Send, WaitAccessible
from .engine import (
    BACKENDS,
    HEADER_BYTES,
    Engine,
    NodeProgram,
    ProcessorContext,
)
from .scheduler import Scheduler
from .transport import (
    MessagePassingTransport,
    SharedAddressTransport,
    Transport,
    make_transport,
)
from ..runtime.memory import LocalMemory
from .message import Message, MessageName, MessagePool, TransferKind
from .model import MachineModel
from .stats import ProcStats, RunStats, TraceEvent

__all__ = [
    "Compute",
    "Send",
    "RecvInit",
    "WaitAccessible",
    "Log",
    "Effect",
    "Engine",
    "ProcessorContext",
    "NodeProgram",
    "HEADER_BYTES",
    "BACKENDS",
    "Scheduler",
    "Transport",
    "MessagePassingTransport",
    "SharedAddressTransport",
    "make_transport",
    "LocalMemory",
    "Message",
    "MessageName",
    "MessagePool",
    "TransferKind",
    "MachineModel",
    "ProcStats",
    "RunStats",
    "TraceEvent",
]
