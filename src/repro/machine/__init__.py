"""The simulated distributed-memory SPMD machine: cost model, messages,
effects, per-processor memory, statistics, and the discrete-event engine."""

from .effects import Compute, Effect, Log, RecvInit, Send, WaitAccessible
from .engine import (
    BACKENDS,
    HEADER_BYTES,
    SIM_BACKENDS,
    Engine,
    NodeProgram,
    ProcessorContext,
)
from .scheduler import Scheduler
from .transport import (
    FaultInjection,
    MessagePassingTransport,
    ProcTransport,
    ReliableDelivery,
    SharedAddressTransport,
    Transport,
    make_transport,
)
from ..runtime.memory import LocalMemory
from .faults import Crash, FaultModel, FaultSpec, Stall
from .message import Message, MessageName, MessagePool, TransferKind
from .model import MachineModel
from .reliable import Delivery, ReliableTransport
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
    "SIM_BACKENDS",
    "Scheduler",
    "Transport",
    "MessagePassingTransport",
    "SharedAddressTransport",
    "ProcTransport",
    "FaultInjection",
    "ReliableDelivery",
    "make_transport",
    "LocalMemory",
    "Crash",
    "FaultModel",
    "FaultSpec",
    "Stall",
    "Message",
    "MessageName",
    "MessagePool",
    "TransferKind",
    "MachineModel",
    "Delivery",
    "ReliableTransport",
    "ProcStats",
    "RunStats",
    "TraceEvent",
]
