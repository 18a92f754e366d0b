"""Pluggable transport backends for the SPMD engine (paper section 5).

The paper delays the binding of XDP transfer operations to concrete
communication primitives until code generation: "on a shared-address
computer such as the KSR1, receives and sends might be translated as
prefetch and poststore instructions; on a message-passing machine, they
would become calls to the communication primitives".  This package is
that binding point at run time:

* :class:`MessagePassingTransport` (``msg``) — sends become messages with
  a marshalled header, routed through per-destination FIFO channels and a
  global unclaimed pool;
* :class:`SharedAddressTransport` (``shmem``) — sends become non-blocking
  ``poststore`` operations into a global address space, receives become
  ``prefetch`` operations, and ``await`` binds to a completion *fence*.

Both backends realize the *same* abstract rendezvous relation (FIFO by
sequence number per ``(kind, name)`` tag — see
:class:`~repro.machine.transport.base.TagTransport`), which is what makes
programs *result-transparent* across backends: only costs, primitive
names, and diagnostics differ.  See docs/BACKENDS.md.
"""

from __future__ import annotations

import os

from .base import PendingRecv, RecvIndex, TagTransport, Transport
from .msg import HEADER_BYTES, MessagePassingTransport
from .shmem import SharedAddressTransport

__all__ = [
    "BACKENDS",
    "HEADER_BYTES",
    "MessagePassingTransport",
    "PendingRecv",
    "RecvIndex",
    "SharedAddressTransport",
    "TagTransport",
    "Transport",
    "default_backend",
    "make_transport",
]

#: The backend names accepted everywhere a backend can be chosen.
BACKENDS = ("msg", "shmem")


def default_backend() -> str:
    """The session-wide default backend (``REPRO_BACKEND``, else msg)."""
    return os.environ.get("REPRO_BACKEND", "msg")


def make_transport(backend: str | None = None) -> Transport:
    """Build a fresh base transport for ``backend`` (None: the default)."""
    if backend is None:
        backend = default_backend()
    if backend == "msg":
        return MessagePassingTransport()
    if backend == "shmem":
        return SharedAddressTransport()
    raise ValueError(
        f"unknown backend {backend!r} (choose from {', '.join(BACKENDS)})"
    )
