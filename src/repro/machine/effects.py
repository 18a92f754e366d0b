"""Effects: the interface between node programs and the engine.

A node program (the lowered instruction stream of
:mod:`repro.core.codegen`, or a prebuilt effect program) runs as a Python
generator that *yields* effects; the discrete-event engine consumes
them, advances virtual time, performs communication, and resumes the
generator.  This realises the paper's central separation: local computation
(``Compute``) is a different effect from data transfer (``Send`` /
``RecvInit``), so the engine can overlap them and account for each.

Synchronisation is a single primitive, ``WaitAccessible`` — the blocking
behaviour of ``await()``, of owner sends ("blocks until E is accessible")
and of value receives into transitional sections is expressed by the
program yielding it before the operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.sections import Section
from .message import TransferKind

__all__ = ["Compute", "Send", "RecvInit", "WaitAccessible", "Log", "Effect"]


@dataclass(frozen=True, slots=True)
class Compute:
    """Local computation occupying the processor for ``cost`` time units."""

    cost: float
    flops: int = 0
    what: str = ""


@dataclass(frozen=True, slots=True)
class Send:
    """Initiation of a send statement.

    ``dests=None`` is the unspecified-recipient form (``E ->``); a tuple of
    pids is the annotated/multicast form (``E -> S``).  ``payload`` is the
    gathered value for value-moving kinds, ``None`` for ``E =>``.
    For ownership-moving kinds the engine performs the symbol-table release
    (the program must have awaited accessibility first).
    """

    kind: TransferKind
    var: str
    sec: Section
    dests: tuple[int, ...] | None = None


@dataclass(frozen=True, slots=True)
class RecvInit:
    """Initiation of a receive statement.

    ``var``/``sec`` name the *message* being claimed (the send side's name
    tag).  For a value receive (``E <- X``), ``into_var``/``into_sec``
    designate the owned destination section E; for ownership receives they
    equal the message name (``U``)."""

    kind: TransferKind
    var: str
    sec: Section
    into_var: str = ""
    into_sec: Section | None = None

    def destination(self) -> tuple[str, Section]:
        if self.into_sec is None:
            return self.var, self.sec
        return self.into_var, self.into_sec


@dataclass(frozen=True, slots=True)
class WaitAccessible:
    """Block until the named section is accessible on this processor."""

    var: str
    sec: Section


@dataclass(frozen=True, slots=True)
class Log:
    """A trace-visible message from the program (used by the debugger-
    monitor example; costs nothing)."""

    text: str
    payload: tuple = field(default_factory=tuple)


Effect = Compute | Send | RecvInit | WaitAccessible | Log
