"""Messages and transfer kinds.

A message carries the *name* of a section (variable + concrete section —
the paper's footnote 2: "the name is used as a tag to associate a send with
a corresponding receive") plus, depending on the transfer kind, the value
and/or ownership.  Destinations may be unspecified (``E ->``, ``E -=>``):
such messages sit in a global pool claimable by any processor whose receive
names the same section — the mechanism behind the paper's section-2.7 load
balancing.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..core.sections import Section

__all__ = ["TransferKind", "MessageName", "Message", "MessagePool"]


class TransferKind(enum.Enum):
    """What a transfer statement moves (paper Figure 1)."""

    VALUE = "value"          # E ->   /  E <- X
    OWNERSHIP = "ownership"  # E =>   /  U <=
    OWN_VALUE = "own_value"  # E -=>  /  U <=-

    # Members are singletons compared by identity, so the C-level identity
    # hash is equivalent to (and ~5x cheaper than) Enum.__hash__, which is
    # a Python-level call — and a kind sits in every rendezvous-tag key.
    __hash__ = object.__hash__

    @property
    def moves_value(self) -> bool:
        return self is not TransferKind.OWNERSHIP

    @property
    def moves_ownership(self) -> bool:
        return self is not TransferKind.VALUE


@dataclass(frozen=True)
class MessageName:
    """The tag associating a send with its receive: variable + section.

    Hashed on every pool/pending-index lookup; the hash is memoized in a
    non-field slot (sections, and hence names, are immutable).
    """

    __slots__ = ("var", "sec", "_hash")

    var: str
    sec: Section

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.var, self.sec))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        return (self.var, self.sec)

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "var", state[0])
        object.__setattr__(self, "sec", state[1])
        object.__setattr__(self, "_hash", None)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.var}{self.sec}"


@dataclass(slots=True)
class Message:
    """One in-flight transfer."""

    seq: int
    kind: TransferKind
    name: MessageName
    payload: np.ndarray | None
    src: int
    dst: int | None            # None: unspecified recipient
    send_time: float
    arrive_time: float
    claimed: bool = False

    @property
    def nbytes(self) -> int:
        return 0 if self.payload is None else self.payload.nbytes

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        to = "?" if self.dst is None else f"P{self.dst + 1}"
        return (
            f"msg#{self.seq} {self.kind.value} {self.name} "
            f"P{self.src + 1}->{to} @{self.send_time:.1f}->{self.arrive_time:.1f}"
        )


class MessagePool:
    """Unclaimed messages for one ``(kind, name)`` tag, indexed for O(1) claim.

    Directed messages (``dst`` set) and unspecified-recipient messages
    (``dst is None``) are kept in separate FIFO queues — directed ones
    further keyed by destination — so a processor claiming a message never
    scans past traffic addressed to someone else.  Because ``seq`` numbers
    are allocated in engine order, every queue is individually seq-sorted
    and a claim only has to compare the two queue heads to preserve the
    global FIFO-by-seq matching discipline of paper section 2.7.
    """

    __slots__ = ("by_dst", "anydst", "live")

    def __init__(self) -> None:
        self.by_dst: dict[int, deque[Message]] = {}
        self.anydst: deque[Message] = deque()
        self.live = 0

    def __len__(self) -> int:
        return self.live

    def __iter__(self) -> Iterator[Message]:
        """All unclaimed messages, in seq order (diagnostics only)."""
        return iter(sorted(
            [*self.anydst, *(m for q in self.by_dst.values() for m in q)],
            key=lambda m: m.seq,
        ))

    def add(self, msg: Message) -> None:
        if msg.dst is None:
            self.anydst.append(msg)
        else:
            self.by_dst.setdefault(msg.dst, deque()).append(msg)
        self.live += 1

    def claim_for(self, pid: int) -> Message | None:
        """Pop the earliest-seq message claimable by ``pid``, if any."""
        directed = self.by_dst.get(pid)
        if directed:
            if not self.anydst or directed[0].seq < self.anydst[0].seq:
                self.live -= 1
                return directed.popleft()
        if self.anydst:
            self.live -= 1
            return self.anydst.popleft()
        return None
