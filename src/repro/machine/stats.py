"""Execution statistics and event traces.

The paper's claims are about *counts and overlap* — how many messages a
compilation strategy issues, how much of the transfer latency computation
hides.  These records make those quantities first-class outputs of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ProcStats", "TraceEvent", "RunStats"]


@dataclass
class ProcStats:
    """Per-processor accounting (virtual time units / counts)."""

    pid: int
    compute_time: float = 0.0
    send_overhead: float = 0.0
    recv_overhead: float = 0.0
    idle_time: float = 0.0
    msgs_sent: int = 0
    msgs_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    flops: int = 0
    finish_time: float = 0.0

    @property
    def busy_time(self) -> float:
        return self.compute_time + self.send_overhead + self.recv_overhead


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped event (kept only when tracing is enabled)."""

    time: float
    pid: int
    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"t={self.time:10.2f} P{self.pid + 1} {self.kind:12s} {self.detail}"


@dataclass
class RunStats:
    """Aggregate results of one engine run."""

    procs: list[ProcStats] = field(default_factory=list)
    makespan: float = 0.0
    total_messages: int = 0
    total_bytes: int = 0
    unclaimed_messages: int = 0
    unmatched_receives: int = 0
    #: Number of effects the engine scheduled — the discrete-event "work"
    #: of the run, and the numerator of the bench harness's effects/sec.
    effects_processed: int = 0
    logs: list[tuple[float, int, str]] = field(default_factory=list)
    trace: list[TraceEvent] = field(default_factory=list)

    @property
    def total_compute_time(self) -> float:
        return sum(p.compute_time for p in self.procs)

    @property
    def total_idle_time(self) -> float:
        return sum(p.idle_time for p in self.procs)

    @property
    def total_overhead(self) -> float:
        return sum(p.send_overhead + p.recv_overhead for p in self.procs)

    def summary(self) -> str:
        """Compact human-readable table of the run."""
        lines = [
            f"makespan: {self.makespan:.2f}  messages: {self.total_messages}"
            f"  bytes: {self.total_bytes}  effects: {self.effects_processed}",
            " pid   compute      send      recv      idle    finish  msgs(out/in)",
        ]
        for p in self.procs:
            lines.append(
                f"  P{p.pid + 1}  {p.compute_time:8.2f}  {p.send_overhead:8.2f}"
                f"  {p.recv_overhead:8.2f}  {p.idle_time:8.2f}  {p.finish_time:8.2f}"
                f"   {p.msgs_sent}/{p.msgs_received}"
            )
        if self.unclaimed_messages or self.unmatched_receives:
            lines.append(
                f"  WARNING: {self.unclaimed_messages} unclaimed messages, "
                f"{self.unmatched_receives} unmatched receives"
            )
        return "\n".join(lines)
