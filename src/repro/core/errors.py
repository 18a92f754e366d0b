"""Exception hierarchy for the XDP reproduction.

All library-raised errors derive from :class:`XDPError` so applications can
catch reproduction-specific failures without masking programming errors.
"""

from __future__ import annotations

__all__ = [
    "XDPError",
    "ParseError",
    "VerificationError",
    "OwnershipError",
    "UnknownVariableError",
    "ProtocolError",
    "DeadlockError",
    "BudgetExhaustedError",
    "TransportError",
    "OracleMismatchError",
    "DegradedRunError",
    "DistributionError",
    "CompilationError",
    "ServeError",
    "ServiceOverloadError",
    "JobTimeoutError",
    "PoisonJobError",
    "ArtifactIntegrityError",
]


class XDPError(Exception):
    """Base class for all errors raised by the repro library."""


class ParseError(XDPError):
    """Raised by the IL+XDP / mini-language parser on malformed input."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        loc = f" at line {line}" if line is not None else ""
        loc += f", col {col}" if col is not None else ""
        super().__init__(f"{message}{loc}")


class VerificationError(XDPError):
    """Raised by the IR verifier when a program violates XDP's static rules
    (e.g. a compute rule with side effects, or a receive into a universal
    section)."""


class OwnershipError(XDPError):
    """Raised when a program performs an operation whose XDP preconditions
    on ownership are violated and the violation is detectable (e.g. sending
    a section the processor does not own).

    The paper leaves such programs with *unpredictable* results; the
    simulator flags them instead, since silent corruption would make the
    reproduction impossible to debug.
    """


class UnknownVariableError(XDPError):
    """Raised when a program names a variable that was never declared.

    Distinct from :class:`OwnershipError` so that compute-rule evaluation
    (where an *unowned* reference legally makes the rule false, paper
    section 2.4) does not silently swallow genuine typos.
    """


class ProtocolError(XDPError):
    """Raised on mismatched sends/receives (paper section 2.7: 'It is
    incorrect usage of XDP if the sections transferred in send and receive
    operations do not match')."""


class DeadlockError(XDPError):
    """Raised by the discrete-event engine when every live processor is
    blocked and no message is in flight.  XDP itself does not guarantee
    freedom from deadlock (paper section 1); the engine reports it."""


class BudgetExhaustedError(DeadlockError):
    """Raised by the discrete-event engine when a run exceeds its
    ``max_effects`` budget.

    This is a *resource limit*, not a proven deadlock: the program may
    simply be long-running (raise ``max_effects``) or livelocked.  It
    subclasses :class:`DeadlockError` for backward compatibility with
    callers that caught the budget case under that name.
    """


class TransportError(XDPError):
    """Raised by the reliable-delivery layer when a message exhausts its
    retransmit budget without a single copy arriving.

    The paper assumes a perfect transport (section 2.7 only defines
    *mismatched* sends/receives as errors); under an injected fault model
    a transfer can fail outright, and the engine surfaces that as this
    error instead of silently losing data.

    Attributes: ``name`` (the message tag), ``src``/``dst`` (0-based pids,
    ``dst`` may be None for unspecified-recipient sends) and ``attempts``
    (transmissions tried, original plus retransmits).
    """

    def __init__(
        self,
        message: str,
        *,
        name: object = None,
        src: int | None = None,
        dst: int | None = None,
        attempts: int = 0,
    ):
        self.name = name
        self.src = src
        self.dst = dst
        self.attempts = attempts
        super().__init__(message)


class OracleMismatchError(XDPError):
    """Raised by the ``proc`` backend when a real-parallel execution's
    final data diverges from the in-process simulation of the identical
    compiled program.

    The simulator is the semantic oracle of the real-parallelism backend
    (ROADMAP: delayed binding taken to actual cores): every ``proc`` run
    re-executes the program on forked workers and cross-checks a sha256
    digest of every processor's final symbol table against the simulated
    run.  A mismatch means the replay of the oracle's rendezvous schedule
    broke down — always a backend bug, never a user-program error — so it
    is surfaced loudly instead of returning silently wrong arrays.
    """


class DegradedRunError(XDPError):
    """Raised by the engine when a run finishes (or can make no further
    progress) after one or more processors fail-stopped.

    Graceful degradation instead of a hang: the error carries the partial
    :class:`~repro.machine.stats.RunStats` of the run (``stats``), the
    0-based pids that crashed (``crashed``) and a checkpoint of the
    *surviving* processors' run-time symbol tables (``checkpoint``, a
    ``{pid: RuntimeSymbolTable}`` dict) so callers can inspect or resume
    from what completed.
    """

    def __init__(
        self,
        message: str,
        *,
        stats: object = None,
        crashed: tuple[int, ...] = (),
        checkpoint: dict | None = None,
    ):
        self.stats = stats
        self.crashed = tuple(crashed)
        self.checkpoint = dict(checkpoint or {})
        super().__init__(message)


class ServeError(XDPError):
    """Base class for failures of the ``repro serve`` job service."""


class ServiceOverloadError(ServeError):
    """Raised when a job is submitted to a supervisor whose bounded queue
    is full.  Load shedding instead of unbounded buffering: the caller
    gets an immediate typed rejection (and may convert it into a ``shed``
    outcome) rather than a silently growing backlog."""


class JobTimeoutError(ServeError):
    """A job exceeded its per-attempt execution timeout.  Recorded as the
    failure cause of the attempt; the supervisor kills the hung worker and
    either retries the job or takes its degraded fallback path."""


class PoisonJobError(ServeError):
    """A job failed (crash/timeout) on every one of its allowed attempts
    and was quarantined as poison rather than retried forever."""


class ArtifactIntegrityError(ServeError):
    """A content-addressed artifact failed sha256 verification on read.

    In normal operation the store quarantines the corrupt file and
    reports a miss (the artifact is recomputed, never served); this error
    is raised only by ``ArtifactStore.get(..., strict=True)`` callers that
    want corruption to be loud.
    """


class DistributionError(XDPError):
    """Raised for invalid HPF-style distribution or segmentation requests."""


class CompilationError(XDPError):
    """Raised by translation/optimization passes on unsupported input."""
