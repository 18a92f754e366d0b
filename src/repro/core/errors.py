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
    "DistributionError",
    "CompilationError",
    "EmptySectionError",
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


class ArtifactIntegrityError(XDPError):
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


class EmptySectionError(XDPError):
    """Raised at run time for a triplet naming no element (empty, or step 0)."""
