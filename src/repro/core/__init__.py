"""The paper's primary contribution: the IL+XDP intermediate representation,
section algebra, operational semantics, analyses, optimization passes and
code generation."""

from .errors import (
    CompilationError,
    DeadlockError,
    DistributionError,
    OwnershipError,
    ParseError,
    ProtocolError,
    UnknownVariableError,
    VerificationError,
    XDPError,
)
from .sections import Section, Triplet, disjoint_cover_equal, section, triplet
from .states import SegmentState

__all__ = [
    "XDPError",
    "ParseError",
    "VerificationError",
    "OwnershipError",
    "UnknownVariableError",
    "ProtocolError",
    "DeadlockError",
    "DistributionError",
    "CompilationError",
    "Triplet",
    "Section",
    "triplet",
    "section",
    "disjoint_cover_equal",
    "SegmentState",
]
