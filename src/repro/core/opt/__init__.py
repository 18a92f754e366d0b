"""Optimization passes over IL+XDP (paper sections 2.2, 3.2, 4).

Because transfer and ownership operations are explicit, machine-independent
IR statements, they participate in classical transformations: the passes
here reproduce every optimization the paper performs or names —
compute-rule elimination via loop-bounds localization, transfer
elimination, message vectorization, loop fusion with XDP ownership
legality, await sinking, guard hoisting, receive hoisting, and the rewriting
of localized element loops as section assignments."""

from .await_motion import AwaitSinking
from .binding import DestinationBinding
from .cleanup import Cleanup
from .compute_rule_elim import ComputeRuleElimination
from .fusion import LoopFusion
from .guard_motion import GuardHoisting
from .loop_to_section import LoopToSection
from .passmanager import PassManager, optimize
from .recv_motion import ReceiveHoisting
from .transfer_elim import TransferElimination
from .vectorize import MessageVectorization

__all__ = [
    "PassManager",
    "optimize",
    "ComputeRuleElimination",
    "DestinationBinding",
    "TransferElimination",
    "MessageVectorization",
    "LoopFusion",
    "AwaitSinking",
    "GuardHoisting",
    "ReceiveHoisting",
    "LoopToSection",
    "Cleanup",
]
