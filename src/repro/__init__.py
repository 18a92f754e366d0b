"""repro — a reproduction of "Explicit Data Placement (XDP): A Methodology
for Explicit Compile-Time Representation and Optimization of Data Movement"
(Bala, Ferrante, Carter — PPoPP 1993).

The package provides, from the bottom up:

* :mod:`repro.distributions` — HPF-style partitioning, processor grids,
  segmentation, redistribution planning;
* :mod:`repro.machine` — a deterministic discrete-event SPMD machine with
  a latency/bandwidth/overhead cost model;
* :mod:`repro.runtime` — the per-processor run-time XDP symbol table of
  paper section 3;
* :mod:`repro.core` — the IL+XDP intermediate representation (parser,
  printer, verifier), the owner-computes / ownership-migration
  translator, the optimization passes, and the code generator whose
  lowered VM (``Interpreter``) executes every program, with delayed
  communication binding;
* :mod:`repro.apps` — the paper's 3-D FFT, a Jacobi solver, dynamic load
  balancing, and ownership-based monitoring;
* :mod:`repro.report` — regeneration of the paper's figures.

Quickstart::

    from repro import parse_program, translate, optimize, Interpreter

    seq = '''
    array A[1:8] dist (BLOCK) seg (1)
    array B[1:8] dist (CYCLIC) seg (1)

    do i = 1, 8
      A[i] = A[i] + B[i]
    enddo
    '''
    naive = translate(parse_program(seq), nprocs=4)
    best = optimize(naive, nprocs=4).program
    it = Interpreter(best, 4)
    stats = it.run()
"""

from .core import (
    CompilationError,
    DeadlockError,
    DistributionError,
    OwnershipError,
    ParseError,
    ProtocolError,
    Section,
    SegmentState,
    Triplet,
    UnknownVariableError,
    VerificationError,
    XDPError,
    section,
    triplet,
)
from .core.codegen import CompiledProgram, Interpreter, lower, run_program
from .core.ir.parser import parse_expression, parse_program, parse_statements
from .core.ir.printer import print_program
from .core.ir.verify import verify_program
from .core.kernels import Kernel, KernelRegistry, default_registry
from .core.opt import PassManager, optimize
from .core.translate import translate
from .distributions import (
    Block,
    BlockCyclic,
    Collapsed,
    Cyclic,
    Distribution,
    ProcessorGrid,
    Segmentation,
    plan_redistribution,
)
from .machine import Engine, MachineModel, RunStats
from .runtime import MAXINT, MININT, RuntimeSymbolTable

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "XDPError", "ParseError", "VerificationError", "OwnershipError",
    "UnknownVariableError", "ProtocolError", "DeadlockError",
    "DistributionError", "CompilationError",
    # sections & states
    "Triplet", "Section", "triplet", "section", "SegmentState",
    # distributions
    "ProcessorGrid", "Block", "Cyclic", "BlockCyclic", "Collapsed",
    "Distribution", "Segmentation", "plan_redistribution",
    # machine & runtime
    "Engine", "MachineModel", "RunStats", "RuntimeSymbolTable",
    "MAXINT", "MININT",
    # language & compiler
    "parse_program", "parse_statements", "parse_expression",
    "print_program", "verify_program", "translate", "optimize",
    "PassManager", "Interpreter", "run_program", "lower",
    "CompiledProgram", "Kernel", "KernelRegistry", "default_registry",
]
