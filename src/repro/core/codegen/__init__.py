"""Code generation: lowering IL+XDP to an executable SPMD node program
(paper section 3.2), including the delayed binding of communication
primitives to the transfer statements.  The lowered VM is the one executor
of IL+XDP; ``Interpreter`` is its public alias."""

from .lower import CompiledProgram, Interpreter, lower, run_program

__all__ = ["CompiledProgram", "Interpreter", "lower", "run_program"]
