"""Layout construction shared by the compiler and the VM.

Both the compile-time ownership analysis and the run-time setup need the
same mapping from an :class:`~repro.core.ir.nodes.ArrayDecl` to a
:class:`~repro.distributions.Segmentation`; keeping it in one place
guarantees the compiler reasons about exactly the layout the machine will
use."""

from __future__ import annotations

from ...distributions import Distribution, ProcessorGrid, Segmentation, parse_dist_spec
from ..errors import CompilationError
from ..ir.nodes import ArrayDecl, Program
from ..sections import Section, Triplet

__all__ = ["decl_index_space", "split_dist_spec", "build_segmentation", "build_layouts"]


def decl_index_space(decl: ArrayDecl) -> Section:
    """The declared index space of an array."""
    return Section(tuple(Triplet(lo, hi, 1) for lo, hi in decl.bounds))


def split_dist_spec(dist: str) -> list[str]:
    """Split an HPF spec tuple string on top-level commas.

    Handles nested parentheses: ``"(BLOCK, CYCLIC(2))"`` →
    ``["BLOCK", "CYCLIC(2)"]``.
    """
    text = dist.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise CompilationError(f"distribution spec {dist!r} must be parenthesised")
    inner = text[1:-1]
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    parts.append("".join(current).strip())
    return parts


def build_segmentation(decl: ArrayDecl, grid: ProcessorGrid) -> Segmentation:
    """Distribution + segmentation for one exclusive array declaration.

    Without an explicit ``seg`` clause the granularity defaults to one
    segment per owned piece (coarsest legal choice)."""
    if decl.universal or decl.dist is None:
        raise CompilationError(
            f"array {decl.name} is universal or undistributed; it has no layout"
        )
    specs = tuple(parse_dist_spec(s) for s in split_dist_spec(decl.dist))
    dist = Distribution(decl_index_space(decl), specs, grid)
    seg_shape = decl.segment_shape
    if seg_shape is None:
        pieces = dist.owned_pieces(0)
        seg_shape = tuple(
            max((t.size for t in dim_pieces), default=1) for dim_pieces in pieces
        )
    return Segmentation(dist, seg_shape)


def build_layouts(program: Program, grid: ProcessorGrid) -> dict[str, Segmentation]:
    """Layouts for every exclusive array in a program."""
    out: dict[str, Segmentation] = {}
    for d in program.array_decls():
        if d.universal:
            continue
        if d.dist is None:
            raise CompilationError(
                f"array {d.name} is neither universal nor distributed"
            )
        out[d.name] = build_segmentation(d, grid)
    return out
