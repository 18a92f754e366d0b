"""Candidate placement enumeration with pruning — the pipeline's *space* stage.

A placement of one array is a triple (distribution spec, segmentation
shape, distribution-grid shape).  The space the tuner walks is the HPF
space the paper assumes (section 3): each dimension ``BLOCK``, ``CYCLIC``,
``CYCLIC(k)`` or ``*``, the distributed dimensions mapped onto a grid
whose size is the processor count.  Enumeration is deterministic —
candidates come out sorted by their canonical key, so searches and
tie-breaks are reproducible — and pruned:

* at least one dimension must be distributed (fully collapsed arrays are
  universal variables, not placements);
* grid factors of 1 are dropped (distributing a dimension over one
  processor is the collapsed layout in disguise);
* layouts leaving some processor with no elements are pruned by default
  (``allow_idle_procs`` re-admits them);
* duplicate ownership maps (e.g. ``BLOCK`` vs ``CYCLIC`` on an extent
  equal to the processor count) are kept — they differ in segmentation
  and message shapes — but textual duplicates are deduplicated.

One enumerator, :func:`enumerate_layouts`, covers it: materialize,
dedup, sort.  A layer of the phased space is a handful of candidates, so
there is nothing to stream — what is never built is the *product* of the
layers.

:class:`SpaceSpec` bundles the per-phase layers (each enumerated once,
cached) with the pass-level knob axes (:class:`KnobSpec`: redistribution
realization ``bulk`` / ``pipelined`` / ``planner`` with its
``max_temp_frac`` budget) and counts or describes the full search space;
:mod:`~repro.tune.prefilter` ranks it as a layered graph without walking
the cross product.

Construction goes through :func:`~repro.core.analysis.layouts`'s
machinery (:func:`parse_dist_spec` / :func:`build_segmentation`) so the
tuner reasons about exactly the layouts the machine will use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Sequence

from ..core.analysis.layouts import build_segmentation, split_dist_spec
from ..core.errors import XDPError
from ..core.ir.nodes import ArrayDecl
from ..distributions import (
    Distribution,
    ProcessorGrid,
    Segmentation,
    parse_dist_spec,
)

__all__ = [
    "KnobPoint",
    "KnobSpec",
    "LayoutCandidate",
    "SpaceSpec",
    "candidate_segmentation",
    "enumerate_layouts",
    "phase_layouts",
    "rewrite_decl",
]

SEG_STYLES = ("coarse", "pencil", "slab")


@dataclass(frozen=True)
class LayoutCandidate:
    """One point of the placement space for one array.

    ``dist`` is the HPF spec string (``"(*, BLOCK, *)"``); ``seg`` the
    segment shape (``None`` = the coarsest legal choice, one segment per
    owned piece); ``grid_shape`` the distribution-grid shape (``None`` =
    the linearised default).  Ordering is the canonical enumeration order
    (spec string first), which makes ``sorted()`` the tie-break rule:
    ``*`` sorts before letters, so ``(*, BLOCK, *)`` precedes
    ``(BLOCK, *, *)`` — matching the paper's section-4 choice.  ``None``
    segmentations/grids sort before explicit shapes, so mixed-style
    spaces still have a total order.
    """

    dist: str
    seg: tuple[int, ...] | None = None
    grid_shape: tuple[int, ...] | None = None

    @property
    def key(self) -> str:
        seg = "coarse" if self.seg is None else "x".join(map(str, self.seg))
        grid = "lin" if self.grid_shape is None else "x".join(map(str, self.grid_shape))
        return f"{self.dist} seg={seg} grid={grid}"

    @property
    def sort_key(self) -> tuple:
        return (
            self.dist,
            self.seg is not None, self.seg or (),
            self.grid_shape is not None, self.grid_shape or (),
        )

    def __lt__(self, other: "LayoutCandidate") -> bool:
        return self.sort_key < other.sort_key

    def specs(self) -> tuple:
        return tuple(parse_dist_spec(s) for s in split_dist_spec(self.dist))

    def distributed_axes(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.specs()) if not s.collapsed)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.key


def rewrite_decl(decl: ArrayDecl, cand: LayoutCandidate) -> ArrayDecl:
    """The same declaration under a candidate placement."""
    return replace(decl, dist=cand.dist, segment_shape=cand.seg)


def candidate_segmentation(
    decl: ArrayDecl, cand: LayoutCandidate, nprocs: int
) -> Segmentation:
    """Build the exact run-time layout a candidate denotes.

    Goes through :func:`build_segmentation` (the compiler/run-time shared
    path) for linearised grids; multi-axis distribution grids construct
    the :class:`Distribution` directly with ``dist_grid_shape``.
    """
    new = rewrite_decl(decl, cand)
    grid = ProcessorGrid((nprocs,))
    if cand.grid_shape is None:
        return build_segmentation(new, grid)
    from ..core.analysis.layouts import decl_index_space

    dist = Distribution(
        decl_index_space(new),
        tuple(parse_dist_spec(s) for s in split_dist_spec(new.dist)),
        grid,
        dist_grid_shape=cand.grid_shape,
    )
    seg_shape = new.segment_shape
    if seg_shape is None:
        pieces = dist.owned_pieces(0)
        seg_shape = tuple(
            max((t.size for t in dim_pieces), default=1) for dim_pieces in pieces
        )
    return Segmentation(dist, seg_shape)


def _factorizations(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Ordered factorizations of ``n`` into ``k`` factors, each >= 2."""
    if k == 1:
        if n >= 2:
            yield (n,)
        return
    f = 2
    while f * 2 ** (k - 1) <= n:
        if n % f == 0:
            for rest in _factorizations(n // f, k - 1):
                yield (f,) + rest
        f += 1


def _pencil_seg(rank: int, extents: Sequence[int], dist_axes: Sequence[int]) -> tuple[int, ...]:
    """The hand-optimized FFT's segmentation style: full extent along the
    first collapsed dimension, single members elsewhere — segments are
    pencils, the natural unit of the transfer statements."""
    seg = [1] * rank
    for axis in range(rank):
        if axis not in dist_axes:
            seg[axis] = extents[axis]
            break
    return tuple(seg)


def _slab_seg(rank: int, extents: Sequence[int], dist_axes: Sequence[int]) -> tuple[int, ...]:
    """Full extent along *every* collapsed dimension, single members on
    the distributed ones — segments are whole slabs, the unit of bulk
    redistribution messages (and of await granularity)."""
    return tuple(
        1 if axis in dist_axes else extents[axis] for axis in range(rank)
    )


def _seg_for(
    style: str, rank: int, extents: Sequence[int], dist_axes: Sequence[int]
) -> tuple[int, ...] | None:
    if style == "coarse":
        return None
    if style == "pencil":
        return _pencil_seg(rank, extents, dist_axes)
    if style == "slab":
        return _slab_seg(rank, extents, dist_axes)
    raise ValueError(f"unknown segmentation style {style!r} "
                     f"(choose from {SEG_STYLES})")


def enumerate_layouts(
    decl: ArrayDecl,
    nprocs: int,
    *,
    specs: Sequence[str] = ("*", "BLOCK", "CYCLIC"),
    max_dist_dims: int | None = None,
    seg_choices: Sequence[str] = ("coarse",),
    allow_idle_procs: bool = False,
    collapsed_axes: Sequence[int] = (),
) -> list[LayoutCandidate]:
    """All pruned candidates for one array, in canonical order.

    ``collapsed_axes`` forces ``*`` on the given dimensions (a phase's
    compute axis must stay local).  ``seg_choices`` picks segmentation
    styles: ``"coarse"`` (one segment per owned piece), ``"pencil"`` (the
    hand-FFT style) and/or ``"slab"`` (whole owned slabs).
    """
    rank = decl.rank
    extents = decl.shape
    forced = set(collapsed_axes)
    limit = rank if max_dist_dims is None else max_dist_dims
    out: set[LayoutCandidate] = set()

    def assignments(axis: int, chosen: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
        if axis == rank:
            yield chosen
            return
        for s in ("*",) if axis in forced else specs:
            yield from assignments(axis + 1, chosen + (s,))

    for parts in assignments(0, ()):
        dist_axes = tuple(i for i, s in enumerate(parts) if s != "*")
        if not dist_axes or len(dist_axes) > limit:
            continue
        dist = "(" + ", ".join(parts) + ")"
        for shape in _factorizations(nprocs, len(dist_axes)):
            if not allow_idle_procs and any(
                extents[a] < f for a, f in zip(dist_axes, shape)
            ):
                continue
            grid_shape = None if len(dist_axes) == 1 else shape
            for style in seg_choices:
                seg = _seg_for(style, rank, extents, dist_axes)
                cand = LayoutCandidate(dist, seg, grid_shape)
                try:
                    candidate_segmentation(decl, cand, nprocs)
                except XDPError:
                    continue  # unbuildable corner (prune, don't crash)
                out.add(cand)
    return sorted(out)


#: Default per-phase dimension specs for the widened space: plain block
#: and cyclic plus one block-cyclic granularity (pruned wherever the
#: extent/processor-count pair makes it degenerate or idle).
PHASE_SPECS = ("BLOCK", "CYCLIC", "CYCLIC(2)")

#: Default per-phase segmentation styles (pencil = the paper's unit,
#: slab = bulk-message unit, coarse = one segment per owned piece).
PHASE_SEGS = ("pencil", "coarse", "slab")


def phase_layouts(
    decl: ArrayDecl,
    nprocs: int,
    axis: int,
    *,
    specs: Sequence[str] = ("BLOCK", "CYCLIC"),
    seg_choices: Sequence[str] = ("pencil",),
) -> list[LayoutCandidate]:
    """Realizable layouts for a compute phase along ``axis``.

    The phase's pencils (full extent along ``axis``) must be local, so
    ``axis`` is collapsed; exactly one other dimension is distributed
    over the linearised grid — the family the phased code generator
    (:mod:`~repro.tune.rewrite`) can realize with fused, pipelined
    transfers (the IL's declarations cannot carry a multi-axis grid
    shape, so wider grids are not expressible in generated text).
    """
    return enumerate_layouts(
        decl,
        nprocs,
        specs=("*",) + tuple(specs),
        max_dist_dims=1,
        seg_choices=seg_choices,
        collapsed_axes=(axis,),
    )


# ---------------------------------------------------------------------- #
# pass-level knobs and the assembled search space
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class KnobPoint:
    """One assignment of the pass-level knobs.

    ``realization`` picks how inter-phase redistribution is emitted
    (``bulk`` / ``pipelined`` / ``planner``); ``max_temp_frac`` is the
    bounded planner's per-round temp-memory budget (planner only).
    """

    realization: str
    max_temp_frac: float | None = None

    @property
    def key(self) -> str:
        out = self.realization
        if self.max_temp_frac is not None:
            out += f"@{self.max_temp_frac:g}"
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.key


@dataclass(frozen=True)
class KnobSpec:
    """The knob *axes*: which realizations and planner budgets the space
    crosses the layout paths with."""

    realizations: tuple[str, ...] = ("bulk", "pipelined", "planner")
    max_temp_fracs: tuple[float, ...] = (0.25, 0.5)

    def points(self) -> tuple[KnobPoint, ...]:
        """Every legal knob assignment, in canonical order (the planner
        realization crosses with its budget axis)."""
        out: list[KnobPoint] = []
        for real in self.realizations:
            fracs: tuple[float | None, ...] = (
                tuple(self.max_temp_fracs) if real == "planner" else (None,)
            )
            out.extend(KnobPoint(real, frac) for frac in fracs)
        return tuple(out)


@dataclass
class SpaceSpec:
    """The assembled search space of one phased program: per-phase layout
    layers x pass-level knobs.

    ``layer(i)`` is phase ``i``'s candidates in canonical order, enumerated
    once; ``size()`` multiplies layer sizes by knob points.  The path
    space itself — the exponential part — is counted, never built.
    """

    decl: ArrayDecl
    nprocs: int
    phase_axes: tuple[int, ...]
    specs: tuple[str, ...] = PHASE_SPECS
    seg_choices: tuple[str, ...] = PHASE_SEGS
    knobs: KnobSpec = field(default_factory=KnobSpec)

    @cached_property
    def _layers(self) -> tuple[tuple[LayoutCandidate, ...], ...]:
        by_axis = {
            axis: tuple(phase_layouts(
                self.decl, self.nprocs, axis,
                specs=self.specs, seg_choices=self.seg_choices,
            ))
            for axis in dict.fromkeys(self.phase_axes)
        }
        return tuple(by_axis[axis] for axis in self.phase_axes)

    def layer(self, i: int) -> tuple[LayoutCandidate, ...]:
        return self._layers[i]

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self._layers)

    def knob_points(self) -> tuple[KnobPoint, ...]:
        return self.knobs.points()

    def path_count(self) -> int:
        return math.prod(self.layer_sizes) if self.phase_axes else 0

    def size(self) -> int:
        return self.path_count() * len(self.knob_points())

    def describe(self) -> dict:
        return {
            "phases": len(self.phase_axes),
            "layer_sizes": list(self.layer_sizes),
            "paths": self.path_count(),
            "knob_points": [k.key for k in self.knob_points()],
            "size": self.size(),
            "specs": list(self.specs),
            "seg_choices": list(self.seg_choices),
            "grids": "linear (the phased family's declarations cannot "
                     "carry a multi-axis grid shape)",
        }
