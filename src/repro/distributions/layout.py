"""HPF-style data distributions.

The paper's implementation section assumes "partitioning as allowed in HPF"
(section 3, citing the HPF language specification): each array dimension is
distributed ``BLOCK``, ``CYCLIC``, ``CYCLIC(k)`` (block-cyclic) or ``*``
(collapsed / not distributed).  A :class:`Distribution` binds per-dimension
specs to a processor grid and answers the two questions the compiler and
run-time need:

* *who owns* a given element / section (compile-time ownership analysis,
  and the naive owner-computes translation), and
* *what does processor p own* (run-time symbol-table construction,
  segmentation, and figure regeneration).

Every element of a distributed array is exclusively owned by exactly one
processor; the distributed dimensions are mapped onto a *distribution grid*
whose total size must equal the processor count, so ownership is both
exclusive and total.  Replicated (universally owned) variables are handled
separately by the machine model, not by distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ..core.errors import DistributionError
from ..core.sections import Section, Triplet
from .grid import ProcessorGrid

__all__ = [
    "DimSpec",
    "Block",
    "Cyclic",
    "BlockCyclic",
    "Collapsed",
    "Distribution",
    "parse_dist_spec",
]


class DimSpec:
    """Distribution of one array dimension over ``nprocs`` grid positions."""

    #: True for ``*`` — the dimension is not distributed.
    collapsed: bool = False

    def owner_coord(self, index: int, lo: int, hi: int, nprocs: int) -> int:
        """Grid position (0-based) owning global ``index`` in ``lo..hi``."""
        raise NotImplementedError

    def owned(self, q: int, lo: int, hi: int, nprocs: int) -> tuple[Triplet, ...]:
        """The (possibly several) index progressions owned by position ``q``.

        ``BLOCK``/``CYCLIC``/``*`` each yield at most one triplet;
        block-cyclic yields one triplet per owned block.
        """
        raise NotImplementedError

    def spec_str(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.spec_str()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == getattr(other, "__dict__", None)

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


class Block(DimSpec):
    """``BLOCK``: contiguous chunks of ``ceil(N/P)`` elements.

    Matches the HPF definition: processor ``q`` owns global indices
    ``lo + q*bs .. min(hi, lo + (q+1)*bs - 1)`` with ``bs = ceil(N/P)``;
    trailing processors may own nothing when ``N < P*bs``.
    """

    def _bs(self, lo: int, hi: int, nprocs: int) -> int:
        n = hi - lo + 1
        return -(-n // nprocs)

    def owner_coord(self, index: int, lo: int, hi: int, nprocs: int) -> int:
        return (index - lo) // self._bs(lo, hi, nprocs)

    def owned(self, q: int, lo: int, hi: int, nprocs: int) -> tuple[Triplet, ...]:
        bs = self._bs(lo, hi, nprocs)
        start = lo + q * bs
        stop = start + bs - 1
        if stop > hi:
            stop = hi
        if start > stop:
            return ()
        return (Triplet(start, stop, 1),)

    def spec_str(self) -> str:
        return "BLOCK"


class Cyclic(DimSpec):
    """``CYCLIC``: element ``i`` goes to position ``(i - lo) mod P``."""

    def owner_coord(self, index: int, lo: int, hi: int, nprocs: int) -> int:
        return (index - lo) % nprocs

    def owned(self, q: int, lo: int, hi: int, nprocs: int) -> tuple[Triplet, ...]:
        start = lo + q
        if start > hi:
            return ()
        return (Triplet(start, hi, nprocs),)

    def spec_str(self) -> str:
        return "CYCLIC"


class BlockCyclic(DimSpec):
    """``CYCLIC(b)``: blocks of ``b`` dealt round-robin to positions."""

    def __init__(self, blocksize: int):
        if blocksize < 1:
            raise DistributionError(f"CYCLIC blocksize must be >= 1, got {blocksize}")
        self.blocksize = blocksize

    def owner_coord(self, index: int, lo: int, hi: int, nprocs: int) -> int:
        return ((index - lo) // self.blocksize) % nprocs

    def owned(self, q: int, lo: int, hi: int, nprocs: int) -> tuple[Triplet, ...]:
        b = self.blocksize
        out: list[Triplet] = []
        start = lo + q * b
        stride = nprocs * b
        while start <= hi:
            out.append(Triplet(start, min(hi, start + b - 1), 1))
            start += stride
        return tuple(out)

    def spec_str(self) -> str:
        return f"CYCLIC({self.blocksize})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockCyclic({self.blocksize})"


class Collapsed(DimSpec):
    """``*``: the dimension is not distributed; every owner position sees
    the full extent."""

    collapsed = True

    def owner_coord(self, index: int, lo: int, hi: int, nprocs: int) -> int:
        return 0

    def owned(self, q: int, lo: int, hi: int, nprocs: int) -> tuple[Triplet, ...]:
        return (Triplet(lo, hi, 1),)

    def spec_str(self) -> str:
        return "*"


def parse_dist_spec(text: str) -> DimSpec:
    """Parse one HPF dimension spec: ``BLOCK``, ``CYCLIC``, ``CYCLIC(4)``, ``*``."""
    t = text.strip().upper()
    if t == "*":
        return Collapsed()
    if t == "BLOCK":
        return Block()
    if t == "CYCLIC":
        return Cyclic()
    if t.startswith("CYCLIC(") and t.endswith(")"):
        try:
            return BlockCyclic(int(t[7:-1]))
        except ValueError as exc:
            raise DistributionError(f"bad CYCLIC blocksize in {text!r}") from exc
    raise DistributionError(f"unknown distribution spec {text!r}")


@dataclass(frozen=True)
class Distribution:
    """A complete HPF-style partitioning of one array over a grid.

    Parameters
    ----------
    index_space:
        The declared bounds of the array, e.g. ``section((1, 4), (1, 8))``
        for the paper's ``A[1:4, 1:8]``.
    specs:
        One :class:`DimSpec` per array dimension.
    grid:
        The physical processor grid.
    dist_grid_shape:
        Shape of the grid as seen by the *distributed* (non-collapsed)
        dimensions, in order.  Its product must equal ``grid.size``.
        Defaults to ``grid.shape`` when the count of distributed dimensions
        equals the grid rank, and to the linearised ``(grid.size,)`` when
        there is exactly one distributed dimension (the paper's ``(*,
        BLOCK)`` over a 2x2 grid).  Other mismatches must be explicit.
    """

    index_space: Section
    specs: tuple[DimSpec, ...]
    grid: ProcessorGrid
    dist_grid_shape: tuple[int, ...] | None = None
    _dist_grid: ProcessorGrid = field(init=False, repr=False, compare=False)
    _dist_axes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))
        if len(self.specs) != self.index_space.rank:
            raise DistributionError(
                f"{len(self.specs)} dimension specs for rank-{self.index_space.rank} array"
            )
        dist_axes = tuple(i for i, s in enumerate(self.specs) if not s.collapsed)
        if not dist_axes:
            raise DistributionError(
                "fully collapsed distribution: no dimension is distributed "
                "(use a universal variable for replicated data)"
            )
        shape = self.dist_grid_shape
        if shape is None:
            if len(dist_axes) == self.grid.rank:
                shape = self.grid.shape
            elif len(dist_axes) == 1:
                shape = (self.grid.size,)
            else:
                raise DistributionError(
                    f"{len(dist_axes)} distributed dimensions on a rank-"
                    f"{self.grid.rank} grid: pass dist_grid_shape explicitly"
                )
            object.__setattr__(self, "dist_grid_shape", tuple(shape))
        if len(shape) != len(dist_axes):
            raise DistributionError(
                f"dist_grid_shape {shape} has {len(shape)} dims but the "
                f"distribution has {len(dist_axes)} distributed dimensions"
            )
        if math.prod(shape) != self.grid.size:
            raise DistributionError(
                f"dist_grid_shape {shape} does not cover the "
                f"{self.grid.size}-processor grid exactly"
            )
        object.__setattr__(self, "_dist_grid", self.grid.reshaped(tuple(shape)))
        object.__setattr__(self, "_dist_axes", dist_axes)

    # ------------------------------------------------------------------ #
    # geometry helpers
    # ------------------------------------------------------------------ #

    @property
    def rank(self) -> int:
        return self.index_space.rank

    @property
    def nprocs(self) -> int:
        return self.grid.size

    def _dim_bounds(self, axis: int) -> tuple[int, int]:
        t = self.index_space.dims[axis]
        if t.step != 1:
            raise DistributionError("declared array bounds must be unit-stride")
        return t.lo, t.hi

    def _dim_procs(self, axis: int) -> int:
        """Grid positions along array axis (1 for collapsed axes)."""
        if self.specs[axis].collapsed:
            return 1
        return self._dist_grid.shape[self._dist_axes.index(axis)]

    # ------------------------------------------------------------------ #
    # ownership queries
    # ------------------------------------------------------------------ #

    def owner(self, point: Sequence[int]) -> int:
        """The pid exclusively owning one element."""
        if len(point) != self.rank:
            raise DistributionError(f"point rank {len(point)} != array rank {self.rank}")
        coords: list[int] = []
        for axis in self._dist_axes:
            lo, hi = self._dim_bounds(axis)
            idx = point[axis]
            if not lo <= idx <= hi:
                raise DistributionError(f"index {idx} outside dim {axis} bounds {lo}:{hi}")
            coords.append(
                self.specs[axis].owner_coord(idx, lo, hi, self._dim_procs(axis))
            )
        return self._dist_grid.pid_of(tuple(coords))

    def owner_of_section(self, sec: Section) -> int | None:
        """The single pid owning every element of ``sec``, or ``None`` if
        the section spans processors.

        Examines only the corner owners per distributed axis plus a cheap
        per-axis containment check, avoiding full enumeration.
        """
        if sec.rank != self.rank:
            raise DistributionError(f"section rank {sec.rank} != array rank {self.rank}")
        coords: list[int] = []
        for axis in self._dist_axes:
            lo, hi = self._dim_bounds(axis)
            t = sec.dims[axis]
            nprocs = self._dim_procs(axis)
            spec = self.specs[axis]
            q = spec.owner_coord(t.lo, lo, hi, nprocs)
            # Every member of the triplet must map to the same position.
            owned = spec.owned(q, lo, hi, nprocs)
            covered = 0
            for piece in owned:
                inter = piece.intersect(t)
                if inter is not None:
                    covered += inter.size
            if covered != t.size:
                return None
            coords.append(q)
        return self._dist_grid.pid_of(tuple(coords))

    def owned_pieces(self, pid: int) -> tuple[tuple[Triplet, ...], ...]:
        """Per-dimension owned index progressions for ``pid``."""
        coords = self._dist_grid.coords_of(pid)
        out: list[tuple[Triplet, ...]] = []
        for axis in range(self.rank):
            lo, hi = self._dim_bounds(axis)
            spec = self.specs[axis]
            if spec.collapsed:
                out.append(spec.owned(0, lo, hi, 1))
            else:
                q = coords[self._dist_axes.index(axis)]
                out.append(spec.owned(q, lo, hi, self._dim_procs(axis)))
        return tuple(out)

    def owned_sections(self, pid: int) -> list[Section]:
        """The owned region of ``pid`` as a list of disjoint sections
        (Cartesian product of the per-dimension pieces)."""
        pieces = self.owned_pieces(pid)
        if any(not p for p in pieces):
            return []
        out: list[Section] = []

        def rec(axis: int, dims: tuple[Triplet, ...]) -> None:
            if axis == self.rank:
                out.append(Section(dims))
                return
            for t in pieces[axis]:
                rec(axis + 1, dims + (t,))

        rec(0, ())
        return out

    def local_count(self, pid: int) -> int:
        """Number of elements owned by ``pid``."""
        return sum(s.size for s in self.owned_sections(pid))

    # ------------------------------------------------------------------ #
    # presentation
    # ------------------------------------------------------------------ #

    def spec_str(self) -> str:
        """The HPF-style tuple, e.g. ``(*, BLOCK)``."""
        return "(" + ", ".join(s.spec_str() for s in self.specs) + ")"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.index_space} {self.spec_str()} over {self.grid}"
