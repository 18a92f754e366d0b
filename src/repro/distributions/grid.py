"""Processor grids.

The paper's example implementation assumes "a fixed, known processor grid"
(section 3).  Processors are identified by a unique integer ``mypid``; for
multi-dimensional grids the paper numbers processors in Fortran
(column-major) order and labels them 1-based (``P1..P4``): in Figure 3 and
the section-3.1 example, processor *P3* of a 2x2 grid owns the top-right
quadrant, which is grid coordinate ``(0, 1)`` — the column-major rank-2
position.  We keep pids 0-based internally and render the paper's 1-based
labels only in :mod:`repro.report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.errors import DistributionError

__all__ = ["ProcessorGrid"]


@dataclass(frozen=True)
class ProcessorGrid:
    """A fixed ``d``-dimensional grid of processors.

    Parameters
    ----------
    shape:
        Extent of the grid along each dimension, e.g. ``(2, 2)``.
    order:
        ``"F"`` (column-major, the paper's numbering) or ``"C"``
        (row-major).  Controls the pid ↔ coordinate mapping only.
    """

    shape: tuple[int, ...]
    order: str = "F"
    _strides: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.shape, tuple):
            object.__setattr__(self, "shape", tuple(self.shape))
        if not self.shape or any(n < 1 for n in self.shape):
            raise DistributionError(f"invalid grid shape {self.shape}")
        if self.order not in ("F", "C"):
            raise DistributionError(f"grid order must be 'F' or 'C', got {self.order!r}")
        strides: list[int] = []
        acc = 1
        dims = self.shape if self.order == "F" else tuple(reversed(self.shape))
        for n in dims:
            strides.append(acc)
            acc *= n
        if self.order == "C":
            strides.reverse()
        object.__setattr__(self, "_strides", tuple(strides))

    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Total number of processors."""
        return math.prod(self.shape)

    @property
    def rank(self) -> int:
        return len(self.shape)

    def pids(self) -> range:
        return range(self.size)

    def pid_of(self, coords: tuple[int, ...]) -> int:
        """Linear pid of a grid coordinate."""
        if len(coords) != self.rank:
            raise DistributionError(
                f"coordinate rank {len(coords)} != grid rank {self.rank}"
            )
        for c, n in zip(coords, self.shape):
            if not 0 <= c < n:
                raise DistributionError(f"coordinate {coords} outside grid {self.shape}")
        return sum(c * s for c, s in zip(coords, self._strides))

    def coords_of(self, pid: int) -> tuple[int, ...]:
        """Grid coordinate of a linear pid."""
        if not 0 <= pid < self.size:
            raise DistributionError(f"pid {pid} outside grid of size {self.size}")
        return tuple(
            (pid // self._strides[ax]) % self.shape[ax] for ax in range(self.rank)
        )

    def reshaped(self, shape: tuple[int, ...]) -> "ProcessorGrid":
        """A grid over the same processors with a different logical shape.

        Used when a distribution uses fewer distributed dimensions than the
        physical grid has (e.g. ``(*, BLOCK)`` on a 2x2 grid treats the four
        processors as a linear array — paper Figure 2's array ``A``).
        """
        if math.prod(shape) != self.size:
            raise DistributionError(
                f"cannot reshape grid of {self.size} processors to {shape}"
            )
        return ProcessorGrid(tuple(shape), self.order)

    def label(self, pid: int) -> str:
        """The paper's 1-based label for a pid (``P1`` .. ``Pn``)."""
        return f"P{pid + 1}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "x".join(str(n) for n in self.shape) + f" grid ({self.order}-order)"
