"""Per-processor local memory with allocation accounting.

Paper section 2.6 motivates ownership transfer partly by storage economy:
"when ownership of a section is transferred out of a processor, the storage
it had occupied can be reused for a newly acquired section.  This conserves
address space and reduces paging."  The :class:`LocalMemory` allocator
makes that effect measurable: it tracks live bytes and the high-water mark,
so benchmarks can show that migrating ownership does not grow a processor's
footprint the way replication would.

Segments are stored as dense numpy arrays (one contiguous chunk per
segment, exactly as the paper's ``segptr`` field implies).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LocalMemory"]


@dataclass
class LocalMemory:
    """Tracks segment storage on one simulated processor."""

    pid: int
    live_bytes: int = 0
    peak_bytes: int = 0
    total_allocated_bytes: int = 0
    total_freed_bytes: int = 0
    allocations: int = 0
    frees: int = 0
    _chunks: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _next_id: int = 0

    def allocate(self, shape: tuple[int, ...], dtype: np.dtype) -> tuple[int, np.ndarray]:
        """Allocate one contiguous segment chunk; returns (handle, array)."""
        arr = np.zeros(shape, dtype=dtype)
        handle = self._next_id
        self._next_id += 1
        self._chunks[handle] = arr
        self.live_bytes += arr.nbytes
        self.total_allocated_bytes += arr.nbytes
        self.allocations += 1
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)
        return handle, arr

    def allocate_batch(
        self, count: int, shape: tuple[int, ...], dtype: np.dtype
    ) -> range:
        """Allocate ``count`` same-shape chunks backed by one zeroed arena.

        Accounting (byte totals, counts, peak) matches ``count`` individual
        :meth:`allocate` calls; each returned handle maps to one row view
        of the arena.  Declaration-time fast path for large segment tables.
        """
        arena = np.zeros((count,) + tuple(shape), dtype=dtype)
        first = self._next_id
        self._next_id = first + count
        chunks = self._chunks
        h = first
        for row in arena:
            chunks[h] = row
            h += 1
        self.live_bytes += arena.nbytes
        self.total_allocated_bytes += arena.nbytes
        self.allocations += count
        if self.live_bytes > self.peak_bytes:
            self.peak_bytes = self.live_bytes
        return range(first, h)

    def free(self, handle: int) -> None:
        """Release a chunk (ownership left this processor)."""
        arr = self._chunks.pop(handle)
        self.live_bytes -= arr.nbytes
        self.total_freed_bytes += arr.nbytes
        self.frees += 1

    def get(self, handle: int) -> np.ndarray:
        return self._chunks[handle]

    @property
    def live_chunks(self) -> int:
        return len(self._chunks)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"P{self.pid + 1} memory: {self.live_bytes}B live "
            f"({self.live_chunks} chunks), peak {self.peak_bytes}B"
        )
