"""The segment table of paper section 3.1: geometry and resolution.

``iown()`` "intersects the queried section with every segment of the
variable" and tests coverage.  That scan and the memo of its results live
here once, for the run-time symbol table (``runtime.symtab.VariableEntry``)
and the static verifier's abstract tables (``core.analysis.verify_comm``).
A descriptor is any object with a ``segment`` Section; segments of one
table are pairwise disjoint.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .sections import Section

__all__ = ["SegmentTable"]


@dataclass(kw_only=True)
class SegmentTable:
    """Disjoint segment descriptors plus memoized section resolution."""

    segdescs: list = field(default_factory=list)
    # Interval index (positions sorted by lower bound on ``_index_dim``),
    # rebuilt lazily after geometry changes.  Only consulted past a size
    # threshold; small tables scan linearly, which is faster.
    _index_dim: int = field(default=0, repr=False, compare=False)
    _index_pos: list[int] | None = field(default=None, repr=False, compare=False)
    _index_los: list[int] | None = field(default=None, repr=False, compare=False)
    _index_maxspan: int = field(default=0, repr=False, compare=False)
    # Resolution records keyed by the queried Section's *value*; cleared
    # with the index on any geometry change, never by a state change.
    _resolve_cache: dict = field(default_factory=dict, repr=False, compare=False)

    #: Below this many segments a linear scan beats the index.
    INDEX_THRESHOLD = 8

    def invalidate_index(self) -> None:
        """Must be called whenever segment *geometry* changes (segments
        added, removed, or rebound) — state-only changes don't need it."""
        self._index_pos = self._index_los = None
        self._resolve_cache.clear()

    def _candidates(self, sec: Section) -> list:
        """A superset, in table order, of the descriptors whose bounds on
        the indexed dimension meet ``sec``'s: one with ``lo > query.hi``
        cannot overlap, nor can one with ``lo < query.lo - maxspan`` (its
        ``hi`` is below ``query.lo``), so two bisections bracket every true
        overlap.  The dimension is the one with most distinct lower
        bounds: ``(*,*,BLOCK)`` segments all span dim 0."""
        descs = self.segdescs
        if self._index_los is None:
            rank = descs[0].segment.rank
            self._index_dim = k = 0 if rank == 1 else max(
                range(rank), key=lambda k: len({d.segment.dims[k].lo for d in descs}))
            los = [d.segment.dims[k].lo for d in descs]
            self._index_pos = sorted(range(len(los)), key=los.__getitem__)
            self._index_los = [los[i] for i in self._index_pos]
            self._index_maxspan = max(
                d.segment.dims[k].hi - d.segment.dims[k].lo for d in descs)
        q = sec.dims[self._index_dim]
        start = bisect_left(self._index_los, q.lo - self._index_maxspan)
        stop = bisect_right(self._index_los, q.hi)
        pos = self._index_pos[start:stop]
        if len(pos) > 1:
            pos.sort()
        return [descs[i] for i in pos]

    def overlapping(self, sec: Section) -> list[tuple[object, Section]]:
        """``(descriptor, intersection)`` for segments meeting ``sec``, in
        table order.  Large tables are pre-filtered through the index, and
        a per-dimension bounding-box test rejects the rest before the
        exact (extended-Euclid) triplet intersection runs."""
        descs = self.segdescs
        if len(descs) >= self.INDEX_THRESHOLD:
            descs = self._candidates(sec)
        qdims = sec.dims
        out: list[tuple[object, Section]] = []
        for d in descs:
            for qd, sd in zip(qdims, d.segment.dims):
                if qd.lo > sd.hi or sd.lo > qd.hi:
                    break
            else:
                inter = d.segment.intersect(sec)
                if inter is not None:
                    out.append((d, inter))
        return out

    def geometry(self, sec: Section) -> tuple:
        """``(overlap pairs, covers?, exact-hit descriptor)``, computed
        afresh: ``covers`` is the section-3.1 verdict (the disjoint
        intersections add up to the query), ``exact`` is set when ``sec``
        *is* one segment."""
        pairs = self.overlapping(sec)
        covers = sum(inter.size for _, inter in pairs) == sec.size
        exact = None
        if covers and len(pairs) == 1:
            # Wholly inside one segment: the intersection equals the
            # query, so keep the key object and let the copy go.
            d = pairs[0][0]
            pairs = [(d, sec)]
            if d.segment == sec:
                exact = d
        return tuple(pairs), covers, exact

    def resolve(self, sec: Section) -> tuple:
        """Memoized :meth:`geometry`.  (The run-time table keeps wider
        records in the same memo through ``RuntimeSymbolTable._resolve``;
        a table is resolved through one of the two, never both.)"""
        res = self._resolve_cache.get(sec)
        if res is None:
            res = self._resolve_cache[sec] = self.geometry(sec)
        return res
