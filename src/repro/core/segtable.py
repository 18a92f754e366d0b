"""The segment table of paper section 3.1: geometry and resolution.

``iown()`` "intersects the queried section with every segment of the
variable" and tests coverage.  That scan and the memo of its results live
here once, for the run-time symbol table (``runtime.symtab.VariableEntry``)
and the static verifier's abstract tables (``core.analysis.verify_comm``).
A descriptor is any object with a ``segment`` Section; segments of one
table are pairwise disjoint.

Sections are Cartesian products of triplets, so the scan needs no
intersection ``Section``: whether a segment meets the query, and how many
elements they share, are products of per-dimension counts.  Callers that
need an intersection's bounds (``mylb``, a finding's text, a release's
split) compute it for the descriptors the record names.
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
    # Interval index (positions sorted by lower bound on ``_index_dim``)
    # and the table's bounding box, rebuilt lazily after geometry changes.
    # Only consulted past a size threshold; small tables scan linearly,
    # which is faster.
    _index_dim: int = field(default=0, repr=False, compare=False)
    _index_pos: list[int] | None = field(default=None, repr=False, compare=False)
    _index_los: list[int] | None = field(default=None, repr=False, compare=False)
    _index_maxspan: int = field(default=0, repr=False, compare=False)
    _index_box: tuple | None = field(default=None, repr=False, compare=False)
    # Resolution records keyed by the queried Section's *value*; cleared
    # with the index on any geometry change, never by a state change.
    _resolve_cache: dict = field(default_factory=dict, repr=False, compare=False)

    #: Below this many segments a linear scan beats the index.
    INDEX_THRESHOLD = 8

    def invalidate_index(self) -> None:
        """Must be called whenever segment *geometry* changes (segments
        added, removed, or rebound) — state-only changes don't need it."""
        self._index_pos = self._index_los = self._index_box = None
        self._resolve_cache.clear()

    def _candidates(self, sec: Section) -> list:
        """A superset, in table order, of the descriptors whose bounds on
        the indexed dimension meet ``sec``'s: one with ``lo > query.hi``
        cannot overlap, nor can one with ``lo < query.lo - maxspan`` (its
        ``hi`` is below ``query.lo``), so two bisections bracket every true
        overlap.  The dimension is the one with most distinct lower
        bounds: ``(*,*,BLOCK)`` segments all span dim 0.  A query outside
        the table's bounding box gets ``[]`` after one test per dimension."""
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
            self._index_box = tuple(
                (min(d.segment.dims[j].lo for d in descs),
                 max(d.segment.dims[j].hi for d in descs)) for j in range(rank))
        for q, (lo, hi) in zip(sec.dims, self._index_box):
            if q.lo > hi or q.hi < lo:
                return []
        q = sec.dims[self._index_dim]
        start = bisect_left(self._index_los, q.lo - self._index_maxspan)
        stop = bisect_right(self._index_los, q.hi)
        pos = self._index_pos[start:stop]
        if len(pos) > 1:
            pos.sort()
        return [descs[i] for i in pos]

    def geometry(self, sec: Section) -> tuple:
        """``(descriptors, covers?, exact-hit descriptor)``, computed
        afresh: the descriptors meeting ``sec`` in table order; ``covers``
        is the section-3.1 verdict (the disjoint overlaps add up to the
        query), counted per dimension — interval arithmetic on unit-stride
        pairs, a triplet intersection on strided ones; ``exact`` is set
        when ``sec`` *is* one segment."""
        descs = self.segdescs
        if len(descs) >= self.INDEX_THRESHOLD:
            descs = self._candidates(sec)
        qdims = sec.dims
        hit = []
        total = 0
        for d in descs:
            n = 1
            for qd, sd in zip(qdims, d.segment.dims):
                lo = qd.lo if qd.lo >= sd.lo else sd.lo
                hi = qd.hi if qd.hi <= sd.hi else sd.hi
                if lo > hi:
                    break
                if qd.step == 1 and sd.step == 1:
                    n *= hi - lo + 1
                else:
                    t = qd.intersect(sd)
                    if t is None:
                        break
                    n *= t.size
            else:
                hit.append(d)
                total += n
        covers = total == sec.size
        exact = hit[0] if covers and len(hit) == 1 and hit[0].segment == sec else None
        return tuple(hit), covers, exact

    def resolve(self, sec: Section) -> tuple:
        """Memoized :meth:`geometry`.  (The run-time table keeps wider
        records in the same memo through ``RuntimeSymbolTable._resolve``;
        a table is resolved through one of the two, never both.)"""
        res = self._resolve_cache.get(sec)
        if res is None:
            res = self._resolve_cache[sec] = self.geometry(sec)
        return res
