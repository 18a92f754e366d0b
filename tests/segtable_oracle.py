"""The segment table's former intersection-building resolution, kept
verbatim as the reference implementation for ``tests/test_segtable.py``.

``OracleSegmentTable.geometry`` builds one intersection ``Section`` per
overlapping descriptor and decides coverage by summing their sizes;
``oracle_read`` / ``oracle_write`` gather and scatter through those
intersections with ``_positions``, two index computations per piece per
access.  The oracle wraps the *same* descriptor objects as the table under
test (``OracleSegmentTable(segdescs=entry.segdescs)``), so results compare
by identity.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import OwnershipError
from repro.core.sections import Section


@dataclass(kw_only=True)
class OracleSegmentTable:
    """Disjoint segment descriptors plus memoized section resolution."""

    segdescs: list = field(default_factory=list)
    # Interval index (positions sorted by lower bound on ``_index_dim``),
    # rebuilt lazily after geometry changes.  Only consulted past a size
    # threshold; small tables scan linearly, which is faster.
    _index_dim: int = field(default=0, repr=False, compare=False)
    _index_pos: list[int] | None = field(default=None, repr=False, compare=False)
    _index_los: list[int] | None = field(default=None, repr=False, compare=False)
    _index_maxspan: int = field(default=0, repr=False, compare=False)

    #: Below this many segments a linear scan beats the index.
    INDEX_THRESHOLD = 8

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


def _positions(container: Section, part: Section) -> tuple[slice, ...]:
    """Per-dimension positions of ``part``'s members within ``container``:
    ``part`` is a subset (an overlap with it or a piece of it), so they
    form an arithmetic progression — one basic slice, no index arrays."""
    return tuple(
        slice((pt.lo - ct.lo) // ct.step, (pt.hi - ct.lo) // ct.step + 1,
              pt.step // ct.step or 1)
        for ct, pt in zip(container.dims, part.dims)
    )


def _short_of(st, verb: str, name: str, sec: Section, pairs) -> OwnershipError:
    covered = sum(inter.size for _, inter in pairs)
    return OwnershipError(
        f"P{st.pid + 1} {verb} {name}{sec} but owns only {covered} of "
        f"{sec.size} elements"
    )


def oracle_read(st, name: str, sec: Section) -> np.ndarray:
    """The former ``RuntimeSymbolTable._gather`` (non-strict) on a fresh
    oracle resolution of ``st``'s entry."""
    entry = st.entry(name)
    pairs, covers, exact = OracleSegmentTable(segdescs=entry.segdescs).geometry(sec)
    if exact is not None:
        return st.memory.get(exact.handle).copy()
    out = np.zeros(sec.shape, dtype=entry.dtype)
    for d, inter in pairs:
        chunk = st.memory.get(d.handle)
        out[_positions(sec, inter)] = chunk[_positions(d.segment, inter)]
    if not covers:
        raise _short_of(st, "reads", name, sec, pairs)
    return out


def oracle_write(st, name: str, sec: Section, values) -> None:
    """The former ``RuntimeSymbolTable.write``."""
    entry = st.entry(name)
    pairs, covers, exact = OracleSegmentTable(segdescs=entry.segdescs).geometry(sec)
    vals = np.asarray(values, dtype=entry.dtype)
    if vals.shape not in ((), sec.shape):
        vals = vals.reshape(sec.shape)
    if exact is not None:
        st.memory.get(exact.handle)[...] = vals
        return
    for d, inter in pairs:
        chunk = st.memory.get(d.handle)
        src = vals if vals.shape == () else vals[_positions(sec, inter)]
        chunk[_positions(d.segment, inter)] = src
    if not covers:
        raise _short_of(st, "writes", name, sec, pairs)
