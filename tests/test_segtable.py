"""Section resolution against a segment table (paper section 3.1).

* differential: ``SegmentTable.geometry`` (descriptors and per-dimension
  counts, no intersection ``Section``) and the run-time table's planned
  gather/scatter against the intersection-building originals kept in
  ``tests/segtable_oracle.py``, over unit and strided segment tables,
  split residues included, and against numpy on a staged global array;
* work, without wall-clock: how many intersections one verification and
  one run of the stage-0 FFT build, and that a query outside a large
  table's bounding box touches no descriptor.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import lower, parse_program
from repro.apps.fft3d import fft3d_source
from repro.core.analysis.verify_comm import verify_communication
from repro.core.errors import OwnershipError
from repro.core.opt import optimize
from repro.core.sections import Section, Triplet
from repro.core.segtable import SegmentTable
from repro.distributions import (
    Block, BlockCyclic, Collapsed, Cyclic, Distribution, ProcessorGrid, Segmentation,
)
from repro.runtime import MAXINT, MININT, RuntimeSymbolTable

from .segtable_oracle import OracleSegmentTable, _positions, oracle_read

SPECS = [Block, Cyclic, lambda: BlockCyclic(2)]


@st.composite
def triplets_in(draw, lo, hi, max_step=3):
    a = draw(st.integers(lo, hi))
    b = draw(st.integers(a, hi))
    return Triplet(a, b, draw(st.integers(1, max_step)))


@st.composite
def tables(draw):
    """A processor's table of one distributed array — BLOCK, CYCLIC or
    CYCLIC(2) on one dimension, so segments are unit or strided
    (``chunk_triplet``) — after 0-2 partial releases that leave split
    residues, with its global array staged in."""
    rank = draw(st.integers(1, 3))
    extents = [draw(st.integers(2, 8)) for _ in range(rank)]
    axis = draw(st.integers(0, rank - 1))
    nprocs = draw(st.integers(1, 3))
    specs = tuple(draw(st.sampled_from(SPECS))() if d == axis else Collapsed()
                  for d in range(rank))
    space = Section(tuple(Triplet(1, e) for e in extents))
    dist = Distribution(space, specs, ProcessorGrid((nprocs,)))
    symtab = RuntimeSymbolTable(draw(st.integers(0, nprocs - 1)))
    symtab.declare("A", Segmentation(
        dist, tuple(draw(st.integers(1, 4)) for _ in range(rank))))
    whole = np.arange(1.0, space.size + 1).reshape(space.shape)
    symtab.stage_in("A", whole)
    for _ in range(draw(st.integers(0, 2))):
        descs = symtab.entry("A").segdescs
        if not descs:
            break
        d = draw(st.sampled_from(descs))
        symtab.release_ownership("A", _inside(draw, d.segment), with_value=False)
    return symtab, space, whole, dist.owned_sections(symtab.pid)


def _inside(draw, sec: Section) -> Section:
    """A sub-section of ``sec``, strided or not."""
    return Section(tuple(draw(triplets_in(t.lo, t.hi)).intersect(t) or t
                         for t in sec.dims))


@st.composite
def queries(draw, symtab, space, owned):
    """One segment, inside one, across the owned partition (straddling
    segments and split residues), a box, strided, or disjoint."""
    descs = symtab.entry("A").segdescs
    kind = draw(st.sampled_from(
        ["segment", "contained", "owned", "box", "strided", "disjoint"]))
    if kind == "segment" and descs:
        return draw(st.sampled_from(descs)).segment
    if kind == "contained" and descs:
        return _inside(draw, draw(st.sampled_from(descs)).segment)
    if kind == "owned" and owned:
        return _inside(draw, draw(st.sampled_from(owned)))
    if kind == "disjoint":
        return Section(tuple(Triplet(t.hi + 1, t.hi + draw(st.integers(1, 3)))
                             for t in space.dims))
    step = 1 if kind == "box" else 3
    return Section(tuple(draw(triplets_in(t.lo - 1, t.hi + 1, step))
                         for t in space.dims))


class TestMatchesIntersectionOracle:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_records_bounds_and_values(self, data):
        symtab, space, whole, owned = data.draw(tables())
        entry = symtab.entry("A")
        for _ in range(6):
            q = data.draw(queries(symtab, space, owned))
            oracle = OracleSegmentTable(segdescs=entry.segdescs)
            pairs, covers, exact = oracle.geometry(q)
            descs, got_covers, got_exact = entry.geometry(q)
            assert descs == tuple(d for d, _ in pairs)
            assert (got_covers, got_exact) == (covers, exact)
            for k in range(1, space.rank + 1):
                assert symtab.mylb("A", k, q) == min(
                    (i.dims[k - 1].lo for _, i in pairs), default=MAXINT)
                assert symtab.myub("A", k, q) == max(
                    (i.dims[k - 1].hi for _, i in pairs), default=MININT)
            if not covers:
                with pytest.raises(OwnershipError) as want:
                    oracle_read(symtab, "A", q)
                with pytest.raises(OwnershipError, match=re.escape(str(want.value))):
                    symtab.read("A", q)
                continue
            pos = _positions(space, q)
            assert np.array_equal(symtab.read("A", q), whole[pos])
            assert np.array_equal(oracle_read(symtab, "A", q), whole[pos])
            new = (-1.0 if data.draw(st.booleans())
                   else np.arange(q.size, dtype=float).reshape(q.shape) - 100)
            symtab.write("A", q, new)
            whole[pos] = new
            assert np.array_equal(oracle_read(symtab, "A", q), whole[pos])
            out = np.zeros(space.shape)
            symtab.stage_out("A", out)
            mine = np.zeros(space.shape, dtype=bool)
            for d in entry.segdescs:
                mine[_positions(space, d.segment)] = True
            assert np.array_equal(out[mine], whole[mine])


def _counting(monkeypatch, cls, name):
    calls = [0]
    inner = getattr(cls, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


class TestWork:
    """Resolution answers from descriptors and counts: the stage-0 FFT at
    n=16/P=16 built 13,056 intersection Sections in each of verification
    and the run when every query intersected every overlapping segment."""

    @pytest.fixture(scope="class")
    def fft(self):
        return optimize(parse_program(fft3d_source(16, 16, 0)), 16, level=2).program

    def test_verify_intersect_ceiling(self, fft, monkeypatch):
        calls = _counting(monkeypatch, Section, "intersect")
        assert verify_communication(fft, 16).clean
        assert calls[0] <= 1024

    def test_run_intersect_ceiling(self, fft, monkeypatch):
        runner = lower(fft, 16)
        calls = _counting(monkeypatch, Section, "intersect")
        runner.run()
        assert calls[0] <= 1024

    def test_query_outside_the_bounding_box_touches_no_descriptor(self, monkeypatch):
        reads = [0]

        class Desc:
            def __init__(self, segment):
                self._segment = segment

            @property
            def segment(self):
                reads[0] += 1
                return self._segment

        # Sixteen strided rows: the index (dim 0) brackets every row for a
        # query spanning dim 0, so only the box sees it misses dim 1.
        table = SegmentTable(segdescs=[Desc(Section((Triplet(i, i), Triplet(1, 15, 2))))
                                       for i in range(1, 17)])
        assert table.geometry(Section((Triplet(1, 16), Triplet(3, 7, 2))))[1]
        reads[0] = 0
        calls = _counting(monkeypatch, Triplet, "intersect")
        miss = Section((Triplet(1, 16), Triplet(17, 31, 2)))
        assert table.geometry(miss) == ((), False, None)
        assert reads[0] == 0 and calls[0] == 0
