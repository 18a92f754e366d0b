"""Unit tests for the run-time symbol table (paper section 3.1)."""

import numpy as np
import pytest

from repro.core.errors import OwnershipError
from repro.core.sections import section
from repro.core.states import SegmentState
from repro.distributions import (
    Block,
    Collapsed,
    Distribution,
    ProcessorGrid,
    Segmentation,
)
from repro.runtime import MAXINT, MININT, RuntimeSymbolTable


@pytest.fixture
def seg_C():
    """C[1:4,1:8] (BLOCK, BLOCK) over 2x2, 2x1 segments (section 3.1)."""
    dist = Distribution(
        section((1, 4), (1, 8)), (Block(), Block()), ProcessorGrid((2, 2))
    )
    return Segmentation(dist, (2, 1))


@pytest.fixture
def p3(seg_C):
    """P3's table (pid 2) with C declared."""
    st = RuntimeSymbolTable(2)
    st.declare("C", seg_C)
    return st


class TestDeclaration:
    def test_entry_fields(self, p3):
        e = p3.entry("C")
        assert e.index == 1
        assert e.rank == 2
        assert e.global_shape == (4, 8)
        assert e.partitioning == "(BLOCK, BLOCK)"
        assert e.segment_shape == (2, 1)
        assert e.segment_count == 4

    def test_segments_accessible_initially(self, p3):
        assert all(
            d.state is SegmentState.ACCESSIBLE for d in p3.entry("C").segdescs
        )

    def test_storage_allocated(self, p3):
        # 4 segments x 2 elements x 8 bytes
        assert p3.memory.live_bytes == 64
        assert p3.memory.live_chunks == 4

    def test_double_declare_rejected(self, p3, seg_C):
        with pytest.raises(OwnershipError):
            p3.declare("C", seg_C)

    def test_unknown_variable(self, p3):
        from repro.core.errors import UnknownVariableError

        with pytest.raises(UnknownVariableError):
            p3.iown("Z", section(1, 1))
        assert "C" in p3 and "Z" not in p3


class TestIownSection31:
    """The paper's walk-through: P3 executes iown(C[1,5:7])."""

    def test_paper_example_true(self, p3):
        assert p3.iown("C", section(1, (5, 7)))

    def test_not_owned_elsewhere(self, p3):
        assert not p3.iown("C", section(1, (1, 3)))  # P1's columns
        assert not p3.iown("C", section((3, 4), (5, 8)))  # P4's rows

    def test_partial_overlap_false(self, p3):
        # Spans P3's and P1's columns.
        assert not p3.iown("C", section(1, (4, 6)))

    def test_whole_partition(self, p3):
        assert p3.iown("C", section((1, 2), (5, 8)))

    def test_other_processor_view(self, seg_C):
        p1 = RuntimeSymbolTable(0)
        p1.declare("C", seg_C)
        assert p1.iown("C", section(1, (1, 4)))
        assert not p1.iown("C", section(1, (5, 7)))


class TestBounds:
    def test_mylb_myub(self, p3):
        assert p3.mylb("C", 1) == 1 and p3.myub("C", 1) == 2
        assert p3.mylb("C", 2) == 5 and p3.myub("C", 2) == 8

    def test_restricted_query(self, p3):
        assert p3.mylb("C", 2, section((1, 2), (6, 8))) == 6

    def test_unowned_gives_sentinels(self, p3):
        assert p3.mylb("C", 1, section((3, 4), (1, 4))) == MAXINT
        assert p3.myub("C", 1, section((3, 4), (1, 4))) == MININT


class TestReadWrite:
    def test_roundtrip_across_segments(self, p3):
        sec = section((1, 2), (5, 8))
        vals = np.arange(8, dtype=np.float64).reshape(2, 4)
        p3.write("C", sec, vals)
        assert np.array_equal(p3.read("C", sec), vals)

    def test_subsection_read(self, p3):
        p3.write("C", section((1, 2), (5, 8)), np.arange(8).reshape(2, 4))
        got = p3.read("C", section(2, (5, 7, 2)))
        assert got.shape == (1, 2)
        assert list(got[0]) == [4.0, 6.0]

    def test_scalar_broadcast_write(self, p3):
        p3.write("C", section((1, 2), (5, 8)), 7.5)
        assert np.all(p3.read("C", section((1, 2), (5, 8))) == 7.5)

    def test_strided_segments_match_dense_mirror(self):
        # CYCLIC-style segments: every position inside a segment is a
        # strided progression of a strided progression.
        st = RuntimeSymbolTable(0)
        st.declare_empty("A", section((1, 16), (1, 12)))
        for lo in (1, 3):
            st.acquire_ownership(
                "A", section((lo, 16, 4), (1, 12, 3)), transitional=False
            )
        mirror = np.zeros((16, 12))
        whole = section((1, 16, 2), (1, 12, 3))  # both segments, interleaved
        vals = np.arange(32.0).reshape(8, 4)
        st.write("A", whole, vals)
        mirror[0:16:2, 0:12:3] = vals
        st.write("A", section((3, 16, 8), (4, 10, 6)), -1.0)
        mirror[2:16:8, 3:10:6] = -1.0
        for sec, want in [
            (whole, mirror[0:16:2, 0:12:3]),
            (section((5, 13, 4), (4, 10, 3)), mirror[4:13:4, 3:10:3]),
            (section((3, 15, 2), 7), mirror[2:15:2, 6:7]),
            (section(11, 10), mirror[10:11, 9:10]),
        ]:
            assert np.array_equal(st.read("A", sec), want), sec

    def test_read_unowned_raises(self, p3):
        with pytest.raises(OwnershipError):
            p3.read("C", section(1, (1, 8)))

    def test_write_unowned_raises(self, p3):
        with pytest.raises(OwnershipError):
            p3.write("C", section((3, 4), (5, 8)), 0.0)


class TestValueReceiveStates:
    def test_begin_makes_transitional(self, p3):
        sec = section((1, 2), 5)
        p3.begin_value_receive("C", sec)
        assert p3.state_of("C", sec) is SegmentState.TRANSITIONAL
        assert not p3.accessible("C", sec)
        assert p3.iown("C", sec)  # still owned

    def test_complete_restores_accessible(self, p3):
        sec = section((1, 2), 5)
        p3.begin_value_receive("C", sec)
        p3.complete_value_receive("C", sec, np.array([[1.0], [2.0]]))
        assert p3.accessible("C", sec)
        assert list(p3.read("C", sec).ravel()) == [1.0, 2.0]

    def test_nested_receives(self, p3):
        sec = section((1, 2), 5)
        p3.begin_value_receive("C", sec)
        p3.begin_value_receive("C", sec)
        p3.complete_value_receive("C", sec, 1.0)
        assert p3.state_of("C", sec) is SegmentState.TRANSITIONAL
        p3.complete_value_receive("C", sec, 2.0)
        assert p3.accessible("C", sec)

    def test_receive_into_unowned_raises(self, p3):
        with pytest.raises(OwnershipError):
            p3.begin_value_receive("C", section(1, (1, 2)))

    def test_strict_read_of_transitional(self, seg_C):
        st = RuntimeSymbolTable(2, strict=True)
        st.declare("C", seg_C)
        st.begin_value_receive("C", section((1, 2), 5))
        with pytest.raises(OwnershipError):
            st.read("C", section((1, 2), 5))

    def test_nonstrict_read_of_transitional_allowed(self, p3):
        p3.begin_value_receive("C", section((1, 2), 5))
        # Unpredictable value, but no run-time check (paper section 2.1).
        p3.read("C", section((1, 2), 5))


class TestOwnershipTransfer:
    def test_release_whole_segment(self, p3):
        sec = section((1, 2), 5)
        p3.write("C", sec, np.array([[3.0], [4.0]]))
        before = p3.memory.live_bytes
        vals = p3.release_ownership("C", sec, with_value=True)
        assert list(vals.ravel()) == [3.0, 4.0]
        assert not p3.iown("C", sec)
        assert p3.entry("C").segment_count == 3
        assert p3.memory.live_bytes == before - 16

    def test_release_without_value(self, p3):
        assert p3.release_ownership("C", section((1, 2), 6), with_value=False) is None
        assert not p3.iown("C", section(1, 6))

    def test_release_splits_segment(self, p3):
        # Release only element (1,5) of the (1:2,5) segment.
        p3.write("C", section((1, 2), 5), np.array([[9.0], [8.0]]))
        p3.release_ownership("C", section(1, 5), with_value=True)
        assert not p3.iown("C", section(1, 5))
        assert p3.iown("C", section(2, 5))
        assert p3.read("C", section(2, 5))[0, 0] == 8.0
        assert p3.entry("C").segment_count == 4  # 3 intact + 1 split remainder

    def test_release_across_segments(self, p3):
        p3.release_ownership("C", section((1, 2), (5, 6)), with_value=False)
        assert p3.entry("C").segment_count == 2
        assert p3.owned_elements("C") == 4

    def test_release_unowned_raises(self, p3):
        with pytest.raises(OwnershipError):
            p3.release_ownership("C", section(1, (1, 2)), with_value=True)

    def test_release_transitional_raises(self, p3):
        p3.begin_value_receive("C", section((1, 2), 5))
        with pytest.raises(OwnershipError):
            p3.release_ownership("C", section((1, 2), 5), with_value=True)

    def test_acquire_then_complete(self, p3):
        sec = section((3, 4), 1)  # P2's territory, unowned by P3
        desc = p3.acquire_ownership("C", sec)
        assert desc.state is SegmentState.TRANSITIONAL
        assert p3.iown("C", sec)
        assert not p3.accessible("C", sec)
        p3.complete_ownership_receive("C", sec, np.array([[1.5], [2.5]]))
        assert p3.accessible("C", sec)
        assert list(p3.read("C", sec).ravel()) == [1.5, 2.5]

    def test_acquire_owned_raises(self, p3):
        with pytest.raises(OwnershipError):
            p3.acquire_ownership("C", section(1, 5))

    def test_ownership_only_receive_has_undefined_value(self, p3):
        sec = section((3, 4), 1)
        p3.acquire_ownership("C", sec)
        p3.complete_ownership_receive("C", sec, None)  # '<=': no value moved
        assert p3.accessible("C", sec)

    def test_complete_without_initiation_raises(self, p3):
        with pytest.raises(OwnershipError):
            p3.complete_ownership_receive("C", section((3, 4), 1), None)

    def test_roundtrip_release_acquire(self, p3):
        sec = section((1, 2), 5)
        p3.write("C", sec, 5.0)
        vals = p3.release_ownership("C", sec, with_value=True)
        p3.acquire_ownership("C", sec)
        p3.complete_ownership_receive("C", sec, vals)
        assert p3.accessible("C", sec)
        assert np.all(p3.read("C", sec) == 5.0)

    def test_storage_reuse_accounting(self, p3):
        """Section 2.6: released storage is reclaimed for acquired sections."""
        peak0 = p3.memory.peak_bytes
        p3.release_ownership("C", section((1, 2), (5, 8)), with_value=False)
        assert p3.memory.live_bytes == 0
        p3.acquire_ownership("C", section((3, 4), (1, 4)))
        assert p3.memory.live_bytes == 64
        assert p3.memory.peak_bytes == peak0  # footprint never grew


class TestFullyCollapsedDim:
    def test_star_block_table(self):
        dist = Distribution(
            section((1, 4), (1, 8)), (Collapsed(), Block()), ProcessorGrid((2, 2))
        )
        st = RuntimeSymbolTable(0)
        st.declare("A", Segmentation(dist, (2, 1)))
        assert st.entry("A").segment_count == 4
        assert st.iown("A", section((1, 4), (1, 2)))
        assert not st.iown("A", section((1, 4), (1, 3)))


class TestSegmentIndex:
    """The dim-0 interval index used by overlapping() past INDEX_THRESHOLD
    segments must give the same answers as the linear scan, and must be
    invalidated by every geometry change (release / acquire / declare)."""

    def make_table(self, extent=64, nprocs=1):
        dist = Distribution(
            section((1, extent)), (Block(),), ProcessorGrid((nprocs,))
        )
        st = RuntimeSymbolTable(0)
        st.declare("A", Segmentation(dist, (1,)))  # extent one-element segments
        return st

    def test_indexed_queries_match_linear_semantics(self):
        st = self.make_table(64)
        e = st.entry("A")
        assert e.segment_count > e.INDEX_THRESHOLD
        assert st.iown("A", section(17))
        assert st.iown("A", section((5, 60)))
        assert not st.iown("A", section((60, 70)))
        assert st.accessible("A", section((1, 64)))
        st.write("A", section(9), 4.5)
        assert st.read("A", section(9))[0] == 4.5
        # Strided query crosses many one-element segments.
        st.write("A", section((2, 64, 2)), np.arange(32.0))
        assert st.read("A", section((10, 12, 2))).tolist() == [4.0, 5.0]

    def test_index_invalidated_by_release_and_acquire(self):
        st = self.make_table(64)
        st.iown("A", section(1))  # force an index build
        st.release_ownership("A", section((17, 24)), with_value=False)
        assert not st.iown("A", section(20))
        assert st.iown("A", section((1, 16)))
        st.acquire_ownership("A", section((17, 24)), transitional=False)
        assert st.iown("A", section(20))
        assert st.accessible("A", section((1, 64)))

    def test_mylb_myub_with_index(self):
        st = self.make_table(64)
        st.release_ownership("A", section((1, 8)), with_value=False)
        assert st.mylb("A", 1) == 9
        assert st.myub("A", 1) == 64


class TestResolutionRecords:
    """Every intrinsic answers from one memoized record per (entry,
    section value); geometry changes drop it, the end of a run empties it."""

    def test_equal_sections_share_one_record(self, p3):
        a, b = section((1, 2), (5, 6)), section((1, 2), (5, 6))
        assert a is not b
        entry = p3.entry("C")
        assert p3.iown("C", a)
        p3.read("C", b)
        p3.mylb("C", 1, section((1, 2), (5, 6)))
        assert len(entry._resolve_cache) == 1
        assert p3._resolve(entry, a) is p3._resolve(entry, b)

    def test_record_not_served_after_geometry_change(self, p3):
        sec = section((1, 2), (5, 6))  # two whole 2x1 segments
        p3.write("C", sec, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert p3.iown("C", sec)
        assert p3.state_of("C", sec) is SegmentState.ACCESSIBLE
        assert p3.read("C", sec).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        # Splitting a segment changes both the verdict and the data path.
        p3.release_ownership("C", section(1, 5), with_value=False)
        assert not p3.iown("C", sec)
        assert p3.state_of("C", sec) is SegmentState.UNOWNED
        assert p3.mylb("C", 1, section((1, 2), 5)) == 2
        with pytest.raises(OwnershipError, match="owns only 3 of 4"):
            p3.read("C", sec)
        # Adding a segment flips them back; the new element reads as the
        # fresh (zeroed) chunk, not the value cached before the split.
        p3.acquire_ownership("C", section(1, 5), transitional=False)
        assert p3.iown("C", sec)
        assert p3.read("C", sec).tolist() == [[0.0, 2.0], [3.0, 4.0]]

    # The same type is the static verifier's abstract table
    # (repro.core.segtable.SegmentTable): same memo, same rules.

    def test_run_time_entry_is_the_shared_type(self, p3):
        from repro.core.segtable import SegmentTable

        assert isinstance(p3.entry("C"), SegmentTable)

    def test_abstract_tables_share_records_by_section_value(self):
        from repro.core.analysis.verify_comm import _Machine
        from repro.core.ir.parser import parse_program

        m = _Machine(parse_program("array A[1:8] dist (BLOCK) seg (2)\n"),
                     4, None, 1000)
        a, b = section((1, 2)), section((1, 2))
        assert a is not b
        table = m.tables[(1, "A")]
        assert m.iown(1, "A", a) and m.overlapping(1, "A", b)
        assert m.state_of(1, "A", b) is SegmentState.ACCESSIBLE
        assert len(table._resolve_cache) == 1
        assert table.resolve(a) is table.resolve(b)
        # An abstract release is a geometry change: the record goes, and
        # the verdict with it.
        m.release(1, "A", section(1))
        assert not table._resolve_cache
        assert not m.iown(1, "A", a) and m.iown(1, "A", section(2))
        assert m.state_of(1, "A", a) is SegmentState.UNOWNED

    def test_abstract_ownership_receive_drops_the_record(self):
        from repro.core.analysis.verify_comm import verify_communication
        from repro.core.ir.parser import parse_program

        # P1 asks about A[5:6] (unowned: memoized), then acquires it.  A
        # stale record would flag the write below as unowned; P3's guarded
        # write after its release would be flagged if *its* record stayed.
        report = verify_communication(parse_program("""
array A[1:8] dist (BLOCK) seg (2)
scalar x = 0
mypid == 1 : {
  iown(A[5:6]) : { x = 1 }
  A[5:6] <=-
  await(A[5:6])
  A[5] = 1
}
mypid == 3 : {
  iown(A[5:6]) : { x = 1 }
  A[5:6] -=> {1}
  iown(A[5:6]) : { A[5] = 2 }
}
"""), 4)
        assert report.clean, report.format()

    def test_overlapping_is_in_table_order_past_the_index_threshold(self):
        from repro.core.segtable import SegmentTable

        class Desc:
            def __init__(self, segment):
                self.segment = segment

        # Descending lower bounds: index order is the reverse of table order.
        descs = [Desc(section((lo, lo + 1))) for lo in range(19, 0, -2)]
        table = SegmentTable(segdescs=descs)
        assert len(descs) >= table.INDEX_THRESHOLD
        hit = [d for d, _ in table.overlapping(section((4, 9)))]
        assert hit == [d for d in descs
                       if d.segment.dims[0].hi >= 4 and d.segment.dims[0].lo <= 9]
        pairs, covers, exact = table.resolve(section((5, 6)))
        assert covers and exact is descs[7] and pairs == ((descs[7], section((5, 6))),)

    def test_index_is_on_the_dimension_that_partitions_the_segments(self):
        from repro.core.segtable import SegmentTable

        class Desc:
            def __init__(self, segment):
                self.segment = segment

        # (*,*,BLOCK) seg (n,1,1): every segment spans dim 0, so an index
        # there would hand back the whole table for any query.
        descs = [Desc(section((1, 8), j, k))
                 for k in range(1, 9) for j in range(1, 3)]
        table = SegmentTable(segdescs=descs)
        query = section((1, 8), (1, 2), 3)
        want = [d for d in descs if d.segment.dims[2].lo == 3]
        assert table._candidates(query) == want
        assert [d for d, _ in table.overlapping(query)] == want
        # Geometry changes re-pick the dimension.
        table.segdescs = [Desc(section(i, (1, 8), (1, 4))) for i in range(1, 9)]
        table.invalidate_index()
        assert [d for d, _ in table.overlapping(section(2, 3, 3))] == [
            table.segdescs[1]]
        assert table._index_dim == 0

    def test_compiled_run_records_bounded_by_distinct_sections(self, monkeypatch):
        import gc
        from collections import Counter, defaultdict

        from repro.apps.jacobi import jacobi_source
        from repro.core.codegen import lower
        from repro.machine import RecvInit, Send

        def live_effects():
            gc.collect()
            return sum(isinstance(o, (Send, RecvInit)) for o in gc.get_objects())

        runner = lower(jacobi_source(64, 4, 3, "halo-overlap"), 4)
        runner.write_global("A", np.arange(64.0))
        runner.write_global("B", np.zeros(64))
        effects_before = live_effects()

        calls, peak, distinct = Counter(), Counter(), defaultdict(set)
        resolve = RuntimeSymbolTable._resolve

        def spy(table, entry, sec):
            res = resolve(table, entry, sec)
            calls[id(entry)] += 1
            distinct[id(entry)].add(sec)
            peak[id(entry)] = max(peak[id(entry)], len(entry._resolve_cache))
            return res

        monkeypatch.setattr(RuntimeSymbolTable, "_resolve", spy)
        runner.run()

        # The VM builds a fresh Section per evaluation: records are bounded
        # by the distinct sections queried, not by the number of calls.
        for key, sections in distinct.items():
            assert peak[key] <= len(sections)
        assert sum(calls.values()) > 5 * sum(map(len, distinct.values()))
        # Lifetime: nothing per-run survives run() — no records in any
        # table, and no effect object pinned by the transport.
        for table in runner.engine.symtabs:
            assert all(not e._resolve_cache for e in table.variables())
        assert live_effects() == effects_before
