"""Unit tests for the F90 triplet section algebra (paper section 2.1, 3.1)."""

import copy
import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.sections import (
    Section,
    Triplet,
    disjoint_cover_equal,
    section,
    triplet,
    unit_sections_1d,
)


class TestTripletConstruction:
    def test_scalar(self):
        t = triplet(5)
        assert t.lo == t.hi == 5
        assert t.size == 1
        assert list(t) == [5]

    def test_simple_range(self):
        t = Triplet(1, 8)
        assert t.size == 8
        assert list(t) == list(range(1, 9))

    def test_strided(self):
        t = Triplet(1, 7, 2)
        assert t.size == 4
        assert list(t) == [1, 3, 5, 7]

    def test_hi_snaps_to_member(self):
        t = Triplet(1, 8, 2)
        assert t.hi == 7
        assert t.size == 4

    def test_negative_step_normalises(self):
        t = Triplet(7, 1, -2)
        assert (t.lo, t.hi, t.step) == (1, 7, 2)
        assert list(t) == [1, 3, 5, 7]

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            Triplet(1, 5, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Triplet(5, 1, 1)

    def test_empty_negative_step_is_named_as_written(self):
        # It used to read "empty triplet 1:5:1", a triplet that is not empty.
        with pytest.raises(ValueError, match="^empty triplet 1:5:-1$"):
            Triplet(1, 5, -1)

    def test_singleton_step_canonical(self):
        assert Triplet(4, 4, 3) == Triplet(4, 4, 1)

    def test_negative_indices(self):
        t = Triplet(-5, 5, 5)
        assert list(t) == [-5, 0, 5]


class TestTripletQueries:
    def test_contains(self):
        t = Triplet(2, 10, 2)
        assert 2 in t and 10 in t and 6 in t
        assert 3 not in t and 0 not in t and 12 not in t

    def test_is_contiguous(self):
        assert Triplet(1, 5).is_contiguous()
        assert Triplet(3, 3, 1).is_contiguous()
        assert not Triplet(1, 5, 2).is_contiguous()

    def test_len(self):
        assert len(Triplet(0, 9, 3)) == 4


class TestTripletIntersect:
    def test_same(self):
        t = Triplet(1, 10, 3)
        assert t.intersect(t) == t

    def test_unit_overlap(self):
        assert Triplet(1, 5).intersect(Triplet(3, 8)) == Triplet(3, 5)

    def test_disjoint_ranges(self):
        assert Triplet(1, 3).intersect(Triplet(5, 9)) is None

    def test_incompatible_residues(self):
        # evens vs odds
        assert Triplet(0, 10, 2).intersect(Triplet(1, 9, 2)) is None

    def test_strided_vs_unit(self):
        assert Triplet(1, 20, 3).intersect(Triplet(5, 15)) == Triplet(7, 13, 3)

    def test_crt_intersection(self):
        # 1 mod 3 meets 2 mod 5 -> 7 mod 15
        a = Triplet(1, 100, 3)
        b = Triplet(2, 100, 5)
        inter = a.intersect(b)
        assert inter == Triplet(7, 97, 15)

    def test_crt_no_solution(self):
        # 0 mod 4 vs 2 mod 8: 2 mod 8 is even but ≡2 (mod 4) != 0
        assert Triplet(0, 64, 4).intersect(Triplet(2, 66, 8)) is None

    def test_commutative(self):
        a, b = Triplet(2, 30, 4), Triplet(0, 30, 6)
        assert a.intersect(b) == b.intersect(a)

    def test_scalar_member(self):
        assert Triplet(4, 4).intersect(Triplet(0, 10, 2)) == Triplet(4, 4)
        assert Triplet(5, 5).intersect(Triplet(0, 10, 2)) is None

    def test_contains_triplet(self):
        assert Triplet(0, 20, 2).contains_triplet(Triplet(4, 12, 4))
        assert not Triplet(0, 20, 2).contains_triplet(Triplet(1, 11, 2))
        assert not Triplet(0, 10, 2).contains_triplet(Triplet(0, 12, 2))


class TestSection:
    def test_rank_and_size(self):
        s = section((1, 4), (1, 8))
        assert s.rank == 2
        assert s.size == 32
        assert s.shape == (4, 8)

    def test_paper_example_syntax(self):
        # C[1, 5:7] from paper section 3.1
        s = section(1, (5, 7))
        assert s.size == 3
        assert str(s) == "[1,5:7]"

    def test_membership(self):
        s = section((1, 4), (2, 8, 2))
        assert (1, 2) in s and (4, 8) in s
        assert (1, 3) not in s
        assert (5, 2) not in s
        assert (1,) not in s  # rank mismatch

    def test_iteration_row_major(self):
        s = section((1, 2), (1, 2))
        assert list(s) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_intersect(self):
        a = section((1, 4), (1, 8))
        b = section((3, 6), (5, 12))
        assert a.intersect(b) == section((3, 4), (5, 8))

    def test_intersect_empty(self):
        a = section((1, 4), (1, 4))
        b = section((1, 4), (5, 8))
        assert a.intersect(b) is None

    def test_intersect_rank_mismatch(self):
        with pytest.raises(ValueError):
            section((1, 4)).intersect(section((1, 4), (1, 4)))

    def test_contains_section(self):
        big = section((1, 10), (1, 10))
        assert big.contains_section(section((2, 5), (3, 9, 3)))
        assert not big.contains_section(section((2, 11), (3, 9)))

    def test_bounding_box(self):
        s = section((1, 9, 4), (2, 8, 3))
        assert s.bounding_box() == section((1, 9), (2, 8))

    def test_empty_rank_rejected(self):
        with pytest.raises(ValueError):
            Section(())

    def test_is_contiguous(self):
        assert section((1, 4), (1, 8)).is_contiguous()
        assert not section((1, 4), (1, 8, 2)).is_contiguous()


class TestCoverage:
    """The union-coverage test at the heart of the section-3.1 iown()."""

    def test_paper_iown_example(self):
        # C[1:4,1:8] (BLOCK,BLOCK) over 2x2; P3 owns rows 1:2, cols 5:8,
        # segmented 2x1 -> segments (1:2,5) (1:2,6) (1:2,7) (1:2,8).
        segs = [section((1, 2), c) for c in (5, 6, 7, 8)]
        query = section(1, (5, 7))
        # Intersections are (1,5),(1,6),(1,7),null; union == query.
        inters = [query.intersect(s) for s in segs]
        assert [i.size if i else None for i in inters] == [1, 1, 1, None]
        assert disjoint_cover_equal(query, segs)

    def test_partial_cover_fails(self):
        segs = [section((1, 2), c) for c in (5, 6)]
        assert not disjoint_cover_equal(section(1, (5, 7)), segs)

    def test_overlapping_parts_detected(self):
        with pytest.raises(ValueError):
            disjoint_cover_equal(
                section((1, 4)), [section((1, 3)), section((2, 4))]
            )

    def test_general_covers_gap(self):
        assert not disjoint_cover_equal(
            section((1, 5)), [section((1, 2)), section((4, 5))])

    def test_covers_disjoint_flag(self):
        segs = [section((i, i + 1)) for i in range(1, 9, 2)]
        assert disjoint_cover_equal(section((1, 8)), segs)

    def test_exact_cover_of_strided_query(self):
        query = section((1, 9, 2))  # {1,3,5,7,9}
        parts = [section((1, 5)), section((6, 10))]
        assert disjoint_cover_equal(query, parts)


# --------------------------------------------------------------------- #
# the slot classes keep the dataclass behaviour they replaced
# --------------------------------------------------------------------- #


def _reference(lo, hi, step):
    """The normalisation of the dataclass ``Triplet.__post_init__`` these
    classes replaced, copied (its empty-triplet message now names the
    triplet as given): → (lo, hi, step), or raises ValueError."""
    if step == 0:
        raise ValueError("triplet step must be nonzero")
    given_ = (lo, hi, step)
    if step < 0:
        lo, hi, step = hi, lo, -step
    if lo > hi:
        raise ValueError("empty triplet {}:{}:{}".format(*given_))
    hi = lo + ((hi - lo) // step) * step
    if step > hi - lo:
        if lo == hi:
            step = 1
    return lo, hi, step


def _reference_str(lo, hi, step):
    if lo == hi:
        return str(lo)
    return f"{lo}:{hi}" if step == 1 else f"{lo}:{hi}:{step}"


#: ``pickle.dumps(Section((Triplet(1, 7, 2), Triplet(3, 3))), protocol=4)``
#: as the dataclass form wrote it.
DATACLASS_PICKLE = bytes.fromhex(
    "80049557000000000000008c13726570726f2e636f72652e73656374696f6e73948c07"
    "53656374696f6e94939429819468008c07547269706c65749493942981945d94284b01"
    "4b074b02656268052981945d94284b034b034b01656286948594622e")

_ints = st.integers(-20, 20)


class TestSlotClasses:
    @given(_ints, _ints, _ints)
    def test_triplet_matches_the_dataclass_it_replaced(self, lo, hi, step):
        try:
            want = _reference(lo, hi, step)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                Triplet(lo, hi, step)
            return
        t = Triplet(lo, hi, step)
        assert (t.lo, t.hi, t.step) == want
        assert repr(t) == "Triplet(lo={}, hi={}, step={})".format(*want)
        assert str(t) == _reference_str(*want)
        assert hash(t) == hash(want)
        assert t == Triplet(*want) and t != want
        for twin in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert type(twin) is Triplet and twin == t and hash(twin) == hash(t)
        sec = Section((t, t))
        assert repr(sec) == f"Section(dims=({t!r}, {t!r}))"
        assert hash(sec) == hash((t, t))
        for twin in (pickle.loads(pickle.dumps(sec)), copy.deepcopy(sec)):
            assert twin == sec and twin.size == sec.size == t.size ** 2
        for obj, field in ((t, "lo"), (t, "step"), (sec, "dims"), (sec, "_hash")):
            with pytest.raises(AttributeError):
                setattr(obj, field, 0)
        if step > 0:
            assert unit_sections_1d(lo, hi, step) == [
                section(v) for v in range(lo, hi + 1, step)]

    def test_pickles_are_the_dataclass_bytes(self):
        sec = Section((Triplet(1, 7, 2), Triplet(3, 3)))
        assert pickle.dumps(sec, protocol=4) == DATACLASS_PICKLE
        assert pickle.loads(DATACLASS_PICKLE) == sec
