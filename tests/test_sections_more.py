"""Additional unit tests for section algebra: difference, grouping,
rendering, and corner geometries."""

from repro.core.sections import (
    Section,
    Triplet,
    group_into_triplets,
    section,
    section_difference,
    triplet,
    triplet_difference,
)


class TestTripletDifference:
    def test_disjoint_returns_original(self):
        t = Triplet(1, 4)
        assert triplet_difference(t, Triplet(10, 12)) == [t]

    def test_full_cover_returns_empty(self):
        assert triplet_difference(Triplet(2, 6, 2), Triplet(0, 10)) == []

    def test_middle_cut(self):
        out = triplet_difference(Triplet(1, 9), Triplet(4, 6))
        assert [list(t) for t in out] == [[1, 2, 3], [7, 8, 9]]

    def test_strided_cut_leaves_strided_remainder(self):
        # {0..7} minus evens -> odds.
        out = triplet_difference(Triplet(0, 7), Triplet(0, 6, 2))
        assert len(out) == 1 and list(out[0]) == [1, 3, 5, 7]

    def test_cut_of_strided_by_unit(self):
        # {1,4,7,10} minus 4:7 -> {1,10}, groupable as one step-9 triplet.
        out = triplet_difference(Triplet(1, 10, 3), Triplet(4, 7))
        assert sorted(m for t in out for m in t) == [1, 10]

    def test_huge_progression_is_cut_by_arithmetic(self):
        big = Triplet(0, 10**9)
        assert triplet_difference(big, Triplet(5, 5)) == [
            Triplet(0, 4), Triplet(6, 10**9)]
        assert triplet_difference(big, Triplet(0, 10**9, 3)) == [
            Triplet(1, 10**9, 3), Triplet(2, 10**9, 3)]

    def test_residue_classes_bound_the_piece_count(self):
        # A stride-k cut leaves at most k + 1 progressions.
        t, cut = Triplet(3, 99, 2), Triplet(9, 81, 6)
        out = triplet_difference(t, cut)
        assert len(out) <= 6 // 2 + 1
        assert sorted(m for p in out for m in p) == [
            m for m in t if m not in cut]


class TestGroupIntoTriplets:
    def test_empty(self):
        assert group_into_triplets([]) == []

    def test_singleton(self):
        assert group_into_triplets([7]) == [Triplet(7, 7, 1)]

    def test_arithmetic_run(self):
        assert group_into_triplets([2, 5, 8, 11]) == [Triplet(2, 11, 3)]

    def test_mixed_runs(self):
        out = group_into_triplets([1, 2, 3, 10, 20, 30])
        covered = [m for t in out for m in t]
        assert covered == [1, 2, 3, 10, 20, 30]


class TestSectionDifference:
    def test_corner_overlap(self):
        a = section((1, 4), (1, 4))
        b = section((3, 6), (3, 6))
        pieces = section_difference(a, b)
        pts = {p for s in pieces for p in s}
        assert pts == set(a) - set(b)
        # Box decomposition of a corner cut: 2 pieces.
        assert len(pieces) == 2

    def test_hole_in_middle(self):
        a = section((1, 5), (1, 5))
        b = section(3, 3)
        pieces = section_difference(a, b)
        pts = [p for s in pieces for p in s]
        assert len(pts) == 24 and len(set(pts)) == 24

    def test_identity_and_empty(self):
        a = section((1, 4))
        assert section_difference(a, section((9, 10))) == [a]
        assert section_difference(a, a) == []


class TestRendering:
    def test_triplet_str(self):
        assert str(triplet(5)) == "5"
        assert str(Triplet(1, 8)) == "1:8"
        assert str(Triplet(1, 7, 2)) == "1:7:2"

    def test_section_str_matches_paper(self):
        assert str(section((1, 4), 3, (1, 8, 2))) == "[1:4,3,1:7:2]"


class TestGeometry:
    def test_bounding_box_of_scalar(self):
        s = section(4, 7)
        assert s.bounding_box() == s

    def test_high_rank(self):
        s = Section(tuple(Triplet(1, 2) for _ in range(5)))
        assert s.rank == 5 and s.size == 32
        assert (1, 1, 1, 1, 1) in s and (2, 2, 2, 2, 3) not in s

    def test_intersect_scalar_dims(self):
        a = section(3, (1, 10))
        b = section((1, 5), 7)
        assert a.intersect(b) == section(3, 7)
        assert a.intersect(section(4, (1, 10))) is None
