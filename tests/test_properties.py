"""Property-based tests (hypothesis) for core invariants:

* triplet/section algebra agrees with explicit enumeration;
* distributions partition the index space exactly;
* segmentations tile each local partition exactly;
* redistribution plans conserve elements;
* the parser/printer round-trips;
* translation (both strategies), optimization, and the VM path all
  compute the same result as the sequential semantics.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.sections import (
    Section, Triplet, group_into_triplets, section_difference, triplet,
)
from repro.distributions import (
    Block, BlockCyclic, Collapsed, Cyclic, Distribution, ProcessorGrid,
    Segmentation, plan_redistribution,
)
from repro.core.sections import section

# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #

triplets = st.builds(
    Triplet,
    st.integers(-30, 30),
    st.integers(-30, 60),
    st.integers(1, 7),
).filter(lambda t: True)


@st.composite
def valid_triplets(draw):
    lo = draw(st.integers(-30, 30))
    size = draw(st.integers(1, 20))
    step = draw(st.integers(1, 7))
    return Triplet(lo, lo + (size - 1) * step, step)


@st.composite
def sections_st(draw, rank=None):
    r = rank if rank is not None else draw(st.integers(1, 3))
    return Section(tuple(draw(valid_triplets()) for _ in range(r)))


class TestTripletProperties:
    @given(valid_triplets(), valid_triplets())
    def test_intersection_matches_enumeration(self, a, b):
        inter = a.intersect(b)
        expected = sorted(set(a) & set(b))
        if inter is None:
            assert expected == []
        else:
            assert list(inter) == expected

    @given(valid_triplets(), valid_triplets())
    def test_intersection_commutative(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(valid_triplets())
    def test_self_intersection_identity(self, a):
        assert a.intersect(a) == a

    @given(valid_triplets(), valid_triplets())
    def test_contains_triplet_matches_sets(self, a, b):
        assert a.contains_triplet(b) == (set(b) <= set(a))

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=30, unique=True))
    def test_group_into_triplets_partition(self, members):
        members = sorted(members)
        groups = group_into_triplets(members)
        covered = []
        for g in groups:
            covered.extend(g)
        assert sorted(covered) == members
        # pairwise disjoint by construction of a partition
        assert len(covered) == len(set(covered))


class TestSectionProperties:
    @given(sections_st(rank=2), sections_st(rank=2))
    def test_intersection_matches_enumeration(self, a, b):
        inter = a.intersect(b)
        expected = set(a) & set(b)
        if inter is None:
            assert expected == set()
        else:
            assert set(inter) == expected

    @given(sections_st(rank=2), sections_st(rank=2))
    def test_difference_partitions(self, a, b):
        pieces = section_difference(a, b)
        pts: list[tuple[int, ...]] = []
        for p in pieces:
            pts.extend(p)
        expected = set(a) - set(b)
        assert set(pts) == expected
        assert len(pts) == len(set(pts))  # disjoint

    @given(sections_st())
    def test_size_matches_enumeration(self, s):
        assert s.size == len(list(s))


dim_specs = st.sampled_from(
    [Block(), Cyclic(), BlockCyclic(2), BlockCyclic(3)]
)


@st.composite
def distributions_st(draw):
    rank = draw(st.integers(1, 2))
    nprocs = draw(st.sampled_from([1, 2, 3, 4]))
    dims = []
    specs = []
    n_distributed = 0
    for i in range(rank):
        lo = draw(st.integers(0, 3))
        size = draw(st.integers(1, 12))
        dims.append(Triplet(lo, lo + size - 1, 1))
        collapse = draw(st.booleans()) and (n_distributed > 0 or i < rank - 1)
        if collapse:
            specs.append(Collapsed())
        else:
            specs.append(draw(dim_specs))
            n_distributed += 1
    assume(n_distributed >= 1)
    grid_shape = (nprocs,) if n_distributed == 1 else None
    if n_distributed == 2:
        # factor nprocs into two dims
        grid_shape = {1: (1, 1), 2: (2, 1), 3: (3, 1), 4: (2, 2)}[nprocs]
    return Distribution(
        Section(tuple(dims)), tuple(specs), ProcessorGrid((nprocs,)),
        dist_grid_shape=grid_shape,
    )


class TestDistributionProperties:
    @given(distributions_st())
    @settings(max_examples=60)
    def test_exact_partition(self, dist):
        counts: dict[tuple[int, ...], int] = {}
        for pid in dist.grid.pids():
            for sec in dist.owned_sections(pid):
                for pt in sec:
                    counts[pt] = counts.get(pt, 0) + 1
        all_pts = set(dist.index_space)
        assert set(counts) == all_pts
        assert all(c == 1 for c in counts.values())

    @given(distributions_st())
    @settings(max_examples=60)
    def test_owner_agrees_with_owned_sections(self, dist):
        for pid in dist.grid.pids():
            for sec in dist.owned_sections(pid):
                for pt in sec:
                    assert dist.owner(pt) == pid

    @given(distributions_st(), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=60)
    def test_segmentation_tiles_partition(self, dist, s1, s2):
        shape = (s1,) if dist.rank == 1 else (s1, s2)
        seg = Segmentation(dist, shape)
        for pid in dist.grid.pids():
            seg_pts: list[tuple[int, ...]] = []
            for s in seg.segments(pid):
                seg_pts.extend(s)
            owned_pts: list[tuple[int, ...]] = []
            for s in dist.owned_sections(pid):
                owned_pts.extend(s)
            assert sorted(seg_pts) == sorted(owned_pts)

    @given(distributions_st(), dim_specs)
    @settings(max_examples=40)
    def test_redistribution_conserves_elements(self, src, new_spec):
        specs = list(src.specs)
        # retarget the first distributed dim
        for i, s in enumerate(specs):
            if not s.collapsed:
                specs[i] = new_spec
                break
        dst = Distribution(
            src.index_space, tuple(specs), src.grid,
            dist_grid_shape=src.dist_grid_shape,
        )
        plan = plan_redistribution(src, dst)
        assert plan.total_elements_moved + plan.stationary_elements == src.index_space.size
        for m in plan.moves:
            assert m.src != m.dst
            for pt in m.section:
                assert src.owner(pt) == m.src
                assert dst.owner(pt) == m.dst


# ---------------------------------------------------------------------- #
# parser round trip
# ---------------------------------------------------------------------- #

from repro.core.ir.parser import parse_expression, parse_program
from repro.core.ir.printer import print_expr, print_program
from repro.core.ir import nodes as N


@st.composite
def exprs_st(draw, depth=0):
    if depth > 3:
        return draw(
            st.one_of(
                st.builds(N.IntConst, st.integers(-99, 99)),
                st.builds(N.VarRef, st.sampled_from(["x", "y", "n"])),
                st.just(N.Mypid()),
            )
        )
    return draw(
        st.one_of(
            st.builds(N.IntConst, st.integers(-99, 99)),
            st.builds(N.VarRef, st.sampled_from(["x", "y", "n"])),
            st.just(N.Mypid()),
            st.just(N.NumProcs()),
            st.builds(
                N.BinOp,
                st.sampled_from(["+", "-", "*", "/", "%", "min", "max"]),
                exprs_st(depth=depth + 1),
                exprs_st(depth=depth + 1),
            ),
            st.builds(
                N.UnaryOp,
                st.just("-"),
                exprs_st(depth=depth + 1).filter(
                    lambda e: not isinstance(e, (N.IntConst, N.FloatConst))
                ),
            ),
        )
    )


class TestParserRoundTrip:
    @given(exprs_st())
    @settings(max_examples=150)
    def test_expr_roundtrip(self, e):
        text = print_expr(e)
        assert parse_expression(text) == e


# ---------------------------------------------------------------------- #
# end-to-end semantics properties
# ---------------------------------------------------------------------- #

from repro.core.codegen import lower
from repro import Interpreter
from repro.core.opt import optimize
from repro.core.translate import translate
from repro.machine import MachineModel

FAST = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)

_DIST_NAMES = ["(BLOCK)", "(CYCLIC)", "(CYCLIC(2))", "(CYCLIC(3))"]


@st.composite
def elementwise_programs(draw):
    n = draw(st.integers(4, 12))
    nprocs = draw(st.sampled_from([2, 3, 4]))
    dist_a = draw(st.sampled_from(_DIST_NAMES))
    dist_b = draw(st.sampled_from(_DIST_NAMES))
    op = draw(st.sampled_from(["+", "-", "*"]))
    shift = draw(st.integers(0, 1))
    lo = 1 + shift
    hi = n - draw(st.integers(0, 1))
    assume(lo <= hi)
    src = f"""
array A[1:{n}] dist {dist_a} seg (1)
array B[1:{n}] dist {dist_b} seg (1)

do i = {lo}, {hi}
  A[i] = A[i] {op} B[i]
enddo
"""
    return src, n, nprocs, op, lo, hi


def _expected(a, b, op, lo, hi):
    out = a.copy()
    sl = slice(lo - 1, hi)
    if op == "+":
        out[sl] = a[sl] + b[sl]
    elif op == "-":
        out[sl] = a[sl] - b[sl]
    else:
        out[sl] = a[sl] * b[sl]
    return out


@st.composite
def sweep_programs(draw):
    """Repeated-sweep programs: stress cross-iteration name reuse, which is
    only well-defined with bound destinations (the translator's default)."""
    n = draw(st.integers(4, 10))
    nprocs = draw(st.sampled_from([2, 4]))
    dist_b = draw(st.sampled_from(_DIST_NAMES))
    sweeps = draw(st.integers(2, 4))
    src = f"""
array A[1:{n}] dist (BLOCK) seg (1)
array B[1:{n}] dist {dist_b} seg (1)

do t = 1, {sweeps}
  do i = 1, {n}
    A[i] = A[i] + B[i]
  enddo
  do i = 1, {n}
    B[i] = B[i] + 1
  enddo
enddo
"""
    return src, n, nprocs, sweeps


class TestSweepProperties:
    @given(sweep_programs(), st.randoms(use_true_random=False))
    @settings(max_examples=15, deadline=None)
    def test_repeated_sweeps_match_sequential(self, params, rnd):
        src, n, nprocs, sweeps = params
        prog = parse_program(src)
        a = np.array([rnd.randint(-3, 3) for _ in range(n)], dtype=float)
        b = np.array([rnd.randint(-3, 3) for _ in range(n)], dtype=float)
        want_a, want_b = a.copy(), b.copy()
        for _ in range(sweeps):
            want_a += want_b
            want_b += 1
        for strategy in ("owner-computes", "migrate"):
            xl = translate(prog, nprocs, strategy=strategy)
            it = Interpreter(xl, nprocs, model=FAST)
            it.write_global("A", a)
            it.write_global("B", b)
            it.run()
            assert np.array_equal(it.read_global("A"), want_a), strategy
            assert np.array_equal(it.read_global("B"), want_b), strategy


class TestEndToEndProperties:
    @given(elementwise_programs(), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_all_paths_agree_with_sequential(self, params, rnd):
        src, n, nprocs, op, lo, hi = params
        prog = parse_program(src)
        a0 = np.array([rnd.randint(-5, 5) for _ in range(n)], dtype=float)
        b0 = np.array([rnd.randint(-5, 5) for _ in range(n)], dtype=float)
        want = _expected(a0, b0, op, lo, hi)

        variants = []
        naive = translate(prog, nprocs)
        variants.append(("naive", naive))
        variants.append(("opt", optimize(naive, nprocs).program))
        variants.append(("migrate", translate(prog, nprocs, strategy="migrate")))
        variants.append(
            ("migrate-lit", translate(prog, nprocs, strategy="migrate",
                                      literal_migrate=True))
        )
        for label, p in variants:
            it = Interpreter(p, nprocs, model=FAST)
            it.write_global("A", a0)
            it.write_global("B", b0)
            it.run()
            got = it.read_global("A")
            assert np.array_equal(got, want), (label, got, want)
            cp = lower(p, nprocs, model=FAST)
            cp.write_global("A", a0)
            cp.write_global("B", b0)
            cp.run()
            got_vm = cp.read_global("A")
            assert np.array_equal(got_vm, want), (label + "/vm", got_vm, want)

# ---------------------------------------------------------------------- #
# declaration-string layout plumbing (the tuner's search-space ground truth)
# ---------------------------------------------------------------------- #

from repro.core.analysis.layouts import (
    build_layouts, build_segmentation, decl_index_space,
)


@st.composite
def layout_decl_sources(draw):
    """A random valid declaration line plus a machine size.

    Exactly one distributed dimension (the rank-1 grid case the tuner
    enumerates); collapsed dims, offset bounds, and an optional explicit
    seg clause are all drawn freely.
    """
    rank = draw(st.integers(1, 3))
    dist_axis = draw(st.integers(0, rank - 1))
    nprocs = draw(st.sampled_from([2, 3, 4, 6]))
    bounds, specs, segs = [], [], []
    for axis in range(rank):
        lo = draw(st.integers(0, 2))
        extent = draw(st.integers(1, 9))
        bounds.append(f"{lo}:{lo + extent - 1}")
        if axis == dist_axis:
            specs.append(draw(st.sampled_from(
                ["BLOCK", "CYCLIC", "CYCLIC(2)", "CYCLIC(3)"]
            )))
        else:
            specs.append("*")
        segs.append(draw(st.integers(1, 3)))
    src = f"array A[{', '.join(bounds)}] dist ({', '.join(specs)})"
    if draw(st.booleans()):
        src += f" seg ({', '.join(map(str, segs))})"
    return src + "\n", nprocs


class TestDeclLayoutPlumbing:
    @given(layout_decl_sources())
    @settings(max_examples=80, deadline=None)
    def test_spec_strings_partition_exactly(self, case):
        src, nprocs = case
        program = parse_program(src)
        decl = program.array_decls()[0]
        grid = ProcessorGrid((nprocs,))
        seg = build_segmentation(decl, grid)
        # build_layouts is the same plumbing, program-wide
        assert build_layouts(program, grid)["A"] == seg
        counts: dict[tuple[int, ...], int] = {}
        for pid in grid.pids():
            for s in seg.segments(pid):
                for pt in s:
                    counts[pt] = counts.get(pt, 0) + 1
        # every declared element lands in exactly one processor's segments
        assert set(counts) == set(decl_index_space(decl))
        assert all(c == 1 for c in counts.values())

    @given(layout_decl_sources())
    @settings(max_examples=40, deadline=None)
    def test_segments_respect_declared_granularity(self, case):
        src, nprocs = case
        program = parse_program(src)
        decl = program.array_decls()[0]
        seg = build_segmentation(decl, ProcessorGrid((nprocs,)))
        if decl.segment_shape is not None:
            for pid in range(nprocs):
                for s in seg.segments(pid):
                    for t, cap in zip(s.dims, decl.segment_shape):
                        assert t.size <= cap


# ---------------------------------------------------------------------- #
# run-time ownership transfer: redistribution round-trips
# ---------------------------------------------------------------------- #

from repro.runtime.symtab import RuntimeSymbolTable, SegmentState


def _iota(sec):
    """Value of each point = its row-major position in the index space —
    distinct everywhere, so any misrouted element is visible."""
    return {pt: float(i) for i, pt in enumerate(sec)}


def _fill(symtabs, name, values):
    for st_ in symtabs:
        for d in st_.entry(name).segdescs:
            vals = np.array([values[pt] for pt in d.segment]).reshape(d.segment.shape)
            st_.write(name, d.segment, vals)


def _snapshot(symtabs, name):
    """point -> (pid, value) over all owned segments; asserts exclusivity."""
    out = {}
    for st_ in symtabs:
        for d in st_.entry(name).segdescs:
            assert d.state is SegmentState.ACCESSIBLE
            chunk = st_.read(name, d.segment).reshape(-1)
            for pt, v in zip(d.segment, chunk):
                assert pt not in out, f"{pt} owned by P{out[pt][0]} and P{st_.pid}"
                out[pt] = (st_.pid, float(v))
    return out


def _execute_plan(symtabs, name, plan):
    """Drive each move through the symtab state machine, as the engine
    would: release (gathering values), acquire (transitional), complete."""
    for m in plan.moves:
        data = symtabs[m.src].release_ownership(name, m.section, with_value=True)
        symtabs[m.dst].acquire_ownership(name, m.section)
        symtabs[m.dst].complete_ownership_receive(name, m.section, data)


class TestRedistributionRoundTrip:
    @given(distributions_st(), dim_specs, st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_there_and_back_preserves_data_and_ownership(self, src, new_spec, sw):
        """A -> B -> A through release/acquire/complete leaves every element
        with its original owner and original value, all accessible."""
        specs = list(src.specs)
        for i, s in enumerate(specs):
            if not s.collapsed:
                specs[i] = new_spec
                break
        dst = Distribution(
            src.index_space, tuple(specs), src.grid,
            dist_grid_shape=src.dist_grid_shape,
        )
        shape = (sw,) * src.rank
        seg = Segmentation(src, shape)
        nprocs = src.grid.size
        symtabs = [RuntimeSymbolTable(pid, strict=True) for pid in range(nprocs)]
        for st_ in symtabs:
            st_.declare("A", seg)
        values = _iota(src.index_space)
        _fill(symtabs, "A", values)
        before = _snapshot(symtabs, "A")

        _execute_plan(symtabs, "A", plan_redistribution(src, dst, segmentation=seg))
        mid = _snapshot(symtabs, "A")
        assert {pt: v for pt, (_, v) in mid.items()} == values
        for pt, (pid, _) in mid.items():
            assert pid == dst.owner(pt)

        _execute_plan(symtabs, "A", plan_redistribution(dst, src))
        after = _snapshot(symtabs, "A")
        assert after == before


# ---------------------------------------------------------------------- #
# segmentation / iown consistency
# ---------------------------------------------------------------------- #


@st.composite
def query_sections_st(draw, space):
    dims = []
    for t in space.dims:
        lo = draw(st.integers(t.lo, t.hi))
        hi = draw(st.integers(lo, t.hi))
        step = draw(st.integers(1, 3))
        dims.append(Triplet(lo, hi - (hi - lo) % step, step))
    return Section(tuple(dims))


class TestIownSegmentationConsistency:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_iown_matches_point_enumeration(self, data):
        """``iown`` (the section-3.1 intersection algorithm) agrees with
        brute-force point membership against the segmentation's segments,
        and ``accessible`` coincides with it while nothing is in flight."""
        dist = data.draw(distributions_st())
        sw = data.draw(st.integers(1, 3))
        seg = Segmentation(dist, (sw,) * dist.rank)
        q = data.draw(query_sections_st(dist.index_space))
        for pid in dist.grid.pids():
            st_ = RuntimeSymbolTable(pid)
            st_.declare("A", seg)
            owned_pts = {pt for s in seg.segments(pid) for pt in s}
            expected = set(q) <= owned_pts
            assert st_.iown("A", q) is expected
            assert st_.accessible("A", q) is expected
            assert (st_.state_of("A", q) is SegmentState.ACCESSIBLE) is expected

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_segments_cover_iown_of_whole_partition(self, data):
        """Each pid owns exactly its segments: iown is true on every single
        segment and on nothing that sticks out of the partition."""
        dist = data.draw(distributions_st())
        sw = data.draw(st.integers(1, 3))
        seg = Segmentation(dist, (sw,) * dist.rank)
        for pid in dist.grid.pids():
            st_ = RuntimeSymbolTable(pid)
            st_.declare("A", seg)
            for s in seg.segments(pid):
                assert st_.iown("A", s)
            for other in dist.grid.pids():
                if other == pid:
                    continue
                for s in seg.segments(other):
                    assert not st_.iown("A", s)
