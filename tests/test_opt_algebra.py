"""The optimizer decides ownership and fusion legality on sections.

* differential: the section-algebra ``dynamic_guard_true_iterations`` and
  the closed-form ``can_fuse`` against the point-enumerating originals
  kept in ``tests/opt_oracles.py``;
* pins: the optimized stage-0 FFT is byte-identical to what the
  enumerating optimizer produced;
* scale, without wall-clock: no element is ever enumerated, and sizes past
  the old silent caps are optimized rather than quietly skipped.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import lower, parse_program
from repro.apps.fft3d import fft3d_source
from repro.core.analysis import CompilerContext
from repro.core.analysis.verify_comm import verify_communication
from repro.core.ir.nodes import DoLoop, Guarded, Iown
from repro.core.ir.printer import print_program
from repro.core.ir.visitor import walk_exprs, walk_stmts
from repro.core.opt import ComputeRuleElimination, LoopFusion, PassManager, optimize
from repro.core.opt.common import dynamic_guard_true_iterations
from repro.core.opt.fusion import can_fuse
from repro.core.sections import Section
from repro.distributions import ProcessorGrid

from . import opt_oracles

SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

DIST_SPECS = ["BLOCK", "CYCLIC", "CYCLIC(2)", "CYCLIC(3)"]


@st.composite
def layouts(draw):
    """``(decl lines, extents, nprocs, grid)``: arrays A and B of one rank
    1-3 shape, one or two distributed dimensions."""
    rank = draw(st.integers(1, 3))
    extents = [draw(st.integers(2, 6)) for _ in range(rank)]
    ndist = draw(st.integers(1, min(rank, 2)))
    dist_dims = draw(st.permutations(range(rank)))[:ndist]
    if ndist == 2:
        nprocs, grid = 4, ProcessorGrid((2, 2))
    else:
        nprocs, grid = draw(st.integers(2, 4)), None
    decls = []
    for name in "AB":
        specs = [draw(st.sampled_from(DIST_SPECS)) if d in dist_dims else "*"
                 for d in range(rank)]
        bounds = ",".join(f"1:{e}" for e in extents)
        decls.append(
            f"array {name}[{bounds}] dist ({', '.join(specs)}) "
            f"seg ({','.join('1' * rank)})")
    return decls, extents, nprocs, grid


def subscript(draw, extent, loop_forms):
    """One subscript: a loop-variable form, or something constant."""
    lo = draw(st.integers(1, extent))
    hi = draw(st.integers(lo, extent))
    return draw(st.sampled_from(
        loop_forms + ["*", str(lo), f"{lo}:{hi}", f"{lo}:{hi}:2", "mypid"]))


def reference(draw, name, extents, loop_forms):
    return f"{name}[{','.join(subscript(draw, e, loop_forms) for e in extents)}]"


def context(decls, body, nprocs, grid):
    program = parse_program("\n".join(decls) + "\n" + body + "\n")
    return program, CompilerContext.create(program, nprocs, grid)


class TestGuardDifferential:
    @st.composite
    def cases(draw):
        decls, extents, nprocs, grid = draw(layouts())
        dim = draw(st.integers(0, len(extents) - 1))
        guard_subs = [
            "i" if d == dim else subscript(draw, e, []) for d, e in enumerate(extents)]
        guard = f"A[{','.join(guard_subs)}]"
        lo = draw(st.integers(0, 2))
        hi = draw(st.integers(lo, extents[dim] + 1))
        step = draw(st.sampled_from([1, 1, 2, -1]))
        if step < 0:
            lo, hi = hi, lo
        forms = ["i", "i+1", "i-1", "m"]
        ref = lambda name: reference(draw, name, extents, forms)
        inner = extents[draw(st.integers(0, len(extents) - 1))]
        body = draw(st.sampled_from([
            # value work only: the static closed form decides
            [f"{guard} = 1"],
            [f"{ref('B')} = 1", f"{ref('B')} =>"],
            # the guarded body moves ownership of the guard's own array
            [f"{guard} -=>"],
            [f"{guard} =>", f"{ref('A')} <=-"],
            [f"{ref('A')} <=", f"{ref('A')} =>", f"{ref('B')} -=>"],
            [f"do m = 1, {inner}", f"  {ref('A')} -=>", "enddo",
             f"do m = 1, {inner}", f"  {ref('A')} <=-", "enddo"],
        ]))
        src = "\n".join(
            [f"do i = {lo}, {hi}, {step}", f"  iown({guard}) : {{"]
            + [f"    {line}" for line in body] + ["  }", "enddo"])
        return decls, src, nprocs, grid

    @SETTINGS
    @given(cases())
    def test_section_lists_agree_with_point_sets(self, case):
        decls, src, nprocs, grid = case
        program, ctx = context(decls, src, nprocs, grid)
        loop = program.body.stmts[0]
        guard_ref = loop.body.stmts[0].rule.ref
        for pid in range(nprocs):
            want = opt_oracles.dynamic_guard_true_iterations(
                loop, guard_ref, ctx, ctx.consts, pid)
            got = dynamic_guard_true_iterations(
                loop, guard_ref, ctx, ctx.consts, pid)
            assert got == want, (src, pid)


LOOP_FORMS = ["{v}", "{v}+1", "{v}-1", "{v}+2"]
#: Shapes of the loop variable the closed form only over-approximates.
WIDENED_FORMS = ["2*{v}", "{v}*{v}", "{v}:{v}+1", "4-{v}", "{v}%2+1"]


@st.composite
def loop_pairs(draw, forms, triangular=False):
    decls, extents, nprocs, grid = draw(layouts())
    lo = draw(st.integers(0, 2))
    hi = draw(st.integers(lo, max(extents) + 1))
    step = draw(st.sampled_from([1, 1, 2, -1]))
    if step < 0:
        lo, hi = hi, lo

    def body(var):
        var_forms = [f.format(v=var) for f in forms] + ["m"]
        ref = lambda names: reference(
            draw, draw(st.sampled_from(names)), extents, var_forms)
        inner_hi = var if triangular and draw(st.booleans()) else "3"
        return "\n".join(draw(st.lists(st.sampled_from([
            f"{ref('AB')} = {ref('AB')} + 1",
            f"{ref('AB')} = 0",
            f"iown({ref('A')}) : {{ {ref('AB')} = 0 }}",
            f"await({ref('A')}) : {{ {ref('B')} = 0 }}",
            f"{ref('A')} -=>", f"{ref('A')} =>", f"{ref('AB')} ->",
            f"{ref('A')} <=-", f"{ref('A')} <=", f"{ref('AB')} <- {ref('AB')}",
            f"call work({ref('AB')})",
            f"do m = 1, {inner_hi}\n  {ref('A')} = 0\nenddo",
        ]), min_size=1, max_size=3)))

    bounds = f"{lo}, {hi}, {step}"
    other = bounds if draw(st.integers(0, 9)) else f"{lo}, {hi + 1}, {step}"
    src = (f"do i = {bounds}\n{body('i')}\nenddo\n"
           f"do j = {other}\n{body('j')}\nenddo")
    return decls, src, nprocs, grid


def fuse_verdicts(case):
    decls, src, nprocs, grid = case
    program, ctx = context(decls, src, nprocs, grid)
    a, b = program.body.stmts
    return can_fuse(a, b, ctx), opt_oracles.can_fuse(a, b, ctx), src


class TestFusionDifferential:
    @SETTINGS
    @given(loop_pairs(LOOP_FORMS))
    def test_closed_form_agrees_with_pair_enumeration(self, case):
        got, want, src = fuse_verdicts(case)
        assert got == want, src

    @SETTINGS
    @given(loop_pairs(LOOP_FORMS + WIDENED_FORMS, triangular=True))
    def test_widened_subscripts_never_fuse_what_enumeration_refuses(self, case):
        got, want, src = fuse_verdicts(case)
        assert want or not got, src


FFT_PINS = {
    (16, 16): "d695157b2db2af293d729fcd5e2cc579a8ef01f832beee484260b846052a8527",
    (32, 16): "97a0dde3bdf628ad24465d7c416b8753e23d3799ff7ba02016ca9b86d239333a",
    (32, 32): "6834d6e5d58c6b17b352cbe45006b926164523baa8c18ef38c69b1223c904321",
}


def optimized_fft(n, nprocs):
    return optimize(parse_program(fft3d_source(n, nprocs, 0)), nprocs, level=2)


@pytest.mark.parametrize("n,nprocs", sorted(FFT_PINS))
def test_optimized_fft_is_byte_identical(n, nprocs):
    text = print_program(optimized_fft(n, nprocs).program)
    assert hashlib.sha256(text.encode()).hexdigest() == FFT_PINS[n, nprocs]


def iown_guards(program):
    return [
        e for s in walk_stmts(program.body) if isinstance(s, Guarded)
        for e in walk_exprs(s.rule) if isinstance(e, Iown)]


class TestScale:
    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        """Element enumeration raises; ``Section.intersect`` is counted."""
        def refuse(self):
            raise AssertionError(f"elements of {self} enumerated")

        calls = [0]
        intersect = Section.intersect

        def counting(self, other):
            calls[0] += 1
            return intersect(self, other)

        monkeypatch.setattr(Section, "__iter__", refuse)
        monkeypatch.setattr(Section, "intersect", counting)
        return calls

    def test_n64_compiles_on_sections_and_runs_correctly(self, no_enumeration, monkeypatch):
        n, nprocs = 64, 16
        result = optimized_fft(n, nprocs)
        assert no_enumeration[0] <= 64  # 32 today; 262,144 array elements
        monkeypatch.undo()
        assert not iown_guards(result.program)
        assert sum("localized loop over k" in r for r in result.reports) == 2
        assert verify_communication(result.program, nprocs).ok
        rng = np.random.default_rng(7)
        a0 = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        vm = lower(result.program, nprocs)
        vm.write_global("A", a0)
        vm.run()
        assert np.allclose(vm.read_global("A"), np.fft.fftn(a0), atol=1e-9 * n**3)

    def test_ownership_moving_loop_past_the_old_element_cap(self, no_enumeration):
        # n = P = 48: Loop 3 transfers ownership inside its own guard, and
        # 48**3 elements is past the 65,536 the point sets gave up at.
        result = optimized_fft(48, 48)
        assert sum("replaced" in r and "by mypid" in r for r in result.reports) == 3
        assert sum("fused loops" in r for r in result.reports) == 2
        assert not iown_guards(result.program)
        assert no_enumeration[0] <= 48**3 + 8 * 48**2

    def test_fusion_at_trip_count_65(self, no_enumeration):
        # 65 * 65 iteration pairs was past the old pair budget.
        src = """
array A[1:65] dist (BLOCK) seg (1)
array B[1:65] dist (BLOCK) seg (1)

do i = 1, 65
  iown(A[i]) : { A[i] = 1 }
enddo
do j = 1, 65
  iown(B[j]) : { B[j] = A[j] }
enddo
"""
        result = PassManager([LoopFusion()]).run(parse_program(src), 4)
        assert any("fused loops over i and j" in r for r in result.reports)
        (loop,) = result.program.body.stmts
        assert isinstance(loop, DoLoop) and len(loop.body) == 2

    @pytest.mark.parametrize("pass_", [ComputeRuleElimination(), LoopFusion()])
    def test_symbolic_bounds_are_declined_out_loud(self, pass_):
        src = """
array A[1:8] dist (BLOCK) seg (1)
scalar m

do i = 1, m
  iown(A[i]) : { A[i] = 1 }
enddo
do j = 1, m
  iown(A[j]) : { A[j] = 2 }
enddo
"""
        reports = PassManager([pass_]).run(parse_program(src), 4).reports
        assert all(r.startswith(f"{pass_.name}: declined — ") for r in reports)
        assert reports and not any("no opportunities" in r for r in reports)
