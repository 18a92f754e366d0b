"""The optimizer decides ownership and fusion legality on sections.

* differential: the section-algebra ``dynamic_guard_true_iterations`` and
  the closed-form ``can_fuse`` against the point-enumerating originals
  kept in ``tests/opt_oracles.py``;
* pins: the optimized stage-0 FFT is byte-identical to what the
  enumerating optimizer produced;
* scale, without wall-clock: no element is ever enumerated, sizes past
  the old silent caps are optimized rather than quietly skipped, and at
  n = P the stage-0 FFT is decided for all processors at once;
* runs of processors: what the optimizer decides for a run of processors
  at once (bounds affine in ``mypid``) is what each of them gets alone.
"""

import hashlib
from pathlib import Path

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
from repro.core.ir.parser import parse_expression
from repro.core.opt import common
from repro.core.opt.common import OwnershipFlow, dynamic_guard_true_iterations
from repro.core.opt.fusion import can_fuse
from repro.core.pidaffine import PidAffine, per_run
from repro.core.sections import Section, section
from repro.distributions import ProcessorGrid

from . import opt_oracles

LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "programs"

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

    def test_an_unresolvable_acquisition_makes_ownership_unknown(self):
        # With m unknown, A[m] <= may acquire any element or none: past a
        # processor's first true iteration neither the flow's mover nor
        # the point sets can say where the guard holds.
        decls = [f"array {v}[1:4] dist (BLOCK) seg (1)" for v in "AB"]
        src = "do i = 1, 4\n  iown(A[i]) : {\n    A[m] <=\n    A[m] =>\n  }\nenddo"
        program, ctx = context(decls, src, 4, None)
        loop = program.body.stmts[0]
        guard_ref = loop.body.stmts[0].rule.ref
        answers = [(opt_oracles.dynamic_guard_true_iterations(
                        loop, guard_ref, ctx, ctx.consts, pid),
                    dynamic_guard_true_iterations(loop, guard_ref, ctx, ctx.consts, pid))
                   for pid in range(4)]
        assert answers == [(None, None)] * 3 + [([4], [4])]

    @SETTINGS
    @given(cases())
    def test_runs_of_processors_agree_with_point_sets(self, case):
        decls, src, nprocs, grid = case
        program, ctx = context(decls, src, nprocs, grid)
        loop = program.body.stmts[0]
        guard_ref = loop.body.stmts[0].rule.ref
        runs, _ = per_run(nprocs, lambda pid: dynamic_guard_true_iterations(
            loop, guard_ref, ctx, ctx.consts, pid))
        for lo, hi, got in runs:
            for pid1 in range(lo, hi + 1):
                want = opt_oracles.dynamic_guard_true_iterations(
                    loop, guard_ref, ctx, ctx.consts, pid1 - 1)
                on = [v.at(pid1) if isinstance(v, PidAffine) else v for v in got or ()]
                assert want == (got and on), (src, pid1)


def assert_flow_is_the_run(src, nprocs):
    """Every element's ``iown`` on every processor, from the flow after the
    whole program, equals what the executed program's symbol tables hold."""
    program = parse_program(src)
    flow = OwnershipFlow(CompilerContext.create(program, nprocs))
    for s in program.body:
        flow.after(s)
    vm = lower(program, nprocs)
    vm.run()
    space = flow.ctx.layouts["A"].distribution.index_space
    for pid in range(nprocs):
        for point in space:
            ref = parse_expression(f"A[{','.join(map(str, point))}]")
            assert flow.owns(ref, flow.ctx.consts, pid) == vm.engine.symtabs[pid].iown(
                "A", section(*point)), (pid, point)
    return flow


class TestFlowDifferential:
    """The ownership flow after a run of ownership transfers equals what
    the executed program's symbol tables hold."""

    @st.composite
    def transfers(draw):
        n, nprocs = draw(st.integers(4, 12)), draw(st.integers(2, 4))
        spec = draw(st.sampled_from(DIST_SPECS))
        owner = [None] * (n + 1)
        program = parse_program(
            f"array A[1:{n}] dist ({spec}) seg (1)\nA[1] = 0\n")
        dist = CompilerContext.create(program, nprocs).layouts["A"].distribution
        for pid in range(nprocs):
            for sec in dist.owned_sections(pid):
                for (i,) in sec:
                    owner[i] = pid
        lines = [f"array A[1:{n}] dist ({spec}) seg (1)"]
        for _ in range(draw(st.integers(1, 6))):
            i = draw(st.integers(1, n))
            src, hi = owner[i], i
            while hi < n and owner[hi + 1] == src:
                hi += 1
            hi = draw(st.integers(i, hi))
            dst = draw(st.sampled_from([p for p in range(nprocs) if p != src]))
            lines += [f"mypid == {src + 1} : {{ A[{i}:{hi}] -=> {{{dst + 1}}} }}",
                      f"mypid == {dst + 1} : {{ A[{i}:{hi}] <=- }}"]
            owner[i:hi + 1] = [dst] * (hi + 1 - i)
        return "\n".join(lines) + "\n", nprocs, n

    @SETTINGS
    @given(transfers())
    def test_flow_equals_the_run(self, case):
        src, nprocs, n = case
        program = parse_program(src)
        flow = OwnershipFlow(CompilerContext.create(program, nprocs))
        for s in program.body:
            flow.after(s)
        vm = lower(program, nprocs)
        vm.run()
        for pid in range(nprocs):
            owned = flow.sections("A", pid)
            assert sum(sec.size for sec in owned) == sum(
                vm.engine.symtabs[pid].iown("A", section(i)) for i in range(1, n + 1))
            for i in range(1, n + 1):
                assert flow.owns(parse_expression(f"A[{i}]"), flow.ctx.consts, pid) \
                    == vm.engine.symtabs[pid].iown("A", section(i)), (src, pid, i)


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


#: Re-pinned when the ownership flow let compute-rule elimination drop
#: Loop4's loop (n = P) or localize its bounds (n != P), and fusion began
#: to decline the receive loop; at n = P the output is the stage-2 listing
#: (``tests/test_paper_listings.py::TestListingsAreDerived``).  Re-pinned
#: (32, 16) when await sinking began to decline an await that an enclosing
#: loop already paces: at n != P Loop4's j loop stays, so its
#: ``await(A[*,j,*])`` keeps the i loop inside instead of one await per
#: pencil.
FFT_PINS = {
    (16, 16): "e279b20364ac1bce8f2d55377892afdeaa635635c35468c2c36d49bf68874e4c",
    (32, 16): "f15b03d33a7b7fd7d6e7f75185e504e88850a4ff7b1f09d052f6b7b2ec5fca51",
    (32, 32): "ef11704ead2cdadb949163cdbe58bea3bde63ab865de5214ab8c26792d4b8316",
}


#: Stage-0 inputs whose generator output has changed since their digest
#: was recorded (Loop3 is now emitted in closed form), frozen as they were.
FFT_FROZEN = {(32, 16): Path(__file__).parent / "data" / "fft3d_s0_n32_p16.xdp"}


def optimized_fft(n, nprocs):
    frozen = FFT_FROZEN.get((n, nprocs))
    src = frozen.read_text() if frozen else fft3d_source(n, nprocs, 0)
    return optimize(parse_program(src), nprocs, level=2)


@pytest.mark.parametrize("n,nprocs", sorted(FFT_PINS))
def test_optimized_fft_is_byte_identical(n, nprocs):
    text = print_program(optimized_fft(n, nprocs).program)
    assert hashlib.sha256(text.encode()).hexdigest() == FFT_PINS[n, nprocs]


def iown_guards(program):
    return [
        e for s in walk_stmts(program.body) if isinstance(s, Guarded)
        for e in walk_exprs(s.rule) if isinstance(e, Iown)]


class TestRunsOfProcessors:
    """The flow and compute-rule elimination for all processors at once."""

    @pytest.mark.parametrize("nprocs", [2, 3, 5])
    def test_shift_by_a_rule_in_mypid(self, nprocs):
        # Each processor passes two thirds of its block on; the rules split
        # the processors into runs, which the flow keeps apart.
        src = (f"array A[1:{3 * nprocs}] dist (BLOCK) seg (1)\n"
               f"mypid < {nprocs} : {{ A[3*mypid-2:3*mypid-1] -=> {{mypid + 1}} }}\n"
               "mypid > 1 : { A[3*mypid-5:3*mypid-4] <=- }\n")
        assert_flow_is_the_run(src, nprocs)

    def test_shrinking_partner_blocks_move_only_what_they_name(self):
        # Processor 1 collects every row and hands blocks of it back; the
        # receivers 2..4 walk ``do d`` as one run.  The blocks shrink (3, 2,
        # 1 elements, with gaps), so the loop is no one swept section.
        src = ("array A[1:4, 0:8] dist (BLOCK, *) seg (1, 9)\n"
               "mypid > 1 : { A[mypid, *] -=> {1} }\n"
               "mypid == 1 : {\n  do q = 2, 4\n    A[q, *] <=-\n"
               "    do d = 0, q - 2\n      A[q, 3*d:2*d+2] -=> {q}\n    enddo\n  enddo\n}\n"
               "mypid > 1 : {\n  do d = 0, mypid - 2\n    A[mypid, 3*d:2*d+2] <=-\n  enddo\n}\n")
        assert_flow_is_the_run(src, 4)

    def test_growing_partner_blocks_move_what_each_processor_moves(self, monkeypatch):
        # Growing affine blocks overlap from the third iteration on, so no
        # run of the program could check them; the flow for the run 2..4 at
        # once must still equal the flow of each processor alone.
        program = parse_program(
            "array A[1:4, 0:8] dist (BLOCK, *) seg (1, 9)\n"
            "mypid > 1 : { A[mypid, *] -=> {1} }\n"
            "mypid > 1 : {\n  do d = 0, mypid - 1\n    A[mypid, d:2*d] <=-\n  enddo\n}\n")

        def flow():
            flow = OwnershipFlow(CompilerContext.create(program, 4))
            for s in program.body:
                flow.after(s)
            return [flow.sections("A", pid) for pid in range(4)]

        at_once = flow()
        monkeypatch.setattr(common, "per_run", lambda nprocs, question, cuts=(): (
            [(p, p, question(p - 1)) for p in range(1, nprocs + 1)], None))
        alone = flow()
        assert alone[3] == [section(4, (0, 6))]
        assert [set(x) for x in at_once] == [set(x) for x in alone]

    @pytest.mark.parametrize("n,nprocs", [(6, 3), (8, 4), (12, 6)])
    def test_redistgen_partner_loops_leave_one_formula(self, n, nprocs):
        flow = assert_flow_is_the_run(fft3d_source(n, nprocs, 0), nprocs)
        assert [(lo, hi) for lo, hi, _ in flow.moved["A"]] == [(1, nprocs)]

    def test_per_processor_blocks_are_decided_and_reported(self):
        # The tuner's fused redistribution guards every fragment with
        # ``mypid == p``: what each processor owns along the way is no one
        # formula in mypid, so Loop4 is decided per processor — still
        # localized — and the report says so.
        src = (LEDGER / "tune_fft3d_s0.xdp").read_text()
        assert_flow_is_the_run(src, 4)
        reports = optimize(parse_program(src), 4, level=2).reports
        assert reports[4:6] == [
            "compute-rule-elimination: decided await(A[*,j,*]) in the loop over j "
            "per processor, not in closed form — no formula in mypid gives what "
            "every processor owns of A (mypid == 1 holds on processor 1 only)",
            "compute-rule-elimination: localized loop over j to owned bounds of "
            "A[*,*,*] and kept the await guard"]

    @pytest.mark.parametrize("n,nprocs", [(16, 16), (16, 4), (64, 16)])
    def test_closed_form_adds_no_report_line(self, n, nprocs):
        reports = optimize(parse_program(fft3d_source(n, nprocs, 0)), nprocs).reports
        assert not any("not in closed form" in r for r in reports)


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
        program = parse_program(fft3d_source(n, nprocs, 0))
        no_enumeration[0] = 0  # planning Loop3 is the generator's work
        result = optimize(program, nprocs, level=2)
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

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_stage0_fft_walks_no_single_processor_at_n_eq_p(self, n, monkeypatch):
        # 1,600 / 6,272 / 24,832 walks of one processor each while every
        # processor was walked; all of them now walk as one run.  The
        # count includes the guard decisions' walks of Loop 3's body (the
        # flow's own mover, 8n + 7 calls in all).
        walks = {"one": 0, "run": 0}
        run = common._Mover.run

        def counting(self, *args):
            walks["run" if isinstance(self.pid, PidAffine) else "one"] += 1
            return run(self, *args)

        monkeypatch.setattr(common._Mover, "run", counting)
        result = optimize(parse_program(fft3d_source(n, n, 0)), n, level=2)
        assert walks["one"] == 0 and 0 < walks["run"] <= 10 * n
        assert sum("by mypid" in r for r in result.reports) == 4

    def test_ownership_moving_loop_past_the_old_element_cap(self, no_enumeration):
        # n = P = 48: Loop 3 transfers ownership inside its own guard, and
        # 48**3 elements is past the 65,536 the point sets gave up at;
        # Loop 4's await loop goes too, over the ownership Loop 3 leaves.
        result = optimized_fft(48, 48)
        assert sum("replaced" in r and "by mypid" in r for r in result.reports) == 4
        assert sum("fused loops" in r for r in result.reports) == 1
        assert sum("loop-fusion: declined — the loop over m only initiates "
                   "receives" in r for r in result.reports) == 1
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
