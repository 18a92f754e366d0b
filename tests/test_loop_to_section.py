"""Loop-to-section (``core/opt/loop_to_section.py``): equivalence, goldens
and what the rewrite is worth.

The differential draws random affine element loops and runs the level-0 and
level-2 programs under both walkers: the arrays must be equal, and a loop
the brute-force dependence oracle below rules out (or that touches an
integer array, or uses its variable as a value) must still be a loop, with
a report line saying why.
"""

import pathlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import lower, parse_program
from repro.apps.fft3d import fft3d_source
from repro.apps.jacobi import jacobi_source
from repro.apps.matmul import matmul_source
from repro.core.analysis import CompilerContext
from repro.core.analysis.verify_comm import verify_communication
from repro.core.interp import Interpreter
from repro.core.ir.nodes import DoLoop
from repro.core.ir.printer import print_program
from repro.core.ir.visitor import walk_stmts
from repro.core.opt import (
    AwaitSinking, Cleanup, ComputeRuleElimination, DestinationBinding,
    GuardHoisting, LoopFusion, LoopToSection, MessageVectorization,
    ReceiveHoisting, TransferElimination, optimize,
)
from repro.core.translate import translate

from .fuzz.gen_programs import generate_battery
from .test_opt import SEQ_ALIGNED

ROOT = pathlib.Path(__file__).parent
LEDGER = ROOT.parent / "benchmarks" / "e2e" / "programs"
REWROTE = "loop-to-section: rewrote"
DECLINED = "loop-to-section: declined — "


def loops_over(program, var):
    return [s for s in walk_stmts(program.body)
            if isinstance(s, DoLoop) and s.var == var]


def run_both(program, nprocs, init):
    """Final arrays under the interpreter and the lowered code (cleanup
    may have dropped the declaration of one the program never mentions)."""
    names = [d.name for d in program.array_decls() if d.name in init]
    out = []
    for make in (Interpreter, lower):
        runner = make(program, nprocs)
        for name in names:
            runner.write_global(name, init[name])
        runner.run()
        out.append({name: runner.read_global(name) for name in names})
    return out


# ---------------------------------------------------------------------- #
# random affine loops
# ---------------------------------------------------------------------- #

N1, ROWS, COLS = 48, 12, 4  # rank-1 extent; rank-2 extents (local, distributed)


@dataclass(frozen=True)
class Case:
    rank: int
    dist: str            # BLOCK | CYCLIC, of the distributed dimension
    seg1: bool           # seg (1,..) rather than one segment per block
    int_array: bool      # K is int64 (and some statement touches it)
    bounds: tuple        # ("const", a, b) | ("owned", a, b): lo + a .. hi - b
    step: int
    stmts: tuple         # ((target name, offset), expression tree)

    def ref(self, name, off):
        sub = "i" if off == 0 else f"i {'+' if off > 0 else '-'} {abs(off)}"
        return f"{name}[{sub}]" if self.rank == 1 else f"{name}[{sub}, mypid]"

    def expr(self, e):
        match e:
            case ("ref", name, off):
                return self.ref(name, off)
            case ("leaf", text):
                return text
            case ("neg", x):
                return f"-({self.expr(x)})"
            case ("min" | "max" as f, l, r):
                return f"{f}({self.expr(l)}, {self.expr(r)})"
            case (op, l, r):
                return f"({self.expr(l)} {op} {self.expr(r)})"

    def header(self):
        stars = "*" if self.rank == 1 else "*,*"
        kind, a, b = self.bounds
        if kind == "const":
            lo, hi = str(a), str(b)
        else:
            lo, hi = f"mylb(X[{stars}], 1) + {a}", f"myub(X[{stars}], 1) - {b}"
        if self.step < 0:
            lo, hi = hi, lo
        return f"do i = {lo}, {hi}, {self.step}"

    def source(self):
        bounds = f"1:{N1}" if self.rank == 1 else f"1:{ROWS},1:{COLS}"
        dist = f"({self.dist})" if self.rank == 1 else f"(*, {self.dist})"
        seg = "" if not self.seg1 else " seg (1)" if self.rank == 1 else " seg (1,1)"
        lines = [f"array {n}[{bounds}] dist {dist}{seg}" for n in "XYZ"]
        lines.append(f"array K[{bounds}] dist {dist}{seg}"
                     + (" dtype int64" if self.int_array else ""))
        lines += ["scalar s = 3", ""]
        body = [self.header()] + [
            f"  {self.ref(*target)} = {self.expr(e)}" for target, e in self.stmts
        ] + ["enddo"]
        if self.bounds[0] == "const" and self.rank == 1:
            # Constant bounds sit inside the first processor's block.
            body = ["mypid == 1 : {"] + body + ["}"]
        return "\n".join(lines + body) + "\n"

    def iterations(self, nprocs):
        """The loop's values, in execution order, on the first processor."""
        kind, a, b = self.bounds
        if kind == "const":
            lo, hi = a, b
        else:
            lo, hi = 1 + a, (N1 // nprocs if self.rank == 1 else ROWS) - b
        if self.step < 0:
            return list(range(hi, lo - 1, self.step))
        return list(range(lo, hi + 1, self.step))

    def accesses(self):
        """Per statement: the written (name, offset) and the read ones."""
        def reads(e):
            match e:
                case ("ref", name, off):
                    return [(name, off)]
                case ("leaf", _):
                    return []
                case (_, *kids):
                    return [r for k in kids for r in reads(k)]
        return [(target, reads(e)) for target, e in self.stmts]

    def leaves(self):
        def walk(e):
            match e:
                case ("leaf", text):
                    yield text
                case ("ref", *_):
                    pass
                case (_, *kids):
                    for k in kids:
                        yield from walk(k)
        return [t for _, e in self.stmts for t in walk(e)]

    def touches(self, name):
        return any(name in [t[0]] + [r[0] for r in rs]
                   for t, rs in self.accesses())


def carried_conflict(case, order):
    """Brute force over iteration pairs: does a write reach a later
    iteration's operand or target within one statement, or does a statement
    conflict with an earlier one at a later iteration?"""
    acc = case.accesses()
    for n, i in enumerate(order):
        for j in order[n + 1:]:
            for k2, (w2, r2) in enumerate(acc):
                at_i = {(name, i + off) for name, off in [w2]}
                if at_i & {(name, j + off) for name, off in r2 + [w2]}:
                    return True
                all_i = {(name, i + off) for name, off in r2}
                for w1, r1 in acc[:k2]:
                    w_j = {(w1[0], j + w1[1])}
                    r_j = {(name, j + off) for name, off in r1}
                    if at_i & (w_j | r_j) or all_i & w_j:
                        return True
    return False


offsets = st.integers(-2, 2)


@st.composite
def exprs(draw, names, poison, depth=2):
    leaf = st.one_of(
        st.tuples(st.just("ref"), st.sampled_from(names), offsets),
        st.sampled_from([("leaf", "2.0"), ("leaf", "0.5"), ("leaf", "s")]
                        + [("leaf", "i")] * poison),
    )
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(leaf)
    sub = exprs(names, poison, depth - 1)
    kind = draw(st.sampled_from(["+", "-", "min", "max", "scale", "neg"]))
    if kind == "neg":
        return ("neg", draw(sub))
    if kind == "scale":  # products and quotients by constants stay finite
        return (draw(st.sampled_from("*/")), draw(sub),
                ("leaf", draw(st.sampled_from(["2", "3.0", "s"]))))
    return (kind, draw(sub), draw(sub))


@st.composite
def cases(draw):
    rank = draw(st.sampled_from([1, 2]))
    int_array = draw(st.integers(0, 5)) == 0
    poison = draw(st.integers(0, 7)) == 0
    names = ["X", "Y", "Z"] + ["K"] * int_array
    targets = ["X", "Y"] + ["K"] * int_array
    stmts = tuple(
        ((draw(st.sampled_from(targets)), draw(offsets)),
         draw(exprs(names, poison)))
        for _ in range(draw(st.integers(1, 2))))
    if draw(st.booleans()):
        bounds = ("const", draw(st.integers(3, 10)), draw(st.integers(3, 10)))
    else:
        bounds = ("owned", draw(st.integers(2, 7)), draw(st.integers(2, 7)))
    case = Case(
        rank, draw(st.sampled_from(["BLOCK", "CYCLIC"])), draw(st.booleans()),
        int_array, bounds, draw(st.sampled_from([1, 2, -1, -2])), stmts)
    return case


class TestDifferential:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cases(), st.integers(0, 2**16))
    def test_level_2_equals_level_0_and_refusals_are_reported(self, case, seed):
        program = parse_program(case.source())
        rng = np.random.default_rng(seed)
        shape = (N1,) if case.rank == 1 else (ROWS, COLS)
        init = {n: rng.integers(-4, 5, shape).astype(float) for n in "XYZ"}
        init["K"] = rng.integers(-4, 5, shape)
        # A rank-1 CYCLIC array has its neighbours elsewhere: one processor.
        for nprocs in (1, 4) if (case.rank, case.dist) != (1, "CYCLIC") else (1,):
            opt = optimize(program, nprocs, level=2)
            said = [r for r in opt.reports if r.startswith("loop-to-section")]
            kept = loops_over(opt.program, "i")
            order = case.iterations(nprocs)

            why = []
            if case.int_array and case.touches("K"):
                why.append("not a float64 array")
            if "i" in case.leaves():
                why.append("as a value")
            if carried_conflict(case, order):
                why += ["dependence", "cannot be distributed"]
            if case.bounds[0] == "const" and not order:
                assert not kept and said[0].startswith(REWROTE)
            elif why:
                assert kept, (case.source(), said)
                assert said[0].startswith(DECLINED) and any(
                    w in said[0] for w in why), (case.source(), said)
            elif case.bounds[0] == "const":
                # The closed form is exact on constant bounds.
                assert not kept and said[0].startswith(REWROTE), (
                    case.source(), said)

            if verify_communication(program, nprocs).ok:
                assert verify_communication(opt.program, nprocs).ok
            want = run_both(program, nprocs, init)
            got = run_both(opt.program, nprocs, init)
            for result in want[1:] + got:
                for name in result:
                    assert np.array_equal(result[name], want[0][name]), (
                        case.source(), print_program(opt.program), name)


NEST = """
array X[1:6,1:8] dist (BLOCK, *) seg (1,8)
array Y[1:6,1:8] dist (BLOCK, *) seg (1,8)
array Z[1:8,1:6] dist (*, BLOCK) seg (8,1)

do i = mylb(X[*,*], 1), myub(X[*,*], 1)
  do j = 2, 7
    X[i,j] = (Y[i,j - 1] + Y[i,j + 1]) / 2.0 + %s
  enddo
enddo
"""


class TestShapes:
    @pytest.mark.parametrize("nprocs", [1, 3])
    def test_rank_2_nest_collapses_to_one_guarded_statement(self, nprocs):
        program = parse_program(NEST % "X[i,j + 1]")
        opt = optimize(program, nprocs, level=2)
        assert not [s for s in walk_stmts(opt.program.body)
                    if isinstance(s, DoLoop)]
        lo, hi = "mylb(X[*,*], 1)", "myub(X[*,*], 1)"
        assert print_program(opt.program).endswith(
            f"\n{lo} <= {hi} : {{\n"
            f"  X[{lo}:{hi},2:7] = (Y[{lo}:{hi},1:6] + Y[{lo}:{hi},3:8]) / 2.0"
            f" + X[{lo}:{hi},3:8]\n}}\n")
        rng = np.random.default_rng(3)
        init = {"X": rng.standard_normal((6, 8)),
                "Y": rng.standard_normal((6, 8)),
                "Z": rng.standard_normal((8, 6))}
        want = run_both(program, nprocs, init)
        for got in run_both(opt.program, nprocs, init):
            assert np.array_equal(got["X"], want[0]["X"])

    def test_transposed_operand_keeps_the_outer_loop(self):
        # Sections keep their rank, so Z[2:7,i] is a column under X[i,2:7].
        opt = optimize(parse_program(NEST % "Z[j,i]"), 1, level=2)
        assert [s.var for s in walk_stmts(opt.program.body)
                if isinstance(s, DoLoop)] == ["i", "j"]
        assert [r for r in opt.reports if r.startswith(DECLINED)] == [
            DECLINED + "the loop over j subscripts different dimensions of "
            "the operands of X[i,j] by j"]

    def test_empty_symbolic_trip_names_no_empty_triplet(self):
        src = ("array A[1:8] dist (BLOCK) seg (1)\n"
               "array B[1:8] dist (BLOCK) seg (1)\n"
               "do i = mylb(A[*], 1) + 1, myub(A[*], 1) - 1\n"
               "  A[i] = B[i - 1] + B[i + 1]\nenddo\n")
        program = parse_program(src)
        opt = optimize(program, 4, level=2)  # blocks of 2: lo = hi + 1
        assert not loops_over(opt.program, "i")
        init = {"A": np.zeros(8), "B": np.arange(8.0)}
        for got in run_both(opt.program, 4, init):  # no ValueError
            assert not got["A"].any()
        for got in run_both(opt.program, 1, init):
            assert list(got["A"][1:7]) == [2.0 * k for k in range(1, 7)]

    @pytest.mark.parametrize("body,reason", [
        ("A[i] = A[i - 1] + 1.0", "carries a flow or output dependence through A[i]"),
        ("A[3] = B[i]", "writes A[3] at every iteration"),
        ("k = k + 1", "assigns the scalar k"),
        ("A[i] = i * 2.0", "uses i as a value"),
        ("A[i] = B[i] % 2", "computes B[i] % 2, which is not elementwise"),
        ("A[i] = mylb(B[*], 1)", "computes mylb(B[*], 1), which is not elementwise"),
        ("A[i] = B[2 * i]", "subscripts B[2 * i] by i other than as i ± c in one dimension"),
        ("A[i] = B[2:3]", "has the loop-invariant section operand B[2:3]"),
        ("A[i] = C[i] + 1", "touches C, which is not a float64 array"),
        ("A[i] = B[i]\n  B[i + 1] = A[i] * 2.0", "cannot be distributed"),
    ])
    def test_refusals_name_their_reason(self, body, reason):
        src = ("array A[1:8] dist (BLOCK) seg (8)\n"
               "array B[1:8] dist (BLOCK) seg (8)\n"
               "array C[1:8] dist (BLOCK) seg (8) dtype complex128\n"
               f"scalar k = 0\n\ndo i = 2, 4\n  {body}\nenddo\n")
        program = parse_program(src)
        opt = optimize(program, 1, level=2)
        assert opt.program.body == program.body
        (line,) = [r for r in opt.reports if r.startswith("loop-to-section")]
        assert line.startswith(DECLINED + "the loop over i ") and reason in line


# ---------------------------------------------------------------------- #
# goldens
# ---------------------------------------------------------------------- #


class TestGoldens:
    @pytest.mark.parametrize("variant", ["halo-overlap", "naive"])
    def test_level_2_jacobi_text(self, variant):
        opt = optimize(jacobi_source(64, 4, 2, variant), 4, level=2)
        golden = ROOT / "golden" / f"jacobi_{variant.replace('-', '_')}_O2.xdp"
        assert print_program(opt.program) == golden.read_text()

    def test_translated_copy_loop_is_one_guarded_section_statement(self):
        text = print_program(
            optimize(jacobi_source(64, 4, 2, "naive"), 4, level=2).program)
        lo, hi = "max(2, mylb(A[*], 1))", "min(63, myub(A[*], 1))"
        assert f"  {lo} <= {hi} : {{\n    A[{lo}:{hi}] = B[{lo}:{hi}]\n  }}\n" in text

    @pytest.mark.parametrize("path", sorted(LEDGER.glob("*.xdp")),
                             ids=lambda p: p.stem)
    def test_only_the_jacobi_ledger_program_has_element_loops(self, path):
        program = parse_program(path.read_text())
        nprocs = 4 if path.stem in ("fft3d_cyclic", "fft3d_cyclic_mutant",
                                    "tune_fft3d_s0") else 16
        opt = optimize(program, nprocs, level=2)
        said = [r for r in opt.reports if r.startswith("loop-to-section")]
        if path.stem.startswith("jacobi_halo"):
            assert len(said) == 17 and all(r.startswith(REWROTE) for r in said)
        else:
            # "no opportunities" means the program every other pass left
            # (the contract test at the end): stmts_out is the parent's.
            assert said == ["loop-to-section: no opportunities"]


# ---------------------------------------------------------------------- #
# what the rewrite is worth
# ---------------------------------------------------------------------- #


class TestValue:
    def test_frozen_jacobi_vt_messages_result_and_verifier_events(self):
        program = parse_program((LEDGER / "jacobi_halo.xdp").read_text())
        a0 = np.random.default_rng(7).standard_normal(1024)
        want = a0.copy()
        for _ in range(8):
            nxt = want.copy()
            nxt[1:-1] = (want[:-2] + want[1:-1] + want[2:]) / 3.0
            want = nxt
        seen = {}
        for level in (0, 2):
            opt = optimize(program, 16, level=level)
            cp = lower(opt.program, 16)
            cp.write_global("A", a0)
            stats = cp.run()
            assert cp.read_global("A").tobytes() == want.tobytes()
            seen[level] = (stats.makespan, stats.total_messages,
                           sum(1 for _ in walk_stmts(opt.program.body)))
        # The first core.opt.vt_gain-style fact (ROADMAP item 1): the vector
        # form pays no ITER_FLOPS and no subscript arithmetic per element.
        assert seen == {0: (8168.0, 240, 247), 2: (6368.0, 240, 231)}
        report = verify_communication(opt.program, 16)
        # 29,120 for the loop form; what is left is every processor
        # evaluating every `mypid == k` guard, not elements.
        assert report.ok and report.events <= 14_000


# ---------------------------------------------------------------------- #
# the report contract
# ---------------------------------------------------------------------- #


def corpus():
    for path in sorted(LEDGER.glob("*.xdp")):
        yield path.stem, parse_program(path.read_text()), 4
    for variant in ("naive", "halo", "halo-overlap"):
        yield f"jacobi-{variant}", jacobi_source(32, 4, 2, variant), 4
    for stage in range(4):
        yield f"fft3d-{stage}", parse_program(fft3d_source(4, 4, stage)), 4
    for variant in ("cannon", "summa", "gather", "outer"):
        yield f"matmul-{variant}", parse_program(matmul_source(8, 4, variant)), 4
    for strategy in ("owner-computes", "migrate"):
        yield f"translated-{strategy}", translate(
            parse_program(SEQ_ALIGNED), 4, strategy=strategy), 4
    for fuzz in generate_battery(40):
        yield fuzz.label, parse_program(fuzz.source), fuzz.nprocs


@pytest.mark.parametrize("name,program,nprocs", list(corpus()),
                         ids=[name for name, _, _ in corpus()])
def test_a_pass_that_reports_no_rewrite_returns_an_equal_program(
        name, program, nprocs):
    """The report is honest: whatever changes the program says so.
    (``PassManager`` itself compares trees before re-verifying.)"""
    ctx = CompilerContext.create(program, nprocs)
    for p in (TransferElimination(), MessageVectorization(),
              DestinationBinding(target="msg"), ComputeRuleElimination(),
              GuardHoisting(), LoopFusion(), AwaitSinking(),
              ReceiveHoisting(), LoopToSection(), Cleanup()):
        before = len(ctx.reports)
        ctx.program = program
        out = p.run(program, ctx)
        if all(" declined — " in r for r in ctx.reports[before:]):
            assert out == program, (p.name, ctx.reports[before:])
        program = out
