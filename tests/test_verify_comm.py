"""Unit tests for the static communication-safety verifier."""

import functools
import hashlib
from collections import Counter
from pathlib import Path

import pytest

from repro import run_program
from repro.core.analysis.verify_comm import (
    CommReport, CommVerificationError, Finding, verify_communication,
)
from repro.core.errors import ProtocolError
from repro.core.ir.parser import parse_program
from repro.core.opt.passmanager import optimize
from repro.core.translate import translate


DATA = Path(__file__).resolve().parent / "data"
BENCH_PROGRAMS = DATA.parent.parent / "benchmarks" / "e2e" / "programs"


def verify(src: str, nprocs: int = 4, **kw) -> CommReport:
    return verify_communication(parse_program(src), nprocs, **kw)


def codes(report: CommReport) -> set[str]:
    return {f.code for f in report.findings}


DECLS = """
array A[1:8] dist (BLOCK) seg (2)
array B[1:8] dist (BLOCK) seg (2)
"""


# --------------------------------------------------------------------- #
# report / finding API
# --------------------------------------------------------------------- #


class TestReportAPI:
    def test_clean_report(self):
        r = verify(DECLS + "mypid == 1 : { A[1] = A[1] + 1 }")
        assert r.ok and r.clean and r.complete
        assert r.errors == [] and r.warnings == []
        assert "0 error(s), 0 warning(s)" in r.format()
        assert "clean" in r.format()

    def test_finding_format_carries_code_loc_pid(self):
        r = verify(DECLS + "mypid == 1 : { A[5] = 0 }")
        (f,) = r.errors
        assert isinstance(f, Finding)
        assert f.code == "unowned-write" and f.severity == "error"
        assert f.pid1 == 1
        text = f.format()
        assert "error[unowned-write]" in text and "[P1]" in text
        assert "A[5] = 0" in text  # IL location: the statement path

    def test_errors_sort_before_warnings(self):
        r = verify(DECLS + """
mypid == 1 : {
  B[5] <- A[1]
  B[5] = B[5] + 1
}
""")
        assert not r.ok
        sev = [f.severity for f in r.findings]
        assert sev == sorted(sev)  # "error" < "warning"

    def test_duplicate_findings_fold_with_count(self):
        r = verify(DECLS + """
scalar i
do i = 1, 3
  mypid == 1 : { A[5] = A[5] + 1 }
enddo
""")
        write = [f for f in r.errors if f.code == "unowned-write"]
        assert len(write) == 1 and write[0].count == 3


# --------------------------------------------------------------------- #
# one test per finding class
# --------------------------------------------------------------------- #


class TestFindingClasses:
    def test_deadlock_no_sender(self):
        r = verify(DECLS + """
mypid == 2 : {
  A[1:2] <=-
  await(A[1:2]) : { A[1] = A[1] + 1 }
}
""")
        assert "deadlock" in codes(r) and not r.ok

    def test_stale_read_without_await(self):
        r = verify(DECLS + """
mypid == 1 : { A[1:2] -> {2} }
mypid == 2 : {
  B[3] <- A[1]
  A[3] = A[3] + B[3]
}
""")
        assert "stale-read" in codes(r)

    def test_size_mismatch(self):
        r = verify(DECLS + """
mypid == 1 : { A[1:2] -> {2} }
mypid == 2 : {
  B[3] <- A[1:2]
  await(B[3]) : { A[3] = B[3] }
}
""")
        assert "size-mismatch" in codes(r)

    def test_ownership_multicast(self):
        r = verify(DECLS + "mypid == 1 : { A[1:2] -=> {2,3} }")
        assert "ownership-multicast" in codes(r)

    def test_unowned_read(self):
        r = verify(DECLS + "mypid == 1 : { A[1] = A[1] + B[5] }")
        assert codes(r) == {"unowned-read"}

    def test_unowned_write(self):
        r = verify(DECLS + "mypid == 2 : { A[1] = 0 }")
        assert codes(r) == {"unowned-write"}

    def test_send_of_unowned_value(self):
        r = verify(DECLS + "mypid == 2 : { A[1] -> {3} }")
        assert "send-unowned" in codes(r)

    def test_bad_destination(self):
        r = verify(DECLS + "mypid == 1 : { A[1] -> {9} }")
        assert "bad-destination" in codes(r)

    def test_acquire_of_owned_section(self):
        r = verify(DECLS + "mypid == 1 : { A[1:2] <=- }")
        assert "acquire-overlap" in codes(r)

    def test_unmatched_send(self):
        r = verify(DECLS + "mypid == 1 : { A[1] -> {2} }")
        assert "unmatched-send" in codes(r)

    def test_unmatched_receive(self):
        r = verify(DECLS + "mypid == 2 : { B[3] <- A[1] }")
        assert "unmatched-receive" in codes(r)

    def test_unknown_variable(self):
        r = verify(DECLS + "mypid == 1 : { Z[1] = 0 }")
        assert "unknown-variable" in codes(r)

    def test_mixed_matching_warning(self):
        r = verify(DECLS + """
mypid == 1 : {
  A[1] ->
  A[1] -> {3}
}
mypid == 2 : {
  B[3] <- A[1]
  await(B[3]) : { B[3] = B[3] }
}
mypid == 3 : {
  B[5] <- A[1]
  await(B[5]) : { B[5] = B[5] }
}
""")
        assert "mixed-matching" in {f.code for f in r.warnings}

    def test_data_dependent_rule_waives(self):
        r = verify(DECLS + "A[mypid] > 0 : { A[1] = A[1] + 1 }")
        assert "data-dependent-rule" in {f.code for f in r.warnings}
        assert r.ok  # conservative warning, not an error

    def test_symbolic_loop_waives(self):
        r = verify(DECLS + """
scalar i
scalar k
mypid == 1 : { k = A[1] }
do i = 1, k
  mypid == 1 : { A[1] = A[1] + 1 }
enddo
""")
        assert r.ok and "symbolic-loop" in {f.code for f in r.warnings}

    def test_budget_exhausted_incomplete(self):
        r = verify(DECLS + """
scalar i
do i = 1, 1000
  mypid == 1 : { A[1] = A[1] + 1 }
enddo
""", max_events=100)
        assert not r.complete and not r.clean
        assert "budget-exhausted" in {f.code for f in r.warnings}


class TestConservatismWaivers:
    def test_waived_transfer_demotes_deadlock(self):
        """A deadlock that involves a skipped data-dependent region is a
        warning (possible-deadlock), not an error: the verifier cannot
        prove the matching send never runs."""
        r = verify(DECLS + """
if A[mylb(A[*], 1)] > 0 then
  mypid == 1 : { A[1] -> {2} }
endif
mypid == 2 : {
  B[3] <- A[1]
  await(B[3]) : { B[3] = B[3] + 1 }
}
""")
        assert r.ok and not r.clean
        warn = {f.code for f in r.warnings}
        assert "data-dependent-branch" in warn
        assert "possible-deadlock" in warn
        assert "deadlock" not in codes(r)


# --------------------------------------------------------------------- #
# integration: apps, translator, optimizer, tuner
# --------------------------------------------------------------------- #


class TestWholePrograms:
    def test_translated_programs_clean(self):
        seq = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (CYCLIC) seg (1)
scalar n = 8

do i = 1, n
  A[i] = A[i] + B[i]
enddo
"""
        for strategy in ("owner-computes", "migrate"):
            spmd = translate(parse_program(seq), 4, strategy=strategy)
            r = verify_communication(spmd, 4)
            assert r.clean, (strategy, r.format())

    def test_jacobi_halo_clean(self):
        from repro.apps.jacobi import jacobi_source

        prog = jacobi_source(8, 4, sweeps=2, variant="halo")
        if isinstance(prog, str):
            prog = parse_program(prog)
        r = verify_communication(prog, 4)
        assert r.clean, r.format()

    def test_fft3d_stage_clean(self):
        from repro.apps.fft3d import fft3d_source

        r = verify(fft3d_source(4, 4, stage=1), 4)
        assert r.clean, r.format()

    def test_workqueue_source_clean(self):
        from repro.apps.workqueue import workqueue_source

        r = verify(workqueue_source(6, 4), 4)
        assert r.clean, r.format()

    def test_workqueue_source_validates_args(self):
        from repro.apps.workqueue import workqueue_source

        with pytest.raises(ValueError):
            workqueue_source(3, 1)
        with pytest.raises(ValueError):
            workqueue_source(0, 4)

    def test_optimize_verify_comm_clean_appends_report(self):
        src = DECLS + "mypid == 1 : { A[1] = A[1] + 1 }"
        res = optimize(parse_program(src), 4, level=1, verify_comm=True)
        assert any("communication verification" in ln for ln in res.reports)

    def test_optimize_verify_comm_raises_on_bad(self):
        src = DECLS + "mypid == 2 : { A[1] = 0 }"
        with pytest.raises(CommVerificationError) as ei:
            optimize(parse_program(src), 4, level=0, verify_comm=True)
        assert not ei.value.report.ok
        assert "unowned-write" in {f.code for f in ei.value.report.errors}


class TestCheckCLI:
    BAD = DECLS + """
mypid == 1 : {
  B[5] <- A[1]
  B[5] = B[5] + 1
}
"""

    def test_check_apps_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["check", "jacobi", "fft3d", "workqueue",
                     "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "jacobi" in out and "workqueue" in out

    def test_check_bad_file_exit_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        p = tmp_path / "bad.xdp"
        p.write_text(self.BAD)
        assert main(["check", str(p), "--nprocs", "4"]) == 1
        out = capsys.readouterr().out
        assert "recv-into-unowned" in out

    def test_compile_verify_comm_flag(self, tmp_path, capsys):
        from repro.cli import main

        p = tmp_path / "bad.xdp"
        p.write_text(self.BAD)
        assert main(["compile", str(p), "-O", "0", "--verify-comm"]) == 1

    @pytest.mark.parametrize("body,expr", [
        ("scalar x = 7\nscalar y = 0\nx = x % y", "x % y"),
        ("scalar x = 7.0\nscalar y = 0\nx = x / y", "x / y"),
    ])
    def test_known_zero_divisor_is_an_error(self, body, expr, tmp_path, capsys):
        # Both used to be "statically guaranteed" clean while `repro run`
        # fails on them with "P1: division by zero in ...".
        from repro.cli import main

        p = tmp_path / "div.xdp"
        p.write_text(body + "\n")
        assert main(["check", str(p), "--nprocs", "2"]) == 1
        out = capsys.readouterr().out
        assert f"error[division-by-zero] [P1] <program>: division by zero in {expr}" in out
        assert main(["run", str(p), "--nprocs", "2"]) == 1

    def test_int_divided_by_zero_is_zero_and_clean(self):
        # `int / 0` is 0 in the VM, as in the verifier.
        r = verify("scalar x = 7\nscalar y = 0\nx = x / y\n", 2)
        assert r.clean


class TestReferenceAndUniversalChecks:
    """The malformed-reference and universal-variable finding classes."""

    UNI = DECLS + "array U[1:4] universal\n"

    def test_send_universal(self):
        r = verify(self.UNI + "mypid == 1 : { U[1] -> {2} }")
        assert "send-universal" in codes(r)

    def test_recv_universal(self):
        r = verify(self.UNI + "mypid == 2 : { U[1] <- A[1] }")
        assert "recv-universal" in codes(r)

    def test_intrinsic_universal(self):
        r = verify(self.UNI + "iown(U[1]) : { A[1] = A[1] }")
        assert "intrinsic-universal" in codes(r)

    def test_rank_mismatch(self):
        r = verify(DECLS + "mypid == 1 : { A[1,2] = 0 }")
        assert "rank-mismatch" in codes(r)

    def test_empty_section(self):
        r = verify(DECLS + "mypid == 1 : { A[3:2] = 0 }")
        assert "empty-section" in codes(r)

    def test_zero_step_loop(self):
        r = verify(DECLS + """
scalar i
do i = 1, 4, 0
  mypid == 1 : { A[1] = A[1] + 1 }
enddo
""")
        assert "zero-step" in codes(r)

    def test_step_truncating_to_zero_is_a_zero_step(self):
        r = verify(DECLS + """
scalar h = 0.5
do i = 1, 4, h
  mypid == 1 : { A[1] = A[1] + 1 }
enddo
""")
        assert "zero-step" in codes(r)

    @pytest.mark.parametrize("lo,clean", [("0 - 1", False), ("0", True)])
    def test_fractional_bounds_truncate_like_the_vm(self, lo, clean):
        """``hi = -0.5`` runs to ``i = 0`` on the VM: from -1 that is two
        sends for one receive (an unclaimed message), from 0 one send."""
        src = DECLS + f"""
scalar h = 0.0 - 0.5
do i = {lo}, h
  mypid == 1 : {{ A[1] -> {{2}} }}
enddo
mypid == 2 : {{
  B[5] <- A[1]
  await(B[5])
}}
"""
        r = verify(src, 2)
        assert r.clean == clean
        if clean:
            run_program(src, 2, strict=True)
        else:
            assert codes(r) == {"unmatched-send"}
            with pytest.raises(ProtocolError, match="1 unclaimed"):
                run_program(src, 2, strict=True)

    def test_undefined_scalar(self):
        r = verify(DECLS + "mypid == 1 : { A[1] = A[1] + q }")
        assert "undefined-scalar" in codes(r)

    def test_array_used_without_subscripts(self):
        r = verify(DECLS + "mypid == 1 : { A[1] = A[1] + B }")
        assert "unknown-variable" in codes(r)

    def test_unresolved_destination_waives(self):
        r = verify(DECLS + "mypid == 1 : { A[1] -> {B[1]} }")
        assert r.ok
        assert "unresolved-destination" in {f.code for f in r.warnings}

    def test_unresolved_read_subscript(self):
        r = verify(DECLS + "mypid == 1 : { A[1] = A[B[1]] }")
        assert "unresolved-read" in {f.code for f in r.warnings}

    def test_blocked_forever_on_partial_ownership(self):
        """An owner send of a section the pid only partly owns can never
        become accessible: flagged as blocked-forever, not a deadlock."""
        r = verify(DECLS + "mypid == 1 : { A[1:3] => {2} }")
        assert "blocked-forever" in codes(r) and not r.ok


# --------------------------------------------------------------------- #
# report identity: the verifier's cost may change, its reports may not
# --------------------------------------------------------------------- #


#: The pinned programs, frozen: eight are the benchmark's compiled
#: programs, the ninth the FFT's memory-bounded stage 3 (n=16, P=16; the
#: stage is retired) as generated when the digests were recorded.
#: name -> (file, nprocs).
PINNED_FILES = {
    **{f"matmul-{v}": (f"{BENCH_PROGRAMS}/matmul_{v}.xdp", 16)
       for v in ("cannon", "gather", "outer", "summa")},
    "jacobi-halo-overlap": (f"{BENCH_PROGRAMS}/jacobi_halo.xdp", 16),
    "fft3d-s0": (f"{BENCH_PROGRAMS}/fft3d_own_s0.xdp", 16),
    "fft3d-s2": (f"{BENCH_PROGRAMS}/fft3d_own_s2.xdp", 16),
    "fft3d-s3": (f"{DATA}/fft3d_s3_n16_p16.xdp", 16),
    "fft3d-cyclic": (f"{BENCH_PROGRAMS}/fft3d_cyclic.xdp", 4),
}


@functools.lru_cache(maxsize=None)
def _pinned_programs() -> dict[str, tuple[str, int]]:
    """name -> (IL text, nprocs) of every pinned program."""
    return {name: (Path(path).read_text(), nprocs)
            for name, (path, nprocs) in PINNED_FILES.items()}


def _mutant(text: str) -> tuple[str, str]:
    """One receive-side mutant: the first point-to-point receive deleted,
    or — in a program whose only receives are collective landings — the
    first collective skipped by P1."""
    lines = text.splitlines()
    for i, l in enumerate(lines):
        if " <- " in l or l.rstrip().endswith(("<=-", "<=")):
            del lines[i]
            return "no-recv", "\n".join(lines) + "\n"
    i = next(i for i, l in enumerate(lines) if l.lstrip().startswith("coll "))
    lines[i] = "mypid != 1 : { " + lines[i].strip() + " }"
    return "coll-skipped", "\n".join(lines) + "\n"


def _report_digest(report: CommReport) -> str:
    doc = (report.nprocs,
           [(f.severity, f.code, f.message, f.loc, f.pid1, f.count)
            for f in report.findings],
           report.events, report.complete, report.waived)
    return hashlib.sha256(repr(doc).encode()).hexdigest()[:16]


#: sha256[:16] of the full report tuple, recorded at the commit *before*
#: the verifier moved onto the shared segment table (PR 14's parent).
PINNED_REPORTS = {
    "fft3d-cyclic/clean/msg": "95fd5fb5ce3f1b55",
    "fft3d-cyclic/clean/shmem": "95fd5fb5ce3f1b55",
    "fft3d-cyclic/no-recv/msg": "119450d2c514ef5e",
    "fft3d-cyclic/no-recv/shmem": "15408a7f44581959",
    "fft3d-s0/clean/msg": "a0d1400f3bd14034",
    "fft3d-s0/clean/shmem": "a0d1400f3bd14034",
    "fft3d-s0/no-recv/msg": "40e98d3c49f15253",
    "fft3d-s0/no-recv/shmem": "54bf02b860504c2c",
    "fft3d-s2/clean/msg": "e20e93ec9ac9f28b",
    "fft3d-s2/clean/shmem": "e20e93ec9ac9f28b",
    "fft3d-s2/no-recv/msg": "f2d5c944ccc61487",
    "fft3d-s2/no-recv/shmem": "790b7bec4e7b51fc",
    "fft3d-s3/clean/msg": "ceeaf1a717664de6",
    "fft3d-s3/clean/shmem": "ceeaf1a717664de6",
    "fft3d-s3/no-recv/msg": "366fa82abe72c043",
    "fft3d-s3/no-recv/shmem": "312226f866a70ac6",
    "jacobi-halo-overlap/clean/msg": "452f967d07c57a60",
    "jacobi-halo-overlap/clean/shmem": "452f967d07c57a60",
    "jacobi-halo-overlap/no-recv/msg": "7c07f4af9702e58b",
    "jacobi-halo-overlap/no-recv/shmem": "a1474f346e4814bc",
    "matmul-cannon/clean/msg": "8d53301d49bcde4b",
    "matmul-cannon/clean/shmem": "8d53301d49bcde4b",
    "matmul-cannon/no-recv/msg": "8198e553b99d9dfc",
    "matmul-cannon/no-recv/shmem": "aedeb9ad92bd716e",
    "matmul-gather/clean/msg": "d10bc8f6baa911bd",
    "matmul-gather/clean/shmem": "d10bc8f6baa911bd",
    "matmul-gather/coll-skipped/msg": "d2d60df6efaae854",
    "matmul-gather/coll-skipped/shmem": "d2d60df6efaae854",
    "matmul-outer/clean/msg": "d10bc8f6baa911bd",
    "matmul-outer/clean/shmem": "d10bc8f6baa911bd",
    "matmul-outer/coll-skipped/msg": "09cac937cfe228ac",
    "matmul-outer/coll-skipped/shmem": "09cac937cfe228ac",
    "matmul-summa/clean/msg": "adb76ee6dd2e1870",
    "matmul-summa/clean/shmem": "adb76ee6dd2e1870",
    "matmul-summa/coll-skipped/msg": "ac5042f4122b695e",
    "matmul-summa/coll-skipped/shmem": "eebb2fbf6a5b9981",
}


class TestReportIdentity:
    @pytest.mark.parametrize("name", sorted(
        {k.split("/")[0] for k in PINNED_REPORTS}))
    def test_reports_byte_identical_to_parent(self, name):
        text, nprocs = _pinned_programs()[name]
        tag, mutant = _mutant(text)
        got = {
            f"{name}/{variant}/{backend}": _report_digest(
                verify(src, nprocs, backend=backend))
            for variant, src in (("clean", text), (tag, mutant))
            for backend in ("msg", "shmem")
        }
        assert got == {k: v for k, v in PINNED_REPORTS.items()
                       if k.startswith(name + "/")}

    def test_mutants_are_rejected_and_clean_programs_clean(self):
        for name, (text, nprocs) in _pinned_programs().items():
            if not name.startswith("matmul"):
                continue  # the cheap ones; digests cover the rest
            assert verify(text, nprocs).clean, name
            assert not verify(_mutant(text)[1], nprocs).ok, name


def _generated(case) -> tuple[str, int]:
    from repro.apps.fft3d import fft3d_source
    from repro.tune import LayoutCandidate, detect_phases, generate_phased_program

    kind, *args = case
    if kind == "fft3d":
        n, nprocs, stage = args
        return fft3d_source(n, nprocs, stage), nprocs
    base = parse_program(fft3d_source(16, 4, 0))
    layouts = [LayoutCandidate(s) for s in
               ("(*, *, CYCLIC)", "(*, *, CYCLIC)", "(*, CYCLIC, *)")]
    return generate_phased_program(
        base, detect_phases(base), layouts, 4, realization=args[0]), 4


class TestGeneratedPrograms:
    """What the generators emit today (closed-form transfers) is clean,
    and losing its first receive is caught."""

    @pytest.mark.parametrize("case", [
        *(("fft3d", n, p, stage) for n, p in ((8, 4), (16, 16))
          for stage in range(3)),
        *(("cyclic", real) for real in ("bulk", "pipelined")),
    ], ids=str)
    def test_clean_and_no_recv_mutant_rejected(self, case):
        text, nprocs = _generated(case)
        assert verify(text, nprocs).clean
        tag, mutant = _mutant(text)
        assert tag == "no-recv"
        assert not verify(mutant, nprocs).ok


# --------------------------------------------------------------------- #
# one chunk map per rendezvous: what the memo must not mask
# --------------------------------------------------------------------- #

COLL_DECLS = """
array A[1:8] dist (BLOCK) seg (2)
array W[1:4,1:8] dist (BLOCK, *) seg (1, 8)
array IX[1:4] dist (BLOCK) seg (1)
scalar k = 0
"""


def _summary(report: CommReport):
    return [(f.severity, f.code, f.pid1, f.count) for f in report.findings]


class TestCollectiveChunkMapSharing:
    """`_exec_collective` resolves a site's chunk map once per rendezvous
    and shares it between members whose environments agree; members whose
    environments differ resolve their own and still disagree loudly."""

    @pytest.mark.parametrize("backend", ["msg", "shmem"])
    def test_subscripts_mentioning_mypid_still_mismatch(self, backend):
        # P4 resolves a shorter landing than P1..P3 (mypid/4 is 1 only there).
        r = verify(COLL_DECLS + "coll allgather(g, d in 1:4) A[(g-1)*2+1:g*2] "
                   "into W[d, (g-1)*2+1:g*2-(mypid/4)]\n", backend=backend)
        assert _summary(r) == [("error", "collective-mismatch", 4, 1)]

    @pytest.mark.parametrize("backend", ["msg", "shmem"])
    def test_per_processor_scalar_still_mismatches(self, backend):
        r = verify(COLL_DECLS + "k = mypid / 4\n"
                   "coll allgather(g, d in 1:4) A[(g-1)*2+1:g*2] "
                   "into W[d, (g-1)*2+1:g*2-k]\n", backend=backend)
        assert _summary(r) == [("error", "collective-mismatch", 4, 1)]
        assert r.events == 8

    def test_int_and_float_scalars_do_not_share_a_map(self):
        # `/` floors ints only: (-3/2)*2 is -4, (-3.0/2)*2 is -3.0.  Equal
        # as dict keys, different as subscripts.
        src = (COLL_DECLS + "scalar h = 0\n"
               "h = -3\nmypid == 4 : { h = 0.0 - 3 }\n"
               "coll allgather(g, d in 1:4) A[(g-1)*2+1:g*2] "
               "into W[d, (g-1)*2+1+(h/2)*2+4:g*2]\n")
        assert _summary(verify(src)) == [("error", "collective-mismatch", 4, 1)]

    @pytest.fixture
    def resolved(self, monkeypatch):
        """pid1 of every member that resolved a chunk map of its own."""
        from repro.core.analysis import verify_comm as vc

        resolved = []
        inner = vc._Machine._coll_map

        def spy(self, site, members, root_v, p):
            resolved.append(p.pid1)
            return inner(self, site, members, root_v, p)

        monkeypatch.setattr(vc._Machine, "_coll_map", spy)
        return resolved

    def test_agreeing_members_share_one_resolution(self, resolved):
        from repro.apps.matmul import matmul_source

        assert verify(matmul_source(64, 16, "summa"), 16).clean
        # One all_to_all + 16 broadcasts (the root `k` is in the key):
        # 17 rendezvous, 17 chunk maps — not 17 x 16.
        assert len(resolved) == 17
        resolved.clear()
        # mypid in a subscript: every member resolves its own.
        verify(COLL_DECLS + "coll allgather(g, d in 1:4) A[(g-1)*2+1:g*2] "
               "into W[d, (g-1)*2+1:g*2+mypid-mypid]\n")
        assert sorted(resolved) == [1, 2, 3, 4]

    def test_subscript_reading_an_array_is_waived_never_shared(
            self, resolved):
        r = verify(COLL_DECLS + "coll allgather(g, d in 1:4) A[(g-1)*2+1:g*2] "
                   "into W[d, (g-1)*2+1+IX[mypid]*0:g*2]\n")
        assert _summary(r) == [("warning", "unresolved-collective", 1, 4)]
        assert r.waived == ("A", "W") and r.ok
        assert sorted(resolved) == [1, 2, 3, 4]


# --------------------------------------------------------------------- #
# deterministic work guard
# --------------------------------------------------------------------- #


class TestWorkGuard:
    """`Section.intersect` calls during one verification repeat exactly,
    so a ceiling catches the O(S^2) end-of-run scan or per-query rescans
    of the segment list coming back (parent commit: 5,768 and 153,696)."""

    @staticmethod
    def intersects_during(monkeypatch, text: str, nprocs: int) -> int:
        from repro.core.sections import Section

        calls = 0
        inner = Section.intersect

        def counting(self, other):
            nonlocal calls
            calls += 1
            return inner(self, other)

        program = parse_program(text)
        monkeypatch.setattr(Section, "intersect", counting)
        assert verify_communication(program, nprocs).clean
        monkeypatch.undo()
        return calls

    def test_summa_intersect_ceiling(self, monkeypatch):
        from repro.apps.matmul import matmul_source

        n = self.intersects_during(monkeypatch, matmul_source(64, 16, "summa"), 16)
        assert n <= 560

    def test_fft3d_stage2_intersect_ceiling(self, monkeypatch):
        from repro.apps.fft3d import fft3d_source

        n = self.intersects_during(monkeypatch, fft3d_source(16, 16, 2), 16)
        assert n <= 11_136

    def test_each_expression_is_compiled_once(self, monkeypatch):
        from repro.core.analysis import verify_comm as vc

        compiled = Counter()
        inner = vc._Machine._compile

        def counting(self, e, rule):
            compiled[id(e)] += 1
            return inner(self, e, rule)

        monkeypatch.setattr(vc._Machine, "_compile", counting)
        text, nprocs = _pinned_programs()["matmul-summa"]
        program = parse_program(text)
        assert verify_communication(program, nprocs).clean
        # None twice, though 16 processors evaluate most of them many times.
        assert len(compiled) > 50 and max(compiled.values()) == 1


# --------------------------------------------------------------------- #
# per-processor cost: decided guards and footprint loops are exact
# --------------------------------------------------------------------- #


def _full_report(report: CommReport) -> tuple:
    return (report.nprocs,
            [(f.severity, f.code, f.message, f.loc, f.pid1, f.count)
             for f in report.findings],
            report.events, report.complete, report.waived)


def _exactness_programs(battery: str):
    from .fuzz.gen_programs import (
        COLLECTIVE_FAMILIES, SHMEM_FAMILIES, generate_battery,
    )

    if battery == "pinned":
        for text, nprocs in _pinned_programs().values():
            yield parse_program(text), nprocs
            yield parse_program(_mutant(text)[1]), nprocs
        return
    size, families = {"fuzz": (220, None), "shmem": (120, SHMEM_FAMILIES),
                      "coll": (60, COLLECTIVE_FAMILIES)}[battery]
    for fp in generate_battery(size, 0, families=families):
        yield parse_program(fp.source), fp.nprocs


class TestShortcutsAreExact:
    """`_decided` (a condition over mypid, nprocs and constants, evaluated
    once per processor) and `_footprint` (an element loop checked by the
    sections it spans) change what verification costs, never what it
    reports: with both declining, the walk they stand for gives the same
    full report — events, completeness and waivers included — on both
    bindings and at budgets that run out inside loops."""

    @pytest.mark.parametrize("battery", ["fuzz", "shmem", "coll", "pinned"])
    def test_reports_equal_the_walk(self, battery, monkeypatch):
        from repro.core.analysis import verify_comm as vc

        programs = list(_exactness_programs(battery))

        def reports():
            return [_full_report(verify_communication(
                        program, nprocs, backend=backend, max_events=budget))
                    for program, nprocs in programs
                    for backend in ("msg", "shmem")
                    for budget in (vc.MAX_EVENTS, 50, 500, 3000)]

        taken = Counter()
        decided, footprint = vc._Machine._decided, vc._Machine._footprint

        def spy_decided(self, cond, p):
            v = decided(self, cond, p)
            taken["decided"] += v is not None
            return v

        def spy_footprint(self, *args):
            ok = footprint(self, *args)
            taken["footprint"] += ok
            return ok

        monkeypatch.setattr(vc._Machine, "_decided", spy_decided)
        monkeypatch.setattr(vc._Machine, "_footprint", spy_footprint)
        fast = reports()
        # The fuzz families with element loops are in the default battery.
        assert taken["decided"] and (taken["footprint"] or battery in ("shmem", "coll"))
        monkeypatch.setattr(vc._Machine, "_decided", lambda self, cond, p: None)
        monkeypatch.setattr(vc._Machine, "_footprint", lambda self, *args: False)
        assert reports() == fast

    def test_loop_variable_keeps_its_last_value(self):
        # P1 owns A[1:4]: the loop leaves i = 4 behind, not 7.
        r = verify(DECLS + """
mypid == 1 : {
  do i = 1, 6, 3
    A[i] = B[i]
  enddo
  A[i] = 0
}
""", 2)
        # Events: P1's guard, loop, two iterations and write; P2's guard.
        assert r.clean and r.events == 5 + 1


class TestPerProcessorWork:
    def test_pid_only_rules_are_evaluated_once_per_processor(self, monkeypatch):
        from repro.apps.jacobi import jacobi_source
        from repro.core.analysis import verify_comm as vc
        from repro.core.ir.nodes import Guarded
        from repro.core.ir.visitor import walk_exprs, walk_stmts

        program = jacobi_source(4096, 64, 2, "halo-overlap")
        rules = {id(s.rule) for s in walk_stmts(program.body)
                 if isinstance(s, Guarded)
                 and all(isinstance(e, vc._PID_ONLY) for e in walk_exprs(s.rule))}
        evaluated = Counter()
        inner = vc._Machine._compile

        def spy(self, e, rule):
            fn = inner(self, e, rule)
            if id(e) not in rules:
                return fn

            def counted(p):
                evaluated[id(e), p.pid1] += 1
                return fn(p)
            return counted

        monkeypatch.setattr(vc._Machine, "_compile", spy)
        assert verify_communication(program, 64).clean
        # 380 `mypid == k` rules, each reached twice by every processor.
        assert len(rules) == 380 and len(evaluated) == 380 * 64
        assert max(evaluated.values()) == 1
