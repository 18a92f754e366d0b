"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main

SIMPLE = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (CYCLIC) seg (1)
scalar n = 8

do i = 1, n
  A[i] = A[i] + B[i]
enddo
"""


@pytest.fixture
def program_file(tmp_path):
    p = tmp_path / "simple.xdp"
    p.write_text(SIMPLE)
    return str(p)


class TestCompile:
    def test_compile_prints_program_and_report(self, program_file, capsys):
        assert main(["compile", program_file, "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "translated (owner-computes)" in out
        # At -O2 the guards are gone: pair messages hoisted out of the loop
        # (communication sets) + localized loop.
        assert "mylb(" in out and "communication-sets: moved the transfers" in out
        assert "optimization report" in out

    def test_compile_O0_keeps_paper_shape(self, program_file, capsys):
        assert main(["compile", program_file, "-O", "0"]) == 0
        out = capsys.readouterr().out
        assert "iown(" in out and "await(" in out

    def test_compile_migrate(self, program_file, capsys):
        assert main(["compile", program_file, "--strategy", "migrate"]) == 0
        out = capsys.readouterr().out
        assert "-=>" in out and "<=-" in out

    def test_compile_no_binding(self, program_file, capsys):
        assert main(["compile", program_file, "--no-binding", "-O", "0"]) == 0
        out = capsys.readouterr().out
        assert "-> {" not in out

    def test_compile_already_spmd(self, tmp_path, capsys):
        p = tmp_path / "spmd.xdp"
        p.write_text(
            "array A[1:4] dist (BLOCK) seg (1)\n\n"
            "iown(A[mypid]) : { A[mypid] = 1 }\n"
        )
        assert main(["compile", str(p)]) == 0
        assert "translated" not in capsys.readouterr().out


class TestRun:
    def test_run_shows_summary_and_array(self, program_file, capsys):
        rc = main([
            "run", program_file, "--nprocs", "4",
            "--init", "A=iota", "--init", "B=ones", "--show", "A",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "A =" in out
        assert "2." in out  # 1+1

    def test_run_blocking_binding(self, program_file, capsys):
        assert main(["run", program_file, "--binding", "blocking"]) == 0

    def test_run_trace(self, program_file, capsys):
        assert main(["run", program_file, "--trace", "-O", "0"]) == 0
        out = capsys.readouterr().out
        assert "send" in out

    def test_bad_init_kind(self, program_file, capsys):
        # It used to raise SystemExit(str): no prefix and exit status 1,
        # after compiling the program.
        assert main(["run", program_file, "--init", "A=bogus"]) == 2
        assert capsys.readouterr() == (
            "", "repro run: unknown init kind 'bogus' (iota/ones/zeros/rand)\n")


class TestBadInput:
    """Malformed FILE input: ``FILE:line:col: message`` on stderr and exit
    status 2 — never a traceback (ROADMAP aim 3)."""

    @pytest.mark.parametrize("cmd", ["check", "run", "compile"])
    def test_syntax_error_has_location_and_exit_2(self, cmd, tmp_path, capsys):
        p = tmp_path / "bad.xdp"
        p.write_text("array A[1:4] dist (BLOCK) seg (1)\n"
                     "do i = 1, 4\n  A[i] = = 3\nenddo\n")
        with pytest.raises(SystemExit) as exc:
            main([cmd, str(p), "--nprocs", "2"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert err == f"{p}:3:10: unexpected token '='\n"
        assert "Traceback" not in out + err

    def test_malformed_float_literal_has_location_and_exit_2(
            self, tmp_path, capsys):
        # It used to print a ValueError traceback from float('1e+').
        p = tmp_path / "float.xdp"
        p.write_text("scalar x = 1e+\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", str(p), "--nprocs", "2"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert err == f"{p}:1:12: malformed float literal '1e+'\n"
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("cmd", ["check", "run", "compile"])
    def test_verify_program_error_names_file_and_exits_2(
            self, cmd, tmp_path, capsys):
        p = tmp_path / "dup.xdp"
        p.write_text("array A[1:4] dist (BLOCK) seg (1)\n"
                     "array A[1:4] dist (BLOCK) seg (1)\nA[1] = 0\n")
        with pytest.raises(SystemExit) as exc:
            main([cmd, str(p), "--nprocs", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"{p}: duplicate declaration of 'A'\n")

    def test_unregistered_kernel_is_a_message_and_exit_2(self, tmp_path, capsys):
        # It used to escape from lowering as a KeyError traceback, exit 1.
        p = tmp_path / "nokernel.xdp"
        p.write_text("call nosuch(1)\n")
        assert main(["run", str(p), "--nprocs", "2"]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"{p}: call of unknown kernel 'nosuch'; registered: [")
        assert "'fft1D'" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("body,message", [
        ("mypid == 2 : { A[1] = 1.0 }",
         "P2 writes A[1] but owns only 0 of 1 elements"),
        ("scalar k = 5\niown(A[k:1]) : { A[k:1] = 1.0 }",
         "P1: A[k:1] names no element (triplet 5:1:1)"),
        # These two were a ZeroDivisionError traceback (int / 0 is 0).
        ("scalar x = 1.5\nscalar y = 0\nx = x / y",
         "P1: division by zero in x / y"),
        ("scalar x = 7\nscalar y = 0\nx = x % y",
         "P1: division by zero in x % y"),
    ])
    def test_run_time_program_error_is_a_message_and_exit_1(
            self, body, message, tmp_path, capsys):
        # Both used to escape from the engine as a traceback (an
        # OwnershipError, and a bare ValueError from the Triplet class).
        p = tmp_path / "bad.xdp"
        p.write_text(f"array A[1:8] dist (BLOCK) seg (2)\n{body}\n")
        assert main(["run", str(p), "--nprocs", "2"]) == 1
        out, err = capsys.readouterr()
        assert err == f"{p}: {message}\n"
        assert "Traceback" not in out + err

    def test_tune_error_is_a_message(self, program_file, capsys):
        # A TuneError (nothing to tune) is a message, not a traceback.
        assert main(["tune", "--file", program_file, "--nprocs", "2"]) == 2
        out, err = capsys.readouterr()
        assert err == "repro tune: no kernel calls found; nothing to tune\n"
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("argv,reason", [
        (["--knobs", "planner"],
         "unknown realization 'planner' (choose from ('bulk', 'pipelined'))"),
        (["--knobs", "planner@0.25"],
         "unknown realization 'planner@0.25' "
         "(choose from ('bulk', 'pipelined'))"),
        (["--knobs", "bulk,planner"],
         "unknown realization 'planner' (choose from ('bulk', 'pipelined'))"),
        (["--knobs", ""], "--knobs '' names no realizations"),
        (["--top-k", "0"], "--top-k (0) must be positive"),
        (["--top-k", "-2"], "--top-k (-2) must be positive"),
        (["--budget", "-1"], "--budget (-1.0) must be >= 0"),
        (["--store", "AFILE"], "--store AFILE: Not a directory"),
    ])
    def test_tune_bad_option_is_a_message_and_exit_2(
            self, argv, reason, tmp_path, capsys):
        # These used to print a ValueError/DistributionError traceback
        # (exit 1), or run silently (top-k, budget, empty knobs).  A
        # --store that is a regular file raised NotADirectoryError from
        # inside the search.  The memory-bounded realization is gone, in
        # both its spellings.
        afile = tmp_path / "afile"
        afile.write_text("")
        argv = [str(afile) if a == "AFILE" else a for a in argv]
        reason = reason.replace("AFILE", str(afile))
        assert main(["tune", "--n", "8", "--nprocs", "4", *argv]) == 2
        out, err = capsys.readouterr()
        assert err == f"repro tune: {reason}\n"
        assert out == ""

    @pytest.mark.parametrize("argv,reason", [
        (["--app", "matmul", "--variant", "bogus"],
         "--variant: unknown matmul variant 'bogus' "
         "(choose from cannon, summa, gather, outer)"),
        (["--app", "jacobi", "--variant", "cannon"],
         "--variant applies only to --app matmul"),
        (["--app", "fft3d", "--variant", "summa"],
         "--variant applies only to --app matmul"),
        (["--app", "workqueue", "--variant", "outer"],
         "--variant applies only to --app matmul"),
        (["--app", "jacobi", "--init", "A=ones"],
         "--init applies only to a FILE run, not to --app"),
        (["--app", "matmul", "--show", "C"],
         "--show applies only to a FILE run, not to --app"),
    ])
    def test_run_option_the_app_cannot_use_is_a_message_and_exit_2(
            self, argv, reason, capsys):
        # A bogus matmul variant used to die with a ValueError traceback
        # (exit 1); the other options were silently ignored.
        assert main(["run", "--nprocs", "4", *argv]) == 2
        out, err = capsys.readouterr()
        assert err == f"repro run: {reason}\n"
        assert out == ""

    @pytest.mark.parametrize("app,argv,flag", [
        ("jacobi", ["--trace"], "--trace"),
        ("fft3d", ["--trace-json", "TRACE"], "--trace-json"),
        ("jacobi", ["--binding", "blocking"], "--binding"),
        ("workqueue", ["--verify-comm"], "--verify-comm"),
        ("jacobi", ["-O", "0"], "-O/--opt-level"),
        ("matmul", ["--opt-level", "2"], "-O/--opt-level"),
        ("fft3d", ["--strategy", "migrate"], "--strategy"),
    ])
    def test_run_file_only_option_with_app_is_a_message_and_exit_2(
            self, app, argv, flag, tmp_path, capsys):
        # Each used to be ignored: the app ran and exited 0 (--trace printed
        # no event, --trace-json wrote no file).
        trace = tmp_path / "trace.json"
        argv = [str(trace) if a == "TRACE" else a for a in argv]
        assert main(["run", "--app", app, "--nprocs", "4", *argv]) == 2
        out, err = capsys.readouterr()
        assert err == f"repro run: {flag} applies only to a FILE run, not to --app\n"
        assert out == ""
        assert not trace.exists()

    @pytest.mark.parametrize("target", [["--app", "jacobi"], ["FILE"],
                                        ["--app", "matmul"]])
    def test_run_collectives_is_an_argparse_error_exit_2(
            self, target, program_file, capsys):
        # A coll statement's schedule is no longer a user choice.
        target = [program_file if a == "FILE" else a for a in target]
        with pytest.raises(SystemExit) as exc:
            main(["run", *target, "--collectives", "p2p"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "unrecognized arguments: --collectives" in err
        assert out == ""

    @pytest.mark.parametrize("argv,reason", [
        (["FILE", "--app", "jacobi"], "give either FILE or --app, not both"),
        ([], "need a FILE to run (or --app)"),
    ])
    def test_run_bad_input_is_a_message_and_exit_2(
            self, argv, reason, program_file, capsys):
        # These used to raise SystemExit(str): no prefix and exit status 1.
        argv = [program_file if a == "FILE" else a for a in argv]
        assert main(["run", *argv]) == 2
        out, err = capsys.readouterr()
        assert err == f"repro run: {reason}\n"
        assert out == ""

    @pytest.mark.parametrize("argv,reason", [
        (["--init", "B=iota"], "--init B: no array named 'B'"),
        (["--init", "x"], "--init x: no array named 'x'"),
        (["--show", "A", "--show", "B"], "--show B: no array named 'B'"),
    ])
    def test_run_unknown_array_name_is_a_message_and_exit_2(
            self, argv, reason, tmp_path, capsys):
        # A KeyError and an AttributeError traceback, and for --show a full
        # run that printed "B: <unreadable: ...>" and exited 0.
        p = tmp_path / "names.xdp"
        p.write_text("array A[1:4] dist (BLOCK) seg (1)\nscalar x = 0\n")
        assert main(["run", str(p), "--nprocs", "2", *argv]) == 2
        out, err = capsys.readouterr()
        assert err == f"repro run: {reason}\n"
        assert out == ""

    def test_run_show_universal_array_is_a_message_and_exit_2(
            self, tmp_path, capsys):
        # It used to run the whole program, print "U: <unreadable: ...>"
        # and exit 0: a universal array has one copy per processor.
        p = tmp_path / "universal.xdp"
        p.write_text("array U[1:4] universal\nU[1] = mypid\n")
        assert main(["run", str(p), "--nprocs", "2", "--show", "U"]) == 2
        out, err = capsys.readouterr()
        assert err == ("repro run: --show U: U is universal; copies differ "
                       "per processor\n")
        assert out == ""

    def test_run_variant_with_a_file_is_a_message_and_exit_2(
            self, program_file, capsys):
        assert main(["run", program_file, "--variant", "cannon"]) == 2
        assert capsys.readouterr().err == (
            "repro run: --variant applies only to --app matmul\n")

    @pytest.mark.parametrize("flag", [["--shards", "2"], ["--serial"]])
    def test_tune_has_one_evaluation_path(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--n", "8", "--nprocs", "4", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_tune_file_syntax_error_goes_through_load(self, tmp_path, capsys):
        # `tune --file` used to read the file itself: raw ParseError traceback.
        p = tmp_path / "bad.xdp"
        p.write_text("array A[1:4] dist (BLOCK) seg (1)\nA[1] = = 2\n")
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--file", str(p), "--nprocs", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"{p}:2:8: unexpected token '='\n"

    @pytest.mark.parametrize("argv", [
        ["tune", "--file"], ["check"], ["run"], ["compile"],
    ])
    def test_missing_file_is_a_message_and_exit_2(self, argv, tmp_path, capsys):
        p = tmp_path / "missing.xdp"
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(p), "--nprocs", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"{p}: No such file or directory\n"

    def test_tune_rejects_n_not_a_multiple_of_nprocs(self, capsys):
        assert main(["tune", "--n", "8", "--nprocs", "3"]) == 2
        out, err = capsys.readouterr()
        assert err == "repro tune: n (8) must be a multiple of nprocs (3)\n"
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("value", ["bogus", "proc"])
    def test_unknown_backend_env_is_a_message_and_exit_2(
            self, value, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BACKEND", value)
        assert main(["run", "--app", "jacobi", "--nprocs", "4"]) == 2
        out, err = capsys.readouterr()
        assert err == (f"repro run: REPRO_BACKEND='{value}' is not a backend "
                       "(choose from msg, shmem)\n")
        assert out == ""
        # An explicit --backend does not consult the variable.
        assert main(["run", "--app", "jacobi", "--nprocs", "4",
                     "--backend", "msg"]) == 0

    def test_findings_still_exit_1(self, tmp_path, capsys):
        # A communication *finding* is a verdict, not bad input.
        p = tmp_path / "unowned.xdp"
        p.write_text("array A[1:4] dist (BLOCK) seg (1)\n"
                     "mypid == 1 : { A[4] = 0 }\n")
        assert main(["check", str(p), "--nprocs", "2"]) == 1
        assert "unowned-write" in capsys.readouterr().out


class TestFigures:
    @pytest.mark.parametrize("which,marker", [
        ("1", "rules governing execution"),
        ("2", "symbol table"),
        ("3", "Figure 3"),
        ("4", "Figure 4"),
    ])
    def test_single_figure(self, which, marker, capsys):
        assert main(["figures", which]) == 0
        assert marker in capsys.readouterr().out

    def test_all(self, capsys):
        assert main(["figures", "all"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Figure 4" in out


class TestFFT:
    def test_fft_runs(self, capsys):
        assert main(["fft", "--n", "4", "--nprocs", "4", "--stage", "1"]) == 0
        out = capsys.readouterr().out
        assert "correct=True" in out

    @pytest.mark.parametrize("argv,message", [
        (["--n", "7", "--nprocs", "4"], "n (7) must be a multiple of nprocs (4)"),
        (["--n", "0"], "n (0) and nprocs (4) must be positive"),
        (["--n", "7", "--print-source"], "n (7) must be a multiple of nprocs (4)"),
    ])
    def test_fft_bad_sizes_are_a_message_and_exit_2(self, argv, message, capsys):
        assert main(["fft", *argv]) == 2
        out, err = capsys.readouterr()
        assert err == f"repro fft: {message}\n"
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("cmd", ["compile", "check", "run"])
    @pytest.mark.parametrize("nprocs", ["0", "-3"])
    def test_nonpositive_nprocs_is_a_message_and_exit_2(
            self, cmd, nprocs, program_file, capsys):
        assert main([cmd, program_file, "--nprocs", nprocs]) == 2
        out, err = capsys.readouterr()
        assert err == f"repro {cmd}: nprocs ({nprocs}) must be positive\n"
        assert "Traceback" not in out + err

    def test_fft_print_source(self, capsys):
        assert main(["fft", "--print-source", "--stage", "0"]) == 0
        out = capsys.readouterr().out
        assert "Loop3: redistribute" in out


class TestMatmulApp:
    @staticmethod
    def _digest(out: str) -> str:
        for line in out.splitlines():
            if line.startswith("result sha256:"):
                return line.split(":", 1)[1].strip()
        raise AssertionError(f"no digest line in output:\n{out}")

    def test_run_matmul_prints_summary_and_digest(self, capsys):
        assert main(["run", "--app", "matmul", "--variant", "cannon",
                     "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "matmul/cannon" in out and "correct=True" in out
        assert len(self._digest(out)) == 64

    def test_run_matmul_digest_invariant_across_backend_and_lowering(
            self, capsys):
        # At P=16 summa's broadcasts run as the binomial tree on msg and
        # flat on shmem.
        digests = set()
        for backend in ("msg", "shmem"):
            assert main(["run", "--app", "matmul", "--nprocs", "16",
                         "--backend", backend]) == 0
            digests.add(self._digest(capsys.readouterr().out))
        assert len(digests) == 1, digests

    @pytest.mark.parametrize("backend", ["msg", "shmem"])
    def test_check_matmul_all_variants_clean(self, backend, capsys):
        assert main(["check", "matmul", "--nprocs", "4",
                     "--backend", backend]) == 0
        out = capsys.readouterr().out
        for variant in ("cannon", "summa", "gather", "outer"):
            assert f"matmul/{variant}" in out


class TestModuleDoc:
    def test_every_command_is_documented_with_an_example(self):
        import argparse
        import re

        import repro.cli as cli

        doc = cli.__doc__
        commands = doc.split("Commands\n--------", 1)[1].split("Examples\n", 1)[0]
        examples = doc.split("Examples\n--------", 1)[1]
        documented = set(re.findall(r"^``(\w+)", commands, re.M))
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert documented == set(sub.choices)
        for name in sub.choices:
            assert f"python -m repro {name} " in examples, name
