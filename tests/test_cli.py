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
        # At -O2 the guards are gone: vectorized pair messages + localized loop.
        assert "mylb(" in out and "message-vectorization" in out
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

    def test_bad_init_kind(self, program_file):
        with pytest.raises(SystemExit):
            main(["run", program_file, "--init", "A=bogus"])


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

    def test_tune_error_is_a_message_and_shards_0_is_in_process(
            self, program_file, capsys):
        # `--shards 0` used to die in tune() with "needs a store"; it means
        # in-process, so the real complaint (nothing to tune) surfaces,
        # as a message rather than a TuneError traceback.
        assert main(["tune", "--file", program_file, "--nprocs", "2",
                     "--shards", "0"]) == 2
        out, err = capsys.readouterr()
        assert err == "repro tune: no kernel calls found; nothing to tune\n"
        assert "needs a store" not in err and "Traceback" not in out + err

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

    def test_fft_print_source(self, capsys):
        assert main(["fft", "--print-source", "--stage", "0"]) == 0
        out = capsys.readouterr().out
        assert "Loop3: redistribute" in out


class TestBench:
    @pytest.mark.msg_timing
    def test_bench_writes_json(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "bench.json"
        assert main([
            "bench", "--nprocs", "2,4", "--programs", "workqueue",
            "--jobs-per-proc", "2", "--out", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        data = json.loads(out_file.read_text())
        assert data["schema"] == 3
        assert [(c["nprocs"], c["engine"]) for c in data["cases"]] == [
            (2, "indexed"), (4, "indexed"),
        ]
        assert "speedups" not in data and "batched_speedups" not in data
        assert [e["nprocs"] for e in data["classifier"]] == [4]
        assert "overhead_inert_pct" in data["faults_off"]
        assert "bottleneck workqueue@4" in out

    def test_bench_diff_mode(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "bench.json"
        bench = ["bench", "--nprocs", "2", "--programs", "workqueue",
                 "--jobs-per-proc", "2"]
        assert main([*bench, "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main([*bench, "--diff", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert f"vs {out_file}" in out
        assert "old eff/s" in out and "x" in out
        # A schema-2 base also holds seed-reference and batched rows and
        # speedup tables; only the rows both schemas share are compared.
        base = json.loads(out_file.read_text())
        row = base["cases"][0]
        base.update(
            schema=2, speedups={"workqueue@2": 1.0},
            cases=[row, {**row, "engine": "batched"},
                   {**row, "engine": "seed-reference"}],
        )
        out_file.write_text(json.dumps(base))
        assert main([*bench, "--diff", str(out_file)]) == 0
        diffed = capsys.readouterr().out.split(f"vs {out_file}")[1]
        assert "workqueue@2 (indexed)" in diffed
        assert "batched" not in diffed and "seed-reference" not in diffed

    @pytest.mark.msg_timing
    def test_bench_fft_program(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        assert main([
            "bench", "--nprocs", "4", "--programs", "fft",
            "--out", str(out_file),
        ]) == 0
        assert "fft" in capsys.readouterr().out


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
        digests = set()
        for extra in (["--backend", "msg"],
                      ["--backend", "shmem"],
                      ["--backend", "msg", "--collectives", "p2p"]):
            assert main(["run", "--app", "matmul", "--nprocs", "4",
                         *extra]) == 0
            digests.add(self._digest(capsys.readouterr().out))
        assert len(digests) == 1, digests

    @pytest.mark.parametrize("backend", ["msg", "shmem"])
    def test_check_matmul_all_variants_clean(self, backend, capsys):
        assert main(["check", "matmul", "--nprocs", "4",
                     "--backend", backend]) == 0
        out = capsys.readouterr().out
        for variant in ("cannon", "summa", "gather", "outer"):
            assert f"matmul/{variant}" in out


class TestRedist:
    def test_redist_reports_bounded_schedule(self, capsys):
        assert main(["redist", "--max-temp-frac", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "(*, *, BLOCK) -> (*, BLOCK, *)" in out
        assert "3 rounds" in out
        assert "peak/naive  0.333" in out

    def test_redist_json_summary(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "redist.json"
        assert main(["redist", "--max-temp-frac", "0.25",
                     "--json", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert data["rounds"] == 3
        assert data["peak_temp_bytes"] <= data["budget_bytes"]
        assert data["peak_temp_bytes"] / data["naive_peak_bytes"] <= 0.5

    def test_redist_rejects_bad_frac(self, capsys):
        from repro.core.errors import DistributionError

        with pytest.raises(DistributionError):
            main(["redist", "--max-temp-frac", "0"])


class TestServe:
    def test_serve_session_then_warm_replay(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["serve", "--store", store, "--rounds", "1",
                     "--nprocs", "3"]) == 0
        out = capsys.readouterr().out
        assert "serve: OK" in out
        # Same store, fresh session: everything cached, hit-rate bar met.
        assert main(["serve", "--store", store, "--rounds", "1",
                     "--nprocs", "3", "--min-hit-rate", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "hit rate 100.0%" in out

    def test_serve_min_hit_rate_fails_cold(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["serve", "--store", store, "--rounds", "1",
                     "--nprocs", "3", "--min-hit-rate", "0.9"]) == 1
        assert "below required" in capsys.readouterr().out

    def test_serve_requires_store(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_serve_json_report(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        out_file = tmp_path / "serve.json"
        assert main(["serve", "--store", store, "--rounds", "1",
                     "--nprocs", "3", "--json", str(out_file)]) == 0
        import json

        report = json.loads(out_file.read_text())
        assert report["ok"]
        assert report["summary"]["jobs"] == 6
