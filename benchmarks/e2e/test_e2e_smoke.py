"""Self-test of the end-to-end benchmark (outside tier-1's `testpaths`).

    python -m pytest benchmarks/e2e -q
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def bench():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_manifest_verifies(tmp_path):
    programs = W.load_programs()
    assert set(programs) == set(json.loads(
        (W.PROGRAMS / "MANIFEST.json").read_text()))
    for f in W.PROGRAMS.iterdir():
        (tmp_path / f.name).write_text(f.read_text())
    (tmp_path / "jacobi_halo.xdp").write_text(
        programs["jacobi_halo.xdp"].replace("3.0", "4.0"))
    with pytest.raises(W.ManifestError):
        W.load_programs(tmp_path)


def test_smoke_run_prints_every_metric(bench, tmp_path):
    out = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--iterations", "1",
         "--out", str(out)],
        cwd=REPO, text=True, stdout=subprocess.PIPE, timeout=900,
    )
    assert done.returncode == 0, done.stdout
    report = json.loads(out.read_text())
    assert report["provenance"]["comparable"] is False
    names = [w["name"] for w in bench["workloads"]]
    assert list(report["workloads"]) == names == list(W.WORKLOADS)
    metrics = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names + metrics)
    printed = re.findall(r"^  (\S+) +\S+ \S+", done.stdout, flags=re.M)
    for name in names:
        row = report["workloads"][name]
        assert row["failed"] == 0 and row["metrics"]["failed_frac"] == 0
        # Every metric has a row; one produced by no workload would be dead.
        assert set(row["metrics"]) <= set(metrics)
    assert set(printed) == set(metrics)
    produced = {k for row in report["workloads"].values()
                for k, v in row["metrics"].items() if v is not None}
    expected = set(metrics)
    if (os.cpu_count() or 1) < 2:
        expected.discard("machine.procrt.run_s")  # proc needs a second core
    assert produced == expected


def test_wrong_numeric_result_fails():
    programs = dict(W.load_programs())
    programs["jacobi_halo.xdp"] = programs["jacobi_halo.xdp"].replace("3.0", "4.0")
    checks = W.Checks()
    W.jacobi_halo(programs, 7).iterate(checks)
    assert checks.failed == 1 and checks.wrong_verdicts == 0
    assert "numpy reference" in checks.messages[0]


def test_accepted_mutant_fails():
    programs = dict(W.load_programs())
    # A verifier that stopped checking would accept the mutant; stand in
    # for it by handing it the clean program under the mutant's name.
    programs["fft3d_cyclic_mutant.xdp"] = programs["fft3d_cyclic.xdp"]
    checks = W.Checks()
    W.fft3d_cyclic(programs, 7).iterate(checks)
    assert checks.failed == 1 and checks.wrong_verdicts == 1
    assert "mutant accepted" in checks.messages[0]
