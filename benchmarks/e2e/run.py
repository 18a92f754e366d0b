"""The repo's end-to-end benchmark: six workloads from IL source to checked
result, split by layer.  See README.md beside this file.

    python benchmarks/e2e/run.py                       # the whole ledger
    python benchmarks/e2e/run.py --workload fft3d-own --trace 1
    python benchmarks/e2e/run.py --out new.json --diff benchmarks/e2e/BASELINE.json
    python benchmarks/e2e/run.py --aa

Every workload runs in its own fresh subprocess, one at a time.  With
`--workload` the last line printed is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from workloads import ITERATIONS, WORKLOADS, ManifestError, load_programs, median

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
OUT = HERE / "out"

#: Fresh processes an untraced run is split over.  Each sets up, warms up and
#: times its share of the iterations; medians are taken over all of them, so
#: neither one slow iteration nor one unluckily laid-out process decides a
#: number, and `setup_s` is a median of several set-ups.
PROCESSES = 3
#: Units whose values are simulated or counted, hence exactly repeatable.
EXACT_UNITS = {"count", "bytes", "vt", "ratio"}


def spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def child_env() -> dict:
    """The pinned environment: the *default* backend and engine mode are
    what is measured, whatever the caller's shell exports."""
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env.pop("REPRO_ENGINE_MODE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def worker(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--src", str(SRC), *extra]
    done = subprocess.run(cmd, env=child_env(), cwd=REPO, text=True,
                          stdout=subprocess.PIPE, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, args) -> dict:
    """One workload's row of the ledger.  `--trace 0`: end-to-end only;
    `--trace 1`: per-layer only; neither: both, untraced first."""
    row = {"workload": name, "attempted": 0, "failed": 0, "failures": [],
           "metrics": {}, "samples": {}}

    def count(result: dict) -> None:
        row["attempted"] += result["attempted"]
        row["failed"] += result["failed"]
        row["failures"] += result["failures"]

    if args.trace != 1:
        length = (["--iterations", str(args.iterations)] if args.iterations
                  else ["--seconds", str(args.seconds / PROCESSES)] if args.seconds
                  else ["--iterations", str(ITERATIONS[name])])
        results = [worker(name, args.seed, *length) for _ in range(PROCESSES)]
        for result in results:
            count(result)
        row["attempted"] += 1
        if len({r["digest"] for r in results}) != 1:
            row["failed"] += 1
            row["failures"].append(f"{name}: result digest differs between processes")
        # Medians over the processes; the simulated counts are the same in
        # each (the digest check above), so their median is that value.
        row["metrics"] = {
            key: median([r["metrics"][key] for r in results])
            for key in results[0]["metrics"]
        }
        row["samples"] = {
            "setup_s": [r["metrics"]["setup_s"] for r in results],
            "e2e_s": [t for r in results for t in r["e2e_s_samples"]],
        }
        row["metrics"]["e2e_s"] = statistics.median(row["samples"]["e2e_s"])
        row["iterations"] = len(row["samples"]["e2e_s"])
    if args.trace != 0:
        result = worker(name, args.seed, "--trace", "--trace-out",
                        str(OUT / f"trace-{name}.json"))
        count(result)
        # Where both measured a metric, the longer untraced run wins.
        row["metrics"] = {**result["metrics"], **row["metrics"]}
        row["missing_names"] = result["missing_names"]
    row["metrics"]["failed_frac"] = row["failed"] / row["attempted"]
    return row


def wanted(bench: dict, trace) -> list[dict]:
    return ((bench["end_to_end"] if trace != 1 else [])
            + (bench["per_layer"] if trace != 0 else []))


def print_row(row: dict, metrics: list[dict]) -> None:
    print(f"\n== {row['workload']}"
          + (f"  ({row['iterations']} iterations)" if "iterations" in row else ""))
    for m in metrics:
        value = row["metrics"].get(m["name"])
        shown = "n/a" if value is None else f"{value:.6g}"
        note = ""
        if m["name"] in row["samples"]:
            note = f"   median of {len(row['samples'][m['name']])}"
        print(f"  {m['name']:<38} {shown:>14} {m['unit']:<6}{note}")
    for failure in row["failures"]:
        print(f"  FAILED: {failure}")
    for name in row.get("missing_names", ()):
        print(f"  missing name (metric is n/a): {name}")


def provenance(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, text=True, timeout=10,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "commit": commit,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
        "processes": PROCESSES,
        "iterations_per_process": dict(ITERATIONS),
        # Only a run on the fixed iteration counts is comparable to another.
        "comparable": not (args.iterations or args.seconds),
    }


def ledger(names: list[str], args, bench: dict) -> dict:
    metrics = wanted(bench, args.trace)
    report = {"provenance": provenance(args), "workloads": {}}
    for name in names:
        row = run_workload(name, args)
        print_row(row, metrics)
        report["workloads"][name] = row
    return report


# ---------------------------------------------------------------------- #
# --diff and --aa
# ---------------------------------------------------------------------- #


def spread(samples) -> float | None:
    """Interquartile range over the median, or None below two samples."""
    if not samples or len(samples) < 2:
        return None
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def diff(base: dict, new: dict, bench: dict) -> bool:
    """One row per workload x end-to-end metric with its bound verdict, one
    per exactly repeatable metric that changed.  True when nothing regressed
    and nothing is unresolved."""
    clean = True
    print(f"\n{'workload':<18} {'metric':<30} {'base':>12} {'new':>12} "
          f"{'change':>8}  verdict")
    for name, new_row in new["workloads"].items():
        base_row = base["workloads"].get(name)
        if base_row is None:
            continue
        for m in bench["end_to_end"]:
            b = base_row["metrics"].get(m["name"])
            n = new_row["metrics"].get(m["name"])
            if b is None or n is None:
                continue
            worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
            noise = max((spread(r["samples"].get(m["name"])) or 0.0)
                        for r in (base_row, new_row))
            verdict = ("unresolved" if noise > m["bound"]
                       else "regressed" if worse > m["bound"] else "ok")
            clean &= verdict == "ok"
            print(f"{name:<18} {m['name']:<30} {b:>12.6g} {n:>12.6g} "
                  f"{(n - b) / b:>+8.1%}  {verdict} "
                  f"(bound {m['bound']:.0%}, sample IQR {noise:.1%})")
        for m in bench["per_layer"]:
            b = base_row["metrics"].get(m["name"])
            n = new_row["metrics"].get(m["name"])
            if m["unit"] in EXACT_UNITS and b != n and None not in (b, n):
                clean = False
                print(f"{name:<18} {m['name']:<30} {b:>12.6g} {n:>12.6g} "
                      f"{'':>8}  differs (exactly repeatable)")
        if new_row["failed"]:
            clean = False
            print(f"{name:<18} {new_row['failed']} of {new_row['attempted']} "
                  "checks failed")
    return clean


def contract_line(row: dict, metrics: list[dict]) -> str:
    """The one-line result the driver reads.  A metric that is not defined
    on this workload, or whose traced name is gone, reads 0 here and `n/a`
    in the table above."""
    return json.dumps({
        "correct": row["failed"] == 0,
        "attempted": row["attempted"],
        "failed": row["failed"],
        "metrics": {
            m["name"]: {"value": row["metrics"].get(m["name"]) or 0,
                        "unit": m["unit"]}
            for m in metrics
        },
    })


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload (default: all six)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trace", type=int, nargs="?", const=1, choices=(0, 1),
                    help="1: per-layer metrics only; 0: end-to-end only; "
                         "absent: both")
    ap.add_argument("--seconds", type=float,
                    help="measure for this long instead of the fixed counts")
    ap.add_argument("--iterations", type=int,
                    help="smoke test only: output is not comparable")
    ap.add_argument("--out", help="write the full report here as JSON")
    ap.add_argument("--diff", metavar="BASE.json",
                    help="compare this run against an earlier --out report")
    ap.add_argument("--aa", action="store_true",
                    help="run twice on this tree; fail unless the two agree")
    args = ap.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        load_programs()
    except ManifestError as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 2
    bench = spec()
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            print(f"unknown workload {name!r}; pick from {list(WORKLOADS)}",
                  file=sys.stderr)
            return 2

    started = time.perf_counter()
    report = ledger(names, args, bench)
    ok = all(row["failed"] == 0 for row in report["workloads"].values())
    if args.aa:
        print("\n-- A/A: the same tree once more --")
        ok &= diff(report, ledger(names, args, bench), bench)
    if args.diff:
        ok &= diff(json.loads(Path(args.diff).read_text()), report, bench)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"\n{time.perf_counter() - started:.1f} s in all", flush=True)
    if args.workload:
        print(contract_line(report["workloads"][args.workload],
                            wanted(bench, args.trace)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
