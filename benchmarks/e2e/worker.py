"""One workload in one fresh process: set-up, timed iterations, checks.

Started by `run.py`, never by hand.  Prints one JSON object as the last
line of its standard output.  The clock for `setup_s` starts on the first
line below, before numpy or `repro` are imported.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Untraced iterations a traced run times first: the base of
#: `bench.trace_overhead_frac` and of the demoted end-to-end metrics.
UNTRACED_IN_TRACE = 2
TRACED_ITERATIONS = 2


def one_iteration(workload, checks, first_digest):
    """Time one iteration; an exception or a drifting digest is a failed
    check.  Returns `(None, elapsed)` when the iteration raised."""
    t0 = time.perf_counter()
    try:
        it = workload.iterate(checks)
    except Exception as exc:  # the boundary that turns a crash into a count
        checks.check(False, f"{workload.name}: iteration raised {exc!r}")
        return None, time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    if first_digest is not None:
        checks.check(it.digest == first_digest,
                     f"{workload.name}: result digest drifted between iterations")
    return it, elapsed


def summarize(its, times, setup_s, median) -> dict:
    """End-to-end metrics of the untraced iterations (medians; the virtual
    counts are identical in every iteration or the digest check failed)."""
    engine_s = median([it.engine_s for it in its])
    effects = its[-1].effects
    return {
        "setup_s": setup_s,
        "e2e_s": median(times),
        "compile_s": median([it.compile_s for it in its]),
        "run_s": median([it.run_s for it in its]),
        "effects_per_s": effects / engine_s if effects and engine_s else None,
        "makespan_vt": its[-1].makespan_vt,
        "messages": its[-1].messages,
        "bytes_moved": its[-1].bytes_moved,
    }


def alt_runs(workload, result_digest, checks) -> dict:
    """The run phase once more on each non-default path, untraced; each must
    reproduce the default path's result."""
    out = {"machine.transport.shmem.run_s": None, "machine.batched.run_s": None,
           "machine.procrt.run_s": None}

    def attempt(metric, backend, engine_mode=None):
        if engine_mode:
            os.environ["REPRO_ENGINE_MODE"] = engine_mode
        try:
            got = workload.alt_run(backend)
        finally:
            os.environ.pop("REPRO_ENGINE_MODE", None)
        if got is not None:
            out[metric], digest = got
            checks.check(digest == result_digest,
                         f"{workload.name}: {metric[:-6]} result != default path's")

    attempt("machine.transport.shmem.run_s", "shmem")
    attempt("machine.batched.run_s", "msg", engine_mode="batched")
    # proc forks one OS process per simulated processor: only the P=4
    # workload fits, and only where it gets a second core.
    if workload.name == "fft3d-cyclic" and (os.cpu_count() or 1) >= 2:
        attempt("machine.procrt.run_s", "proc")
    return out


def src_loc(src: Path) -> int:
    return sum(
        1 for f in sorted((src / "repro").rglob("*.py"))
        for line in f.read_text().splitlines() if line.strip()
    )


def load_tracer():
    """`trace.py` by path: a plain `import trace` would depend on whether
    this directory precedes the standard library's `trace` on `sys.path`."""
    spec = importlib.util.spec_from_file_location(
        "e2e_trace", Path(__file__).with_name("trace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(workload, checks, first, args, untraced: dict):
    trace = load_tracer()
    metrics = alt_runs(workload, first.result_digest, checks)
    tracer = trace.Tracer()
    tracer.install()
    its = []
    try:
        for _ in range(TRACED_ITERATIONS):
            with tracer.iteration():
                it, _ = one_iteration(workload, checks, first.digest)
            if it is None:
                raise SystemExit("; ".join(checks.messages))
            its.append(it)
    finally:
        tracer.uninstall()

    for name in tracer.metric_names():
        values = [acc.get(name, 0.0) for acc in tracer.iterations]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            last = values[-1]
            metrics[name] = int(last) if float(last).is_integer() else last
            checks.check(len(set(values)) == 1,
                         f"{workload.name}: count {name} differs between iterations")
    for name, value in its[-1].counts.items():
        metrics[name] = value
    metrics["core.analysis.wrong_verdicts"] = checks.wrong_verdicts
    metrics["core.collectives.native_over_p2p_vt"] = its[-1].native_over_p2p_vt
    metrics["repo.src_loc"] = src_loc(Path(args.src))

    traced_e2e = statistics.median(
        acc["bench.traced_e2e_s"] for acc in tracer.iterations)
    other = statistics.median(acc[trace.ITERATION] for acc in tracer.iterations)
    metrics["bench.other_frac"] = other / traced_e2e
    metrics["bench.trace_overhead_frac"] = (
        (traced_e2e - untraced["e2e_s"]) / untraced["e2e_s"])
    metrics["bench.missing_names"] = len(tracer.missing)
    if args.trace_out:
        tracer.write_chrome_trace(Path(args.trace_out), workload.name)
    return metrics, tracer.missing


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--iterations", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    # -- set-up: imports, frozen inputs, arrays and references, warm-up -- #
    import numpy  # noqa: F401
    import repro  # noqa: F401
    import repro.apps.workqueue  # noqa: F401
    import repro.core.analysis  # noqa: F401
    import repro.tune  # noqa: F401
    import workloads as W

    programs = W.load_programs()
    workload = W.WORKLOADS[args.workload](programs, args.seed)
    checks = W.Checks()
    first, _ = one_iteration(workload, checks, None)
    if first is None:
        raise SystemExit("; ".join(checks.messages))
    setup_s = time.perf_counter() - T0

    # -- timed iterations, tracing off ----------------------------------- #
    if args.trace:
        count, seconds = UNTRACED_IN_TRACE, None
    else:
        count, seconds = args.iterations, args.seconds
    its, times = [], []
    started = time.perf_counter()

    def unfinished() -> bool:
        if count:
            return len(its) < count
        return len(its) < 2 or time.perf_counter() - started < seconds

    while unfinished():
        it, elapsed = one_iteration(workload, checks, first.digest)
        if it is None:
            break
        its.append(it)
        times.append(elapsed)
    if not its:
        raise SystemExit("; ".join(checks.messages))
    metrics = summarize(its, times, setup_s, W.median)
    missing = []
    if args.trace:
        layer, missing = traced(workload, checks, first, args, metrics)
        metrics.update(layer)

    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps({
        "digest": first.digest,
        "e2e_s_samples": times,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.messages,
        "missing_names": missing,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())
