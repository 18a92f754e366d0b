"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``compile FILE``
    Parse an IL+XDP (or sequential) program, optionally translate a
    sequential program to SPMD form, run the optimizer, and print the
    resulting program with the per-pass report.

``run FILE`` / ``run --app APP``
    Execute a program on the simulated machine and print the run summary
    (optionally final array values and the event trace).  With ``--app``
    (``jacobi``, ``fft3d``, ``workqueue`` or ``matmul``) a shipped
    application is run end-to-end instead and a sha256 digest of its
    result array is printed — the same program run with ``--backend msg``
    and ``--backend shmem`` must print the same digest (result
    transparency, paper section 5), and for ``matmul`` the digest is also
    identical across ``--collectives native`` and ``--collectives p2p``.

``check FILE|APP``
    Statically verify communication safety (tag/cardinality mismatches,
    transitional/unowned uses, ownership races, guaranteed deadlocks,
    collective participation/cardinality errors) without running the
    program.  ``APP`` may be ``jacobi``, ``fft3d``, ``workqueue`` or
    ``matmul`` to check every shipped variant of that app.  Exits 1 if
    the verifier reports any error.

``redist``
    Plan a memory-bounded redistribution between two distribution specs
    and report the schedule's per-round peak temporary memory against the
    naive all-at-once materialisation (``--max-temp-frac`` sets the
    budget).

``figures [N|all]``
    Regenerate the paper's figures as text.

``fft``
    Run the section-4 3-D FFT at a chosen stage/size and report.

``bench``
    Run the engine-scaling benchmark (workqueue + FFT-pipeline node
    programs over a processor sweep, measured live against the seed
    reference engine) and record/diff ``BENCH_engine.json``.

``chaos``
    Replay the workqueue and FFT-pipeline programs under seeded fault
    schedules (loss, duplication, jitter, stalls) through the reliable
    transport, asserting that results match the fault-free run and that
    same-seed replays are bit-identical.  Exits 1 on any mismatch.

``serve``
    Run a compile/check/run(/tune) job session against a crash-safe
    on-disk artifact store: supervised worker processes, per-job
    timeouts, seeded backoff retries, poison quarantine, and degraded
    tune fallback.  Re-running with the same ``--store`` directory
    serves repeats from cache.  ``--chaos`` runs the service-layer
    chaos battery (worker SIGKILLs, cache corruption, stalls, overload)
    instead.

Examples
--------

::

    python -m repro compile examples/simple.xdp --nprocs 4 -O2
    python -m repro run examples/simple.xdp --nprocs 4 --show A
    python -m repro run --app jacobi --backend shmem --nprocs 4
    python -m repro check examples/simple.xdp --nprocs 4
    python -m repro check jacobi fft3d workqueue matmul
    python -m repro run --app matmul --variant cannon --backend shmem
    python -m repro redist --shape 8,8,8 --from "(*, *, BLOCK)" \\
        --to "(*, BLOCK, *)" --nprocs 4 --max-temp-frac 0.25
    python -m repro figures all
    python -m repro fft --n 8 --nprocs 4 --stage 2
    python -m repro bench --nprocs 8,64,256 --out BENCH_engine.json
    python -m repro bench --nprocs 8,64 --diff BENCH_engine.json
    python -m repro chaos --seed 7 --procs 8
    python -m repro serve --store .xdp-store --rounds 2
    python -m repro serve --chaos --seed 7
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .core.codegen import lower
from .core.errors import ParseError, VerificationError
from .core.interp import Interpreter
from .core.ir.nodes import CollectiveStmt, Guarded, RecvStmt, SendStmt
from .core.ir.parser import parse_program
from .core.ir.printer import print_program
from .core.ir.verify import verify_program
from .core.ir.visitor import walk_stmts
from .core.opt import optimize
from .core.translate import translate
from .machine.model import MachineModel
from .machine.transport import BACKENDS, default_backend

__all__ = ["main"]

_MODELS = {
    "default": MachineModel.message_passing,
    "message-passing": MachineModel.message_passing,
    "shared-address": MachineModel.shared_address,
    "high-latency": MachineModel.high_latency,
}


def _load(path: str):
    """Parse and verify FILE; malformed input is ``FILE:line:col: message``
    (an unreadable file ``FILE: reason``) on stderr and exit status 2, not
    a traceback."""
    try:
        program = parse_program(Path(path).read_text())
        verify_program(program)
    except OSError as exc:
        print(f"{path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(2) from None
    except ParseError as exc:
        where = "".join(f":{n}" for n in (exc.line, exc.col) if n is not None)
        print(f"{path}{where}: {exc.message}", file=sys.stderr)
        raise SystemExit(2) from None
    except VerificationError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return program


def _is_sequential(program) -> bool:
    return not any(
        isinstance(s, (SendStmt, RecvStmt, Guarded, CollectiveStmt))
        for s in walk_stmts(program.body)
    )


def _cmd_compile(args: argparse.Namespace) -> int:
    from .core.analysis.verify_comm import CommVerificationError

    program = _load(args.file)
    if _is_sequential(program):
        program = translate(
            program,
            args.nprocs,
            strategy=args.strategy,
            bind_destinations=not args.no_binding,
        )
        print(f"// translated ({args.strategy}) for {args.nprocs} processors")
    try:
        result = optimize(program, args.nprocs, level=args.opt_level,
                          verify_comm=args.verify_comm,
                          backend=args.backend or default_backend())
    except CommVerificationError as exc:
        print(exc.report.format(), file=sys.stderr)
        return 1
    print(print_program(result.program))
    print("// optimization report:")
    for line in result.reports:
        print(f"//   {line}")
    return 0


def _run_app(args: argparse.Namespace) -> int:
    """``repro run --app APP``: run a shipped app, print a result digest."""
    import hashlib

    nprocs = args.nprocs
    model = _MODELS[args.model]()
    if args.app == "jacobi":
        from .apps.jacobi import run_jacobi

        r = run_jacobi(4 * nprocs, nprocs, 3, "halo-overlap",
                       model=model, path=args.path, backend=args.backend)
        label, ok, arr = f"jacobi/halo-overlap n={4 * nprocs}", r.correct, r.result
        stats = r.stats
    elif args.app == "fft3d":
        from .apps.fft3d import run_fft3d

        r = run_fft3d(nprocs, nprocs, 2, model=model, path=args.path,
                      backend=args.backend)
        label, ok, arr = f"fft3d/stage2 n={nprocs}", r.correct, r.result
        stats = r.stats
    elif args.app == "matmul":
        from .apps.matmul import run_matmul

        n = 2 * nprocs
        r = run_matmul(n, nprocs, args.variant, model=model, path=args.path,
                       backend=args.backend, collectives=args.collectives)
        label, ok, arr = f"matmul/{args.variant} n={n}", r.correct, r.result
        stats = r.stats
    elif args.app == "workqueue":
        # The static-IL rendition of the section-2.7 pool: its round-robin
        # deal makes the final ACC array independent of transport timing.
        from .apps.workqueue import workqueue_source

        njobs = 4 * (nprocs - 1)
        program = parse_program(workqueue_source(njobs, nprocs))
        runner = lower(program, nprocs, model=model, backend=args.backend)
        stats = runner.run()
        arr = runner.read_global("ACC")
        want = [0.0] * nprocs
        for j in range(1, njobs + 1):
            want[(j - 1) % (nprocs - 1) + 1] += float(j)
        ok = arr.tolist() == want
        label = f"workqueue njobs={njobs}"
    else:  # pragma: no cover - argparse choices guard this
        raise SystemExit(f"unknown app {args.app!r}")
    digest = hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
    backend = args.backend or default_backend()
    print(
        f"{label} P={nprocs} backend={backend}: correct={ok} "
        f"makespan={stats.makespan:.1f} messages={stats.total_messages}"
    )
    print(f"result sha256: {digest}")
    return 0 if ok else 1


def _cmd_run(args: argparse.Namespace) -> int:
    if args.app:
        if args.file:
            raise SystemExit("give either FILE or --app, not both")
        return _run_app(args)
    if not args.file:
        raise SystemExit("need a FILE to run (or --app)")
    program = _load(args.file)
    if _is_sequential(program):
        program = translate(program, args.nprocs, strategy=args.strategy)
    backend = args.backend or default_backend()
    if args.opt_level > 0:
        program = optimize(program, args.nprocs, level=args.opt_level,
                           backend=backend).program
    if args.verify_comm:
        from .core.analysis import verify_communication

        report = verify_communication(program, args.nprocs, backend=backend)
        print(report.format())
        if not report.ok:
            return 1
    model = _MODELS[args.model]()
    trace = args.trace or bool(args.trace_json)
    if args.path == "vm":
        runner = lower(program, args.nprocs, model=model,
                       binding=args.binding, trace=trace,
                       backend=args.backend)
    else:
        runner = Interpreter(program, args.nprocs, model=model, trace=trace,
                             backend=args.backend)
    for spec in args.init or ():
        name, _, kind = spec.partition("=")
        decl = program.decl(name)
        shape = decl.shape
        if kind in ("iota", ""):
            values = np.arange(1.0, np.prod(shape) + 1).reshape(shape)
        elif kind == "ones":
            values = np.ones(shape)
        elif kind == "zeros":
            values = np.zeros(shape)
        elif kind == "rand":
            values = np.random.default_rng(0).standard_normal(shape)
        else:
            raise SystemExit(f"unknown init kind {kind!r} (iota/ones/zeros/rand)")
        runner.write_global(name, values)
    stats = runner.run()
    print(stats.summary())
    for name in args.show or ():
        try:
            arr = runner.read_global(name)
        except Exception as exc:  # pragma: no cover - diagnostic path
            print(f"{name}: <unreadable: {exc}>")
            continue
        with np.printoptions(precision=4, suppress=True):
            print(f"{name} =\n{arr}")
    if args.trace:
        for event in stats.trace:
            print(event)
    if args.trace_json:
        from .report.tracefmt import dump_chrome_trace

        dump_chrome_trace(stats.trace, args.trace_json)
        print(f"wrote {args.trace_json} ({len(stats.trace)} events)")
    return 0


def _check_targets(target: str, nprocs: int) -> list[tuple[str, object]]:
    """Expand a ``check`` target (app name or file path) to programs."""
    if target == "jacobi":
        from .apps.jacobi import VARIANTS, jacobi_source

        return [
            (f"jacobi/{v} n={2 * nprocs}", jacobi_source(2 * nprocs, nprocs, 2, v))
            for v in VARIANTS
        ]
    if target == "fft3d":
        from .apps.fft3d import fft3d_source

        return [
            (f"fft3d/stage{s} n={nprocs}", fft3d_source(nprocs, nprocs, s))
            for s in (0, 1, 2)
        ]
    if target == "matmul":
        from .apps.matmul import VARIANTS, matmul_source

        n = 2 * nprocs
        return [
            (f"matmul/{v} n={n}", matmul_source(n, nprocs, v))
            for v in VARIANTS
        ]
    if target == "workqueue":
        from .apps.workqueue import workqueue_source

        njobs = 2 * (nprocs - 1)
        return [(f"workqueue njobs={njobs}", workqueue_source(njobs, nprocs))]
    return [(target, _load(target))]


def _cmd_check(args: argparse.Namespace) -> int:
    from .core.analysis import verify_communication

    backend = args.backend or default_backend()
    failed = False
    for target in args.targets:
        for label, program in _check_targets(target, args.nprocs):
            if isinstance(program, str):
                program = parse_program(program)
            verify_program(program)
            if _is_sequential(program):
                program = translate(program, args.nprocs,
                                    strategy=args.strategy)
            if args.opt_level > 0:
                program = optimize(program, args.nprocs,
                                   level=args.opt_level,
                                   backend=backend).program
            report = verify_communication(program, args.nprocs,
                                          max_events=args.max_events,
                                          backend=backend)
            print(f"== {label} (P={args.nprocs}, backend={backend})")
            print(report.format())
            failed = failed or not report.ok
    return 1 if failed else 0


def _cmd_redist(args: argparse.Namespace) -> int:
    from .core.collectives.planner import (
        dist_from_spec, plan_bounded_redistribution,
    )
    from .distributions import ProcessorGrid

    shape = tuple(int(x) for x in args.shape.split(","))
    bounds = tuple((1, n) for n in shape)
    grid = ProcessorGrid((args.nprocs,))
    src = dist_from_spec(args.src_spec, bounds, grid)
    dst = dist_from_spec(args.dst_spec, bounds, grid)
    sched = plan_bounded_redistribution(
        src, dst, max_temp_frac=args.max_temp_frac,
        elem_bytes=args.elem_bytes,
    )
    doc = sched.summary()
    shape_str = "x".join(str(n) for n in shape)
    print(f"redistribute {shape_str} over P={args.nprocs}: "
          f"{doc['source']} -> {doc['target']}")
    print(f"  budget      {doc['budget_bytes']} bytes/proc/round "
          f"(max_temp_frac={doc['max_temp_frac']})")
    print(f"  schedule    {doc['rounds']} rounds, {doc['moves']} moves")
    print(f"  peak temp   {doc['peak_temp_bytes']} bytes/proc "
          f"(naive all-at-once: {doc['naive_peak_bytes']})")
    print(f"  peak/naive  {doc['peak_vs_naive']:.3f}")
    if args.json:
        from .report.record import write_json_atomic

        write_json_atomic(args.json, doc)
        print(f"wrote {args.json}")
    return 0


def _parse_knobs(spec: str):
    """Parse a ``--knobs`` spec like ``bulk,pipelined,planner@0.25`` into a
    :class:`~repro.tune.space.KnobSpec` (``planner@F`` adds F to the
    planner's temp-memory fractions; bare ``planner`` keeps the defaults)."""
    from .tune import KnobSpec

    reals: list[str] = []
    fracs: list[float] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part.startswith("planner@"):
            if "planner" not in reals:
                reals.append("planner")
            fracs.append(float(part.split("@", 1)[1]))
        elif part not in reals:
            reals.append(part)
    if not reals:
        raise SystemExit(f"--knobs {spec!r} names no realizations")
    return KnobSpec(
        realizations=tuple(reals),
        max_temp_fracs=tuple(fracs) if fracs else (0.25, 0.5),
    )


def _cmd_tune(args: argparse.Namespace) -> int:
    from .tune import TuneError, tune

    if args.file:
        program = _load(args.file)
        what = args.file
    else:
        from .apps.fft3d import fft3d_source

        try:
            program = fft3d_source(args.n, args.nprocs, args.stage)
        except ValueError as exc:
            print(f"repro tune: {exc}", file=sys.stderr)
            return 2
        what = f"fft3d n={args.n} stage={args.stage}"
    model = _MODELS[args.model]()
    store = args.store
    if args.shards and store is None:
        # Sharded workers need a shared store; a throwaway one will do.
        import tempfile

        store = tempfile.mkdtemp(prefix="repro-tune-store-")
        print(f"note: --shards without --store, using throwaway {store}")
    try:
        res = tune(
            program,
            args.nprocs,
            model=model,
            top_k=args.top_k,
            knobs=_parse_knobs(args.knobs) if args.knobs else None,
            budget_s=args.budget,
            shards=args.shards,
            parallel=not args.serial,
            seed=args.seed,
            backend=args.backend or default_backend(),
            store=store,
        )
    except TuneError as exc:
        print(f"repro tune: {exc}", file=sys.stderr)
        return 2
    print(f"tuning {what} at P={args.nprocs} ({args.model} model)")
    print(res.summary())
    if not args.file and args.compare_hand:
        from .apps.fft3d import run_fft3d

        for stage in (1, 2):
            r = run_fft3d(args.n, args.nprocs, stage, model=model)
            mark = "tuned wins" if res.makespan <= r.makespan else "beats tuned"
            print(
                f"  hand stage {stage}: makespan {r.makespan:.2f}   ({mark})"
            )
    if args.explain:
        print("\n// shortlist (static rank vs engine):")
        for i, row in enumerate(res.analytic, 1):
            eng = ("-" if row["makespan"] is None
                   else f"{row['makespan']:.1f}")
            print(f"  {i:2d}. static={row['score']:>10.1f} "
                  f"engine={eng:>9s}  {row['knob']}: "
                  + " | ".join(row["layouts"]))
        for d in res.demoted:
            first = d["reason"].splitlines()[0]
            print(f"   --. demoted {d['label']}: {first}")
    if args.print_source:
        print("\n// tuned program:")
        print(res.source)
    if args.json:
        doc = res.canonical_doc()
        doc.update({
            "nprocs": args.nprocs,
            "model": args.model,
            "shards": res.shards,
            "budget_s": res.budget_s,
            "wall_s": res.wall_s,
            "cache_hits": res.cache.hits,
            "cache_misses": res.cache.misses,
            "store_hits": res.cache.store_hits,
            "store_misses": res.cache.store_misses,
            "store_hit_rate": res.cache.store_hit_rate,
        })
        from .report.record import write_json_atomic

        write_json_atomic(args.json, doc)
        print(f"wrote {args.json}")
    return 0 if res.semantics_preserved else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    from .report import figure1_text, figure2_table, figure3_maps, figure4_layouts

    which = args.which
    out = []
    if which in ("1", "all"):
        out.append(figure1_text())
    if which in ("2", "all"):
        out.append(figure2_table())
    if which in ("3", "all"):
        out.append(figure3_maps())
    if which in ("4", "all"):
        out.append(figure4_layouts())
    print("\n\n".join(out))
    return 0


def _cmd_fft(args: argparse.Namespace) -> int:
    from .apps.fft3d import fft3d_source, run_fft3d

    if args.print_source:
        print(fft3d_source(args.n, args.nprocs, args.stage))
        return 0
    model = _MODELS[args.model]()
    r = run_fft3d(args.n, args.nprocs, args.stage, model=model,
                  path=args.path, backend=args.backend)
    print(
        f"3-D FFT n={args.n} P={args.nprocs} stage={args.stage}: "
        f"correct={r.correct} makespan={r.makespan:.1f} "
        f"messages={r.messages}"
    )
    print(r.stats.summary())
    return 0 if r.correct else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .apps.enginebench import diff_bench, format_bench, run_engine_bench

    nprocs = tuple(int(x) for x in args.nprocs.split(","))
    if args.proc:
        from .apps.procbench import format_proc_bench, run_proc_bench
        from .report.record import write_json_atomic

        # The scaling default (8,64,256) is a fork bomb on real cores;
        # proc mode has its own small default sweep.
        if args.nprocs == "8,64,256":
            nprocs = (1, 2, 4)
        results = run_proc_bench(nprocs)
        print(format_proc_bench(results))
        out = args.out if args.out != "BENCH_engine.json" else "BENCH_proc.json"
        write_json_atomic(out, results)
        print(f"wrote {out}")
        return 0
    programs = tuple(args.programs.split(","))
    results = run_engine_bench(
        nprocs,
        programs,
        jobs_per_proc=args.jobs_per_proc,
        classify=not args.no_classify,
    )
    print(format_bench(results))
    if args.diff:
        old = json.loads(Path(args.diff).read_text())
        print(f"\nvs {args.diff}:")
        print(diff_bench(old, results))
        return 0
    from .report.record import write_json_atomic

    write_json_atomic(args.out, results)
    print(f"wrote {args.out}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .apps.chaos import format_chaos, run_chaos

    report = run_chaos(
        programs=tuple(args.programs.split(",")),
        nprocs_list=tuple(int(x) for x in args.procs.split(",")),
        seed=args.seed,
        jobs_per_proc=args.jobs_per_proc,
        include_crash=args.crash,
        backend=args.backend,
    )
    print(format_chaos(report))
    if args.json:
        from .report.record import write_json_atomic

        write_json_atomic(args.json, report)
        print(f"wrote {args.json}")
    return 0 if report["ok"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .report.record import write_json_atomic

    if args.chaos:
        from .serve import format_serve_chaos, run_serve_chaos

        report = run_serve_chaos(seed=args.seed, nprocs=args.nprocs,
                                 store_root=args.store)
        print(format_serve_chaos(report))
        if args.json:
            write_json_atomic(args.json, report)
            print(f"wrote {args.json}")
        return 0 if report["ok"] else 1
    if not args.store:
        raise SystemExit("serve needs --store DIR (or --chaos)")
    from .serve import format_serve, run_serve

    report = run_serve(
        store_root=args.store,
        nprocs=args.nprocs,
        rounds=args.rounds,
        workers=args.workers,
        backend=args.backend or default_backend(),
        seed=args.seed,
        include_tune=args.tune,
        timeout_s=args.timeout,
    )
    print(format_serve(report))
    ok = report["ok"]
    if args.min_hit_rate is not None:
        rate = report["summary"]["cache_hit_rate"]
        if rate < args.min_hit_rate:
            print(f"cache hit rate {rate:.1%} below required "
                  f"{args.min_hit_rate:.1%}")
            ok = False
    if args.json:
        write_json_atomic(args.json, report)
        print(f"wrote {args.json}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XDP (PPoPP 1993) reproduction: compile and run IL+XDP "
        "programs on a simulated SPMD machine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def backend_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", default=None, choices=BACKENDS,
                       help="transport binding for transfer operations: "
                            "msg = message passing, shmem = shared-address "
                            "prefetch/poststore (default: $REPRO_BACKEND "
                            "or msg)")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--nprocs", type=int, default=4)
        p.add_argument("-O", "--opt-level", type=int, default=2,
                       choices=(0, 1, 2))
        p.add_argument("--strategy", default="owner-computes",
                       choices=("owner-computes", "migrate"))
        backend_arg(p)

    c = sub.add_parser("compile", help="translate/optimize and print a program")
    c.add_argument("file")
    common(c)
    c.add_argument("--no-binding", action="store_true",
                   help="emit unannotated sends (the paper's literal form)")
    c.add_argument("--verify-comm", action="store_true",
                   help="statically verify communication safety of the "
                        "optimized program; exit 1 on errors")
    c.set_defaults(fn=_cmd_compile)

    k = sub.add_parser(
        "check",
        help="statically verify communication safety without running",
    )
    k.add_argument("targets", nargs="+", metavar="FILE|APP",
                   help="IL+XDP files and/or app names "
                        "(jacobi, fft3d, workqueue, matmul)")
    k.add_argument("--nprocs", type=int, default=4)
    k.add_argument("-O", "--opt-level", type=int, default=0,
                   choices=(0, 1, 2),
                   help="optimize before verifying (default: check the "
                        "program as written)")
    k.add_argument("--strategy", default="owner-computes",
                   choices=("owner-computes", "migrate"))
    k.add_argument("--max-events", type=int, default=200_000,
                   help="abstract execution step budget")
    backend_arg(k)
    k.set_defaults(fn=_cmd_check)

    r = sub.add_parser("run", help="execute a program on the simulated machine")
    r.add_argument("file", nargs="?",
                   help="IL+XDP program (omit when using --app)")
    common(r)
    r.add_argument("--app", choices=("jacobi", "fft3d", "workqueue", "matmul"),
                   help="run a shipped application instead of FILE and "
                        "print a sha256 digest of its result array "
                        "(identical across --backend choices)")
    r.add_argument("--variant", default="summa",
                   help="app variant (matmul: cannon, summa, gather, outer)")
    r.add_argument("--collectives", default="native",
                   choices=("native", "p2p"),
                   help="lower coll statements natively or desugar to "
                        "point-to-point transfers (digests must match)")
    r.add_argument("--verify-comm", action="store_true",
                   help="statically verify communication safety before "
                        "running; exit 1 on errors")
    r.add_argument("--model", default="default", choices=sorted(_MODELS))
    r.add_argument("--path", default="vm", choices=("vm", "interp"))
    r.add_argument("--binding", default="nonblocking",
                   choices=("nonblocking", "blocking"))
    r.add_argument("--trace", action="store_true")
    r.add_argument("--show", action="append", metavar="ARRAY",
                   help="print the final global value of an array")
    r.add_argument("--init", action="append", metavar="ARRAY=KIND",
                   help="initialise an array (KIND: iota, ones, zeros, rand)")
    r.add_argument("--trace-json", metavar="PATH",
                   help="write the event trace as Chrome trace-event JSON "
                        "(viewable in Perfetto); implies tracing")
    r.set_defaults(fn=_cmd_run)

    d = sub.add_parser(
        "redist",
        help="plan a memory-bounded redistribution and report its "
             "peak-temp profile",
    )
    d.add_argument("--shape", default="8,8,8",
                   help="comma-separated array extents (1-based bounds)")
    d.add_argument("--from", dest="src_spec", default="(*, *, BLOCK)",
                   metavar="SPEC", help="source HPF-style distribution spec")
    d.add_argument("--to", dest="dst_spec", default="(*, BLOCK, *)",
                   metavar="SPEC", help="target HPF-style distribution spec")
    d.add_argument("--nprocs", type=int, default=4)
    d.add_argument("--max-temp-frac", type=float, default=0.5,
                   help="per-round temp-memory budget as a fraction of the "
                        "largest per-processor array footprint")
    d.add_argument("--elem-bytes", type=int, default=8)
    d.add_argument("--json", metavar="FILE",
                   help="also write the schedule summary as JSON")
    d.set_defaults(fn=_cmd_redist)

    u = sub.add_parser(
        "tune", help="search data placements for a phased program"
    )
    u.add_argument("--file", help="tune this IL+XDP program "
                                  "(default: the section-4 FFT demo)")
    u.add_argument("--n", type=int, default=8, help="FFT demo cube size")
    u.add_argument("--nprocs", type=int, default=4)
    u.add_argument("--stage", type=int, default=0, choices=(0, 1, 2, 3),
                   help="FFT demo input stage (0 = naive)")
    u.add_argument("--model", default="default", choices=sorted(_MODELS))
    u.add_argument("--top-k", type=int, default=4,
                   help="first engine wave size (waves then halve)")
    u.add_argument("--knobs", default=None, metavar="SPEC",
                   help="pass-level knob space, e.g. "
                        "'bulk,pipelined,planner@0.25,planner@0.5'")
    u.add_argument("--budget", type=float, default=60.0, metavar="SECONDS",
                   help="wall-clock budget checked between engine waves")
    u.add_argument("--shards", type=int, default=None,
                   help="evaluate candidates across this many supervised "
                        "worker processes (uses --store, or a throwaway "
                        "one); 0 evaluates in-process")
    u.add_argument("--explain", action="store_true",
                   help="print the ranked shortlist with static scores, "
                        "engine makespans, and demotions")
    u.add_argument("--serial", action="store_true",
                   help="evaluate candidates serially")
    u.add_argument("--seed", type=int, default=7)
    u.add_argument("--compare-hand", action="store_true",
                   help="also run the paper's hand stages for comparison "
                        "(FFT demo only)")
    u.add_argument("--print-source", action="store_true",
                   help="print the winning generated program")
    u.add_argument("--json", metavar="FILE",
                   help="write the tuning report as JSON")
    u.add_argument("--store", metavar="DIR",
                   help="share engine evaluations through an on-disk "
                        "artifact store (reused across runs/processes)")
    backend_arg(u)
    u.set_defaults(fn=_cmd_tune)

    f = sub.add_parser("figures", help="regenerate the paper's figures")
    f.add_argument("which", nargs="?", default="all",
                   choices=("1", "2", "3", "4", "all"))
    f.set_defaults(fn=_cmd_figures)

    t = sub.add_parser("fft", help="run the section-4 3-D FFT")
    t.add_argument("--n", type=int, default=4)
    t.add_argument("--nprocs", type=int, default=4)
    t.add_argument("--stage", type=int, default=2, choices=(0, 1, 2, 3))
    t.add_argument("--model", default="default", choices=sorted(_MODELS))
    t.add_argument("--path", default="vm", choices=("vm", "interp"))
    t.add_argument("--print-source", action="store_true")
    backend_arg(t)
    t.set_defaults(fn=_cmd_fft)

    b = sub.add_parser("bench", help="run the engine scaling benchmark")
    b.add_argument("--nprocs", default="8,64,256",
                   help="comma-separated processor counts")
    b.add_argument("--programs", default="workqueue,fft",
                   help="comma-separated bench programs (workqueue, fft)")
    b.add_argument("--jobs-per-proc", type=int, default=16,
                   help="workqueue jobs per processor")
    b.add_argument("--no-classify", action="store_true",
                   help="skip the profiled bottleneck classification")
    b.add_argument("--proc", action="store_true",
                   help="real-wall-clock mode: run the fixed-size Jacobi "
                        "speedup sweep on the proc backend (default sweep "
                        "1,2,4; records BENCH_proc.json; honestly skips on "
                        "single-core hosts)")
    b.add_argument("--out", default="BENCH_engine.json",
                   help="where to record results")
    b.add_argument("--diff", metavar="FILE",
                   help="compare against a recorded results file "
                        "instead of writing")
    b.set_defaults(fn=_cmd_bench)

    x = sub.add_parser("chaos", help="fault-injection battery on the engine")
    x.add_argument("--seed", type=int, default=7,
                   help="fault-schedule seed (fixed seed => bit-identical run)")
    x.add_argument("--procs", default="8",
                   help="comma-separated processor counts")
    x.add_argument("--programs", default="workqueue,fft",
                   help="comma-separated programs (workqueue, fft)")
    x.add_argument("--jobs-per-proc", type=int, default=8,
                   help="workqueue jobs per processor")
    x.add_argument("--crash", action="store_true",
                   help="also demonstrate fail-stop degraded runs")
    x.add_argument("--json", metavar="FILE",
                   help="also write the full report as JSON")
    backend_arg(x)
    x.set_defaults(fn=_cmd_chaos)

    v = sub.add_parser(
        "serve",
        help="run jobs against the crash-safe artifact store service",
    )
    v.add_argument("--store", metavar="DIR",
                   help="artifact store directory (created if missing; "
                        "reuse it across runs for warm-cache service)")
    v.add_argument("--nprocs", type=int, default=4)
    v.add_argument("--rounds", type=int, default=2,
                   help="how many times to issue the demo workload "
                        "(round 2+ replays round 1 warm)")
    v.add_argument("--workers", type=int, default=2,
                   help="supervised worker processes")
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--timeout", type=float, default=120.0,
                   help="per-job timeout in seconds")
    v.add_argument("--tune", action="store_true",
                   help="include a tune job in each round")
    v.add_argument("--min-hit-rate", type=float, metavar="FRAC",
                   help="exit 1 unless the session cache hit rate "
                        "reaches FRAC (e.g. 0.9)")
    v.add_argument("--chaos", action="store_true",
                   help="run the service-layer chaos battery instead "
                        "(worker kills, cache corruption, stalls, "
                        "overload, poison jobs)")
    v.add_argument("--json", metavar="FILE",
                   help="also write the full report as JSON")
    backend_arg(v)
    v.set_defaults(fn=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # piping into `head` etc.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
