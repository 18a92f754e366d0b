"""Outside-in tracer: timing wrappers installed from the benchmark's own
files around the public functions and methods of each `repro` layer.

No source under `src/` is edited.  A wrapped name is looked up when the
tracer is installed; one that no longer exists is remembered in
`Tracer.missing` and its metric is reported as `null` — a refactor that
moves a function costs the ledger one row, never a crash.  When `--trace`
is absent this module is not even imported.

Spans carry name, start, end, parent and iteration id and are kept in
memory until `write_chrome_trace`.  A layer's time is *self* time: a span's
duration minus the part its child spans cover, so the layer times of one
iteration add up to the iteration's wall time and nothing is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: layer metric -> "module:attribute" targets timed under that name.  The
#: module is the most public one that exports the name, so a move inside a
#: package does not lose the row.
SPANS: dict[str, list[str]] = {
    "core.ir.parse_s": ["repro:parse_program"],
    "core.ir.verify_s": ["repro:verify_program"],
    "core.opt.optimize_s": ["repro:optimize"],
    "core.analysis.verify_comm_s": ["repro.core.analysis:verify_communication"],
    "core.codegen.lower_s": ["repro:CompiledProgram.__init__"],
    "core.codegen.stage_s": [
        "repro:CompiledProgram.write_global",
        "repro:CompiledProgram.read_global",
    ],
    "runtime.symtab.read_s": [
        "repro:RuntimeSymbolTable.read",
        "repro:RuntimeSymbolTable.read_owned",
    ],
    "runtime.symtab.write_s": [
        "repro:RuntimeSymbolTable.write",
        "repro:RuntimeSymbolTable.complete_value_receive",
        "repro:RuntimeSymbolTable.complete_ownership_receive",
    ],
    "runtime.symtab.query_s": [
        "repro:RuntimeSymbolTable.iown",
        "repro:RuntimeSymbolTable.accessible",
        "repro:RuntimeSymbolTable.state_of",
        "repro:RuntimeSymbolTable.mylb",
        "repro:RuntimeSymbolTable.myub",
    ],
    "runtime.symtab.xfer_s": [
        "repro:RuntimeSymbolTable.release_ownership",
        "repro:RuntimeSymbolTable.acquire_ownership",
        "repro:RuntimeSymbolTable.begin_value_receive",
    ],
    "core.collectives.busy_s": [
        "repro.core.collectives:build_instance",
        "repro.core.collectives:collective_ops",
        "repro.core.collectives:execute_ops",
        "repro.core.collectives:plan_bounded_redistribution",
    ],
    "machine.transport.busy_s": [
        "repro.machine.transport:MessagePassingTransport.send",
        "repro.machine.transport:MessagePassingTransport.recv_init",
        "repro.machine.transport:MessagePassingTransport.route",
    ],
    "distributions.plan_s": ["repro:plan_redistribution"],
    "tune.search_s": ["repro.tune:tune"],
    "tune.prefilter_s": ["repro.tune:prefilter"],
    "tune.evaluate_s": [
        "repro.tune:evaluate_candidates",
        "repro.tune:evaluate_sharded",
    ],
    "tune.rewrite_s": [
        "repro.tune:generate_phased_program",
        "repro.tune:detect_phases",
    ],
    "tune.cost_s": [
        "repro.tune:phase_compute_cost",
        "repro.tune:redistribution_cost",
        "repro.tune:estimate_program",
    ],
    "apps.workqueue.self_s": ["repro.apps.workqueue:run_workqueue"],
}

#: Span of `Engine.run`; its self time is the scheduler's own.
ENGINE_RUN = "repro:Engine.run"
SCHEDULER = "machine.scheduler.self_s"
#: Time inside node-program generators minus their symtab/kernel children.
VM = "core.codegen.vm_self_s"
KERNELS = "core.kernels.busy_s"
KERNEL_REGISTER = "repro:KernelRegistry.register"
#: Too hot to time from outside: counted only.
INTERSECT = "repro:Section.intersect"
ITERATION = "bench.iteration"

#: `RunStats` fields summed over every engine run inside an iteration.
ENGINE_COUNTS = {
    "machine.effects": "effects_processed",
    "machine.compute_vt": "total_compute_time",
    "machine.idle_vt": "total_idle_time",
    "machine.overhead_vt": "total_overhead",
    "machine.transport.messages": "total_messages",
    "machine.transport.bytes": "total_bytes",
}


class Tracer:
    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, iteration id)
        self.spans: list[tuple | None] = []
        self.missing: list[str] = []
        #: one {metric: seconds or count} per traced iteration
        self.iterations: list[dict[str, float]] = []
        self._stack: list[list] = []
        self._acc: dict[str, float] = defaultdict(float)
        self._calls: dict[str, int] = defaultdict(int)
        self._iteration = -1
        self._undo: list = []

    # -- span bookkeeping ------------------------------------------------ #

    def _enter(self, name: str) -> list:
        stack = self._stack
        frame = [len(self.spans), 0.0, name, stack[-1][0] if stack else -1, 0.0]
        self.spans.append(None)
        stack.append(frame)
        frame[4] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        index, children, name, parent, start = frame
        stack = self._stack
        stack.pop()
        elapsed = end - start
        self.spans[index] = (name, start, end, parent, self._iteration)
        if stack:
            stack[-1][1] += elapsed
        self._acc[name] += elapsed - children
        self._calls[name] += 1

    def _timed(self, name: str, fn):
        enter, leave = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                return self._resumptions(name, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                frame = enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)
        return functools.wraps(fn)(wrapper)

    def _resumptions(self, name: str, gen):
        """Generator proxy: every resumption of `gen` is one span."""
        sent = None
        try:
            while True:
                frame = self._enter(name)
                try:
                    item = gen.send(sent)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._exit(frame)
                sent = yield item
        finally:
            gen.close()

    # -- installation ---------------------------------------------------- #

    def _resolve(self, target: str):
        """(owner, attribute, original) of a "module:a.b" target, or None."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            return owner, attr, getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return None

    def _replace(self, owner, attr: str, original, replacement) -> None:
        if inspect.isclass(owner):
            inherited = attr not in vars(owner)
            setattr(owner, attr, replacement)
            self._undo.append(
                (delattr, owner, attr) if inherited
                else (setattr, owner, attr, original)
            )
            return
        # A function: every `from x import f` alias inside repro holds its
        # own reference, so each one is replaced.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, replacement)
                    self._undo.append((setattr, module, alias, original))

    def install(self) -> None:
        for name, targets in SPANS.items():
            for target in targets:
                self._install(target, lambda fn, name=name: self._timed(name, fn))
        self._install(ENGINE_RUN, self._engine_run)
        self._install(KERNEL_REGISTER, self._kernel_register)
        self._install(INTERSECT, self._intersect)

    def _install(self, target: str, make_replacement) -> None:
        found = self._resolve(target)
        if found:
            owner, attr, original = found
            self._replace(owner, attr, original, make_replacement(original))

    def _kernel_register(self, original):
        def register(registry, name, fn):
            return original(registry, name, self._timed(KERNELS, fn))

        return register

    def _intersect(self, original):
        calls = self._calls

        def intersect(section, other):
            calls[INTERSECT] += 1
            return original(section, other)

        return intersect

    def _engine_run(self, original):
        acc = self._acc

        def run(engine, program):
            def traced_program(ctx):
                return self._resumptions(VM, program(ctx))

            frame = self._enter(SCHEDULER)
            try:
                stats = original(engine, traced_program)
            finally:
                self._exit(frame)
                _, start, end, _, _ = self.spans[frame[0]]
                acc["machine.run_s"] += end - start
            for metric, field in ENGINE_COUNTS.items():
                acc[metric] += getattr(stats, field, 0)
            return stats

        return run

    def uninstall(self) -> None:
        for op, *args in reversed(self._undo):
            op(*args)
        self._undo.clear()

    # -- per-iteration results ------------------------------------------- #

    @contextmanager
    def iteration(self):
        """One traced iteration: its root span's self time is whatever no
        layer span covered (`other`)."""
        self._iteration += 1
        self._acc.clear()
        self._calls.clear()
        frame = self._enter(ITERATION)
        try:
            yield
        finally:
            self._exit(frame)
            acc, calls = dict(self._acc), self._calls
            acc["runtime.symtab.calls"] = sum(
                n for name, n in calls.items() if name.startswith("runtime.symtab."))
            acc["distributions.plan_calls"] = calls["distributions.plan_s"]
            acc["core.kernels.calls"] = calls[KERNELS]
            acc["core.sections.intersect_calls"] = calls[INTERSECT]
            _, start, end, _, _ = self.spans[frame[0]]
            acc["bench.traced_e2e_s"] = end - start
            self.iterations.append(acc)

    def metric_names(self) -> list[str]:
        """Every metric the installed wrappers can produce."""
        resolved = [n for n, ts in SPANS.items()
                    if any(t not in self.missing for t in ts)]
        names = resolved + ["runtime.symtab.calls", "distributions.plan_calls"]
        if ENGINE_RUN not in self.missing:
            names += [SCHEDULER, VM, "machine.run_s", *ENGINE_COUNTS]
        if KERNEL_REGISTER not in self.missing:
            names += [KERNELS, "core.kernels.calls"]
        if INTERSECT not in self.missing:
            names.append("core.sections.intersect_calls")
        return names

    def write_chrome_trace(self, path: Path, workload: str) -> None:
        """The harness's own Chrome-trace writer: complete ("X") events in
        microseconds from the first span, parent and iteration in `args`."""
        spans = self.spans
        origin = min((s[1] for s in spans), default=0.0)
        events = [{"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
                   "args": {"name": f"benchmarks/e2e {workload}"}}]
        for index, (name, start, end, parent, iteration) in enumerate(spans):
            events.append({
                "ph": "X", "name": name, "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": index, "parent": parent, "iteration": iteration},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
