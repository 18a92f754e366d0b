"""A pencil loop runs as one kernel call over its footprint, exactly.

``do i: call fft1D(A[i,*,k])`` lowers to the per-pencil loop preceded by
one instruction that, when the loop's footprint is accessible, gathers it
once, calls the kernel once with ``axis=`` and scatters once
(docs/ENGINE.md, "Pencil loops: one footprint, one call").  Every program
here runs twice: with the default registry, and with one whose ``fft1D``
is a plain wrapper without the batching attribute, which therefore runs
pencil by pencil.  Virtual time, flops, traffic and the result bytes must
agree; only the host-side kernel calls and scheduler steps may fall.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.codegen.lower import _PencilI, lower
from repro.core.errors import XDPError
from repro.core.ir.parser import parse_program
from repro.core.kernels import KernelRegistry, default_registry

N = 8
P = 2
HEADER = f"array A[1:{N},1:{N},1:{N}] dist (*, *, {{layout}}) seg ({N},1,1) dtype complex128\n"

#: The owned planes along the distributed axis 3, as loop bounds.
OWNED = {
    "BLOCK": "max(1, mylb(A[*,*,*], 3)), min({n}, myub(A[*,*,*], 3))".format(n=N),
    "CYCLIC": f"mypid, {N}, nprocs",
}


def _registries():
    """(batching, per-pencil) registries, each counting fft1D calls."""
    calls = {"batched": 0, "plain": 0}
    fft = default_registry().get("fft1D").fn

    @functools.wraps(fft)  # copies the batching attribute, as a tracer would
    def batched(*args, **kwargs):
        calls["batched"] += 1
        return fft(*args, **kwargs)

    def plain(arr):
        calls["plain"] += 1
        return fft(arr)

    regs = []
    for fn in (batched, plain):
        reg = KernelRegistry()
        reg.register("fft1D", fn)
        reg.register("work", default_registry().get("work").fn)
        regs.append(reg)
    return regs, calls


def _seed():
    rng = np.random.default_rng(7)
    return rng.standard_normal((N, N, N)) + 1j * rng.standard_normal((N, N, N))


def _run(src: str, kernels: KernelRegistry, **kw):
    compiled = lower(parse_program(src), P, kernels=kernels, **kw)
    compiled.write_global("A", _seed())
    stats = compiled.run()
    return compiled, stats, compiled.read_global("A")


def _fingerprint(stats):
    return (
        stats.makespan, stats.total_messages, stats.total_bytes,
        [(p.finish_time, p.flops, p.compute_time) for p in stats.procs],
    )


def _differential(src: str, **kw):
    """Run ``src`` both ways; assert equal stats and bit-identical arrays;
    return (kernel calls batched, per pencil, effects batched, per pencil,
    the batched run's lowered code)."""
    (batched, plain), calls = _registries()
    c1, s1, a1 = _run(src, batched, **kw)
    _, s2, a2 = _run(src, plain, **kw)
    assert _fingerprint(s1) == _fingerprint(s2)
    assert a1.tobytes() == a2.tobytes()
    return (calls["batched"], calls["plain"], s1.effects_processed,
            s2.effects_processed, c1.code)


def _axis_program(layout: str, axis: int) -> str:
    """A pencil loop over axis ``axis`` (the loop variable's dimension)."""
    owned = OWNED[layout]
    if axis == 1:
        body = (f"do k = {owned}\n  do i = 1, {N}\n"
                "    call fft1D(A[i,*,k])\n  enddo\nenddo\n")
    elif axis == 2:
        body = (f"do k = {owned}\n  do j = 1, {N}\n"
                "    call fft1D(A[*,j,k])\n  enddo\nenddo\n")
    else:
        body = (f"do i = 1, {N}\n  do k = {owned}\n"
                "    call fft1D(A[i,*,k])\n  enddo\nenddo\n")
    return HEADER.format(layout=layout) + body


class TestBatchedEqualsPerPencil:
    @pytest.mark.parametrize("layout", ["BLOCK", "CYCLIC"])
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_layouts_and_axes(self, layout, axis):
        batched, plain, eff_b, eff_p, _ = _differential(_axis_program(layout, axis))
        assert plain == N * N  # every pencil of the array, once
        # One call per pencil loop: N / P planes each (axes 1, 2), or one
        # per i on each processor (axis 3).
        assert batched == (N if axis < 3 else N * P)
        assert eff_b < eff_p

    def test_result_is_the_transform(self):
        src = _axis_program("BLOCK", 1)
        _, _, got = _run(src, default_registry())
        np.testing.assert_allclose(got, np.fft.fft(_seed(), axis=1))

    @pytest.mark.parametrize("bounds,trip", [
        ("1, 8, 2", 4), ("8, 1, -1", 8), ("7, 1, -3", 3), ("2, 8, 3", 3),
        ("5, 4", 0), ("3, 3", 1), ("1, 8, -1", 0),
    ])
    def test_steps_and_trip_counts(self, bounds, trip):
        src = HEADER.format(layout="BLOCK") + (
            "do k = max(1, mylb(A[*,*,*], 3)), min(8, myub(A[*,*,*], 3))\n"
            f"  do i = {bounds}\n    call fft1D(A[i,*,k])\n  enddo\n"
            "  A[1,1,k] = i\n"  # the loop variable after the loop
            "enddo\n"
        )
        batched, plain, _, _, _ = _differential(src)
        planes = N  # every plane is owned by one of the processors
        assert plain == trip * planes
        assert batched == (planes if trip >= 2 else plain)

    def test_mylb_myub_bounds_on_the_pencil_loop(self):
        src = HEADER.format(layout="BLOCK") + (
            "do i = 1, 8\n"
            "  do k = mylb(A[*,*,*], 3), myub(A[*,*,*], 3)\n"
            "    call fft1D(A[i,*,k])\n  enddo\nenddo\n"
        )
        batched, plain, _, _, _ = _differential(src)
        assert (batched, plain) == (N * P, N * N)


#: P1 has a value receive in flight into A[3,*,1] while it runs the pencil
#: loop over plane 1; P2 sends late, after some work.
IN_FLIGHT = f"""array A[1:{N},1:{N},1:2] dist (*, *, BLOCK) seg ({N},1,1) dtype complex128
mypid == 1 : {{
  A[3,*,1] <- A[3,*,2]
  do i = 1, {N}
    call fft1D(A[i,*,1])
  enddo
  await(A[3,*,1]) : {{ A[1,1,1] = 0 }}
}}
mypid == 2 : {{
  call work(5000)
  A[3,*,2] -> {{1}}
}}
"""


class TestFallsBack:
    def _seed2(self, compiled):
        rng = np.random.default_rng(3)
        compiled.write_global("A", rng.standard_normal((N, N, 2)) + 0j)

    def _both(self, src, **kw):
        (batched, plain), calls = _registries()
        out = []
        for reg in (batched, plain):
            compiled = lower(parse_program(src), P, kernels=reg, **kw)
            self._seed2(compiled)
            try:
                stats = compiled.run()
            except XDPError as exc:
                out.append(str(exc))
                continue
            out.append((_fingerprint(stats), compiled.read_global("A").tobytes()))
        return out, calls

    def test_receive_in_flight_runs_per_pencil(self):
        (first, second), calls = self._both(IN_FLIGHT)
        assert first == second
        assert calls == {"batched": N, "plain": N}

    def test_strict_transitional_read_is_the_same_error(self):
        (first, second), calls = self._both(IN_FLIGHT, strict=True)
        assert isinstance(first, str) and first == second
        assert "read of transitional section" in first
        assert calls["batched"] == calls["plain"]

    def test_table_reading_subscript_is_not_batched(self):
        src = HEADER.format(layout="BLOCK") + (
            f"do i = 1, {N}\n  call fft1D(A[i,*,mylb(A[*,*,*], 3)])\nenddo\n"
        )
        batched, plain, _, _, code = _differential(src)
        assert batched == plain == N * P
        assert not any(isinstance(ins, _PencilI) for ins in code)

    @pytest.mark.parametrize("call", [
        "call fft1D(A[i,*,i])",        # the variable in two subscripts
        "call fft1D(A[i+0,*,1])",      # not a whole Index subscript
        "call fft1D(A[*,*,1])",        # the variable in no subscript
    ])
    def test_other_shapes_are_not_batched(self, call):
        src = HEADER.format(layout="BLOCK") + (
            f"do i = 1, 2\n  mypid == 1 : {{ {call} }}\nenddo\n"
            f"do i = 1, 2\n  {call}\nenddo\n"
        )
        compiled = lower(parse_program(src), P)
        assert not any(isinstance(ins, _PencilI) for ins in compiled.code)


class TestTracedRunsBatchToo:
    def test_wrapped_kernel_and_engine_trace_keep_the_effect_count(self):
        src = _axis_program("CYCLIC", 1)
        (batched, _), _ = _registries()
        effects = {
            label: _run(src, reg, **kw)[1].effects_processed
            for label, reg, kw in (
                ("default", default_registry(), {}),
                ("wrapped", batched, {}),
                ("traced", default_registry(), {"trace": True}),
            )
        }
        assert len(set(effects.values())) == 1, effects


class TestFft1dContract:
    def test_two_non_unit_extents_is_an_error(self):
        # It used to run one flattened 16-point transform and charge it.
        src = ("array A[1:2,1:8] dist (*, BLOCK) seg (2,4) dtype complex128\n"
               "call fft1D(A[1:2,*])\n")
        compiled = lower(parse_program(src), 1)
        with pytest.raises(XDPError, match=r"fft1D: section of shape \(2, 8\)"):
            compiled.run()

    def test_axis_charges_the_per_line_flops(self):
        fft = default_registry().get("fft1D").fn
        batched, per_line = _seed(), _seed()
        flops = fft(batched, axis=2)
        assert flops == sum(fft(per_line[i, j].reshape(1, 1, N))
                            for i in range(N) for j in range(N))
        assert batched.tobytes() == per_line.tobytes()
