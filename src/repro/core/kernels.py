"""Computation kernels callable from IL+XDP programs.

The paper's 3-D FFT example calls an opaque library routine ``fft1D()``;
the host IL models such routines as *kernels*: named Python functions that
mutate gathered section values in place and report a flop count, which the
engine converts to virtual compute time.  Kernels keep local computation
strictly separate from data transfer — they never communicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import XDPError

__all__ = ["Kernel", "KernelRegistry", "default_registry"]


@dataclass(frozen=True)
class Kernel:
    """A named local-computation routine.

    ``fn`` receives the gathered section values (dense ndarrays, mutated in
    place) followed by any scalar arguments, and returns the number of
    flops performed — the engine charges ``flops * flop_time``.
    """

    name: str
    fn: Callable[..., int]


class KernelRegistry:
    """Name → kernel mapping used by the VM for ``call`` statements."""

    def __init__(self) -> None:
        self._kernels: dict[str, Kernel] = {}

    def register(self, name: str, fn: Callable[..., int]) -> Kernel:
        k = Kernel(name, fn)
        self._kernels[name] = k
        return k

    def get(self, name: str) -> Kernel:
        try:
            return self._kernels[name]
        except KeyError:
            raise KeyError(
                f"unknown kernel {name!r}; registered: {sorted(self._kernels)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._kernels


def _fft1d(arr: np.ndarray, *, axis: int | None = None) -> int:
    """In-place 1-D FFT of a section with exactly one non-unit extent.

    The section shape may be e.g. ``(1, 4, 1)`` for ``A[i, *, k]``; the FFT
    runs along the non-unit axis.  Flops follow the standard radix-2
    estimate ``5 n log2 n``.  Two or more non-unit extents are an error.

    ``axis`` (keyword-only, so no IL ``call`` passes it) transforms every
    line along that axis — a pencil loop run as one call — and returns the
    flops of the per-line calls; numpy transforms each line as it would a
    lone one, so the values are bit-identical.
    """
    if axis is None:
        if sum(extent > 1 for extent in arr.shape) > 1:
            raise XDPError(f"fft1D: section of shape {arr.shape} has more "
                           "than one non-unit extent")
        axis = arr.shape.index(max(arr.shape))
    n = arr.shape[axis]
    arr[...] = np.fft.fft(arr, axis=axis)
    return arr.size // n * (max(1, int(5 * n * math.log2(n))) if n > 1 else 1)


#: The VM may run a loop of this kernel's per-line calls as one ``axis=``
#: call (docs/ENGINE.md "Pencil loops").
_fft1d.batches_along_axis = True


def _work(units: float = 1.0) -> int:
    """Pure virtual work: burns ``units`` flops without touching data."""
    return int(units)


def _negate(arr: np.ndarray) -> int:
    arr *= -1
    return arr.size


def _scale(arr: np.ndarray, factor: float) -> int:
    arr *= factor
    return arr.size


def _gemm_acc(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> int:
    """``c += a @ b`` on sections viewed as dense matrices.

    Sections arrive with collapsed unit dimensions (e.g. ``(1, m, k)``), so
    factor shapes are recovered from sizes alone: for ``c(m, n) += a(m, k)
    @ b(k, n)`` the products satisfy ``a.size * c.size / b.size = m**2``.
    """
    m = max(1, math.isqrt(max(1, (a.size * c.size) // b.size)))
    k = max(1, a.size // m)
    n = max(1, c.size // m)
    if m * k != a.size or k * n != b.size or m * n != c.size:
        raise ValueError(
            f"gemm_acc: incompatible section sizes a={a.size} b={b.size} "
            f"c={c.size} (no m,n,k factorization)"
        )
    cm = c.reshape(m, n)
    cm += a.reshape(m, k) @ b.reshape(k, n)
    return 2 * m * n * k


def _smooth(arr: np.ndarray) -> int:
    """Three-point smoothing along the last axis (a stencil-ish kernel)."""
    flat = arr.reshape(-1, arr.shape[-1])
    if flat.shape[-1] >= 3:
        inner = (flat[:, :-2] + flat[:, 1:-1] + flat[:, 2:]) / 3.0
        flat[:, 1:-1] = inner
    return 3 * arr.size


def default_registry() -> KernelRegistry:
    """Kernels available to every program unless overridden."""
    reg = KernelRegistry()
    reg.register("fft1D", _fft1d)
    reg.register("gemm_acc", _gemm_acc)
    reg.register("work", _work)
    reg.register("negate", _negate)
    reg.register("scale", _scale)
    reg.register("smooth", _smooth)
    return reg
