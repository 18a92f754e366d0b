"""Applications built on the public API: the paper's 3-D FFT (section 4),
a Jacobi relaxation, section 2.7's dynamic load balancing, and section
2.6's ownership-based selective monitoring."""

from .fft3d import (
    FFTResult,
    fft3d_source,
    run_fft3d,
)
from .jacobi import JacobiResult, jacobi_source, run_jacobi
from .monitor import MonitorResult, run_monitor
from .workqueue import WorkQueueResult, make_job_costs, run_workqueue

__all__ = [
    "fft3d_source",
    "run_fft3d",
    "FFTResult",
    "jacobi_source",
    "run_jacobi",
    "JacobiResult",
    "run_workqueue",
    "make_job_costs",
    "WorkQueueResult",
    "run_monitor",
    "MonitorResult",
]
