#!/usr/bin/env python3
"""The paper's 3-D FFT (section 4) through its three optimization stages.

For each stage the IL+XDP program is printed (at n == P stage 0 is the
paper's listing and stages 1 and 2 are the optimizer's -O1 and -O2 output
on it, which are the paper's other two listings), executed on the simulated machine, checked
against numpy's FFT, and its makespan / message count / idle-time profile
reported — including the pipelining effect of stage 2 on per-processor
finish times.

Run:  python examples/fft3d.py
"""

import numpy as np

from repro.apps.fft3d import fft3d_source, run_fft3d
from repro.machine import MachineModel

STAGE_NAMES = {
    0: "stage 0: naive (guarded loops, separate redistribution)",
    1: "stage 1: compute rules eliminated (localized loops)",
    2: "stage 2: fused sends + sunk awaits (pipelined)",
}


def show_paper_listings():
    print("=" * 72)
    print("The paper's listings (n = P = 4; stages 1-2 derived by -O1/-O2):")
    for stage in (0, 1, 2):
        print("-" * 72)
        print(STAGE_NAMES[stage])
        print(fft3d_source(4, 4, stage))


def stage_table(n, nprocs, model, label):
    print("=" * 72)
    print(f"n={n}, P={nprocs}, machine={label}")
    print(f"{'stage':<8}{'correct':<9}{'makespan':>12}{'msgs':>7}"
          f"{'mean finish':>13}{'total idle':>12}")
    for stage in (0, 1, 2):
        r = run_fft3d(n, nprocs, stage, model=model)
        mean_finish = np.mean([p.finish_time for p in r.stats.procs])
        print(
            f"{stage:<8}{str(r.correct):<9}{r.makespan:>12.1f}"
            f"{r.messages:>7}{mean_finish:>13.1f}"
            f"{r.stats.total_idle_time:>12.1f}"
        )


def show_utilization():
    from repro.report import utilization_bars

    m = MachineModel(alpha=2000, per_byte=5.0, o_send=50, o_recv=50)
    print("=" * 72)
    print("Per-processor utilization, 16^3 on 4 processors (comm-heavy):")
    for stage in (1, 2):
        r = run_fft3d(16, 4, stage, model=m)
        print(f"\nstage {stage}  ('#' compute, 'o' comm overhead, '.' idle)")
        print(utilization_bars(r.stats))


def main():
    show_paper_listings()
    show_utilization()
    stage_table(4, 4, MachineModel(), "default message-passing")
    stage_table(8, 4, MachineModel(), "default message-passing")
    stage_table(
        16, 4,
        MachineModel(alpha=2000, per_byte=5.0, o_send=50, o_recv=50),
        "communication-heavy",
    )
    print()
    print("Reading the table: stage 1 removes the per-iteration compute-rule")
    print("lookups (paper: 'a much more efficient SPMD program'); stage 2's")
    print("pipelined sends lower the mean finish time and early receivers'")
    print("idle — the makespan stays bound by the transpose's tail message,")
    print("matching the paper's caveat that gains 'depend largely on the")
    print("capabilities of the run-time communication library'.")


if __name__ == "__main__":
    main()
