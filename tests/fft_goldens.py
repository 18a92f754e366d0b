"""The section-4 FFT's hand stages as the bar the tuner is measured by.

At ``n == P`` the hand stages are the paper's listings; ``fft3d_source``
now derives them with the optimizer, so ``tests/data`` keeps the listings
as written (at n = P = 4 and 16) to hold that output to.  Beyond that,
stages 1 and 2 are the tuner's own ``bulk`` and ``pipelined`` programs, so
comparing the tuner with them would compare it with itself.
``tests/data`` keeps the hand-written generalizations (transfers split per
plane, one ``mypid == k`` guard each) at (8, 4) and (16, 4) as they were
last generated; those are the hand stages here.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.codegen import lower
from repro.core.ir.parser import parse_program

DATA = Path(__file__).resolve().parent / "data"


def hand_source(n: int, nprocs: int, stage: int) -> str:
    """IL text of hand stage 1 or 2."""
    return (DATA / f"fft3d_s{stage}_n{n}_p{nprocs}.xdp").read_text()


def code_lines(text: str) -> list[str]:
    """A listing's statements: no comment lines, no blank lines."""
    return [line for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("//")]


def hand_run(n: int, nprocs: int, stage: int, **kw):
    """RunStats of hand stage 1 or 2 (the makespan does not depend on the
    array's values, so the input is left at zero)."""
    return lower(parse_program(hand_source(n, nprocs, stage)), nprocs, **kw).run()
