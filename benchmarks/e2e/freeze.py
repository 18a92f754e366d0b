"""One-shot generator of the frozen IL inputs (kept for provenance).

The benchmark never calls the app generators at run time: parent and
change must compile the same bytes even when `fft3d_source`,
`jacobi_source`, `matmul_source` or `generate_phased_program` change
later.  This script was run once, at the commit that added the benchmark;
re-running it on a later tree is how one would *deliberately* re-freeze
(and then every recorded number has to be measured again).

    PYTHONPATH=src python benchmarks/e2e/freeze.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PROGRAMS = Path(__file__).resolve().parent / "programs"


def delete_line(text: str, line: str) -> str:
    """The mutant edit: drop exactly one statement line (a receive)."""
    lines = text.splitlines()
    hits = [i for i, l in enumerate(lines) if l.strip() == line]
    if len(hits) != 1:
        raise SystemExit(f"mutant edit needs exactly one {line!r}, found {len(hits)}")
    del lines[hits[0]]
    return "\n".join(lines) + "\n"


def generate() -> dict[str, str]:
    from repro import parse_program, print_program
    from repro.apps.fft3d import fft3d_source
    from repro.apps.jacobi import jacobi_source
    from repro.apps.matmul import VARIANTS, matmul_source
    from repro.tune import LayoutCandidate, detect_phases, generate_phased_program

    out: dict[str, str] = {}

    # fft3d-own: the paper's section-4 listings at n = P = 16.
    out["fft3d_own_s0.xdp"] = fft3d_source(16, 16, 0)
    out["fft3d_own_s2.xdp"] = fft3d_source(16, 16, 2)
    # Mutant: the receive loop stops one slab short, so every processor's
    # send of slab 16 is unmatched and P16's awaits can never be satisfied.
    out["fft3d_own_mutant.xdp"] = out["fft3d_own_s2.xdp"].replace(
        "do m = 1, 16\n  A[*,mypid,m] <=-", "do m = 1, 15\n  A[*,mypid,m] <=-"
    )
    assert out["fft3d_own_mutant.xdp"] != out["fft3d_own_s2.xdp"]

    # fft3d-cyclic: same FFT, n=16, P=4, cyclic phases, bulk redistribution.
    base = parse_program(fft3d_source(16, 4, 0))
    layouts = [
        LayoutCandidate("(*, *, CYCLIC)"),
        LayoutCandidate("(*, *, CYCLIC)"),
        LayoutCandidate("(*, CYCLIC, *)"),
    ]
    cyclic = generate_phased_program(
        base, detect_phases(base), layouts, 4, realization="bulk"
    )
    out["fft3d_cyclic.xdp"] = cyclic
    first_recv = next(
        l.strip() for l in cyclic.splitlines() if l.strip().endswith("<=-")
    )
    out["fft3d_cyclic_mutant.xdp"] = delete_line(cyclic, first_recv)

    # jacobi-halo: halo-overlap, n=1024, P=16, 8 sweeps.
    jacobi = print_program(jacobi_source(1024, 16, 8, "halo-overlap"))
    out["jacobi_halo.xdp"] = jacobi
    # Mutant: one sweep is enough for the verifier to meet the missing
    # receive (P2 awaits a halo nobody asked for), so the rejection costs a
    # tenth of the clean program's verification.
    one_sweep = jacobi.replace("do t = 1, 8", "do t = 1, 1")
    assert one_sweep != jacobi
    halo_recv = next(
        l.strip() for l in jacobi.splitlines() if l.strip().startswith("HL[2] <-")
    )
    out["jacobi_halo_mutant.xdp"] = delete_line(one_sweep, halo_recv)

    # matmul-coll: four variants at n=64, P=16; the mutant is cannon
    # without its ring receive.
    for v in VARIANTS:
        out[f"matmul_{v}.xdp"] = matmul_source(64, 16, v)
    cannon = out["matmul_cannon.xdp"]
    recv = next(l.strip() for l in cannon.splitlines() if " <- V[r" in l)
    out["matmul_mutant.xdp"] = delete_line(cannon, recv)

    # tune-fft3d: the naive listing the tuner starts from, n=8, P=4.
    out["tune_fft3d_s0.xdp"] = fft3d_source(8, 4, 0)
    return out


def main() -> None:
    PROGRAMS.mkdir(exist_ok=True)
    manifest = {}
    for name, text in sorted(generate().items()):
        (PROGRAMS / name).write_text(text)
        manifest[name] = hashlib.sha256(text.encode()).hexdigest()
    (PROGRAMS / "MANIFEST.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    )
    print(f"froze {len(manifest)} programs under {PROGRAMS}")


if __name__ == "__main__":
    main()
