"""P3 — the staged tuning pipeline vs the paper's hand stages.

Runs ``repro.tune`` on the *naive* section-4 FFT and records, per
configuration, the BENCH_tune schema-2 row: space size, candidates
scored, shortlist size, prefilter precision (static-rank vs engine-rank
Spearman correlation), shard count, engine evaluations, store-backed
cache accounting, and the tuned makespan next to the naive baseline and
both hand-optimized stages.  Each configuration then *replays* against
the same artifact store in a fresh cache — the replay's hit accounting
comes from the shared store, not the in-memory memo, so a warm replay
must show every evaluation served hot and zero engine runs (the
cache-accounting fix this schema version exists for).

Acceptance bars (the ISSUE's): the tuned placement must match or beat
hand stage 2 everywhere; at n=16, P=16 the tuner must rediscover the
paper's ``(*, BLOCK, *)`` stage-2 switch and beat the naive program;
and the warm replay must be 100% store-served.

Results are recorded to ``BENCH_tune.json`` at the repo root.
"""

import time
from pathlib import Path

from conftest import emit

from repro.report.record import write_json_atomic

from repro.apps.fft3d import fft3d_source, run_fft3d
from repro.core.codegen import lower
from repro.core.ir.parser import parse_program
from repro.tune import TUNE_SCHEMA, EvalCache, tune

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_tune.json"

#: (n, nprocs) configurations (generalized section-4 forms).  The last
#: one is the acceptance configuration: the paper's own scale.
CONFIGS = [(8, 4), (16, 16)]


#: Hand stages 1 and 2 beyond n == P, frozen before those stages became
#: the tuner's own realizations (see tests/fft_goldens.py).
HAND = Path(__file__).resolve().parent.parent / "tests" / "data"


def _hand_makespan(n: int, nprocs: int, stage: int) -> float:
    if n == nprocs:
        return run_fft3d(n, nprocs, stage).makespan
    text = (HAND / f"fft3d_s{stage}_n{n}_p{nprocs}.xdp").read_text()
    return lower(parse_program(text), nprocs).run().makespan


def _run_config(n: int, nprocs: int, store_root: str) -> dict:
    hand = {s: _hand_makespan(n, nprocs, s) for s in (1, 2)}
    src = fft3d_source(n, nprocs, 0)

    t0 = time.perf_counter()
    res = tune(src, nprocs, store=store_root)
    wall = time.perf_counter() - t0

    # Warm replay: fresh in-memory cache, same store.  Every engine
    # evaluation must now be served by the shared store.
    replay_cache = EvalCache()
    again = tune(src, nprocs, store=store_root, cache=replay_cache)
    assert again.canonical_doc() == res.canonical_doc(), (n, nprocs)

    doc = res.canonical_doc()
    doc.update({
        "n": n,
        "nprocs": nprocs,
        "wall_s": round(wall, 3),
        "hand_stage1_makespan": hand[1],
        "hand_stage2_makespan": hand[2],
        "cache_hits": res.cache.hits,
        "cache_misses": res.cache.misses,
        "cache_hit_rate": round(res.cache.hit_rate, 3),
        "store_hits": res.cache.store_hits,
        "store_misses": res.cache.store_misses,
        "engine_runs": res.cache.engine_runs,
        "replay_store_hits": replay_cache.store_hits,
        "replay_store_misses": replay_cache.store_misses,
        "replay_store_hit_rate": round(replay_cache.store_hit_rate, 3),
        "replay_engine_runs": replay_cache.engine_runs,
    })
    return doc


def test_p3_tuner_vs_hand_stages(benchmark, tmp_path):
    cases = [
        _run_config(n, p, str(tmp_path / f"store-{n}-{p}"))
        for n, p in CONFIGS
    ]

    emit(
        "P3 — staged tuning pipeline vs hand stages (naive section-4 FFT)",
        ["n", "P", "wall_s", "space", "short", "evals", "rank_corr",
         "replay_hot", "naive", "hand2", "tuned", "speedup"],
        [
            [c["n"], c["nprocs"], c["wall_s"], c["space_size"],
             c["shortlist_size"], c["evaluated"],
             ("-" if c["rank_correlation"] is None
              else f"{c['rank_correlation']:+.2f}"),
             f"{c['replay_store_hit_rate']:.0%}",
             f"{c['baseline_makespan']:.0f}",
             f"{c['hand_stage2_makespan']:.0f}", f"{c['makespan']:.0f}",
             f"{c['speedup']:.2f}x"]
            for c in cases
        ],
    )

    for c in cases:
        label = f"n={c['n']} P={c['nprocs']}"
        assert c["schema"] == TUNE_SCHEMA, label
        assert c["semantics_preserved"], label
        # the ISSUE's bar: no worse than the paper's final hand stage
        assert c["makespan"] <= c["hand_stage2_makespan"], (label, c)
        assert c["makespan"] <= c["baseline_makespan"], (label, c)
        # the memoized oracle must actually be hit (winner confirmation)
        assert c["cache_hits"] > 0, (label, c)
        # a warm replay is served entirely by the shared store: every
        # lookup hot, nothing recomputed (the schema-1 counter read the
        # in-memory memo and reported ~0.167 here regardless of warmth).
        assert c["replay_store_hit_rate"] == 1.0, (label, c)
        assert c["replay_engine_runs"] == 0, (label, c)

    # The acceptance configuration: the paper's own scale must rediscover
    # the (*,*,BLOCK) -> (*,BLOCK,*) stage-2 switch and beat naive.
    accept = next(c for c in cases if (c["n"], c["nprocs"]) == (16, 16))
    assert accept["layouts"][0].startswith("(*, *, BLOCK)"), accept
    assert any(l.startswith("(*, BLOCK, *)") for l in accept["layouts"]), accept
    assert accept["makespan"] < accept["baseline_makespan"], accept

    write_json_atomic(BENCH_FILE, {"schema": TUNE_SCHEMA, "cases": cases})
    benchmark.extra_info["bench_file"] = str(BENCH_FILE)
    benchmark.pedantic(
        lambda: tune(fft3d_source(8, 4, 0), 4, top_k=2),
        rounds=1, iterations=1,
    )
