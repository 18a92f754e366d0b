"""The staged tuning pipeline's own invariants (beyond test_tune's
end-to-end contract):

* :class:`SpaceSpec` counts what its layers hold, and pruning an
  unbuildable layout never swallows a genuine bug;
* the lazy best-first ranking is the old cross-product sweep's ranking
  (``tests/tune_oracles.py``), entry for entry, and ``tune()`` on top of
  either returns the same canonical document;
* the ranking's work does not grow with the product of the layers;
* the artifact store is the cross-process memo: a fresh process replays
  a tune from it with no engine run and a byte-identical canonical
  document;
* the prefilter's shortlist holds no two copies of one program.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
import repro.tune.space as space_mod
from repro.apps.fft3d import fft3d_source
from repro.core.analysis.layouts import build_segmentation
from repro.core.analysis.verify_comm import verify_communication
from repro.core.ir.parser import parse_program
from repro.core.ir.printer import print_program
from repro.distributions import ProcessorGrid, plan_redistribution
from repro.machine.model import MachineModel
from repro.tune import (
    EvalCache, KnobSpec, PhaseSpec, SpaceSpec, enumerate_layouts,
    TuneError, phase_compute_cost, prefilter, redistribution_cost, tune,
)
from repro.tune.cost import KERNEL_FLOPS
from repro.tune.prefilter import LayeredRanking
from repro.tune.rewrite import detect_phases
from repro.tune.space import PHASE_SEGS, PHASE_SPECS

from .tune_oracles import ranking_oracle

# ``repro.tune.prefilter`` the attribute is the function, not the module.
prefilter_mod = sys.modules["repro.tune.prefilter"]
search_mod = sys.modules["repro.tune.search"]

N, P = 8, 4


def _fft_case(n=N, nprocs=P, repeat=1):
    """(program, phases, space, ranking keywords) of the naive FFT, its
    phase list repeated ``repeat`` times."""
    program = parse_program(fft3d_source(n, nprocs, 0))
    phases = detect_phases(program) * repeat
    decl = program.array_decls()[0]
    space = SpaceSpec(decl, nprocs, tuple(p.axis for p in phases))
    kw = dict(
        initial=build_segmentation(decl, ProcessorGrid((nprocs,))).distribution,
        model=MachineModel(), backend="msg",
    )
    return program, phases, space, kw


class TestSpaceSpec:
    def test_space_spec_counts_match_generators(self):
        _, _, space, _ = _fft_case()
        assert space.layer_sizes == (18, 18, 18)
        assert space.path_count() == 18 ** 3
        assert space.size() == space.path_count() * len(space.knob_points())
        for i, size in enumerate(space.layer_sizes):
            assert size == len(space.layer(i))
            assert list(space.layer(i)) == sorted(space.layer(i))

    def test_a_bug_while_building_a_layout_is_not_pruned(self, monkeypatch):
        # Only the typed "this layout cannot be built" errors prune a
        # candidate; anything else used to shrink the space silently.
        decl = parse_program(fft3d_source(N, P, 0)).array_decls()[0]

        def broken(*args, **kwargs):
            raise TypeError("a bug, not an unbuildable corner")

        monkeypatch.setattr(space_mod, "build_segmentation", broken)
        with pytest.raises(TypeError, match="a bug"):
            enumerate_layouts(decl, P)


# ---------------------------------------------------------------------- #
# the lazy ranking against the cross-product sweep it replaced
# ---------------------------------------------------------------------- #

SHIPPED_MODELS = (
    MachineModel(), MachineModel.message_passing(),
    MachineModel.shared_address(), MachineModel.high_latency(),
)


def _ordered_subset(values):
    return st.lists(st.sampled_from(values), min_size=1, unique=True).map(tuple)


def _quarters(lo, hi):
    return st.integers(lo, hi).map(lambda k: k * 0.25)


@st.composite
def ranking_cases(draw, models):
    extents = [draw(st.sampled_from([4, 8])) for _ in range(3)]
    nprocs = draw(st.sampled_from([2, 4]))
    initial = draw(st.sampled_from(
        ["(*, *, BLOCK)", "(BLOCK, *, *)", "(*, CYCLIC, *)"]))
    dims = ",".join(f"1:{e}" for e in extents)
    program = parse_program(
        f"array A[{dims}] dist {initial} dtype complex128\n")
    decl = program.array_decls()[0]
    phases = [
        PhaseSpec("A", draw(st.sampled_from(sorted(KERNEL_FLOPS))),
                  draw(st.integers(0, 2)))
        for _ in range(draw(st.integers(2, 4)))
    ]
    space = SpaceSpec(
        decl, nprocs, tuple(p.axis for p in phases),
        specs=draw(_ordered_subset(PHASE_SPECS)),
        seg_choices=draw(_ordered_subset(PHASE_SEGS)),
        knobs=KnobSpec(draw(_ordered_subset(("bulk", "pipelined")))),
    )
    # The oracle prices every point: keep it to a second or two.
    assume(0 < space.size() <= 60_000)
    kw = dict(
        initial=build_segmentation(decl, ProcessorGrid((nprocs,))).distribution,
        model=draw(models),
        backend=draw(st.sampled_from(["msg", "shmem"])),
    )
    return program, phases, space, kw


#: Constants that are multiples of 0.25 keep every score exact in binary
#: floating point, so the two rankings must agree to the last bit.
DYADIC_MODELS = st.one_of(
    st.sampled_from(SHIPPED_MODELS),
    st.builds(
        MachineModel,
        o_send=_quarters(0, 800), o_recv=_quarters(0, 800),
        alpha=_quarters(0, 8000), per_byte=_quarters(0, 16),
        flop_time=_quarters(1, 16), o_post=_quarters(0, 80),
        o_prefetch=_quarters(0, 80), line_issue=_quarters(0, 16),
        mem_latency=_quarters(0, 1600),
    ),
)


def _rows(ranking, count):
    return [(rc.label, rc.score) for rc in itertools.islice(ranking, count)]


class TestRankingMatchesSweep:
    @settings(max_examples=25, deadline=None)
    @given(ranking_cases(DYADIC_MODELS))
    def test_ranking_prefix_is_the_sweeps(self, case):
        program, phases, space, kw = case
        lazy = LayeredRanking(program, phases, space, **kw).ranking()
        assert _rows(lazy, 24) == \
            _rows(ranking_oracle(program, phases, space, **kw), 24)

    @settings(max_examples=10, deadline=None)
    @given(ranking_cases(
        st.just(MachineModel(per_byte=0.1, flop_time=0.3))))
    def test_inexact_constants_may_only_reorder_rounding_ties(self, case):
        # The search orders by prefix + cost-to-finish, the reported score
        # sums nodes then edges; with constants that round, the two
        # associations differ in the last bits, so points whose scores
        # are equal up to rounding may swap — nothing else may.
        program, phases, space, kw = case
        sweep = ranking_oracle(program, phases, space, **kw)
        scores = {rc.label: rc.score for rc in sweep}
        lazy = LayeredRanking(program, phases, space, **kw).ranking()
        for got, want in zip(itertools.islice(lazy, 8), sweep):
            assert got.knob.realization == want.knob.realization
            assert got.score == pytest.approx(want.score, rel=1e-12)
            assert got.score == scores[got.label]

    @pytest.mark.parametrize("n,nprocs,backend", [
        (8, 4, "msg"), (8, 4, "shmem"), (16, 16, "msg"),
    ])
    def test_tune_document_is_the_sweeps(self, monkeypatch, n, nprocs, backend):
        src = fft3d_source(n, nprocs, 0)
        # One memo for both sides: the engine results are keyed by program
        # text, and the document holds no memo counters.
        kw = dict(budget_s=None, cache=EvalCache(), backend=backend)
        lazy = tune(src, nprocs, **kw).canonical_doc()

        class SweepRanking:
            expanded = 0

            def __init__(self, *args, **kwargs):
                self.args, self.kwargs = args, kwargs

            def ranking(self):
                return iter(ranking_oracle(*self.args, **self.kwargs))

        monkeypatch.setattr(prefilter_mod, "LayeredRanking", SweepRanking)
        swept = tune(src, nprocs, **kw).canonical_doc()
        assert json.dumps(lazy, sort_keys=True) == \
            json.dumps(swept, sort_keys=True)
        assert lazy["candidates_considered"] == lazy["space_size"] == 11664


class TestRankingWork:
    """No-wall-clock guards that the cross product is gone."""

    def test_six_phases_rank_without_the_product(self):
        program, phases, space, kw = _fft_case(repeat=2)
        assert space.size() == 68_024_448  # 18**6 paths x 2 realizations
        pf = prefilter(program, phases, space, budget=8, **kw)
        assert pf.space_size == space.size() and pf.expanded <= 4096
        assert len(pf.shortlist) == 8 and not pf.demoted
        for rc in pf.shortlist:
            assert verify_communication(
                parse_program(rc.source), P, backend="msg").ok

        # The head of the ranking is the bulk family's optimum: a plain
        # min-plus sweep over the uncollapsed layers.
        decl = program.array_decls()[0]
        model = kw["model"]

        def edge(src, dst):
            plan = plan_redistribution(src, dst)
            return redistribution_cost(
                plan, model, itemsize=16, realization="bulk", backend="msg",
            ) if plan.moves else 0.0

        best = {kw["initial"]: 0.0}
        for li, phase in enumerate(phases):
            nxt: dict = {}
            for cand in space.layer(li):
                dist = space_mod.candidate_segmentation(decl, cand, P).distribution
                cost = min(c + edge(d, dist) for d, c in best.items()) \
                    + phase_compute_cost(decl, cand, phase.axis, P, model,
                                         kernel=phase.kernel)
                nxt[dist] = min(cost, nxt.get(dist, cost))
            best = nxt
        assert pf.shortlist[0].score == min(best.values())

    def test_ledger_configuration_plans_each_edge_once(self, monkeypatch):
        program, phases, space, kw = _fft_case()
        planned = []

        def counting(source, target):
            planned.append((source, target))
            return plan_redistribution(source, target)

        monkeypatch.setattr(prefilter_mod, "plan_redistribution", counting)
        pf = prefilter(program, phases, space, budget=8, **kw)
        assert len(pf.shortlist) == 8
        assert pf.expanded <= 128
        assert len(planned) == len(set(planned))


class TestPrefilter:
    def test_unknown_realization_is_rejected_before_ranking(self, monkeypatch):
        # It used to rank the whole 11,664-point space first (~1.2 s).
        def refuse(*args, **kwargs):
            raise AssertionError("ranked a space with an unknown realization")

        monkeypatch.setattr(search_mod, "prefilter", refuse)
        with pytest.raises(TuneError, match="unknown realization 'bogus'"):
            tune(fft3d_source(8, 4, 0), 4, knobs=KnobSpec(("bulk", "bogus")))

    def test_shortlist_has_no_clones(self):
        # At n=8/P=4 CYCLIC(2) *is* BLOCK: the generated programs differ
        # only in the layout name inside a comment and must collapse.
        program, phases, space, kw = _fft_case()
        pf = prefilter(program, phases, space, budget=8, **kw)
        printed = [
            print_program(parse_program(rc.source)) for rc in pf.shortlist
        ]
        assert len(set(printed)) == len(printed)


class TestStoreMemo:
    """The artifact store is the tuner's cross-process memo: a fresh
    process with a fresh in-memory cache replays a tune from the store
    alone, with no engine run, and lands on the same document."""

    REPLAY = (
        "import json, sys\n"
        "from repro.apps.fft3d import fft3d_source\n"
        "from repro.tune import EvalCache, tune\n"
        "store, n, p = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])\n"
        "res = tune(fft3d_source(n, p, 0), p, budget_s=None,\n"
        "           cache=EvalCache(), store=store)\n"
        "c = res.cache\n"
        "print(json.dumps(res.canonical_doc(), sort_keys=True))\n"
        "print(json.dumps({'engine_runs': c.engine_runs,\n"
        "                  'store_hits': c.store_hits,\n"
        "                  'store_misses': c.store_misses}))\n"
    )

    def test_fresh_process_replays_from_the_store(self, tmp_path):
        store = str(tmp_path / "store")
        first = tune(fft3d_source(N, P, 0), P, budget_s=None,
                     cache=EvalCache(), store=store)
        assert first.cache.engine_runs == first.cache.store_misses > 0

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        child = subprocess.run(
            [sys.executable, "-c", self.REPLAY, store, str(N), str(P)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        doc, counters = child.stdout.splitlines()
        assert doc == json.dumps(first.canonical_doc(), sort_keys=True)
        assert json.loads(counters) == {
            "engine_runs": 0,
            "store_hits": first.cache.store_misses,
            "store_misses": 0,
        }
