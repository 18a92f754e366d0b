"""The placement-tuning subsystem (repro.tune).

Headline (the ISSUE's acceptance bar): the tuner, given the *naive*
section-4 FFT program, rediscovers the paper's ``(*,*,BLOCK)`` →
``(*,BLOCK,*)`` repartitioning and its simulated makespan is no worse
than the hand-optimized final stage.  Plus: determinism, the memoized
oracle, parallel-vs-serial bit-identity, and the drift guard bounding
the prefilter's closed-form scores against the engine makespans of the
shortlist they ranked.
"""

import numpy as np
import pytest

from repro.apps.fft3d import fft3d_source, run_fft3d
from repro.core.codegen import lower
from repro.core.codegen.lower import INTRINSIC_FLOPS
from repro.core.ir.parser import parse_program
from repro.core.ir.printer import print_program
from repro.distributions import plan_redistribution
from repro.machine.engine import HEADER_BYTES
from repro.machine.model import MachineModel
from repro.tune import (
    EvalCache,
    EvalTask,
    LayoutCandidate,
    candidate_segmentation,
    detect_phases,
    enumerate_layouts,
    evaluate_candidates,
    generate_phased_program,
    phase_layouts,
    redistribution_cost,
    tune,
)
from repro.tune.rewrite import TuneError

from .fft_goldens import hand_run

N, P = 8, 4
PAPER_LAYOUTS = [
    LayoutCandidate("(*, *, BLOCK)", (8, 1, 1)),
    LayoutCandidate("(*, *, BLOCK)", (8, 1, 1)),
    LayoutCandidate("(*, BLOCK, *)", (8, 1, 1)),
]


@pytest.fixture(scope="module")
def naive_src():
    return fft3d_source(N, P, 0)


@pytest.fixture(scope="module")
def tuned(naive_src):
    return tune(naive_src, P)


@pytest.fixture(scope="module")
def hand_makespans():
    """Stage 0 is the tuner's input; stages 1 and 2 are the hand listings
    (``tests/fft_goldens.py``), not the tuner's own realizations."""
    return {0: run_fft3d(N, P, 0).makespan,
            **{s: hand_run(N, P, s).makespan for s in (1, 2)}}


class TestHeadline:
    def test_rediscovers_paper_repartitioning(self, tuned):
        dists = [c.dist for c in tuned.phase_layouts]
        # The j- and i-direction phases stay on the initial placement;
        # the k-direction phase gets the paper's repartitioning.
        assert dists[:2] == ["(*, *, BLOCK)", "(*, *, BLOCK)"]
        assert "(*, BLOCK, *)" in dists

    def test_matches_or_beats_hand_optimized_stage(self, tuned, hand_makespans):
        assert tuned.makespan <= hand_makespans[2]

    def test_beats_naive_baseline(self, tuned, hand_makespans):
        assert tuned.baseline_makespan == hand_makespans[0]
        assert tuned.makespan <= tuned.baseline_makespan

    def test_semantics_preserved(self, tuned):
        assert tuned.semantics_preserved

    def test_winner_confirmed_through_cache(self, tuned):
        assert tuned.cache.hits >= 1

    def test_deterministic(self, naive_src, tuned):
        again = tune(naive_src, P)
        assert again.phase_layouts == tuned.phase_layouts
        assert again.realization == tuned.realization
        assert again.source == tuned.source
        assert again.makespan == tuned.makespan
        assert again.analytic == tuned.analytic


class TestOracle:
    def _tasks(self, model):
        return [
            EvalTask(fft3d_source(N, P, s), P, model, label=f"stage{s}")
            for s in (0, 1, 2)
        ]

    def test_cache_avoids_resimulation(self):
        model = MachineModel()
        cache = EvalCache()
        first = evaluate_candidates(self._tasks(model), cache=cache)
        assert cache.hits == 0 and cache.misses == 3
        second = evaluate_candidates(self._tasks(model), cache=cache)
        assert cache.hits == 3
        assert all(r.from_cache for r in second)
        assert [r.makespan for r in first] == [r.makespan for r in second]

    def test_digest_sensitive_to_inputs(self):
        model = MachineModel()
        t = EvalTask("array A[1:4] dist (BLOCK) seg (1)\n", 4, model)
        assert t.digest != EvalTask(t.program, 8, model).digest
        assert t.digest != EvalTask(t.program, 4, model, seed=8).digest
        assert t.digest != EvalTask(
            t.program, 4, MachineModel.high_latency()
        ).digest


class TestStaticScore:
    """The closed forms the prefilter ranks with must track the engine
    (drift guard; measured errors are in docs/TUNING.md)."""

    #: |score - makespan| / makespan over every engine-evaluated row.
    RTOL = 0.05

    @pytest.mark.parametrize("backend", [None, "shmem"])
    def test_scores_within_bound_of_engine(self, naive_src, tuned, backend):
        res = tuned if backend is None else tune(naive_src, P, backend=backend)
        rows = [r for r in res.analytic if r["makespan"] is not None]
        assert {r["realization"] for r in rows} == {"bulk", "pipelined"}
        for r in rows:
            assert r["score"] == pytest.approx(r["makespan"], rel=self.RTOL), r

    def test_redistribution_cost_by_hand(self, naive_src):
        # (*,*,BLOCK) -> (*,BLOCK,*) at n=8/P=4: every processor sends one
        # 8x2x2 complex128 block to each of the 3 others; pipelining
        # splits each block along the source's distributed axis (k, two
        # slices), so a receiver takes 6 fragments of half the size.
        decl = parse_program(naive_src).array_decls()[0]
        src, dst = (
            candidate_segmentation(decl, c, P).distribution
            for c in PAPER_LAYOUTS[1:]
        )
        plan = plan_redistribution(src, dst)
        m = MachineModel()
        block = 8 * 2 * 2 * 16

        def cost(realization):
            return redistribution_cost(
                plan, m, itemsize=16, realization=realization,
                outer_axis=2, backend="msg",
            )

        assert cost("bulk") == (
            3 * m.o_send
            + m.alpha + m.per_byte * (HEADER_BYTES + block)
            + 3 * m.o_recv
        )
        assert cost("pipelined") == (
            6 * m.o_recv
            + m.alpha + m.per_byte * (HEADER_BYTES + block // 2)
            + 6 * INTRINSIC_FLOPS * m.flop_time
        )


class TestSpace:
    def test_enumeration_canonical_and_pruned(self):
        decl = parse_program(fft3d_source(N, P, 0)).array_decls()[0]
        cands = enumerate_layouts(decl, P)
        assert cands == sorted(set(cands))
        # at least one distributed dimension everywhere
        assert all(c.distributed_axes() for c in cands)

    def test_phase_layouts_keep_axis_local(self):
        decl = parse_program(fft3d_source(N, P, 0)).array_decls()[0]
        for axis in (0, 1, 2):
            for c in phase_layouts(decl, P, axis):
                assert axis not in c.distributed_axes()
                assert len(c.distributed_axes()) == 1


class TestRewrite:
    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_detects_same_phases_in_every_hand_stage(self, stage):
        phases = detect_phases(parse_program(fft3d_source(N, P, stage)))
        assert [p.axis for p in phases] == [1, 0, 2]
        assert all(p.kernel == "fft1D" and p.var == "A" for p in phases)

    @pytest.mark.parametrize("realization", ["bulk", "pipelined"])
    def test_generated_programs_compute_the_fft(self, naive_src, realization):
        program = parse_program(naive_src)
        src = generate_phased_program(
            program, detect_phases(program), PAPER_LAYOUTS, P,
            realization=realization,
        )
        runner = lower(parse_program(src), P)
        rng = np.random.default_rng(3)
        a0 = rng.standard_normal((N, N, N)) + 1j * rng.standard_normal((N, N, N))
        runner.write_global("A", a0)
        runner.run()
        assert np.allclose(
            runner.read_global("A"), np.fft.fftn(a0), atol=1e-9 * N**3
        )

    @staticmethod
    def _section4_program(kind, n, p, realization):
        """The section-4 placements, all BLOCK or all CYCLIC, printed back
        from a parse with the layout name blanked out."""
        specs = [s.replace("BLOCK", kind) for s in
                 ("(*, *, BLOCK)", "(*, *, BLOCK)", "(*, BLOCK, *)")]
        program = parse_program(
            fft3d_source(n, p, 0).replace("(*, *, BLOCK)", specs[0]))
        src = generate_phased_program(
            program, detect_phases(program),
            [LayoutCandidate(s) for s in specs], p, realization=realization,
        )
        assert "redistgen:" not in src and "mypid ==" not in src
        return print_program(parse_program(src)).replace(kind, "X")

    @pytest.mark.parametrize("realization", ["bulk", "pipelined"])
    @pytest.mark.parametrize("kind", ["BLOCK", "CYCLIC"])
    def test_program_size_is_independent_of_n_and_p(self, kind, realization):
        # Transfers come out in closed form in mypid — no per-processor
        # guard, no fallback note — so the text does not grow with n or P.
        sizes = {
            (n, p): self._section4_program(kind, n, p, realization).count("\n")
            for n, p in [(8, 4), (16, 4), (32, 16)]
        }
        assert len(set(sizes.values())) == 1, sizes
        # At n == P, CYCLIC is BLOCK, and emits BLOCK's program (whose
        # pipelined receives walk the other slabs without a source loop).
        at_p = self._section4_program(kind, 16, 16, realization)
        assert at_p == self._section4_program("BLOCK", 16, 16, realization)
        if kind == "BLOCK":
            assert at_p.count("\n") == sizes[8, 4]

    def test_fallback_is_reported(self, naive_src):
        # BLOCK -> CYCLIC along one axis at n=8, P=4 moves planes between
        # 6 of the 12 processor pairs: no closed form, and the program
        # says so where the guards are.
        program = parse_program(naive_src)
        src = generate_phased_program(
            program, detect_phases(program),
            [LayoutCandidate("(*, *, CYCLIC)")] * 2
            + [LayoutCandidate("(*, CYCLIC, *)")], P,
        )
        note = ("// redistgen: one guarded block per processor "
                "(moves pair 6 of the 12 ordered processor pairs)")
        assert src.count(note) == 1
        assert src.index(note) < src.index("mypid == 1 : {")

    def test_rejects_non_pencil_programs(self):
        src = """array A[1:4,1:4] dist (BLOCK, *) seg (1,4)
do i = 1, 4
  iown(A[i,*]) : {
    call smooth(A[i,*])
  }
enddo
do j = 1, 4
  iown(A[*,j]) : {
    A[*,j] = A[*,j] * 2
  }
enddo
"""
        program = parse_program(src)
        phases = detect_phases(program)  # only the call is a phase
        assert len(phases) == 1 and phases[0].axis == 1
        # Distributing the phase axis breaks pencil locality.
        with pytest.raises(TuneError):
            generate_phased_program(
                program, phases, [LayoutCandidate("(*, BLOCK)")], 4
            )
        with pytest.raises(TuneError):
            generate_phased_program(program, phases, list(PAPER_LAYOUTS), 4)


class TestTuneOnHighLatencyModel:
    def test_model_changes_are_respected(self, naive_src):
        res = tune(naive_src, P, model=MachineModel.high_latency(), top_k=2)
        assert res.semantics_preserved
        assert res.makespan <= res.baseline_makespan
