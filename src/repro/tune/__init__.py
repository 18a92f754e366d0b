"""Automatic data-placement tuning (the paper's section 4, as an algorithm).

The paper optimizes the 3-D FFT's distributions and segmentations *by
hand*, in three stages.  XDP's explicit representation is what makes that
optimization mechanical — so this package performs it automatically, as a
four-stage pipeline:

* :mod:`~repro.tune.space` — **space**: candidate placements
  (distribution-spec x segmentation x grid-shape) per phase, crossed
  with pass-level knobs; :class:`SpaceSpec` holds the layers and counts
  their product without building it;
* :mod:`~repro.tune.prefilter` — **ranking**: the whole space ranked
  exactly by the closed-form costs (:mod:`~repro.tune.cost`) as a lazy
  best-first search of the layered (phase, layout) graph, deduplicated
  by emission identity, vetted by the communication verifier, cut to a
  shortlist under an explicit candidate budget;
* :mod:`~repro.tune.evaluate` — **evaluation**: shortlisted candidates run
  on the real :class:`~repro.machine.engine.Engine`, in-process or sharded
  across supervised workers, memoized through the content-addressed
  artifact store;
* :mod:`~repro.tune.search` — **search**: budgeted successive halving over
  the ranked shortlist with a baseline-fallback safety net;
* :mod:`~repro.tune.rewrite` — phase detection and regeneration of the
  program under the chosen placements and realization.

See docs/TUNING.md for the full design.
"""

from .cost import (
    EstimateError,
    SharedAddressCosts,
    TransportCosts,
    phase_compute_cost,
    redistribution_cost,
    transport_costs,
)
from .evaluate import (
    EvalCache,
    EvalResult,
    EvalTask,
    evaluate_candidates,
    evaluate_sharded,
)
from .prefilter import PrefilterResult, RankedCandidate, prefilter
from .rewrite import PhaseSpec, detect_phases, generate_phased_program
from .search import TUNE_SCHEMA, TuneError, TuneResult, tune
from .space import (
    KnobPoint,
    KnobSpec,
    LayoutCandidate,
    SpaceSpec,
    candidate_segmentation,
    enumerate_layouts,
    phase_layouts,
)


def estimate_program(*_args, **_kwargs):
    """Removed in PR 15; only the name is left, and it is not exported.

    The frozen ledger (``benchmarks/e2e/trace.py``) still lists
    ``repro.tune:estimate_program`` under ``tune.cost_s``, and its
    self-test fails while any listed name does not resolve.  Delete this
    together with that entry.
    """
    raise EstimateError(
        "the whole-program static estimator was removed; the tuner scores "
        "with phase_compute_cost and redistribution_cost"
    )


__all__ = [
    "EvalCache",
    "EvalResult",
    "EvalTask",
    "KnobPoint",
    "KnobSpec",
    "LayoutCandidate",
    "PhaseSpec",
    "PrefilterResult",
    "RankedCandidate",
    "SharedAddressCosts",
    "SpaceSpec",
    "TUNE_SCHEMA",
    "TransportCosts",
    "TuneError",
    "TuneResult",
    "candidate_segmentation",
    "detect_phases",
    "enumerate_layouts",
    "evaluate_candidates",
    "evaluate_sharded",
    "generate_phased_program",
    "phase_compute_cost",
    "phase_layouts",
    "prefilter",
    "redistribution_cost",
    "transport_costs",
    "tune",
]
