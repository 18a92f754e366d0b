"""The staged tuning pipeline's own invariants (beyond test_tune's
end-to-end contract):

* lazy space enumeration is exactly the sorted eager enumeration, for
  arbitrary seeded subspaces (hypothesis);
* :class:`SpaceSpec` counts what its generators yield;
* same-seed searches are bit-reproducible for any shard count — the
  canonical result document and the BENCH row derived from it are
  byte-identical across ``shards in {1, 2, 4}``;
* the prefilter's shortlist holds no two copies of one program.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.fft3d import fft3d_source
from repro.core.analysis.layouts import build_segmentation
from repro.core.ir.parser import parse_program
from repro.core.ir.printer import print_program
from repro.distributions import ProcessorGrid
from repro.machine.model import MachineModel
from repro.tune import (
    SpaceSpec, enumerate_layouts, iter_layouts, prefilter, tune,
)
from repro.tune.rewrite import detect_phases

N, P = 8, 4

SPECS = ("*", "BLOCK", "CYCLIC", "CYCLIC(2)")
SEGS = ("coarse", "pencil", "slab")


def _decl(extents):
    dims = ",".join(f"1:{e}" for e in extents)
    src = (f"array A[{dims}] dist (*, *, BLOCK) "
           f"seg ({extents[0]},1,1) dtype complex128\n")
    return parse_program(src).array_decls()[0]


@st.composite
def subspaces(draw):
    extents = tuple(draw(st.sampled_from([2, 3, 4, 8])) for _ in range(3))
    nprocs = draw(st.sampled_from([2, 4]))
    specs = tuple(draw(st.sets(st.sampled_from(SPECS), min_size=1)))
    segs = tuple(draw(st.sets(st.sampled_from(SEGS), min_size=1)))
    max_dist = draw(st.sampled_from([None, 1, 2]))
    idle = draw(st.booleans())
    collapsed = tuple(draw(st.sets(st.integers(0, 2), max_size=1)))
    return extents, nprocs, specs, segs, max_dist, idle, collapsed


class TestLazyEagerParity:
    @settings(max_examples=30, deadline=None)
    @given(subspaces())
    def test_iter_layouts_is_sorted_eager_enumeration(self, sub):
        extents, nprocs, specs, segs, max_dist, idle, collapsed = sub
        kw = dict(
            specs=specs, max_dist_dims=max_dist, seg_choices=segs,
            allow_idle_procs=idle, collapsed_axes=collapsed,
        )
        decl = _decl(extents)
        lazy = list(iter_layouts(decl, nprocs, **kw))
        eager = enumerate_layouts(decl, nprocs, **kw)
        assert lazy == eager

    def test_space_spec_counts_match_generators(self):
        program = parse_program(fft3d_source(N, P, 0))
        phases = detect_phases(program)
        decl = program.array_decls()[0]
        space = SpaceSpec(decl, P, tuple(p.axis for p in phases))
        paths = sum(1 for _ in space.iter_paths())
        assert paths == space.path_count()
        assert space.size() == paths * len(space.knob_points())
        for i, size in enumerate(space.layer_sizes):
            assert size == len(list(space.layer(i)))


class TestPrefilter:
    def test_shortlist_has_no_clones(self):
        # At n=8/P=4 CYCLIC(2) *is* BLOCK: the generated programs differ
        # only in the layout name inside a comment and must collapse.
        program = parse_program(fft3d_source(N, P, 0))
        phases = detect_phases(program)
        decl = program.array_decls()[0]
        pf = prefilter(
            program, phases,
            SpaceSpec(decl, P, tuple(p.axis for p in phases)),
            initial=build_segmentation(decl, ProcessorGrid((P,))).distribution,
            model=MachineModel(), backend="msg", budget=8,
        )
        printed = [
            print_program(parse_program(rc.source)) for rc in pf.shortlist
        ]
        assert len(set(printed)) == len(printed)


class TestShardDeterminism:
    """Same seed, same program: the shard count must be invisible in the
    result — the merge is by submission order, never completion order."""

    @pytest.fixture(scope="class")
    def docs(self, tmp_path_factory):
        src = fft3d_source(N, P, 0)
        out = {}
        for shards in (1, 2, 4):
            store = tmp_path_factory.mktemp(f"store-{shards}")
            res = tune(src, P, shards=shards, store=str(store))
            out[shards] = res.canonical_doc()
        return out

    def test_canonical_docs_byte_identical(self, docs):
        blobs = {
            s: json.dumps(d, sort_keys=True).encode()
            for s, d in docs.items()
        }
        assert blobs[1] == blobs[2] == blobs[4]

    def test_bench_rows_byte_identical(self, docs):
        # The BENCH row is the canonical doc plus per-run context; the
        # deterministic portion must not vary with the shard count.
        rows = {
            s: json.dumps(
                {**d, "n": N, "nprocs": P}, sort_keys=True
            ).encode()
            for s, d in docs.items()
        }
        assert rows[1] == rows[2] == rows[4]

    def test_sharded_matches_in_process(self, docs, tmp_path):
        res = tune(fft3d_source(N, P, 0), P)
        assert json.dumps(res.canonical_doc(), sort_keys=True) == \
            json.dumps(docs[1], sort_keys=True)
