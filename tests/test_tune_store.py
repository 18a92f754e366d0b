"""Crash-safe artifact store: durability contract and concurrency.

The store promises (docs/TUNING.md) that a reader sees either nothing or
a complete, verified record — never a partial or corrupt one — no matter
how writers crash or race.  This file pins each clause: atomic
publication, sha256 verification on every read, quarantine-and-miss on
corruption, strict-mode raising, and the two-process same-key write race
(satellite: concurrent artifact-store access).
"""

import json
import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.core.errors import ArtifactIntegrityError
from repro.tune.store import (
    ArtifactKey,
    ArtifactStore,
    decode_payload,
    encode_payload,
    il_sha256,
)

SOURCE = "array A[1:4] dist (BLOCK) seg (1)\nA[1] = 1\n"


def make_key(source=SOURCE, kind="run", nprocs=4, backend="msg", model=None):
    return ArtifactKey.make(
        source, {"kind": kind, "nprocs": nprocs}, backend, model
    )


class TestKey:
    def test_digest_stable_across_dict_order(self):
        a = ArtifactKey.make(SOURCE, {"x": 1, "y": 2}, "msg", {"m": 3})
        b = ArtifactKey.make(SOURCE, {"y": 2, "x": 1}, "msg", {"m": 3})
        assert a.digest == b.digest

    def test_digest_separates_components(self):
        base = make_key()
        assert make_key(source=SOURCE + "\n").digest != base.digest
        assert make_key(kind="compile").digest != base.digest
        assert make_key(backend="shmem").digest != base.digest
        assert make_key(model={"alpha": 1.0}).digest != base.digest

    def test_model_accepts_dataclass(self):
        from repro.machine.model import MachineModel

        a = make_key(model=MachineModel.message_passing())
        b = make_key(model=MachineModel.high_latency())
        assert a.digest != b.digest

    def test_il_sha256_is_content_hash(self):
        assert il_sha256(SOURCE) == il_sha256(SOURCE)
        assert il_sha256(SOURCE) != il_sha256(SOURCE + " ")


class TestPayloadCodec:
    def test_ndarray_roundtrip_bit_exact(self):
        arr = np.random.default_rng(0).standard_normal((3, 4))
        out = decode_payload(
            json.loads(json.dumps(encode_payload({"a": arr})))
        )
        assert out["a"].dtype == arr.dtype
        assert np.array_equal(out["a"], arr)

    def test_complex_and_nested(self):
        arr = (np.arange(6) + 1j * np.arange(6)).reshape(2, 3)
        doc = {"nested": {"xs": [arr, 1, "s"]}, "n": np.int64(7)}
        out = decode_payload(json.loads(json.dumps(encode_payload(doc))))
        assert np.array_equal(out["nested"]["xs"][0], arr)
        assert out["n"] == 7 and isinstance(out["n"], int)


class TestStoreBasics:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = make_key()
        payload = {"makespan": 12.5, "arr": np.arange(4.0)}
        digest = store.put(key, payload)
        assert digest == key.digest
        got = store.get(key)
        assert got["makespan"] == 12.5
        assert np.array_equal(got["arr"], np.arange(4.0))
        assert store.stats.hits == 1 and store.stats.writes == 1

    def test_miss_counts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get(make_key()) is None
        assert store.stats.misses == 1 and store.stats.hit_rate == 0.0

    def test_contains_has_no_stats_side_effects(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = make_key()
        assert not store.contains(key)
        store.put(key, {"v": 1})
        assert store.contains(key)
        assert store.stats.hits == 0 and store.stats.misses == 0

    def test_len_counts_published_records_only(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(make_key(), {"v": 1})
        store.put(make_key(kind="compile"), {"v": 2})
        # A stray crashed-writer temp file must not count (or be served).
        stray = store._path(make_key().digest).parent / "x.tmp"
        stray.write_text("garbage")
        assert len(store) == 2

    def test_two_stores_share_one_directory(self, tmp_path):
        a = ArtifactStore(tmp_path)
        b = ArtifactStore(tmp_path)
        key = make_key()
        a.put(key, {"v": 41})
        assert b.get(key) == {"v": 41}


class TestCorruption:
    """Every corruption mode reads as a miss + quarantine, never a serve."""

    def _entry(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = make_key()
        store.put(key, {"makespan": 1.0, "arr": np.ones(3)})
        return store, key, store._path(key.digest)

    @pytest.mark.parametrize("mutate", [
        lambda p: p.write_bytes(p.read_bytes()[: len(p.read_bytes()) // 2]),
        lambda p: p.write_bytes(b"\xf6\x00" + p.read_bytes()[2:]),
        lambda p: p.write_bytes(p.read_bytes() + b"trailing"),
        lambda p: p.write_text("{}"),
        lambda p: p.write_text("not json at all"),
    ], ids=["truncated", "bitflip", "appended", "empty-object", "not-json"])
    def test_corrupt_record_never_served(self, tmp_path, mutate):
        store, key, path = self._entry(tmp_path)
        mutate(path)
        assert store.get(key) is None
        assert store.stats.quarantined == 1
        assert not path.exists()
        assert len(store.quarantined_files()) == 1
        # The slot is reusable: recompute-and-rewrite heals the store.
        store.put(key, {"makespan": 1.0, "arr": np.ones(3)})
        assert store.get(key)["makespan"] == 1.0

    def test_payload_tamper_detected(self, tmp_path):
        store, key, path = self._entry(tmp_path)
        record = json.loads(path.read_text())
        record["payload"]["makespan"] = 999.0  # sha256 now stale
        path.write_text(json.dumps(record))
        assert store.get(key) is None
        assert store.stats.quarantined == 1

    def test_key_tamper_detected(self, tmp_path):
        # A flipped bit inside the key document used to verify: only the
        # payload was hashed, so the record was served.
        store, key, path = self._entry(tmp_path)
        record = json.loads(path.read_text())
        record["key"]["backend"] = "shmem"
        path.write_text(json.dumps(record))
        assert store.get(key) is None
        assert store.stats.quarantined == 1

    def test_record_under_wrong_address_detected(self, tmp_path):
        store, key, path = self._entry(tmp_path)
        other = make_key(kind="compile")
        dest = store._path(other.digest)
        dest.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, dest)  # a record filed under someone else's key
        assert store.get(other) is None
        assert store.stats.quarantined == 1

    def test_strict_mode_raises(self, tmp_path):
        store, key, path = self._entry(tmp_path)
        path.write_text("garbage")
        with pytest.raises(ArtifactIntegrityError):
            store.get(key, strict=True)
        assert not path.exists()  # quarantined as well as raised


# ---------------------------------------------------------------------- #
# concurrency (two processes racing on the same key)
# ---------------------------------------------------------------------- #


def _race_writer(root: str, variant: int, iters: int) -> None:
    store = ArtifactStore(root)
    key = make_key()
    payload = {"variant": variant, "arr": np.full(8, float(variant))}
    for _ in range(iters):
        store.put(key, payload)


class TestConcurrentAccess:
    def test_two_process_write_race_reader_never_sees_partial(self, tmp_path):
        """Two processes hammer the same key with different complete
        payloads while the parent reads in strict mode: every observed
        value is one of the two complete payloads, verification never
        fails, and nothing lands in quarantine."""
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None
        )
        writers = [
            ctx.Process(target=_race_writer, args=(str(tmp_path), v, 40))
            for v in (1, 2)
        ]
        for w in writers:
            w.start()
        reader = ArtifactStore(tmp_path)
        key = make_key()
        seen = set()
        try:
            while any(w.is_alive() for w in writers):
                got = reader.get(key, strict=True)  # raises on any corrupt read
                if got is not None:
                    assert got["variant"] in (1, 2)
                    assert np.array_equal(
                        got["arr"], np.full(8, float(got["variant"]))
                    )
                    seen.add(got["variant"])
        finally:
            for w in writers:
                w.join(timeout=30)
        assert all(w.exitcode == 0 for w in writers)
        assert reader.stats.quarantined == 0
        assert not reader.quarantined_files()
        # The surviving record is complete and verifiable.
        final = reader.get(key, strict=True)
        assert final["variant"] in (1, 2)
        assert seen, "reader never observed a published record"

    def test_concurrent_distinct_keys(self, tmp_path):
        """Writers on distinct keys coexist."""
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None
        )

        def put_kind(kind):
            ArtifactStore(tmp_path).put(
                make_key(kind=kind), {"kind": kind}
            )

        procs = [
            ctx.Process(target=put_kind, args=(k,))
            for k in ("run", "compile", "check", "tune")
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30)
        store = ArtifactStore(tmp_path)
        assert len(store) == 4
        for kind in ("run", "compile", "check", "tune"):
            assert store.get(make_key(kind=kind)) == {"kind": kind}
