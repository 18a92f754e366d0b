"""Crash-safe content-addressed artifact store.

The second level of the tuner's memoized oracle
(:mod:`repro.tune.evaluate`): each engine evaluation of a candidate is
addressed by an :class:`ArtifactKey` — (IL sha256, pass config, backend,
machine model) — and stored as one JSON record on disk, so a re-tune in
a fresh process, sharing the store directory, replays it instead of
re-simulating.

Durability contract
-------------------

* **Atomic writes** — records are written to a temporary file in the
  destination directory, fsynced, and published with ``os.replace``.  A
  crash mid-write leaves at worst a stray ``.tmp`` file, never a partial
  record under the published name; a concurrent reader observes either
  nothing or a complete record.
* **Verified reads** — every ``get`` recomputes the sha256 of the
  record's canonical payload bytes and checks it (and the key digest)
  against the stored values.  A mismatch — truncation, bit flips, a
  stray write — is never served.
* **Quarantine** — corrupt files are atomically renamed into
  ``quarantine/`` (for post-mortem inspection) and the read reports a
  miss, so the artifact is recomputed and rewritten.  ``strict=True``
  raises :class:`~repro.core.errors.ArtifactIntegrityError` instead.
* **File-lock-guarded mutation** — writes and quarantine moves take an
  ``fcntl`` lock sharded by digest prefix, so any number of processes
  can share one store directory; two writers racing on the same key
  serialize and last-writer-wins with an intact record either way.
  (Platforms without ``fcntl`` fall back to lock-free atomic renames,
  which are still safe for readers.)

Payloads are JSON documents; numpy arrays are transparently encoded
(base64 of the raw bytes + dtype + shape) by :func:`encode_payload` /
:func:`decode_payload`, so engine results round-trip bit-exactly.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from ..core.errors import ArtifactIntegrityError

try:  # POSIX file locking; gated so the store still works without it.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "ArtifactKey",
    "ArtifactStore",
    "StoreStats",
    "decode_payload",
    "encode_payload",
    "il_sha256",
]

#: On-disk record format version (bumped on incompatible layout changes).
STORE_FORMAT = 1

_tmp_counter = itertools.count()


def _canon(obj: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace — the hashing form."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def il_sha256(source: str) -> str:
    """Content hash of an IL+XDP program source (its cache identity)."""
    return hashlib.sha256(source.encode()).hexdigest()


def encode_payload(value: Any) -> Any:
    """Recursively encode a payload into pure-JSON form.

    numpy arrays become ``{"__ndarray__": b64, "dtype": ..., "shape":
    ...}`` (raw C-order bytes, so the round trip is bit-exact); numpy
    scalars collapse to Python scalars; mappings and sequences recurse.
    """
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return {
            "__ndarray__": base64.b64encode(arr.tobytes()).decode("ascii"),
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
        }
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Mapping):
        return {str(k): encode_payload(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_payload(v) for v in value]
    return value


def decode_payload(value: Any) -> Any:
    """Inverse of :func:`encode_payload`."""
    if isinstance(value, dict):
        if set(value) == {"__ndarray__", "dtype", "shape"}:
            raw = base64.b64decode(value["__ndarray__"])
            arr = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
            return arr.reshape(value["shape"]).copy()
        return {k: decode_payload(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_payload(v) for v in value]
    return value


@dataclass(frozen=True)
class ArtifactKey:
    """Content address of one artifact: what was compiled, how, for what.

    All four components are canonical strings so the digest is stable
    across processes and Python versions (``PYTHONHASHSEED`` plays no
    part): ``il_sha256`` hashes the program source, ``config`` is the
    canonical JSON of the pass/job configuration, ``backend`` names the
    transport binding, and ``model`` is the canonical JSON of the machine
    model constants.
    """

    il_sha256: str
    config: str
    backend: str
    model: str

    @classmethod
    def make(
        cls,
        source: str,
        config: Mapping[str, Any],
        backend: str,
        model: Any = None,
    ) -> "ArtifactKey":
        """Build a key from raw parts (``model`` may be a dataclass such
        as :class:`~repro.machine.model.MachineModel`, a mapping, or
        None)."""
        if model is None:
            model_doc: Any = {}
        elif is_dataclass(model) and not isinstance(model, type):
            model_doc = asdict(model)
        else:
            model_doc = dict(model)
        return cls(
            il_sha256=il_sha256(source),
            config=_canon(dict(config)),
            backend=backend,
            model=_canon(model_doc),
        )

    @property
    def digest(self) -> str:
        """The store address: sha256 over the four canonical components."""
        blob = "\n".join(
            (self.il_sha256, self.config, self.backend, self.model)
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def as_doc(self) -> dict:
        return {
            "il_sha256": self.il_sha256,
            "config": self.config,
            "backend": self.backend,
            "model": self.model,
        }


@dataclass
class StoreStats:
    """Hit/miss/durability accounting of one :class:`ArtifactStore`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    quarantined: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ArtifactStore:
    """One on-disk content-addressed artifact cache (see module doc).

    Layout under ``root``::

        objects/<d[:2]>/<digest>.json   published records
        quarantine/<digest>.<n>.corrupt records that failed verification
        locks/<d[:2]>.lock              fcntl lock shards
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._quarantine = self.root / "quarantine"
        self._locks = self.root / "locks"
        for d in (self._objects, self._quarantine, self._locks):
            d.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()

    # -- paths ---------------------------------------------------------- #

    def _path(self, digest: str) -> Path:
        return self._objects / digest[:2] / f"{digest}.json"

    @contextmanager
    def _locked(self, digest: str) -> Iterator[None]:
        """Exclusive advisory lock sharded by digest prefix."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        lock_path = self._locks / f"{digest[:2]}.lock"
        with open(lock_path, "a+") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    # -- core operations ------------------------------------------------ #

    def put(self, key: ArtifactKey, payload: Mapping[str, Any]) -> str:
        """Write one artifact atomically; returns its digest.

        Concurrent writers of the same key serialize on the lock shard;
        whichever replace lands last wins, and both leave a complete,
        verifiable record.
        """
        digest = key.digest
        encoded = encode_payload(dict(payload))
        record = {
            "format": STORE_FORMAT,
            "digest": digest,
            "key": key.as_doc(),
            "payload_sha256": hashlib.sha256(
                _canon(encoded).encode()
            ).hexdigest(),
            "payload": encoded,
        }
        data = json.dumps(record, indent=None, sort_keys=True)
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._locked(digest):
            fd, tmp = tempfile.mkstemp(
                dir=path.parent,
                prefix=f".{digest[:12]}-{os.getpid()}-{next(_tmp_counter)}",
                suffix=".tmp",
            )
            try:
                with os.fdopen(fd, "w") as f:
                    f.write(data)
                    f.flush()
                    os.fsync(f.fileno())
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        self.stats.writes += 1
        return digest

    def get(
        self, key: ArtifactKey, *, strict: bool = False
    ) -> dict[str, Any] | None:
        """Return the verified payload for ``key``, or None on a miss.

        Any record that cannot be parsed or whose sha256/digest does not
        verify is quarantined and treated as a miss (or raised, with
        ``strict``) — a corrupt artifact is never served.
        """
        digest = key.digest
        path = self._path(digest)
        try:
            data = path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            self.stats.misses += 1
            return None
        except OSError:
            self._quarantine_file(digest, path, "unreadable", strict)
            self.stats.misses += 1
            return None
        reason = self._verify(digest, data)
        if reason is not None:
            self._quarantine_file(digest, path, reason, strict)
            self.stats.misses += 1
            return None
        record = json.loads(data)
        self.stats.hits += 1
        return decode_payload(record["payload"])

    def contains(self, key: ArtifactKey) -> bool:
        """Whether a *verifiable* record exists (no stats side effects)."""
        digest = key.digest
        try:
            data = self._path(digest).read_bytes()
        except OSError:
            return False
        return self._verify(digest, data) is None

    def __len__(self) -> int:
        return sum(1 for _ in self._objects.glob("*/*.json"))

    def quarantined_files(self) -> list[Path]:
        return sorted(self._quarantine.iterdir())

    # -- integrity ------------------------------------------------------ #

    def _verify(self, digest: str, data: bytes) -> str | None:
        """None when the record verifies, else a human-readable reason."""
        try:
            record = json.loads(data)
        except (ValueError, UnicodeDecodeError):
            return "unparseable JSON"
        if not isinstance(record, dict):
            return "not a record object"
        if record.get("format") != STORE_FORMAT:
            return f"unknown format {record.get('format')!r}"
        if record.get("digest") != digest:
            return "digest mismatch (record addressed under wrong key)"
        try:
            if ArtifactKey(**record.get("key")).digest != digest:
                return "key mismatch (key document does not hash to the digest)"
        except TypeError:
            return "malformed key document"
        payload = record.get("payload")
        want = record.get("payload_sha256")
        got = hashlib.sha256(_canon(payload).encode()).hexdigest()
        if got != want:
            return "payload sha256 mismatch"
        return None

    def _quarantine_file(
        self, digest: str, path: Path, reason: str, strict: bool
    ) -> None:
        with self._locked(digest):
            if path.exists():
                dest = self._quarantine / (
                    f"{digest}.{os.getpid()}-{next(_tmp_counter)}.corrupt"
                )
                try:
                    os.replace(path, dest)
                    self.stats.quarantined += 1
                except OSError:  # pragma: no cover - already moved/removed
                    pass
        if strict:
            raise ArtifactIntegrityError(
                f"artifact {digest} failed verification ({reason}); "
                "quarantined"
            )
