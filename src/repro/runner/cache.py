"""Content-addressed on-disk result cache.

Artifacts are JSON documents stored under ``.repro-cache/`` (or
``$REPRO_CACHE_DIR``), addressed by ``<salt>/<hh>/<spec-hash>.json``
where

* ``spec-hash`` is :meth:`RunSpec.content_hash` -- the SHA-256 of the
  run's canonical form, and
* ``salt`` is a code-version fingerprint: a SHA-256 over every
  ``repro`` source file (path + content).  Editing any simulation
  source lands subsequent runs in a fresh namespace, so stale results
  can never be served after a code change.  ``$REPRO_CACHE_SALT``
  overrides it (useful for tests and for pinning a namespace across
  checkouts known to be equivalent).

**Concurrent-writer safety (the store audit).**  Writes go to a temp
file created *in the destination directory* (same filesystem, so the
rename cannot degrade to copy+delete), are flushed and fsynced, then
published with ``os.replace`` -- atomic on POSIX.  The encoding is
canonical (sorted keys, fixed separators), so workers racing on the
same spec produce byte-identical files and the loser's rename is
harmless; a reader never observes a half-written artifact because the
only mutation of the final path is the atomic rename.  A cached
artifact whose recorded ``spec_hash`` disagrees with its address is
treated as corruption: dropped and recomputed, never returned.

**Garbage collection.**  Every cache hit re-stamps the artifact's
mtime (:func:`ResultCache.load`), so a file's mtime is its last-access
time and LRU eviction order is sound.  :meth:`ResultCache.gc` evicts
least-recently-used artifacts until the store fits ``max_bytes``
(and/or drops everything idle past ``max_age_seconds``); artifacts
pinned with :meth:`ResultCache.pin` are never evicted.  Hit/miss/
store/evict accounting is surfaced through ``repro cache stats|gc``
and the serve layer's ``serve_*`` counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from repro.runner.specs import RunSpec

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Artifact document schema version.
ARTIFACT_SCHEMA = 1

#: Pin-marker suffix: ``<spec-hash>.pin`` next to the artifact.
PIN_SUFFIX = ".pin"


@lru_cache(maxsize=1)
def source_tree_salt() -> str:
    """Fingerprint of the installed ``repro`` package sources."""
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root).as_posix()
        digest.update(relative.encode())
        digest.update(b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()[:16]


def encode_artifact(artifact: dict) -> bytes:
    """Canonical byte encoding of an artifact document.

    The same artifact always encodes to the same bytes; the test
    suite's determinism guard compares these encodings directly.
    """
    return json.dumps(artifact, sort_keys=True,
                      separators=(",", ":")).encode()


@dataclass
class GCReport:
    """What one :meth:`ResultCache.gc` pass did (or would do)."""

    scanned: int = 0
    scanned_bytes: int = 0
    evicted: int = 0
    evicted_bytes: int = 0
    pinned_kept: int = 0
    remaining_bytes: int = 0
    dry_run: bool = False
    evicted_hashes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-friendly form for reports and the CLI."""
        return {
            "scanned": self.scanned,
            "scanned_bytes": self.scanned_bytes,
            "evicted": self.evicted,
            "evicted_bytes": self.evicted_bytes,
            "pinned_kept": self.pinned_kept,
            "remaining_bytes": self.remaining_bytes,
            "dry_run": self.dry_run,
        }

    def summary(self) -> str:
        """One-line human rendering."""
        verb = "would evict" if self.dry_run else "evicted"
        return (f"cache gc: {verb} {self.evicted}/{self.scanned} "
                f"artifact(s), {self.evicted_bytes:,} of "
                f"{self.scanned_bytes:,} bytes "
                f"({self.pinned_kept} pinned kept, "
                f"{self.remaining_bytes:,} bytes remain)")


class ResultCache:
    """Content-addressed artifact store with hit/miss accounting."""

    def __init__(self, root: str | os.PathLike | None = None,
                 salt: str | None = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        if salt is None:
            salt = os.environ.get("REPRO_CACHE_SALT") or \
                source_tree_salt()
        self.root = Path(root)
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def path_for(self, spec: RunSpec) -> Path:
        """Where the artifact for ``spec`` lives (or would live)."""
        return self.path_for_hash(spec.content_hash())

    def path_for_hash(self, spec_hash: str) -> Path:
        """The artifact address of a bare content hash."""
        return (self.root / self.salt / spec_hash[:2] /
                f"{spec_hash}.json")

    def _touch(self, path: Path) -> None:
        """Re-stamp a hit artifact's mtime = last-access time.

        Best-effort: a read-only cache (or a concurrent eviction) must
        not turn a successful load into a failure.
        """
        try:
            os.utime(path, None)
        except OSError:
            pass

    def load(self, spec) -> dict | None:
        """The cached artifact for ``spec``, or ``None`` on miss.

        ``spec`` is anything with a ``content_hash()`` -- a
        :class:`RunSpec` or a :class:`~repro.runner.specs.CampaignSpec`.
        """
        return self.load_by_hash(spec.content_hash())

    def load_by_hash(self, spec_hash: str) -> dict | None:
        """Fetch an artifact by bare content hash (the serve layer's
        ``GET /v1/artifacts/<hash>`` path)."""
        path = self.path_for_hash(spec_hash)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            artifact = json.loads(raw)
            if artifact.get("spec_hash") != spec_hash:
                raise ValueError("artifact/address hash mismatch")
        except (ValueError, AttributeError):
            # Corrupt or foreign file at our address: drop and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        self._touch(path)
        return artifact

    def store(self, spec, artifact: dict) -> Path:
        """Atomically persist ``artifact`` for ``spec``.

        Safe under concurrent multi-process writers: the temp file
        lives in the destination directory, is fsynced before the
        ``os.replace``, and the canonical encoding makes racing
        writers byte-identical, so whichever rename lands last changes
        nothing.
        """
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = encode_artifact(artifact)
        handle, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(handle, "wb") as temp:
                temp.write(payload)
                temp.flush()
                os.fsync(temp.fileno())
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    def get_or_compute(self, spec, compute) -> dict:
        """Serve from cache, else run ``compute(spec, self)`` and
        persist its artifact.  ``compute`` receives the cache so jobs
        with dependencies (replay -> record) can reuse it."""
        artifact = self.load(spec)
        if artifact is not None:
            return artifact
        artifact = compute(spec, self)
        self.store(spec, artifact)
        return artifact

    # -- pinning --------------------------------------------------------

    def _pin_path(self, spec_hash: str) -> Path:
        return (self.root / self.salt / spec_hash[:2] /
                f"{spec_hash}{PIN_SUFFIX}")

    def pin(self, spec_hash: str) -> None:
        """Exempt an artifact from GC eviction."""
        path = self._pin_path(spec_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.touch()

    def unpin(self, spec_hash: str) -> None:
        """Remove an artifact's eviction exemption (idempotent)."""
        try:
            self._pin_path(spec_hash).unlink()
        except OSError:
            pass

    def is_pinned(self, spec_hash: str) -> bool:
        """Whether GC must keep this artifact."""
        return self._pin_path(spec_hash).exists()

    # -- stats & GC -----------------------------------------------------

    def _artifacts(self, all_salts: bool = True):
        """Yield ``(path, stat)`` for every artifact file on disk."""
        base = self.root if all_salts else self.root / self.salt
        if not base.is_dir():
            return
        for path in base.rglob("*.json"):
            if path.name.startswith(".tmp-"):
                continue
            try:
                yield path, path.stat()
            except OSError:
                continue  # concurrently evicted

    def stats(self) -> dict:
        """On-disk inventory plus this instance's counters."""
        per_salt: dict[str, dict] = {}
        total_files = 0
        total_bytes = 0
        pinned = 0
        for path, stat in self._artifacts():
            salt = path.parent.parent.name
            entry = per_salt.setdefault(
                salt, {"artifacts": 0, "bytes": 0, "pinned": 0})
            entry["artifacts"] += 1
            entry["bytes"] += stat.st_size
            if path.with_suffix(PIN_SUFFIX).exists():
                entry["pinned"] += 1
                pinned += 1
            total_files += 1
            total_bytes += stat.st_size
        return {
            "root": str(self.root),
            "salt": self.salt,
            "artifacts": total_files,
            "bytes": total_bytes,
            "pinned": pinned,
            "salts": per_salt,
            "counters": self.counters(),
        }

    def gc(self, max_bytes: int | None = None,
           max_age_seconds: float | None = None,
           dry_run: bool = False,
           now: float | None = None) -> GCReport:
        """Evict least-recently-used artifacts.

        Two independent policies compose: everything idle longer than
        ``max_age_seconds`` goes, then the oldest survivors go until
        at most ``max_bytes`` remain.  Pinned artifacts are always
        kept (and still count against ``max_bytes``, so a fully-pinned
        cache can legitimately exceed the budget).  ``dry_run``
        reports what would happen without unlinking anything.
        """
        now = time.time() if now is None else now
        entries = sorted(self._artifacts(),
                         key=lambda item: item[1].st_mtime)
        report = GCReport(dry_run=dry_run)
        report.scanned = len(entries)
        report.scanned_bytes = sum(s.st_size for _, s in entries)
        live_bytes = report.scanned_bytes

        def evict(path: Path, size: int) -> None:
            nonlocal live_bytes
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    return  # lost a race with another GC: not evicted
            report.evicted += 1
            report.evicted_bytes += size
            report.evicted_hashes.append(path.stem)
            live_bytes -= size
            self.evictions += 1

        for path, stat in entries:
            if path.with_suffix(PIN_SUFFIX).exists():
                report.pinned_kept += 1
                continue
            expired = (max_age_seconds is not None
                       and now - stat.st_mtime > max_age_seconds)
            over_budget = (max_bytes is not None
                           and live_bytes > max_bytes)
            if expired or over_budget:
                evict(path, stat.st_size)
        report.remaining_bytes = live_bytes
        return report

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict:
        """Hit/miss/store/evict counters (for metrics snapshots)."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "evictions": self.evictions}
