"""Tiered, budgeted, content-addressed artifact cache (DESIGN.md §12).

Full-scale table runs re-pay the interpreter for every workload and the
sampler for every cell on each invocation, even though cells are pure
functions of their configuration (see DESIGN.md §7).  This module stores the
expensive artifact kinds — dynamic traces (as their block sequence),
reference counts, per-cell :class:`~repro.core.stats.AccuracyStats`, and
fidelity scores — keyed by a SHA-256 digest of everything that determines
the result: workload, scale, uarch, method, period, seed range, plus the
package version (:mod:`repro._version`) and the cache format version, so a
code or format bump silently invalidates stale entries.

Architecture: an :class:`ArtifactCache` is an ordered stack of
:class:`CacheTier` instances, searched top-down on reads.  A hit at a lower
tier is promoted into every tier above it; writes go to every tier.  The
stock stack (built from a :class:`CacheConfig`) is:

* :class:`MemoryTier` — optional in-process hot tier holding the working
  set's raw bytes *and* their decoded objects (traces are decoded from npz
  once and shared read-only across the serve daemon's worker threads).
  Budgeted by entry count (``hot_entries``), LRU-evicted.
* :class:`DiskTier` — the persistent store.  Optionally budgeted by total
  bytes (``max_bytes``) with LRU eviction; *pinned* entries (in-flight
  cells, entries mid-``GET /v1/cache`` stream) are never evicted under
  their readers.
* :class:`RemoteTier` — cache federation (DESIGN.md §10): the
  ``GET/PUT /v1/cache/<kind>/<digest>`` routes of a :mod:`repro.serve`
  daemon.  Remote hits are promoted into the local tiers, local writes are
  pushed best-effort, and a dead or slow remote degrades to a local cache,
  never an error.

Eviction is invisible to correctness by construction: an evicted entry is
indistinguishable from one never cached, so a table built under a tiny
budget is byte-identical to one built unbounded — only slower.  Pinning
exists to keep the budget from thrashing the entries a cell is actively
using, not to protect correctness.

Design rules (unchanged from the single-tier store):

* **Atomic writes** — a *uniquely named* temp file + ``os.replace``, so a
  crashed run can never leave a truncated entry that looks valid and
  concurrent writers can race on the same digest without ever observing
  each other's partial bytes.
* **Corruption tolerance** — any unreadable, unparsable, or wrong-shaped
  entry is treated as a miss (``cache.corrupt``), never an error.  An
  entry evicted (or half-deleted) under a concurrent reader is a miss.
* **Versioned layout** — entries live under ``<root>/v<N>/<kind>/``;
  bumping :data:`CACHE_FORMAT_VERSION` orphans old entries rather than
  misreading them.

Observability: the aggregate ``cache.{hits,misses,writes,corrupt}``
counters are unchanged; every tier additionally feeds
``cache.<tier>.{hits,misses,evictions}`` counters and
``cache.<tier>.{bytes,entries}`` gauges into the :mod:`repro.obs` registry
(rendered on the serve daemon's Prometheus ``/metrics``), and
:meth:`ArtifactCache.stats` returns a per-tier breakdown
(``repro-pmu cache stats --json``, ``CACHE_STATS_SCHEMA_VERSION``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import tempfile
import threading
import urllib.error
import urllib.request
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from repro._version import __version__
from repro.errors import RequestError
from repro.obs import count, gauge

#: Bumped whenever the on-disk serialization changes shape.
CACHE_FORMAT_VERSION = 1

#: Version of the ``repro-pmu cache stats --json`` document.  Version 1
#: added ``schema_version`` and the per-tier ``tiers`` breakdown; the
#: original top-level fields (``root``/``entries``/``total_bytes``/
#: ``by_kind``) are preserved so existing consumers keep parsing.
CACHE_STATS_SCHEMA_VERSION = 1

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_DEFAULT_ROOT = "~/.cache/repro"

#: Entry kinds the store knows, with their on-disk suffixes.  The serve
#: daemon's federation routes accept exactly these kinds.
KIND_SUFFIXES: dict[str, str] = {
    "stats": ".json",
    "fidelity": ".json",
    "trace": ".npz",
    "reference": ".npz",
}

#: HTTP header carrying the SHA-256 of a federated entry's body bytes.
CHECKSUM_HEADER = "X-Repro-Sha256"

_DIGEST_RE = re.compile(r"[0-9a-f]{64}")


def body_sha256(data: bytes) -> str:
    """Hex SHA-256 of one federated entry body (transfer integrity)."""
    return hashlib.sha256(data).hexdigest()


def valid_entry_address(kind: str, digest: str) -> bool:
    """Whether (kind, digest) is a well-formed federation address."""
    return kind in KIND_SUFFIXES and bool(_DIGEST_RE.fullmatch(digest))


def default_cache_root() -> Path:
    """The cache root honoring ``REPRO_CACHE_DIR``."""
    return Path(os.environ.get(CACHE_DIR_ENV) or _DEFAULT_ROOT).expanduser()


def cache_digest(**fields: object) -> str:
    """SHA-256 digest of a canonical JSON encoding of ``fields``.

    The package version and cache format version are always mixed in, so
    entries never survive a code or format change.
    """
    payload = dict(fields)
    payload["code_version"] = __version__
    payload["cache_format"] = CACHE_FORMAT_VERSION
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- configuration ----------------------------------------------------------


@dataclass(frozen=True)
class CacheConfig:
    """Frozen description of one cache stack (budgets + remote).

    The one cache-shaping object threaded through :mod:`repro.api`, every
    CLI (``--cache-max-bytes`` / ``--cache-hot-entries``), and the
    parallel scheduler's worker dispatch.  Frozen and built from plain
    values, so it pickles across process boundaries unchanged.  Budgeted
    tiers evict least-recently-used entries first and never evict a
    pinned one.
    """

    #: Cache root directory (``None``: ``~/.cache/repro`` or
    #: ``$REPRO_CACHE_DIR``).
    root: str | None = None
    #: Disk-tier byte budget (``None``: unbounded, today's behavior).
    max_bytes: int | None = None
    #: Memory hot-tier entry budget (``0``: no hot tier).
    hot_entries: int = 0
    #: Base URL of a federation hub daemon (``None``: no remote tier).
    remote: str | None = None
    #: Socket timeout for remote-tier transfers.
    remote_timeout_s: float = 10.0

    #: JSON field names, in canonical order.
    FIELDS = ("root", "max_bytes", "hot_entries", "remote",
              "remote_timeout_s")

    def __post_init__(self) -> None:
        if self.max_bytes is not None and (
                not isinstance(self.max_bytes, int)
                or isinstance(self.max_bytes, bool) or self.max_bytes <= 0):
            raise RequestError("cache max_bytes must be a positive integer "
                               "or null")
        if (not isinstance(self.hot_entries, int)
                or isinstance(self.hot_entries, bool)
                or self.hot_entries < 0):
            raise RequestError("cache hot_entries must be a non-negative "
                               "integer")
        if not (isinstance(self.remote_timeout_s, (int, float))
                and not isinstance(self.remote_timeout_s, bool)
                and self.remote_timeout_s > 0):
            raise RequestError("cache remote_timeout_s must be positive")

    def to_dict(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def from_dict(cls, data: object) -> "CacheConfig":
        """Parse a config document; unknown fields are rejected (they
        usually mean the document was written by a newer build)."""
        if not isinstance(data, dict):
            raise RequestError("cache config must be a JSON object")
        unknown = set(data) - set(cls.FIELDS)
        if unknown:
            raise RequestError(
                f"unknown cache config field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**data)

    def build(self) -> "ArtifactCache":
        """An :class:`ArtifactCache` realizing this configuration."""
        return ArtifactCache(config=self)


# -- per-tier statistics ----------------------------------------------------


@dataclass(frozen=True)
class TierStats:
    """One tier's traffic tallies and occupancy snapshot."""

    tier: str
    hits: int
    misses: int
    evictions: int
    bytes: int
    entries: int
    pinned: int = 0
    max_bytes: int | None = None
    max_entries: int | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "tier": self.tier,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bytes": self.bytes,
            "entries": self.entries,
            "pinned": self.pinned,
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
        }


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of one cache store (``repro-pmu cache stats``)."""

    root: str
    entries: int
    total_bytes: int
    by_kind: dict[str, int]
    tiers: tuple[TierStats, ...] = ()

    def render(self) -> str:
        lines = [f"cache root: {self.root}",
                 f"entries:    {self.entries}",
                 f"size:       {self.total_bytes:,} bytes"]
        for kind, n in sorted(self.by_kind.items()):
            lines.append(f"  {kind:12s} {n}")
        for tier in self.tiers:
            budget = ""
            if tier.max_bytes is not None:
                budget = f" / budget {tier.max_bytes:,} bytes"
            if tier.max_entries is not None:
                budget = f" / budget {tier.max_entries} entries"
            lines.append(
                f"tier {tier.tier:6s} {tier.entries} entries, "
                f"{tier.bytes:,} bytes{budget}; "
                f"{tier.hits} hits, {tier.misses} misses, "
                f"{tier.evictions} evictions"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        """Machine-readable form (``repro-pmu cache stats --json``).

        Versioned: ``schema_version`` is
        :data:`CACHE_STATS_SCHEMA_VERSION`; the pre-versioning top-level
        fields are preserved verbatim, the per-tier breakdown is additive.
        """
        return {
            "schema_version": CACHE_STATS_SCHEMA_VERSION,
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "by_kind": dict(sorted(self.by_kind.items())),
            "tiers": [tier.to_dict() for tier in self.tiers],
        }


# -- the tier protocol ------------------------------------------------------


class CacheTier:
    """One layer of an :class:`ArtifactCache` stack.

    The formal contract extracted from the old private ``_load``/``_store``
    hooks: a tier moves raw entry *bytes* addressed by ``(kind, digest)``
    and knows nothing about formats — parsing, corruption-as-miss, and the
    aggregate counters live in :class:`ArtifactCache` above.

    Contract:

    * :meth:`load` returns the entry bytes or ``None`` (miss); it must
      never raise for a missing, corrupt, or concurrently-evicted entry.
    * :meth:`store` is atomic-or-best-effort: readers never observe a
      torn entry, and a failing backing store (a dead remote) degrades to
      a no-op, never an error.
    * :meth:`pin`/:meth:`unpin` bracket an in-flight reader; a budgeted
      tier must not evict a pinned entry.  Pins are refcounted and may
      address entries that do not exist (yet).
    * :meth:`evict` removes one entry if present and unpinned; budgeted
      tiers also evict autonomously to stay within budget.
    * :meth:`stats` snapshots the tier's tallies without side effects.
    """

    #: Display name; also the obs namespace (``cache.<name>.*``).
    name = "tier"
    #: Whether the tier crosses the network (skipped by local-only reads).
    remote = False

    def load(self, kind: str, digest: str) -> bytes | None:
        raise NotImplementedError

    def store(self, kind: str, digest: str, data: bytes) -> None:
        raise NotImplementedError

    def contains(self, kind: str, digest: str) -> bool:
        raise NotImplementedError

    def evict(self, kind: str, digest: str) -> bool:
        return False

    def pin(self, kind: str, digest: str) -> None:
        pass

    def unpin(self, kind: str, digest: str) -> None:
        pass

    def stats(self) -> TierStats:
        raise NotImplementedError

    def refresh_gauges(self) -> None:
        """Re-publish the tier's occupancy gauges to the obs registry."""
        snapshot = self.stats()
        gauge(f"cache.{self.name}.bytes", snapshot.bytes)
        gauge(f"cache.{self.name}.entries", snapshot.entries)

    # -- tally helpers -----------------------------------------------------

    def _record_hit(self) -> None:
        self._hits += 1
        count(f"cache.{self.name}.hits")

    def _record_miss(self) -> None:
        self._misses += 1
        count(f"cache.{self.name}.misses")

    def _record_eviction(self, n: int = 1) -> None:
        self._evictions += n
        count(f"cache.{self.name}.evictions", n)


class _PinBook:
    """Refcounted pin bookkeeping shared by the budgeted tiers.

    Callers must hold the owning tier's lock.
    """

    def __init__(self) -> None:
        self._pins: dict[tuple[str, str], int] = {}

    def pin(self, key: tuple[str, str]) -> None:
        self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: tuple[str, str]) -> None:
        remaining = self._pins.get(key, 0) - 1
        if remaining <= 0:
            self._pins.pop(key, None)
        else:
            self._pins[key] = remaining

    def pinned(self, key: tuple[str, str]) -> bool:
        return self._pins.get(key, 0) > 0

    def __len__(self) -> int:
        return len(self._pins)


class MemoryTier(CacheTier):
    """In-process hot tier: entry-count-budgeted LRU over raw bytes plus
    their decoded objects.

    The decoded slot is the "decode once" half of the design: the serve
    daemon's worker threads share one :class:`ArtifactCache`, so the hot
    working set's traces/references/stats are parsed from their npz/JSON
    bytes a single time and the resulting objects are handed out to every
    thread.  Shared objects are read-only by convention (the simulator
    never mutates a trace; stats objects are frozen dataclasses).

    Thread-safe; all operations are O(1) under one lock.
    """

    name = "mem"

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise RequestError("memory tier needs max_entries >= 1")
        self.max_entries = max_entries
        self._lock = threading.RLock()
        #: key -> [bytes, decoded | None]; insertion order is LRU order.
        self._entries: "OrderedDict[tuple[str, str], list]" = OrderedDict()
        self._bytes = 0
        self._pin_book = _PinBook()
        self._hits = self._misses = self._evictions = 0

    def load(self, kind: str, digest: str) -> bytes | None:
        key = (kind, digest)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._record_miss()
                return None
            self._entries.move_to_end(key)
            self._record_hit()
            return entry[0]

    def store(self, kind: str, digest: str, data: bytes) -> None:
        key = (kind, digest)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old[0])
            self._entries[key] = [data, None]
            self._bytes += len(data)
            self._enforce()
            self._publish_gauges()

    def contains(self, kind: str, digest: str) -> bool:
        with self._lock:
            return (kind, digest) in self._entries

    def evict(self, kind: str, digest: str) -> bool:
        key = (kind, digest)
        with self._lock:
            if key not in self._entries or self._pin_book.pinned(key):
                return False
            self._bytes -= len(self._entries.pop(key)[0])
            self._record_eviction()
            self._publish_gauges()
            return True

    def pin(self, kind: str, digest: str) -> None:
        with self._lock:
            self._pin_book.pin((kind, digest))

    def unpin(self, kind: str, digest: str) -> None:
        with self._lock:
            self._pin_book.unpin((kind, digest))
            self._enforce()

    # -- decoded-object memo ----------------------------------------------

    def get_decoded(self, kind: str, digest: str) -> object | None:
        """The decoded object of one entry, or ``None``.

        A decoded hit counts as a tier hit (and refreshes recency); a
        miss is silent — the byte-level :meth:`load` that follows does
        the miss accounting, so one logical lookup never counts twice.
        """
        key = (kind, digest)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[1] is None:
                return None
            self._entries.move_to_end(key)
            self._record_hit()
            return entry[1]

    def attach_decoded(self, kind: str, digest: str, obj: object) -> None:
        """Remember the decoded form of an already-stored entry."""
        with self._lock:
            entry = self._entries.get((kind, digest))
            if entry is not None:
                entry[1] = obj

    # -- internals ---------------------------------------------------------

    def _enforce(self) -> None:
        # LRU sweep; pinned entries are skipped (the budget may overshoot
        # while pins are held and is re-enforced at unpin).
        while len(self._entries) > self.max_entries:
            victim = next((key for key in self._entries
                           if not self._pin_book.pinned(key)), None)
            if victim is None:
                return
            self._bytes -= len(self._entries.pop(victim)[0])
            self._record_eviction()

    def _publish_gauges(self) -> None:
        gauge(f"cache.{self.name}.bytes", self._bytes)
        gauge(f"cache.{self.name}.entries", len(self._entries))

    def stats(self) -> TierStats:
        with self._lock:
            return TierStats(
                tier=self.name, hits=self._hits, misses=self._misses,
                evictions=self._evictions, bytes=self._bytes,
                entries=len(self._entries), pinned=len(self._pin_book),
                max_entries=self.max_entries,
            )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._publish_gauges()


class DiskTier(CacheTier):
    """The persistent store, optionally byte-budgeted with LRU eviction.

    Layout and atomicity are exactly the pre-tier store's: one file per
    entry under ``<store_dir>/<kind>/<digest[:2]>/``, published with a
    unique-temp-file + ``os.replace`` dance so concurrent writers (serve
    worker threads, parallel table builds) can race on a digest without
    ever exposing partial bytes.

    LRU accounting lives in memory, seeded lazily from one directory scan
    (mtime order) per process.  The accounting is advisory, not
    authoritative: an entry deleted behind the tier's back (another
    process's eviction, a manual ``rm``) simply loads as a miss and the
    books are repaired in place.  ``max_bytes=None`` disables eviction —
    the unbounded pre-tier behavior — and then nothing needs the books
    until :meth:`stats`, :meth:`trim` or :meth:`evict` asks for them, so
    entry traffic never walks the store; once seeded they are kept
    current.
    """

    name = "disk"

    def __init__(self, store_dir: str | Path,
                 max_bytes: int | None = None) -> None:
        self.store_dir = Path(store_dir)
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        self._lru: "OrderedDict[tuple[str, str], int]" = OrderedDict()
        self._total = 0
        self._scanned = False
        self._pin_book = _PinBook()
        self._hits = self._misses = self._evictions = 0

    def path(self, kind: str, digest: str) -> Path:
        # Two-level fan-out keeps directories small at full scale.
        return (self.store_dir / kind / digest[:2]
                / f"{digest}{KIND_SUFFIXES[kind]}")

    # -- entry traffic -----------------------------------------------------

    def load(self, kind: str, digest: str) -> bytes | None:
        key = (kind, digest)
        try:
            data = self.path(kind, digest).read_bytes()
        except OSError:
            with self._lock:
                self._forget(key)
                self._record_miss()
            return None
        with self._lock:
            if self._keeps_books():
                self._account(key, len(data))
                self._lru.move_to_end(key)
            self._record_hit()
        return data

    def store(self, kind: str, digest: str, data: bytes) -> None:
        self._write_atomic(self.path(kind, digest), data)
        count("cache.writes")
        with self._lock:
            if self._keeps_books():
                self._account(key := (kind, digest), len(data))
                self._lru.move_to_end(key)
                self._enforce()
                self._publish_gauges()

    def contains(self, kind: str, digest: str) -> bool:
        return self.path(kind, digest).is_file()

    def evict(self, kind: str, digest: str) -> bool:
        key = (kind, digest)
        with self._lock:
            self._ensure_scanned()
            if self._pin_book.pinned(key):
                return False
            present = key in self._lru or self.contains(kind, digest)
            if not present:
                return False
            self._delete(key)
            self._record_eviction()
            self._publish_gauges()
            return True

    def pin(self, kind: str, digest: str) -> None:
        with self._lock:
            self._pin_book.pin((kind, digest))

    def unpin(self, kind: str, digest: str) -> None:
        with self._lock:
            self._pin_book.unpin((kind, digest))
            # Pins may have carried the tier over budget; settle up now.
            if self._scanned:
                self._enforce()
                self._publish_gauges()

    def trim(self) -> int:
        """Enforce the budget once, now; returns entries evicted."""
        with self._lock:
            self._ensure_scanned()
            evicted = self._enforce()
            self._publish_gauges()
            return evicted

    # -- accounting --------------------------------------------------------

    def _keeps_books(self) -> bool:
        """Whether entry traffic must update the LRU books: always under
        a budget (seeding them on first use), otherwise only once they
        have been seeded."""
        if self.max_bytes is not None:
            self._ensure_scanned()
        return self._scanned

    def _ensure_scanned(self) -> None:
        if self._scanned:
            return
        self._scanned = True
        found: list[tuple[float, tuple[str, str], int]] = []
        if self.store_dir.is_dir():
            for kind, suffix in KIND_SUFFIXES.items():
                kind_dir = self.store_dir / kind
                if not kind_dir.is_dir():
                    continue
                for path in kind_dir.rglob(f"*{suffix}"):
                    digest = path.name[: -len(suffix)]
                    if not _DIGEST_RE.fullmatch(digest):
                        continue
                    try:
                        stat = path.stat()
                    except OSError:
                        continue
                    found.append((stat.st_mtime, (kind, digest),
                                  stat.st_size))
        # Oldest first: a fresh process treats pre-existing entries as
        # least-recently used in their on-disk age order.
        for _, key, size in sorted(found, key=lambda item: item[0]):
            if key not in self._lru:
                self._lru[key] = size
                self._total += size

    def _account(self, key: tuple[str, str], size: int) -> None:
        previous = self._lru.get(key)
        if previous is not None:
            self._total -= previous
        self._lru[key] = size
        self._total += size

    def _forget(self, key: tuple[str, str]) -> None:
        size = self._lru.pop(key, None)
        if size is not None:
            self._total -= size

    def _delete(self, key: tuple[str, str]) -> None:
        self._forget(key)
        with contextlib.suppress(OSError):
            os.unlink(self.path(*key))

    def _enforce(self) -> int:
        if self.max_bytes is None:
            return 0
        evicted = 0
        for key in list(self._lru):           # oldest (LRU) first
            if self._total <= self.max_bytes:
                break
            if self._pin_book.pinned(key):
                continue
            self._delete(key)
            evicted += 1
        if evicted:
            self._record_eviction(evicted)
        return evicted

    def _publish_gauges(self) -> None:
        gauge(f"cache.{self.name}.bytes", self._total)
        gauge(f"cache.{self.name}.entries", len(self._lru))

    def _write_atomic(self, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # The temp name must be unique per writer: a fixed ".tmp" suffix
        # lets two threads/processes storing the same digest interleave
        # write and rename, publishing a torn entry.  mkstemp gives each
        # writer a private file in the target directory (same filesystem,
        # so the final os.replace stays atomic).
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise

    def stats(self) -> TierStats:
        with self._lock:
            self._ensure_scanned()
            return TierStats(
                tier=self.name, hits=self._hits, misses=self._misses,
                evictions=self._evictions, bytes=self._total,
                entries=len(self._lru), pinned=len(self._pin_book),
                max_bytes=self.max_bytes,
            )

    def reset_accounting(self) -> None:
        """Drop the in-memory books (after an external clear)."""
        with self._lock:
            self._lru.clear()
            self._total = 0
            self._scanned = False


class RemoteTier(CacheTier):
    """Cache federation as a tier: a serve daemon's ``/v1/cache`` routes.

    ``remote_url`` is the base URL of a :mod:`repro.serve` daemon.  Every
    body travels with its SHA-256 in the ``X-Repro-Sha256`` header; a
    missing or mismatched checksum is a miss (``cache.remote_corrupt``),
    exactly like a corrupt local entry.  Writes are best-effort: a dead or
    slow hub degrades the stack to a plain local cache, never an error.

    Budgets, eviction, and pinning are the *hub's* concern — this tier is
    a transport, so those methods are no-ops here.
    """

    name = "remote"
    remote = True

    def __init__(self, remote_url: str, timeout_s: float = 10.0) -> None:
        self.remote_url = remote_url.rstrip("/")
        self.timeout_s = timeout_s
        self._hits = self._misses = self._evictions = 0
        self._lock = threading.Lock()

    def _entry_url(self, kind: str, digest: str) -> str:
        return f"{self.remote_url}/v1/cache/{kind}/{digest}"

    def load(self, kind: str, digest: str) -> bytes | None:
        if not valid_entry_address(kind, digest):
            return None
        request = urllib.request.Request(self._entry_url(kind, digest))
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as response:
                data = response.read()
                checksum = response.headers.get(CHECKSUM_HEADER)
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code == 404:
                count("cache.remote_misses")
                self._tally_miss()
            else:
                count("cache.remote_errors")
            return None
        except (urllib.error.URLError, OSError, TimeoutError):
            count("cache.remote_errors")
            return None
        if checksum != body_sha256(data):
            count("cache.remote_corrupt")
            self._tally_miss()
            return None
        count("cache.remote_hits")
        with self._lock:
            self._hits += 1
        count(f"cache.{self.name}.hits")
        return data

    def store(self, kind: str, digest: str, data: bytes) -> None:
        if not valid_entry_address(kind, digest):
            return
        request = urllib.request.Request(
            self._entry_url(kind, digest),
            data=data,
            method="PUT",
            headers={
                "Content-Type": "application/octet-stream",
                CHECKSUM_HEADER: body_sha256(data),
            },
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s):
                pass
        except (urllib.error.URLError, OSError, TimeoutError):
            count("cache.remote_errors")
            return
        count("cache.remote_writes")

    def contains(self, kind: str, digest: str) -> bool:
        """Whether the hub holds the entry.  Transfers the body (the
        federation routes have no HEAD); prefer :meth:`load`."""
        return self.load(kind, digest) is not None

    def _tally_miss(self) -> None:
        with self._lock:
            self._misses += 1
        count(f"cache.{self.name}.misses")

    def stats(self) -> TierStats:
        with self._lock:
            return TierStats(
                tier=self.name, hits=self._hits, misses=self._misses,
                evictions=0, bytes=0, entries=0,
            )

    def refresh_gauges(self) -> None:
        pass                       # a transport has no occupancy to report


# -- the stack --------------------------------------------------------------


class ArtifactCache:
    """Content-addressed store for traces, references, and stats — an
    ordered stack of :class:`CacheTier` layers.

    All ``get_*`` methods return ``None`` on a miss *or* on a corrupt
    entry; all ``put_*`` methods write atomically.  Hits, misses, writes,
    and corrupt loads flow into the :mod:`repro.obs` counters
    ``cache.hits`` / ``cache.misses`` / ``cache.writes`` /
    ``cache.corrupt`` (one logical count per lookup, regardless of which
    tier answered), and each tier keeps its own ``cache.<tier>.*``
    tallies.

    ``config`` (a :class:`CacheConfig`) shapes the stock stack; ``tiers``
    substitutes an explicit stack (highest first) for tests and exotic
    topologies.  The explicit ``root`` argument wins over ``config.root``.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        config: CacheConfig | None = None,
        tiers: "tuple[CacheTier, ...] | list[CacheTier] | None" = None,
    ) -> None:
        self.config = config or CacheConfig()
        if root is None and self.config.root:
            root = self.config.root
        #: The user-facing root (version directory lives below it).
        self.root = Path(root).expanduser() if root else default_cache_root()
        self.store_dir = self.root / f"v{CACHE_FORMAT_VERSION}"
        if tiers is None:
            tiers = []
            if self.config.hot_entries > 0:
                tiers.append(MemoryTier(self.config.hot_entries))
            tiers.append(DiskTier(self.store_dir,
                                  max_bytes=self.config.max_bytes))
            if self.config.remote:
                tiers.append(RemoteTier(
                    self.config.remote,
                    timeout_s=self.config.remote_timeout_s,
                ))
        self.tiers: tuple[CacheTier, ...] = tuple(tiers)
        self._memory = next(
            (t for t in self.tiers if isinstance(t, MemoryTier)), None)
        self._disk = next(
            (t for t in self.tiers if isinstance(t, DiskTier)), None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stack = "+".join(tier.name for tier in self.tiers)
        return f"<ArtifactCache {self.root} [{stack}]>"

    def describe(self) -> CacheConfig:
        """This cache's :class:`CacheConfig` with the root made concrete —
        the picklable form the parallel scheduler ships to workers."""
        return replace(self.config, root=str(self.root))

    # -- tier traversal ----------------------------------------------------

    def _load(self, kind: str, digest: str,
              local_only: bool = False) -> bytes | None:
        """Walk the stack top-down; promote a hit into the tiers above."""
        for index, tier in enumerate(self.tiers):
            if local_only and tier.remote:
                continue
            data = tier.load(kind, digest)
            if data is None:
                continue
            for upper in self.tiers[:index]:
                upper.store(kind, digest, data)
            return data
        return None

    def _store(self, kind: str, digest: str, data: bytes,
               local_only: bool = False) -> None:
        """Write one entry into every tier."""
        for tier in self.tiers:
            if local_only and tier.remote:
                continue
            tier.store(kind, digest, data)

    def _decoded(self, kind: str, digest: str) -> object | None:
        if self._memory is None:
            return None
        return self._memory.get_decoded(kind, digest)

    def _attach_decoded(self, kind: str, digest: str, obj: object) -> None:
        if self._memory is not None:
            self._memory.attach_decoded(kind, digest, obj)

    def _hit(self) -> None:
        count("cache.hits")

    def _miss(self, corrupt: bool = False) -> None:
        count("cache.misses")
        if corrupt:
            count("cache.corrupt")

    # -- pinning -----------------------------------------------------------

    @contextlib.contextmanager
    def pin_entry(self, kind: str, digest: str) -> Iterator[None]:
        """Pin one entry in every tier for the duration of the block.

        Pinned entries survive budget eviction, so an in-flight reader — a
        cell mid-evaluation, a federation ``GET`` mid-stream — never has
        the ground pulled from under it.  Pinning an absent entry is
        allowed (it protects the store that follows).
        """
        for tier in self.tiers:
            tier.pin(kind, digest)
        try:
            yield
        finally:
            for tier in self.tiers:
                tier.unpin(kind, digest)

    @contextlib.contextmanager
    def pinned(self, *addresses: tuple[str, str]) -> Iterator[None]:
        """Pin several ``(kind, digest)`` entries at once."""
        with contextlib.ExitStack() as stack:
            for kind, digest in addresses:
                stack.enter_context(self.pin_entry(kind, digest))
            yield

    # -- federation entry access (the serve daemon's cache routes) ---------

    def read_entry(self, kind: str, digest: str) -> bytes | None:
        """Raw bytes of one *local* entry for ``GET /v1/cache/…``.

        Always answers from the local tiers (never a remote one), so
        federated daemons cannot loop through each other.  Unknown kinds
        and malformed digests are ``None``, as is a missing entry.
        """
        if not valid_entry_address(kind, digest):
            return None
        return self._load(kind, digest, local_only=True)

    def write_entry(self, kind: str, digest: str, data: bytes) -> bool:
        """Store raw entry bytes for ``PUT /v1/cache/…`` (atomic).

        Returns ``False`` for a malformed address instead of writing
        outside the keyspace.  Corrupt payloads are tolerated by design:
        readers treat unparsable entries as misses.  Local tiers only —
        accepting a federated PUT must not re-publish it.
        """
        if not valid_entry_address(kind, digest):
            return False
        self._store(kind, digest, data, local_only=True)
        return True

    # -- accuracy stats ----------------------------------------------------

    def get_stats(self, digest: str):
        """Load one cell's :class:`AccuracyStats`, or ``None`` on a miss."""
        from repro.core.stats import AccuracyStats  # lazy: keep import light

        decoded = self._decoded("stats", digest)
        if decoded is not None:
            self._hit()
            return decoded
        data = self._load("stats", digest)
        if data is None:
            self._miss()
            return None
        try:
            document = json.loads(data.decode("utf-8"))
            if document["format"] != CACHE_FORMAT_VERSION:
                raise ValueError("format mismatch")
            stats = AccuracyStats(
                method=document["method"],
                errors=tuple(float(e) for e in document["errors"]),
            )
        except Exception:
            self._miss(corrupt=True)
            return None
        self._attach_decoded("stats", digest, stats)
        self._hit()
        return stats

    def put_stats(self, digest: str, stats) -> None:
        """Persist one cell's :class:`AccuracyStats`."""
        document = {
            "format": CACHE_FORMAT_VERSION,
            "method": stats.method,
            "errors": list(stats.errors),
        }
        self._store("stats", digest, json.dumps(document).encode("utf-8"))
        self._attach_decoded("stats", digest, stats)

    # -- fidelity stats ----------------------------------------------------

    def get_fidelity(self, digest: str):
        """Load one cell's :class:`FidelityStats`, or ``None`` on a miss."""
        from repro.fidelity.stats import FidelityStats  # lazy: keep import light

        decoded = self._decoded("fidelity", digest)
        if decoded is not None:
            self._hit()
            return decoded
        data = self._load("fidelity", digest)
        if data is None:
            self._miss()
            return None
        try:
            document = json.loads(data.decode("utf-8"))
            if document.pop("format") != CACHE_FORMAT_VERSION:
                raise ValueError("format mismatch")
            stats = FidelityStats.from_dict(document)
        except Exception:
            self._miss(corrupt=True)
            return None
        self._attach_decoded("fidelity", digest, stats)
        self._hit()
        return stats

    def put_fidelity(self, digest: str, stats) -> None:
        """Persist one cell's :class:`FidelityStats`."""
        document = {"format": CACHE_FORMAT_VERSION, **stats.to_dict()}
        self._store("fidelity", digest, json.dumps(document).encode("utf-8"))
        self._attach_decoded("fidelity", digest, stats)

    # -- numpy arrays (traces, reference counts) ---------------------------

    def get_arrays(
        self, kind: str, digest: str, names: tuple[str, ...]
    ) -> dict[str, np.ndarray] | None:
        """Load a named-array bundle, or ``None`` on miss/corruption.

        Every requested name must be present; anything else — missing
        file, bad zip, missing member — is a miss.  With a memory hot
        tier, the npz is decoded once and the arrays are shared across
        callers (read-only by convention).
        """
        decoded = self._decoded(kind, digest)
        if isinstance(decoded, dict) and all(n in decoded for n in names):
            self._hit()
            return {name: decoded[name] for name in names}
        data = self._load(kind, digest)
        if data is None:
            self._miss()
            return None
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except Exception:
            self._miss(corrupt=True)
            return None
        if any(name not in arrays for name in names):
            self._miss(corrupt=True)
            return None
        self._attach_decoded(kind, digest, arrays)
        self._hit()
        return {name: arrays[name] for name in names}

    def put_arrays(self, kind: str, digest: str, **arrays: np.ndarray) -> None:
        """Persist a named-array bundle (compressed npz)."""
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        self._store(kind, digest, buffer.getvalue())
        self._attach_decoded(kind, digest, dict(arrays))

    # -- maintenance -------------------------------------------------------

    def enforce_budget(self) -> int:
        """Apply the disk tier's byte budget once (``cache trim``);
        returns the number of entries evicted."""
        return 0 if self._disk is None else self._disk.trim()

    def refresh_gauges(self) -> None:
        """Re-publish every tier's occupancy gauges (scrape time)."""
        for tier in self.tiers:
            tier.refresh_gauges()

    def stats(self) -> CacheStats:
        """Entry counts and byte totals of the current format version,
        plus the per-tier breakdown."""
        entries = 0
        total = 0
        by_kind: dict[str, int] = {}
        if self.store_dir.is_dir():
            for kind_dir in sorted(self.store_dir.iterdir()):
                if not kind_dir.is_dir():
                    continue
                for path in kind_dir.rglob("*"):
                    if path.is_file() and not path.name.endswith(".tmp"):
                        entries += 1
                        total += path.stat().st_size
                        by_kind[kind_dir.name] = \
                            by_kind.get(kind_dir.name, 0) + 1
        return CacheStats(root=str(self.root), entries=entries,
                          total_bytes=total, by_kind=by_kind,
                          tiers=tuple(tier.stats() for tier in self.tiers))

    def clear(self) -> int:
        """Delete every entry (all format versions); returns entries removed."""
        removed = self.stats().entries
        if self.root.is_dir():
            for child in self.root.iterdir():
                if child.is_dir() and child.name.startswith("v"):
                    shutil.rmtree(child, ignore_errors=True)
        if self._memory is not None:
            self._memory.clear()
        if self._disk is not None:
            self._disk.reset_accounting()
        return removed


def resolve_cache(
    cache: "ArtifactCache | CacheConfig | str | Path | bool | None",
) -> ArtifactCache | None:
    """Normalize user-facing cache arguments.

    ``None``/``False`` disable caching, ``True`` uses the default root
    (unbounded), a path opens a store there, a :class:`CacheConfig` builds
    its described stack, and an :class:`ArtifactCache` passes through.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ArtifactCache()
    if isinstance(cache, CacheConfig):
        return cache.build()
    if isinstance(cache, ArtifactCache):
        return cache
    return ArtifactCache(cache)
