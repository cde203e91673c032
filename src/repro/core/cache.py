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

Architecture: an :class:`ArtifactCache` is a stack of tiers that only move
raw entry bytes addressed by ``(kind, digest)``; the stack alone decides,
counts and pins each lookup.  Built from a :class:`CacheConfig`, it is, top
down:

* :class:`MemoryTier` — optional in-process hot tier holding the working
  set's raw bytes *and* their decoded objects (traces are decoded from npz
  once and shared read-only across the serve daemon's worker threads).
  Budgeted by entry count (``hot_entries``), LRU-evicted.
* :class:`DiskTier` — the persistent store.  Optionally budgeted by total
  bytes (``max_bytes``) with LRU eviction.
* :class:`RemoteTier` — cache federation (DESIGN.md §10): the
  ``GET/PUT /v1/cache/<kind>/<digest>`` routes of a :mod:`repro.serve`
  daemon.  Remote hits are promoted into the local tiers, local writes are
  pushed best-effort, and a dead or slow remote degrades to a local cache,
  never an error.

A lookup checks the hot tier's decoded memo, walks the tiers top-down
(promoting a hit into every tier above it), decodes, and counts itself
once; writes go to every tier.  *Pinned* entries (in-flight cells, entries
mid-``GET /v1/cache`` stream) sit in one refcount map owned by the stack,
which the budgeted tiers consult when they evict.

Eviction is invisible to correctness by construction: an evicted entry is
indistinguishable from one never cached, so a table built under a tiny
budget is byte-identical to one built unbounded — only slower.  Pinning
exists to keep the budget from thrashing the entries a cell is actively
using, not to protect correctness.

Design rules (unchanged from the single-tier store):

* **Atomic writes** — a *uniquely named* temp file + ``os.replace``
  (:func:`~repro.obs.manifest.write_atomic`), so a crashed run can never
  leave a truncated entry that looks valid and concurrent writers can race
  on the same digest without ever observing each other's partial bytes.
* **Corruption tolerance** — any unreadable, unparsable, or wrong-shaped
  entry is treated as a miss (``cache.corrupt``), never an error.  An
  entry evicted (or half-deleted) under a concurrent reader is a miss.
* **Versioned layout** — entries live under ``<root>/v<N>/<kind>/``;
  bumping :data:`CACHE_FORMAT_VERSION` orphans old entries rather than
  misreading them.

Observability: each lookup adds one to ``cache.hits`` or ``cache.misses``
(and to ``cache.corrupt`` when the bytes found do not decode), one to
``cache.<tier>.hits`` for the tier that answered and one to
``cache.<tier>.misses`` for every tier it passed.  So, by construction,
``cache.hits + cache.corrupt`` is the sum of the tier hits and
``cache.misses - cache.corrupt`` is the last tier's misses.  The budgeted
tiers also feed ``cache.<tier>.evictions`` and the
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
import threading
import urllib.error
import urllib.request
from collections import Counter, OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from repro._version import __version__
from repro.errors import RequestError
from repro.obs import count, gauge
from repro.obs.manifest import write_atomic

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


# -- the tiers: byte stores -------------------------------------------------
#
# A tier's ``load`` returns an entry's bytes or ``None`` and never raises for
# a missing, corrupt or concurrently evicted entry; its ``store`` is atomic
# or best-effort; its ``stats`` snapshots occupancy.  The hit and miss
# tallies of a TierStats are the stack's (ArtifactCache.stats fills them).
# The budgeted tiers take the stack's pin map and lock: the lock guards
# their books too, so a pin and an eviction never interleave.


class MemoryTier:
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

    def __init__(self, max_entries: int,
                 pins: dict[tuple[str, str], int] | None = None,
                 lock: threading.RLock | None = None) -> None:
        if max_entries < 1:
            raise RequestError("memory tier needs max_entries >= 1")
        self.max_entries = max_entries
        self._pins = {} if pins is None else pins
        self._lock = threading.RLock() if lock is None else lock
        #: key -> [bytes, decoded | None]; insertion order is LRU order.
        self._entries: "OrderedDict[tuple[str, str], list]" = OrderedDict()
        self._bytes = 0
        self._evictions = 0

    def load(self, kind: str, digest: str) -> bytes | None:
        key = (kind, digest)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
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
            self.refresh_gauges()

    def decoded(self, kind: str, digest: str) -> object | None:
        """The decoded object of one entry (refreshing its recency), or
        ``None`` when the entry or its decoded form is absent."""
        key = (kind, digest)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[1] is None:
                return None
            self._entries.move_to_end(key)
            return entry[1]

    def attach(self, kind: str, digest: str, obj: object) -> None:
        """Remember the decoded form of an already-stored entry."""
        with self._lock:
            entry = self._entries.get((kind, digest))
            if entry is not None:
                entry[1] = obj

    def settle(self) -> None:
        """Apply the budget again (a released pin may have held it over)."""
        with self._lock:
            self._enforce()

    def _enforce(self) -> None:
        # LRU sweep; pinned entries are skipped (the budget may overshoot
        # while pins are held and is settled when the last one goes).
        while len(self._entries) > self.max_entries:
            victim = next((key for key in self._entries
                           if key not in self._pins), None)
            if victim is None:
                return
            self._bytes -= len(self._entries.pop(victim)[0])
            self._evictions += 1
            count("cache.mem.evictions")

    def refresh_gauges(self) -> None:
        """Publish the occupancy gauges to the obs registry."""
        with self._lock:
            gauge("cache.mem.bytes", self._bytes)
            gauge("cache.mem.entries", len(self._entries))

    def stats(self) -> TierStats:
        with self._lock:
            return TierStats(
                tier=self.name, hits=0, misses=0,
                evictions=self._evictions, bytes=self._bytes,
                entries=len(self._entries), pinned=len(self._pins),
                max_entries=self.max_entries,
            )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.refresh_gauges()


class DiskTier:
    """The persistent store, optionally byte-budgeted with LRU eviction.

    One file per entry under ``<store_dir>/<kind>/<digest[:2]>/``,
    published with :func:`~repro.obs.manifest.write_atomic` so concurrent
    writers (serve worker threads, parallel table builds) can race on a
    digest without ever exposing partial bytes.

    LRU accounting lives in memory, seeded lazily from one directory scan
    (mtime order) per process.  The accounting is advisory, not
    authoritative: an entry deleted behind the tier's back (another
    process's eviction, a manual ``rm``) simply loads as a miss and the
    books are repaired in place.  ``max_bytes=None`` disables eviction —
    the unbounded pre-tier behavior — and then nothing needs the books
    until :meth:`stats`, :meth:`trim` or :meth:`rescan` asks for them, so
    entry traffic never walks the store; once seeded they are kept current
    with this process's traffic, and :meth:`rescan` takes in what other
    processes wrote or deleted.
    """

    name = "disk"

    def __init__(self, store_dir: str | Path,
                 max_bytes: int | None = None,
                 pins: dict[tuple[str, str], int] | None = None,
                 lock: threading.RLock | None = None) -> None:
        self.store_dir = Path(store_dir)
        self.max_bytes = max_bytes
        self._dir = str(self.store_dir)
        self._pins = {} if pins is None else pins
        self._lock = threading.RLock() if lock is None else lock
        self._lru: "OrderedDict[tuple[str, str], int]" = OrderedDict()
        self._total = 0
        self._scanned = False
        self._evictions = 0

    def path(self, kind: str, digest: str) -> Path:
        """Where one entry lives."""
        return Path(self._file(kind, digest))

    def _file(self, kind: str, digest: str) -> str:
        # Two-level fan-out keeps directories small at full scale.  A plain
        # string: lookups build one per call, and Path joins cost more
        # than the read.
        return f"{self._dir}/{kind}/{digest[:2]}/{digest}{KIND_SUFFIXES[kind]}"

    # -- entry traffic -----------------------------------------------------

    def load(self, kind: str, digest: str) -> bytes | None:
        key = (kind, digest)
        try:
            with open(self._file(kind, digest), "rb") as handle:
                data = handle.read()
        except OSError:
            data = None
        # Unbounded and not yet seeded: there are no books to keep (a scan
        # racing this read finds the file itself), so take no lock.
        if self.max_bytes is None and not self._scanned:
            return data
        with self._lock:
            if data is None:
                self._forget(key)
            elif self._keeps_books():
                self._account(key, len(data))
                self._lru.move_to_end(key)
        return data

    def store(self, kind: str, digest: str, data: bytes) -> None:
        write_atomic(self.path(kind, digest), data)
        count("cache.writes")
        with self._lock:
            if self._keeps_books():
                self._account(key := (kind, digest), len(data))
                self._lru.move_to_end(key)
                self._enforce()
                self.refresh_gauges()

    def trim(self) -> int:
        """Enforce the budget once, now; returns entries evicted."""
        with self._lock:
            self._ensure_scanned()
            evicted = self._enforce()
            self.refresh_gauges()
            return evicted

    def settle(self) -> None:
        """Apply the budget again (a released pin may have held it over);
        before the books exist there is nothing to settle."""
        if self._scanned:
            self.trim()

    # -- accounting --------------------------------------------------------

    def _keeps_books(self) -> bool:
        """Whether entry traffic must update the LRU books: always under
        a budget (seeding them on first use), otherwise only once they
        have been seeded."""
        if self.max_bytes is not None:
            self._ensure_scanned()
        return self._scanned

    def _ensure_scanned(self) -> None:
        if not self._scanned:
            self.rescan()

    def rescan(self) -> None:
        """Reconcile the books with one walk of the store: entries found
        there join them (a fresh process books pre-existing entries as
        least-recently used in their on-disk age order) and entries gone
        from it leave; booked entries keep their recency."""
        found: list[tuple[float, tuple[str, str], int]] = []
        with self._lock:
            self._scanned = True
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
            for _, key, size in sorted(found, key=lambda item: item[0]):
                if key not in self._lru:
                    self._lru[key] = size
                    self._total += size
            present = {key for _, key, _ in found}
            for key in [key for key in self._lru if key not in present]:
                self._forget(key)

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

    def _enforce(self) -> int:
        if self.max_bytes is None:
            return 0
        evicted = 0
        for key in list(self._lru):           # oldest (LRU) first
            if self._total <= self.max_bytes:
                break
            if key in self._pins:
                continue
            self._forget(key)
            with contextlib.suppress(OSError):
                os.unlink(self._file(*key))
            evicted += 1
        if evicted:
            self._evictions += evicted
            count("cache.disk.evictions", evicted)
        return evicted

    def refresh_gauges(self) -> None:
        """Publish the occupancy gauges to the obs registry."""
        with self._lock:
            self._ensure_scanned()
            gauge("cache.disk.bytes", self._total)
            gauge("cache.disk.entries", len(self._lru))

    def stats(self) -> TierStats:
        with self._lock:
            self._ensure_scanned()
            return TierStats(
                tier=self.name, hits=0, misses=0,
                evictions=self._evictions, bytes=self._total,
                entries=len(self._lru), pinned=len(self._pins),
                max_bytes=self.max_bytes,
            )

    def by_kind(self) -> dict[str, int]:
        """Entries per kind, from the books."""
        with self._lock:
            self._ensure_scanned()
            return dict(Counter(kind for kind, _ in self._lru))


class RemoteTier:
    """Cache federation as a tier: a serve daemon's ``/v1/cache`` routes.

    ``remote_url`` is the base URL of a :mod:`repro.serve` daemon.  Every
    body travels with its SHA-256 in the ``X-Repro-Sha256`` header; a
    missing or mismatched checksum loads as ``None``
    (``cache.remote_corrupt``), like a 404 or a transport error
    (``cache.remote_errors``).  Writes are best-effort: a dead or slow hub
    degrades the stack to a plain local cache, never an error.  Budgets,
    eviction and pinning are the *hub's* concern.
    """

    name = "remote"

    def __init__(self, remote_url: str, timeout_s: float = 10.0) -> None:
        self.remote_url = remote_url.rstrip("/")
        self.timeout_s = timeout_s

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
            if exc.code != 404:
                count("cache.remote_errors")
            return None
        except (urllib.error.URLError, OSError, TimeoutError):
            count("cache.remote_errors")
            return None
        if checksum != body_sha256(data):
            count("cache.remote_corrupt")
            return None
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

    def stats(self) -> TierStats:
        # A transport has no occupancy to report.
        return TierStats(tier=self.name, hits=0, misses=0, evictions=0,
                         bytes=0, entries=0)


# -- entry formats ----------------------------------------------------------
#
# Each decoder raises on bytes that are not a valid entry of its kind; the
# lookup turns that into a corrupt miss.


def _decode_stats(data: bytes):
    from repro.core.stats import AccuracyStats  # lazy: keep import light

    document = json.loads(data.decode("utf-8"))
    if document["format"] != CACHE_FORMAT_VERSION:
        raise ValueError("format mismatch")
    return AccuracyStats(
        method=document["method"],
        errors=tuple(float(e) for e in document["errors"]),
    )


def _decode_fidelity(data: bytes):
    from repro.fidelity.stats import FidelityStats  # lazy: keep import light

    document = json.loads(data.decode("utf-8"))
    if document.pop("format") != CACHE_FORMAT_VERSION:
        raise ValueError("format mismatch")
    return FidelityStats.from_dict(document)


def _decode_arrays(data: bytes) -> dict[str, np.ndarray]:
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


# -- the stack --------------------------------------------------------------


class ArtifactCache:
    """Content-addressed store for traces, references, and stats over a
    stack of byte-moving tiers (``tiers``, highest first).

    All ``get_*`` methods return ``None`` on a miss *or* on a corrupt
    entry; all ``put_*`` methods write every tier.  Every ``get_*`` is one
    lookup through :meth:`_get`, the single place that decides, promotes
    and counts it; :meth:`pinned` keeps entries from budget eviction.

    ``config`` (a :class:`CacheConfig`) shapes the stack; the explicit
    ``root`` argument wins over ``config.root``.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        config: CacheConfig | None = None,
    ) -> None:
        self.config = config = config or CacheConfig()
        if root is None and config.root:
            root = config.root
        #: The user-facing root (version directory lives below it).
        self.root = Path(root).expanduser() if root else default_cache_root()
        self.store_dir = self.root / f"v{CACHE_FORMAT_VERSION}"
        #: Guards the pin map, the lookup tallies and the local tiers' books.
        self._lock = threading.RLock()
        #: (kind, digest) -> pin refcount; a pinned entry is never evicted.
        self._pins: dict[tuple[str, str], int] = {}
        self._memory = None
        if config.hot_entries > 0:
            self._memory = MemoryTier(config.hot_entries, self._pins,
                                      self._lock)
        self._disk = DiskTier(self.store_dir, config.max_bytes, self._pins,
                              self._lock)
        #: The tiers a federation read or write may touch (never a remote).
        self._local = ((self._disk,) if self._memory is None
                       else (self._memory, self._disk))
        self.tiers = self._local
        if config.remote:
            self.tiers += (RemoteTier(config.remote,
                                      timeout_s=config.remote_timeout_s),)
        self._hits = [0] * len(self.tiers)
        self._misses = [0] * len(self.tiers)
        self._hit_counters = [f"cache.{tier.name}.hits"
                              for tier in self.tiers]
        self._miss_counters = [f"cache.{tier.name}.misses"
                               for tier in self.tiers]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stack = "+".join(tier.name for tier in self.tiers)
        return f"<ArtifactCache {self.root} [{stack}]>"

    def describe(self) -> CacheConfig:
        """This cache's :class:`CacheConfig` with the root made concrete —
        the picklable form the parallel scheduler ships to workers."""
        return replace(self.config, root=str(self.root))

    # -- the lookup --------------------------------------------------------

    @staticmethod
    def _walk(kind: str, digest: str,
              tiers: tuple) -> tuple[int, bytes | None]:
        """The first of ``tiers`` holding the entry and its bytes, promoted
        into every tier above it; ``(len(tiers), None)`` when none does."""
        for index, tier in enumerate(tiers):
            data = tier.load(kind, digest)
            if data is not None:
                for upper in tiers[:index]:
                    upper.store(kind, digest, data)
                return index, data
        return len(tiers), None

    def _get(self, kind: str, digest: str, decode,
             names: tuple[str, ...] = ()):
        """The one counted lookup behind every ``get_*`` method.

        Checks the hot tier's decoded memo, then walks the tiers; decodes
        the bytes found with ``decode`` (anything it raises, or a decoded
        bundle lacking one of ``names``, makes a corrupt miss); remembers
        the decoded object in the hot tier; and books the lookup here and
        nowhere else.  Returns the decoded object or ``None``.
        """
        memory = self._memory
        obj = None if memory is None else memory.decoded(kind, digest)
        if obj is None:
            answered, data = self._walk(kind, digest, self.tiers)
        else:
            answered, data = 0, None
        with self._lock:
            for index in range(answered):
                self._misses[index] += 1
                count(self._miss_counters[index])
            if obj is not None or data is not None:
                self._hits[answered] += 1
                count(self._hit_counters[answered])
        if obj is None:
            if data is None:
                count("cache.misses")
                return None
            try:
                obj = decode(data)
            except Exception:  # any undecodable entry is a miss, not an error
                obj = None
        if obj is None or (names and not all(n in obj for n in names)):
            count("cache.misses")
            count("cache.corrupt")
            return None
        if data is not None and memory is not None:
            memory.attach(kind, digest, obj)
        count("cache.hits")
        return obj

    def _put(self, kind: str, digest: str, data: bytes, obj: object) -> None:
        """Write one entry into every tier; remember its decoded form."""
        for tier in self.tiers:
            tier.store(kind, digest, data)
        if self._memory is not None:
            self._memory.attach(kind, digest, obj)

    # -- pinning -----------------------------------------------------------

    @contextlib.contextmanager
    def pinned(self, *addresses: tuple[str, str]) -> Iterator[None]:
        """Pin ``(kind, digest)`` entries for the duration of the block.

        Pinned entries survive budget eviction, so an in-flight reader — a
        cell mid-evaluation, a federation ``GET`` mid-stream — never has
        the ground pulled from under it.  Pinning an absent entry is
        allowed (it protects the store that follows).  Releasing the last
        pin on an entry settles the budgets it held over.
        """
        pins = self._pins
        with self._lock:
            for key in addresses:
                pins[key] = pins.get(key, 0) + 1
        try:
            yield
        finally:
            released = False
            with self._lock:
                for key in addresses:
                    left = pins[key] - 1
                    if left:
                        pins[key] = left
                    else:
                        del pins[key]
                        released = True
            if released:
                for tier in self._local:
                    tier.settle()

    def pin_entry(self, kind: str, digest: str):
        """Pin one entry for the duration of a ``with`` block."""
        return self.pinned((kind, digest))

    # -- federation entry access (the serve daemon's cache routes) ---------

    def read_entry(self, kind: str, digest: str) -> bytes | None:
        """Raw bytes of one *local* entry for ``GET /v1/cache/…``.

        Always answers from the local tiers (never a remote one), so
        federated daemons cannot loop through each other.  Unknown kinds
        and malformed digests are ``None``, as is a missing entry.  Not a
        lookup: the hub counts what it serves (``serve.cache_entries_served``).
        """
        if not valid_entry_address(kind, digest):
            return None
        return self._walk(kind, digest, self._local)[1]

    def write_entry(self, kind: str, digest: str, data: bytes) -> bool:
        """Store raw entry bytes for ``PUT /v1/cache/…`` (atomic).

        Returns ``False`` for a malformed address instead of writing
        outside the keyspace.  Corrupt payloads are tolerated by design:
        readers treat unparsable entries as misses.  Local tiers only —
        accepting a federated PUT must not re-publish it.
        """
        if not valid_entry_address(kind, digest):
            return False
        for tier in self._local:
            tier.store(kind, digest, data)
        return True

    # -- accuracy stats ----------------------------------------------------

    def get_stats(self, digest: str):
        """Load one cell's :class:`AccuracyStats`, or ``None`` on a miss."""
        return self._get("stats", digest, _decode_stats)

    def put_stats(self, digest: str, stats) -> None:
        """Persist one cell's :class:`AccuracyStats`."""
        document = {
            "format": CACHE_FORMAT_VERSION,
            "method": stats.method,
            "errors": list(stats.errors),
        }
        self._put("stats", digest, json.dumps(document).encode("utf-8"),
                  stats)

    # -- fidelity stats ----------------------------------------------------

    def get_fidelity(self, digest: str):
        """Load one cell's :class:`FidelityStats`, or ``None`` on a miss."""
        return self._get("fidelity", digest, _decode_fidelity)

    def put_fidelity(self, digest: str, stats) -> None:
        """Persist one cell's :class:`FidelityStats`."""
        document = {"format": CACHE_FORMAT_VERSION, **stats.to_dict()}
        self._put("fidelity", digest, json.dumps(document).encode("utf-8"),
                  stats)

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
        arrays = self._get(kind, digest, _decode_arrays, names)
        if arrays is None:
            return None
        return {name: arrays[name] for name in names}

    def put_arrays(self, kind: str, digest: str, **arrays: np.ndarray) -> None:
        """Persist a named-array bundle (compressed npz)."""
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        self._put(kind, digest, buffer.getvalue(), dict(arrays))

    # -- maintenance -------------------------------------------------------

    def enforce_budget(self) -> int:
        """Apply the disk tier's byte budget once (``cache trim``);
        returns the number of entries evicted."""
        return self._disk.trim()

    def refresh_gauges(self) -> None:
        """Re-publish every local tier's occupancy gauges (scrape time)."""
        for tier in self._local:
            tier.refresh_gauges()

    def stats(self) -> CacheStats:
        """Entry counts and byte totals of the current format version (the
        disk tier's books, reconciled with the store first, so entries that
        other processes wrote or deleted count), plus the per-tier
        breakdown."""
        self._disk.rescan()
        with self._lock:
            tallies = list(zip(self._hits, self._misses))
        tiers = tuple(replace(tier.stats(), hits=hits, misses=misses)
                      for tier, (hits, misses) in zip(self.tiers, tallies))
        disk = tiers[self.tiers.index(self._disk)]
        return CacheStats(root=str(self.root), entries=disk.entries,
                          total_bytes=disk.bytes,
                          by_kind=self._disk.by_kind(), tiers=tiers)

    def clear(self) -> int:
        """Delete every entry (all format versions); returns the number of
        current-version entries removed."""
        removed = self.stats().entries
        if self.root.is_dir():
            for child in self.root.iterdir():
                if child.is_dir() and child.name.startswith("v"):
                    shutil.rmtree(child, ignore_errors=True)
        if self._memory is not None:
            self._memory.clear()
        self._disk.rescan()
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
