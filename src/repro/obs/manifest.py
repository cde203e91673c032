"""Per-run provenance manifests.

A manifest is the auditable sibling of a results artifact: what produced
the numbers (package version, git describe, python/platform), with which
knobs (scale, repeats, seeds, machines), how long each phase took, and
what the pipeline counters saw. Written atomically (temp file + rename,
:func:`write_atomic`) so a crashed run can never leave a truncated
manifest that looks valid.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from repro._version import __version__
from repro.obs.tracer import Collector

#: Manifest format version (independent of the event-stream schema).
MANIFEST_VERSION = 1


def git_describe(cwd: str | Path | None = None) -> str | None:
    """``git describe --always --dirty`` of the source tree, or ``None``."""
    if cwd is None:
        cwd = Path(__file__).resolve().parent
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=str(cwd), capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def build_manifest(
    config: dict[str, Any] | None = None,
    collector: Collector | None = None,
    command: list[str] | None = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble a provenance manifest dict.

    ``config`` carries the experiment knobs (scale, repeats, seeds, ...);
    ``collector`` contributes per-phase elapsed times and counters;
    ``extra`` is merged in last (artifact name, table title, ...).
    """
    from repro.cpu.uarch import ALL_UARCHES  # lazy: avoid import cycles

    manifest: dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "package": {"name": "repro", "version": __version__},
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git": git_describe(),
        "command": list(command) if command is not None else list(sys.argv),
        "uarches": [uarch.name for uarch in ALL_UARCHES],
        "config": dict(config or {}),
    }
    if collector is not None:
        manifest["elapsed_s"] = round(collector.elapsed_s(), 6)
        manifest["phases"] = collector.phase_summary()
        manifest["counters"] = collector.metrics.counters()
        manifest["gauges"] = collector.metrics.gauges()
        histograms = collector.metrics.histograms()
        if histograms:
            manifest["histograms"] = {
                name: {"buckets": list(snapshot.buckets),
                       "bucket_counts": list(snapshot.bucket_counts),
                       "sum": snapshot.sum, "count": snapshot.count}
                for name, snapshot in histograms.items()
            }
    if extra:
        manifest.update(extra)
    return manifest


def manifest_path_for(artifact_path: str | Path) -> Path:
    """The sibling manifest path of an artifact (``x.txt`` → ``x.meta.json``)."""
    return Path(artifact_path).with_suffix(".meta.json")


def write_atomic(path: str | Path, data: bytes | str) -> Path:
    """Publish ``data`` (``str`` is written as UTF-8) at ``path``,
    creating its directory; returns the final path.

    Readers see the old document or the new one, never a torn one.  The
    temp name must be unique per writer: with a fixed ``.tmp`` suffix, two
    threads or processes writing one path share the temp file, and one
    renames it away under the other.  ``mkstemp`` gives each writer a
    private file in the target directory (same filesystem, so the final
    ``os.replace`` stays atomic).
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                                    dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def write_manifest(path: str | Path, manifest: dict[str, Any]) -> Path:
    """Atomically write a manifest as JSON; returns the final path."""
    text = json.dumps(manifest, indent=2, sort_keys=False,
                      default=lambda v: v.item() if hasattr(v, "item")
                      else str(v))
    return write_atomic(path, text + "\n")
