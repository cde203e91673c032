"""repro.obs — observability for the experiment pipeline.

The paper's argument is about trusting measurements; this package makes
the reproduction's own pipeline measurable. It provides:

* a zero-dependency tracing core (:func:`span`, :func:`count`,
  :func:`gauge`) with a no-op fast path when no :class:`Collector` is
  installed,
* exporters — a streaming JSONL event sink (:class:`JsonlWriter`), a
  human-readable span tree (:func:`render_span_tree`), and schema
  validation (:mod:`repro.obs.schema`),
* per-run provenance manifests (:func:`build_manifest`,
  :func:`write_manifest`) written next to results artifacts,
* the CLI logging emitter (:mod:`repro.obs.log`).

Typical library use::

    from repro.obs import collecting, render_span_tree

    with collecting() as col:
        build_table1(harness)
    print(render_span_tree(col))
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    HistogramSnapshot,
    MetricsRegistry,
)
from repro.obs.tracer import (
    SCHEMA_VERSION,
    Collector,
    NullSpan,
    Span,
    SpanRecord,
    collecting,
    count,
    enabled,
    gauge,
    get_collector,
    install,
    observe,
    span,
    uninstall,
)
from repro.obs.export import JsonlWriter, render_prometheus, render_span_tree
from repro.obs.schema import (
    EVENT_TYPES,
    validate_event,
    validate_jsonl_lines,
    validate_jsonl_path,
)
from repro.obs.manifest import (
    MANIFEST_VERSION,
    build_manifest,
    git_describe,
    manifest_path_for,
    write_atomic,
    write_manifest,
)
from repro.obs.log import Emitter, get_logger, setup_cli_logging

__all__ = [
    # tracing core
    "DEFAULT_BUCKETS",
    "SCHEMA_VERSION",
    "Collector",
    "HistogramSnapshot",
    "MetricsRegistry",
    "NullSpan",
    "Span",
    "SpanRecord",
    "collecting",
    "count",
    "enabled",
    "gauge",
    "get_collector",
    "install",
    "observe",
    "span",
    "uninstall",
    # exporters
    "JsonlWriter",
    "render_prometheus",
    "render_span_tree",
    # schema
    "EVENT_TYPES",
    "validate_event",
    "validate_jsonl_lines",
    "validate_jsonl_path",
    # manifests
    "MANIFEST_VERSION",
    "build_manifest",
    "git_describe",
    "manifest_path_for",
    "write_atomic",
    "write_manifest",
    # logging
    "Emitter",
    "get_logger",
    "setup_cli_logging",
]
