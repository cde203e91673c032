"""``repro-pmu serve`` with the per-layer probe installed.

Usage: ``python daemon.py SPANS.json serve [serve options...]``

Installs :mod:`probe`'s wrappers, runs the CLI's ``serve`` command
unchanged until it drains on SIGTERM, then writes the span totals of the
daemon's whole life to ``SPANS.json``.
"""

from __future__ import annotations

import sys

# run.py points PYTHONPYCACHEPREFIX into its work directory; without it,
# write no bytecode next to the sources.
if sys.pycache_prefix is None:
    sys.dont_write_bytecode = True

from pathlib import Path  # noqa: E402

import probe  # noqa: E402


def main() -> int:
    spans = Path(sys.argv[1])
    probe.install()
    from repro.core.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        probe.PROBE.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
