"""The oracle stays out of the product.

:mod:`repro.cpu.engine` holds the oracle: :class:`ReferenceEngine`, its
plain interpreter :func:`~repro.cpu.engine.interpret`, and the only use of
the per-instruction :class:`~repro.pmu.sampler.Sampler`. Every other module
under ``src/repro`` is parsed here, and none may import those names or
reach them as attributes. The ``Engine`` protocol may be imported from
:mod:`repro.cpu.engine` for typing only.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ORACLE = "repro.cpu.engine"
ORACLE_FILE = SRC / "cpu" / "engine.py"
ORACLE_NAMES = frozenset({"ReferenceEngine", "interpret", "Sampler"})


def _typing_only(tree: ast.AST) -> set[int]:
    """Ids of the nodes inside ``if TYPE_CHECKING:`` blocks."""
    inside: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            for stmt in node.body:
                inside.update(id(n) for n in ast.walk(stmt))
    return inside


def _violations(source: str) -> list[str]:
    """Each line of ``source`` that reaches the oracle."""
    tree = ast.parse(source)
    typing = _typing_only(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {alias.name}"
                      for alias in node.names
                      if alias.name == ORACLE
                      or alias.name.startswith(ORACLE + ".")]
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module == ORACLE and (names != {"Engine"}
                                          or id(node) not in typing):
                found.append(f"{node.lineno}: from {ORACLE} import "
                             f"{', '.join(sorted(names))}")
            elif node.module == "repro.cpu" and "engine" in names:
                found.append(f"{node.lineno}: from repro.cpu import engine")
            elif names & ORACLE_NAMES:
                found.append(f"{node.lineno}: from {node.module} import "
                             f"{', '.join(sorted(names & ORACLE_NAMES))}")
        elif isinstance(node, ast.Attribute) and node.attr in ORACLE_NAMES:
            found.append(f"{node.lineno}: .{node.attr}")
    return found


def _product_modules() -> list[Path]:
    return sorted(path for path in SRC.rglob("*.py") if path != ORACLE_FILE)


@pytest.mark.parametrize("source", [
    "from repro.cpu.engine import ReferenceEngine",
    "from repro.cpu.engine import interpret",
    "from repro.cpu.engine import Engine",
    "from repro.cpu import engine",
    "import repro.cpu.engine",
    "from repro.pmu.sampler import SampleBatch, Sampler",
    "from repro.pmu import Sampler",
    "import repro.pmu.sampler as s\ncollector = s.Sampler(execution)",
])
def test_the_check_sees_each_way_in(source):
    assert _violations(source)


def test_the_engine_protocol_may_be_imported_for_typing():
    source = ("from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n"
              "    from repro.cpu.engine import Engine\n"
              "from repro.pmu.sampler import SampleBatch, SamplingConfig\n")
    assert _violations(source) == []


def test_the_oracle_defines_what_the_product_may_not_import():
    tree = ast.parse(ORACLE_FILE.read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert {"Engine", "ReferenceEngine", "interpret"} <= defined


def test_no_product_module_reaches_the_oracle():
    modules = _product_modules()
    assert len(modules) > 50
    offenders = {
        str(path.relative_to(SRC)): found
        for path in modules
        if (found := _violations(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
