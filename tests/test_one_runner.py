"""Where generate work runs is decided in one place: ``cli._pass`` is the
only code of ``cli`` that names ``map_chunks`` or ``ThreadPoolExecutor``,
so only it maps chunks or starts request threads, and ``datasets`` is the
only module that reads the CPUs."""

from __future__ import annotations

import ast
from pathlib import Path

import clasp

SOURCES = Path(clasp.__file__).parent
RUNNER = "_pass"
RUN_NAMES = {"map_chunks", "ThreadPoolExecutor"}


def _names(node: ast.AST) -> list[tuple[str, int]]:
    """``(name, line)`` of each name or attribute read under ``node``."""
    return [
        (sub.id if isinstance(sub, ast.Name) else sub.attr, sub.lineno)
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    ]


def runs_outside_the_runner(path: Path) -> list[str]:
    """``file:line`` of each use of a ``RUN_NAMES`` name outside the
    top-level function ``RUNNER`` (its nested functions are inside)."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name == RUNNER:
            continue
        found += [line for name, line in _names(node) if name in RUN_NAMES]
    return [f"{path.name}:{line}" for line in sorted(found)]


def cpu_reads(path: Path) -> list[str]:
    """``file:line`` of each use of ``sched_getaffinity`` in ``path``,
    imported by name or read as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [line for name, line in _names(tree) if name == "sched_getaffinity"]
    lines += [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "sched_getaffinity" for alias in node.names)
    ]
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_only_the_runner_maps_or_generates_in_cli():
    assert runs_outside_the_runner(SOURCES / "cli.py") == []


def test_only_datasets_reads_the_cpus():
    sources = sorted(SOURCES.glob("*.py"))
    assert len(sources) > 1 and cpu_reads(SOURCES / "datasets.py")
    found = [
        where
        for path in sources
        if path.name != "datasets.py"
        for where in cpu_reads(path)
    ]
    assert found == []


def test_guards_see_a_violation(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from os import sched_getaffinity\n"
        "def _pass(jobs):\n"
        "    def chunk(span):\n"
        "        return ThreadPoolExecutor(2).map(len, span)\n"
        "    return map_chunks(chunk, jobs)\n"
        "def other(jobs):\n"
        "    return datasets.map_chunks(len, jobs)\n"
        "pool = ThreadPoolExecutor(max_workers=4)\n"
        "cpus = len(os.sched_getaffinity(0))\n",
        encoding="utf-8",
    )
    assert runs_outside_the_runner(src) == ["sample.py:8", "sample.py:9"]
    assert cpu_reads(src) == ["sample.py:2", "sample.py:10"]
