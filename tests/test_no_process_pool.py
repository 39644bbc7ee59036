"""Workers are forked in one place: no module of ``src/clasp`` imports
``multiprocessing`` or ``concurrent.futures.process`` (nor its
``ProcessPoolExecutor``), and only ``datasets`` reads ``os.fork``."""

from __future__ import annotations

import ast
from pathlib import Path

import clasp

SOURCES = Path(clasp.__file__).parent
POOL_MODULES = ("multiprocessing", "concurrent.futures.process")
POOL_NAMES = {"ProcessPoolExecutor"}
FORK_NAMES = {"fork", "forkpty"}


def _is_pool_module(name: str) -> bool:
    return any(name == module or name.startswith(module + ".") for module in POOL_MODULES)


def pool_imports(path: Path) -> list[str]:
    """``file:line`` of each import of a process-pool module, of one of its
    submodules, or of ``ProcessPoolExecutor``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            names += [alias.name for alias in node.names if alias.name in POOL_NAMES]
        else:
            continue
        if any(_is_pool_module(name) or name in POOL_NAMES for name in names):
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in found]


def fork_reads(path: Path) -> list[str]:
    """``file:line`` of each read of ``os.fork`` (or ``os.forkpty``), as an
    attribute of ``os`` or imported from it by name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in FORK_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in FORK_NAMES for alias in node.names)
        ):
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_no_module_imports_a_process_pool():
    sources = sorted(SOURCES.glob("*.py"))
    assert len(sources) > 1
    assert [where for path in sources for where in pool_imports(path)] == []


def test_only_datasets_forks():
    sources = sorted(SOURCES.glob("*.py"))
    assert fork_reads(SOURCES / "datasets.py")
    found = [
        where
        for path in sources
        if path.name != "datasets.py"
        for where in fork_reads(path)
    ]
    assert found == []


def test_guards_see_a_violation(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "import multiprocessing\n"
        "import multiprocessing.pool as mp\n"
        "from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor\n"
        "from concurrent.futures import process\n"
        "from concurrent.futures.process import BrokenProcessPool\n"
        "from concurrent.futures import thread\n"
        "from os import fork\n"
        "def start():\n"
        "    import multiprocessing.dummy\n"
        "    return os.fork()\n"
        "spawn = os.forkpty\n"
        "pid = os.getpid()\n",
        encoding="utf-8",
    )
    assert sorted(pool_imports(src)) == [f"sample.py:{line}" for line in (1, 2, 3, 4, 5, 9)]
    assert fork_reads(src) == ["sample.py:7", "sample.py:10", "sample.py:11"]
