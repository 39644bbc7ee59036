"""Every public module-level function and class of ``clasp`` is read
somewhere in ``clasp``: a name that only tests call is dead code, and
git history keeps it for whoever needs it again."""

from __future__ import annotations

import ast
from pathlib import Path

import clasp

SOURCES = Path(clasp.__file__).parent


def public_definitions(path: Path) -> list[tuple[str, int]]:
    """``(name, line)`` of each public top-level function or class."""
    return [
        (node.name, node.lineno)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def references(paths: list[Path]) -> set[str]:
    """Each name or attribute read in ``paths``. A definition, an import
    and an ``__all__`` string are no ``Name`` or ``Attribute`` node, so
    they do not count."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for path in paths
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def unreferenced(paths: list[Path]) -> list[str]:
    """``file:line name`` of each public definition no path reads."""
    used = references(paths)
    return [
        f"{path.name}:{line} {name}"
        for path in paths
        for name, line in public_definitions(path)
        if name not in used
    ]


def test_every_public_name_has_a_reader():
    sources = sorted(SOURCES.rglob("*.py"))
    assert len(sources) > 1 and public_definitions(SOURCES / "cli.py")
    assert unreferenced(sources) == []


def test_guard_sees_a_violation(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        "__all__ = ['Used', 'dead', 'called']\n"
        "class Used:\n"
        "    pass\n"
        "def dead():\n"
        "    return Used()\n"
        "def _private():\n"
        "    pass\n"
        "def called():\n"
        "    pass\n",
        encoding="utf-8",
    )
    user.write_text(
        "import lib\n"
        "from lib import dead\n"
        "lib.called()\n",
        encoding="utf-8",
    )
    assert unreferenced([lib, user]) == ["lib.py:4 dead"]
