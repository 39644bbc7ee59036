"""Every public module-level function and class of ``clasp`` is read
somewhere in ``clasp``, and so is every public method and property of
its classes: a name that only tests call is dead code, and git history
keeps it for whoever needs it again."""

from __future__ import annotations

import ast
from pathlib import Path

import clasp

SOURCES = Path(clasp.__file__).parent

# Members read only outside ``clasp``, each with its reader.
READ_OUTSIDE = {
    # bench/tracer.py counts the projections that pass by it.
    "ProjectionVerdict.ok",
}


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


def public_members(path: Path) -> list[tuple[str, int]]:
    """``(Class.name, line)`` of each public method or property of each
    class defined in ``path``."""
    return [
        (f"{cls.name}.{node.name}", node.lineno)
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def unread_members(paths: list[Path]) -> list[str]:
    """``file:line Class.name`` of each public member whose name no
    attribute read in ``paths`` uses."""
    used = {
        sub.attr
        for path in paths
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(sub, ast.Attribute)
    }
    return [
        f"{path.name}:{line} {member}"
        for path in paths
        for member, line in public_members(path)
        if member.split(".")[1] not in used and member not in READ_OUTSIDE
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


def test_every_public_member_has_a_reader():
    sources = sorted(SOURCES.rglob("*.py"))
    assert public_members(SOURCES / "gate.py")
    assert unread_members(sources) == []


def test_member_guard_sees_a_violation(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        "class Box:\n"
        "    def used(self):\n"
        "        return self._hidden()\n"
        "    def _hidden(self):\n"
        "        pass\n"
        "    @property\n"
        "    def dead(self):\n"
        "        return 1\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def used():\n"
        "    pass\n",
        encoding="utf-8",
    )
    # A name read as a bare name is no attribute read of a member.
    user.write_text("import lib\nlib.Box().used()\ndead = 1\n", encoding="utf-8")
    assert unread_members([lib, user]) == ["lib.py:7 Box.dead"]
