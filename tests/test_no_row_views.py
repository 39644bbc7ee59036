"""No ``clasp`` class is an indexable view of rows but ``datasets.RecordRows``.

A draw picks positions with ``random`` and then reads the rows at them, so
what it draws never depends on how ``random`` indexes a population. A
hand-written ``Sequence`` fed to ``random`` is correct only as long as that
holds for it; the one row view is the file reader itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

import clasp

SOURCES = Path(clasp.__file__).parent

ALLOWED = {"datasets.py:RecordRows"}


def _base_name(base: ast.expr) -> str | None:
    if isinstance(base, ast.Subscript):  # Sequence[Example]
        base = base.value
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):  # abc.Sequence
        return base.attr
    return None


def row_views(paths: list[Path]) -> list[str]:
    """``file:line Class`` of each class that subclasses ``Sequence`` or
    defines ``__getitem__``, but the allowed ones."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            sequence = any(_base_name(b) == "Sequence" for b in node.bases)
            getitem = any(
                isinstance(item, ast.FunctionDef) and item.name == "__getitem__"
                for item in node.body
            )
            if (sequence or getitem) and f"{path.name}:{node.name}" not in ALLOWED:
                found.append(f"{path.name}:{node.lineno} {node.name}")
    return found


def test_no_row_view_but_the_file_reader():
    sources = sorted(SOURCES.rglob("*.py"))
    assert len(sources) > 1
    assert row_views(sources) == []


def test_guard_sees_a_view(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "import collections.abc as abc\n"
        "from collections.abc import Sequence\n"
        "class Plain:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "class Without(Sequence):\n"
        "    pass\n"
        "class At(abc.Sequence):\n"
        "    pass\n"
        "class Picks:\n"
        "    def __getitem__(self, i):\n"
        "        return i\n"
        "class Typed(Sequence[int]):\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert row_views([lib]) == [
        "lib.py:6 Without", "lib.py:8 At", "lib.py:10 Picks", "lib.py:13 Typed",
    ]
