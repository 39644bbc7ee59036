"""Dataset records and the file formats shared across pipeline commands.

Row files stream. ``iter_records`` is the one JSON-lines reader: it reads
a line at a time and decodes, checks and builds each row before the next,
so no list of decoded records ever sits beside the rows built from them;
``iter_pizza_rows`` and ``iter_mtop_rows`` read the native inputs the same
way. ``RecordWriter`` and ``write_records`` write a row at a time. What a
command holds whole is therefore only what it must keep: the list that
``read_jsonl`` returns (the augment pool, which rs and gb sample by index;
the real and synthetic sets of ``mix``; the source rows of ``project-mt``)
and the id maps of ``score``.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


class RowMalformed(ValueError):
    pass


class FileMalformed(ValueError):
    """A JSON file that does not decode, or whose value is not the one wanted."""


def read_json(path: str | Path, build: Callable[[Any], T]) -> T:
    """``build`` applied to the JSON value held by the file at ``path``.

    Every setting, config and stats-record file is read here. A decode
    error, and an ``AttributeError``, ``KeyError``, ``TypeError`` or
    ``ValueError`` that ``build`` raises, become one ``FileMalformed`` whose
    message names the file; an ``OSError`` passes through.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return build(json.load(fh))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # A ValueError carries its own message; the name of any other
        # exception says what went wrong ("KeyError('tgt')").
        detail = exc if isinstance(exc, ValueError) else repr(exc)
        raise FileMalformed(f"{path}: {detail}") from exc


def packaged(name: str) -> Path:
    """The data file ``name`` shipped in ``clasp.data``. Resolved on call,
    so that importing a module imports no data package."""
    return resources.files("clasp.data").joinpath(name)


@dataclass(frozen=True)
class Example:
    """One dataset row: surface text plus its parse (or training target)."""

    id: str
    lang: str
    text: str
    parse: str
    source: str = ""
    cf: str | None = None

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "id": self.id,
            "lang": self.lang,
            "text": self.text,
            "parse": self.parse,
            "source": self.source,
        }
        if self.cf is not None:
            d["cf"] = self.cf
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Example":
        cf = d.get("cf")
        if cf is not None and not isinstance(cf, str):
            raise RowMalformed(f"field 'cf' must be a string or null, got {cf!r}")
        try:
            return cls(
                id=str(d["id"]),
                lang=str(d["lang"]),
                text=str(d["text"]),
                parse=str(d["parse"]),
                source=str(d.get("source", "")),
                cf=cf,
            )
        except KeyError as exc:
            raise RowMalformed(f"missing field {exc} in record {d!r}") from exc


_EXAMPLE_FIELDS = ("id", "lang", "text", "parse")


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write a file via temp-file rename so readers never see partial content."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class RecordWriter:
    """Write JSON-lines records one at a time, as a context manager.

    Records go to a temp file beside ``path``. A clean exit renames it onto
    ``path``; an exception renames it to ``partial``, the records written so
    far, when one is given, and deletes it otherwise. ``path`` itself is
    never seen half-written. ``count`` is the number of records written.
    """

    def __init__(self, path: str | Path, partial: str | Path | None = None) -> None:
        self.path = Path(path)
        self.partial = partial
        self.count = 0

    def __enter__(self) -> "RecordWriter":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, self._tmp = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
        )
        self._fh = os.fdopen(fd, "w", encoding="utf-8")
        return self

    def write(self, record: dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        self.count += 1

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self._fh.close()
            if exc_type is None:
                os.replace(self._tmp, self.path)
                return
        except BaseException:
            os.unlink(self._tmp)
            raise
        if self.partial is not None:
            os.replace(self._tmp, self.partial)
        else:
            os.unlink(self._tmp)


def write_records(path: str | Path, records: Iterable[dict[str, Any]]) -> int:
    """Write ``records`` to ``path`` one at a time; the number written."""
    with RecordWriter(path) as writer:
        for record in records:
            writer.write(record)
    return writer.count


def iter_records(
    path: str | Path, *fields: str, build: Callable[[dict[str, Any]], T] | None = None
) -> Iterator[T]:
    """Yield each JSON-lines record of ``path``, or ``build`` of it, in one pass.

    The file is read a line at a time, so a read holds one decoded record
    beside the rows already built. Blank lines are skipped but counted.
    Each other line must hold one JSON object with every one of ``fields``;
    a line that does not, or a ``ValueError`` from ``build``, ends the read
    with a ``RowMalformed`` naming ``<path>:<line>``.
    """
    for n, line in _numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RowMalformed(f"{path}:{n}: invalid JSON record") from exc
        if not isinstance(record, dict):
            raise RowMalformed(f"{path}:{n}: expected a JSON object")
        for field in fields:
            if field not in record:
                raise RowMalformed(f"{path}:{n}: record lacks field {field!r}")
        if build is not None:
            try:
                record = build(record)
            except ValueError as exc:
                raise RowMalformed(f"{path}:{n}: {exc}") from exc
        yield record


def _numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(number, line)`` of each line of the UTF-8 text file ``path``, read
    a line at a time. Iterating the file splits only at LF, CRLF and CR,
    never at the other characters ``str.splitlines`` breaks at. A
    byte that is not UTF-8 ends the read with a ``RowMalformed`` naming the
    file (the decoder reads ahead, so the line is not known)."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise RowMalformed(f"{path}: {exc}") from exc


def read_records(path: str | Path, *fields: str) -> list[dict[str, Any]]:
    """The records of ``path``, each a JSON object holding every field."""
    return list(iter_records(path, *fields))


def write_jsonl(path: str | Path, examples: Iterable[Example]) -> int:
    return write_records(path, (ex.to_dict() for ex in examples))


def read_jsonl(path: str | Path) -> list[Example]:
    return list(iter_records(path, *_EXAMPLE_FIELDS, build=Example.from_dict))


def _pizza_row(record: dict[str, Any], need_cf: bool) -> dict[str, Any]:
    row = {key.rsplit(".", 1)[-1].upper(): val for key, val in record.items()}
    if "SRC" not in row or "TOP" not in row:
        raise ValueError("row lacks SRC/TOP fields")
    if need_cf and not isinstance(row.get("CF"), str):
        raise ValueError("row lacks a string CF field, which original mode needs")
    return row


def iter_pizza_rows(path: str | Path, *, need_cf: bool = False) -> Iterator[dict[str, Any]]:
    """Yield native pizza-ordering rows: JSON lines keyed ``<split>.SRC`` etc.

    Each is a dict keyed by the uppercased key suffix (SRC, TOP, EXR, CF...).
    With ``need_cf`` a row without a string CF field ends the read.
    """
    return iter_records(path, build=lambda record: _pizza_row(record, need_cf))


MTOP_COLUMNS = (
    "id",
    "intent",
    "slot_string",
    "utterance",
    "domain",
    "locale",
    "decoupled_parse",
    "tokens_json",
)


def iter_mtop_rows(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield tab-separated task-oriented-parsing rows, a line at a time.

    The tokens column holds a JSON object whose ``tokens`` list is the
    tokenization used everywhere downstream; the raw utterance column is
    ignored on purpose.
    """
    for n, line in _numbered_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) < len(MTOP_COLUMNS):
            raise RowMalformed(
                f"{path}:{n}: expected {len(MTOP_COLUMNS)} tab-separated columns"
            )
        row = dict(zip(MTOP_COLUMNS, parts))
        try:
            tokens = json.loads(row["tokens_json"])["tokens"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise RowMalformed(f"{path}:{n}: bad tokens column") from exc
        if not isinstance(tokens, list) or not all(
            isinstance(t, str) for t in tokens
        ):
            raise RowMalformed(f"{path}:{n}: tokens must be a list of strings")
        row["tokens"] = tokens
        row["lang"] = row["locale"].split("_")[0]
        yield row
