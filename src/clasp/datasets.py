"""Dataset records and the file formats shared across pipeline commands."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

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
        try:
            return cls(
                id=str(d["id"]),
                lang=str(d["lang"]),
                text=str(d["text"]),
                parse=str(d["parse"]),
                source=str(d.get("source", "")),
                cf=d.get("cf"),
            )
        except KeyError as exc:
            raise RowMalformed(f"missing field {exc} in record {d!r}") from exc


def class_key(parse: str) -> str:
    """Top-level intent label of a serialized parse."""
    head = parse.split(None, 1)
    if not head:
        return ""
    return head[0].lstrip("([")


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


def dump_record(record: dict[str, Any]) -> str:
    return json.dumps(record, ensure_ascii=False)


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
        self._fh.write(dump_record(record) + "\n")
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


def write_records(path: str | Path, records: Iterable[dict[str, Any]]) -> None:
    with RecordWriter(path) as writer:
        for record in records:
            writer.write(record)


def read_records(path: str | Path) -> list[dict[str, Any]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise RowMalformed(f"{path}:{n}: invalid JSON record") from exc
    return out


def read_objects(path: str | Path, *fields: str) -> list[dict[str, Any]]:
    """The records of ``path``, each a JSON object holding every field."""
    rows = read_records(path)
    for n, row in enumerate(rows, start=1):
        if not isinstance(row, dict):
            raise RowMalformed(f"{path}:{n}: expected a JSON object")
        for field in fields:
            if field not in row:
                raise RowMalformed(f"{path}:{n}: record lacks field {field!r}")
    return rows


def write_jsonl(path: str | Path, examples: Iterable[Example]) -> None:
    write_records(path, (ex.to_dict() for ex in examples))


def read_jsonl(path: str | Path) -> list[Example]:
    return [Example.from_dict(d) for d in read_objects(path)]


def read_pizza_rows(path: str | Path) -> list[dict[str, str]]:
    """Read native pizza-ordering rows: JSON lines keyed ``<split>.SRC`` etc.

    Returns dicts keyed by the uppercased key suffix (SRC, TOP, EXR, CF...).
    """
    rows = []
    for n, obj in enumerate(read_objects(path), start=1):
        row = {key.rsplit(".", 1)[-1].upper(): val for key, val in obj.items()}
        if "SRC" not in row or "TOP" not in row:
            raise RowMalformed(f"{path}:{n}: row lacks SRC/TOP fields")
        rows.append(row)
    return rows


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


def read_mtop_rows(path: str | Path) -> list[dict[str, Any]]:
    """Read tab-separated task-oriented-parsing rows.

    The tokens column holds a JSON object whose ``tokens`` list is the
    tokenization used everywhere downstream; the raw utterance column is
    ignored on purpose.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
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
            rows.append(row)
    return rows
