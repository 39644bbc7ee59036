"""Dataset records and the file formats shared across pipeline commands.

Row files stream. ``iter_records`` is the one JSON-lines reader: it reads
a line at a time and decodes, checks and builds each row before the next,
so no list of decoded records ever sits beside the rows built from them;
``iter_pizza_rows`` and ``iter_mtop_rows`` read the native inputs the same
way, each with the per-line decoder it shares with ``map_rows``.
``RecordWriter`` and ``write_records`` write a row at a time, each as the
line ``record_line`` makes. What a command holds whole is therefore only
what it must keep: the list that ``read_jsonl`` returns (the augment pool,
which rs and gb sample by index; the real and synthetic sets of ``mix``;
the source rows of ``project-mt``) and the id maps of ``score``.

``map_chunks`` maps chunks of work on every CPU: forked workers map the
chunks, and the main process takes their results in order, reading at
most a few chunks per worker ahead. One chunk, or a single CPU, is mapped
in process with no other process started, and ``multiprocessing`` is
imported only when a pool starts. A worker that dies ends the map with
one ``WorkerLost``; workers ignore SIGINT, which only the main process
acts on. ``map_rows`` maps the rows of a file with it: the main process
reads and numbers the lines, workers decode, build and encode chunks of
them, and the main process writes each chunk's text in input order.
``cli`` maps a mock augment run's tasks and slot n-best jobs with it, in
``chunk_spans`` of task indices.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from importlib import resources
from itertools import chain, islice
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


def record_line(record: dict[str, Any]) -> str:
    """The line that holds ``record`` in a JSON-lines file."""
    return json.dumps(record, ensure_ascii=False) + "\n"


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
        self.write_text(record_line(record), 1)

    def write_text(self, text: str, count: int) -> None:
        """Write ``count`` records already encoded by ``record_line``."""
        self._fh.write(text)
        self.count += count

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
    return _iter_rows(path, functools.partial(_decode_record, fields, build))


def _decode_record(fields: tuple[str, ...], build, line: str):
    """The record that one line of ``iter_records`` holds, or ``build`` of it."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError("invalid JSON record") from exc
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    for field in fields:
        if field not in record:
            raise ValueError(f"record lacks field {field!r}")
    return record if build is None else build(record)


def _iter_rows(path: str | Path, decode: Callable[[str], T]) -> Iterator[T]:
    """``decode`` of each non-blank line of ``path``; a ``ValueError`` it
    raises becomes a ``RowMalformed`` naming ``<path>:<line>``."""
    for n, line in _numbered_rows(path):
        try:
            row = decode(line)
        except ValueError as exc:
            raise RowMalformed(f"{path}:{n}: {exc}") from exc
        yield row


def _numbered_rows(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(number, line)`` of each line of ``path`` that holds more than
    whitespace. Blank lines are skipped but counted, in every row format."""
    return ((n, line) for n, line in _numbered_lines(path) if not line.isspace())


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
    if not isinstance(row["SRC"], str) or not isinstance(row["TOP"], str):
        raise ValueError("row's SRC and TOP fields must be strings")
    if need_cf and not isinstance(row.get("CF"), str):
        raise ValueError("row lacks a string CF field, which original mode needs")
    return row


def pizza_line_decoder(need_cf: bool) -> Callable[[str], dict[str, Any]]:
    """The decoder of one line of a native pizza-ordering file: a JSON object
    keyed ``<split>.SRC`` etc. becomes a dict keyed by the uppercased key
    suffix (SRC, TOP, EXR, CF...). With ``need_cf`` a row without a string
    CF field is a fault. A fault raises ``ValueError``."""
    return functools.partial(
        _decode_record, (), functools.partial(_pizza_row, need_cf=need_cf)
    )


def iter_pizza_rows(path: str | Path, *, need_cf: bool = False) -> Iterator[dict[str, Any]]:
    """Yield the native pizza-ordering rows of ``path`` (see
    ``pizza_line_decoder``), a line at a time."""
    return _iter_rows(path, pizza_line_decoder(need_cf))


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


def decode_mtop_line(line: str) -> dict[str, Any]:
    """The row held by one line of a tab-separated task-oriented-parsing
    file. The tokens column holds a JSON object whose ``tokens`` list is the
    tokenization used everywhere downstream; the raw utterance column is
    ignored on purpose. A fault raises ``ValueError``."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) < len(MTOP_COLUMNS):
        raise ValueError(f"expected {len(MTOP_COLUMNS)} tab-separated columns")
    row = dict(zip(MTOP_COLUMNS, parts))
    try:
        tokens = json.loads(row["tokens_json"])["tokens"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError("bad tokens column") from exc
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError("tokens must be a list of strings")
    row["tokens"] = tokens
    row["lang"] = row["locale"].split("_")[0]
    return row


def iter_mtop_rows(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield the rows of the tab-separated file ``path`` (see
    ``decode_mtop_line``), a line at a time."""
    return _iter_rows(path, decode_mtop_line)


# ------------------------------------------------------------------ row map

# Items in one chunk of ``map_chunks``: rows of ``map_rows``, augment tasks
# or slot n-best jobs. A worker maps 1000 of the benchmark's pizza rows in
# about 0.1 s on a 2-vCPU Xeon VM, against about a millisecond to send
# their lines and fetch back their text, so the hand-off costs about 1%;
# each chunk read ahead holds about 250 KB of lines; and a 20k-row input
# still splits evenly over the workers. 1000-task augment chunks were also
# faster than 64-task ones, and a mock augment run of at most 1000 tasks
# stays in one process, where a patched backend sees every request.
_CHUNK_ROWS = 1000
# Chunks queued per worker ahead of the one being written: one to map and
# one waiting, so no worker idles while the main process writes.
_AHEAD_PER_WORKER = 2


def map_rows(
    path: str | Path,
    decode: Callable[[str], Any],
    build: Callable[[int, Any], tuple[dict[str, Any] | None, bool]],
    out: RecordWriter,
) -> int:
    """Write ``build(i, decode(line))`` for each non-blank line of ``path``
    to ``out``, in input order; the number of rows that ``build`` flagged.

    ``i`` numbers the non-blank lines from 0. ``build`` returns ``(record,
    flagged)``, and a None record writes nothing. A ``ValueError`` from
    ``decode`` or ``build`` ends the map with a ``RowMalformed`` naming
    ``<path>:<line>``.

    The main process reads and numbers the lines and ``map_chunks`` hands
    them out in chunks of ``_CHUNK_ROWS``; a worker decodes, builds and
    encodes each row, and the text of each chunk is written in input order.
    """
    task = functools.partial(_map_chunk, path, decode, build)
    flagged = 0
    with closing(map_chunks(task, _chunks(_numbered_rows(path)))) as results:
        for text, count, flags in results:
            out.write_text(text, count)
            flagged += flags
    return flagged


def chunk_spans(n: int) -> list[tuple[int, int]]:
    """The ``(start, stop)`` index spans of ``n`` items in chunks of
    ``_CHUNK_ROWS``."""
    return [(start, min(start + _CHUNK_ROWS, n)) for start in range(0, n, _CHUNK_ROWS)]


def map_workers(chunks: int) -> int:
    """The workers ``map_chunks`` forks for ``chunks`` chunks: one per CPU,
    or none for a single chunk or a single CPU."""
    cpus = len(os.sched_getaffinity(0))
    return cpus if chunks > 1 and cpus > 1 else 0


class WorkerLost(Exception):
    """A worker of ``map_chunks`` ended without returning its chunk."""


def map_chunks(task: Callable[[Any], T], chunks: Iterable[Any]) -> Iterator[T]:
    """Yield ``task(chunk)`` for each of ``chunks``, in order.

    When ``map_workers`` gives workers for them, the chunks go to forked
    workers and at most ``_AHEAD_PER_WORKER`` chunks per worker are read
    ahead of the one yielded; otherwise each is mapped in this process,
    which starts no other. Call it with no other thread running. An exception that ``task`` raises in a worker is raised here;
    a worker that dies without one (killed by a signal) raises
    ``WorkerLost``. Workers ignore SIGINT, so an interrupt reaches only
    this process, which lets the running chunks finish before it goes on.
    Close the generator to stop the workers early.
    """
    chunks = iter(chunks)
    head = list(islice(chunks, 2))
    workers = map_workers(len(head))
    if not workers:
        yield from map(task, chain(head, chunks))
        return
    # Imported here: a command that maps no chunks loads no multiprocessing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Fork, not spawn: a worker inherits the imported modules and ``task``,
    # whose closures need not pickle. Forking is safe because the callers
    # run no thread (cli joins the mock's request threads before a map) and
    # the pool forks every worker before it starts its own.
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(task,),
    )
    try:
        yield from ordered_map(
            pool, _worker_map, chain(head, chunks), _AHEAD_PER_WORKER * workers
        )
    except BrokenProcessPool:
        raise WorkerLost("a worker process died before returning its chunk") from None
    finally:
        pool.shutdown(cancel_futures=True)


def ordered_map(
    pool, fn: Callable[[Any], T], items: Iterable[Any], ahead: int
) -> Iterator[T]:
    """Yield ``fn(item)`` for each of ``items``, in order, each run on the
    executor ``pool``. ``items`` is read at most ``ahead`` items ahead of
    the one yielded; shutting ``pool`` down is the caller's."""
    items = iter(items)
    window = deque(pool.submit(fn, item) for item in islice(items, ahead))
    while window:
        result = window.popleft().result()
        for item in islice(items, 1):
            window.append(pool.submit(fn, item))
        yield result


def _chunks(
    rows: Iterator[tuple[int, str]],
) -> Iterator[tuple[int, list[tuple[int, str]]]]:
    """``(index of the first row, rows)`` of each run of ``_CHUNK_ROWS`` rows."""
    start = 0
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        yield start, chunk
        start += len(chunk)


def _map_chunk(path, decode, build, chunk) -> tuple[str, int, int]:
    """(text, records, flagged rows) of one chunk of ``map_rows``."""
    start, rows = chunk
    lines: list[str] = []
    flagged = 0
    for i, (n, line) in enumerate(rows, start):
        try:
            record, flag = build(i, decode(line))
        except ValueError as exc:
            raise RowMalformed(f"{path}:{n}: {exc}") from exc
        flagged += flag
        if record is not None:
            lines.append(record_line(record))
    return "".join(lines), len(lines), flagged


# The chunk function of a forked ``map_chunks`` worker, set as it starts.
_worker_task: Callable[[Any], Any] | None = None


def _start_worker(task) -> None:
    import signal

    global _worker_task
    _worker_task = task
    # Ctrl-C goes to the whole process group; only the main process acts.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _worker_map(chunk):
    return _worker_task(chunk)
