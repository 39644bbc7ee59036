"""Dataset records and the file formats shared across pipeline commands.

Row files stream. Every reader splits its file into lines with
``_numbered_lines``, which reads bytes a block at a time and yields each
line's span, and a line that is not UTF-8 is named by its number.
``iter_records`` is the one JSON-lines reader of records: it decodes,
checks and builds each row before the next, so no list of decoded records
ever sits beside the rows built from them. The native inputs are read by
``map_rows`` with their per-line decoders, ``pizza_line_decoder`` and
``decode_mtop_line``. ``RecordWriter`` and ``write_records`` write a row
at a time, each as the line ``record_line`` makes.

``RecordRows`` checks every row of a JSON-lines file in one pass but
keeps only each row's byte span, plus the key of each row when the caller
asks for one; indexing it rereads that row and builds what the caller
asked for. ``read_jsonl`` is the view of an ``Example`` file. So the
augment pool, which rs and gb sample by index, the real and synthetic sets
of ``mix``, and the source, MT and alignment rows of ``project-mt`` cost a
few bytes per row until a row is used. What a command holds whole is what
it must keep: the id or text positions that rs, gb and project-mt index,
and the parses that ``score`` pairs by id.

``map_chunks`` maps chunks of work on every CPU: forked workers map the
chunks, and the main process takes their results in order, reading at
most a few chunks per worker ahead. One chunk, or a single CPU, is mapped
in process with no other process started, and ``multiprocessing`` is
imported only when a pool starts. That choice, ``_map_workers``, is made
here alone: no other module reads the CPUs. A worker that dies ends the
map with one ``WorkerLost``; workers ignore SIGINT, which only the main
process acts on. ``map_rows`` maps the rows of a file with it: the main
process reads and numbers the lines, workers decode, build and encode
chunks of them, and the main process writes each chunk's text in input
order. ``cli`` maps every mock augment pass, tasks or slot n-best jobs,
with it, in ``chunk_spans`` of job indices.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import weakref
from array import array
from collections import deque
from collections.abc import Sequence
from contextlib import closing
from dataclasses import dataclass
from importlib import resources
from itertools import chain, islice
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, TypeVar

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
        cf = _checked_cf(d)
        try:
            # Positional: a keyword call costs half as much again per row.
            return cls(
                str(d["id"]),
                str(d["lang"]),
                str(d["text"]),
                str(d["parse"]),
                str(d.get("source", "")),
                cf,
            )
        except KeyError as exc:
            raise RowMalformed(f"missing field {exc} in record {d!r}") from exc


def _checked_cf(d: dict[str, Any]) -> str | None:
    """The ``cf`` field of a row, which must be a string or null."""
    cf = d.get("cf")
    if cf is not None and not isinstance(cf, str):
        raise RowMalformed(f"field 'cf' must be a string or null, got {cf!r}")
    return cf


_EXAMPLE_FIELDS = ("id", "lang", "text", "parse")


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write a file via temp-file rename so readers never see partial content."""
    with RecordWriter(path) as out:
        out.file.write(text)


# The encoder of every row written; ``json.dumps`` with a non-default
# option would build a new one for each row.
_encode_record = json.JSONEncoder(ensure_ascii=False).encode


def record_line(record: dict[str, Any]) -> str:
    """The line that holds ``record`` in a JSON-lines file."""
    return _encode_record(record) + "\n"


class RecordWriter:
    """Write JSON-lines records one at a time, as a context manager.

    Records go to a temp file beside ``path``. A clean exit renames it onto
    ``path``; an exception renames it to ``partial``, the records written so
    far, when one is given, and deletes it otherwise. ``path`` itself is
    never seen half-written. ``count`` is the number of records written.
    ``file`` is the open temp file, for text that is not a record, such as
    a JSON document that ``json.dump`` streams into it.
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
        self.file = os.fdopen(fd, "w", encoding="utf-8")
        return self

    def write(self, record: dict[str, Any]) -> None:
        self.write_text(record_line(record), 1)

    def write_text(self, text: str, count: int) -> None:
        """Write ``count`` records already encoded by ``record_line``."""
        self.file.write(text)
        self.count += count

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.file.close()
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

    The file is read a block at a time, so a read holds one block and one
    decoded record beside the rows already built. Blank lines are skipped
    but counted. Each other line must hold one JSON object with every one
    of ``fields``; a line that does not, or a ``ValueError`` from
    ``build``, ends the read with a ``RowMalformed`` naming
    ``<path>:<line>``.
    """
    return _iter_rows(path, functools.partial(_decode_record, fields, build))


def _decode_record(fields: tuple[str, ...], build, line: str):
    """The record that one line of ``iter_records`` holds, or ``build`` of it."""
    try:
        record = _json_value(line)
    except json.JSONDecodeError as exc:
        raise ValueError("invalid JSON record") from exc
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    for field in fields:
        if field not in record:
            raise ValueError(f"record lacks field {field!r}")
    return record if build is None else build(record)


_scan_json = json.JSONDecoder().scan_once


def _json_value(text: str) -> Any:
    """``json.loads(text)``. A line that starts and ends with its value,
    as every line ``record_line`` writes does, is scanned once, without
    the whitespace matches ``json.loads`` makes; any other goes through
    ``json.loads``, which decodes it or raises its error."""
    try:
        value, end = _scan_json(text, 0)
    except StopIteration:
        return json.loads(text)
    return value if end == len(text) else json.loads(text)


def _iter_rows(path: str | Path, decode: Callable[[str], T]) -> Iterator[T]:
    """``decode`` of each non-blank line of ``path``; a ``ValueError`` it
    raises becomes a ``RowMalformed`` naming ``<path>:<line>``."""
    with open(path, "rb", buffering=0) as fh:
        for n, _, _, line in _numbered_rows(path, fh):
            try:
                row = decode(line)
            except ValueError as exc:
                raise RowMalformed(f"{path}:{n}: {exc}") from exc
            yield row


def _numbered_rows(
    path: str | Path, fh: BinaryIO
) -> Iterator[tuple[int, int, int, str]]:
    """``(number, start, stop, line)`` of each line of the file ``fh``
    (opened from ``path``) that holds more than whitespace: the UTF-8 text
    of the bytes ``[start, stop)``, without its line end. Blank lines are
    skipped but counted, in every row format. A line that is not UTF-8 ends
    the read with a ``RowMalformed`` naming ``<path>:<line>``."""
    for n, start, raw in _numbered_lines(fh):
        try:
            line = raw.decode()
        except UnicodeDecodeError as exc:
            raise RowMalformed(f"{path}:{n}: {exc}") from exc
        if line and not line.isspace():
            yield n, start, start + len(raw), line


# Bytes read at a time by ``_numbered_lines``: a line reader holds one
# block and the lines split from it.
_READ_BYTES = 1 << 15


def _numbered_lines(fh: BinaryIO) -> Iterator[tuple[int, int, bytes]]:
    """``(number, start, line)`` of each line of the binary file ``fh``,
    read from its start in blocks of ``_READ_BYTES``: ``line`` is the
    line's bytes without its end, and ``start`` their offset in the file.
    A line ends at LF, CRLF or CR, as in a text-mode read, and never at the
    other characters ``str.splitlines`` breaks at; the bytes are decoded
    by the caller, which knows each line's number."""
    n = start = 0
    head: list[bytes] = []  # the start of a line that runs past its block
    while block := fh.read(_READ_BYTES):
        while block.endswith(b"\r") and (more := fh.read(1)):
            block += more  # so that no block splits a CRLF
        # bytes.splitlines breaks at LF, CRLF and CR only.
        lines = block.splitlines(keepends=True)
        rest = None if lines[-1].endswith((b"\n", b"\r")) else lines.pop()
        if head and lines:
            head.append(lines[0])
            lines[0] = b"".join(head)
            head = []
        if rest is not None:
            head.append(rest)
        for line in lines:
            n += 1
            yield n, start, line.rstrip(b"\r\n")
            start += len(line)
        del block, lines  # before the next block is read
    if head:
        yield n + 1, start, b"".join(head)


def write_jsonl(path: str | Path, examples: Iterable[Example]) -> int:
    return write_records(path, (ex.to_dict() for ex in examples))


def read_jsonl(path: str | Path, key: str | None = None) -> "RecordRows":
    """The ``Example`` rows of the JSON-lines file ``path``, each read from
    the file when it is indexed (see ``RecordRows``).

    One pass checks every row as ``iter_records`` with ``Example.from_dict``
    would: blank lines are skipped but counted, and a row that is not an
    ``Example`` ends the read with a ``RowMalformed`` naming
    ``<path>:<line>``. With ``key``, one of the fields of every row, the
    result's ``keys`` holds that field of each row, as a string, in order.
    """
    return RecordRows(
        path, _EXAMPLE_FIELDS, Example.from_dict,
        None if key is None else lambda record: str(record[key]), _checked_cf,
    )


class RecordRows(Sequence):
    """The records of a checked JSON-lines file, each reread when indexed.

    One pass checks every row: it must be a JSON object with each of
    ``fields``, and ``check``, when given, must not raise a ``ValueError``
    for it; blank lines are skipped but counted, and a row that fails ends
    the read with a ``RowMalformed`` naming ``<path>:<line>``.

    Only each row's byte span is held (16 bytes a row), and ``keys``, the
    ``key`` of each row's record in order, when ``key`` is given.
    ``rows[i]`` rereads row ``i`` with ``os.pread`` and returns ``build``
    of its record, or the record itself; ``pread`` moves no shared file
    offset, so threads and forked workers can read one view at once. The
    view reads the file it opened, even after another file is renamed onto
    its path. It owns its descriptor: ``close()`` or the end of a ``with``
    block closes it, and so does the view's collection.
    """

    def __init__(
        self,
        path: str | Path,
        fields: tuple[str, ...],
        build: Callable[[dict[str, Any]], Any] | None = None,
        key: Callable[[dict[str, Any]], Any] | None = None,
        check: Callable[[dict[str, Any]], Any] | None = None,
    ) -> None:
        fd = os.open(path, os.O_RDONLY)
        self._fd = fd
        self._closer = weakref.finalize(self, os.close, fd)
        self._build = build
        self._spans = array("q")
        self.keys: list | None = None if key is None else []
        try:
            with open(fd, "rb", buffering=0, closefd=False) as fh:
                self._index(path, fh, fields, key, check)
        except BaseException:
            self.close()
            raise

    def _index(self, path, fh: BinaryIO, fields, key, check) -> None:
        append, keys = self._spans.append, self.keys
        for n, start, stop, line in _numbered_rows(path, fh):
            try:
                record = _decode_record(fields, None, line)
                if check is not None:
                    check(record)
                if keys is not None:
                    keys.append(key(record))
            except ValueError as exc:
                raise RowMalformed(f"{path}:{n}: {exc}") from exc
            append(start)
            append(stop)

    def __len__(self) -> int:
        return len(self._spans) // 2

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        # Row i's span is (spans[2i], spans[2i + 1]), for negative i too.
        start, stop = self._spans[2 * i], self._spans[2 * i + 1]
        record = _json_value(os.pread(self._fd, stop - start, start).decode())
        return record if self._build is None else self._build(record)

    def close(self) -> None:
        self._closer()
        self._fd = -1  # a later read fails, whatever file takes the number

    def __enter__(self) -> "RecordRows":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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
    with open(path, "rb", buffering=0) as fh:
        rows = ((n, line) for n, _, _, line in _numbered_rows(path, fh))
        with closing(map_chunks(task, _chunks(rows))) as results:
            for text, count, flags in results:
                out.write_text(text, count)
                flagged += flags
    return flagged


def chunk_spans(n: int) -> list[tuple[int, int]]:
    """The ``(start, stop)`` index spans of ``n`` items in chunks of
    ``_CHUNK_ROWS``."""
    return [(start, min(start + _CHUNK_ROWS, n)) for start in range(0, n, _CHUNK_ROWS)]


def _map_workers(chunks: int) -> int:
    """The workers ``map_chunks`` forks for ``chunks`` chunks: one per CPU,
    or none for a single chunk or a single CPU."""
    cpus = len(os.sched_getaffinity(0))
    return cpus if chunks > 1 and cpus > 1 else 0


class WorkerLost(Exception):
    """A worker of ``map_chunks`` ended without returning its chunk."""


def map_chunks(task: Callable[[Any], T], chunks: Iterable[Any]) -> Iterator[T]:
    """Yield ``task(chunk)`` for each of ``chunks``, in order.

    When ``_map_workers`` gives workers for them, the chunks go to forked
    workers and at most ``_AHEAD_PER_WORKER`` chunks per worker are read
    ahead of the one yielded; otherwise each is mapped in this process,
    which starts no other. Call it with no other thread running. An
    exception that ``task`` raises in a worker is raised here;
    a worker that dies without one (killed by a signal) raises
    ``WorkerLost``. Workers ignore SIGINT, so an interrupt reaches only
    this process, which lets the running chunks finish before it goes on.
    Close the generator to stop the workers early.
    """
    chunks = iter(chunks)
    head = list(islice(chunks, 2))
    workers = _map_workers(len(head))
    if not workers:
        yield from map(task, chain(head, chunks))
        return
    # Imported here: a command that maps no chunks loads no multiprocessing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Fork, not spawn: a worker inherits the imported modules and ``task``,
    # whose closures need not pickle. Forking is safe because the callers
    # run no thread (cli's mock passes start none; only HTTP runs do, and
    # they map nothing) and the pool forks every worker before it starts
    # its own.
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
