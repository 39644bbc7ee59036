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
keeps only each row's byte span; indexing it rereads that row and builds
what the caller asked for. Given a key, the pass also keeps a hashed key
index, 8 bytes a row whatever the key's length, and ``find`` yields the
rows whose key equals a value, each reread to compare its key.
``read_jsonl`` is the view of an ``Example`` file. So the augment pool,
which rs and gb sample by index and look up by id or text, the real and
synthetic sets of ``mix``, and the source, MT and alignment rows of
``project-mt`` cost a few bytes per row until a row is used. What a
command holds whole is what it must keep: the parses that ``score`` pairs
by id.

``map_chunks`` maps chunks of work on every CPU, on one worker per CPU
forked with ``os.fork`` and joined to the main process by two plain
pipes, one of pickled chunks and one of pickled results; no process pool
is involved and no thread is started. Chunk i goes to worker i mod the
workers, each with at most ``_AHEAD_PER_WORKER`` chunks sent and not yet
taken back, and the main process reads the results in chunk order: a
finished result waits in its worker's pipe, so the main process holds
one result at a time. One chunk, or a single CPU, is mapped in process
with no other process started, and ``pickle`` is imported only when
workers are forked. That choice, ``_map_workers``, is made here alone: no
other module reads the CPUs or forks. A worker that dies ends the map
with one ``WorkerLost``; workers ignore SIGINT, which only the main
process acts on. ``map_rows`` maps the rows of a file with it: the main
process numbers the lines and hands each chunk out as the byte span of
its rows, holding none of their text; a worker reads its span, then
decodes, builds and encodes the rows, and the main process writes each
chunk's text in input order. ``cli`` maps every mock augment pass, tasks
or slot n-best jobs, with it, in ``chunk_spans`` of job indices.
"""

from __future__ import annotations

import functools
import io
import json
import os
import tempfile
import weakref
from array import array
from bisect import bisect_left
from collections import deque
from collections.abc import Sequence
from contextlib import closing
from dataclasses import dataclass
from importlib import resources
from itertools import chain, islice
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping, TypeVar

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
    result's ``find`` looks rows up by that field, as a string.
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

    Only each row's byte span is held (16 bytes a row), and, when ``key``
    is given, a hashed index of each row's ``key(record)`` (8 bytes a row,
    whatever the key's length) that ``find`` reads. ``rows[i]`` rereads row
    ``i`` with ``os.pread`` and returns ``build`` of its record, or the
    record itself; ``pread`` moves no shared file offset, so threads and
    forked workers can read one view at once. The view reads the file it
    opened, even after another file is renamed onto its path. It owns its
    descriptor: ``close()`` or the end of a ``with`` block closes it, and
    so does the view's collection.
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
        self._key = key
        self._spans = array("q")
        try:
            with open(fd, "rb", buffering=0, closefd=False) as fh:
                self._index(path, fh, fields, key, check)
        except OSError as exc:
            # A read fault names the descriptor read ("Is a directory: 3").
            self.close()
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        except BaseException:
            self.close()
            raise

    def _index(self, path, fh: BinaryIO, fields, key, check) -> None:
        append = self._spans.append
        hashes = array("q")
        for n, start, stop, line in _numbered_rows(path, fh):
            try:
                record = _decode_record(fields, None, line)
                if check is not None:
                    check(record)
                if key is not None:
                    hashes.append(hash(key(record)))
            except ValueError as exc:
                raise RowMalformed(f"{path}:{n}: {exc}") from exc
            append(start)
            append(stop)
        # Each entry of the key index is a row's key hash with its low bits
        # replaced by the row's position, so the sorted entries of one hash
        # prefix are its rows in file order.
        self._mask = mask = (1 << len(hashes).bit_length()) - 1
        high = ~mask
        entries = [(h & high) | j for j, h in enumerate(hashes)]
        del hashes
        entries.sort()
        self._keyed = array("q", entries)

    def __len__(self) -> int:
        return len(self._spans) // 2

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        record = self._record(i)
        return record if self._build is None else self._build(record)

    def _record(self, i: int) -> Any:
        # Row i's span is (spans[2i], spans[2i + 1]), for negative i too.
        start, stop = self._spans[2 * i], self._spans[2 * i + 1]
        return _json_value(os.pread(self._fd, stop - start, start).decode())

    def find(
        self, value: Any, held: Mapping[int, Any] = {}
    ) -> Iterator[tuple[int, Any]]:
        """``(position, row)`` of each row whose key equals ``value``, in
        file order; the view must have been given a ``key``.

        The index gives the rows whose key hash has the prefix of
        ``value``'s; each is reread and its own key compared with
        ``value``, so a hash collision never changes the result, and the
        row yielded is built from that read. ``held`` maps positions to
        rows the caller already holds and knows to have this key: such a
        row is yielded as it is, without a reread. The hashes are this
        process's (``PYTHONHASHSEED``), which forked workers share.
        """
        if self._key is None:
            raise TypeError("find needs a view indexed by a key")
        mask, keyed = self._mask, self._keyed
        prefix = hash(value) & ~mask
        # The entries of the prefix run from the first at or above it to
        # the last at or below it with every low bit set.
        i, last, end = bisect_left(keyed, prefix), prefix | mask, len(keyed)
        while i < end and (entry := keyed[i]) <= last:
            i += 1
            j = entry & mask
            if j in held:
                yield j, held[j]
                continue
            record = self._record(j)
            if self._key(record) == value:
                yield j, record if self._build is None else self._build(record)

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
# about 0.1 s on a 2-vCPU Xeon VM, against about a millisecond to read
# their byte span (about 250 KB) and send back their text, so the hand-off
# costs about 1%; a chunk queued ahead is four integers, so the main
# process holds no line of it; and a 20k-row input still splits evenly
# over the workers. 1000-task augment chunks were also faster than 64-task
# ones, and a mock augment run of at most 1000 tasks stays in one process,
# where a patched backend sees every request.
_CHUNK_ROWS = 1000
# Chunks sent to a worker and not yet taken back: one to map and one
# waiting, so no worker idles while the main process writes.
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

    The main process numbers the lines, checking that each is UTF-8, and
    ``map_chunks`` hands out each run of ``_CHUNK_ROWS`` rows as the byte
    span that holds them; a worker reads its span and decodes, builds and
    encodes each row, and the text of each chunk is written in input order.
    """
    task = functools.partial(_map_chunk, path, decode, build)
    flagged = 0
    with open(path, "rb", buffering=0) as fh:
        with closing(map_chunks(task, _chunks(_numbered_rows(path, fh)))) as results:
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
    """A worker of ``map_chunks`` that did not send back its chunk's result."""


_LOST = "a worker process died before returning its chunk"


def map_chunks(task: Callable[[Any], T], chunks: Iterable[Any]) -> Iterator[T]:
    """Yield ``task(chunk)`` for each of ``chunks``, in order.

    When ``_map_workers`` gives workers for them, the chunks are mapped by
    worker processes forked here, each joined to this process by two
    pipes: chunk i is pickled onto the request pipe of worker ``i mod
    workers``, which writes ``(ok, result or exception)`` to its result
    pipe. At most ``_AHEAD_PER_WORKER`` chunks per worker are sent and not
    yet taken back, so ``chunks`` is read at most that many per worker
    ahead of the one yielded. Results are read in chunk order: a finished
    one waits in its worker's pipe, and this process holds one at a time.
    Otherwise each chunk is mapped in this process, which starts no other.

    Forking copies only the calling thread, so call it with no other
    thread running (cli's mock passes start none; only HTTP runs do, and
    they map nothing); it starts none itself. A worker inherits ``task``
    and every module imported, so ``task`` need not pickle, but each chunk
    and result must. A chunk should pickle to a few bytes, such as a span
    of indices: the chunks sent to a worker wait in its pipe's buffer.

    An exception that ``task`` raises in a worker is raised here, in chunk
    order; a result or exception that cannot be pickled is replaced by a
    ``WorkerLost`` naming its type. A worker that dies without its result
    (killed by a signal) ends the map with one ``WorkerLost``, whether
    this process finds its result pipe or its request pipe closed. Workers
    ignore SIGINT, so an interrupt reaches only this process. Closing the
    generator, or any exception, closes every pipe and waits for every
    worker: each finishes the chunk it is mapping and starts no other.
    """
    chunks = iter(chunks)
    head = list(islice(chunks, 2))
    count = _map_workers(len(head))
    if not count:
        yield from map(task, chain(head, chunks))
        return
    # Imported here: a command that maps no chunks loads no pickle.
    import pickle

    chunks = chain(head, chunks)
    workers: list[tuple[int, int, int]] = []  # (pid, request end, result end)
    try:
        for _ in range(count):
            workers.append(_fork_worker(task, workers))
        sent = taken = 0
        while True:
            # Chunk i goes to worker i mod count once chunk i - ahead is
            # taken back, the last that worker was sent.
            for chunk in islice(chunks, _AHEAD_PER_WORKER * count - (sent - taken)):
                try:
                    _send(workers[sent % count][1], pickle.dumps(chunk, pickle.HIGHEST_PROTOCOL))
                except BrokenPipeError:
                    raise WorkerLost(_LOST) from None
                sent += 1
            if taken == sent:
                return
            data = _receive(workers[taken % count][2])
            if data is None:
                raise WorkerLost(_LOST)
            ok, value = pickle.loads(data)
            del data
            taken += 1
            if not ok:
                raise value
            yield value
            del value  # not held while the next result is read
    finally:
        # Result ends first: a worker then fails its write at once, and
        # one between chunks finds its result pipe closed.
        for _, _, results in workers:
            os.close(results)
        for _, requests, _ in workers:
            os.close(requests)
        for pid, _, _ in workers:
            os.waitpid(pid, 0)


def _fork_worker(task, workers: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Fork a worker that maps chunks with ``task``: ``(pid, request end,
    result end)``, the ends of its pipes that this process keeps.
    ``workers`` are the ones forked before it, whose ends it closes: a
    worker holding them would keep another's pipes open."""
    fds = list(os.pipe())
    try:
        fds += os.pipe()
        pid = os.fork()
    except BaseException:
        for fd in fds:
            os.close(fd)
        raise
    request_read, request_write, result_read, result_write = fds
    if pid == 0:
        try:
            for fd in request_write, result_read, *(fd for _, *ends in workers for fd in ends):
                os.close(fd)
            _serve(task, request_read, result_write)
        finally:
            os._exit(0)  # never back into the caller's frames
    os.close(request_read)
    os.close(result_write)
    return pid, request_write, result_read


def _serve(task, requests: int, results: int) -> None:
    """The loop of a forked worker: map each chunk read from the pipe
    ``requests`` with ``task`` and write ``(ok, result or exception)`` to
    the pipe ``results``, until the main process closes either pipe."""
    import pickle
    import select
    import signal

    # Ctrl-C goes to the whole process group; only the main process acts.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The writer of a pipe polls POLLERR once the reader has closed it.
    closed = select.poll()
    closed.register(results, 0)
    while not closed.poll(0) and (request := _receive(requests)) is not None:
        try:
            value, ok = task(pickle.loads(request)), True
        except BaseException as exc:  # raised in the main process instead
            value, ok = exc, False
        try:
            reply = pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
            if not ok:
                pickle.loads(reply)  # an exception must rebuild there too
        except Exception as exc:
            name = type(value).__name__
            reply = pickle.dumps(
                (False, WorkerLost(f"a worker could not send back the {name} of its chunk: {exc}"))
            )
        del value  # not held while the reply waits for the main process
        _send(results, reply)


def _send(fd: int, data: bytes) -> None:
    """Write ``data`` to the pipe ``fd`` as one frame: its length, then it."""
    for part in len(data).to_bytes(8, "little"), data:
        view = memoryview(part)
        while view:
            view = view[os.write(fd, view) :]


def _receive(fd: int) -> bytearray | None:
    """The data of the next frame on the pipe ``fd``, or None if its writer
    closed the pipe before the frame was whole."""
    size = _read(fd, 8)
    return None if size is None else _read(fd, int.from_bytes(size, "little"))


def _read(fd: int, n: int) -> bytearray | None:
    """The next ``n`` bytes of the pipe ``fd``; None if it ends first."""
    data = bytearray(n)
    view, got = memoryview(data), 0
    while got < n:
        read = os.readv(fd, [view[got:]])
        if not read:
            return None
        got += read
    return data


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
    rows: Iterator[tuple[int, int, int, str]],
) -> Iterator[tuple[int, int, int, int]]:
    """``(index of the first row, lines before it, start, stop)`` of each
    run of ``_CHUNK_ROWS`` of the ``_numbered_rows`` ``rows``: the run's
    rows are the non-blank lines of the bytes ``[start, stop)``."""
    first = 0
    for n, start, stop, _ in rows:
        count = 1
        for _, _, stop, _ in islice(rows, _CHUNK_ROWS - 1):
            count += 1
        yield first, n - 1, start, stop
        first += count


def _map_chunk(path, decode, build, chunk) -> tuple[str, int, int]:
    """(text, records, flagged rows) of one chunk of ``map_rows``, read
    from the chunk's byte span of ``path``."""
    first, before, start, stop = chunk
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.pread(fd, stop - start, start)
    finally:
        os.close(fd)
    lines: list[str] = []
    flagged = 0
    rows = _numbered_rows(path, io.BytesIO(data))
    for i, (n, _, _, line) in enumerate(rows, first):
        try:
            record, flag = build(i, decode(line))
        except ValueError as exc:
            raise RowMalformed(f"{path}:{before + n}: {exc}") from exc
        flagged += flag
        if record is not None:
            lines.append(record_line(record))
    return "".join(lines), len(lines), flagged
