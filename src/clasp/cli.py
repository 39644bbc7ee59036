"""Command-line pipeline: preprocessing, augmentation, projection, mixing,
scoring, and report rendering.

All randomness flows from the --seed flag; identical inputs and seed give
byte-identical outputs.

``augment`` takes each setting from its flag, else from the JSON object in
--config, else from a built-in default. The config keys are the flag names
with underscores: dataset, method, k, seed, backend (default mock),
mock_rules, catalog, anchors, langs (a list or a comma-separated string),
nbest_in, nbest_out, max_inflight (default 4), prompt_templates and
cf_templates; plus decoding, an object of DecodingConfig fields that
override the default decoding of the method. The ts/tb slot n-best pass
keeps its own decoding (beam, 4 outputs).
A null value leaves its setting unset. Any other key, or a value that fails
its flag's or field's type or choices, is an error. The target languages
default to every language of the anchor file, sorted; a list that names
no language is an error.

``augment`` streams: tasks are built as the generate pass asks for them,
and each row goes in task order to a temp file beside --out that is
renamed onto --out when the run ends. One runner, ``_pass``, serves the
task pass and the ts/tb slot n-best pass. The mock answers with CPU work,
so its jobs go in chunks through ``datasets.map_chunks``, one request at
a time: one forked worker per CPU maps them, at most two chunks per
worker ahead of the one being written. A pass of more than
``datasets._CHUNK_ROWS`` (1000) jobs is cut into equal chunks, as many
as a multiple of the workers, so each worker maps as many jobs; a pass
of one chunk, or on one CPU, stays in this process. An HTTP
backend waits on the network, so its jobs run in this process: at
--max-inflight 1 one request at a time with no thread, and above that on
one pool of --max-inflight request threads, with at most
``_WINDOW_PER_SLOT`` tasks per request slot built ahead of the row being
written. Either way each row is built from its outputs and written on
the main thread, in task order. --max-inflight is an HTTP setting: a mock
run starts no thread, since request threads only add to its CPU work
(``augment gb --k 1000`` on a 20k-row pool took 1.76 s with 4 in flight
against 1.25 s with 1, the same rows; medians of 7 runs of the whole
command on a 2-vCPU Xeon VM). Outputs are the same bytes either way.
When a run fails part way (a backend failure, an interrupt, a pool row
that cannot be parsed, a lost worker), the rows finished so far are kept
in ``<out>.partial`` and --out is not created. Errors in the settings (a
pool too small, a language without an anchor pair or a name in the
prompt templates, an --nbest-in file without a value the run renders, an
unreadable file) stop the run before its first request and leave no
``.partial``. So does an output flag the method never writes: --nbest-out
for rs, gb and mt, or beside --nbest-in, and --stats-out for mt.

The ts/tb slot n-best is a JSON-lines file of one ``{"language",
"value", "candidates"}`` row per (language, English value), language by
language and each language's values sorted; --nbest-out defaults to
``<out>.nbest.jsonl``. The n-best pass writes each row as its job
finishes, and the run reads the file, or --nbest-in, as a
``gate.SlotNBestMap`` view keyed by each row's (language, value) and by
each (language, candidate), so it holds about 60 bytes a row and rereads
a row only when it looks it up. A row of the wrong shape, or a pool row
whose parse is malformed, ends the run with one error line naming
``<file>:<line>``.

Before any work, augment, project-mt, mix and score resolve every path
they may write (rows, stats record and table, slot n-best, plan and
``.partial``): two that are one file, where the later would replace the
earlier, end the command with one error line naming both, and no file is
written.

Row files stream (see ``datasets``). preprocess-pizza and preprocess-mtop
map their rows with ``datasets.map_rows``: this process numbers the input
lines and hands them in chunks, each the byte span of its rows, to one
forked worker per CPU, which reads its span itself; only a few chunks per
worker are handed out ahead of the one being written, and the rows are
written in input order. An input that fits in one chunk, or a single CPU,
is mapped in process. Each row's parse is parsed, so a row that does not
decode or whose parse is malformed ends the run with one error line
naming ``<file>:<line>`` and no output. project-mt, mix and the augment
loop write a row at a time. The augment pool, the real and synthetic rows
of mix and the source rows of project-mt are read with
``datasets.read_jsonl``, and project-mt's MT and alignment records with
the ``datasets.RecordRows`` view it returns: one pass checks every row
and keeps its byte span, and a row is reread only when a task, the
manifest or a projection uses it. rs, gb and project-mt look rows up by
id, text or (id, language) through the view's hashed key index
(``RecordRows.find``), which holds a hash a key, not the key, and
compares each found row's own keys. A command holds a whole file only
where it must: score the parses of the hyp and ref rows by id.

Every JSON file a command reads (the setting files of ``augment``, its
--config, and the record given to ``report --in``) is read by
``datasets.read_json``: a file that is not JSON, or whose value fails the
checks of its flag, ends the command with a single error line that names
the file.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import sys
from collections import Counter, deque
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import replace as dc_replace
from itertools import islice
from pathlib import Path
from typing import get_type_hints

from . import backends, canonical, gate, metrics, mixing, projection, prompts, sentinels
from .backends import BackendError, DecodingConfig, MockBackend, MockRule
from .datasets import (
    Example,
    RecordRows,
    RecordWriter,
    RowMalformed,
    WorkerLost,
    atomic_write_text,
    chunk_spans,
    decode_mtop_line,
    iter_records,
    map_chunks,
    map_rows,
    packaged,
    pizza_line_decoder,
    read_json,
    read_jsonl,
    record_line,
    write_jsonl,
)
from .trees import (
    Dialect,
    TreeError,
    UnmatchableSlot,
    decouple,
    leaf_slots,
    parse as parse_tree,
    replace_slot,
    serialize,
)

log = logging.getLogger("clasp")

# The augment settings that a --config file may set too, with the type and
# the choices of each flag; config values must pass the same checks.
_AUGMENT_FLAGS = {
    "dataset": (str, None),
    "method": (str, tuple(m.value for m, s in prompts.METHODS.items() if s.family)),
    "k": (int, None), "seed": (int, None), "backend": (str, ("mock", "http")),
    "mock_rules": (str, None), "catalog": (str, None), "anchors": (str, None),
    "langs": (str, None), "nbest_in": (str, None), "nbest_out": (str, None),
    "max_inflight": (int, None), "prompt_templates": (str, None),
    "cf_templates": (str, None),
}
_DECODING_FIELDS = get_type_hints(DecodingConfig)
_AUGMENT_HELP = {
    "langs": "comma-separated target languages (default: every anchor language)",
    "nbest_in": "ts/tb: read the slot n-best from this JSON-lines file, as "
    "--nbest-out writes it, instead of translating the slot values; it must hold "
    "every value of the rows the run renders",
    "nbest_out": "ts/tb without --nbest-in: write the slot n-best here as JSON "
    "lines, one {language, value, candidates} row per (language, English value) "
    "(default: <out>.nbest.jsonl); it holds only the values of the rows the run "
    "renders",
    "max_inflight": "HTTP backend: requests in flight, each on its own thread "
    "(default 4); the mock sends one request at a time and ignores it",
}


class CliError(Exception):
    """User-facing error; message printed, nonzero exit."""


class MissingInput(CliError):
    pass


class IdMismatch(CliError):
    pass


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        args.func(args)
    except (CliError, RowMalformed, TreeError, ValueError, OSError, WorkerLost) as exc:
        log.error("%s", exc)
        return 1
    except BackendError as exc:
        log.error("backend failure: %s", exc)
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clasp",
        description="Semantic-parsing data augmentation pipeline.",
    )
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("preprocess-pizza", help="pizza rows -> dataset with CF targets")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["fixed-cf", "original"], default="fixed-cf")
    p.add_argument("--cf-templates", default=None)
    p.add_argument("--source-tag", default="dev")
    p.set_defaults(func=cmd_preprocess_pizza)

    p = sub.add_parser("preprocess-mtop", help="mtop TSV -> space-joined dataset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sentinels", action="store_true")
    p.add_argument(
        "--on-unencodable",
        choices=["discard", "keep"],
        default="discard",
        help="training rows that cannot be sentinel-encoded are discarded; "
        "test rows are usually kept",
    )
    p.add_argument("--source-tag", default="train")
    p.set_defaults(func=cmd_preprocess_mtop)

    p = sub.add_parser("augment", help="generate synthetic examples via a backend")
    for key, (kind, choices) in _AUGMENT_FLAGS.items():
        p.add_argument(
            "--" + key.replace("_", "-"), type=kind, choices=choices,
            help=_AUGMENT_HELP.get(key),
        )
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--stats-out", default=None)
    p.set_defaults(func=cmd_augment, decoding=None)

    p = sub.add_parser("project-mt", help="project parses over MT output alignments")
    p.add_argument("--dataset", required=True, help="English source examples")
    p.add_argument("--mt", required=True, help="MT output records {id, language, text}")
    p.add_argument("--align", required=True, help="alignment records {id, language, pairs}")
    p.add_argument("--out", required=True)
    p.add_argument("--stats-out", default=None)
    p.add_argument("--source-tag", choices=["mt-opus", "mt-20b"], default="mt-opus")
    p.add_argument(
        "--check-sentence-marker",
        action="store_true",
        help="reject outputs carrying the marker word or missing the trailing ';'",
    )
    p.set_defaults(func=cmd_project_mt)

    p = sub.add_parser("mix", help="assemble a training manifest")
    p.add_argument("--real", required=True)
    p.add_argument("--real-tag", default="dev")
    p.add_argument(
        "--synthetic",
        action="append",
        default=[],
        metavar="TAG=PATH",
        help="repeatable; e.g. --synthetic clasp-rs=rs.jsonl",
    )
    p.add_argument("--updates", type=int, required=True)
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--plan-out", default=None)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("score", help="exact-match scoring of hypothesis files")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--metric", choices=["uem", "sciem"], required=True)
    p.add_argument("--dialect", choices=["pizza", "mtop"], default="mtop")
    p.add_argument(
        "--zero-shot-langs", default=",".join(metrics.DEFAULT_ZERO_SHOT_LANGS)
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("report", help="render a stats record file as a text table")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


# ---------------------------------------------------------------- preprocess


def _cf_templates(path: str | None) -> canonical.CfTemplateSet:
    if path:
        return read_json(path, canonical.CfTemplateSet.from_mapping)
    return canonical.CfTemplateSet.default()


def cmd_preprocess_pizza(args: argparse.Namespace) -> None:
    templates = _cf_templates(args.cf_templates)
    fixed_cf = args.mode == "fixed-cf"

    def build(i, row):
        tree = decouple(parse_tree(row["TOP"], Dialect.PIZZA_PAREN))
        if fixed_cf:
            try:
                cf = canonical.to_canonical_form(tree, templates)
            except canonical.TemplateError:
                return None, True
        else:
            cf = row["CF"]
        ex = Example(
            id=f"pizza-{i:06d}",
            lang="en",
            text=" ".join(row["SRC"].split()),
            parse=serialize(tree),
            source=args.source_tag,
            cf=cf,
        )
        return ex.to_dict(), False

    decode = pizza_line_decoder(need_cf=not fixed_cf)
    with RecordWriter(args.out) as out:
        uncovered = map_rows(args.infile, decode, build, out)
    if uncovered:
        log.info("skipped %d rows not covered by the CF templates", uncovered)
    log.info("wrote %d examples to %s", out.count, args.out)


def cmd_preprocess_mtop(args: argparse.Namespace) -> None:
    def build(i, row):
        text = sentinels.space_join_tokens(row["tokens"])
        parse_str = " ".join(row["decoupled_parse"].split())
        # Parsed in both modes, so that no malformed parse reaches the pool.
        tree = parse_tree(parse_str, Dialect.MTOP_BRACKET)
        ex = Example(
            id=row["id"],
            lang=row["lang"],
            text=text,
            parse=parse_str,
            source=args.source_tag,
        )
        if not args.sentinels:
            return ex.to_dict(), False
        try:
            enc = sentinels.encode_sentinels(text, tree)
        except UnmatchableSlot:
            return (ex.to_dict() if args.on_unencodable == "keep" else None), True
        ex = dc_replace(ex, text=enc.sentinel_text, parse=serialize(enc.sentinel_parse))
        return ex.to_dict(), False

    with RecordWriter(args.out) as out:
        unencodable = map_rows(args.infile, decode_mtop_line, build, out)
    if unencodable:
        log.info(
            "%d rows could not be sentinel-encoded (%s)",
            unencodable,
            args.on_unencodable,
        )
    log.info("wrote %d examples to %s", out.count, args.out)


# ------------------------------------------------------------------- augment

# Built-in values of the augment settings that neither a flag nor the
# --config file sets.
_AUGMENT_DEFAULTS = {"backend": "mock", "max_inflight": 4, "decoding": {}}


def _check_config_value(key: str, value, kind: type, choices=None) -> None:
    """Apply a flag's type and choices check to a --config value."""
    typed = isinstance(value, (int, float) if kind is float else kind)
    if isinstance(value, bool) or not typed or (choices and value not in choices):
        wanted = f"one of {', '.join(choices)}" if choices else kind.__name__
        raise ValueError(f"config key {key!r} must be {wanted}, got {value!r}")


def _augment_config(config) -> dict:
    """The object of a --config file, each value checked as its flag is."""
    if not isinstance(config, dict):
        raise ValueError("a config file must hold a JSON object")
    for key, value in config.items():
        if key != "decoding" and key not in _AUGMENT_FLAGS:
            raise ValueError(f"unknown config key {key!r}")
        if value is None:
            continue  # null leaves the setting unset
        if key == "decoding":
            _check_config_value(key, value, dict)
            for field, item in value.items():
                if field not in _DECODING_FIELDS:
                    raise ValueError(f"unknown decoding key {field!r}")
                _check_config_value(f"decoding.{field}", item, _DECODING_FIELDS[field])
        elif key == "langs" and isinstance(value, list):
            for lang in value:
                _check_config_value("langs", lang, str)
        else:
            _check_config_value(key, value, *_AUGMENT_FLAGS[key])
    return config


def _merge_config(args: argparse.Namespace) -> None:
    """Fill every augment setting no flag gave from --config, then from the
    built-in defaults, so the rest of the command reads only ``args``."""
    config = read_json(args.config, _augment_config) if args.config else {}
    for key, value in config.items():
        if value is not None and getattr(args, key) is None:
            setattr(args, key, value)
    for key, value in _AUGMENT_DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    for key in ("method", "k", "seed", "dataset"):
        if getattr(args, key) is None:
            raise CliError(f"--{key} is required (flag or config file)")
    if isinstance(args.langs, str):
        args.langs = [l.strip() for l in args.langs.split(",") if l.strip()]
    if args.langs == []:
        raise CliError("--langs names no language")


def _load_backend(args: argparse.Namespace):
    if args.backend == "mock":
        rules = (
            read_json(args.mock_rules, backends.mock_rules)
            if args.mock_rules
            else [MockRule()]
        )
        return MockBackend(rules)
    return backends.HttpBackend()


_ANCHOR_PAIR = 'an object of "en" and "tgt", each an object of a "text" and a "parse" string'


def _anchor_pairs(mapping) -> dict[str, tuple[Example, Example]]:
    """{language: (English anchor, target anchor)} of an anchor file, an
    object of {language: pair}; both parses of each pair must parse as MTOP
    brackets."""
    if not isinstance(mapping, dict):
        raise ValueError(
            f"an anchor file must be an object of {{language: pair}}, got {type(mapping).__name__}"
        )
    anchors = {}
    for lang, pair in mapping.items():
        if not isinstance(pair, dict):
            raise ValueError(
                f"the anchor pair of {lang!r} must be {_ANCHOR_PAIR}, got {type(pair).__name__}"
            )
        for side in "en", "tgt":
            found = pair.get(side)
            if not (isinstance(found, dict) and all(
                isinstance(found.get(field), str) for field in ("text", "parse")
            )):
                got = f"its {side!r} is {found!r}" if side in pair else f"it has no {side!r}"
                raise ValueError(f"the anchor pair of {lang!r} must be {_ANCHOR_PAIR}; {got}")
        en, tgt = pair["en"], pair["tgt"]
        anchors[lang] = (
            Example(f"anchor-{lang}-en", "en", en["text"], en["parse"], "anchor"),
            Example(f"anchor-{lang}", lang, tgt["text"], tgt["parse"], "anchor"),
        )
        for ex in anchors[lang]:
            try:
                parse_tree(ex.parse, Dialect.MTOP_BRACKET)
            except TreeError as exc:
                raise ValueError(f"the {ex.lang} anchor parse of {lang!r}: {exc}") from exc
    return anchors


def _slot_anchor_pairs(
    anchor_en: Example, anchor_tgt: Example
) -> list[tuple[str, str]]:
    en_tree = parse_tree(anchor_en.parse, Dialect.MTOP_BRACKET)
    tgt_tree = parse_tree(anchor_tgt.parse, Dialect.MTOP_BRACKET)
    pairs = [
        (a.value_text, b.value_text)
        for a, b in zip(leaf_slots(en_tree), leaf_slots(tgt_tree))
    ]
    return pairs or [(anchor_en.text, anchor_tgt.text)]


# Jobs an HTTP pass reads ahead of the one being written, per request
# slot: the queued ones keep every slot busy while the main thread gates,
# and the window bounds the prompts held in memory. Against a 20 ms HTTP
# stub, 1 per slot was no faster than submitting every request at once;
# 2, 4 and 8 were alike and faster.
_WINDOW_PER_SLOT = 4


def _task_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


def _pass(backend, jobs, finish, cfg: DecodingConfig, n: int, max_inflight: int):
    """Yield ``finish(*job, outputs)`` for each job of ``jobs(0, n)``, in
    job order: ``jobs(start, stop)`` yields the jobs ``start <= i < stop``,
    each a tuple whose last item is its prompt, and a None prompt gets None
    without a request. The one generate loop of ``augment``.

    The mock's jobs go through ``map_chunks`` in ``chunk_spans(n)``, one
    request at a time, so ``map_chunks`` alone decides whether they run on
    forked workers or here; a chunk keeps the jobs it finished before
    whatever stopped it (a backend failure, an interrupt), and they are
    yielded before that is raised. An HTTP backend's jobs run here, one at
    a time at ``max_inflight`` 1. Above that, each request runs on one of
    ``max_inflight`` threads, at most ``_WINDOW_PER_SLOT * max_inflight``
    jobs are submitted ahead of the one yielded, and ``finish`` runs on
    this thread, in job order; a run stopped early sends none of the
    queued requests.
    """

    def call(job):
        prompt = job[-1]
        return job, None if prompt is None else backend.generate(prompt, cfg)

    def chunk(span):
        done = []
        try:
            for job, outs in map(call, jobs(*span)):
                done.append(finish(*job, outs))
        except BaseException as exc:
            return done, exc
        return done, None

    if isinstance(backend, MockBackend):
        with closing(map_chunks(chunk, chunk_spans(n))) as chunks:
            for done, error in chunks:
                yield from done
                if error is not None:
                    raise error
                del done  # not held while the next chunk is mapped
    elif max_inflight == 1:
        for job, outs in map(call, jobs(0, n)):
            yield finish(*job, outs)
    else:
        todo = jobs(0, n)
        pool = ThreadPoolExecutor(max_workers=max_inflight)
        try:
            window = deque(
                pool.submit(call, job)
                for job in islice(todo, _WINDOW_PER_SLOT * max_inflight)
            )
            while window:
                job, outs = window.popleft().result()
                for job_ahead in islice(todo, 1):
                    window.append(pool.submit(call, job_ahead))
                yield finish(*job, outs)
        finally:
            pool.shutdown(cancel_futures=True)


def cmd_augment(args: argparse.Namespace) -> None:
    """One streaming pass for every method: each task is built, generated,
    gated or falls back, and its row written, in task order."""
    _merge_config(args)
    spec = prompts.METHODS[prompts.Method(args.method)]
    translates_slots = spec.family == "mtop" and args.method != "mt"
    if args.nbest_out and not translates_slots:
        raise CliError(f"--nbest-out: augment --method {args.method} writes no slot n-best")
    if args.nbest_out and args.nbest_in:
        raise CliError("--nbest-out: a run given --nbest-in writes no slot n-best")
    if args.stats_out and args.method == "mt":
        raise CliError("--stats-out: augment --method mt gates nothing, so it writes no stats")
    outputs = {"rows": str(args.out)} if args.method == "mt" else _stats_outputs(args)
    outputs["partial rows"] = str(args.out) + ".partial"
    if translates_slots and not args.nbest_in:
        args.nbest_out = args.nbest_out or str(args.out) + ".nbest.jsonl"
        outputs["slot n-best"] = args.nbest_out
    _check_outputs(outputs)
    # rs looks its pool up by id and gb by text (``_pizza_tasks``); the
    # mtop methods index it by position only.
    key = ("id" if args.method == "rs" else "text") if spec.family == "pizza" else None
    with ExitStack() as views:
        pool = views.enter_context(read_jsonl(args.dataset, key))
        if not pool:
            raise CliError(f"dataset {args.dataset} is empty")
        if args.k <= 0:
            raise CliError("--k must be positive")
        if args.max_inflight <= 0:
            raise CliError("--max-inflight must be positive")
        templates = (
            read_json(args.prompt_templates, prompts.PromptTemplates.from_mapping)
            if args.prompt_templates
            else prompts.PromptTemplates()
        )
        cfg = dc_replace(DecodingConfig(*spec.decoding), **args.decoding)
        backend = _load_backend(args)
        try:
            if spec.family == "pizza":
                tasks, to_row = _pizza_tasks(args, pool, templates, backend)
            else:
                tasks, to_row = _mtop_tasks(args, pool, templates, backend, views)

            kinds: dict[gate.GateEvent, gate.GateEvent] = {}

            def finish(*task):
                # Each kind of event is held once: a chunk's events then cost
                # the kinds of outcome, not its rows (gb at k=500 on the
                # bench pool: 6 kinds, against 578 KB as one event a row).
                row, event = to_row(*task)
                if event is not None:
                    event = kinds.setdefault(event, event)
                return record_line(row), event

            events: Counter[gate.GateEvent] = Counter()
            partial = outputs["partial rows"]
            with RecordWriter(args.out, partial) as writer:
                try:
                    for line, event in _pass(
                        backend, tasks, finish, cfg, args.k, args.max_inflight
                    ):
                        writer.write_text(line, 1)
                        if event is not None:
                            events[event] += 1
                except BaseException:
                    # Whatever stops the run (a backend failure, an interrupt,
                    # a lost worker), the rows finished so far are kept.
                    log.error("flushed %d partial rows to %s", writer.count, partial)
                    raise
        finally:
            backend.close()
    if events:
        stats = gate.compile_stats(list(events.elements()))
        _write_stats(outputs, stats.to_record(), stats.to_table())
    log.info("wrote %d rows to %s", writer.count, args.out)


def _pizza_tasks(args, pool, templates, backend):
    """rs/gb: ``tasks(start, stop)`` yields tasks ``start <= i < stop``,
    and task i starts from pool example i mod len(pool); rows carry a
    canonical form. Tasks are built as they are read."""
    catalog = (
        read_json(args.catalog, canonical.SlotCatalog.from_mapping)
        if args.catalog
        else canonical.SlotCatalog.default()
    )
    cf_templates = _cf_templates(args.cf_templates)
    if args.method == "rs" and not _has_rs_context(pool, args.k):
        raise CliError("replace-slots needs at least 5 distinct dataset examples")

    def tasks(start, stop):
        for i in range(start, stop):
            j = i % len(pool)
            original = pool[j]
            rng = random.Random(_task_seed(args.seed, i))
            if args.method == "rs":
                # The original's rows leave the context pool; its own row
                # is held, so only other rows of its id are reread.
                skip = [at for at, _ in pool.find(original.id, {j: original})]
                context = _rs_context(pool, skip, rng)
                prompt = _build_rs_task(context, original, catalog, rng,
                                        _task_seed(args.seed, i), templates)
                held = {}
            else:
                arity = min(5, len(pool))
                held = {at: pool[at] for at in rng.sample(range(len(pool)), arity)}
                prompt = prompts.build_gb_prompt(list(held.values()), templates)
            yield i, original, held, prompt

    def to_row(i, original, held, prompt, outs):
        input_id = f"{args.method}-{i:05d}"
        lang = original.lang
        if prompt is None:
            # No replaceable slot: the task falls back without a request.
            event = gate.GateEvent(args.method, lang, (), None)
            emitted = gate.fallback(original)
        elif args.method == "rs":
            expected_tree = parse_tree(
                prompt.expected.target_parse, Dialect.PIZZA_PAREN
            )
            verdict, event = gate.gate_rs(
                outs, expected_tree, prompt.expected.context_texts, catalog,
                input_id=input_id, language=lang, templates=templates,
            )
            emitted = verdict.final or gate.fallback(original)
        else:
            verdict, event = gate.gate_gb(
                outs, prompt.expected.context_texts, catalog,
                input_id=input_id, language=lang, templates=templates,
            )
            emitted = verdict.final or gate.fallback(_gb_fallback_row(
                pool, held, random.Random(_task_seed(args.seed, i))
            ))
        return _with_cf(emitted, cf_templates).to_dict(), event

    return tasks, to_row


def _has_rs_context(pool, k: int) -> bool:
    """Whether each row that rs tasks ``i < k`` start from has at least 4
    pool rows of another id, as its context needs. Five distinct ids settle
    it for every row, so rows are read in order only until five show; a
    pool with fewer is read whole and its ids counted."""
    counts: Counter[str] = Counter()
    starts = set()  # the ids of the rows tasks start from
    for j, ex in enumerate(pool):
        counts[ex.id] += 1
        if len(counts) == 5:
            return True
        if j < k:
            starts.add(ex.id)
    return all(len(pool) - counts[key] >= 4 for key in starts)


def _rs_context(pool, skip: Sequence[int], rng) -> list[Example]:
    """4 rows of ``pool`` drawn with ``rng``, none at the sorted positions
    ``skip``. ``rng.sample`` picks positions in the pool without those
    rows, and each is mapped past the skipped positions before its row is
    read: ``sample`` uses a population only through its length and the
    positions it draws, so the rows and the state of ``rng`` are those of
    a sample of the filtered rows."""
    rows = []
    for i in rng.sample(range(len(pool) - len(skip)), 4):
        for j in skip:
            if j > i:
                break
            i += 1
        rows.append(pool[i])
    return rows


def _build_rs_task(context, original, catalog, rng, task_seed, prompt_templates):
    """The rs prompt for ``original`` with the 4 rows ``context``, or None
    when no slot of it has a catalog alternative."""
    tree = parse_tree(original.parse, Dialect.PIZZA_PAREN)
    refs = list(leaf_slots(tree))
    rng.shuffle(refs)
    for ref in refs:
        try:
            value = canonical.sample_replacement(
                catalog, ref.slot_label, ref.value_text, task_seed
            )
        except canonical.CatalogError:
            continue
        edited = replace_slot(tree, ref, value.split())
        return prompts.build_rs_prompt(context, original, edited, prompt_templates)
    return None


def _gb_fallback_row(pool, held: dict[int, Example], rng) -> Example:
    """The pool row a failed gb task falls back on: ``rng.choice`` of the
    pool positions, in pool order, of the rows whose text is that of one
    of the task's context rows ``held`` ({pool position: row}). Each text
    is looked up with ``pool.find``, which rereads no context row, and the
    chosen row is the one that lookup read."""
    found: dict[int, Example] = {}
    for text in {ex.text for ex in held.values()}:
        mine = {j: ex for j, ex in held.items() if ex.text == text}
        found.update(pool.find(text, mine))
    return found[rng.choice(sorted(found))]


def _with_cf(ex: Example, cf_templates) -> Example:
    if not ex.parse.startswith("("):
        return ex
    try:
        cf = canonical.to_canonical_form(
            decouple(parse_tree(ex.parse, Dialect.PIZZA_PAREN)), cf_templates
        )
    except (canonical.TemplateError, TreeError):
        return ex
    return dc_replace(ex, cf=cf)


def _mtop_row(i: int, langs: Sequence[str], pool: Sequence[Example]) -> int:
    """The pool position of the row that mtop task ``i`` renders."""
    return (i // len(langs)) % len(pool)


def _mtop_tasks(args, pool, templates, backend, views: ExitStack):
    """ts/tb/mt: ``tasks(start, stop)`` yields tasks ``start <= i < stop``,
    and task i renders the pool row ``_mtop_row(i, langs, pool)``
    in language langs[i % len(langs)]; mt rows are bare translations with
    no gate. The slot n-best is ready before the first task and covers only
    the leaf-slot values of the rows the tasks render, so --nbest-in must
    hold each of them; its view is closed with ``views``. Tasks are built
    as they are read."""
    # The shipped pairs by default.
    anchors = read_json(args.anchors or packaged("mtop_anchors.json"), _anchor_pairs)
    langs = args.langs or sorted(anchors)
    missing = [lang for lang in langs if lang not in anchors]
    if missing:
        raise CliError(
            f"no anchor pair configured for language(s): {', '.join(missing)}"
        )
    for lang in langs:
        prompts.require_cross_lingual(templates, lang)
    nbest = None
    if args.method != "mt":
        nbest = _load_or_build_nbest(args, backend, pool, langs, anchors, templates, views)

    def tasks(start, stop):
        j = None
        for i in range(start, stop):
            lang = langs[i % len(langs)]
            # Consecutive tasks render one row, each in its own language:
            # the row is built once for them.
            if (row := _mtop_row(i, langs, pool)) != j:
                j, ex = row, pool[row]
            anchor_en, anchor_tgt = anchors[lang]
            if args.method == "mt":
                prompt = prompts.build_sent_mt_prompt(
                    (anchor_en.text, anchor_tgt.text), ex.text, lang, templates
                )
            elif args.method == "ts":
                tree = parse_tree(ex.parse, Dialect.MTOP_BRACKET)
                for ref in leaf_slots(tree):
                    top = nbest.top(ref.value_text, lang)
                    if top:
                        tree = replace_slot(tree, ref, top.split())
                prompt = prompts.build_ts_prompt(
                    anchor_en, anchor_tgt, ex, tree, lang, templates
                )
            else:
                prompt = prompts.build_tb_prompt(
                    anchor_en, anchor_tgt, ex, lang, templates
                )
            yield i, ex, lang, prompt

    def to_row(i, ex, lang, prompt, outs):
        if args.method == "mt":
            return {"id": ex.id, "language": lang, "text": outs[0].text}, None
        verdict, event = gate.gate_mtop(
            args.method, outs, prompt.expected, nbest,
            input_id=f"{args.method}-{i:05d}", language=lang, templates=templates,
        )
        emitted = verdict.final or gate.fallback(ex)
        return emitted.to_dict(), event

    return tasks, to_row


def _load_or_build_nbest(args, backend, pool, langs, anchors, templates, views):
    """The slot n-best view (``gate.SlotNBestMap``) of each leaf-slot value
    of the rows that tasks ``i < k`` render, in each language: opened on
    --nbest-in, which must hold every such (language, value), else
    translated through the backend and written to --nbest-out. A value
    that got no candidate is written with an empty list, so the file shows
    that it was tried.

    The (language, value) jobs run through ``_pass`` like the tasks, at the
    pass's own decoding. Each rendered row is reread from the pool once, to
    collect its values; a malformed parse names ``<dataset>:<line>``. Job n
    is ``values[n % len(values)]`` in ``langs[n // len(values)]``, so no
    list of jobs is held, and each job's ``finish`` encodes its row, which
    is written as it arrives, in job order: language by language, values
    sorted. What is held is the sorted values and the lines of the chunk
    being taken; the view then holds a few bytes a key, and ``views``
    closes it. Task workers fork after the view is opened, so they share
    its descriptor."""
    values = sorted(
        {
            ref.value_text
            for j in {_mtop_row(i, langs, pool) for i in range(args.k)}
            for ref in leaf_slots(_pool_tree(pool, j, args.dataset))
        }
    )
    if args.nbest_in:
        nbest = views.enter_context(gate.SlotNBestMap(args.nbest_in))
        missing = [
            (lang, value)
            for lang in langs
            for value in values
            if nbest.candidates(value, lang) is None
        ]
        if missing:
            raise CliError(
                f"{args.nbest_in}: no slot n-best for {len(missing)} (language, "
                f"value) pairs of the rendered rows, the first {missing[0][0]} "
                f"{missing[0][1]!r}"
            )
        return nbest
    pairs = {lang: _slot_anchor_pairs(*anchors[lang]) for lang in langs}

    # Job n translates values[n % len(values)] into langs[n // len(values)].
    def jobs(start, stop):
        for n in range(start, stop):
            lang, value = langs[n // len(values)], values[n % len(values)]
            yield lang, value, prompts.build_slot_mt_prompt(pairs[lang], value, lang, templates)

    def finish(lang, value, prompt, outs):
        candidates = _slot_candidates(outs, templates)
        return record_line({"language": lang, "value": value, "candidates": candidates})

    # --config decoding sets the method's decoding, not this pass's.
    cfg = DecodingConfig(*prompts.METHODS[prompts.Method.SLOT_MT].decoding)
    with RecordWriter(args.nbest_out) as out:
        for line in _pass(backend, jobs, finish, cfg, len(langs) * len(values),
                          args.max_inflight):
            out.write_text(line, 1)
    log.info("wrote slot n-best lists for %d values to %s", len(values), args.nbest_out)
    return views.enter_context(gate.SlotNBestMap(args.nbest_out))


def _pool_tree(pool, j: int, path):
    """The MTOP tree of the parse of pool row ``j``; a malformed parse ends
    the run with a ``RowMalformed`` naming ``<path>:<line>``, the line
    counted only then."""
    try:
        return parse_tree(pool[j].parse, Dialect.MTOP_BRACKET)
    except TreeError as exc:
        raise RowMalformed(f"{path}:{pool.line(j)}: {exc}") from exc


def _slot_candidates(outs, templates) -> list[str]:
    """The distinct non-empty translations of a slot value, in output order."""
    candidates = []
    for out in outs:
        try:
            cand = prompts.split_generation(prompts.Method.SLOT_MT, out.text, templates)
        except prompts.InvalidSeparators:
            continue
        if cand.text:
            candidates.append(cand.text)
    return list(dict.fromkeys(candidates))


def _stats_outputs(args) -> dict[str, str]:
    """The rows, stats record and stats table paths of augment and
    project-mt: the record is --stats-out, by default beside --out, and
    the table is the record's path with a .txt suffix."""
    stats_json = args.stats_out or str(Path(args.out).with_suffix("")) + ".stats.json"
    return {
        "rows": str(args.out),
        "stats record": stats_json,
        "stats table": str(Path(stats_json).with_suffix(".txt")),
    }


def _check_outputs(outputs: dict[str, str]) -> None:
    """Stop the command before any work if two of its outputs, each named
    by what it holds, are one file: the later would replace the earlier."""
    seen: dict[Path, str] = {}
    for name, path in outputs.items():
        where = Path(path).resolve()
        if where in seen:
            raise CliError(f"the {seen[where]} and the {name} ({path}) are the same file")
        seen[where] = f"{name} ({path})"


def _write_stats(outputs: dict[str, str], record: dict, table: str) -> None:
    stats_json, stats_txt = outputs["stats record"], outputs["stats table"]
    atomic_write_text(stats_json, json.dumps(record, ensure_ascii=False, indent=2) + "\n")
    atomic_write_text(stats_txt, table)
    log.info("wrote stats to %s and %s", stats_json, stats_txt)


# ---------------------------------------------------------------- project-mt


def cmd_project_mt(args: argparse.Namespace) -> None:
    """Project the parse of each MT row's source example through the row's
    word alignment, and write the projected rows and their ``mt_stats``.

    The MT file is checked in full, then the alignment file, then the
    dataset; each is held as a ``RecordRows`` view of byte spans, the
    alignments with a key index of each row's ``(id, language)`` and the
    source rows with one of each id. An MT row is reread when it is
    projected, and the alignment and source rows of its key, the
    alignment's ``pairs`` decoded only then, when they are looked up; the
    read that checks a row's key is the read used. A
    projection is counted by its (language, failure modes), and its tree
    is dropped once its row is written.
    """
    outputs = _stats_outputs(args)
    _check_outputs(outputs)
    with ExitStack() as views:
        mt = views.enter_context(RecordRows(args.mt, ("id", "language", "text")))
        if not mt:
            raise MissingInput(f"MT output file {args.mt} is empty")
        aligned = views.enter_context(
            RecordRows(args.align, ("id", "pairs"), key=_alignment_key)
        )
        if not aligned:
            raise MissingInput(f"alignment file {args.align} is empty")
        src = views.enter_context(read_jsonl(args.dataset, "id"))
        verdicts: Counter[tuple[str, frozenset[str]]] = Counter()
        unbound = 0

        def pairs_of(key):
            record = _last(aligned.find(key))
            return None if record is None else record["pairs"]

        def projected():
            nonlocal unbound
            ex = None
            for row in mt:
                # The MT rows of one id, one per language, are usually
                # consecutive: they share one read of the source row.
                if ex is None or ex.id != str(row["id"]):
                    ex = _last(src.find(str(row["id"])))
                if ex is None:
                    raise IdMismatch(f"MT output id {row['id']!r} not in {args.dataset}")
                lang = str(row["language"])
                raw = str(row["text"])
                if args.check_sentence_marker and projection.check_sentence_marker(raw):
                    verdicts[lang, frozenset({projection.CONTAINS_SENTENCE})] += 1
                    continue
                text = raw.strip()
                if text.endswith(";"):
                    text = text[:-1].strip()
                # An empty or null ``pairs`` of the language falls back to
                # the id's row without a language.
                pairs = pairs_of((str(row["id"]), lang)) or pairs_of(
                    (str(row["id"]), None)
                )
                if pairs is None:
                    raise MissingInput(
                        f"no alignment for id {row['id']!r} language {lang!r}"
                    )
                try:
                    alignment = projection.WordAlignment.from_pairs(pairs)
                except (TypeError, ValueError) as exc:
                    raise RowMalformed(
                        f"{args.align}: bad pairs for id {row['id']!r}: {exc}"
                    ) from exc
                try:
                    verdict = projection.project_parse(ex, text, alignment)
                except UnmatchableSlot:
                    unbound += 1
                    continue
                verdicts[lang, verdict.failure_modes] += 1
                if verdict.parse is not None:
                    yield Example(
                        id=ex.id,
                        lang=lang,
                        text=text,
                        parse=serialize(verdict.parse),
                        source=args.source_tag,
                    )

        written = write_jsonl(args.out, projected())
    stats = projection.mt_stats(verdicts)
    _write_stats(outputs, stats.to_record(), stats.to_table())
    if unbound:
        log.info("skipped %d rows whose source slots were not contiguous", unbound)
    log.info("wrote %d projected examples to %s", written, args.out)


def _last(found):
    """The row of the last ``(position, row)`` of ``found``, or None: a
    later row of one key wins."""
    row = None
    for _, row in found:
        pass
    return row


def _alignment_key(record) -> tuple[tuple[str, str | None]]:
    """The one key of an alignment row: its id and language, None for a
    row without one, which serves every language of the id. A language
    that is neither a string nor null is a ``ValueError``."""
    language = record.get("language")
    if language is not None and not isinstance(language, str):
        raise ValueError(f"language must be a string or null, got {language!r}")
    return ((str(record["id"]), language),)


# ----------------------------------------------------------------------- mix


def cmd_mix(args: argparse.Namespace) -> None:
    plan_path = args.plan_out or str(Path(args.out).with_suffix("")) + ".plan.json"
    _check_outputs({"manifest": args.out, "plan": plan_path})
    for flag, value in (("--updates", args.updates), ("--batch", args.batch)):
        if value <= 0:
            raise CliError(f"{flag} must be positive, got {value}")
    with ExitStack() as views:
        real = views.enter_context(read_jsonl(args.real))
        synthetic: dict[str, Sequence[Example]] = {}
        for spec in args.synthetic:
            tag, _, path = spec.partition("=")
            if not path:
                raise CliError(f"--synthetic takes TAG=PATH, got {spec!r}")
            if tag in synthetic:
                raise CliError(f"--synthetic tag {tag!r} is given more than once")
            synthetic[tag] = views.enter_context(read_jsonl(path))
        plan = mixing.plan_mix(real, synthetic, updates=args.updates,
                               batch_size=args.batch)
        lines = mixing.emit_manifest(plan, real, synthetic, seed=args.seed,
                                     path=args.out, real_tag=args.real_tag)
    atomic_write_text(
        plan_path, json.dumps(plan.to_record(), ensure_ascii=False, indent=2) + "\n"
    )
    log.info(
        "manifest %s: %d rows (%.4f real mass), epochs=%d",
        args.out, len(lines), plan.real_fraction, plan.epochs,
    )


# --------------------------------------------------------------------- score


def cmd_score(args: argparse.Namespace) -> None:
    if args.out:
        table_path = str(Path(args.out).with_suffix(".txt"))
        _check_outputs({"score record": args.out, "score table": table_path})
    # Only what scoring reads: the parse of each hyp row, and the parse and
    # language of each ref row.
    hyp = {str(r["id"]): str(r["parse"]) for r in iter_records(args.hyp, "id", "parse")}
    ref = {
        str(r["id"]): (str(r["parse"]), str(r.get("lang", "")))
        for r in iter_records(args.ref, "id", "parse")
    }
    if hyp.keys() != ref.keys():
        only_hyp = sorted(hyp.keys() - ref.keys())[:3]
        only_ref = sorted(ref.keys() - hyp.keys())[:3]
        raise IdMismatch(
            f"hyp/ref ids differ (hyp-only {only_hyp}, ref-only {only_ref})"
        )
    pairs = [(hyp[i], *ref[i]) for i in sorted(ref)]
    dialect = (
        Dialect.PIZZA_PAREN if args.dialect == "pizza" else Dialect.MTOP_BRACKET
    )
    zero_shot = tuple(
        l.strip() for l in args.zero_shot_langs.split(",") if l.strip()
    )
    report = metrics.score_corpus(
        pairs, metric=args.metric, dialect=dialect, zero_shot_langs=zero_shot
    )
    table = report.to_table()
    if args.out:
        atomic_write_text(
            args.out,
            json.dumps(report.to_record(), ensure_ascii=False, indent=2) + "\n",
        )
        atomic_write_text(table_path, table)
    sys.stdout.write(table)


# -------------------------------------------------------------------- report


def _report_table(record) -> str:
    """The text table of a stats record; a mix plan is shown as JSON."""
    kind = record.get("kind") if isinstance(record, dict) else None
    if kind == "mix_plan":
        return json.dumps(record, indent=2) + "\n"
    if kind not in _REPORTS:
        raise ValueError(f"unknown record kind {kind!r}")
    try:
        return _REPORTS[kind].from_record(record).to_table()
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {kind} record: {exc!r}") from exc


def cmd_report(args: argparse.Namespace) -> None:
    table = read_json(args.infile, _report_table)
    if args.out:
        atomic_write_text(args.out, table)
    sys.stdout.write(table)


_REPORTS = {
    "gate_stats": gate.GateStats,
    "mt_stats": projection.MtStats,
    "metric_report": metrics.MetricReport,
}


if __name__ == "__main__":
    sys.exit(main())
