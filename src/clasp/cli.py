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
override the default decoding of the method and of the slot n-best pass.
Any other key is an error. The target languages default to every language
of the anchor file, sorted.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace as dc_replace
from importlib import resources
from pathlib import Path
from typing import Sequence

from . import backends, canonical, gate, metrics, mixing, projection, prompts, sentinels
from .backends import BackendError, DecodingConfig, MockBackend, MockRule
from .datasets import (
    Example,
    RowMalformed,
    atomic_write_text,
    class_key,
    read_jsonl,
    read_mtop_rows,
    read_pizza_rows,
    read_records,
    write_jsonl,
    write_records,
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
    except (CliError, RowMalformed, TreeError, ValueError) as exc:
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
    p.add_argument("--dataset", default=None)
    p.add_argument("--method", choices=["rs", "gb", "ts", "tb", "mt"], default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--backend", choices=["mock", "http"], default=None)
    p.add_argument("--mock-rules", default=None)
    p.add_argument("--catalog", default=None)
    p.add_argument("--anchors", default=None)
    p.add_argument(
        "--langs", default=None,
        help="comma-separated target languages (default: every anchor language)",
    )
    p.add_argument("--nbest-in", default=None)
    p.add_argument("--nbest-out", default=None)
    p.add_argument("--max-inflight", type=int, default=None)
    p.add_argument("--prompt-templates", default=None)
    p.add_argument("--cf-templates", default=None)
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


def cmd_preprocess_pizza(args: argparse.Namespace) -> None:
    templates = (
        canonical.CfTemplateSet.load(args.cf_templates)
        if args.cf_templates
        else canonical.CfTemplateSet.default()
    )
    rows = read_pizza_rows(args.infile)
    out: list[Example] = []
    uncovered = 0
    for i, row in enumerate(rows):
        tree = decouple(parse_tree(row["TOP"], Dialect.PIZZA_PAREN))
        parse_str = serialize(tree)
        if args.mode == "fixed-cf":
            try:
                cf = canonical.to_canonical_form(tree, templates)
            except canonical.TemplateError:
                uncovered += 1
                continue
        else:
            if "CF" not in row:
                raise RowMalformed(
                    f"row {i}: original mode needs a CF field in the input rows"
                )
            cf = row["CF"]
        out.append(
            Example(
                id=f"pizza-{i:06d}",
                lang="en",
                text=" ".join(row["SRC"].split()),
                parse=parse_str,
                source=args.source_tag,
                cf=cf,
            )
        )
    write_jsonl(args.out, out)
    if uncovered:
        log.info("skipped %d rows not covered by the CF templates", uncovered)
    log.info("wrote %d examples to %s", len(out), args.out)


def cmd_preprocess_mtop(args: argparse.Namespace) -> None:
    rows = read_mtop_rows(args.infile)
    out: list[Example] = []
    unencodable = 0
    for row in rows:
        text = sentinels.space_join_tokens(row["tokens"])
        parse_str = " ".join(row["decoupled_parse"].split())
        ex = Example(
            id=row["id"],
            lang=row["lang"],
            text=text,
            parse=parse_str,
            source=args.source_tag,
        )
        if args.sentinels:
            try:
                enc = sentinels.encode_sentinels(
                    text, parse_tree(parse_str, Dialect.MTOP_BRACKET)
                )
            except UnmatchableSlot:
                unencodable += 1
                if args.on_unencodable == "keep":
                    out.append(ex)
                continue
            ex = dc_replace(
                ex, text=enc.sentinel_text, parse=serialize(enc.sentinel_parse)
            )
        out.append(ex)
    write_jsonl(args.out, out)
    if unencodable:
        log.info(
            "%d rows could not be sentinel-encoded (%s)",
            unencodable,
            args.on_unencodable,
        )
    log.info("wrote %d examples to %s", len(out), args.out)


# ------------------------------------------------------------------- augment

# Built-in values of the augment settings that neither a flag nor the
# --config file sets.
_AUGMENT_DEFAULTS = {"backend": "mock", "max_inflight": 4, "decoding": {}}
# Namespace entries a --config file may not set.
_NOT_CONFIG = frozenset({"command", "func", "config", "out", "stats_out"})


def _merge_config(args: argparse.Namespace) -> None:
    """Fill every augment setting no flag gave from --config, then from the
    built-in defaults, so the rest of the command reads only ``args``."""
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise CliError(f"config file {args.config} must hold a JSON object")
    for key, value in config.items():
        if key in _NOT_CONFIG or not hasattr(args, key):
            raise CliError(f"unknown config key {key!r} in {args.config}")
        if getattr(args, key) is None:
            setattr(args, key, value)
    for key, value in _AUGMENT_DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    for key in ("method", "k", "seed", "dataset"):
        if getattr(args, key) is None:
            raise CliError(f"--{key} is required (flag or config file)")
    unknown = set(args.decoding) - {f.name for f in fields(DecodingConfig)}
    if unknown:
        raise CliError(f"unknown decoding key(s) {sorted(unknown)} in {args.config}")
    if isinstance(args.langs, str):
        args.langs = [l.strip() for l in args.langs.split(",") if l.strip()]


def _load_backend(args: argparse.Namespace):
    if args.backend == "mock":
        rules = (
            backends.load_mock_rules(args.mock_rules)
            if args.mock_rules
            else [MockRule()]
        )
        return MockBackend(rules, seed=args.seed)
    return backends.HttpBackend()


def _load_anchors(path: str | None) -> dict[str, tuple[Example, Example]]:
    """{language: (English anchor, target anchor)}; the shipped pairs by default."""
    if path:
        text = Path(path).read_text(encoding="utf-8")
    else:
        text = resources.files("clasp.data").joinpath("mtop_anchors.json").read_text(
            encoding="utf-8"
        )
    anchors = {}
    for lang, pair in json.loads(text).items():
        en, tgt = pair["en"], pair["tgt"]
        anchors[lang] = (
            Example(f"anchor-{lang}-en", "en", en["text"], en["parse"], "anchor"),
            Example(f"anchor-{lang}", lang, tgt["text"], tgt["parse"], "anchor"),
        )
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


def _task_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


def _generate(backend, requests, cfg: DecodingConfig, max_inflight: int):
    """Yield each prompt's outputs in task order as they arrive, with at
    most ``max_inflight`` requests running; a ``None`` prompt yields None."""

    def call(prompt):
        return None if prompt is None else backend.generate(prompt, cfg)

    if max_inflight <= 1:
        yield from map(call, requests)
        return
    with ThreadPoolExecutor(max_workers=max_inflight) as pool:
        yield from pool.map(call, requests)


def cmd_augment(args: argparse.Namespace) -> None:
    """One pass for every method: build the tasks, then generate, gate or
    fall back, and collect each task's row in task order."""
    _merge_config(args)
    pool = read_jsonl(args.dataset)
    if not pool:
        raise CliError(f"dataset {args.dataset} is empty")
    if args.k <= 0:
        raise CliError("--k must be positive")
    templates = (
        prompts.PromptTemplates.load(args.prompt_templates)
        if args.prompt_templates
        else prompts.PromptTemplates()
    )
    backend = _load_backend(args)
    build = _pizza_tasks if args.method in ("rs", "gb") else _mtop_tasks
    default_cfg, tasks, to_row = build(args, pool, templates, backend)
    cfg = dc_replace(default_cfg, **args.decoding)
    results = _generate(backend, [t[3] for t in tasks], cfg, args.max_inflight)
    rows: list[dict] = []
    events: list[gate.GateEvent] = []
    try:
        for task, outs in zip(tasks, results):
            row, event = to_row(*task, outs)
            rows.append(row)
            if event is not None:
                events.append(event)
    except BaseException:
        # Whatever stops the run (a backend failure, an interrupt), the
        # rows finished so far are kept.
        partial = str(args.out) + ".partial"
        write_records(partial, rows)
        log.error("flushed %d partial rows to %s", len(rows), partial)
        raise
    write_records(args.out, rows)
    if events:
        stats = gate.compile_stats(events)
        _write_stats(args, stats.to_record(), stats.to_table())
    log.info("wrote %d rows to %s", len(rows), args.out)


def _pizza_tasks(args, pool, templates, backend):
    """rs/gb: task i starts from pool example i mod len(pool); rows carry a
    canonical form."""
    catalog = (
        canonical.SlotCatalog.load(args.catalog)
        if args.catalog
        else canonical.SlotCatalog.default()
    )
    cf_templates = (
        canonical.CfTemplateSet.load(args.cf_templates)
        if args.cf_templates
        else canonical.CfTemplateSet.default()
    )
    tasks = []
    for i in range(args.k):
        original = pool[i % len(pool)]
        rng = random.Random(_task_seed(args.seed, i))
        if args.method == "rs":
            prompt = _build_rs_task(pool, original, catalog, rng,
                                    _task_seed(args.seed, i), templates)
        else:
            arity = min(5, len(pool))
            prompt = prompts.build_gb_prompt(rng.sample(pool, arity), templates)
        tasks.append((i, original, original.lang, prompt))

    def to_row(i, original, lang, prompt, outs):
        input_id = f"{args.method}-{i:05d}"
        seed = _task_seed(args.seed, i)
        if prompt is None:
            # No replaceable slot: the task falls back without a request.
            event = gate.GateEvent(args.method, lang, input_id, (), None)
            emitted = gate.fallback([original], None, seed)
        elif args.method == "rs":
            expected_tree = parse_tree(
                prompt.expected.target_parse, Dialect.PIZZA_PAREN
            )
            verdict, event = gate.gate_rs(
                outs, expected_tree, prompt.expected.context_texts, catalog,
                input_id=input_id, language=lang, templates=templates,
            )
            emitted = verdict.final or gate.fallback(
                [original], class_key(original.parse), seed
            )
        else:
            verdict, event = gate.gate_gb(
                outs, prompt.expected.context_texts, catalog,
                input_id=input_id, language=lang, templates=templates,
            )
            emitted = verdict.final or gate.fallback(
                _gb_context_pool(pool, prompt), None, seed
            )
        return _with_cf(emitted, cf_templates).to_dict(), event

    return DecodingConfig.sampling(n=4), tasks, to_row


def _build_rs_task(pool, original, catalog, rng, task_seed, prompt_templates):
    others = [e for e in pool if e.id != original.id]
    if len(others) < 4:
        raise CliError("replace-slots needs at least 5 distinct dataset examples")
    context = rng.sample(others, 4)
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


def _gb_context_pool(pool, prompt) -> list[Example]:
    texts = set(prompt.expected.context_texts)
    return [e for e in pool if e.text in texts] or list(pool)


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


def _mtop_tasks(args, pool, templates, backend):
    """ts/tb/mt: task i renders pool example i // len(langs) in language
    langs[i % len(langs)]; mt rows are bare translations with no gate."""
    anchors = _load_anchors(args.anchors)
    langs = args.langs or sorted(anchors)
    missing = [lang for lang in langs if lang not in anchors]
    if missing:
        raise CliError(
            f"no anchor pair configured for language(s): {', '.join(missing)}"
        )
    nbest = None
    if args.method != "mt":
        nbest = _load_or_build_nbest(args, backend, pool, langs, anchors, templates)
    tasks = []
    for i in range(args.k):
        lang = langs[i % len(langs)]
        ex = pool[(i // len(langs)) % len(pool)]
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
        tasks.append((i, ex, lang, prompt))

    def to_row(i, ex, lang, prompt, outs):
        if args.method == "mt":
            return {"id": ex.id, "language": lang, "text": outs[0].text}, None
        verdict, event = gate.gate_mtop(
            args.method, outs[0], prompt.expected, nbest,
            input_id=f"{args.method}-{i:05d}", language=lang, templates=templates,
        )
        emitted = verdict.final or gate.fallback(
            [ex], class_key(ex.parse), _task_seed(args.seed, i)
        )
        return emitted.to_dict(), event

    return DecodingConfig.greedy(), tasks, to_row


def _load_or_build_nbest(args, backend, pool, langs, anchors, templates):
    if args.nbest_in:
        return gate.SlotNBestMap.load(args.nbest_in)
    values = sorted(
        {
            ref.value_text
            for ex in pool
            for ref in leaf_slots(parse_tree(ex.parse, Dialect.MTOP_BRACKET))
        }
    )
    keys, requests = [], []
    for lang in langs:
        pairs = _slot_anchor_pairs(*anchors[lang])
        for value in values:
            keys.append((lang, value))
            requests.append(
                prompts.build_slot_mt_prompt(pairs, value, lang, templates)
            )
    cfg = dc_replace(DecodingConfig.beam(4), **args.decoding)
    mapping: dict[str, dict[str, list[str]]] = {}
    for (lang, value), outs in zip(
        keys, _generate(backend, requests, cfg, args.max_inflight)
    ):
        candidates = []
        for out in outs:
            try:
                cand = prompts.split_generation(
                    prompts.Method.SLOT_MT, out.text, templates
                )
            except prompts.InvalidSeparators:
                continue
            if cand.text:
                candidates.append(cand.text)
        if candidates:
            mapping.setdefault(lang, {})[value] = list(dict.fromkeys(candidates))
    nbest = gate.SlotNBestMap.from_mapping(mapping)
    nbest_out = args.nbest_out or str(args.out) + ".nbest.json"
    atomic_write_text(
        nbest_out, json.dumps(nbest.to_mapping(), ensure_ascii=False, indent=2)
    )
    log.info("wrote slot n-best lists for %d values to %s", len(values), nbest_out)
    return nbest


def _write_stats(args, record: dict, table: str) -> None:
    stats_json = args.stats_out or str(Path(args.out).with_suffix("")) + ".stats.json"
    stats_txt = str(Path(stats_json).with_suffix(".txt"))
    atomic_write_text(stats_json, json.dumps(record, ensure_ascii=False, indent=2) + "\n")
    atomic_write_text(stats_txt, table)
    log.info("wrote stats to %s and %s", stats_json, stats_txt)


# ---------------------------------------------------------------- project-mt


def cmd_project_mt(args: argparse.Namespace) -> None:
    src = {ex.id: ex for ex in read_jsonl(args.dataset)}
    mt_rows = read_records(args.mt)
    if not mt_rows:
        raise MissingInput(f"MT output file {args.mt} is empty")
    align_rows = read_records(args.align)
    if not align_rows:
        raise MissingInput(f"alignment file {args.align} is empty")
    aligned: dict[tuple[str, str | None], list] = {}
    for row in align_rows:
        aligned[(str(row["id"]), row.get("language"))] = row["pairs"]
    verdicts: list[tuple[str, projection.ProjectionVerdict]] = []
    out: list[Example] = []
    unbound = 0
    for row in mt_rows:
        ex = src.get(str(row["id"]))
        if ex is None:
            raise IdMismatch(f"MT output id {row['id']!r} not in {args.dataset}")
        lang = str(row["language"])
        raw = str(row["text"])
        if args.check_sentence_marker and projection.check_sentence_marker(raw):
            verdicts.append(
                (lang, projection.ProjectionVerdict(
                    frozenset({projection.CONTAINS_SENTENCE})))
            )
            continue
        text = raw.strip()
        if text.endswith(";"):
            text = text[:-1].strip()
        pairs = aligned.get((str(row["id"]), lang)) or aligned.get(
            (str(row["id"]), None)
        )
        if pairs is None:
            raise MissingInput(
                f"no alignment for id {row['id']!r} language {lang!r}"
            )
        try:
            verdict = projection.project_parse(
                ex, text, projection.WordAlignment.from_pairs(pairs)
            )
        except UnmatchableSlot:
            unbound += 1
            continue
        verdicts.append((lang, verdict))
        if verdict.parse is not None:
            out.append(
                Example(
                    id=ex.id,
                    lang=lang,
                    text=text,
                    parse=serialize(verdict.parse),
                    source=args.source_tag,
                )
            )
    write_jsonl(args.out, out)
    stats = projection.mt_stats(verdicts)
    _write_stats(args, stats.to_record(), stats.to_table())
    if unbound:
        log.info("skipped %d rows whose source slots were not contiguous", unbound)
    log.info("wrote %d projected examples to %s", len(out), args.out)


# ----------------------------------------------------------------------- mix


def cmd_mix(args: argparse.Namespace) -> None:
    real = read_jsonl(args.real)
    synthetic: dict[str, list[Example]] = {}
    for spec in args.synthetic:
        tag, _, path = spec.partition("=")
        if not path:
            raise CliError(f"--synthetic takes TAG=PATH, got {spec!r}")
        synthetic[tag] = read_jsonl(path)
    plan = mixing.plan_mix(real, synthetic, updates=args.updates,
                           batch_size=args.batch)
    rows = mixing.emit_manifest(plan, real, synthetic, seed=args.seed,
                                path=args.out, real_tag=args.real_tag)
    plan_path = args.plan_out or str(Path(args.out).with_suffix("")) + ".plan.json"
    atomic_write_text(
        plan_path, json.dumps(plan.to_record(), ensure_ascii=False, indent=2) + "\n"
    )
    log.info(
        "manifest %s: %d rows (%.4f real mass), epochs=%d",
        args.out, len(rows), plan.real_fraction, plan.epochs,
    )


# --------------------------------------------------------------------- score


def cmd_score(args: argparse.Namespace) -> None:
    hyp_rows = {str(r["id"]): r for r in read_records(args.hyp)}
    ref_rows = {str(r["id"]): r for r in read_records(args.ref)}
    if set(hyp_rows) != set(ref_rows):
        only_hyp = sorted(set(hyp_rows) - set(ref_rows))[:3]
        only_ref = sorted(set(ref_rows) - set(hyp_rows))[:3]
        raise IdMismatch(
            f"hyp/ref ids differ (hyp-only {only_hyp}, ref-only {only_ref})"
        )
    pairs = [
        (
            str(hyp_rows[i]["parse"]),
            str(ref_rows[i]["parse"]),
            str(ref_rows[i].get("lang", "")),
        )
        for i in sorted(ref_rows)
    ]
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
        atomic_write_text(str(Path(args.out).with_suffix(".txt")), table)
    sys.stdout.write(table)


# -------------------------------------------------------------------- report


def cmd_report(args: argparse.Namespace) -> None:
    with open(args.infile, encoding="utf-8") as fh:
        record = json.load(fh)
    kind = record.get("kind") if isinstance(record, dict) else None
    if kind == "mix_plan":
        table = json.dumps(record, indent=2) + "\n"
    elif kind in _REPORTS:
        try:
            table = _REPORTS[kind].from_record(record).to_table()
        except (AttributeError, KeyError, TypeError, ZeroDivisionError) as exc:
            raise CliError(f"malformed {kind} record in {args.infile}: {exc!r}") from exc
    else:
        raise CliError(f"unknown record kind {kind!r} in {args.infile}")
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
