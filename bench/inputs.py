"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes a ``random.Random`` and writes files in the formats
the ``clasp`` CLI reads; the same seed always gives byte-identical files.
The pipeline under test only ever sees these files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Carrier words of MTOP utterances that select a mock rule (``mtop_rules``).
# None of them occurs in the shipped anchor pairs or in a slot value.
MTOP_MARKERS = ("please", "quickly", "maybe", "kindly")


def _write_lines(path: Path, lines) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
            n += 1
    return n


# --------------------------------------------------------------------- pizza


def _pizza_order(rng: random.Random, catalog: dict) -> tuple[list[str], list[str]]:
    """(SRC tokens, TOP tokens) of one coupled order in template frame order."""
    src: list[str] = []
    top: list[str] = []

    def words(*ws: str) -> None:
        for w in ws:
            src.extend(w.split())
            top.extend(w.split())

    def slot(label: str, value: str) -> None:
        src.extend(value.split())
        top.extend([f"({label}", *value.split(), ")"])

    def pick(label: str) -> str:
        return rng.choice(catalog[label])

    def pizza() -> None:
        top.append("(PIZZAORDER")
        slot("NUMBER", pick("Number"))
        if rng.random() < 0.6:
            slot("SIZE", pick("Size"))
        if rng.random() < 0.3:
            slot("STYLE", pick("Style"))
        words("pizza")
        toppings = rng.sample(catalog["Topping"], rng.randint(0, 3))
        for j, value in enumerate(toppings):
            words("with" if j == 0 else "and")
            roll = rng.random()
            if roll < 0.15:
                top.append("(COMPLEX_TOPPING")
                slot("QUANTITY", pick("Quantity"))
                slot("TOPPING", value)
                top.append(")")
            elif roll < 0.3:
                top.append("(NOT")
                words("no")
                slot("TOPPING", value)
                top.append(")")
            else:
                slot("TOPPING", value)
        if rng.random() < 0.1:
            top.append("(NOT")
            words("but", "no")
            slot("STYLE", pick("Style"))
            words("style")
            top.append(")")
        top.append(")")

    def drink() -> None:
        top.append("(DRINKORDER")
        slot("NUMBER", pick("Number"))
        if rng.random() < 0.4:
            slot("SIZE", pick("Size"))
        if rng.random() < 0.4:
            slot("CONTAINERTYPE", pick("Containertype"))
            words("of")
        slot("DRINKTYPE", pick("Drinktype"))
        top.append(")")

    top.append("(ORDER")
    words(rng.choice(("i want", "i'd like", "can i have", "let me get", "get me")))
    pizza()
    if rng.random() < 0.5:
        words("and")
        drink()
    if rng.random() < 0.3:
        words(rng.choice(("thank you", "please", "for delivery")))
    top.append(")")
    return src, top


def pizza_rows(path: Path, rng: random.Random, catalog: dict, n: int) -> int:
    """Native pizza rows: JSON lines keyed ``train.SRC`` / ``train.TOP``."""
    lines = []
    for _ in range(n):
        src, top = _pizza_order(rng, catalog)
        lines.append(
            json.dumps({"train.SRC": " ".join(src), "train.TOP": " ".join(top)})
        )
    return _write_lines(path, lines)


def pizza_rules() -> list[dict]:
    """Mock rules that drive the rs/gb gate through every failure path.

    Replace-slots prompts end with the edited parse and an English cue, so
    ``rs`` keys a rule on that parse; generate-both prompts end with a bare
    parse cue and ``gb`` keys on their first context example. The last rule
    synthesizes clean output.
    """
    rs = r"[^\n]*;\nTranslation in English:$"
    gb = r"^\[CLM\] Semantic Parse: \(ORDER \(PIZZAORDER \(NUMBER (?:{})[\s\S]*\nSemantic Parse:$"
    return [
        {"pattern": r"\(DRINKTYPE sprite \)" + rs,
         "corruptions": ["drop_slot_word"], "corrupt_count": 2},
        {"pattern": r"\(DRINKTYPE pepsi \)" + rs,
         "corruptions": ["untagged_word"], "inject_word": "pineapple"},
        {"pattern": r"\(DRINKTYPE coke \)" + rs, "corruptions": ["duplicate_output"]},
        {"pattern": r"\(DRINKTYPE mountain dew \)" + rs,
         "corruptions": ["bad_separators"]},
        {"pattern": r"\(SIZE party size \)" + rs,
         "corruptions": ["copy_example"], "corrupt_count": 3},
        {"pattern": gb.format("two"), "corruptions": ["flip_casing"], "corrupt_count": 3},
        {"pattern": gb.format("three"), "corruptions": ["invalid_parse"]},
        {"pattern": gb.format("four"), "corruptions": ["duplicate_output"]},
        {"pattern": gb.format("five"), "corruptions": ["copy_example"], "corrupt_count": 2},
        {},
    ]


# ---------------------------------------------------------------------- mtop

_ADJ = (
    "red blue green small big old new early late quiet loud warm cold bright "
    "dark short long happy busy lazy fast slow sweet sour fresh local remote "
    "main final weekly daily yearly monthly spare extra silent open closed"
).split()
_NOUN = (
    "dentist meeting lunch dinner party concert game report invoice garden "
    "kitchen office station airport harbor museum library school market bakery "
    "studio gallery theater stadium clinic bridge tower river forest valley "
    "island village castle temple harbour canyon summit meadow orchard"
).split()
_NAME = (
    "anna ben carla david elena felix greta hugo ida jonas kira lars mona nils "
    "olga paul rosa sven tina uwe vera walter xenia yusuf zoe"
).split()
_TIME = (
    "tomorrow tonight today monday tuesday wednesday thursday friday "
    "saturday sunday noon midnight"
).split()


def _value(rng: random.Random, pools: tuple[tuple[str, ...], ...]) -> list[str]:
    return [rng.choice(pool) for pool in pools]


def _mtop_row(rng: random.Random) -> tuple[list[str], str, str]:
    """(tokens, decoupled parse, intent) of one English utterance."""
    tokens: list[str] = []
    parse: list[str] = []

    def words(s: str) -> None:
        tokens.extend(s.split())

    def slot(label: str, value: list[str]) -> None:
        tokens.extend(value)
        parse.extend([f"[SL:{label}", *value, "]"])

    def when() -> list[str]:
        if rng.random() < 0.5:
            return [rng.choice(_TIME)]
        return [rng.choice(("at", "by", "after")), str(rng.randint(1, 12)),
                rng.choice(("am", "pm"))]

    kind = rng.randrange(4)
    if rng.random() < 0.35:
        words(rng.choice(MTOP_MARKERS))
    if kind == 0:
        intent = "IN:CREATE_REMINDER"
        parse.append(f"[{intent}")
        words("remind")
        slot("PERSON_REMINDED", ["me"])
        words("about the")
        if rng.random() < 0.3:
            parse.append("[SL:TODO [IN:GET_TODO")
            slot("TODO", _value(rng, (_ADJ, _NOUN)))
            words("on")
            slot("DATE_TIME", when())
            parse.append("] ]")
        else:
            slot("TODO", _value(rng, (_ADJ, _NOUN, _NOUN)[: rng.randint(2, 3)]))
            words("on")
            slot("DATE_TIME", when())
    elif kind == 1:
        intent = "IN:GET_WEATHER"
        parse.append(f"[{intent}")
        words("what is the weather near the")
        slot("LOCATION", _value(rng, (_ADJ, _NOUN)))
        slot("DATE_TIME", when())
    elif kind == 2:
        intent = "IN:SEND_MESSAGE"
        parse.append(f"[{intent}")
        words("send a message to")
        slot("RECIPIENT", _value(rng, (_NAME,)))
        words("saying")
        slot("CONTENT_EXACT", _value(rng, (_ADJ, _NOUN, _ADJ, _NOUN)[: rng.randint(2, 4)]))
    else:
        intent = "IN:CREATE_CALL"
        parse.append(f"[{intent}")
        words("call")
        slot("CONTACT", _value(rng, (_NAME, _NAME)[: rng.randint(1, 2)]))
        words("from the")
        slot("LOCATION", _value(rng, (_ADJ, _NOUN)))
    parse.append("]")
    return tokens, " ".join(parse), intent


def mtop_rows(path: Path, rng: random.Random, n: int) -> int:
    """Tab-separated English rows with the ``tokens_json`` column."""
    lines = []
    for i in range(n):
        tokens, parse, intent = _mtop_row(rng)
        utterance = " ".join(tokens)
        lines.append("\t".join((
            f"en-{i:06d}", intent, "", utterance.capitalize(), "bench", "en_XX",
            parse, json.dumps({"tokens": tokens}),
        )))
    return _write_lines(path, lines)


def mtop_rules() -> list[dict]:
    """Mock rules for ts/tb and the slot-MT prompts that build the n-best.

    Slot-MT beams are re-scored so "<value> alt1" ranks first and the bare
    value last. The ts target parse then carries "... alt1" values, and a
    candidate that says "alt2" instead is repaired by the n-best pass.
    The other rules key on a carrier word of the English source.
    """
    src = r"Translation in English: [^\n]*\b"
    return [
        {"pattern": r"^\[CLM\] Translation in English:", "scores": [0.9, 0.5, 0.6, 0.7]},
        {"pattern": src + r"please\b", "substitutions": [[" alt1", " alt2"]]},
        {"pattern": src + r"quickly\b", "corruptions": ["flip_casing"]},
        {"pattern": src + r"maybe\b", "corruptions": ["drop_slot_word"]},
        {"pattern": src + r"kindly\b[^\n]*\nSemantic Parse for \w+:$",
         "corruptions": ["mismatch_parse"]},
        {},
    ]


def mt_records(
    mt_path: Path, align_path: Path, rng: random.Random, pool: list[dict],
    langs: tuple[str, ...],
) -> int:
    """Translations and word alignments of English examples for project-mt.

    Target words are the source words with a language suffix, so every
    pair is a real one-to-one alignment. Some rows drop the alignment of a
    slot token, swap a multi-token slot apart, copy the source, or carry
    the "Sentence" marker; project-mt rejects those rows by design.
    """
    mt, align = [], []
    for ex in pool:
        for lang in langs:
            src = ex["text"].split()
            tgt = [f"{w}_{lang}" for w in src]
            pairs = [[i, i] for i in range(len(src))]
            roll = rng.random()
            slot_idx = [i for i, w in enumerate(src) if w in ex["slot_words"]]
            if roll < 0.08 and slot_idx:
                drop = rng.choice(slot_idx)
                pairs = [p for p in pairs if p[0] != drop]
            elif roll < 0.14 and len(tgt) > 2:
                # Two target words two apart swap places; a slot holding
                # only one side of the swap maps to a discontiguous run.
                j = rng.randrange(len(tgt) - 2)
                tgt[j], tgt[j + 2] = tgt[j + 2], tgt[j]
                pairs = [[s, {j: j + 2, j + 2: j}.get(t, t)] for s, t in pairs]
            elif roll < 0.18:
                tgt = list(src)
            text = " ".join(tgt) + " ;"
            if rng.random() < 0.03:
                text = "Sentence : " + text
            mt.append(json.dumps({"id": ex["id"], "language": lang, "text": text},
                                 ensure_ascii=False))
            align.append(json.dumps({"id": ex["id"], "language": lang, "pairs": pairs}))
    _write_lines(mt_path, mt)
    return _write_lines(align_path, align)


def _perturb(parse: str, rng: random.Random) -> str:
    """A hypothesis parse: reordered, re-cased, re-valued or broken."""
    roll = rng.random()
    pieces = parse.split()
    if roll < 0.2:
        # Upper-case one value token: SCIEM still matches, UEM does not.
        idx = [i for i, p in enumerate(pieces) if not p.startswith("[") and p != "]"]
        i = rng.choice(idx)
        pieces[i] = pieces[i].upper()
        return " ".join(pieces)
    if roll < 0.35:
        # Swap the first two top-level slots: UEM matches, SCIEM does not.
        depth, groups, start = 0, [], None
        for i, p in enumerate(pieces[1:-1], start=1):
            if p.startswith("["):
                if depth == 0:
                    start = i
                depth += 1
            elif p == "]":
                depth -= 1
                if depth == 0:
                    groups.append((start, i + 1))
        if len(groups) >= 2:
            (a0, a1), (b0, b1) = groups[0], groups[1]
            pieces = pieces[:a0] + pieces[b0:b1] + pieces[a1:b0] + pieces[a0:a1] + pieces[b1:]
        return " ".join(pieces)
    if roll < 0.45:
        return parse.replace(" ]", " wrong ]", 1)
    if roll < 0.5:
        return parse.rsplit(" ]", 1)[0]
    return parse


def score_records(
    hyp_path: Path, ref_path: Path, rng: random.Random, pool: list[dict],
    langs: tuple[str, ...],
) -> int:
    hyp, ref = [], []
    for i, ex in enumerate(pool):
        lang = langs[i % len(langs)]
        rid = f"{ex['id']}-{lang}"
        ref.append(json.dumps({"id": rid, "lang": lang, "parse": ex["parse"]}))
        hyp.append(json.dumps({"id": rid, "parse": _perturb(ex["parse"], rng)}))
    _write_lines(hyp_path, hyp)
    return _write_lines(ref_path, ref)


def english_pool(tsv_path: Path) -> list[dict]:
    """The examples ``preprocess-mtop`` derives from the TSV, without
    running it, plus the set of words inside slot values."""
    out = []
    with open(tsv_path, encoding="utf-8") as fh:
        for line in fh:
            cols = line.rstrip("\n").split("\t")
            tokens = json.loads(cols[7])["tokens"]
            parse = cols[6]
            slot_words = {
                p for p in parse.split() if not p.startswith("[") and p != "]"
            }
            out.append({"id": cols[0], "text": " ".join(tokens), "parse": parse,
                        "slot_words": slot_words})
    return out
