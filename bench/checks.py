"""Correctness checks on the files each pipeline stage writes.

Each check returns the number of failed operations: an operation is one
augment task or one input row of any other stage. Gate and projection
rejections are not failures; a missing row, a row that breaks the
validation principles, or a count that disagrees with the inputs is.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from clasp.trees import Dialect, TreeError, leaf_slots, parse


def read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _contiguous(tokens: list[str], value: tuple[str, ...]) -> bool:
    k = len(value)
    return k > 0 and any(
        tuple(tokens[i : i + k]) == value for i in range(len(tokens) - k + 1)
    )


def valid_row(row: dict, dialect: Dialect) -> bool:
    """VP1: the parse is well formed; VP2: every leaf-slot value occurs
    contiguously in the text."""
    try:
        tree = parse(row["parse"], dialect)
    except (TreeError, KeyError):
        return False
    tokens = row.get("text", "").split()
    return all(_contiguous(tokens, ref.value) for ref in leaf_slots(tree))


def row_key(row: dict) -> tuple:
    return (row["id"], row["lang"], row["text"], row["parse"], row.get("cf"))


def preprocess(out: Path, n_in: int, dialect: Dialect) -> int:
    rows = read_records(out)
    bad = sum(1 for row in rows if not valid_row(row, dialect))
    return abs(n_in - len(rows)) + bad


def sentinels(out: Path, n_in: int) -> int:
    """Every row encoded; each slot value is a run of sentinels of its text."""
    rows = read_records(out)
    bad = 0
    for row in rows:
        try:
            tree = parse(row["parse"], Dialect.MTOP_BRACKET)
        except TreeError:
            bad += 1
            continue
        marks = set(row["text"].split()[::2])
        bad += any(
            not re.fullmatch(r"word\d+", tok) or tok not in marks
            for ref in leaf_slots(tree) for tok in ref.value
        )
    return abs(n_in - len(rows)) + bad


def augment(out: Path, k: int, dialect: Dialect, pool_keys: set) -> int:
    """k rows; generated rows pass VP1/VP2, fallback rows are pool rows."""
    rows = read_records(out)
    bad = 0
    for row in rows:
        if row.get("source") == "fallback":
            bad += row_key(row) not in pool_keys
        else:
            bad += not valid_row(row, dialect)
    return abs(k - len(rows)) + bad


def mix(out: Path, plan: Path, n_real: int, synthetic: dict[str, int]) -> int:
    """The manifest holds exactly the planned rows, tagged as planned; real
    rows carry the default ``dev`` tag."""
    rows = read_records(out)
    record = json.loads(plan.read_text(encoding="utf-8"))
    want_real = max(n_real, sum(synthetic.values()))
    failed = abs(record["total"] - len(rows)) + abs(record["real_emitted"] - want_real)
    tagged: dict[str, int] = {}
    for row in rows:
        tagged[row["source"]] = tagged.get(row["source"], 0) + 1
    # Fallback rows keep their tag, so only the sum per synthetic set holds.
    got = sum(tagged.get(tag, 0) for tag in synthetic) + tagged.get("fallback", 0)
    return (failed + abs(sum(synthetic.values()) - got)
            + abs(tagged.get("dev", 0) - want_real))


def project(out: Path, stats: Path, n_in: int, pool_ids: set) -> int:
    """Every input row got a verdict; projected rows pass VP1/VP2."""
    rows = read_records(out)
    bad = sum(
        1 for row in rows
        if row["id"] not in pool_ids or not valid_row(row, Dialect.MTOP_BRACKET)
    )
    record = json.loads(stats.read_text(encoding="utf-8"))
    judged = sum(r["total"] for r in record["rows"] if r["language"] != "avg")
    return bad + abs(n_in - judged) + max(0, len(rows) - n_in)


def score(out: Path, n_pairs: int, langs: set) -> int:
    record = json.loads(out.read_text(encoding="utf-8"))
    per_lang = record["per_lang"]
    total = sum(s["total"] for s in per_lang.values())
    if set(per_lang) != langs or any(
        not 0 <= s["matched"] <= s["total"] for s in per_lang.values()
    ):
        return n_pairs
    return abs(n_pairs - total)
