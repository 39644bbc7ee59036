"""Training-set assembly: up-sample real data to half the mass and emit a
shuffled manifest with a fixed-update epoch schedule.

Mass is counted in examples. When synthetic data outnumbers real data the
real set is repeated round-robin up to exactly the synthetic count, so the
real fraction is 0.5 within one example and per-example duplication counts
differ by at most one. When real data already dominates, nothing is
duplicated. The number of optimizer updates stays fixed across plans, so
epochs scale as round(updates * batch / total).
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Mapping

from .datasets import Example, RecordWriter


class EmptyReal(ValueError):
    pass


@dataclass(frozen=True)
class MixPlan:
    real_count: int
    real_emitted: int
    synthetic_counts: Mapping[str, int]
    duplication_factor: int
    total: int
    updates: int
    batch_size: int
    epochs: int

    @property
    def real_fraction(self) -> float:
        return self.real_emitted / self.total

    def to_record(self) -> dict:
        return {"kind": "mix_plan", **asdict(self)}


def plan_mix(
    real: Sequence[Example],
    synthetic: Mapping[str, Sequence[Example]],
    updates: int,
    batch_size: int,
) -> MixPlan:
    """Compute duplication and the epoch schedule for a dataset mix."""
    n = len(real)
    if n == 0:
        raise EmptyReal("cannot mix with an empty real dataset")
    counts = {tag: len(examples) for tag, examples in synthetic.items()}
    synthetic_total = sum(counts.values())
    if synthetic_total <= n:
        factor, real_emitted = 1, n
    else:
        factor = math.ceil(synthetic_total / n)
        real_emitted = synthetic_total
    total = real_emitted + synthetic_total
    epochs = max(1, round(updates * batch_size / total))
    return MixPlan(
        real_count=n,
        real_emitted=real_emitted,
        synthetic_counts=counts,
        duplication_factor=factor,
        total=total,
        updates=updates,
        batch_size=batch_size,
        epochs=epochs,
    )


def mixed_examples(
    plan: MixPlan,
    real: Sequence[Example],
    synthetic: Mapping[str, Sequence[Example]],
    seed: int,
    real_tag: str = "dev",
) -> Iterator[Example]:
    """Materialize the plan: duplicated real rows plus tagged synthetic rows,
    shuffled deterministically.

    The shuffle moves row numbers, not rows: row ``r`` of the unshuffled
    order is real row ``r mod len(real)`` for ``r < plan.real_emitted``,
    then each synthetic set's rows in turn. ``random.shuffle`` draws only
    on the length, so the order is the one a shuffle of the rows gives.
    The rows of the shuffled row numbers are yielded in order, each read
    from its set, and retagged, as it is yielded.
    """
    parts = [(0, real, real_tag)]
    stop = plan.real_emitted
    for tag, examples in synthetic.items():
        parts.append((stop, examples, tag))
        stop += len(examples)
    starts = [start for start, _, _ in parts]
    order = array("q", range(stop))
    random.Random(seed).shuffle(order)
    for r in order:
        start, rows, tag = parts[bisect_right(starts, r) - 1]
        yield _retag(rows[(r - start) % len(rows)], tag)


def _retag(ex: Example, tag: str) -> Example:
    # Fallback rows keep their tag so duplicated prompts stay identifiable.
    if ex.source in (tag, "fallback"):
        return ex
    return Example(ex.id, ex.lang, ex.text, ex.parse, source=tag, cf=ex.cf)


def emit_manifest(
    plan: MixPlan,
    real: Sequence[Example],
    synthetic: Mapping[str, Sequence[Example]],
    seed: int,
    path: str | Path,
    real_tag: str = "dev",
) -> range:
    """Write the rows of ``mixed_examples`` as the training manifest
    (JSONL records with weights), one record at a time; the line numbers
    written, ``range(count)``."""
    with RecordWriter(path) as writer:
        for ex in mixed_examples(plan, real, synthetic, seed, real_tag=real_tag):
            writer.write({**ex.to_dict(), "weight": 1.0})
    return range(writer.count)
