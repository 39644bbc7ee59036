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
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .datasets import Example, atomic_write_text, dump_record


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
    def synthetic_total(self) -> int:
        return sum(self.synthetic_counts.values())

    @property
    def real_fraction(self) -> float:
        return self.real_emitted / self.total

    def to_record(self) -> dict:
        return {
            "kind": "mix_plan",
            "real_count": self.real_count,
            "real_emitted": self.real_emitted,
            "synthetic_counts": dict(self.synthetic_counts),
            "duplication_factor": self.duplication_factor,
            "total": self.total,
            "updates": self.updates,
            "batch_size": self.batch_size,
            "epochs": self.epochs,
        }


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
) -> list[Example]:
    """Materialize the plan: duplicated real rows plus tagged synthetic rows,
    shuffled deterministically."""
    rows = [
        _retag(real[i % len(real)], real_tag) for i in range(plan.real_emitted)
    ]
    for tag, examples in synthetic.items():
        rows.extend(_retag(ex, tag) for ex in examples)
    random.Random(seed).shuffle(rows)
    return rows


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
) -> list[Example]:
    """Write the shuffled training manifest (JSONL records with weights)."""
    rows = mixed_examples(plan, real, synthetic, seed, real_tag=real_tag)
    lines = []
    for ex in rows:
        record = ex.to_dict()
        record["weight"] = 1.0
        lines.append(dump_record(record))
    atomic_write_text(path, "".join(line + "\n" for line in lines))
    return rows
