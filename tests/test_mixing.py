from __future__ import annotations

import gc
import json
import random
import tracemalloc
from collections import Counter

import pytest

from clasp.datasets import Example
from clasp.mixing import EmptyReal, emit_manifest, mixed_examples, plan_mix


def rows(prefix: str, n: int, source: str = "") -> list[Example]:
    return [
        Example(f"{prefix}-{i}", "en", f"text {prefix} {i}", "(ORDER )", source, cf=f"cf {i}")
        for i in range(n)
    ]


class TestPlanMix:
    def test_synthetic_majority_duplicates_real_up_to_the_synthetic_count(self):
        plan = plan_mix(rows("r", 3), {"rs": rows("s", 7), "gb": rows("g", 3)},
                        updates=100, batch_size=4)
        assert plan.synthetic_counts == {"rs": 7, "gb": 3}
        assert plan.duplication_factor == 4  # ceil(10 / 3)
        assert plan.real_emitted == sum(plan.synthetic_counts.values()) == 10
        assert plan.total == 20
        assert plan.real_fraction == 0.5
        assert plan.epochs == 20  # round(100 * 4 / 20)

    def test_real_majority_is_not_duplicated(self):
        plan = plan_mix(rows("r", 5), {"rs": rows("s", 2)}, updates=1, batch_size=1)
        assert (plan.duplication_factor, plan.real_emitted, plan.total) == (1, 5, 7)
        assert plan.epochs == 1  # round(1 / 7) is 0, but a plan trains once

    def test_epochs_keep_the_update_count(self):
        real = rows("r", 4)
        small = plan_mix(real, {"rs": rows("s", 4)}, updates=50, batch_size=8)
        large = plan_mix(real, {"rs": rows("s", 36)}, updates=50, batch_size=8)
        assert (small.total, small.epochs) == (8, 50)
        assert (large.total, large.epochs) == (72, 6)  # round(400 / 72)

    def test_empty_real_is_rejected(self):
        with pytest.raises(EmptyReal):
            plan_mix([], {"rs": rows("s", 2)}, updates=1, batch_size=1)

    def test_record_names_every_field(self):
        plan = plan_mix(rows("r", 2), {"rs": rows("s", 3)}, updates=10, batch_size=2)
        assert plan.to_record() == {
            "kind": "mix_plan", "real_count": 2, "real_emitted": 3,
            "synthetic_counts": {"rs": 3}, "duplication_factor": 2, "total": 6,
            "updates": 10, "batch_size": 2, "epochs": 3,
        }


class TestMixedExamples:
    def test_real_rows_repeat_round_robin(self):
        real = rows("r", 3)
        synthetic = {"rs": rows("s", 7)}
        plan = plan_mix(real, synthetic, updates=10, batch_size=2)
        mixed = mixed_examples(plan, real, synthetic, seed=0)
        counts = Counter(ex.id for ex in mixed if ex.source == "dev")
        assert counts == {"r-0": 3, "r-1": 2, "r-2": 2}

    def test_rows_are_retagged_but_fallback_rows_keep_their_tag(self):
        real = [*rows("r", 1), Example("r-fb", "en", "t", "(ORDER )", "fallback")]
        synthetic = {"rs": [*rows("s", 2, source="clasp-rs"),
                            Example("s-fb", "en", "t", "(ORDER )", "fallback")]}
        plan = plan_mix(real, synthetic, updates=10, batch_size=2)
        by_id = {ex.id: ex for ex in mixed_examples(plan, real, synthetic, seed=1)}
        assert by_id["r-0"].source == "dev" and by_id["r-0"].cf == "cf 0"
        assert by_id["s-0"].source == "rs" and by_id["s-0"].cf == "cf 0"
        assert by_id["r-fb"].source == "fallback"
        assert by_id["s-fb"].source == "fallback"

    def test_shuffle_is_seeded(self):
        real = rows("r", 2)
        # An empty set between two others takes no row numbers.
        synthetic = {"rs": rows("s", 3), "none": [], "gb": rows("g", 2)}
        plan = plan_mix(real, synthetic, updates=10, batch_size=2)
        ordered = [real[i % 2].id for i in range(plan.real_emitted)]
        ordered += [ex.id for examples in synthetic.values() for ex in examples]
        for seed in (0, 1, 2):
            expected = list(ordered)
            random.Random(seed).shuffle(expected)
            mixed = mixed_examples(plan, real, synthetic, seed=seed)
            assert [ex.id for ex in mixed] == expected
        assert list(mixed_examples(plan, real, synthetic, seed=3)) == list(
            mixed_examples(plan, real, synthetic, seed=3)
        )

    def test_manifest_writes_the_mixed_rows_with_unit_weight(self, tmp_path):
        real, synthetic = rows("r", 2), {"rs": rows("s", 3)}
        plan = plan_mix(real, synthetic, updates=10, batch_size=2)
        path = tmp_path / "manifest.jsonl"
        written = emit_manifest(plan, real, synthetic, seed=5, path=path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        mixed = list(mixed_examples(plan, real, synthetic, seed=5))
        assert written == range(len(records)) == range(len(mixed))
        assert [r["id"] for r in records] == [ex.id for ex in mixed]
        assert [{k: v for k, v in r.items() if k != "weight"} for r in records] == [
            ex.to_dict() for ex in mixed
        ]
        assert all(r["weight"] == 1.0 for r in records)


def test_emit_manifest_streams_its_records(tmp_path):
    # Records are written one at a time: the manifest write holds the
    # shuffled row numbers and a buffer, not the file's lines or their join.
    real = rows("r", 500, "dev")
    synthetic = {"rs": rows("s", 4000), "gb": rows("g", 4000)}
    plan = plan_mix(real, synthetic, updates=100, batch_size=8)
    path = tmp_path / "manifest.jsonl"
    gc.collect()
    tracemalloc.start()
    try:
        written = emit_manifest(plan, real, synthetic, seed=3, path=path)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(written) == plan.total
    extra = peak - after
    assert extra <= 0.25 * path.stat().st_size, (extra, path.stat().st_size)
