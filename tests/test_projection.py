from __future__ import annotations

import pytest

from clasp.datasets import Example
from clasp.projection import (
    COPY_ORIGINAL,
    DISCONTIGUOUS_TARGET,
    MISSING_SLOT_VALUE,
    IndexOutOfBounds,
    WordAlignment,
    project_parse,
)
from clasp.trees import serialize

# weather(0) near(1) the(2) old(3) harbor(4) on(5) friday(6)
EN = Example(
    "en-1", "en", "weather near the old harbor on friday",
    "[IN:GET_WEATHER [SL:LOCATION old harbor ] [SL:DATE_TIME on friday ] ]",
)
# météo(0) près(1) du(2) vieux(3) port(4) vendredi(5)
FR = "météo près du vieux port vendredi"
ALIGN = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 5)]


def project(pairs, text: str = FR):
    return project_parse(EN, text, WordAlignment.from_pairs(pairs))


def test_slot_values_become_their_aligned_spans():
    verdict = project(ALIGN)
    assert verdict.ok
    assert serialize(verdict.parse) == (
        "[IN:GET_WEATHER [SL:LOCATION vieux port ] [SL:DATE_TIME vendredi ] ]"
    )


def test_copied_translation_is_copy_original():
    verdict = project([(i, i) for i in range(7)], text=EN.text)
    assert verdict.failure_modes == {COPY_ORIGINAL}
    assert verdict.parse is None and not verdict.ok


def test_unaligned_slot_token_is_a_missing_value():
    verdict = project([p for p in ALIGN if p != (4, 4)])
    assert verdict.failure_modes == {MISSING_SLOT_VALUE}


def test_gapped_target_span_is_discontiguous():
    pairs = [p for p in ALIGN if p != (4, 4)] + [(4, 1)]
    assert project(pairs).failure_modes == {DISCONTIGUOUS_TARGET}


def test_two_slots_on_one_target_token_are_discontiguous():
    pairs = [p for p in ALIGN if p[0] not in (5, 6)] + [(5, 4), (6, 4)]
    assert project(pairs).failure_modes == {DISCONTIGUOUS_TARGET}


@pytest.mark.parametrize("pair", [(7, 0), (0, 6), (-1, 0)])
def test_out_of_bounds_pair_is_rejected(pair):
    with pytest.raises(IndexOutOfBounds, match="outside 7x6"):
        project([*ALIGN, pair])
