from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, strategies as st

from clasp.canonical import (
    FUNCTION_WORDS_KEY,
    CatalogError,
    CatalogMatch,
    NoAlternative,
    SlotCatalog,
    SlotUnknown,
    UncoveredConstruct,
    contains_catalog_word,
    sample_replacement,
    to_canonical_form,
)
from clasp.trees import Dialect, ParseTree, leaf_slots, parse

from conftest import random_pizza_tree

PIZZA = Dialect.PIZZA_PAREN

FIXED_CF_TREE = (
    "(ORDER (PIZZAORDER (NUMBER a ) (SIZE small ) (TOPPING peppers ) "
    "(TOPPING sausage ) (TOPPING pineapple ) ) )"
)
FIXED_CF_TEXT = "i want one small pizza with peppers , sausage , and pineapple"


class TestToCanonicalForm:
    def test_golden_rendering(self, cf_templates):
        tree = parse(FIXED_CF_TREE, PIZZA)
        assert to_canonical_form(tree, cf_templates) == FIXED_CF_TEXT

    def test_single_topping_has_no_joiner(self, cf_templates):
        tree = parse(
            "(Order (Pizzaorder (Number a ) (Topping peppers ) ) )", PIZZA
        )
        cf = to_canonical_form(tree, cf_templates)
        assert cf == "i want one pizza with peppers"

    def test_two_toppings(self, cf_templates):
        tree = parse(
            "(Order (Pizzaorder (Number two ) (Topping ham ) (Topping olives ) ) )",
            PIZZA,
        )
        assert (
            to_canonical_form(tree, cf_templates)
            == "i want two pizza with ham , and olives"
        )

    def test_drink_with_container(self, cf_templates):
        tree = parse(
            "(Order (Drinkorder (Number two ) (Containertype cans ) "
            "(Drinktype coke ) ) )",
            PIZZA,
        )
        assert to_canonical_form(tree, cf_templates) == "i want two cans of coke"

    def test_negated_style_and_quantity(self, cf_templates):
        tree = parse(
            "(Order (Pizzaorder (Number a ) (Size large ) "
            "(Complex_topping (Quantity extra ) (Topping cheese ) ) "
            "(Not (Style thin crust ) ) ) )",
            PIZZA,
        )
        assert to_canonical_form(tree, cf_templates) == (
            "i want one large pizza with extra cheese , and no thin crust style"
        )

    def test_uncovered_label(self, cf_templates):
        tree = parse("(Order (Pizzaorder (Number a ) (Volume loud ) ) )", PIZZA)
        with pytest.raises(UncoveredConstruct):
            to_canonical_form(tree, cf_templates)

    def test_slot_order_preserved_on_random_trees(self, catalog, cf_templates):
        rng = random.Random(23)
        for _ in range(50):
            tree = random_pizza_tree(rng, catalog)
            cf = to_canonical_form(tree, cf_templates)
            _assert_mention_order(tree, cf, cf_templates)


def _assert_mention_order(tree, cf: str, templates) -> None:
    """Order-extraction oracle: each slot value occurs left-to-right."""
    tokens = cf.split()
    used = [False] * len(tokens)
    positions = []
    for ref in leaf_slots(tree):
        value = ref.value_text
        if ref.slot_label.lower() == "number":
            value = templates.render_number(value)
        needle = value.split()
        found = None
        for i in range(len(tokens) - len(needle) + 1):
            if tokens[i : i + len(needle)] == needle and not any(
                used[i : i + len(needle)]
            ):
                found = i
                for j in range(i, i + len(needle)):
                    used[j] = True
                break
        assert found is not None, f"{value!r} not found in {cf!r}"
        positions.append(found)
    assert positions == sorted(positions), (positions, cf)


class TestCanonicalFormIsInjective:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equal_text_means_equal_trees(self, catalog, cf_templates, seed):
        # Three values a label make near-equal trees common.
        small = SlotCatalog(
            {label: catalog.values(label)[:3] for label in catalog.entries}
        )
        rng = random.Random(seed)
        seen: dict[str, ParseTree] = {}
        for _ in range(200):
            tree = random_pizza_tree(rng, small)
            cf = " ".join(to_canonical_form(tree, cf_templates).split())
            assert seen.setdefault(cf, tree) == tree, cf


class TestSampleReplacement:
    def test_excludes_current_value(self, catalog):
        for seed in range(50):
            value = sample_replacement(catalog, "Topping", "mushroom", seed)
            assert value.lower() != "mushroom"

    def test_seeded_determinism(self, catalog):
        a = sample_replacement(catalog, "Topping", "mushroom", 42)
        b = sample_replacement(catalog, "Topping", "mushroom", 42)
        assert a == b

    def test_no_alternative(self):
        catalog = SlotCatalog.from_mapping({"Topping": ["x"]})
        with pytest.raises(NoAlternative):
            sample_replacement(catalog, "Topping", "x", 0)

    def test_unknown_slot(self, catalog):
        with pytest.raises(SlotUnknown):
            sample_replacement(catalog, "Flavor", "x", 0)

    def test_nearly_uniform_distribution(self):
        catalog = SlotCatalog.from_mapping(
            {"Topping": ["a", "b", "c", "d", "e", "f"]}
        )
        draws = 10_000
        counts: dict[str, int] = {}
        for seed in range(draws):
            value = sample_replacement(catalog, "Topping", "f", seed)
            counts[value] = counts.get(value, 0) + 1
        assert set(counts) == {"a", "b", "c", "d", "e"}
        p = 1 / 5
        sigma = (draws * p * (1 - p)) ** 0.5
        for value, count in counts.items():
            assert abs(count - draws * p) < 3 * sigma, (value, count)


class TestFunctionWords:
    def test_shipped_catalog_lists_a_and_can(self, catalog):
        assert catalog.function_words == frozenset({"a", "can"})

    def test_reserved_key_is_no_slot_label(self, catalog):
        assert FUNCTION_WORDS_KEY not in tuple(catalog.entries)
        assert all(label != FUNCTION_WORDS_KEY for label, _ in catalog.iter_values())
        with pytest.raises(SlotUnknown):
            catalog.values(FUNCTION_WORDS_KEY)
        assert not catalog.has_value(FUNCTION_WORDS_KEY, "a")

    def test_catalog_without_key_has_no_function_words(self):
        catalog = SlotCatalog.from_mapping({"Number": ["a"], "Topping": ["ham"]})
        assert catalog.function_words == frozenset()
        assert tuple(catalog.entries) == ("Number", "Topping")

    def test_listed_word_must_be_a_slot_value(self):
        with pytest.raises(CatalogError):
            SlotCatalog.from_mapping(
                {"Number": ["a"], FUNCTION_WORDS_KEY: ["a", "the"]}
            )


class TestContainsCatalogWord:
    def test_single_match(self, catalog):
        matches = contains_catalog_word("pizza with cheese thanks", catalog)
        assert any(
            m.slot_label == "Topping" and m.value == "cheese" for m in matches
        )

    def test_empty_text(self, catalog):
        assert contains_catalog_word("", catalog) == []

    def test_word_boundaries(self):
        catalog = SlotCatalog.from_mapping({"Topping": ["ham"]})
        assert contains_catalog_word("champagne for me", catalog) == []
        assert contains_catalog_word("add Ham now", catalog) == [
            CatalogMatch("Topping", "ham", (1, 2))
        ]

    def test_maximal_match_wins(self):
        catalog = SlotCatalog.from_mapping(
            {"Topping": ["peppers", "yellow peppers"]}
        )
        matches = contains_catalog_word("add yellow peppers", catalog)
        assert matches == [CatalogMatch("Topping", "yellow peppers", (1, 3))]

    def test_agrees_with_regex_oracle(self, catalog):
        rng = random.Random(67)
        vocab = ["the", "with", "zebra", "thanks"] + [
            v for _, v in catalog.iter_values()
        ]
        for _ in range(100):
            text = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
            got = {
                (m.slot_label, m.value.lower(), m.span)
                for m in contains_catalog_word(text, catalog)
            }
            assert got == _regex_scan(text, catalog)


def _regex_scan(text: str, catalog) -> set:
    """Character-level oracle: whole-word regex scan, then maximal filter."""
    tokens = text.split()
    starts, pos = [], 0
    for tok in tokens:
        pos = text.index(tok, pos)
        starts.append(pos)
        pos += len(tok)
    def token_index(char_pos: int) -> int:
        return max(i for i, s in enumerate(starts) if s <= char_pos)
    raw = set()
    for label, value in catalog.iter_values():
        pattern = re.compile(
            r"(?<!\S)" + re.escape(value) + r"(?!\S)", re.IGNORECASE
        )
        for m in pattern.finditer(text):
            a = token_index(m.start())
            b = token_index(m.end() - 1) + 1
            raw.add((label, value.lower(), (a, b)))
    return {
        m
        for m in raw
        if not any(
            o[2][0] <= m[2][0] and m[2][1] <= o[2][1] and o[2] != m[2]
            for o in raw
        )
    }


# Reference scans: the lookups as they were before the catalog indexes.


def _scan_contains_catalog_word(text: str, catalog: SlotCatalog) -> list[CatalogMatch]:
    tokens = text.split()
    lowered = [t.lower() for t in tokens]
    raw: list[CatalogMatch] = []
    for label, value in catalog.iter_values():
        needle = value.lower().split()
        k = len(needle)
        for i in range(len(lowered) - k + 1):
            if lowered[i : i + k] == needle:
                raw.append(CatalogMatch(label, value, (i, i + k)))
    maximal = [
        m
        for m in raw
        if not any(
            (o.span[0] <= m.span[0] and m.span[1] <= o.span[1] and o.span != m.span)
            for o in raw
        )
    ]
    return sorted(maximal, key=lambda m: (m.span, m.slot_label, m.value))


def _scan_values(catalog: SlotCatalog, slot_label: str) -> tuple[str, ...]:
    for label, vals in catalog.entries.items():
        if label.lower() == slot_label.lower():
            return vals
    raise SlotUnknown(slot_label)


def _scan_has_value(catalog: SlotCatalog, slot_label: str, value: str) -> bool:
    try:
        vals = _scan_values(catalog, slot_label)
    except SlotUnknown:
        return False
    return value.lower() in {v.lower() for v in vals}


_WORDS = ("ham", "Ham", "HAM", "extra", "cheese", "a", "can", "diet", "coke", "thin")
_LABELS = ("Topping", "topping", "Number", "Drinktype", "Containertype")
_catalog_values = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)
_catalogs = st.dictionaries(
    st.sampled_from(_LABELS), st.lists(_catalog_values, max_size=6), max_size=5
)
_texts = st.lists(
    st.sampled_from(_WORDS + ("pizza", "with", "please", "champagne")), max_size=14
).map(" ".join)

# Multi-token values, one value under two labels, a duplicate entry, case
# variants, and a label that differs from another only in case.
_MIXED_CATALOG = {
    "Topping": ["ham", "extra cheese", "cheese", "ham", "HAM"],
    "topping": ["thin"],
    "Containertype": ["can", "diet coke"],
    "Drinktype": ["diet coke", "coke", "Diet Coke"],
}


class TestCatalogIndexes:
    @given(mapping=_catalogs, text=_texts)
    @example(mapping=_MIXED_CATALOG, text="a can of Diet COKE with extra cheese and ham")
    @example(mapping=_MIXED_CATALOG, text="ham ham extra extra cheese thin")
    def test_contains_catalog_word_equals_the_scan(self, mapping, text):
        catalog = SlotCatalog.from_mapping(mapping)
        assert contains_catalog_word(text, catalog) == _scan_contains_catalog_word(
            text, catalog
        )

    @given(mapping=_catalogs, text=_texts)
    def test_a_directly_built_catalog_is_indexed_too(self, mapping, text):
        catalog = SlotCatalog({k: tuple(v) for k, v in mapping.items()})
        assert contains_catalog_word(text, catalog) == _scan_contains_catalog_word(
            text, catalog
        )

    @given(
        mapping=_catalogs,
        label=st.sampled_from(_LABELS + ("TOPPING", "Size")),
        value=st.one_of(_catalog_values, st.just("")),
    )
    @example(mapping=_MIXED_CATALOG, label="TOPPING", value="Ham")
    @example(mapping=_MIXED_CATALOG, label="topping", value="thin")
    def test_values_and_has_value_equal_the_scan(self, mapping, label, value):
        catalog = SlotCatalog.from_mapping(mapping)
        try:
            expected = _scan_values(catalog, label)
        except SlotUnknown:
            with pytest.raises(SlotUnknown):
                catalog.values(label)
        else:
            assert catalog.values(label) == expected
        assert catalog.has_value(label, value) == _scan_has_value(catalog, label, value)
