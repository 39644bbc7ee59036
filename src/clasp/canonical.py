"""Canonical-form rendering for decoupled pizza-order parses, plus slot catalogs.

The template grammar covers Order, Pizzaorder, Drinkorder, Number, Size,
Style, Topping, Complex_topping(Quantity), Not, Containertype and
Drinktype. Rendering preserves the sibling order of slots exactly.

The exact phrasing for negation, quantities and container types is a
repo convention (see the shipped CF template file); slot values are
assumed not to contain the joiner tokens ("," / "and") or the frame
keywords ("pizza", "with", "no", "of", "style").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Iterator, Mapping, NamedTuple, Sequence

from .datasets import packaged, read_json
from .trees import Node, ParseTree, Token


class CatalogError(ValueError):
    pass


class SlotUnknown(CatalogError):
    pass


class NoAlternative(CatalogError):
    pass


class TemplateError(ValueError):
    pass


class UncoveredConstruct(TemplateError):
    """A tree node has no rendering template."""


FUNCTION_WORDS_KEY = "_function_words"


@dataclass(frozen=True)
class SlotCatalog:
    """Per-slot value lists; value lookup is case-insensitive.

    The file is one JSON object mapping each slot label to its list of
    values, e.g. ``{"Number": ["a", "two"], "Containertype": ["can"]}``.
    The reserved key ``"_function_words"`` lists catalog values that are
    also ordinary function words ("a", "can"): the gate does not flag them
    as untagged slot mentions. Each must be a value of some slot. The key
    is not a slot label, so ``entries``, ``values``, ``iter_values`` and
    ``has_value`` never see it.

    Lookups go through indexes built on first use and kept with the
    catalog; they assume every value has a token, which ``from_mapping``
    checks.
    """

    entries: Mapping[str, tuple[str, ...]]
    function_words: frozenset[str] = frozenset()  # lower-cased

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Sequence[str]]) -> "SlotCatalog":
        entries = {}
        for label, values in mapping.items():
            if not isinstance(values, (list, tuple)) or not all(
                isinstance(v, str) for v in values
            ):
                raise CatalogError(
                    f"{label!r} must be a list of strings, got {values!r}"
                )
            if label == FUNCTION_WORDS_KEY:
                continue
            if any(not v.strip() for v in values):
                raise CatalogError(f"empty value under slot {label!r}")
            entries[label] = tuple(values)
        known = {v.lower() for vals in entries.values() for v in vals}
        function_words = frozenset(
            w.lower() for w in mapping.get(FUNCTION_WORDS_KEY, ())
        )
        unknown = sorted(function_words - known)
        if unknown:
            raise CatalogError(f"function words that are no slot value: {unknown}")
        return cls(entries, function_words)

    @classmethod
    @lru_cache(maxsize=1)
    def default(cls) -> "SlotCatalog":
        """The shipped pizza catalog, read on first use."""
        return read_json(packaged("pizza_catalog.json"), cls.from_mapping)

    @cached_property
    def _by_label(self) -> dict[str, tuple[tuple[str, ...], frozenset[str]]]:
        """{lower-cased label: (values, lower-cased values)}; of two labels
        that differ only in case, the first one wins."""
        index: dict[str, tuple[tuple[str, ...], frozenset[str]]] = {}
        for label, vals in self.entries.items():
            index.setdefault(label.lower(), (vals, frozenset(v.lower() for v in vals)))
        return index

    @cached_property
    def _by_first_token(self) -> dict[str, list[tuple[str, str, list[str]]]]:
        """{first lower-cased token: [(label, value, lower-cased tokens)]},
        each list in ``iter_values`` order."""
        index: dict[str, list[tuple[str, str, list[str]]]] = {}
        for label, value in self.iter_values():
            needle = value.lower().split()
            index.setdefault(needle[0], []).append((label, value, needle))
        return index

    def values(self, slot_label: str) -> tuple[str, ...]:
        try:
            return self._by_label[slot_label.lower()][0]
        except KeyError:
            raise SlotUnknown(slot_label) from None

    def has_value(self, slot_label: str, value: str) -> bool:
        found = self._by_label.get(slot_label.lower())
        return found is not None and value.lower() in found[1]

    def iter_values(self) -> Iterator[tuple[str, str]]:
        for label, vals in self.entries.items():
            for v in vals:
                yield label, v


class CatalogMatch(NamedTuple):
    slot_label: str
    value: str
    span: tuple[int, int]  # token index span, end exclusive


def contains_catalog_word(text: str, catalog: SlotCatalog) -> list[CatalogMatch]:
    """All maximal case-insensitive whole-word catalog matches in ``text``.

    Tokens are whitespace-delimited, so "ham" never matches inside
    "champagne". Matches strictly contained in a longer match are dropped.
    """
    lowered = [t.lower() for t in text.split()]
    by_first = catalog._by_first_token
    raw: list[CatalogMatch] = []
    for i, token in enumerate(lowered):
        for label, value, needle in by_first.get(token, ()):
            k = len(needle)
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


def sample_replacement(
    catalog: SlotCatalog, slot_label: str, exclude: str, rng_seed: int
) -> str:
    """Seeded uniform draw of a catalog value different from ``exclude``."""
    values = catalog.values(slot_label)
    candidates = [v for v in values if v.lower() != exclude.lower()]
    if not candidates:
        raise NoAlternative(f"no alternative to {exclude!r} for slot {slot_label!r}")
    return random.Random(rng_seed).choice(candidates)


@dataclass(frozen=True)
class CfTemplateSet:
    """Declarative templates driving canonical-form rendering."""

    order_prefix: str = "i want"
    order_joiner: str = "and"
    list_separator: str = ","
    list_final_joiner: str = "and"
    pizza_word: str = "pizza"
    with_word: str = "with"
    container_word: str = "of"
    negation_word: str = "no"
    negated_style_marker: str = "style"
    number_words: tuple[tuple[str, str], ...] = (("a", "one"),)

    @classmethod
    def from_mapping(cls, data: Mapping) -> "CfTemplateSet":
        """Build from the JSON shape: an object for ``number_words``,
        strings elsewhere; a key left out keeps its default."""
        data = dict(data)
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise TemplateError(f"unknown CF template key {unknown[0]!r}")
        kwargs = {}
        for key, value in data.items():
            if key == "number_words":
                if not isinstance(value, dict):
                    raise TemplateError(f"CF template {key!r} must be an object")
                value = tuple(sorted(value.items()))
                strings = [x for pair in value for x in pair]
            else:
                strings = [value]
            if not all(isinstance(x, str) for x in strings):
                raise TemplateError(f"CF template {key!r} must hold strings")
            kwargs[key] = value
        return cls(**kwargs)

    @classmethod
    @lru_cache(maxsize=1)
    def default(cls) -> "CfTemplateSet":
        """The shipped CF templates, read on first use."""
        return read_json(packaged("cf_templates.json"), cls.from_mapping)

    def render_number(self, value: str) -> str:
        for word, rendered in self.number_words:
            if value.lower() == word:
                return rendered
        return value


def _label(node: Node) -> str:
    if isinstance(node, Token):
        raise UncoveredConstruct("bare token under an intent (tree not decoupled?)")
    return node.label.lower()


def _value_text(node: Node) -> str:
    if isinstance(node, Token) or not all(
        isinstance(c, Token) for c in node.children
    ):
        raise UncoveredConstruct(getattr(node, "label", "<token>"))
    if not node.children:
        raise UncoveredConstruct(node.label)
    return " ".join(node.children)


def to_canonical_form(tree: ParseTree, templates: CfTemplateSet | None = None) -> str:
    """Render a decoupled parenthesis-dialect tree as canonical-form text.

    Slot mentions appear in exactly the sibling order of the tree.
    """
    t = templates or CfTemplateSet.default()
    root = tree.root
    if isinstance(root, Token) or _label(root) != "order":
        raise UncoveredConstruct(getattr(root, "label", "<token>"))
    suborders = []
    for child in root.children:
        lab = _label(child)
        if lab == "pizzaorder":
            suborders.append(_render_pizza(child, t))
        elif lab == "drinkorder":
            suborders.append(_render_drink(child, t))
        else:
            raise UncoveredConstruct(child.label)
    if not suborders:
        raise UncoveredConstruct(root.label)
    return t.order_prefix + " " + f" {t.order_joiner} ".join(suborders)


def _render_pizza(node: Node, t: CfTemplateSet) -> str:
    children = list(node.children)
    if not children or _label(children[0]) != "number":
        raise UncoveredConstruct(node.label)
    parts = [t.render_number(_value_text(children[0]))]
    i = 1
    if i < len(children) and _label(children[i]) == "size":
        parts.append(_value_text(children[i]))
        i += 1
    if i < len(children) and _label(children[i]) == "style":
        parts.append(_value_text(children[i]))
        i += 1
    items = []
    for child in children[i:]:
        lab = _label(child)
        if lab == "topping":
            items.append(_value_text(child))
        elif lab == "complex_topping":
            items.append(_render_complex(child, t))
        elif lab == "not":
            items.append(_render_not(child, t))
        else:
            raise UncoveredConstruct(child.label)
    parts.append(t.pizza_word)
    if items:
        parts.append(t.with_word)
        parts.append(_join_list(items, t))
    return " ".join(parts)


def _render_complex(node: Node, t: CfTemplateSet) -> str:
    kids = list(node.children)
    if (
        len(kids) != 2
        or _label(kids[0]) != "quantity"
        or _label(kids[1]) != "topping"
    ):
        raise UncoveredConstruct(node.label)
    return f"{_value_text(kids[0])} {_value_text(kids[1])}"


def _render_not(node: Node, t: CfTemplateSet) -> str:
    kids = list(node.children)
    if len(kids) != 1:
        raise UncoveredConstruct(node.label)
    lab = _label(kids[0])
    if lab == "topping":
        return f"{t.negation_word} {_value_text(kids[0])}"
    if lab == "style":
        return f"{t.negation_word} {_value_text(kids[0])} {t.negated_style_marker}"
    if lab == "complex_topping":
        return f"{t.negation_word} {_render_complex(kids[0], t)}"
    raise UncoveredConstruct(kids[0].label)


def _render_drink(node: Node, t: CfTemplateSet) -> str:
    children = list(node.children)
    if not children or _label(children[0]) != "number":
        raise UncoveredConstruct(node.label)
    parts = [t.render_number(_value_text(children[0]))]
    i = 1
    if i < len(children) and _label(children[i]) == "size":
        parts.append(_value_text(children[i]))
        i += 1
    if i < len(children) and _label(children[i]) == "containertype":
        parts.append(_value_text(children[i]))
        parts.append(t.container_word)
        i += 1
    if len(children) - i != 1 or _label(children[i]) != "drinktype":
        raise UncoveredConstruct(node.label)
    parts.append(_value_text(children[i]))
    return " ".join(parts)


def _join_list(items: Sequence[str], t: CfTemplateSet) -> str:
    if len(items) == 1:
        return items[0]
    head = f" {t.list_separator} ".join(items[:-1])
    return f"{head} {t.list_separator} {t.list_final_joiner} {items[-1]}"
