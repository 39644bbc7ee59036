from __future__ import annotations

import random

import pytest
from hypothesis import example, given, strategies as st

from clasp import trees
from clasp.trees import (
    BadDialectMarker,
    Dialect,
    EmptyLabel,
    Intent,
    ParseTree,
    PathInvalid,
    Slot,
    Token,
    UnbalancedDelimiters,
    bind_slot_spans,
    decouple,
    leaf_slots,
    parse,
    replace_slot,
    serialize,
    structure_signature,
    unordered_normalize,
)

from conftest import random_tree, random_value, shuffle_siblings

PIZZA = Dialect.PIZZA_PAREN
MTOP = Dialect.MTOP_BRACKET

RS_PARSE = "(Order (Pizzaorder (Number a ) (Topping mushroom ) ) )"


class TestParse:
    def test_empty_mtop_intent(self):
        tree = parse("[IN:SET_RSVP_NO ]", MTOP)
        assert tree.root == Intent("IN:SET_RSVP_NO", ())

    def test_nested_pizza_groups(self):
        tree = parse(RS_PARSE, PIZZA)
        order = tree.root
        assert isinstance(order, Intent) and order.label == "Order"
        (pizzaorder,) = order.children
        assert isinstance(pizzaorder, Intent) and pizzaorder.label == "Pizzaorder"
        number, topping = pizzaorder.children
        assert number == Slot("Number", (Token("a"),))
        assert topping == Slot("Topping", (Token("mushroom"),))

    def test_unclosed_bracket(self):
        with pytest.raises(UnbalancedDelimiters):
            parse("[IN:A [SL:B", MTOP)

    def test_extra_close(self):
        with pytest.raises(UnbalancedDelimiters):
            parse("(Order ) )", PIZZA)

    def test_multiple_roots(self):
        with pytest.raises(UnbalancedDelimiters):
            parse("(A ) (B )", PIZZA)

    def test_token_outside_group(self):
        with pytest.raises(UnbalancedDelimiters):
            parse("hello (A )", PIZZA)

    def test_empty_label(self):
        with pytest.raises(EmptyLabel):
            parse("( foo )", PIZZA)
        with pytest.raises(EmptyLabel):
            parse("[IN: foo ]", MTOP)

    def test_bracket_marker_in_pizza_input(self):
        with pytest.raises(BadDialectMarker):
            parse("(Order [SL:X a ] )", PIZZA)

    def test_mixed_children_classify_as_intent(self):
        tree = parse("(ORDER can you (TOPPING ham ) please )", PIZZA)
        assert isinstance(tree.root, Intent)
        assert isinstance(tree.root.children[2], Slot)


class TestSerialize:
    def test_rsvp_round_trip(self):
        s = "[IN:SET_RSVP_NO ]"
        assert serialize(parse(s, MTOP)) == s

    def test_constructed_intent(self):
        tree = ParseTree(Intent("IN:X", (Token("a"), Token("b"))), MTOP)
        assert serialize(tree) == "[IN:X a b ]"

    def test_whitespace_normalization(self):
        messy = "(Order   (Topping  mushroom )  )"
        assert serialize(parse(messy, PIZZA)) == " ".join(messy.split())

    @pytest.mark.parametrize("dialect", [PIZZA, MTOP])
    def test_randomized_round_trips(self, dialect):
        rng = random.Random(101)
        for _ in range(50):
            tree = random_tree(rng, dialect)
            text = serialize(tree)
            assert parse(text, dialect) == tree
            assert serialize(parse(text, dialect)) == text


DECOUPLE_IN = (
    "(ORDER can you get me (PIZZAORDER (NUMBER a ) (SIZE small ) pizza with "
    "(TOPPING peppers ) and (TOPPING sausage ) and (TOPPING pineapple ) ) please )"
)
DECOUPLE_OUT = (
    "(ORDER (PIZZAORDER (NUMBER a ) (SIZE small ) (TOPPING peppers ) "
    "(TOPPING sausage ) (TOPPING pineapple ) ) )"
)


class TestDecouple:
    def test_carrier_tokens_removed(self):
        assert serialize(decouple(parse(DECOUPLE_IN, PIZZA))) == DECOUPLE_OUT

    def test_fixed_point_without_carriers(self):
        tree = parse(DECOUPLE_OUT, PIZZA)
        assert decouple(tree) == tree

    def test_idempotent_on_random_trees(self):
        rng = random.Random(7)
        for _ in range(50):
            tree = _with_carriers(random_tree(rng, PIZZA), rng)
            once = decouple(tree)
            assert decouple(once) == once

    def test_unchanged_subtrees_are_shared(self):
        tree = parse(DECOUPLE_OUT, PIZZA)
        assert decouple(tree) is tree
        carried = parse("(ORDER (PIZZAORDER (NUMBER a ) ) please (DRINKORDER "
                        "(NUMBER a ) of (DRINKTYPE coke ) ) )", PIZZA)
        pizza, drink = carried.root.children[0], carried.root.children[2]
        out = decouple(carried)
        assert out.root.children[0] is pizza
        assert out.root.children[1] is not drink
        assert out.root.children[1].children[1] is drink.children[2]


def _with_carriers(tree: ParseTree, rng: random.Random) -> ParseTree:
    def inject(node):
        if isinstance(node, Token) or isinstance(node, Slot):
            return node
        kids = [inject(c) for c in node.children]
        if kids:
            for pos in sorted(
                rng.sample(range(len(kids) + 1), k=rng.randint(0, 2)), reverse=True
            ):
                kids.insert(pos, Token(rng.choice(("um", "please", "ok"))))
        return Intent(node.label, tuple(kids))

    return ParseTree(inject(tree.root), tree.dialect)


class TestLeafSlots:
    def test_pizza_example_contains_topping(self):
        refs = leaf_slots(parse(RS_PARSE, PIZZA))
        assert ("Topping", ("mushroom",)) in [
            (r.slot_label, r.value) for r in refs
        ]

    def test_intent_only_tree(self):
        assert leaf_slots(parse("[IN:SET_RSVP_NO ]", MTOP)) == []

    def test_nested_slots_are_not_leaves(self):
        tree = parse(
            "[IN:A [SL:TODO [IN:B [SL:X y ] ] ] [SL:Z w ] ]", MTOP
        )
        refs = leaf_slots(tree)
        assert [r.slot_label for r in refs] == ["SL:X", "SL:Z"]

    def test_count_matches_leaf_groups(self):
        rng = random.Random(31)
        for _ in range(50):
            tree = random_tree(rng, MTOP)
            text = serialize(tree)
            # Independent count: slot-opens directly followed by a token run
            # then a close. Count groups with no nested open before close.
            count = 0
            pieces = text.split()
            for i, piece in enumerate(pieces):
                if piece.startswith("[SL:"):
                    depth_ok = True
                    j = i + 1
                    saw_token = False
                    while j < len(pieces) and not pieces[j] == "]":
                        if pieces[j].startswith("["):
                            depth_ok = False
                            break
                        saw_token = True
                        j += 1
                    if depth_ok:
                        count += 1
            assert count == len(leaf_slots(tree))


class TestReplaceSlot:
    def test_mushroom_to_spinach(self):
        tree = parse(RS_PARSE, PIZZA)
        ref = leaf_slots(tree)[1]
        assert ref.slot_label == "Topping"
        edited = replace_slot(tree, ref, ("spinach",))
        assert "(Topping spinach )" in serialize(edited)
        assert "(Topping mushroom )" not in serialize(edited)

    def test_identity_replacement(self):
        tree = parse(RS_PARSE, PIZZA)
        ref = leaf_slots(tree)[0]
        assert replace_slot(tree, ref, ref.value) == tree

    def test_bad_path(self):
        tree = parse(RS_PARSE, PIZZA)
        ref = leaf_slots(tree)[0]
        bad = type(ref)((0, 9), ref.slot_label, ref.value)
        with pytest.raises(PathInvalid):
            replace_slot(tree, bad, ("x",))

    def test_exactly_one_leaf_differs(self):
        rng = random.Random(55)
        edits = 0
        while edits < 100:
            tree = random_tree(rng, MTOP)
            refs = leaf_slots(tree)
            if not refs:
                continue
            ref = rng.choice(refs)
            new_value = random_value(rng)
            if new_value == ref.value:
                continue
            edited = replace_slot(tree, ref, new_value)
            diffs = [
                (a, b)
                for a, b in zip(leaf_slots(tree), leaf_slots(edited))
                if a.value != b.value
            ]
            assert len(diffs) == 1
            assert diffs[0][0].path == ref.path
            assert structure_signature(edited) == structure_signature(tree)
            edits += 1


class TestStructureSignature:
    def test_rsvp_vs_copied_structure(self):
        plain = parse("[IN:SET_RSVP_NO ]", MTOP)
        copied = parse(
            "[IN:SET_RSVP_NO [SL:PERSON_REMINDED moi ] [SL:TODO [IN:GET_TODO "
            "[SL:DATE_TIME de 10 h ] [SL:TODO rendez - vous chez le médecin ] ] ] ]",
            MTOP,
        )
        assert structure_signature(plain) != structure_signature(copied)

    def test_self_equality(self):
        tree = parse(RS_PARSE, PIZZA)
        assert structure_signature(tree) == structure_signature(tree)

    def test_values_masked(self):
        a = parse("(Order (Pizzaorder (Topping ham ) ) )", PIZZA)
        b = parse("(Order (Pizzaorder (Topping green pepper ) ) )", PIZZA)
        assert structure_signature(a) == structure_signature(b)


class TestUnorderedNormalize:
    def test_topping_order_invariance(self):
        a = parse(
            "(ORDER (PIZZAORDER (TOPPING PINEAPPLE ) (TOPPING SAUSAGE ) ) )", PIZZA
        )
        b = parse(
            "(ORDER (PIZZAORDER (TOPPING SAUSAGE ) (TOPPING PINEAPPLE ) ) )", PIZZA
        )
        assert unordered_normalize(a) == unordered_normalize(b)

    def test_single_child_unchanged(self):
        tree = parse("(Order (Pizzaorder (Number a ) ) )", PIZZA)
        assert unordered_normalize(tree) == tree

    def test_invariant_under_random_shuffles(self):
        rng = random.Random(13)
        for _ in range(20):
            tree = random_tree(rng, MTOP)
            normalized = unordered_normalize(tree)
            for _ in range(100):
                shuffled = shuffle_siblings(tree, rng)
                assert unordered_normalize(shuffled) == normalized

    def test_idempotent(self):
        rng = random.Random(17)
        for _ in range(50):
            tree = random_tree(rng, MTOP)
            once = unordered_normalize(tree)
            assert unordered_normalize(once) == once


class TestSpanHelpers:
    @staticmethod
    def spans(parse_text: str, text: str, **kw):
        tree = parse(parse_text, MTOP)
        return [span for _, span in bind_slot_spans(tree, text.split(), **kw)]

    def test_bind_folds_case(self):
        text = "a b c b c"
        assert self.spans("[IN:A [SL:X b c ] ]", text) == [(1, 3)]
        assert self.spans("[IN:A [SL:X c a ] ]", text) == [None]
        assert self.spans("[IN:A [SL:X B ] ]", text) == [None]
        assert self.spans("[IN:A [SL:X B ] ]", text, fold=True) == [(1, 2)]
        assert self.spans("[IN:A [SL:X b ] ]", "A B", fold=True) == [(1, 2)]

    def test_bind_prefers_leftmost_unused(self):
        tree = parse("[IN:A [SL:X b ] [SL:Y b ] ]", MTOP)
        spans = bind_slot_spans(tree, "b a b".split())
        assert [span for _, span in spans] == [(0, 1), (2, 3)]

    def test_bind_keeps_an_earlier_binding(self):
        tree = parse("[IN:A [SL:X foo ] [SL:Y Foo ] ]", MTOP)
        tokens = "FOO x foo".split()
        exact = bind_slot_spans(tree, tokens)
        assert [span for _, span in exact] == [(2, 3), None]
        folded = bind_slot_spans(tree, tokens, fold=True)
        assert [span for _, span in folded] == [(0, 1), (2, 3)]
        kept = bind_slot_spans(tree, tokens, fold=True, bound=exact)
        assert [span for _, span in kept] == [(2, 3), (0, 1)]

    def test_bind_unmatchable(self):
        # A value with no occurrence and an empty value both stay unbound.
        assert self.spans("[IN:A [SL:X zz ] [SL:Y ] ]", "a b") == [None, None]

    def test_slots_never_share_an_occurrence(self):
        tree = "[IN:A [SL:N a ] [SL:T ham ] [SL:N a ] [SL:D coke ] ]"
        assert self.spans(tree, "a ham pizza and coke") == [
            (0, 1), (1, 2), None, (4, 5)
        ]
        assert self.spans(tree, "a ham pizza and a coke") == [
            (0, 1), (1, 2), (4, 5), (5, 6)
        ]


# Reference parser: the parse loop as it was before the memo and the
# per-dialect loops, kept to pin every tree and every error message.


def _reference_parse(s: str, dialect: Dialect) -> ParseTree:
    pieces = s.split()
    if not pieces:
        raise UnbalancedDelimiters("cannot parse empty input")
    stack: list[list] = []
    root = None

    def attach(node) -> None:
        nonlocal root
        if stack:
            stack[-1][2].append(node)
        elif root is None:
            root = node
        else:
            raise UnbalancedDelimiters(f"multiple top-level groups in {s!r}")

    for piece in pieces:
        if dialect is Dialect.PIZZA_PAREN:
            if piece.startswith("[IN:") or piece.startswith("[SL:"):
                raise BadDialectMarker(
                    f"bracketed label {piece!r} in parenthesis-dialect input"
                )
            if piece.startswith("("):
                label = piece[1:]
                if not label:
                    raise EmptyLabel(f"missing label after '(' in {s!r}")
                stack.append([None, label, []])
                continue
            if piece == ")":
                if not stack:
                    raise UnbalancedDelimiters(f"unmatched ')' in {s!r}")
                _, label, children = stack.pop()
                kids = tuple(children)
                if kids and all(isinstance(c, Token) for c in kids):
                    attach(Slot(label, kids))
                else:
                    attach(Intent(label, kids))
                continue
        else:
            if piece.startswith("[IN:") or piece.startswith("[SL:"):
                cls = Intent if piece.startswith("[IN:") else Slot
                label = piece[1:]
                if len(label) <= 3:
                    raise EmptyLabel(f"missing name after {piece!r}")
                stack.append([cls, label, []])
                continue
            if piece == "]":
                if not stack:
                    raise UnbalancedDelimiters(f"unmatched ']' in {s!r}")
                cls, label, children = stack.pop()
                attach(cls(label, tuple(children)))
                continue
        if not stack:
            raise UnbalancedDelimiters(f"token {piece!r} outside any group in {s!r}")
        stack[-1][2].append(Token(piece))

    if stack:
        raise UnbalancedDelimiters(f"unclosed group in {s!r}")
    if root is None:
        raise UnbalancedDelimiters(f"no tree in {s!r}")
    return ParseTree(root, dialect)


def _outcome(fn, s: str, dialect: Dialect):
    try:
        return fn(s, dialect)
    except Exception as exc:  # compared by class and message
        return (type(exc), str(exc))


# Pieces of either dialect, both delimiters alone, empty labels, and
# tokens that only look like delimiters.
_PIECES = st.sampled_from((
    "a", "ham", "(X", "(Topping", ")", "[IN:X", "[SL:Y", "]", "[", "(",
    "[IN:", "[SL:", "[IN", "x)", "]]",
))
_WHITESPACE = st.sampled_from((" ", "  ", "\t", "\n"))


@st.composite
def _piece_strings(draw) -> str:
    pieces = draw(st.lists(_PIECES, max_size=14))
    gaps = draw(st.lists(_WHITESPACE, min_size=len(pieces) + 1,
                         max_size=len(pieces) + 1))
    return gaps[0] + "".join(p + g for p, g in zip(pieces, gaps[1:]))


# Tokens each dialect reads as plain words.
_WORDS = {
    PIZZA: ("a", "ham", "[", "]", "[IN", "x)", "o'clock"),
    MTOP: ("a", "ham", "(", ")", "(X", "[", "[IN", "x)"),
}
_GROUP_OPENS = {
    PIZZA: ("(Order", "(Topping", "(NUMBER"),
    MTOP: ("[IN:GET_X", "[SL:DATE_TIME", "[IN:A"),
}


@st.composite
def _well_formed(draw, dialect: Dialect) -> str:
    """A one-group tree string with arbitrary whitespace between pieces."""
    close = ")" if dialect is PIZZA else "]"
    opens = st.sampled_from(_GROUP_OPENS[dialect])
    words = st.sampled_from(_WORDS[dialect])

    def group(depth: int) -> list[str]:
        pieces = [draw(opens)]
        for kind in draw(st.lists(st.integers(0, 2), max_size=4)):
            pieces += group(depth - 1) if kind == 0 and depth else [draw(words)]
        return [*pieces, close]

    pieces = group(3)
    gaps = draw(st.lists(_WHITESPACE, min_size=len(pieces) + 1,
                         max_size=len(pieces) + 1))
    return gaps[0] + "".join(p + g for p, g in zip(pieces, gaps[1:]))


class TestParseProperties:
    @pytest.mark.parametrize("dialect", [PIZZA, MTOP])
    @given(data=st.data())
    def test_serialize_inverts_parse(self, dialect, data):
        s = data.draw(_well_formed(dialect))
        assert serialize(parse(s, dialect)) == " ".join(s.split())

    @pytest.mark.parametrize("dialect", [PIZZA, MTOP])
    @given(s=st.one_of(_piece_strings(), _well_formed(PIZZA), _well_formed(MTOP)))
    @example(s="")
    @example(s="(A ) (B )")
    @example(s="[IN:A ] [IN:B ]")
    @example(s="(Order [SL:X a ] )")
    @example(s="[IN: foo ]")
    @example(s="(ORDER can you (TOPPING ham ) please )")
    def test_parse_equals_the_reference(self, dialect, s):
        assert _outcome(parse, s, dialect) == _outcome(_reference_parse, s, dialect)


class TestParseMemo:
    def test_equal_inputs_give_equal_trees(self):
        assert parse(RS_PARSE, PIZZA) == parse(RS_PARSE, PIZZA)
        assert parse(RS_PARSE, PIZZA) == _reference_parse(RS_PARSE, PIZZA)

    def test_editing_a_leaf_slots_list_leaves_the_tree_alone(self):
        refs = leaf_slots(parse(RS_PARSE, PIZZA))
        expected = list(refs)
        refs.reverse()
        refs.clear()
        assert leaf_slots(parse(RS_PARSE, PIZZA)) == expected
        assert [r.value_text for r in expected] == ["a", "mushroom"]

    def test_malformed_input_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(UnbalancedDelimiters, match="unclosed group"):
                parse("(Order (Topping ham )", PIZZA)

    def test_dialect_is_part_of_the_key(self):
        s = "[IN:A [SL:B x ] ]"
        assert parse(s, MTOP).dialect is MTOP
        with pytest.raises(BadDialectMarker):
            parse(s, PIZZA)
        assert parse(s, MTOP).root == Intent("IN:A", (Slot("SL:B", (Token("x"),)),))

    def test_memo_is_bounded(self):
        for i in range(200):
            parse(f"(Order (Number n{i} ) )", PIZZA)
        info = trees._parse_memo.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 64
