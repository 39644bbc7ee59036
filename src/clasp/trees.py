"""TOP-style semantic parse trees: parse, serialize, traverse, edit.

Two surface dialects are supported: parenthesized trees with bare labels,
e.g. ``(Order (Pizzaorder (Number a ) (Topping mushroom ) ) )``, and
bracketed trees whose labels carry ``IN:``/``SL:`` prefixes, e.g.
``[IN:GET_WEATHER [SL:DATE_TIME this weekend ] ]``.

Tokens are whitespace-delimited and never split further; serialization
joins all atoms with single spaces, so ``serialize(parse(s)) ==
" ".join(s.split())`` for every well-formed input. A token leaf is the
word itself, a plain ``str`` (``Token`` is an alias), so a leaf slot's
children are its value.

Trees are immutable and shared. ``parse`` answers from a memo of the 64
most recent inputs, because a pipeline stage parses the same string many
times within one task: building the prompt, in the mock backend, at the
gate and for the fallback. The bound stays small since a task's repeats
are close together, and a memo of 1024 trees raised the peak RSS of a
2k-row rs run against an HTTP backend from 24.8 to 28.8 MB. Each tree
also computes its leaf slots once; ``leaf_slots`` returns a fresh list.

Which tokens realize a slot is decided in one place, ``bind_slot_spans``:
leaf slots, depth-first, each take the leftmost free contiguous run of
their value, so no two slots share a token and two slots with the value
"a" need two "a"s. The rule is greedy, with no search over assignments:
slots ``b`` then ``a b`` over "a b b" leave ``a b`` unbound, although ``b``
could take the last token. A search grows factorially with repeated
values; a greedy miss only rejects a text, it never accepts one that no
assignment fits. Exact case is VP2 (``gate.check_vp2``); the untagged-slot
check binds case-folded, and casing repair binds only the slots that VP2
leaves unbound, case-folded, over the tokens the bound ones leave free.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union


class Dialect(str, Enum):
    PIZZA_PAREN = "pizza"
    MTOP_BRACKET = "mtop"


class TreeError(ValueError):
    """Base class for parse-tree errors."""


class UnbalancedDelimiters(TreeError):
    pass


class EmptyLabel(TreeError):
    pass


class BadDialectMarker(TreeError):
    pass


class PathInvalid(TreeError):
    pass


class UnmatchableSlot(TreeError):
    """A leaf slot that ``bind_slot_spans`` cannot bind to its own span."""


# A leaf is the word itself: a wrapper object per word would cost about
# 40% of a parse.
Token = str


@dataclass(frozen=True)
class Intent:
    label: str
    children: tuple["Node", ...] = ()


@dataclass(frozen=True)
class Slot:
    label: str
    children: tuple["Node", ...] = ()


# A node is an intent, a slot or a word.
Node = Union[Intent, Slot, Token]


@dataclass(frozen=True)
class ParseTree:
    root: Node
    dialect: Dialect

    @functools.cached_property
    def _leaf_slots(self) -> tuple["SlotRef", ...]:
        out: list[SlotRef] = []
        _collect_leaf_slots(self.root, (), out)
        return tuple(out)


@dataclass(frozen=True)
class SlotRef:
    """Reference to a leaf slot: a Slot node whose children are all Tokens."""

    path: tuple[int, ...]
    slot_label: str
    value: tuple[str, ...]

    @property
    def value_text(self) -> str:
        return " ".join(self.value)


_OPENERS = ("[IN:", "[SL:")


def parse(s: str, dialect: Dialect) -> ParseTree:
    """Parse a whitespace-tokenized tree string.

    In the parenthesis dialect, groups with only Token children become
    Slots and everything else becomes an Intent; in the bracket dialect
    the label prefix decides the node kind.

    The tree comes from a small memo of recent parses, so equal inputs
    may return the same (immutable) object. Malformed input raises on
    every call.
    """
    return _parse_memo(s, dialect)


# The module docstring says why the bound is small. ``typed`` keeps a
# plain-string dialect apart from the enum member.
@functools.lru_cache(maxsize=64, typed=True)
def _parse_memo(s: str, dialect: Dialect) -> ParseTree:
    return _parse_text(s, dialect)


def _parse_text(s: str, dialect: Dialect) -> ParseTree:
    pieces = s.split()
    if not pieces:
        raise UnbalancedDelimiters("cannot parse empty input")
    # Both loops return a root or raise: the first piece opens a group or
    # raises, and the stack empties only when a group closes.
    if dialect is Dialect.PIZZA_PAREN:
        root = _parse_paren(s, pieces)
    else:
        root = _parse_bracket(s, pieces)
    return ParseTree(root, dialect)


def _parse_paren(s: str, pieces: list[str]) -> Node:
    # Frames are [label, children, only tokens so far]: the node class is
    # decided when the group closes.
    stack: list[list] = []
    root: Node | None = None
    for piece in pieces:
        if piece == ")":
            if not stack:
                raise UnbalancedDelimiters(f"unmatched ')' in {s!r}")
            label, children, tokens_only = stack.pop()
            if children and tokens_only:
                node: Node = Slot(label, tuple(children))
            else:
                node = Intent(label, tuple(children))
            if stack:
                frame = stack[-1]
                frame[1].append(node)
                frame[2] = False
            elif root is None:
                root = node
            else:
                raise UnbalancedDelimiters(f"multiple top-level groups in {s!r}")
        elif piece[0] == "(":
            label = piece[1:]
            if not label:
                raise EmptyLabel(f"missing label after '(' in {s!r}")
            stack.append([label, [], True])
        elif piece[:4] in _OPENERS:
            raise BadDialectMarker(
                f"bracketed label {piece!r} in parenthesis-dialect input"
            )
        elif stack:
            stack[-1][1].append(piece)
        else:
            raise UnbalancedDelimiters(f"token {piece!r} outside any group in {s!r}")
    if stack:
        raise UnbalancedDelimiters(f"unclosed group in {s!r}")
    return root


def _parse_bracket(s: str, pieces: list[str]) -> Node:
    # Frames are [node class, label, children].
    stack: list[list] = []
    root: Node | None = None
    for piece in pieces:
        if piece == "]":
            if not stack:
                raise UnbalancedDelimiters(f"unmatched ']' in {s!r}")
            cls, label, children = stack.pop()
            node = cls(label, tuple(children))
            if stack:
                stack[-1][2].append(node)
            elif root is None:
                root = node
            else:
                raise UnbalancedDelimiters(f"multiple top-level groups in {s!r}")
        elif piece[:4] in _OPENERS:
            if len(piece) <= 4:
                raise EmptyLabel(f"missing name after {piece!r}")
            cls = Intent if piece[1] == "I" else Slot
            stack.append([cls, piece[1:], []])
        elif stack:
            stack[-1][2].append(piece)
        else:
            raise UnbalancedDelimiters(f"token {piece!r} outside any group in {s!r}")
    if stack:
        raise UnbalancedDelimiters(f"unclosed group in {s!r}")
    return root


def serialize(tree: ParseTree) -> str:
    """Render a tree as a single-space-joined string; inverse of parse."""
    return serialize_node(tree.root, tree.dialect)


def serialize_node(node: Node, dialect: Dialect) -> str:
    if isinstance(node, Token):
        return node
    atoms: list[str] = []
    if dialect is Dialect.PIZZA_PAREN:
        _append_atoms(node, "(", ")", atoms)
    else:
        _append_atoms(node, "[", "]", atoms)
    return " ".join(atoms)


def _append_atoms(
    node: Intent | Slot, opener: str, close: str, atoms: list[str]
) -> None:
    atoms.append(opener + node.label)
    for child in node.children:
        if isinstance(child, Token):
            atoms.append(child)
        else:
            _append_atoms(child, opener, close, atoms)
    atoms.append(close)


def decouple(tree: ParseTree) -> ParseTree:
    """Drop unlabeled carrier tokens that sit directly under Intent nodes.

    Slot subtrees keep their original sibling order and token children.
    Only the intents that lose a token, and their ancestors, are rebuilt;
    every other subtree, and a tree with nothing to drop, is returned as
    it is. Idempotent.
    """
    root = _decouple(tree.root)
    return tree if root is tree.root else ParseTree(root, tree.dialect)


def _decouple(node: Intent | Slot) -> Intent | Slot:
    is_intent = isinstance(node, Intent)
    kids: list[Node] = []
    changed = False
    for child in node.children:
        if isinstance(child, Token):
            if is_intent:
                changed = True
            else:
                kids.append(child)
        else:
            new = _decouple(child)
            changed = changed or new is not child
            kids.append(new)
    return type(node)(node.label, tuple(kids)) if changed else node


def leaf_slots(tree: ParseTree) -> list[SlotRef]:
    """Depth-first, left-to-right list of all leaf slots.

    Each tree walks itself once; every call returns a fresh list.
    """
    return list(tree._leaf_slots)


def _collect_leaf_slots(
    node: Node, path: tuple[int, ...], out: list[SlotRef]
) -> None:
    if isinstance(node, Token):
        return
    if isinstance(node, Slot) and all(isinstance(c, Token) for c in node.children):
        out.append(SlotRef(path, node.label, node.children))
        return
    for i, child in enumerate(node.children):
        _collect_leaf_slots(child, path + (i,), out)


def replace_slot(
    tree: ParseTree, ref: SlotRef, new_value: Sequence[str]
) -> ParseTree:
    """Return a new tree with the referenced leaf slot's value replaced."""
    value = tuple(new_value)

    def rebuild(node: Node, depth: int) -> Node:
        if depth == len(ref.path):
            if not (
                isinstance(node, Slot)
                and node.label == ref.slot_label
                and all(isinstance(c, Token) for c in node.children)
            ):
                raise PathInvalid(
                    f"path {ref.path} does not resolve to leaf slot {ref.slot_label!r}"
                )
            return Slot(node.label, value)
        if isinstance(node, Token):
            raise PathInvalid(f"path {ref.path} descends through a token")
        idx = ref.path[depth]
        if idx >= len(node.children):
            raise PathInvalid(f"index {idx} out of range at depth {depth}")
        kids = list(node.children)
        kids[idx] = rebuild(kids[idx], depth + 1)
        return type(node)(node.label, tuple(kids))

    return ParseTree(rebuild(tree.root, 0), tree.dialect)


def structure_signature(tree: ParseTree) -> str:
    """Serialization with every leaf-slot value masked by ``_``.

    Two trees have equal signatures exactly when their intent/slot
    skeletons are identical.
    """

    def mask(node: Node) -> Node:
        if isinstance(node, Token):
            return node
        if (
            isinstance(node, Slot)
            and node.children
            and all(isinstance(c, Token) for c in node.children)
        ):
            return Slot(node.label, ("_",))
        return type(node)(node.label, tuple(mask(c) for c in node.children))

    return serialize(ParseTree(mask(tree.root), tree.dialect))


def unordered_normalize(tree: ParseTree) -> ParseTree:
    """Canonical form under arbitrary sibling reordering.

    Children of every node are sorted by (node kind, label, normalized
    serialization), so two trees normalize identically exactly when one
    can be turned into the other by permuting child lists.
    """

    def norm(node: Node) -> Node:
        if isinstance(node, Token):
            return node
        kids = sorted(
            (norm(c) for c in node.children),
            key=lambda c: _sort_key(c, tree.dialect),
        )
        return type(node)(node.label, tuple(kids))

    return ParseTree(norm(tree.root), tree.dialect)


def _sort_key(node: Node, dialect: Dialect) -> tuple[int, str, str]:
    if isinstance(node, Token):
        return (2, node, node)
    rank = 0 if isinstance(node, Intent) else 1
    return (rank, node.label, serialize_node(node, dialect))


def bind_slot_spans(
    tree: ParseTree,
    tokens: Sequence[str],
    *,
    fold: bool = False,
    bound: Sequence[tuple[SlotRef, tuple[int, int] | None]] | None = None,
) -> list[tuple[SlotRef, tuple[int, int] | None]]:
    """Bind each leaf slot to its own contiguous span of ``tokens``.

    The only rule for which tokens realize a slot (see the module
    docstring). A slot whose value is empty or has no free occurrence gets
    ``None`` and claims no tokens. ``fold`` compares after ``str.casefold``.
    ``bound``, an earlier binding of the same tree over the same tokens,
    keeps its spans: only its unbound slots are bound, over the tokens
    that its spans leave free.
    """
    hay = tuple([t.casefold() for t in tokens] if fold else tokens)
    free = [True] * len(hay)
    if bound is not None:
        for _, span in bound:
            if span is not None:
                free[span[0] : span[1]] = [False] * (span[1] - span[0])
    out: list[tuple[SlotRef, tuple[int, int] | None]] = []
    for n, ref in enumerate(tree._leaf_slots):
        if bound is not None and bound[n][1] is not None:
            out.append(bound[n])
            continue
        value = tuple([t.casefold() for t in ref.value]) if fold else ref.value
        k = len(value)
        span: tuple[int, int] | None = None
        for i in range(len(hay) - k + 1 if k else 0):
            # The first-token test spares a slice at most positions.
            if hay[i] == value[0] and hay[i : i + k] == value and all(free[i : i + k]):
                span = (i, i + k)
                free[i : i + k] = [False] * k
                break
        out.append((ref, span))
    return out
