"""Nested value representation and multiset equality.

The paper's denotational semantics (§2.1, Fig. 2) interprets object-level
*bags* as meta-level *lists*: two values are "equivalent as multisets" when
they are equal up to permutation of list elements, recursively.

We mirror this: a nested value is built from

* Python ``int`` / ``bool`` / ``str`` at base type,
* ``dict`` (label → value) at record type,
* ``list`` at bag type.

This module provides canonicalisation (a deterministic total order on nested
values), multiset equality, and rendering helpers used throughout tests,
examples and the stitching code.
"""

from __future__ import annotations

from typing import Any

NestedValue = Any
"""Alias used in signatures: int | bool | str | dict[str, NestedValue] | list."""

#: Discriminator ranks so heterogeneous canonical forms still sort
#: deterministically (bool before int matters: bool is a subclass of int).
_RANK_BOOL = 0
_RANK_INT = 1
_RANK_STR = 2
_RANK_RECORD = 3
_RANK_BAG = 4
_RANK_OTHER = 5


def canonical(value: NestedValue) -> tuple:
    """Return a hashable, totally ordered canonical form of ``value``.

    Bags are sorted recursively, so two values that are equal as multisets
    have identical canonical forms.  Records are sorted by label.  The result
    is a nested tuple and can be used as a dict key or for sorting.
    """
    if isinstance(value, bool):
        return (_RANK_BOOL, value)
    if isinstance(value, int):
        return (_RANK_INT, value)
    if isinstance(value, str):
        return (_RANK_STR, value)
    if isinstance(value, dict):
        fields = tuple(
            (label, canonical(value[label])) for label in sorted(value)
        )
        return (_RANK_RECORD, fields)
    if isinstance(value, (list, tuple)):
        elements = sorted(canonical(element) for element in value)
        return (_RANK_BAG, tuple(elements))
    # Fall back for exotic leaves (e.g. index objects in intermediate stages);
    # they must at least be comparable among themselves via repr.
    return (_RANK_OTHER, repr(value))


def bag_equal(left: NestedValue, right: NestedValue) -> bool:
    """Multiset equality: equal up to permutation of bag elements, recursively."""
    return canonical(left) == canonical(right)


def assert_bag_equal(
    actual: NestedValue, expected: NestedValue, context: str = ""
) -> None:
    """Assert multiset equality with a readable element-level diff.

    The canonical replacement for the ``sorted(...) == sorted(...)`` /
    ``sorted(map(repr, ...))`` comparisons tests used to hand-roll: bags
    compare order-insensitively *at every nesting level*, and on mismatch
    the error lists which elements are missing and which are unexpected
    (with multiplicities), rather than two unreadable sorted dumps.
    """
    if canonical(actual) == canonical(expected):
        return
    prefix = f"{context}: " if context else ""
    if not isinstance(actual, (list, tuple)) or not isinstance(
        expected, (list, tuple)
    ):
        raise AssertionError(
            f"{prefix}values differ as multisets:\n"
            f"  actual  : {render(actual)}\n"
            f"  expected: {render(expected)}"
        )
    counts: dict[tuple, list] = {}
    for element in expected:
        counts.setdefault(canonical(element), [0, element])[0] += 1
    extra: list = []
    for element in actual:
        entry = counts.get(canonical(element))
        if entry is None or entry[0] == 0:
            extra.append(element)
        else:
            entry[0] -= 1
    missing = [element for count, element in counts.values() for _ in range(count)]
    lines = [
        f"{prefix}bags differ as multisets "
        f"({len(actual)} actual vs {len(expected)} expected elements):"
    ]
    for title, elements in (("missing", missing), ("unexpected", extra)):
        for element in elements[:5]:
            lines.append(f"  {title}: {render(element)}")
        if len(elements) > 5:
            lines.append(f"  ... and {len(elements) - 5} more {title}")
    raise AssertionError("\n".join(lines))


def sort_bag(bag: list) -> list:
    """Return ``bag`` sorted by canonical form (a deterministic order)."""
    return sorted(bag, key=canonical)


def render(value: NestedValue, indent: int = 0) -> str:
    """Pretty-print a nested value in the paper's notation.

    Bags render as ``[...]``, records as ``⟨label = value, ...⟩``.  Nested
    bags are placed on their own lines for readability.
    """
    pad = "  " * indent
    if isinstance(value, dict):
        parts = [f"{label} = {render(value[label], indent)}" for label in value]
        return "⟨" + ", ".join(parts) + "⟩"
    if isinstance(value, list):
        if not value:
            return "∅"
        rendered = [render(element, indent + 1) for element in value]
        if sum(len(piece) for piece in rendered) <= 60:
            return "[" + ", ".join(rendered) + "]"
        inner_pad = "  " * (indent + 1)
        body = (",\n" + inner_pad).join(rendered)
        return "[\n" + inner_pad + body + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f"“{value}”"
    return str(value)


def dedup_nested(value: NestedValue) -> NestedValue:
    """Collapse a nested *bag* value to its *set*-semantics reading (§9):
    duplicates are eliminated hereditarily (inner bags first, so two
    elements whose inner sets coincide count as duplicates)."""
    if isinstance(value, dict):
        return {label: dedup_nested(field) for label, field in value.items()}
    if isinstance(value, list):
        deduped = []
        seen = set()
        for element in value:
            collapsed = dedup_nested(element)
            key = canonical(collapsed)
            if key not in seen:
                seen.add(key)
                deduped.append(collapsed)
        return deduped
    return value


def copy_tree(value: NestedValue) -> NestedValue:
    """A copy of ``value`` sharing no list or record with it (base values
    are immutable and shared)."""
    if isinstance(value, list):
        return [copy_tree(element) for element in value]
    if isinstance(value, dict):
        return {label: copy_tree(field) for label, field in value.items()}
    return value


def bag_size(value: NestedValue) -> int:
    """Total number of bag elements in ``value``, at every nesting level."""
    if isinstance(value, dict):
        return sum(bag_size(field) for field in value.values())
    if isinstance(value, list):
        return len(value) + sum(bag_size(element) for element in value)
    return 0
