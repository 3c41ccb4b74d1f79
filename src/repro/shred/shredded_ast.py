"""Shredded terms (§4).

    Query terms     L, M ::= ⊎ C̄
    Comprehensions  C ::= returnᵃ ⟨I, N⟩ | for (Ḡ where X) C
    Generators      G ::= x ← t
    Inner terms     N ::= X | R | I
    Record terms    R ::= ⟨ℓ = N⟩
    Base terms      X ::= x.ℓ | c(X̄) | empty L
    Indexes         I, J ::= a ⋅ d
    Dynamic indexes d ::= out | in

A comprehension is a *chain* of generator blocks (one per nesting level of
the source query) ending in a body ``returnᵃ ⟨I, N⟩`` — represented here as
:class:`ShredComp` with a tuple of :class:`Block` and the body parts.

Base terms reuse the normal-form classes of
:mod:`repro.normalise.normal_form` (they are the same grammar); the query
under an ``EmptyNF`` inside a *body* is a :class:`ShredQuery` (the ⟨−⟩
translation shreds it at the top level), while conditions in ``for`` blocks
keep their original :class:`~repro.normalise.normal_form.NormQuery` — the
two evaluators and the SQL generator accept either, since emptiness only
inspects generators and conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union as PyUnion

from repro.errors import ShreddingError
from repro.normalise.normal_form import BaseExpr, Generator

__all__ = [
    "TOP_TAG",
    "OUT",
    "IN",
    "IndexRef",
    "Block",
    "SRecord",
    "InnerTerm",
    "ShredComp",
    "ShredQuery",
    "iter_blocks",
    "pretty_shredded",
]

#: The distinguished top-level static index ⊤ (§4).
TOP_TAG = "top"

OUT = "out"
IN = "in"


@dataclass(frozen=True)
class IndexRef(BaseExpr):
    """An index placeholder ``a ⋅ out`` / ``a ⋅ in``.

    ``out`` refers to the index of the *enclosing* context (where the
    result is spliced into the parent), ``in`` to the index of the current
    element (which child queries join on).  Subclassing
    :class:`BaseExpr` lets index refs sit inside record terms uniformly.
    """

    tag: str
    kind: str  # OUT or IN

    def __post_init__(self) -> None:
        if self.kind not in (OUT, IN):
            raise ShreddingError(f"bad dynamic index kind: {self.kind!r}")

    def __str__(self) -> str:
        return f"{self.tag}·{self.kind}"


@dataclass(frozen=True)
class Block:
    """One generator block ``for (Ḡ where X)`` of a comprehension chain."""

    generators: tuple[Generator, ...]
    where: BaseExpr


@dataclass(frozen=True)
class SRecord:
    """A shredded record term ⟨ℓ₁ = N₁, …⟩ (fields sorted by label)."""

    fields: tuple[tuple[str, "InnerTerm"], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fields", tuple(sorted(self.fields, key=lambda f: f[0]))
        )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.fields)

    def field(self, label: str) -> "InnerTerm":
        for name, value in self.fields:
            if name == label:
                return value
        raise ShreddingError(f"shredded record has no field {label!r}")


InnerTerm = PyUnion[BaseExpr, SRecord]  # IndexRef is a BaseExpr subclass


@dataclass(frozen=True)
class ShredComp:
    """``for (B₁) … for (Bₙ) returnᵗᵃᵍ ⟨outer, inner⟩``."""

    blocks: tuple[Block, ...]
    tag: str
    outer: IndexRef
    inner: InnerTerm

    def __post_init__(self) -> None:
        if self.outer.kind != OUT:
            raise ShreddingError("comprehension body outer index must be ·out")

    def prepend(self, block: Block) -> "ShredComp":
        """Add an enclosing generator block (used by the ↓.p case of ⟦−⟧*)."""
        return ShredComp((block,) + self.blocks, self.tag, self.outer, self.inner)

    @property
    def all_generators(self) -> tuple[Generator, ...]:
        return tuple(g for block in self.blocks for g in block.generators)


@dataclass(frozen=True)
class ShredQuery:
    """A shredded query ⊎ C̄ (one flat query of the shredded package)."""

    comps: tuple[ShredComp, ...]


def iter_blocks(query: ShredQuery) -> Iterator[Block]:
    for comp in query.comps:
        yield from comp.blocks


def empty_probe_parts(query) -> list[tuple[tuple[Generator, ...], list[BaseExpr]]]:
    """The (generators, conditions) of each comprehension of a query under
    ``empty`` — accepting both pre-shredding :class:`NormQuery` and
    post-shredding :class:`ShredQuery` forms (emptiness only needs the
    top-level generators and conditions, §4.1)."""
    parts: list[tuple[tuple[Generator, ...], list[BaseExpr]]] = []
    comprehensions = getattr(query, "comprehensions", None)
    if comprehensions is not None:
        for comp in comprehensions:
            parts.append((comp.generators, [comp.where]))
        return parts
    comps = getattr(query, "comps", None)
    if comps is None:
        raise ShreddingError(f"not a query under empty: {query!r}")
    for comp in comps:
        generators = tuple(g for block in comp.blocks for g in block.generators)
        conditions = [block.where for block in comp.blocks]
        parts.append((generators, conditions))
    return parts


# --------------------------------------------------------------------------
# Pretty printing (used in examples).


def pretty_shredded(query: ShredQuery, indent: int = 0) -> str:
    pad = "  " * indent
    if not query.comps:
        return pad + "∅"
    return ("\n" + pad + "⊎\n").join(
        _pretty_comp(comp, indent) for comp in query.comps
    )


def _pretty_comp(comp: ShredComp, indent: int) -> str:
    pad = "  " * indent
    lines = []
    for block in comp.blocks:
        gens = ", ".join(f"{g.var} ← {g.table}" for g in block.generators)
        where = _pretty_where(block.where)
        lines.append(f"{pad}for ({gens}{where})")
    body = f"{pad}return^{comp.tag} ⟨{comp.outer}, {_pretty_inner(comp.inner)}⟩"
    lines.append(body)
    return "\n".join(lines)


def _pretty_where(where: BaseExpr) -> str:
    from repro.normalise.normal_form import TRUE_NF

    if where == TRUE_NF:
        return ""
    return f" where {_pretty_inner(where)}"


def _pretty_inner(term: "InnerTerm") -> str:
    from repro.normalise.normal_form import (
        ConstNF,
        EmptyNF,
        ParamNF,
        PrimNF,
        VarField,
    )

    if isinstance(term, IndexRef):
        return str(term)
    if isinstance(term, ParamNF):
        return f":{term.name}"
    if isinstance(term, SRecord):
        inner = ", ".join(
            f"{label} = {_pretty_inner(value)}" for label, value in term.fields
        )
        return f"⟨{inner}⟩"
    if isinstance(term, VarField):
        return f"{term.var}.{term.label}"
    if isinstance(term, ConstNF):
        if isinstance(term.value, bool):
            return "true" if term.value else "false"
        if isinstance(term.value, str):
            return f"“{term.value}”"
        return str(term.value)
    if isinstance(term, PrimNF):
        if len(term.args) == 2:
            op = {"and": "∧", "or": "∨"}.get(term.op, term.op)
            return (
                f"({_pretty_inner(term.args[0])} {op} "
                f"{_pretty_inner(term.args[1])})"
            )
        args = ", ".join(_pretty_inner(arg) for arg in term.args)
        return f"{term.op}({args})"
    if isinstance(term, EmptyNF):
        return "empty(…)"
    raise ShreddingError(f"not an inner term: {term!r}")
