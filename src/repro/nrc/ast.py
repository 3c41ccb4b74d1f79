"""λNRC terms (§2.1).

    Terms M, N ::= x | c(M̄) | table t | if M then N else N'
                 | λx.M | M N | ⟨ℓ = M, …⟩ | M.ℓ | empty M
                 | return M | ∅ | M ⊎ N | for (x ← M) N

Terms are immutable dataclasses.  ``Project`` supports the ``term[label]``
shorthand so queries read close to the paper's notation.

Tuples are encoded as records with labels ``#1 … #n`` (§2.1).
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.errors import TypeCheckError
from repro.nrc.types import Type

__all__ = [
    "Term",
    "Var",
    "Const",
    "Prim",
    "Lam",
    "App",
    "Record",
    "Project",
    "If",
    "Return",
    "Empty",
    "Union",
    "For",
    "Table",
    "IsEmpty",
    "Param",
    "free_vars",
    "substitute",
    "substitute_params",
    "subterms",
    "term_size",
    "term_fingerprint",
    "intern_term",
]


class Term:
    """Abstract base class for λNRC terms."""

    __slots__ = ()

    def __getitem__(self, label: str) -> "Project":
        """Shorthand for field projection: ``x["name"]`` is ``x.name``."""
        if not isinstance(label, str):
            raise TypeError(f"record labels are strings, got {label!r}")
        return Project(self, label)


@dataclass(frozen=True)
class Var(Term):
    """A variable ``x``."""

    name: str


@dataclass(frozen=True)
class Const(Term):
    """A constant of base type: int, bool or str literal."""

    value: object

    def __post_init__(self) -> None:
        if not isinstance(self.value, (bool, int, str)):
            raise TypeCheckError(
                f"constants must be int/bool/str, got {type(self.value).__name__}"
            )


@dataclass(frozen=True)
class Prim(Term):
    """A primitive application ``c(M₁, …, Mₙ)``.

    The operator names and signatures live in :mod:`repro.nrc.primitives`.
    """

    op: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(arg, Term) for arg in self.args):
            raise TypeCheckError(f"non-term argument to primitive {self.op!r}")


@dataclass(frozen=True)
class Lam(Term):
    """A λ-abstraction ``λx.M``.

    ``param_type`` is an optional annotation; it is required only when the
    type checker must *infer* the type of the lambda itself (lambdas applied
    to known arguments check fine without it, and normalisation eliminates
    all lambdas regardless).
    """

    param: str
    body: Term
    param_type: Optional[Type] = None


@dataclass(frozen=True)
class App(Term):
    """An application ``M N``."""

    fun: Term
    arg: Term


@dataclass(frozen=True)
class Record(Term):
    """A record construction ⟨ℓ₁ = M₁, …, ℓₙ = Mₙ⟩ (fields sorted by label)."""

    fields: tuple[tuple[str, Term], ...]

    def __post_init__(self) -> None:
        labels = [label for label, _ in self.fields]
        if len(set(labels)) != len(labels):
            raise TypeCheckError(f"duplicate record labels in {labels}")
        object.__setattr__(
            self, "fields", tuple(sorted(self.fields, key=lambda f: f[0]))
        )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.fields)

    def field(self, label: str) -> Term:
        for name, term in self.fields:
            if name == label:
                return term
        raise TypeCheckError(f"record has no field {label!r}")


@dataclass(frozen=True)
class Project(Term):
    """A field projection ``M.ℓ``."""

    record: Term
    label: str


@dataclass(frozen=True)
class If(Term):
    """A conditional ``if M then N else N'``."""

    cond: Term
    then: Term
    orelse: Term


@dataclass(frozen=True)
class Return(Term):
    """A singleton bag ``return M``."""

    element: Term


@dataclass(frozen=True)
class Empty(Term):
    """The empty bag ∅.

    ``element_type`` is an optional annotation used when the element type
    cannot be inferred from context (e.g. the literal query ``∅``).
    """

    element_type: Optional[Type] = None


@dataclass(frozen=True)
class Union(Term):
    """Bag union ``M ⊎ N`` (additive: multiplicities add)."""

    left: Term
    right: Term


@dataclass(frozen=True)
class For(Term):
    """A comprehension ``for (x ← M) N``.

    Iterates over the bag ``M``, binds ``x`` to each element, evaluates the
    bag ``N``, and takes the union of the results.
    """

    var: str
    source: Term
    body: Term


@dataclass(frozen=True)
class Table(Term):
    """A table reference ``table t`` (flat relation type from Σ)."""

    name: str


@dataclass(frozen=True)
class IsEmpty(Term):
    """The emptiness test ``empty M``: true iff the bag M is empty."""

    bag: Term


@dataclass(frozen=True)
class Param(Term):
    """A typed host-parameter placeholder ``:name`` of base type.

    A ``Param`` compiles like a constant whose *value* arrives at execution
    time: the SQL code generator emits a named placeholder and the executor
    binds the host value per run.  Two queries differing only in bound
    parameter values are therefore *structurally identical* — the plan
    cache serves both from one compiled plan (the prepared-statement
    contract the service layer relies on).
    """

    name: str
    type: Type

    def __post_init__(self) -> None:
        from repro.nrc.types import BaseType

        if not (isinstance(self.name, str) and self.name.isidentifier()):
            raise TypeCheckError(
                f"parameter names must be identifiers, got {self.name!r}"
            )
        if not isinstance(self.type, BaseType) or self.type.name not in (
            "Int",
            "Bool",
            "String",
        ):
            # Unit is a BaseType but has no host-value representation.
            raise TypeCheckError(
                f"parameters must have base type (Int/Bool/String), "
                f"got {self.type}"
            )


def free_vars(term: Term) -> frozenset[str]:
    """The free variables of ``term``."""
    if isinstance(term, Var):
        return frozenset({term.name})
    if isinstance(term, (Const, Table, Empty, Param)):
        return frozenset()
    if isinstance(term, Prim):
        result: frozenset[str] = frozenset()
        for arg in term.args:
            result |= free_vars(arg)
        return result
    if isinstance(term, Lam):
        return free_vars(term.body) - {term.param}
    if isinstance(term, App):
        return free_vars(term.fun) | free_vars(term.arg)
    if isinstance(term, Record):
        result = frozenset()
        for _, value in term.fields:
            result |= free_vars(value)
        return result
    if isinstance(term, Project):
        return free_vars(term.record)
    if isinstance(term, If):
        return free_vars(term.cond) | free_vars(term.then) | free_vars(term.orelse)
    if isinstance(term, Return):
        return free_vars(term.element)
    if isinstance(term, Union):
        return free_vars(term.left) | free_vars(term.right)
    if isinstance(term, For):
        return free_vars(term.source) | (free_vars(term.body) - {term.var})
    if isinstance(term, IsEmpty):
        return free_vars(term.bag)
    raise TypeError(f"not a term: {term!r}")


_FRESH_COUNTER = itertools.count(1)  # next() is one atomic step


def fresh_name(base: str) -> str:
    """Generate a fresh variable name (used for capture-avoiding substitution)."""
    return f"{base}%{next(_FRESH_COUNTER)}"


def substitute(term: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution ``term[name := replacement]``."""
    replacement_free = free_vars(replacement)

    def go(t: Term, bound: frozenset[str]) -> Term:
        if isinstance(t, Var):
            return replacement if t.name == name else t
        if isinstance(t, (Const, Table, Empty, Param)):
            return t
        if isinstance(t, Prim):
            return Prim(t.op, tuple(go(arg, bound) for arg in t.args))
        if isinstance(t, Lam):
            if t.param == name:
                return t
            if t.param in replacement_free:
                renamed = fresh_name(t.param)
                body = substitute(t.body, t.param, Var(renamed))
                return Lam(renamed, go(body, bound | {renamed}), t.param_type)
            return Lam(t.param, go(t.body, bound | {t.param}), t.param_type)
        if isinstance(t, App):
            return App(go(t.fun, bound), go(t.arg, bound))
        if isinstance(t, Record):
            return Record(
                tuple((label, go(value, bound)) for label, value in t.fields)
            )
        if isinstance(t, Project):
            return Project(go(t.record, bound), t.label)
        if isinstance(t, If):
            return If(go(t.cond, bound), go(t.then, bound), go(t.orelse, bound))
        if isinstance(t, Return):
            return Return(go(t.element, bound))
        if isinstance(t, Union):
            return Union(go(t.left, bound), go(t.right, bound))
        if isinstance(t, For):
            source = go(t.source, bound)
            if t.var == name:
                return For(t.var, source, t.body)
            if t.var in replacement_free:
                renamed = fresh_name(t.var)
                body = substitute(t.body, t.var, Var(renamed))
                return For(renamed, source, go(body, bound | {renamed}))
            return For(t.var, source, go(t.body, bound | {t.var}))
        if isinstance(t, IsEmpty):
            return IsEmpty(go(t.bag, bound))
        raise TypeError(f"not a term: {t!r}")

    if name not in free_vars(term):
        return term
    return go(term, frozenset())


def substitute_params(term: Term, bindings: "dict[str, object]") -> Term:
    """Replace host-parameter placeholders by literal constants.

    ``Param(name, τ)`` becomes ``Const(bindings[name])`` for every bound
    name; unbound parameters stay in place.  This is the semantic reading
    of parameter binding — the in-memory evaluator (which cannot bind
    placeholders) evaluates ``substitute_params(q, b)`` where the SQL
    pipeline evaluates ``q`` with ``run(params=b)``; the two must agree.
    """

    def go(t: Term) -> Term:
        if isinstance(t, Param):
            if t.name in bindings:
                return Const(bindings[t.name])
            return t
        if isinstance(t, (Var, Const, Table, Empty)):
            return t
        if isinstance(t, Prim):
            return Prim(t.op, tuple(go(arg) for arg in t.args))
        if isinstance(t, Lam):
            return Lam(t.param, go(t.body), t.param_type)
        if isinstance(t, App):
            return App(go(t.fun), go(t.arg))
        if isinstance(t, Record):
            return Record(
                tuple((label, go(value)) for label, value in t.fields)
            )
        if isinstance(t, Project):
            return Project(go(t.record), t.label)
        if isinstance(t, If):
            return If(go(t.cond), go(t.then), go(t.orelse))
        if isinstance(t, Return):
            return Return(go(t.element))
        if isinstance(t, Union):
            return Union(go(t.left), go(t.right))
        if isinstance(t, For):
            return For(t.var, go(t.source), go(t.body))
        if isinstance(t, IsEmpty):
            return IsEmpty(go(t.bag))
        raise TypeError(f"not a term: {t!r}")

    if not bindings:
        return term
    return go(term)


def subterms(term: Term) -> Iterator[Term]:
    """Yield ``term`` and all of its subterms, pre-order."""
    yield term
    if isinstance(term, Prim):
        for arg in term.args:
            yield from subterms(arg)
    elif isinstance(term, Lam):
        yield from subterms(term.body)
    elif isinstance(term, App):
        yield from subterms(term.fun)
        yield from subterms(term.arg)
    elif isinstance(term, Record):
        for _, value in term.fields:
            yield from subterms(value)
    elif isinstance(term, Project):
        yield from subterms(term.record)
    elif isinstance(term, If):
        yield from subterms(term.cond)
        yield from subterms(term.then)
        yield from subterms(term.orelse)
    elif isinstance(term, Return):
        yield from subterms(term.element)
    elif isinstance(term, Union):
        yield from subterms(term.left)
        yield from subterms(term.right)
    elif isinstance(term, For):
        yield from subterms(term.source)
        yield from subterms(term.body)
    elif isinstance(term, IsEmpty):
        yield from subterms(term.bag)


def term_size(term: Term) -> int:
    """Number of syntax constructors in ``term`` (``size`` in App. C.2)."""
    return sum(1 for _ in subterms(term))


# --------------------------------------------------------------------------
# Structural hashing and interning (the plan-cache key machinery).
#
# ``term_fingerprint`` digests a term's full structure — constructor kinds,
# variable names, labels, constants and type annotations — into a hex string
# that two terms share iff they are structurally identical.  α-equivalent
# terms with different bound-variable names fingerprint differently on
# purpose: the plan cache treats them as distinct entries (each compiles
# cold, both produce value-identical plans), keeping the hash O(size) with
# no de Bruijn renaming pass on the hot path.
#
# Fingerprints are memoised on the term instance, so repeated hashing of a
# shared subterm (or of the same query object on every ``compile`` call) is
# O(1) after the first computation.

_FP_ATTR = "_structural_fp"


def _type_token(annotation: Optional[Type]) -> str:
    return "" if annotation is None else str(annotation)


def term_fingerprint(term: Term) -> str:
    """A memoised structural hash of ``term`` (hex digest).

    Structurally identical terms — same constructors, names, labels,
    constants and annotations — share a fingerprint; everything else
    (including α-variants) does not.  The digest is cached on the term, so
    amortised cost is O(1) per node.
    """
    cached = getattr(term, _FP_ATTR, None)
    if cached is not None:
        return cached
    if isinstance(term, Var):
        token = f"V:{term.name}"
    elif isinstance(term, Const):
        token = f"C:{type(term.value).__name__}:{term.value!r}"
    elif isinstance(term, Param):
        # Name and declared type only — never a value: calls that differ
        # solely in bound host parameters share one fingerprint (and hence
        # one cached plan).
        token = f"H:{term.name}:{term.type}"
    elif isinstance(term, Table):
        token = f"T:{term.name}"
    elif isinstance(term, Empty):
        token = f"E:{_type_token(term.element_type)}"
    elif isinstance(term, Prim):
        token = f"P:{term.op}:" + ",".join(
            term_fingerprint(arg) for arg in term.args
        )
    elif isinstance(term, Lam):
        token = (
            f"L:{term.param}:{_type_token(term.param_type)}:"
            f"{term_fingerprint(term.body)}"
        )
    elif isinstance(term, App):
        token = f"A:{term_fingerprint(term.fun)}:{term_fingerprint(term.arg)}"
    elif isinstance(term, Record):
        token = "R:" + ",".join(
            f"{label}={term_fingerprint(value)}" for label, value in term.fields
        )
    elif isinstance(term, Project):
        token = f"J:{term.label}:{term_fingerprint(term.record)}"
    elif isinstance(term, If):
        token = (
            f"I:{term_fingerprint(term.cond)}:{term_fingerprint(term.then)}:"
            f"{term_fingerprint(term.orelse)}"
        )
    elif isinstance(term, Return):
        token = f"S:{term_fingerprint(term.element)}"
    elif isinstance(term, Union):
        token = f"U:{term_fingerprint(term.left)}:{term_fingerprint(term.right)}"
    elif isinstance(term, For):
        token = (
            f"F:{term.var}:{term_fingerprint(term.source)}:"
            f"{term_fingerprint(term.body)}"
        )
    elif isinstance(term, IsEmpty):
        token = f"Y:{term_fingerprint(term.bag)}"
    else:
        raise TypeError(f"not a term: {term!r}")
    digest = hashlib.sha256(token.encode()).hexdigest()
    object.__setattr__(term, _FP_ATTR, digest)
    return digest


_INTERN_TABLE: dict[str, Term] = {}
_INTERN_LIMIT = 4096
_INTERN_LOCK = threading.Lock()


def intern_term(term: Term) -> Term:
    """Hash-consing: return the canonical instance for ``term``'s structure.

    Structurally identical terms interned through here share one instance,
    so their memoised fingerprints (and any downstream per-instance caches)
    are shared too.  The table is bounded; when full it resets rather than
    evicting piecemeal — interning is an optimisation, never a requirement.
    """
    digest = term_fingerprint(term)
    with _INTERN_LOCK:
        canonical = _INTERN_TABLE.get(digest)
        if canonical is not None:
            return canonical
        if len(_INTERN_TABLE) >= _INTERN_LIMIT:
            _INTERN_TABLE.clear()
        _INTERN_TABLE[digest] = term
    return term


#: A function that maps every immediate subterm of a term (used by rewriters).
SubtermMapper = Callable[[Term], Term]


def map_subterms(term: Term, f: SubtermMapper) -> Term:
    """Rebuild ``term`` with ``f`` applied to each immediate subterm."""
    if isinstance(term, (Var, Const, Table, Empty, Param)):
        return term
    if isinstance(term, Prim):
        return Prim(term.op, tuple(f(arg) for arg in term.args))
    if isinstance(term, Lam):
        return Lam(term.param, f(term.body), term.param_type)
    if isinstance(term, App):
        return App(f(term.fun), f(term.arg))
    if isinstance(term, Record):
        return Record(tuple((label, f(value)) for label, value in term.fields))
    if isinstance(term, Project):
        return Project(f(term.record), term.label)
    if isinstance(term, If):
        return If(f(term.cond), f(term.then), f(term.orelse))
    if isinstance(term, Return):
        return Return(f(term.element))
    if isinstance(term, Union):
        return Union(f(term.left), f(term.right))
    if isinstance(term, For):
        return For(term.var, f(term.source), f(term.body))
    if isinstance(term, IsEmpty):
        return IsEmpty(f(term.bag))
    raise TypeError(f"not a term: {term!r}")
