"""The fluent, typed query builder: ``session.table(…).select(…).where(…)``.

Queries are immutable: every combinator returns a new :class:`Query`.  A
query lowers to a λNRC term (:meth:`Query.term`) which the session's
shredding pipeline compiles; inside combinator callbacks rows appear as
:class:`Expr` proxies whose operators build λNRC primitives, so predicates
read like Python::

    session.table("employees", alias="e")
        .where(lambda e: (e.salary > 1000) & (e.dept == "Sales"))
        .select("name", "salary")

Correlated subqueries nest through callbacks that receive the outer row::

    session.table("departments", alias="d")
        .select(department="name")
        .nest(staff=lambda d: session.table("employees")
              .where(lambda e: e.dept == d.name)
              .select("name"))

Variable names are chosen per lowering by a scope that keeps aliases unique
(an inner query over the same table never shadows the outer row), and the
same query object always lowers to the same term, so plan-cache fingerprints
are stable.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Callable, Union as PyUnion

from repro.errors import ShreddingError
from repro.nrc import ast, builders as b
from repro.nrc.types import BOOL, INT, STRING, BaseType
from repro.api.results import Runnable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session

__all__ = ["Expr", "Query", "as_term", "param", "to_term"]

_PARAM_TYPES = {
    "int": INT,
    "integer": INT,
    "bool": BOOL,
    "boolean": BOOL,
    "str": STRING,
    "string": STRING,
}


def param(name: str, type: object = "int") -> Expr:
    """A typed host-parameter placeholder: compile once, bind per call.

    The returned :class:`Expr` drops into fluent predicates, captured
    comprehensions (close over it) and hand-built terms (``.term``); the
    query compiles with a SQL placeholder ``:name`` and every ``run``
    supplies the value via ``params={name: value}``.  Two runs differing
    only in bound values share one plan-cache entry by construction.

    ``type`` is ``"int"`` (default), ``"bool"``, ``"str"`` — or a
    :class:`~repro.nrc.types.BaseType`.
    """
    if isinstance(type, BaseType):
        base = type
    else:
        base = _PARAM_TYPES.get(str(type).lower())
        if base is None:
            raise ShreddingError(
                f"unknown parameter type {type!r}; one of: "
                + ", ".join(sorted(set(_PARAM_TYPES)))
                + " (or a BaseType)"
            )
    return Expr(ast.Param(name, base))


class _Scope:
    """Deterministic fresh-name supply for one lowering pass."""

    __slots__ = ("_counts", "_used")

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._used: set[str] = set()

    def fresh(self, base: str) -> str:
        # Track every name handed out, not just per-base counters: a
        # derived name (d → d_2) must never collide with a later user
        # alias that is literally "d_2".
        count = self._counts.get(base, 0)
        while True:
            count += 1
            name = base if count == 1 else f"{base}_{count}"
            if name not in self._used:
                self._counts[base] = count
                self._used.add(name)
                return name


#: The scope of the lowering pass in progress *in this thread or task*
#: (lowering is reentrant — callbacks run synchronously inside
#: :meth:`Query.term` — and two threads may lower at once, each under its
#: own scope).  Subqueries built inside callbacks — including
#: :meth:`Query.exists` probes — pick it up so their variables never
#: shadow enclosing rows.
_ACTIVE_SCOPE: "ContextVar[_Scope | None]" = ContextVar(
    "repro_lowering_scope", default=None
)


class Expr:
    """A λNRC term with Python operators.

    ``row.salary`` / ``row["salary"]`` project fields; ``== != < <= > >=``
    build comparisons; ``+ - *`` arithmetic; ``& | ~`` boolean logic
    (Python's ``and``/``or``/``not`` cannot be overloaded — using them on
    an :class:`Expr` raises with a pointer to the operators).

    ``row["label"]`` is the escape hatch for labels that collide with the
    proxy's own attributes (``term``) or are not identifier-shaped.
    """

    __slots__ = ("_term",)

    def __init__(self, term: ast.Term) -> None:
        self._term = term

    @property
    def term(self) -> ast.Term:
        return self._term

    # ------------------------------------------------------------ projection

    def __getattr__(self, label: str) -> "Expr":
        if label.startswith("_"):
            raise AttributeError(label)
        return Expr(ast.Project(self._term, label))

    def __getitem__(self, label: str) -> "Expr":
        if not isinstance(label, str):
            raise ShreddingError(
                f"record labels are strings, got {label!r}"
            )
        return Expr(ast.Project(self._term, label))

    # ----------------------------------------------------------- comparisons

    def __eq__(self, other: object) -> "Expr":  # type: ignore[override]
        return Expr(b.eq(self._term, to_term(other)))

    def __ne__(self, other: object) -> "Expr":  # type: ignore[override]
        return Expr(b.ne(self._term, to_term(other)))

    def __lt__(self, other: object) -> "Expr":
        return Expr(b.lt(self._term, to_term(other)))

    def __le__(self, other: object) -> "Expr":
        return Expr(b.le(self._term, to_term(other)))

    def __gt__(self, other: object) -> "Expr":
        return Expr(b.gt(self._term, to_term(other)))

    def __ge__(self, other: object) -> "Expr":
        return Expr(b.ge(self._term, to_term(other)))

    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: object) -> "Expr":
        return Expr(b.add(self._term, to_term(other)))

    def __radd__(self, other: object) -> "Expr":
        return Expr(b.add(to_term(other), self._term))

    def __sub__(self, other: object) -> "Expr":
        return Expr(b.sub(self._term, to_term(other)))

    def __rsub__(self, other: object) -> "Expr":
        return Expr(b.sub(to_term(other), self._term))

    def __mul__(self, other: object) -> "Expr":
        return Expr(b.mul(self._term, to_term(other)))

    def __rmul__(self, other: object) -> "Expr":
        return Expr(b.mul(to_term(other), self._term))

    # --------------------------------------------------------------- boolean

    def __and__(self, other: object) -> "Expr":
        return Expr(b.and_(self._term, to_term(other)))

    def __rand__(self, other: object) -> "Expr":
        return Expr(b.and_(to_term(other), self._term))

    def __or__(self, other: object) -> "Expr":
        return Expr(b.or_(self._term, to_term(other)))

    def __ror__(self, other: object) -> "Expr":
        return Expr(b.or_(to_term(other), self._term))

    def __invert__(self) -> "Expr":
        return Expr(b.not_(self._term))

    def __bool__(self) -> bool:
        raise ShreddingError(
            "an Expr has no truth value at query-build time: use & | ~ "
            "instead of and/or/not, and .where(...) instead of if"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Expr({self._term!r})"


def to_term(value: object) -> ast.Term:
    """Convert any façade-level value to a λNRC term.

    Accepts :class:`Expr`, raw terms, fluent queries (lowered in the
    active scope), captured queries, base literals, and lists/tuples of
    convertibles (literal bags).
    """
    if isinstance(value, Expr):
        return value.term
    if isinstance(value, ast.Term):
        return value
    if isinstance(value, Runnable):
        # Query.term() picks up the scope of the lowering pass in
        # progress, so subquery variables never shadow enclosing rows.
        return value.term()
    from repro.api.capture import CapturedQuery

    if isinstance(value, CapturedQuery):
        return value.term()
    if isinstance(value, (bool, int, str)):
        return ast.Const(value)
    if isinstance(value, (list, tuple)):
        return b.bag_of(*(to_term(item) for item in value))
    raise ShreddingError(
        f"cannot use a {type(value).__name__} in a query: expected an "
        f"Expr, a λNRC term, a Query, a @query-captured function, a base "
        f"literal, or a list of those"
    )


#: Public alias — ``as_term`` reads better at call sites outside this module.
as_term = to_term


FieldSpec = PyUnion[str, Callable[..., Any], Expr, ast.Term, "Query"]


class Query(Runnable):
    """An immutable fluent query over one source, lowering to a λNRC
    comprehension ``for (x ← source) where (…) return ⟨…⟩``.

    Build with :meth:`Session.table` / :meth:`Session.from_`; refine with
    :meth:`where` / :meth:`select` / :meth:`nest`; consume through the
    :class:`~repro.api.results.Runnable` surface (``run``, ``sql``,
    ``explain``, ``to_dicts``) or embed in another query.
    """

    def __init__(
        self,
        session: "Session",
        source: object,
        alias: str,
        wheres: tuple = (),
        projection: tuple | None = None,
    ) -> None:
        self._session = session
        self._source = source  # table name (str) or term-convertible
        self._alias = alias
        self._wheres = wheres
        #: None → whole row; ("scalar", spec) → bag of base values;
        #: ("record", ((label, spec), …)) → bag of records.
        self._projection = projection

    # ------------------------------------------------------------ combinators

    def where(self, predicate: FieldSpec) -> "Query":
        """Filter rows; ``predicate`` is a callback on the row (or a closed
        boolean :class:`Expr`/term).  Multiple wheres conjoin."""
        return Query(
            self._session,
            self._source,
            self._alias,
            self._wheres + (predicate,),
            self._projection,
        )

    def select(self, *columns: FieldSpec, **fields: FieldSpec) -> "Query":
        """Project each row.

        * ``select("name", "salary")`` — keep the named columns;
        * ``select(department="name")`` — rename: label ← column;
        * ``select(total=lambda r: r.salary + r.bonus)`` — computed field;
        * ``select(lambda r: r.text)`` — a single callback with no
          keywords yields a bag of base values instead of records.

        Calling ``select`` again replaces the projection.
        """
        if len(columns) == 1 and not fields and not isinstance(columns[0], str):
            projection = ("scalar", columns[0])
        else:
            pairs: list[tuple[str, FieldSpec]] = []
            for column in columns:
                if not isinstance(column, str):
                    raise ShreddingError(
                        "positional select() arguments must be column "
                        "names (or a single callback for a scalar bag); "
                        f"got {column!r}"
                    )
                pairs.append((column, column))
            pairs.extend(fields.items())
            if not pairs:
                raise ShreddingError("select() needs at least one field")
            projection = ("record", tuple(pairs))
        return Query(
            self._session, self._source, self._alias, self._wheres, projection
        )

    def nest(self, **bags: FieldSpec) -> "Query":
        """Add nested-bag fields: each callback receives the outer row and
        returns a :class:`Query` (or term) for the inner bag — the paper's
        query nesting, verbatim."""
        if not bags:
            raise ShreddingError("nest() needs at least one field")
        if self._projection is None:
            base = self._default_record_fields()
        elif self._projection[0] == "record":
            base = self._projection[1]
        else:
            raise ShreddingError(
                "cannot nest() into a scalar projection; select record "
                "fields first"
            )
        taken = {label for label, _spec in base}
        duplicates = taken & set(bags)
        if duplicates:
            raise ShreddingError(
                f"nest() fields {sorted(duplicates)} already selected"
            )
        projection = ("record", base + tuple(bags.items()))
        return Query(
            self._session, self._source, self._alias, self._wheres, projection
        )

    def union(self, other: object) -> "TermQuery":
        """Bag union (⊎) with another query of the same element type."""
        return TermQuery(
            self._session, ast.Union(self.term(), to_term(other))
        )

    # ------------------------------------------------------------ predicates

    def exists(self) -> Expr:
        """``¬ empty(query)`` — true iff the query returns any row; the
        building block for semi-joins."""
        return Expr(b.exists(self.term()))

    def is_empty(self) -> Expr:
        """``empty(query)`` — true iff the query returns no row; the
        building block for anti-joins (the paper's MINUS encoding)."""
        return Expr(b.is_empty(self.term()))

    # --------------------------------------------------------------- lowering

    def term(self) -> ast.Term:
        """Lower to a λNRC term, reusing the active scope when this query
        is built inside another query's lowering pass."""
        scope = _ACTIVE_SCOPE.get()
        if scope is not None:
            return self._lower(scope)
        scope = _Scope()
        token = _ACTIVE_SCOPE.set(scope)
        try:
            return self._lower(scope)
        finally:
            _ACTIVE_SCOPE.reset(token)

    def _lower(self, scope: _Scope) -> ast.Term:
        name = scope.fresh(self._alias)
        row = Expr(ast.Var(name))
        body: ast.Term = b.ret(self._project(row))
        conditions = [to_term(_apply(spec, row)) for spec in self._wheres]
        if conditions:
            body = b.where(b.and_(*conditions), body)
        return ast.For(name, self._source_term(), body)

    def _source_term(self) -> ast.Term:
        if isinstance(self._source, str):
            return ast.Table(self._source)
        return to_term(self._source)

    def _project(self, row: Expr) -> ast.Term:
        if self._projection is None:
            return row.term
        kind, payload = self._projection
        if kind == "scalar":
            return to_term(_apply(payload, row))
        fields = tuple(
            (label, to_term(_apply(spec, row))) for label, spec in payload
        )
        return ast.Record(fields)

    def _default_record_fields(self) -> tuple:
        """All columns of a table source, for ``nest()`` without ``select``."""
        if not isinstance(self._source, str):
            raise ShreddingError(
                "nest() without select() needs a table source (column "
                "list unknown otherwise); call select(...) first"
            )
        table_schema = self._session.schema.table(self._source)
        return tuple(
            (column, column) for column in table_schema.column_names
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        source = (
            self._source if isinstance(self._source, str) else "<subquery>"
        )
        return f"<Query over {source!r} as {self._alias!r}>"


class TermQuery(Runnable):
    """A raw λNRC term with the runnable façade surface (used for unions
    and for :meth:`Session.query` over hand-built terms)."""

    def __init__(self, session: "Session", term: ast.Term) -> None:
        self._session = session
        self._term = term

    def term(self) -> ast.Term:
        return self._term

    def union(self, other: object) -> "TermQuery":
        return TermQuery(
            self._session, ast.Union(self._term, to_term(other))
        )


def _apply(spec: object, row: Expr) -> object:
    """Resolve a field/predicate spec against the bound row."""
    if isinstance(spec, str):
        return row[spec]
    if callable(spec) and not isinstance(spec, ast.Term):
        return spec(row)
    return spec
