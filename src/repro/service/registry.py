"""The prepared-query registry: named, parameterised, compile-once queries.

A :class:`QueryRegistry` is the server's catalogue — clients refer to
queries by name over the wire; the *shapes* (fluent queries, ``@query``
captures, raw λNRC terms, possibly containing typed
:class:`~repro.nrc.ast.Param` placeholders) are registered server-side::

    registry = QueryRegistry()
    registry.register("Q6", Q6)
    registry.register(
        "staff_above",
        session.table("employees", alias="e")
            .where(lambda e: e.salary > param("min_salary"))
            .select("name", "salary"),
    )

Each *execute* re-resolves the registered term through the session's plan
cache: the first call compiles (one cache miss), every structurally equal
later call is a hash-lookup hit — host parameters bind per call without
recompiling, because :func:`~repro.nrc.ast.term_fingerprint` hashes a
``Param`` by name and type, never by value.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import ServiceError
from repro.nrc import ast

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.results import Prepared
    from repro.api.session import Session

__all__ = ["QueryRegistry", "RegisteredQuery", "paper_registry"]


@dataclass
class RegisteredQuery:
    """One catalogue entry: a name plus the λNRC term it lowers to.

    The term is lowered once at registration (fluent/captured sources run
    their Python callbacks exactly once); its memoised structural
    fingerprint then makes every per-request plan-cache consult O(1).
    """

    name: str
    term: ast.Term
    description: str = ""

    def prepared(self, session: "Session") -> "Prepared":
        """A fresh :class:`Prepared` binding this query to ``session``.

        Deliberately *not* cached on the entry: every call consults the
        session's plan cache, which is exactly the compile-once /
        hit-on-repeat behaviour the service exposes through its stats
        (first execute misses, every later one hits).
        """
        return session.prepare(self.term)


class QueryRegistry:
    """A thread-safe name → :class:`RegisteredQuery` catalogue."""

    def __init__(self) -> None:
        self._entries: dict[str, RegisteredQuery] = {}
        self._lock = threading.Lock()

    def register(
        self, name: str, source: object, description: str = ""
    ) -> RegisteredQuery:
        """Register a query shape under ``name``.

        ``source`` is anything the façade accepts: a fluent
        :class:`~repro.api.fluent.Query`, a ``@query`` capture, an
        :class:`~repro.api.fluent.Expr` or a raw λNRC term — with
        :class:`~repro.nrc.ast.Param` placeholders for host parameters.
        Re-registering a name replaces the entry (hot catalogue updates).
        """
        from repro.api.fluent import to_term

        if not name or not isinstance(name, str):
            raise ServiceError(f"query names must be non-empty strings, got {name!r}")
        entry = RegisteredQuery(
            name=name, term=to_term(source), description=description
        )
        with self._lock:
            self._entries[name] = entry
        return entry

    def copy(self) -> "QueryRegistry":
        """An independent catalogue that starts with this one's entries —
        what each endpoint of a deployment holds: a ``register`` op
        changes the endpoint it reached and no other."""
        twin = QueryRegistry()
        with self._lock:
            twin._entries = dict(self._entries)
        return twin

    def lookup(self, name: str) -> RegisteredQuery:
        with self._lock:
            entry = self._entries.get(name)
            known = sorted(self._entries) if entry is None else ()
        if entry is None:
            raise ServiceError(
                f"unknown query {name!r}; known queries: "
                + (", ".join(known) or "none registered"),
                kind="UnknownQueryError",
            )
        return entry

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def paper_registry(extra: Iterable[tuple[str, object]] = ()) -> QueryRegistry:
    """The default catalogue: the paper's nested queries Q1–Q6 plus two
    host-parameterised shapes over the organisation schema.

    * ``staff_above`` (``:min_salary`` Int) — employees above a salary;
    * ``dept_staff`` (``:dept`` String) — one department's nested listing.
    """
    from repro.data.queries import NESTED_QUERIES
    from repro.nrc import builders as b
    from repro.nrc.types import INT, STRING

    registry = QueryRegistry()
    for name, term in sorted(NESTED_QUERIES.items()):
        registry.register(name, term, description=f"paper query {name}")

    min_salary = ast.Param("min_salary", INT)
    registry.register(
        "staff_above",
        b.for_(
            "e",
            b.table("employees"),
            lambda e: b.where(
                b.gt(e["salary"], min_salary),
                b.ret(b.record(name=e["name"], salary=e["salary"])),
            ),
        ),
        description="employees with salary > :min_salary",
    )

    dept = ast.Param("dept", STRING)
    registry.register(
        "dept_staff",
        b.for_(
            "d",
            b.table("departments"),
            lambda d: b.where(
                b.eq(d["name"], dept),
                b.ret(
                    b.record(
                        department=d["name"],
                        staff=b.for_(
                            "e",
                            b.table("employees"),
                            lambda e: b.where(
                                b.eq(e["dept"], d["name"]),
                                b.ret(b.record(name=e["name"])),
                            ),
                        ),
                    )
                ),
            ),
        ),
        description="one department's nested staff listing (:dept)",
    )

    for name, source in extra:
        registry.register(name, source)
    return registry
