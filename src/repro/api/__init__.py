"""``repro.api`` — the language-integrated query façade (the front door).

One import gives the whole paper pipeline behind a stable surface::

    from repro.api import connect, query

    session = connect(figure3_database())            # or connect(schema=…)

    # 1. fluent builder
    q = (session.table("departments", alias="d")
         .select(department="name")
         .nest(staff=lambda d: session.table("employees")
               .where(lambda e: e.dept == d.name)
               .select("name", "salary")))
    result = q.run()                                 # engine="auto"

    # 2. captured comprehensions
    @query
    def staff_by_dept():
        return [{"department": d.name,
                 "staff": [e.name for e in employees if e.dept == d.name]}
                for d in departments]
    session.run(staff_by_dept).to_dicts()

    # 3. hand-built λNRC terms (repro.nrc.builders) still work
    session.query(Q6).run(engine="parallel")

Everything below this module — :class:`~repro.pipeline.shredder.
ShreddingPipeline`, the executors, the optimizer — is engine internals.
"""

from repro.api.capture import CapturedQuery, query
from repro.api.fluent import Expr, Query, TermQuery, as_term, param
from repro.api.results import Prepared, Result, Runnable
from repro.api.session import (
    Session,
    connect,
    connect_sharded,
)
from repro.nrc.ast import Param
from repro.sql.codegen import SqlOptions

__all__ = [
    "connect",
    "connect_sharded",
    "Session",
    "query",
    "CapturedQuery",
    "Query",
    "TermQuery",
    "Expr",
    "Param",
    "param",
    "Prepared",
    "Result",
    "Runnable",
    "SqlOptions",
    "as_term",
]
