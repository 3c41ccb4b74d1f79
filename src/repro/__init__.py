"""Query shredding: efficient relational evaluation of queries over nested
multisets — a reproduction of Cheney, Lindley & Wadler (SIGMOD 2014).

The headline API is the :mod:`repro.api` façade:

>>> from repro.api import connect, query
>>> # session = connect(figure3_database())
>>> # session.table("departments").select("name").run().to_dicts()

``connect`` opens a :class:`~repro.api.session.Session` that owns the
database, the plan cache, the SQL options and the engine policy; queries
are built fluently (``session.table(...)``), captured from Python
comprehensions (``@query``), or passed as λNRC terms
(:mod:`repro.nrc.builders`).

See README.md for a guided tour and DESIGN.md for the system inventory.
"""

from repro.values import bag_equal, render

__version__ = "1.1.0"

__all__ = [
    "bag_equal",
    "render",
    "connect",
    "Session",
    "query",
    "ShreddingPipeline",
    "__version__",
]


def __getattr__(name: str):
    # Lazy re-exports so importing `repro` stays cheap and avoids cycles.
    if name in {"connect", "Session", "query"}:
        import repro.api as api

        return getattr(api, name)
    if name == "ShreddingPipeline":
        from repro.pipeline.shredder import ShreddingPipeline

        return ShreddingPipeline
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
