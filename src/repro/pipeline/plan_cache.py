"""The query-plan cache: compile once, serve repeats in O(hash).

The paper's compilation chain (normalise → shred → let-insert → SQL) is a
pure function of ⟨query term, schema, code-generation options⟩, so its
output — a :class:`~repro.pipeline.shredder.CompiledQuery` holding one SQL
statement per nesting level — can be reused verbatim across calls.  The
cache key combines

* the term's structural fingerprint (:func:`repro.nrc.ast.term_fingerprint`
  — α-variants key separately, each compiling cold to value-identical
  plans),
* the schema fingerprint (:meth:`repro.nrc.schema.Schema.fingerprint`),
* the :class:`~repro.sql.codegen.SqlOptions` (frozen, hashable — this
  covers the logical optimizer's ``optimize`` switch and ``verify``, so
  optimised and unoptimised, verified and unverified plans key
  separately),

so any change to any compilation input misses the cache.  Eviction is LRU
with a bounded entry count; hit/miss counters feed
:class:`~repro.backend.executor.ExecutionStats`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.nrc.ast import Term, term_fingerprint
from repro.nrc.schema import Schema
from repro.sql.codegen import SqlOptions

__all__ = ["PlanKey", "PlanCache", "plan_key", "shared_plan_cache"]


@dataclass(frozen=True)
class PlanKey:
    """The full compilation input, fingerprinted."""

    term_fp: str
    schema_fp: str
    options: SqlOptions


def plan_key(term: Term, schema: Schema, options: SqlOptions) -> PlanKey:
    """Build the cache key for compiling ``term`` under ``schema``."""
    return PlanKey(term_fingerprint(term), schema.fingerprint(), options)


class PlanCache:
    """A bounded LRU cache of compiled query plans.

    One instance can back many pipelines (and many schemas — the schema
    fingerprint is part of the key).  ``max_entries`` bounds memory; the
    least recently used plan is evicted first.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("a plan cache needs at least one entry")
        self.max_entries = max_entries
        self._entries: OrderedDict[PlanKey, Any] = OrderedDict()
        # Lookups/stores arrive from many service handler threads at once;
        # the LRU reorder and the counters need a consistent view.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: PlanKey) -> Any | None:
        """The cached plan for ``key``, or None (counting hit/miss)."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plan

    def store(self, key: PlanKey, plan: Any) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Counters as a dict (for reporting / debugging)."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


_SHARED = PlanCache()


def shared_plan_cache() -> PlanCache:
    """The process-wide default cache (``ShreddingPipeline(cache=True)``)."""
    return _SHARED
