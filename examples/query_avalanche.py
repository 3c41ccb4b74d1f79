"""The N+1 "query avalanche" problem (§1), measured.

    python examples/query_avalanche.py

Runs the nested organisation view Q1 with the naive per-row evaluator and
with query shredding, at growing database sizes, counting database round
trips.  Shredding always issues nesting_degree(A) = 4 queries; the naive
strategy issues one query per row per nested collection.
"""

from __future__ import annotations

from repro.api import connect
from repro.backend.executor import ExecutionStats
from repro.baselines.naive import AvalanchePipeline
from repro.bench.harness import SYSTEMS, median_millis
from repro.data.generator import generate_organisation
from repro.data.queries import Q1


def main() -> None:
    print(f"{'#depts':>7} {'rows':>7} | {'shred qs':>9} {'naive qs':>9} | "
          f"{'shred ms':>9} {'naive ms':>9}")
    print("-" * 60)
    for departments in (2, 4, 8, 16):
        db = generate_organisation(
            departments, employees_per_dept=10, contacts_per_dept=5, seed=1
        )
        db.connection()

        shred_stats = connect(db).query(Q1).run().stats

        naive = AvalanchePipeline(db.schema).compile(Q1)
        naive_stats = ExecutionStats()
        naive.run(db, stats=naive_stats)

        shred_ms = median_millis(lambda: SYSTEMS["shredding"](Q1, db), 3)
        naive_ms = median_millis(lambda: SYSTEMS["avalanche"](Q1, db), 3)

        print(
            f"{departments:>7} {db.total_rows():>7} | "
            f"{shred_stats.queries:>9} {naive_stats.queries:>9} | "
            f"{shred_ms:>9.1f} {naive_ms:>9.1f}"
        )

    print(
        "\nShredding issues a fixed number of queries (the nesting degree"
        "\nof the result type); the naive strategy's round trips — and its"
        "\nlatency — grow linearly with the data."
    )


if __name__ == "__main__":
    main()
