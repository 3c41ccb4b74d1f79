"""Indexing schemes compared (§6): canonical vs natural vs flat.

    python examples/indexing_schemes.py

Shreds Q6 once and evaluates it under all three indexing schemes, showing
the different index values that link outer and inner queries, the SQL each
scheme produces, and that stitching recovers the same nested value.
"""

from __future__ import annotations

from repro.data.organisation import ORGANISATION_SCHEMA, figure3_database
from repro.data.queries import Q6
from repro.normalise import normalise
from repro.nrc.typecheck import infer
from repro.api import connect
from repro.shred.indexes import (
    canonical_indexes,
    check_valid,
    index_fn_for,
)
from repro.shred.paths import paths
from repro.shred.semantics import run_shredded
from repro.shred.translate import shred_query
from repro.values import bag_equal


def main() -> None:
    db = figure3_database()
    schema = ORGANISATION_SCHEMA
    nf = normalise(Q6, schema)
    result_type = infer(Q6, schema)
    people_path = paths(result_type)[1]
    q2 = shred_query(nf, people_path)

    print("q2 (the `people` query) under each indexing scheme —")
    print("one row per person, with ⟨outer index, inner tasks index⟩:\n")
    for scheme in ("canonical", "natural", "flat"):
        index = index_fn_for(scheme, nf, db, schema)
        check_valid(index, canonical_indexes(nf, db, schema))  # Lemma 24
        print(f"[{scheme}]")
        for outer, value in run_shredded(q2, db, index):
            print(f"  outer={outer}   name={value['name']!r}   "
                  f"tasks={value['tasks']}")
        print()

    session = connect(db)
    print("SQL under the flat scheme (ROW_NUMBER surrogates, §6.2) — forced;")
    print("it is what a schema with a keyless table would get:")
    flat_prepared = session.with_options(scheme="flat").query(Q6)
    print(dict(flat_prepared.sql_by_path)[str(people_path)])

    print("\nSQL under the natural scheme (key columns, no OLAP, §6.1) — the")
    print("default here, because every table declares a key:")
    natural_prepared = session.query(Q6)
    print(dict(natural_prepared.sql_by_path)[str(people_path)])

    flat_out = flat_prepared.run().value
    natural_out = natural_prepared.run().value
    print(
        "\nboth schemes stitch to the same nested value:",
        bag_equal(flat_out, natural_out),
    )


if __name__ == "__main__":
    main()
